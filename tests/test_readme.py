"""The README's examples run as written: the library sketch executes, and the
command-line configuration example parses."""
import re
from pathlib import Path

from bvmlab.config import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_library_sketch_runs(capsys):
    (sketch,) = _blocks("python")
    exec(compile(sketch, "README.md", "exec"), {"__name__": "readme_sketch"})
    assert capsys.readouterr().out


def test_config_example_parses():
    (example,) = _blocks("ini")
    config = parse_config(example)
    assert config.experiment == "coverage"
    assert config.ball_beta == 3.5
