"""The README's examples run as written: the library sketch executes, and the
command-line configuration example parses and validates through the installed
console script's target."""
import importlib
import re
import sys
from pathlib import Path

from bvmlab.config import parse_config

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


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


def _script_target(name):
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    if sys.version_info >= (3, 11):
        import tomllib

        return tomllib.loads(text)["project"]["scripts"][name]
    return re.search(rf'^{name} = "(.*)"$', text, flags=re.M).group(1)


def test_console_script_validates_config_example(tmp_path, capsys):
    module, _, attr = _script_target("bvmlab").partition(":")
    entry = getattr(importlib.import_module(module), attr)
    (example,) = _blocks("ini")
    path = tmp_path / "example.ini"
    path.write_text(example, encoding="utf-8")
    assert entry(["validate", str(path)]) == 0
    assert "ball_beta=3.5\n" in capsys.readouterr().out
