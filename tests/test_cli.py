import ast
import collections
import dataclasses
import importlib
import inspect
import math
import multiprocessing
import os
import pkgutil
import subprocess
import re
import sys
import textwrap
import tracemalloc
import types
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import bvmlab
from bvmlab import bvm, cli, experiments, operators, posterior, priors, spectral
from bvmlab import config as config_module
from bvmlab.cli import build_context, emit_csv, main, run_command
from bvmlab.config import parse_config, resolved_items
from bvmlab.errors import ConfigurationError, NumericalError
from bvmlab.experiments import EXPERIMENTS
from bvmlab.seeds import derive_seed
from reference import csv_text_per_cell, load_csv

MINIMAL_BVP = """
experiment=coverage
operator.kind=bvp
n_modes=32
n_replicates=5
epsilons=1e-2,1e-3
output_path={out}
functional.band=8
"""

CONJUGACY = """
experiment=conjugacy
n_modes=24
n_replicates=6
operator.t=2.0
operator.time=0.05
output_path={out}
"""

RATES = """
experiment=rates
operator.kind=bvp
n_modes=16
n_replicates=5
truth.kind=sobolev
truth.alpha=2.0
epsilons=1e-2,3e-3,1e-3
output_path={out}
"""

TIGHTNESS = """
experiment=tightness
n_modes=32
tightness.max_modes=100
output_path={out}
"""

CONCENTRATION = """
experiment=concentration
n_modes=24
truth.scale=20
concentration.deltas={deltas}
concentration.mc_samples=5000
master_seed=11
output_path={out}
"""


class TestParseConfig:
    def test_minimal_defaults_applied(self):
        config = parse_config("experiment=coverage\noperator.kind=bvp\n")
        assert config.level == 0.95
        assert config.n_modes == 256
        assert config.oversample == 8
        items = dict(resolved_items(config))
        assert items["level"] == "0.95"

    def test_rough_prior_rejected_at_build(self):
        # the parse builds nothing; the prior's builder names its key
        config = parse_config("experiment=coverage\nprior.r=0.4\n")
        with pytest.raises(ConfigurationError, match="^key 'prior.r': .*r > d/2"):
            build_context(config)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError, match="'foo'"):
            parse_config("experiment=coverage\nfoo=1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config("experiment=coverage\nlevel=0.9\nlevel=0.95\n")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigurationError, match="'n_modes'"):
            parse_config("experiment=coverage\nn_modes=many\n")

    def test_comments_and_blank_lines(self):
        config = parse_config("# a comment\n\nexperiment=rates\nlevel=0.9  # trailing\n")
        assert config.experiment == "rates"
        assert config.level == 0.9

    def test_level_without_finite_quantile_rejected(self):
        # 0.5 + level / 2 rounds to 1 for the largest double below 1
        with pytest.raises(ConfigurationError, match="key 'level'"):
            parse_config("experiment=coverage\nlevel=0.9999999999999999\n")

    @pytest.mark.parametrize(
        "line, key",
        [("ball_draws=1000", "ball_draws"), ("operator.cond_limit=1e12", "operator.cond_limit")],
        ids=["ball_draws", "cond_limit"],
    )
    def test_retired_key_is_unknown(self, tmp_path, capsys, line, key):
        path = tmp_path / "retired.ini"
        path.write_text(f"experiment=coverage\nball_beta=3.5\n{line}\n")
        assert main(["validate", str(path)]) == 1
        assert f"unknown configuration key '{key}'" in capsys.readouterr().err

    def test_repeated_truth_modes_rejected(self):
        # the second value used to overwrite the first without an error
        with pytest.raises(ConfigurationError, match="key 'truth.modes'"):
            parse_config(
                "experiment=coverage\ntruth.kind=modes\ntruth.modes=1,1\ntruth.values=1,2\n"
            )

    def test_every_key_is_read_by_the_cli(self):
        # a key whose attribute the CLI never reads, directly, through what it
        # runs of an experiment's record or through a config property or method
        # it reads, is a knob that changes nothing; validate and the records'
        # checks read every key to check it, not to run with it
        def loads(source, is_config):
            tree = ast.parse(textwrap.dedent(source))
            return {
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and is_config(node.value)
            }

        def is_config(value):
            return (isinstance(value, ast.Name) and value.id == "config") or (
                isinstance(value, ast.Attribute) and value.attr == "config"
            )

        def called(source):
            # the functions of experiments that ``source`` names
            nodes = ast.walk(ast.parse(textwrap.dedent(source)))
            named = [getattr(experiments, n.id, None) for n in nodes if isinstance(n, ast.Name)]
            own = experiments.__name__
            return [f for f in named if inspect.isfunction(f) and f.__module__ == own]

        # the CLI, each record's functions but its check, and what they call
        sources = [inspect.getsource(cli)]
        functions = called(sources[0]) + [
            getattr(record, field.name)
            for record in EXPERIMENTS.values()
            for field in dataclasses.fields(record)
            if field.name != "check" and inspect.isfunction(getattr(record, field.name))
        ]
        while functions:
            source = inspect.getsource(functions.pop())
            if source not in sources:
                sources.append(source)
                functions += called(source)
        read = set().union(*(loads(source, is_config) for source in sources))
        pending = set(read)
        while pending:
            member = getattr(config_module.ExperimentConfig, pending.pop(), None)
            if isinstance(member, property):
                member = member.fget
            if inspect.isfunction(member) and member.__name__ != "validate":
                found = loads(
                    inspect.getsource(member),
                    lambda value: isinstance(value, ast.Name) and value.id == "self",
                )
                pending |= found - read
                read |= found
        keys = {attr: key for key, (attr, _) in config_module._KEY_TABLE.items()}
        assert sorted(key for attr, key in keys.items() if attr not in read) == []

    def test_key_names_are_pinned(self):
        # the keys come from the config's field names, so renaming a field must
        # fail here instead of silently renaming a user-facing key
        assert tuple(config_module._KEY_TABLE) == (
            "experiment",
            "n_modes",
            "oversample",
            "master_seed",
            "output_path",
            "epsilons",
            "n_replicates",
            "level",
            "ball_beta",
            "operator.kind",
            "operator.t",
            "operator.time",
            "operator.coefficient",
            "operator.coefficient_base",
            "operator.coefficient_amplitude",
            "prior.r",
            "prior.amplitude",
            "truth.kind",
            "truth.support",
            "truth.plateau",
            "truth.scale",
            "truth.alpha",
            "truth.seed",
            "truth.modes",
            "truth.values",
            "functional.kind",
            "functional.support",
            "functional.plateau",
            "functional.sine",
            "functional.band",
            "functional.mode",
            "functional.alpha",
            "functional.seed",
            "tightness.beta",
            "tightness.max_modes",
            "concentration.deltas",
            "concentration.mc_samples",
        )

    def test_attribute_is_key_with_underscore(self):
        for key, (attr, _) in config_module._KEY_TABLE.items():
            assert attr == key.replace(".", "_")

    def test_even_torus_modes_rejected(self):
        with pytest.raises(ConfigurationError, match="odd"):
            parse_config("experiment=coverage\noperator.kind=psido\nn_modes=256\n")

    @pytest.mark.parametrize(
        "line, key",
        [
            ("epsilons=1e-1,,1e-3", "epsilons"),
            ("truth.modes=1,2,", "truth.modes"),
            ("concentration.deltas=,0.3", "concentration.deltas"),
            ("truth.support=0.2, ,0.7", "truth.support"),
        ],
    )
    def test_empty_list_item_rejected(self, line, key):
        # empty items were dropped: the first line ran two noise levels
        with pytest.raises(ConfigurationError, match=f"^line 2: key '{re.escape(key)}': "):
            parse_config(f"experiment=coverage\n{line}\n")

    def test_empty_list_value_reparses(self):
        # rates reads no delta, so an empty list passes; resolved_items writes
        # it as an empty value, which parses back to the empty list
        config = parse_config("experiment=rates\nepsilons=1e-1,1e-2,1e-3\nconcentration.deltas=\n")
        assert config.concentration_deltas == ()
        text = "\n".join(f"{k}={v}" for k, v in resolved_items(config))
        assert parse_config(text).concentration_deltas == ()

    def test_resolved_text_reparses(self):
        config = parse_config("experiment=rates\nprior.r=1.5\nepsilons=1e-1,1e-2,1e-3\n")
        text = "\n".join(f"{k}={v}" for k, v in resolved_items(config))
        again = parse_config(text)
        assert resolved_items(again) == resolved_items(config)


class TestEmitCsv:
    def test_roundtrip_seventeen_digits(self, tmp_path):
        path = tmp_path / "x.csv"
        values = [math.pi, 1 / 3, 6.02e23, 1.7e-308]
        columns = ([str(i) for i in range(len(values))], np.array(values))
        text = cli._csv_text(("idx", "value"), columns)
        emit_csv(("idx", "value"), [text], str(path), [("key", "val")])
        metadata, header, parsed = load_csv(str(path))
        assert metadata == {"key": "val"}
        assert header == ["idx", "value"]
        for v, row in zip(values, parsed):
            assert float(row[1]) == v

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit_csv(("a",), [cli._csv_text(("a",), ([],))], str(tmp_path / "x.csv"))

    def test_pieces_are_written_unjoined(self, tmp_path):
        # 128 pieces of 64 KiB: the file holds their concatenation, and the
        # write holds about one piece beyond them; writing the joined body at
        # once encodes all 8 MiB in one go
        pieces = [f"{i:07d}\n" * 8192 for i in range(128)]
        path = tmp_path / "x.csv"

        def peak_of(body):
            tracemalloc.start()
            try:
                emit_csv(("a",), body, str(path))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_of(pieces) < 1 << 20
        assert path.read_text() == "a\n" + "".join(pieces)
        assert peak_of(["".join(pieces)]) > 6 << 20

    def test_empty_pieces_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit_csv(("a",), ["", ""], str(tmp_path / "x.csv"))
        assert os.listdir(tmp_path) == []

    def test_boolean_and_missing_cells(self, tmp_path):
        path = tmp_path / "x.csv"
        columns = (np.array([True, False]), ["", "1.5"])
        emit_csv(("a", "b"), [cli._csv_text(("a", "b"), columns)], str(path))
        _, _, rows = load_csv(str(path))
        assert rows[0] == ["true", ""]
        assert rows[1] == ["false", "1.5"]


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)


@st.composite
def _table(draw):
    """A header and columns of every kind the formatter takes, at least one of
    them holding a cell per row."""
    n_rows = draw(st.integers(0, 12))
    cells = st.text(max_size=6)
    per_row = st.one_of(
        st.lists(_FINITE, min_size=n_rows, max_size=n_rows).map(np.array),
        st.lists(st.booleans(), min_size=n_rows, max_size=n_rows).map(np.array),
        st.lists(cells, min_size=n_rows, max_size=n_rows),
    )
    single = st.one_of(
        _FINITE, st.sampled_from(["%", "100%", "%s%%", "%(x)d", ""]), cells, st.none()
    )
    columns = draw(st.lists(st.one_of(per_row, single), min_size=0, max_size=6))
    columns.insert(draw(st.integers(0, len(columns))), draw(per_row))
    return [f"c{j}" for j in range(len(columns))], columns


class TestCsvText:
    """Every table body goes through one formatter, which takes a column per
    header name and refuses a non-finite number by the column's name."""

    @settings(max_examples=300, deadline=None)
    @given(table=_table())
    def test_matches_the_per_cell_formatter(self, table):
        header, columns = table
        assert cli._csv_text(header, columns) == csv_text_per_cell(header, columns)

    @pytest.mark.parametrize(
        "column, cells",
        [
            (np.array([0.1, -2.5e-300]), ["0.10000000000000001", "-2.5e-300"]),
            (np.array([True, False]), ["true", "false"]),
            (["7", "a b"], ["7", "a b"]),
            (1 / 3, ["0.33333333333333331"] * 2),
            ("bvp", ["bvp"] * 2),
            (None, ["", ""]),
        ],
        ids=["float", "bool", "str", "scalar", "scalar_str", "none"],
    )
    def test_column_kinds(self, column, cells):
        text = cli._csv_text(("n", "x"), (["0", "1"], column))
        assert text == "".join(f"{i},{cell}\n" for i, cell in enumerate(cells))
        if isinstance(column, np.ndarray) and column.dtype == float:
            assert [float(cell) for cell in cells] == column.tolist()

    @pytest.mark.parametrize(
        "column",
        [np.array([1.0, np.inf]), np.array([np.nan, 0.0]), -np.inf],
        ids=["inf", "nan", "scalar_inf"],
    )
    def test_non_finite_names_column(self, column):
        with pytest.raises(NumericalError, match=r"^column 'x' is not finite at epsilon=0\.1$"):
            cli._csv_text(("n", "x"), (["0", "1"], column), " at epsilon=0.1")

    def test_header_and_columns_must_agree(self):
        with pytest.raises(ValueError):
            cli._csv_text(("n", "x", "y"), (["0"], np.array([1.0])))
        with pytest.raises(ValueError):
            cli._csv_text(("n", "x"), (["0", "1"], np.array([1.0])))

    def test_metadata_numbers_share_the_cell_format(self, tmp_path):
        path = tmp_path / "x.csv"
        metadata = [("a", 0.1), ("b", [1.5, -math.inf, 3]), ("c", "text")]
        emit_csv(("x",), ["1\n"], str(path), metadata)
        assert path.read_text().startswith("# a=0.10000000000000001\n# b=1.5,-inf,3\n# c=text\n")


class TestRunCommand:
    def test_conjugacy_exit_zero_and_residuals(self, tmp_path):
        out = tmp_path / "conj.csv"
        config = parse_config(CONJUGACY.format(out=out))
        assert run_command(config) == 0
        metadata, header, rows = load_csv(str(out))
        assert header == ["index", "family", "epsilon", "rel_distance"]
        assert {r[1] for r in rows} == {"bvp", "psido", "heat"}
        assert all(float(r[3]) < 1e-8 for r in rows)
        assert "prior_tail_bound" in metadata
        assert "embedding_constant_c" in metadata
        # the metadata block carries the entire resolved configuration
        for key, value in resolved_items(config):
            assert metadata.get(key) == value

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_heat_unresolvable_functional_exit_four(self, tmp_path, capsys, command):
        # the representer is built with the run, so validate refuses it too
        path, out = tmp_path / "heat.ini", tmp_path / "heat.csv"
        path.write_text(f"""
experiment=coverage
operator.kind=heat
operator.time=0.1
n_modes=64
n_replicates=3
functional.kind=mode
functional.mode=40
output_path={out}
""")
        assert main([command, str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error[4]: ") and err.count("\n") == 1
        assert not out.exists()

    def test_rare_event_exit_three(self, tmp_path):
        out = tmp_path / "conc.csv"
        text = f"""
experiment=concentration
n_modes=24
concentration.deltas=1e-9
concentration.mc_samples=2000
output_path={out}
"""
        config = parse_config(text)
        assert run_command(config) == 3

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            config = parse_config(MINIMAL_BVP.format(out=out))
            assert run_command(config) == 0
        body1 = out1.read_bytes()
        body2 = out2.read_bytes().replace(bytes(str(out2), "utf-8"), bytes(str(out1), "utf-8"))
        assert body1 == body2

    def test_coverage_schema(self, tmp_path):
        out = tmp_path / "cov.csv"
        config = parse_config(MINIMAL_BVP.format(out=out))
        assert run_command(config) == 0
        metadata, header, rows = load_csv(str(out))
        assert header == [
            "epsilon",
            "replicate",
            "functional_mean",
            "scaled_error",
            "hat_psi",
            "radius",
            "covered",
            "ball_radius",
            "ball_covered",
        ]
        assert len(rows) == 2 * 5
        assert metadata["level"] == "0.95"

    def test_workers_do_not_change_output(self, tmp_path):
        out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        config1 = parse_config(MINIMAL_BVP.format(out=out1))
        config4 = parse_config(MINIMAL_BVP.format(out=out4))
        assert run_command(config1, workers=1) == 0
        assert run_command(config4, workers=4) == 0
        body1 = out1.read_text().replace(str(out1), "OUT")
        body4 = out4.read_text().replace(str(out4), "OUT")
        assert body1 == body4

    def test_coverage_with_ball_fields(self, tmp_path):
        out = tmp_path / "ball.csv"
        text = MINIMAL_BVP.format(out=out) + "ball_beta=3.5\n"
        config = parse_config(text)
        assert run_command(config) == 0
        _, header, rows = load_csv(str(out))
        epsilon = header.index("epsilon")
        ball_radius = header.index("ball_radius")
        ball_covered = header.index("ball_covered")
        assert all(float(r[ball_radius]) > 0 for r in rows)
        assert all(r[ball_covered] in ("true", "false") for r in rows)
        # the exact radius is one number per noise level
        radii = {(r[epsilon], r[ball_radius]) for r in rows}
        assert len(radii) == len({r[epsilon] for r in rows}) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rates_metadata(self, tmp_path, workers):
        out = tmp_path / "rates.csv"
        text = f"""
experiment=rates
operator.kind=bvp
n_modes=32
n_replicates=4
truth.kind=sobolev
truth.alpha=2.0
prior.amplitude=100
epsilons=1e-2,3e-3,1e-3,3e-4
output_path={out}
"""
        config = parse_config(text)
        assert run_command(config, workers=workers) == 0
        metadata, header, rows = load_csv(str(out))
        assert header == ["epsilon", "replicate", "dual_error"]
        # the fit is of each level's mean of the file's dual_error cells
        means = [np.mean([float(r[2]) for r in rows if float(r[0]) == e]) for e in config.epsilons]
        fit = bvm.rate_fit(config.epsilons, means, 5 / 6)
        assert metadata["rate_slope"] == format(fit.slope, ".17g")
        assert metadata["rate_r_squared"] == format(fit.r_squared, ".17g")
        assert metadata["rate_predicted_exponent"] == format(5 / 6, ".17g")

    def test_rates_error_is_in_the_forward_maps_weak_norm(self, tmp_path):
        # the order-1 multiplier's weak norm is H^-1, the norm the predicted
        # exponent is for; the error was measured in H^-2 whatever the operator
        out = tmp_path / "rates.csv"
        config = parse_config(
            "experiment=rates\noperator.kind=psido\noperator.t=1\nn_modes=33\n"
            "n_replicates=3\ntruth.kind=sobolev\nepsilons=1e-2,1e-3,1e-4\nmaster_seed=7\n"
            f"output_path={out}\n"
        )
        assert run_command(config) == 0
        _, _, rows = load_csv(str(out))
        context = build_context(config)
        system = posterior.posterior_system(context.prior, context.forward)
        for epsilon, i, cell in rows:
            noise = posterior.noise_draw(context.basis, derive_seed(7, 2 * int(i)))
            signal = operators.apply(context.forward, context.truth).coeffs
            data = spectral.coeff_vector(context.basis, signal + float(epsilon) * noise.coeffs)
            mean = system.update(data, float(epsilon))
            error = spectral.coeff_vector(context.basis, mean.coeffs - context.truth.coeffs)
            want = spectral.sobolev_norm(error, -1.0)
            assert abs(float(cell) - want) <= 1e-12 * want

    def test_tightness_metadata(self, tmp_path):
        out = tmp_path / "tight.csv"
        text = f"""
experiment=tightness
operator.kind=bvp
n_modes=32
tightness.beta=3.5
tightness.max_modes=128
output_path={out}
"""
        config = parse_config(text)
        assert run_command(config) == 0
        metadata, header, rows = load_csv(str(out))
        assert metadata["tightness_verdict"] == "converges"
        assert len(rows) == 128

    def test_unwritable_path_exit_one(self, tmp_path):
        config = parse_config(MINIMAL_BVP.format(out="/nonexistent-dir/x.csv"))
        assert run_command(config) == 1


# a sine coefficient of constant value 1e-300 is stored as a diagonal solution
# map near 1e299, whose squares overflow
_FLAT_SINE = (
    "n_modes=32\nfunctional.band=8\noperator.coefficient=sine\n"
    "operator.coefficient_base=1e-300\noperator.coefficient_amplitude=0\n"
)


# a constant coefficient of 1e160 puts the representer C(C psi) near 1e320
_HUGE_REPRESENTER = "n_modes=32\nfunctional.band=8\noperator.coefficient_base=1e160\n"
_SOLUTION_OVERFLOWS = "key 'operator.coefficient_base': the solution of A*A x = psi overflows"
# psi = A g for the smoothed_image functional: the coefficient sets its scale
_PSI_NORM_OVERFLOWS = "key 'operator.coefficient_base': the representer's psi norm is inf"


class TestNonFiniteOutput:
    """A truth of scale 1e308 overflows the replicates: the run names the column
    and noise level, or the key, instead of writing inf and nan cells."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "lines, message",
        [
            (
                "experiment=coverage\nfunctional.band=8\nepsilons=1e-3,1e-4",
                "column 'functional_mean' is not finite at epsilon=0.0001",
            ),
            (
                "experiment=rates\ntruth.kind=sobolev\nepsilons=1e-2,3e-3,1e-3",
                "column 'dual_error' is not finite at epsilon=0.01",
            ),
        ],
        ids=["coverage", "rates"],
    )
    def test_exit_two_naming_column(self, tmp_path, capsys, lines, message, workers):
        path, out = tmp_path / "big.ini", tmp_path / "out.csv"
        path.write_text(
            f"{lines}\noperator.kind=bvp\nn_modes=32\nn_replicates=5\ntruth.scale=1e308\n"
            f"output_path={out}\n"
        )
        assert main(["run", str(path), "--workers", str(workers)]) == 2
        assert capsys.readouterr().err == f"error[2]: {message}\n"
        assert not out.exists()
        # neither the spill nor the sibling the table is written to stays behind
        assert os.listdir(tmp_path) == ["big.ini"]

    def test_tightness_and_conjugacy_columns_checked(self, tmp_path, monkeypatch, capsys):
        # every experiment's table goes through the same finite check
        def inf_series(op_l, beta, max_modes):
            return bvm.TightnessResult(np.full(max_modes, np.inf), bvm.TightnessVerdict.BOUNDARY)

        def nan_solve(prior, op, data, epsilon):
            # a CoeffVector refuses nan, so this stands in for one
            return types.SimpleNamespace(coeffs=np.full(op.basis.n_modes, np.nan))

        monkeypatch.setattr(bvm, "tightness_series", inf_series)
        monkeypatch.setattr(posterior, "tikhonov_solve", nan_solve)
        out = tmp_path / "out.csv"
        tightness = f"experiment=tightness\ntightness.max_modes=100\noutput_path={out}\n"
        for text, column in (
            (tightness, "partial_sum"),
            (CONJUGACY.format(out=out), "rel_distance"),
        ):
            assert run_command(parse_config(text)) == 2
            assert capsys.readouterr().err == f"error[2]: column '{column}' is not finite\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, extra, message, validated",
        [
            ("coverage", "", _PSI_NORM_OVERFLOWS, 2),
            ("coverage", "ball_beta=3.5\n", _PSI_NORM_OVERFLOWS, 2),
            ("rates", "", "the whitened operator's singular value", 0),
            ("tightness", "", "the operator's squared column norms", 0),
        ],
        ids=["coverage", "coverage-ball", "rates", "tightness"],
    )
    def test_overflowing_dense_operator_exits_two(
        self, tmp_path, capsys, experiment, extra, message, validated
    ):
        # a sine coefficient near 1e-300 puts the dense solution map's entries
        # near 1e299, whose squares overflow: coverage wrote radius 0 rows and
        # rates a constant dual_error with exit 0, the ball blamed ball_beta,
        # and tightness, whose squared column norms underflow, blamed its beta;
        # validate builds coverage's representer, which refuses psi = A g, whose
        # norm overflows, under the coefficient's key; rates and tightness fail
        # only in the run's posterior system and series
        path, out = tmp_path / "dense.ini", tmp_path / "out.csv"
        path.write_text(
            f"experiment={experiment}\n{extra}n_modes=32\nfunctional.band=8\nn_replicates=4\n"
            "operator.coefficient=sine\noperator.coefficient_base=1e-300\n"
            f"operator.coefficient_amplitude=1e-301\noutput_path={out}\n"
        )
        assert main(["validate", str(path)]) == validated
        capsys.readouterr()
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[2]: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, message, status",
        [
            (_FLAT_SINE, _PSI_NORM_OVERFLOWS, 2),
            (_FLAT_SINE + "ball_beta=3.5\n", _PSI_NORM_OVERFLOWS, 2),
            (
                "operator.kind=psido\nn_modes=33\noperator.t=-250\nfunctional.kind=sobolev\n"
                "functional.band=8\n",
                "key 'operator.t': the normal operator's largest eigenvalue",
                2,
            ),
            (
                "experiment=concentration\noperator.kind=psido\nn_modes=33\noperator.t=-250\n",
                "key 'operator.t': the weak norm's weights",
                1,
            ),
            (_HUGE_REPRESENTER + "functional.kind=sobolev\n", _SOLUTION_OVERFLOWS, 2),
            (_HUGE_REPRESENTER + "functional.kind=mode\n", _SOLUTION_OVERFLOWS, 2),
        ],
        ids=[
            "flat-sine",
            "flat-sine-ball",
            "psido-rough",
            "concentration-rough",
            "representer-sobolev",
            "representer-mode",
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_overflowing_diagonal_operator_one_line(
        self, tmp_path, lines, message, status, command
    ):
        # a stored-diagonal map whose squares overflow leaked a RuntimeWarning
        # (two stderr lines) before its error: the flat sine coefficient then
        # blamed the representer's norm and the order -250 multiplier exited 4
        # at condition inf, and concentration's weak norm blamed truth.scale;
        # the flat sine's representer comes from its companion, with no
        # decomposition, so its psi = A g fails first, on its overflowing norm,
        # which names the coefficient's key as the multiplier's overflow names t;
        # a fresh interpreter under -W error shows what the console script
        # prints, and fails on any warning it would print
        path, out = tmp_path / "rough.ini", tmp_path / "out.csv"
        experiment = "" if lines.startswith("experiment=") else "experiment=coverage\n"
        path.write_text(f"{experiment}{lines}n_replicates=4\noutput_path={out}\n")
        done = _python(_CLI_MAIN, command, str(path), timeout=60, PYTHONWARNINGS="error")
        assert done.returncode == status
        assert done.stderr.startswith(f"error[{status}]: {message}")
        assert done.stderr.count("\n") == 1
        assert not out.exists()

    def test_representer_whose_norm_overflows_runs(self, tmp_path):
        # psi_tilde near 1e200 is finite, though its squared norm is not; the
        # representer takes no norm of it, and the run's cells stay finite
        path, out = tmp_path / "big.ini", tmp_path / "out.csv"
        path.write_text(
            "experiment=coverage\nn_modes=32\nfunctional.band=8\nn_replicates=4\n"
            f"operator.coefficient_base=1e100\nfunctional.kind=sobolev\noutput_path={out}\n"
        )
        assert main(["run", str(path)]) == 0
        _, header, rows = load_csv(str(out))
        numeric = [i for i, name in enumerate(header) if "covered" not in name]
        cells = [float(row[i]) for row in rows for i in numeric if row[i]]
        assert rows and np.all(np.isfinite(cells))

    @pytest.mark.parametrize(
        "lines",
        [
            "operator.kind=heat\nn_modes=64\nfunctional.kind=mode\nfunctional.mode=4\n",
            "operator.kind=heat\nn_modes=64\nfunctional.kind=mode\nfunctional.mode=18\n",
            "operator.kind=psido\nn_modes=257\noperator.t=4\nfunctional.kind=sobolev\n"
            "functional.band=128\n",
        ],
        ids=["heat-mode-4", "heat-mode-18", "psido-t4-band128"],
    )
    def test_representer_at_any_condition_runs(self, tmp_path, capsys, lines):
        # psi occupies only modes whose squared multiplier is a normal double,
        # so it lies in the range of A*A and psi_j / a_j^2 is exact to rounding;
        # a condition gate refused these with exit 4, at conditions 7.2e12,
        # 7.9e276 and 7.2e16 over psi's modes
        path = tmp_path / "cond.ini"
        path.write_text(f"experiment=coverage\n{lines}n_replicates=6\nepsilons=1e-2,1e-4\n")
        assert main(["validate", str(path)]) == 0
        texts = []
        for workers in ("1", "2"):
            out = tmp_path / f"out-{workers}.csv"
            assert main(["run", str(path), "--workers", workers, "--out", str(out)]) == 0
            _, header, rows = load_csv(str(out))
            numeric = [i for i, name in enumerate(header) if "covered" not in name]
            cells = [float(row[i]) for row in rows for i in numeric if row[i]]
            assert len(rows) == 12 and np.all(np.isfinite(cells))
            written = out.read_text().splitlines()
            texts.append([line for line in written if not line.startswith("# output_path=")])
        assert texts[0] == texts[1]
        assert capsys.readouterr().err == ""

    def test_concentration_names_truth_scale(self, tmp_path):
        # the approximation cost's bisection used to run forever on an inf or nan residual
        path, out = tmp_path / "big.ini", tmp_path / "out.csv"
        text = CONCENTRATION.format(deltas="1.0,0.5,0.3", out=out)
        path.write_text(text.replace("truth.scale=20", "truth.scale=1e308"))
        done = _python(_CLI_MAIN, "run", str(path), timeout=60)
        assert done.returncode == 1
        assert done.stderr.startswith("error[1]: key 'truth.scale': ")
        assert done.stderr.count("\n") == 1
        assert not out.exists()


class TestMain:
    def test_validate_subcommand(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text(MINIMAL_BVP.format(out=tmp_path / "o.csv"))
        assert main(["validate", str(path)]) == 0
        captured = capsys.readouterr()
        assert "level=0.95" in captured.out

    def test_validate_bad_config(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text("experiment=coverage\nprior.r=0.1\n")
        assert main(["validate", str(path)]) == 1
        assert "r > d/2" in capsys.readouterr().err

    def test_run_with_overrides(self, tmp_path):
        path = tmp_path / "cfg"
        default_out = tmp_path / "default.csv"
        path.write_text(MINIMAL_BVP.format(out=default_out))
        out = tmp_path / "override.csv"
        assert main(["run", str(path), "--out", str(out), "--seed", "99"]) == 0
        assert out.exists() and not default_out.exists()
        metadata, _, _ = load_csv(str(out))
        assert metadata["master_seed"] == "99"

    @pytest.mark.parametrize("seed", ["-3", "18446744073709551616"])
    def test_seed_override_is_validated(self, tmp_path, capsys, seed):
        path = tmp_path / "cfg"
        out = tmp_path / "o.csv"
        path.write_text(MINIMAL_BVP.format(out=out))
        assert main(["run", str(path), "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[1]: key 'master_seed': ")
        assert not out.exists()

    def test_largest_seed_override_runs(self, tmp_path):
        path = tmp_path / "cfg"
        out = tmp_path / "o.csv"
        path.write_text(MINIMAL_BVP.format(out=out))
        assert main(["run", str(path), "--seed", str(2**64 - 1)]) == 0
        assert load_csv(str(out))[0]["master_seed"] == str(2**64 - 1)

    def test_missing_config_file(self, capsys):
        assert main(["run", "/no/such/file"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_workers_flag(self, tmp_path):
        path = tmp_path / "cfg"
        out = tmp_path / "w.csv"
        path.write_text(MINIMAL_BVP.format(out=out))
        assert main(["run", str(path), "--workers", "2"]) == 0
        assert out.exists()

    def test_invalid_worker_count(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text(MINIMAL_BVP.format(out=tmp_path / "o.csv"))
        assert main(["run", str(path), "--workers", "0"]) == 1


_LATE_FAILING = [
    ("coverage", "n_modes=32", "functional.band"),
    ("coverage", "n_modes=32\nfunctional.kind=sobolev\nfunctional.band=33", "functional.band"),
    ("coverage", "n_modes=32\nfunctional.kind=mode\nfunctional.mode=999", "functional.mode"),
    ("coverage", "n_modes=32\nfunctional.kind=mode\nfunctional.mode=0", "functional.mode"),
    (
        "coverage",
        "operator.kind=heat\nn_modes=32\nfunctional.kind=heat_mode\nfunctional.mode=33",
        "functional.mode",
    ),
    ("concentration", "n_modes=32\nconcentration.deltas=", "concentration.deltas"),
    ("concentration", "n_modes=32\nconcentration.deltas=0.3,0", "concentration.deltas"),
    ("concentration", "n_modes=32\nconcentration.deltas=-0.1", "concentration.deltas"),
    # 10**23 draws were simulated for practically ever; NumPy's multinomial
    # takes at most 2**63 - 1
    (
        "concentration",
        "n_modes=32\nconcentration.mc_samples=9223372036854775808",
        "concentration.mc_samples",
    ),
    ("tightness", "n_modes=32\ntightness.max_modes=99", "tightness.max_modes"),
    # tightness sums the elliptic differential operator's series; the heat
    # semigroup had none and failed unnamed, the torus raised n_modes to the
    # even tightness.max_modes and failed on the mode count
    ("tightness", "operator.kind=heat\nn_modes=32", "operator.kind"),
    ("tightness", "operator.kind=psido\nn_modes=33", "operator.kind"),
    # each of these functionals is defined for one operator only
    ("coverage", "operator.kind=heat\nn_modes=32", "functional.kind"),
    ("coverage", "operator.kind=psido\nn_modes=33", "functional.kind"),
    ("coverage", "n_modes=32\nfunctional.kind=heat_mode", "functional.kind"),
    ("coverage", "operator.kind=psido\nn_modes=33\nfunctional.kind=heat_mode", "functional.kind"),
    # coverage, rates and concentration build the truth, so its cutoff is read
    ("coverage", "n_modes=32\nfunctional.band=8\ntruth.plateau=0.1,0.5", "truth.plateau"),
    ("rates", "n_modes=32\ntruth.plateau=0.5,0.4", "truth.plateau"),
    # NumPy rejected a negative seed with a traceback; a mode outside the
    # basis failed only when the truth was built
    ("rates", "n_modes=32\ntruth.kind=sobolev\ntruth.seed=-1", "truth.seed"),
    (
        "coverage",
        "n_modes=32\nfunctional.kind=sobolev\nfunctional.band=8\nfunctional.seed=-1",
        "functional.seed",
    ),
    ("coverage", "n_modes=32\nfunctional.band=8\ntruth.kind=modes\ntruth.modes=999", "truth.modes"),
    ("coverage", "n_modes=32\nfunctional.band=8\ntruth.kind=modes\ntruth.modes=0", "truth.modes"),
    (
        "coverage",
        "n_modes=32\nfunctional.band=8\nfunctional.support=0.5,0.4",
        "functional.support",
    ),
    (
        "coverage",
        "n_modes=32\nfunctional.band=8\nfunctional.plateau=0.01,0.9",
        "functional.plateau",
    ),
    # coverage summed a repeated noise level's rows twice in diag.coverage_hits
    ("coverage", "n_modes=32\nfunctional.band=8\nepsilons=1e-2,1e-2", "epsilons"),
    # rates reads these in the rate fit, after every replicate
    ("rates", "n_modes=32\nepsilons=1e-1,1e-2", "epsilons"),
    # a repeated noise level gave a rank-deficient fit and exit 0
    ("rates", "n_modes=32\nepsilons=1e-2,1e-2,1e-3", "epsilons"),
    (
        "rates",
        "operator.kind=psido\nn_modes=17\noperator.t=-1\nepsilons=1e-1,1e-2,1e-3",
        "operator.t",
    ),
    ("rates", "n_modes=32\ntruth.alpha=-2\nepsilons=1e-1,1e-2,1e-3", "truth.alpha"),
    (
        "rates",
        "operator.kind=psido\nn_modes=17\noperator.t=1\ntruth.alpha=-1.5\n"
        "epsilons=1e-1,1e-2,1e-3",
        "truth.alpha",
    ),
    # epsilon**2 overflowed to a traceback, or underflowed to 0 and failed in
    # the ball radius naming no key
    ("coverage", "n_modes=32\nfunctional.band=8\nepsilons=1e300", "epsilons"),
    ("rates", "n_modes=32\nepsilons=1e300,1e-2,1e-3", "epsilons"),
    ("coverage", "n_modes=32\nfunctional.band=8\nepsilons=1e-200\nball_beta=3.5", "epsilons"),
    # the constant coefficient sat below its ellipticity floor when the
    # operator was built, which every experiment does
    (
        "coverage",
        "n_modes=32\nfunctional.band=8\noperator.coefficient_base=0",
        "operator.coefficient_base",
    ),
    ("tightness", "n_modes=32\noperator.coefficient_base=0", "operator.coefficient_base"),
    # the sine coefficient's floor (base - |swing|) / 2 underflowed to 0
    (
        "coverage",
        "n_modes=32\nfunctional.band=8\noperator.coefficient=sine\n"
        "operator.coefficient_base=5e-324\noperator.coefficient_amplitude=0",
        "operator.coefficient_base",
    ),
    # the highest torus multiplier underflowed to 0 or overflowed to inf
    ("concentration", "operator.kind=psido\nn_modes=257\noperator.t=1000", "operator.t"),
    ("concentration", "operator.kind=psido\nn_modes=257\noperator.t=-300", "operator.t"),
    # the highest multiplier was subnormal, so its inverse weak-norm weight
    # overflowed and the file held embedding_constant_c=inf with exit 0
    ("concentration", "operator.kind=psido\nn_modes=257\noperator.t=150", "operator.t"),
    # a sine coefficient of constant value 1e-309 (a subnormal floor) gives a
    # diagonal solution map near 1e308, whose embedding constant overflows:
    # the run ended with an unkeyed error once the whole ladder had run
    (
        "concentration",
        "n_modes=32\noperator.coefficient=sine\noperator.coefficient_base=1e-309\n"
        "operator.coefficient_amplitude=0",
        "operator.coefficient_base",
    ),
    # conjugacy builds the multiplier and the semigroup whatever operator.kind is
    ("conjugacy", "n_modes=256\noperator.t=1000", "operator.t"),
    ("conjugacy", "n_modes=32\noperator.time=-1", "operator.time"),
    # a psido replicate's posterior squared the order -250 torus multiplier
    # past the largest double: validate passed, and run exited 2 naming no
    # key, whatever operator.kind said
    ("conjugacy", "operator.kind=psido\nn_modes=33\noperator.t=-250", "operator.t"),
    ("conjugacy", "n_modes=32\noperator.t=-250", "operator.t"),
    # every prior variance underflowed to 0: radius-0 coverage rows, constant
    # rates errors and a zero concentration, each with exit 0
    ("coverage", "n_modes=32\nfunctional.band=8\nprior.r=1e6", "prior.r"),
    ("rates", "n_modes=32\nprior.r=1e6", "prior.r"),
    ("concentration", "n_modes=32\nprior.r=1e6", "prior.r"),
    ("coverage", "n_modes=32\nfunctional.band=8\nprior.amplitude=1e-320", "prior.amplitude"),
    # the master seed was taken modulo 2**64: -1 ran as 2**64 - 1 and 2**64 as 0
    ("coverage", "n_modes=32\nfunctional.band=8\nmaster_seed=-1", "master_seed"),
    ("coverage", "n_modes=32\nfunctional.band=8\nmaster_seed=18446744073709551616", "master_seed"),
    ("concentration", "n_modes=32\nmaster_seed=-1", "master_seed"),
    # the heat representer's weight exp(-2 lambda T) was void past 2 lambda T = 300
    (
        "coverage",
        "operator.kind=heat\nn_modes=32\nfunctional.kind=heat_mode\nfunctional.mode=13",
        "functional.mode",
    ),
    # these functionals were zero: every row had radius 0 and was covered, with exit 0
    ("coverage", "n_modes=64\nepsilons=1e-2,1e-3\nfunctional.band=0", "functional.band"),
    ("coverage", "n_modes=64\nepsilons=1e-2,1e-3\nfunctional.sine=0", "functional.sine"),
    # the midpoint grid of N = 512 nodes aliases sine k to 2N - k: 1024 sampled
    # the sine at its zeros (radius about 1e-15), 1023 ran as sin(pi x)
    ("coverage", "n_modes=64\nepsilons=1e-2,1e-3\nfunctional.sine=1024", "functional.sine"),
    ("coverage", "n_modes=64\nepsilons=1e-2,1e-3\nfunctional.sine=1023", "functional.sine"),
    # 0.5 + level / 2 rounded to 0.5: every row had radius 0 and was not
    # covered, with exit 0, and the ball radius raised ZeroDivisionError
    ("coverage", "n_modes=32\nfunctional.band=8\nlevel=1e-16", "level"),
    ("coverage", "n_modes=32\nfunctional.band=8\nlevel=1e-300\nball_beta=3.5", "level"),
    ("coverage", "n_modes=32\nfunctional.kind=sobolev\nfunctional.band=0", "functional.band"),
    (
        "coverage",
        "operator.kind=psido\nn_modes=33\nfunctional.kind=sobolev\nfunctional.band=-1",
        "functional.band",
    ),
    # delta**2 raised an OverflowError traceback in the approximation cost
    ("concentration", "n_modes=32\nconcentration.deltas=1e300", "concentration.deltas"),
    # the truth or the functional left the double range when the run built it,
    # and the error named no key
    ("rates", "n_modes=32\ntruth.kind=sobolev\ntruth.alpha=1e300", "truth.alpha"),
    (
        "coverage",
        "operator.kind=psido\nn_modes=33\nfunctional.kind=sobolev\nfunctional.alpha=1e300\n"
        "functional.band=8",
        "functional.alpha",
    ),
    (
        "coverage",
        "n_modes=32\nfunctional.band=8\ntruth.kind=modes\ntruth.values=1e308\ntruth.scale=10",
        "truth.scale",
    ),
    # the Sobolev draw's top norm weights overflowed, so its norm was inf and
    # the draw all zeros: rates wrote a full table with exit 0, and coverage
    # failed on a zero functional naming no key
    ("rates", "n_modes=32\ntruth.kind=sobolev\ntruth.alpha=78", "truth.alpha"),
    (
        "coverage",
        "n_modes=32\nfunctional.kind=sobolev\nfunctional.alpha=78\nfunctional.band=8",
        "functional.alpha",
    ),
]


class TestLateFailingKeys:
    """Inputs that used to pass ``validate`` and then fail in ``run`` without a key name."""

    @pytest.mark.parametrize(
        "experiment, lines, key",
        _LATE_FAILING,
        # the coverage cases keep the ids they had before the experiment was a parameter
        ids=[
            f"{lines}-{key}" if experiment == "coverage" else f"{experiment}-{lines}-{key}"
            for experiment, lines, key in _LATE_FAILING
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_rejected_naming_key(self, tmp_path, capsys, experiment, lines, key, command):
        path = tmp_path / "bad.ini"
        out = tmp_path / "out.csv"
        path.write_text(f"experiment={experiment}\n{lines}\noutput_path={out}\n")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[1]: key '{key}': ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "coefficient",
        [
            "operator.coefficient_base=1e306\n",
            "operator.coefficient=sine\noperator.coefficient_base=1e306\n"
            "operator.coefficient_amplitude=5e305\n",
        ],
        ids=["constant", "sine"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_overflowing_elliptic_map_named(self, tmp_path, capsys, coefficient, command):
        # the constant coefficient's multipliers and the sine coefficient's
        # Galerkin entries pass the largest double; the forward map's finite
        # check refuses either before any factorisation, with no warning
        path, out = tmp_path / "huge.ini", tmp_path / "out.csv"
        path.write_text(
            f"experiment=coverage\nn_modes=32\nfunctional.band=8\n{coefficient}output_path={out}\n"
        )
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err == (
            "error[1]: key 'operator.coefficient_base': the forward map's entries must be finite\n"
        )
        assert not out.exists()

    def test_ball_spectrum_underflow_named_at_run(self, tmp_path, capsys):
        # (1 + lambda_j)**-310 is 0 past the first mode and subnormal there;
        # whether the weighted posterior spectrum underflows too depends on the
        # noise level, which validate cannot know: here epsilon = 1e-3 is the
        # first level where it is 0
        path, out = tmp_path / "ball.ini", tmp_path / "out.csv"
        path.write_text(
            "experiment=coverage\noperator.kind=bvp\nn_modes=32\nfunctional.band=8\n"
            f"ball_beta=310\nepsilons=1e-1,1e-2,1e-3\noutput_path={out}\n"
        )
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[1]: key 'ball_beta': ") and err.count("\n") == 1
        assert "epsilon=0.001 " in err
        assert not out.exists()

    @pytest.mark.parametrize("beta", ["400", "-150"])
    def test_tightness_series_out_of_range_named_at_run(self, tmp_path, capsys, beta):
        # at beta = 400 every partial sum underflows to 0, at -150 the sums
        # reach inf; validate sums no series, so run names the key
        path, out = tmp_path / "tight.ini", tmp_path / "out.csv"
        path.write_text(f"experiment=tightness\ntightness.beta={beta}\noutput_path={out}\n")
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[1]: key 'tightness.beta': ") and err.count("\n") == 1
        assert not out.exists()

    def test_unreachable_delta_named_at_run(self, tmp_path, capsys):
        # at prior.r = 40 no multiplier the bisection tries brings the truth
        # within delta = 1e-150; validate runs no ladder, so run names the key
        # and the delta at fault
        path, out = tmp_path / "delta.ini", tmp_path / "out.csv"
        path.write_text(
            "experiment=concentration\nprior.r=40\nn_modes=64\n"
            f"concentration.deltas=0.5,1e-150\noutput_path={out}\n"
        )
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error[1]: key 'concentration.deltas': the approximation constraint "
            "at delta=1e-150 cannot be met\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["mode", "heat_mode"])
    @pytest.mark.parametrize("mode", [0, 17, 99])
    def test_functional_mode_refused_in_its_own_terms(self, kind, mode):
        # the refusal quoted the 0-based index: -1 for mode 0, 98 for mode 99
        operator = "heat" if kind == "heat_mode" else "bvp"
        with pytest.raises(ConfigurationError) as info:
            parse_config(
                f"experiment=coverage\noperator.kind={operator}\nn_modes=16\n"
                f"functional.kind={kind}\nfunctional.mode={mode}\n"
            )
        assert str(info.value) == f"key 'functional.mode': mode must lie in 1..16, got {mode}"

    @pytest.mark.parametrize(
        "line",
        [
            "n_modes=10000000000000000000",
            "n_modes=2000000000000000000",
            "oversample=10000000000000000000",
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_grid_numpy_cannot_index(self, tmp_path, capsys, line, command):
        # these ended in a ValueError traceback from np.arange
        path, out = tmp_path / "huge.ini", tmp_path / "out.csv"
        path.write_text(f"experiment=coverage\n{line}\nfunctional.band=8\noutput_path={out}\n")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[1]: keys 'n_modes'/'oversample': ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_limits_still_accepted(self, tmp_path):
        # band and mode may reach n_modes
        config = parse_config(
            "experiment=coverage\nn_modes=32\nfunctional.band=32\n"
            f"output_path={tmp_path / 'o.csv'}\nn_replicates=2\nepsilons=1e-2\n"
        )
        assert run_command(config) == 0
        config = parse_config(
            "experiment=coverage\nn_modes=32\nfunctional.kind=mode\nfunctional.mode=32\n"
            f"output_path={tmp_path / 'o.csv'}\nn_replicates=2\nepsilons=1e-2\n"
        )
        assert run_command(config) == 0
        # the other experiments build no functional, so its keys are not read;
        # the same holds for the keys only concentration or tightness reads
        assert parse_config(
            "experiment=rates\nn_modes=16\nfunctional.mode=999\n"
            "concentration.deltas=\ntightness.max_modes=99\n"
        )
        # mode 12 is the last whose 2 lambda T stays within 300 at T = 0.1
        assert parse_config(
            "experiment=coverage\noperator.kind=heat\nn_modes=32\n"
            "functional.kind=heat_mode\nfunctional.mode=12\n"
        )
        # a bump's plateau may shrink to a point; the functional's cutoff is read
        # only for a smoothed_image functional, and the truth's only for a bump
        config = parse_config(
            "experiment=coverage\nn_modes=32\nfunctional.band=8\n"
            "truth.support=0.01,0.99\ntruth.plateau=0.5,0.5\n"
            "functional.support=0.3,0.6\nfunctional.plateau=0.45,0.45\n"
            f"output_path={tmp_path / 'o.csv'}\nn_replicates=2\nepsilons=1e-2\n"
        )
        assert run_command(config) == 0
        assert parse_config(
            "experiment=coverage\nn_modes=32\nfunctional.kind=mode\n"
            "functional.support=0.5,0.4\ntruth.kind=modes\ntruth.support=0,1\n"
        )
        # the highest sine the 512-node grid resolves at n_modes=64
        assert parse_config(
            "experiment=coverage\nn_modes=64\nfunctional.sine=511\nepsilons=1e-2,1e-3\n"
        ).functional_sine == 511
        # band 0 keeps the torus's constant mode
        config = parse_config(
            "experiment=coverage\noperator.kind=psido\nn_modes=33\nfunctional.kind=sobolev\n"
            f"functional.band=0\noutput_path={tmp_path / 'o.csv'}\nn_replicates=2\nepsilons=1e-2\n"
        )
        assert run_command(config) == 0
        # only the elliptic operator reads its coefficient
        assert parse_config(
            "experiment=coverage\noperator.kind=psido\nn_modes=33\nfunctional.kind=mode\n"
            "operator.coefficient=sine\noperator.coefficient_amplitude=2\n"
        )
        # tightness and conjugacy build no truth, so its keys are not read
        assert parse_config("experiment=tightness\nn_modes=32\ntruth.support=0.0,0.7\n")
        assert parse_config("experiment=conjugacy\nn_modes=32\ntruth.support=0.2,1.0\n")
        # a rate needs t >= 0 and alpha > -t, but t = 0 and alpha = 0 pass,
        # and only rates reads operator.t's sign or truth.alpha's bound
        for lines in (
            "operator.kind=psido\nn_modes=17\noperator.t=0\ntruth.alpha=0",
            "n_modes=16\ntruth.kind=modes\ntruth.alpha=-1.99",
        ):
            config = parse_config(
                f"experiment=rates\n{lines}\nepsilons=1e-1,1e-2,1e-3\nn_replicates=2\n"
                f"output_path={tmp_path / 'o.csv'}\n"
            )
            assert run_command(config) == 0
        assert parse_config(
            "experiment=coverage\noperator.kind=psido\nn_modes=17\noperator.t=-1\n"
            "functional.kind=sobolev\nfunctional.band=4\ntruth.alpha=-5\nepsilons=1e-2\n"
        )


class TestCoverageDiagnostics:
    @staticmethod
    def _hits(header, rows, column, epsilons):
        eps, flag = header.index("epsilon"), header.index(column)
        return ",".join(
            str(sum(r[flag] == "true" for r in rows if float(r[eps]) == e)) for e in epsilons
        )

    @pytest.mark.parametrize("ball", [False, True], ids=["interval", "ball"])
    def test_hits_match_rows(self, tmp_path, ball):
        out = tmp_path / "cov.csv"
        text = (
            "experiment=coverage\noperator.kind=bvp\nn_modes=32\nfunctional.band=8\n"
            f"n_replicates=40\nepsilons=1e-1,1e-3,1e-5\noutput_path={out}\n"
        )
        if ball:
            text += "ball_beta=3.5\n"
        config = parse_config(text)
        assert run_command(config) == 0
        metadata, header, rows = load_csv(str(out))
        epsilons = config.epsilons
        assert metadata["diag.coverage_hits"] == self._hits(header, rows, "covered", epsilons)
        assert len(metadata["diag.coverage_hits"].split(",")) == 3
        if ball:
            assert metadata["diag.ball_hits"] == self._hits(header, rows, "ball_covered", epsilons)
        else:
            assert "diag.ball_hits" not in metadata

    WORKER_CASES = {
        "coverage": (MINIMAL_BVP, "ball_beta=3.5\n"),
        "coverage-dense": (MINIMAL_BVP, "ball_beta=3.5\noperator.coefficient=sine\n"),
        "rates": (RATES, ""),
        "tightness": (TIGHTNESS, ""),
        "concentration": (CONCENTRATION, ""),
        "conjugacy": (CONJUGACY, ""),
    }

    @pytest.mark.parametrize("template, extra", WORKER_CASES.values(), ids=WORKER_CASES)
    def test_one_and_two_workers_byte_identical(self, tmp_path, template, extra):
        # a real process pool (criterion 12), capped at the core count; a new
        # experiment brings a case
        cases = [text.format(out="o.csv", deltas="1.0") for text, _ in self.WORKER_CASES.values()]
        assert {parse_config(text).experiment for text in cases} == set(EXPERIMENTS)
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        text1 = template.format(out=out1, deltas="0.5,0.35") + extra
        text2 = template.format(out=out2, deltas="0.5,0.35") + extra
        assert run_command(parse_config(text1), workers=1) == 0
        assert run_command(parse_config(text2), workers=2) == 0
        body1 = out1.read_bytes().replace(bytes(str(out1), "utf-8"), b"OUT")
        body2 = out2.read_bytes().replace(bytes(str(out2), "utf-8"), b"OUT")
        assert body1 == body2
        # the runs leave their tables and nothing else beside them
        assert sorted(os.listdir(tmp_path)) == ["w1.csv", "w2.csv"]

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_workers_receive_the_run_once(self, tmp_path, monkeypatch, method):
        # 600 replicates on 2 workers are 3 chunks, so a worker scores two; the
        # run it scores them with reaches it once, inherited under fork and
        # unpickled once otherwise, and never with a chunk.  The operator is
        # dense and the run has a ball, yet no chunk decomposes anything
        log = tmp_path / "calls"
        pool = cli.concurrent.futures.ProcessPoolExecutor
        context = multiprocessing.get_context(method)
        monkeypatch.setattr(
            cli.concurrent.futures,
            "ProcessPoolExecutor",
            lambda max_workers, initializer=None, initargs=(): pool(
                max_workers, mp_context=context, initializer=initializer, initargs=initargs
            ),
        )
        _set_cpus(monkeypatch, 2)
        rows = dataclasses.replace(EXPERIMENTS["coverage"], rows=_TaggedRows(log))
        monkeypatch.setitem(EXPERIMENTS, "coverage", rows)
        text = MINIMAL_BVP.replace("n_replicates=5", "n_replicates=600")
        text += "operator.coefficient=sine\nball_beta=3.5\n"
        assert run_command(parse_config(text.format(out=tmp_path / "o.csv")), workers=2) == 0
        calls = [line.split() for line in log.read_text().splitlines()]
        assert len(calls) == 3
        tags = collections.defaultdict(set)
        for pid, tag, svds in calls:
            tags[int(pid)].add(tag)
            assert svds == "0"
        assert os.getpid() not in tags and len(tags) <= 2
        assert all(len(seen) == 1 for seen in tags.values())
        copies = set.union(*tags.values())
        if method == "fork":
            assert copies == {"parent"}
        else:
            assert "parent" not in copies and len(copies) == len(tags)

    @pytest.mark.parametrize("coefficient", ["constant", "sine"], ids=["diagonal", "dense"])
    def test_ball_flags_match_rates_dual_error(self, tmp_path, coefficient):
        # rates replicate i observes the noise of coverage replicate i, so with
        # ball_beta=2 its dual error is the distance the ball flag compares
        text = (
            "operator.kind=bvp\nn_modes=32\nn_replicates=60\ntruth.kind=sobolev\n"
            f"operator.coefficient={coefficient}\nepsilons=1e-1,1e-2,1e-3\nmaster_seed=3\n"
        )
        cov_out, rates_out = tmp_path / "cov.csv", tmp_path / "rates.csv"
        coverage = parse_config(
            text + f"experiment=coverage\nfunctional.band=8\nball_beta=2\noutput_path={cov_out}\n"
        )
        assert run_command(coverage) == 0
        assert run_command(parse_config(text + f"experiment=rates\noutput_path={rates_out}\n")) == 0
        _, cov_header, cov_rows = load_csv(str(cov_out))
        _, rates_header, rates_rows = load_csv(str(rates_out))
        key = [cov_header.index("epsilon"), cov_header.index("replicate")]
        radius, covered = cov_header.index("ball_radius"), cov_header.index("ball_covered")
        assert [[r[i] for i in key] for r in cov_rows] == [r[:2] for r in rates_rows]
        flags = [r[covered] == "true" for r in cov_rows]
        assert flags == [
            float(rates[2]) <= float(cov[radius]) for cov, rates in zip(cov_rows, rates_rows)
        ]
        assert any(flags) and not all(flags)


class TestBuildContext:
    def test_psido_context(self):
        config = parse_config(
            "experiment=coverage\noperator.kind=psido\nn_modes=33\noperator.t=2.0\n"
            "functional.kind=sobolev\nfunctional.alpha=5\nfunctional.band=4\n"
        )
        context = build_context(config)
        assert context.forward.basis.n_modes == 33
        assert context.functional.limiting_variance > 0

    def test_smoothed_image_needs_bvp(self):
        with pytest.raises(ConfigurationError, match="key 'functional.kind'"):
            parse_config(
                "experiment=coverage\noperator.kind=heat\nfunctional.kind=smoothed_image\n"
                "n_modes=32\n"
            )

    @pytest.fixture
    def builder_calls(self, monkeypatch):
        """Call counts of library builders, wherever a module of the package binds them."""
        counts = collections.Counter()
        for builder in (spectral.build_basis, priors.matern_prior, operators.psido_multiplier):

            def counting(*args, _builder=builder, **kwargs):
                counts[_builder.__name__] += 1
                return _builder(*args, **kwargs)

            for info in pkgutil.iter_modules(bvmlab.__path__):
                module = importlib.import_module(f"bvmlab.{info.name}")
                for name, value in list(vars(module).items()):
                    if value is builder:
                        monkeypatch.setattr(module, name, counting)
        return counts

    def test_coverage_run_builds_basis_and_prior_once(self, tmp_path, builder_calls):
        # the parse builds nothing, and the run builds its context once
        path = tmp_path / "cfg"
        path.write_text(MINIMAL_BVP.format(out=tmp_path / "o.csv"))
        assert main(["run", str(path)]) == 0
        assert builder_calls["build_basis"] == 1
        assert builder_calls["matern_prior"] == 1

    def test_conjugacy_run_builds_torus_multiplier_once(self, tmp_path, builder_calls):
        path = tmp_path / "cfg"
        path.write_text(CONJUGACY.format(out=tmp_path / "o.csv"))
        assert main(["run", str(path)]) == 0
        assert builder_calls["psido_multiplier"] == 1


def _python(script, *args, timeout=120, **env_overrides):
    """Run ``script`` with ``args`` in a fresh interpreter that imports this
    checkout's bvmlab; ``subprocess.TimeoutExpired`` after ``timeout`` seconds."""
    src = os.path.dirname(os.path.dirname(bvmlab.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for key, value in env_overrides.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


_CLI_MAIN = "import sys; from bvmlab.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_python(script, **env_overrides):
    """Run ``script`` in a fresh interpreter that imports this checkout's bvmlab."""
    done = _python(script, **env_overrides)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


_SCIPY_FREE_RUNS = {
    "dense-ball": MINIMAL_BVP + "operator.coefficient=sine\nball_beta=3.5\n",
    "diagonal": MINIMAL_BVP,
    "rates": RATES,
    "tightness": "experiment=tightness\nn_modes=32\noutput_path={out}\n",
    "concentration": CONCENTRATION.replace("{deltas}", "0.3,0.2"),
    "conjugacy": CONJUGACY,
}


def test_cli_runs_with_scipy_unimportable(tmp_path):
    # the runtime needs only numpy and the standard library; scipy is a test oracle
    configs = []
    for name, template in _SCIPY_FREE_RUNS.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(template.format(out=tmp_path / f"{name}.csv"))
        configs.append(str(path))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from bvmlab.cli import main\n"
        f"print([main(['run', path]) for path in {configs!r}])\n"
    )
    assert _run_python(script) == str([0] * len(configs))


def test_pool_module_loaded_only_by_a_pool(tmp_path):
    # concurrent.futures costs a serial run memory and start-up time, so only
    # the pool branch loads it; 600 replicates on 2 workers are 3 chunks
    serial, concentration, pooled = (tmp_path / f"{name}.ini" for name in ("s", "c", "p"))
    serial.write_text(MINIMAL_BVP.format(out=tmp_path / "s.csv"))
    concentration.write_text(CONCENTRATION.format(deltas="0.3,0.2", out=tmp_path / "c.csv"))
    pooled.write_text(
        MINIMAL_BVP.replace("n_replicates=5", "n_replicates=600").format(out=tmp_path / "p.csv")
    )
    script = (
        "import sys\n"
        "from bvmlab import cli\n"
        "cli.os.sched_getaffinity = lambda pid: {0, 1}\n"
        "loaded = lambda: 'concurrent.futures' in sys.modules\n"
        f"codes = [cli.main(['run', {str(serial)!r}]), cli.main(['run', {str(concentration)!r}])]\n"
        "before = loaded()\n"
        f"codes.append(cli.main(['run', {str(pooled)!r}, '--workers', '2']))\n"
        "print(codes, before, loaded())\n"
    )
    assert _run_python(script) == "[0, 0, 0] False True"


# each config runs in a fresh interpreter: main() in this process would block
# _hashlib for every test after it
_OPENSSL_RUNS = {
    "coverage": MINIMAL_BVP.replace("n_replicates=5", "n_replicates=600"),
    "concentration": CONCENTRATION.replace("{deltas}", "0.3,0.2"),
}


@pytest.mark.parametrize("case", [*_OPENSSL_RUNS, "worker"])
def test_cli_process_leaves_openssl_unloaded(tmp_path, case):
    # numpy.random reaches OpenSSL's libcrypto through secrets, hmac and
    # hashlib; a CLI process, or a pool worker, blocks _hashlib before that
    # import, while importing the CLI blocks nothing
    if case == "worker":
        call = "cli._init_worker(None)\nimport numpy.random\n"
    else:
        path = tmp_path / "cfg.ini"
        path.write_text(_OPENSSL_RUNS[case].format(out=tmp_path / "o.csv"))
        call = f"assert cli.main(['run', {str(path)!r}, '--workers', '1']) == 0\n"
    script = (
        "import sys\n"
        "from bvmlab import cli\n"
        "assert '_hashlib' not in sys.modules\n"
        f"{call}"
        "print(sys.modules['_hashlib'], 'numpy.random' in sys.modules)\n"
    )
    done = _python(script)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "None True\n")


def test_openssl_loaded_first_writes_the_same_bytes(tmp_path):
    # no digest reaches a stream: a process that loaded OpenSSL before the CLI
    # ran keeps it, and writes what a process without it writes, at one and
    # two workers
    for name, template in _OPENSSL_RUNS.items():
        (tmp_path / f"{name}.ini").write_text(template.format(out=tmp_path / f"{name}.csv"))
    bodies = collections.defaultdict(set)
    for first in ("", "import hashlib\n"):
        runs = [
            (name, tmp_path / f"{name}-{bool(first)}-{workers}.csv", workers)
            for name in _OPENSSL_RUNS
            for workers in (1, 2)
        ]
        calls = [
            ["run", str(tmp_path / f"{name}.ini"), "--workers", str(workers), "--out", str(out)]
            for name, out, workers in runs
        ]
        script = (
            f"import sys\n{first}"
            "from bvmlab import cli\n"
            "cli.os.sched_getaffinity = lambda pid: {0, 1}\n"
            f"for argv in {calls!r}:\n"
            "    assert cli.main(argv) == 0\n"
            "print(type(sys.modules['_hashlib']).__name__)\n"
        )
        done = _python(script)
        loaded = "module" if first else "NoneType"
        assert (done.returncode, done.stderr, done.stdout) == (0, "", f"{loaded}\n")
        for name, out, _ in runs:
            bodies[name].add(_body(out))
    assert {name: len(texts) for name, texts in bodies.items()} == dict.fromkeys(_OPENSSL_RUNS, 1)


def test_skip_openssl_keeps_a_loaded_hashlib():
    script = (
        "import sys, _hashlib\n"
        "from bvmlab import cli\n"
        "cli._skip_openssl()\n"
        "print(sys.modules['_hashlib'] is _hashlib)\n"
    )
    assert _run_python(script) == "True"


def test_openssl_kept_without_a_builtin_digest(tmp_path):
    # with _hashlib blocked, hashlib logs one stderr line per algorithm it has
    # no built-in module for; so an interpreter that lacks one keeps OpenSSL
    path = tmp_path / "cfg.ini"
    path.write_text(_OPENSSL_RUNS["concentration"].format(out=tmp_path / "o.csv"))
    script = (
        "import sys\n"
        "sys.modules['_md5'] = None\n"
        "from bvmlab import cli\n"
        f"code = cli.main(['run', {str(path)!r}])\n"
        "print(code, type(sys.modules['_hashlib']).__name__)\n"
    )
    done = _python(script)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "0 module\n")


_MODULES = ["bvmlab"] + [f"bvmlab.{m.name}" for m in pkgutil.iter_modules(bvmlab.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    # the span tracer in bench/hook looks up every name in __all__ when it installs
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", _MODULES)
def test_no_exported_name_is_a_generator(name):
    # a span the tracer wraps around a generator function closes when the
    # generator is created, before any of its work runs
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [
        attr for attr in exported if inspect.isgeneratorfunction(getattr(module, attr, None))
    ] == []


def test_every_exported_name_is_used():
    # the package exports only what the experiments, the benchmark or the
    # README sketch read; test oracles live in tests/reference.py
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    sources = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    for path in [*(root / "src" / "bvmlab").glob("*.py"), *(root / "bench").rglob("*.py")]:
        sources.append(path.read_text(encoding="utf-8"))
    used = set()
    for top in (node for source in sources for node in ast.parse(source).body):
        nodes = list(ast.walk(top))
        reads = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        reads |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        # a definition's reads of its own name do not count
        used |= reads - {getattr(top, "name", None)}
    unused = [
        f"{module.__name__}.{name}"
        for module in map(importlib.import_module, _MODULES)
        # dunders such as __version__ are package metadata, not API
        for name in getattr(module, "__all__", ())
        if not name.startswith("__") and name not in used
    ]
    assert unused == []


def test_only_experiments_reads_the_experiment_name():
    # every other module looks an experiment's record up in EXPERIMENTS and
    # never compares the experiment's name with a literal
    def named(node):
        return (isinstance(node, ast.Name) and node.id == "experiment") or (
            isinstance(node, ast.Attribute) and node.attr == "experiment"
        )

    def literal(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return all(map(literal, node.elts))
        return isinstance(node, ast.Constant)

    hits = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(bvmlab.__file__).parent.glob("*.py"))
        if path.name != "experiments.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        and any(map(named, [node.left, *node.comparators]))
        and any(map(literal, [node.left, *node.comparators]))
    ]
    assert hits == []


_BLAS_SCRIPT = """
import os
import bvmlab.cli
import numpy as np
import scipy.linalg
a = np.random.default_rng(0).standard_normal((256, 256))
b = a @ a.T
scipy.linalg.cho_factor(b + 256 * np.eye(256))
env = os.environ
print(len(os.listdir("/proc/self/task")), env["OPENBLAS_NUM_THREADS"], env["OMP_NUM_THREADS"])
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc to count threads")
class TestBlasThreads:
    def test_one_thread_per_process(self):
        # numpy and scipy each bundle a BLAS; both must stay single-threaded
        unset = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
        assert _run_python(_BLAS_SCRIPT, **unset) == "1 1 1"

    def test_user_setting_wins(self):
        out = _run_python(
            _BLAS_SCRIPT, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS=None, MKL_NUM_THREADS=None
        )
        assert out.split()[1:] == ["2", "1"]


class TestConcentration:
    def test_subnormal_target_ends(self, tmp_path):
        # delta**2 = 1e-320 is subnormal, so the tolerance 1e-10 * delta**2 of
        # the approximation cost's bisection is 0; the bisection used to run
        # forever and now stops once its bracket closes, after which the
        # small-ball estimate is refused for having no hits
        path, out = tmp_path / "tiny.ini", tmp_path / "out.csv"
        path.write_text(CONCENTRATION.format(deltas="1e-160", out=out))
        done = _python(_CLI_MAIN, "run", str(path), timeout=60)
        assert done.returncode == 3
        assert done.stderr.startswith("error[3]: delta=1e-160: only 0 of 5000 draws ")
        assert not out.exists()

    def test_first_row_matches_single_delta_run(self, tmp_path):
        out = tmp_path / "conc.csv"
        config = parse_config(CONCENTRATION.format(deltas="0.3,0.1,0.2", out=out))
        assert run_command(config) == 0
        context = build_context(config)
        (single,) = priors.concentration_ladder(
            context.prior,
            context.truth,
            (0.3,),
            config.ambient_exponent,
            mc_samples=5000,
            seed=derive_seed(11, 1),
        )
        _, header, rows = load_csv(str(out))
        assert header == ["delta", "approx_term", "smallball_term", "phi"]
        assert single.approx_term > 0
        assert rows[0] == [format(v, ".17g") for v in (0.3, *single[:3])]

    def test_psido_ladder_uses_operator_norm(self, tmp_path):
        # the ladder and the embedding constant are measured in one norm, H^{-t}
        out = tmp_path / "conc.csv"
        text = CONCENTRATION.format(deltas="0.5,0.4", out=out).replace(
            "n_modes=24", "operator.kind=psido\noperator.t=1\nn_modes=25"
        )
        config = parse_config(text)
        assert run_command(config) == 0
        context = build_context(config)
        expected = priors.concentration_ladder(
            context.prior, context.truth, (0.5, 0.4), -1.0, 5000, derive_seed(11, 1)
        )
        other = priors.concentration_ladder(
            context.prior, context.truth, (0.5, 0.4), -2.0, 5000, derive_seed(11, 1)
        )
        metadata, _, rows = load_csv(str(out))
        for row, value, wrong in zip(rows, expected, other):
            assert row[1:] == [format(v, ".17g") for v in value[:3]]
            assert row[1] != format(wrong.approx_term, ".17g")
        c = operators.embedding_constant(context.forward, -1.0)
        assert metadata["embedding_constant_c"] == format(c, ".17g")

    def test_smallball_diagnostics(self, tmp_path):
        out = tmp_path / "conc.csv"
        config = parse_config(CONCENTRATION.format(deltas="0.3,0.1,0.2", out=out))
        assert run_command(config) == 0
        metadata, _, rows = load_csv(str(out))
        hits = [int(h) for h in metadata["diag.smallball_hits"].split(",")]
        low = [float(x) for x in metadata["diag.smallball_log_low"].split(",")]
        high = [float(x) for x in metadata["diag.smallball_log_high"].split(",")]
        assert len(hits) == len(low) == len(high) == len(rows) == 3
        assert hits[1] <= hits[2] <= hits[0]
        for row, h, lo, hi in zip(rows, hits, low, high):
            log_prob = -float(row[2])
            assert log_prob == math.log(h / 5000)
            assert lo <= log_prob <= hi

    def test_exact_diagnostics_reparse(self, tmp_path):
        # the exact log masses the counts were drawn from, and the tolerance
        # of the contour integral behind them
        out = tmp_path / "conc.csv"
        config = parse_config(CONCENTRATION.format(deltas="0.3,0.1,0.2", out=out))
        assert run_command(config) == 0
        context = build_context(config)
        expected = priors.small_ball_ladder(
            context.prior, config.ambient_exponent, (0.3, 0.1, 0.2), 5000, derive_seed(11, 1)
        )
        metadata, _, _ = load_csv(str(out))
        exact = [float(x) for x in metadata["diag.smallball_log_exact"].split(",")]
        assert exact == [est.log_exact for est in expected]
        assert exact[1] < exact[2] < exact[0] < 0
        assert float(metadata["diag.quadrature_rtol"]) == priors.QUADRATURE_RTOL

    def test_rare_event_names_delta(self, tmp_path, capsys):
        config = parse_config(CONCENTRATION.format(deltas="1.0,1e-9", out=tmp_path / "c.csv"))
        assert run_command(config) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[3]: delta=1e-09: only 0 of 5000 draws")
        assert not (tmp_path / "c.csv").exists()


# read before any test patches it, so a worker that unpickles _TaggedRows finds it too
_COVERAGE_ROWS = EXPERIMENTS["coverage"].rows


class _TaggedRows:
    """Coverage rows that log the process and the copy of this object each call
    runs in, and the SVDs the call makes: the parent's copy is tagged "parent",
    each unpickled copy anew."""

    def __init__(self, log):
        self.log, self.tag = log, "parent"

    def __setstate__(self, state):
        self.__dict__.update(state, tag=os.urandom(8).hex())

    def __call__(self, context, run, indices):
        svd, svds = np.linalg.svd, []

        def counted(*args, **kwargs):
            svds.append(1)
            return svd(*args, **kwargs)

        np.linalg.svd = counted
        try:
            rows = _COVERAGE_ROWS(context, run, indices)
        finally:
            np.linalg.svd = svd
        with open(self.log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {self.tag} {len(svds)}\n")
        return rows


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs the initializer
    and maps in-process."""

    def __init__(self, sizes, max_workers, initializer, initargs):
        sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, payloads):
        return map(fn, payloads)


def _set_cpus(monkeypatch, cpus):
    """Let this process run on ``cpus`` CPUs; with None the platform reports no
    affinity and the machine's CPU count is unknown."""
    if cpus is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.fixture
def pool_sizes(monkeypatch):
    sizes = []
    # the initializer sets the worker's run in this process; restore it after
    monkeypatch.setattr(cli, "_worker_run", None)
    monkeypatch.setattr(
        cli.concurrent.futures,
        "ProcessPoolExecutor",
        lambda max_workers, initializer, initargs: _RecordingPool(
            sizes, max_workers, initializer, initargs
        ),
    )
    return sizes


class TestWorkerCap:
    @pytest.mark.parametrize("template", [MINIMAL_BVP, RATES], ids=["coverage", "rates"])
    @pytest.mark.parametrize("cpus", [3, 64, 1, None])
    def test_workers_capped(self, tmp_path, monkeypatch, pool_sizes, template, cpus):
        # 3 cores cap the pool; 64 cores leave the cap at the payload count, one
        # chunk of one replicate per payload, each covering every noise level;
        # one core, or an unknown count, runs without a pool
        expected = {3: [3], 64: [5], 1: [], None: []}[cpus]
        _set_cpus(monkeypatch, cpus)
        path = tmp_path / "cfg"
        out = tmp_path / "o.csv"
        path.write_text(template.format(out=out))
        assert main(["run", str(path), "--workers", "10000"]) == 0
        assert pool_sizes == expected
        serial = tmp_path / "serial.csv"
        assert main(["run", str(path), "--out", str(serial)]) == 0
        assert load_csv(str(out))[1:] == load_csv(str(serial))[1:]

    @pytest.mark.parametrize("template", [MINIMAL_BVP, RATES], ids=["coverage", "rates"])
    def test_affinity_caps_the_pool(self, tmp_path, monkeypatch, pool_sizes, template):
        # a process pinned to one of the machine's 64 CPUs runs in-process: four
        # workers would only time-share that CPU
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        _set_cpus(monkeypatch, 1)
        path = tmp_path / "cfg"
        pinned, serial = tmp_path / "pinned.csv", tmp_path / "serial.csv"
        path.write_text(template.format(out=pinned))
        assert main(["run", str(path), "--workers", "4"]) == 0
        assert pool_sizes == []
        assert main(["run", str(path), "--out", str(serial)]) == 0
        assert _body(pinned) == _body(serial)

    @pytest.mark.parametrize("template", [MINIMAL_BVP, RATES], ids=["coverage", "rates"])
    def test_one_chunk_starts_no_pool(self, tmp_path, monkeypatch, pool_sizes, template):
        # one replicate is one chunk: a second worker would have nothing to do
        _set_cpus(monkeypatch, 64)
        path = tmp_path / "cfg"
        out = tmp_path / "o.csv"
        path.write_text(template.format(out=out).replace("n_replicates=5", "n_replicates=1"))
        assert main(["run", str(path), "--workers", "2"]) == 0
        assert pool_sizes == []
        serial = tmp_path / "serial.csv"
        assert main(["run", str(path), "--out", str(serial)]) == 0
        assert load_csv(str(out))[1:] == load_csv(str(serial))[1:]

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = cli.build_context

        def counted(config):
            calls.append(config.experiment)
            return original(config)

        monkeypatch.setattr(cli, "build_context", counted)
        return calls

    def test_serial_rates_builds_context_once(self, tmp_path, builds):
        path = tmp_path / "cfg"
        path.write_text(RATES.format(out=tmp_path / "o.csv"))
        assert main(["run", str(path)]) == 0
        assert builds == ["rates"]

    @pytest.mark.parametrize("template", [MINIMAL_BVP, RATES], ids=["coverage", "rates"])
    @pytest.mark.parametrize("workers", [2, 5])
    def test_pool_run_builds_context_at_most_twice(
        self, tmp_path, monkeypatch, pool_sizes, builds, template, workers
    ):
        # the parent builds the context once and hands it to the workers; the
        # chunks build none however many there are
        _set_cpus(monkeypatch, 64)
        path = tmp_path / "cfg"
        path.write_text(template.format(out=tmp_path / "o.csv"))
        assert main(["run", str(path), "--workers", str(workers)]) == 0
        assert pool_sizes == [workers]
        assert len(builds) == 1


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 2000), workers=st.integers(1, 64))
def test_chunks_partition_replicates(n, workers):
    # a chunk is one task of the pool and holds every noise level's rows of
    # its replicates, so it stays within one replicate block
    block = cli.REPLICATE_BLOCK
    chunks = cli._chunks(n, workers)
    assert 1 <= len(chunks) <= max(workers, math.ceil(n / block))
    assert all(0 < len(chunk) <= block and chunk.step == 1 for chunk in chunks)
    assert [i for chunk in chunks for i in chunk] == list(range(n))


def _body(path):
    """The bytes of an output file, with its own path masked."""
    return path.read_bytes().replace(bytes(str(path), "utf-8"), b"OUT")


class TestReplicateMajor:
    """A pool task is a range of replicates at every noise level: each replicate's
    noise is drawn once per run, and each level's factor and radii are computed
    once per run, however the replicates are split."""

    TEMPLATES = {
        # three noise levels, and 300 replicates, so chunks cross a block boundary
        "coverage": MINIMAL_BVP.replace("epsilons=1e-2,1e-3", "epsilons=1e-1,1e-2,1e-3")
        .replace("n_replicates=5", "n_replicates=300")
        + "ball_beta=3.5\noperator.coefficient=sine\n",
        "rates": RATES,
    }

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = collections.Counter()

        def count(module, name, work):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += work(*args)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(bvm, "noise_block", lambda basis, seeds: len(seeds))
        count(posterior, "posterior_system", lambda *args: 1)
        count(bvm, "exact_ball_radius", lambda *args: 1)
        return counts

    def _run(self, tmp_path, monkeypatch, experiment, workers):
        _set_cpus(monkeypatch, 64)
        config = parse_config(self.TEMPLATES[experiment].format(out=tmp_path / "o.csv"))
        assert run_command(config, workers=workers) == 0
        return config

    @pytest.mark.parametrize("experiment", ["coverage", "rates"])
    @pytest.mark.parametrize("workers", [1, 5])
    def test_one_noise_row_per_replicate(
        self, tmp_path, monkeypatch, pool_sizes, counts, experiment, workers
    ):
        config = self._run(tmp_path, monkeypatch, experiment, workers)
        assert pool_sizes == ([] if workers == 1 else [workers])
        assert counts["noise_block"] == config.n_replicates

    @pytest.mark.parametrize("experiment", ["coverage", "rates"])
    def test_level_work_once_per_run(self, tmp_path, monkeypatch, pool_sizes, counts, experiment):
        # the recording pool maps in this process, like a worker forked from it
        config = self._run(tmp_path, monkeypatch, experiment, workers=5)
        assert pool_sizes == [5]
        # one posterior system serves every noise level
        assert counts["posterior_system"] == 1
        balls = len(config.epsilons) if config.ball_beta is not None else 0
        assert counts["exact_ball_radius"] == balls

    @pytest.mark.parametrize("experiment", ["coverage", "rates"])
    def test_spawned_workers_byte_identical(self, tmp_path, monkeypatch, experiment):
        # a spawned worker inherits nothing from the parent: it receives the
        # context and every level's factor and radii pickled by the initializer
        pool = cli.concurrent.futures.ProcessPoolExecutor
        spawn = multiprocessing.get_context("spawn")
        started = []

        def spawn_pool(max_workers, initializer, initargs):
            started.append(max_workers)
            return pool(max_workers, mp_context=spawn, initializer=initializer, initargs=initargs)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", spawn_pool)
        _set_cpus(monkeypatch, 2)
        template = self.TEMPLATES[experiment]
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert run_command(parse_config(template.format(out=out1)), workers=1) == 0
        assert run_command(parse_config(template.format(out=out2)), workers=2) == 0
        assert started == [2]
        assert _body(out1) == _body(out2)

    def test_ragged_chunks_byte_identical(self, tmp_path, monkeypatch):
        # 300 replicates: one worker runs chunks of 256 and 44, two run 150 each
        # and three 100 each
        _set_cpus(monkeypatch, 3)
        template = MINIMAL_BVP.replace("n_replicates=5", "n_replicates=300") + "ball_beta=3.5\n"
        bodies = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}.csv"
            assert run_command(parse_config(template.format(out=out)), workers=workers) == 0
            bodies.append(_body(out))
        assert bodies[1] == bodies[0] and bodies[2] == bodies[0]


class TestSpill:
    """The coverage and rates parent spills each chunk's texts to a nameless
    file beside the output as the chunk arrives, and keeps only where they are."""

    def test_parent_holds_about_one_chunk(self, tmp_path, monkeypatch):
        # 4096 replicates at three noise levels are 16 serial chunks of 256.
        # The peak is taken from the end of the build, whose own peak (the
        # prior tail's series) does not depend on the replicate count; what
        # is left is one chunk's texts and one level's formatting, however
        # many chunks there are, while holding the body costs 16 chunks
        build = cli.build_context

        def built(config):
            context = build(config)
            tracemalloc.reset_peak()
            return context

        monkeypatch.setattr(cli, "build_context", built)
        text = (
            "experiment=coverage\noperator.kind=bvp\nn_modes=8\nfunctional.band=4\n"
            "epsilons=1e-2,1e-3,1e-4\noutput_path={out}\nn_replicates="
        )

        def peak_and_body(n_replicates):
            out = tmp_path / f"{n_replicates}.csv"
            config = parse_config(text.format(out=out) + str(n_replicates))
            tracemalloc.start()
            try:
                assert run_command(config) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            lines = out.read_text().splitlines(keepends=True)
            return peak, sum(len(line) for line in lines if not line.startswith("#"))

        # a first run imports what scoring needs, outside the measured runs
        peak_and_body(4)
        one_peak, _ = peak_and_body(cli.REPLICATE_BLOCK)
        peak, body = peak_and_body(16 * cli.REPLICATE_BLOCK)
        chunk = body / 16
        assert peak < 3 * chunk
        assert peak < body / 4
        assert peak - one_peak < chunk / 4

    @pytest.mark.parametrize("template", [MINIMAL_BVP, RATES], ids=["coverage", "rates"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_spill_has_no_name_while_scoring(
        self, tmp_path, monkeypatch, pool_sizes, template, workers
    ):
        # a run killed mid-way leaves nothing behind: while the chunks are
        # scored the output's directory holds only the config (the recording
        # pool maps in this process, so every chunk looks)
        _set_cpus(monkeypatch, 2)
        seen = []
        name = "coverage" if template is MINIMAL_BVP else "rates"
        rows = EXPERIMENTS[name].rows

        def listing(context, run, indices):
            seen.append(sorted(os.listdir(tmp_path)))
            return rows(context, run, indices)

        listed = dataclasses.replace(EXPERIMENTS[name], rows=listing)
        monkeypatch.setitem(EXPERIMENTS, name, listed)
        path, out = tmp_path / "cfg", tmp_path / "o.csv"
        path.write_text(template.format(out=out).replace("n_replicates=5", "n_replicates=600"))
        assert main(["run", str(path), "--workers", str(workers)]) == 0
        assert pool_sizes == ([] if workers == 1 else [2])
        assert len(seen) == 3 and all(listed == ["cfg"] for listed in seen)
        assert sorted(os.listdir(tmp_path)) == ["cfg", "o.csv"]

    @pytest.mark.parametrize(
        "template",
        [MINIMAL_BVP, RATES, TIGHTNESS, CONCENTRATION, CONJUGACY],
        ids=["coverage", "rates", "tightness", "concentration", "conjugacy"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_missing_directory_fails_before_scoring(
        self, tmp_path, monkeypatch, capsys, pool_sizes, template, workers
    ):
        # every experiment's spill is made before anything is computed
        calls = []
        for module, name in (
            (bvm, "replicate_table"),
            (bvm, "replicate_errors"),
            (bvm, "tightness_series"),
            (priors, "concentration_ladder"),
            (posterior, "tikhonov_solve"),
        ):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        _set_cpus(monkeypatch, 2)
        missing = tmp_path / "missing"
        config = parse_config(template.format(out=missing / "o.csv", deltas="1.0,0.5"))
        assert run_command(config, workers=workers) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[1]: cannot write output: ") and err.count("\n") == 1
        assert calls == [] and pool_sizes == []
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("template", [MINIMAL_BVP, CONJUGACY], ids=["coverage", "conjugacy"])
    @pytest.mark.parametrize("via", ["output_path", "--out", "validate"])
    def test_directory_output_refused_before_the_build(
        self, tmp_path, monkeypatch, capsys, template, via
    ):
        # a directory used to be scored in full, then written beside as
        # '/.name.pid.tmp' in its parent; validate, given the directory as
        # output_path, exits with run's code and line
        builds = []
        monkeypatch.setattr(cli, "build_context", builds.append)
        directory = tmp_path / "out"
        directory.mkdir()
        path = tmp_path / "cfg"
        out = tmp_path / "o.csv" if via == "--out" else directory
        path.write_text(template.format(out=out))
        if via == "validate":
            argv = ["validate", str(path)]
        else:
            argv = ["run", str(path)] + (["--out", str(directory)] if via == "--out" else [])
        assert main(argv) == 1
        message = f"output_path {str(directory)!r} is a directory"
        assert capsys.readouterr().err == f"error[1]: cannot write output: {message}\n"
        assert builds == []
        assert sorted(os.listdir(tmp_path)) == ["cfg", "out"]
        assert os.listdir(directory) == []


class TestFailureExitCodes:
    @pytest.mark.parametrize(
        "error", [BrokenProcessPool("a worker died"), MemoryError()], ids=["broken_pool", "memory"]
    )
    def test_escaping_error_exits_two(self, tmp_path, monkeypatch, capsys, error):
        def fail(context, score_chunks):
            raise error

        failing = dataclasses.replace(EXPERIMENTS["coverage"], run=fail)
        monkeypatch.setitem(EXPERIMENTS, "coverage", failing)
        config = parse_config(MINIMAL_BVP.format(out=tmp_path / "o.csv"))
        assert run_command(config, workers=2) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[2]: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_basis_too_large_exits_two_at_validate(self, tmp_path, monkeypatch, capsys, command):
        # validate builds the run's context, so a basis too large to allocate
        # fails there
        def fail(*args, **kwargs):
            raise MemoryError("cannot allocate the quadrature grid")

        monkeypatch.setattr(spectral, "build_basis", fail)
        path, out = tmp_path / "big.ini", tmp_path / "o.csv"
        path.write_text(MINIMAL_BVP.format(out=out))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error[2]: MemoryError: cannot allocate the quadrature grid\n"
        assert not out.exists()

    def test_raw_linalg_error_exits_two(self, tmp_path, monkeypatch, capsys):
        # scipy.linalg raises numpy's LinAlgError class; neither may escape as a traceback
        assert scipy.linalg.LinAlgError is np.linalg.LinAlgError

        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(bvm, "fisher_solve", fail)
        config = parse_config(MINIMAL_BVP.format(out=tmp_path / "o.csv"))
        assert run_command(config) == 2
        err = capsys.readouterr().err
        assert err == "error[2]: LinAlgError: leading minor not positive definite\n"

    def test_failed_write_keeps_old_output(self, tmp_path, monkeypatch):
        out = tmp_path / "o.csv"
        out.write_text("old\n")

        def fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", fail_replace)
        with pytest.raises(OSError, match="disk full"):
            emit_csv(("a",), ["1\n"], str(out))
        assert out.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["o.csv"]
        config = parse_config(MINIMAL_BVP.format(out=out))
        assert run_command(config) == 1
        assert out.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["o.csv"]
        monkeypatch.undo()
        emit_csv(("a",), ["1\n"], str(out))
        assert out.read_text() == "a\n1\n"
        assert os.listdir(tmp_path) == ["o.csv"]

