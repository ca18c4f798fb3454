"""Working sets: each stage that handles an n x n or rows x n array holds one
copy of its large temporary, measured as the tracemalloc peak of one call at
n = 256.  A stage that built a new array at each step of its expression held
one more copy per step."""
import tracemalloc

import numpy as np
import pytest

from bvmlab import bvm, cli, operators, posterior, priors
from bvmlab.config import parse_config

N_MODES = 256
SQUARE = N_MODES * N_MODES * 8  # bytes of one n x n double matrix
ROWS = 256
ROW_BLOCK = ROWS * N_MODES * 8  # bytes of one rows x n double block


def _peak(fn) -> int:
    """Bytes ``fn()`` holds at its peak, beyond what was held when it started.
    A first call, not measured, loads whatever the stage imports."""
    fn()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def _context(extra: str) -> cli.ExperimentContext:
    text = f"experiment=coverage\nn_modes={N_MODES}\nfunctional.band=8\noutput_path=o.csv\n"
    return cli.build_context(parse_config(text + extra))


@pytest.fixture(scope="module")
def dense():
    """The dense sine-coefficient solution map's run and its posterior system."""
    context = _context("operator.coefficient=sine\n")
    assert not context.forward.is_diagonal
    return context, posterior.posterior_system(context.prior, context.forward)


def test_posterior_system_holds_its_two_matrices_and_the_decomposition(dense):
    # U^T and W are the system's own copies; U and V^T are the decomposition's.
    # The whitened matrix and a separately formed W held two more
    context, _ = dense
    assert _peak(lambda: posterior.posterior_system(context.prior, context.forward)) <= 4.1 * SQUARE


def test_weighted_spectrum_scales_one_matrix(dense):
    context, system = dense
    weights = context.basis.sobolev_weights(-3.5)
    assert _peak(lambda: system.weighted_spectrum(weights, 1e-3)) <= 1.2 * SQUARE


def test_elliptic_operator_drops_the_cholesky_inverse(dense):
    # the Galerkin matrix, its inverse, and the operators' own copies of both
    context, _ = dense
    coefficient = context.config.coefficient
    assert _peak(lambda: operators.elliptic_operator(coefficient, context.basis)) <= 4.4 * SQUARE


def test_replicate_table_reuses_the_noise_block():
    # the noise block and its rotation; each level's modal means overwrite the
    # noise once its functional term is taken
    context = _context("")
    assert context.forward.is_diagonal
    system = posterior.posterior_system(context.prior, context.forward)
    levels = [bvm.credible_sets(system, e, context.functional) for e in (1e-2, 1e-3)]
    peak = _peak(lambda: bvm.replicate_table(system, levels, context.truth, range(ROWS)))
    assert peak <= 2.4 * ROW_BLOCK


def test_cgf_holds_one_small_complex_block():
    # 400 contour points against 256 weights; the parent of this layout held
    # three complex blocks of up to 2**15 entries at once
    s = 0.1 + 1j * np.linspace(0.0, 5.0, 400)
    weights = np.linspace(1.0, 0.01, 256)
    assert _peak(lambda: priors._cgf(weights, s)) < 2 * (1 << 15) * 16
