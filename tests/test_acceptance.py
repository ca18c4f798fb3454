"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities.  Run with ``pytest -v -s tests/test_acceptance.py``.

Monte Carlo criteria use frozen master seeds; every run is bitwise
reproducible, so a verified pass is permanent.
"""
import math

import numpy as np
import pytest

from bvmlab.bvm import (
    CoverageKind,
    TightnessVerdict,
    coverage_report,
    heat_psi_from_representer,
    credible_sets,
    ks_distance,
    rate_fit,
    replicate_table,
    representer,
    tightness_series,
)
from bvmlab.cli import run_command
from bvmlab.config import parse_config
from bvmlab.operators import (
    EllipticCoefficient,
    ForwardOperator,
    adjoint_apply,
    apply,
    elliptic_operator,
    heat_semigroup,
    psido_multiplier,
)
from bvmlab.posterior import (
    noise_draw,
    observe,
    posterior_system,
    tikhonov_solve,
)
from bvmlab.priors import matern_prior, predict_rate, small_ball_ladder
from bvmlab.seeds import derive_seed
from bvmlab.spectral import (
    BasisKind,
    analyze,
    bandlimit_approx,
    build_basis,
    coeff_vector,
    inner,
    make_bump,
    sobolev_draw,
    sobolev_norm,
    unit_vector,
)
from reference import oracle_truncation_level, svd_truncated_functional

N_MODES = 256
EPS_LADDER = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
MASTER_SEED = 20250809


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


@pytest.fixture(scope="module")
def interval():
    return build_basis(BasisKind.DIRICHLET_SINE, N_MODES, 8)


@pytest.fixture(scope="module")
def bvp(interval):
    return elliptic_operator(EllipticCoefficient(lambda x: np.ones_like(x)), interval)


@pytest.fixture(scope="module")
def bvp_experiment(interval, bvp):
    """Shared context for criteria 2, 3, 7, and 11.

    Truth is a bump-based surrogate (smoothness label 2); the test functional
    is built so that its image under the differential operator is a
    band-limited bump-windowed sine, which keeps it inside the admissible
    range of the normal operator.
    """
    _, l_inv = bvp
    prior = matern_prior(interval, r=1.0, amplitude=1.0)
    fdag = analyze(make_bump((0.2, 0.7), (0.35, 0.55))(interval.grid), interval)
    zeta = make_bump((0.02, 0.98), (0.10, 0.90))
    window = zeta(interval.grid) * np.sin(2 * np.pi * interval.grid)
    image = bandlimit_approx(analyze(window, interval), N_MODES // 4)
    psi = apply(l_inv, image)
    functional = representer(l_inv, psi)
    system = posterior_system(prior, l_inv)
    levels = [credible_sets(system, eps, functional, level=0.95) for eps in EPS_LADDER]
    tables = replicate_table(system, levels, fdag, range(2000), master_seed=MASTER_SEED)
    results = dict(zip(EPS_LADDER, tables))
    return prior, l_inv, fdag, functional, results


def test_criterion_1_conjugacy_identity(interval):
    """Tikhonov minimiser equals the posterior mean across 50 random configurations."""
    torus = build_basis(BasisKind.FOURIER_TORUS, N_MODES + 1, 8)
    constant = EllipticCoefficient(lambda x: np.ones_like(x))
    varying = EllipticCoefficient(
        lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), floor=0.4
    )
    family_ops = [
        elliptic_operator(constant, interval)[1],
        elliptic_operator(varying, interval)[1],
        psido_multiplier(torus, 2.0),
        heat_semigroup(interval, 0.1),
    ]
    worst = 0.0
    for i in range(50):
        op = family_ops[i % len(family_ops)]
        rng = np.random.default_rng(derive_seed(101, i))
        prior = matern_prior(op.basis, 0.8 + 1.4 * rng.random(), 0.5 + 1.5 * rng.random())
        truth = sobolev_draw(op.basis, 1.5, derive_seed(102, i))
        epsilon = 10.0 ** rng.uniform(-3, -1)
        data = observe(op, truth, epsilon, seed=derive_seed(103, i))
        mean = posterior_system(prior, op).update(data, epsilon)
        tik = tikhonov_solve(prior, op, data, epsilon)
        gap = np.linalg.norm(tik.coeffs - mean.coeffs) / np.linalg.norm(mean.coeffs)
        worst = max(worst, gap)
    assert worst <= 1e-8
    report("1 conjugacy identity", f"max relative gap {worst:.2e} <= 1e-8 over 50 configs")


def test_criterion_2_semiparametric_bvm_bvp(bvp_experiment):
    """KS to the limit law shrinks along the ladder; posterior variance hits the limit."""
    prior, l_inv, fdag, functional, results = bvp_experiment
    sigma2 = functional.limiting_variance
    ks_values = {
        eps: ks_distance(results[eps].scaled_error, sigma2)
        for eps in EPS_LADDER
    }
    last_three = [ks_values[eps] for eps in EPS_LADDER[-3:]]
    assert last_three[0] >= last_three[1] >= last_three[2], f"KS not monotone: {last_three}"
    assert last_three[-1] < 0.05
    finest = results[EPS_LADDER[-1]]
    var_ratio = finest.sets.posterior_functional_variance / (EPS_LADDER[-1] ** 2 * sigma2)
    assert abs(var_ratio - 1.0) <= 0.05
    report(
        "2 semiparametric BvM (elliptic solution map)",
        f"KS last three {['%.4f' % v for v in last_three]}, "
        f"scaled posterior variance ratio {var_ratio:.4f}",
    )


def test_criterion_3_interval_coverage(bvp_experiment):
    """95% credible intervals cover at nominal rate with the efficient radius."""
    _, _, _, functional, results = bvp_experiment
    rep = coverage_report(results[EPS_LADDER[-1]], CoverageKind.INTERVAL)
    assert 0.93 <= rep.hit_rate <= 0.97
    target = 1.959964 * math.sqrt(functional.limiting_variance)
    gap = abs(rep.mean_scaled_radius - target) / target
    assert gap <= 0.05
    report(
        "3 interval coverage",
        f"hit rate {rep.hit_rate:.4f} in [0.93, 0.97], "
        f"scaled radius off the efficient width by {100 * gap:.2f}%",
    )


def test_criterion_4_heat_bvm(interval):
    """Severely ill-posed case: admissible functional built from its representer."""
    op = heat_semigroup(interval, 0.1)
    prior = matern_prior(interval, r=1.0, amplitude=1.0)
    fdag = analyze(make_bump((0.2, 0.7), (0.35, 0.55))(interval.grid), interval)
    functional = heat_psi_from_representer(unit_vector(interval, 0), 0.1)
    sigma2_oracle = math.exp(-2 * math.pi**2 * 0.1)
    assert functional.limiting_variance == pytest.approx(sigma2_oracle, rel=1e-12)
    system = posterior_system(prior, op)
    (table,) = replicate_table(
        system, [credible_sets(system, 1e-4, functional, level=0.95)],
        fdag, range(2000), master_seed=MASTER_SEED,
    )
    ks = ks_distance(table.scaled_error, sigma2_oracle)
    assert ks < 0.05
    report("4 heat-equation BvM", f"KS {ks:.4f} < 0.05 against N(0, {sigma2_oracle:.6f})")


def test_criterion_5_psido_bvm():
    """Smoothing-multiplier case on the torus with a band-limited smooth functional."""
    torus = build_basis(BasisKind.FOURIER_TORUS, N_MODES + 1, 8)
    t_order = 2.0
    op = psido_multiplier(torus, t_order)
    prior = matern_prior(torus, r=1.0, amplitude=1.0)
    fdag = sobolev_draw(torus, 1.0, 7)
    psi = bandlimit_approx(sobolev_draw(torus, 1.0 + 2 * t_order, 11), 8)
    functional = representer(op, psi)
    # independent scalar oracle for the limiting variance
    sigma2_oracle = float(
        np.sum((1.0 + torus.frequencies.astype(float) ** 2) ** t_order * psi.coeffs**2)
    )
    assert functional.limiting_variance == pytest.approx(sigma2_oracle, rel=1e-10)
    system = posterior_system(prior, op)
    (table,) = replicate_table(
        system, [credible_sets(system, 1e-4, functional, level=0.95)],
        fdag, range(2000), master_seed=MASTER_SEED,
    )
    ks = ks_distance(table.scaled_error, sigma2_oracle)
    assert ks < 0.05
    report("5 smoothing-multiplier BvM", f"KS {ks:.4f} < 0.05")


def test_criterion_6_contraction_rate_slopes(interval, bvp):
    """Posterior-mean error in the weak norm follows the predicted power of the noise."""
    _, l_inv = bvp
    prior = matern_prior(interval, r=1.0, amplitude=1e5)
    system = posterior_system(prior, l_inv)
    slopes = {}
    for alpha in (2.0, 0.5):
        predicted = predict_rate(2.0, 1.0, alpha)
        fdag = sobolev_draw(interval, alpha, 3)
        mean_errors = []
        for eps in EPS_LADDER:
            errs = [
                sobolev_norm(
                    coeff_vector(
                        interval,
                        system.update(observe(l_inv, fdag, eps, derive_seed(99, i)), eps).coeffs
                        - fdag.coeffs,
                    ),
                    -2.0,
                )
                for i in range(32)
            ]
            mean_errors.append(float(np.mean(errs)))
        fit = rate_fit(EPS_LADDER, mean_errors, predicted.exponent)
        assert abs(fit.slope - predicted.exponent) <= 0.1, (
            f"alpha={alpha}: slope {fit.slope:.4f} vs predicted {predicted.exponent:.4f}"
        )
        slopes[alpha] = (fit.slope, predicted.exponent)
    report(
        "6 contraction-rate slopes",
        ", ".join(
            f"alpha={a}: slope {s:.3f} (predicted {p:.3f})" for a, (s, p) in slopes.items()
        ),
    )


def test_criterion_7_credible_ball(bvp_experiment):
    """Dual-norm credible balls cover the truth and shrink linearly in the noise."""
    prior, l_inv, fdag, functional, _ = bvp_experiment
    system = posterior_system(prior, l_inv)
    (table,) = replicate_table(
        system, [credible_sets(system, 3e-4, functional, 0.95, ball_beta=3.5)],
        fdag, range(500), master_seed=MASTER_SEED,
    )
    rep = coverage_report(table, CoverageKind.BALL)
    assert 0.92 <= rep.hit_rate <= 0.98
    # radius decay measured on the asymptotic rungs of the ladder (the top
    # rungs saturate at the prior ball)
    slope_ladder = EPS_LADDER[-5:]
    levels = [
        credible_sets(system, eps, functional, 0.95, ball_beta=3.5) for eps in slope_ladder
    ]
    tables = replicate_table(system, levels, fdag, range(50), master_seed=MASTER_SEED + 1)
    radii = [table.sets.ball_radius for table in tables]
    fit = rate_fit(slope_ladder, radii, 1.0)
    assert abs(fit.slope - 1.0) <= 0.15
    report(
        "7 credible-ball coverage",
        f"ball hit rate {rep.hit_rate:.4f} in [0.92, 0.98], radius slope {fit.slope:.4f}",
    )


def test_ball_coverage_below_smoothness_threshold_recorded(bvp_experiment):
    """Informational only: ball behaviour in the dual range (2.5, 3] is recorded
    but carries no acceptance force."""
    prior, l_inv, fdag, functional, _ = bvp_experiment
    lines = []
    system = posterior_system(prior, l_inv)
    for beta in (2.75, 3.0):
        (table,) = replicate_table(
            system, [credible_sets(system, 3e-4, functional, 0.95, ball_beta=beta)],
            fdag, range(100), master_seed=MASTER_SEED,
        )
        rep = coverage_report(table, CoverageKind.BALL)
        assert 0.0 <= rep.hit_rate <= 1.0
        lines.append(f"beta={beta}: hit rate {rep.hit_rate:.3f}")
    print(f"RECORDED (no acceptance force) ball coverage below threshold: {'; '.join(lines)}")


def test_criterion_8_tightness_dichotomy():
    """Verdicts flip exactly at the critical dual smoothness; sums match the p-series."""
    basis = build_basis(BasisKind.DIRICHLET_SINE, 1000, 4)
    op_l, _ = elliptic_operator(EllipticCoefficient(lambda x: np.ones_like(x)), basis)
    verdicts = {
        beta: tightness_series(op_l, beta, 1000).verdict for beta in (3.5, 2.0, 2.5)
    }
    assert verdicts[3.5] is TightnessVerdict.CONVERGES
    assert verdicts[2.0] is TightnessVerdict.DIVERGES
    assert verdicts[2.5] is TightnessVerdict.BOUNDARY
    # termwise agreement with the scalar oracle, through the dense Galerkin path
    small = build_basis(BasisKind.DIRICHLET_SINE, 256, 8)
    dense_l, _ = elliptic_operator(
        EllipticCoefficient(lambda x: 1.0 + 1e-12 * np.sin(2 * np.pi * x)), small
    )
    assert not dense_l.is_diagonal
    sums = tightness_series(dense_l, 3.5, 256).partial_sums
    j = np.arange(1, 257, dtype=float)
    lam = (np.pi * j) ** 2
    oracle_terms = (1 + lam) ** (-3.5) * lam**2
    terms = np.diff(np.concatenate([[0.0], sums]))
    worst = np.max(np.abs(terms / oracle_terms - 1.0))
    assert worst <= 0.01
    report(
        "8 tightness dichotomy",
        f"verdicts converges/diverges/boundary at 3.5/2.0/2.5, "
        f"termwise gap {worst:.2e} <= 1%",
    )


def test_criterion_9_bandlimit_bounds():
    """Projection bounds hold with constant one on 100 rough-to-smooth random draws."""
    torus = build_basis(BasisKind.FOURIER_TORUS, 257, 8)
    alpha, cutoff = 2.0, 8
    checked = 0
    for seed in range(100):
        f = sobolev_draw(torus, alpha, seed)
        f_hat = bandlimit_approx(f, cutoff)
        diff = coeff_vector(torus, f_hat.coeffs - f.coeffs)
        norm_alpha_sq = sobolev_norm(f, alpha) ** 2
        for t in (0.0, 1.0, 3.0):
            assert (
                sobolev_norm(f_hat, t) ** 2
                <= (1 + cutoff**2) ** max(0.0, t - alpha) * norm_alpha_sq
            )
        for s in (0.0, 1.0):
            assert sobolev_norm(diff, s) ** 2 <= (1 + cutoff**2) ** (s - alpha) * norm_alpha_sq
        for s in (0.0, 1.0, 2.0):
            assert sobolev_norm(diff, -s) ** 2 <= (1 + cutoff**2) ** (-s - alpha) * norm_alpha_sq
        checked += 1
    assert checked == 100
    report("9 band-limit approximation bounds", "growth/error/dual bounds, constant 1, 100 draws")


def test_criterion_10_small_ball_slope(interval):
    """Log small-ball cost grows polynomially in 1/delta at the predicted exponent."""
    prior = matern_prior(interval, r=1.0, amplitude=1e5)
    deltas = np.array([0.5, 0.35, 0.25, 0.18])
    neglog = [-est.log_prob for est in small_ball_ladder(prior, -2.0, deltas, 400_000, seed=1234)]
    slope = float(np.polyfit(np.log(1.0 / deltas), np.log(neglog), 1)[0])
    target = 1.0 / (1.0 + 1.5)
    assert abs(slope - target) <= 0.3
    report(
        "10 small-ball slope",
        f"slope {slope:.3f} within 0.3 of {target:.3f} on the gated delta ladder",
    )


def test_criterion_11_efficiency_floor(bvp_experiment):
    """The oracle-truncated spectral-cutoff competitor does not beat the information bound."""
    prior, l_inv, fdag, functional, results = bvp_experiment
    eps = EPS_LADDER[-1]
    level = oracle_truncation_level(l_inv, functional.psi, fdag, eps)
    truth_value = inner(fdag, functional.psi)
    signal = apply(l_inv, fdag)
    scaled_errors = []
    for i in results[eps].replicate_index.tolist():
        w = noise_draw(l_inv.basis, derive_seed(MASTER_SEED, 2 * i))
        data = coeff_vector(l_inv.basis, signal.coeffs + eps * w.coeffs)
        estimate = svd_truncated_functional(l_inv, data, functional.psi, level)
        scaled_errors.append((estimate - truth_value) / eps)
    variance = float(np.var(scaled_errors, ddof=1))
    floor = 0.95 * functional.limiting_variance
    assert variance >= floor
    report(
        "11 efficiency floor",
        f"competitor variance {variance:.4f} >= 0.95 * {functional.limiting_variance:.4f} "
        f"(truncation level {level})",
    )


def test_criterion_12_infrastructure(interval, bvp, tmp_path):
    """Adjoint identities, representation equivalence, and scheduler-independent output."""
    torus = build_basis(BasisKind.FOURIER_TORUS, 65, 8)
    _, l_inv_const = bvp
    varying = EllipticCoefficient(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x), floor=0.4)
    l_inv_var = elliptic_operator(varying, interval)[1]
    families = [
        psido_multiplier(torus, 2.0),
        l_inv_var,
        heat_semigroup(interval, 0.1),
    ]
    worst_adjoint = 0.0
    for op in families:
        rng = np.random.default_rng(55)
        for _ in range(50):
            f = coeff_vector(op.basis, rng.standard_normal(op.basis.n_modes))
            g = coeff_vector(op.basis, rng.standard_normal(op.basis.n_modes))
            gap = abs(inner(apply(op, f), g) - inner(f, adjoint_apply(op, g)))
            worst_adjoint = max(worst_adjoint, gap / max(abs(inner(apply(op, f), g)), 1.0))
    assert worst_adjoint <= 1e-10

    # dense/diagonal equivalence for operator action and posterior
    prior = matern_prior(interval, r=1.0)
    fdag = sobolev_draw(interval, 2.0, 5)
    data = observe(l_inv_const, fdag, 1e-3, seed=77)
    l_inv_dense = ForwardOperator(basis=interval, array=np.diag(l_inv_const.multipliers))
    diag_system = posterior_system(prior, l_inv_const)
    dense_system = posterior_system(prior, l_inv_dense)
    diag_mean = diag_system.update(data, 1e-3)
    dense_mean = dense_system.update(data, 1e-3)
    mean_gap = np.abs(dense_mean.coeffs - diag_mean.coeffs).max()
    # the posterior variances of the coordinates, diag(W diag(h^2) W^T)
    diag_var = (diag_system.w * diag_system.spreads(1e-3)) ** 2
    dense_var = np.sum((dense_system.w * dense_system.spreads(1e-3)) ** 2, axis=1)
    cov_gap = np.abs(dense_var - diag_var).max()
    assert mean_gap <= 1e-10 and cov_gap <= 1e-10

    # end-to-end determinism across worker counts
    out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    base = (
        "experiment=coverage\noperator.kind=bvp\nn_modes=256\nn_replicates=20\n"
        "epsilons=1e-3,1e-4\nfunctional.band=64\nmaster_seed=5\noutput_path={}"
    )
    assert run_command(parse_config(base.format(out1)), workers=1) == 0
    assert run_command(parse_config(base.format(out4)), workers=4) == 0
    body1 = out1.read_text().replace(str(out1), "OUT")
    body4 = out4.read_text().replace(str(out4), "OUT")
    assert body1 == body4
    report(
        "12 infrastructure",
        f"adjoint gap {worst_adjoint:.2e}, dense/diagonal gap "
        f"{max(mean_gap, cov_gap):.2e}, worker counts 1 and 4 byte-identical",
    )
