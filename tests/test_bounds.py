import math

import numpy as np
import pytest

from qopf import bounds, harness, model, sim
from qopf.bounds import BoundInputs
from qopf.grid import ValidationError
from qopf.model import DualPoint, PrimalPoint, sampled_mode

from conftest import diagonals, random_problem


def unit_inputs(**overrides):
    base = dict(p_count=1, q_count=1, alpha_bar=1.0, beta_bar=1.0, norm_m0=1.0,
                max_norm_mm=1.0, max_abs_b=1.0, sum_norm_sq_m0=1.0,
                sum_max_norm_sq=1.0, colors=1, rho=0.0, epsilon=1.0, dist0=1.0)
    base.update(overrides)
    return BoundInputs(**base)


def test_lipschitz_all_ones_is_nine():
    assert bounds.lipschitz_L(unit_inputs()) == 9.0


def test_lipschitz_beta_zero_reduces_to_cost_branch():
    inputs = unit_inputs(p_count=3, beta_bar=0.0, norm_m0=2.0)
    # (P a^2 + 2a) ||M0|| with a = 1
    assert bounds.lipschitz_L(inputs) == (3 + 2) * 2.0


def test_sigma_zero_scales():
    assert bounds.sigma_sq(unit_inputs(alpha_bar=0.0, beta_bar=0.0,
                                       p_count=0, q_count=0)) == 0.0


def test_sigma_single_color_identity_arithmetic():
    inputs = unit_inputs(p_count=0, q_count=0, max_abs_b=0.0)
    assert bounds.sigma_sq(inputs) == 12.0


def test_iteration_and_shot_fixtures():
    assert bounds.iteration_count(lip=1.0, dist0=1.0, epsilon=1.0, rho=0.0) == 32
    assert bounds.shots_per_step(var=1.0, epsilon=1.0, lip=1.0, rho=0.0) == 64


def test_circuit_count_fixture():
    assert bounds.circuits_per_iteration(120, 315, 10) == 5210


def test_budget_composition():
    inputs = unit_inputs()
    report = bounds.budget(inputs)
    lip = bounds.lipschitz_L(inputs)
    var = bounds.sigma_sq(inputs)
    assert report.lipschitz == lip
    assert report.sigma_sq == var
    assert report.iterations == math.ceil(32 * lip**2)
    assert report.shots_per_circuit == math.ceil(64 * var)
    assert report.circuits_per_iter == 3 * 1 + 3
    assert report.total == report.circuits_per_iter * report.iterations \
        * 2 * report.shots_per_circuit
    assert report.total_bound == report.circuits_per_iter * math.ceil(
        4224 * lip**2 * var)


def test_budget_monotonicity_in_rho_and_epsilon():
    lip = 2.0
    t0 = bounds.iteration_count(lip, 1.0, 0.5, rho=0.0)
    t1 = bounds.iteration_count(lip, 1.0, 0.5, rho=0.05)
    assert t1 >= t0
    s0 = bounds.shots_per_step(3.0, 0.5, lip, rho=0.0)
    s1 = bounds.shots_per_step(3.0, 0.5, lip, rho=0.05)
    assert s1 >= s0
    assert bounds.iteration_count(lip, 1.0, 0.25, rho=0.0) >= t0
    assert bounds.shots_per_step(3.0, 0.25, lip, rho=0.0) >= s0


def test_budget_rejects_inadmissible_rho():
    with pytest.raises(ValidationError, match="rho"):
        bounds.iteration_count(lip=1.0, dist0=1.0, epsilon=1.0, rho=0.5)


def make_ctx(seed, scale=0.6):
    problem = random_problem(4, 4, seed=seed, scale=scale)
    return model.LagrangianContext(problem, sim.AnsatzSpec.from_row(2, 2, 1),
                                   sim.AnsatzSpec.from_row(2, 2, 1))


def test_inputs_from_context_measures_norms():
    ctx = make_ctx(0)
    inputs = bounds.inputs_from_context(ctx, alpha_bar=1.5, beta_bar=1.5)
    norms = np.array([np.linalg.norm(c.matrix.toarray(), 2)
                      for c in ctx.problem.constraints])
    assert inputs.max_norm_mm == pytest.approx(float(norms.max()), rel=1e-6)
    assert inputs.norm_m0 == pytest.approx(
        float(np.linalg.norm(ctx.problem.m0.toarray(), 2)), rel=1e-12)
    assert inputs.colors == ctx.color_count
    assert inputs.sum_norm_sq_m0 == pytest.approx(
        sum(np.max(np.abs(d))**2 for d in diagonals(ctx.m0_decomposition)), abs=1e-12)


@pytest.mark.parametrize("case_name", ["case3", "ieee57"])
def test_norm_m0_is_the_dense_spectral_norm(case_name, request):
    """||M0|| is read from the cost stack exactly, not estimated."""
    problem = harness.prepare_case(request.getfixturevalue(case_name), 2, 0).permuted
    ctx = harness.build_context(harness.ExperimentConfig(case_path="unused"), problem)
    inputs = bounds.inputs_from_context(ctx)
    np.testing.assert_allclose(inputs.norm_m0, np.linalg.norm(problem.m0.toarray(), 2),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("case_name", ["case3", "ieee57"])
def test_row_norms_match_dense_spectral_norms(case_name, request):
    problem = harness.prepare_case(request.getfixturevalue(case_name), 2, 0).permuted
    norms = bounds.row_norms(problem.stack)
    expected = np.array([np.linalg.norm(row, 2) for row in problem.dense_constraints()])
    assert norms.shape == (problem.m_stored,)
    assert np.all(expected[problem.m:] == 0) and np.all(norms[problem.m:] == 0)
    np.testing.assert_allclose(norms, expected, rtol=1e-12, atol=0)


def test_lipschitz_bounds_gradient_differences():
    """Difference quotients of g never exceed L inside the box."""
    ctx = make_ctx(1)
    alpha_bar = beta_bar = 1.2
    inputs = bounds.inputs_from_context(ctx, alpha_bar=alpha_bar, beta_bar=beta_bar)
    lip = bounds.lipschitz_L(inputs)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        def point():
            return (rng.uniform(0, 2 * math.pi, ctx.p_count),
                    rng.uniform(0, alpha_bar),
                    rng.uniform(0, 2 * math.pi, ctx.q_count),
                    rng.uniform(0, beta_bar))

        t1, a1, f1, b1 = point()
        t2, a2, f2, b2 = point()
        g1 = model.grad(ctx, PrimalPoint(t1, a1), DualPoint(f1, b1)).stacked()
        g2 = model.grad(ctx, PrimalPoint(t2, a2), DualPoint(f2, b2)).stacked()
        dz = np.concatenate([t1 - t2, [a1 - a2], f1 - f2, [b1 - b2]])
        quotient = np.linalg.norm(g1 - g2) / np.linalg.norm(dz)
        worst = max(worst, quotient)
        assert quotient <= lip
    assert worst > 0  # sanity: quotients are nontrivial


def test_variance_bound_dominates_empirical():
    """E||g_hat - g||^2 <= sigma^2 / S with a 5-sigma margin."""
    ctx = make_ctx(2, scale=0.5)
    alpha_bar = beta_bar = 1.0
    inputs = bounds.inputs_from_context(ctx, alpha_bar=alpha_bar, beta_bar=beta_bar)
    var_bound = bounds.sigma_sq(inputs)
    shots = 4
    rng = np.random.default_rng(9)
    for trial in range(2):
        theta = rng.uniform(0, 2 * math.pi, ctx.p_count)
        phi = rng.uniform(0, 2 * math.pi, ctx.q_count)
        alpha = float(rng.uniform(0.3, alpha_bar))
        beta = float(rng.uniform(0.3, beta_bar))
        p, d = PrimalPoint(theta, alpha), DualPoint(phi, beta)
        exact = model.grad(ctx, p, d).stacked()
        n = 300
        sq_errors = np.empty(n)
        for k in range(n):
            g_hat = model.grad(ctx, p, d, sampled_mode(shots, [77, trial, k])).stacked()
            sq_errors[k] = float(np.sum((g_hat - exact) ** 2))
        margin = 5 * sq_errors.std() / math.sqrt(n)
        assert sq_errors.mean() <= var_bound / shots + margin
