import math

import numpy as np
import pytest

from qopf import grid, model, saddle, sim
from qopf.grid import ValidationError
from qopf.model import sampled_mode
from qopf.saddle import (
    ClassicalState,
    DivergenceError,
    SaddlePointState,
    StepSchedule,
    StopRule,
)

from conftest import constant_schedule, problem_from_rows, random_problem


def bilinear_g(z, *tags):
    """Signed field of L = theta * phi with alpha, beta inert."""
    return np.array([z.phi[0], 0.0, -z.theta[0], 0.0]), 0


def make_state(theta, phi, alpha=1.0, beta=1.0):
    return SaddlePointState(np.atleast_1d(np.asarray(theta, dtype=float)), alpha,
                            np.atleast_1d(np.asarray(phi, dtype=float)), beta)


def test_pd_step_bilinear_arithmetic():
    z = make_state(1.0, 1.0)
    nxt, _ = saddle.pd_step(bilinear_g, z, (0.1, 0.0, 0.1, 0.0))
    assert nxt.theta[0] == pytest.approx(0.9)
    assert nxt.phi[0] == pytest.approx(1.1)
    assert nxt.iteration == 1


def test_pd_step_zero_gradient_fixed_point():
    def zero_g(z, *tags):
        return np.zeros(4), 0

    z = make_state(0.3, -0.7, alpha=0.5, beta=0.2)
    nxt, _ = saddle.pd_step(zero_g, z, (0.1, 0.1, 0.1, 0.1))
    assert np.allclose(nxt.stacked(), z.stacked())


def test_pd_step_projects_alpha_at_zero():
    def push_alpha(z, *tags):
        return np.array([0.0, 100.0, 0.0, 0.0]), 0

    z = make_state(0.0, 0.0, alpha=0.5)
    nxt, _ = saddle.pd_step(push_alpha, z, (0.1, 0.1, 0.1, 0.1))
    assert nxt.alpha == 0.0


def test_eg_step_bilinear_arithmetic():
    z = make_state(1.0, 1.0)
    nxt, info = saddle.eg_step(bilinear_g, z, (0.1, 0.0, 0.1, 0.0))
    assert info["midpoint"].theta[0] == pytest.approx(0.8)
    assert info["midpoint"].phi[0] == pytest.approx(1.2)
    assert nxt.theta[0] == pytest.approx(0.88)
    assert nxt.phi[0] == pytest.approx(1.08)


def test_pd_spirals_eg_contracts_on_bilinear():
    mu = (0.1, 0.0, 0.1, 0.0)
    z_pd = make_state(1.0, 1.0)
    z_eg = make_state(1.0, 1.0)
    norms_pd, norms_eg = [], []
    for _ in range(700):
        z_pd, _ = saddle.pd_step(bilinear_g, z_pd, mu)
        z_eg, _ = saddle.eg_step(bilinear_g, z_eg, mu)
        norms_pd.append(np.hypot(z_pd.theta[0], z_pd.phi[0]))
        norms_eg.append(np.hypot(z_eg.theta[0], z_eg.phi[0]))
    norms_pd = np.array(norms_pd)
    norms_eg = np.array(norms_eg)
    assert np.all(np.diff(norms_pd) > 0)          # plain PD norm grows strictly
    assert norms_pd[-1] > math.sqrt(2.0)
    assert np.all(np.diff(norms_eg) < 0)          # EG contracts monotonically
    assert norms_eg[-1] < 1e-3


def test_eg_contracts_convex_concave_quadratic_at_guaranteed_step():
    # L = a/2 th^2 - b/2 ph^2 + c th ph; saddle at the origin
    a, b, c = 1.0, 1.3, 0.7
    jac = np.array([[a, c], [-c, b]])
    lip = float(np.linalg.norm(jac, 2))
    mu = 1.0 / (2.0 * math.sqrt(2.0) * lip)

    def g_quad(z, *tags):
        th, ph = z.theta[0], z.phi[0]
        return np.array([a * th + c * ph, 0.0, -(c * th - b * ph), 0.0]), 0

    z = make_state(1.0, -0.8)
    prev = np.hypot(z.theta[0], z.phi[0])
    for _ in range(300):
        z, _ = saddle.eg_step(g_quad, z, (mu, 0.0, mu, 0.0))
        now = np.hypot(z.theta[0], z.phi[0])
        assert now < prev
        prev = now
    assert prev < 1e-4


def test_schedule_rates_and_validation():
    sched = StepSchedule.exponential()
    th0, a0, ph0, b0 = sched.rates(0)
    assert (th0, ph0) == (0.015, 0.01)
    assert a0 == b0 == 1e-5
    th1, _, _, b1 = sched.rates(100)
    assert th1 == pytest.approx(0.015 * 0.99985**100)
    assert b1 == pytest.approx(1e-5 * 0.999**100)
    with pytest.raises(ValidationError):
        StepSchedule(( -0.1, 1.0), (0.1, 1.0), (0.1, 1.0), (0.1, 1.0))


@pytest.mark.parametrize("engine", ["run", "run_classical"])
def test_run_zero_iterations_returns_init(engine):
    problem = random_problem(2, 2, seed=0)
    if engine == "run":
        ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(2, 1, 1),
                                      sim.AnsatzSpec.from_row(2, 1, 1))
        target, init = ctx, saddle.default_quantum_init(ctx, 2, 1, seed=0)
    else:
        target, init = problem, saddle.default_classical_init(problem, 1, seed=0)
    traj = getattr(saddle, engine)(target, init, "pd", constant_schedule(0.01),
                                   StopRule(max_iters=0))
    assert traj.final is init
    assert traj.iterations == 0
    assert traj.total_shots == 0
    assert traj.stop_reason == "max_iters"


def test_run_deterministic_per_seed():
    problem = random_problem(2, 2, seed=1)
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(2, 1, 1),
                                  sim.AnsatzSpec.from_row(2, 1, 1))
    init = saddle.default_quantum_init(ctx, 2, 1, seed=5)
    mode = sampled_mode(8, 42)
    kw = dict(schedule=constant_schedule(0.01), stop=StopRule(max_iters=15),
              mode=mode)
    a = saddle.run(ctx, init, "eg", **kw)
    b = saddle.run(ctx, init, "eg", **kw)
    assert a.lagrangians == b.lagrangians
    assert np.array_equal(a.final.stacked(), b.final.stacked())
    assert a.total_shots == b.total_shots > 0


def test_run_divergence_guard():
    def explode(z, *tags):
        return -z.stacked() * 10.0, 0

    problem = random_problem(2, 2, seed=2, scale=10.0)
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(2, 1, 1),
                                  sim.AnsatzSpec.from_row(2, 1, 1))
    init = SaddlePointState(np.array([0.1]), 1e3, np.array([0.1]), 1e3)
    with pytest.raises(DivergenceError) as err:
        saddle.run(ctx, init, "pd", constant_schedule(10.0),
                   StopRule(max_iters=50), divergence_ceiling=1e6)
    assert err.value.iteration >= 0


def test_vqe_regime_monotone_descent():
    # cost-only problem, beta frozen at zero: PD is gradient descent and the
    # Lagrangian trajectory is nonincreasing for small constant steps
    problem = random_problem(4, 4, seed=3)
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(6, 2, 1),
                                  sim.AnsatzSpec.from_row(2, 2, 1))
    rng = np.random.default_rng(7)
    init = SaddlePointState(rng.uniform(0, 2 * math.pi, ctx.p_count), 1.0,
                            rng.uniform(0, 2 * math.pi, ctx.q_count), 0.0)
    sched = StepSchedule((0.02, 1.0), (0.005, 1.0), (0.0, 1.0), (0.0, 1.0))
    traj = saddle.run(ctx, init, "pd", sched, StopRule(max_iters=150))
    values = np.array(traj.lagrangians)
    assert np.all(np.diff(values) <= 1e-12)
    assert traj.final.beta == 0.0


def test_classical_pd_fixed_points(case2):
    problem = grid.assemble_qcqp(case2)
    # lambda = 0 and M0 = 0: v unchanged
    zero_m0 = problem_from_rows(problem.n, problem.m, np.zeros((2, 2), dtype=complex),
                                problem.constraints)
    v0 = np.array([1.0 + 0j, 1.0 + 0j])
    s = ClassicalState(v0, np.zeros(problem.m_stored))
    nxt = saddle.classical_pd_step(zero_m0, s, (1e-3, 0.0))
    assert np.allclose(nxt.v, v0)


def test_classical_pd_keeps_slack_multipliers_at_zero(case2):
    problem = grid.assemble_qcqp(case2)
    from qopf import harness
    ref = harness.brute_force_reference(case2)
    forms = problem.stack.forms(ref.v)
    slack_rows = problem.bounds - forms > 1e-3
    s = ClassicalState(ref.v, np.zeros(problem.m_stored))
    nxt = saddle.classical_pd_step(problem, s, (0.0, 1e-2))
    assert np.all(nxt.lam[slack_rows] == 0.0)
    assert np.all(nxt.lam >= 0.0)


def test_classical_eg_first_iterate_fixture(case2):
    """First EG iterate from the flat profile, frozen by direct evaluation:
    midpoint with step 2*mu (lambda clipped at zero), then the field at the
    midpoint with step mu."""
    problem = grid.assemble_qcqp(case2)
    tensor = problem.dense_constraints()
    m0 = problem.m0.toarray()
    v0 = np.ones(2, dtype=complex)
    lam0 = np.full(problem.m_stored, 0.5)
    mu = 1e-3

    def field(v, lam):
        grad_v = 2.0 * (m0 @ v + np.einsum("m,mij,j->i", lam, tensor, v))
        forms = np.real(np.einsum("i,mij,j->m", v.conj(), tensor, v))
        return grad_v, forms - problem.bounds

    grad_v, grad_lam = field(v0, lam0)
    v_mid = v0 - 2.0 * mu * grad_v
    lam_mid = np.maximum(lam0 + 2.0 * mu * grad_lam, 0.0)
    grad_v_mid, grad_lam_mid = field(v_mid, lam_mid)
    s = saddle.classical_eg_step(problem, ClassicalState(v0, lam0), (mu, mu))
    assert np.allclose(s.v, v0 - mu * grad_v_mid, rtol=0, atol=1e-15)
    assert np.allclose(s.lam, np.maximum(lam0 + mu * grad_lam_mid, 0.0), rtol=0, atol=1e-15)


def test_classical_flat_start_first_iterate_fixture(case2):
    """First PD iterate from the flat profile, frozen by direct evaluation."""
    problem = grid.assemble_qcqp(case2)
    tensor = problem.dense_constraints()
    m0 = problem.m0.toarray()
    v0 = np.ones(2, dtype=complex)
    lam0 = np.full(problem.m_stored, 0.5)
    s = saddle.classical_pd_step(problem, ClassicalState(v0, lam0), (1e-3, 1e-3))
    grad_v = 2.0 * (m0 @ v0 + np.einsum("m,mij,j->i", lam0, tensor, v0))
    expected_v = v0 - 1e-3 * grad_v
    assert np.allclose(s.v, expected_v, atol=1e-15)
    forms = np.real(np.einsum("i,mij,j->m", expected_v.conj(), tensor, expected_v))
    expected_lam = np.maximum(lam0 + 1e-3 * (forms - problem.bounds), 0.0)
    assert np.allclose(s.lam, expected_lam, atol=1e-15)


def test_classical_run_converges_on_desk_case(case2):
    from qopf import harness
    problem = grid.assemble_qcqp(case2)
    ref = harness.brute_force_reference(case2)
    init = ClassicalState(np.ones(2, dtype=complex),
                          np.zeros(problem.m_stored))
    sched = StepSchedule((5e-3, 1.0), (0.0, 1.0), (5e-3, 1.0), (0.0, 1.0))
    traj = saddle.run_classical(problem, init, "eg", sched,
                                StopRule(theta_tol=1e-10, phi_tol=1e-10,
                                         max_iters=8000))
    x = harness.extract_setpoints(case2, problem, traj.final.v)
    err = np.linalg.norm(x - ref.x) / np.linalg.norm(ref.x)
    assert err < 1e-2
    assert np.all(traj.final.lam >= 0)


def test_projection_invariant_random_fields():
    rng = np.random.default_rng(11)

    def noisy(z, *tags):
        return rng.standard_normal(4) * 10, 0

    z = make_state(0.0, 0.0, alpha=0.1, beta=0.1)
    for _ in range(50):
        z, _ = saddle.pd_step(noisy, z, (0.1, 0.1, 0.1, 0.1))
        assert z.alpha >= 0 and z.beta >= 0
        z, _ = saddle.eg_step(noisy, z, (0.1, 0.1, 0.1, 0.1))
        assert z.alpha >= 0 and z.beta >= 0


def test_default_inits(case2):
    problem = grid.pad_to_qubits(grid.assemble_qcqp(case2))
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(6, 1, 1),
                                  sim.AnsatzSpec.from_row(2, 4, 1))
    z = saddle.default_quantum_init(ctx, case2.n, len(case2.load_nodes), seed=0)
    assert z.alpha == pytest.approx(math.sqrt(2))
    assert z.beta == pytest.approx(2.0)
    assert np.all((0 <= z.theta) & (z.theta <= 2 * math.pi))
    s = saddle.default_classical_init(problem, len(case2.load_nodes), seed=0)
    assert np.allclose(s.v[:2], 1.0)
    assert np.all(s.v[2:] == 0)
    assert np.all(s.lam >= 0)
    assert np.all(s.lam[problem.m:] == 0)
