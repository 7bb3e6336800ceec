import math

import numpy as np
import pytest

from qopf import grid, harness, model, saddle, sim
from qopf.grid import ValidationError
from qopf.model import sampled_mode
from qopf.saddle import (
    ClassicalState,
    DivergenceError,
    SaddlePointState,
    StepSchedule,
    StopRule,
)

from conftest import (assert_same_run, brute_force_reference, classical_run_oracle,
                      constant_schedule, field_run, fresh_run, problem_from_rows,
                      random_problem, tiled_case)


def bilinear_g(z, *tags):
    """Signed field of L = theta * phi with alpha, beta inert."""
    return np.array([z.phi[0], 0.0, -z.theta[0], 0.0]), 0


def make_state(theta, phi, alpha=1.0, beta=1.0):
    return SaddlePointState(np.atleast_1d(np.asarray(theta, dtype=float)), alpha,
                            np.atleast_1d(np.asarray(phi, dtype=float)), beta)


def rates_schedule(mu_theta, mu_alpha, mu_phi, mu_beta):
    """The constant per-block steps (mu_theta, mu_alpha, mu_phi, mu_beta)."""
    return StepSchedule((mu_theta, 1.0), (mu_alpha, 1.0), (mu_phi, 1.0), (mu_beta, 1.0))


def classical_step(problem, s, method, mu_v, mu_lam):
    """The first iterate of ``run_classical`` from s at the steps (mu_v, mu_lam)."""
    return saddle.run_classical(problem, s, method, rates_schedule(mu_v, 0.0, mu_lam, 0.0),
                                StopRule(max_iters=1)).final


def test_pd_step_bilinear_arithmetic():
    z = make_state(1.0, 1.0)
    traj = field_run(bilinear_g, z, saddle.PD, rates_schedule(0.1, 0.0, 0.1, 0.0), 1)
    nxt = traj.final
    assert nxt.theta[0] == pytest.approx(0.9)
    assert nxt.phi[0] == pytest.approx(1.1)
    assert traj.iterations == 1


def test_pd_step_zero_gradient_fixed_point():
    def zero_g(z, *tags):
        return np.zeros(4), 0

    z = make_state(0.3, -0.7, alpha=0.5, beta=0.2)
    nxt = field_run(zero_g, z, saddle.PD, rates_schedule(0.1, 0.1, 0.1, 0.1), 1).final
    assert np.allclose(nxt.stacked(), z.stacked())


def test_pd_step_projects_alpha_at_zero():
    def push_alpha(z, *tags):
        return np.array([0.0, 100.0, 0.0, 0.0]), 0

    z = make_state(0.0, 0.0, alpha=0.5)
    nxt = field_run(push_alpha, z, saddle.PD, rates_schedule(0.1, 0.1, 0.1, 0.1), 1).final
    assert nxt.alpha == 0.0


def test_eg_step_bilinear_arithmetic():
    points = []

    def recorded(z, *tags):
        points.append(z)
        return bilinear_g(z)

    z = make_state(1.0, 1.0)
    nxt = field_run(recorded, z, saddle.EG, rates_schedule(0.1, 0.0, 0.1, 0.0), 1).final
    midpoint = points[1]
    assert midpoint.theta[0] == pytest.approx(0.8)
    assert midpoint.phi[0] == pytest.approx(1.2)
    assert nxt.theta[0] == pytest.approx(0.88)
    assert nxt.phi[0] == pytest.approx(1.08)


def test_pd_spirals_eg_contracts_on_bilinear():
    mu = rates_schedule(0.1, 0.0, 0.1, 0.0)
    z_pd = field_run(bilinear_g, make_state(1.0, 1.0), saddle.PD, mu, 700).states[1:]
    z_eg = field_run(bilinear_g, make_state(1.0, 1.0), saddle.EG, mu, 700).states[1:]
    norms_pd = np.array([np.hypot(z.theta[0], z.phi[0]) for z in z_pd])
    norms_eg = np.array([np.hypot(z.theta[0], z.phi[0]) for z in z_eg])
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
    for z in field_run(g_quad, z, saddle.EG, rates_schedule(mu, 0.0, mu, 0.0), 300).states[1:]:
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
    nxt = classical_step(zero_m0, s, saddle.PD, 1e-3, 0.0)
    assert np.allclose(nxt.v, v0)


def test_classical_pd_keeps_slack_multipliers_at_zero(case2):
    problem = grid.assemble_qcqp(case2)
    ref = brute_force_reference(case2)
    forms = problem.stack.forms(ref.v)
    slack_rows = problem.bounds - forms > 1e-3
    s = ClassicalState(ref.v, np.zeros(problem.m_stored))
    nxt = classical_step(problem, s, saddle.PD, 0.0, 1e-2)
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
    s = classical_step(problem, ClassicalState(v0, lam0), saddle.EG, mu, mu)
    assert np.allclose(s.v, v0 - mu * grad_v_mid, rtol=0, atol=1e-15)
    assert np.allclose(s.lam, np.maximum(lam0 + mu * grad_lam_mid, 0.0), rtol=0, atol=1e-15)


def test_classical_flat_start_first_iterate_fixture(case2):
    """First PD iterate from the flat profile, frozen by direct evaluation."""
    problem = grid.assemble_qcqp(case2)
    tensor = problem.dense_constraints()
    m0 = problem.m0.toarray()
    v0 = np.ones(2, dtype=complex)
    lam0 = np.full(problem.m_stored, 0.5)
    s = classical_step(problem, ClassicalState(v0, lam0), saddle.PD, 1e-3, 1e-3)
    grad_v = 2.0 * (m0 @ v0 + np.einsum("m,mij,j->i", lam0, tensor, v0))
    expected_v = v0 - 1e-3 * grad_v
    assert np.allclose(s.v, expected_v, atol=1e-15)
    forms = np.real(np.einsum("i,mij,j->m", expected_v.conj(), tensor, expected_v))
    expected_lam = np.maximum(lam0 + 1e-3 * (forms - problem.bounds), 0.0)
    assert np.allclose(s.lam, expected_lam, atol=1e-15)


def test_classical_run_converges_on_desk_case(case2):
    problem = grid.assemble_qcqp(case2)
    ref = brute_force_reference(case2)
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
    mu = rates_schedule(0.1, 0.1, 0.1, 0.1)
    for _ in range(50):
        z = field_run(noisy, z, saddle.PD, mu, 1).final
        assert z.alpha >= 0 and z.beta >= 0
        z = field_run(noisy, z, saddle.EG, mu, 1).final
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


# ---------------------------------------------------------------------------
# The exact forward handoff against the fresh-evaluation oracle

# (copies, primal (row, layers), dual (row, layers)) of the benchmark set-ups:
# ieee57-exact-eg, ieee57-sampled-pd and ieee57x2-setup-classical
BENCHMARK_SETUPS = {
    "ieee57-benchmark-ansatz": (1, (6, 10), (2, 35)),
    "ieee57-shallow": (1, (6, 1), (2, 2)),
    "ieee57x2-shallow": (2, (6, 1), (2, 2)),
}


def quantum_setup(case, primal, dual, seed=3, rcm_runs=200):
    """Instance 0 of ``case`` prepared as the benchmark prepares it, its
    context for the (row, layers) pairs ``primal`` and ``dual``, and the
    default quantum init."""
    instance = harness.generate_instances(case, 1, (0.90, 1.05), seed)[0]
    problem = harness.prepare_case(instance, rcm_runs, 0).permuted
    ctx = model.LagrangianContext(
        problem, sim.AnsatzSpec.from_row(primal[0], int(math.log2(problem.dim)), primal[1]),
        sim.AnsatzSpec.from_row(dual[0], int(math.log2(problem.m_stored)), dual[1]))
    init = saddle.default_quantum_init(ctx, instance.n, len(instance.load_nodes),
                                       sim.chain_seed(seed, 3, 0))
    return ctx, init


@pytest.fixture(scope="module")
def case3_setup(case3):
    return quantum_setup(case3, (6, 2), (2, 2), rcm_runs=4)


@pytest.fixture(scope="module", params=sorted(BENCHMARK_SETUPS))
def benchmark_setup(request, ieee57):
    copies, primal, dual = BENCHMARK_SETUPS[request.param]
    return quantum_setup(ieee57 if copies == 1 else tiled_case(ieee57, copies), primal, dual)


def never_converges(iters):
    return StopRule(theta_tol=1e-300, phi_tol=1e-300, max_iters=iters)


@pytest.mark.parametrize("method", [saddle.PD, saddle.EG])
def test_exact_run_matches_fresh_oracle_on_case3(case3_setup, method):
    """Handing each iterate's exact forward record to the next gradient
    changes nothing: 30 iterations at the protocol schedule equal the loop
    that evaluates every point afresh, bit for bit."""
    ctx, init = case3_setup
    args = (ctx, init, method, StepSchedule.exponential(), never_converges(30))
    traj = saddle.run(*args)
    assert traj.iterations == 30
    assert_same_run(traj, fresh_run(*args))


@pytest.mark.parametrize("method", [saddle.PD, saddle.EG])
def test_exact_run_matches_fresh_oracle_on_benchmark_setups(benchmark_setup, method):
    """Three iterations on each benchmark set-up at the protocol schedule,
    where a one-ulp change grows about tenfold per iteration, still equal
    the fresh-evaluation loop bit for bit."""
    ctx, init = benchmark_setup
    args = (ctx, init, method, StepSchedule.exponential(), never_converges(3))
    assert_same_run(saddle.run(*args), fresh_run(*args))


def test_exact_run_matches_fresh_oracle_when_converged(case3_setup):
    """Steps that halve every iteration stop the run "converged", at the
    same iterate as the oracle's."""
    ctx, init = case3_setup
    halving = StepSchedule((1e-2, 0.5), (1e-5, 0.5), (1e-2, 0.5), (1e-5, 0.5))
    args = (ctx, init, saddle.EG, halving, StopRule(theta_tol=1e-5, phi_tol=1e-5))
    traj = saddle.run(*args)
    assert traj.stop_reason == "converged" and 1 < traj.iterations < 100
    assert_same_run(traj, fresh_run(*args))


def test_exact_divergence_matches_fresh_oracle(ieee57):
    """Under a ceiling that the first rise of |L| crosses, the run and the
    oracle diverge at the same iteration with the same value and the same
    partial trajectory."""
    ctx, init = quantum_setup(ieee57, *BENCHMARK_SETUPS["ieee57-benchmark-ansatz"][1:])
    schedule = StepSchedule.exponential()
    values = np.abs(fresh_run(ctx, init, saddle.EG, schedule, never_converges(6)).lagrangians)
    rise = next(t for t in range(1, len(values)) if values[t] > values[:t].max())
    ceiling = values[:rise].max()
    args = (ctx, init, saddle.EG, schedule, never_converges(6), model.EvalMode(), ceiling)
    with pytest.raises(DivergenceError) as err:
        saddle.run(*args)
    with pytest.raises(DivergenceError) as expected:
        fresh_run(*args)
    assert err.value.iteration == expected.value.iteration == rise
    assert err.value.value == expected.value.value
    assert_same_run(err.value.trajectory, expected.value.trajectory)
    assert err.value.trajectory.stop_reason == "diverged"


def test_sampled_run_matches_fresh_oracle(case3_setup):
    """Sampled mode shares nothing: its Lagrangian is an estimate from its
    own seed, and the streams of a PD run equal the oracle's."""
    ctx, init = case3_setup
    args = (ctx, init, saddle.PD, StepSchedule.exponential(), never_converges(4),
            sampled_mode(20, [11, 2]))
    traj = saddle.run(*args)
    assert traj.total_shots > 0
    assert_same_run(traj, fresh_run(*args))


@pytest.mark.parametrize("method, forwards", [(saddle.EG, lambda k: 1 + 2 * k),
                                              (saddle.PD, lambda k: 1 + k)])
def test_exact_run_simulates_each_point_once(ieee57_context, monkeypatch, method, forwards):
    """On the benchmark ansatz a K = 4 exact run simulates each point's
    circuits once: the init's gradient, each EG midpoint's, and each
    recorded iterate, whose forward record its next gradient reuses.  That
    is 3 ``sim._kind_factors`` builds (ry and rz primal, ry dual) and 2
    ``prepare`` calls per point: 27 and 18 for EG, 15 and 10 for PD."""
    ctx = model.LagrangianContext(ieee57_context.problem, sim.AnsatzSpec.from_row(6, 6, 10),
                                  sim.AnsatzSpec.from_row(2, 9, 35))
    init = saddle.default_quantum_init(ctx, 57, 42, seed=4)
    calls = {"_kind_factors": 0, "prepare": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sim, "_kind_factors", counted(sim, "_kind_factors"))
    monkeypatch.setattr(model, "prepare", counted(model, "prepare"))
    k = 4
    traj = saddle.run(ctx, init, method, StepSchedule.exponential(), never_converges(k))
    assert traj.iterations == k
    assert calls == {"_kind_factors": 3 * forwards(k), "prepare": 2 * forwards(k)}


def test_trajectory_seconds_are_cumulative(case3_setup):
    """Each accepted iterate records the loop's cumulative seconds."""
    ctx, init = case3_setup
    traj = saddle.run(ctx, init, saddle.EG, StepSchedule.exponential(), never_converges(5))
    assert len(traj.seconds) == traj.iterations == 5
    assert all(0 < a <= b for a, b in zip(traj.seconds, traj.seconds[1:]))


def test_nan_lagrangian_diverges(case3):
    """Classical EG on case3 at a constant step of 1.0 overflows: L grows to
    3.3e303 at iteration 2 and is NaN from iteration 3 on.  A NaN is not
    within any ceiling, 1e308 included, so the run diverges there instead
    of recording NaN iterates."""
    problem = grid.assemble_qcqp(case3)
    init = saddle.default_classical_init(problem, len(case3.load_nodes), seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
        saddle.run_classical(problem, init, saddle.EG, constant_schedule(1.0),
                             StopRule(max_iters=10), divergence_ceiling=1e308)
    assert err.value.iteration == 3
    assert math.isnan(err.value.value)
    assert err.value.trajectory.iterations == 3
    assert all(math.isfinite(lag) for lag in err.value.trajectory.lagrangians)
    assert err.value.trajectory.stop_reason == "diverged"


def classical_setup(case, seed=3, rcm_runs=200):
    """Instance 0 of ``case`` prepared as the benchmark prepares it, and its
    default classical init."""
    instance = harness.generate_instances(case, 1, (0.90, 1.05), seed)[0]
    problem = harness.prepare_case(instance, rcm_runs, 0).problem
    return problem, saddle.default_classical_init(problem, len(instance.load_nodes),
                                                  sim.chain_seed(seed, 1, 0))


def outcome(run, *args):
    """The trajectory of a run, and (iteration, value) of its DivergenceError
    or None."""
    try:
        return run(*args), None
    except DivergenceError as err:
        return err.trajectory, (err.iteration, err.value)


@pytest.mark.parametrize("method", [saddle.PD, saddle.EG])
@pytest.mark.parametrize("case_name", ["case2", "case3", "ieee57"])
def test_classical_run_matches_step_oracle(request, method, case_name):
    """``run_classical`` equals the loop over the classical step functions it
    replaced, bit for bit: 3,000 iterations from the flat profile at a
    constant 5e-3 on the desk cases, and on the ieee57 benchmark set-up,
    where the protocol schedule diverges, the same DivergenceError
    iteration, value and partial trajectory."""
    case = request.getfixturevalue(case_name)
    if case_name == "ieee57":
        problem, init = classical_setup(case)
        args = (problem, init, method, harness.ExperimentConfig("ieee57").classical_schedule,
                StopRule(max_iters=20))
    else:
        problem = grid.assemble_qcqp(case)
        init = ClassicalState(np.ones(problem.dim, dtype=complex), np.zeros(problem.m_stored))
        args = (problem, init, method, constant_schedule(5e-3), StopRule(max_iters=3000))
    traj, diverged = outcome(saddle.run_classical, *args)
    expected, expected_diverged = outcome(classical_run_oracle, *args)
    assert (diverged is not None) == (case_name == "ieee57")
    assert diverged == expected_diverged
    assert traj.iterations == (diverged[0] if diverged else 3000)
    assert_same_run(traj, expected)


@pytest.mark.parametrize("method, grads", [(saddle.PD, 1), (saddle.EG, 2)])
def test_run_looks_up_grad_and_lagrangian_per_call(case3_setup, monkeypatch, method, grads):
    """``saddle.run`` reaches ``grad`` and ``lagrangian`` through the
    ``saddle`` module attributes at each call, the ones the benchmark's
    tracer wraps: one sampled ``grad`` per PD iteration, two per EG
    iteration, and one sampled ``lagrangian`` per iterate."""
    ctx, init = case3_setup
    calls = {"grad": 0, "lagrangian": 0}

    def counted(name):
        original = getattr(saddle, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(saddle, name, counted(name))
    k = 3
    traj = saddle.run(ctx, init, method, StepSchedule.exponential(), never_converges(k),
                      sampled_mode(20, [11, 2]))
    assert traj.iterations == k
    assert calls == {"grad": grads * k, "lagrangian": k}
