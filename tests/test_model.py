import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qopf import bounds, harness, model, saddle, sim, xbm
from qopf.grid import Constraint, ValidationError
from qopf.model import DualPoint, PrimalPoint, sampled_mode
from qopf.saddle import classical_lagrangian

from conftest import (exact_expectation, g_operator, per_row_pieces,
                      piecewise_rotation, problem_from_rows, random_problem,
                      rotate_piece, shift_points, sorted_search_sample_f, stack_problems)


@pytest.fixture(scope="module")
def ctx44():
    problem = random_problem(4, 4, seed=1)
    return model.LagrangianContext(
        problem,
        sim.AnsatzSpec.from_row(6, 2, 1),   # P = 4
        sim.AnsatzSpec.from_row(2, 2, 2),   # Q = 4
    )


def random_points(ctx, seed, alpha=None, beta=None):
    rng = np.random.default_rng(seed)
    p = PrimalPoint(rng.uniform(0, 2 * math.pi, ctx.p_count),
                    float(rng.uniform(0.2, 2)) if alpha is None else alpha)
    d = DualPoint(rng.uniform(0, 2 * math.pi, ctx.q_count),
                  float(rng.uniform(0.2, 2)) if beta is None else beta)
    return p, d


def test_context_rejects_mismatched_specs():
    problem = random_problem(4, 4, seed=2)
    with pytest.raises(ValidationError, match="primal ansatz"):
        model.LagrangianContext(problem, sim.AnsatzSpec.from_row(2, 3, 1),
                                sim.AnsatzSpec.from_row(2, 2, 1))
    with pytest.raises(ValidationError, match="dual ansatz"):
        model.LagrangianContext(problem, sim.AnsatzSpec.from_row(2, 2, 1),
                                sim.AnsatzSpec.from_row(2, 3, 1))


def test_primal_vector_norm_is_alpha(ctx44):
    p, _ = random_points(ctx44, 3)
    v = model.primal_vector(ctx44, p)
    assert np.linalg.norm(v) == pytest.approx(p.alpha, abs=1e-12)
    zero = model.primal_vector(
        ctx44, PrimalPoint(np.zeros(ctx44.p_count), 1.0))
    assert np.allclose(zero, [1, 0, 0, 0])
    big = model.primal_vector(
        ctx44, PrimalPoint(np.zeros(ctx44.p_count), math.sqrt(57)))
    assert np.linalg.norm(big) == pytest.approx(math.sqrt(57))


def test_dual_vector_sums_to_beta_squared(ctx44):
    _, d = random_points(ctx44, 4)
    lam = model.dual_vector(ctx44, d)
    assert np.all(lam >= 0)
    assert float(np.sum(lam)) == pytest.approx(d.beta**2, abs=1e-10)
    zero = model.dual_vector(ctx44, DualPoint(d.phi, 0.0))
    assert np.allclose(zero, 0.0)


def test_dual_vector_matches_amplitudes(ctx44):
    _, d = random_points(ctx44, 5)
    xi = model.dual_state(ctx44, d)
    lam = model.dual_vector(ctx44, d)
    assert np.allclose(lam, d.beta**2 * np.abs(xi) ** 2, atol=1e-14)


def test_terms_identity_constant_observables():
    # all constraint matrices = identity -> F = 1; all bounds 1 -> G = 1
    cons = tuple(Constraint(np.eye(4, dtype=complex), 1.0, "gen-limit", k)
                 for k in range(4))
    problem = problem_from_rows(4, 4, np.eye(4, dtype=complex), cons)
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(6, 2, 1),
                                  sim.AnsatzSpec.from_row(2, 2, 2))
    p, d = random_points(ctx, 6)
    terms = model.eval_terms_exact(ctx, p, d)
    assert terms.f == pytest.approx(1.0, abs=1e-12)
    assert terms.g == pytest.approx(1.0, abs=1e-12)


def joint_observable(ctx):
    """The MN x MN block-diagonal matrix sum_m e_m e_m^T (x) M_m,
    materialized for identity checks on tiny problems."""
    tensor = ctx.problem.dense_constraints()
    m_stored, dim = tensor.shape[0], tensor.shape[1]
    out = np.zeros((m_stored * dim, m_stored * dim), dtype=complex)
    for m in range(m_stored):
        out[m * dim:(m + 1) * dim, m * dim:(m + 1) * dim] = tensor[m]
    return out


def test_kronecker_joint_observable_identity(ctx44):
    p, d = random_points(ctx44, 7)
    psi = sim.prepare(ctx44.primal_spec, p.theta)
    xi = model.dual_state(ctx44, d)
    composite = np.kron(xi, psi)
    big = joint_observable(ctx44)
    f_kron = float(np.real(np.vdot(composite, big @ composite)))
    terms = model.eval_terms_exact(ctx44, p, d)
    assert f_kron == pytest.approx(terms.f, abs=1e-12)


def test_master_identity_against_classical_lagrangian():
    for seed in range(5):
        problem = random_problem(4, 8, seed=seed)
        ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(6, 2, 1),
                                      sim.AnsatzSpec.from_row(2, 3, 1))
        for trial in range(4):
            p, d = random_points(ctx, 100 * seed + trial)
            v = model.primal_vector(ctx, p)
            lam = model.dual_vector(ctx, d)
            variational = model.lagrangian(ctx, p, d)
            classical = classical_lagrangian(problem, v, lam)
            assert variational == pytest.approx(classical, abs=1e-10)


def test_lagrangian_degenerate_scales(ctx44):
    p, d = random_points(ctx44, 8)
    terms = model.eval_terms_exact(ctx44, p, d)
    no_dual = model.lagrangian(ctx44, p, DualPoint(d.phi, 0.0))
    assert no_dual == pytest.approx(p.alpha**2 * terms.f0, abs=1e-12)
    no_primal = model.lagrangian(ctx44, PrimalPoint(p.theta, 0.0), d)
    assert no_primal == pytest.approx(-d.beta**2 * terms.g, abs=1e-12)


def test_eval_f_sampled_unbiased(ctx44):
    p, d = random_points(ctx44, 9)
    exact = model.eval_terms_exact(ctx44, p, d).f
    n = 400
    values = [model.eval_F_sampled(ctx44, p, d, shots=32, seed=[20, k])
              for k in range(n)]
    se = np.std(values) / math.sqrt(n)
    assert abs(np.mean(values) - exact) < 5 * se + 1e-9


def test_eval_f_sampled_degenerate_dual(ctx44):
    # dual state concentrated on one outcome -> estimates F_{m*} alone
    p, _ = random_points(ctx44, 10)
    d = DualPoint(np.zeros(ctx44.q_count), 1.0)   # |0000> -> m* = 0
    psi = sim.prepare(ctx44.primal_spec, p.theta)
    exact_fm = exact_expectation(psi, ctx44.problem.dense_constraints()[0])
    values = [model.eval_F_sampled(ctx44, p, d, shots=64, seed=[21, k])
              for k in range(200)]
    assert abs(np.mean(values) - exact_fm) < 0.05 * max(1.0, abs(exact_fm))


def test_eval_f_sampled_zero_observables():
    cons = tuple(Constraint(np.zeros((4, 4), dtype=complex), 0.0, "padding", None)
                 for _ in range(4))
    problem = problem_from_rows(4, 4, np.eye(4, dtype=complex), cons)
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(6, 2, 1),
                                  sim.AnsatzSpec.from_row(2, 2, 1))
    p, d = random_points(ctx, 11)
    assert model.eval_F_sampled(ctx, p, d, shots=16, seed=0) == 0.0
    # no joint piece at all: the batched estimator draws nothing
    assert len(ctx.joint_diagonals) == 0
    psi = sim.prepare(ctx.primal_spec, p.theta)
    cdfs = model._primal_cdfs(ctx, psi)
    assert cdfs.shape == (0, 4)
    w_cdf = model._dual_cdf(model.dual_pmf(ctx, d))
    assert model._sample_f(ctx, cdfs, w_cdf, sampled_mode(16, 0)) == (0.0, 0)


@pytest.mark.parametrize("problem", stack_problems())
def test_joint_entries_densify_to_piece_diagonals(problem):
    ctx = model.LagrangianContext(
        problem, sim.AnsatzSpec.from_row(2, int(math.log2(problem.dim)), 1),
        sim.AnsatzSpec.from_row(2, int(math.log2(problem.m_stored)), 1))
    keys, dense, _ = per_row_pieces(problem)
    table = ctx.joint_diagonals
    assert list(table.pieces) == keys
    assert np.array_equal(table.dense(), dense)
    assert ctx.colors == ctx.m0_decomposition.colors | {color for color, _ in keys}
    entries = table.entries
    assert np.all(np.diff(entries.keys) > 0) and np.all(entries.values != 0)
    densified = np.zeros(dense.size)
    densified[entries.keys] = entries.values
    assert np.array_equal(densified.reshape(dense.shape), dense)
    # segment s = piece * M + m holds exactly the nonzero columns of
    # dense[piece, m], in increasing order
    starts = table.segment_starts
    assert len(starts) == len(table) * problem.m_stored + 1
    assert starts[0] == 0 and starts[-1] == len(entries.keys)
    for segment, row in enumerate(dense.reshape(-1, problem.dim)):
        run = slice(starts[segment], starts[segment + 1])
        assert np.array_equal(entries.keys[run] - segment * problem.dim, np.flatnonzero(row))
        assert np.array_equal(entries.values[run], row[row != 0])


def test_eval_f_sampled_variance_matches_closed_form(ctx44):
    """Var of the sampled F is (1/S) sum_c Var_{w x p_c}[D_c]: per piece c,
    S independent pairs of a dual outcome m ~ w and a rotated primal outcome
    i ~ p_c, scored by the piece diagonal D_c[m, i]."""
    p, d = random_points(ctx44, 92)
    psi = sim.prepare(ctx44.primal_spec, p.theta)
    w = model.dual_pmf(ctx44, d)
    shots = 8
    variance = 0.0
    table = ctx44.joint_diagonals
    for (color, part), diagonals in zip(table.pieces, table.dense()):
        rotated = rotate_piece(color, part, psi)
        joint = np.outer(w, np.abs(rotated) ** 2)
        mean = float(np.sum(joint * diagonals))
        variance += (float(np.sum(joint * diagonals**2)) - mean**2) / shots
    n = 600
    values = np.array([model.eval_F_sampled(ctx44, p, d, shots=shots, seed=[23, k])
                       for k in range(n)])
    assert abs(float(np.var(values)) - variance) < 0.2 * variance


# ---------------------------------------------------------------------------
# Batched sampled estimators against the piece-by-piece loops they replaced


def piecewise_primal_cdfs(ctx, psi):
    """The per-piece loop of the replaced ``model._primal_cdfs``."""
    cdfs = np.empty((len(ctx.joint_diagonals), len(psi)))
    for row, (color, part) in zip(cdfs, ctx.joint_diagonals.pieces):
        rotated = piecewise_rotation(psi, color, ctx.primal_spec.n_qubits, part)
        np.cumsum(np.abs(rotated) ** 2, out=row)
    return cdfs / cdfs[:, -1:]


def piecewise_eval_f_sampled(ctx, p, d, shots, seed):
    """Piece-by-piece reference of ``model.eval_F_sampled``: one generator
    seeded with the entropy list, from which every piece in turn draws its
    S dual uniforms and then every piece its S primal uniforms; per piece,
    two inverse-CDF searches and one read of its dense diagonals, the piece
    means added in piece order."""
    cdfs = piecewise_primal_cdfs(ctx, sim.prepare(ctx.primal_spec, p.theta))
    w_cdf = np.cumsum(model.dual_pmf(ctx, d))
    w_cdf = w_cdf / w_cdf[-1]
    rng = np.random.default_rng(seed)
    dual = [rng.random(shots) for _ in cdfs]
    primal = [rng.random(shots) for _ in cdfs]
    total = 0.0
    for diagonals, cdf, u, v in zip(ctx.joint_diagonals.dense(), cdfs, dual, primal):
        m = np.searchsorted(w_cdf, u, side="right")
        i = np.searchsorted(cdf, v, side="right")
        total += float(diagonals[m, i].sum()) / shots
    return total


@pytest.fixture(scope="module", params=["padded_complex", "ieee57"])
def batch_ctx(request, padded_complex_problem):
    if request.param == "ieee57":
        return request.getfixturevalue("ieee57_context")
    return model.LagrangianContext(padded_complex_problem,
                                   sim.AnsatzSpec.from_row(7, 2, 1),
                                   sim.AnsatzSpec.from_row(4, 3, 1))


def test_primal_cdfs_match_piecewise_loop(batch_ctx):
    assert len(batch_ctx.joint_diagonals) > 1
    for trial in range(3):
        p, _ = random_points(batch_ctx, 70 + trial)
        psi = sim.prepare(batch_ctx.primal_spec, p.theta)
        assert np.array_equal(model._primal_cdfs(batch_ctx, psi),
                              piecewise_primal_cdfs(batch_ctx, psi))


def test_eval_f_sampled_matches_piecewise_loop(batch_ctx):
    """Batching the pieces keeps every piece's block of the stream: each
    sampled F is the piece-by-piece estimate bit for bit."""
    for trial in range(5):
        p, d = random_points(batch_ctx, 80 + trial)
        seed = [31, 1, trial]
        assert model.eval_F_sampled(batch_ctx, p, d, 50, seed) == \
            piecewise_eval_f_sampled(batch_ctx, p, d, 50, seed)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 9), st.integers(1, 70), st.integers(0, 2**32 - 1))
def test_scored_interval_is_exact(rows, dim, seed):
    """The interval test of the sampled F scores column c of row k for a
    draw exactly when the per-row ``np.searchsorted(..., side="right")``
    returns c, on CDF rows with zero-probability and tiny outcomes, for
    uniforms drawn by ``Generator.random``, draws on the CDF entries rounded
    down and up to the 2^-53 grid of the draws, and the extreme draws 0 and
    1 - 2^-53."""
    rng = np.random.default_rng(seed)
    probs = rng.random((rows, dim)) * (rng.random((rows, dim)) < 0.6)
    probs *= np.where(rng.random((rows, dim)) < 0.2, 1e-18, 1.0)
    probs[np.arange(rows), rng.integers(0, dim, rows)] += 0.5
    cdfs = np.cumsum(probs, axis=1)
    cdfs /= cdfs[:, -1:]
    grid = 2.0**53
    u = np.concatenate([
        rng.random((rows, 25)),
        np.floor(cdfs * grid) / grid,
        np.minimum(np.ceil(cdfs * grid), grid - 1) / grid,
        np.zeros((rows, 1)),
        np.full((rows, 1), 1 - 2.0**-53),
    ], axis=1)
    found = np.stack([np.searchsorted(cdf, row, side="right") for cdf, row in zip(cdfs, u)])
    # every (row, draw, column) triple at once
    k, draw, c = np.indices((*u.shape, dim))
    scored = model._scored(cdfs, k.ravel(), c.ravel(), u[k, draw].ravel())
    assert np.array_equal(scored.reshape(k.shape), found[..., None] == c)


def pool_words(seed):
    """An entropy list as ``SeedSequence`` mixes it: padded with zeros to
    its pool of four words, so ``[5, 0]`` and ``[5]`` seed the same stream."""
    return tuple(seed) + (0,) * (4 - len(seed))


def test_sampled_gradient_seeds_one_generator_per_estimate(ieee57_context, monkeypatch):
    """Each sampled estimate seeds exactly one generator, whatever its
    piece count: one sampled gradient seeds 3 + 4P + 4Q of them, for F0, F
    and G at the base point and four estimates per parameter, each with
    its own derived seed, and the seeds stay distinct once zero-padded to
    four words, as are those of a sampled PD run, its recorded L included."""
    seeds = []

    def counting_rng(seed):
        seeds.append(tuple(seed))
        return sim.rng(seed)

    monkeypatch.setattr(model, "rng", counting_rng)
    monkeypatch.setattr(xbm, "rng", counting_rng)
    ctx = ieee57_context
    assert (ctx.p_count, ctx.q_count) == (12, 18)
    p, d = random_points(ctx, 47)
    model.grad(ctx, p, d, sampled_mode(100, [4, 3]))
    assert len(seeds) == 3 + 4 * ctx.p_count + 4 * ctx.q_count == 123
    assert len(set(seeds)) == len({pool_words(seed) for seed in seeds}) == len(seeds)

    seeds.clear()
    init = saddle.SaddlePointState(p.theta, p.alpha, d.phi, d.beta)
    traj = saddle.run(ctx, init, saddle.PD, saddle.StepSchedule.exponential(),
                      saddle.StopRule(max_iters=3), sampled_mode(20, 4))
    assert len(traj.states) == 4
    assert len(seeds) == 3 * 123 + 3 * len(traj.lagrangians)
    assert len({pool_words(seed) for seed in seeds}) == len(seeds)


def test_sampled_gradient_searches_and_rotations_do_not_grow(ieee57_context, monkeypatch):
    """A sampled gradient builds the guide tables of all its dual CDFs in
    one call, makes one dual inverse per F estimate (primal draws are
    scored, never searched), rotates each table's states once whatever P,
    as one stack of the base state and all 2P shift states, and prepares
    no state apart from the two shift stacks."""
    calls = {"inverse_cdf": 0, "cdf_guides": 0, "rotate_pieces": 0, "prepare": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("inverse_cdf", "cdf_guides", "rotate_pieces"):
        monkeypatch.setattr(xbm, name, counted(xbm, name))
    monkeypatch.setattr(model, "prepare", counted(model, "prepare"))
    ctx = ieee57_context
    p, d = random_points(ctx, 48)
    model.grad(ctx, p, d, sampled_mode(100, [4, 4]))
    assert calls["inverse_cdf"] == 1 + 2 * ctx.p_count + 2 * ctx.q_count == 61
    assert calls["cdf_guides"] == 1
    assert calls["rotate_pieces"] == 2
    assert calls["prepare"] == 0


def recorded_f_calls(monkeypatch):
    """Wrap ``model._sample_f`` to record its arguments and results."""
    calls = []
    original = model._sample_f

    def wrapper(ctx, cdfs, dual, mode):
        result = original(ctx, cdfs, dual, mode)
        calls.append((ctx, cdfs, dual, mode, result))
        return result
    monkeypatch.setattr(model, "_sample_f", wrapper)
    return calls


def test_sampled_f_matches_sorted_search_oracle(ieee57_context, monkeypatch):
    """Every F estimate of a sampled ieee57 gradient, at 3 seeded points,
    and of the single-CDF paths ``eval_terms`` and ``eval_F_sampled``, is
    bit for bit the estimate of the replaced sorted-search estimator, with
    the same shots."""
    calls = recorded_f_calls(monkeypatch)
    ctx = ieee57_context
    for k in range(3):
        p, d = random_points(ctx, 130 + k)
        model.grad(ctx, p, d, sampled_mode(100, [13, k]))
        assert len(calls) == 63 * k + 61
        model.eval_terms(ctx, p, d, sampled_mode(100, [14, k]))
        model.eval_F_sampled(ctx, p, d, 100, [15, k])
        assert len(calls) == 63 * (k + 1)
    for ctx, cdfs, (w_cdf, _), mode, result in calls:
        assert result == sorted_search_sample_f(ctx, cdfs, w_cdf, mode)
    assert len({value for *_, (value, _) in calls}) > 0.9 * len(calls)


def test_sampled_gradient_memory_peak(ieee57_context):
    """The traced allocation peak of one sampled gradient on the shallow
    ieee57 context (P = 12, Q = 18, S = 100) stays at most 2.6 MB: the
    estimates draw one after another, not all at once."""
    ctx = ieee57_context
    assert (ctx.p_count, ctx.q_count) == (12, 18)
    p, d = random_points(ctx, 51)
    model.grad(ctx, p, d, sampled_mode(100, [16, 0]))  # builds the cached indexes
    tracemalloc.start()
    try:
        model.grad(ctx, p, d, sampled_mode(100, [16, 1]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.6e6


def test_exact_mode_never_builds_segment_index(padded_complex_problem):
    ctx = model.LagrangianContext(padded_complex_problem,
                                  sim.AnsatzSpec.from_row(7, 2, 1),
                                  sim.AnsatzSpec.from_row(4, 3, 1))
    p, d = random_points(ctx, 49)
    model.grad(ctx, p, d)
    model.lagrangian(ctx, p, d)
    assert "segment_starts" not in vars(ctx.joint_diagonals)
    model.lagrangian(ctx, p, d, sampled_mode(4, 0))
    assert "segment_starts" in vars(ctx.joint_diagonals)


def grad_by_finite_differences(ctx, p, d, h=1e-5):
    def lag(theta, alpha, phi, beta):
        return model.lagrangian(ctx, PrimalPoint(theta, alpha), DualPoint(phi, beta))

    g_theta = np.zeros(ctx.p_count)
    for j in range(ctx.p_count):
        up, down = p.theta.copy(), p.theta.copy()
        up[j] += h
        down[j] -= h
        g_theta[j] = (lag(up, p.alpha, d.phi, d.beta)
                      - lag(down, p.alpha, d.phi, d.beta)) / (2 * h)
    g_alpha = (lag(p.theta, p.alpha + h, d.phi, d.beta)
               - lag(p.theta, p.alpha - h, d.phi, d.beta)) / (2 * h)
    g_phi = np.zeros(ctx.q_count)
    for j in range(ctx.q_count):
        up, down = d.phi.copy(), d.phi.copy()
        up[j] += h
        down[j] -= h
        g_phi[j] = (lag(p.theta, p.alpha, up, d.beta)
                    - lag(p.theta, p.alpha, down, d.beta)) / (2 * h)
    g_beta = (lag(p.theta, p.alpha, d.phi, d.beta + h)
              - lag(p.theta, p.alpha, d.phi, d.beta - h)) / (2 * h)
    return g_theta, g_alpha, g_phi, g_beta


def test_exact_gradients_match_finite_differences(ctx44):
    for trial in range(5):
        p, d = random_points(ctx44, 30 + trial)
        res = model.grad(ctx44, p, d)
        fd_theta, fd_alpha, fd_phi, fd_beta = grad_by_finite_differences(ctx44, p, d)
        assert np.max(np.abs(res.theta - fd_theta)) < 1e-6
        assert abs(res.alpha - fd_alpha) < 1e-6
        assert np.max(np.abs(res.phi - fd_phi)) < 1e-6
        assert abs(res.beta - fd_beta) < 1e-6


def test_gradient_zero_beta_kills_dual_blocks(ctx44):
    p, d = random_points(ctx44, 40, beta=0.0)
    res = model.grad(ctx44, p, d)
    assert np.allclose(res.phi, 0.0)
    assert res.beta == 0.0


def test_gradient_alpha_closed_form_identity_cost():
    cons = (Constraint(np.zeros((4, 4), dtype=complex), 0.0, "padding", None),)
    problem = problem_from_rows(4, 1, np.eye(4, dtype=complex), cons + cons)
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(6, 2, 1),
                                  sim.AnsatzSpec.from_row(2, 1, 1))
    p, d = random_points(ctx, 41, alpha=1.0, beta=0.0)
    res = model.grad(ctx, p, d)
    # dL/dalpha = 2 alpha F0 = 2 for the identity cost
    assert res.alpha == pytest.approx(2.0, abs=1e-12)


def test_gradient_circuit_accounting(ctx44):
    p, d = random_points(ctx44, 42)
    res = model.grad(ctx44, p, d)
    c = ctx44.color_count
    assert res.primal_circuits == (2 * ctx44.p_count + 1) * (2 * c - 1)
    assert res.dual_circuits == 2 * ctx44.q_count + 1


def test_sampled_gradient_shot_and_circuit_counts(ctx44, padded_complex_problem):
    """One sampled gradient spends S shots on every rotated circuit it
    measures: (2P+1) primal points times the n0 cost and nF constraint
    pieces, nF pieces at each of the 2Q shifted dual points, and the dual
    circuit for G at 2Q+1 points; it charges the circuits of
    ``bounds.circuits_per_iteration``."""
    padded_ctx = model.LagrangianContext(padded_complex_problem,
                                         sim.AnsatzSpec.from_row(7, 2, 1),
                                         sim.AnsatzSpec.from_row(4, 3, 1))
    shots = 16
    for ctx in (ctx44, padded_ctx):
        p, d = random_points(ctx, 46)
        res = model.grad(ctx, p, d, sampled_mode(shots, [4, 2]))
        big_p, big_q = ctx.p_count, ctx.q_count
        n0, nf = len(ctx.m0_decomposition), len(ctx.joint_diagonals)
        assert n0 > 0 and nf > 0
        assert res.shots_spent == shots * (
            (2 * big_p + 1) * (n0 + nf) + 2 * big_q * nf + 2 * big_q + 1)
        assert res.primal_circuits + res.dual_circuits == \
            bounds.circuits_per_iteration(big_p, big_q, ctx.color_count)


def test_g_operator_sign_convention(ctx44):
    p, d = random_points(ctx44, 43)
    res = model.grad(ctx44, p, d)

    class Z:
        theta, alpha, phi, beta = p.theta, p.alpha, d.phi, d.beta

    g = g_operator(ctx44, Z)
    np.testing.assert_allclose(g[:ctx44.p_count], res.theta)
    assert g[ctx44.p_count] == res.alpha
    np.testing.assert_allclose(g[ctx44.p_count + 1:-1], -res.phi)
    assert g[-1] == -res.beta


def test_sampled_gradient_unbiased_2qubit():
    problem = random_problem(4, 4, seed=77, scale=0.7)
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(2, 2, 1),
                                  sim.AnsatzSpec.from_row(2, 2, 1))
    p, d = random_points(ctx, 44)
    exact = model.grad(ctx, p, d).stacked()
    n = 600
    draws = np.stack([
        model.grad(ctx, p, d, sampled_mode(8, [50, k])).stacked()
        for k in range(n)
    ])
    mean = draws.mean(axis=0)
    se = draws.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(mean - exact) < 5 * se + 1e-9)


def test_sampled_lagrangian_deterministic_per_seed(ctx44):
    p, d = random_points(ctx44, 45)
    a = model.lagrangian(ctx44, p, d, sampled_mode(16, 99))
    b = model.lagrangian(ctx44, p, d, sampled_mode(16, 99))
    assert a == b


# ---------------------------------------------------------------------------
# Adjoint (exact mode) against the parameter-shift rule


def parameter_shift_field(ctx, p, d):
    """Oracle for the signed field [g_theta; g_alpha; -g_phi; -g_beta] from
    two-point differences of ``model.lagrangian`` alone: the +-pi/2 shift
    rule in theta and phi, and central differences of unit step in alpha
    and beta, which are exact because L is quadratic in each scale."""
    def lag(theta=p.theta, alpha=p.alpha, phi=d.phi, beta=d.beta):
        return model.lagrangian(ctx, PrimalPoint(theta, alpha), DualPoint(phi, beta))

    shifted_theta = (shift_points(p.theta, j) for j in range(ctx.p_count))
    g_theta = [(lag(theta=plus) - lag(theta=minus)) / 2 for plus, minus in shifted_theta]
    shifted_phi = (shift_points(d.phi, j) for j in range(ctx.q_count))
    g_phi = [(lag(phi=plus) - lag(phi=minus)) / 2 for plus, minus in shifted_phi]
    g_alpha = (lag(alpha=p.alpha + 1) - lag(alpha=p.alpha - 1)) / 2
    g_beta = (lag(beta=d.beta + 1) - lag(beta=d.beta - 1)) / 2
    return np.concatenate([g_theta, [g_alpha], -np.asarray(g_phi), [-g_beta]])


@pytest.mark.parametrize("row", range(1, 9))
def test_adjoint_gradient_matches_parameter_shift(padded_complex_problem, row):
    ctx = model.LagrangianContext(padded_complex_problem,
                                  sim.AnsatzSpec.from_row(row, 2, 2),
                                  sim.AnsatzSpec.from_row(row, 3, 2))
    assert np.any(ctx.problem.stack.values.imag != 0)
    for trial in range(2):
        p, d = random_points(ctx, 60 + 10 * row + trial)
        g = model.grad(ctx, p, d).stacked()
        oracle = parameter_shift_field(ctx, p, d)
        scale = np.max(np.abs(oracle))
        assert scale > 0
        assert np.max(np.abs(g - oracle)) <= 1e-10 * scale


def test_real_dual_adjoint_matches_parameter_shift_on_nine_qubits(ieee57_context):
    """The paper's RY/CX dual runs in float64: on 9 qubits (row 2 x 4, Q =
    36) the exact adjoint field equals the parameter-shift oracle to 1e-10
    of its largest entry."""
    ctx = model.LagrangianContext(ieee57_context.problem, ieee57_context.primal_spec,
                                  sim.AnsatzSpec.from_row(2, 9, 4))
    p, d = random_points(ctx, 71, alpha=1.1, beta=3.0)
    assert model.dual_state(ctx, d).dtype == np.float64
    g = model.grad(ctx, p, d).stacked()
    oracle = parameter_shift_field(ctx, p, d)
    assert np.max(np.abs(g - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_real_states_estimate_like_their_complex_casts(ieee57_context):
    """A real shift stack, from an RY/CX primal, gives the same F0 and F
    estimates, bit for bit, as the same states cast to complex, also under
    a real observable, whose pieces need no S^dag turn."""
    ctx = model.LagrangianContext(ieee57_context.problem, sim.AnsatzSpec.from_row(2, 6, 1),
                                  ieee57_context.dual_spec)
    p, d = random_points(ctx, 72)
    psis = sim.shift_states(ctx.primal_spec, sim.rotation_factors(ctx.primal_spec, p.theta))
    assert psis.dtype == np.float64
    seeds = [[72, r] for r in range(len(psis))]
    f0 = xbm.estimate_expectation(psis, ctx.m0_decomposition, 50, seeds)
    assert f0 == xbm.estimate_expectation(psis.astype(complex), ctx.m0_decomposition, 50, seeds)
    real_table = xbm.decompose(ctx.problem.m0.real)
    assert real_table.rotations.turns == ()
    assert xbm.estimate_expectation(psis, real_table, 50, seeds) == xbm.estimate_expectation(
        psis.astype(complex), real_table, 50, seeds)
    cdfs = model._primal_cdfs(ctx, psis)
    assert np.array_equal(cdfs, model._primal_cdfs(ctx, psis.astype(complex)))
    dual = model._dual_cdf(model.dual_pmf(ctx, d))
    for r in range(len(psis)):
        mode = sampled_mode(50, [73, r])
        assert model._sample_f(ctx, cdfs[:, r], dual, mode) == model._sample_f(
            ctx, model._primal_cdfs(ctx, psis[r].astype(complex)), dual, mode)


def test_adjoint_eg_trajectory_matches_parameter_shift(case2):
    """50 exact EG iterations with the protocol's schedule and init on the
    desk case: ``saddle.run`` (adjoint field) and ``saddle.eg_step`` driven by
    the parameter-shift oracle stay within 1e-9.  The desk case keeps the
    iterates from amplifying rounding; on chaotic trajectories any two
    correct gradient codes drift apart."""
    problem = harness.prepare_case(case2, 2, 0).permuted
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(7, 1, 2),
                                  sim.AnsatzSpec.from_row(4, 4, 1))
    init = saddle.default_quantum_init(ctx, case2.n, len(case2.load_nodes), 3)
    schedule = saddle.StepSchedule.exponential()
    iters = 50
    traj = saddle.run(ctx, init, saddle.EG, schedule,
                      saddle.StopRule(theta_tol=1e-300, phi_tol=1e-300, max_iters=iters))
    assert traj.iterations == iters

    def oracle_field(z, *tags):
        return parameter_shift_field(ctx, PrimalPoint(z.theta, z.alpha),
                                     DualPoint(z.phi, z.beta)), 0

    z = init
    for t in range(iters):
        z, _ = saddle.eg_step(oracle_field, z, schedule.rates(t))
        assert np.max(np.abs(z.stacked() - traj.states[t + 1].stacked())) <= 1e-9, t
    assert np.max(np.abs(z.stacked() - init.stacked())) > 0.1


def test_sampled_gradient_stream_unchanged(padded_complex_problem):
    """Sampled mode keeps its parameter-shift loops and seed derivation: the
    values and shots for a fixed seed are pinned bit for bit."""
    ctx = model.LagrangianContext(padded_complex_problem,
                                  sim.AnsatzSpec.from_row(7, 2, 1),
                                  sim.AnsatzSpec.from_row(4, 3, 1))
    rng = np.random.default_rng(5)
    p = PrimalPoint(rng.uniform(0, 6.28, ctx.p_count), 0.9)
    d = DualPoint(rng.uniform(0, 6.28, ctx.q_count), 1.3)
    res = model.grad(ctx, p, d, sampled_mode(16, [3, 1]))
    assert res.theta.tolist() == [
        -0.5854971244902325, -0.026702628539696738, 0.5750386967633397,
        0.9693202469036861, -0.8585354698205968, 0.17729334886717496]
    assert res.alpha == -2.2462911731299
    assert res.phi.tolist() == [
        -0.1292552651340336, -0.3908910662334998, -0.2779478698314925,
        0.2959841910263194, 0.24162941241331173, -0.05109477006100632]
    assert res.beta == -1.172770642845317
    assert (res.primal_circuits, res.dual_circuits, res.shots_spent) == (91, 13, 4464)
