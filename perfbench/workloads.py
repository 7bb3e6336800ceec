"""The benchmark's workloads, their checks and their metrics.

Every workload drives the pipeline through public qopf functions only:
case -> instance -> ``harness.prepare_case`` -> ``model.LagrangianContext``
-> initial points -> ``saddle.run`` / ``saddle.run_classical``.  Everything
random is derived from the workload seed; the RCM restarts alone use a fixed
seed, because the node ordering is a property of the graph and the resource
counts (colours, circuits, shots) must compare across workload seeds.

An operation is one named, checked step of the workload.  It fails when
the program raises (a classical baseline diverges), writes an invalid
artefact, or returns a value that disagrees with its reference.  Known
defects of the program are counted as failures like any other.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median

import numpy as np

from qopf import bounds, grid, harness, model, saddle, sim, xbm

from spans import Tracer

# The benchmark protocol's defaults: load scaling, RCM restarts, shots per
# circuit and both step schedules.
PROTOCOL = harness.ExperimentConfig(case_path="ieee57")
RCM_SEED = 0
# Bounds the classical runs; both baselines diverge long before it.
CLASSICAL_MAX_ITERS = 20
# Tie lines (bus in copy k, bus in copy k + 1), 0-based, of a tiled case.
TIE_LINES = ((9, 20), (29, 40), (49, 4))
LAGRANGIAN_RTOL = 1e-9
PERMUTATION_RTOL = 1e-9
FD_DIRECTIONS = 3
FD_STEP = 1e-4
FD_RTOL = 1e-6
MEAN_STANDARD_ERRORS = 5.0
SETUP, QUANTUM = "setup", "quantum"
# The reference probe's median duration on the 2-vCPU x86_64 host the
# bounds were set on, in a calm spell; calibrated times are seconds on that
# host at that speed.
REFERENCE_S = 0.0063
CALIBRATION_PROBES = 3
MIN_SETUPS = 3
MIN_CLASSICAL_SAMPLES = 3
MIN_QUANTUM_SAMPLES = 2
KNOWN_DEFECTS = {
    "classical-pd": "classical PD diverges under the default schedule and init",
    "classical-eg": "classical EG diverges under the default schedule and init",
    "report-json": "emit_report writes bare NaN into report.json",
}


@dataclass(frozen=True)
class Workload:
    name: str
    copies: int                 # tiled copies of the bundled ieee57
    primal: harness.AnsatzChoice
    dual: harness.AnsatzChoice
    method: str                 # saddle.PD or saddle.EG
    sampled: bool               # sampled mode at PROTOCOL.shots, else exact
    iters_per_sample: int       # saddle.run iterations per timed sample
    setup_share: float          # share of --seconds spent on set-ups
    classical_share: float      # share of --seconds spent on classical runs
    repeats: int                # seeded draws per sampled-mean check
    protocol: bool              # also run_experiment + emit_report


WORKLOADS = {w.name: w for w in (
    Workload("ieee57-exact-eg", 1, harness.AnsatzChoice(6, 10),
             harness.AnsatzChoice(2, 35), saddle.EG, False, 1, 0.1, 0.1, 10, False),
    Workload("ieee57-sampled-pd", 1, harness.AnsatzChoice(6, 1),
             harness.AnsatzChoice(2, 2), saddle.PD, True, 1, 0.1, 0.1, 20, False),
    Workload("ieee57x2-setup-classical", 2, harness.AnsatzChoice(6, 1),
             harness.AnsatzChoice(2, 2), saddle.EG, False, 5, 0.3, 0.35, 8, True),
)}


# ---------------------------------------------------------------------------
# Inputs


def tiled_case(case: grid.NetworkCase, copies: int) -> grid.NetworkCase:
    """``copies`` copies of ``case`` joined in a chain by TIE_LINES, each tie
    a copy of the case's first branch; the reference bus stays in copy 0."""
    n = case.n
    buses, branches, generators = [], [], []
    for k in range(copies):
        off = k * n
        buses += [replace(b, index=b.index + off) for b in case.buses]
        branches += [replace(br, from_node=br.from_node + off, to_node=br.to_node + off)
                     for br in case.branches]
        generators += [replace(g, bus=g.bus + off) for g in case.generators]
    for k in range(copies - 1):
        branches += [replace(case.branches[0], from_node=k * n + a, to_node=(k + 1) * n + b)
                     for a, b in TIE_LINES]
    tiled = grid.NetworkCase(tuple(buses), tuple(branches), tuple(generators),
                             case.reference_bus, f"{case.name}x{copies}")
    return tiled.validate()


@dataclass
class Setup:
    case: grid.NetworkCase
    prepared: harness.PreparedCase
    ctx: model.LagrangianContext | None
    quantum_init: saddle.SaddlePointState
    classical_init: saddle.ClassicalState


def build_context(w: Workload, problem: grid.QcqpProblem) -> model.LagrangianContext:
    return model.LagrangianContext(
        problem,
        w.primal.spec(int(math.log2(problem.dim))),
        w.dual.spec(int(math.log2(problem.m_stored))),
    )


def setup(w: Workload, seed: int) -> Setup:
    """case -> instance 0 -> prepare_case -> LagrangianContext -> inits."""
    case = grid.load_case(harness.bundled_case_path("ieee57"))
    if w.copies > 1:
        case = tiled_case(case, w.copies)
    instance = harness.generate_instances(case, 1, PROTOCOL.load_scale, seed)[0]
    prepared = harness.prepare_case(instance, PROTOCOL.rcm_runs, RCM_SEED)
    ctx = build_context(w, prepared.permuted)
    n_loads = len(instance.load_nodes)
    return Setup(
        case, prepared, ctx,
        saddle.default_quantum_init(ctx, instance.n, n_loads, sim.chain_seed(seed, 3, 0)),
        saddle.default_classical_init(prepared.problem, n_loads, sim.chain_seed(seed, 1, 0)),
    )


def mode_of(w: Workload, seed: int) -> model.EvalMode:
    if w.sampled:
        return model.sampled_mode(PROTOCOL.shots, sim.chain_seed(seed, 2, 0))
    return model.exact_mode()


def grads_per_iter(w: Workload) -> int:
    return 2 if w.method == saddle.EG else 1


def shots_per_grad(ctx: model.LagrangianContext) -> int:
    """S * [(2P+1)(n0+nF) + 2Q*nF + 2Q+1] for n0 cost pieces and nF joint
    constraint pieces."""
    p, q = ctx.p_count, ctx.q_count
    n0, nf = len(ctx.m0_decomposition.pieces), len(ctx.joint_diagonals)
    return PROTOCOL.shots * ((2 * p + 1) * (n0 + nf) + 2 * q * nf + 2 * q + 1)


# ---------------------------------------------------------------------------
# Timed calls


@dataclass
class Sample:
    start: float
    end: float
    iterations: int             # attempted, the diverging one included
    result: object
    error: str | None
    traced: bool
    factor: float = 1.0         # host calibration, see calibrate()

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def calibrated(self) -> float:
        return self.factor * self.wall

    @property
    def per_iter(self) -> float:
        return self.calibrated / self.iterations


def timed(fn, traced: bool, count=lambda traj: len(traj.lagrangians)) -> Sample:
    """Time one call; a DivergenceError ends it with the diverging
    iteration counted as attempted."""
    start = time.perf_counter()
    try:
        result = fn()
    except saddle.DivergenceError as err:
        return Sample(start, time.perf_counter(), err.iteration + 1, None, str(err), traced)
    return Sample(start, time.perf_counter(), count(result), result, None, traced)


def reference_probe() -> tuple[float, float]:
    """(start, end) of one run of a fixed numpy kernel that does not use
    qopf: rotations of a 512-amplitude state in a Python loop, then passes
    over a 4 MB array."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    state = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    c, s = math.cos(0.3), math.sin(0.3)
    for _ in range(200):
        view = state.reshape(16, 2, 16)
        out = np.empty_like(view)
        out[:, 0, :] = c * view[:, 0, :] - s * view[:, 1, :]
        out[:, 1, :] = s * view[:, 0, :] + c * view[:, 1, :]
        state = out.reshape(-1)[::-1].copy()
    block = np.ones(2**18, dtype=complex)
    for _ in range(6):
        block = block * (1 + 1e-9j)
    return start, time.perf_counter()


def calibrate(samples: list[Sample], probes: list[tuple[float, float]]) -> None:
    """Set each sample's factor to REFERENCE_S over the median duration of
    the CALIBRATION_PROBES reference probes just before it and just after
    it.  The shared host's speed drifts by tens of percent over seconds to
    minutes; the factor rescales each sample to a host of fixed speed."""
    ends = [end for _, end in probes]
    starts = [start for start, _ in probes]
    for x in samples:
        i = bisect.bisect_right(ends, x.start)
        j = bisect.bisect_left(starts, x.end)
        near = probes[max(0, i - CALIBRATION_PROBES):i] + probes[j:j + CALIBRATION_PROBES]
        x.factor = REFERENCE_S / median([end - start for start, end in near])


def quantum_sample(w: Workload, s: Setup, mode: model.EvalMode, traced: bool) -> Sample:
    stop = saddle.StopRule(max_iters=w.iters_per_sample)
    return timed(lambda: saddle.run(s.ctx, s.quantum_init, w.method,
                                    PROTOCOL.quantum_schedule, stop, mode=mode), traced)


def classical_sample(s: Setup, method: str, traced: bool) -> Sample:
    stop = saddle.StopRule(max_iters=CLASSICAL_MAX_ITERS)
    return timed(lambda: saddle.run_classical(s.prepared.problem, s.classical_init, method,
                                              PROTOCOL.classical_schedule, stop), traced)


# ---------------------------------------------------------------------------
# Checks


def quadratic_form(matrix, v: np.ndarray) -> float:
    return float(np.real(np.vdot(v, matrix @ v)))


def permutation_error(prepared: harness.PreparedCase, seed: int) -> float:
    """Largest relative change of the cost and constraint forms at a seeded
    random voltage when the RCM permutation and padding are applied."""
    problem, permuted = prepared.problem, prepared.permuted
    rng = np.random.default_rng(sim.chain_seed(seed, 6))
    v = rng.standard_normal(problem.dim) + 1j * rng.standard_normal(problem.dim)
    padded = np.zeros(permuted.dim, dtype=complex)
    padded[:problem.dim] = v
    pv = prepared.perm.apply_to_vector(padded)
    before = [quadratic_form(problem.m0, v)] + [
        quadratic_form(c.matrix, v) for c in problem.constraints]
    after = [quadratic_form(permuted.m0, pv)] + [
        quadratic_form(c.matrix, pv) for c in permuted.constraints[:problem.m]]
    scale = max(1.0, max(abs(x) for x in before))
    return max(abs(a - b) for a, b in zip(before, after)) / scale


def lagrangian_at(ctx: model.LagrangianContext, x: np.ndarray,
                  mode: model.EvalMode = model.exact_mode()) -> float:
    """model.lagrangian at a stacked point [theta; alpha; phi; beta]."""
    p, q = ctx.p_count, ctx.q_count
    primal = model.PrimalPoint(x[:p], float(x[p]))
    dual = model.DualPoint(x[p + 1:p + 1 + q], float(x[p + 1 + q]))
    return model.lagrangian(ctx, primal, dual, mode)


def grad_fd_error(ctx: model.LagrangianContext, z: saddle.SaddlePointState, seed: int) -> float:
    """Largest gap between model.grad and central differences of
    model.lagrangian along seeded random unit directions, relative to the
    gradient norm."""
    g = model.grad(ctx, model.PrimalPoint(z.theta, z.alpha), model.DualPoint(z.phi, z.beta))
    full = np.concatenate([g.theta, [g.alpha], g.phi, [g.beta]])
    x = z.stacked()
    rng = np.random.default_rng(sim.chain_seed(seed, 7))
    worst = 0.0
    for _ in range(FD_DIRECTIONS):
        u = rng.standard_normal(len(x))
        u /= np.linalg.norm(u)
        fd = (lagrangian_at(ctx, x + FD_STEP * u) - lagrangian_at(ctx, x - FD_STEP * u)) \
            / (2 * FD_STEP)
        worst = max(worst, abs(fd - float(full @ u)) / float(np.linalg.norm(full)))
    return worst


def mean_gap(draws: list[float], exact: float) -> float:
    """|mean - exact| in standard errors of the mean."""
    se = statistics.stdev(draws) / math.sqrt(len(draws))
    gap = abs(statistics.fmean(draws) - exact)
    return gap / se if se > 0 else (0.0 if gap <= 1e-12 * abs(exact) else math.inf)


def sampled_lagrangian_gap(w: Workload, s: Setup, seed: int) -> float:
    z = s.quantum_init.stacked()
    draws = [lagrangian_at(s.ctx, z, model.sampled_mode(PROTOCOL.shots,
                                                        sim.chain_seed(seed, 9, r)))
             for r in range(w.repeats)]
    return mean_gap(draws, lagrangian_at(s.ctx, z))


def sampled_f_gap(w: Workload, s: Setup, seed: int) -> float:
    z = s.quantum_init
    p, d = model.PrimalPoint(z.theta, z.alpha), model.DualPoint(z.phi, z.beta)
    draws = [model.eval_F_sampled(s.ctx, p, d, PROTOCOL.shots, sim.chain_seed(seed, 8, r))
             for r in range(w.repeats)]
    return mean_gap(draws, model.eval_terms(s.ctx, p, d, model.exact_mode()).f)


def reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def protocol_report_error(s: Setup, seed: int, out_dir: Path) -> tuple[str | None, dict]:
    """The default classical protocol through harness.run_experiment and
    emit_report; returns the reason report.json is not valid JSON, if any."""
    config = replace(PROTOCOL, case_path=s.case.name, instances=1, models=("qcqp",),
                     methods=(saddle.PD, saddle.EG), seed=seed,
                     classical_stop=saddle.StopRule(max_iters=CLASSICAL_MAX_ITERS))
    report = harness.run_experiment(config, case=s.case)
    summary = {name: {"iterations": r.iterations, "stop_reason": r.stop_reason}
               for name, r in report.instances[0].items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        harness.emit_report(report, tmp)
        text = (Path(tmp) / "report.json").read_text(encoding="utf-8")
    try:
        json.loads(text, parse_constant=reject_constant)
    except ValueError as err:
        return str(err), summary
    return None, summary


# ---------------------------------------------------------------------------
# Tracing


def instrument(w: Workload, tracer: Tracer, shots_seen: list[int]) -> None:
    """Install a span around each public call the per-layer metrics need."""

    def by_mode(prefix):
        def name(args, kwargs):
            mode = args[3] if len(args) > 3 else kwargs.get("mode")
            sampled = mode is not None and mode.kind == model.SAMPLED
            return f"{prefix}_{'sampled' if sampled else 'exact'}"
        return name

    def record_shots(label, result):
        if label == "model.grad_sampled":
            shots_seen.append(result.shots_spent)

    def prepare_name(args, kwargs):
        return "sim.prepare_primal" if args[0].row == w.primal.row else "sim.prepare_dual"

    tracer.wrap(harness, "prepare_case", "harness.prepare_case")
    tracer.wrap(harness, "best_rcm", "permute.best_rcm")
    tracer.wrap(harness, "assemble_qcqp", "grid.assemble_qcqp")
    tracer.wrap(grid.QcqpProblem, "dense_constraints", "grid.dense_constraints")
    tracer.wrap(model.LagrangianContext, "__init__", "model.context_build")
    tracer.wrap(xbm, "decompose", "xbm.decompose")
    tracer.wrap(xbm, "estimate_expectation", "xbm.estimate_expectation")
    tracer.wrap(model, "prepare", prepare_name)
    for owner in (model, saddle):
        tracer.wrap(owner, "grad", by_mode("model.grad"), record_shots)
        tracer.wrap(owner, "lagrangian", by_mode("model.lagrangian"))
    tracer.wrap(model, "eval_F_sampled", "model.eval_F_sampled")
    tracer.wrap(saddle, "run", "saddle.run")
    tracer.wrap(saddle, "run_classical", "saddle.run_classical")


# ---------------------------------------------------------------------------
# One run


@dataclass
class Outcome:
    ops: list[dict]
    metrics: dict[str, float]
    details: dict


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    tracer = Tracer() if trace else None
    shots_seen: list[int] = []
    if tracer is not None:
        instrument(w, tracer, shots_seen)

    def phase(traced: bool):
        return tracer.active() if traced else nullcontext()

    # Set-up, each classical baseline and the saddle iterations are each
    # sampled repeatedly, interleaved over the whole run up to their share
    # of the budget, with a reference probe after every sample for
    # calibrate().  Traced runs alternate untraced and traced samples of
    # each kind.
    mode = mode_of(w, seed)
    share = {SETUP: w.setup_share, saddle.PD: w.classical_share / 2,
             saddle.EG: w.classical_share / 2}
    share[QUANTUM] = 1.0 - sum(share.values())
    minimum = {SETUP: MIN_SETUPS, saddle.PD: MIN_CLASSICAL_SAMPLES,
               saddle.EG: MIN_CLASSICAL_SAMPLES, QUANTUM: MIN_QUANTUM_SAMPLES}
    samples: dict[str, list[Sample]] = {kind: [] for kind in share}
    probes: list[tuple[float, float]] = []
    s = None

    def take(kind: str) -> None:
        nonlocal s
        traced = trace and len(samples[kind]) % 2 == 1
        with phase(traced):
            if kind == SETUP:
                s = None            # release the previous context first
                sample = timed(lambda: setup(w, seed), traced, count=lambda _: 1)
                s, sample.result = sample.result, None
            elif kind == QUANTUM:
                sample = quantum_sample(w, s, mode, traced)
            else:
                sample = classical_sample(s, kind, traced)
        samples[kind].append(sample)
        probes.append(reference_probe())

    peak_rss = fresh_process_footprint(w, seed, out_dir)
    probes.extend(reference_probe() for _ in range(CALIBRATION_PROBES))
    begin = time.perf_counter()
    take(SETUP)
    while True:
        behind = [kind for kind in share if len(samples[kind]) < minimum[kind]]
        if not behind and time.perf_counter() - begin >= seconds:
            break
        take(min(behind or share,
                 key=lambda kind: sum(x.wall for x in samples[kind]) / share[kind]))
    probes.extend(reference_probe() for _ in range(CALIBRATION_PROBES - 1))
    measured_s = time.perf_counter() - begin
    for kind_samples in samples.values():
        calibrate(kind_samples, probes)
    quantum = samples[QUANTUM]
    classical = {method: samples[method] for method in (saddle.PD, saddle.EG)}

    context_peak_mb = 0.0
    if trace:
        problem, s.ctx = s.ctx.problem, None
        tracemalloc.start()
        s.ctx = build_context(w, problem)
        context_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()

    ctx, prepared = s.ctx, s.prepared
    grads = grads_per_iter(w)
    circuits = grads * sum(ctx.circuits_per_gradient())
    expected_shots = grads * shots_per_grad(ctx)
    ops: list[dict] = []

    def op(name: str, ok: bool, detail) -> None:
        ops.append({"name": name, "ok": bool(ok), "detail": detail,
                    "known_defect": KNOWN_DEFECTS.get(name) if not ok else None})

    if w.copies > 1:
        base = grid.load_case(harness.bundled_case_path("ieee57"))
        op("case-valid",
           s.case.n == w.copies * base.n
           and len(s.case.branches) == w.copies * len(base.branches)
           + (w.copies - 1) * len(TIE_LINES),
           {"buses": s.case.n, "branches": len(s.case.branches),
            "dim": prepared.permuted.dim, "rows": prepared.problem.m,
            "rows_padded": prepared.permuted.m_stored})
    formula = grads * bounds.circuits_per_iteration(ctx.p_count, ctx.q_count, ctx.color_count)
    op("circuits-formula", circuits == formula, {"counted": circuits, "bounds": formula})
    perm_err = permutation_error(prepared, seed)
    stats = prepared.stats
    op("rcm-invariance",
       perm_err <= PERMUTATION_RTOL and stats.bandwidth_after < stats.bandwidth_before,
       {"relative_error": perm_err, "bandwidth_before": stats.bandwidth_before,
        "bandwidth_after": stats.bandwidth_after})
    values = [v for q in quantum if q.result is not None for v in q.result.lagrangians]
    errors = [q.error for q in quantum if q.error]
    op("lagrangians-finite", not errors and all(math.isfinite(v) for v in values),
       {"values": len(values), "errors": errors})
    if not w.sampled and quantum[-1].result is not None:
        final = quantum[-1].result.final
        v = model.primal_vector(ctx, model.PrimalPoint(final.theta, final.alpha))
        lam = model.dual_vector(ctx, model.DualPoint(final.phi, final.beta))
        reference = saddle.classical_lagrangian(prepared.permuted, v, lam)
        recorded = quantum[-1].result.lagrangians[-1]
        rel = abs(recorded - reference) / abs(reference)
        op("final-lagrangian", rel <= LAGRANGIAN_RTOL,
           {"recorded": recorded, "classical": reference, "relative_error": rel})
    if w.sampled:
        spent = [n for q in quantum if q.result is not None for n in q.result.shots]
        op("shots-formula", bool(spent) and all(n == expected_shots for n in spent),
           {"spent": sorted(set(spent)), "formula": expected_shots})
    for method, runs in classical.items():
        diverged = [c.error for c in runs if c.error]
        op(f"classical-{method}", not diverged,
           {"calls": len(runs), "first_error": diverged[0] if diverged else None})
    if w.protocol:
        with phase(trace):
            json_error, summary = protocol_report_error(s, seed, out_dir)
        op("report-json", json_error is None, {"error": json_error, "results": summary})
    if w.sampled or trace:
        with phase(trace):
            gap = sampled_lagrangian_gap(w, s, seed)
        op("sampled-lagrangian-mean", gap <= MEAN_STANDARD_ERRORS,
           {"standard_errors": gap, "draws": w.repeats})
    if trace:
        with phase(True):
            gap = sampled_f_gap(w, s, seed)
            fd = grad_fd_error(ctx, s.quantum_init, seed)
        op("sampled-F-mean", gap <= MEAN_STANDARD_ERRORS,
           {"standard_errors": gap, "draws": w.repeats})
        op("grad-fd", fd <= FD_RTOL, {"relative_error": fd, "directions": FD_DIRECTIONS,
                                      "step": FD_STEP})

    def split(kind_samples: list[Sample]) -> dict[bool, list[Sample]]:
        return {traced: [x for x in kind_samples if x.traced == traced]
                for traced in (False, True)}

    setups, iters = split(samples[SETUP]), split(quantum)
    plain_q = iters[False]
    setup_s = median([x.calibrated for x in setups[False]])
    iter_s = median([q.per_iter for q in plain_q])
    plain_c = [split(cs)[False] for cs in classical.values()]
    classical_iter_s = (sum(median([c.calibrated for c in cs]) for cs in plain_c)
                        / sum(median([c.iterations for c in cs]) for cs in plain_c))
    if w.sampled:
        shots = int(median([n for q in plain_q if q.result is not None for n in q.result.shots]))
    else:
        shots = expected_shots
    passed = sum(o["ok"] for o in ops)

    if not trace:
        metrics = {
            "setup_s": setup_s,
            "iter_s": iter_s,
            "classical_iter_s": classical_iter_s,
            "circuits_per_iter": circuits,
            "shots_per_iter": shots,
            "peak_rss_mb": peak_rss,
            "ok_ratio": passed / len(ops),
        }
    else:
        traced_iters = sum(q.iterations for q in iters[True])
        metrics = {
            "harness.prepare_case_s": tracer.median("harness.prepare_case"),
            "permute.best_rcm_s": tracer.median("permute.best_rcm"),
            "grid.assemble_qcqp_s": tracer.median("grid.assemble_qcqp"),
            "model.context_build_s": tracer.median("model.context_build"),
            "xbm.decompose_s": tracer.total("xbm.decompose")
            / max(1, len(tracer.durations("model.context_build"))),
            "model.context_peak_mb": context_peak_mb,
            "grid.dense_constraints_s": tracer.median("grid.dense_constraints"),
            "sim.prepare_primal_s": tracer.median("sim.prepare_primal"),
            "sim.prepare_dual_s": tracer.median("sim.prepare_dual"),
            "model.grad_exact_s": tracer.median("model.grad_exact"),
            "model.lagrangian_exact_s": tracer.median("model.lagrangian_exact"),
            "model.grad_sampled_s": tracer.median("model.grad_sampled"),
            "model.lagrangian_sampled_s": tracer.median("model.lagrangian_sampled"),
            "model.eval_F_sampled_s": tracer.median("model.eval_F_sampled"),
            "xbm.estimate_expectation_s": tracer.median("xbm.estimate_expectation"),
            "saddle.run_self_s": tracer.self_time("saddle.run") / traced_iters,
            "saddle.classical_iters_attempted_pd":
                median([c.iterations for c in classical[saddle.PD]]),
            "saddle.classical_iters_attempted_eg":
                median([c.iterations for c in classical[saddle.EG]]),
            "permute.bandwidth_after": stats.bandwidth_after,
            "permute.colors_after": stats.colors_after,
            "xbm.union_colors": ctx.color_count,
            "xbm.pieces": len(ctx.m0_decomposition.pieces) + len(ctx.joint_diagonals),
            "model.circuits_per_grad": sum(ctx.circuits_per_gradient()),
            "model.shots_per_grad": median(shots_seen) if shots_seen else shots_per_grad(ctx),
            "host.reference_s": median([end - start for start, end in probes]),
            "trace.setup_overhead_s": median([x.calibrated for x in setups[True]]) - setup_s,
            "trace.iter_overhead_s": median([q.per_iter for q in iters[True]]) - iter_s,
        }

    def record(x: Sample) -> dict:
        return {"start": x.start - begin, "wall": x.wall, "calibrated": x.calibrated,
                "iterations": x.iterations, "traced": x.traced, "error": x.error}

    details = {
        "measured_s": measured_s,
        "reference_probes": [end - start for start, end in probes],
        "samples": {kind: [record(x) for x in kind_samples]
                    for kind, kind_samples in samples.items()},
        "problem": {"n": prepared.problem.n, "dim": prepared.permuted.dim,
                    "rows": prepared.problem.m, "rows_padded": prepared.permuted.m_stored,
                    "P": ctx.p_count, "Q": ctx.q_count, "C": ctx.color_count},
    }
    return Outcome(ops, metrics, details)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def footprint(w: Workload, seed: int, out_dir: Path) -> float:
    """Peak RSS in MB of one pass over the workload in a fixed order: one
    set-up, one classical PD and one EG run, one saddle.run sample and the
    protocol run where the workload has one."""
    s = setup(w, seed)
    for method in (saddle.PD, saddle.EG):
        classical_sample(s, method, False)
    quantum_sample(w, s, mode_of(w, seed), False)
    if w.protocol:
        protocol_report_error(s, seed, out_dir)
    return peak_rss_mb()


def fresh_process_footprint(w: Workload, seed: int, out_dir: Path) -> float:
    """footprint() in a fresh interpreter, waited for.  In the measuring
    process the peak depends on how the timed samples happened to
    interleave, because the allocator keeps freed blocks differently for
    different orders."""
    code = ("import sys, workloads; print(workloads.footprint("
            "workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), workloads.Path(sys.argv[3])))")
    path = os.pathsep.join([str(Path(__file__).parent), str(Path(grid.__file__).parents[1])])
    done = subprocess.run([sys.executable, "-c", code, w.name, str(seed), str(out_dir)],
                          env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.PIPE,
                          text=True, check=True)
    return float(done.stdout.split()[-1])
