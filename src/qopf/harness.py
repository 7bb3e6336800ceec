"""End-to-end experiment orchestration.

Pipeline per case: order the nodes once with restarted reverse Cuthill-McKee
on the admittance pattern, which every load-scaled instance shares; then per
instance assemble and pad the QCQP, conjugate it by the permutation, solve
with the chosen engine(s), reverse-permute the voltage, and score against a
reference solution.  Metrics follow the benchmark protocol: relative errors
of generator setpoints x = [p_g; v_g] and of the multipliers on
power-balance and line rows, each balance pair in its minimal split, and
three violation statistics over the non-balance rows with label-specific
normalizers.

Reference solutions are ingested from JSON (produced externally by an OPF
tool) or computed by the built-in brute-force grid oracle for desk-scale
cases (N <= 3 effectively).  Note one fidelity gap versus the benchmark
protocol: unless an externally re-solved power flow is supplied, violations
are evaluated directly at the recovered voltage instead of at a re-solved
operating point.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from pathlib import Path
from types import NoneType

import numpy as np
from scipy.optimize import minimize, nnls

from . import model as model_mod
from . import saddle as saddle_mod
from .grid import (
    LABEL_BALANCE_P,
    LABEL_BALANCE_Q,
    LABEL_GEN,
    LABEL_LINE,
    LABEL_PADDING,
    LABEL_VOLTAGE,
    NetworkCase,
    QcqpProblem,
    ValidationError,
    assemble_qcqp,
    build_admittance,
    load_case,
    pad_to_qubits,
)
from .model import DualPoint, EvalMode, LagrangianContext, PrimalPoint
from .permute import NodePermutation, SparsityPattern, bandwidth, best_rcm, \
    color_set, permute_pattern, permute_problem
from .sim import ARCHITECTURES, AnsatzSpec, chain_seed, prepare, reverse_sweep, rng, \
    rotation_factors

VIOLATION_FLOOR = 1e-6
REFERENCE_LABELS = (LABEL_BALANCE_P, LABEL_BALANCE_Q, LABEL_LINE)


def bundled_case_path(name: str) -> Path:
    """Path of a case file shipped with the package (e.g. "ieee57")."""
    return Path(__file__).parent / "data" / f"{name}.case"


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class AnsatzChoice:
    row: int
    layers: int

    def spec(self, n_qubits: int) -> AnsatzSpec:
        return AnsatzSpec.from_row(self.row, n_qubits, self.layers)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of a run; the defaults are the benchmark protocol."""

    case_path: str
    instances: int = 15
    load_scale: tuple[float, float] = (0.90, 1.05)
    primal: AnsatzChoice = AnsatzChoice(6, 10)
    dual: AnsatzChoice = AnsatzChoice(2, 35)
    models: tuple[str, ...] = ("qcqp", "qcqp_theta")
    methods: tuple[str, ...] = ("pd", "eg")
    mode: str = "exact"
    shots: int = 100
    seed: int = 0
    rcm_runs: int = 200
    quantum_schedule: saddle_mod.StepSchedule = field(
        default_factory=saddle_mod.StepSchedule.exponential)
    classical_schedule: saddle_mod.StepSchedule = field(
        default_factory=lambda: saddle_mod.StepSchedule(
            (1e-3, 0.9999), (0.0, 1.0), (1e-3, 0.9999), (0.0, 1.0)))
    stop: saddle_mod.StopRule = field(default_factory=saddle_mod.StopRule)
    classical_stop: saddle_mod.StopRule = field(default_factory=saddle_mod.StopRule)
    reference_path: str | None = None
    out_dir: str | None = None
    divergence_ceiling: float = 1e9
    apply_simplifications: bool = True

    def __post_init__(self):
        lo, hi = self.load_scale
        if not (0 < lo <= hi < 2):
            raise ValidationError("load scaling range must lie inside (0, 2)")
        for kind, values, allowed in (
                ("mode", (self.mode,), ("exact", "sampled")),
                ("model", self.models, ("qcqp", "qcqp_theta")),
                ("method", self.methods, (saddle_mod.PD, saddle_mod.EG)),
                ("primal_ansatz.row", (self.primal.row,), tuple(ARCHITECTURES)),
                ("dual_ansatz.row", (self.dual.row,), tuple(ARCHITECTURES))):
            for value in values:
                # True == 1, so a bool would pass for row 1
                if isinstance(value, bool) or value not in allowed:
                    raise ValidationError(f"unknown {kind} {value!r}")
        for name, value, kinds in (
                ("case", self.case_path, str), ("reference", self.reference_path, (str, NoneType)),
                ("out", self.out_dir, (str, NoneType)),
                ("apply_simplifications", self.apply_simplifications, bool)):
            if not isinstance(value, kinds):
                raise ValidationError(f"{name} has the wrong type: {value!r}")
        if not (_is_number(self.divergence_ceiling) and self.divergence_ceiling > 0):
            raise ValidationError(
                f"divergence_ceiling must be a positive number, got {self.divergence_ceiling!r}")
        for name, value, least in (
                ("instances", self.instances, 1), ("shots", self.shots, 1), ("seed", self.seed, 0),
                ("rcm_runs", self.rcm_runs, 1), ("stop.max_iters", self.stop.max_iters, 0),
                ("classical_stop.max_iters", self.classical_stop.max_iters, 0),
                ("primal_ansatz.layers", self.primal.layers, 0),
                ("dual_ansatz.layers", self.dual.layers, 0)):
            if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
                raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


_CONFIG_KEYS = ("case", "instances", "load_scale", "primal_ansatz", "dual_ansatz", "models",
                "methods", "mode", "shots", "seed", "rcm_runs", "quantum_schedule",
                "classical_schedule", "stop", "classical_stop", "reference", "out",
                "divergence_ceiling", "apply_simplifications")


def _known(doc: dict, keys, where: str = "") -> dict:
    """``doc`` itself, once every key in it is one of ``keys``: a misspelt
    config key, ``"shot"`` say, would otherwise be ignored silently."""
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise ValidationError(f"unknown config key {where}{unknown[0]!r}; "
                              f"accepted: {', '.join(keys)}")
    return doc


def _is_number(value) -> bool:
    """Whether a config value is a number; True == 1, but a bool is not one."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _number_pair(entry, name: str, form: str) -> tuple:
    """``entry`` as a tuple, once it is a list or tuple of two numbers."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2
            and all(_is_number(x) for x in entry)):
        raise ValidationError(f"{name} must be a {form} pair of numbers, got {entry!r}")
    return tuple(entry)


def _schedule_from_json(doc: dict, key: str,
                        fallback: saddle_mod.StepSchedule) -> saddle_mod.StepSchedule:
    doc = _known(doc.get(key, {}), ("theta", "alpha", "phi", "beta"), f"{key}.")
    blocks = {block: _number_pair(doc.get(block, getattr(fallback, block)),
                                  f"{key}.{block}", "[base, decay]")
              for block in ("theta", "alpha", "phi", "beta")}
    return saddle_mod.StepSchedule(**blocks)


def _stop_from_json(doc: dict, key: str, fallback: saddle_mod.StopRule) -> saddle_mod.StopRule:
    doc = _known(doc.get(key, {}), ("theta_tol", "phi_tol", "max_iters"), f"{key}.")
    for tol in ("theta_tol", "phi_tol"):
        if not _is_number(doc.get(tol, getattr(fallback, tol))):
            raise ValidationError(f"{key}.{tol} must be a number, got {doc[tol]!r}")
    return saddle_mod.StopRule(
        theta_tol=doc.get("theta_tol", fallback.theta_tol),
        phi_tol=doc.get("phi_tol", fallback.phi_tol),
        max_iters=doc.get("max_iters", fallback.max_iters),
    )


def read_json(path):
    """The document of a JSON file; a file that is not valid JSON raises
    ValidationError naming the file and the line and column of the fault,
    or the offset of a byte that is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ValidationError(f"{path} is not valid JSON: {err.msg} at line "
                                  f"{err.lineno}, column {err.colno}") from None
        except UnicodeDecodeError as err:
            raise ValidationError(f"{path} is not UTF-8 text: byte {err.start}") from None


def config_from_json(doc: dict | str | Path) -> ExperimentConfig:
    """Build a config from a JSON document or path; absent keys keep the
    benchmark defaults, and an unknown key raises ValidationError."""
    if not isinstance(doc, dict):
        doc = read_json(doc)
    if not isinstance(doc, dict):
        raise ValidationError(f"a config is a JSON object, not {type(doc).__name__}")
    if "case" not in _known(doc, _CONFIG_KEYS):
        raise ValidationError("config needs a 'case' key")
    base = ExperimentConfig(case_path=doc["case"])
    primal = _known(doc.get("primal_ansatz", {}), ("row", "layers"), "primal_ansatz.")
    dual = _known(doc.get("dual_ansatz", {}), ("row", "layers"), "dual_ansatz.")
    return replace(
        base,
        instances=doc.get("instances", base.instances),
        load_scale=_number_pair(doc.get("load_scale", base.load_scale), "load_scale",
                                "[low, high]"),
        primal=AnsatzChoice(primal.get("row", base.primal.row),
                            primal.get("layers", base.primal.layers)),
        dual=AnsatzChoice(dual.get("row", base.dual.row),
                          dual.get("layers", base.dual.layers)),
        models=tuple(doc.get("models", base.models)),
        methods=tuple(doc.get("methods", base.methods)),
        mode=doc.get("mode", base.mode),
        shots=doc.get("shots", base.shots),
        seed=doc.get("seed", base.seed),
        rcm_runs=doc.get("rcm_runs", base.rcm_runs),
        quantum_schedule=_schedule_from_json(doc, "quantum_schedule", base.quantum_schedule),
        classical_schedule=_schedule_from_json(doc, "classical_schedule",
                                               base.classical_schedule),
        stop=_stop_from_json(doc, "stop", base.stop),
        classical_stop=_stop_from_json(doc, "classical_stop", base.classical_stop),
        reference_path=doc.get("reference", base.reference_path),
        out_dir=doc.get("out", base.out_dir),
        divergence_ceiling=doc.get("divergence_ceiling", base.divergence_ceiling),
        apply_simplifications=doc.get("apply_simplifications",
                                      base.apply_simplifications),
    )


# ---------------------------------------------------------------------------
# Instance generation


def apply_benchmark_simplifications(case: NetworkCase) -> NetworkCase:
    """Zero the loads at generator buses and set q_d = 0.33 p_d at load buses."""
    gen_nodes = set(case.generator_nodes)
    buses = []
    for b in case.buses:
        if b.index in gen_nodes:
            buses.append(replace(b, p_demand=0.0, q_demand=0.0))
        else:
            buses.append(replace(b, q_demand=0.33 * b.p_demand))
    return replace(case, buses=tuple(buses))


def generate_instances(case: NetworkCase, count: int,
                       scale_range: tuple[float, float], seed,
                       simplify: bool = True) -> list[NetworkCase]:
    """Scale each load bus's demand by an independent uniform factor per
    instance; generator buses are untouched."""
    lo, hi = scale_range
    base = apply_benchmark_simplifications(case) if simplify else case
    gen_nodes = set(base.generator_nodes)
    out = []
    for k in range(count):
        draws = rng(chain_seed(seed, k))
        buses = []
        for b in base.buses:
            if b.index in gen_nodes:
                buses.append(b)
            else:
                factor = float(draws.uniform(lo, hi))
                buses.append(replace(b, p_demand=factor * b.p_demand,
                                     q_demand=factor * b.q_demand))
        out.append(replace(base, buses=tuple(buses), name=f"{base.name}-i{k}"))
    return out


# ---------------------------------------------------------------------------
# Case preparation (permute -> assemble -> pad)


@dataclass(frozen=True)
class PatternStats:
    n: int
    edges: int
    bandwidth_before: int
    bandwidth_after: int
    colors_before: int
    colors_after: int


@dataclass(frozen=True)
class PreparedCase:
    case: NetworkCase
    problem: QcqpProblem           # natural order, unpadded
    permuted: QcqpProblem          # padded and RCM-permuted; what gets solved
    perm: NodePermutation          # length = padded primal dimension
    stats: PatternStats


def prepare_case(case: NetworkCase, rcm_runs: int = 200, seed: int = 0) -> PreparedCase:
    pattern = SparsityPattern.from_matrix(build_admittance(case))
    perm_nodes = best_rcm(pattern, rcm_runs, seed)
    after = permute_pattern(pattern, perm_nodes)
    stats = PatternStats(
        n=case.n,
        edges=len(case.branches),
        bandwidth_before=bandwidth(pattern),
        bandwidth_after=bandwidth(after),
        colors_before=len(color_set(pattern.padded())),
        colors_after=len(color_set(after.padded())),
    )
    return _prepared(case, perm_nodes, stats)


def _prepared(case: NetworkCase, perm_nodes: NodePermutation,
              stats: PatternStats) -> PreparedCase:
    """Assemble, pad and permute ``case`` under an ordering of its nodes."""
    problem = assemble_qcqp(case)
    padded = pad_to_qubits(problem)
    perm = perm_nodes.extended(padded.dim)
    return PreparedCase(case, problem, permute_problem(padded, perm), perm, stats)


def prepare_instances(config: ExperimentConfig, case: NetworkCase) -> list[PreparedCase]:
    """The config's load-scaled instances of ``case``, prepared as they are
    solved.  The ordering depends on the network graph only, which every
    instance shares, so it is searched once, on instance 0, and every
    instance is permuted by it and carries its statistics."""
    instances = generate_instances(case, config.instances, config.load_scale,
                                   config.seed, simplify=config.apply_simplifications)
    first = prepare_case(instances[0], config.rcm_runs, chain_seed(config.seed, 100, 0))
    return [first] + [_prepared(instance, first.perm, first.stats)
                      for instance in instances[1:]]


def build_context(config: ExperimentConfig, problem: QcqpProblem) -> LagrangianContext:
    """The Lagrangian context of the config's ansatz pair on a padded,
    permuted problem."""
    return LagrangianContext(
        problem,
        config.primal.spec(int(math.log2(problem.dim))),
        config.dual.spec(int(math.log2(problem.m_stored))),
    )


def recover_voltage(prepared: PreparedCase, v_permuted: np.ndarray) -> np.ndarray:
    """Undo the node permutation and drop padding entries."""
    return prepared.perm.undo_on_vector(v_permuted)[:prepared.case.n]


# ---------------------------------------------------------------------------
# Reference solutions


@dataclass(frozen=True)
class ReferenceInstance:
    p_g: np.ndarray
    v_g: np.ndarray
    lam: np.ndarray        # restricted to balance + line rows, problem order
    cost: float
    v: np.ndarray | None = None   # full voltage phasor, when available

    @property
    def x(self) -> np.ndarray:
        return np.concatenate([self.p_g, self.v_g])


@dataclass(frozen=True)
class ReferenceSolution:
    case_name: str
    instances: tuple[ReferenceInstance, ...]


def reference_to_json(ref: ReferenceSolution) -> dict:
    return {
        "case": ref.case_name,
        "instances": [
            {
                "p_g": inst.p_g.tolist(),
                "v_g": inst.v_g.tolist(),
                "lambda": inst.lam.tolist(),
                "cost": inst.cost,
                "v": None if inst.v is None else
                    [[z.real, z.imag] for z in inst.v],
            }
            for inst in ref.instances
        ],
    }


def reference_from_json(doc: dict) -> ReferenceSolution:
    """A reference solution from its JSON document; a missing key or an
    entry that is not numeric raises ValidationError."""
    if not (isinstance(doc, dict) and isinstance(doc.get("instances"), list)):
        raise ValidationError("reference needs an 'instances' list")
    instances = []
    for k, inst in enumerate(doc["instances"]):
        missing = [key for key in ("p_g", "v_g", "lambda", "cost")
                   if not (isinstance(inst, dict) and key in inst)]
        if missing:
            raise ValidationError(f"reference instance {k} lacks the key {missing[0]!r}")
        try:
            v = inst.get("v")
            if v is not None:
                v = np.array([complex(re_, im) for re_, im in v])
            instances.append(ReferenceInstance(
                p_g=np.asarray(inst["p_g"], dtype=float),
                v_g=np.asarray(inst["v_g"], dtype=float),
                lam=np.asarray(inst["lambda"], dtype=float),
                cost=float(inst["cost"]),
                v=v,
            ))
        except (TypeError, ValueError) as err:
            raise ValidationError(f"reference instance {k}: {err}") from None
    return ReferenceSolution(doc.get("case", "case"), tuple(instances))


def load_reference(path) -> ReferenceSolution:
    return reference_from_json(read_json(path))


def save_reference(ref: ReferenceSolution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference_to_json(ref), fh)


def restricted_rows(problem: QcqpProblem) -> list[int]:
    """Indices of the power-balance and line rows (the dual entries compared
    against references, the ones feeding locational prices)."""
    return [k for k, label in enumerate(problem.labels) if label in REFERENCE_LABELS]


def brute_force_reference(case: NetworkCase, resolution: int | None = None,
                          refine: int | None = None,
                          tol: float = 1e-6) -> ReferenceInstance:
    """Grid-search oracle for desk-scale cases.

    Fixes the reference bus at v_ref = 1 (its magnitude is pinned and the
    global phase is free) and sweeps every other node over a polar grid
    inside its voltage box, minimizing cost plus an escalating quadratic
    penalty on constraint violations; the window shrinks around the best
    point each pass, so the search lands on the (measure-zero) power-balance
    manifold.  Feasibility of the final point is verified against ``tol``.
    Multipliers come from a nonnegative least-squares fit of the
    stationarity condition on the active rows.  Practical up to three
    buses; the search space explodes beyond that.
    """
    n = case.n
    if n > 4:
        raise ValidationError("brute-force oracle is desk-scale only (N <= 4)")
    problem = assemble_qcqp(case)
    free = [i for i in range(n) if i != case.reference_bus]
    if resolution is None:
        resolution = {1: 41, 2: 19, 3: 9}[len(free)]
    b = problem.bounds

    def best_on_grid(centers, widths, points, penalty):
        axes = []
        for (r0, phi0), (dr, dphi), bus in zip(centers, widths, free):
            rec = case.buses[bus]
            r = np.linspace(max(rec.v_min, r0 - dr), min(rec.v_max, r0 + dr), points)
            phi = np.linspace(phi0 - dphi, phi0 + dphi, points)
            axes.append((r, phi))
        grids = np.meshgrid(*[axis for pair in axes for axis in pair], indexing="ij")
        total = int(np.prod(grids[0].shape))
        v = np.ones((total, n), dtype=complex)
        for k in range(len(free)):
            r = grids[2 * k].reshape(-1)
            phi = grids[2 * k + 1].reshape(-1)
            v[:, free[k]] = r * np.exp(1j * phi)
        forms = problem.stack.forms(v)
        violation = np.maximum(forms - b[None, :], 0.0)
        cost = np.real(np.sum(v.conj() * (problem.m0 @ v.T).T, axis=1))
        merit = cost + penalty * np.sum(violation**2, axis=1)
        s = int(np.argmin(merit))
        centers = [(float(np.abs(v[s, bus])), float(np.angle(v[s, bus]))) for bus in free]
        return v[s], float(cost[s]), centers, float(np.max(violation[s]))

    centers = [((case.buses[bus].v_min + case.buses[bus].v_max) / 2, 0.0) for bus in free]
    widths = [((case.buses[bus].v_max - case.buses[bus].v_min) / 2, math.pi) for bus in free]
    shrink = max(resolution / 5.0, 1.6)
    if refine is None:
        # enough passes to shrink the search window by ~1e10 overall, so the
        # returned point is feasible well inside the 1e-8 splitting check
        refine = math.ceil(math.log(1e10) / math.log(shrink))
    penalty = 1e4
    v_star, cost, centers, worst = best_on_grid(centers, widths, resolution, penalty)
    for _ in range(refine):
        widths = [(w[0] / shrink, w[1] / shrink) for w in widths]
        penalty = min(penalty * 30.0, 1e16)
        v_star, cost, centers, worst = best_on_grid(centers, widths, resolution, penalty)
    if worst > tol:
        raise ValidationError(
            f"oracle violation {worst:.2e} above tolerance; raise resolution/refine")

    lam = _kkt_multipliers(problem, v_star, tol=1e-4)
    x = extract_setpoints(case, problem, v_star)
    n_gens = len(case.generator_nodes)
    return ReferenceInstance(
        p_g=x[:n_gens], v_g=x[n_gens:], lam=lam[restricted_rows(problem)],
        cost=cost, v=v_star,
    )


def _kkt_multipliers(problem: QcqpProblem, v: np.ndarray, tol: float) -> np.ndarray:
    """Nonnegative multipliers solving the stationarity condition
    2 (M0 + sum_m lambda_m M_m) v = 0 on the active rows, by NNLS."""
    forms = problem.stack.forms(v)
    slack = problem.bounds - forms
    active = [k for k in range(problem.m_stored) if slack[k] <= tol]
    target = -2.0 * (problem.m0 @ v)
    unit = np.eye(problem.m_stored)
    columns = [2.0 * problem.stack.action(unit[k], v) for k in active]
    lam = np.zeros(problem.m_stored)
    if columns:
        a = np.stack(columns, axis=1)
        a_real = np.concatenate([a.real, a.imag], axis=0)
        t_real = np.concatenate([target.real, target.imag])
        coeffs, _ = nnls(a_real, t_real)
        for k, c in zip(active, coeffs):
            lam[k] = c
    return lam


def reference_solution(config: ExperimentConfig, case: NetworkCase,
                       instances: list[NetworkCase]) -> ReferenceSolution | None:
    """The reference solutions of a run's instances: read from
    config.reference_path, else computed by the desk oracle when the case
    has at most three buses, else None.

    A file is checked against the case before any solve, where a misfit
    would otherwise fail only once the metrics are computed: every instance
    needs one p_g and one v_g entry per generator, one multiplier per row of
    ``restricted_rows`` and, if given, one voltage per bus."""
    if config.reference_path:
        ref = load_reference(config.reference_path)
        sizes = {"p_g": len(case.generators), "v_g": len(case.generators),
                 "lambda": len(restricted_rows(assemble_qcqp(case))), "v": case.n}
        for k, inst in enumerate(ref.instances):
            for key, value in (("p_g", inst.p_g), ("v_g", inst.v_g), ("lambda", inst.lam),
                               ("v", inst.v)):
                if value is not None and np.shape(value) != (sizes[key],):
                    raise ValidationError(f"reference instance {k}: {key} has shape "
                                          f"{np.shape(value)}, the case needs ({sizes[key]},)")
        return ref
    if case.n <= 3:
        return ReferenceSolution(case.name, tuple(
            brute_force_reference(inst) for inst in instances))
    return None


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class MetricBlock:
    x_error: float
    lambda_error: float
    violation_count: int
    violation_max: float     # percent
    violation_mean: float    # percent
    lagrangian_error: float

    def as_dict(self) -> dict:
        return {
            "x_error": self.x_error,
            "lambda_error": self.lambda_error,
            "violation_count": self.violation_count,
            "violation_max": self.violation_max,
            "violation_mean": self.violation_mean,
            "lagrangian_error": self.lagrangian_error,
        }


def extract_setpoints(case: NetworkCase, problem: QcqpProblem,
                      v: np.ndarray) -> np.ndarray:
    """x = [p_g; v_g] at the generator nodes, recovered from the voltage via
    the injection forms plus the local demand."""
    forms = problem.stack.forms(v)
    demand = {bus.index: bus.p_demand for bus in case.buses}
    rows = list(zip(problem.labels, problem.subjects))
    p_g, v_g = [], []
    for node in case.generator_nodes:
        p_g.append(forms[rows.index((LABEL_GEN, node))] + demand[node])
        v_g.append(math.sqrt(max(forms[rows.index((LABEL_VOLTAGE, node))], 0.0)))
    return np.concatenate([p_g, v_g])


def _row_normalizer(case: NetworkCase, label: str, subject, bound: float) -> float:
    gens = {g.bus: g for g in case.generators}
    if label == LABEL_GEN:
        g = gens[subject]
        bound_p = max(abs(g.p_max), abs(g.p_min))
        bound_q = max(abs(g.q_max), abs(g.q_min))
        norm = max(bound_p, bound_q)
    elif label == LABEL_LINE:
        norm = abs(bound)
    elif label == LABEL_VOLTAGE:
        bus = case.buses[subject]
        norm = bus.v_max**2 - bus.v_min**2
    else:
        norm = 1.0
    return norm if norm > 1e-12 else 1.0


def violation_stats(case: NetworkCase, problem: QcqpProblem,
                    v: np.ndarray) -> tuple[int, float, float]:
    """(count above 1e-6, max %, mean %) of normalized violations over the
    non-balance rows, evaluated directly at the recovered voltage."""
    forms = problem.stack.forms(v)
    normalized = []
    for k, (label, subject, bound) in enumerate(
            zip(problem.labels, problem.subjects, problem.bounds.tolist())):
        if label in (LABEL_BALANCE_P, LABEL_BALANCE_Q, LABEL_PADDING):
            continue
        violation = max(forms[k] - bound, 0.0) / _row_normalizer(case, label, subject, bound)
        normalized.append(violation)
    normalized = np.array(normalized)
    over = normalized > VIOLATION_FLOOR
    return int(np.sum(over)), float(np.max(normalized) * 100), \
        float(np.mean(normalized) * 100)


def minimal_split(problem: QcqpProblem, lam_restricted: np.ndarray) -> np.ndarray:
    """Restricted multipliers with each balance equality's pair of rows,
    (M, b) and (-M, -b), mapped to its minimal split: adding t to both
    multipliers of a pair leaves L unchanged, so only mu = lam+ - lam- is
    determined, and the pair becomes lam+ = max(mu, 0), lam- = max(-mu, 0)."""
    labels = np.array([problem.labels[k] for k in restricted_rows(problem)])
    upper, lower = np.flatnonzero(
        np.isin(labels, (LABEL_BALANCE_P, LABEL_BALANCE_Q))).reshape(-1, 2).T
    out = np.array(lam_restricted, dtype=float)
    mu = out[upper] - out[lower]
    out[upper], out[lower] = np.maximum(mu, 0.0), np.maximum(-mu, 0.0)
    return out


def compute_metrics(case: NetworkCase, problem: QcqpProblem, v: np.ndarray,
                    lam: np.ndarray, lagrangian_final: float,
                    ref: ReferenceInstance) -> MetricBlock:
    """Setpoint, multiplier, violation and Lagrangian errors against a
    reference; the multipliers of both sides are compared in their
    ``minimal_split``."""
    x = extract_setpoints(case, problem, v)
    x_err = float(np.linalg.norm(x - ref.x) / max(np.linalg.norm(ref.x), 1e-12))
    lam_found = minimal_split(problem, lam[restricted_rows(problem)])
    lam_ref = minimal_split(problem, ref.lam)
    lam_err = float(np.linalg.norm(lam_found - lam_ref)
                    / max(np.linalg.norm(lam_ref), 1e-12))
    count, vmax, vmean = violation_stats(case, problem, v)
    lag_err = float(abs(lagrangian_final - ref.cost) / max(abs(ref.cost), 1e-12))
    return MetricBlock(x_err, lam_err, count, vmax, vmean, lag_err)


def dual_comparison_entries(problem: QcqpProblem, lam: np.ndarray,
                            floor: float = 1e-6) -> np.ndarray:
    """Restricted dual entries in their ``minimal_split`` with sub-floor
    values zeroed, for the sorted concatenated dual-recovery plots."""
    entries = minimal_split(problem, lam[restricted_rows(problem)])
    entries[entries < floor] = 0.0
    return entries


# ---------------------------------------------------------------------------
# Ansatz fitting


def overlap(spec: AnsatzSpec, params: np.ndarray,
            target: np.ndarray) -> tuple[float, np.ndarray]:
    """The overlap cost 1 - Re <psi(params)|target> / ||target||, bounded
    by [0, 2], and its adjoint gradient, from one state preparation.  The
    cost is linear in the amplitudes: with the normalized target carried
    back as the costate, d cost / d params_k =
    -Re <(-i/2) G_k psi_k | target_k> = -Im <target_k| G_k |psi_k> / 2."""
    factors = rotation_factors(spec, params)
    psi = prepare(spec, params, factors)
    norm = float(np.linalg.norm(target))
    cost = 1.0 - float(np.real(np.vdot(psi, target))) / norm
    costate = np.asarray(target) / norm
    return cost, -0.5 * reverse_sweep(spec, factors, psi, costate)


def fit_state(spec: AnsatzSpec, target: np.ndarray, seed, restarts: int = 3,
              iters: int = 400) -> tuple[float, np.ndarray]:
    """L-BFGS-B on the overlap cost with its adjoint gradient, at most
    ``iters`` iterations from each of ``restarts`` random starts; returns
    the best (cost, params)."""
    best_cost, best_params = math.inf, None
    for r in range(restarts):
        start = rng(chain_seed(seed, r)).uniform(0, 2 * math.pi, spec.param_count)
        result = minimize(lambda x: overlap(spec, x, target), start, jac=True,
                          method="L-BFGS-B",
                          options={"maxiter": iters, "ftol": 0.0, "gtol": 1e-12})
        if result.fun < best_cost:
            best_cost, best_params = float(result.fun), result.x
    return best_cost, best_params


@dataclass(frozen=True)
class FitReport:
    choice: AnsatzChoice
    role: str                   # "primal" | "dual"
    mean_cost: float
    per_instance: tuple[float, ...]


def fit_ansatz(candidates: list[AnsatzChoice], targets: list[np.ndarray],
               n_qubits: int, role: str, seed: int = 0,
               restarts: int = 3, iters: int = 400) -> list[FitReport]:
    """Rank candidate architectures by mean alignment cost over the targets
    (reference voltages for the primal role, square roots of normalized
    reference multipliers for the dual role)."""
    reports = []
    for c_idx, choice in enumerate(candidates):
        spec = choice.spec(n_qubits)
        costs = []
        for t_idx, target in enumerate(targets):
            cost, _ = fit_state(spec, target, chain_seed(seed, c_idx, t_idx),
                                restarts=restarts, iters=iters)
            costs.append(cost)
        reports.append(FitReport(choice, role, float(np.mean(costs)), tuple(costs)))
    return sorted(reports, key=lambda rep: rep.mean_cost)


def primal_fit_target(prepared: PreparedCase, v_star: np.ndarray) -> np.ndarray:
    """The reference voltage as the primal circuit represents it: padded
    to the solved dimension and in the solver's node order."""
    target = np.zeros(prepared.permuted.dim, dtype=complex)
    target[:len(v_star)] = v_star
    return prepared.perm.apply_to_vector(target)


def dual_fit_target(lam_full: np.ndarray, dim: int) -> np.ndarray:
    """sqrt of the normalized multiplier vector: the PMF the dual circuit
    should produce, as a real vector, so a real-amplitude dual fits in
    real arithmetic."""
    target = np.zeros(dim)
    total = float(np.sum(lam_full))
    if total > 0:
        target[:len(lam_full)] = np.sqrt(lam_full / total)
    return target


# ---------------------------------------------------------------------------
# Running experiments


@dataclass
class ModelResult:
    metrics: MetricBlock | None
    iterations: int
    total_shots: int
    wall_time: float
    stop_reason: str
    lagrangian_final: float
    lagrangians: list[float]
    g_norms: list[dict[str, float]] | None
    duals: np.ndarray
    scales: list[tuple[float, float]] | None = None   # (alpha, beta) per iter
    shots_per_iter: list[int] | None = None
    error: str | None = None


@dataclass
class RunReport:
    config: ExperimentConfig
    stats: PatternStats
    instances: list[dict[str, ModelResult]]

    def summary(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        keys = ("x_error", "lambda_error", "violation_count", "violation_max",
                "violation_mean", "lagrangian_error")
        for name in sorted({k for inst in self.instances for k in inst}):
            rows = [inst[name].metrics.as_dict() for inst in self.instances
                    if name in inst and inst[name].metrics is not None]
            if rows:
                out[name] = {key: float(np.mean([r[key] for r in rows])) for key in keys}
        return out


def _model_tag(model: str, method: str) -> str:
    return f"{'QCQP' if model == 'qcqp' else 'QCQPt'}-{method.upper()}"


def run_experiment(config: ExperimentConfig,
                   case: NetworkCase | None = None) -> RunReport:
    """The full benchmark protocol on one case.

    Per instance and per requested (model, method) pair, solves the OPF and
    scores it against the reference of ``reference_solution``, if any.
    Failures of a single instance annotate the report instead of aborting
    the run.
    """
    if case is None:
        case = load_case(config.case_path)
    prepared = prepare_instances(config, case)
    reference = reference_solution(config, case, [p.case for p in prepared])

    report = RunReport(config=config, stats=prepared[0].stats, instances=[])
    for k, instance in enumerate(prepared):
        ref_instance = reference.instances[k] if reference and \
            k < len(reference.instances) else None
        results: dict[str, ModelResult] = {}
        for model in config.models:
            for method in config.methods:
                tag = _model_tag(model, method)
                start = time.perf_counter()
                try:
                    results[tag] = _run_single(config, instance, model, method, k,
                                               ref_instance, start)
                except saddle_mod.DivergenceError as err:
                    results[tag] = ModelResult(
                        metrics=None, wall_time=time.perf_counter() - start,
                        lagrangian_final=float("nan"), duals=np.array([]),
                        error=str(err), **_history(err.trajectory, model))
        report.instances.append(results)
    return report


def _history(traj: saddle_mod.Trajectory, model: str) -> dict:
    """The per-iteration fields of a ModelResult; the classical baseline
    ("qcqp") records no gradient norms, scales or shots."""
    history = dict(iterations=traj.iterations, total_shots=traj.total_shots,
                   stop_reason=traj.stop_reason, lagrangians=list(traj.lagrangians),
                   g_norms=None)
    if model != "qcqp":
        history.update(g_norms=traj.g_norms,
                       scales=[(s.alpha, s.beta) for s in traj.states[1:]],
                       shots_per_iter=list(traj.shots))
    return history


def _run_single(config: ExperimentConfig, prepared: PreparedCase, model: str,
                method: str, instance_idx: int,
                ref: ReferenceInstance | None, start: float) -> ModelResult:
    """One model and method on one instance; its wall time runs from
    ``start``, the clock reading the caller also times a diverged run from."""
    n_loads = len(prepared.case.load_nodes)
    problem = prepared.problem
    if model == "qcqp":
        init = saddle_mod.default_classical_init(
            problem, n_loads, chain_seed(config.seed, 1, instance_idx))
        traj = saddle_mod.run_classical(
            problem, init, method, config.classical_schedule, config.classical_stop,
            divergence_ceiling=config.divergence_ceiling)
        v, lam = traj.final.v, traj.final.lam
    else:
        ctx = build_context(config, prepared.permuted)
        mode = EvalMode() if config.mode == "exact" else \
            model_mod.sampled_mode(config.shots, chain_seed(config.seed, 2, instance_idx))
        init = saddle_mod.default_quantum_init(
            ctx, prepared.case.n, n_loads, chain_seed(config.seed, 3, instance_idx))
        traj = saddle_mod.run(ctx, init, method, config.quantum_schedule, config.stop,
                              mode=mode, divergence_ceiling=config.divergence_ceiling)
        final = traj.final
        v_perm = model_mod.primal_vector(ctx, PrimalPoint(final.theta, final.alpha))
        v = recover_voltage(prepared, v_perm)
        lam = model_mod.dual_vector(ctx, DualPoint(final.phi, final.beta))[:problem.m]

    lag_final = traj.lagrangians[-1] if traj.lagrangians else float("nan")
    return ModelResult(
        metrics=None if ref is None else compute_metrics(prepared.case, problem, v, lam,
                                                         lag_final, ref),
        wall_time=time.perf_counter() - start,
        lagrangian_final=lag_final,
        duals=dual_comparison_entries(problem, lam),
        **_history(traj, model),
    )


# ---------------------------------------------------------------------------
# Report emission


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by None, so that it
    serializes as strict JSON (``null``, never a bare ``NaN``)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def emit_report(report: RunReport, out_dir) -> list[Path]:
    """Write the Table-1-shaped CSV, the full JSON, per-run trajectory CSVs,
    and the plot-ready dual/Lagrangian data."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    table = out / "table1.csv"
    with table.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "x_err", "lambda_err", "viol_count",
                         "viol_max", "viol_mean"])
        for name, row in report.summary().items():
            writer.writerow([name, row["x_error"], row["lambda_error"],
                             row["violation_count"], row["violation_max"],
                             row["violation_mean"]])
    written.append(table)

    duals: dict[str, list[float]] = {}
    lag_rows = []
    for k, inst in enumerate(report.instances):
        for name, result in inst.items():
            duals.setdefault(name, []).extend(result.duals.tolist())
            if result.metrics is not None:
                lag_rows.append([k, name, result.metrics.lagrangian_error])
            traj = out / f"trajectory_{k}_{name}.csv"
            with traj.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["iteration", "lagrangian", "g_theta", "g_alpha",
                                 "g_phi", "g_beta", "g_total", "alpha", "beta",
                                 "shots"])
                for t, value in enumerate(result.lagrangians):
                    norms = result.g_norms[t] if result.g_norms else {}
                    alpha, beta = (result.scales[t] if result.scales
                                   else ("", ""))
                    writer.writerow([
                        t, value,
                        norms.get("theta", ""), norms.get("alpha", ""),
                        norms.get("phi", ""), norms.get("beta", ""),
                        norms.get("total", ""), alpha, beta,
                        result.shots_per_iter[t] if result.shots_per_iter else "",
                    ])
            written.append(traj)
    dual_path = out / "dual_comparison.csv"
    with dual_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "rank", "value"])
        for name, values in duals.items():
            for rank, value in enumerate(sorted(values)):
                writer.writerow([name, rank, value])
    written.append(dual_path)
    lag_path = out / "lagrangian_errors.csv"
    with lag_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "model", "lagrangian_rel_error"])
        writer.writerows(lag_rows)
    written.append(lag_path)

    doc = {
        "stats": vars(report.stats) if report.stats else None,
        "summary": report.summary(),
        "instances": [
            {
                name: {
                    "metrics": r.metrics.as_dict() if r.metrics else None,
                    "iterations": r.iterations,
                    "total_shots": r.total_shots,
                    "wall_time": r.wall_time,
                    "stop_reason": r.stop_reason,
                    "lagrangian_final": r.lagrangian_final,
                    "lagrangians": r.lagrangians,
                    "error": r.error,
                }
                for name, r in inst.items()
            }
            for inst in report.instances
        ],
    }
    path = out / "report.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(doc), fh, indent=1, allow_nan=False)
    written.append(path)
    return written
