"""End-to-end experiment orchestration.

Pipeline: prepare each case once (order its nodes by restarted reverse
Cuthill-McKee on the admittance pattern; assemble, pad and permute the
QCQP), then solve each load-scaled instance, one row of bounds on those
shared matrices, with the chosen engine(s), map the solution back to the
problem (``PreparedCase.from_solver``), and score against a reference
solution.  Metrics follow the benchmark protocol: relative errors of
generator setpoints x = [p_g; v_g] and of the multipliers on power-balance
and line rows, each balance pair in its minimal split, and three violation
statistics over the non-balance rows with label-specific normalizers.

Reference solutions, one multiplier per problem row, are read from JSON
(an earlier run's ``reference.json``, or an external OPF tool's) or solved
for each instance by ``local_reference``, a local trust-constr solve of the
QCQP in real coordinates from the flat profile.  Note one fidelity gap
versus the benchmark protocol: unless an externally re-solved power flow is
supplied, violations are evaluated directly at the recovered voltage
instead of at a re-solved operating point.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from numbers import Integral, Real
from pathlib import Path
from types import NoneType

import numpy as np
from scipy import sparse
from scipy.optimize import NonlinearConstraint, minimize

from . import model as model_mod
from . import saddle as saddle_mod
from .grid import (
    LABEL_BALANCE_P,
    LABEL_BALANCE_Q,
    LABEL_GEN,
    LABEL_LINE,
    LABEL_PADDING,
    LABEL_VOLTAGE,
    MatrixStack,
    NetworkCase,
    QcqpProblem,
    ValidationError,
    assemble_qcqp,
    build_admittance,
    load_case,
    pad_to_qubits,
)
from .model import DualPoint, EvalMode, LagrangianContext, PrimalPoint
from .permute import NodePermutation, best_rcm, permute_problem
from .sim import ARCHITECTURES, AnsatzSpec, chain_seed, prepare, reverse_sweep, rng, \
    rotation_factors

VIOLATION_FLOOR = 1e-6
DUAL_PLOT_FLOOR = 1e-6
REFERENCE_MAX_ITER = 500   # case2 and case3 converge in 11 and 13 iterations, ieee57 in 22-29
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
        lo, hi = _number_pair(self.load_scale, "load_scale", "[low, high]")
        object.__setattr__(self, "load_scale", (lo, hi))
        if not (0 < lo <= hi < 2):
            raise ValidationError("load scaling range must lie inside (0, 2)")
        for key, names, allowed in (("models", self.models, ("qcqp", "qcqp_theta")),
                                    ("methods", self.methods, (saddle_mod.PD, saddle_mod.EG))):
            # a bare string would pass as its characters, a repeat would run twice
            if not (isinstance(names, (list, tuple)) and names
                    and all(name in allowed for name in names) and len(set(names)) == len(names)):
                raise ValidationError(f"{key} must be a non-empty list of distinct names from "
                                      f"{list(allowed)}, got {names!r}")
            object.__setattr__(self, key, tuple(names))
        for kind, values, allowed in (
                ("mode", (self.mode,), ("exact", "sampled")),
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


# The config keys whose ExperimentConfig field has another name; every
# other field is read from the key of its own name.
_KEY_OF_FIELD = {"case_path": "case", "primal": "primal_ansatz", "dual": "dual_ansatz",
                 "reference_path": "reference", "out_dir": "out"}


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


def _nested_from_json(entry, key: str, default):
    """``default``, an ansatz, a schedule or a stop rule, with the fields
    that the config object ``entry`` sets; ExperimentConfig checks the
    integers among them."""
    if not isinstance(entry, dict):
        raise ValidationError(f"{key} must be a JSON object, got {entry!r}")
    entry = dict(_known(entry, [f.name for f in fields(default)], f"{key}."))
    for name, value in entry.items():
        if isinstance(default, saddle_mod.StepSchedule):
            entry[name] = _number_pair(value, f"{key}.{name}", "[base, decay]")
        elif name.endswith("_tol") and not _is_number(value):
            raise ValidationError(f"{key}.{name} must be a number, got {value!r}")
    return replace(default, **entry)


def read_json(path):
    """The document of a JSON file; a file that is not valid JSON raises
    ValidationError naming the file and the line and column of the fault,
    the non-standard constant (NaN, Infinity, -Infinity) it holds, or the
    offset of a byte that is not UTF-8."""
    def reject(token):
        raise ValidationError(f"{path} is not valid JSON: non-standard constant {token}")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=reject)
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
    field_of_key = {_KEY_OF_FIELD.get(f.name, f.name): f.name for f in fields(ExperimentConfig)}
    if "case" not in _known(doc, field_of_key):
        raise ValidationError("config needs a 'case' key")
    base = ExperimentConfig(case_path=doc["case"])
    values = {}
    for key, entry in doc.items():
        default = getattr(base, field_of_key[key])
        values[field_of_key[key]] = \
            _nested_from_json(entry, key, default) if is_dataclass(default) else entry
    return replace(base, **values)


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
    """A case's problem, the problem the solver sees, and the map between them."""

    case: NetworkCase
    problem: QcqpProblem           # natural order, unpadded
    permuted: QcqpProblem          # padded and RCM-permuted; what gets solved
    perm: NodePermutation          # length = padded primal dimension
    stats: PatternStats

    def to_solver(self, v: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A problem's voltage (one entry per bus) and multipliers (one per
        problem row) as the solver holds them: zero-padded to its sizes, the
        voltage in its node order; the rows keep their order."""
        v = np.asarray(v, dtype=complex)
        return (self.perm.apply_to_vector(np.pad(v, (0, self.permuted.dim - len(v)))),
                self._pad_rows(lam))

    def from_solver(self, v: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The solver's voltage and multipliers in the problem's node order,
        without their padding entries."""
        return self.perm.undo_on_vector(v)[:self.problem.n], lam[:self.problem.m]

    def with_instance(self, case: NetworkCase, bounds: np.ndarray) -> PreparedCase:
        """Instance ``case`` on these matrices with its bounds, one per problem
        row; the solver's rows get them zero-padded, as ``to_solver`` pads multipliers."""
        return replace(self, case=case, problem=replace(self.problem, bounds=bounds),
                       permuted=replace(self.permuted, bounds=self._pad_rows(bounds)))

    def _pad_rows(self, values: np.ndarray) -> np.ndarray:
        return np.pad(np.asarray(values, dtype=float), (0, self.permuted.m_stored - len(values)))


def prepare_case(case: NetworkCase, rcm_runs: int, seed: int) -> PreparedCase:
    perm_nodes, bands, colors = best_rcm(build_admittance(case), rcm_runs, seed)
    stats = PatternStats(case.n, len(case.branches), *bands, *colors)
    problem = assemble_qcqp(case)
    padded = pad_to_qubits(problem)
    perm = perm_nodes.extended(padded.dim)
    return PreparedCase(case, problem, permute_problem(padded, perm), perm, stats)


def prepare_instances(config: ExperimentConfig, case: NetworkCase
                      ) -> tuple[PreparedCase, list[NetworkCase], np.ndarray]:
    """Instance 0 of the config's load-scaled instances of ``case``, as
    ``prepare_case`` prepares it; every instance's ``NetworkCase``; and an
    (instances, m) array whose row k is instance k's bounds.  Load scaling
    moves only bounds, so instance k is solved on the prepared matrices with
    row k (``PreparedCase.with_instance``); instances 1 and up are assembled
    only to read their bounds and to check that the rest is instance 0's."""
    instances = generate_instances(case, config.instances, config.load_scale,
                                   config.seed, simplify=config.apply_simplifications)
    prepared = prepare_case(instances[0], config.rcm_runs, chain_seed(config.seed, 100, 0))
    first = prepared.problem
    bounds = np.zeros((len(instances), first.m))
    for k, instance in enumerate(instances):
        problem = assemble_qcqp(instance) if k else first
        if (problem.labels, problem.subjects) != (first.labels, first.subjects) or not all(
                np.array_equal(getattr(mine, name), getattr(theirs, name))
                for mine, theirs in ((problem.cost, first.cost), (problem.stack, first.stack))
                for name in ("segments", "rows", "cols", "values")):
            raise ValidationError(f"instance {k} differs from instance 0 in more than its bounds")
        bounds[k] = problem.bounds
    return prepared, instances, bounds


def build_context(config: ExperimentConfig, problem: QcqpProblem) -> LagrangianContext:
    """The Lagrangian context of the config's ansatz pair on a padded,
    permuted problem."""
    return LagrangianContext(
        problem,
        config.primal.spec(int(math.log2(problem.dim))),
        config.dual.spec(int(math.log2(problem.m_stored))),
    )


# ---------------------------------------------------------------------------
# Reference solutions


@dataclass(frozen=True)
class ReferenceInstance:
    p_g: np.ndarray
    v_g: np.ndarray
    lam: np.ndarray        # one multiplier per problem row, problem order
    cost: float
    v: np.ndarray | None = None   # full voltage phasor, when available

    @property
    def x(self) -> np.ndarray:
        return np.concatenate([self.p_g, self.v_g])


@dataclass(frozen=True)
class ReferenceSolution:
    case_name: str
    instances: tuple[ReferenceInstance | None, ...]   # None: the local solve failed
    errors: dict[int, str] = field(default_factory=dict)   # its message, by instance


def load_reference(path) -> ReferenceSolution:
    """A reference solution from its JSON file, as ``save_reference`` writes
    it; a missing key or an entry that is not numeric raises ValidationError."""
    doc = read_json(path)
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


def save_reference(ref: ReferenceSolution, path) -> None:
    instances = [{"p_g": inst.p_g.tolist(), "v_g": inst.v_g.tolist(), "lambda": inst.lam.tolist(),
                  "cost": inst.cost,
                  "v": None if inst.v is None else [[z.real, z.imag] for z in inst.v]}
                 for inst in ref.instances]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"case": ref.case_name, "instances": instances}, fh)


def restricted_rows(problem: QcqpProblem) -> list[int]:
    """Indices of the power-balance and line rows (the dual entries compared
    against references, the ones feeding locational prices)."""
    return [k for k, label in enumerate(problem.labels) if label in REFERENCE_LABELS]


def _real_quadratics(stack: MatrixStack):
    """The forms Re v^dag M_m v of ``stack`` as real quadratics z^T Q_m z of
    z = (Re v, Im v): an entry a + ib of M_m at (r, c) puts a at (r, c) and
    (n+r, n+c), -b at (r, n+c) and b at (n+r, c) of the symmetric Q_m.
    Returns their values, their (count, 2n) Jacobian 2 Q_m z, and the
    Hessian 2 sum_m w_m Q_m of a weighted sum."""
    n, count = stack.dim, stack.count
    a, b = stack.values.real, stack.values.imag
    segs = np.tile(stack.segments, 4)
    rows = np.concatenate([stack.rows, stack.rows + n, stack.rows, stack.rows + n])
    cols = np.concatenate([stack.cols, stack.cols + n, stack.cols + n, stack.cols])
    vals = np.concatenate([a, a, -b, b])
    keep = vals != 0
    segs, rows, cols, vals = segs[keep], rows[keep], cols[keep], vals[keep]

    def values(z):
        return np.bincount(segs, vals * z[rows] * z[cols], minlength=count)

    def jacobian(z):
        return sparse.csr_matrix((2 * vals * z[cols], (segs, rows)), shape=(count, 2 * n))

    def hessian(w):
        return sparse.csr_matrix((2 * vals * w[segs], (rows, cols)), shape=(2 * n, 2 * n))

    return values, jacobian, hessian


def _opposite_pairs(problem: QcqpProblem) -> np.ndarray:
    """The rows k that pair with row k + 1: one label and subject, and
    M_{k+1} = -M_k.  These are the balance, generator-limit, voltage and
    reference pairs; a pair's rows together bound v^dag M_k v on both sides."""
    stack, keys = problem.stack, list(zip(problem.labels, problem.subjects))
    pairs = []
    for k in range(problem.m - 1):
        this, after = (slice(*stack.offsets[j:j + 2]) for j in (k, k + 1))
        if (not pairs or pairs[-1] != k - 1) and keys[k] == keys[k + 1] \
                and np.array_equal(stack.rows[this], stack.rows[after]) \
                and np.array_equal(stack.cols[this], stack.cols[after]) \
                and np.array_equal(stack.values[this], -stack.values[after]):
            pairs.append(k)
    return np.array(pairs, dtype=np.intp)


def local_reference(case: NetworkCase) -> ReferenceInstance:
    """The reference solution of a case by a local solve of its QCQP.

    Minimizes the real form of v^dag M0 v over z = (Re v, Im v) subject to
    every stored row, by trust-constr from the flat profile v = 1, and turns
    the voltage so the reference bus is real.  Each pair of opposite rows
    (``_opposite_pairs``) goes to the solver as one two-sided row,
    -b_{k+1} <= v^dag M_k v <= b_k, an equality for the balance and
    reference pairs, so the constraint Jacobian keeps full row rank where
    both rows of a pair are active.  The solver's signed multiplier mu of a
    pair maps back to its minimal split (max(mu, 0), max(-mu, 0)), and the
    reference keeps one multiplier per problem row, every entry clipped at
    zero.  A solve that does not converge within ``REFERENCE_MAX_ITER``
    iterations, or that leaves a row violated by more than VIOLATION_FLOOR,
    raises ValidationError.
    """
    problem = assemble_qcqp(case)
    cost, cost_jacobian, cost_hessian = _real_quadratics(problem.cost)
    forms, jacobian, hessian = _real_quadratics(problem.stack)
    n, pairs = problem.n, _opposite_pairs(problem)
    solved = np.delete(np.arange(problem.m), pairs + 1)  # a pair's first row stands for it
    lower = np.full(problem.m, -np.inf)
    lower[pairs] = -problem.bounds[pairs + 1]

    def weighted_hessian(z, w):
        full = np.zeros(problem.m)
        full[solved] = w
        return hessian(full)

    result = minimize(
        lambda z: cost(z)[0], np.concatenate([np.ones(n), np.zeros(n)]),
        jac=lambda z: cost_jacobian(z).toarray()[0], hess=lambda z: cost_hessian(np.ones(1)),
        method="trust-constr",
        constraints=NonlinearConstraint(lambda z: forms(z)[solved], lower[solved],
                                        problem.bounds[solved],
                                        jac=lambda z: jacobian(z)[solved], hess=weighted_hessian),
        options={"gtol": 1e-9, "xtol": 1e-12, "maxiter": REFERENCE_MAX_ITER})
    v = result.x[:n] + 1j * result.x[n:]
    v *= np.exp(-1j * np.angle(v[case.reference_bus]))
    worst = float(np.max(problem.stack.forms(v) - problem.bounds))
    if not result.success or worst > VIOLATION_FLOOR:
        raise ValidationError(f"the reference solve of {case.name} stopped after {result.nit} "
                              f"iterations ({result.message}), largest violation {worst:.2e}")
    lam = np.zeros(problem.m)
    lam[solved] = result.v[0]
    lam[pairs + 1] = -lam[pairs]
    x = extract_setpoints(case, problem, v)
    n_gens = len(case.generator_nodes)
    return ReferenceInstance(p_g=x[:n_gens], v_g=x[n_gens:], lam=np.maximum(lam, 0.0),
                             cost=float(problem.cost.forms(v)[0]), v=v)


def _solve_reference(k: int, instance: NetworkCase, errors: dict) -> ReferenceInstance | None:
    """``local_reference(instance)``, or None when the solve fails: then its
    message goes to ``errors[k]`` and a warning on stderr names instance k."""
    try:
        return local_reference(instance)
    except ValidationError as err:
        print(f"warning: instance {k} has no reference: {err}", file=sys.stderr)
        errors[k] = str(err)
        return None


def reference_solution(config: ExperimentConfig, prepared: PreparedCase,
                       instances: list[NetworkCase]) -> ReferenceSolution:
    """The reference solutions of a run's instances, one multiplier per row
    of ``prepared.problem``: read from config.reference_path, else computed
    by ``local_reference`` on each instance, None where that solve fails
    (``_solve_reference``).

    A file is checked against the prepared instance 0 before any solve,
    where a misfit would otherwise fail only once the metrics are computed:
    ``config.instances`` instances or more, each with a p_g and a v_g entry
    per generator, a multiplier (>= 0) per problem row, or per
    ``restricted_rows`` row with zeros read on the others, and, if given, a
    voltage per bus."""
    case, problem = prepared.case, prepared.problem
    if config.reference_path:
        ref = load_reference(config.reference_path)
        if len(ref.instances) < config.instances:
            raise ValidationError(f"reference holds {len(ref.instances)} instances; "
                                  f"the run needs {config.instances}")
        rows = restricted_rows(problem)
        sizes = {"p_g": len(case.generators), "v_g": len(case.generators), "v": case.n}
        scored = []
        for k, inst in enumerate(ref.instances):
            for key, value in (("p_g", inst.p_g), ("v_g", inst.v_g), ("v", inst.v)):
                if value is not None and np.shape(value) != (sizes[key],):
                    raise ValidationError(f"reference instance {k}: {key} has shape "
                                          f"{np.shape(value)}, the case needs ({sizes[key]},)")
            if np.shape(inst.lam) not in ((problem.m,), (len(rows),)):
                raise ValidationError(f"reference instance {k}: lambda has shape "
                                      f"{np.shape(inst.lam)}, the case needs ({problem.m},) "
                                      f"or ({len(rows)},)")
            if np.min(inst.lam, initial=0.0) < 0:
                raise ValidationError(f"reference instance {k}: lambda has a negative entry; "
                                      "the split multipliers are >= 0")
            if len(inst.lam) == len(rows):
                lam = np.zeros(problem.m)
                lam[rows] = inst.lam
                inst = replace(inst, lam=lam)
            scored.append(inst)
        return replace(ref, instances=tuple(scored))
    errors: dict[int, str] = {}
    return ReferenceSolution(case.name, tuple(_solve_reference(k, instance, errors)
                                              for k, instance in enumerate(instances)), errors)


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
        return asdict(self)


# Table 1's columns: the CSV header of each and the summary metric it shows.
TABLE1_COLUMNS = (("x_err", "x_error"), ("lambda_err", "lambda_error"),
                  ("viol_count", "violation_count"), ("viol_max", "violation_max"),
                  ("viol_mean", "violation_mean"))


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


def minimal_split(problem: QcqpProblem, lam: np.ndarray) -> np.ndarray:
    """The multipliers of ``restricted_rows``, read from ``lam`` (one per
    problem row), with each balance equality's pair of rows, (M, b) and
    (-M, -b), mapped to its minimal split: adding t to both multipliers of
    a pair leaves L unchanged, so only mu = lam+ - lam- is determined, and
    the pair becomes lam+ = max(mu, 0), lam- = max(-mu, 0)."""
    rows = restricted_rows(problem)
    upper, lower = np.flatnonzero(np.isin(
        np.array(problem.labels)[rows], (LABEL_BALANCE_P, LABEL_BALANCE_Q))).reshape(-1, 2).T
    out = np.asarray(lam, dtype=float)[rows]
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
    lam_found, lam_ref = minimal_split(problem, lam), minimal_split(problem, ref.lam)
    lam_err = float(np.linalg.norm(lam_found - lam_ref)
                    / max(np.linalg.norm(lam_ref), 1e-12))
    count, vmax, vmean = violation_stats(case, problem, v)
    lag_err = float(abs(lagrangian_final - ref.cost) / max(abs(ref.cost), 1e-12))
    return MetricBlock(x_err, lam_err, count, vmax, vmean, lag_err)


def dual_comparison_entries(problem: QcqpProblem, lam: np.ndarray) -> np.ndarray:
    """Restricted dual entries in their ``minimal_split`` with values below
    DUAL_PLOT_FLOOR zeroed, for the sorted concatenated dual-recovery plots."""
    entries = minimal_split(problem, lam)
    entries[entries < DUAL_PLOT_FLOOR] = 0.0
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
        reports.append(FitReport(choice, role, float(np.mean(costs))))
    return sorted(reports, key=lambda rep: rep.mean_cost)


def dual_fit_target(lam: np.ndarray) -> np.ndarray:
    """sqrt of the normalized multiplier vector: the PMF the dual circuit
    should produce, as a real vector, so a real-amplitude dual fits in
    real arithmetic."""
    total = float(np.sum(lam))
    return np.sqrt(lam / total) if total > 0 else np.zeros(len(lam))


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
    seconds: list[float] | None = None                # cumulative, per iter


@dataclass
class RunReport:
    config: ExperimentConfig
    stats: PatternStats
    instances: list[dict[str, ModelResult]]
    reference: ReferenceSolution | None = None   # what the instances were scored against

    def summary(self) -> dict[str, dict[str, float]]:
        """Every MetricBlock field, averaged per model over the scored instances."""
        out: dict[str, dict[str, float]] = {}
        for name in sorted({k for inst in self.instances for k in inst}):
            rows = [inst[name].metrics.as_dict() for inst in self.instances
                    if name in inst and inst[name].metrics is not None]
            if rows:
                out[name] = {key: float(np.mean([r[key] for r in rows])) for key in rows[0]}
        return out


def _model_tag(model: str, method: str) -> str:
    return f"{'QCQP' if model == 'qcqp' else 'QCQPt'}-{method.upper()}"


def run_experiment(config: ExperimentConfig,
                   case: NetworkCase | None = None) -> RunReport:
    """The full benchmark protocol on one case.

    Per instance and per requested (model, method) pair, solves the OPF and
    scores it against the instance's reference: the file's, checked before
    any solve, or else ``local_reference``, solved when a run of the
    instance first finishes; an instance without one is not scored.
    Failures of a single instance annotate the report instead of aborting
    the run.
    """
    if case is None:
        case = load_case(config.case_path)
    prepared, instances, bounds = prepare_instances(config, case)
    reference = reference_solution(config, prepared, instances) if config.reference_path else None
    local, errors = {}, {}   # the local references solved so far, their failures

    def reference_of(k: int) -> ReferenceInstance | None:
        if reference is None and k not in local:
            local[k] = _solve_reference(k, instances[k], errors)
        return reference.instances[k] if reference else local[k]

    report = RunReport(config=config, stats=prepared.stats, instances=[])
    for k, instance in enumerate(instances):
        solved = prepared.with_instance(instance, bounds[k])
        results: dict[str, ModelResult] = {}
        for model in config.models:
            for method in config.methods:
                tag = _model_tag(model, method)
                start = time.perf_counter()
                try:
                    results[tag] = _run_single(config, solved, model, method, k,
                                               reference_of, start)
                except saddle_mod.DivergenceError as err:
                    results[tag] = ModelResult(
                        metrics=None, wall_time=time.perf_counter() - start,
                        lagrangian_final=float("nan"), duals=np.array([]),
                        error=str(err), **_history(err.trajectory, model))
        report.instances.append(results)
    report.reference = reference or ReferenceSolution(
        prepared.case.name, tuple(local.get(k) for k in range(len(instances))), errors)
    return report


def _history(traj: saddle_mod.Trajectory, model: str) -> dict:
    """The per-iteration fields of a ModelResult; the classical baseline
    ("qcqp") records no gradient norms, scales or shots."""
    history = dict(iterations=traj.iterations, total_shots=traj.total_shots,
                   stop_reason=traj.stop_reason, lagrangians=list(traj.lagrangians),
                   g_norms=None, seconds=list(traj.seconds))
    if model != "qcqp":
        history.update(g_norms=traj.g_norms,
                       scales=[(s.alpha, s.beta) for s in traj.states[1:]],
                       shots_per_iter=list(traj.shots))
    return history


def _run_single(config: ExperimentConfig, prepared: PreparedCase, model: str, method: str,
                instance_idx: int, reference_of, start: float) -> ModelResult:
    """One model and method on instance ``instance_idx`` as ``prepared`` holds
    it, scored against ``reference_of(instance_idx)``; its wall time runs from
    ``start``, the clock reading the caller also times a diverged run from."""
    case, problem = prepared.case, prepared.problem
    n_loads = len(case.load_nodes)
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
            ctx, case.n, n_loads, chain_seed(config.seed, 3, instance_idx))
        traj = saddle_mod.run(ctx, init, method, config.quantum_schedule, config.stop,
                              mode=mode, divergence_ceiling=config.divergence_ceiling)
        final = traj.final
        v, lam = prepared.from_solver(
            model_mod.primal_vector(ctx, PrimalPoint(final.theta, final.alpha)),
            model_mod.dual_vector(ctx, DualPoint(final.phi, final.beta)))

    lag_final = traj.lagrangians[-1] if traj.lagrangians else float("nan")
    wall_time = time.perf_counter() - start
    ref = reference_of(instance_idx)
    return ModelResult(
        metrics=None if ref is None else compute_metrics(case, problem, v, lam, lag_final, ref),
        wall_time=wall_time,
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


def table1_rows(summary: dict) -> list[list]:
    """Table 1 of a run summary: the header, then one row per model."""
    return [["model", *(header for header, _ in TABLE1_COLUMNS)],
            *([name, *(row[key] for _, key in TABLE1_COLUMNS)] for name, row in summary.items())]


def emit_report(report: RunReport, out_dir) -> list[Path]:
    """Write the Table-1-shaped CSV, the full JSON, per-run trajectory CSVs,
    the plot-ready dual/Lagrangian data and, when every instance has one,
    the reference solutions the run was scored against (``reference.json``,
    which a rerun reads through the config's ``reference`` key)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    table = out / "table1.csv"
    with table.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(table1_rows(report.summary()))
    written.append(table)

    duals: dict[str, list[float]] = {}
    lag_rows = []
    blocks = ("theta", "alpha", "phi", "beta", "total")   # gradient-norm columns
    for k, inst in enumerate(report.instances):
        for name, result in inst.items():
            duals.setdefault(name, []).extend(result.duals.tolist())
            if result.metrics is not None:
                lag_rows.append([k, name, result.metrics.lagrangian_error])
            traj = out / f"trajectory_{k}_{name}.csv"
            with traj.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["iteration", "lagrangian", *(f"g_{key}" for key in blocks),
                                 "alpha", "beta", "shots", "seconds"])
                for t, value in enumerate(result.lagrangians):
                    norms = result.g_norms[t] if result.g_norms else {}
                    alpha, beta = result.scales[t] if result.scales else ("", "")
                    writer.writerow([
                        t, value, *(norms.get(key, "") for key in blocks), alpha, beta,
                        result.shots_per_iter[t] if result.shots_per_iter else "",
                        result.seconds[t] if result.seconds else "",
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
    if report.reference and None not in report.reference.instances:
        ref_path = out / "reference.json"
        save_reference(report.reference, ref_path)
        written.append(ref_path)

    kept = ("iterations", "total_shots", "wall_time", "stop_reason", "lagrangian_final",
            "lagrangians", "error")   # the ModelResult fields report.json carries
    doc = {
        "stats": vars(report.stats) if report.stats else None,
        "summary": report.summary(),
        "reference_errors": report.reference.errors if report.reference else {},
        "instances": [{name: {"metrics": r.metrics.as_dict() if r.metrics else None,
                              **{key: getattr(r, key) for key in kept}}
                       for name, r in inst.items()} for inst in report.instances],
    }
    path = out / "report.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(doc), fh, indent=1, allow_nan=False)
    written.append(path)
    return written
