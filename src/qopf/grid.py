"""Power-system cases and their canonical QCQP form.

A case describes buses, branches and generators in per-unit.  From it we
build the node admittance matrix ``Y = G + jB`` (a complex Laplacian over
the grid graph), the Hermitian matrices whose quadratic forms give nodal
injections, squared voltage magnitudes and line currents, and finally the
cost-minimization QCQP

    minimize    v^dag M0 v
    subject to  v^dag M_m v <= b_m,   m = 1..M

in which every equality of the physical model is split into a pair of
opposing inequalities.  Voltage-magnitude rows use the squared bounds
(v_min^2, v_max^2); line rows bound the quadratic form |Y_nm| |v_n - v_m|^2
by the branch's ``i_max`` field, read literally as that form's limit.

Each row keeps its own matrix, dense up to dimension 256 and
coordinate-sparse above.  For computing, a problem stacks all its rows
into one ``MatrixStack`` of flat (segment, row, col, value) entries, which
gives every quadratic form v^dag M_m v at once and the weighted action
(sum_m w_m M_m) v without densifying anything.

The native case format is a UTF-8 text file with four whitespace-delimited
sections (see README):

    BUS      id kind p_demand q_demand v_min v_max
    BRANCH   from to g_series b_series i_max
    GEN      bus p_min p_max q_min q_max
    COST     bus cost

``import_matpower`` additionally accepts the MATPOWER table subset (bus,
branch, gen, gencost), converting impedances to series admittances and
dropping shunts and transformer taps with a warning.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import sparse

from .linalg import (
    DENSE_LIMIT,
    as_dense,
    coo_entries,
    embed,
    hermitian_residual,
    is_sparse,
    nonzero_entries,
)

log = logging.getLogger(__name__)

GENERATOR = "gen"
LOAD = "load"

LABEL_BALANCE_P = "power-balance-p"
LABEL_BALANCE_Q = "power-balance-q"
LABEL_GEN = "gen-limit"
LABEL_VOLTAGE = "voltage"
LABEL_REFERENCE = "reference"
LABEL_LINE = "line-current"
LABEL_PADDING = "padding"

HERMITIAN_TOL = 1e-12


class CaseError(ValueError):
    """Base class for case-file and model-validation failures."""


class ParseError(CaseError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class ValidationError(CaseError):
    pass


@dataclass(frozen=True)
class BusRecord:
    """One node: index (0-based internally), kind, demand and voltage box."""

    index: int
    kind: str
    p_demand: float
    q_demand: float
    v_min: float
    v_max: float


@dataclass(frozen=True)
class BranchRecord:
    """One transmission line with series admittance g + jb and current limit."""

    from_node: int
    to_node: int
    g_series: float
    b_series: float
    i_max: float

    @property
    def edge(self) -> tuple[int, int]:
        return (self.from_node, self.to_node)


@dataclass(frozen=True)
class GeneratorRecord:
    """Dispatchable unit: linear cost coefficient and dispatch box."""

    bus: int
    cost: float
    p_min: float
    p_max: float
    q_min: float
    q_max: float


@dataclass(frozen=True)
class NetworkCase:
    """A validated grid: connected graph, one reference bus, one unit per bus."""

    buses: tuple[BusRecord, ...]
    branches: tuple[BranchRecord, ...]
    generators: tuple[GeneratorRecord, ...]
    reference_bus: int = 0
    name: str = "case"

    @property
    def n(self) -> int:
        return len(self.buses)

    @property
    def generator_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(g.bus for g in self.generators))

    @property
    def load_nodes(self) -> tuple[int, ...]:
        gen = set(self.generator_nodes)
        return tuple(b.index for b in self.buses if b.index not in gen)

    def validate(self) -> "NetworkCase":
        n = self.n
        if n == 0:
            raise ValidationError("case has no buses")
        for b in self.buses:
            if b.kind not in (GENERATOR, LOAD):
                raise ValidationError(f"bus {b.index + 1}: unknown kind {b.kind!r}")
            if not (b.v_min > 0):
                raise ValidationError(f"bus {b.index + 1}: v_min must be positive")
            if b.v_min > b.v_max:
                raise ValidationError(f"bus {b.index + 1}: v_min > v_max")
            if not (math.isfinite(b.p_demand) and math.isfinite(b.q_demand)):
                raise ValidationError(f"bus {b.index + 1}: non-finite demand")
        seen: set[tuple[int, int]] = set()
        for br in self.branches:
            if br.from_node == br.to_node:
                raise ValidationError(
                    f"branch {br.from_node + 1}-{br.to_node + 1}: self-loop"
                )
            if not (0 <= br.from_node < n and 0 <= br.to_node < n):
                raise ValidationError(
                    f"branch {br.from_node + 1}-{br.to_node + 1}: node out of range"
                )
            key = (min(br.edge), max(br.edge))
            if key in seen:
                raise ValidationError(
                    f"duplicate branch {key[0] + 1}-{key[1] + 1}"
                )
            seen.add(key)
            if not (br.i_max > 0):
                raise ValidationError(
                    f"branch {br.from_node + 1}-{br.to_node + 1}: i_max must be positive"
                )
        gen_buses = [g.bus for g in self.generators]
        if len(set(gen_buses)) != len(gen_buses):
            raise ValidationError("more than one generator on a bus")
        kinds = {b.index: b.kind for b in self.buses}
        for g in self.generators:
            if kinds.get(g.bus) != GENERATOR:
                raise ValidationError(f"generator on non-generator bus {g.bus + 1}")
            if g.p_min > g.p_max or g.q_min > g.q_max:
                raise ValidationError(f"generator at bus {g.bus + 1}: empty dispatch box")
        declared = {b.index for b in self.buses if b.kind == GENERATOR}
        if declared != set(gen_buses):
            missing = sorted(declared - set(gen_buses))
            raise ValidationError(
                f"generator-kind buses without a unit: {[i + 1 for i in missing]}"
            )
        if not (0 <= self.reference_bus < n):
            raise ValidationError("reference bus out of range")
        unreached = _unreached_node(n, [br.edge for br in self.branches])
        if unreached is not None:
            raise ValidationError(f"grid graph is disconnected (bus {unreached + 1} unreached)")
        return self


def _unreached_node(n: int, edges: list[tuple[int, int]]) -> int | None:
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for peer in adjacency[node]:
            if peer not in seen:
                seen.add(peer)
                stack.append(peer)
    for node in range(n):
        if node not in seen:
            return node
    return None


# ---------------------------------------------------------------------------
# Parsing


def parse_case(text: str, name: str = "case") -> NetworkCase:
    """Parse the native case format into a validated NetworkCase.

    Raises ParseError (with the offending line number) for malformed input
    and ValidationError for semantically inconsistent cases.  Bus 1 is the
    reference node.
    """
    sections: dict[str, list[tuple[int, list[str]]]] = {
        "BUS": [], "BRANCH": [], "GEN": [], "COST": []
    }
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.upper() in sections:
            current = line.upper()
            continue
        if current is None:
            raise ParseError(f"data before any section header: {line!r}", lineno)
        sections[current].append((lineno, line.split()))

    if not sections["BUS"]:
        raise ParseError("missing BUS section")

    buses = []
    for lineno, cols in sections["BUS"]:
        if len(cols) != 6:
            raise ParseError("BUS row needs 6 columns (id kind pd qd vmin vmax)", lineno)
        idx = _parse_int(cols[0], lineno) - 1
        kind = cols[1].lower()
        if kind not in (GENERATOR, LOAD):
            raise ParseError(f"bus kind must be 'gen' or 'load', got {cols[1]!r}", lineno)
        pd, qd, vmin, vmax = (_parse_float(c, lineno) for c in cols[2:])
        buses.append(BusRecord(idx, kind, pd, qd, vmin, vmax))
    buses.sort(key=lambda b: b.index)
    if [b.index for b in buses] != list(range(len(buses))):
        raise ParseError("bus ids must be 1..N without gaps or repeats")

    branches = []
    for lineno, cols in sections["BRANCH"]:
        if len(cols) != 5:
            raise ParseError("BRANCH row needs 5 columns (from to g b imax)", lineno)
        a = _parse_int(cols[0], lineno) - 1
        b = _parse_int(cols[1], lineno) - 1
        g, susceptance, imax = (_parse_float(c, lineno) for c in cols[2:])
        branches.append(BranchRecord(a, b, g, susceptance, imax))

    costs: dict[int, float] = {}
    for lineno, cols in sections["COST"]:
        if len(cols) != 2:
            raise ParseError("COST row needs 2 columns (bus cost)", lineno)
        costs[_parse_int(cols[0], lineno) - 1] = _parse_float(cols[1], lineno)

    generators = []
    for lineno, cols in sections["GEN"]:
        if len(cols) != 5:
            raise ParseError("GEN row needs 5 columns (bus pmin pmax qmin qmax)", lineno)
        bus = _parse_int(cols[0], lineno) - 1
        pmin, pmax, qmin, qmax = (_parse_float(c, lineno) for c in cols[1:])
        if bus not in costs:
            raise ParseError(f"generator bus {bus + 1} has no COST row", lineno)
        generators.append(GeneratorRecord(bus, costs[bus], pmin, pmax, qmin, qmax))

    case = NetworkCase(
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(generators),
        reference_bus=0,
        name=name,
    )
    return case.validate()


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected integer, got {token!r}", lineno) from None


def _parse_float(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"expected number, got {token!r}", lineno) from None


def load_case(path) -> NetworkCase:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = re.sub(r"\.[^.]*$", "", str(path).rsplit("/", 1)[-1])
    return parse_case(text, name=name)


_MATPOWER_TABLE = re.compile(
    r"mpc\.(?P<name>\w+)\s*=\s*\[(?P<body>.*?)\];", re.DOTALL
)


def import_matpower(text: str, name: str = "case") -> NetworkCase:
    """Import the MATPOWER-style table subset (bus, branch, gen, gencost).

    Series impedances r + jx become g = r/(r^2+x^2), b = -x/(r^2+x^2);
    shunts, charging susceptance and transformer taps/shifts are dropped
    with a warning.  Demands and limits are rescaled by baseMVA.  Parallel
    branches are merged (admittances and current limits summed).  Cost rows
    must be linear polynomials; a nonzero quadratic term is rejected.
    Thermal ratings rateA (MVA) are converted to bounds on the quadratic
    current form via (rateA/baseMVA)^2 / |Y_nm|; a zero rating becomes a
    large finite bound.
    """
    tables: dict[str, list[list[float]]] = {}
    for match in _MATPOWER_TABLE.finditer(text):
        rows = []
        for raw in match.group("body").splitlines():
            line = raw.split("%", 1)[0].strip().rstrip(";")
            if line:
                rows.append([float(tok) for tok in line.split()])
        tables[match.group("name")] = rows
    base_match = re.search(r"mpc\.baseMVA\s*=\s*([0-9eE+.\-]+)", text)
    base = float(base_match.group(1)) if base_match else 100.0
    for required in ("bus", "branch", "gen", "gencost"):
        if required not in tables:
            raise ParseError(f"MATPOWER input lacks an mpc.{required} table")

    ids = [int(row[0]) for row in tables["bus"]]
    index_of = {bus_id: i for i, bus_id in enumerate(ids)}
    slack = [i for i, row in enumerate(tables["bus"]) if int(row[1]) == 3]
    if len(slack) != 1:
        raise ValidationError(f"expected exactly one slack bus, found {len(slack)}")

    active_gens = [row for row in tables["gen"] if len(row) < 8 or row[7] > 0]
    if len(active_gens) != len(tables["gen"]):
        log.warning("dropping %d out-of-service generators",
                    len(tables["gen"]) - len(active_gens))
    gen_buses = {index_of[int(row[0])] for row in active_gens}

    buses = []
    shunts_dropped = 0
    for row in tables["bus"]:
        idx = index_of[int(row[0])]
        if row[4] != 0 or row[5] != 0:
            shunts_dropped += 1
        kind = GENERATOR if idx in gen_buses else LOAD
        buses.append(BusRecord(idx, kind, row[2] / base, row[3] / base,
                               float(row[12]), float(row[11])))
    if shunts_dropped:
        log.warning("dropped shunt elements at %d buses (not modeled)", shunts_dropped)

    merged: dict[tuple[int, int], list[float]] = {}
    taps_dropped = 0
    parallel = 0
    for row in tables["branch"]:
        if len(row) > 10 and row[10] == 0:
            continue
        a, b = index_of[int(row[0])], index_of[int(row[1])]
        r, x = row[2], row[3]
        if row[4] != 0:
            taps_dropped += 1
        if len(row) > 8 and (row[8] not in (0.0, 1.0) or (len(row) > 9 and row[9] != 0)):
            taps_dropped += 1
        denom = r * r + x * x
        if denom == 0:
            raise ValidationError(f"branch {int(row[0])}-{int(row[1])}: zero impedance")
        g, susceptance = r / denom, -x / denom
        rate = row[5] / base if len(row) > 5 and row[5] > 0 else 0.0
        y_abs = abs(complex(g, susceptance))
        imax = rate * rate / y_abs if rate > 0 else 1e4
        key = (min(a, b), max(a, b))
        if key in merged:
            parallel += 1
            merged[key][0] += g
            merged[key][1] += susceptance
            merged[key][2] += imax
        else:
            merged[key] = [g, susceptance, imax]
    if taps_dropped:
        log.warning("dropped charging/tap/shift data on %d branches (series-only model)",
                    taps_dropped)
    if parallel:
        log.warning("merged %d parallel branches (admittances and limits summed)", parallel)

    branches = [
        BranchRecord(a, b, vals[0], vals[1], vals[2])
        for (a, b), vals in merged.items()
    ]

    cost_of: dict[int, float] = {}
    for gen_row, cost_row in zip(tables["gen"], tables["gencost"]):
        if len(gen_row) >= 8 and gen_row[7] <= 0:
            continue
        model, ncoef = int(cost_row[0]), int(cost_row[3])
        coeffs = cost_row[4:4 + ncoef]
        if model != 2:
            raise ValidationError("only polynomial (model 2) generator costs are supported")
        if ncoef >= 3 and any(c != 0 for c in coeffs[:-2]):
            raise ValidationError(
                "quadratic generator cost is not supported; supply a linear cost"
            )
        linear = coeffs[-2] if ncoef >= 2 else 0.0
        bus = index_of[int(gen_row[0])]
        # $/MWh -> $/p.u.; constant offsets do not move the minimizer
        cost_of[bus] = cost_of.get(bus, 0.0) + linear * base

    gens_by_bus: dict[int, list[list[float]]] = {}
    for row in active_gens:
        gens_by_bus.setdefault(index_of[int(row[0])], []).append(row)
    generators = []
    for bus, rows in gens_by_bus.items():
        if len(rows) > 1:
            log.warning("aggregating %d units at bus %d into one", len(rows), bus + 1)
        generators.append(GeneratorRecord(
            bus=bus,
            cost=cost_of.get(bus, 0.0),
            p_min=sum(r[9] for r in rows) / base,
            p_max=sum(r[8] for r in rows) / base,
            q_min=sum(r[4] for r in rows) / base,
            q_max=sum(r[3] for r in rows) / base,
        ))

    case = NetworkCase(
        buses=tuple(sorted(buses, key=lambda b: b.index)),
        branches=tuple(branches),
        generators=tuple(sorted(generators, key=lambda g: g.bus)),
        reference_bus=slack[0],
        name=name,
    )
    return case.validate()


# ---------------------------------------------------------------------------
# Matrices


def build_admittance(case: NetworkCase):
    """Assemble Y = G + jB Laplacian-style from branch series admittances.

    Dense for n <= 256, coordinate-sparse above.
    """
    n = case.n
    rows, cols, vals = [], [], []
    diag = np.zeros(n, dtype=complex)
    for br in case.branches:
        y = complex(br.g_series, br.b_series)
        rows += [br.from_node, br.to_node]
        cols += [br.to_node, br.from_node]
        vals += [-y, -y]
        diag[br.from_node] += y
        diag[br.to_node] += y
    rows += list(range(n))
    cols += list(range(n))
    vals += list(diag)
    if n > DENSE_LIMIT:
        return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    y = np.zeros((n, n), dtype=complex)
    for i, j, v in zip(rows, cols, vals):
        y[i, j] += v
    return y


def _admittance_row(case: NetworkCase, y, node: int) -> dict[int, complex]:
    if is_sparse(y):
        row = y.getrow(node).tocoo()
        return {int(j): complex(v) for j, v in zip(row.col, row.data)}
    return {j: complex(y[node, j]) for j in np.nonzero(y[node])[0]}


def _materialize(n: int, triples: dict[tuple[int, int], complex]):
    if n > DENSE_LIMIT:
        rows = [i for i, _ in triples]
        cols = [j for _, j in triples]
        return sparse.coo_matrix((list(triples.values()), (rows, cols)), shape=(n, n))
    out = np.zeros((n, n), dtype=complex)
    for (i, j), v in triples.items():
        out[i, j] = v
    return out


def injection_matrices(case: NetworkCase, node: int, y=None):
    """Hermitian (M_p, M_q) such that v^dag M_p v and v^dag M_q v are the
    active and reactive power injected at ``node``.

    M_p = (Y^dag e e^T + e e^T Y) / 2 and M_q = (Y^dag e e^T - e e^T Y) / (2j),
    built from row ``node`` of Y.
    """
    n = case.n
    if not (0 <= node < n):
        raise ValidationError(f"node {node} out of range")
    if y is None:
        y = build_admittance(case)
    row = _admittance_row(case, y, node)
    mp: dict[tuple[int, int], complex] = {}
    mq: dict[tuple[int, int], complex] = {}
    for j, yv in row.items():
        if j == node:
            mp[(node, node)] = complex(yv.real, 0.0)
            mq[(node, node)] = complex(-yv.imag, 0.0)
            continue
        # column node gets conj(Y[node, j]) / 2, row node gets Y[node, j] / 2
        mp[(j, node)] = np.conj(yv) / 2
        mp[(node, j)] = yv / 2
        mq[(j, node)] = np.conj(yv) / 2j
        mq[(node, j)] = -yv / 2j
    return _materialize(n, mp), _materialize(n, mq)


def auxiliary_matrices(case: NetworkCase, y=None):
    """Voltage indicators M_v per node, current forms M_i per branch, and
    the reference indicator M_ref."""
    n = case.n
    if y is None:
        y = build_admittance(case)
    voltage = {}
    for node in range(n):
        voltage[node] = _materialize(n, {(node, node): 1.0 + 0j})
    current = {}
    for br in case.branches:
        a, b = br.from_node, br.to_node
        weight = abs(complex(br.g_series, br.b_series))
        current[(a, b)] = _materialize(n, {
            (a, a): weight, (b, b): weight, (a, b): -weight, (b, a): -weight,
        })
    ref = case.reference_bus
    reference = _materialize(n, {(ref, ref): 1.0 + 0j})
    return {"voltage": voltage, "current": current, "reference": reference}


class MatrixStack:
    """Square matrices M_0..M_{count-1} of one size as flat COO entries
    (segment, row, col, value): segment-major, row-major within a segment,
    zeros dropped.

    The forms and the weighted action go through a sparse segment-by-position
    map over the distinct (row, col) positions, so a batch of vectors costs
    one product per position rather than one per entry.
    """

    def __init__(self, matrices, dim: int):
        entries = [nonzero_entries(m) for m in matrices]
        self.count = len(entries)
        self.dim = dim
        self.segments = np.repeat(np.arange(self.count),
                                  [len(rows) for rows, _, _ in entries])
        empty = (np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, complex))
        self.rows, self.cols, self.values = (
            np.concatenate(column) for column in zip(empty, *entries))
        positions, slot = np.unique(self.rows * dim + self.cols, return_inverse=True)
        self._position_rows, self._position_cols = np.divmod(positions, dim)
        self._by_segment = sparse.csr_matrix(
            (self.values, (self.segments, slot)), shape=(self.count, len(positions)))
        self._by_position = self._by_segment.T.tocsr()

    def forms(self, v: np.ndarray) -> np.ndarray:
        """Re v^dag M_m v for every m: shape (count,) for one vector, and
        (batch, count) for a (batch, dim) array of vectors."""
        products = v.conj()[..., self._position_rows] * v[..., self._position_cols]
        return np.real(self._by_segment @ products.T).T

    def action(self, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(sum_m weights_m M_m) v for one vector v."""
        contrib = (self._by_position @ weights) * v[self._position_cols]
        return (np.bincount(self._position_rows, contrib.real, self.dim)
                + 1j * np.bincount(self._position_rows, contrib.imag, self.dim))


@dataclass(frozen=True)
class Constraint:
    """One inequality row v^dag matrix v <= bound of the canonical QCQP."""

    matrix: object
    bound: float
    label: str
    subject: object = None


@dataclass(frozen=True)
class QcqpProblem:
    """Cost matrix plus ordered inequality rows.

    ``n`` and ``m`` are the original primal dimension and constraint count;
    after pad_to_qubits the stored matrices grow to powers of two while
    these fields keep the original sizes.
    """

    n: int
    m: int
    m0: object
    constraints: tuple[Constraint, ...]
    name: str = "problem"

    def __post_init__(self):
        residual = hermitian_residual(self.m0)
        if residual > HERMITIAN_TOL:
            raise ValidationError(f"cost matrix not Hermitian (residual {residual:.2e})")
        for k, c in enumerate(self.constraints):
            residual = hermitian_residual(c.matrix)
            if residual > HERMITIAN_TOL:
                raise ValidationError(
                    f"constraint {k} ({c.label}) not Hermitian (residual {residual:.2e})"
                )
            if not math.isfinite(c.bound):
                raise ValidationError(f"constraint {k} ({c.label}) has non-finite bound")

    @property
    def dim(self) -> int:
        return self.m0.shape[0]

    @property
    def m_stored(self) -> int:
        return len(self.constraints)

    @property
    def bounds(self) -> np.ndarray:
        return np.array([c.bound for c in self.constraints])

    @cached_property
    def stack(self) -> MatrixStack:
        """The constraint rows as one MatrixStack, built on first use."""
        return MatrixStack([c.matrix for c in self.constraints], self.dim)

    def dense_m0(self) -> np.ndarray:
        return as_dense(self.m0)

    def dense_constraints(self) -> np.ndarray:
        """All constraint matrices as an (M, dim, dim) array (test reference)."""
        out = np.zeros((self.m_stored, self.dim, self.dim), dtype=complex)
        for k, c in enumerate(self.constraints):
            out[k] = as_dense(c.matrix)
        return out


def assemble_qcqp(case: NetworkCase) -> QcqpProblem:
    """Build the canonical inequality-form QCQP of a case.

    Row order (documented contract, also the dual-variable order):
      1. load power balance, per load node ascending: p <=, p >=, q <=, q >=
      2. generator limits, per generator node ascending: p <=, p >=, q <=, q >=
      3. voltage magnitude, per node ascending: upper, lower (squared bounds)
      4. reference-bus magnitude equality, split into <= and >=
      5. line current, in branch file order

    The objective is M0 = sum_n c_n M_{p_n} over generator nodes, i.e. the
    dispatch cost with the constant load-offset term dropped.
    """
    y = build_admittance(case)
    n = case.n
    demand = {b.index: (b.p_demand, b.q_demand) for b in case.buses}
    gens = {g.bus: g for g in case.generators}
    injections = {node: injection_matrices(case, node, y) for node in range(n)}
    aux = auxiliary_matrices(case, y)

    def negate(matrix):
        return -matrix

    m0 = None
    for node in case.generator_nodes:
        term = gens[node].cost * injections[node][0]
        m0 = term if m0 is None else m0 + term
    if m0 is None:
        raise ValidationError("case has no generators")

    rows: list[Constraint] = []
    for node in case.load_nodes:
        pd, qd = demand[node]
        mp, mq = injections[node]
        rows.append(Constraint(mp, -pd, LABEL_BALANCE_P, node))
        rows.append(Constraint(negate(mp), pd, LABEL_BALANCE_P, node))
        rows.append(Constraint(mq, -qd, LABEL_BALANCE_Q, node))
        rows.append(Constraint(negate(mq), qd, LABEL_BALANCE_Q, node))
    for node in case.generator_nodes:
        pd, qd = demand[node]
        g = gens[node]
        mp, mq = injections[node]
        rows.append(Constraint(mp, g.p_max - pd, LABEL_GEN, node))
        rows.append(Constraint(negate(mp), pd - g.p_min, LABEL_GEN, node))
        rows.append(Constraint(mq, g.q_max - qd, LABEL_GEN, node))
        rows.append(Constraint(negate(mq), qd - g.q_min, LABEL_GEN, node))
    for bus in case.buses:
        mv = aux["voltage"][bus.index]
        rows.append(Constraint(mv, bus.v_max**2, LABEL_VOLTAGE, bus.index))
        rows.append(Constraint(negate(mv), -bus.v_min**2, LABEL_VOLTAGE, bus.index))
    mref = aux["reference"]
    rows.append(Constraint(mref, 1.0, LABEL_REFERENCE, case.reference_bus))
    rows.append(Constraint(negate(mref), -1.0, LABEL_REFERENCE, case.reference_bus))
    for br in case.branches:
        rows.append(Constraint(aux["current"][br.edge], br.i_max, LABEL_LINE, br.edge))

    return QcqpProblem(n=n, m=len(rows), m0=m0, constraints=tuple(rows), name=case.name)


def next_power_of_two(value: int) -> int:
    return 1 if value <= 1 else 2 ** math.ceil(math.log2(value))


def pad_to_qubits(problem: QcqpProblem) -> QcqpProblem:
    """Zero-pad the primal dimension and the constraint count to powers of two.

    Padding rows carry a zero matrix and zero bound, so padded dual entries
    never contribute to the Lagrangian.  Identity when both sizes already
    are powers of two.
    """
    dim = next_power_of_two(problem.dim)
    m_target = next_power_of_two(problem.m_stored)
    if dim == problem.dim and m_target == problem.m_stored:
        return problem
    m0 = embed(problem.m0, dim) if dim != problem.dim else problem.m0
    rows = []
    for c in problem.constraints:
        matrix = embed(c.matrix, dim) if dim != problem.dim else c.matrix
        rows.append(Constraint(matrix, c.bound, c.label, c.subject))
    if m_target != problem.m_stored:
        zero = (sparse.coo_matrix((dim, dim))
                if dim > DENSE_LIMIT else np.zeros((dim, dim), dtype=complex))
        for _ in range(m_target - problem.m_stored):
            rows.append(Constraint(zero, 0.0, LABEL_PADDING, None))
    return replace(problem, m0=m0, constraints=tuple(rows))


# ---------------------------------------------------------------------------
# Serialization


def _matrix_to_json(matrix) -> list[list[float]]:
    return [[i, j, v.real, v.imag] for i, j, v in coo_entries(matrix)]


def _matrix_from_json(entries, dim: int):
    triples = {(int(i), int(j)): complex(re_, im) for i, j, re_, im in entries}
    return _materialize(dim, triples)


def problem_to_json(problem: QcqpProblem) -> dict:
    return {
        "name": problem.name,
        "n": problem.n,
        "m": problem.m,
        "dim": problem.dim,
        "m0": _matrix_to_json(problem.m0),
        "constraints": [
            {
                "label": c.label,
                "subject": list(c.subject) if isinstance(c.subject, tuple) else c.subject,
                "bound": c.bound,
                "matrix": _matrix_to_json(c.matrix),
            }
            for c in problem.constraints
        ],
    }


def problem_from_json(doc: dict) -> QcqpProblem:
    dim = int(doc["dim"])
    rows = []
    for entry in doc["constraints"]:
        subject = entry["subject"]
        if isinstance(subject, list):
            subject = tuple(subject)
        rows.append(Constraint(
            _matrix_from_json(entry["matrix"], dim),
            float(entry["bound"]),
            entry["label"],
            subject,
        ))
    return QcqpProblem(
        n=int(doc["n"]),
        m=int(doc["m"]),
        m0=_matrix_from_json(doc["m0"], dim),
        constraints=tuple(rows),
        name=doc.get("name", "problem"),
    )


def save_problem(problem: QcqpProblem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_json(problem), fh)


def load_problem(path) -> QcqpProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_json(json.load(fh))
