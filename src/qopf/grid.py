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

A problem stores its cost and its rows alike as ``MatrixStack``s of flat
(segment, row, col, value) entries: the cost as a one-matrix stack, the
rows as one stack that gives every quadratic form v^dag M_m v at once and
the weighted action (sum_m w_m M_m) v without densifying anything.
Padding and node permutations are index remaps of those entries, and a
stacked matrix is read as scipy CSR on request (``MatrixStack.matrix``).

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

import logging
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import sparse

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
        if n < 2:
            raise ValidationError(f"the primal circuit needs at least 2 buses, the case has {n}")
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
    cost_lines: dict[int, int] = {}
    for lineno, cols in sections["COST"]:
        if len(cols) != 2:
            raise ParseError("COST row needs 2 columns (bus cost)", lineno)
        bus = _parse_int(cols[0], lineno) - 1
        if bus in costs:
            raise ParseError(f"second COST row for bus {bus + 1} "
                             f"(first on line {cost_lines[bus]})", lineno)
        costs[bus], cost_lines[bus] = _parse_float(cols[1], lineno), lineno

    generators = []
    for lineno, cols in sections["GEN"]:
        if len(cols) != 5:
            raise ParseError("GEN row needs 5 columns (bus pmin pmax qmin qmax)", lineno)
        bus = _parse_int(cols[0], lineno) - 1
        pmin, pmax, qmin, qmax = (_parse_float(c, lineno) for c in cols[1:])
        if bus not in costs:
            raise ParseError(f"generator bus {bus + 1} has no COST row", lineno)
        generators.append(GeneratorRecord(bus, costs[bus], pmin, pmax, qmin, qmax))
    unused = set(costs) - {g.bus for g in generators}
    if unused:
        bus = min(unused, key=cost_lines.get)
        raise ParseError(f"COST row for bus {bus + 1}, which has no GEN row", cost_lines[bus])

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


def build_admittance(case: NetworkCase) -> sparse.csr_matrix:
    """Assemble Y = G + jB Laplacian-style from branch series admittances."""
    n = case.n
    rows, cols, vals = [], [], []
    diag = np.zeros(n, dtype=complex)
    for br in case.branches:
        y = complex(br.g_series, br.b_series)
        rows += [br.from_node, br.to_node]
        cols += [br.to_node, br.from_node]
        # 0 - y, not -y: a lossless branch (g = 0) stores conductance +0.0,
        # not -0.0
        vals += [0 - y, 0 - y]
        diag[br.from_node] += y
        diag[br.to_node] += y
    rows += list(range(n))
    cols += list(range(n))
    vals += list(diag)
    # duplicates summed, zeros dropped, column indices sorted
    y = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=complex).tocsr()
    y.eliminate_zeros()
    return y


def _injection_triples(y: sparse.csr_matrix, node: int):
    """Entries of (M_p, M_q) at ``node``, from row ``node`` of Y."""
    start, end = y.indptr[node], y.indptr[node + 1]
    mp: dict[tuple[int, int], complex] = {}
    mq: dict[tuple[int, int], complex] = {}
    for j, yv in zip(y.indices[start:end].tolist(), y.data[start:end].tolist()):
        if j == node:
            mp[(node, node)] = complex(yv.real, 0.0)
            mq[(node, node)] = complex(-yv.imag, 0.0)
            continue
        # column node gets conj(Y[node, j]) / 2, row node gets Y[node, j] / 2
        mp[(j, node)] = np.conj(yv) / 2
        mp[(node, j)] = yv / 2
        mq[(j, node)] = np.conj(yv) / 2j
        mq[(node, j)] = -yv / 2j
    return mp, mq


def _current_triples(br: BranchRecord) -> dict[tuple[int, int], complex]:
    a, b = br.from_node, br.to_node
    weight = abs(complex(br.g_series, br.b_series))
    return {(a, a): weight, (b, b): weight, (a, b): -weight, (b, a): -weight}


class MatrixStack:
    """Square matrices M_0..M_{count-1} of one size as flat COO entries
    (segment, row, col, value): segment-major, row-major within a segment,
    one entry per nonzero.

    Built from entries in any order, which one vectorised pass sorts,
    summing duplicates in input order and dropping zeros; indices outside
    [0, count) or [0, dim) are rejected.  The forms and the weighted action
    go through a sparse segment-by-position map over the distinct (row,
    col) positions, so a batch of vectors costs one product per position
    rather than one per entry.
    """

    def __init__(self, segments, rows, cols, values, count: int, dim: int):
        self.count, self.dim = int(count), int(dim)
        segments, rows, cols = (np.asarray(a, dtype=np.intp) for a in (segments, rows, cols))
        values = np.asarray(values, dtype=complex)
        if not (segments.ndim == 1 and segments.shape == rows.shape == cols.shape
                == values.shape):
            raise ValidationError("stack entries need equal-length 1-d arrays")
        for name, index, limit in (("segment", segments, self.count),
                                   ("row", rows, self.dim), ("column", cols, self.dim)):
            if index.size and (index.min() < 0 or index.max() >= limit):
                raise ValidationError(f"{name} index outside [0, {limit})")
        keys = (segments * self.dim + rows) * self.dim + cols
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        keys, values = keys[first], np.add.reduceat(values, first)
        nonzero = values != 0
        self._keys, self.values = keys[nonzero], values[nonzero]
        self.segments, cells = np.divmod(self._keys, self.dim * self.dim)
        self.rows, self.cols = np.divmod(cells, self.dim)
        # entries of segment k are offsets[k]:offsets[k + 1]
        self.offsets = np.searchsorted(self.segments, np.arange(self.count + 1))
        positions, slot = np.unique(cells, return_inverse=True)
        self._position_rows, self._position_cols = np.divmod(positions, self.dim)
        self._by_segment = sparse.csr_matrix(
            (self.values, (self.segments, slot)), shape=(self.count, len(positions)))
        self._by_position = self._by_segment.T.tocsr()

    def matrix(self, k: int) -> sparse.csr_matrix:
        """M_k as a CSR matrix."""
        at = slice(self.offsets[k], self.offsets[k + 1])
        return sparse.csr_matrix((self.values[at], (self.rows[at], self.cols[at])),
                                 shape=(self.dim, self.dim))

    def hermitian_residuals(self) -> np.ndarray:
        """max |M_m[i, j] - conj(M_m[j, i])| for every m, pairing each entry
        with the entry at its transposed key (zero where there is none)."""
        transposed = (self.segments * self.dim + self.cols) * self.dim + self.rows
        at = np.searchsorted(self._keys, transposed)
        # a sentinel past the end, so a key above every stored one finds no partner
        keys, values = np.append(self._keys, -1), np.append(self.values, 0)
        partner = np.where(keys[at] == transposed, values[at], 0)
        out = np.zeros(self.count)
        np.maximum.at(out, self.segments, np.abs(self.values - partner.conj()))
        return out

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
    """Cost matrix plus ordered inequality rows v^dag M_m v <= bounds[m].

    The cost M0 is the one matrix of ``cost`` and the rows are the
    matrices of ``stack``, both of the same dimension; ``bounds``,
    ``labels`` and ``subjects`` hold one entry per stored row.  ``n`` and
    ``m`` are the original primal dimension and constraint count; after
    pad_to_qubits the stored sizes grow to powers of two while these
    fields keep the original ones.
    """

    n: int
    m: int
    cost: MatrixStack
    stack: MatrixStack
    bounds: np.ndarray
    labels: tuple[str, ...]
    subjects: tuple
    name: str = "problem"

    def __post_init__(self):
        count, dim = self.stack.count, self.stack.dim
        sizes = (len(self.bounds), len(self.labels), len(self.subjects))
        if (self.cost.count, self.cost.dim) != (1, dim) or sizes != (count,) * 3 \
                or self.n > dim or self.m > count:
            raise ValidationError(
                f"inconsistent sizes: n={self.n}, m={self.m}, {self.cost.count} cost "
                f"matrices of dimension {self.cost.dim}, "
                f"{count} stacked rows of dimension {dim}, "
                f"{sizes} bounds/labels/subjects")
        residual = self.cost.hermitian_residuals()[0]
        if residual > HERMITIAN_TOL:
            raise ValidationError(f"cost matrix not Hermitian (residual {residual:.2e})")
        residuals = self.stack.hermitian_residuals()
        bad = np.flatnonzero(residuals > HERMITIAN_TOL)
        if bad.size:
            k = bad[0]
            raise ValidationError(f"constraint {k} ({self.labels[k]}) not Hermitian "
                                  f"(residual {residuals[k]:.2e})")
        bad = np.flatnonzero(~np.isfinite(self.bounds))
        if bad.size:
            k = bad[0]
            raise ValidationError(f"constraint {k} ({self.labels[k]}) has non-finite bound")

    @property
    def dim(self) -> int:
        return self.stack.dim

    @property
    def m_stored(self) -> int:
        return self.stack.count

    @cached_property
    def m0(self) -> sparse.csr_matrix:
        """The cost matrix as CSR, built on first use, for the M0 v products."""
        return self.cost.matrix(0)

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """The rows as Constraint records with CSR matrices, built on first
        use (a reader for tests and checks, not for production paths)."""
        return tuple(Constraint(self.stack.matrix(k), bound, label, subject)
                     for k, (bound, label, subject) in enumerate(
                         zip(self.bounds.tolist(), self.labels, self.subjects)))

    def dense_constraints(self) -> np.ndarray:
        """All constraint matrices as an (M, dim, dim) array (test reference)."""
        s = self.stack
        out = np.zeros((s.count, s.dim, s.dim), dtype=complex)
        out[s.segments, s.rows, s.cols] = s.values
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
    injections = {node: _injection_triples(y, node) for node in range(n)}

    if not case.generators:
        raise ValidationError("case has no generators")
    cost_rows, cost_cols, cost_values = [], [], []
    for node in case.generator_nodes:
        for (i, j), v in injections[node][0].items():
            cost_rows.append(i)
            cost_cols.append(j)
            cost_values.append(gens[node].cost * v)

    segments, rows, cols, values = [], [], [], []
    bounds, labels, subjects = [], [], []

    def add(triples, bound, label, subject, negate=False):
        for (i, j), v in triples.items():
            segments.append(len(bounds))
            rows.append(i)
            cols.append(j)
            values.append(-v if negate else v)
        bounds.append(bound)
        labels.append(label)
        subjects.append(subject)

    for node in case.load_nodes:
        pd, qd = demand[node]
        mp, mq = injections[node]
        add(mp, -pd, LABEL_BALANCE_P, node)
        add(mp, pd, LABEL_BALANCE_P, node, negate=True)
        add(mq, -qd, LABEL_BALANCE_Q, node)
        add(mq, qd, LABEL_BALANCE_Q, node, negate=True)
    for node in case.generator_nodes:
        pd, qd = demand[node]
        g = gens[node]
        mp, mq = injections[node]
        add(mp, g.p_max - pd, LABEL_GEN, node)
        add(mp, pd - g.p_min, LABEL_GEN, node, negate=True)
        add(mq, g.q_max - qd, LABEL_GEN, node)
        add(mq, qd - g.q_min, LABEL_GEN, node, negate=True)
    for bus in case.buses:
        mv = {(bus.index, bus.index): 1.0 + 0j}
        add(mv, bus.v_max**2, LABEL_VOLTAGE, bus.index)
        add(mv, -bus.v_min**2, LABEL_VOLTAGE, bus.index, negate=True)
    ref = case.reference_bus
    add({(ref, ref): 1.0 + 0j}, 1.0, LABEL_REFERENCE, ref)
    add({(ref, ref): 1.0 + 0j}, -1.0, LABEL_REFERENCE, ref, negate=True)
    for br in case.branches:
        add(_current_triples(br), br.i_max, LABEL_LINE, br.edge)

    return QcqpProblem(n=n, m=len(bounds),
                       cost=MatrixStack(np.zeros(len(cost_rows)), cost_rows, cost_cols,
                                        cost_values, 1, n),
                       stack=MatrixStack(segments, rows, cols, values, len(bounds), n),
                       bounds=np.array(bounds), labels=tuple(labels),
                       subjects=tuple(subjects), name=case.name)


def next_power_of_two(value: int) -> int:
    return 1 if value <= 1 else 2 ** math.ceil(math.log2(value))


def pad_to_qubits(problem: QcqpProblem) -> QcqpProblem:
    """Zero-pad the primal dimension and the constraint count to powers of two.

    The cost and the rows keep their entries in a larger dimension, and
    padding rows are empty segments with zero bound, so padded dual entries
    never contribute to the Lagrangian.  Identity when both sizes already
    are powers of two.
    """
    dim = next_power_of_two(problem.dim)
    count = next_power_of_two(problem.m_stored)
    if dim == problem.dim and count == problem.m_stored:
        return problem
    extra = count - problem.m_stored
    c, s = problem.cost, problem.stack
    return replace(
        problem,
        cost=MatrixStack(c.segments, c.rows, c.cols, c.values, 1, dim),
        stack=MatrixStack(s.segments, s.rows, s.cols, s.values, count, dim),
        bounds=np.concatenate([problem.bounds, np.zeros(extra)]),
        labels=problem.labels + (LABEL_PADDING,) * extra,
        subjects=problem.subjects + (None,) * extra,
    )
