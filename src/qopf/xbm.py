"""Extended Bell measurements: XOR-color decomposition of Hermitian
observables into simultaneously measurable pieces.

Entries (i, j) of an observable sharing i ^ j = c form color c.  The color-c
submatrix splits into a real-symmetric part and a purely imaginary Hermitian
part, and each is diagonalized by the same O(log N)-gate circuit: CX gates
fanning out from qubit k_c (the most significant set bit of c) to every other
set bit of c, followed by a Hadamard on k_c.  The imaginary part additionally
takes an S^dag prefix on k_c, realized here as Rz(-pi/2) (equal up to an
irrelevant global phase).  The whole CX fan-out is one precomputed basis
gather.  A piece is described by its (color, part) alone: ``gate_count``
counts its rotation's gates, and ``piece_rotations`` builds the rotations
of a sequence of pieces as one double gather: each rotated amplitude is
c0 * y[lo] + c1 * y[hi], H's two products over the fan-out gather of the
state or of its copy turned by S^dag on k.

With that rotation R applied to the state, the piece expectation becomes a
computational-basis average of a fixed real diagonal: for every index i whose
k_c bit is clear, pairing it with j = i ^ c,

    real part:      lambda[i] = +Re M[i, j],  lambda[i ^ 2^k_c] = -Re M[i, j]
    imaginary part: lambda[i] = -Im M[i, j],  lambda[i ^ 2^k_c] = +Im M[i, j]

``piece_table`` computes the diagonals from coordinate entries grouped by
i ^ j, in one pass over a whole ``grid.MatrixStack`` (a problem's rows, or
its one-matrix cost), and ``decompose`` is the same for one Hermitian
matrix, dense or scipy-sparse: a ``PieceTable`` holds the pieces' (color,
part), the sorted sparse entries of all their diagonals as one
``PieceEntries`` with a per-segment index of them, and their norms.
``estimate_expectation`` is the one sampled estimator, an extended Bell
measurement: each of S shots of a piece pairs an outcome m of a PMF over
a table's matrices with an outcome i of the piece-rotated state and
scores the piece diagonal of matrix m at i.  It draws only the shots
that score: a shot scores only on one of the piece's table entries, so
only the (piece k, column i) cells that hold an entry are ever read, and
``cell_probabilities`` rotates a stack of states at those cells alone,
two products per cell with S^dag folded into the coefficients.  The
estimates of one call go in groups that share one side of their
(primal row, dual row) pairs, and a ``CellLayout`` groups the table's
entries into cells on which that side's factor is fixed: (piece,
column) cells when the dual row is shared, (piece, matrix) segments when
the primal row is.  Per estimate and piece ``_draw_cells`` draws how many
of the S shots land on an entry, one binomial count of the piece's mass,
then the cell of each of those by inversion over the running sums of
the cells' masses, and the entry inside the cell by inversion over the
shared factor's running sums: ``live_inverse``, one branchless binary
search over all the draws of a group, never leaves a draw's run and
never returns a zero-probability cell or entry.  The rest of the S shots
score 0 and are never drawn (Devroye 1986: composition and inversion,
section III.2, and the conditional method for the multinomial).  A run
with very many scoring shots draws its cells and their entries by
multinomials instead.  All the estimates of one call draw from one
generator, group after group, so they are independent.
The construction is validated functionally by the test suite: R M_c R^dag
must be diagonal and equal diag(lambda) for every color and part.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .grid import MatrixStack, ValidationError
from .sim import rng, rotation_matrix

REAL = "real"
IMAG = "imag"

_HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
_S_DAG = rotation_matrix("rz", -math.pi / 2)  # S^dag up to a global phase
# scoring draws per chunk of ``_draw_cells``: bounds the temporaries of its
# searches, so a gradient's estimates do not raise its peak
_DRAW_BLOCK = 2**15
# a run with at least this many scoring draws, and at least as many as its
# piece has cells, draws its counts by multinomials instead of one search per
# draw; S = 100 runs never do
_MULTINOMIAL_DRAWS = 2**7
# the largest Hermitian residual ``decompose`` accepts
_HERMITIAN_TOL = 1e-10


def gate_count(color: int, part: str) -> int:
    """Gates of a piece's measurement rotation: popcount(color) - 1 CX
    gates, one H and, for the imaginary part, S^dag; 0 for color 0, which
    is diagonal already.  At most log2(N) for real parts and log2(N) + 1
    for imaginary parts."""
    return color.bit_count() + (part == IMAG) if color else 0


class PieceRotations(NamedTuple):
    """The rotations of a sequence of pieces as one double gather.  The
    source y of a state is the state followed by its S^dag-turned copies,
    one per qubit in ``turns``, so row p of a rotated state is c0[p] *
    y[lo[p]] + c1[p] * y[hi[p]]: the H on k over the fan-out gather, or,
    for color 0, the state itself (coefficients 1 and 0).
    ``PieceTable.cell_rotation`` holds the same at a table's column cells,
    one entry per cell, with S^dag folded into the coefficients and no
    turns."""

    turns: tuple[int, ...]
    lo: np.ndarray
    hi: np.ndarray
    c0: np.ndarray
    c1: np.ndarray


def piece_rotations(pieces: Sequence[tuple[int, str]], n_qubits: int) -> PieceRotations:
    """The measurement rotations of (color, part) pieces on ``n_qubits``.

    Color 0 needs no rotation.  Color c >= 1 takes S^dag on k = k_c
    (imaginary part only), the CX fan-out from k to the other set bits of
    c, which is the basis gather f flipping those bits on every index with
    bit k set, then H on k.  H writes H[b, 0] G[i & ~2^k] + H[b, 1] G[i | 2^k]
    to index i with bit k equal to b, G the gathered state, so row p reads
    lo = f(i & ~2^k) and hi = f(i | 2^k) from its source block: the state,
    or for an imaginary part its copy turned on k.
    """
    dim = 2**n_qubits
    index = np.arange(dim)
    colors = np.array([color for color, _ in pieces], dtype=int).reshape(-1, 1)
    imag = np.array([part == IMAG for _, part in pieces], dtype=bool).reshape(-1, 1)
    # 2^k_c per piece, 0 for color 0
    tops = np.array([(1 << color.bit_length()) >> 1 for color, _ in pieces],
                    dtype=int).reshape(-1, 1)
    turned = imag & (colors > 0)
    turns = tuple(int(top).bit_length() - 1 for top in np.unique(tops[turned]))
    block = np.where(turned, 1 + np.searchsorted(1 << np.array(turns, dtype=int), tops), 0) * dim

    def fanout(i):
        return block + np.where(i & tops > 0, i ^ colors ^ tops, i)

    bit = (index & tops > 0).astype(int)
    unrotated = colors == 0
    c0 = np.where(unrotated, 1.0, _HADAMARD[bit, 0]).astype(complex)
    c1 = np.where(unrotated, 0.0, _HADAMARD[bit, 1]).astype(complex)
    return PieceRotations(turns, fanout(index & ~tops), fanout(index | tops), c0, c1)


def _single_stack(matrix) -> MatrixStack:
    """One square matrix, dense or scipy-sparse, as a one-segment stack."""
    coo = sparse.coo_matrix(matrix)
    return MatrixStack(np.zeros(coo.nnz), coo.row, coo.col, coo.data, 1, coo.shape[0])


class PieceEntries(NamedTuple):
    """The nonzero entries of rotated piece diagonals over a stack: the
    entry of segment s at basis index i sits at the flat key
    ``s * dim + i``; keys are strictly increasing."""

    keys: np.ndarray
    values: np.ndarray
    dim: int


class CellLayout(NamedTuple):
    """A table's entries grouped into cells, for estimates that share one
    side of their (primal row, dual row) pairs: an entry's probability is
    the shared side's factor at the entry times the other side's factor at
    the entry's cell.  Cell c holds entries ``starts[c]`` to
    ``starts[c + 1] - 1`` of the layout's order and piece k cells
    ``pieces[k]`` to ``pieces[k + 1] - 1``; ``cells`` holds each cell's
    k * dim + i (column cells) or m (segment cells), and ``outcomes``,
    ``matrices`` and ``values`` each entry's k * dim + i, its matrix m and
    its value."""

    starts: np.ndarray
    pieces: np.ndarray
    cells: np.ndarray
    outcomes: np.ndarray
    matrices: np.ndarray
    values: np.ndarray


def _cell_layout(table: "PieceTable", order: np.ndarray, first: np.ndarray,
                 cells: np.ndarray) -> CellLayout:
    """The layout of a table's entries taken in ``order``, cell c starting
    at entry ``first[c]`` of it and read at ``cells[c]`` on the varying
    side."""
    entries, count = table.entries, table.count
    piece, rest = np.divmod(entries.keys[order], count * entries.dim)
    matrix, outcome = np.divmod(rest, entries.dim)
    return CellLayout(np.append(first, len(order)),
                      np.searchsorted(piece[first], np.arange(len(table) + 1)), cells,
                      piece * entries.dim + outcome, matrix, entries.values[order])


@dataclass(frozen=True)
class PieceTable:
    """The color pieces of a stack of ``count`` matrices, for the pieces
    nonzero in at least one of them: ``pieces`` lists their (color, part),
    real parts by ascending color first, then imaginary parts; ``entries``
    holds the nonzero entries of every piece's rotated diagonals, segment
    p * count + m (indexed by ``segment_starts``) being matrix m of piece p;
    ``norms`` holds per piece max_m ||M_m^c||, its largest |entry|.  The
    segment index, the two ``CellLayout``s that the sampled estimator
    reads, the rotation of the column cells and the column cell of each
    segment-cell entry are cached on the table on first use."""

    pieces: tuple[tuple[int, str], ...]
    entries: PieceEntries
    norms: list[float]
    count: int

    def __len__(self) -> int:
        return len(self.pieces)

    @property
    def colors(self) -> set[int]:
        return {color for color, _ in self.pieces}

    @property
    def sum_norm_sq(self) -> float:
        """Sum over the pieces of max_m ||M_m^c||^2."""
        return sum(norm**2 for norm in self.norms)

    @cached_property
    def segment_starts(self) -> np.ndarray:
        """The CSR index of ``entries``, built on first use: segment s holds
        entries ``segment_starts[s]`` to ``segment_starts[s + 1]``, by column."""
        bounds = np.arange(len(self) * self.count + 1) * self.entries.dim
        return np.searchsorted(self.entries.keys, bounds)

    @cached_property
    def column_cells(self) -> CellLayout:
        """The entries by (piece k, column i) cell, for estimates that
        share a dual row: in order of piece, column and matrix, cell c
        read at column c of ``cell_probabilities``, its ``cells`` entry
        k * dim + i; built on first use."""
        dim, count = self.entries.dim, self.count
        piece, rest = np.divmod(self.entries.keys, count * dim)
        matrix, outcome = np.divmod(rest, dim)
        columns = piece * dim + outcome
        order = np.argsort(columns * count + matrix)
        columns = columns[order]
        first = np.flatnonzero(np.diff(columns, prepend=-1))
        return _cell_layout(self, order, first, columns[first])

    @cached_property
    def segment_cells(self) -> CellLayout:
        """The entries by nonempty segment, the (piece k, matrix m) cell,
        for estimates that share a primal row: in table order, each cell
        read at m of a PMF; built on first use."""
        live = np.flatnonzero(np.diff(self.segment_starts))
        return _cell_layout(self, np.arange(len(self.entries.keys)), self.segment_starts[live],
                            live % self.count)

    @cached_property
    def segment_columns(self) -> np.ndarray:
        """The column cell of each entry of ``segment_cells``: where
        estimates that share a primal row read its ``cell_probabilities``
        row; built on first use."""
        return np.searchsorted(self.column_cells.cells, self.segment_cells.outcomes)

    @cached_property
    def cell_rotation(self) -> PieceRotations:
        """The rotations of the column cells, one double gather read by
        ``cell_probabilities``: cell (k, i) is c0 * psi[lo] + c1 * psi[hi],
        amplitude i of psi rotated by piece k.  S^dag is diagonal, so a
        source in the copy turned on qubit t is psi at the same index times
        S^dag's entry at that index's bit t, folded into the coefficient,
        and ``turns`` is empty; built on first use."""
        dim = self.entries.dim
        rotations = piece_rotations(self.pieces, dim.bit_length() - 1)
        cells = self.column_cells.cells
        qubits = np.array((0, *rotations.turns), dtype=int)
        phases = np.diagonal(_S_DAG)

        def folded(sources, coefficients):
            block, index = np.divmod(sources.ravel()[cells], dim)
            turned = np.where(block > 0, phases[index >> qubits[block] & 1], 1.0)
            return index, coefficients.ravel()[cells] * turned

        (lo, c0), (hi, c1) = folded(rotations.lo, rotations.c0), folded(rotations.hi, rotations.c1)
        return PieceRotations((), lo, hi, c0, c1)


def piece_table(stack: MatrixStack) -> PieceTable:
    """The color pieces of every stacked matrix, from one pass over its
    entries grouped by color i ^ j.

    Only the entries whose row has bit k_c clear are read: the piece diagonal
    of segment s holds their values (real parts, or negated imaginary parts)
    at their rows and, for c >= 1, the negation at ``rows + 2^k_c``.
    """
    colors, color_of = np.unique(stack.rows ^ stack.cols, return_inverse=True)
    # 2^k_c per color, k_c = c.bit_length() - 1, and 0 for color 0
    tops = np.array([(1 << c.bit_length()) >> 1 for c in colors.tolist()], dtype=int)
    low = stack.rows & tops[color_of] == 0
    color_of, values = color_of[low], stack.values[low]
    base = stack.segments[low] * stack.dim + stack.rows[low]
    imag = colors[color_of] > 0  # color 0 has no imaginary part
    # one slot per (color, part): real parts by color, then imaginary parts
    slot = np.concatenate([color_of, len(colors) + color_of[imag]])
    values = np.concatenate([values.real, -values[imag].imag])
    base = np.concatenate([base, base[imag]])
    nonzero = values != 0
    slot, values, base = slot[nonzero], values[nonzero], base[nonzero]
    slots = np.unique(slot)  # the nonzero pieces, in table order
    pieces = tuple((int(colors[s % len(colors)]), REAL if s < len(colors) else IMAG)
                   for s in slots.tolist())
    span = stack.count * stack.dim  # keys per piece
    at = np.searchsorted(slots, slot) * span + base
    top = tops[slot % len(colors)]
    mirrored = top > 0
    at = np.concatenate([at, at[mirrored] + top[mirrored]])
    values = np.concatenate([values, -values[mirrored]])
    order = np.argsort(at, kind="stable")
    at, values = at[order], values[order]
    starts = np.searchsorted(at, np.arange(len(pieces)) * span)
    norms = np.maximum.reduceat(np.abs(values), starts) if pieces else np.empty(0)
    return PieceTable(pieces, PieceEntries(at, values, stack.dim), norms.tolist(), stack.count)


def decompose(matrix) -> PieceTable:
    """The nonzero color pieces of a Hermitian matrix, dense or scipy-sparse:
    the ``PieceTable`` of its one-matrix stack.

    Pieces whose diagonal is identically zero are omitted, so no shots are
    ever spent on structurally zero expectations.
    """
    shape = np.shape(matrix)
    dim = shape[0]
    if 2**int(math.log2(dim)) != dim or shape != (dim, dim):
        raise ValidationError(f"matrix must be square with power-of-two size, got {shape}")
    stack = _single_stack(matrix)
    residual = stack.hermitian_residuals()[0]
    if residual > _HERMITIAN_TOL:
        raise ValidationError(f"matrix not Hermitian (residual {residual:.2e})")
    return piece_table(stack)


def live_inverse(cumulative: np.ndarray, first: np.ndarray, last: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """``first + np.searchsorted(cumulative[first:last + 1], u, side="right")``
    for every draw u below ``cumulative[last]``, each draw with its own
    nondecreasing run of the flat ``cumulative``.

    One branchless binary search runs over all draws at once: the answer
    starts at ``first`` and moves up by each power of two while the entry
    below its new place is <= u.  Probes past a run read its last entry,
    which is above u, so no draw leaves its run, and a zero-probability
    outcome, whose entry equals the one before, is never returned.
    """
    at = first.astype(np.intp, copy=True)
    step = 1 << int(np.max(last - first, initial=0)).bit_length() >> 1
    while step:
        probe = np.minimum(at + (step - 1), last)
        at += (cumulative[probe] <= u) * step
        step >>= 1
    return at


def _multinomial(draws: np.random.Generator, cumulative: np.ndarray, first: np.ndarray,
                 last: np.ndarray, lows: np.ndarray,
                 n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counts of ``n[r]`` draws over each run r's outcomes j, ``first[r]``
    <= j <= ``last[r]``, of probability proportional to cumulative[j]
    - cumulative[j - 1], ``lows[r]`` standing before the run: one
    multinomial per run, all from one call.  Returns the (runs, width)
    counts and the outcome of each column; past a run's end the outcome
    repeats its last and counts 0.  A last, dead category takes whatever
    rounding leaves of the normalised steps and is dropped, so no count
    lands on a zero-probability outcome."""
    outcomes = np.minimum(first[:, None] + np.arange(int(np.max(last - first)) + 1),
                          last[:, None])
    steps = np.diff(cumulative[outcomes], axis=1, prepend=lows[:, None])
    steps /= steps.sum(axis=1, keepdims=True)
    counts = draws.multinomial(n, np.concatenate([steps, np.zeros((len(steps), 1))], axis=1))
    return counts[:, :-1], outcomes


def _draw_cells(draws: np.random.Generator, layout: CellLayout, weights: np.ndarray,
                shared: np.ndarray, shots: int) -> np.ndarray:
    """The summed scores over S = ``shots`` shots per piece of each of a
    group's estimates, all drawn from ``draws``: entry j of ``layout``
    scores ``layout.values[j]`` with probability ``weights[e, c]
    * shared[j]`` in estimate e, c the entry's cell.  ``weights`` is
    overwritten.

    The shared factor's running sums over the layout's entries are built
    once, and each cell's mass is their step over the cell.  Row e of
    ``weights`` becomes the running sums over the cells of their masses
    times the row's weights, and per piece the number N of the S shots
    that land on an entry is Binomial(S, J), J the piece's step in the
    row.  Given N, the shots are N independent draws (the conditional
    method for the multinomial, Devroye 1986): each draws its cell by
    inversion over the row (section III.2), lo + U J found in the piece's
    run by ``live_inverse``, and then its entry by inversion over the
    cell's run of the shared running sums.  A target that rounds up to its
    run's end is set just below it, so no draw leaves its run or returns
    a zero-probability cell or entry.  A run of at least
    ``_MULTINOMIAL_DRAWS`` draws, and no fewer than its piece's cells,
    draws instead one multinomial over its cells and one over the entries
    of each cell it reaches, conditional on the counts.  The counts come
    first, then the multinomials, then the uniforms, two per draw,
    ``_DRAW_BLOCK`` draws at a time, so each estimate draws its own
    disjoint part of the stream.
    """
    count, width = weights.shape
    pieces = len(layout.pieces) - 1
    within = np.zeros(len(shared) + 1)
    np.cumsum(shared, out=within[1:])
    cell_lows, cell_tops = within[layout.starts[:-1]], within[layout.starts[1:]]
    weights *= cell_tops - cell_lows
    np.cumsum(weights, axis=1, out=weights)
    flat = weights.ravel()
    # run r = e * pieces + k of row e and piece k: flat[first[r]:last[r] + 1]
    offsets = np.arange(count)[:, None] * width
    first = (offsets + layout.pieces[:-1]).ravel()
    last = (offsets + layout.pieces[1:] - 1).ravel()
    lows = flat[first - 1]
    lows.reshape(count, pieces)[:, :1] = 0.0  # a row's first run starts from 0
    tops = flat[last]
    masses = np.minimum(tops - lows, 1.0)
    counts = draws.binomial(shots, masses)
    totals = np.zeros(count)
    large = (counts >= _MULTINOMIAL_DRAWS) & (counts > last - first)
    if large.any():
        cell_counts, cells = _multinomial(draws, flat, first[large], last[large], lows[large],
                                          counts[large])
        reached = np.nonzero(cell_counts)
        cells = cells[reached] % width
        entry_counts, entries = _multinomial(draws, within, layout.starts[cells] + 1,
                                             layout.starts[cells + 1], cell_lows[cells],
                                             cell_counts[reached])
        scores = np.where(entry_counts > 0, entry_counts * layout.values[entries - 1], 0.0)
        totals += np.bincount(np.flatnonzero(large)[reached[0]] // pieces, scores.sum(axis=1),
                              minlength=count)
        counts = np.where(large, 0, counts)
    ends = np.concatenate(([0], np.cumsum(counts)))
    single = len(layout.values) == width  # every cell holds one entry, its own index
    for start in range(0, int(ends[-1]), _DRAW_BLOCK):
        # the run of each of this chunk's draws
        runs = np.repeat(np.arange(len(counts)),
                         np.diff(np.minimum(np.maximum(ends, start), start + _DRAW_BLOCK)))
        u = draws.random(len(runs) if single else 2 * len(runs))
        target = u[:len(runs)] * masses[runs] + lows[runs]
        np.minimum(target, np.nextafter(tops[runs], -np.inf), out=target)
        cell = entry = live_inverse(flat, first[runs], last[runs], target) % width
        if not single:
            target = u[len(runs):] * (cell_tops - cell_lows)[cell] + cell_lows[cell]
            np.minimum(target, np.nextafter(cell_tops[cell], -np.inf), out=target)
            entry = live_inverse(within, layout.starts[cell] + 1, layout.starts[cell + 1],
                                 target) - 1
        totals += np.bincount(runs // pieces, layout.values[entry], minlength=count)
    return totals


def cell_probabilities(table: PieceTable, states: np.ndarray) -> np.ndarray:
    """The (rows, cells) outcome probabilities of a (rows, dim) stack of
    states at the table's column cells: entry (r, c) is |c0 psi_r[lo]
    + c1 psi_r[hi]|^2 / ||psi_r||^2 for cell c = (piece k, column i) of
    ``table.cell_rotation``, the probability of outcome i of psi_r rotated
    by piece k.  Every rotation is unitary, so ||psi_r||^2 is each piece's
    normalisation.  No other outcome of a rotated state is computed."""
    rotation = table.cell_rotation
    amplitudes = states[:, rotation.lo] * rotation.c0
    amplitudes += states[:, rotation.hi] * rotation.c1
    probs = np.square(amplitudes.real)
    probs += np.square(amplitudes.imag)
    probs /= np.square(np.abs(states)).sum(axis=1, keepdims=True)
    return probs


def estimate_expectation(table: PieceTable, probs: np.ndarray, pmfs: np.ndarray,
                         pairs: Sequence[tuple[int, int]], shots: int,
                         seed) -> tuple[list[float], int]:
    """Sampled estimates of sum_m pmfs[q, m] <psi_r|M_m|psi_r>, M_m the
    ``count`` matrices of ``table``, one per (r, q) of ``pairs``, and the
    shots they charge, S = ``shots`` per piece and estimate, all drawn
    from one generator seeded from ``seed``.

    ``probs[r, c]`` holds the probability of column cell c = (piece k,
    column i) of ``table.column_cells`` under primal row r: outcome i of
    psi_r rotated by piece k (``cell_probabilities``).  Each shot of piece
    k pairs m ~ pmfs[q] with an outcome i of the rotated psi_r and scores
    the entry of segment k * count + m at column i, so an entry's
    probability is probs[r, c] pmfs[q, m], and only the shots that land on
    an entry are drawn (``_draw_cells``).  With one matrix and the
    one-point PMF ``np.ones((1, 1))`` the estimate is of that matrix's
    expectation.

    The estimates go in groups that share one side of their pairs, and
    the shared row's factor is folded once per group into the cells of
    one of the table's ``CellLayout``s.  The estimates of one dual row q
    (a gradient's theta shifts, all of F0's and G's, the one estimate of
    an L) share pmfs[q] over the ``column_cells``, so a cell's weight in
    estimate e is probs[r_e, c] times the cell's PMF mass.  Those of one
    primal row r (a gradient's phi shifts) share probs[r] over the
    ``segment_cells`` (piece k, matrix m), each entry read at its column
    cell (``segment_columns``), so a cell's weight is pmfs[q_e, m] times
    the segment's probability mass.  An estimate draws with the others of
    its dual row, unless that row is its own alone and its primal row is
    shared.  The groups draw one after another from the one generator.
    Each piece's average has the law of S such pairs: the estimates are
    unbiased, and independent of each other.
    """
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    primal, dual = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    # an estimate draws with the others of its dual row, unless that row is
    # its own alone and its primal row is shared
    by_segment = (np.bincount(dual)[dual] == 1) & (np.bincount(primal)[primal] > 1)
    draws, totals = rng(seed), np.zeros(len(pairs))
    for shares_dual, side in ((True, ~by_segment), (False, by_segment)):
        row_of = dual if shares_dual else primal
        for row in np.flatnonzero(np.bincount(row_of[side])).tolist():
            members = np.flatnonzero(side & (row_of == row))
            if shares_dual:
                layout = table.column_cells
                weights = probs[primal[members]]  # a copy: ``_draw_cells`` overwrites it
                shared = np.take(pmfs[row], layout.matrices)
            else:
                layout = table.segment_cells
                weights = np.take(pmfs[dual[members]], layout.cells, axis=1)
                shared = np.take(probs[row], table.segment_columns)
            totals[members] = _draw_cells(draws, layout, weights, shared, shots)
    return (totals / shots).tolist(), shots * len(table) * len(pairs)
