"""Extended Bell measurements: XOR-color decomposition of Hermitian
observables into simultaneously measurable pieces.

Entries (i, j) of an observable sharing i ^ j = c form color c.  The color-c
submatrix splits into a real-symmetric part and a purely imaginary Hermitian
part, and each is diagonalized by the same O(log N)-gate circuit: CX gates
fanning out from qubit k_c (the most significant set bit of c) to every other
set bit of c, followed by a Hadamard on k_c.  The imaginary part additionally
takes an S^dag prefix on k_c, realized here as Rz(-pi/2) (equal up to an
irrelevant global phase).  The whole CX fan-out is one precomputed basis
gather, and Rz goes through the 2x2 primitive ``sim.apply_single``.
A piece is described by its (color, part) alone: ``gate_count`` counts
its rotation's gates, and ``piece_rotations`` builds the rotations of a
sequence of pieces as one double gather: each rotated amplitude is
c0 * y[lo] + c1 * y[hi], H's two products over the fan-out gather of the
state or of its copy turned by S^dag on k.  ``rotate_pieces`` rotates a
state, or a stack of states, under all of them at once: one S^dag per
qubit that an imaginary piece needs, then one double gather over all
pieces, the same products and sums as piece by piece, so the rotated
states are the same bit for bit.

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
``PieceEntries`` with a per-segment index of them, their norms and their
rotations, each built once, and scatters the diagonals densely on request.
The sampled estimator ``estimate_expectation`` reads one matrix's pieces
from such a table and estimates its expectation on every row of a stack
of states, one seed per row, scoring all pieces of a row in one stacked
matmul.  The sampled F draws its dual outcomes through ``inverse_cdf``, an
exact guide-table inverse (Chen and Asau 1974): ``cdf_guides`` counts, for
each of K equal buckets of [0, 1], the CDF entries at or below its lower
edge, so a draw is resolved by one comparison unless its bucket holds two
or more entries, and nothing is sorted.
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
from .sim import apply_single, rng, rotation_matrix

REAL = "real"
IMAG = "imag"

_HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
_S_DAG = rotation_matrix("rz", -math.pi / 2)  # S^dag up to a global phase
# amplitudes per block of the rotation's second gather: bounds that
# temporary, so rotating a whole shift stack does not raise the memory peak
_GATHER_BLOCK = 2**14
# guide-table buckets per outcome, K / 2^ceil(log2(CDF length))
_GUIDE_BUCKETS = 8


def gate_count(color: int, part: str) -> int:
    """Gates of a piece's measurement rotation: popcount(color) - 1 CX
    gates, one H and, for the imaginary part, S^dag; 0 for color 0, which
    is diagonal already.  At most log2(N) for real parts and log2(N) + 1
    for imaginary parts."""
    return color.bit_count() + (part == IMAG) if color else 0


class PieceRotations(NamedTuple):
    """The rotations of a sequence of pieces as one double gather for
    ``rotate_pieces``.  The source y of a state is the state followed by its
    S^dag-turned copies, one per qubit in ``turns``, so row p of a rotated
    state is c0[p] * y[lo[p]] + c1[p] * y[hi[p]]: the H on k over the
    fan-out gather, or, for color 0, the state itself (coefficients 1 and
    0)."""

    turns: tuple[int, ...]
    lo: np.ndarray
    hi: np.ndarray
    c0: np.ndarray
    c1: np.ndarray

    @property
    def count(self) -> int:
        return len(self.lo)


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


def rotate_pieces(states: np.ndarray, rotations: PieceRotations) -> np.ndarray:
    """Every piece's rotation applied to a state, or to every row of a stack
    of states: a complex (pieces, *states.shape) array whose entry p is
    rotated by piece p.  A real state, from an RY/CX circuit, is cast to
    complex first, as S^dag and the output are complex; its rotated states
    are those of the complex-cast state bit for bit.

    S^dag is applied once per qubit of ``rotations.turns``; then every
    piece reads its two sources from the states and these turned copies in
    one double gather, c0 * y[lo] + c1 * y[hi].  These are the products and
    the sums of rotating piece by piece, in the same order, so the result
    is the same bit for bit.  The states go through in blocks whose gather
    temporary holds at most ``_GATHER_BLOCK`` amplitudes.  The array is laid
    out state-major, each state's (pieces, dim) block contiguous.
    """
    flat = states.reshape(-1, states.shape[-1]).astype(complex, copy=False)
    y = np.concatenate([flat, *(apply_single(flat, k, _S_DAG) for k in rotations.turns)], axis=1)
    dim = flat.shape[1]
    out = np.empty((len(flat), rotations.count, dim), dtype=complex)
    step = max(1, _GATHER_BLOCK // max(1, rotations.count * dim))
    for start in range(0, len(flat), step):
        source, block = y[start:start + step], out[start:start + step]
        np.take(source, rotations.lo, axis=1, out=block, mode="clip")
        block *= rotations.c0
        high = np.take(source, rotations.hi, axis=1, mode="clip")
        high *= rotations.c1
        block += high
    return np.moveaxis(out.reshape(*states.shape[:-1], rotations.count, dim), -2, 0)


def _single_stack(matrix) -> MatrixStack:
    """One square matrix, dense or scipy-sparse, as a one-segment stack."""
    coo = sparse.coo_matrix(matrix)
    return MatrixStack(np.zeros(coo.nnz), coo.row, coo.col, coo.data, 1, coo.shape[0])


def cdf_guides(cdfs: np.ndarray) -> np.ndarray:
    """The guide tables of a CDF, or of every row of a stack of CDFs, for
    ``inverse_cdf``: g[b] = #{j : cdf[j] <= b / K} for b = 0..K, with K
    ``_GUIDE_BUCKETS`` times the CDF length rounded up to a power of two.

    K * cdf is exact, so cdf <= b / K exactly when the bucket number
    c_j = ceil(K * cdf[j]) is <= b: g is j from bucket c_(j-1) up to bucket
    c_j, and every table is one run-length expansion, stored in the
    smallest unsigned type that holds the CDF length.
    """
    dim = cdfs.shape[-1]
    size = _GUIDE_BUCKETS * 2**(dim - 1).bit_length() + 1
    rows = cdfs.reshape(-1, dim)
    edges = np.zeros((len(rows), dim + 2), dtype=np.intp)
    edges[:, 1:-1] = np.ceil(rows * (size - 1))
    edges[:, -1] = size
    counts = np.arange(dim + 1, dtype=np.min_scalar_type(dim))
    guides = np.repeat(np.tile(counts, len(rows)), np.diff(edges, axis=1).ravel())
    return guides.reshape(*cdfs.shape[:-1], size)


def inverse_cdf(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` for draws u in [0, 1) from a
    nondecreasing CDF in [0, 1] that ends at 1, through its guide table
    (``cdf_guides``), without sorting the draws.

    A draw in bucket b = floor(K u) has its outcome in the bracket
    [g[b], g[b + 1]].  Most brackets hold at most one CDF entry, and then
    the outcome is g[b] plus whether that entry is <= u; the draws in
    wider brackets are searched.
    """
    b = (u * (len(guide) - 1)).astype(np.intp)
    first, last = guide[b], guide[1:][b]
    out = np.add(first, cdf[first] <= u, dtype=np.intp)
    wide = np.flatnonzero(last - first > 1)
    out.flat[wide] = np.searchsorted(cdf, u.flat[wide], side="right")
    return out


class PieceEntries(NamedTuple):
    """The nonzero entries of rotated piece diagonals over a stack: the
    entry of segment s at basis index i sits at the flat key
    ``s * dim + i``; keys are strictly increasing."""

    keys: np.ndarray
    values: np.ndarray
    dim: int


@dataclass(frozen=True)
class PieceTable:
    """The color pieces of a stack of ``count`` matrices, for the pieces
    nonzero in at least one of them: ``pieces`` lists their (color, part),
    real parts by ascending color first, then imaginary parts; ``entries``
    holds the nonzero entries of every piece's rotated diagonals, segment
    p * count + m (indexed by ``segment_starts``) being matrix m of piece p;
    ``norms`` holds per piece max_m ||M_m^c||, its largest |entry|."""

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
    def rotations(self) -> PieceRotations:
        """The pieces' rotations, built once for ``rotate_pieces``."""
        return piece_rotations(self.pieces, int(math.log2(self.entries.dim)))

    @cached_property
    def segment_starts(self) -> np.ndarray:
        """The CSR index of ``entries``, built on first use: segment s holds
        entries ``segment_starts[s]`` to ``segment_starts[s + 1]``, by column."""
        bounds = np.arange(len(self) * self.count + 1) * self.entries.dim
        return np.searchsorted(self.entries.keys, bounds)

    @cached_property
    def segment_sizes(self) -> np.ndarray:
        """The number of entries of each segment, built on first use."""
        return np.diff(self.segment_starts)

    @cached_property
    def diagonals(self) -> np.ndarray:
        """The (pieces, dim) rotated piece diagonals of matrix 0."""
        return self.dense()[:, 0]

    def dense(self) -> np.ndarray:
        """The rotated piece diagonals as a (pieces, count, dim) array."""
        out = np.zeros(len(self) * self.count * self.entries.dim)
        out[self.entries.keys] = self.entries.values
        return out.reshape(len(self), self.count, self.entries.dim)


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


def decompose(matrix, tol: float = 1e-10) -> PieceTable:
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
    if residual > tol:
        raise ValidationError(f"matrix not Hermitian (residual {residual:.2e})")
    return piece_table(stack)


def estimate_expectation(states: np.ndarray, table: PieceTable, shots_per_piece: int,
                         seeds) -> list[float]:
    """Sampled estimates of <psi_b|M|psi_b> for the rows psi_b of a (B, dim)
    stack of states, from the color pieces of M (``decompose``), row b
    drawn from ``seeds[b]``.

    All states are rotated under all pieces in one ``rotate_pieces`` call
    and normalised at once.  Each estimate seeds one generator, which draws
    the computational-basis counts of every piece's rotated state in one
    multinomial call, piece p taking the p-th disjoint block of the stream;
    a piece's value averages its diagonal over its outcomes, one stacked
    matmul scoring every piece of a row, and the estimate sums the values
    in piece order.  The estimates are unbiased.
    """
    if shots_per_piece < 1:
        raise ValidationError("shots_per_piece must be >= 1")
    probs = np.abs(rotate_pieces(states, table.rotations)) ** 2
    probs /= probs.sum(axis=-1, keepdims=True)
    diagonals = table.diagonals[:, :, None]
    estimates = []
    for row, seed in zip(probs.swapaxes(0, 1), seeds, strict=True):
        counts = rng(seed).multinomial(shots_per_piece, row)
        per_piece = np.matmul(counts[:, None, :], diagonals)[:, 0, 0] / shots_per_piece
        total = 0.0
        for value in per_piece.tolist():
            total += value
        estimates.append(total)
    return estimates
