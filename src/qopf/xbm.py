"""Extended Bell measurements: XOR-color decomposition of Hermitian
observables into simultaneously measurable pieces.

Entries (i, j) of an observable sharing i ^ j = c form color c.  The color-c
submatrix splits into a real-symmetric part and a purely imaginary Hermitian
part, and each is diagonalized by the same O(log N)-gate circuit: CX gates
fanning out from qubit k_c (the most significant set bit of c) to every other
set bit of c, followed by a Hadamard on k_c.  The imaginary part additionally
takes an S^dag prefix on k_c, realized here as Rz(-pi/2) (equal up to an
irrelevant global phase).  The whole CX fan-out is one precomputed basis
gather, and Rz and H go through the 2x2 primitive ``sim.apply_single``.
A piece is described by its (color, part) alone: ``gate_count`` counts
its rotation's gates, and ``piece_rotations`` builds the rotations of a
sequence of pieces, grouped by (k, part) with their fan-outs stacked.
``rotate_pieces`` rotates a state, or a stack of states, under all of
them at once: pieces that share k and part share one S^dag and one H
over the stack of their fan-out gathers, elementwise the same operations
as piece by piece, so the rotated states are the same bit for bit.

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
grouped rotations, each built once, and scatters the diagonals densely on
request.
The sampled estimator ``estimate_expectation`` reads one matrix's pieces
from such a table and estimates its expectation on every row of a stack
of states, one seed per row.
The construction is validated functionally by the test suite: R M_c R^dag
must be diagonal and equal diag(lambda) for every color and part.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .grid import MatrixStack, ValidationError
from .sim import apply_single, rng, rotation_matrix

REAL = "real"
IMAG = "imag"

_HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
_S_DAG = rotation_matrix("rz", -math.pi / 2)  # S^dag up to a global phase


def gate_count(color: int, part: str) -> int:
    """Gates of a piece's measurement rotation: popcount(color) - 1 CX
    gates, one H and, for the imaginary part, S^dag; 0 for color 0, which
    is diagonal already.  At most log2(N) for real parts and log2(N) + 1
    for imaginary parts."""
    return color.bit_count() + (part == IMAG) if color else 0


class PieceRotations(NamedTuple):
    """The rotations of a sequence of pieces, grouped for ``rotate_pieces``
    into runs of consecutive rows: the unrotated (color 0) runs, and each
    run of one (k, part) with its fan-outs stacked as one (g, dim) gather.
    A table sorts its pieces by part and color, so each (k, part) is one run."""

    count: int
    unrotated: tuple[slice, ...]
    groups: tuple[tuple[slice, int, str, np.ndarray], ...]


def piece_rotations(pieces: Sequence[tuple[int, str]], n_qubits: int) -> PieceRotations:
    """The measurement rotations of (color, part) pieces on ``n_qubits``,
    grouped into runs of one (k, part).

    Color 0 needs no rotation.  Color c >= 1 takes S^dag on k = k_c
    (imaginary part only), the CX fan-out from k to the other set bits of
    c, which is the basis gather that flips those bits on every index with
    bit k set, then H on k.
    """
    index = np.arange(2**n_qubits)
    unrotated, groups, start = [], [], 0
    # k = -1 for color 0
    for (k, part), run in groupby(pieces, lambda piece: (piece[0].bit_length() - 1, piece[1])):
        colors = np.array([color for color, _ in run])
        rows, start = slice(start, start + len(colors)), start + len(colors)
        if k < 0:
            unrotated.append(rows)
        else:
            flips = colors[:, None] ^ (1 << k)
            groups.append((rows, k, part, np.where((index >> k) & 1 == 1, index ^ flips, index)))
    return PieceRotations(start, tuple(unrotated), tuple(groups))


def rotate_pieces(states: np.ndarray, rotations: PieceRotations) -> np.ndarray:
    """Every piece's rotation applied to a state, or to every row of a stack
    of states: a complex (pieces, *states.shape) array whose entry p is
    rotated by piece p.

    One pass per run of (k, part): S^dag on k once for an imaginary run,
    all of the run's fan-outs as one gather, then one H on k over the
    gathered stack, written straight into the run's rows of the output.
    These are the elementwise operations of rotating piece by piece, so
    the result is the same bit for bit.
    """
    flat = states.reshape(-1, states.shape[-1])
    out = np.empty((rotations.count, *flat.shape), dtype=complex)
    for rows in rotations.unrotated:
        out[rows] = flat
    for rows, k, part, fanouts in rotations.groups:
        source = apply_single(flat, k, _S_DAG) if part == IMAG else flat
        apply_single(source[:, fanouts].swapaxes(0, 1), k, _HADAMARD, out=out[rows])
    return out.reshape(rotations.count, *states.shape)


def _single_stack(matrix) -> MatrixStack:
    """One square matrix, dense or scipy-sparse, as a one-segment stack."""
    coo = sparse.coo_matrix(matrix)
    return MatrixStack(np.zeros(coo.nnz), coo.row, coo.col, coo.data, 1, coo.shape[0])


def sorted_search(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.searchsorted(a, v, side="right")`` with the queries v searched in
    sorted order: the same positions, found two to three times faster than
    for queries in random order."""
    flat = v.ravel()
    order = flat.argsort()
    out = np.empty(flat.shape, dtype=np.intp)
    out[order] = np.searchsorted(a, flat[order], side="right")
    return out.reshape(v.shape)


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
        """The pieces' rotations, grouped once for ``rotate_pieces``."""
        return piece_rotations(self.pieces, int(math.log2(self.entries.dim)))

    @cached_property
    def segment_starts(self) -> np.ndarray:
        """The CSR index of ``entries``, built on first use: segment s holds
        entries ``segment_starts[s]`` to ``segment_starts[s + 1]``, by column."""
        bounds = np.arange(len(self) * self.count + 1) * self.entries.dim
        return np.searchsorted(self.entries.keys, bounds)

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
    a piece's value averages its diagonal over its outcomes, and the
    estimate sums the values in piece order.  The estimates are unbiased.
    """
    if shots_per_piece < 1:
        raise ValidationError("shots_per_piece must be >= 1")
    probs = np.abs(rotate_pieces(states, table.rotations)) ** 2
    probs /= probs.sum(axis=-1, keepdims=True)
    estimates = []
    for row, seed in zip(probs.swapaxes(0, 1), seeds, strict=True):
        counts = rng(seed).multinomial(shots_per_piece, row)
        per_piece = [float(c @ diagonal) / shots_per_piece
                     for c, diagonal in zip(counts, table.diagonals)]
        total = 0.0
        for value in per_piece:
            total += value
        estimates.append(total)
    return estimates
