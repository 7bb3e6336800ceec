"""Extended Bell measurements: XOR-color decomposition of Hermitian
observables into simultaneously measurable pieces.

Entries (i, j) of an observable sharing i ^ j = c form color c.  The color-c
submatrix splits into a real-symmetric part and a purely imaginary Hermitian
part, and each is diagonalized by the same O(log N)-gate circuit: CX gates
fanning out from qubit k_c (the most significant set bit of c) to every other
set bit of c, followed by a Hadamard on k_c.  The imaginary part additionally
takes an S^dag prefix on k_c, realized here as Rz(-pi/2) (equal up to an
irrelevant global phase).  The whole CX fan-out is one precomputed basis
gather, and Rz and H go through the 2x2 primitive ``sim.apply_single``;
``decompose`` builds each piece's rotation once and keeps it on the piece.
``rotate_pieces`` rotates a state under many pieces at once: pieces that
share k and part share one S^dag and one H over the stack of their
fan-out gathers, elementwise the same operations as piece by piece, so the
rotated states are the same bit for bit.  ``RotationCircuit.apply`` is that
path for one piece.

With that rotation R applied to the state, the piece expectation becomes a
computational-basis average of a fixed real diagonal: for every index i whose
k_c bit is clear, pairing it with j = i ^ c,

    real part:      lambda[i] = +Re M[i, j],  lambda[i ^ 2^k_c] = -Re M[i, j]
    imaginary part: lambda[i] = -Im M[i, j],  lambda[i ^ 2^k_c] = +Im M[i, j]

The diagonals are computed from coordinate entries grouped by i ^ j
(``piece_diagonals``), for one matrix or a whole ``grid.MatrixStack`` at
once; ``piece_entries`` gives the same diagonals of a stack as sorted
sparse entries, and ``joined_entries`` the entries of many pieces as one.
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

from .grid import MatrixStack
from .sim import apply_single, chain_seed, rotation_matrix, sample_basis

REAL = "real"
IMAG = "imag"

_HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
_S_DAG = rotation_matrix("rz", -math.pi / 2)  # S^dag up to a global phase


class DecompositionError(ValueError):
    pass


def most_significant_bit(c: int) -> int:
    if c < 1:
        raise DecompositionError("color must be >= 1")
    return c.bit_length() - 1


def rotation_circuit(color: int, n_qubits: int, part: str = REAL) -> "RotationCircuit":
    """Measurement rotation for a color-c piece (c >= 1).

    Gate count is at most log2(N) for real parts and log2(N) + 1 for
    imaginary parts.  Color 0 is diagonal already and needs no rotation.
    """
    if not (1 <= color < 2**n_qubits):
        raise DecompositionError(
            f"color {color} outside 1..{2 ** n_qubits - 1} "
            "(color 0 needs no rotation)"
        )
    if part not in (REAL, IMAG):
        raise DecompositionError(f"unknown part {part!r}")
    k = most_significant_bit(color)
    idx = np.arange(2**n_qubits)
    fanout = np.where((idx >> k) & 1 == 1, idx ^ (color ^ (1 << k)), idx)
    return RotationCircuit(color=color, part=part, k=k, fanout=fanout)


@dataclass(frozen=True)
class RotationCircuit:
    """S^dag on k (imaginary part only), the CX fan-out from k to the other
    set bits of ``color`` as the basis gather ``fanout``, then H on k."""

    color: int
    part: str
    k: int
    fanout: np.ndarray

    @property
    def gate_count(self) -> int:
        """popcount(color) - 1 CX gates, one H, and S^dag for the imaginary part."""
        return self.color.bit_count() + (self.part == IMAG)

    def apply(self, state: np.ndarray) -> np.ndarray:
        return rotate_pieces(state, group_rotations([self]))[0]


class PieceRotations(NamedTuple):
    """The rotations of a sequence of pieces, grouped for ``rotate_pieces``:
    the positions of the unrotated (color 0) pieces, and per (k, part) the
    positions of its pieces with their fan-outs stacked as one (g, dim)
    gather."""

    count: int
    unrotated: np.ndarray
    groups: tuple[tuple[int, str, np.ndarray, np.ndarray], ...]


def group_rotations(circuits: Sequence[RotationCircuit | None]) -> PieceRotations:
    """Group piece rotations (None for color 0) by their (k, part)."""
    positions: dict[tuple[int, str] | None, list[int]] = {}
    for pos, circuit in enumerate(circuits):
        key = None if circuit is None else (circuit.k, circuit.part)
        positions.setdefault(key, []).append(pos)
    unrotated = np.array(positions.pop(None, []), dtype=int)
    groups = tuple(
        (k, part, np.array(rows), np.stack([circuits[row].fanout for row in rows]))
        for (k, part), rows in positions.items())
    return PieceRotations(len(circuits), unrotated, groups)


def rotate_pieces(states: np.ndarray, rotations: PieceRotations) -> np.ndarray:
    """Every piece's rotation applied to a state, or to every row of a stack
    of states: a complex (pieces, *states.shape) array whose entry p is
    rotated by piece p.

    One pass per (k, part) group: S^dag on k once for an imaginary group,
    all of the group's fan-outs as one gather, then one H on k over the
    gathered stack.  These are the elementwise operations of rotating piece
    by piece, so the result is the same bit for bit.
    """
    flat = states.reshape(-1, states.shape[-1])
    out = np.empty((rotations.count, *flat.shape), dtype=complex)
    out[rotations.unrotated] = flat
    for k, part, rows, fanouts in rotations.groups:
        source = apply_single(flat, k, _S_DAG) if part == IMAG else flat
        out[rows] = apply_single(source[:, fanouts], k, _HADAMARD).swapaxes(0, 1)
    return out.reshape(rotations.count, *states.shape)


def _single_stack(matrix) -> MatrixStack:
    """One square matrix, dense or scipy-sparse, as a one-segment stack."""
    coo = sparse.coo_matrix(matrix)
    return MatrixStack(np.zeros(coo.nnz), coo.row, coo.col, coo.data, 1, coo.shape[0])


def eigen_diagonal(matrix, color: int, part: str) -> np.ndarray:
    """Diagonal of the rotated color-c piece of a matrix supported on color c."""
    stack = _single_stack(matrix)
    if np.any(stack.rows ^ stack.cols != color):
        raise DecompositionError(f"matrix has support outside color {color}")
    if color == 0 and part != REAL:
        raise DecompositionError("color 0 has no imaginary part")
    diagonals = piece_diagonals(stack).get((color, part))
    return np.zeros(stack.dim) if diagonals is None else diagonals[0]


def _piece_entries(stack: MatrixStack):
    """(color, part, k_c, segments, rows, values) per piece of the stacked
    matrices, real parts by ascending color first, then imaginary parts.

    Only the entries whose row has bit k_c clear are read: the piece diagonal
    of segment s holds ``values`` at ``rows`` and, for c >= 1, their
    negation at ``rows | 2^k_c``.
    """
    colors = stack.rows ^ stack.cols
    for part in (REAL, IMAG):
        for c in np.unique(colors).tolist():
            if c == 0 and part == IMAG:
                continue
            k = most_significant_bit(c) if c else None
            sel = colors == c
            if c:
                sel &= (stack.rows >> k) & 1 == 0
            values = stack.values[sel]
            yield (c, part, k, stack.segments[sel], stack.rows[sel],
                   values.real if part == REAL else -values.imag)


def piece_diagonals(stack: MatrixStack) -> dict[tuple[int, str], np.ndarray]:
    """(color, part) -> (count, dim) array of the rotated piece diagonals of
    every stacked matrix, for the pieces nonzero in at least one of them."""
    out: dict[tuple[int, str], np.ndarray] = {}
    for color, part, k, segments, rows, values in _piece_entries(stack):
        if not np.any(values):
            continue
        diagonals = np.zeros((stack.count, stack.dim))
        diagonals[segments, rows] = values
        if color:
            diagonals[segments, rows | (1 << k)] = -values
        out[(color, part)] = diagonals
    return out


class PieceEntries(NamedTuple):
    """The nonzero entries of one piece's rotated diagonals over a stack:
    the entry of segment s at basis index i sits at the flat key
    ``s * dim + i``; keys are strictly increasing and never empty."""

    keys: np.ndarray
    values: np.ndarray
    dim: int

    def lookup(self, segments: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Diagonal values of the given segments at the given basis indices,
        pair by pair; pairs without an entry read 0."""
        keys = segments * self.dim + indices
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[pos] == keys, self.values[pos], 0.0)


def joined_entries(pieces: Sequence[PieceEntries], count: int, dim: int) -> PieceEntries:
    """The entries of several pieces over stacks of ``count`` segments of
    dimension ``dim`` as one ``PieceEntries``, whose segment p * count + s
    is segment s of piece p."""
    keys = [entries.keys + p * count * dim for p, entries in enumerate(pieces)]
    return PieceEntries(np.concatenate([np.empty(0, dtype=int), *keys]),
                        np.concatenate([np.empty(0), *(e.values for e in pieces)]), dim)


def piece_entries(stack: MatrixStack) -> dict[tuple[int, str], PieceEntries]:
    """(color, part) -> the sparse rotated piece diagonals of every stacked
    matrix, for the same pieces and in the same order as ``piece_diagonals``."""
    out: dict[tuple[int, str], PieceEntries] = {}
    for color, part, k, segments, rows, values in _piece_entries(stack):
        if not np.any(values):
            continue
        keys = segments * stack.dim + rows
        if color:
            keys = np.concatenate([keys, keys | (1 << k)])
            values = np.concatenate([values, -values])
        nonzero = values != 0
        keys, values = keys[nonzero], values[nonzero]
        order = np.argsort(keys, kind="stable")
        out[(color, part)] = PieceEntries(keys[order], values[order], stack.dim)
    return out


def piece_norms(stack: MatrixStack) -> dict[tuple[int, str], float]:
    """(color, part) -> max_m ||M_m^c||, the largest spectral norm of that
    piece over the stacked matrices, for the pieces nonzero in at least one."""
    return {(color, part): float(np.max(np.abs(values)))
            for color, part, _, _, _, values in _piece_entries(stack)
            if np.any(values)}


def union_colors(decomposition: "ColorDecomposition", pieces) -> set[int]:
    """Colors of a cost decomposition together with those of the (color,
    part) keys of stacked constraint pieces: one rotation per color."""
    return decomposition.colors | {color for color, _ in pieces}


@dataclass(frozen=True)
class ColorPiece:
    """One simultaneously measurable piece: a color, a part, the real
    diagonal seen after that color's rotation, and the rotation itself
    (None for color 0, which is diagonal already)."""

    color: int
    part: str
    diagonal: np.ndarray
    circuit: RotationCircuit | None

    @property
    def norm(self) -> float:
        """Spectral norm of the piece (max |eigenvalue|)."""
        return float(np.max(np.abs(self.diagonal))) if len(self.diagonal) else 0.0


@dataclass(frozen=True)
class ColorDecomposition:
    """All nonzero pieces of one Hermitian observable, real pieces first
    (ascending color) then imaginary ones; at most 2C - 1 pieces for C
    occupied colors."""

    n_qubits: int
    pieces: tuple[ColorPiece, ...]

    @property
    def colors(self) -> set[int]:
        return {p.color for p in self.pieces}

    @cached_property
    def rotations(self) -> PieceRotations:
        """The pieces' rotations, grouped once for ``rotate_pieces``."""
        return group_rotations([p.circuit for p in self.pieces])

    @property
    def piece_norms(self) -> np.ndarray:
        return np.array([p.norm for p in self.pieces])

    @property
    def sum_norm_sq(self) -> float:
        return float(np.sum(self.piece_norms**2))

    def reconstruct(self) -> np.ndarray:
        """Rebuild the source matrix exactly from the piece diagonals."""
        dim = 2**self.n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        idx = np.arange(dim)
        for piece in self.pieces:
            if piece.color == 0:
                out[idx, idx] += piece.diagonal
                continue
            k = piece.circuit.k
            low = idx[(idx >> k) & 1 == 0]
            vals = piece.diagonal[low]
            if piece.part == REAL:
                out[low, low ^ piece.color] += vals
                out[low ^ piece.color, low] += vals
            else:
                out[low, low ^ piece.color] += -1j * vals
                out[low ^ piece.color, low] += 1j * vals
        return out


def decompose(matrix, tol: float = 1e-10) -> ColorDecomposition:
    """Split a Hermitian matrix, dense or scipy-sparse, into its nonzero
    color pieces.

    Pieces whose diagonal is identically zero are omitted, so no shots are
    ever spent on structurally zero expectations.
    """
    shape = np.shape(matrix)
    dim = shape[0]
    n_qubits = int(math.log2(dim))
    if 2**n_qubits != dim or shape != (dim, dim):
        raise DecompositionError(f"matrix must be square with power-of-two size, got {shape}")
    stack = _single_stack(matrix)
    residual = stack.hermitian_residuals()[0]
    if residual > tol:
        raise DecompositionError(f"matrix not Hermitian (residual {residual:.2e})")
    pieces = tuple(
        ColorPiece(color, part, diagonals[0],
                   rotation_circuit(color, n_qubits, part) if color else None)
        for (color, part), diagonals in piece_diagonals(stack).items())
    return ColorDecomposition(n_qubits, pieces)


class EstimateReport(NamedTuple):
    estimate: float
    per_piece: list[tuple[ColorPiece, float]]


class VarianceReport(NamedTuple):
    variance: float
    bound: float


def estimate_expectation(
    state: np.ndarray,
    decomposition: ColorDecomposition,
    shots_per_piece: int,
    seed,
) -> EstimateReport:
    """Sampled estimate of <psi|M|psi> from the color pieces.

    The state is rotated under all pieces at once (``rotate_pieces``).  Per
    piece: sample the computational basis of its rotated state with an
    independent seed derived from ``seed`` and the piece index, and average
    the piece diagonal over the outcomes.  The estimate is unbiased and
    reproducible.
    """
    if shots_per_piece < 1:
        raise DecompositionError("shots_per_piece must be >= 1")
    total = 0.0
    per_piece: list[tuple[ColorPiece, float]] = []
    rotated = rotate_pieces(state, decomposition.rotations)
    for k, (piece, psi) in enumerate(zip(decomposition.pieces, rotated)):
        counts = sample_basis(psi, shots_per_piece, chain_seed(seed, k))
        value = float(counts @ piece.diagonal) / shots_per_piece
        per_piece.append((piece, value))
        total += value
    return EstimateReport(total, per_piece)


def estimator_variance(
    decomposition: ColorDecomposition,
    state: np.ndarray,
    shots_per_piece: int,
) -> VarianceReport:
    """Exact variance of the sampled estimator and its norm upper bound.

    variance = (1/S) sum_c ( <psi_c|L^2|psi_c> - <psi_c|L|psi_c>^2 )
    bound    = (1/S) sum_c ||M^c||^2
    """
    if shots_per_piece < 1:
        raise DecompositionError("shots_per_piece must be >= 1")
    variance = 0.0
    bound = 0.0
    rotated_probs = np.abs(rotate_pieces(state, decomposition.rotations)) ** 2
    for piece, probs in zip(decomposition.pieces, rotated_probs):
        mean = float(probs @ piece.diagonal)
        second = float(probs @ piece.diagonal**2)
        variance += second - mean**2
        bound += piece.norm**2
    return VarianceReport(variance / shots_per_piece, bound / shots_per_piece)
