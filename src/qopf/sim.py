"""Exact dense statevector simulation of the layered ansatz circuits.

States are complex vectors of length 2**n_qubits with qubit 0 as the least
significant bit of the basis index (so basis index arithmetic matches the
XOR bookkeeping of the measurement module).  All simulation is exact in
double precision; shot noise enters only through ``sample_basis`` and the
sampled estimators of ``model``, each stream seeded through ``rng``.

The ansatz runs one operation per token layer: ``rotation_layer`` applies
one rx, ry or rz to every qubit, and a CX chain is one precomputed basis
gather, since CX gates only permute basis states.  ``reverse_sweep`` walks
the layers backwards, reading all n derivatives of a layer at its boundary
before undoing it.  The single gates of the ``xbm`` measurement rotations
go through the 2x2 primitive ``apply_single``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def chain_seed(seed, *tags) -> list[int]:
    """Flatten a base seed plus derivation tags into one entropy list, so
    independent streams are reproducible functions of (seed, role)."""
    base = list(seed) if isinstance(seed, (list, tuple)) else [int(seed)]
    return base + [int(t) for t in tags]


def rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, with list entropy of ints in
    [0, 2^32) passed as a uint32 array: the same ``SeedSequence`` and the
    same draws at about half the seeding cost.  Any other seed is passed
    through unchanged."""
    if isinstance(seed, list) and all(type(t) is int and 0 <= t < 2**32 for t in seed):
        seed = np.array(seed, dtype=np.uint32)
    return np.random.default_rng(seed)


ROTATIONS = ("rx", "ry", "rz")

# One layer of each tested architecture, as the gate-token sequence applied
# to every qubit (rotations) or along the linear chain (cx).
ARCHITECTURES: dict[int, tuple[str, ...]] = {
    1: ("rx", "cx"),
    2: ("ry", "cx"),
    3: ("rz", "cx"),
    4: ("rx", "cx", "ry", "cx"),
    5: ("rx", "cx", "rz", "cx"),
    6: ("ry", "cx", "rz", "cx"),
    7: ("rx", "cx", "ry", "cx", "rz", "cx"),
    8: ("rx", "ry", "rz", "cx"),
}

# Layer counts used when fitting each architecture (primal, dual).
DEFAULT_LAYERS: dict[int, tuple[int, int]] = {
    1: (20, 35), 2: (20, 35), 3: (20, 35),
    4: (10, 18), 5: (10, 18), 6: (10, 18),
    7: (6, 12), 8: (7, 12),
}


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class AnsatzSpec:
    """Layered circuit: ``layers`` repetitions of a per-layer token sequence.

    Rotation tokens act on every qubit with one fresh parameter each; "cx"
    entangles the linear chain q -> q+1.  ``param_count`` therefore equals
    (#rotation tokens) * layers * n_qubits.
    """

    n_qubits: int
    template: tuple[str, ...]
    layers: int
    row: int | None = None

    def __post_init__(self):
        for token in self.template:
            if token != "cx" and token not in ROTATIONS:
                raise SimulationError(f"unknown layer token {token!r}")
        if self.n_qubits < 1 or self.layers < 0:
            raise SimulationError("need at least one qubit and layers >= 0")

    @classmethod
    def from_row(cls, row: int, n_qubits: int, layers: int) -> "AnsatzSpec":
        if row not in ARCHITECTURES:
            raise SimulationError(f"architecture row {row} not in 1..8")
        return cls(n_qubits, ARCHITECTURES[row], layers, row=row)

    @property
    def rotations_per_layer(self) -> int:
        return sum(1 for t in self.template if t in ROTATIONS)

    @property
    def param_count(self) -> int:
        return self.rotations_per_layer * self.layers * self.n_qubits


def zero_state(n_qubits: int) -> np.ndarray:
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def rotation_matrix(kind: str, angle: float) -> np.ndarray:
    """2x2 matrix of the rotation exp(-i angle G / 2), G the Pauli of ``kind``."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        return np.array([[c, -s], [s, c]])
    return np.array([[c - 1j * s, 0], [0, c + 1j * s]])  # rz


def apply_single(state: np.ndarray, qubit: int, u: np.ndarray) -> np.ndarray:
    """Apply the 2x2 matrix ``u`` to ``qubit`` of a state, or of every row of
    a stack of states, returning a new array."""
    view = state.reshape(-1, 2, 2**qubit)
    out = np.empty_like(view)
    out[:, 0, :] = u[0, 0] * view[:, 0, :] + u[0, 1] * view[:, 1, :]
    out[:, 1, :] = u[1, 0] * view[:, 0, :] + u[1, 1] * view[:, 1, :]
    return out.reshape(state.shape)


def _chain_permutation(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis gathers applying and undoing the CX chain (control q, target
    q+1, q = 0..n-2); CX gates permute computational basis states, so a
    whole chain is one index gather."""
    idx = np.arange(2**n)
    for q in range(n - 1):
        controlled = (idx >> q) & 1 == 1
        idx = np.where(controlled, idx ^ (1 << (q + 1)), idx)
    # idx maps input basis -> output basis, so it gathers the inverse;
    # invert it for the forward amplitude gather
    forward = np.empty_like(idx)
    forward[idx] = np.arange(2**n)
    return forward, idx


class _Layout(NamedTuple):
    """Basis tables of one qubit count: the CX chain gathers, the (dim, n)
    qubit signs z (-1 where bit q of the index is set, else +1) and the
    (n, dim) bit-flip gather flip[q, i] = i ^ 2^q."""

    chain: np.ndarray
    unchain: np.ndarray
    z: np.ndarray
    flip: np.ndarray


@functools.cache
def _layout(n: int) -> _Layout:
    idx, bits = np.arange(2**n), 1 << np.arange(n)
    z = np.where(idx[:, None] & bits, -1.0, 1.0)
    return _Layout(*_chain_permutation(n), z, idx ^ bits[:, None])


def rotation_layer(states: np.ndarray, kind: str, angles: np.ndarray) -> np.ndarray:
    """Apply R_kind(angles[q]) to every qubit q of a state, or of every row
    of a stack of states, in one operation; negated angles undo it.

    rz is one phase vector.  rx and ry compute U_hi X U_lo^T on the states
    viewed as (..., 2^b, 2^a), b = n // 2 high by a = n - b low qubits, each
    U the Kronecker product of its half's 2x2 rotations, both built at once
    by broadcast outer products.  For odd n the high half gets one extra
    zero-angle factor on top: I (x) U_hi, whose leading 2^b block is U_hi.
    """
    n = len(angles)
    if kind == "rz":
        return states * np.exp(-0.5j * (_layout(n).z @ angles))
    a = n - n // 2
    padded = np.zeros(2 * a)
    padded[:n] = angles
    c, s = np.cos(padded / 2), np.sin(padded / 2)
    entries = (c, -1j * s, -1j * s, c) if kind == "rx" else (c, -s, s, c)
    # mats[0] holds the low half's 2x2 matrices, mats[1] the high half's
    mats = np.stack(entries, axis=-1).reshape(2, a, 2, 2)
    krons = mats[:, 0]
    for q in range(1, a):
        u, size = mats[:, q], 2 * krons.shape[-1]
        krons = (u[:, :, None, :, None] * krons[:, None, :, None, :]).reshape(2, size, size)
    hi = 2 ** (n - a)
    view = states.reshape(-1, hi, 2**a)
    return (krons[1, :hi, :hi] @ view @ krons[0].T).reshape(states.shape)


def layer_derivatives(state: np.ndarray, costate: np.ndarray, kind: str) -> np.ndarray:
    """Im <costate| G_q |state> for every qubit q, G_q the Pauli of ``kind``
    on q: Im Z^T (conj(costate) * state) for rz, Im state[flip] @
    conj(costate) for rx, and for ry Im (-i Z^T * state[flip]) @
    conj(costate), the negated real part of the same product without -i."""
    layout = _layout(state.shape[-1].bit_length() - 1)
    if kind == "rz":
        return layout.z.T @ (costate.conj() * state).imag
    flipped = state[layout.flip]
    if kind == "rx":
        return (flipped @ costate.conj()).imag
    return -((layout.z.T * flipped) @ costate.conj()).real


def _checked_params(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    """The parameters as a (-1, n_qubits) matrix, one row per rotation
    layer in application order."""
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.param_count,):
        raise SimulationError(
            f"expected {spec.param_count} parameters, got {params.shape}"
        )
    return params.reshape(-1, spec.n_qubits)


def prepare(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    """State produced by the ansatz on |0...0>: one ``rotation_layer`` per
    rotation token and one basis gather per CX chain."""
    angles = iter(_checked_params(spec, params))
    chain = _layout(spec.n_qubits).chain
    state = zero_state(spec.n_qubits)
    for token in spec.template * spec.layers:
        state = state[chain] if token == "cx" else rotation_layer(state, token, next(angles))
    return state


def reverse_sweep(spec: AnsatzSpec, params: np.ndarray, state: np.ndarray,
                  costate: np.ndarray) -> np.ndarray:
    """Im <costate_k| G_k |state_k> for every rotation k of the ansatz.

    ``state`` is the prepared state |psi(params)>; state_k and costate_k are
    ``state`` and ``costate`` with every op after rotation k undone, and G_k
    is that rotation's Pauli generator.  For costate = O |psi> with O
    Hermitian, entry k is d<psi|O|psi>/d params_k, so one backward pass
    gives the whole gradient (adjoint differentiation; Jones & Gacon,
    arXiv:2009.02823).

    The sweep walks the token layers backwards.  A layer's rotations act on
    distinct qubits, so each G_k commutes with the layer's other rotations
    and all n entries of the layer are read at once at its output boundary
    (``layer_derivatives``); one inverse layer then undoes the whole layer
    on the (state, costate) pair.
    """
    angles = _checked_params(spec, params)
    unchain = _layout(spec.n_qubits).unchain
    pair = np.stack([state, costate])
    out = np.zeros_like(angles)
    r = len(angles)
    for token in reversed(spec.template * spec.layers):
        if token == "cx":
            pair = pair[:, unchain]
            continue
        r -= 1
        out[r] = layer_derivatives(*pair, token)
        pair = rotation_layer(pair, token, -angles[r])
    return out.ravel()


def exact_expectation(state: np.ndarray, observable: np.ndarray) -> float:
    """psi^dag M psi for a Hermitian observable; the brute-force oracle all
    sampled estimators are tested against."""
    m = np.asarray(observable)
    if m.shape != (len(state), len(state)):
        raise SimulationError("observable dimension does not match the state")
    residual = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if residual > 1e-10:
        raise SimulationError(f"observable not Hermitian (residual {residual:.2e})")
    return float(np.real(np.vdot(state, m @ state)))


def sample_basis(state: np.ndarray, shots: int, seed) -> np.ndarray:
    """Multinomial computational-basis counts (length 2**n), deterministic
    per seed."""
    if shots < 1:
        raise SimulationError("shots must be >= 1")
    probs = np.abs(np.asarray(state)) ** 2
    probs = probs / probs.sum()
    return rng(seed).multinomial(shots, probs)


def shift_points(params: np.ndarray, index: int) -> tuple[np.ndarray, np.ndarray]:
    """The two parameter-shift evaluation points for entry ``index``
    (+- pi/2, the r = 1/2 convention for Pauli-generated rotations)."""
    params = np.asarray(params, dtype=float)
    if not (0 <= index < len(params)):
        raise SimulationError(f"parameter index {index} out of range")
    plus = params.copy()
    minus = params.copy()
    plus[index] += math.pi / 2
    minus[index] -= math.pi / 2
    return plus, minus
