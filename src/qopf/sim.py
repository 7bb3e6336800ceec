"""Exact dense statevector simulation of the layered ansatz circuits.

States are complex vectors of length 2**n_qubits with qubit 0 as the least
significant bit of the basis index (so basis index arithmetic matches the
XOR bookkeeping of the measurement module).  All simulation is exact in
double precision; shot noise enters only through ``sample_basis``.

There is one gate path: every single-qubit gate, here and in the
measurement rotations of ``xbm``, goes through the 2x2 primitive
``apply_single``, and every CX (the ansatz chain here, the color fan-out
in ``xbm``) is a precomputed basis gather, since CX gates only permute
computational basis states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def chain_seed(seed, *tags) -> list[int]:
    """Flatten a base seed plus derivation tags into one entropy list, so
    independent streams are reproducible functions of (seed, role)."""
    base = list(seed) if isinstance(seed, (list, tuple)) else [int(seed)]
    return base + [int(t) for t in tags]


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


_CHAIN_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _chain_permutation(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis gathers applying and undoing the CX chain (control q, target
    q+1, q = 0..n-2); CX gates permute computational basis states, so a
    whole chain is one precomputed index gather."""
    cached = _CHAIN_CACHE.get(n)
    if cached is None:
        idx = np.arange(2**n)
        for q in range(n - 1):
            controlled = (idx >> q) & 1 == 1
            idx = np.where(controlled, idx ^ (1 << (q + 1)), idx)
        # idx maps input basis -> output basis, so it gathers the inverse;
        # invert it for the forward amplitude gather
        forward = np.empty_like(idx)
        forward[idx] = np.arange(2**n)
        cached = _CHAIN_CACHE[n] = (forward, idx)
    return cached


# Pauli generators G of the rotations R(t) = exp(-i t G / 2)
_GENERATORS = {
    "rx": np.array([[0, 1], [1, 0]], dtype=complex),
    "ry": np.array([[0, -1j], [1j, 0]]),
    "rz": np.array([[1, 0], [0, -1]], dtype=complex),
}


def ansatz_ops(spec: AnsatzSpec):
    """The ansatz in application order as (token, qubit, parameter index)
    triples; a "cx" op is the whole chain, with qubit and index None."""
    k = 0
    for _ in range(spec.layers):
        for token in spec.template:
            if token == "cx":
                yield token, None, None
                continue
            for q in range(spec.n_qubits):
                yield token, q, k
                k += 1


def _checked_params(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.param_count,):
        raise SimulationError(
            f"expected {spec.param_count} parameters, got {params.shape}"
        )
    return params


def prepare(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    """State produced by the ansatz on |0...0>: the ops of ``ansatz_ops``
    in order, each rotation through the 2x2 primitive and each CX chain as
    one basis gather."""
    params = _checked_params(spec, params)
    n = spec.n_qubits
    chain, _ = _chain_permutation(n)
    state = zero_state(n)
    for token, q, k in ansatz_ops(spec):
        if token == "cx":
            state = state[chain]
        else:
            state = apply_single(state, q, rotation_matrix(token, params[k]))
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
    """
    params = _checked_params(spec, params)
    _, unchain = _chain_permutation(spec.n_qubits)
    pair = np.stack([state, costate])
    out = np.zeros(spec.param_count)
    for token, q, k in reversed(list(ansatz_ops(spec))):
        if token == "cx":
            pair = pair[:, unchain]
            continue
        out[k] = np.vdot(pair[1], apply_single(pair[0], q, _GENERATORS[token])).imag
        pair = apply_single(pair, q, rotation_matrix(token, params[k]).conj().T)
    return out


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
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs)


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
