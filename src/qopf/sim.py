"""Exact dense statevector simulation of the layered ansatz circuits.

States are complex vectors of length 2**n_qubits with qubit 0 as the least
significant bit of the basis index (so basis index arithmetic matches the
XOR bookkeeping of the measurement module).  All simulation is exact in
double precision; shot noise enters only through the sampled estimators of
``model`` and ``xbm``, each call drawing from one generator seeded through
``rng``.

The ansatz runs one operation per token layer: a rotation layer applies
one rx, ry or rz to every qubit, and a CX chain is one precomputed basis
gather, since CX gates only permute basis states.  ``rotation_factors``
builds the factors of all of a circuit's rotation layers in one broadcast
pass per rotation kind (a phase vector for rz, a Kronecker pair for rx and
ry), for one parameter vector or a (B, P) stack.  ``prepare`` then costs
one phase multiply or one matrix-product pair per layer, and the same
factors serve ``reverse_sweep``, which walks the layers backwards, reads
all n derivatives of a layer at its boundary and undoes it with the
factors' conjugate transposes, and ``shift_states``, which prepares a
circuit's base state and all 2P parameter-shift states as one stack.  The
single gates of the ``xbm`` measurement rotations go through the 2x2
primitive ``apply_single``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import ValidationError


def chain_seed(seed, *tags) -> list[int]:
    """Flatten a base seed plus derivation tags into one entropy list, so
    independent streams are reproducible functions of (seed, role).  Seeds
    must differ once zero-padded to four words, as ``SeedSequence`` pads
    shorter entropy with zeros: ``[5, 0]`` draws what ``5`` draws."""
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
                raise ValidationError(f"unknown layer token {token!r}")
        if self.n_qubits < 1 or self.layers < 0:
            raise ValidationError("need at least one qubit and layers >= 0")

    @classmethod
    def from_row(cls, row: int, n_qubits: int, layers: int) -> "AnsatzSpec":
        if row not in ARCHITECTURES:
            raise ValidationError(f"architecture row {row} not in 1..8")
        return cls(n_qubits, ARCHITECTURES[row], layers, row=row)

    @property
    def rotations_per_layer(self) -> int:
        return sum(1 for t in self.template if t in ROTATIONS)

    @property
    def param_count(self) -> int:
        return self.rotations_per_layer * self.layers * self.n_qubits


def rotation_matrix(kind: str, angle: float) -> np.ndarray:
    """2x2 matrix of the rotation exp(-i angle G / 2), G the Pauli of ``kind``."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        return np.array([[c, -s], [s, c]])
    return np.array([[c - 1j * s, 0], [0, c + 1j * s]])  # rz


def apply_single(state: np.ndarray, qubit: int, u: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Apply the 2x2 matrix ``u`` to ``qubit`` of a state, or of every row of
    a stack of states, into a new array or the contiguous array ``out``."""
    view = state.reshape(*state.shape[:-1], -1, 2, 2**qubit)
    target = np.empty_like(view) if out is None else out.reshape(view.shape)
    target[..., 0, :] = u[0, 0] * view[..., 0, :] + u[0, 1] * view[..., 1, :]
    target[..., 1, :] = u[1, 0] * view[..., 0, :] + u[1, 1] * view[..., 1, :]
    return target.reshape(state.shape)


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


class _Plan(NamedTuple):
    """The op sequence of one spec: every token in application order, and
    for each rotation kind the rotation-layer indices (rows of the
    parameter matrix) that carry it."""

    tokens: tuple[str, ...]
    rows: tuple[tuple[str, np.ndarray], ...]


@functools.cache
def _plan(spec: AnsatzSpec) -> _Plan:
    tokens = spec.template * spec.layers
    kinds = [t for t in tokens if t != "cx"]
    rows = tuple((kind, np.array([r for r, k in enumerate(kinds) if k == kind]))
                 for kind in ROTATIONS if kind in kinds)
    return _Plan(tokens, rows)


def _kind_factors(kind: str, angles: np.ndarray):
    """Factors of R_kind(angles[..., q]) on every qubit q, for any leading
    shape of ``angles`` (..., n), all built in one broadcast pass.

    rz is one phase vector (..., 2^n).  rx and ry are the pair (U_hi,
    U_lo^T) with the layer equal to U_hi X U_lo^T on a state viewed as
    (2^b, 2^a), b = n // 2 high by a = n - b low qubits, each U the
    Kronecker product of its half's 2x2 rotations, both built at once by
    broadcast outer products.  For odd n the high half gets one extra
    zero-angle factor on top: I (x) U_hi, whose leading 2^b block is U_hi.
    """
    n = angles.shape[-1]
    lead = angles.shape[:-1]
    if kind == "rz":
        return np.exp(-0.5j * (angles[..., None, :] * _layout(n).z).sum(axis=-1))
    a = n - n // 2
    padded = np.zeros((*lead, 2 * a))
    padded[..., :n] = angles
    c, s = np.cos(padded / 2), np.sin(padded / 2)
    entries = (c, -1j * s, -1j * s, c) if kind == "rx" else (c, -s, s, c)
    # mats[..., 0, q] holds the low half's 2x2 matrices, mats[..., 1, q] the high half's
    mats = np.stack(entries, axis=-1).reshape(*lead, 2, a, 2, 2)
    krons = mats[..., 0, :, :]
    for q in range(1, a):
        u, size = mats[..., q, :, :], 2 * krons.shape[-1]
        krons = (u[..., :, None, :, None] * krons[..., None, :, None, :]).reshape(
            *lead, 2, size, size)
    hi = 2 ** (n - a)
    return krons[..., 1, :hi, :hi], krons[..., 0, :, :].swapaxes(-1, -2)


def _adjoint(kind: str, factor):
    """Factors of the inverse layer: U(-theta) = U(theta)^dag exactly."""
    if kind == "rz":
        return factor.conj()
    return tuple(u.conj().swapaxes(-1, -2) for u in factor)


def _apply(states: np.ndarray, kind: str, factor) -> np.ndarray:
    """One rotation layer, given its factors, on a state or a stack of
    states: one phase multiply for rz, U_hi X U_lo^T on every state viewed
    as a (2^b, 2^a) matrix X for rx and ry.  Factors with a leading stack
    shape pair with the states row by row; one factor pair rotates them
    all."""
    if kind == "rz":
        return states * factor
    hi, lo_t = factor
    view = states.reshape(-1, hi.shape[-1], lo_t.shape[-1])
    return (hi @ view @ lo_t).reshape(states.shape)


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
    """The parameters as a (..., -1, n_qubits) array, one row per rotation
    layer in application order, for one vector or a (B, P) stack."""
    params = np.asarray(params, dtype=float)
    if params.ndim not in (1, 2) or params.shape[-1] != spec.param_count:
        raise ValidationError(
            f"expected {spec.param_count} parameters, got {params.shape}"
        )
    return params.reshape(*params.shape[:-1], -1, spec.n_qubits)


def rotation_factors(spec: AnsatzSpec, params: np.ndarray) -> list:
    """The factors of every rotation layer of the ansatz, in application
    order, for one parameter vector or a (B, P) stack of them: one
    ``_kind_factors`` pass per rotation kind over all layers of that kind.
    ``prepare``, ``reverse_sweep`` and ``shift_states`` take them, so one
    circuit's factors are built once."""
    layers = np.moveaxis(_checked_params(spec, params), -2, 0)
    factors = [None] * len(layers)
    for kind, rows in _plan(spec).rows:
        built = _kind_factors(kind, layers[rows])
        for i, r in enumerate(rows):
            factors[r] = built[i] if kind == "rz" else (built[0][i], built[1][i])
    return factors


def prepare(spec: AnsatzSpec, params: np.ndarray, factors: list | None = None) -> np.ndarray:
    """State produced by the ansatz on |0...0>, or the (B, 2^n) states of a
    (B, P) parameter stack: one rotation layer per rotation token and one
    basis gather per CX chain.  ``factors`` are ``rotation_factors(spec,
    params)``, built here when not given."""
    if factors is None:
        factors = rotation_factors(spec, params)
    state = np.zeros((*np.shape(params)[:-1], 2**spec.n_qubits), dtype=complex)
    state[..., 0] = 1.0
    chain = _layout(spec.n_qubits).chain
    layer = iter(factors)
    for token in _plan(spec).tokens:
        state = state[..., chain] if token == "cx" else _apply(state, token, next(layer))
    return state


def reverse_sweep(spec: AnsatzSpec, factors: list, state: np.ndarray,
                  costate: np.ndarray) -> np.ndarray:
    """Im <costate_k| G_k |state_k> for every rotation k of the ansatz.

    ``state`` is the prepared state |psi(params)> and ``factors`` are
    ``rotation_factors(spec, params)``, as ``prepare`` used them; state_k
    and costate_k are ``state`` and ``costate`` with every op after
    rotation k undone, and G_k is that rotation's Pauli generator.  For costate = O |psi> with O
    Hermitian, entry k is d<psi|O|psi>/d params_k, so one backward pass
    gives the whole gradient (adjoint differentiation; Jones & Gacon,
    arXiv:2009.02823).

    The sweep walks the token layers backwards.  A layer's rotations act on
    distinct qubits, so each G_k commutes with the layer's other rotations
    and all n entries of the layer are read at once at its output boundary
    (``layer_derivatives``); the conjugate transposes of the layer's
    factors then undo the whole layer on the (state, costate) pair.
    """
    unchain = _layout(spec.n_qubits).unchain
    pair = np.stack([state, costate])
    out = np.zeros((len(factors), spec.n_qubits))
    r = len(factors)
    for token in reversed(_plan(spec).tokens):
        if token == "cx":
            pair = pair[:, unchain]
            continue
        r -= 1
        out[r] = layer_derivatives(*pair, token)
        pair = _apply(pair, token, _adjoint(token, factors[r]))
    return out.ravel()


_HALF_TURN_SIGNS = np.array([1.0, -1.0])[:, None]


def _half_turns(states: np.ndarray, kind: str, layout: _Layout) -> np.ndarray:
    """R_q(+-pi/2) = (I -+ i G_q) / sqrt(2) on a (n, 2, 2^n) stack: qubit q
    of rows [q, 0] turned by +pi/2, of rows [q, 1] by -pi/2."""
    z = layout.z.T[:, None, :]
    if kind == "rz":
        generated = z * states
    else:
        flip = np.broadcast_to(layout.flip[:, None, :], states.shape)
        generated = np.take_along_axis(states, flip, axis=-1)
        if kind == "ry":
            generated = -1j * z * generated
    return (states - 1j * _HALF_TURN_SIGNS * generated) * math.sqrt(0.5)


def shift_states(spec: AnsatzSpec, factors: list) -> np.ndarray:
    """The base state and the parameter-shift states of every parameter as
    one (1 + 2P, 2^n) stack, ``factors`` being ``rotation_factors(spec,
    params)``: row 0 is ``prepare(spec, params, factors)``, row 1 + 2j + s
    the state at params with entry j raised (s = 0) or lowered (s = 1) by
    pi/2 (the r = 1/2 shift rule of Pauli-generated rotations).

    A shift changes one angle, so only its layer differs from the base
    circuit, and there by R_q(+-pi/2), which commutes with the layer.  The
    stack therefore runs the base factors alone, never B x L of them: at
    each rotation layer the 2n rows shifted in it start as copies of the
    base state, the layer runs on every row started so far, and
    ``_half_turns`` turns the new rows.  Rows start in layer order, so the
    started rows are a prefix of the stack.
    """
    n = spec.n_qubits
    layout = _layout(n)
    states = np.zeros((1 + 2 * len(factors) * n, 2**n), dtype=complex)
    states[0, 0] = 1.0
    live = 1
    layer = iter(factors)
    for token in _plan(spec).tokens:
        if token == "cx":
            states[:live] = states[:live, layout.chain]
            continue
        states[live:live + 2 * n] = states[0]
        live += 2 * n
        states[:live] = _apply(states[:live], token, next(layer))
        started = states[live - 2 * n:live].reshape(n, 2, -1)
        states[live - 2 * n:live] = _half_turns(started, token, layout).reshape(2 * n, -1)
    return states
