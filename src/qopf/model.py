"""The doubly variational OPF model.

Primal voltages are a scaled circuit state v = alpha |psi(theta)>; dual
multipliers are a scaled probability mass function lambda_m = beta^2
|xi_m(phi)|^2, which keeps them nonnegative by construction.  The Lagrangian
then splits into three observable expectations,

    L(theta, alpha; phi, beta) = alpha^2 F0(theta)
                                 + alpha^2 beta^2 F(theta, phi)
                                 - beta^2 G(phi),

with F0 the cost expectation on the primal circuit, G a diagonal observable
(the constraint bounds) on the dual circuit, and F the constraint term,
whose exact value is the PMF-weighted sum of per-constraint expectations.
Its sampled value pairs independent measurements, as an extended Bell
measurement would on hardware: per color piece, a dual outcome m and an
outcome i of the color-rotated primal circuit are drawn separately, and
the pair scores the rotated piece diagonal of constraint m at i, read from
the sparse entries of the context's piece table, where piece p holds it
under the key (p * M + m) * dim + i.  Each sampled estimator call seeds
one generator, and its pieces draw disjoint blocks of that one stream as
whole arrays, which keeps them independent: the state is rotated under all
pieces at once, the dual and the primal draws of all pieces are each
inverted in one search, and all pairs are looked up at once (every search
in sorted order).  In exact mode the gradients in the circuit parameters
come from one adjoint (reverse-mode) sweep per circuit, reusing the
rotation factors that prepared the circuit's state; in sampled mode from
the two-point parameter-shift rule, as they would on hardware, with all
shifted states of a circuit prepared as one stack from the same factors and
the rotated primal CDFs of all primal shifts taken in one pass.  Either way
the circuit ledger charges the parameter-shift count.  The scale gradients
are the closed forms dL/dalpha = 2 alpha (F0 + beta^2 F) and
dL/dbeta = 2 beta (alpha^2 F - G).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import xbm
from .grid import QcqpProblem, ValidationError
from .sim import (AnsatzSpec, chain_seed, prepare, reverse_sweep, rng,
                  rotation_factors, shift_states)

EXACT = "exact"
SAMPLED = "sampled"


@dataclass(frozen=True)
class EvalMode:
    """Exact dense evaluation, or sampled with a shot budget per circuit."""

    kind: str = EXACT
    shots: int = 0
    seed: object = None

    def __post_init__(self):
        if self.kind not in (EXACT, SAMPLED):
            raise ValidationError(f"unknown evaluation mode {self.kind!r}")
        if self.kind == SAMPLED and (self.shots < 1 or self.seed is None):
            raise ValidationError("sampled mode needs shots >= 1 and a seed")

    def reseeded(self, *tags) -> "EvalMode":
        if self.kind == EXACT:
            return self
        return EvalMode(SAMPLED, self.shots, chain_seed(self.seed, *tags))


def exact_mode() -> EvalMode:
    return EvalMode(EXACT)


def sampled_mode(shots: int, seed) -> EvalMode:
    return EvalMode(SAMPLED, shots, seed)


@dataclass(frozen=True)
class PrimalPoint:
    theta: np.ndarray
    alpha: float


@dataclass(frozen=True)
class DualPoint:
    phi: np.ndarray
    beta: float


@dataclass(frozen=True)
class GradResult:
    """All four gradient blocks plus the circuit/shot ledger of the call."""

    theta: np.ndarray
    alpha: float
    phi: np.ndarray
    beta: float
    primal_circuits: int
    dual_circuits: int
    shots_spent: int

    def stacked(self) -> np.ndarray:
        """g(z) = [grad_theta; grad_alpha; -grad_phi; -grad_beta]."""
        return np.concatenate([
            self.theta, [self.alpha], -self.phi, [-self.beta],
        ])


class LagrangianContext:
    """Everything needed to evaluate L and its gradients on one problem.

    Holds the padded (and usually permuted) QCQP, whose ``stack`` gives the
    constraint forms and actions, the ansatz pair, and two ``xbm.PieceTable``
    of color pieces, each with its (color, part) pieces, the nonzero entries
    of its rotated piece diagonals as one ``xbm.PieceEntries``, its norms and
    its primal measurement rotations grouped for ``xbm.rotate_pieces``:
    ``m0_decomposition`` of the cost matrix, and ``joint_diagonals`` of the
    block-diagonal joint observable of size MN x MN, never materialized,
    whose segment of piece p and constraint m is p * M + m.  The sampled F
    draws a dual outcome m and a rotated primal outcome i independently per
    piece and looks the pairs of all pieces up at once in those entries.
    """

    def __init__(self, problem: QcqpProblem, primal_spec: AnsatzSpec,
                 dual_spec: AnsatzSpec):
        dim = problem.dim
        m_stored = problem.m_stored
        if 2**primal_spec.n_qubits != dim:
            raise ValidationError(
                f"primal ansatz has {primal_spec.n_qubits} qubits but the problem "
                f"dimension is {dim}; pad the problem first")
        if 2**dual_spec.n_qubits != m_stored:
            raise ValidationError(
                f"dual ansatz has {dual_spec.n_qubits} qubits but the problem "
                f"stores {m_stored} constraints; pad the problem first")
        self.problem = problem
        self.primal_spec = primal_spec
        self.dual_spec = dual_spec
        self.s_diag = problem.bounds
        self.m0_decomposition = xbm.decompose(problem.m0)
        # the rotated constraint pieces of all rows, segment piece * M + m
        self.joint_diagonals = xbm.piece_table(problem.stack)
        self.colors = self.m0_decomposition.colors | self.joint_diagonals.colors

    @property
    def p_count(self) -> int:
        return self.primal_spec.param_count

    @property
    def q_count(self) -> int:
        return self.dual_spec.param_count

    @property
    def color_count(self) -> int:
        return len(self.colors)

    def circuits_per_gradient(self) -> tuple[int, int]:
        """Rotated primal and dual circuit counts of one full gradient,
        (2P+1)(2C-1) and 2Q+1."""
        c = self.color_count
        return (2 * self.p_count + 1) * (2 * c - 1), 2 * self.q_count + 1


class TermValues:
    __slots__ = ("f0", "f", "g")

    def __init__(self, f0: float, f: float, g: float):
        self.f0 = f0
        self.f = f
        self.g = g


def primal_vector(ctx: LagrangianContext, p: PrimalPoint) -> np.ndarray:
    """v = alpha |psi(theta)>; its Euclidean norm is alpha."""
    return p.alpha * prepare(ctx.primal_spec, p.theta)


def dual_state(ctx: LagrangianContext, d: DualPoint) -> np.ndarray:
    return prepare(ctx.dual_spec, d.phi)


def dual_pmf(ctx: LagrangianContext, d: DualPoint) -> np.ndarray:
    state = dual_state(ctx, d)
    return np.abs(state) ** 2


def dual_vector(ctx: LagrangianContext, d: DualPoint) -> np.ndarray:
    """lambda_m = beta^2 |xi_m(phi)|^2; sums to beta^2."""
    return d.beta**2 * dual_pmf(ctx, d)


def eval_terms_exact(ctx: LagrangianContext, p: PrimalPoint, d: DualPoint) -> TermValues:
    psi = prepare(ctx.primal_spec, p.theta)
    w = dual_pmf(ctx, d)
    f0 = float(np.real(np.vdot(psi, ctx.problem.m0 @ psi)))
    f = float(w @ ctx.problem.stack.forms(psi))
    g = float(w @ ctx.s_diag)
    return TermValues(f0, f, g)


# ---------------------------------------------------------------------------
# Sampled estimators


def _sample_f0(ctx: LagrangianContext, psi: np.ndarray, mode: EvalMode) -> tuple[float, int]:
    report = xbm.estimate_expectation(psi, ctx.m0_decomposition, mode.shots, mode.seed)
    return report.estimate, mode.shots * len(ctx.m0_decomposition)


def _sample_g(ctx: LagrangianContext, w: np.ndarray, mode: EvalMode) -> tuple[float, int]:
    counts = rng(mode.seed).multinomial(mode.shots, w / w.sum())
    return float(counts @ ctx.s_diag) / mode.shots, mode.shots


def _primal_cdfs(ctx: LagrangianContext, psi: np.ndarray) -> np.ndarray:
    """(pieces, *psi.shape) cumulative outcome distributions of the
    color-rotated primal circuit of a state, or of every state of a stack,
    one leading row per joint constraint piece in table order."""
    cdfs = np.abs(xbm.rotate_pieces(psi, ctx.joint_diagonals.rotations)) ** 2
    np.cumsum(cdfs, axis=-1, out=cdfs)
    cdfs /= cdfs[..., -1:]
    return cdfs


def _dual_cdf(w: np.ndarray) -> np.ndarray:
    """Cumulative distribution of the dual outcome PMF w."""
    cdf = np.cumsum(w)
    return cdf / cdf[-1]


# Generator.random draws are n / 2^53 with integer 0 <= n < 2^53, so a CDF
# entry c satisfies c <= n / 2^53 exactly when ceil(c 2^53) <= n.  Row k of
# a batch searches those integers offset by k (2^53 + 1), a range no other
# row reaches; float offsets would not do, as rounding can tie two rows.
# int64 keys hold 1023 such rows.
_GRID = 2.0**53
_ROW_SPAN = 2**53 + 1
_ROWS_PER_SEARCH = (2**63 - 1) // _ROW_SPAN


def _inverse_cdf_rows(cdfs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row by row ``np.searchsorted(cdfs[k], u[k], side="right")``, exactly,
    for (rows, dim) CDFs and (rows, S) draws of ``Generator.random``, found
    in one sorted search of integer keys per ``_ROWS_PER_SEARCH`` rows."""
    out = np.empty(u.shape, dtype=np.intp)
    dim = cdfs.shape[-1]
    for lo in range(0, len(cdfs), _ROWS_PER_SEARCH):
        block = slice(lo, lo + _ROWS_PER_SEARCH)
        rows = np.arange(len(cdfs[block]), dtype=np.int64)[:, None]
        keys = rows * _ROW_SPAN + np.ceil(cdfs[block] * _GRID).astype(np.int64)
        queries = rows * _ROW_SPAN + (u[block] * _GRID).astype(np.int64)
        out[block] = xbm.sorted_search(keys.ravel(), queries, side="right") - rows * dim
    return out


def _sample_f(ctx: LagrangianContext, cdfs: np.ndarray, w_cdf: np.ndarray,
              mode: EvalMode) -> tuple[float, int]:
    """Two-step estimate of F from independent dual and primal draws.

    Per color piece k: S dual outcomes m are drawn from the dual PMF (CDF
    ``w_cdf``) and S outcomes i of the color-rotated primal circuit from row
    k of ``cdfs`` (``_primal_cdfs``); each pair scores the piece diagonal of
    constraint m at i, looked up in the sparse entries under the key
    (k * M + m) * dim + i, averaged over the S pairs.  That costs
    O(S log nnz) per piece after the O(M + dim) CDFs.

    The call seeds one generator and takes every piece's draws from it as
    whole arrays: first the (pieces, S) dual uniforms, then the (pieces, S)
    primal ones, so row k of each is piece k's disjoint block of the stream.
    The dual outcomes of all pieces come from one inverse CDF, the primal
    ones from one exact search over all CDF rows (``_inverse_cdf_rows``),
    all pairs are looked up at once in ``ctx.joint_diagonals.entries``, and
    the per-piece means are added in piece order.
    """
    shots = mode.shots
    pieces = len(ctx.joint_diagonals)
    draws = rng(mode.seed)
    m = xbm.sorted_search(w_cdf, draws.random((pieces, shots)), side="right")
    i = _inverse_cdf_rows(cdfs, draws.random((pieces, shots)))
    segments = m + ctx.problem.m_stored * np.arange(pieces)[:, None]
    values = ctx.joint_diagonals.entries.lookup(segments, i)
    total = 0.0
    for mean in (values.sum(axis=1) / shots).tolist():
        total += mean
    return total, shots * pieces


def eval_F_sampled(ctx: LagrangianContext, p: PrimalPoint, d: DualPoint,
                   shots: int, seed) -> float:
    """Unbiased sampled estimate of F(theta, phi)."""
    psi = prepare(ctx.primal_spec, p.theta)
    w = dual_pmf(ctx, d)
    value, _ = _sample_f(ctx, _primal_cdfs(ctx, psi), _dual_cdf(w),
                         sampled_mode(shots, seed))
    return value


def eval_terms(ctx: LagrangianContext, p: PrimalPoint, d: DualPoint,
               mode: EvalMode) -> TermValues:
    if mode.kind == EXACT:
        return eval_terms_exact(ctx, p, d)
    psi = prepare(ctx.primal_spec, p.theta)
    w = dual_pmf(ctx, d)
    f0, _ = _sample_f0(ctx, psi, mode.reseeded(0))
    f, _ = _sample_f(ctx, _primal_cdfs(ctx, psi), _dual_cdf(w), mode.reseeded(1))
    g, _ = _sample_g(ctx, w, mode.reseeded(2))
    return TermValues(f0, f, g)


def lagrangian(ctx: LagrangianContext, p: PrimalPoint, d: DualPoint,
               mode: EvalMode = EvalMode()) -> float:
    """alpha^2 F0 + alpha^2 beta^2 F - beta^2 G in the requested mode."""
    terms = eval_terms(ctx, p, d, mode)
    a2, b2 = p.alpha**2, d.beta**2
    return a2 * terms.f0 + a2 * b2 * terms.f - b2 * terms.g


# ---------------------------------------------------------------------------
# Gradients


def grad(ctx: LagrangianContext, p: PrimalPoint, d: DualPoint,
         mode: EvalMode = EvalMode()) -> GradResult:
    """All four gradient blocks of the Lagrangian at (p, d).

    alpha and beta use their closed forms.  In exact mode the theta and phi
    blocks come from one adjoint sweep per circuit (``sim.reverse_sweep``),
    with the primal observable alpha^2 M0 + alpha^2 beta^2 sum_m w_m M_m and
    the diagonal dual observable alpha^2 beta^2 F_m - beta^2 b_m.  In
    sampled mode they use the parameter-shift rule (two evaluations at
    +-pi/2 per parameter), and every named expectation draws from its own
    derived stream, keeping the blocks unbiased and the per-coordinate
    variances additive.  The circuit ledger charges the parameter-shift
    count of ``ctx.circuits_per_gradient`` in both modes.
    """
    if mode.kind == EXACT:
        terms, g_theta, g_phi = _angle_grads_exact(ctx, p, d)
        shots_spent = 0
    else:
        terms, g_theta, g_phi, shots_spent = _angle_grads_sampled(ctx, p, d, mode)
    alpha, beta = p.alpha, d.beta
    g_alpha = 2 * alpha * terms.f0 + 2 * alpha * beta**2 * terms.f
    g_beta = 2 * beta * (alpha**2 * terms.f - terms.g)
    primal_circuits, dual_circuits = ctx.circuits_per_gradient()
    return GradResult(
        theta=g_theta, alpha=g_alpha, phi=g_phi, beta=g_beta,
        primal_circuits=primal_circuits, dual_circuits=dual_circuits,
        shots_spent=shots_spent,
    )


def _angle_grads_exact(ctx: LagrangianContext, p: PrimalPoint, d: DualPoint):
    a2, b2 = p.alpha**2, d.beta**2
    theta_factors = rotation_factors(ctx.primal_spec, p.theta)
    phi_factors = rotation_factors(ctx.dual_spec, d.phi)
    psi = prepare(ctx.primal_spec, p.theta, theta_factors)
    xi = prepare(ctx.dual_spec, d.phi, phi_factors)
    w = np.abs(xi) ** 2
    stack = ctx.problem.stack
    m0_psi = ctx.problem.m0 @ psi
    fm = stack.forms(psi)
    f0 = float(np.real(np.vdot(psi, m0_psi)))
    f = float(w @ fm)
    g = float(w @ ctx.s_diag)
    h_psi = a2 * m0_psi + a2 * b2 * stack.action(w, psi)
    g_theta = reverse_sweep(ctx.primal_spec, theta_factors, psi, h_psi)
    d_xi = (a2 * b2 * fm - b2 * ctx.s_diag) * xi
    g_phi = reverse_sweep(ctx.dual_spec, phi_factors, xi, d_xi)
    return TermValues(f0, f, g), g_theta, g_phi


def _angle_grads_sampled(ctx: LagrangianContext, p: PrimalPoint, d: DualPoint,
                         mode: EvalMode):
    a2, b2 = p.alpha**2, d.beta**2
    shots_spent = 0

    # The rotated primal CDFs depend on theta only and the dual CDF on phi
    # only: each is computed once per state and shared by the shifts of
    # the other block.  All 2P primal and all 2Q dual shift states are
    # prepared as one stack per circuit, from the factors of the base
    # state, and the primal shifts' CDFs come from one pass over the stack.
    theta_factors = rotation_factors(ctx.primal_spec, p.theta)
    phi_factors = rotation_factors(ctx.dual_spec, d.phi)
    psi = prepare(ctx.primal_spec, p.theta, theta_factors)
    w = np.abs(prepare(ctx.dual_spec, d.phi, phi_factors)) ** 2
    cdfs, w_cdf = _primal_cdfs(ctx, psi), _dual_cdf(w)
    f0, spent = _sample_f0(ctx, psi, mode.reseeded(0))
    shots_spent += spent
    f, spent = _sample_f(ctx, cdfs, w_cdf, mode.reseeded(1))
    shots_spent += spent
    g, spent = _sample_g(ctx, w, mode.reseeded(2))
    shots_spent += spent

    psi_shifts = shift_states(ctx.primal_spec, theta_factors)
    shift_cdfs = _primal_cdfs(ctx, psi_shifts)
    g_theta = np.zeros(ctx.p_count)
    for j in range(ctx.p_count):
        f0p, spent = _sample_f0(ctx, psi_shifts[j, 0], mode.reseeded(10, j, 0))
        shots_spent += spent
        f0m, spent = _sample_f0(ctx, psi_shifts[j, 1], mode.reseeded(10, j, 1))
        shots_spent += spent
        fp, spent = _sample_f(ctx, shift_cdfs[:, j, 0], w_cdf, mode.reseeded(11, j, 0))
        shots_spent += spent
        fm, spent = _sample_f(ctx, shift_cdfs[:, j, 1], w_cdf, mode.reseeded(11, j, 1))
        shots_spent += spent
        g_theta[j] = a2 / 2 * (f0p - f0m) + a2 * b2 / 2 * (fp - fm)

    w_shifts = np.abs(shift_states(ctx.dual_spec, phi_factors)) ** 2
    g_phi = np.zeros(ctx.q_count)
    for j in range(ctx.q_count):
        w_p, w_m = w_shifts[j]
        fp, spent = _sample_f(ctx, cdfs, _dual_cdf(w_p), mode.reseeded(12, j, 0))
        shots_spent += spent
        fm, spent = _sample_f(ctx, cdfs, _dual_cdf(w_m), mode.reseeded(12, j, 1))
        shots_spent += spent
        gp, spent = _sample_g(ctx, w_p, mode.reseeded(13, j, 0))
        shots_spent += spent
        gm, spent = _sample_g(ctx, w_m, mode.reseeded(13, j, 1))
        shots_spent += spent
        g_phi[j] = a2 * b2 / 2 * (fp - fm) - b2 / 2 * (gp - gm)

    return TermValues(f0, f, g), g_theta, g_phi, shots_spent
