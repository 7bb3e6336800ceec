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
The cost and the rows are both ``grid.MatrixStack``s, so the color pieces
of F0 and of F come from the same ``xbm.piece_table``.
All three terms are sampled by the one extended-Bell-measurement
estimator ``xbm.estimate_expectation``: per color piece, a dual outcome
m ~ w and an outcome i of the color-rotated primal circuit are drawn
separately, and the pair scores the rotated piece diagonal of constraint
m at i, read from segment p * M + m of the joint piece table.  F0 is the
one-matrix case, the cost table with the one-point PMF, and G the
color-0 piece of diag(bounds) read on the dual outcomes, with the dual
PMF as its one piece's outcome probabilities.  A pair scores only on a
table entry, so per estimate and piece the estimator draws how many of
the S pairs land on an entry, whose probability is w_m p_k(i), and then
which: the other pairs score 0 and are never drawn.  So p_k(i) is
needed only at the table's (piece k, column i) cells that hold an
entry, and ``xbm.cell_probabilities`` computes it there alone.  The
estimates that share a dual PMF (the theta shifts, F0, G, an L) draw
over (piece, column) cells with that PMF folded in once, and those that
share a primal state (the phi shifts) over (piece, matrix) segments
with the state's probabilities folded in.  Each term's call seeds one generator,
F0's, F's and G's each from their own derived seed, and all the
estimates of the call, and all the pieces of each, draw disjoint parts
of that one stream, which keeps them independent.

In exact mode the gradients in the circuit parameters come from one
adjoint (reverse-mode) sweep per circuit, reusing the factors and states
of the point's ``exact_forward`` record, which exact L reads too; in
sampled mode from the two-point parameter-shift rule, as on hardware, on
one stack per circuit (``sim.shift_states``): row 0 the base state and
row 1 + 2j + s parameter j shifted up (s = 0) or down (s = 1).  The
primal stack is rotated once at the cost table's cells for F0 and once
at the joint table's for F, and the estimates of each term are drawn
and scored together, group by shared side.  Either way the
circuit ledger charges the parameter-shift count.  The scale
gradients are the closed forms dL/dalpha = 2 alpha (F0 + beta^2 F) and
dL/dbeta = 2 beta (alpha^2 F - G).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import xbm
from .grid import MatrixStack, QcqpProblem, ValidationError
from .sim import (AnsatzSpec, chain_seed, prepare, reverse_sweep, rotation_factors,
                  shift_states)

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
    constraint forms and actions and whose ``m0`` the cost products, the
    ansatz pair, and two ``xbm.PieceTable`` of color pieces, each with its
    (color, part) pieces, the nonzero entries of its rotated piece diagonals
    as one ``xbm.PieceEntries`` and its norms: ``m0_decomposition`` of the
    one-matrix ``cost`` stack, and ``joint_diagonals`` of the
    block-diagonal joint observable of size MN x MN, never materialized,
    whose segment of piece p and constraint m is p * M + m; ``colors`` is
    the union of their colors, the one count of them.  The sampled F0, F
    and G are each one ``xbm.estimate_expectation`` call, on the cost
    table, the joint table and the one-piece table of G
    (``bounds_table``).  The tables' segment indexes, cell layouts
    (``xbm.CellLayout``) and cell rotations, and ``bounds_table``, are
    built on first sampled use, so exact runs never pay for them.
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
        self.m0_decomposition = xbm.piece_table(problem.cost)
        # the rotated constraint pieces of all rows, segment piece * M + m
        self.joint_diagonals = xbm.piece_table(problem.stack)
        self.colors = self.m0_decomposition.colors | self.joint_diagonals.colors

    @cached_property
    def bounds_table(self) -> xbm.PieceTable:
        """The one color-0 piece of diag(bounds) on the dual outcomes, which
        the sampled G estimates; built on first sampled use."""
        bounds = self.problem.bounds
        index = np.arange(len(bounds))
        return xbm.piece_table(MatrixStack(np.zeros_like(index), index, index, bounds, 1,
                                           len(bounds)))

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


class TermValues(NamedTuple):
    f0: float
    f: float
    g: float

    def value_at(self, alpha: float, beta: float) -> float:
        """L = alpha^2 F0 + alpha^2 beta^2 F - beta^2 G."""
        a2, b2 = alpha**2, beta**2
        return a2 * self.f0 + a2 * b2 * self.f - b2 * self.g


def primal_vector(ctx: LagrangianContext, p: PrimalPoint) -> np.ndarray:
    """v = alpha |psi(theta)>; its Euclidean norm is alpha."""
    return p.alpha * prepare(ctx.primal_spec, p.theta)


def dual_pmf(ctx: LagrangianContext, d: DualPoint) -> np.ndarray:
    return np.abs(prepare(ctx.dual_spec, d.phi)) ** 2


def dual_vector(ctx: LagrangianContext, d: DualPoint) -> np.ndarray:
    """lambda_m = beta^2 |xi_m(phi)|^2; sums to beta^2."""
    return d.beta**2 * dual_pmf(ctx, d)


class ExactForward(NamedTuple):
    """One exact forward pass at (theta, phi), free of alpha and beta: both
    circuits' rotation factors, states psi and xi, the dual PMF w = |xi|^2,
    the terms (F0, F, G) and the M0 psi and psi^dag M_m psi they come from."""

    theta: np.ndarray
    phi: np.ndarray
    theta_factors: list
    phi_factors: list
    psi: np.ndarray
    xi: np.ndarray
    w: np.ndarray
    terms: TermValues
    m0_psi: np.ndarray
    fm: np.ndarray


def exact_forward(ctx: LagrangianContext, p: PrimalPoint, d: DualPoint) -> ExactForward:
    """The forward record at (p, d) that exact ``lagrangian`` and ``grad``
    read; ``grad`` takes one built earlier at the same point."""
    theta_factors = rotation_factors(ctx.primal_spec, p.theta)
    phi_factors = rotation_factors(ctx.dual_spec, d.phi)
    psi = prepare(ctx.primal_spec, p.theta, theta_factors)
    xi = prepare(ctx.dual_spec, d.phi, phi_factors)
    w = np.abs(xi) ** 2
    m0_psi, fm = ctx.problem.m0 @ psi, ctx.problem.stack.forms(psi)
    terms = TermValues(float(np.real(np.vdot(psi, m0_psi))), float(w @ fm),
                       float(w @ ctx.problem.bounds))
    return ExactForward(p.theta, d.phi, theta_factors, phi_factors, psi, xi, w, terms,
                        m0_psi, fm)


# ---------------------------------------------------------------------------
# Sampled estimators


def _sample_terms(ctx: LagrangianContext, psis: np.ndarray, ws: np.ndarray,
                  pairs: list[tuple[int, int]], mode: EvalMode):
    """Sampled F0 at every row of a (B, dim) primal stack, F at every
    (primal row, dual row) pair of ``pairs`` and G at every row of a stack
    of dual PMFs ``ws``, as arrays, and the shots they spend, each term
    from one ``xbm.estimate_expectation`` call: F0's seeded from
    ``mode.reseeded(0)``, F's from ``mode.reseeded(1)`` and G's from
    ``mode.reseeded(2)``.

    The primal stack is rotated at the cost table's column cells for F0
    and at the joint table's for F (``xbm.cell_probabilities``); ``ws`` is
    normalised in place.  F reads the joint table with the dual PMFs, and
    G the one-piece ``bounds_table`` with the dual PMFs at its column
    cells as its one piece's outcome probabilities; F0 and G take the
    one-point PMF ``np.ones((1, 1))``.  So F0's and G's estimates all
    share their one dual row and each draws over (piece, column) cells.
    In F, the pairs that share the base dual row draw over the joint
    table's (piece, column) cells; those that share the base primal row,
    with a dual row of their own, draw over its (piece, matrix) segments.
    """
    shots, one = mode.shots, np.ones((1, 1))
    cost, joint, bounds = ctx.m0_decomposition, ctx.joint_diagonals, ctx.bounds_table
    pmfs = _normalised(ws)
    f0, f0_shots = xbm.estimate_expectation(cost, xbm.cell_probabilities(cost, psis), one,
                                            [(r, 0) for r in range(len(psis))], shots,
                                            mode.reseeded(0).seed)
    f, f_shots = xbm.estimate_expectation(joint, xbm.cell_probabilities(joint, psis), pmfs,
                                          pairs, shots, mode.reseeded(1).seed)
    g, g_shots = xbm.estimate_expectation(bounds, pmfs[:, bounds.column_cells.cells], one,
                                          [(q, 0) for q in range(len(pmfs))], shots,
                                          mode.reseeded(2).seed)
    return np.array(f0), np.array(f), np.array(g), f0_shots + f_shots + g_shots


def _normalised(probs: np.ndarray) -> np.ndarray:
    """Outcome probabilities normalised along the last axis, in place."""
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def eval_F_sampled(ctx: LagrangianContext, p: PrimalPoint, d: DualPoint,
                   shots: int, seed) -> float:
    """Unbiased sampled estimate of F(theta, phi)."""
    psi = prepare(ctx.primal_spec, p.theta)
    table = ctx.joint_diagonals
    (value,), _ = xbm.estimate_expectation(table, xbm.cell_probabilities(table, psi[None]),
                                           _normalised(dual_pmf(ctx, d)[None]), [(0, 0)],
                                           shots, seed)
    return value


def eval_terms(ctx: LagrangianContext, p: PrimalPoint, d: DualPoint,
               mode: EvalMode) -> TermValues:
    if mode.kind == EXACT:
        return exact_forward(ctx, p, d).terms
    psi = prepare(ctx.primal_spec, p.theta)
    f0, f, g, _ = _sample_terms(ctx, psi[None], dual_pmf(ctx, d)[None], [(0, 0)], mode)
    return TermValues(float(f0[0]), float(f[0]), float(g[0]))


def lagrangian(ctx: LagrangianContext, p: PrimalPoint, d: DualPoint,
               mode: EvalMode = EvalMode()) -> float:
    """alpha^2 F0 + alpha^2 beta^2 F - beta^2 G in the requested mode."""
    return eval_terms(ctx, p, d, mode).value_at(p.alpha, d.beta)


# ---------------------------------------------------------------------------
# Gradients


def grad(ctx: LagrangianContext, p: PrimalPoint, d: DualPoint,
         mode: EvalMode = EvalMode(), forward: ExactForward | None = None) -> GradResult:
    """All four gradient blocks of the Lagrangian at (p, d).

    alpha and beta use their closed forms.  In exact mode the theta and phi
    blocks come from one adjoint sweep per circuit (``sim.reverse_sweep``),
    with the primal observable alpha^2 M0 + alpha^2 beta^2 sum_m w_m M_m and
    the diagonal dual observable alpha^2 beta^2 F_m - beta^2 b_m.  In
    sampled mode they use the parameter-shift rule (two evaluations at
    +-pi/2 per parameter), and every estimate draws its own disjoint
    part of its term's stream (``_sample_terms``), keeping the blocks
    unbiased and the per-coordinate variances additive.  The circuit
    ledger charges the parameter-shift count of
    ``ctx.circuits_per_gradient`` in both modes.  An exact call
    reads ``forward``, if given, for the circuits; it must be the
    ``exact_forward`` record of these very theta and phi arrays.
    """
    if forward is not None and not (mode.kind == EXACT and forward.theta is p.theta
                                    and forward.phi is d.phi):
        raise ValidationError("an exact forward record serves exact mode at its own point")
    if mode.kind == EXACT:
        terms, g_theta, g_phi = _angle_grads_exact(ctx, p, d, forward or exact_forward(ctx, p, d))
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


def _angle_grads_exact(ctx: LagrangianContext, p: PrimalPoint, d: DualPoint,
                       fwd: ExactForward):
    a2, b2 = p.alpha**2, d.beta**2
    h_psi = a2 * fwd.m0_psi + a2 * b2 * ctx.problem.stack.action(fwd.w, fwd.psi)
    g_theta = reverse_sweep(ctx.primal_spec, fwd.theta_factors, fwd.psi, h_psi)
    d_xi = (a2 * b2 * fwd.fm - b2 * ctx.problem.bounds) * fwd.xi
    g_phi = reverse_sweep(ctx.dual_spec, fwd.phi_factors, fwd.xi, d_xi)
    return fwd.terms, g_theta, g_phi


def _angle_grads_sampled(ctx: LagrangianContext, p: PrimalPoint, d: DualPoint,
                         mode: EvalMode):
    a2, b2 = p.alpha**2, d.beta**2
    # Row 0 of each stack is the base state, row 1 + 2j + s parameter j
    # shifted up (s = 0) or down (s = 1).  The rotated primal CDFs depend
    # on theta only and the dual PMFs on phi only, so the theta shifts pair
    # with the base dual PMF and the phi shifts with the base primal CDFs.
    psis = shift_states(ctx.primal_spec, rotation_factors(ctx.primal_spec, p.theta))
    ws = np.abs(shift_states(ctx.dual_spec, rotation_factors(ctx.dual_spec, d.phi))) ** 2
    # F at every primal row with the base dual row, and at the base primal
    # row with every dual shift row (its base row is f_theta[0])
    theta_pairs = [(r, 0) for r in range(1 + 2 * ctx.p_count)]
    phi_pairs = [(0, r) for r in range(1, 1 + 2 * ctx.q_count)]
    f0, f, g, shots_spent = _sample_terms(ctx, psis, ws, theta_pairs + phi_pairs, mode)
    f_theta, f_phi = f[:len(theta_pairs)], f[len(theta_pairs):]

    g_theta = a2 / 2 * (f0[1::2] - f0[2::2]) + a2 * b2 / 2 * (f_theta[1::2] - f_theta[2::2])
    g_phi = a2 * b2 / 2 * (f_phi[0::2] - f_phi[1::2]) - b2 / 2 * (g[1::2] - g[2::2])
    terms = TermValues(float(f0[0]), float(f_theta[0]), float(g[0]))
    return terms, g_theta, g_phi, shots_spent
