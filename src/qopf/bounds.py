"""Closed-form smoothness, variance and sample-budget quantities.

Everything here is plain arithmetic on a few problem statistics: parameter
counts P and Q, scale caps alpha_bar and beta_bar, spectral norms of the
cost and constraint matrices, the largest |b_m|, the color-piece norm sums,
and the color count C.  The outputs are the Lipschitz constant of the
saddle field, the variance parameter of its sampled estimator, and the
iteration/shot budget guaranteeing an epsilon-stationary point under the
weak Minty assumption (parameter rho, taken as given and defaulting to its
most optimistic value 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import MatrixStack, ValidationError
from .model import LagrangianContext


@dataclass(frozen=True)
class BoundInputs:
    p_count: int
    q_count: int
    alpha_bar: float
    beta_bar: float
    norm_m0: float
    max_norm_mm: float
    max_abs_b: float
    sum_norm_sq_m0: float      # sum_c ||M0^c||^2 over the 2C-1 pieces
    sum_max_norm_sq: float     # sum_c max_m ||M_m^c||^2
    colors: int
    rho: float = 0.0
    epsilon: float = 0.1
    dist0: float = 1.0

    def __post_init__(self):
        values = (self.alpha_bar, self.beta_bar, self.norm_m0, self.max_norm_mm,
                  self.max_abs_b, self.sum_norm_sq_m0, self.sum_max_norm_sq,
                  self.rho, self.epsilon, self.dist0)
        if any(v < 0 for v in values):
            raise ValidationError("bound inputs must be nonnegative")
        if self.epsilon <= 0:
            raise ValidationError("epsilon must be positive")


def row_norms(stack: MatrixStack) -> np.ndarray:
    """Spectral norm of every stacked (Hermitian) matrix: the rows of a
    problem's ``stack``, or the cost of its one-matrix ``cost``.

    Each matrix is zero outside its support, the nodes its entries touch,
    so its norm is that of the support block.  The blocks are gathered, zero
    padded to the largest support, into one (count, s, s) array and every
    norm is the largest |eigenvalue| of one batched Hermitian eigensolve.
    """
    nodes = np.concatenate([stack.segments * stack.dim + stack.rows,
                            stack.segments * stack.dim + stack.cols])
    support = np.unique(nodes)
    owner = support // stack.dim
    local = np.arange(len(support)) - np.searchsorted(owner, owner)
    size = int(local.max(initial=-1)) + 1
    if size == 0:
        return np.zeros(stack.count)
    blocks = np.zeros((stack.count, size, size), dtype=complex)
    half = len(stack.values)
    at = local[np.searchsorted(support, nodes)]
    blocks[stack.segments, at[:half], at[half:]] = stack.values
    return np.max(np.abs(np.linalg.eigvalsh(blocks)), axis=1)


def inputs_from_context(ctx: LagrangianContext, alpha_bar: float | None = None,
                        beta_bar: float | None = None, rho: float = 0.0,
                        epsilon: float = 0.1, dist0: float = 1.0) -> BoundInputs:
    """Measure the norm statistics of a prepared problem.

    alpha_bar defaults to 1.1*sqrt(N) (voltage magnitudes live near one per
    unit); beta_bar has no closed form and defaults to 2*m, twice the
    number of constraint rows (844 on ieee57), unless supplied.  That
    default is far above sqrt(sum lambda) of a solution, and most of why
    the Lipschitz constant, and with it the iteration and shot bounds,
    come out so large (L is about 2.4e12 on ieee57).
    """
    problem = ctx.problem
    if alpha_bar is None:
        alpha_bar = 1.1 * math.sqrt(problem.n)
    if beta_bar is None:
        beta_bar = 2.0 * problem.m
    max_norm = float(np.max(row_norms(problem.stack), initial=0.0))
    return BoundInputs(
        p_count=ctx.p_count,
        q_count=ctx.q_count,
        alpha_bar=alpha_bar,
        beta_bar=beta_bar,
        norm_m0=float(row_norms(problem.cost)[0]),
        max_norm_mm=max_norm,
        max_abs_b=float(np.max(np.abs(problem.bounds))),
        sum_norm_sq_m0=ctx.m0_decomposition.sum_norm_sq,
        sum_max_norm_sq=ctx.joint_diagonals.sum_norm_sq,
        colors=ctx.color_count,
        rho=rho,
        epsilon=epsilon,
        dist0=dist0,
    )


def lipschitz_L(inputs: BoundInputs) -> float:
    """Lipschitz constant of the signed saddle field g(z) inside the
    (alpha_bar, beta_bar) box."""
    a, b = inputs.alpha_bar, inputs.beta_bar
    p, q = inputs.p_count, inputs.q_count
    coupling = (p * a**2 * b**2 + q * a**2 * b**2 + 2 * a * b**2 + 2 * a**2 * b)
    head = max((p * a**2 + 2 * a) * inputs.norm_m0,
               (q * b**2 + 2 * b) * inputs.max_abs_b)
    return coupling * inputs.max_norm_mm + head


def sigma_sq(inputs: BoundInputs) -> float:
    """Variance parameter: E||g_hat - g||^2 <= sigma_sq / S for S shots per
    rotated circuit."""
    a, b = inputs.alpha_bar, inputs.beta_bar
    p, q = inputs.p_count, inputs.q_count
    term_b = (q * b**4 + 8 * b**2) / 2 * inputs.max_abs_b**2
    term_m0 = (8 * a**2 + p * a**4) / 2 * inputs.sum_norm_sq_m0
    term_mm = (8 * a**2 * b**4 + 8 * a**4 * b**2 + (p + q) * a**4 * b**4) / 2 \
        * inputs.sum_max_norm_sq
    return term_b + term_m0 + term_mm


@dataclass(frozen=True)
class BudgetReport:
    lipschitz: float
    sigma_sq: float
    iterations: int            # T
    shots_per_circuit: int     # S
    circuits_per_iter: int     # (2P+1)(2C-1) + 2Q+1
    total: int                 # circuits * T * 2S, the exact product
    total_bound: int           # circuits * ceil(4224 L^2 s^2 d^2 / eps^4 (1-..)^2)


def circuits_per_iteration(p_count: int, q_count: int, colors: int) -> int:
    return (2 * p_count + 1) * (2 * colors - 1) + 2 * q_count + 1


def _admissibility_slack(lip: float, rho: float) -> float:
    root2 = math.sqrt(2.0)
    if rho < 0 or (lip > 0 and rho >= 1.0 / (4 * root2 * lip)):
        raise ValidationError(
            f"rho = {rho} outside [0, 1/(4*sqrt(2)*L)) for L = {lip:.4g}")
    return 1.0 - 4 * root2 * lip * rho


def iteration_count(lip: float, dist0: float, epsilon: float, rho: float = 0.0) -> int:
    """T = ceil(32 L^2 d0^2 / (eps^2 (1 - 4 sqrt(2) L rho)))."""
    slack = _admissibility_slack(lip, rho)
    return math.ceil(32 * lip**2 * dist0**2 / (epsilon**2 * slack))


def shots_per_step(var: float, epsilon: float, lip: float, rho: float = 0.0) -> int:
    """S = ceil(8 sigma^2 (8 + sqrt(2) L rho) / (eps^2 (1 - 4 sqrt(2) L rho)))."""
    slack = _admissibility_slack(lip, rho)
    return math.ceil(8 * var * (8 + math.sqrt(2.0) * lip * rho) / (epsilon**2 * slack))


def budget(inputs: BoundInputs) -> BudgetReport:
    """Iteration count, per-circuit shots, and total samples for reaching an
    epsilon-stationary point in expectation with the constant extragradient
    step 1/(2*sqrt(2)*L).

    ``total`` multiplies circuits, iterations and twice the per-step shots
    (two field evaluations per iteration); ``total_bound`` is the closed
    form whose constant 4224 absorbs the 8.25 cap on (8 + sqrt(2)*L*rho).
    """
    lip = lipschitz_L(inputs)
    var = sigma_sq(inputs)
    slack = _admissibility_slack(lip, inputs.rho)
    iterations = iteration_count(lip, inputs.dist0, inputs.epsilon, inputs.rho)
    shots = shots_per_step(var, inputs.epsilon, lip, inputs.rho)
    circuits = circuits_per_iteration(inputs.p_count, inputs.q_count, inputs.colors)
    total = circuits * iterations * 2 * shots
    total_bound = circuits * math.ceil(
        4224 * lip**2 * var * inputs.dist0**2 / (inputs.epsilon**4 * slack**2))
    return BudgetReport(
        lipschitz=lip,
        sigma_sq=var,
        iterations=iterations,
        shots_per_circuit=shots,
        circuits_per_iter=circuits,
        total=total,
        total_bound=total_bound,
    )

