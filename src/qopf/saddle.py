"""Primal-dual and extragradient iterations over the stacked iterate
z = [theta; alpha; phi; beta], plus the classical baselines running on raw
voltages and multipliers.  Both engines run through one loop, ``_iterate``,
which owns the one PD and the one EG template; an engine supplies only its
field, its move and the sweep of block parts its PD visits.

The variational field is the signed g(z) = [grad_theta; grad_alpha;
-grad_phi; -grad_beta] in one part, so its PD is Jacobi; the classical field
of L(v, lambda) has a v part and a lambda part, so its PD is Gauss-Seidel.
A move descends the primal blocks, ascends the dual ones and clips alpha and
beta (and the classical multipliers) at zero.  The extragradient first moves
to a midpoint with step 2*mu and then applies the field evaluated there with
step mu, exactly as specified.  v and lambda step at the theta and phi rates
of the schedule, and the stop rule's ``theta_tol`` and ``phi_tol`` bound
their moves.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .grid import QcqpProblem, ValidationError
from .model import (EXACT, EvalMode, LagrangianContext, PrimalPoint, DualPoint, exact_forward,
                    grad, lagrangian)

PD = "pd"
EG = "eg"


class DivergenceError(RuntimeError):
    """|L| exceeded the divergence ceiling, or L is NaN, at 0-based ``iteration``.

    ``trajectory`` holds the run up to the last accepted iterate, with stop
    reason "diverged" (the diverging iterate is not recorded).
    """

    def __init__(self, iteration: int, value: float, trajectory):
        self.iteration = iteration
        self.value = value
        self.trajectory = trajectory
        super().__init__(
            f"|L| = {value:.3e} exceeded the divergence ceiling at iteration {iteration}"
        )


@dataclass(frozen=True)
class SaddlePointState:
    """Angles and scales; ``run`` checks that the initial alpha and beta are
    nonnegative, and every move clips them at zero."""

    theta: np.ndarray
    alpha: float
    phi: np.ndarray
    beta: float

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.theta, [self.alpha], self.phi, [self.beta]])

    @classmethod
    def from_stacked(cls, vec: np.ndarray, p_count: int, q_count: int) -> "SaddlePointState":
        theta = vec[:p_count]
        alpha = float(vec[p_count])
        phi = vec[p_count + 1:p_count + 1 + q_count]
        beta = float(vec[p_count + 1 + q_count])
        return cls(theta.copy(), alpha, phi.copy(), beta)


@dataclass(frozen=True)
class StepSchedule:
    """Per-block step sizes mu(t) = base * decay**t."""

    theta: tuple[float, float]
    alpha: tuple[float, float]
    phi: tuple[float, float]
    beta: tuple[float, float]

    def __post_init__(self):
        for base, decay in (self.theta, self.alpha, self.phi, self.beta):
            if base < 0 or decay <= 0:
                raise ValidationError("step bases must be >= 0 and decays positive")

    @classmethod
    def exponential(cls):
        """The benchmark defaults: mu_theta = 0.015*0.99985^t,
        mu_phi = 0.01*0.99985^t, mu_alpha = mu_beta = 1e-5*0.999^t."""
        return cls((0.015, 0.99985), (1e-5, 0.999), (0.01, 0.99985), (1e-5, 0.999))

    def rates(self, t: int) -> tuple[float, float, float, float]:
        return tuple(base * decay**t for base, decay in
                     (self.theta, self.alpha, self.phi, self.beta))


@dataclass(frozen=True)
class StopRule:
    theta_tol: float = 1e-6
    phi_tol: float = 1e-6
    max_iters: int = 10_000

    def __post_init__(self):
        if self.theta_tol <= 0 or self.phi_tol <= 0:
            raise ValidationError("stop tolerances must be positive")


@dataclass
class Trajectory:
    """Per-iteration history of a run plus the final state (classical runs
    record no g_norms or shots; ``seconds`` are cumulative wall times)."""

    states: list[SaddlePointState | ClassicalState] = field(default_factory=list)
    lagrangians: list[float] = field(default_factory=list)
    g_norms: list[dict[str, float]] = field(default_factory=list)
    shots: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    stop_reason: str = "max_iters"

    @property
    def final(self) -> SaddlePointState | ClassicalState:
        return self.states[-1]

    @property
    def iterations(self) -> int:
        return len(self.states) - 1

    @property
    def total_shots(self) -> int:
        return int(sum(self.shots))


def _block_norms(g: np.ndarray, p_count: int, q_count: int) -> dict[str, float]:
    return {
        "theta": float(np.linalg.norm(g[:p_count])),
        "alpha": float(abs(g[p_count])),
        "phi": float(np.linalg.norm(g[p_count + 1:p_count + 1 + q_count])),
        "beta": float(abs(g[p_count + 1 + q_count])),
        "total": float(np.linalg.norm(g)),
    }


def _iterate(field, move, sweep, value, blocks, init, method: str, schedule: StepSchedule,
             stop: StopRule, divergence_ceiling: float, norms=None) -> Trajectory:
    """The one saddle loop, with the one PD and the one EG template.

    ``field(z, t, stage, part)`` returns the field's ``part`` at z (part
    None is the whole field) and the shots it spent, at iteration ``t`` and
    ``stage`` 0 at the iterate or 1 at the EG midpoint.  ``move(z, rates,
    g)`` steps z along g at ``rates`` = (mu_theta, mu_alpha, mu_phi,
    mu_beta) = ``schedule.rates(t)`` and clips at zero.  PD visits the parts
    of ``sweep`` in order, each part's field evaluated where the previous
    part's move left z: one part is Jacobi, several are Gauss-Seidel.  EG
    moves with the whole field at z and 2*mu to a midpoint, then from z with
    the midpoint's field and mu.

    ``value(z, t)`` is the Lagrangian recorded at iterate t, before any
    step from it, and ``blocks(z)`` the two blocks whose moves the stop rule
    compares with ``stop.theta_tol`` and ``stop.phi_tol`` (theta and phi, or
    the classical v and lambda).  With ``norms``, each iterate also records
    norms(g) of the stage-0 field (of an engine with one part) and the shots
    of its fields.  Records the seconds since the start at each accepted
    iterate and aborts with DivergenceError unless |L| <= the ceiling."""
    if method not in (PD, EG):
        raise ValidationError(f"unknown method {method!r}")
    traj = Trajectory(states=[init])
    z, start = init, time.perf_counter()
    for t in range(stop.max_iters):
        rates = schedule.rates(t)
        if method == PD:
            nxt, shots = z, 0
            for part in sweep:
                g, spent = field(nxt, t, 0, part)
                nxt, shots = move(nxt, rates, g), shots + spent
        else:
            g, shots = field(z, t, 0, None)
            g_mid, spent = field(move(z, [2.0 * mu for mu in rates], g), t, 1, None)
            nxt, shots = move(z, rates, g_mid), shots + spent
        lag = value(nxt, t + 1)
        if not abs(lag) <= divergence_ceiling:
            traj.stop_reason = "diverged"
            raise DivergenceError(t, lag, traj)
        traj.states.append(nxt)
        traj.lagrangians.append(lag)
        traj.seconds.append(time.perf_counter() - start)
        if norms is not None:
            traj.g_norms.append(norms(g))
            traj.shots.append(shots)
        (a, b), (a_prev, b_prev) = blocks(nxt), blocks(z)
        z = nxt
        if np.linalg.norm(a - a_prev) <= stop.theta_tol and \
                np.linalg.norm(b - b_prev) <= stop.phi_tol:
            traj.stop_reason = "converged"
            break
    return traj


def _move(z: SaddlePointState, rates, g: np.ndarray) -> SaddlePointState:
    """z - mu * g, with alpha and beta clipped at zero."""
    p_count, q_count = len(z.theta), len(z.phi)
    mu_t, mu_a, mu_f, mu_b = rates
    mu = np.concatenate([np.full(p_count, mu_t), [mu_a], np.full(q_count, mu_f), [mu_b]])
    vec = z.stacked() - mu * g
    vec[p_count] = max(vec[p_count], 0.0)
    vec[-1] = max(vec[-1], 0.0)
    return SaddlePointState.from_stacked(vec, p_count, q_count)


def run(ctx: LagrangianContext, init: SaddlePointState, method: str,
        schedule: StepSchedule, stop: StopRule, mode: EvalMode = EvalMode(),
        divergence_ceiling: float = 1e9) -> Trajectory:
    """Iterate PD or EG from ``init`` until the stop rule fires.

    Records the Lagrangian (evaluated in the run's mode), per-block gradient
    norms, shots and cumulative seconds per iteration.  Aborts with
    DivergenceError when |L| exceeds the ceiling or L is NaN.  Deterministic
    for a fixed mode seed.  In exact mode each iterate's circuits are
    simulated once: the L recorded at a state hands its
    ``model.exact_forward`` record to the next gradient at that same state
    object.
    """
    if init.alpha < 0 or init.beta < 0:
        raise ValidationError("alpha and beta must be nonnegative")
    p_count, q_count = len(init.theta), len(init.phi)
    held = [None, None]  # the last state ``value`` saw in exact mode, and its record

    def field(z: SaddlePointState, t: int, stage: int, part):
        result = grad(ctx, PrimalPoint(z.theta, z.alpha), DualPoint(z.phi, z.beta),
                      mode.reseeded(t, stage), held[1] if z is held[0] else None)
        return result.stacked(), result.shots_spent

    def value(z: SaddlePointState, t: int) -> float:
        p, d = PrimalPoint(z.theta, z.alpha), DualPoint(z.phi, z.beta)
        if mode.kind != EXACT:
            return lagrangian(ctx, p, d, mode.reseeded(9, t, 1))
        held[:] = z, exact_forward(ctx, p, d)
        return held[1].terms.value_at(z.alpha, z.beta)

    return _iterate(field, _move, (None,), value, lambda z: (z.theta, z.phi), init, method,
                    schedule, stop, divergence_ceiling,
                    lambda g: _block_norms(g, p_count, q_count))


# ---------------------------------------------------------------------------
# Classical baselines on the raw QCQP


@dataclass(frozen=True)
class ClassicalState:
    """Voltages and multipliers; ``run_classical`` checks that the initial
    multipliers are nonnegative, and every move clips them at zero."""

    v: np.ndarray
    lam: np.ndarray


def classical_lagrangian(problem: QcqpProblem, v: np.ndarray, lam: np.ndarray) -> float:
    """L(v, lambda) = v^dag M0 v + sum_m lambda_m (v^dag M_m v - b_m).

    The multiplier sum uses exact (fsum) accumulation so inert padding rows
    cannot perturb the value through summation order.
    """
    forms = problem.stack.forms(v)
    cost = float(np.real(np.vdot(v, problem.m0 @ v)))
    return cost + math.fsum(lam * (forms - problem.bounds))


def _classical_field(problem: QcqpProblem, s: ClassicalState, part):
    """The (v, lambda) parts 2 (M0 v + sum_m lambda_m M_m v) and forms(v) - b
    of the field of L at s; the part not asked for is None (part None asks
    for both)."""
    grad_v = None if part == "lam" else \
        2.0 * (problem.m0 @ s.v + problem.stack.action(s.lam, s.v))
    grad_lam = None if part == "v" else problem.stack.forms(s.v) - problem.bounds
    return grad_v, grad_lam


def _classical_move(s: ClassicalState, rates, g) -> ClassicalState:
    """Descend v and ascend lambda, clipped at zero, along the parts of g
    present, at the theta and phi rates."""
    (grad_v, grad_lam), (mu_v, _, mu_lam, _) = g, rates
    v = s.v if grad_v is None else s.v - mu_v * grad_v
    lam = s.lam if grad_lam is None else np.maximum(s.lam + mu_lam * grad_lam, 0.0)
    return ClassicalState(v, lam)


def run_classical(problem: QcqpProblem, init: ClassicalState, method: str,
                  schedule: StepSchedule, stop: StopRule,
                  divergence_ceiling: float = 1e9) -> Trajectory:
    """Iterate the classical PD (v, then lambda at the moved v) or EG
    baseline (v and lambda step at the theta and phi rates) until the stop
    rule fires."""
    if (init.lam < 0).any():
        raise ValidationError("multipliers must be nonnegative")
    return _iterate(lambda s, t, stage, part: (_classical_field(problem, s, part), 0),
                    _classical_move, ("v", "lam"),
                    lambda s, t: classical_lagrangian(problem, s.v, s.lam),
                    lambda s: (s.v, s.lam), init, method, schedule, stop, divergence_ceiling)


def default_quantum_init(ctx: LagrangianContext, case_n: int, n_loads: int,
                         seed) -> SaddlePointState:
    """Benchmark initialization: angles uniform on [0, 2pi], alpha = sqrt(N),
    beta = 2 * (number of load nodes)."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, ctx.p_count)
    phi = rng.uniform(0.0, 2.0 * math.pi, ctx.q_count)
    return SaddlePointState(theta, math.sqrt(case_n), phi, 2.0 * n_loads)


def default_classical_init(problem: QcqpProblem, n_loads: int, seed) -> ClassicalState:
    """Flat voltage profile; multipliers |N(0,1)| scaled by 2 * #loads
    (absolute values keep the nonnegativity invariant)."""
    rng = np.random.default_rng(seed)
    v = np.ones(problem.dim, dtype=complex)
    v[problem.n:] = 0.0
    lam = np.abs(rng.standard_normal(problem.m_stored)) * 2.0 * n_loads
    lam[problem.m:] = 0.0
    return ClassicalState(v, lam)
