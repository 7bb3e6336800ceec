"""Primal-dual and extragradient iterations over the stacked iterate
z = [theta; alpha; phi; beta], plus the classical baselines running on raw
voltages and multipliers.  Both engines run through one loop, ``_iterate``.

The variational steps move against the signed field g(z) = [grad_theta;
grad_alpha; -grad_phi; -grad_beta] (PD Jacobi), the classical ones against
the field of L(v, lambda) (PD Gauss-Seidel).  The scale variables alpha and
beta (and the classical multipliers) are clipped at zero after every update.
The extragradient first moves to a midpoint with step 2*mu and then applies
the field evaluated there with step mu, exactly as specified.
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
    """|L| exceeded the divergence ceiling at 0-based ``iteration``.

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
    theta: np.ndarray
    alpha: float
    phi: np.ndarray
    beta: float
    iteration: int = 0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValidationError("alpha and beta must be nonnegative")

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.theta, [self.alpha], self.phi, [self.beta]])

    @classmethod
    def from_stacked(cls, vec: np.ndarray, p_count: int, q_count: int,
                     iteration: int = 0) -> "SaddlePointState":
        theta = vec[:p_count]
        alpha = float(vec[p_count])
        phi = vec[p_count + 1:p_count + 1 + q_count]
        beta = float(vec[p_count + 1 + q_count])
        return cls(theta.copy(), alpha, phi.copy(), beta, iteration)


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
    def exponential(cls, theta=(0.015, 0.99985), alpha=(1e-5, 0.999),
                    phi=(0.01, 0.99985), beta=(1e-5, 0.999)):
        """The benchmark defaults: mu_theta = 0.015*0.99985^t,
        mu_phi = 0.01*0.99985^t, mu_alpha = mu_beta = 1e-5*0.999^t."""
        return cls(tuple(theta), tuple(alpha), tuple(phi), tuple(beta))

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


def _mu_vector(rates, p_count: int, q_count: int) -> np.ndarray:
    mu_t, mu_a, mu_f, mu_b = rates
    return np.concatenate([
        np.full(p_count, mu_t), [mu_a], np.full(q_count, mu_f), [mu_b],
    ])


def _project(vec: np.ndarray, p_count: int, q_count: int) -> np.ndarray:
    vec[p_count] = max(vec[p_count], 0.0)
    vec[p_count + 1 + q_count] = max(vec[p_count + 1 + q_count], 0.0)
    return vec


def pd_step(g_fn, z: SaddlePointState, rates) -> tuple[SaddlePointState, dict]:
    """One primal-dual step: all four blocks move against g evaluated once
    at z (Jacobi style), with alpha and beta clipped at zero."""
    p_count, q_count = len(z.theta), len(z.phi)
    g, shots = g_fn(z, z.iteration, 0)
    vec = z.stacked() - _mu_vector(rates, p_count, q_count) * g
    _project(vec, p_count, q_count)
    nxt = SaddlePointState.from_stacked(vec, p_count, q_count, z.iteration + 1)
    return nxt, {"g": g, "shots": shots}


def eg_step(g_fn, z: SaddlePointState, rates) -> tuple[SaddlePointState, dict]:
    """One extragradient step: midpoint with step 2*mu, final update with the
    field at the midpoint and step mu; fresh gradient evaluation at both
    points, projections at both."""
    p_count, q_count = len(z.theta), len(z.phi)
    mu = _mu_vector(rates, p_count, q_count)
    g1, shots1 = g_fn(z, z.iteration, 0)
    mid_vec = _project(z.stacked() - 2.0 * mu * g1, p_count, q_count)
    mid = SaddlePointState.from_stacked(mid_vec, p_count, q_count, z.iteration)
    g2, shots2 = g_fn(mid, z.iteration, 1)
    vec = _project(z.stacked() - mu * g2, p_count, q_count)
    nxt = SaddlePointState.from_stacked(vec, p_count, q_count, z.iteration + 1)
    return nxt, {"g": g1, "g_mid": g2, "shots": shots1 + shots2, "midpoint": mid}


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


def _iterate(step, value, blocks, init, schedule: StepSchedule, stop: StopRule,
             divergence_ceiling: float) -> Trajectory:
    """The one saddle loop.  ``step(z, rates)`` returns the next state and
    its (gradient norms, shots) record or None, ``value(z)`` the Lagrangian
    recorded at a state, before any step from it, and ``blocks(z)`` the two
    blocks whose moves the stop rule compares with ``stop.theta_tol`` and
    ``stop.phi_tol``.  Records the seconds since the start at each accepted
    iterate and aborts with DivergenceError when |L| exceeds the ceiling."""
    traj = Trajectory(states=[init])
    z, start = init, time.perf_counter()
    for t in range(stop.max_iters):
        nxt, record = step(z, schedule.rates(t))
        lag = value(nxt)
        if abs(lag) > divergence_ceiling:
            traj.stop_reason = "diverged"
            raise DivergenceError(t, lag, traj)
        traj.states.append(nxt)
        traj.lagrangians.append(lag)
        traj.seconds.append(time.perf_counter() - start)
        if record is not None:
            traj.g_norms.append(record[0])
            traj.shots.append(record[1])
        (a, b), (a_prev, b_prev) = blocks(nxt), blocks(z)
        z = nxt
        if np.linalg.norm(a - a_prev) <= stop.theta_tol and \
                np.linalg.norm(b - b_prev) <= stop.phi_tol:
            traj.stop_reason = "converged"
            break
    return traj


def run(ctx: LagrangianContext, init: SaddlePointState, method: str,
        schedule: StepSchedule, stop: StopRule, mode: EvalMode = EvalMode(),
        divergence_ceiling: float = 1e9) -> Trajectory:
    """Iterate PD or EG from ``init`` until the stop rule fires.

    Records the Lagrangian (evaluated in the run's mode), per-block gradient
    norms, shots and cumulative seconds per iteration.  Aborts with
    DivergenceError when |L| exceeds the ceiling.  Deterministic for a fixed
    mode seed.  In exact mode each iterate's circuits are simulated once:
    the L recorded at a state hands its ``model.exact_forward`` record to
    the next gradient at that same state object.
    """
    if method not in (PD, EG):
        raise ValidationError(f"unknown method {method!r}")
    step_fn = pd_step if method == PD else eg_step
    p_count, q_count = len(init.theta), len(init.phi)
    held = [None, None]  # the last state ``value`` saw in exact mode, and its record

    def g_fn(z: SaddlePointState, *tags):
        result = grad(ctx, PrimalPoint(z.theta, z.alpha), DualPoint(z.phi, z.beta),
                      mode.reseeded(*tags), held[1] if z is held[0] else None)
        return result.stacked(), result.shots_spent

    def step(z: SaddlePointState, rates):
        nxt, info = step_fn(g_fn, z, rates)
        return nxt, (_block_norms(info["g"], p_count, q_count), info["shots"])

    def value(z: SaddlePointState) -> float:
        p, d = PrimalPoint(z.theta, z.alpha), DualPoint(z.phi, z.beta)
        if mode.kind != EXACT:
            return lagrangian(ctx, p, d, mode.reseeded(9, z.iteration, 1))
        held[:] = z, exact_forward(ctx, p, d)
        return held[1].terms.value_at(z.alpha, z.beta)

    return _iterate(step, value, lambda z: (z.theta, z.phi), init, schedule, stop,
                    divergence_ceiling)


# ---------------------------------------------------------------------------
# Classical baselines on the raw QCQP


@dataclass(frozen=True)
class ClassicalState:
    v: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        if np.any(self.lam < 0):
            raise ValidationError("multipliers must be nonnegative")


def classical_lagrangian(problem: QcqpProblem, v: np.ndarray, lam: np.ndarray) -> float:
    """L(v, lambda) = v^dag M0 v + sum_m lambda_m (v^dag M_m v - b_m).

    The multiplier sum uses exact (fsum) accumulation so inert padding rows
    cannot perturb the value through summation order.
    """
    forms = problem.stack.forms(v)
    cost = float(np.real(np.vdot(v, problem.m0 @ v)))
    return cost + math.fsum(lam * (forms - problem.bounds))


def _classical_field(problem: QcqpProblem, v: np.ndarray, lam: np.ndarray):
    grad_v = 2.0 * (problem.m0 @ v + problem.stack.action(lam, v))
    grad_lam = problem.stack.forms(v) - problem.bounds
    return grad_v, grad_lam


def classical_pd_step(problem: QcqpProblem, s: ClassicalState, steps) -> ClassicalState:
    """Gauss-Seidel primal-dual step on the raw QCQP: descend v at
    (v^t, lam^t), then ascend lambda at (v^{t+1}, lam^t) with projection."""
    mu_v, mu_lam = steps
    grad_v, _ = _classical_field(problem, s.v, s.lam)
    v_next = s.v - mu_v * grad_v
    forms = problem.stack.forms(v_next)
    lam_next = np.maximum(s.lam + mu_lam * (forms - problem.bounds), 0.0)
    return ClassicalState(v_next, lam_next)


def classical_eg_step(problem: QcqpProblem, s: ClassicalState, steps) -> ClassicalState:
    """Extragradient on the stacked (v, lambda) with the same signed-field
    template as the variational engine (both gradients per stage evaluated
    at the stage point)."""
    mu_v, mu_lam = steps
    grad_v, grad_lam = _classical_field(problem, s.v, s.lam)
    v_mid = s.v - 2.0 * mu_v * grad_v
    lam_mid = np.maximum(s.lam + 2.0 * mu_lam * grad_lam, 0.0)
    grad_v2, grad_lam2 = _classical_field(problem, v_mid, lam_mid)
    v_next = s.v - mu_v * grad_v2
    lam_next = np.maximum(s.lam + mu_lam * grad_lam2, 0.0)
    return ClassicalState(v_next, lam_next)


def run_classical(problem: QcqpProblem, init: ClassicalState, method: str,
                  schedule: StepSchedule, stop: StopRule,
                  divergence_ceiling: float = 1e9) -> Trajectory:
    """Iterate the classical PD or EG baseline (v and lambda step at the
    theta and phi rates) until the stop rule fires."""
    if method not in (PD, EG):
        raise ValidationError(f"unknown method {method!r}")
    step_fn = classical_pd_step if method == PD else classical_eg_step

    def step(s: ClassicalState, rates):
        mu_v, _, mu_lam, _ = rates
        return step_fn(problem, s, (mu_v, mu_lam)), None

    return _iterate(step, lambda s: classical_lagrangian(problem, s.v, s.lam),
                    lambda s: (s.v, s.lam), init, schedule, stop, divergence_ceiling)


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
