"""Iterative phase estimation: schedule -> measurement -> belief update, traced.

A run threads a normal belief through repeated single-bit measurements.  The
measurement can be synthetic (outcomes drawn from the analytic likelihood at a
hidden true phase) or circuit-backed (the ancilla circuit run on a freshly
prepared eigenstate of a rotation operator).  Identical seeds and
configuration reproduce traces bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bayes import NormalBelief, likelihood, rejection_filter_update
from .rand import child_seed, rng_for
from .schedules import SchedulePolicy, next_setting
from .statevector import RotationOperator, run_phase_circuit

__all__ = [
    "HARD_ITERATION_CAP",
    "EstimationTimeout",
    "SyntheticOracle",
    "CircuitOracle",
    "TraceRow",
    "EstimationTrace",
    "run_estimation",
    "EnsembleResult",
    "ensemble_run",
    "circular_distance",
]

HARD_ITERATION_CAP = 1_000_000


class EstimationTimeout(RuntimeError):
    """Raised when the iteration hard cap is hit; carries the partial trace."""

    def __init__(self, message: str, trace: "EstimationTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SyntheticOracle:
    """Outcomes drawn from the analytic likelihood at a known true phase."""

    true_phi: float
    integer_m: bool = False

    def __post_init__(self) -> None:
        if not -np.pi <= self.true_phi < np.pi:
            raise ValueError(f"true_phi must lie in [-pi, pi), got {self.true_phi}")

    def sample(self, setting, rng: np.random.Generator) -> int:
        return 0 if rng.random() < likelihood(0, self.true_phi, setting) else 1


@dataclass
class CircuitOracle:
    """Outcomes from the ancilla circuit on a freshly prepared system state.

    prepare_state is called anew for every measurement; sign selects whether
    controlled-U (+1) or controlled-U^dag (-1) drives the ancilla.
    """

    operator: RotationOperator
    prepare_state: Callable[[], np.ndarray]
    sign: int = 1
    integer_m: bool = True

    def sample(self, setting, rng: np.random.Generator) -> int:
        outcome, _, _ = run_phase_circuit(self.prepare_state(), self.operator, setting, self.sign, rng)
        return outcome


@dataclass(frozen=True)
class TraceRow:
    """One iteration: the setting used, the outcome, and the updated belief."""

    k: int
    m: float
    theta: float
    outcome: int
    mu: float
    sigma: float
    starved: bool


@dataclass(frozen=True)
class EstimationTrace:
    rows: tuple[TraceRow, ...]
    seed: int
    prior_mu: float
    prior_sigma: float

    def sigmas(self, include_prior: bool = True) -> np.ndarray:
        tail = [row.sigma for row in self.rows]
        return np.array(([self.prior_sigma] + tail) if include_prior else tail)

    def mus(self, include_prior: bool = True) -> np.ndarray:
        tail = [row.mu for row in self.rows]
        return np.array(([self.prior_mu] + tail) if include_prior else tail)


def run_estimation(
    oracle,
    policy: SchedulePolicy,
    prior: NormalBelief,
    *,
    epsilon: float | None = None,
    max_iterations: int | None = None,
    seed: int = 0,
) -> tuple[NormalBelief, EstimationTrace]:
    """Estimate a phase until sigma <= epsilon or max_iterations, whichever first.

    At least one stopping rule is required.  If only epsilon is given and the
    hard cap of 10**6 iterations is reached, EstimationTimeout is raised with
    the partial trace attached.
    """
    if epsilon is None and max_iterations is None:
        raise ValueError("provide a stopping rule: epsilon and/or max_iterations")
    if epsilon is not None and not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if max_iterations is not None and max_iterations < 0:
        raise ValueError(f"max_iterations must be non-negative, got {max_iterations}")
    rng = np.random.default_rng(seed)
    belief = prior
    rows: list[TraceRow] = []
    k = 0
    while True:
        if max_iterations is not None and k >= max_iterations:
            break
        if epsilon is not None and belief.sigma <= epsilon:
            break
        if k >= HARD_ITERATION_CAP:
            raise EstimationTimeout(
                f"sigma={belief.sigma:.3g} after {k} iterations without reaching epsilon={epsilon}",
                _make_trace(rows, seed, prior),
            )
        setting = next_setting(policy, belief)
        if oracle.integer_m:
            setting = setting.rounded()
        outcome = oracle.sample(setting, rng)
        belief, starved = rejection_filter_update(belief, outcome, setting)
        k += 1
        rows.append(TraceRow(k, setting.m, setting.theta, outcome, belief.mu, belief.sigma, starved))
    return belief, _make_trace(rows, seed, prior)


def _make_trace(rows: list[TraceRow], seed: int, prior: NormalBelief) -> EstimationTrace:
    return EstimationTrace(rows=tuple(rows), seed=seed, prior_mu=prior.mu, prior_sigma=prior.sigma)


def circular_distance(a, b):
    """Distance between phases modulo 2 pi, in [0, pi]."""
    return np.abs(np.mod(np.asarray(a) - b + np.pi, 2.0 * np.pi) - np.pi)


@dataclass(frozen=True)
class EnsembleResult:
    """Per-iteration aggregates over many true phases; index 0 is the prior."""

    iterations: np.ndarray
    mean_sigma: np.ndarray
    median_sigma: np.ndarray
    median_error: np.ndarray
    n_phases: int
    policy: SchedulePolicy = field(repr=False, default=None)


def ensemble_run(
    policy: SchedulePolicy,
    n_phases: int,
    iterations: int,
    seed: int = 0,
    prior: NormalBelief | None = None,
) -> EnsembleResult:
    """Run the synthetic estimator over uniformly drawn true phases and aggregate.

    True phases come from the substream (seed, "phases"); run i uses the
    substream (seed, "run", i), so the ensemble is reproducible and each run
    independently replayable.
    """
    if n_phases < 1:
        raise ValueError(f"n_phases must be positive, got {n_phases}")
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    prior = NormalBelief(0.0, 1.0) if prior is None else prior
    phases = rng_for(seed, "phases").uniform(-np.pi, np.pi, n_phases)
    sigmas = np.empty((n_phases, iterations + 1))
    errors = np.empty((n_phases, iterations + 1))
    for i, phi in enumerate(phases):
        _, trace = run_estimation(
            SyntheticOracle(float(phi)),
            policy,
            prior,
            max_iterations=iterations,
            seed=child_seed(seed, "run", i),
        )
        sigmas[i] = trace.sigmas()
        errors[i] = circular_distance(trace.mus(), phi)
    return EnsembleResult(
        iterations=np.arange(iterations + 1),
        mean_sigma=sigmas.mean(axis=0),
        median_sigma=np.median(sigmas, axis=0),
        median_error=np.median(errors, axis=0),
        n_phases=n_phases,
        policy=policy,
    )
