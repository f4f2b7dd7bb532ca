"""Signed Pauli-expectation estimation under a coherence-depth budget.

`TwoStageConfig` holds the estimator's three settings: the schedule exponent
alpha, the depth budget d_max and the target precision epsilon.  Everything
else is a fixed module constant.

Stage 1 measures the Pauli 1000 times (`_STAGE1_SAMPLES`) and gates on the
magnitude of the sample mean: estimates landing inside the fixed gate
interval [0.36, 0.85] are routed to phase estimation on the rotation
operator (the sign rides along from the stage-1 mean for free); everything
else falls back to plain statistical sampling at the target precision
(`_shot_count`).  The gate sits at least a tolerance of 0.1 inside
`TARGET_INTERVAL` on each side, and `hoeffding_bound(1000, 0.1)` = 2 e^-5 ~
0.013 bounds the chance that a stage-1 mean misses the true magnitude by more
than that tolerance, so a gated term's true magnitude lies inside the target
interval except with at most that probability.

On the phase-estimation path every measurement prepares the trial state
afresh and runs one ancilla circuit on it with controlled powers of the
rotation operator, read out at theta = 0.  The trial state is an exactly even
superposition of the two rotation eigenvectors (eigenphases +-phi), so the
readout is the plain cosine

    P(0) = (1 + cos(m phi)) / 2,

symmetric under phi -> -phi (Knill, Ortiz & Somma, PRA 75, 012328, 2007).
That is `engine.SyntheticOracle`'s law at -phi, phi = 2 arccos |<P>|, with
theta pinned at 0: stage 2 samples through that oracle, one measurement per
iteration, and builds no rotation operator.

The two-measurement collapse toward one eigenvector is kept as a checked
diagnostic (`collapse_state`, `collapse_distribution`), not as part of the
estimator:

    first  (m, theta) = (2, 0)            -> bit b2
    second (m, theta) = (1, b2 * pi / 2)  -> bit b1

Writing phi for the positive eigenphase, the joint outcome distribution is

    (b2, b1) = (0, 0): cos^2(phi) cos^2(phi/2)     plus-branch prob 1/2
    (b2, b1) = (0, 1): cos^2(phi) sin^2(phi/2)     plus-branch prob 1/2
    (b2, b1) = (1, 0): sin^2(phi) / 2              plus-branch prob (1 + sin phi)/2
    (b2, b1) = (1, 1): sin^2(phi) / 2              plus-branch prob (1 - sin phi)/2

The table depends on phi alone.  In the rotation's eigenbasis the trial state
is (1/sqrt 2, 1/sqrt 2) on the eigenvalues e^(+-i phi), so both measurements
are algebra on 2-vectors, with no operator built.  The table needs
0 < phi < pi, that is 0 < |<P>| < 1: at either end the two eigenphases
coincide and the branch confidences are undefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# stage 2 calls engine.run_estimation through the module, so a wrapper
# installed on the module attribute sees every run
from . import engine
# rejection_filter_update, next_setting, run_phase_circuit and
# build_rotation_operator go uncalled here (stage 2 samples through
# engine.SyntheticOracle): bench/tracing.py patches them by name
from .bayes import NormalBelief, rejection_filter_update
from .schedules import AlphaQPE, n_min_restarts, next_setting
from .statevector import (
    Ansatz,
    _ancilla_branches,
    _eigenphase,
    build_rotation_operator,
    pauli_expectation,
    prepare,
    run_phase_circuit,
    sample_pauli_outcomes,
)

__all__ = [
    "TARGET_INTERVAL",
    "TwoStageConfig",
    "hoeffding_bound",
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

# stage 1: shots, and the gate on |mean| that sits at least this tolerance
# inside TARGET_INTERVAL on each side (0.101 at the bottom, 0.116 at the top)
_STAGE1_SAMPLES = 1000
_STAGE1_TOLERANCE = 0.1
_GATE_INTERVAL = (0.36, 0.85)
# 2**32 shots take 10-25 s per term on a 2-core Xeon; more is refused, not run
_MAX_SHOTS = 2**32
# prefactor of the stage-2 depth rule m = scale * sigma^(-alpha).  Deeper
# circuits per unit of posterior width mean fewer belief updates overall; 1.5
# cut stage-2 measurements by roughly a third relative to the customary 1.25
# in calibration sweeps without hurting the realized error rate, and still
# keeps m * sigma well inside the regime where the normal belief tracks the
# posterior.
_SCHEDULE_SCALE = 1.5
# a config whose stage-2 law `n_min_restarts` exceeds this many engine caps
# is refused.  A readout at depth m carries Fisher information m^2 <= D^2, so
# a run needs at least (1/eps^2 - 1/sigma0^2) / D^2 iterations, about half the
# law's tail 2 / (eps D)^2: seeded stage-2 runs where D binds take 0.39-0.66
# times the law, and a refused run would have to beat that bound twice over
_LAW_CAP_FACTOR = 4


@dataclass(frozen=True)
class TwoStageConfig:
    """The estimator's three settings: the schedule exponent alpha, the depth
    budget d_max, and the absolute precision target_epsilon on the expectation.

    Stage 2 drives the phase posterior to sigma <= target_epsilon.  Because
    |d|A|/d phi| <= 1/2, sigma <= 2 target_epsilon would already bound the
    propagated posterior width by target_epsilon; stopping at target_epsilon
    leaves enough headroom that the realized error beats target_epsilon in the
    large majority of runs, not just in expectation.

    A config whose law `n_min_restarts(target_epsilon, floor(d_max))` is past
    `_LAW_CAP_FACTOR` times `engine.HARD_ITERATION_CAP` (read now) is refused
    before any draw, by `_shot_count`'s message if that is past its cap too.
    The law is the least over all exponents: an alpha below alpha_max may
    pass and still run into the cap.
    """

    alpha: float
    d_max: float
    target_epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.d_max >= 2.0:
            raise ValueError(
                f"d_max must be >= 2 (at depth 1 stage 2 would only repeat stage 1's sampling), got {self.d_max}"
            )
        if not 0.0 < self.target_epsilon < 1.0:
            raise ValueError(f"target_epsilon must lie in (0, 1), got {self.target_epsilon}")
        depth, cap = float(np.floor(self.d_max)), engine.HARD_ITERATION_CAP
        with np.errstate(over="ignore"):  # an inf law is past any cap
            law = n_min_restarts(self.target_epsilon, depth)
        if law > _LAW_CAP_FACTOR * cap:
            _shot_count(self.target_epsilon)
            raise ValueError(
                f"epsilon = {self.target_epsilon:.6g} at depth budget {depth:g} needs about {law:.6g} "
                f"stage-2 iterations by n_min_restarts, more than {_LAW_CAP_FACTOR} x the cap of {cap} "
                "iterations a run may take"
            )


def hoeffding_bound(n: int, t: float) -> float:
    """Two-sided bound 2 exp(-n t^2 / 2) on P(|mean - A| >= t) for +-1 samples."""
    return float(2.0 * np.exp(-n * t * t / 2.0))


def _shot_count(epsilon: float) -> int:
    """ceil(1 / epsilon^2) shots, at most `_MAX_SHOTS`; 1 for epsilon >= 1, whose square may overflow."""
    if epsilon >= 1.0:
        return 1
    if not epsilon**2 * _MAX_SHOTS >= 1.0:
        raise ValueError(f"epsilon = {epsilon:.6g} asks for more than the 2**32 shots one estimate may take")
    return math.ceil(1.0 / epsilon**2)


def statistical_estimate(
    ansatz: Ansatz, pauli: str, shots: int, rng: np.random.Generator
) -> float:
    """Sample mean of the Pauli over `shots` fresh preparations.

    The mean of the +-1 outcomes is (2 c - n) / n for c counted +1s out of n
    shots: their sum is an exact integer, so this is the mean of the +-1
    vector bit for bit.
    """
    state = prepare(ansatz)
    plus = sample_pauli_outcomes(state, pauli, shots, rng)
    return (2 * plus - shots) / shots


class Stage1Result(NamedTuple):
    """The stage-1 screen: whether |mean| passed the gate, the mean, and its sign."""

    passed: bool
    estimate: float
    sign: int


def stage1_gate(ansatz: Ansatz, pauli: str, rng: np.random.Generator) -> Stage1Result:
    """Screen the expectation magnitude on the stage-1 shots; the sign of the
    mean comes for free."""
    mean = statistical_estimate(ansatz, pauli, _STAGE1_SAMPLES, rng)
    lo, hi = _GATE_INTERVAL
    return Stage1Result(lo <= abs(mean) <= hi, mean, 1 if mean >= 0.0 else -1)


@dataclass(frozen=True)
class CollapseResult:
    branch: int
    confidence: float
    outcomes: tuple[int, int]
    n_measurements: int


def _collapse_table(phi: float):
    """The two fixed ancilla measurements on the trial state's eigenbasis
    coordinates, plus branch (eigenvalue e^(+i phi)) first.

    Returns (p_b2, branches): p_b2[b2] is the probability of the first bit and
    branches[(b2, b1)] = (p(b1 | b2), exact probability that the post state
    is the plus-branch eigenvector); a zero post state, which stands for a
    zero-probability branch, gets confidence 1/2.
    """
    a2 = math.cos(phi / 2.0) ** 2
    if not (0.0 < phi < math.pi and min(a2, 1.0 - a2) >= 1e-12):
        raise ValueError(f"collapse needs 0 < phi < pi, where 0 < |<P>| < 1 and +-phi differ, got phi = {phi}")
    eigenvalues = np.exp([1j * phi, -1j * phi])
    psi = np.full(2, math.sqrt(0.5), dtype=complex)
    first = _ancilla_branches(psi, eigenvalues**2 * psi)
    branches = {}
    for b2, (_, c2) in enumerate(first):
        turned = np.exp(-1j * b2 * np.pi / 2.0) * eigenvalues * c2
        for b1, (p1, c1) in enumerate(_ancilla_branches(c2, turned)):
            plus, minus = abs(c1) ** 2
            branches[(b2, b1)] = (p1, 0.5 if plus + minus <= 0.0 else float(plus / (plus + minus)))
    return tuple(p2 for p2, _ in first), branches


def collapse_state(phi: float, rng: np.random.Generator | None) -> CollapseResult:
    """Drive the freshly prepared trial state toward one eigenvector of its
    rotation, whose eigenphases are +-phi.

    Samples the two fixed ancilla measurements (one uniform each, in circuit
    order) and reports the more likely eigenvector branch (+1 for the
    positive eigenphase) and that branch's exact probability.
    """
    if rng is None:
        raise ValueError("collapse sampling needs a random generator")
    p_b2, branches = _collapse_table(phi)
    b2 = 0 if rng.random() < p_b2[0] else 1
    b1 = 0 if rng.random() < branches[(b2, 0)][0] else 1
    conf_plus = branches[(b2, b1)][1]
    branch = 1 if conf_plus >= 0.5 else -1
    return CollapseResult(branch, max(conf_plus, 1.0 - conf_plus), (b2, b1), 2)


def collapse_distribution(phi: float) -> dict[tuple[int, int], tuple[float, float]]:
    """Exact collapse statistics on the freshly prepared trial state, whose
    rotation has eigenphases +-phi.

    Returns {(b2, b1): (probability, plus-branch confidence)}; confidence of a
    zero-probability outcome is reported as the limiting value 1/2.
    """
    p_b2, branches = _collapse_table(phi)
    return {(b2, b1): (float(p_b2[b2] * p1), conf) for (b2, b1), (p1, conf) in branches.items()}


class _TrialStateCircuit(engine.SyntheticOracle):
    """Stage-2 oracle: one ancilla circuit on the freshly prepared trial
    state, read out at theta = 0, where it follows the plain cosine at the
    term's exact eigenphase.  It is built at -phi: the readout cannot tell
    +-phi apart, and -phi stays inside [-pi, pi) even at phi = pi."""

    pinned_theta = 0.0


class ExpectationResult(NamedTuple):
    """Outcome of the gated estimator, an immutable named tuple.

    max_depth_used counts the largest number of coherent base-operator
    applications in any single circuit (0 on the sampling path); measurements
    include the stage-1 shots.  Stage 2 reads out through `SyntheticOracle`
    at -phi, theta pinned at 0; iterations and max depth span both attempts.
    """

    value: float
    path: str
    measurements_used: int
    max_depth_used: float
    posterior_sigma: float
    stage1_estimate: float
    iterations: int


def two_stage_estimate(
    ansatz: Ansatz, pauli: str, config: TwoStageConfig, rng: np.random.Generator
) -> ExpectationResult:
    """Estimate <psi|P|psi> with sign to precision ~target_epsilon.

    Gate passes: stage 2 is `engine.run_estimation` through a
    `SyntheticOracle` at the exact eigenphase -phi, theta pinned at 0, drawing
    from `rng`.  Each iteration is one ancilla measurement on the trial state
    with m controlled applications of U, m the whole count `next_setting`
    picks, until sigma <= target_epsilon.  A converged magnitude
    |cos(mu / 2)| that contradicts the stage-1 estimate beyond the gate's
    tolerance is treated as an alias capture and run once more from the
    prior.  The counts and max_depth_used are read from the runs' traces.
    Each run may take the engine's 10**6 iterations; past that,
    EstimationTimeout carries that run's partial trace.  Gate fails:
    statistical sampling topped up to `_shot_count(target_epsilon)` total
    shots, stage 1 included.
    """
    s1 = stage1_gate(ansatz, pauli, rng)
    if not s1.passed:
        total = max(_STAGE1_SAMPLES, _shot_count(config.target_epsilon))
        extra = total - _STAGE1_SAMPLES
        value = s1.estimate
        if extra > 0:
            mean_extra = statistical_estimate(ansatz, pauli, extra, rng)
            value = (s1.estimate * _STAGE1_SAMPLES + mean_extra * extra) / total
        sigma = math.sqrt(max(0.0, 1.0 - value * value) / total)
        return ExpectationResult(float(value), "statistical_fallback", total, 0.0, sigma, s1.estimate, 0)

    # for +-1 shots the arccos map is variance-stabilizing: the standard
    # error of 2 arccos|a_hat| is 2/sqrt(n) whatever the magnitude, so the
    # phase prior can start this tight with a factor-2 margin; a wide prior
    # would span several lobes of the early likelihood and occasionally lock
    # the belief onto an alias, which a lobe-width prior cannot reach
    prior = NormalBelief(_eigenphase(s1.estimate), 4.0 / math.sqrt(_STAGE1_SAMPLES))
    # the circuit m is integer, so the binding cap is floor(d_max)
    policy = AlphaQPE(config.alpha, scale=_SCHEDULE_SCALE, depth_cap=float(np.floor(config.d_max)))
    oracle = _TrialStateCircuit(-_eigenphase(pauli_expectation(prepare(ansatz), pauli)))
    runs = []
    # a posterior parked on an alias lobe of the periodic likelihood is
    # confidently wrong, and more updates of the same kind cannot move it;
    # stage 1 already brackets the magnitude within its tolerance, so a
    # converged phase that contradicts the bracket restarts once from the
    # prior instead of being returned
    for _ in range(2):
        belief, trace = engine.run_estimation(oracle, policy, prior, epsilon=config.target_epsilon, seed=rng)
        runs.append(trace.depths())
        # |cos(mu / 2)| reads the same magnitude for mu, -mu and mu + 2 pi
        magnitude = abs(math.cos(belief.mu / 2.0))
        if abs(magnitude - abs(s1.estimate)) <= _STAGE1_TOLERANCE:
            break
    depths = np.concatenate(runs)
    used, depth = _STAGE1_SAMPLES + depths.size, float(depths.max(initial=0.0))
    value = s1.sign * magnitude
    return ExpectationResult(value, "alpha_qpe", used, depth, belief.sigma, s1.estimate, depths.size)
