"""Measurement schedules and closed-form measurement/depth trade-off laws.

A schedule maps the current belief N(mu, sigma^2) to the next circuit setting.
The estimation loop (`engine.run_estimation`) applies the rule itself: theta =
mu - sigma, and the repetition count m below.  An oracle that pins theta gets
a whole m from `next_setting` instead:

* AlphaQPE           m = a (1/sigma)^alpha, alpha in [0, 1].  alpha = 0 is
                     statistical sampling, alpha = 1 full phase estimation,
                     and alpha = 1 with a = 1.25 is the customary
                     random-phase rule m ~ 1.25 / sigma.

An optional depth_cap clamps m.

The number of measurements needed to shrink the expected deviation from 1 to
epsilon under AlphaQPE is (natural logs throughout)

    f(epsilon, alpha) = (2 / (1 - alpha)) (epsilon^(-2 (1 - alpha)) - 1)   alpha < 1
    f(epsilon, 1)     = 4 log(1 / epsilon)

and a coherence-depth budget D on m caps the useful exponent at
alpha_max = min(log(D) / log(1/epsilon), 1); the single-run floor n_min is
f(epsilon, alpha_max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import ExperimentSetting, variance_gain

__all__ = [
    "AlphaQPE",
    "next_setting",
    "predicted_iterations",
    "alpha_max",
    "n_min",
    "n_min_restarts",
    "analytic_risk_curve",
]

# the most whole counts the pinned-theta window may scan, one scalar gain
# each (tens of milliseconds at this width); a capped policy's window holds
# at most floor(depth_cap) / 2 + 1 counts
_MAX_WINDOW = 1 << 16


@dataclass(frozen=True)
class AlphaQPE:
    """m = scale * (1/sigma)^alpha, optionally clamped to depth_cap."""

    alpha: float
    scale: float = 1.0
    depth_cap: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.depth_cap is not None and not self.depth_cap >= 1.0:
            raise ValueError(f"depth_cap must be >= 1, got {self.depth_cap}")

    def raw_m(self, sigma: float) -> float:
        """The rule's m; inf where the power overflows, which the estimation
        loop and `next_setting` then refuse as `ExperimentSetting` does."""
        try:
            return self.scale * sigma ** (-self.alpha)
        except OverflowError:
            return math.inf


def next_setting(policy: AlphaQPE, belief: tuple[float, float], pinned_theta: float) -> tuple[float, float]:
    """Next setting for an oracle that reads out only at pinned_theta, as a
    plain (m, theta) pair; the belief is a `NormalBelief` or a plain pair.

    m is the whole count in [m*/sqrt 2, sqrt 2 m*] (m* the policy's rule,
    clamped to its depth cap) with the least `bayes_risk`, kept within
    [1, floor(depth_cap)], two counts wide wherever 2 fits; a tie goes to
    the first.  The window lets m step off the zeros of the Bayes gain, which
    at a fixed theta fall wherever sin(m (mu - theta)) vanishes: consecutive
    counts share one only at mu - theta = 0 mod pi.  It is scanned in `math`.

    m* and pinned_theta get the checks of `ExperimentSetting` before the
    window, and a setting that fails them raises that constructor's
    ValueError.  A window of more than `_MAX_WINDOW` counts is refused,
    before any scan, with a ValueError that names its width; only a policy
    with no depth cap, or a cap above about 2 `_MAX_WINDOW`, can give one.
    """
    mu, sigma = belief
    depth_cap = policy.depth_cap
    m = policy.raw_m(sigma)
    if depth_cap is not None and m > depth_cap:
        m = float(depth_cap)
    # the checks of ExperimentSetting before the window: math.floor would
    # refuse a non-finite m, and math.sin an infinite theta, with messages of
    # their own
    if not (math.isfinite(m) and m > 0.0 and math.isfinite(pinned_theta)):
        return tuple(ExperimentSetting(m, pinned_theta))
    top = math.sqrt(2.0) * m
    if depth_cap is not None:
        top = min(top, depth_cap)
    hi = max(1, math.floor(top))
    lo = max(1, min(hi - 1, math.ceil(m / math.sqrt(2.0))))
    if hi - lo >= _MAX_WINDOW:
        raise ValueError(
            f"the pinned window around m = {m:.6g} holds {hi - lo + 1:.6g} whole counts, "
            f"more than {_MAX_WINDOW}; give the policy a depth_cap"
        )
    # the least bayes_risk is the largest `bayes._gain`, written out in scalar
    # math over the whole counts: the first maximum wins a tie, and a zero
    # denominator (t = sin2 = 0) gives a zero gain
    delta = mu - pinned_theta
    best_m, best_gain = lo, -1.0
    for k in range(lo, hi + 1):
        x = k * sigma
        t = x * x
        s = math.sin(k * delta)
        sin2 = s * s
        denom = math.expm1(min(t, 700.0)) + sin2
        gain = t * sin2 / denom if denom > 0.0 else 0.0
        if gain > best_gain:
            best_m, best_gain = k, gain
    return float(best_m), pinned_theta


def predicted_iterations(epsilon: float, alpha: float) -> float:
    """Measurements to contract the expected deviation from 1 to epsilon.

    Continuous in alpha: the alpha -> 1 limit of the alpha < 1 branch equals
    the alpha = 1 value 4 log(1/epsilon).
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    log_inv = np.log(1.0 / epsilon)
    if alpha == 1.0:
        return float(4.0 * log_inv)
    return float(2.0 / (1.0 - alpha) * np.expm1(2.0 * (1.0 - alpha) * log_inv))


def _check_budget(epsilon: float, d_max: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not d_max >= 1.0:
        raise ValueError(f"d_max must be >= 1, got {d_max}")


def alpha_max(epsilon: float, d_max: float) -> float:
    """Largest exponent whose final repetition count stays within the depth budget."""
    _check_budget(epsilon, d_max)
    return float(min(np.log(d_max) / np.log(1.0 / epsilon), 1.0))


def n_min(epsilon: float, d_max: float) -> float:
    """Fewest measurements to reach epsilon in one run with every m <= d_max: f(epsilon, alpha_max)."""
    return predicted_iterations(epsilon, alpha_max(epsilon, d_max))


def n_min_restarts(epsilon: float, d_max: float) -> float:
    """Fewest measurements when the exponent may be raised across restarts.

    Run alpha = 1 until the repetition count would exceed d_max, then hold m
    at the budget (alpha = 0 scaling) for the remainder:
    f(1/d_max, 1) + f(epsilon d_max, 0).  Never larger than `n_min`, with
    equality exactly when d_max >= 1/epsilon.
    """
    _check_budget(epsilon, d_max)
    if d_max < 1.0 / epsilon:
        return predicted_iterations(1.0 / d_max, 1.0) + predicted_iterations(epsilon * d_max, 0.0)
    return predicted_iterations(epsilon, 1.0)


def analytic_risk_curve(k, k0: float, r_k0: float, alpha: float):
    """Expected posterior deviation r_k continued from the anchor (k0, r_k0).

    For alpha < 1 the logistic-style closed form

        log r_k = log r_k0 - log(1 + r_k0^(2(1-alpha)) (1-alpha)/2 (k - k0))
                              / (2 (1 - alpha))

    is used; for alpha = 1 each measurement contracts the deviation by the
    exact factor sqrt(1 - variance_gain(1)).  Accepts scalar or array k.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < k0):
        raise ValueError("k must be >= k0")
    if not 0.0 < r_k0 <= 1.0:
        raise ValueError(f"r_k0 must lie in (0, 1], got {r_k0}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 1.0:
        contraction = 1.0 - variance_gain(1.0)
        out = r_k0 * contraction ** (0.5 * (k - k0))
    else:
        two_1ma = 2.0 * (1.0 - alpha)
        log_r = np.log(r_k0) - np.log1p(r_k0**two_1ma * (1.0 - alpha) / 2.0 * (k - k0)) / two_1ma
        out = np.exp(log_r)
    return out if out.ndim else float(out)
