"""Gaussian-belief Bayesian inference for single-ancilla phase measurements.

One circuit execution with setting (m, theta) on an eigenphase phi returns a
bit E with probability

    P(E | phi; m, theta) = (1 + (-1)^E cos(m (phi - theta))) / 2.

Every estimator reads its outcomes under this one likelihood.  Beliefs over
phi live on the unwrapped real line and are summarized as normals
N(mu, sigma^2).  Posteriors are computed two ways: exactly on a dense grid
(the validation oracle), and in closed form, since the refit normal's moments
are Gaussian trigonometric integrals.

The closed form is `_moment_step`, on plain floats, and `moment_update`
wraps it in the value types.  The estimation loop (`engine.run_estimation`)
spells it out inline, in the same arithmetic order and with the same checks,
and the tests hold that copy to `_moment_step` bit for bit; an update the
closed form cannot make raises `DegenerateUpdateError` out of the loop.
`rejection_filter_update`, which no estimator calls, takes the closed form
and falls back to the grid when it degenerates.

The closed-form expected posterior variance after one measurement (the Bayes
risk) is

    r^2 = sigma^2 (1 - m^2 sigma^2 sin^2(m (mu - theta))
                       / (e^(m^2 sigma^2) - cos^2(m (mu - theta))))

with envelope sigma^2 (1 - m^2 sigma^2 e^(-m^2 sigma^2)) reached when
m (mu - theta) is an odd multiple of pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DegenerateUpdateError",
    "NormalBelief",
    "ExperimentSetting",
    "GridBelief",
    "likelihood",
    "exact_update",
    "moment_update",
    "rejection_filter_update",
    "bayes_risk",
    "bayes_risk_quadrature",
    "risk_envelope",
    "variance_gain",
    "max_variance_gain",
]

GRID_HALF_WIDTH = 8.0
GRID_POINTS = 4001


class DegenerateUpdateError(ValueError):
    """Raised when a Bayesian update leaves no posterior mass on the grid."""


class _Validated:
    """Routes every way of building a validated named tuple through its __new__.

    A named tuple's `_make` (which `_replace` calls) is `tuple.__new__`, and
    pickle and `copy` would rebuild one without a call; here all of them
    call the class.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class _NormalBeliefFields(NamedTuple):
    mu: float
    sigma: float


class NormalBelief(_Validated, _NormalBeliefFields):
    """Normal state of knowledge N(mu, sigma^2) about an eigenphase.

    An immutable named tuple (mu, sigma), validated however it is built.
    """

    __slots__ = ()

    def __new__(cls, mu: float, sigma: float):
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu}")
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError(f"sigma must be finite and positive, got {sigma}")
        return tuple.__new__(cls, (mu, sigma))


class _ExperimentSettingFields(NamedTuple):
    m: float
    theta: float


class ExperimentSetting(_Validated, _ExperimentSettingFields):
    """Controls for one measurement: repetition count m and phase offset theta.

    An immutable named tuple (m, theta), validated however it is built.  m is
    kept real; schedules may produce fractional values.  A circuit-backed
    oracle gets whole counts from `schedules.next_setting`.
    """

    __slots__ = ()

    def __new__(cls, m: float, theta: float):
        if not (math.isfinite(m) and m > 0.0):
            raise ValueError(f"m must be finite and positive, got {m}")
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        return tuple.__new__(cls, (m, theta))


def likelihood(e: int, phi, setting: tuple[float, float]):
    """Probability of outcome e in {0, 1} at phase phi (scalar or array).

    setting is an `ExperimentSetting` or a plain (m, theta) pair."""
    if e not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {e!r}")
    sign = 1.0 if e == 0 else -1.0
    m, theta = setting
    return 0.5 * (1.0 + sign * np.cos(m * (phi - theta)))


@dataclass
class GridBelief:
    """Discretized belief: a uniform grid of phases with normalized weights."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.support = np.asarray(self.support, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.support.ndim != 1 or self.support.shape != self.weights.shape:
            raise ValueError("support and weights must be matching 1-d arrays")
        if self.support.size < 2:
            raise ValueError("grid needs at least two points")
        steps = np.diff(self.support)
        if not np.all(steps > 0):
            raise ValueError("support must be strictly increasing")
        if np.ptp(steps) > 1e-9 * steps[0]:
            raise ValueError("support must be uniformly spaced")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    @classmethod
    def from_normal(cls, belief: tuple[float, float]) -> "GridBelief":
        """Discretize a normal, a `NormalBelief` or a plain (mu, sigma) pair,
        on GRID_POINTS points of [mu - W sigma, mu + W sigma], W = GRID_HALF_WIDTH."""
        mu, sigma = belief
        support = np.linspace(mu - GRID_HALF_WIDTH * sigma, mu + GRID_HALF_WIDTH * sigma, GRID_POINTS)
        z = (support - mu) / sigma
        w = np.exp(-0.5 * z * z)
        return cls(support, w / w.sum())

    def mean(self) -> float:
        return float(np.sum(self.weights * self.support))

    def variance(self) -> float:
        mu = np.sum(self.weights * self.support)
        return float(np.sum(self.weights * (self.support - mu) ** 2))

    def std(self) -> float:
        return float(np.sqrt(self.variance()))


def exact_update(prior: GridBelief, e: int, setting: tuple[float, float]) -> GridBelief:
    """Exact Bayesian update on the grid: the closed form's oracle and `rejection_filter_update`'s fallback."""
    w = prior.weights * likelihood(e, prior.support, setting)
    total = w.sum()
    if not (np.isfinite(total) and total > 0.0):
        m, theta = setting
        raise DegenerateUpdateError(f"posterior mass vanished for outcome {e} at m={m}, theta={theta}")
    return GridBelief(prior.support, w / total)


def moment_update(prior: NormalBelief, e: int, setting: ExperimentSetting) -> NormalBelief:
    """Exact posterior mean and width under a normal prior, as a refit normal.

    Against the cosine likelihood the first two posterior moments are
    Gaussian trigonometric integrals with closed forms.  With t = (m sigma)^2,
    delta = m (mu - theta), s = +1 for outcome 0 and -1 for outcome 1, and the
    damped phasor components c = e^(-t/2) cos(delta), q = e^(-t/2) sin(delta):

        mu'     = mu - s m sigma^2 q / (1 + s c)
        sigma'^2 = sigma^2 (1 - t (s c + c^2 + q^2) / (1 + s c)^2)

    Averaging sigma'^2 over both outcomes (weighted by their probabilities
    (1 + s c) / 2) collapses to `bayes_risk`, which pins the algebra down.

    At small m sigma both 1 + s c and s c + c^2 + q^2 are differences of
    nearly equal numbers, so they are evaluated in cancellation-free form:
    with g = -expm1(-t/2) and h = cos^2(delta/2) for outcome 0, sin^2(delta/2)
    for outcome 1,

        1 + s c          = g + 2 e^(-t/2) h
        s c + c^2 + q^2  = e^(-t/2) (2 h - g)
    """
    mu, sigma = prior
    m, theta = setting
    return tuple.__new__(NormalBelief, _moment_step(mu, sigma, e, m, theta))


def _moment_step(mu: float, sigma: float, e: int, m: float, theta: float) -> tuple[float, float]:
    """`moment_update`'s closed form on plain floats: the belief (mu, sigma),
    outcome e and setting (m, theta) in, a (mu, sigma) pair that passes every
    check of `NormalBelief` out.  The estimation loop spells it out inline,
    held to it bit for bit."""
    if e == 0:
        s, half = 1.0, math.cos
    elif e == 1:
        s, half = -1.0, math.sin
    else:
        raise ValueError(f"outcome must be 0 or 1, got {e!r}")
    t = (m * sigma) ** 2
    damp = math.exp(-0.5 * t)
    g = -math.expm1(-0.5 * t)
    delta = m * (mu - theta)
    h = half(0.5 * delta) ** 2
    z = g + 2.0 * damp * h
    if not z > 0.0:
        raise DegenerateUpdateError(f"posterior mass vanished for outcome {e} at m={m}")
    var = sigma**2
    mu = mu - s * m * var * damp * math.sin(delta) / z
    var *= 1.0 - (t / z) * (damp * (2.0 * h - g) / z)
    if not (math.isfinite(mu) and var > 0.0):
        raise DegenerateUpdateError(f"closed-form update degenerated for outcome {e} at m={m}")
    sigma = math.sqrt(var)
    # mu is finite and sigma positive here, so only an infinite sigma fails
    # the checks of NormalBelief, which then raises its own error
    if not math.isfinite(sigma):
        NormalBelief(mu, sigma)
    return mu, sigma


def rejection_filter_update(
    prior: tuple[float, float], e: int, setting: tuple[float, float]
) -> tuple[tuple[float, float], bool]:
    """One normal-to-normal Bayesian update step.  Returns ((mu, sigma), starved).

    The prior and setting may be value types or plain pairs, and the
    posterior comes back as a plain pair that passes every check of
    `NormalBelief`.  The closed form of `moment_update` gives the refit
    normal exactly; an outcome that leaves it no mass falls back to the
    exact grid posterior and reports starved=True.  Its cancellation-free
    form loses the mass only when (m sigma)^2 underflows to 0 at delta = 0,
    where the grid has none either and the error propagates.

    The name is kept from the rejection-filter sampler this update replaced,
    because it is public.  The estimation loop does not call it: it makes
    its own closed-form step and lets a degenerate one raise.
    """
    mu, sigma = prior
    m, theta = setting
    try:
        return _moment_step(mu, sigma, e, m, theta), False
    except DegenerateUpdateError:
        post = exact_update(GridBelief.from_normal(prior), e, setting)
        return tuple(NormalBelief(post.mean(), post.std())), True


def _gain(t, sin2):
    """Fractional variance reduction t sin2 / (e^t - 1 + sin2), safe at t = 0."""
    t = np.asarray(t, dtype=float)
    sin2 = np.asarray(sin2, dtype=float)
    denom = np.expm1(np.minimum(t, 700.0)) + sin2
    out = np.divide(t * sin2, denom, out=np.zeros_like(denom), where=denom > 0.0)
    return out if out.ndim else float(out)


def _squares(m: float, sigma: float) -> tuple[float, float]:
    """(m sigma)^2 and sigma^2 for the risks, refused past float range."""
    try:
        t, var = (m * sigma) ** 2, sigma**2
    except OverflowError:
        t = var = math.inf
    if not (math.isfinite(t) and math.isfinite(var)):
        raise ValueError(f"(m*sigma)^2 or sigma^2 is past float range at m*sigma = {m * sigma:.6g}")
    return t, var


def bayes_risk(setting: ExperimentSetting, belief: NormalBelief) -> float:
    """Expected posterior variance after one measurement, averaged over outcomes."""
    t, var = _squares(setting.m, belief.sigma)
    delta = setting.m * (belief.mu - setting.theta)
    return var * (1.0 - _gain(t, np.sin(delta) ** 2))


def bayes_risk_quadrature(setting: ExperimentSetting, belief: NormalBelief) -> float:
    """Expected posterior variance by quadrature on the `GridBelief.from_normal` grid.

    Independent check of `bayes_risk`: weights each outcome by its predictive
    probability and uses the exact grid posterior's variance in z = (phi - mu) / sigma,
    scaled by sigma^2 once, so a subnormal sigma^2 costs no precision.
    """
    grid = GridBelief.from_normal((0.0, 1.0))
    phi = belief.mu + belief.sigma * grid.support
    total = 0.0
    for e in (0, 1):
        weights = grid.weights * likelihood(e, phi, setting)
        pe = float(np.sum(weights))
        if pe <= 0.0:
            continue
        total += pe * GridBelief(grid.support, weights / pe).variance()
    return belief.sigma**2 * total


def risk_envelope(m: float, sigma: float) -> float:
    """Smallest achievable Bayes risk over theta at fixed m and prior width."""
    t, var = _squares(m, sigma)
    return var * (1.0 - t * np.exp(-t))


def variance_gain(x):
    """Per-measurement fractional variance reduction at m = x / sigma, theta = mu -/+ sigma.

    variance_gain(x) = x^2 sin^2 x / (e^(x^2) - cos^2 x), with the removable
    singularity at x = 0 filled by 0.  The Bayes risk at that setting is
    sigma^2 (1 - variance_gain(x)) for every sigma.
    """
    x = np.asarray(x, dtype=float)
    return _gain(x * x, np.sin(x) ** 2)


def max_variance_gain() -> tuple[float, float]:
    """Location and value of the maximum of `variance_gain` on (0, 3].

    Golden-section search on [1e-6, 3], where the gain is unimodal, down to
    a bracket of 1e-12.
    """
    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 1e-6, 3.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    gc, gd = variance_gain(c), variance_gain(d)
    while b - a > 1e-12:
        if gc > gd:
            b, d, gd = d, c, gc
            c = b - shrink * (b - a)
            gc = variance_gain(c)
        else:
            a, c, gc = c, d, gd
            d = a + shrink * (b - a)
            gd = variance_gain(d)
    x = 0.5 * (a + b)
    return float(x), float(variance_gain(x))
