"""Gaussian-belief Bayesian inference for single-ancilla phase measurements.

One circuit execution with setting (m, theta) on an eigenphase phi returns a
bit E with probability

    P(E | phi; m, theta) = (1 + (-1)^E cos(m (phi - theta))) / 2.

Beliefs over phi live on the unwrapped real line and are summarized as
normals N(mu, sigma^2).  Posteriors are computed two ways: exactly on a
dense grid (the validation oracle and the degenerate-mass fallback), and in
closed form for any weighted sum of such cosine likelihoods, whose refit
normal's moments are Gaussian trigonometric integrals.  Every likelihood the
estimators use is of that kind: the plain cosine, and the two-branch mixture
of the collapsed two-stage estimator.

`rejection_filter_update` is the one update the estimators call: it takes
the plain cosine or a (weight, theta) mixture to `mixture_update` and falls
back to the grid when the closed form degenerates.

The closed-form expected posterior variance after one measurement (the Bayes
risk) is

    r^2 = sigma^2 (1 - m^2 sigma^2 sin^2(m (mu - theta))
                       / (e^(m^2 sigma^2) - cos^2(m (mu - theta))))

with envelope sigma^2 (1 - m^2 sigma^2 e^(-m^2 sigma^2)) reached when
m (mu - theta) is an odd multiple of pi/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateUpdateError",
    "NormalBelief",
    "ExperimentSetting",
    "GridBelief",
    "likelihood",
    "exact_update",
    "moment_update",
    "mixture_update",
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


@dataclass(frozen=True)
class NormalBelief:
    """Normal state of knowledge N(mu, sigma^2) about an eigenphase."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")


@dataclass(frozen=True)
class ExperimentSetting:
    """Controls for one measurement: repetition count m and phase offset theta.

    m is kept real; schedules may produce fractional values.  Circuit-backed
    execution uses the integer-rounded variant `m_int`.
    """

    m: float
    theta: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.m) and self.m > 0.0):
            raise ValueError(f"m must be finite and positive, got {self.m}")
        if not np.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")

    @property
    def m_int(self) -> int:
        """Repetition count for circuit execution: max(1, round(m))."""
        return max(1, int(round(self.m)))

    def rounded(self) -> "ExperimentSetting":
        """The same setting with m replaced by its circuit-mode integer."""
        return ExperimentSetting(float(self.m_int), self.theta)


def likelihood(e: int, phi, setting: ExperimentSetting):
    """Probability of outcome e in {0, 1} at phase phi (scalar or array)."""
    if e not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {e!r}")
    sign = 1.0 if e == 0 else -1.0
    return 0.5 * (1.0 + sign * np.cos(setting.m * (phi - setting.theta)))


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
    def from_normal(
        cls,
        belief: NormalBelief,
        half_width: float = GRID_HALF_WIDTH,
        points: int = GRID_POINTS,
    ) -> "GridBelief":
        """Discretize a normal on [mu - W sigma, mu + W sigma]."""
        support = np.linspace(
            belief.mu - half_width * belief.sigma,
            belief.mu + half_width * belief.sigma,
            points,
        )
        z = (support - belief.mu) / belief.sigma
        w = np.exp(-0.5 * z * z)
        return cls(support, w / w.sum())

    def mean(self) -> float:
        return float(np.sum(self.weights * self.support))

    def variance(self) -> float:
        mu = np.sum(self.weights * self.support)
        return float(np.sum(self.weights * (self.support - mu) ** 2))

    def std(self) -> float:
        return float(np.sqrt(self.variance()))


def exact_update(prior: GridBelief, e: int, setting: ExperimentSetting, likelihood_fn=None) -> GridBelief:
    """Exact Bayesian update on the grid: the oracle and fallback for the closed-form update."""
    lf = likelihood if likelihood_fn is None else likelihood_fn
    w = prior.weights * lf(e, prior.support, setting)
    total = w.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise DegenerateUpdateError(
            f"posterior mass vanished for outcome {e} at m={setting.m}, theta={setting.theta}"
        )
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
    This is the one-component case of `mixture_update`.
    """
    return mixture_update(prior, e, setting.m, ((1.0, setting.theta),))


def mixture_update(prior: NormalBelief, e: int, m: float, components) -> NormalBelief:
    """Exact refit normal for a weighted sum of cosine likelihoods.

    The likelihood is sum_k w_k P(e | phi; m, theta_k) over the (w_k, theta_k)
    pairs in `components`; the weights must be non-negative with a positive
    total W (they need not be normalized).  The phasors add linearly, so with
    the summed damped components c = sum_k w_k e^(-t/2) cos(delta_k) and
    q = sum_k w_k e^(-t/2) sin(delta_k), delta_k = m (mu - theta_k):

        mu'     = mu - s m sigma^2 q / (W + s c)
        sigma'^2 = sigma^2 (1 - t (s c W + c^2 + q^2) / (W + s c)^2)

    which is `moment_update`'s formula with c and q summed over components.
    A component of weight 1 alone (or next to weight-0 ones) reproduces
    `moment_update` bit for bit.
    """
    if e not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {e!r}")
    s = 1.0 if e == 0 else -1.0
    t = (m * prior.sigma) ** 2
    damp = np.exp(-0.5 * t)
    total = c = q = 0.0
    for w, theta in components:
        if not w >= 0.0:
            raise ValueError(f"mixture weights must be non-negative, got {w}")
        delta = m * (prior.mu - theta)
        total += w
        c += w * damp * np.cos(delta)
        q += w * damp * np.sin(delta)
    if not total > 0.0:
        raise ValueError("mixture needs a positive total weight")
    z = total + s * c
    if not z > 0.0:
        raise DegenerateUpdateError(f"posterior mass vanished for outcome {e} at m={m}")
    mu = prior.mu - s * m * prior.sigma**2 * q / z
    var = prior.sigma**2 * (1.0 - t * (s * c * total + c * c + q * q) / (z * z))
    if not (np.isfinite(mu) and var > 0.0):
        raise DegenerateUpdateError(f"closed-form update degenerated for outcome {e} at m={m}")
    return NormalBelief(float(mu), float(np.sqrt(var)))


def _mixture_likelihood(components):
    """The likelihood `mixture_update` is exact for, as a callable for the grid."""

    def lf(e: int, phi, setting: ExperimentSetting):
        return sum(w * likelihood(e, phi, ExperimentSetting(setting.m, theta)) for w, theta in components)

    return lf


def rejection_filter_update(
    prior: NormalBelief, e: int, setting: ExperimentSetting, mixture=None
) -> tuple[NormalBelief, bool]:
    """One normal-to-normal Bayesian update step.  Returns (posterior, starved).

    The likelihood is the cosine at `setting` or, when `mixture` is given as
    a sequence of (weight, theta) pairs, the weighted sum of cosines at the
    setting's m and each listed theta (the setting's own theta is then not
    used).  `mixture_update` gives the refit normal exactly; the rare outcome
    that leaves it no mass falls back to the exact grid posterior under the
    same likelihood and reports starved=True.

    The name is kept from the rejection-filter sampler this update replaced,
    because it is public and instrumentation wraps it by name.
    """
    components = ((1.0, setting.theta),) if mixture is None else mixture
    try:
        return mixture_update(prior, e, setting.m, components), False
    except DegenerateUpdateError:
        lf = _mixture_likelihood(components)
        post = exact_update(GridBelief.from_normal(prior), e, setting, likelihood_fn=lf)
        return NormalBelief(post.mean(), post.std()), True


def _gain(t, sin2):
    """Fractional variance reduction t sin2 / (e^t - 1 + sin2), safe at t = 0."""
    t = np.asarray(t, dtype=float)
    sin2 = np.asarray(sin2, dtype=float)
    denom = np.expm1(np.minimum(t, 700.0)) + sin2
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom > 0.0, t * sin2 / np.where(denom > 0.0, denom, 1.0), 0.0)
    return out if out.ndim else float(out)


def bayes_risk(setting: ExperimentSetting, belief: NormalBelief) -> float:
    """Expected posterior variance after one measurement, averaged over outcomes."""
    t = (setting.m * belief.sigma) ** 2
    delta = setting.m * (belief.mu - setting.theta)
    return belief.sigma**2 * (1.0 - _gain(t, np.sin(delta) ** 2))


def bayes_risk_quadrature(
    setting: ExperimentSetting,
    belief: NormalBelief,
    half_width: float = GRID_HALF_WIDTH,
    points: int = GRID_POINTS,
) -> float:
    """Expected posterior variance by dense-grid quadrature.

    Independent check of `bayes_risk`: weights each outcome by its predictive
    probability and uses the exact grid posterior's variance.
    """
    grid = GridBelief.from_normal(belief, half_width, points)
    total = 0.0
    for e in (0, 1):
        pe = float(np.sum(grid.weights * likelihood(e, grid.support, setting)))
        if pe <= 0.0:
            continue
        total += pe * exact_update(grid, e, setting).variance()
    return total


def risk_envelope(m: float, sigma: float) -> float:
    """Smallest achievable Bayes risk over theta at fixed m and prior width."""
    t = (m * sigma) ** 2
    return sigma**2 * (1.0 - t * np.exp(-t))


def variance_gain(x):
    """Per-measurement fractional variance reduction at m = x / sigma, theta = mu -/+ sigma.

    variance_gain(x) = x^2 sin^2 x / (e^(x^2) - cos^2 x), with the removable
    singularity at x = 0 filled by 0.  The Bayes risk at that setting is
    sigma^2 (1 - variance_gain(x)) for every sigma.
    """
    x = np.asarray(x, dtype=float)
    return _gain(x * x, np.sin(x) ** 2)


def max_variance_gain() -> tuple[float, float]:
    """Location and value of the maximum of `variance_gain` on (0, 3]."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda x: -variance_gain(x),
        bounds=(1e-6, 3.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x), float(variance_gain(res.x))
