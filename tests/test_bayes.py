"""Likelihood, exact grid updates, the closed-form update and its grid fallback, and the risk formulas."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from alphavqe.bayes import (
    DegenerateUpdateError,
    ExperimentSetting,
    GridBelief,
    NormalBelief,
    bayes_risk,
    bayes_risk_quadrature,
    exact_update,
    likelihood,
    max_variance_gain,
    mixture_update,
    moment_update,
    rejection_filter_update,
    risk_envelope,
    variance_gain,
)

from dense_oracles import brute_posterior_moments

# posterior moments for prior N(0.3, 0.25^2), setting (m=4, theta=0.1),
# computed with scipy.integrate.quad over the real line
QUAD_POSTERIOR = {
    0: (0.711286990023277, 0.223536759921631, 0.195161008202020),
    1: (0.288713009976723, 0.488378445041861, 0.269726779374486),
}
QUAD_RISK = 4.809597373117429e-02

# argmax of variance_gain from a 400k-point scan refined by golden section
GAIN_ARGMAX = 1.154432899226
GAIN_MAX = 0.307276506112


def test_likelihood_is_one_at_matching_phase():
    setting = ExperimentSetting(3.0, 0.7)
    assert likelihood(0, 0.7, setting) == pytest.approx(1.0)
    assert likelihood(1, 0.7, setting) == pytest.approx(0.0)


def test_likelihood_outcomes_sum_to_one():
    setting = ExperimentSetting(2.5, -0.4)
    phi = np.linspace(-4.0, 4.0, 101)
    total = likelihood(0, phi, setting) + likelihood(1, phi, setting)
    assert_allclose(total, np.ones_like(phi), atol=1e-15)


def test_likelihood_rejects_bad_outcome():
    with pytest.raises(ValueError):
        likelihood(2, 0.0, ExperimentSetting(1.0, 0.0))


def test_experiment_setting_rounding():
    assert ExperimentSetting(2.6, 0.0).m_int == 3
    assert ExperimentSetting(0.2, 0.0).m_int == 1
    rounded = ExperimentSetting(7.49, 1.0).rounded()
    assert rounded.m == 7.0 and rounded.theta == 1.0


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_normal_belief_rejects_bad_sigma(bad):
    with pytest.raises(ValueError):
        NormalBelief(0.0, bad)


def test_grid_from_normal_reproduces_moments():
    grid = GridBelief.from_normal(NormalBelief(1.3, 0.4))
    assert grid.mean() == pytest.approx(1.3, abs=1e-9)
    assert grid.std() == pytest.approx(0.4, rel=1e-6)


@pytest.mark.parametrize("e", [0, 1])
def test_exact_update_matches_continuous_quadrature(e):
    prior = GridBelief.from_normal(NormalBelief(0.3, 0.25))
    post = exact_update(prior, e, ExperimentSetting(4.0, 0.1))
    _, want_mean, want_std = QUAD_POSTERIOR[e]
    assert post.mean() == pytest.approx(want_mean, abs=1e-9)
    assert post.std() == pytest.approx(want_std, abs=1e-9)


def test_exact_update_reports_vanished_mass():
    # outcome 1 has likelihood ~0 everywhere the prior lives
    prior = GridBelief.from_normal(NormalBelief(0.0, 1e-12))
    with pytest.raises(DegenerateUpdateError):
        exact_update(prior, 1, ExperimentSetting(1.0, 0.0))


@pytest.mark.parametrize("e", [0, 1])
def test_moment_update_matches_continuous_quadrature(e):
    post = moment_update(NormalBelief(0.3, 0.25), e, ExperimentSetting(4.0, 0.1))
    _, want_mean, want_std = QUAD_POSTERIOR[e]
    assert post.mu == pytest.approx(want_mean, abs=1e-12)
    assert post.sigma == pytest.approx(want_std, abs=1e-12)


def test_moment_update_outcome_average_is_bayes_risk():
    rng = np.random.default_rng(23)
    for _ in range(200):
        prior = NormalBelief(rng.uniform(-3, 3), rng.uniform(0.01, 1.2))
        setting = ExperimentSetting(rng.uniform(0.1, 4.0) / prior.sigma, rng.uniform(-3, 3))
        avg = 0.0
        for e in (0, 1):
            post = moment_update(prior, e, setting)
            prob = 0.5 * (
                1.0
                + (1.0 if e == 0 else -1.0)
                * np.exp(-0.5 * (setting.m * prior.sigma) ** 2)
                * np.cos(setting.m * (prior.mu - setting.theta))
            )
            avg += prob * post.sigma**2
        assert avg == pytest.approx(bayes_risk(setting, prior), rel=1e-12)


def test_moment_update_rejects_bad_outcome():
    with pytest.raises(ValueError):
        moment_update(NormalBelief(0.0, 0.1), 2, ExperimentSetting(1.0, 0.0))


def test_moment_update_handles_near_zero_mass_outcome():
    # outcome 1 at theta = mu has probability ~ t/4 = 2.5e-9; the conditional
    # posterior is the phi^2-weighted prior, which widens to sqrt(3) sigma
    post = moment_update(NormalBelief(0.0, 1e-4), 1, ExperimentSetting(1.0, 0.0))
    assert post.mu == pytest.approx(0.0, abs=1e-12)
    assert post.sigma == pytest.approx(np.sqrt(3.0) * 1e-4, rel=1e-9)


def test_rejection_filter_builtin_model_is_exact_and_rng_free():
    prior = NormalBelief(0.3, 0.25)
    setting = ExperimentSetting(4.0, 0.1)
    state = np.random.get_state()
    post, starved = rejection_filter_update(prior, 0, setting)
    assert not starved
    assert post == moment_update(prior, 0, setting)
    again, _ = rejection_filter_update(prior, 0, setting)
    assert again == post
    # the closed form draws no random numbers
    after = np.random.get_state()
    assert after[0] == state[0] and np.array_equal(after[1], state[1]) and after[2:] == state[2:]


def test_rejection_filter_starvation_falls_back_to_grid():
    # at m sigma = 8e-9 the damping e^(-t/2) rounds to 1, so the closed form
    # has no outcome-1 mass and the update falls back to the grid
    prior = NormalBelief(0.0, 8e-9)
    setting = ExperimentSetting(1.0, 0.0)
    with pytest.raises(DegenerateUpdateError):
        moment_update(prior, 1, setting)
    post, starved = rejection_filter_update(prior, 1, setting)
    assert starved
    want = exact_update(GridBelief.from_normal(prior), 1, setting)
    assert post == NormalBelief(want.mean(), want.std())
    # the outcome-1 posterior is weighted away from phi = 0, so it widens
    assert np.isfinite(post.mu) and post.sigma > prior.sigma


def test_rejection_filter_update_matches_brute_force():
    prior = NormalBelief(0.3, 0.25)
    setting = ExperimentSetting(4.0, 0.1)
    want_mean, want_std = brute_posterior_moments(0.3, 0.25, 0, 4.0, 0.1, seed=11)
    post, starved = rejection_filter_update(prior, 0, setting)
    assert not starved
    assert post.mu == pytest.approx(want_mean, abs=3e-3)
    assert post.sigma == pytest.approx(want_std, rel=2e-2)


def _two_branch_likelihood(confidence):
    # the collapsed two-stage model, written straight from the plain cosine
    def lf(e, phi, setting):
        mirrored = ExperimentSetting(setting.m, -setting.theta)
        return confidence * likelihood(e, phi, setting) + (1.0 - confidence) * likelihood(e, phi, mirrored)

    return lf


def test_mixture_update_matches_grid_oracle():
    draw = np.random.default_rng(2024)
    confidences = [0.5, 1.0] + [float(c) for c in draw.uniform(0.5, 1.0, 38)]
    for i, confidence in enumerate(confidences):
        sigma = float(draw.uniform(0.05, 1.0))
        prior = NormalBelief(float(draw.uniform(-3.0, 3.0)), sigma)
        setting = ExperimentSetting(float(draw.uniform(0.1, 2.5)) / sigma, float(draw.uniform(-np.pi, np.pi)))
        mixture = ((confidence, setting.theta), (1.0 - confidence, -setting.theta))
        grid = GridBelief.from_normal(prior)
        for e in (0, 1):
            want = exact_update(grid, e, setting, likelihood_fn=_two_branch_likelihood(confidence))
            post = mixture_update(prior, e, setting.m, mixture)
            assert post.mu == pytest.approx(want.mean(), abs=1e-11 * sigma), (i, e)
            assert post.sigma == pytest.approx(want.std(), rel=1e-10), (i, e)
            # only the ratio of the weights matters
            scaled = mixture_update(prior, e, setting.m, [(2.5 * w, theta) for w, theta in mixture])
            assert scaled.mu == pytest.approx(post.mu, rel=1e-12, abs=1e-12 * sigma), (i, e)
            assert scaled.sigma == pytest.approx(post.sigma, rel=1e-12), (i, e)
            # the updater routes mixture data to the closed form
            routed, starved = rejection_filter_update(prior, e, setting, mixture=mixture)
            assert not starved
            assert routed == post


def test_mixture_update_at_full_confidence_is_moment_update():
    draw = np.random.default_rng(99)
    for _ in range(50):
        sigma = float(draw.uniform(0.01, 1.0))
        prior = NormalBelief(float(draw.uniform(-3.0, 3.0)), sigma)
        setting = ExperimentSetting(float(draw.uniform(0.1, 3.0)) / sigma, float(draw.uniform(-np.pi, np.pi)))
        for e in (0, 1):
            want = moment_update(prior, e, setting)
            # bit for bit, not approximately: the two-stage mixture toggle
            # must stay inert at confidence 1
            assert mixture_update(prior, e, setting.m, ((1.0, setting.theta), (0.0, -setting.theta))) == want
            assert mixture_update(prior, e, setting.m, ((1.0, setting.theta),)) == want
            assert rejection_filter_update(prior, e, setting) == (want, False)


def test_mixture_update_rejects_bad_input():
    prior = NormalBelief(0.0, 0.1)
    with pytest.raises(ValueError):
        mixture_update(prior, 2, 1.0, ((1.0, 0.0),))
    with pytest.raises(ValueError):
        mixture_update(prior, 0, 1.0, ((1.2, 0.0), (-0.2, 0.5)))
    with pytest.raises(ValueError):
        mixture_update(prior, 0, 1.0, ())


def test_mixture_near_zero_mass_outcome_falls_back_to_grid():
    # at m sigma = 8e-9 the damping e^(-t/2) rounds to 1, so outcome 1 (mass
    # ~ t/4) leaves no closed-form mass; the grid still resolves the
    # likelihood on its +-8 sigma support.  Checked for the plain cosine
    # (mixture None, confidence 1) and for a two-branch mixture.
    prior = NormalBelief(0.0, 8e-9)
    setting = ExperimentSetting(1.0, 3e-9)
    grid = GridBelief.from_normal(prior)
    confidence = 0.8
    cosine = ((1.0, setting.theta),)
    two_branch = ((confidence, setting.theta), (1.0 - confidence, -setting.theta))
    for mixture, components, lf in [
        (None, cosine, likelihood),
        (two_branch, two_branch, _two_branch_likelihood(confidence)),
    ]:
        with pytest.raises(DegenerateUpdateError):
            mixture_update(prior, 1, setting.m, components)
        post, starved = rejection_filter_update(prior, 1, setting, mixture=mixture)
        assert starved
        want = exact_update(grid, 1, setting, likelihood_fn=lf)
        assert post.mu == pytest.approx(want.mean(), rel=1e-12, abs=1e-12 * prior.sigma)
        assert post.sigma == pytest.approx(want.std(), rel=1e-12)
        # the outcome-1 posterior is weighted away from the likelihood's
        # zero, so it widens
        assert np.isfinite(post.mu) and post.sigma > prior.sigma


def test_closed_form_risk_matches_quadrature_spot():
    setting = ExperimentSetting(4.0, 0.1)
    belief = NormalBelief(0.3, 0.25)
    assert bayes_risk(setting, belief) == pytest.approx(QUAD_RISK, rel=1e-9)
    assert bayes_risk_quadrature(setting, belief) == pytest.approx(QUAD_RISK, rel=1e-6)


def test_closed_form_risk_matches_quadrature_sweep():
    rng = np.random.default_rng(7)
    for _ in range(50):
        sigma = rng.uniform(0.02, 0.8)
        m = rng.uniform(0.1, 5.0 / sigma)
        belief = NormalBelief(rng.uniform(-3.0, 3.0), sigma)
        setting = ExperimentSetting(m, rng.uniform(-3.0, 3.0))
        closed = bayes_risk(setting, belief)
        quad = bayes_risk_quadrature(setting, belief)
        assert closed == pytest.approx(quad, rel=1e-6)


def test_risk_never_below_envelope():
    rng = np.random.default_rng(3)
    for _ in range(200):
        sigma = rng.uniform(0.02, 1.0)
        m = rng.uniform(0.1, 4.0 / sigma)
        belief = NormalBelief(rng.uniform(-2.0, 2.0), sigma)
        setting = ExperimentSetting(m, rng.uniform(-2.0, 2.0))
        assert bayes_risk(setting, belief) >= risk_envelope(m, sigma) - 1e-15


def test_envelope_attained_at_quarter_period_offset():
    m, sigma = 3.0, 0.2
    belief = NormalBelief(0.5, sigma)
    setting = ExperimentSetting(m, belief.mu - np.pi / (2.0 * m))
    assert bayes_risk(setting, belief) == pytest.approx(risk_envelope(m, sigma), rel=1e-12)


def test_risk_identity_with_variance_gain():
    # m = x / sigma with theta = mu - sigma makes the risk sigma^2 (1 - g(x))
    rng = np.random.default_rng(19)
    for _ in range(50):
        sigma = rng.uniform(0.01, 0.9)
        x = rng.uniform(0.05, 2.5)
        belief = NormalBelief(rng.uniform(-2.0, 2.0), sigma)
        setting = ExperimentSetting(x / sigma, belief.mu - sigma)
        want = sigma**2 * (1.0 - variance_gain(x))
        assert bayes_risk(setting, belief) == pytest.approx(want, rel=1e-12)


def test_variance_gain_limits_and_max():
    assert variance_gain(0.0) == 0.0
    assert variance_gain(1e-8) == pytest.approx(0.0, abs=1e-8)
    loc, val = max_variance_gain()
    assert loc == pytest.approx(GAIN_ARGMAX, abs=1e-6)
    assert val == pytest.approx(GAIN_MAX, abs=1e-9)
    # the contraction constants the schedules rely on
    assert 1.0 - variance_gain(1.0) == pytest.approx(0.708174052737, abs=1e-9)
    assert 1.0 - val == pytest.approx(0.692723493888, abs=1e-9)


def test_variance_gain_large_argument_saturates():
    assert variance_gain(30.0) == pytest.approx(0.0, abs=1e-300)
    assert np.isfinite(variance_gain(1000.0))
