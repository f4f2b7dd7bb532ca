"""Likelihood, exact grid updates, the closed-form update and its grid fallback, and the risk formulas."""

import copy
import json
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import alphavqe.bayes as bayes
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
    moment_update,
    rejection_filter_update,
    risk_envelope,
    variance_gain,
)

from dense_oracles import brute_posterior_moments, quadrature_posterior_moments

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


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_normal_belief_rejects_bad_sigma(bad):
    with pytest.raises(ValueError):
        NormalBelief(0.0, bad)


@pytest.mark.parametrize("kind", [float, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normal_belief_rejects_non_finite_mu(kind, bad):
    with pytest.raises(ValueError, match="mu must be finite"):
        NormalBelief(kind(bad), kind(1.0))


@pytest.mark.parametrize("kind", [float, np.float64])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_experiment_setting_rejects_bad_m(kind, bad):
    with pytest.raises(ValueError, match="m must be finite and positive"):
        ExperimentSetting(kind(bad), kind(0.0))


@pytest.mark.parametrize("kind", [float, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_experiment_setting_rejects_non_finite_theta(kind, bad):
    with pytest.raises(ValueError, match="theta must be finite"):
        ExperimentSetting(kind(1.0), kind(bad))


# (type, valid fields, bad fields, the message the bad fields raise)
VALUE_TYPE_CASES = [
    (NormalBelief, (0.25, 0.5), (np.nan, 0.5), "mu must be finite"),
    (NormalBelief, (0.25, 0.5), (0.25, 0.0), "sigma must be finite and positive"),
    (ExperimentSetting, (3.0, -0.5), (-1.0, -0.5), "m must be finite and positive"),
    (ExperimentSetting, (3.0, -0.5), (3.0, np.inf), "theta must be finite"),
]


@pytest.mark.parametrize("cls, good, bad, message", VALUE_TYPE_CASES)
def test_value_types_validate_on_every_construction_path(cls, good, bad, message):
    valid = cls(*good)
    # tuple.__new__ skips the check, as a raw tuple or a foreign pickle would;
    # every public way of rebuilding it must run the check again
    unchecked = tuple.__new__(cls, bad)
    builds = {
        "call": lambda: cls(*bad),
        "keywords": lambda: cls(**dict(zip(cls._fields, bad))),
        "_make": lambda: cls._make(bad),
        "_replace": lambda: valid._replace(**dict(zip(cls._fields, bad))),
        "copy": lambda: copy.copy(unchecked),
        "deepcopy": lambda: copy.deepcopy(unchecked),
    }
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        builds[f"pickle{protocol}"] = lambda p=protocol: pickle.loads(pickle.dumps(unchecked, p))
    for name, build in builds.items():
        with pytest.raises(ValueError, match=message):
            build()
    # and each path rebuilds a valid value unchanged
    for same in (
        cls._make(good),
        valid._replace(),
        copy.copy(valid),
        copy.deepcopy(valid),
        *(pickle.loads(pickle.dumps(valid, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert type(same) is cls and same == valid


def test_value_types_are_immutable_with_the_old_repr():
    belief, setting = NormalBelief(0.25, 0.5), ExperimentSetting(3.0, -0.5)
    assert repr(belief) == "NormalBelief(mu=0.25, sigma=0.5)"
    assert repr(setting) == "ExperimentSetting(m=3.0, theta=-0.5)"
    assert NormalBelief._fields == ("mu", "sigma")
    assert ExperimentSetting._fields == ("m", "theta")
    for value, field in ((belief, "mu"), (belief, "sigma"), (setting, "m"), (setting, "theta")):
        with pytest.raises(AttributeError):
            setattr(value, field, 1.0)
        with pytest.raises(AttributeError):
            value.extra = 1.0
        assert not hasattr(value, "__dict__")
    mu, sigma = belief
    assert (mu, sigma) == (belief.mu, belief.sigma) == (0.25, 0.5)
    assert hash(belief) == hash(NormalBelief(0.25, 0.5))


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
    # a bad outcome is not a degenerate one: the updater must not route it to the grid
    with pytest.raises(ValueError):
        rejection_filter_update(NormalBelief(0.0, 0.1), 2, ExperimentSetting(1.0, 0.0))


def test_moment_update_handles_near_zero_mass_outcome():
    # outcome 1 at theta = mu has probability ~ t/4 = 2.5e-9; the conditional
    # posterior is the phi^2-weighted prior, which widens to sqrt(3) sigma
    post = moment_update(NormalBelief(0.0, 1e-4), 1, ExperimentSetting(1.0, 0.0))
    assert post.mu == pytest.approx(0.0, abs=1e-12)
    assert post.sigma == pytest.approx(np.sqrt(3.0) * 1e-4, rel=1e-9)


def test_moment_update_returns_a_checked_belief():
    post = moment_update(NormalBelief(0.3, 0.25), 1, ExperimentSetting(4.0, 0.1))
    assert type(post) is NormalBelief and post == NormalBelief(*post)
    # t = (m sigma)^2 = 1 at delta = pi, outcome 0: the width grows about
    # 1.6-fold and its square overflows, which the constructor refuses as
    # before, with a plain ValueError that the updater does not route to the grid
    sigma = 1.3e154
    prior, setting = NormalBelief(np.pi * sigma, sigma), ExperimentSetting(1.0 / sigma, 0.0)
    for update in (moment_update, lambda *args: rejection_filter_update(*args)[0]):
        with pytest.raises(ValueError) as info:
            update(prior, 0, setting)
        assert info.type is ValueError
        assert str(info.value) == "sigma must be finite and positive, got inf"


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


def test_rejection_filter_starvation_falls_back_to_grid(monkeypatch):
    # the stable closed form degenerates only when (m sigma)^2 underflows to
    # 0 at delta = 0, where the grid has no mass either, so the degeneracy
    # is injected to check the route: starved, and exactly the grid posterior
    def degenerate(mu, sigma, e, m, theta):
        raise DegenerateUpdateError("injected")

    monkeypatch.setattr(bayes, "_moment_step", degenerate)
    prior = NormalBelief(0.3, 0.25)
    setting = ExperimentSetting(4.0, 0.1)
    for e in (0, 1):
        post, starved = rejection_filter_update(prior, e, setting)
        assert starved
        want = exact_update(GridBelief.from_normal(prior), e, setting)
        assert post == NormalBelief(want.mean(), want.std())
        mu, sigma = post
        _, want_mean, want_std = QUAD_POSTERIOR[e]
        assert mu == pytest.approx(want_mean, abs=1e-9)
        assert sigma == pytest.approx(want_std, abs=1e-9)


def test_closed_form_is_stable_down_to_tiny_m_sigma():
    # below m sigma ~ 1e-8 the plain 1 + s c and s c + c^2 + q^2 cancel
    # completely; against a half-angle quadrature oracle the update holds
    # to rounding all the way down to m sigma = 1e-10, never starving
    sigma = 0.5
    prior = NormalBelief(0.0, sigma)
    for m_sigma in 10.0 ** -np.arange(0, 11):
        m = m_sigma / sigma
        for delta in (0.0, 0.3 * m_sigma, -1.7 * m_sigma, 1.0, -2.0 + 2.5 * m_sigma):
            for e in (0, 1):
                (post_mu, post_sigma), starved = rejection_filter_update(prior, e, ExperimentSetting(m, -delta / m))
                assert not starved
                want_mean, want_std = quadrature_posterior_moments(sigma, e, m, delta)
                assert post_mu / sigma == pytest.approx(want_mean, abs=1e-12), (m_sigma, delta, e)
                assert post_sigma / sigma == pytest.approx(want_std, rel=1e-12), (m_sigma, delta, e)
    # outcome 1 at theta = mu weights the prior by phi^2: sqrt(3) sigma
    tiny = NormalBelief(0.0, 1e-8)
    assert moment_update(tiny, 1, ExperimentSetting(1.0, 0.0)).sigma == pytest.approx(np.sqrt(3.0) * 1e-8, rel=1e-12)


def test_rejection_filter_update_matches_brute_force():
    prior = NormalBelief(0.3, 0.25)
    setting = ExperimentSetting(4.0, 0.1)
    want_mean, want_std = brute_posterior_moments(0.3, 0.25, 0, 4.0, 0.1, seed=11)
    (mu, sigma), starved = rejection_filter_update(prior, 0, setting)
    assert not starved
    assert mu == pytest.approx(want_mean, abs=3e-3)
    assert sigma == pytest.approx(want_std, rel=2e-2)


def test_moment_update_matches_grid_oracle():
    draw = np.random.default_rng(2024)
    for i in range(40):
        sigma = float(draw.uniform(0.05, 1.0))
        prior = NormalBelief(float(draw.uniform(-3.0, 3.0)), sigma)
        setting = ExperimentSetting(float(draw.uniform(0.1, 2.5)) / sigma, float(draw.uniform(-np.pi, np.pi)))
        grid = GridBelief.from_normal(prior)
        for e in (0, 1):
            want = exact_update(grid, e, setting)
            post = moment_update(prior, e, setting)
            assert post.mu == pytest.approx(want.mean(), abs=1e-11 * sigma), (i, e)
            assert post.sigma == pytest.approx(want.std(), rel=1e-10), (i, e)
            # the updater routes every outcome to the closed form
            assert rejection_filter_update(prior, e, setting) == (post, False)


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


@pytest.mark.parametrize("m, sigma", [(1e200, 0.05), (0.5, 1e300), (1e-200, 1e160)])
def test_risks_past_float_range_are_refused(m, sigma):
    # (m sigma)^2 overflows in the first two, sigma^2 alone in the last
    with pytest.raises(ValueError, match=r"past float range at m\*sigma = "):
        bayes_risk(ExperimentSetting(m, 0.3), NormalBelief(0.0, sigma))
    with pytest.raises(ValueError, match=r"past float range at m\*sigma = "):
        risk_envelope(m, sigma)


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


def test_package_runs_without_scipy():
    # a None entry in sys.modules makes any scipy import raise ImportError
    code = (
        "import json, sys; sys.modules['scipy'] = None; "
        "import alphavqe; print(json.dumps(alphavqe.max_variance_gain()))"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loc, val = json.loads(done.stdout)
    assert loc == pytest.approx(GAIN_ARGMAX, abs=1e-6)
    assert val == pytest.approx(GAIN_MAX, abs=1e-9)


def test_variance_gain_large_argument_saturates():
    assert variance_gain(30.0) == pytest.approx(0.0, abs=1e-300)
    assert np.isfinite(variance_gain(1000.0))


def test_gain_at_zero_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bayes._gain(0.0, 0.0) == 0.0
        assert variance_gain(0.0) == 0.0
        assert np.array_equal(bayes._gain(np.zeros(3), np.zeros(3)), np.zeros(3))


def test_gain_matches_the_masked_quotient_exactly():
    rng = np.random.default_rng(11)
    t = np.concatenate([[0.0, 0.0, 1e-300, 700.0, 800.0], rng.exponential(2.0, 200)])
    sin2 = np.concatenate([[0.0, 0.5, 0.0, 0.0, 1.0], np.sin(rng.uniform(-4.0, 4.0, 200)) ** 2])
    denom = np.expm1(np.minimum(t, 700.0)) + sin2
    with np.errstate(invalid="ignore", divide="ignore"):
        want = np.where(denom > 0.0, t * sin2 / np.where(denom > 0.0, denom, 1.0), 0.0)
    assert np.array_equal(bayes._gain(t, sin2), want)
    assert [bayes._gain(a, b) for a, b in zip(t, sin2)] == list(want)
