"""Schedule policies, the measurement/depth laws, and the analytic risk curve."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import alphavqe.schedules as schedules
from alphavqe.bayes import ExperimentSetting, NormalBelief, bayes_risk, variance_gain
from alphavqe.engine import SyntheticOracle, run_estimation
from alphavqe.schedules import (
    AlphaQPE,
    alpha_max,
    analytic_risk_curve,
    n_min,
    n_min_restarts,
    next_setting,
    predicted_iterations,
)

from dense_oracles import unpinned_setting, vectorised_window_m, window_bounds


def loop_setting(policy, belief):
    """The (m, theta) the estimation loop runs first from this belief, for an
    oracle that does not pin theta."""
    _, trace = run_estimation(SyntheticOracle(0.3), policy, belief, max_iterations=1)
    row = trace.rows[0]
    return row.m, row.theta


def test_theta_is_mu_minus_sigma_for_every_policy():
    belief = NormalBelief(0.7, 0.2)
    for policy in (AlphaQPE(0.5), AlphaQPE(1.0, scale=1.25), AlphaQPE(1.0, depth_cap=16.0), AlphaQPE(0.0)):
        _, theta = loop_setting(policy, belief)
        assert theta == pytest.approx(0.5)


def test_alpha_qpe_repetition_counts():
    belief = NormalBelief(0.0, 0.01)
    for policy, want in (
        (AlphaQPE(0.0), 1.0),
        (AlphaQPE(0.5), 10.0),
        (AlphaQPE(1.0), 100.0),
        (AlphaQPE(1.0, scale=1.25), 125.0),
    ):
        m, _ = loop_setting(policy, belief)
        assert m == pytest.approx(want)


def test_depth_cap_clamps_every_policy():
    belief = NormalBelief(0.0, 1e-3)
    for policy in (
        AlphaQPE(1.0, depth_cap=32.0),
        AlphaQPE(1.0, scale=1.25, depth_cap=32.0),
        AlphaQPE(0.75, depth_cap=32.0),
    ):
        m, _ = loop_setting(policy, belief)
        assert m == 32.0


def test_statistical_sampling_never_repeats():
    for sigma in (1.0, 0.1, 1e-6):
        m, _ = loop_setting(AlphaQPE(0.0), NormalBelief(0.0, sigma))
        assert m == 1.0


def random_policies_and_beliefs(seed, n):
    draw = np.random.default_rng(seed)
    for _ in range(n):
        cap = None if draw.random() < 0.3 else float(draw.uniform(1.0, 40.0))
        if draw.random() < 0.5:
            policy = AlphaQPE(float(draw.uniform(0.0, 1.0)), scale=float(draw.uniform(0.5, 2.0)), depth_cap=cap)
        else:
            policy = AlphaQPE(1.0, scale=float(draw.uniform(0.5, 2.0)), depth_cap=cap)
        sigma = float(np.exp(draw.uniform(np.log(1e-3), np.log(2.0))))
        yield policy, NormalBelief(float(draw.uniform(-4.0, 4.0)), sigma)


def test_unpinned_setting_is_the_policy_rule_bit_for_bit():
    for policy, belief in random_policies_and_beliefs(61, 300):
        m = policy.raw_m(belief.sigma)
        if policy.depth_cap is not None:
            m = min(m, float(policy.depth_cap))
        want = ExperimentSetting(m, belief.mu - belief.sigma)
        assert unpinned_setting(policy, belief) == want
        assert loop_setting(policy, belief) == want


class FixedM:
    """A policy stand-in whose rule returns one m, uncapped."""

    depth_cap = None

    def __init__(self, m):
        self.m = m

    def raw_m(self, sigma):
        return self.m


def test_unpinned_setting_is_a_checked_setting():
    for policy, belief in random_policies_and_beliefs(62, 50):
        s = unpinned_setting(policy, belief)
        assert type(s) is tuple and ExperimentSetting(*s) == s
        assert unpinned_setting(policy, tuple(belief)) == s
        # the loop's rows hold the same plain floats
        m, theta = loop_setting(policy, belief)
        assert (m, theta) == s and type(m) is type(s[0]) and type(theta) is type(s[1])


@pytest.mark.parametrize(
    "policy, belief, message",
    [
        # the rule's m underflows to 0, overflows to inf, or is nan
        (AlphaQPE(1.0, scale=5e-324), NormalBelief(0.0, 4.0), "m must be finite and positive, got 0.0"),
        (AlphaQPE(1.0), NormalBelief(0.0, 1e-320), "m must be finite and positive, got inf"),
        (FixedM(math.nan), NormalBelief(0.0, 1.0), "m must be finite and positive, got nan"),
        # theta = mu - sigma overflows
        (AlphaQPE(0.0), NormalBelief(-1e308, 1e308), "theta must be finite, got -inf"),
    ],
)
def test_unpinned_setting_refuses_what_the_constructor_refuses(policy, belief, message):
    with pytest.raises(ValueError) as info:
        unpinned_setting(policy, belief)
    assert info.type is ValueError and str(info.value) == message
    # the estimation loop picks its unpinned setting itself and refuses alike
    with pytest.raises(ValueError) as info:
        run_estimation(SyntheticOracle(0.3), policy, belief, max_iterations=1)
    assert info.type is ValueError and str(info.value) == message
    # a pinned theta is finite here, so the pinned path refuses the same m
    # before its window, with the same error
    if message.startswith("m "):
        with pytest.raises(ValueError) as info:
            next_setting(policy, belief, 0.0)
        assert info.type is ValueError and str(info.value) == message


@pytest.mark.parametrize("pinned", [math.nan, math.inf, -math.inf])
def test_pinned_setting_refuses_a_non_finite_theta(pinned):
    with pytest.raises(ValueError) as info:
        next_setting(AlphaQPE(0.5, scale=1.5, depth_cap=32.0), NormalBelief(0.25, 0.125), pinned)
    assert info.type is ValueError and str(info.value) == f"theta must be finite, got {pinned}"


def test_pinned_theta_picks_the_least_risk_whole_m_in_the_window():
    for policy, belief in random_policies_and_beliefs(62, 300):
        pinned = float(np.random.default_rng(int(1e6 * belief.sigma)).uniform(-np.pi, np.pi))
        star, _ = unpinned_setting(policy, belief)
        setting = next_setting(policy, belief, pinned)
        assert type(setting) is tuple and ExperimentSetting(*setting) == setting
        m, theta = setting
        assert theta == pinned
        assert m == round(m) and m >= 1.0
        if policy.depth_cap is not None:
            assert m <= np.floor(policy.depth_cap)
        # the whole counts in [m*/sqrt 2, sqrt 2 m*], cut to [1, floor(cap)],
        # and widened down to hold at least the top two counts where hi > 1
        top = np.sqrt(2.0) * star if policy.depth_cap is None else min(np.sqrt(2.0) * star, np.floor(policy.depth_cap))
        hi = max(1, int(np.floor(top)))
        window = [k for k in range(1, hi + 1) if k >= min(star / np.sqrt(2.0), hi - 1)]
        assert m in window and len(window) >= min(hi, 2)
        risks = [bayes_risk(ExperimentSetting(float(k), pinned), belief) for k in window]
        assert bayes_risk(ExperimentSetting(*setting), belief) == min(risks)


def test_pinned_window_matches_the_vectorised_reference():
    draw = np.random.default_rng(63)
    lengths = set()
    # 3 x 2 x 400 = 2400 beliefs
    for alpha in (0.0, 0.5, 1.0):
        for capped in (False, True):
            for _ in range(400):
                sigma = float(np.exp(draw.uniform(np.log(1e-4), np.log(40.0))))
                # aim m* anywhere in [0.5, 34], so the window holds 1 to 23 counts
                scale = float(np.exp(draw.uniform(np.log(0.5), np.log(34.0)))) * sigma**alpha
                cap = float(draw.uniform(1.0, 40.0)) if capped else None
                policy = AlphaQPE(alpha, scale=scale, depth_cap=cap)
                belief = NormalBelief(float(draw.uniform(-4.0, 4.0)), sigma)
                pinned = float(draw.uniform(-np.pi, np.pi))
                lo, hi = window_bounds(policy, belief)
                lengths.add(hi - lo + 1)
                assert next_setting(policy, belief, pinned) == ExperimentSetting(
                    vectorised_window_m(policy, belief, pinned), pinned
                )
    assert set(range(1, 24)) <= lengths


def test_pinned_window_ties_go_to_the_first_count():
    # mu = theta: sin(m (mu - theta)) = 0, so every gain in the window is 0
    policy, belief = AlphaQPE(1.0, scale=1.5), NormalBelief(0.3, 0.05)
    lo, hi = window_bounds(policy, belief)
    assert (lo, hi) == (22, 42)
    assert next_setting(policy, belief, 0.3) == ExperimentSetting(22.0, 0.3)
    assert vectorised_window_m(policy, belief, 0.3) == 22.0
    # t underflows to 0 as well: the zero denominator gives a zero gain, not a NaN
    policy, belief = AlphaQPE(0.0, scale=3.0), NormalBelief(0.3, 1e-200)
    assert next_setting(policy, belief, 0.3) == ExperimentSetting(float(window_bounds(policy, belief)[0]), 0.3)


@pytest.mark.parametrize(
    "alpha, scale, cap, window",
    [
        (0.0, 0.3, None, (1, 1)),  # m* = 0.3: the window is cut up to m = 1
        (1.0, 1.5, 1.0, (1, 1)),  # a cap of 1 leaves m = 1 only
        (1.0, 1.5, 2.9, (1, 2)),  # m* = 2.9 has no whole count in [2.05, 2.9]: the two counts up to floor(cap)
        (1.0, 1.5, 5.5, (4, 5)),  # the top of the window is floor(cap), not sqrt 2 m*
        (0.5, 4.0, None, (29, 56)),  # m* = 40 uncapped
    ],
)
def test_pinned_window_stays_in_one_to_floor_cap(alpha, scale, cap, window):
    belief = NormalBelief(1.1, 0.01)
    policy = AlphaQPE(alpha, scale=scale, depth_cap=cap)
    assert window_bounds(policy, belief) == window
    for pinned in np.linspace(-np.pi, np.pi, 25):
        m, _ = next_setting(policy, belief, float(pinned))
        assert window[0] <= m <= window[1]
        assert m == vectorised_window_m(policy, belief, float(pinned))


def test_an_uncapped_pinned_window_too_wide_to_scan_is_refused_at_once():
    # m* is about 1e160, so the window holds about 7e159 whole counts
    with pytest.raises(ValueError, match=r"holds 7\.07\d*e\+159 whole counts, more than 65536") as info:
        next_setting(AlphaQPE(0.5), NormalBelief(0.0, 1e-320), 0.0)
    assert info.type is ValueError


def test_the_widest_pinned_window_scanned_holds_the_bound(monkeypatch):
    # the window [22, 42] holds 21 counts: scanned at a bound of 21, refused at 20
    policy, belief = AlphaQPE(1.0, scale=1.5), NormalBelief(0.3, 0.05)
    monkeypatch.setattr(schedules, "_MAX_WINDOW", 21)
    assert next_setting(policy, belief, 0.1) == ExperimentSetting(vectorised_window_m(policy, belief, 0.1), 0.1)
    monkeypatch.setattr(schedules, "_MAX_WINDOW", 20)
    with pytest.raises(ValueError, match="holds 21 whole counts, more than 20"):
        next_setting(policy, belief, 0.1)


@pytest.mark.parametrize("alpha", [-0.1, 1.1])
def test_alpha_out_of_range_rejected(alpha):
    with pytest.raises(ValueError):
        AlphaQPE(alpha)


def test_predicted_iterations_spot_values():
    # direct substitution into the closed form at epsilon = 0.05
    assert predicted_iterations(0.05, 0.0) == pytest.approx(798.0, rel=1e-12)
    assert predicted_iterations(0.05, 0.5) == pytest.approx(76.0, rel=1e-12)
    assert predicted_iterations(0.05, 0.75) == pytest.approx(8.0 * (np.sqrt(20.0) - 1.0), rel=1e-12)
    assert predicted_iterations(0.05, 1.0) == pytest.approx(4.0 * np.log(20.0), rel=1e-12)


def test_predicted_iterations_continuous_at_alpha_one():
    eps = 0.03
    near = predicted_iterations(eps, 1.0 - 1e-9)
    assert near == pytest.approx(predicted_iterations(eps, 1.0), rel=1e-6)


def test_alpha_max_spots():
    assert alpha_max(0.01, 10.0) == pytest.approx(0.5)
    assert alpha_max(0.01, 100.0) == pytest.approx(1.0)
    assert alpha_max(0.01, 1e6) == 1.0  # saturates at 1
    assert alpha_max(0.1, 1.0) == 0.0


def test_n_min_spot_values():
    assert n_min(0.01, 10.0) == pytest.approx(396.0, abs=1e-9)
    # unconstrained regime: d_max >= 1/epsilon collapses to the alpha = 1 count
    assert n_min(0.01, 100.0) == pytest.approx(4.0 * np.log(100.0), abs=1e-9)
    assert n_min(0.01, 1e5) == pytest.approx(4.0 * np.log(100.0), abs=1e-9)


def test_n_min_restarts_spot_values():
    want = 2.0 * ((1.0 / 0.1) ** 2 - 1.0) + 4.0 * np.log(10.0)
    assert n_min_restarts(0.01, 10.0) == pytest.approx(want, abs=1e-9)
    assert n_min_restarts(0.01, 10.0) == pytest.approx(207.2103403719761, abs=1e-9)
    assert n_min_restarts(0.01, 100.0) == pytest.approx(4.0 * np.log(100.0), abs=1e-9)


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.01, 1e-8])
def test_n_min_is_continuous_just_inside_the_budget_one_over_epsilon(eps):
    # alpha_max rounds to about 1 there, where f(eps, alpha) is well
    # conditioned; 2 / (1 - alpha_max) alone is not
    below = float(np.nextafter(1.0 / eps, 0.0))
    assert n_min(eps, below) == pytest.approx(predicted_iterations(eps, 1.0), rel=1e-9)
    assert n_min_restarts(eps, below) == pytest.approx(predicted_iterations(eps, 1.0), rel=1e-9)


@pytest.mark.parametrize("law", [alpha_max, n_min, n_min_restarts])
@pytest.mark.parametrize(
    "eps, d_max, message",
    [(0.0, 2.0, "epsilon must lie in"), (1.0, 2.0, "epsilon must lie in"), (0.1, 0.5, "d_max must be >= 1")],
)
def test_depth_budget_laws_refuse_the_same_inputs(law, eps, d_max, message):
    with pytest.raises(ValueError, match=message):
        law(eps, d_max)


def test_restarts_never_worse_and_equality_region():
    rng = np.random.default_rng(23)
    for _ in range(300):
        eps = rng.uniform(0.005, 0.5)
        d = rng.uniform(1.0, 2.0 / eps)
        lhs = n_min_restarts(eps, d)
        rhs = n_min(eps, d)
        assert lhs <= rhs * (1.0 + 1e-12)
        if d >= 1.0 / eps:
            assert lhs == pytest.approx(rhs, rel=1e-12)
        elif d > 1.0:
            assert lhs < rhs


def test_analytic_curve_alpha_zero_matches_inverse_sqrt_growth():
    # alpha = 0: 1/r^2 grows by 1/2 per measurement from the anchor
    k = np.arange(0, 101, dtype=float)
    r = analytic_risk_curve(k, 0.0, 1.0, 0.0)
    assert_allclose(1.0 / r**2, 1.0 + 0.5 * k, rtol=1e-12)


def test_analytic_curve_alpha_one_is_geometric():
    r10 = analytic_risk_curve(10.0, 10.0, 0.5, 1.0)
    r12 = analytic_risk_curve(12.0, 10.0, 0.5, 1.0)
    assert r10 == pytest.approx(0.5)
    assert r12 == pytest.approx(0.5 * (1.0 - variance_gain(1.0)), rel=1e-12)


def test_analytic_curve_rejects_bad_anchor():
    with pytest.raises(ValueError):
        analytic_risk_curve(5.0, 10.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        analytic_risk_curve(10.0, 5.0, 1.5, 0.5)


def test_analytic_curve_decreasing_in_alpha():
    # more coherence per measurement can only help at matched k
    k = 40.0
    values = [analytic_risk_curve(k, 0.0, 1.0, a) for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
