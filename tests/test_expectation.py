"""Two-stage expectation estimation: gate, collapse, and the full protocol."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from alphavqe.expectation import (
    TARGET_INTERVAL,
    TwoStageConfig,
    collapse_distribution,
    collapse_state,
    hoeffding_bound,
    principal_phase,
    stage1_gate,
    statistical_estimate,
    two_stage_estimate,
)
from alphavqe.statevector import Ansatz, build_rotation_operator, pauli_expectation, prepare

CONFIG = TwoStageConfig(alpha=0.5, d_max=32.0, target_epsilon=0.02)


def ansatz_with_z(value):
    """Single-qubit trial state with <Z> equal to `value`."""
    return Ansatz(1, 1, np.array([np.arccos(value)]))


def test_hoeffding_spot_value():
    assert hoeffding_bound(1000, 0.1) == pytest.approx(2.0 * np.exp(-5.0), rel=1e-12)
    assert hoeffding_bound(100, 0.1) == pytest.approx(2.0 * np.exp(-0.5), rel=1e-12)


def test_target_interval_endpoints():
    lo, hi = TARGET_INTERVAL
    assert lo == pytest.approx(np.cos(5.0 * np.pi / 12.0), rel=1e-15)
    assert hi == pytest.approx(np.cos(np.pi / 12.0), rel=1e-15)


def test_gate_with_tolerance_sits_inside_target_interval():
    cfg = CONFIG
    lo, hi = cfg.gate_interval
    t = cfg.stage1_tolerance
    tlo, thi = cfg.target_interval
    assert tlo < lo - t and hi + t < thi


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=1.5),
        dict(alpha=-0.1),
        dict(d_max=1.0),
        dict(target_epsilon=0.0),
        dict(target_epsilon=1.0),
        dict(stage1_samples=0),
        dict(stage1_tolerance=0.0),
        dict(gate_interval=(0.9, 0.3)),
        dict(gate_interval=(0.0, 0.5)),
        dict(gate_interval=(0.3, 1.0)),
        dict(stop_sigma_factor=0.0),
        dict(schedule_scale=-1.0),
    ],
)
def test_config_validation(kwargs):
    base = dict(alpha=0.5, d_max=32.0, target_epsilon=0.02)
    base.update(kwargs)
    with pytest.raises(ValueError):
        TwoStageConfig(**base)


def test_statistical_estimate_on_definite_state():
    mean, stderr = statistical_estimate(ansatz_with_z(1.0), "Z", 50, np.random.default_rng(0))
    assert mean == 1.0
    assert stderr == 0.0


def test_statistical_estimate_concentrates():
    ansatz = ansatz_with_z(0.37)
    exact = pauli_expectation(prepare(ansatz), "Z")
    for seed in range(5):
        mean, stderr = statistical_estimate(ansatz, "Z", 10_000, np.random.default_rng(seed))
        assert abs(mean - exact) < 3.5 * stderr


def test_stage1_gate_decisions():
    rng = np.random.default_rng(2)
    res = stage1_gate(ansatz_with_z(0.6), "Z", CONFIG, rng)
    assert res.passed and res.sign == 1
    res = stage1_gate(ansatz_with_z(-0.6), "Z", CONFIG, rng)
    assert res.passed and res.sign == -1
    res = stage1_gate(ansatz_with_z(0.0), "Z", CONFIG, rng)
    assert not res.passed
    res = stage1_gate(ansatz_with_z(0.97), "Z", CONFIG, rng)
    assert not res.passed


def expected_collapse_table(phi):
    c2, s2 = np.cos(phi) ** 2, np.sin(phi) ** 2
    return {
        (0, 0): (c2 * np.cos(phi / 2.0) ** 2, 0.5),
        (0, 1): (c2 * np.sin(phi / 2.0) ** 2, 0.5),
        (1, 0): (s2 / 2.0, (1.0 + np.sin(phi)) / 2.0),
        (1, 1): (s2 / 2.0, (1.0 - np.sin(phi)) / 2.0),
    }


@pytest.mark.parametrize("phi", np.linspace(np.pi / 6.0, 5.0 * np.pi / 6.0, 9))
def test_collapse_distribution_matches_table(phi):
    op = build_rotation_operator(ansatz_with_z(np.cos(phi / 2.0)), "Z")
    dist = collapse_distribution(op)
    want = expected_collapse_table(phi)
    assert sum(p for p, _ in dist.values()) == pytest.approx(1.0, abs=1e-12)
    for key, (p_want, conf_want) in want.items():
        p_got, conf_got = dist[key]
        assert p_got == pytest.approx(p_want, abs=1e-10)
        if p_want > 1e-12:
            assert conf_got == pytest.approx(conf_want, abs=1e-10)


def test_collapse_state_contract():
    op = build_rotation_operator(ansatz_with_z(0.6), "Z")
    seen_b2_one = False
    for seed in range(20):
        col = collapse_state(op.base_state, op, np.random.default_rng(seed))
        assert col.branch in (-1, 1)
        assert col.n_measurements == 2
        assert 0.5 <= col.confidence <= 1.0
        assert col.outcomes[0] in (0, 1) and col.outcomes[1] in (0, 1)
        assert_allclose(np.linalg.norm(col.state), 1.0, atol=1e-12)
        if col.outcomes[0] == 1:
            seen_b2_one = True
            assert col.confidence >= 0.75 - 1e-12
        else:
            assert col.confidence == pytest.approx(0.5, abs=1e-10)
    assert seen_b2_one
    with pytest.raises(ValueError):
        collapse_state(op.base_state, op, None)


def test_principal_phase_folding():
    assert principal_phase(0.3) == pytest.approx(0.3)
    assert principal_phase(-0.3) == pytest.approx(0.3)
    assert principal_phase(2.0 * np.pi + 0.4) == pytest.approx(0.4)
    assert principal_phase(np.pi + 0.2) == pytest.approx(np.pi - 0.2)
    assert principal_phase(-7.0) == pytest.approx(7.0 - 2.0 * np.pi)


def test_fallback_path_for_tiny_expectation():
    res = two_stage_estimate(ansatz_with_z(0.05), "Z", CONFIG, np.random.default_rng(6))
    assert res.path == "statistical_fallback"
    assert not res.gate_passed
    assert res.sign_source == "stage1"
    assert res.measurements_used == 2500
    assert res.max_depth_used == 0.0
    assert res.iterations == 0
    assert abs(res.value - 0.05) <= 0.02
    assert abs(res.value) <= 1.0


def test_alpha_path_estimates_magnitude_and_sign():
    res = two_stage_estimate(ansatz_with_z(np.sqrt(0.5)), "Z", CONFIG, np.random.default_rng(3))
    assert res.path == "alpha_qpe"
    assert res.gate_passed
    assert abs(res.value - np.sqrt(0.5)) <= 0.02
    assert res.measurements_used < 2500
    assert res.posterior_sigma <= CONFIG.stop_sigma_factor * CONFIG.target_epsilon
    assert res.iterations > 0
    assert 2.0 <= res.max_depth_used <= CONFIG.d_max

    neg = two_stage_estimate(ansatz_with_z(-0.6), "Z", CONFIG, np.random.default_rng(4))
    assert neg.path == "alpha_qpe"
    assert neg.value < 0.0
    assert abs(neg.value - (-0.6)) <= 0.02


def test_depth_cap_respected_for_small_budget():
    cfg = TwoStageConfig(alpha=1.0, d_max=5.0, target_epsilon=0.05)
    res = two_stage_estimate(ansatz_with_z(0.6), "Z", cfg, np.random.default_rng(12))
    assert res.path == "alpha_qpe"
    assert res.max_depth_used <= 5.0


def test_idealized_collapse_mixture_toggle_is_inert():
    # with a perfectly collapsed input the mixture weight is 1, so the update
    # reduces to the plain likelihood and the runs agree bit for bit
    for seed in (0, 1, 2):
        runs = []
        for mixture in (True, False):
            cfg = TwoStageConfig(
                alpha=0.5,
                d_max=32.0,
                target_epsilon=0.05,
                likelihood_mixture=mixture,
                idealized_collapse=True,
            )
            runs.append(two_stage_estimate(ansatz_with_z(0.7), "Z", cfg, np.random.default_rng(seed)))
        assert runs[0].value == runs[1].value
        assert runs[0].measurements_used == runs[1].measurements_used


def test_idealized_collapse_converges():
    cfg = TwoStageConfig(alpha=0.5, d_max=32.0, target_epsilon=0.02, idealized_collapse=True)
    res = two_stage_estimate(ansatz_with_z(0.55), "Z", cfg, np.random.default_rng(1))
    assert res.path == "alpha_qpe"
    assert abs(res.value - 0.55) <= 0.02
