"""The traced estimation loop and its measurement oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import alphavqe.engine as engine
from alphavqe.bayes import ExperimentSetting, NormalBelief, likelihood
from alphavqe.engine import (
    CircuitOracle,
    EstimationTimeout,
    SyntheticOracle,
    circular_distance,
    ensemble_run,
    run_estimation,
)
from alphavqe.schedules import RFPE, AlphaQPE, StatisticalSampling
from alphavqe.statevector import Ansatz, build_rotation_operator


def test_synthetic_oracle_validates_phase():
    with pytest.raises(ValueError):
        SyntheticOracle(3.5)
    with pytest.raises(ValueError):
        SyntheticOracle(np.pi)


def test_synthetic_oracle_outcome_frequency():
    setting = ExperimentSetting(3.0, 0.1)
    oracle = SyntheticOracle(0.7)
    rng = np.random.default_rng(5)
    draws = np.array([oracle.sample(setting, rng) for _ in range(20_000)])
    p0 = likelihood(0, 0.7, setting)
    assert (draws == 0).mean() == pytest.approx(p0, abs=3.0 * np.sqrt(p0 * (1 - p0) / 20_000))


def test_run_estimation_needs_a_stopping_rule():
    oracle = SyntheticOracle(0.3)
    prior = NormalBelief(0.0, 1.0)
    with pytest.raises(ValueError):
        run_estimation(oracle, AlphaQPE(0.5), prior)
    with pytest.raises(ValueError):
        run_estimation(oracle, AlphaQPE(0.5), prior, epsilon=-0.1)
    with pytest.raises(ValueError):
        run_estimation(oracle, AlphaQPE(0.5), prior, max_iterations=-1)


def test_zero_iterations_returns_the_prior():
    prior = NormalBelief(0.2, 0.8)
    belief, trace = run_estimation(SyntheticOracle(0.3), AlphaQPE(0.5), prior, max_iterations=0)
    assert belief == prior
    assert trace.rows == ()
    assert_array_equal(trace.sigmas(), [0.8])
    assert_array_equal(trace.mus(), [0.2])


def test_trace_layout_and_reproducibility():
    prior = NormalBelief(0.0, 1.0)
    args = dict(epsilon=None, max_iterations=25, seed=42)
    _, t1 = run_estimation(SyntheticOracle(-0.9), AlphaQPE(0.75), prior, **args)
    _, t2 = run_estimation(SyntheticOracle(-0.9), AlphaQPE(0.75), prior, **args)
    assert t1 == t2
    assert [row.k for row in t1.rows] == list(range(1, 26))
    assert t1.sigmas().shape == (26,)
    assert t1.sigmas(include_prior=False).shape == (25,)
    assert t1.sigmas()[0] == 1.0
    assert all(row.outcome in (0, 1) for row in t1.rows)
    _, t3 = run_estimation(SyntheticOracle(-0.9), AlphaQPE(0.75), prior, max_iterations=25, seed=43)
    assert [r.outcome for r in t3.rows] != [r.outcome for r in t1.rows]


def test_settings_follow_the_policy():
    prior = NormalBelief(0.0, 1.0)
    _, trace = run_estimation(
        SyntheticOracle(0.4), RFPE(), prior, max_iterations=15, seed=7
    )
    sigmas = trace.sigmas()
    for i, row in enumerate(trace.rows):
        assert row.m == np.ceil(1.25 / sigmas[i])
        # theta sits one posterior deviation below the running mean
        mu_prev = trace.mus()[i]
        assert row.theta == pytest.approx(mu_prev - sigmas[i])


def test_epsilon_stop_halts_at_first_crossing():
    prior = NormalBelief(0.0, 1.0)
    belief, trace = run_estimation(
        SyntheticOracle(0.5), AlphaQPE(1.0), prior, epsilon=0.05, seed=11
    )
    sigmas = trace.sigmas()
    assert belief.sigma <= 0.05
    assert np.all(sigmas[:-1] > 0.05)


def test_converges_to_the_true_phase():
    belief, trace = run_estimation(
        SyntheticOracle(0.7),
        AlphaQPE(0.5),
        NormalBelief(0.0, 1.0),
        epsilon=0.02,
        seed=3,
    )
    assert belief.sigma <= 0.02
    assert circular_distance(belief.mu, 0.7) < 0.06


def test_hard_cap_raises_with_partial_trace(monkeypatch):
    monkeypatch.setattr(engine, "HARD_ITERATION_CAP", 6)
    with pytest.raises(EstimationTimeout) as err:
        run_estimation(
            SyntheticOracle(0.3),
            StatisticalSampling(),
            NormalBelief(0.0, 1.0),
            epsilon=1e-9,
            seed=1,
        )
    assert len(err.value.trace.rows) == 6


def test_circuit_oracle_agrees_with_synthetic_on_eigenstates():
    op = build_rotation_operator(Ansatz(1, 1, np.array([0.9])), "Z")
    v_plus, v_minus, phi = op.plane_eigenvectors()
    setting = ExperimentSetting(2.0, 0.35)
    p0 = likelihood(0, phi, setting)
    for state, sign in ((v_plus, 1), (v_minus, -1)):
        oracle = CircuitOracle(op, lambda s=state: s, sign=sign)
        rng = np.random.default_rng(99)
        draws = np.array([oracle.sample(setting, rng) for _ in range(4000)])
        assert (draws == 0).mean() == pytest.approx(p0, abs=3.0 * np.sqrt(p0 * (1 - p0) / 4000))


def test_circular_distance_wraps():
    assert circular_distance(np.pi - 0.1, -np.pi + 0.1) == pytest.approx(0.2)
    assert circular_distance(0.0, 2.0 * np.pi) == pytest.approx(0.0)
    assert_allclose(circular_distance([0.0, 0.5], 0.25), [0.25, 0.25])


def test_ensemble_shapes_and_determinism():
    res = ensemble_run(AlphaQPE(1.0), n_phases=20, iterations=15, seed=8)
    assert_array_equal(res.iterations, np.arange(16))
    assert res.mean_sigma.shape == (16,)
    assert res.mean_sigma[0] == 1.0
    assert res.median_error[-1] < res.median_error[0]
    assert np.all(np.diff(res.mean_sigma) < 0.0)
    again = ensemble_run(AlphaQPE(1.0), n_phases=20, iterations=15, seed=8)
    assert_array_equal(res.median_error, again.median_error)


def test_ensemble_validates_arguments():
    with pytest.raises(ValueError):
        ensemble_run(AlphaQPE(0.5), n_phases=0, iterations=5)
    with pytest.raises(ValueError):
        ensemble_run(AlphaQPE(0.5), n_phases=5, iterations=-1)
