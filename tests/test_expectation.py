"""Two-stage expectation estimation: gate, stage-2 oracle, collapse, and the full protocol."""

import math

import numpy as np
import pytest

import alphavqe.engine as engine
import alphavqe.expectation as expectation
import alphavqe.schedules as schedules
import alphavqe.vqe as vqe
from alphavqe.bayes import ExperimentSetting, NormalBelief
from alphavqe.engine import EstimationTimeout
from alphavqe.expectation import (
    TARGET_INTERVAL,
    TwoStageConfig,
    _TrialStateCircuit,
    collapse_distribution,
    collapse_state,
    hoeffding_bound,
    stage1_gate,
    statistical_estimate,
    two_stage_estimate,
)
from alphavqe.rand import child_seed, rng_for
from alphavqe.statevector import (
    Ansatz,
    RotationOperator,
    _eigenphase,
    pauli_expectation,
    prepare,
    sample_pauli_outcomes,
)
from alphavqe.vqe import Hamiltonian, estimate_energy

from dense_oracles import (
    circuit_branches,
    clip_eigenphase,
    dense_eigenvectors,
    dense_operator,
    kron_rotation,
    pm_one_draws,
)

CONFIG = TwoStageConfig(alpha=0.5, d_max=32.0, target_epsilon=0.02)


def ansatz_with_z(value):
    """Single-qubit trial state with <Z> equal to `value`."""
    return Ansatz(1, 1, np.array([np.arccos(value)]))


def term_phase(ansatz, pauli):
    """The exact eigenphase 2 arccos |<P>| of a term's rotation."""
    return _eigenphase(pauli_expectation(prepare(ansatz), pauli))


def test_hoeffding_spot_value():
    assert hoeffding_bound(1000, 0.1) == pytest.approx(2.0 * np.exp(-5.0), rel=1e-12)
    assert hoeffding_bound(100, 0.1) == pytest.approx(2.0 * np.exp(-0.5), rel=1e-12)


def test_target_interval_endpoints():
    lo, hi = TARGET_INTERVAL
    assert lo == pytest.approx(np.cos(5.0 * np.pi / 12.0), rel=1e-15)
    assert hi == pytest.approx(np.cos(np.pi / 12.0), rel=1e-15)


def test_gate_with_tolerance_sits_inside_target_interval():
    lo, hi = expectation._GATE_INTERVAL
    t = expectation._STAGE1_TOLERANCE
    tlo, thi = TARGET_INTERVAL
    assert tlo < lo - t and hi + t < thi


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=1.5),
        dict(alpha=-0.1),
        dict(d_max=1.0),
        dict(target_epsilon=0.0),
        dict(target_epsilon=1.0),
    ],
)
def test_config_validation(kwargs):
    base = dict(alpha=0.5, d_max=32.0, target_epsilon=0.02)
    base.update(kwargs)
    with pytest.raises(ValueError):
        TwoStageConfig(**base)


def test_config_refuses_a_stage2_law_past_four_caps_before_any_draw(monkeypatch):
    # the refusal is the Fisher bound at the window's deepest count: at
    # (0.5, floor(32.5), 0.01) the rule gives m = 15 at sigma = 0.01, so the
    # window reaches floor(15 sqrt 2) = 21, and a run needs at least
    # (1/0.01^2 - 1000/16) / 21^2 = 22.53 iterations; the cap is read when
    # the config is built
    bound = (1e4 - 62.5) / 21**2
    monkeypatch.setattr(engine, "HARD_ITERATION_CAP", 11)
    with pytest.raises(ValueError) as err:
        TwoStageConfig(alpha=0.5, d_max=32.5, target_epsilon=0.01)
    assert str(err.value) == (
        f"epsilon = 0.01 at alpha = 0.5 and depth budget 32 needs at least {bound:.6g} stage-2 iterations "
        "(the Fisher bound at the window's deepest count, 21), more than 2 x the cap of 11 iterations "
        "a run may take"
    )
    # a config whose bound is half the refusal threshold is admitted
    monkeypatch.setattr(engine, "HARD_ITERATION_CAP", math.ceil(bound))
    TwoStageConfig(alpha=0.5, d_max=32.5, target_epsilon=0.01)


def test_config_refuses_a_window_that_could_outgrow_its_scan_before_any_draw(monkeypatch):
    # at alpha = 1 the rule reaches 1.5e5 at sigma = 1e-5, so the window's top
    # is floor(1.5e5 sqrt 2) = 212132, past 2 x 65536: the run would draw and
    # then fail in next_setting; here the config is refused by name, although
    # the Fisher bound (0.22 iterations) and the fallback's shot count would
    # also refuse nothing sooner
    with pytest.raises(ValueError) as err:
        TwoStageConfig(alpha=1.0, d_max=1e9, target_epsilon=1e-5)
    assert str(err.value) == (
        "epsilon = 1e-05 at alpha = 1 and depth budget 1e+09 takes the window to count 212132, past 2 x its "
        "scan limit 65536"
    )
    # an infinite rule m under an infinite cap is refused the same way
    with pytest.raises(ValueError, match="takes the window to count inf, past"):
        TwoStageConfig(alpha=1.0, d_max=math.inf, target_epsilon=1e-320)
    # the limit is read when the config is built: a top of 2 x 106 - 1 is
    # admitted, one of 2 x 106 refused
    monkeypatch.setattr(schedules, "_MAX_WINDOW", 106)
    TwoStageConfig(alpha=0.5, d_max=211.0, target_epsilon=1e-4)
    with pytest.raises(ValueError, match="to count 212, past 2 x its scan limit 106$"):
        TwoStageConfig(alpha=0.5, d_max=212.0, target_epsilon=1e-4)


def test_an_admitted_window_never_outgrows_its_scan(monkeypatch):
    # lo >= hi / 2, so a window whose top stays below 2 _MAX_WINDOW holds at
    # most _MAX_WINDOW counts: at a limit of 16, alpha = 1 and epsilon =
    # 0.067 reach a top of floor(1.5 sqrt 2 / 0.067) = 31 and are admitted,
    # and every sigma down to epsilon gets a setting; 0.066 reaches 32.
    # Stage 2 cannot pay at 0.067, so the run is at alpha = 0.5 and epsilon =
    # 0.00468, whose top is also floor(1.5 sqrt(2 / 0.00468)) = 31
    monkeypatch.setattr(schedules, "_MAX_WINDOW", 16)
    config = TwoStageConfig(alpha=1.0, d_max=1e9, target_epsilon=0.067)
    deep = TwoStageConfig(alpha=0.5, d_max=1e9, target_epsilon=0.00468)
    for admitted in (config, deep):
        for sigma in np.geomspace(1.0, admitted.target_epsilon, 400).tolist():
            for mu in (0.3, 1.0, 2.5):
                m, _ = schedules.next_setting(admitted._policy, (mu, sigma), 0.0)
                assert 1.0 <= m <= 31.0
    result = two_stage_estimate(ansatz_with_z(0.6), "Z", deep, np.random.default_rng(3))
    assert result.path == "alpha_qpe" and result.max_depth_used <= 31.0
    with pytest.raises(ValueError, match="to count 32, past 2 x its scan limit 16$"):
        TwoStageConfig(alpha=1.0, d_max=1e9, target_epsilon=0.066)


def test_a_config_the_law_admits_runs_stage2_past_the_fallbacks_shot_cap():
    # the window reaches m = 11929 at sigma = 1e-5, so the Fisher bound is
    # under 71 iterations, while the fallback would need 10**10 shots: a
    # gated term finishes, and only a term that falls back is refused, by the
    # shot count
    config = TwoStageConfig(alpha=0.75, d_max=1e5, target_epsilon=1e-5)
    result = two_stage_estimate(ansatz_with_z(0.6), "Z", config, np.random.default_rng(5))
    assert result.path == "alpha_qpe"
    assert abs(result.value - 0.6) < 1e-3
    with pytest.raises(ValueError, match=r"^epsilon = 1e-05 asks for more than the 2\*\*32 shots"):
        two_stage_estimate(ansatz_with_z(0.1), "Z", config, np.random.default_rng(5))


def test_eigenphase_is_the_clip_form_bit_for_bit():
    ulp_edges = [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]
    edges = [0.0, -0.0, 1.0, -1.0, *ulp_edges, *(-x for x in ulp_edges), math.nan]
    sweep = np.random.default_rng(27).uniform(-1.25, 1.25, 10**6)
    values = np.concatenate((edges, sweep))
    got = np.array([_eigenphase(x) for x in values.tolist()])
    assert np.array_equal(got.view(np.int64), clip_eigenphase(values).view(np.int64))
    # the array form of the oracle agrees with its scalar form
    head = values[:10_000].tolist()
    assert np.array_equal(np.array([clip_eigenphase(x) for x in head]).view(np.int64), got[:10_000].view(np.int64))


def pm_one_stderr(mean: float, shots: int) -> float:
    """Standard error of a mean of shots +-1 draws, from the mean alone: for
    +-1 draws the ddof = 1 variance is n (1 - mean^2) / (n - 1)."""
    return float(np.sqrt(max(0.0, 1.0 - mean * mean) / (shots - 1)))


def test_statistical_estimate_on_definite_state():
    assert statistical_estimate(ansatz_with_z(1.0), "Z", 50, np.random.default_rng(0)) == 1.0


@pytest.mark.parametrize("value", [1.0, 0.37, -0.8, 0.0])
@pytest.mark.parametrize("shots", [2, 10, 1000])
def test_statistical_estimate_stderr_is_the_sample_std(value, shots):
    # the estimator returns the mean alone; the standard error that the
    # concentration bound below takes from it is the draws' sample std
    ansatz = ansatz_with_z(value)
    mean = statistical_estimate(ansatz, "Z", shots, np.random.default_rng(shots))
    draws = pm_one_draws(pauli_expectation(prepare(ansatz), "Z"), shots, shots)
    assert mean == draws.mean()
    stderr = pm_one_stderr(mean, shots)
    assert stderr == pytest.approx(draws.std(ddof=1) / np.sqrt(shots), rel=1e-12, abs=0.0)
    if value == 1.0:
        assert np.all(draws == 1.0) and stderr == 0.0


@pytest.mark.parametrize("value", [-1.0, -0.37, 0.0, 0.6, 1.0])
@pytest.mark.parametrize("shots", [1, 2, 7, 1000, 1500, 2500])
def test_stage1_count_gives_the_mean_of_the_pm_one_vector_bit_for_bit(value, shots):
    ansatz = ansatz_with_z(value)
    state = prepare(ansatz)
    seed = 1000 * shots + int(100 * value)
    plus = sample_pauli_outcomes(state, "Z", shots, np.random.default_rng(seed))
    draws = pm_one_draws(pauli_expectation(state, "Z"), shots, seed)
    assert plus == np.count_nonzero(draws == 1.0)
    assert (2 * plus - shots) / shots == draws.mean()
    assert statistical_estimate(ansatz, "Z", shots, np.random.default_rng(seed)) == draws.mean()


def test_shot_count_is_capped_at_two_to_the_32():
    assert expectation._shot_count(2.0**-16) == 2**32
    below = math.nextafter(2.0**-16, 0.0)
    assert math.ceil(1.0 / below**2) == 2**32 + 1
    with pytest.raises(ValueError, match=r"asks for more than the 2\*\*32 shots one estimate may take"):
        expectation._shot_count(below)
    # epsilon^2 underflows to 0, or to a subnormal whose reciprocal is inf
    for epsilon in (1e-200, 1e-160):
        with pytest.raises(ValueError, match=f"epsilon = {epsilon:g} asks for more than"):
            expectation._shot_count(epsilon)
    assert expectation._shot_count(0.02) == 2500
    assert expectation._shot_count(1.0) == expectation._shot_count(1e300) == 1


def test_statistical_estimate_concentrates():
    ansatz = ansatz_with_z(0.37)
    exact = pauli_expectation(prepare(ansatz), "Z")
    for seed in range(5):
        mean = statistical_estimate(ansatz, "Z", 10_000, np.random.default_rng(seed))
        assert abs(mean - exact) < 3.5 * pm_one_stderr(mean, 10_000)


def test_stage1_gate_decisions():
    rng = np.random.default_rng(2)
    res = stage1_gate(ansatz_with_z(0.6), "Z", rng)
    assert res.passed and res.sign == 1
    res = stage1_gate(ansatz_with_z(-0.6), "Z", rng)
    assert res.passed and res.sign == -1
    res = stage1_gate(ansatz_with_z(0.0), "Z", rng)
    assert not res.passed
    res = stage1_gate(ansatz_with_z(0.97), "Z", rng)
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
    dist = collapse_distribution(phi)
    want = expected_collapse_table(phi)
    assert sum(p for p, _ in dist.values()) == pytest.approx(1.0, abs=1e-12)
    for key, (p_want, conf_want) in want.items():
        p_got, conf_got = dist[key]
        assert p_got == pytest.approx(p_want, abs=1e-10)
        if p_want > 1e-12:
            assert conf_got == pytest.approx(conf_want, abs=1e-10)


def test_collapse_state_contract():
    phi = _eigenphase(0.6)
    seen_b2_one = False
    for seed in range(20):
        col = collapse_state(phi, np.random.default_rng(seed))
        assert col.branch in (-1, 1)
        assert col.n_measurements == 2
        assert 0.5 <= col.confidence <= 1.0
        assert col.outcomes[0] in (0, 1) and col.outcomes[1] in (0, 1)
        if col.outcomes[0] == 1:
            seen_b2_one = True
            assert col.confidence >= 0.75 - 1e-12
        else:
            assert col.confidence == pytest.approx(0.5, abs=1e-10)
    assert seen_b2_one
    with pytest.raises(ValueError):
        collapse_state(phi, None)


def sample_circuit(apply_u, state, m, theta, rng):
    """One shot of the Kronecker reference circuit: (outcome, post state)."""
    (p0, state0), (_, state1) = circuit_branches(apply_u, state, m, theta)
    return (0, state0) if rng.random() < p0 else (1, state1)


def dense_collapse_table(ansatz, pauli):
    """{(b2, b1): (probability, plus-branch confidence)} of the two collapse
    measurements, run on the Kronecker reference circuit."""
    psi, apply_u = kron_rotation(ansatz, pauli)
    v_plus, v_minus, _ = dense_eigenvectors(dense_operator(apply_u, psi.size))
    table = {}
    for b2, (p2, state2) in enumerate(circuit_branches(apply_u, psi, 2, 0.0)):
        for b1, (p1, state1) in enumerate(circuit_branches(apply_u, state2, 1, b2 * np.pi / 2.0)):
            plus = abs(np.vdot(v_plus, state1)) ** 2
            total = plus + abs(np.vdot(v_minus, state1)) ** 2
            table[(b2, b1)] = (p2 * p1, 0.5 if total <= 0.0 else plus / total)
    return table


def test_collapse_state_samples_the_two_circuits_it_replaces():
    # YZY, not XZY: one Y letter on this real ansatz gives <P> = 0, whose
    # degenerate spectrum the collapse table refuses
    terms = [
        (ansatz_with_z(0.6), "Z"),
        (Ansatz(3, 2, np.random.default_rng(2).uniform(-np.pi, np.pi, 6)), "YZY"),
    ]
    for ansatz, pauli in terms:
        assert 0.01 < abs(pauli_expectation(prepare(ansatz), pauli)) < 0.99
        phi = term_phase(ansatz, pauli)
        psi, apply_u = kron_rotation(ansatz, pauli)
        v_plus, v_minus, _ = dense_eigenvectors(dense_operator(apply_u, psi.size))
        for seed in range(50):
            rng_table, rng_circuit = np.random.default_rng(seed), np.random.default_rng(seed)
            col = collapse_state(phi, rng_table)
            b2, state = sample_circuit(apply_u, psi, 2, 0.0, rng_circuit)
            b1, state = sample_circuit(apply_u, state, 1, b2 * np.pi / 2.0, rng_circuit)
            assert col.outcomes == (b2, b1)
            assert rng_table.random() == rng_circuit.random()
            plus, minus = abs(np.vdot(v_plus, state)) ** 2, abs(np.vdot(v_minus, state)) ** 2
            conf_plus = plus / (plus + minus)
            assert col.confidence == pytest.approx(max(conf_plus, 1.0 - conf_plus), abs=1e-12)
            if abs(conf_plus - 0.5) > 1e-9:
                assert col.branch == (1 if conf_plus > 0.5 else -1)


def test_plane_collapse_table_matches_the_dense_circuit():
    # the table from phi alone against both measurements run in the full
    # space with the Kronecker reference U, on random terms whose spectrum is
    # not degenerate (0 < |<P>| < 1)
    draw = np.random.default_rng(66)
    for n_qubits in range(1, 9):
        checked = 0
        while checked < 2:
            ansatz = Ansatz(n_qubits, 2, draw.uniform(-np.pi, np.pi, 2 * n_qubits))
            pauli = "".join(draw.choice(list("IXYZ"), n_qubits))
            if not 1e-6 < pauli_expectation(prepare(ansatz), pauli) ** 2 < 1.0 - 1e-6:
                continue
            checked += 1
            dist = collapse_distribution(term_phase(ansatz, pauli))
            for key, (p_want, conf_want) in dense_collapse_table(ansatz, pauli).items():
                p_got, conf_got = dist[key]
                assert abs(p_got - p_want) <= 1e-12
                assert abs(conf_got - conf_want) <= 1e-12


@pytest.mark.parametrize(
    "ansatz,pauli",
    [
        (Ansatz(1, 1, np.array([np.pi / 2.0])), "Z"),  # <P> = 0, M = -I
        (Ansatz(3, 1, np.array([0.4, -1.1, 0.9])), "IYI"),  # real state, odd Y count: <P> = 0
        (Ansatz(3, 2, np.random.default_rng(2).uniform(-np.pi, np.pi, 6)), "XZY"),
        (Ansatz(1, 1, np.array([0.0])), "Z"),  # Pauli eigenstate, M = I
        (Ansatz(2, 1, np.array([np.pi, 0.3])), "ZI"),  # <P> = -1
    ],
)
def test_collapse_table_refuses_a_degenerate_spectrum(ansatz, pauli):
    # at either end M = +-I, so any basis is an eigenbasis and the branch
    # confidences would be arbitrary
    a2 = pauli_expectation(prepare(ansatz), pauli) ** 2
    assert min(a2, 1.0 - a2) < 1e-12
    phi = term_phase(ansatz, pauli)
    with pytest.raises(ValueError, match="collapse needs"):
        collapse_distribution(phi)
    with pytest.raises(ValueError, match="collapse needs"):
        collapse_state(phi, np.random.default_rng(0))


@pytest.mark.parametrize("phi", [-1.0, 4.0, np.nan])
def test_collapse_table_refuses_a_phase_outside_zero_to_pi(phi):
    with pytest.raises(ValueError, match="collapse needs 0 < phi < pi"):
        collapse_distribution(phi)


def test_trial_state_oracle_reads_the_plain_cosine():
    # the fresh trial state is an even superposition of the two rotation
    # eigenvectors, so at theta = 0 the readout is (1 + cos(m phi)) / 2 with
    # either sign of phi; stage 2's oracle holds -phi.  Random terms, plus
    # the ends of the spectrum: a Pauli eigenstate (phi = 0) and <P> = 0
    # (phi = pi, where +phi would fall outside the oracle's [-pi, pi))
    draw = np.random.default_rng(8)
    terms = [(Ansatz(n, 2, draw.uniform(-np.pi, np.pi, 2 * n)), "".join(draw.choice(list("IXYZ"), n))) for n in range(1, 9)]
    terms += [(ansatz_with_z(1.0), "Z"), (ansatz_with_z(0.0), "Z")]
    assert [term_phase(*terms[-2]), term_phase(*terms[-1])] == [0.0, pytest.approx(np.pi)]
    for ansatz, pauli in terms:
        phi = term_phase(ansatz, pauli)
        psi, apply_u = kron_rotation(ansatz, pauli)
        oracle = _TrialStateCircuit(-phi)
        assert oracle.pinned_theta == 0.0
        for m in range(1, 33):
            setting = ExperimentSetting(float(m), oracle.pinned_theta)
            rng_oracle, rng_hand = np.random.default_rng(m), np.random.default_rng(m)
            outcome = oracle.sample(setting, rng_oracle.random())
            (exact_p0, _), _ = circuit_branches(apply_u, psi, m, 0.0)
            hand_outcome = 0 if rng_hand.random() < exact_p0 else 1
            assert outcome == hand_outcome
            assert rng_oracle.random() == rng_hand.random()
            assert exact_p0 == pytest.approx(0.5 * (1.0 + np.cos(m * phi)), abs=1e-12)


def test_stage2_ledger_counts_one_measurement_per_row(monkeypatch):
    # each draw runs twice: as it falls, and with its first run's belief
    # moved by pi, whose magnitude |sin(mu / 2)| contradicts stage 1 by about
    # 0.2 or more at these values, so the estimator restarts from the prior
    traces = []
    run = engine.run_estimation

    def recording(*args, **kwargs):
        belief, trace = run(*args, **kwargs)
        traces.append(trace)
        if alias and len(traces) == 1:
            belief = NormalBelief(belief.mu + np.pi, belief.sigma)
        return belief, trace

    monkeypatch.setattr(engine, "run_estimation", recording)
    for alias in (False, True):
        for seed, value in enumerate((0.6, -0.45, 0.8)):
            traces.clear()
            res = two_stage_estimate(ansatz_with_z(value), "Z", CONFIG, np.random.default_rng(seed))
            assert res.path == "alpha_qpe"
            assert len(traces) == 1 + alias and all(trace.rows for trace in traces)
            rows = [row for trace in traces for row in trace.rows]
            assert res.iterations == len(rows)
            assert res.measurements_used == expectation._STAGE1_SAMPLES + len(rows)
            assert res.max_depth_used == max(row.m for row in rows)
            assert all(row.theta == 0.0 and row.m == round(row.m) for row in rows)
            assert res.value == pytest.approx(value, abs=0.05)


def test_stage2_measurements_scale_as_inverse_epsilon():
    # the paper's law: O(1 / epsilon^(2 (1 - alpha))) measurements, so at
    # alpha = 0.5 the median stage-2 count grows as 1 / epsilon.  Same draws
    # as acceptance criterion 7.
    epsilons = (0.02, 0.01, 0.005)
    medians = []
    for eps in epsilons:
        cfg = TwoStageConfig(alpha=0.5, d_max=32.0, target_epsilon=eps)
        draw = np.random.default_rng(707)
        counts = []
        for i in range(50):
            magnitude = float(draw.uniform(*TARGET_INTERVAL))
            sign = 1.0 if draw.random() < 0.5 else -1.0
            ansatz = Ansatz(1, 1, np.array([np.arccos(sign * magnitude)]))
            res = two_stage_estimate(ansatz, "Z", cfg, rng_for(707, "trial", i))
            if res.path == "alpha_qpe":
                counts.append(res.measurements_used - expectation._STAGE1_SAMPLES)
        medians.append(float(np.median(counts)))
    slope = np.polyfit(np.log(1.0 / np.array(epsilons)), np.log(medians), 1)[0]
    assert 0.8 <= slope <= 1.2, (medians, slope)


def test_two_stage_timeout_carries_the_partial_trace(monkeypatch):
    monkeypatch.setattr(engine, "HARD_ITERATION_CAP", 5)
    with pytest.raises(EstimationTimeout) as err:
        two_stage_estimate(ansatz_with_z(0.6), "Z", CONFIG, np.random.default_rng(4))
    rows = err.value.trace.rows
    assert [row.k for row in rows] == [1, 2, 3, 4, 5]


def fisher_bound(alpha, d_max, epsilon):
    """Stage 2's least iterations, (1/epsilon^2 - 1/sigma0^2) / m_top^2 with
    sigma0 = 4 / sqrt(1000), at the window's top floor(sqrt 2 * 1.5
    epsilon^-alpha) held within the depth cap floor(d_max)."""
    m_top = min(math.floor(math.sqrt(2.0) * 1.5 * epsilon**-alpha), math.floor(d_max))
    return (1.0 / epsilon**2 - 1000.0 / 16.0) / m_top**2


@pytest.mark.parametrize(
    "alpha, d_max, pays, skips",
    [(0.5, 32.0, 0.031, 0.0315), (0.0, 2.0, 0.0275, 0.0277), (1.0, 32.0, 0.0316, 0.0317), (1.0, 5.0, 0.031, 0.0311)],
)
def test_a_term_skips_stage1_exactly_where_stage2_cannot_pay(alpha, d_max, pays, skips):
    # a term inside the gate: at `pays` the stage-1 shots plus the Fisher
    # bound come in under the fallback's 1/epsilon^2 and it runs stage 2; at
    # `skips` they do not, and it is sampled at the fallback's count alone
    for epsilon in (pays, skips):
        routed = 1000 + fisher_bound(alpha, d_max, epsilon) >= 1.0 / epsilon**2
        assert routed == (epsilon == skips)
        config = TwoStageConfig(alpha, d_max, epsilon)
        result = two_stage_estimate(ansatz_with_z(0.6), "Z", config, rng_for(33, epsilon))
        if routed:
            shots = math.ceil(1.0 / epsilon**2)
            assert result.path == "statistical_fallback"
            assert (result.measurements_used, result.iterations, result.max_depth_used) == (shots, 0, 0.0)
            assert result.stage1_estimate == result.value
            assert result.posterior_sigma == math.sqrt((1.0 - result.value * result.value) / shots)
        else:
            assert result.path == "alpha_qpe" and result.measurements_used > 1000


@pytest.mark.parametrize("epsilon", [0.05, 0.0317, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("value", [-0.6, 0.05, 0.95])
def test_a_term_that_skips_stage1_draws_its_shots_and_nothing_else(epsilon, value):
    # alpha = 0.5 and d_max = 32: the term is sampled as statistical mode
    # samples it, so the next draw is that of a fresh Generator advanced by
    # ceil(1 / epsilon^2) uniforms
    rng, fresh = np.random.default_rng(41), np.random.default_rng(41)
    result = two_stage_estimate(ansatz_with_z(value), "Z", TwoStageConfig(0.5, 32.0, epsilon), rng)
    shots = math.ceil(1.0 / epsilon**2)
    assert result.value == statistical_estimate(ansatz_with_z(value), "Z", shots, np.random.default_rng(41))
    assert result.measurements_used == shots
    fresh.random(shots)
    assert rng.random() == fresh.random()


def test_every_fallback_after_stage1_tops_up_to_the_shot_count(monkeypatch):
    # every config that runs stage 1 has ceil(1 / epsilon^2) > 1000 + bound,
    # so a term that fails the gate tops up by at least one shot, to exactly
    # the fallback's count; epsilons sit on a seeded log grid up to just past
    # 1/sqrt(1000), plus 0.031615, where alpha = 1 and d_max = 1000 still pay
    # (bound 0.21) and the top-up is 1 shot
    calls = []
    sample = expectation.statistical_estimate

    def recording(ansatz, pauli, shots, rng):
        calls.append(shots)
        return sample(ansatz, pauli, shots, rng)

    monkeypatch.setattr(expectation, "statistical_estimate", recording)
    draws = np.random.default_rng(34).uniform(np.log(0.003), np.log(0.0317), 60)
    epsilons = [0.031615, 0.0316, *np.exp(draws).tolist()]
    top_ups = []
    for i, epsilon in enumerate(epsilons):
        for alpha, d_max in ((0.0, 2.0), (0.5, 32.0), (1.0, 32.0), (1.0, 1e3)):
            config = TwoStageConfig(alpha, d_max, epsilon)
            if 1000 + fisher_bound(alpha, d_max, epsilon) >= 1.0 / epsilon**2:
                continue
            for value in (0.05, -0.95):
                calls.clear()
                result = two_stage_estimate(ansatz_with_z(value), "Z", config, rng_for(34, i, alpha, value))
                shots = math.ceil(1.0 / epsilon**2)
                assert result.path == "statistical_fallback"
                assert result.measurements_used == shots
                assert calls[0] == 1000 and len(calls) == 2 and calls[1] >= 1 and sum(calls) == shots
                top_ups.append(calls[1])
    assert len(top_ups) >= 300 and min(top_ups) == 1


def test_fallback_path_for_tiny_expectation():
    res = two_stage_estimate(ansatz_with_z(0.05), "Z", CONFIG, np.random.default_rng(6))
    assert res.path == "statistical_fallback"
    assert res.measurements_used == 2500
    assert res.max_depth_used == 0.0
    assert res.iterations == 0
    assert abs(res.value - 0.05) <= 0.02
    assert abs(res.value) <= 1.0


def test_alpha_energy_builds_no_rotation_operator(monkeypatch):
    built, paths = [], []
    init = RotationOperator.__init__

    def counting(self, ansatz, pauli):
        built.append(pauli)
        init(self, ansatz, pauli)

    def recording(*args, **kwargs):
        res = two_stage_estimate(*args, **kwargs)
        paths.append(res.path)
        return res

    monkeypatch.setattr(RotationOperator, "__init__", counting)
    monkeypatch.setattr(vqe, "two_stage_estimate", recording)
    # <ZI> = 0.6 passes the stage-1 gate and <IZ> = 0.05 falls back
    ansatz = Ansatz(2, 1, np.arccos([0.6, 0.05]))
    h = Hamiltonian(((1.0, "ZI"), (0.5, "IZ")), 2)
    estimate_energy(h, ansatz, "alpha", epsilon_total=0.03, rng=np.random.default_rng(4))
    assert paths == ["alpha_qpe", "statistical_fallback"]
    assert built == []
    # the counter does see a construction
    RotationOperator(ansatz, "ZI")
    assert built == ["ZI"]


def test_alpha_path_estimates_magnitude_and_sign():
    res = two_stage_estimate(ansatz_with_z(np.sqrt(0.5)), "Z", CONFIG, np.random.default_rng(3))
    assert res.path == "alpha_qpe"
    assert abs(res.value - np.sqrt(0.5)) <= 0.02
    assert res.measurements_used < 2500
    assert res.posterior_sigma <= CONFIG.target_epsilon
    assert res.iterations > 0
    assert 2.0 <= res.max_depth_used <= CONFIG.d_max

    neg = two_stage_estimate(ansatz_with_z(-0.6), "Z", CONFIG, np.random.default_rng(4))
    assert neg.path == "alpha_qpe"
    assert neg.value < 0.0
    assert abs(neg.value - (-0.6)) <= 0.02


def test_depth_cap_respected_for_small_budget():
    # at epsilon = 0.05 stage 2 cannot pay and the term skips it; at 0.02 its
    # Fisher bound is 97.5 iterations against the fallback's 2,500 shots
    cfg = TwoStageConfig(alpha=1.0, d_max=5.0, target_epsilon=0.02)
    res = two_stage_estimate(ansatz_with_z(0.6), "Z", cfg, np.random.default_rng(12))
    assert res.path == "alpha_qpe"
    assert res.max_depth_used <= 5.0


def test_stage2_finishes_and_holds_epsilon_across_the_gate(monkeypatch):
    # Bounds fixed from the law before any run.  At theta = 0 the readout
    # (1 + cos(m phi)) / 2 carries Fisher information m^2 >= 1 per
    # measurement at every phi, so from stage 2's prior an efficient
    # estimator reaches sigma = epsilon within 1 / epsilon^2 measurements even
    # at m = 1; each run gets 4 / epsilon^2, a factor 4 of slack for the
    # closed-form normal refit.  sigma_phi <= epsilon gives sigma_A <=
    # epsilon / 2, so |err| <= epsilon is a two-sigma event (95.4%); at ~120
    # draws the share's own sd is about 2%, and 90% is held.  The fine grid
    # sits at phi = pi/2 (|A| = 0.707), where the gain of m = 2 vanishes.
    epsilon = 0.01
    budget = round(4.0 / epsilon**2)
    ends = []
    run = engine.run_estimation

    def bounded(*args, **kwargs):
        belief, trace = run(*args, max_iterations=budget, **kwargs)
        ends.append(belief.sigma)
        return belief, trace

    monkeypatch.setattr(engine, "run_estimation", bounded)
    phases = [*(2.0 * np.arccos(np.linspace(0.45, 0.8, 8))), *(np.pi / 2.0 + np.linspace(-0.06, 0.06, 13))]
    hits = draws = 0
    for alpha in (0.0, 0.5, 1.0):
        for d_max in (2.0, 32.0):
            cfg = TwoStageConfig(alpha=alpha, d_max=d_max, target_epsilon=epsilon)
            for i, phi in enumerate(phases):
                value = float(np.cos(phi / 2.0))
                res = two_stage_estimate(ansatz_with_z(value), "Z", cfg, rng_for(9, "gate sweep", alpha, d_max, i))
                if res.path == "alpha_qpe":
                    draws += 1
                    hits += abs(res.value - value) <= epsilon
    assert draws >= 0.9 * 6 * len(phases)
    stalled = sum(sigma > epsilon for sigma in ends)
    assert stalled == 0, f"{stalled} of {len(ends)} stage-2 runs still above epsilon after {budget} iterations"
    assert hits >= 0.9 * draws, (hits, draws)


def stage2_run(config, value, seed, epsilon):
    """One stage-2 run as `two_stage_estimate` starts it, on a term with
    expectation `value`: its oracle, its policy, and its prior around the
    stage-1 phase; run to `epsilon`, which may be below the config's."""
    rng = np.random.default_rng(seed)
    s1 = stage1_gate(ansatz_with_z(value), "Z", rng)
    prior = NormalBelief(_eigenphase(s1.estimate), expectation._PRIOR_SIGMA)
    oracle = _TrialStateCircuit(-_eigenphase(value))
    _, trace = engine.run_estimation(oracle, config._policy, prior, epsilon=epsilon, seed=rng)
    return trace


def test_stage2_runs_take_at_least_half_the_fisher_bound():
    # the evidence for refusing a config whose Fisher bound is past two caps:
    # a readout at depth m carries information m^2 <= m_top^2, so no run
    # beats the bound by more than the closed form's own slack, and at half
    # the bound a refused config could not have finished within one cap.
    # Cells where the depth cap sets the top, where alpha does (the first
    # three) and where alpha = 0 pins it at 2; 24 terms across the gate each
    cells = [
        (0.5, 1024.0, 0.003),
        (0.25, 32.0, 0.01),
        (0.25, 1024.0, 0.003),
        (0.0, 32.0, 0.01),
        (0.5, 8.0, 0.01),
        (0.75, 32.0, 0.003),
        (1.0, 8.0, 0.01),
        (1.0, 32.0, 0.001),
    ]
    values = np.linspace(*expectation._GATE_INTERVAL, 24)
    worst = []
    for alpha, d_max, epsilon in cells:
        config = TwoStageConfig(alpha, d_max, epsilon)
        m_top = schedules._window_top(config._policy.raw_m(epsilon), config._policy.depth_cap)
        bound = (1.0 / epsilon**2 - 1.0 / expectation._PRIOR_SIGMA**2) / m_top**2
        ratios = [
            len(stage2_run(config, float(a), child_seed(28, "bound", alpha, d_max, epsilon, i), epsilon).depths()) / bound
            for i, a in enumerate(values)
        ]
        worst.append((alpha, d_max, epsilon, m_top, min(ratios)))
    assert all(ratio >= 0.5 for *_, ratio in worst), worst
    # at least one cell's top is set by alpha below the depth cap
    assert any(m_top < d_max and alpha > 0.0 for alpha, d_max, _, m_top, _ in worst)


def test_stage2_epsilon_exponents_at_a_large_depth_budget():
    # ROADMAP item 10's stage-2 half, as criterion 10 checks the engine: the
    # medians of N and of the largest m over 40 terms across the gate, at
    # D = 1024, fitted as log-log slopes against 1/epsilon over five
    # epsilons from 0.02 to 0.002, and held within criterion 10's 0.15 of the
    # paper's exponents, 2 (1 - alpha) for N and alpha for max m.  The law
    # continued from stage 2's prior width sigma0, 2 / (1 - alpha)
    # (epsilon^-2(1 - alpha) - sigma0^-2(1 - alpha)), is steeper over this
    # grid (1.065 at alpha = 0.5, 0.659 at 0.75), and stage 2 misses it at
    # 0.75 (about 0.47): its first few readouts, at m sigma near 1, carry less
    # than m^2 and add a head of a few iterations that the law lacks.  At
    # alpha = 1, N is held within criterion 10's 1.5x of 4 ln(sigma0 /
    # epsilon).  Each term runs once, to the smallest epsilon, and every
    # epsilon reads its prefix: the policy does not depend on epsilon, only
    # the stopping rule does.
    epsilons = np.geomspace(0.02, 0.002, 5)
    x = np.log(1.0 / epsilons)
    values = np.linspace(*expectation._GATE_INTERVAL, 40)
    details = []
    for alpha in (0.5, 0.75, 1.0):
        config = TwoStageConfig(alpha, 1024.0, float(epsilons[-1]))
        samples = np.empty((values.size, epsilons.size))
        depths = np.empty_like(samples)
        for i, a in enumerate(values):
            trace = stage2_run(config, float(a), child_seed(28, "exponents", alpha, i), float(epsilons[-1]))
            sigmas, m = trace.sigmas(), trace.depths()
            for j, eps in enumerate(epsilons):
                n = int(np.argmax(sigmas <= eps))
                samples[i, j], depths[i, j] = n, m[:n].max(initial=0.0)
        n_median = np.median(samples, axis=0)
        if alpha == 1.0:
            ratios = n_median / (4.0 * np.log(expectation._PRIOR_SIGMA / epsilons))
            details.append(f"alpha=1 N/4ln(sigma0/eps) {ratios.min():.2f}-{ratios.max():.2f}")
            assert np.all((ratios >= 1.0 / 1.5) & (ratios <= 1.5)), details
            continue
        n_slope = np.polyfit(x, np.log(n_median), 1)[0]
        m_slope = np.polyfit(x, np.log(np.median(depths, axis=0)), 1)[0]
        details.append(f"alpha={alpha:g} N slope {n_slope:.3f}, max m slope {m_slope:.3f}")
        assert abs(n_slope - 2.0 * (1.0 - alpha)) <= 0.15 and abs(m_slope - alpha) <= 0.15, details
