"""Two-stage expectation estimation: gate, stage-2 oracle, collapse, and the full protocol."""

import math

import numpy as np
import pytest

import alphavqe.engine as engine
import alphavqe.expectation as expectation
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
from alphavqe.rand import rng_for
from alphavqe.schedules import n_min_restarts
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
    # the law at (0.01, floor(32.5)) is 31.39 iterations; the cap is read
    # when the config is built
    law = n_min_restarts(0.01, 32.0)
    monkeypatch.setattr(engine, "HARD_ITERATION_CAP", 7)
    with pytest.raises(ValueError) as err:
        TwoStageConfig(alpha=0.5, d_max=32.5, target_epsilon=0.01)
    assert str(err.value) == (
        f"epsilon = 0.01 at depth budget 32 needs about {law:.6g} stage-2 iterations by "
        "n_min_restarts, more than 4 x the cap of 7 iterations a run may take"
    )
    # a config whose law is half the refusal threshold is admitted
    monkeypatch.setattr(engine, "HARD_ITERATION_CAP", math.ceil(law / 2))
    TwoStageConfig(alpha=0.5, d_max=32.5, target_epsilon=0.01)


def test_a_config_the_law_admits_runs_stage2_past_the_fallbacks_shot_cap():
    # the law at (1e-5, 1e5) is 4 ln(1e5), about 46 iterations, while the
    # fallback would need 10**10 shots: a gated term finishes, and only a
    # term that falls back is refused, by the shot count
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
    cfg = TwoStageConfig(alpha=1.0, d_max=5.0, target_epsilon=0.05)
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
