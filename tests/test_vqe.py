"""Hamiltonian ingestion, energy estimation, and the variational loop."""

import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from alphavqe import vqe
from alphavqe.expectation import TwoStageConfig, statistical_estimate, two_stage_estimate
from alphavqe.statevector import MAX_QUBITS, Ansatz, pauli_expectation, prepare
from alphavqe.vqe import (
    Hamiltonian,
    HamiltonianParseError,
    bundled_hamiltonian,
    dense_matrix,
    estimate_energy,
    exact_ground_energy,
    load_hamiltonian,
    optimize,
    parse_hamiltonian,
)

from dense_oracles import kron_pauli

GOOD_TEXT = """
# a two-qubit toy
0.5 ZI   # weight, then letters
-0.25 XX

1e-1 IY
"""


def test_parse_accepts_comments_and_blanks():
    h = parse_hamiltonian(GOOD_TEXT)
    assert h.n_qubits == 2
    assert h.terms == ((0.5, "ZI"), (-0.25, "XX"), (0.1, "IY"))
    assert h.coeff_norm == pytest.approx(0.85)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0.5 ZI extra", "line 1"),
        ("abc ZI", "line 1"),
        ("0.5 ZQ", "line 1"),
        ("0.5 ZI\n0.3 XYZ", "line 2"),
        ("0.0 ZI", "line 1"),
        ("inf ZI", "line 1"),
        ("# only a comment", "no terms"),
        ("", "no terms"),
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(HamiltonianParseError, match=fragment):
        parse_hamiltonian(text)


def test_load_missing_file_mentions_path():
    with pytest.raises(HamiltonianParseError, match="no/such/file"):
        load_hamiltonian("no/such/file.txt")


def test_load_roundtrip(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("1.0 Z\n0.5 X\n", encoding="utf-8")
    h = load_hamiltonian(path)
    assert h.terms == ((1.0, "Z"), (0.5, "X"))


def test_bundled_hamiltonians():
    toy1 = bundled_hamiltonian("toy1q")
    assert toy1.terms == ((0.5, "Z"), (0.5, "X"))
    toy2 = bundled_hamiltonian("toy2q")
    assert toy2.n_qubits == 2
    assert toy2.terms == ((1.0, "ZZ"), (0.3, "XI"))
    with pytest.raises(HamiltonianParseError):
        bundled_hamiltonian("toy9q")


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        Hamiltonian((), 1)
    with pytest.raises(ValueError):
        Hamiltonian(((1.0, "ZI"),), 1)
    with pytest.raises(ValueError):
        Hamiltonian(((0.0, "Z"),), 1)


def test_a_hamiltonian_holds_no_more_qubits_than_the_simulator():
    # what keeps dense_matrix and the estimators within MAX_QUBITS
    pauli = "Z" * (MAX_QUBITS + 1)
    with pytest.raises(ValueError, match=f"at most {MAX_QUBITS} qubits supported, got {MAX_QUBITS + 1}"):
        Hamiltonian(((1.0, pauli),), MAX_QUBITS + 1)
    with pytest.raises(HamiltonianParseError, match=f"line 1: at most {MAX_QUBITS} qubits"):
        parse_hamiltonian(f"1.0 {pauli}")


def test_dense_matrix_matches_kron_construction():
    h = parse_hamiltonian("0.7 ZXI\n-0.2 IYX\n0.1 XXX")
    want = 0.7 * kron_pauli("ZXI") - 0.2 * kron_pauli("IYX") + 0.1 * kron_pauli("XXX")
    assert_allclose(dense_matrix(h), want, atol=1e-15)
    # random sums with a Y in every term, summed in term order from the
    # Kronecker products: the bit-mask fill gives the same matrix exactly
    rng = np.random.default_rng(24)
    for n in range(1, 8):
        terms = []
        for _ in range(4):
            letters = rng.choice(list("IXYZ"), size=n)
            letters[rng.integers(n)] = "Y"
            terms.append((float(rng.normal()), "".join(letters)))
        want = np.zeros((2**n, 2**n), dtype=complex)
        for coeff, pauli in terms:
            want += coeff * kron_pauli(pauli)
        assert np.array_equal(dense_matrix(Hamiltonian(tuple(terms), n)), want)


def test_exact_ground_energies():
    assert exact_ground_energy(bundled_hamiltonian("toy1q")) == pytest.approx(
        -np.sqrt(0.5), rel=1e-12
    )
    toy2 = bundled_hamiltonian("toy2q")
    want = float(np.linalg.eigvalsh(1.0 * kron_pauli("ZZ") + 0.3 * kron_pauli("XI")).min())
    assert exact_ground_energy(toy2) == pytest.approx(want, rel=1e-12)


def test_estimate_energy_exact_mode():
    h = bundled_hamiltonian("toy1q")
    ansatz = Ansatz(1, 1, np.array([0.9]))
    energy, used = estimate_energy(h, ansatz, "exact")
    state = prepare(ansatz)
    want = 0.5 * pauli_expectation(state, "Z") + 0.5 * pauli_expectation(state, "X")
    assert energy == pytest.approx(want, rel=1e-12)
    assert used == 0


def test_estimate_energy_argument_errors():
    h = bundled_hamiltonian("toy1q")
    ansatz = Ansatz(1, 1, np.array([0.9]))
    with pytest.raises(ValueError):
        estimate_energy(bundled_hamiltonian("toy2q"), ansatz, "exact")
    with pytest.raises(ValueError):
        estimate_energy(h, ansatz, "montecarlo")
    with pytest.raises(ValueError):
        estimate_energy(h, ansatz, "statistical")
    with pytest.raises(ValueError):
        estimate_energy(h, ansatz, "statistical", epsilon_total=0.1)
    for mode in ("statistical", "alpha"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{mode} mode needs a finite positive epsilon_total, got {bad}"):
                estimate_energy(h, ansatz, mode, epsilon_total=bad, rng=np.random.default_rng(0))


def test_statistical_mode_refuses_a_share_past_the_shot_cap_before_any_draw():
    h = bundled_hamiltonian("toy2q")
    ansatz = Ansatz(2, 1, np.array([0.4, -0.8]))
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"epsilon_total = 1e-05 over measured_norm = 1\.3 .* share of 7\.69231e-06"):
        estimate_energy(h, ansatz, "statistical", epsilon_total=1e-5, rng=rng)
    assert rng.bit_generator.state == state


def test_alpha_mode_refuses_a_share_the_config_refuses_before_any_draw():
    # the Fisher bound and the shot cap name the share, a bad alpha or d_max
    # keeps its own message
    h = bundled_hamiltonian("toy2q")
    ansatz = Ansatz(2, 1, np.array([0.4, -0.8]))
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    share = r"epsilon_total = 0\.0001 over measured_norm = 1\.3 leaves each term a share of 7\.69231e-05, which "
    with pytest.raises(ValueError, match=share + r"at alpha = 0 and depth budget 32 needs at least 4\.225e\+07"):
        estimate_energy(h, ansatz, "alpha", epsilon_total=1e-4, rng=rng, alpha=0.0)
    share = r"epsilon_total = 1e-05 over measured_norm = 1\.3 leaves each term a share of 7\.69231e-06, which "
    with pytest.raises(ValueError, match=share + r"asks for more than the 2\*\*32 shots one estimate may take$"):
        estimate_energy(h, ansatz, "alpha", epsilon_total=1e-5, rng=rng)
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 1\.5$"):
        estimate_energy(h, ansatz, "alpha", epsilon_total=1e-4, rng=rng, alpha=1.5)
    with pytest.raises(ValueError, match=r"^d_max must be >= 2 "):
        estimate_energy(h, ansatz, "alpha", epsilon_total=1e-4, rng=rng, d_max=1.0)
    # a share that underflows to 0 is refused by the share too
    share = r"^epsilon_total = 4\.94066e-324 over measured_norm = 2 leaves each term a share of 0, which "
    with pytest.raises(ValueError, match=share) as refused:
        estimate_energy(Hamiltonian(((2.0, "Z"),), 1), Ansatz(1, 1, np.array([0.3])), "alpha", 5e-324, rng)
    assert "target_epsilon" not in str(refused.value)
    assert rng.bit_generator.state == state


def test_statistical_mode_takes_one_shot_per_term_at_a_huge_epsilon():
    # the per-term share squared would overflow; one shot already meets it
    h = bundled_hamiltonian("toy2q")
    ansatz = Ansatz(2, 1, np.array([0.4, -0.8]))
    energy, used = estimate_energy(h, ansatz, "statistical", epsilon_total=1e200, rng=np.random.default_rng(2))
    assert used == len(h.terms)
    assert abs(energy) <= h.coeff_norm


@pytest.mark.parametrize("mode", ["statistical", "alpha"])
def test_identity_terms_are_exact_and_take_no_share_of_the_budget(mode):
    ansatz = Ansatz(2, 1, np.array([0.4, -0.8]))
    rng, twin = np.random.default_rng(6), np.random.default_rng(6)
    with_identity = Hamiltonian(((1.0, "II"), (0.5, "ZZ")), 2)
    energy, used = estimate_energy(with_identity, ansatz, mode, epsilon_total=0.01, rng=rng)
    # the same draws as ZZ alone at the whole budget, plus the exact 1.0
    alone, alone_used = estimate_energy(Hamiltonian(((0.5, "ZZ"),), 2), ansatz, mode, epsilon_total=0.01, rng=twin)
    assert (energy, used) == (1.0 + alone, alone_used)
    assert rng.random() == twin.random()
    if mode == "statistical":
        # ceil(1 / 0.02^2) shots on ZZ, none on II
        assert used == 2500
    # a Hamiltonian of identity terms alone is exact and draws nothing
    state = rng.bit_generator.state
    only_identity = Hamiltonian(((1.0, "II"), (-0.25, "II")), 2)
    assert estimate_energy(only_identity, ansatz, mode, epsilon_total=0.01, rng=rng) == (0.75, 0)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("mode", ["exact", "statistical", "alpha"])
def test_non_finite_params_are_refused_by_name_in_every_mode(mode, bad):
    h = bundled_hamiltonian("toy1q")
    with pytest.raises(ValueError, match=rf"^params must be finite, got \[{bad}\] at positions \[1\]$"):
        estimate_energy(h, Ansatz(1, 2, np.array([0.3, bad])), mode, 0.05, np.random.default_rng(0))


def test_estimate_energy_statistical_mode():
    h = bundled_hamiltonian("toy2q")
    ansatz = Ansatz(2, 1, np.array([0.4, -0.8]))
    exact, _ = estimate_energy(h, ansatz, "exact")
    rng = np.random.default_rng(5)
    energy, used = estimate_energy(h, ansatz, "statistical", epsilon_total=0.05, rng=rng)
    # budget split: eps_term = 0.05 / 1.3, ceil(1/eps^2) shots for each of 2 terms
    eps_term = 0.05 / 1.3
    assert used == 2 * int(np.ceil(1.0 / eps_term**2))
    assert abs(energy - exact) < 4.0 * 0.05


def test_estimate_energy_alpha_mode():
    h = bundled_hamiltonian("toy1q")
    ansatz = Ansatz(1, 1, np.array([3.0 * np.pi / 4.0]))
    exact, _ = estimate_energy(h, ansatz, "exact")
    rng = np.random.default_rng(11)
    energy, used = estimate_energy(h, ansatz, "alpha", epsilon_total=0.05, rng=rng, alpha=0.5, d_max=32.0)
    assert abs(energy - exact) < 4.0 * 0.05
    assert used > 0


def test_estimate_energy_statistical_is_seed_deterministic():
    h = bundled_hamiltonian("toy1q")
    ansatz = Ansatz(1, 1, np.array([0.7]))
    runs = [
        estimate_energy(h, ansatz, "statistical", epsilon_total=0.1, rng=np.random.default_rng(3))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# a 3-qubit transverse-field Ising ring and angles that send one term down
# the phase-estimation path and the others to the statistical fallback
TFIM3 = Hamiltonian(
    ((1.0, "ZZI"), (1.0, "IZZ"), (1.0, "ZIZ"), (0.7, "XII"), (0.7, "IXI"), (0.7, "IIX")), 3
)
TFIM3_ANSATZ = Ansatz(3, 1, np.array([1.0, 0.3, 0.2]))


def term_by_term(h, ansatz, mode, epsilon_total, rng):
    """estimate_energy written out as a loop that estimates each term from rng
    in turn; returns (energy, measurements, paths taken)."""
    eps_term = epsilon_total / h.coeff_norm
    energy, used, paths = 0.0, 0, []
    for coeff, pauli in h.terms:
        if mode == "statistical":
            shots = math.ceil(1.0 / eps_term**2)
            value = statistical_estimate(ansatz, pauli, shots, rng)
            paths.append("statistical")
        else:
            config = TwoStageConfig(alpha=0.5, d_max=32.0, target_epsilon=eps_term)
            result = two_stage_estimate(ansatz, pauli, config, rng)
            value, shots = result.value, result.measurements_used
            paths.append(result.path)
        energy += coeff * value
        used += shots
    return float(energy), used, paths


def legacy_generator(seed):
    # seeded as RandomState seeds itself: with no SeedSequence behind it,
    # Generator.spawn raises TypeError
    bit_generator = np.random.MT19937(0)
    bit_generator._legacy_seeding(seed)
    return np.random.Generator(bit_generator)


@pytest.mark.parametrize(
    "make_rng",
    [lambda: np.random.default_rng(21), lambda: legacy_generator(4)],
    ids=["pcg64", "legacy-mt19937"],
)
@pytest.mark.parametrize("mode", ["statistical", "alpha"])
def test_estimate_energy_draws_every_term_from_the_one_generator(mode, make_rng):
    # a share of 0.15 / 5.1 = 0.0294, below 1/sqrt(1000), where stage 2 can pay
    rng, loop_rng = make_rng(), make_rng()
    got = estimate_energy(TFIM3, TFIM3_ANSATZ, mode, epsilon_total=0.15, rng=rng)
    energy, used, paths = term_by_term(TFIM3, TFIM3_ANSATZ, mode, 0.15, loop_rng)
    assert got == (energy, used)
    # both leave the Generator at the same place
    assert rng.random() == loop_rng.random()
    if mode == "alpha":
        assert "alpha_qpe" in paths and "statistical_fallback" in paths


def test_optimize_gives_every_term_alpha_d_max_and_the_per_term_share(monkeypatch):
    seen = []
    estimate = vqe.two_stage_estimate

    def recording(ansatz, pauli, config, rng):
        seen.append(config)
        return estimate(ansatz, pauli, config, rng)

    monkeypatch.setattr(vqe, "two_stage_estimate", recording)
    h = bundled_hamiltonian("toy2q")
    template = Ansatz(2, 1, np.array([0.2, -0.4]))
    optimize(h, template, max_iters=2, mode="alpha", epsilon_total=0.05, alpha=0.75, d_max=8.0)
    assert len(seen) > len(h.terms)
    assert set(seen) == {TwoStageConfig(0.75, 8.0, 0.05 / h.coeff_norm)}
    seen.clear()
    optimize(h, template, max_iters=2, mode="alpha", epsilon_total=0.05)
    assert len(seen) > len(h.terms)
    assert set(seen) == {TwoStageConfig(0.5, 32.0, 0.05 / h.coeff_norm)}


def _history(result):
    return [(it, lam.tolist(), energy, meas) for it, lam, energy, meas in result.energy_history]


@pytest.mark.parametrize(
    "mode, epsilon_total, varied",
    [
        ("exact", None, [{"alpha": 0.5, "d_max": 32.0}, {"alpha": 1.0, "d_max": 2.0}]),
        ("statistical", 0.2, [{"alpha": 0.5, "d_max": 32.0}, {"alpha": 1.0, "d_max": 2.0}]),
        ("exact", None, [{"epsilon_total": 0.01}, {"epsilon_total": math.inf}]),
    ],
)
def test_optimize_is_unchanged_by_settings_its_mode_does_not_read(mode, epsilon_total, varied):
    # the CLI passes alpha, d_max and epsilon_total to every mode
    h = bundled_hamiltonian("toy2q")
    template = Ansatz(2, 1, np.array([0.2, -0.4]))
    runs = [
        optimize(h, template, **{"max_iters": 5, "mode": mode, "epsilon_total": epsilon_total, "seed": 3, **kw})
        for kw in varied
    ]
    assert _history(runs[0]) == _history(runs[1])
    assert runs[0].total_measurements == runs[1].total_measurements


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        optimize(bundled_hamiltonian("toy1q"), Ansatz(1, 1, np.array([0.0])), max_iters=-1)


def test_optimize_with_no_parameters_converges_after_one_evaluation():
    h = bundled_hamiltonian("toy1q")
    res = optimize(h, Ansatz(1, 0, np.array([])), max_iters=5)
    # the one-point simplex has diameter 0
    assert res.converged
    assert len(res.energy_history) == 1
    # the state is |0>, so the energy is the Z coefficient
    assert res.best_energy == pytest.approx(0.5, rel=1e-12)


def test_optimize_exact_reaches_the_ground_state():
    h = bundled_hamiltonian("toy1q")
    res = optimize(h, Ansatz(1, 1, np.array([0.0])), max_iters=200, mode="exact")
    assert res.converged
    assert res.best_energy == pytest.approx(-np.sqrt(0.5), abs=1e-6)
    assert res.total_measurements == 0


def test_optimize_zero_iterations_evaluates_template_only():
    h = bundled_hamiltonian("toy1q")
    res = optimize(h, Ansatz(1, 1, np.array([0.3])), max_iters=0, mode="exact")
    assert len(res.energy_history) == 1
    assert not res.converged
    state = prepare(Ansatz(1, 1, np.array([0.3])))
    want = 0.5 * pauli_expectation(state, "Z") + 0.5 * pauli_expectation(state, "X")
    assert res.best_energy == pytest.approx(want, rel=1e-12)
    assert_allclose(res.best_lambda, [0.3])


def test_optimize_history_bookkeeping():
    h = bundled_hamiltonian("toy2q")
    res = optimize(
        h,
        Ansatz(2, 1, np.array([0.2, -0.4])),
        max_iters=40,
        mode="statistical",
        epsilon_total=0.2,
        seed=9,
    )
    energies = [row[2] for row in res.energy_history]
    cumulative = [row[3] for row in res.energy_history]
    iters = [row[0] for row in res.energy_history]
    assert res.best_energy == min(energies)
    assert cumulative == sorted(cumulative)
    assert iters == sorted(iters)
    assert res.total_measurements == cumulative[-1] > 0


def test_optimize_statistical_improves_on_noisy_objective():
    h = bundled_hamiltonian("toy1q")
    res = optimize(
        h,
        Ansatz(1, 1, np.array([0.0])),
        max_iters=60,
        mode="statistical",
        epsilon_total=0.05,
        seed=4,
    )
    assert res.best_energy < -0.6


# the 8-qubit transverse-field Ising ring: 8 ZZ bonds at 1.0, 8 X fields at 0.7
TFIM8 = Hamiltonian(
    tuple(
        [(1.0, "".join("Z" if q in (i, (i + 1) % 8) else "I" for q in range(8))) for i in range(8)]
        + [(0.7, "".join("X" if q == i else "I" for q in range(8))) for i in range(8)]
    ),
    8,
)


def test_alpha_mode_is_statistical_mode_where_stage2_cannot_pay():
    # epsilon_total = 0.68 over coeff_norm = 13.6 leaves each term 0.05, where
    # stage 1's 1,000 shots alone exceed the fallback's 400: both modes draw
    # the same 400 shots per term from the same stream
    for seed in range(20):
        ansatz = Ansatz(8, 2, np.random.default_rng(seed).uniform(-np.pi, np.pi, 16))
        alpha_rng, statistical_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        got = estimate_energy(TFIM8, ansatz, "alpha", epsilon_total=0.68, rng=alpha_rng)
        assert got == estimate_energy(TFIM8, ansatz, "statistical", epsilon_total=0.68, rng=statistical_rng)
        assert got[1] == 6400
        assert alpha_rng.random() == statistical_rng.random()


def test_every_term_of_a_loose_evaluation_reaches_the_estimator(monkeypatch):
    results = []
    estimate = vqe.two_stage_estimate

    def recording(ansatz, pauli, config, rng):
        results.append((pauli, estimate(ansatz, pauli, config, rng)))
        return results[-1][1]

    monkeypatch.setattr(vqe, "two_stage_estimate", recording)
    ansatz = Ansatz(8, 2, np.random.default_rng(7).uniform(-np.pi, np.pi, 16))
    estimate_energy(TFIM8, ansatz, "alpha", epsilon_total=0.68, rng=np.random.default_rng(8))
    assert [pauli for pauli, _ in results] == [pauli for _, pauli in TFIM8.terms]
    assert all(r.measurements_used == 400 and r.path == "statistical_fallback" for _, r in results)


# SHA-256 of the repr of every ExpectationResult's field values, each taken
# as a plain tuple in field order, over the sweep below
ALPHA_MODE_DIGEST = "289989001a8de4791c16b1ece33c1bfef505abc0a813c288d964a6456c3fec8c"
RESULT_FIELDS = (
    "value",
    "path",
    "measurements_used",
    "max_depth_used",
    "posterior_sigma",
    "stage1_estimate",
    "iterations",
)


def test_alpha_mode_term_results_are_pinned_bit_for_bit(monkeypatch):
    # 24 seeded 8-qubit ansatzes on the transverse-field Ising ring, each at
    # alpha in {0, 0.5, 1} and d_max in {2, 32}: 2,304 terms, 837 of them
    # through stage 2
    results = []

    def recording(*args):
        result = two_stage_estimate(*args)
        results.append(tuple(getattr(result, name) for name in RESULT_FIELDS))
        return result

    monkeypatch.setattr(vqe, "two_stage_estimate", recording)
    for seed in range(24):
        ansatz = Ansatz(8, 2, np.random.default_rng(seed).uniform(-np.pi, np.pi, 16))
        for alpha in (0.0, 0.5, 1.0):
            for d_max in (2.0, 32.0):
                rng = np.random.default_rng([seed, int(2 * alpha), int(d_max)])
                estimate_energy(TFIM8, ansatz, "alpha", epsilon_total=0.272, rng=rng, alpha=alpha, d_max=d_max)
    assert len(results) == 2304
    assert sum(path == "alpha_qpe" for _, path, *_ in results) == 837
    assert hashlib.sha256(repr(results).encode()).hexdigest() == ALPHA_MODE_DIGEST
