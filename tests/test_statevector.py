"""Statevector kernels, the reflection-product rotation, and the ancilla circuit.

The rotation and its circuit are checked against the Kronecker references in
dense_oracles, which apply U as its two reflections in the full space."""

import dataclasses
import tracemalloc
import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from alphavqe.bayes import ExperimentSetting, likelihood
from alphavqe.engine import SyntheticOracle
from alphavqe.expectation import collapse_distribution, statistical_estimate
from alphavqe.statevector import (
    _SHOT_BLOCK,
    Ansatz,
    MAX_QUBITS,
    _n_qubits_of,
    apply_pauli,
    build_rotation_operator,
    pauli_expectation,
    prepare,
    run_phase_circuit,
    sample_pauli_outcomes,
    validate_pauli,
    zero_state,
)

from dense_oracles import (
    circuit_branches,
    dense_eigenvectors,
    dense_operator,
    kron_ansatz,
    kron_apply,
    kron_pauli,
    kron_rotation,
    kron_trial_state,
    pm_one_draws,
    two_product_trial_state,
)


def random_state(n_qubits, rng):
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return v / np.linalg.norm(v)


def random_ansatz(n_qubits, layers, rng):
    return Ansatz(n_qubits, layers, rng.uniform(-np.pi, np.pi, n_qubits * layers))


def operator_and_reference(ansatz, pauli):
    """The library's operator, with the Kronecker reference (psi, apply_u) beside it."""
    return build_rotation_operator(ansatz, pauli), kron_rotation(ansatz, pauli)


def test_zero_state_and_bounds():
    assert_allclose(zero_state(2), [1, 0, 0, 0])
    with pytest.raises(ValueError):
        zero_state(0)
    with pytest.raises(ValueError):
        zero_state(MAX_QUBITS + 1)


def test_validate_pauli_rejects_junk():
    assert validate_pauli("XIZY") == "XIZY"
    with pytest.raises(ValueError):
        validate_pauli("XQ")
    with pytest.raises(ValueError):
        validate_pauli("")
    with pytest.raises(ValueError):
        validate_pauli("Z" * (MAX_QUBITS + 1))


@pytest.mark.parametrize("pauli", ["X", "ZY", "XIZ", "YYXI"])
def test_apply_pauli_matches_kron_matrix(pauli):
    rng = np.random.default_rng(zlib.crc32(pauli.encode()))
    state = random_state(len(pauli), rng)
    assert_allclose(apply_pauli(state, pauli), kron_pauli(pauli) @ state, atol=1e-12)


@pytest.mark.parametrize("n_qubits", range(1, 9))
def test_apply_pauli_matches_kron_matrix_on_random_strings(n_qubits):
    rng = np.random.default_rng(600 + n_qubits)
    for _ in range(4):
        pauli = "".join(rng.choice(list("IXYZ"), n_qubits))
        state = random_state(n_qubits, rng)
        want = kron_pauli(pauli) @ state
        assert_allclose(apply_pauli(state, pauli), want, atol=1e-12)
        # the factor-by-factor reference agrees with the formed product
        assert_allclose(kron_apply([kron_pauli(ch) for ch in pauli], state), want, atol=1e-12)


def test_qubit_zero_is_most_significant():
    # X on qubit 0 of two qubits swaps the |0q> and |1q> blocks
    state = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    assert_allclose(apply_pauli(state, "XI"), [0, 0, 1, 0], atol=1e-15)
    assert_allclose(apply_pauli(state, "IX"), [0, 1, 0, 0], atol=1e-15)


def test_single_qubit_preparation_is_y_rotation():
    t = 0.83
    state = prepare(Ansatz(1, 1, np.array([t])))
    assert_allclose(state, [np.cos(t / 2.0), np.sin(t / 2.0)], atol=1e-12)
    assert pauli_expectation(state, "Z") == pytest.approx(np.cos(t))
    assert pauli_expectation(state, "X") == pytest.approx(np.sin(t))


def test_zero_layers_prepares_the_computational_vacuum():
    assert_allclose(prepare(Ansatz(3, 0, np.array([]))), zero_state(3))


def test_ansatz_param_length_checked():
    with pytest.raises(ValueError):
        Ansatz(2, 2, np.zeros(3))


def test_ansatz_compares_and_hashes_by_value():
    a = Ansatz(2, 1, np.zeros(2))
    b = Ansatz(2, 1, np.zeros(2))
    assert a == b and hash(a) == hash(b)
    assert Ansatz(2, 1, np.array([0.0, -0.0])) == a
    assert hash(Ansatz(2, 1, np.array([0.0, -0.0]))) == hash(a)
    assert a != Ansatz(2, 1, np.array([0.0, 1e-300]))
    assert a != Ansatz(1, 2, np.zeros(2))
    assert a != "not an ansatz"
    assert len({a, b, Ansatz(1, 2, np.zeros(2))}) == 2


def test_ansatz_keeps_its_own_read_only_params():
    params = np.array([0.3, -0.4])
    ansatz = Ansatz(2, 1, params)
    state = prepare(ansatz).copy()
    params[0] = 2.0
    assert_allclose(ansatz.params, [0.3, -0.4])
    assert_allclose(prepare(ansatz), state)
    with pytest.raises(ValueError):
        ansatz.params[0] = 2.0


def test_prepare_caches_one_read_only_state_per_ansatz():
    rng = np.random.default_rng(12)
    ansatz = random_ansatz(3, 2, rng)
    state = prepare(ansatz)
    assert prepare(ansatz) is state
    assert not state.flags.writeable
    with pytest.raises(ValueError):
        state[0] = 0.0
    assert_allclose(state, two_product_trial_state(ansatz), atol=0.0)
    moved = dataclasses.replace(ansatz, params=ansatz.params + 0.5)
    assert prepare(moved) is not state
    assert_allclose(prepare(moved), kron_ansatz(moved)[:, 0], atol=1e-12)


@pytest.mark.parametrize("layers", range(4))
@pytest.mark.parametrize("n_qubits", range(1, 7))
def test_ansatz_matches_kron_oracle(n_qubits, layers):
    rng = np.random.default_rng(50 * n_qubits + layers)
    ansatz = random_ansatz(n_qubits, layers, rng)
    want = kron_ansatz(ansatz)
    dim = 2**n_qubits
    assert_allclose(two_product_trial_state(ansatz), want[:, 0], atol=1e-12)
    assert_allclose(prepare(ansatz), want[:, 0], atol=1e-12)
    assert_allclose(kron_trial_state(ansatz), want[:, 0], atol=1e-12)


@pytest.mark.parametrize("layers", range(4))
@pytest.mark.parametrize("n_qubits", range(1, MAX_QUBITS + 1))
def test_prepared_state_is_the_gate_level_path_bit_for_bit(n_qubits, layers):
    # prepare builds the state in float64 and converts it once, so its
    # imaginary parts are exact zeros and its real parts must round as the
    # two-product gate of the oracle does, down to the sign of a zero
    rng = np.random.default_rng(100 * n_qubits + layers)
    ansatz = random_ansatz(n_qubits, layers, rng)
    state = prepare(ansatz)
    assert state.dtype == complex
    oracle = two_product_trial_state(ansatz)
    assert np.array_equal(state.real.view(np.int64), oracle.view(np.int64))
    assert not state.imag.any()
    assert_allclose(state, kron_trial_state(ansatz), atol=1e-12)


def test_entangler_creates_entanglement_from_two_qubits_up():
    rng = np.random.default_rng(8)
    for n in (2, 3):
        state = prepare(random_ansatz(n, 2, rng))
        rho = np.outer(state, state.conj()).reshape(2, 2 ** (n - 1), 2, 2 ** (n - 1))
        reduced = np.trace(rho, axis1=1, axis2=3)
        purity = float(np.trace(reduced @ reduced).real)
        assert purity < 0.999


def test_rotation_operator_expectation_and_angle():
    t = 1.1
    op = build_rotation_operator(Ansatz(1, 1, np.array([t])), "Z")
    assert op.expectation == pytest.approx(np.cos(t))
    assert op.rotation_angle == pytest.approx(2.0 * np.arccos(abs(np.cos(t))))


def test_rotation_operator_spectrum_matches_dense_diagonalization():
    rng = np.random.default_rng(21)
    for pauli in ("ZI", "XZ", "YY"):
        op, (_, apply_u) = operator_and_reference(random_ansatz(2, 2, rng), pauli)
        mat = dense_operator(apply_u, 4)
        assert_allclose(mat.conj().T @ mat, np.eye(4), atol=1e-11)
        angles = np.sort(np.angle(np.linalg.eigvals(mat)))
        phi = op.rotation_angle
        # rotation by +-phi in the trial plane, identity elsewhere
        assert_allclose(angles, np.sort([-phi, 0.0, 0.0, phi]), atol=1e-10)


def test_plane_eigenvectors_are_orthonormal_eigenpairs():
    # the eigenvectors of the 2x2 restriction, lifted by the plane basis, are
    # eigenpairs of the dense reference U
    rng = np.random.default_rng(33)
    op, (_, apply_u) = operator_and_reference(random_ansatz(2, 2, rng), "ZX")
    vals, vecs = np.linalg.eig(op._restricted)
    order = np.argsort(-np.angle(vals))
    v_plus, v_minus = (op._basis @ vecs[:, order]).T
    phi = float(np.angle(vals[order[0]]))
    assert phi == pytest.approx(op.rotation_angle, abs=1e-10)
    assert abs(np.vdot(v_plus, v_minus)) < 1e-10
    assert_allclose(apply_u(v_plus), np.exp(1j * phi) * v_plus, atol=1e-10)
    assert_allclose(apply_u(v_minus), np.exp(-1j * phi) * v_minus, atol=1e-10)
    # the trial state splits evenly between the two branches
    assert abs(np.vdot(v_plus, op.base_state)) ** 2 == pytest.approx(0.5, abs=1e-10)
    assert abs(np.vdot(v_minus, op.base_state)) ** 2 == pytest.approx(0.5, abs=1e-10)


def assert_closed_form_restriction_matches_reference(op, apply_u):
    """The closed-form 2x2 restriction against B^H U B from the Kronecker reference U."""
    basis, restricted = op._basis, op._restricted
    images = np.stack([apply_u(basis[:, 0]), apply_u(basis[:, 1])], axis=1)
    assert_allclose(restricted, basis.conj().T @ images, atol=1e-12)
    return restricted


@pytest.mark.parametrize("n_qubits", range(1, 11))
def test_closed_form_restriction_matches_gate_level_apply(n_qubits):
    rng = np.random.default_rng(700 + n_qubits)
    for _ in range(2):
        op, (_, apply_u) = operator_and_reference(
            random_ansatz(n_qubits, 2, rng), "".join(rng.choice(list("IXYZ"), n_qubits))
        )
        restricted = assert_closed_form_restriction_matches_reference(op, apply_u)
        assert_allclose(restricted.conj().T @ restricted, np.eye(2), atol=1e-12)


def test_closed_form_restriction_at_the_plane_extremes():
    # a Pauli eigenstate: U is the identity
    op, (_, apply_u) = operator_and_reference(Ansatz(3, 1, np.array([0.0, 0.7, -1.2])), "ZII")
    assert_allclose(assert_closed_form_restriction_matches_reference(op, apply_u), np.eye(2), atol=1e-12)
    # <psi|P|psi> = 0: P psi is orthogonal to psi, and U rotates by pi
    op, (_, apply_u) = operator_and_reference(Ansatz(3, 0, np.array([])), "XZI")
    assert op.expectation == 0.0
    assert_allclose(assert_closed_form_restriction_matches_reference(op, apply_u), -np.eye(2), atol=1e-12)


def test_plane_degenerates_on_pauli_eigenstate():
    # U = I has no eigenbasis to collapse onto
    op = build_rotation_operator(Ansatz(1, 1, np.array([0.0])), "Z")
    with pytest.raises(ValueError):
        collapse_distribution(op.rotation_angle)


def assert_power_matches_repeated_apply(op, apply_u, state, ms):
    """power_apply against the Kronecker reference U applied m times."""
    want, done = state, 0
    for m in ms:
        while done < m:
            want, done = apply_u(want), done + 1
        assert_allclose(op.power_apply(state, m), want, atol=1e-12)


@pytest.mark.parametrize("n_qubits", range(1, 11))
def test_power_apply_matches_repeated_gate_application(n_qubits):
    rng = np.random.default_rng(400 + n_qubits)
    for _ in range(2):
        op, (_, apply_u) = operator_and_reference(
            random_ansatz(n_qubits, 2, rng), "".join(rng.choice(list("IXYZ"), n_qubits))
        )
        assert_power_matches_repeated_apply(op, apply_u, random_state(n_qubits, rng), (1, 3, 16))


@pytest.mark.parametrize("angle", [1e-3, 1e-6, 1e-9, 0.0])
def test_power_apply_near_a_pauli_eigenstate(angle):
    # <ZI> = cos(angle): the rotation plane shrinks to nothing as angle -> 0
    op, (_, apply_u) = operator_and_reference(Ansatz(2, 1, np.array([angle, 0.7])), "ZI")
    assert_power_matches_repeated_apply(op, apply_u, random_state(2, np.random.default_rng(5)), (1, 3, 16, 64))


def test_power_apply_is_identity_on_an_exact_pauli_eigenstate():
    op = build_rotation_operator(Ansatz(2, 1, np.array([0.0, 0.7])), "ZI")
    state = random_state(2, np.random.default_rng(6))
    for m in (1, 3, 16, 64):
        assert_allclose(op.power_apply(state, m), state, atol=1e-14)
    with pytest.raises(ValueError):
        collapse_distribution(op.rotation_angle)


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
def test_circuit_probability_matches_likelihood_on_eigenstates(m):
    # the reference circuit on the reference eigenvectors, against the
    # library's likelihood at the library's eigenphase
    rng = np.random.default_rng(100 + m)
    for _ in range(10):
        op, (_, apply_u) = operator_and_reference(random_ansatz(2, 2, rng), "ZZ")
        v_plus, v_minus, _ = dense_eigenvectors(dense_operator(apply_u, 4))
        phi = op.rotation_angle
        theta = rng.uniform(-np.pi, np.pi)
        setting = ExperimentSetting(float(m), theta)
        (p0, _), (p1, _) = circuit_branches(apply_u, v_plus, m, theta)
        assert p0 == pytest.approx(likelihood(0, phi, setting), abs=1e-12)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)
        # the minus branch sees the mirrored phase
        (w0, _), _ = circuit_branches(apply_u, v_minus, m, theta)
        assert w0 == pytest.approx(likelihood(0, -phi, setting), abs=1e-12)


def test_circuit_on_trial_state_averages_the_branches():
    rng = np.random.default_rng(77)
    op, (psi, apply_u) = operator_and_reference(random_ansatz(2, 1, rng), "XI")
    phi = op.rotation_angle
    for m, theta in ((1, 0.3), (3, -0.9), (5, 1.7)):
        (p0, _), _ = circuit_branches(apply_u, psi, m, theta)
        want = 0.5 * (1.0 + np.cos(m * phi) * np.cos(m * theta))
        assert p0 == pytest.approx(want, abs=1e-12)


def test_scalar_readout_matches_the_circuit():
    # stage 2's oracle holds the exact eigenphase alone, as -phi, and reads
    # out at theta = 0; the Kronecker reference circuit's exact p0 is the
    # reference, on random terms and at the ends of the spectrum: Pauli
    # eigenstates (phi = 0, one of them under YY) and <P> = 0 (phi = pi).
    # The oracle returns 0 exactly when u < p0, so a u just below and just
    # above the reference p0 pins its p0 to within that margin
    rng = np.random.default_rng(31)
    terms = [
        (random_ansatz(n_qubits, 2, rng), "".join(rng.choice(list("IXYZ"), n_qubits)))
        for n_qubits in range(1, MAX_QUBITS + 1)
    ]
    terms.append((random_ansatz(3, 1, rng), "YXY"))
    terms.append((Ansatz(3, 1, np.zeros(3)), "ZIZ"))
    terms.append((Ansatz(2, 2, np.array([0.0, 0.0, np.pi / 2.0, np.pi / 2.0])), "YY"))
    terms.append((Ansatz(1, 1, np.array([np.pi / 2.0])), "Z"))
    pairs = [operator_and_reference(ansatz, pauli) for ansatz, pauli in terms]
    ops = [op for op, _ in pairs]
    assert ops[-3].rotation_angle == 0.0
    assert abs(ops[-2].expectation) == pytest.approx(1.0, abs=1e-12)
    assert ops[-1].rotation_angle == pytest.approx(np.pi)
    assert any("Y" in op.pauli for op in ops[:MAX_QUBITS])
    for op, (psi, apply_u) in pairs:
        oracle = SyntheticOracle(-op.rotation_angle, pinned_theta=0.0)
        assert oracle.pinned_theta == 0.0
        for m in range(1, 33):
            (exact_p0, _), _ = circuit_branches(apply_u, psi, m, 0.0)
            setting = (float(m), oracle.pinned_theta)
            assert oracle.sample(setting, exact_p0 - 1e-12) == 0
            assert oracle.sample(setting, exact_p0 + 1e-12) == 1


def test_circuit_rejects_fractional_m():
    rng = np.random.default_rng(1)
    op = build_rotation_operator(random_ansatz(1, 1, rng), "Z")
    with pytest.raises(ValueError):
        run_phase_circuit(op.base_state, op, ExperimentSetting(2.5, 0.0), rng)


def test_run_phase_circuit_is_seed_deterministic():
    rng = np.random.default_rng(9)
    op = build_rotation_operator(random_ansatz(2, 1, rng), "ZY")
    setting = ExperimentSetting(3.0, 0.4)
    a = run_phase_circuit(op.base_state, op, setting, np.random.default_rng(123))
    b = run_phase_circuit(op.base_state, op, setting, np.random.default_rng(123))
    assert a[0] == b[0] and a[2] == b[2]
    assert_allclose(a[1], b[1])


def test_pauli_sampling_statistics():
    state = prepare(Ansatz(1, 1, np.array([0.9])))
    plus = sample_pauli_outcomes(state, "Z", 40_000, np.random.default_rng(17))
    draws = pm_one_draws(pauli_expectation(state, "Z"), 40_000, 17)
    assert type(plus) is int and plus == np.count_nonzero(draws == 1.0)
    assert set(np.unique(draws)) <= {-1.0, 1.0}
    assert draws.mean() == pytest.approx(np.cos(0.9), abs=0.02)
    with pytest.raises(ValueError):
        sample_pauli_outcomes(state, "Z", 0, np.random.default_rng(0))


@pytest.mark.parametrize("shots", [1, _SHOT_BLOCK - 1, _SHOT_BLOCK, _SHOT_BLOCK + 1, 3 * _SHOT_BLOCK + 5])
def test_pauli_count_does_not_depend_on_the_block(shots):
    state = prepare(Ansatz(1, 1, np.array([1.3])))
    plus = sample_pauli_outcomes(state, "Z", shots, np.random.default_rng(shots))
    assert plus == np.count_nonzero(pm_one_draws(pauli_expectation(state, "Z"), shots, shots) == 1.0)


def test_ten_million_shots_count_in_bounded_memory():
    ansatz = Ansatz(1, 1, np.array([1.1]))
    shots = 10**7
    tracemalloc.start()
    try:
        plus = sample_pauli_outcomes(prepare(ansatz), "Z", shots, np.random.default_rng(5))
        mean = statistical_estimate(ansatz, "Z", shots, np.random.default_rng(5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    p_plus = 0.5 * (1.0 + pauli_expectation(prepare(ansatz), "Z"))
    assert plus == np.count_nonzero(np.random.default_rng(5).random(shots) < p_plus)
    assert mean == (2 * plus - shots) / shots


@pytest.mark.parametrize("n_qubits", range(1, 13))
def test_qubit_count_of_a_power_of_two_length(n_qubits):
    assert _n_qubits_of(np.zeros(2**n_qubits, dtype=complex)) == n_qubits


@pytest.mark.parametrize("size", [3, 6, 2**12 + 1])
def test_qubit_count_rejects_other_lengths(size):
    with pytest.raises(ValueError, match=f"^state length {size} is not a power of two$"):
        _n_qubits_of(np.zeros(size, dtype=complex))
