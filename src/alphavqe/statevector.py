"""Dense statevector simulation of the reflection-product operator and the
single-ancilla measurement circuit.

Qubit 0 is the most significant bit of the amplitude index, matching a
Kronecker product that lists qubit 0 first.  States are plain complex
ndarrays of length 2**n; every operation returns a fresh array.

The central construction: given a trial circuit R (|psi> = R|0...0>) and a
Pauli string P, the unitary

    U = (R Pi R^dag) (P R Pi R^dag P),    Pi = I - 2|0...0><0...0|,

is a product of reflections about |psi> and P|psi>.  It rotates the plane
spanned by those two states by phi = 2 arccos |<psi|P|psi>| and acts as the
identity elsewhere, so estimating the eigenphase of U recovers |<psi|P|psi>|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bayes import ExperimentSetting

__all__ = [
    "MAX_QUBITS",
    "validate_pauli",
    "zero_state",
    "apply_pauli",
    "Ansatz",
    "prepare",
    "apply_ansatz",
    "apply_ansatz_adjoint",
    "pauli_expectation",
    "RotationOperator",
    "build_rotation_operator",
    "phase_circuit_branches",
    "run_phase_circuit",
    "sample_pauli_outcomes",
    "states_close",
]

MAX_QUBITS = 12

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def validate_pauli(pauli: str) -> str:
    """Check a Pauli string over {I, X, Y, Z} and return it unchanged."""
    if not isinstance(pauli, str) or not pauli:
        raise ValueError(f"Pauli string must be a non-empty str, got {pauli!r}")
    if len(pauli) > MAX_QUBITS:
        raise ValueError(f"at most {MAX_QUBITS} qubits supported, got {len(pauli)}")
    bad = set(pauli) - set("IXYZ")
    if bad:
        raise ValueError(f"invalid Pauli letters {sorted(bad)} in {pauli!r}")
    return pauli


def zero_state(n_qubits: int) -> np.ndarray:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must lie in [1, {MAX_QUBITS}], got {n_qubits}")
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def _n_qubits_of(state: np.ndarray) -> int:
    n = int(np.log2(state.size))
    if 2**n != state.size:
        raise ValueError(f"state length {state.size} is not a power of two")
    return n


def _apply_one_qubit(state: np.ndarray, mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    psi = np.moveaxis(state.reshape([2] * n), qubit, 0)
    psi = np.tensordot(mat, psi, axes=(1, 0))
    return np.moveaxis(psi, 0, qubit).reshape(-1)


def _apply_cz(state: np.ndarray, q1: int, q2: int, n: int) -> np.ndarray:
    psi = state.reshape([2] * n).copy()
    idx: list = [slice(None)] * n
    idx[q1] = 1
    idx[q2] = 1
    psi[tuple(idx)] *= -1.0
    return psi.reshape(-1)


def apply_pauli(state: np.ndarray, pauli: str) -> np.ndarray:
    """Apply a Pauli string; qubit q acts on axis q of the reshaped state."""
    validate_pauli(pauli)
    n = _n_qubits_of(state)
    if n != len(pauli):
        raise ValueError(f"state has {n} qubits but Pauli string has {len(pauli)}")
    out = np.array(state, dtype=complex)
    for q, letter in enumerate(pauli):
        if letter != "I":
            out = _apply_one_qubit(out, _PAULI_MATS[letter], q, n)
    return out


def _ry(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _entangler_pairs(n: int) -> list[tuple[int, int]]:
    # closed ring; for two qubits the ring would double (and cancel) the CZ
    if n < 2:
        return []
    if n == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n) for i in range(n)]


@dataclass(frozen=True)
class Ansatz:
    """Trial-state circuit: per layer, a Y rotation on every qubit followed by
    a ring of controlled-Z entanglers (no entangler for a single qubit).

    params is layer-major with length n_qubits * layers; amplitudes stay real.
    """

    n_qubits: int
    layers: int
    params: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must lie in [1, {MAX_QUBITS}], got {self.n_qubits}")
        if self.layers < 0:
            raise ValueError(f"layers must be non-negative, got {self.layers}")
        params = np.asarray(self.params, dtype=float)
        if params.shape != (self.n_qubits * self.layers,):
            raise ValueError(
                f"params must have length n_qubits * layers = {self.n_qubits * self.layers}, "
                f"got shape {params.shape}"
            )
        object.__setattr__(self, "params", params)


def apply_ansatz(state: np.ndarray, ansatz: Ansatz) -> np.ndarray:
    out = np.array(state, dtype=complex)
    angles = ansatz.params.reshape(ansatz.layers, ansatz.n_qubits)
    pairs = _entangler_pairs(ansatz.n_qubits)
    for layer in range(ansatz.layers):
        for q in range(ansatz.n_qubits):
            out = _apply_one_qubit(out, _ry(angles[layer, q]), q, ansatz.n_qubits)
        for a, b in pairs:
            out = _apply_cz(out, a, b, ansatz.n_qubits)
    return out


def apply_ansatz_adjoint(state: np.ndarray, ansatz: Ansatz) -> np.ndarray:
    out = np.array(state, dtype=complex)
    angles = ansatz.params.reshape(ansatz.layers, ansatz.n_qubits)
    pairs = _entangler_pairs(ansatz.n_qubits)
    for layer in reversed(range(ansatz.layers)):
        for a, b in reversed(pairs):
            out = _apply_cz(out, a, b, ansatz.n_qubits)
        for q in range(ansatz.n_qubits):
            out = _apply_one_qubit(out, _ry(-angles[layer, q]), q, ansatz.n_qubits)
    return out


def prepare(ansatz: Ansatz) -> np.ndarray:
    """Trial state R|0...0>."""
    return apply_ansatz(zero_state(ansatz.n_qubits), ansatz)


def pauli_expectation(state: np.ndarray, pauli: str) -> float:
    """Exact <state|P|state>; real for a normalized state and Hermitian P."""
    value = np.vdot(state, apply_pauli(state, pauli))
    return float(value.real)


class RotationOperator:
    """The reflection product (R Pi R^dag)(P R Pi R^dag P) for one (R, P) pair.

    apply/apply_adjoint run the full gate sequence on arbitrary states, which
    is what the measurement circuits use; plane_eigenvectors exposes the two
    rotation eigenvectors for analysis and collapse bookkeeping.
    """

    def __init__(self, ansatz: Ansatz, pauli: str):
        validate_pauli(pauli)
        if len(pauli) != ansatz.n_qubits:
            raise ValueError(
                f"Pauli string length {len(pauli)} does not match ansatz on {ansatz.n_qubits} qubits"
            )
        self.ansatz = ansatz
        self.pauli = pauli
        self.n_qubits = ansatz.n_qubits
        self.base_state = prepare(ansatz)
        self.expectation = pauli_expectation(self.base_state, pauli)
        self._plane: tuple[np.ndarray, np.ndarray, float] | None = None
        self._spectrum: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def rotation_angle(self) -> float:
        """Exact eigenphase 2 arccos |<psi|P|psi>|."""
        return float(2.0 * np.arccos(np.clip(abs(self.expectation), 0.0, 1.0)))

    def _reflect_trial(self, state: np.ndarray) -> np.ndarray:
        # R Pi R^dag: flip the sign of the |0...0> amplitude in the R frame
        v = apply_ansatz_adjoint(state, self.ansatz)
        v[0] = -v[0]
        return apply_ansatz(v, self.ansatz)

    def apply(self, state: np.ndarray) -> np.ndarray:
        v = apply_pauli(state, self.pauli)
        v = self._reflect_trial(v)
        v = apply_pauli(v, self.pauli)
        return self._reflect_trial(v)

    def apply_adjoint(self, state: np.ndarray) -> np.ndarray:
        v = self._reflect_trial(state)
        v = apply_pauli(v, self.pauli)
        v = self._reflect_trial(v)
        return apply_pauli(v, self.pauli)

    def power_apply(self, state: np.ndarray, m: int, power_sign: int = 1) -> np.ndarray:
        """U^(sign*m) applied through the cached eigendecomposition.

        Repetition counts enter every circuit execution, so powering gate by
        gate would dominate the simulator's runtime; two dense matvecs per
        call cost the same for m=1 and m=100.
        """
        if self._spectrum is None:
            dim = 2**self.n_qubits
            dense = np.empty((dim, dim), dtype=complex)
            eye = np.eye(dim, dtype=complex)
            for j in range(dim):
                dense[:, j] = self.apply(eye[j])
            vals, vecs = np.linalg.eig(dense)
            self._spectrum = (vals, vecs, np.linalg.inv(vecs))
        vals, vecs, vinv = self._spectrum
        exponent = m if power_sign > 0 else -m
        return vecs @ (vals**exponent * (vinv @ state))

    def plane_eigenvectors(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(v_plus, v_minus, phi) with U v_plus = e^{+i phi} v_plus and
        U v_minus = e^{-i phi} v_minus, both unit vectors in the rotation plane.

        Undefined when the trial state is already a Pauli eigenstate (the
        plane degenerates); that case raises.
        """
        if self._plane is not None:
            return self._plane
        a = self.expectation
        if 1.0 - a * a < 1e-12:
            raise ValueError("trial state is a Pauli eigenstate; rotation plane is degenerate")
        e1 = self.base_state
        e2 = (apply_pauli(e1, self.pauli) - a * e1) / np.sqrt(1.0 - a * a)
        u1, u2 = self.apply(e1), self.apply(e2)
        restricted = np.array(
            [[np.vdot(e1, u1), np.vdot(e1, u2)], [np.vdot(e2, u1), np.vdot(e2, u2)]]
        )
        vals, vecs = np.linalg.eig(restricted)
        order = np.argsort(-np.angle(vals))
        vals, vecs = vals[order], vecs[:, order]
        v_plus = vecs[0, 0] * e1 + vecs[1, 0] * e2
        v_minus = vecs[0, 1] * e1 + vecs[1, 1] * e2
        v_plus /= np.linalg.norm(v_plus)
        v_minus /= np.linalg.norm(v_minus)
        self._plane = (v_plus, v_minus, float(np.angle(vals[0])))
        return self._plane


def build_rotation_operator(ansatz: Ansatz, pauli: str) -> RotationOperator:
    return RotationOperator(ansatz, pauli)


def _circuit_m(setting: ExperimentSetting) -> int:
    if abs(setting.m - round(setting.m)) > 1e-9 or setting.m < 1.0:
        raise ValueError(f"circuit execution needs integer m >= 1, got {setting.m}")
    return int(round(setting.m))


def phase_circuit_branches(
    system_state: np.ndarray,
    op: RotationOperator,
    setting: ExperimentSetting,
    power_sign: int = 1,
) -> tuple[tuple[float, np.ndarray], tuple[float, np.ndarray]]:
    """Exact outcome probabilities and post-measurement states of the ancilla circuit.

    Ancilla in |+>, phase gate diag(1, e^{-i m theta}), m controlled
    applications of U (power_sign=+1) or U^dag (power_sign=-1), X-basis
    readout.  Returns ((p0, state0), (p1, state1)); a zero-probability branch
    carries a zero vector.
    """
    if power_sign not in (1, -1):
        raise ValueError(f"power_sign must be +1 or -1, got {power_sign}")
    m = _circuit_m(setting)
    if system_state.size != 2**op.n_qubits:
        raise ValueError("system state dimension does not match the operator")
    branch0 = np.array(system_state, dtype=complex)
    branch1 = op.power_apply(branch0 * np.exp(-1j * m * setting.theta), m, power_sign)
    results = []
    for sign in (1.0, -1.0):
        post = 0.5 * (branch0 + sign * branch1)
        p = float(np.real(np.vdot(post, post)))
        p = min(max(p, 0.0), 1.0)
        norm = np.linalg.norm(post)
        results.append((p, post / norm if norm > 1e-15 else np.zeros_like(post)))
    return results[0], results[1]


def run_phase_circuit(
    system_state: np.ndarray,
    op: RotationOperator,
    setting: ExperimentSetting,
    power_sign: int,
    rng: np.random.Generator,
) -> tuple[int, np.ndarray, float]:
    """Sample one ancilla measurement; returns (outcome, post state, exact p0).

    On an eigenstate of U the outcome follows the analytic likelihood
    (1 + (-1)^E cos(m (phi - theta))) / 2 exactly.
    """
    (p0, state0), (_, state1) = phase_circuit_branches(system_state, op, setting, power_sign)
    outcome = 0 if rng.random() < p0 else 1
    return outcome, (state0 if outcome == 0 else state1), p0


def sample_pauli_outcomes(
    state: np.ndarray, pauli: str, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Vector of `shots` independent +-1 measurements on fresh preparations."""
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    p_plus = 0.5 * (1.0 + np.clip(pauli_expectation(state, pauli), -1.0, 1.0))
    return np.where(rng.random(shots) < p_plus, 1.0, -1.0)


def states_close(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Equality of unit states up to global phase: | |<a|b>| - 1 | <= tol."""
    return bool(abs(abs(np.vdot(a, b)) - 1.0) <= tol)
