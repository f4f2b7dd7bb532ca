"""Dense statevector simulation of the reflection-product operator and the
single-ancilla measurement circuit.

Qubit 0 is the most significant bit of the amplitude index, matching a
Kronecker product that lists qubit 0 first.  States are plain complex
ndarrays of length 2**n.  Every operation returns a fresh array, except
`prepare`: it returns the trial state that the ansatz computes once and
caches, read-only.

The central construction: given a trial circuit R (|psi> = R|0...0>) and a
Pauli string P, the unitary

    U = (R Pi R^dag) (P R Pi R^dag P),    Pi = I - 2|0...0><0...0|,

is a product of reflections about |psi> and P|psi>.  It rotates the plane
spanned by those two states by phi = 2 arccos |<psi|P|psi>| and acts as the
identity elsewhere, so estimating the eigenphase of U recovers |<psi|P|psi>|.
U is never built or applied gate by gate: the simulator works through its
2x2 restriction to that plane, and the test oracles hold the dense reference.
The trial state psi is an even superposition of U's two eigenvectors, so at
theta = 0 its ancilla readout is `engine.SyntheticOracle`'s cosine at -phi:
stage 2 of the expectation estimator samples that oracle and builds no U.

A Y rotation [[c, -s], [s, c]] on qubit q is one butterfly on the
(2**q, 2, rest) view: c psi + (-s, s) psi with its axis 1 reversed.  That is
bit for bit the matrix-column form (c, s) a + (-s, c) b, since (-s) b = -(s b)
exactly and IEEE addition commutes, and one pass of broadcast products beats
a stacked matmul, whose per-stack cost grows with 2**q.
"""

from __future__ import annotations

import functools
import math
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
    "pauli_expectation",
    "RotationOperator",
    "build_rotation_operator",
    "run_phase_circuit",
    "sample_pauli_outcomes",
]

MAX_QUBITS = 12

# uniforms per block in `sample_pauli_outcomes`: 512 KiB of doubles
_SHOT_BLOCK = 1 << 16


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
    size = state.size
    if size < 1 or size & (size - 1):
        raise ValueError(f"state length {size} is not a power of two")
    return size.bit_length() - 1


def _apply_one_qubit(state: np.ndarray, angle: float, qubit: int) -> np.ndarray:
    # Ry(angle) = [[c, -s], [s, c]] on axis 1 of the (2**q, 2, rest) view as
    # one butterfly, c psi + (-s, s) psi[:, ::-1]; see the module docstring
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    psi = state.reshape(2**qubit, 2, -1)
    return (c * psi + np.array((-s, s))[:, None] * psi[:, ::-1]).reshape(-1)


@functools.lru_cache(maxsize=64)
def _pauli_action(pauli: str) -> tuple[np.ndarray, np.ndarray]:
    """(source, phase) with (P state)[c] = phase[c] * state[source[c]], for a
    string that `validate_pauli` accepts: the check runs once per string, and
    a bad string raises on every call, since the cache keeps no exception.

    P = i^{n_Y} X^x Z^z with x marking the X and Y letters and z the Z and Y
    letters, so P|b> = i^{n_Y} (-1)^{popcount(b & z)} |b ^ x>.
    """
    n = len(validate_pauli(pauli))
    x = z = 0
    for letter in pauli:
        x = (x << 1) | (letter in "XY")
        z = (z << 1) | (letter in "YZ")
    source = np.arange(2**n) ^ x
    parity = np.zeros(2**n, dtype=np.int64)
    for q in range(n):
        if z >> q & 1:
            parity ^= source >> q & 1
    phase = (1, 1j, -1, -1j)[pauli.count("Y") % 4] * (1.0 - 2.0 * parity)
    source.flags.writeable = False
    phase.flags.writeable = False
    return source, phase


def apply_pauli(state: np.ndarray, pauli: str) -> np.ndarray:
    """Apply a Pauli string; qubit 0 is the most significant bit of the index."""
    source, phase = _pauli_action(pauli)
    n = _n_qubits_of(state)
    if n != len(pauli):
        raise ValueError(f"state has {n} qubits but Pauli string has {len(pauli)}")
    return phase * np.asarray(state, dtype=complex)[source]


@functools.lru_cache(maxsize=MAX_QUBITS)
def _cz_ring_signs(n: int) -> np.ndarray:
    """Diagonal of one layer's controlled-Z ring on n qubits, as +-1 entries.

    Closed ring; for two qubits the ring would double (and cancel) the CZ, so
    it is a single CZ, and one qubit has no entangler.
    """
    pairs = [] if n < 2 else [(0, 1)] if n == 2 else [(i, (i + 1) % n) for i in range(n)]
    index = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)
    for a, b in pairs:
        parity ^= (index >> (n - 1 - a)) & (index >> (n - 1 - b)) & 1
    signs = 1.0 - 2.0 * parity
    signs.flags.writeable = False
    return signs


@dataclass(frozen=True, eq=False)
class Ansatz:
    """Trial-state circuit: per layer, a Y rotation on every qubit followed by
    a ring of controlled-Z entanglers (no entangler for a single qubit).

    params is layer-major with length n_qubits * layers; amplitudes stay real.
    The ansatz keeps a read-only copy of params, so the trial state it caches
    for `prepare` cannot go stale.  Two ansatzes are equal when their shapes
    and parameter values are.
    """

    n_qubits: int
    layers: int
    params: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must lie in [1, {MAX_QUBITS}], got {self.n_qubits}")
        if self.layers < 0:
            raise ValueError(f"layers must be non-negative, got {self.layers}")
        params = np.array(self.params, dtype=float)
        if params.shape != (self.n_qubits * self.layers,):
            raise ValueError(
                f"params must have length n_qubits * layers = {self.n_qubits * self.layers}, "
                f"got shape {params.shape}"
            )
        params.flags.writeable = False
        object.__setattr__(self, "params", params)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ansatz):
            return NotImplemented
        return (
            (self.n_qubits, self.layers) == (other.n_qubits, other.layers)
            and np.array_equal(self.params, other.params)
        )

    def __hash__(self) -> int:
        # float hashing agrees with ==, so 0.0 and -0.0 hash alike
        return hash((self.n_qubits, self.layers, tuple(self.params.tolist())))

    @functools.cached_property
    def _state(self) -> np.ndarray:
        # every gate is real, so the state is built in float64 and converted
        # once; its real parts equal apply_ansatz's bit for bit, whose
        # imaginary parts are all exact zeros
        if not self.layers:
            state = zero_state(self.n_qubits)
        else:
            rows = self.params.reshape(self.layers, self.n_qubits)
            signs = _cz_ring_signs(self.n_qubits)
            # the first layer acts on |0...0>: a product state, folded from
            # the (cos, sin) pairs with qubit 0 most significant
            pairs = np.array([(math.cos(angle / 2.0), math.sin(angle / 2.0)) for angle in rows[0]])
            real = pairs[0]
            for pair in pairs[1:]:
                real = (real[:, None] * pair).ravel()
            state = _apply_layers(real * signs, rows[1:], signs).astype(complex)
        state.flags.writeable = False
        return state


def _apply_layers(state: np.ndarray, rows: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Each row of angles as Y rotations on qubits 0, 1, ... and then the
    controlled-Z ring; the gates are real, so the state keeps its dtype."""
    for angles in rows:
        for q, angle in enumerate(angles.tolist()):
            state = _apply_one_qubit(state, angle, q)
        state *= signs
    return state


def apply_ansatz(state: np.ndarray, ansatz: Ansatz) -> np.ndarray:
    rows = ansatz.params.reshape(ansatz.layers, ansatz.n_qubits)
    return _apply_layers(np.array(state, dtype=complex), rows, _cz_ring_signs(ansatz.n_qubits))


def prepare(ansatz: Ansatz) -> np.ndarray:
    """Trial state R|0...0>, computed once per ansatz and returned read-only."""
    return ansatz._state


def pauli_expectation(state: np.ndarray, pauli: str) -> float:
    """Exact <state|P|state>; real for a normalized state and Hermitian P."""
    value = np.vdot(state, apply_pauli(state, pauli))
    return float(value.real)


def _eigenphase(expectation: float) -> float:
    """phi = 2 arccos |<P>|, the eigenphase of the rotation for that expectation."""
    # min(|x|, 1) is np.clip(|x|, 0, 1) bit for bit, nan too; math.acos is not np.arccos
    return float(2.0 * np.arccos(min(abs(expectation), 1.0)))


class RotationOperator:
    """The reflection product (R Pi R^dag)(P R Pi R^dag P) for one (R, P) pair,
    held as its 2x2 restriction M = B^H U B to the rotation plane, with B an
    orthonormal basis of span{psi, P psi} built in closed form from psi and
    P psi alone.  U is the identity off that plane.
    """

    def __init__(self, ansatz: Ansatz, pauli: str):
        validate_pauli(pauli)
        if len(pauli) != ansatz.n_qubits:
            raise ValueError(
                f"Pauli string length {len(pauli)} does not match ansatz on {ansatz.n_qubits} qubits"
            )
        self.pauli = pauli
        self.n_qubits = ansatz.n_qubits
        self.base_state = prepare(ansatz)
        self.expectation = pauli_expectation(self.base_state, pauli)
        self._basis, self._restricted = self._plane_restriction()

    @property
    def rotation_angle(self) -> float:
        """Exact eigenphase 2 arccos |<psi|P|psi>|."""
        return _eigenphase(self.expectation)

    def _plane_restriction(self) -> tuple[np.ndarray, np.ndarray]:
        """(B, M): the orthonormal columns of B span {psi, P psi} and M = B^H U B.

        With [psi, P psi] = B R, U = (I - 2 psi psi^H)(I - 2 P psi psi^H P)
        restricts to M = (I - 2 r0 r0^H)(I - 2 r1 r1^H), r0 and r1 the columns
        of R.  Householder QR keeps B orthonormal even when psi is a Pauli
        eigenstate up to rounding, where Gram-Schmidt's second vector would be
        all cancellation noise; r1 = +-r0 then, and M = I to rounding.
        """
        psi = self.base_state
        basis, r = np.linalg.qr(np.stack([psi, apply_pauli(psi, self.pauli)], axis=1))
        r0, r1 = r[:, :1], r[:, 1:]
        eye = np.eye(2)
        return basis, (eye - 2.0 * r0 @ r0.conj().T) @ (eye - 2.0 * r1 @ r1.conj().T)

    def power_apply(self, state: np.ndarray, m: int) -> np.ndarray:
        """U^m x = x + B (M^m - I) B^H x."""
        step = np.linalg.matrix_power(self._restricted, m) - np.eye(2)
        return state + self._basis @ (step @ (self._basis.conj().T @ state))


def build_rotation_operator(ansatz: Ansatz, pauli: str) -> RotationOperator:
    return RotationOperator(ansatz, pauli)


def _ancilla_branches(
    state: np.ndarray, turned: np.ndarray
) -> tuple[tuple[float, np.ndarray], tuple[float, np.ndarray]]:
    """((p0, state0), (p1, state1)) of the X-basis ancilla readout whose |1>
    branch holds turned = e^{-i m theta} U^m state, in any basis: the branch
    states are (state +- turned) / 2, normalised; a zero-probability branch
    carries a zero vector."""
    results = []
    for sign in (1.0, -1.0):
        post = 0.5 * (state + sign * turned)
        p = float(np.real(np.vdot(post, post)))
        p = min(max(p, 0.0), 1.0)
        norm = np.linalg.norm(post)
        results.append((p, post / norm if norm > 1e-15 else np.zeros_like(post)))
    return results[0], results[1]


def run_phase_circuit(
    system_state: np.ndarray,
    op: RotationOperator,
    setting: ExperimentSetting,
    rng: np.random.Generator,
) -> tuple[int, np.ndarray, float]:
    """Sample one ancilla measurement; returns (outcome, post state, exact p0).

    Ancilla in |+>, phase gate diag(1, e^{-i m theta}), m controlled
    applications of U, X-basis readout.  On an eigenstate of U the outcome
    follows the analytic likelihood (1 + (-1)^E cos(m (phi - theta))) / 2
    exactly; on the trial state, an even superposition of the two
    eigenvectors, p0 is (1 + cos(m phi) cos(m theta)) / 2.
    """
    m, theta = setting
    if abs(m - round(m)) > 1e-9 or m < 1.0:
        raise ValueError(f"circuit execution needs integer m >= 1, got {m}")
    m = int(round(m))
    if system_state.size != 2**op.n_qubits:
        raise ValueError("system state dimension does not match the operator")
    state = np.array(system_state, dtype=complex)
    turned = op.power_apply(state * np.exp(-1j * m * theta), m)
    (p0, state0), (_, state1) = _ancilla_branches(state, turned)
    outcome = 0 if rng.random() < p0 else 1
    return outcome, (state0 if outcome == 0 else state1), p0


def sample_pauli_outcomes(state: np.ndarray, pauli: str, shots: int, rng: np.random.Generator) -> int:
    """Number of +1 outcomes among `shots` independent Pauli measurements on
    fresh preparations.

    Shot k reads +1 when the k-th uniform of `rng` falls below
    P(+1) = (1 + <P>) / 2.  The uniforms are drawn in blocks of
    `_SHOT_BLOCK` and then the remainder; `Generator.random(n)` equals the
    same n uniforms drawn in consecutive smaller pieces, so the count does
    not depend on the block and memory stays bounded at any shot count.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    p_plus = 0.5 * (1.0 + min(1.0, max(-1.0, pauli_expectation(state, pauli))))
    count = 0
    while shots > _SHOT_BLOCK:
        count += int(np.count_nonzero(rng.random(_SHOT_BLOCK) < p_plus))
        shots -= _SHOT_BLOCK
    return count + int(np.count_nonzero(rng.random(shots) < p_plus))
