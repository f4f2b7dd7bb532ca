"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive: dense matrices built by kron, operator
matrices recovered column by column, the rotation operator as its two
defining reflections and its ancilla circuit as m repeated applications,
posterior moments by huge-sample rejection sampling or by brute quadrature.
Slow but independent of the library's own shortcuts: nothing here calls the
library's kernels or its plane restriction.  The one exception is
`reference_run`, the estimation loop as a plain loop of the library's
one-step calls, which the loop's inline arithmetic is held to.
"""

import math
from array import array

import numpy as np

from alphavqe import engine
from alphavqe.bayes import ExperimentSetting, NormalBelief, _moment_step
from alphavqe.engine import EstimationTimeout, EstimationTrace, SyntheticOracle
from alphavqe.schedules import next_setting

_P1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_pauli(pauli: str) -> np.ndarray:
    """Dense matrix of a Pauli string, qubit 0 as the most significant factor."""
    out = np.array([[1.0 + 0.0j]])
    for ch in pauli:
        out = np.kron(out, _P1[ch])
    return out


def kron_apply(factors, state) -> np.ndarray:
    """kron(factors[0], ..., factors[-1]) @ state without forming the product:
    factor q contracts axis q of the state viewed as a (2, ..., 2) tensor."""
    n = len(factors)
    out = np.asarray(state, dtype=complex).reshape((2,) * n)
    for q, factor in enumerate(factors):
        out = np.moveaxis(np.tensordot(factor, out, axes=(1, q)), 0, q)
    return out.reshape(-1)


def _ring_pairs(n: int) -> list:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n) for i in range(n)]


def _ry(t: float) -> np.ndarray:
    c, s = np.cos(t / 2.0), np.sin(t / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def kron_ansatz(ansatz) -> np.ndarray:
    """Dense unitary of the layered ansatz, built gate by gate from kron products.

    Per layer: the kron of one Y rotation per qubit, then the controlled-Z
    ring as an explicit product of diagonal matrices I - 2 |11><11| on each
    pair (a ring for three or more qubits, one CZ for two, none for one).
    """
    n = ansatz.n_qubits
    dim = 2**n
    one = np.diag([0.0, 1.0]).astype(complex)
    ring = np.eye(dim, dtype=complex)
    for a, b in _ring_pairs(n):
        both = np.array([[1.0 + 0.0j]])
        for q in range(n):
            both = np.kron(both, one if q in (a, b) else np.eye(2))
        ring = (np.eye(dim) - 2.0 * both) @ ring
    out = np.eye(dim, dtype=complex)
    for layer in np.asarray(ansatz.params).reshape(ansatz.layers, n):
        rot = np.array([[1.0 + 0.0j]])
        for t in layer:
            rot = np.kron(rot, _ry(t))
        out = ring @ rot @ out
    return out


def kron_trial_state(ansatz) -> np.ndarray:
    """R|0...0> by the same gates as kron_ansatz, applied to a vector: each
    layer's Y rotations through kron_apply, and each controlled-Z as the kron
    of per-qubit diagonals (1, 1) and (0, 1).  It never forms a 2**n x 2**n
    matrix, so it reaches every qubit count the library supports."""
    n = ansatz.n_qubits
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for layer in np.asarray(ansatz.params).reshape(ansatz.layers, n):
        state = kron_apply([_ry(t) for t in layer], state)
        for a, b in _ring_pairs(n):
            both = np.array([1.0])
            for q in range(n):
                both = np.kron(both, [0.0, 1.0] if q in (a, b) else [1.0, 1.0])
            state = (1.0 - 2.0 * both) * state
    return state


def two_product_gate(state: np.ndarray, angle: float, qubit: int) -> np.ndarray:
    """Ry(angle) on one qubit as two broadcast products of the matrix columns
    with the (2**q, 2, rest) view, (c, s) psi[:, :1] + (-s, c) psi[:, 1:]:
    the library's gate arithmetic before its one-butterfly form."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    mat = np.array([[c, -s], [s, c]])
    psi = state.reshape(2**qubit, 2, -1)
    return (mat[:, 0, None] * psi[:, :1] + mat[:, 1, None] * psi[:, 1:]).reshape(-1)


def two_product_trial_state(ansatz) -> np.ndarray:
    """R|0...0> in float64, every Y rotation by `two_product_gate` from
    |0...0> and each controlled-Z as a sign flip of the |11> entries of its
    pair: the rounding that `prepare` must reproduce bit for bit."""
    n = ansatz.n_qubits
    state = np.zeros(2**n)
    state[0] = 1.0
    bits = np.arange(2**n)[:, None] >> (n - 1 - np.arange(n)) & 1
    for layer in np.asarray(ansatz.params).reshape(ansatz.layers, n):
        for q, angle in enumerate(layer):
            state = two_product_gate(state, float(angle), q)
        for a, b in _ring_pairs(n):
            state = np.where(bits[:, a] & bits[:, b], -state, state)
    return state


def clip_eigenphase(expectation):
    """2 arccos |<P>| with |<P>| clipped to [0, 1] by np.clip, for a scalar
    or elementwise over an array."""
    return 2.0 * np.arccos(np.clip(np.abs(expectation), 0.0, 1.0))


def kron_rotation(ansatz, pauli: str):
    """(psi, apply_u): the trial state and U = (I - 2 psi psi^H)(I - 2 P psi psi^H P)
    as a map on vectors, the two reflections applied as written.  psi comes
    from kron_trial_state and P psi from kron_apply of the Pauli letters, the
    factors of kron_pauli."""
    psi = kron_trial_state(ansatz)
    p_psi = kron_apply([_P1[ch] for ch in pauli], psi)

    def apply_u(v):
        v = v - 2.0 * p_psi * np.vdot(p_psi, v)
        return v - 2.0 * psi * np.vdot(psi, v)

    return psi, apply_u


def circuit_branches(apply_u, state, m: int, theta: float):
    """((p0, state0), (p1, state1)) of the ancilla circuit, run as written:
    ancilla in |+>, phase gate diag(1, e^{-i m theta}), m controlled
    applications of U one at a time, X-basis readout.  Branch states are
    normalised; a zero-probability branch carries a zero vector."""
    turned = np.array(state, dtype=complex)
    for _ in range(m):
        turned = apply_u(turned)
    turned = np.exp(-1j * m * theta) * turned
    branches = []
    for sign in (1.0, -1.0):
        post = 0.5 * (state + sign * turned)
        norm = np.linalg.norm(post)
        branches.append((norm**2, post / norm if norm > 1e-15 else np.zeros_like(post)))
    return tuple(branches)


def dense_eigenvectors(u: np.ndarray):
    """(v_plus, v_minus, phi) of a dense rotation: the unit eigenvectors whose
    eigenvalues e^{+i phi} and e^{-i phi} have the largest and the smallest
    angle, by plain diagonalisation."""
    vals, vecs = np.linalg.eig(u)
    order = np.argsort(np.angle(vals))
    return vecs[:, order[-1]], vecs[:, order[0]], float(np.angle(vals[order[-1]]))


def states_close(a, b, tol: float = 1e-10) -> bool:
    """Equality of unit states up to global phase: | |<a|b>| - 1 | <= tol."""
    return bool(abs(abs(np.vdot(a, b)) - 1.0) <= tol)


def dense_operator(apply_fn, dim: int) -> np.ndarray:
    """Recover the matrix of a linear map by applying it to every basis vector."""
    mat = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[j] = 1.0
        mat[:, j] = apply_fn(basis)
    return mat


def pm_one_draws(expectation: float, shots: int, seed: int) -> np.ndarray:
    """The +-1 outcome vector of `shots` Pauli measurements with mean
    `expectation`, from one unblocked draw of the seeded uniforms: shot k reads
    +1 where u_k < (1 + <P>) / 2."""
    p_plus = 0.5 * (1.0 + np.clip(expectation, -1.0, 1.0))
    return np.where(np.random.default_rng(seed).random(shots) < p_plus, 1.0, -1.0)


def unpinned_setting(policy, belief) -> tuple[float, float]:
    """The setting the estimation loop picks for an oracle that does not pin
    theta, written out: the policy's m clamped to its depth cap, and
    theta = mu - sigma.  A setting that fails the checks of
    `ExperimentSetting` goes through it for its message."""
    mu, sigma = belief
    m = policy.raw_m(sigma)
    if policy.depth_cap is not None and m > policy.depth_cap:
        m = float(policy.depth_cap)
    theta = mu - sigma
    if math.isfinite(m) and m > 0.0 and math.isfinite(theta):
        return m, theta
    return tuple(ExperimentSetting(m, theta))


def reference_run(oracle, policy, prior, *, epsilon=None, max_iterations=None, seed=0):
    """`engine.run_estimation` as a plain loop of library calls, for runs
    with a valid stopping rule.  Each iteration takes the next uniform of a
    256-uniform block, drawn when the iteration starts and the last block is
    spent; picks its setting with `unpinned_setting`, or with `next_setting`
    on a pinned oracle; reads out with `SyntheticOracle.sample` and updates
    with `bayes._moment_step`.  A run that reaches `engine.HARD_ITERATION_CAP`
    short of its own stopping rule raises EstimationTimeout as the engine
    does, with the partial trace and the same message."""
    cap = engine.HARD_ITERATION_CAP
    limit = cap if max_iterations is None else min(max_iterations, cap)
    rng = np.random.default_rng(seed)
    mu, sigma = prior
    rows, block = [], []
    while len(rows) < limit and (epsilon is None or sigma > epsilon):
        if not block:
            block = rng.random(256).tolist()
        u = block.pop(0)
        if oracle.pinned_theta is None:
            m, theta = unpinned_setting(policy, (mu, sigma))
        else:
            m, theta = next_setting(policy, (mu, sigma), oracle.pinned_theta)
        outcome = SyntheticOracle.sample(oracle, (m, theta), u)
        mu, sigma = _moment_step(mu, sigma, outcome, m, theta)
        rows.append((m, theta, outcome, mu, sigma))
    trace = EstimationTrace(array("d", [value for row in rows for value in row]), prior.mu, prior.sigma)
    if len(rows) == cap and (epsilon is None or sigma > epsilon) and (max_iterations is None or max_iterations > cap):
        if max_iterations is None:
            short_of = f"without reaching epsilon={epsilon}"
        else:
            short_of = f"at the hard cap of {cap}, short of max_iterations={max_iterations}"
            if epsilon is not None:
                short_of += f" and epsilon={epsilon}"
        raise EstimationTimeout(f"sigma={sigma:.3g} after {cap} iterations {short_of}", trace)
    return NormalBelief(mu, sigma), trace


def window_bounds(policy, belief) -> tuple[int, int]:
    """The pinned-theta window [lo, hi] of whole counts around the clamped m*,
    holding at least two counts wherever hi > 1."""
    m = policy.raw_m(belief.sigma)
    if policy.depth_cap is not None:
        m = min(m, float(policy.depth_cap))
    top = np.sqrt(2.0) * m
    if policy.depth_cap is not None:
        top = min(top, policy.depth_cap)
    hi = max(1, int(np.floor(top)))
    return max(1, min(hi - 1, int(np.ceil(m / np.sqrt(2.0))))), hi


def vectorised_window_m(policy, belief, pinned_theta: float) -> float:
    """The pinned-theta count as one numpy pass: the Bayes gain
    t sin2 / (e^t - 1 + sin2), t = (m sigma)^2 and sin2 = sin^2(m (mu - theta)),
    over every whole m in the window at once, zero where the denominator is
    not positive; the first maximum wins."""
    lo, hi = window_bounds(policy, belief)
    ms = np.arange(lo, hi + 1, dtype=float)
    t = (ms * belief.sigma) ** 2
    sin2 = np.sin(ms * (belief.mu - pinned_theta)) ** 2
    denom = np.expm1(np.minimum(t, 700.0)) + sin2
    gains = np.divide(t * sin2, denom, out=np.zeros_like(denom), where=denom > 0.0)
    return float(ms[np.argmax(gains)])


def brute_posterior_moments(mu, sigma, e, m, theta, n=200_000, seed=0):
    """Posterior mean/std by massive rejection sampling straight from the model."""
    rng = np.random.default_rng(seed)
    cand = rng.normal(mu, sigma, n)
    sign = 1.0 if e == 0 else -1.0
    lik = 0.5 * (1.0 + sign * np.cos(m * (cand - theta)))
    kept = cand[rng.random(n) < lik]
    return float(kept.mean()), float(kept.std(ddof=1))


def quadrature_posterior_moments(sigma, e, m, delta, half_width=10.0, points=20_001):
    """Posterior moments for prior N(0, sigma^2) and setting m, theta = -delta / m,
    as (mean / sigma, std / sigma), by trapezoid quadrature in prior-standard units.

    The likelihood is written with half angles, (1 - cos x) / 2 = sin^2(x/2)
    and (1 + cos x) / 2 = cos^2(x/2), never as 1 - cos x, so it keeps full
    relative precision however small m sigma is.
    """
    x = np.linspace(-half_width, half_width, points)
    half = 0.5 * (m * sigma * x + delta)
    like = (np.cos(half) if e == 0 else np.sin(half)) ** 2
    w = np.exp(-0.5 * x * x) * like
    w /= w.sum()
    mean = float(np.sum(w * x))
    return mean, float(np.sqrt(np.sum(w * (x - mean) ** 2)))
