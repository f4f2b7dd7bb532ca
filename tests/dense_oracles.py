"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive: dense matrices built by kron, operator
matrices recovered column by column, posterior moments by huge-sample
rejection sampling or by brute quadrature.  Slow but independent of the
library's own shortcuts.
"""

import numpy as np

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


def kron_ansatz(ansatz) -> np.ndarray:
    """Dense unitary of the layered ansatz, built gate by gate from kron products.

    Per layer: the kron of one Y rotation per qubit, then the controlled-Z
    ring as an explicit product of diagonal matrices I - 2 |11><11| on each
    pair (a ring for three or more qubits, one CZ for two, none for one).
    """
    n = ansatz.n_qubits
    dim = 2**n
    one = np.diag([0.0, 1.0]).astype(complex)
    if n == 1:
        pairs = []
    elif n == 2:
        pairs = [(0, 1)]
    else:
        pairs = [(i, (i + 1) % n) for i in range(n)]
    ring = np.eye(dim, dtype=complex)
    for a, b in pairs:
        both = np.array([[1.0 + 0.0j]])
        for q in range(n):
            both = np.kron(both, one if q in (a, b) else np.eye(2))
        ring = (np.eye(dim) - 2.0 * both) @ ring
    out = np.eye(dim, dtype=complex)
    for layer in np.asarray(ansatz.params).reshape(ansatz.layers, n):
        rot = np.array([[1.0 + 0.0j]])
        for t in layer:
            c, s = np.cos(t / 2.0), np.sin(t / 2.0)
            rot = np.kron(rot, np.array([[c, -s], [s, c]]))
        out = ring @ rot @ out
    return out


def dense_operator(apply_fn, dim: int) -> np.ndarray:
    """Recover the matrix of a linear map by applying it to every basis vector."""
    mat = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[j] = 1.0
        mat[:, j] = apply_fn(basis)
    return mat


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
