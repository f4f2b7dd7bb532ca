"""Variational ground-state search over weighted Pauli sums.

Hamiltonians are plain text, one term per line:

    # comments and blank lines are ignored
    0.5 ZI
    -0.25 XX

Energy estimation owns the precision: it splits a total budget uniformly
over the measured terms (epsilon_i = epsilon_total / sum_j |a_j| over those
terms, so sum_i |a_i| epsilon_i = epsilon_total) and supports three modes:
exact statevector expectations, statistical sampling at ceil(1/epsilon_i^2)
shots per term, and the gated two-stage estimator, whose exponent alpha and
depth budget d_max the caller passes.  An all-I term is 1 on every state, so
the sampled modes add its coefficient exactly and do not measure it.  They
estimate the other terms in order from the caller's one Generator, each term
drawing where the previous one stopped.
The outer loop is a derivative-free Nelder-Mead simplex that re-evaluates the
incumbent on every shrink, which keeps a lucky noisy estimate from freezing
the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .expectation import TwoStageConfig, _PrecisionRefused, _shot_count, statistical_estimate, two_stage_estimate
from .statevector import Ansatz, _pauli_action, pauli_expectation, prepare, validate_pauli

__all__ = [
    "Hamiltonian",
    "HamiltonianParseError",
    "parse_hamiltonian",
    "load_hamiltonian",
    "bundled_hamiltonian",
    "dense_matrix",
    "exact_ground_energy",
    "estimate_energy",
    "VQEResult",
    "optimize",
]

# Nelder-Mead: initial simplex spread per coordinate, and the simplex
# diameter below which the search has converged
_INIT_SPREAD = 0.5
_TOL = 1e-6


class HamiltonianParseError(ValueError):
    """Malformed Hamiltonian text; the message names the offending line."""


@dataclass(frozen=True)
class Hamiltonian:
    """Weighted Pauli sum sum_i a_i P_i with nonzero finite coefficients."""

    terms: tuple[tuple[float, str], ...]
    n_qubits: int

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("Hamiltonian needs at least one term")
        for coeff, pauli in self.terms:
            validate_pauli(pauli)
            if len(pauli) != self.n_qubits:
                raise ValueError(f"term {pauli!r} does not act on {self.n_qubits} qubits")
            if not (np.isfinite(coeff) and coeff != 0.0):
                raise ValueError(f"coefficient for {pauli!r} must be finite and nonzero, got {coeff}")

    @property
    def coeff_norm(self) -> float:
        return float(sum(abs(c) for c, _ in self.terms))


def parse_hamiltonian(text: str) -> Hamiltonian:
    """Parse '<coefficient> <pauli letters>' lines; '#' starts a comment."""
    terms: list[tuple[float, str]] = []
    n_qubits: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise HamiltonianParseError(
                f"line {lineno}: expected '<coefficient> <paulis>', got {raw.strip()!r}"
            )
        try:
            coeff = float(parts[0])
        except ValueError:
            raise HamiltonianParseError(f"line {lineno}: bad coefficient {parts[0]!r}") from None
        pauli = parts[1]
        try:
            validate_pauli(pauli)
        except ValueError as exc:
            raise HamiltonianParseError(f"line {lineno}: {exc}") from None
        if not (np.isfinite(coeff) and coeff != 0.0):
            raise HamiltonianParseError(f"line {lineno}: coefficient must be finite and nonzero")
        if n_qubits is None:
            n_qubits = len(pauli)
        elif len(pauli) != n_qubits:
            raise HamiltonianParseError(
                f"line {lineno}: term has {len(pauli)} qubits, earlier terms have {n_qubits}"
            )
        terms.append((coeff, pauli))
    if not terms:
        raise HamiltonianParseError("no terms found")
    return Hamiltonian(tuple(terms), n_qubits)


def load_hamiltonian(path) -> Hamiltonian:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise HamiltonianParseError(f"cannot read {path}: {exc}") from None
    try:
        return parse_hamiltonian(text)
    except HamiltonianParseError as exc:
        raise HamiltonianParseError(f"{path}: {exc}") from None


def bundled_hamiltonian(name: str) -> Hamiltonian:
    """Load one of the packaged toys ('toy1q' or 'toy2q')."""
    from importlib.resources import files

    resource = files("alphavqe").joinpath("data", f"{name}.txt")
    if not resource.is_file():
        raise HamiltonianParseError(f"no bundled Hamiltonian named {name!r}")
    return parse_hamiltonian(resource.read_text(encoding="utf-8"))


def dense_matrix(h: Hamiltonian) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the Pauli sum, qubit 0 first, from `apply_pauli`'s bit-mask action."""
    dim = 2**h.n_qubits
    rows = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, pauli in h.terms:
        source, phase = _pauli_action(pauli)
        out[rows, source] += coeff * phase
    return out


def exact_ground_energy(h: Hamiltonian) -> float:
    """Smallest eigenvalue by dense diagonalization."""
    return float(np.linalg.eigvalsh(dense_matrix(h)).min())


def estimate_energy(
    h: Hamiltonian,
    ansatz: Ansatz,
    mode: str,
    epsilon_total: float | None = None,
    rng: np.random.Generator | None = None,
    alpha: float = 0.5,
    d_max: float = 32.0,
) -> tuple[float, int]:
    """Energy of the trial state and the number of measurements spent.

    mode 'exact' evaluates expectations analytically (0 measurements).
    'statistical' and 'alpha' add each all-I term's coefficient exactly, with
    no draw, and estimate every other term to epsilon_i = epsilon_total /
    measured_norm, measured_norm = sum_j |a_j| over those terms, for a
    finite positive epsilon_total, with at least one shot per term; a
    Hamiltonian of all-I terms alone gets its exact energy for 0
    measurements.  Alpha mode runs every measured term through the gated
    two-stage estimator at `TwoStageConfig(alpha, d_max, epsilon_i)`, built
    once before any draw.  A share that either mode refuses is refused by the
    values that set it; the other modes read neither alpha nor d_max.

    Both sampled modes draw every measured term from `rng` itself, in term
    order: term i's draws follow term i-1's, so the same seed gives the same
    bytes and `rng` is left after the last term's draws.  Each draw is a fresh
    uniform, so the term estimates stay independent.  Any Generator works,
    whatever its bit generator and however it was seeded.
    """
    if h.n_qubits != ansatz.n_qubits:
        raise ValueError(f"ansatz has {ansatz.n_qubits} qubits, Hamiltonian {h.n_qubits}")
    if mode == "exact":
        state = prepare(ansatz)
        energy = sum(coeff * pauli_expectation(state, pauli) for coeff, pauli in h.terms)
        return float(energy), 0
    if mode not in ("statistical", "alpha"):
        raise ValueError(f"mode must be exact, statistical, or alpha, got {mode!r}")
    if epsilon_total is None or not (epsilon_total > 0.0 and math.isfinite(epsilon_total)):
        raise ValueError(f"{mode} mode needs a finite positive epsilon_total, got {epsilon_total}")
    if rng is None:
        raise ValueError(f"{mode} mode needs a random generator")
    # an all-I term is 1 on every state: it adds its coefficient and is not measured
    measured = [(coeff, pauli) for coeff, pauli in h.terms if pauli.strip("I")]
    energy = float(sum(coeff for coeff, pauli in h.terms if not pauli.strip("I")))
    if not measured:
        return energy, 0
    measured_norm = float(sum(abs(coeff) for coeff, _ in measured))
    eps_term = epsilon_total / measured_norm

    try:
        if mode == "statistical":
            shots = _shot_count(eps_term)
        elif not eps_term < 1.0:
            raise _PrecisionRefused(eps_term, "alpha mode needs below 1")
        elif eps_term <= 0.0:
            raise _PrecisionRefused(eps_term, "alpha mode needs above 0")
        else:
            config = TwoStageConfig(alpha, d_max, eps_term)
    except _PrecisionRefused as exc:
        raise ValueError(
            f"epsilon_total = {epsilon_total:.6g} over measured_norm = {measured_norm:.6g} leaves each term "
            f"a share of {eps_term:.6g}, which {exc.reason}"
        ) from None
    measurements = 0
    for coeff, pauli in measured:
        if mode == "statistical":
            value, used = statistical_estimate(ansatz, pauli, shots, rng), shots
        else:
            result = two_stage_estimate(ansatz, pauli, config, rng)
            value, used = result.value, result.measurements_used
        energy += coeff * value
        measurements += used
    return float(energy), measurements


@dataclass
class VQEResult:
    best_lambda: np.ndarray
    best_energy: float
    energy_history: list[tuple[int, np.ndarray, float, int]]
    converged: bool
    total_measurements: int


def optimize(
    h: Hamiltonian,
    ansatz_template: Ansatz,
    max_iters: int = 200,
    mode: str = "exact",
    epsilon_total: float | None = None,
    alpha: float = 0.5,
    d_max: float = 32.0,
    seed: int = 0,
) -> VQEResult:
    """Minimize the estimated energy over ansatz parameters.

    mode, epsilon_total, alpha and d_max go unchanged to every
    `estimate_energy` call.  The history records every objective evaluation
    as (iteration, lambda, energy, cumulative measurements);
    best_energy/best_lambda are the minimum over that history.  max_iters
    caps the Nelder-Mead iterations; 0 just evaluates the template parameters.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be non-negative, got {max_iters}")
    rng = np.random.default_rng(seed)
    history: list[tuple[int, np.ndarray, float, int]] = []
    totals = {"measurements": 0, "iteration": 0}

    def objective(x: np.ndarray) -> float:
        ansatz = replace(ansatz_template, params=np.asarray(x, dtype=float))
        energy, used = estimate_energy(h, ansatz, mode, epsilon_total, rng, alpha, d_max)
        totals["measurements"] += used
        history.append((totals["iteration"], np.array(x, dtype=float), energy, totals["measurements"]))
        return energy

    x0 = np.asarray(ansatz_template.params, dtype=float)
    f0 = objective(x0)
    converged = False
    if max_iters > 0:
        converged = _nelder_mead(objective, x0, f0, max_iters, totals)
    best_iter = min(range(len(history)), key=lambda i: history[i][2])
    return VQEResult(
        best_lambda=history[best_iter][1],
        best_energy=history[best_iter][2],
        energy_history=history,
        converged=converged,
        total_measurements=totals["measurements"],
    )


def _nelder_mead(objective, x0: np.ndarray, f0: float, max_iters: int, totals) -> bool:
    """Simplex descent with incumbent re-evaluation on shrink; returns converged.

    With no parameters the simplex is the one point x0, of diameter 0, so the
    search converges at once.
    """
    dim = x0.size
    points = [x0.copy()]
    values = [f0]
    for j in range(dim):
        xj = x0.copy()
        xj[j] += _INIT_SPREAD
        points.append(xj)
        values.append(objective(xj))
    for iteration in range(1, max_iters + 1):
        totals["iteration"] = iteration
        order = np.argsort(values, kind="stable")
        points = [points[i] for i in order]
        values = [values[i] for i in order]
        if max((np.max(np.abs(p - points[0])) for p in points[1:]), default=0.0) < _TOL:
            return True
        centroid = np.mean(points[:-1], axis=0)
        reflected = centroid + (centroid - points[-1])
        f_reflected = objective(reflected)
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - points[-1])
            f_expanded = objective(expanded)
            if f_expanded < f_reflected:
                points[-1], values[-1] = expanded, f_expanded
            else:
                points[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            points[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = centroid + 0.5 * (reflected - centroid)
        else:
            contracted = centroid + 0.5 * (points[-1] - centroid)
        f_contracted = objective(contracted)
        if f_contracted < min(f_reflected, values[-1]):
            points[-1], values[-1] = contracted, f_contracted
            continue
        # shrink toward the incumbent; re-measure it so a lucky noisy
        # estimate cannot pin the simplex in place
        values[0] = objective(points[0])
        for i in range(1, dim + 1):
            points[i] = points[0] + 0.5 * (points[i] - points[0])
            values[i] = objective(points[i])
    return False
