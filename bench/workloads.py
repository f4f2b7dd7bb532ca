"""The benchmark's workloads: inputs made from a seed, one task, and its check.

Every input of task i comes from numpy's SeedSequence([seed, i]), so the same
seed gives the same inputs and any task can be replayed on its own.  The
program receives only those inputs; the references that tasks are checked
against are computed here, independently of the program's own shortcuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass
class TaskOutcome:
    """What one task did; `record` is the part that must repeat exactly."""

    index: int
    seconds: float
    measurements: int = 0
    error: float = math.nan
    hit: bool = False
    failure: str | None = None
    record: tuple = ()


@dataclass
class TermCheck:
    """Collects the per-term results that `vqe` receives from `expectation`,
    so each task's results can be held to the estimator's contract."""

    results: list = field(default_factory=list)

    def wrap(self, fn):
        def checked(ansatz, pauli, config, rng):
            result = fn(ansatz, pauli, config, rng)
            self.results.append((result, config.d_max))
            return result

        return checked

    def violations(self) -> list[str]:
        bad = []
        for result, d_max in self.results:
            if not (math.isfinite(result.value) and abs(result.value) <= 1.0 + 1e-9):
                bad.append(f"term value {result.value!r} outside [-1, 1]")
            if not result.measurements_used > 0:
                bad.append(f"term used {result.measurements_used} measurements")
            if not result.max_depth_used <= d_max:
                bad.append(f"max_depth_used {result.max_depth_used} > d_max {d_max}")
            if result.path not in ("alpha_qpe", "statistical_fallback"):
                bad.append(f"unknown path {result.path!r}")
        self.results.clear()
        return bad


def _rng(seed: int, *labels: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *labels]))


def _run_seed(seed: int, index: int) -> int:
    return int(_rng(seed, index, 1).integers(2**63))


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class PhaseToEps:
    """Bayesian phase estimation to sigma <= epsilon on a synthetic oracle."""

    name = "phase-to-eps"
    alphas = (0.0, 0.5, 1.0)
    epsilon = 0.01
    depth_cap = 32.0
    # a run starts tasks only at a multiple of `block`, so every run holds
    # equal thirds of alpha; the traced run and the record digest cover the
    # first `trace_tasks` tasks, and a smoke run covers `smoke_tasks`
    block = 3
    trace_tasks = 60
    smoke_tasks = 3
    min_hit_rate = 0.7

    def __init__(self, av, seed: int):
        self.av = av
        self.seed = seed

    def warm_up(self) -> None:
        av = self.av
        av.engine.run_estimation(
            av.SyntheticOracle(0.5),
            av.AlphaQPE(1.0, depth_cap=self.depth_cap),
            av.NormalBelief(0.0, 1.0),
            epsilon=self.epsilon,
            seed=0,
        )

    def inputs(self, index: int) -> tuple[float, float, int]:
        # equal thirds of alpha, in a fixed rotation, so every stretch of
        # three tasks has the same mix of ~20k-, ~400- and ~40-iteration runs
        alpha = self.alphas[index % len(self.alphas)]
        phi = float(_rng(self.seed, index).uniform(-math.pi, math.pi))
        return alpha, phi, _run_seed(self.seed, index)

    def run(self, index: int, clock) -> TaskOutcome:
        av = self.av
        alpha, phi, run_seed = self.inputs(index)
        oracle = av.SyntheticOracle(phi)
        policy = av.AlphaQPE(alpha, depth_cap=self.depth_cap)
        prior = av.NormalBelief(0.0, 1.0)
        t0 = clock()
        try:
            belief, trace = av.engine.run_estimation(
                oracle, policy, prior, epsilon=self.epsilon, seed=run_seed
            )
        except Exception as exc:  # every failure is counted, never dropped
            failure = _failure(exc)
            return TaskOutcome(index, clock() - t0, failure=failure, record=(index, failure))
        seconds = clock() - t0
        rows = trace.rows
        outcome = TaskOutcome(index, seconds, measurements=len(rows))
        outcome.record = (index, repr(belief.mu), repr(belief.sigma), len(rows))
        if not (math.isfinite(belief.mu) and math.isfinite(belief.sigma) and belief.sigma > 0.0):
            outcome.failure = f"non-finite belief ({belief.mu}, {belief.sigma})"
        elif belief.sigma > self.epsilon:
            outcome.failure = f"returned sigma {belief.sigma} > epsilon {self.epsilon}"
        elif not rows:
            outcome.failure = "no measurements"
        elif max(row.m for row in rows) > self.depth_cap:
            outcome.failure = f"depth {max(row.m for row in rows)} > cap {self.depth_cap}"
        else:
            outcome.error = abs(math.remainder(belief.mu - phi, TWO_PI))
            outcome.hit = outcome.error <= 3.0 * self.epsilon
        return outcome


def tfim_ring_terms(n: int, zz: float, x: float) -> tuple[tuple[float, str], ...]:
    """Transverse-field Ising ring: n ZZ bonds (i, i+1 mod n) and n X fields."""
    bonds = tuple(
        (zz, "".join("Z" if q in (i, (i + 1) % n) else "I" for q in range(n))) for i in range(n)
    )
    fields = tuple((x, "".join("X" if q == i else "I" for q in range(n))) for i in range(n))
    return bonds + fields


def trial_states(n: int, layers: int, params: np.ndarray) -> np.ndarray:
    """The layered Ry + controlled-Z ring ansatz, one state per row of params.

    Qubit 0 is the most significant bit; a ring of n >= 3 qubits has the n
    bonds (i, i+1 mod n), two qubits have the single bond (0, 1).  Ry and CZ
    are real, so the states are real.
    """
    if n >= 3:
        pairs = [(i, (i + 1) % n) for i in range(n)]
    else:
        pairs = [(0, 1)] if n == 2 else []
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    parity = sum((bits[:, a] * bits[:, b] for a, b in pairs), np.zeros(2**n, dtype=int))
    cz_ring = np.where(parity % 2 == 1, -1.0, 1.0)
    params = np.asarray(params, dtype=float).reshape(-1, layers, n)
    batch = params.shape[0]
    state = np.zeros((batch, 2**n))
    state[:, 0] = 1.0
    spread = (batch,) + (1,) * (n - 1)
    for layer in range(layers):
        state = state.reshape((batch,) + (2,) * n)
        for q in range(n):
            c = np.cos(params[:, layer, q] / 2.0).reshape(spread)
            s = np.sin(params[:, layer, q] / 2.0).reshape(spread)
            zero, one = np.take(state, 0, axis=q + 1), np.take(state, 1, axis=q + 1)
            state = np.stack((c * zero - s * one, s * zero + c * one), axis=q + 1)
        state = state.reshape(batch, 2**n) * cz_ring
    return state


class PauliTable:
    """Exact <psi|P|psi> for X/Z Pauli strings from bit masks:
    P|b> = (-1)^popcount(b & z) |b ^ x>, qubit 0 the most significant bit."""

    def __init__(self, paulis, n: int):
        if any(set(p) - set("IXZ") for p in paulis):
            raise ValueError("only I, X and Z letters are supported")
        basis = np.arange(2**n)
        self.flips = []
        self.signs = []
        for pauli in paulis:
            x = sum(1 << (n - 1 - q) for q, c in enumerate(pauli) if c == "X")
            z = sum(1 << (n - 1 - q) for q, c in enumerate(pauli) if c == "Z")
            odd = np.array([bin(b).count("1") & 1 for b in basis & z])
            self.flips.append(basis ^ x)
            self.signs.append(1.0 - 2.0 * odd)

    def expectations(self, states: np.ndarray) -> np.ndarray:
        """One row of term expectations per row of real states."""
        return np.stack(
            [np.einsum("bi,bi->b", states[:, f], s * states) for f, s in zip(self.flips, self.signs)],
            axis=1,
        )


class EnergyTfim8:
    """One alpha-mode energy evaluation on an 8-qubit transverse-field Ising ring."""

    name = "energy-tfim8"
    n_qubits = 8
    layers = 2
    zz = 1.0
    x = 0.7
    epsilon_total = 0.68
    # The cost of a task grows with the number of terms that pass the stage-1
    # gate, since each builds a dense operator: unconditioned uniform angles
    # send 0 to 13 terms down that path and take 0.03 s to 10 s, too lumpy
    # for a one-minute run to be steady.  So angles are drawn uniformly and
    # kept when exactly `gated_terms` exact magnitudes lie inside the default
    # gate and none lies within `gate_margin` of its edges, where the 1000-shot
    # stage-1 estimate (standard error <= 0.032) could fall either way.  One
    # keeps a task under a second, so a run holds dozens of tasks.  The
    # interval is a constant of the benchmark, not read from the program, so
    # the inputs stay put if the gate changes.
    gate = (0.36, 0.85)
    gate_margin = 0.05
    gated_terms = 1
    # about one draw in 200 is kept; draws are made and screened this many
    # at a time
    draw_batch = 256
    block = 1
    trace_tasks = 8
    smoke_tasks = 1
    min_hit_rate = 0.9

    def __init__(self, av, seed: int):
        self.av = av
        self.seed = seed
        terms = tfim_ring_terms(self.n_qubits, self.zz, self.x)
        self.hamiltonian = av.Hamiltonian(terms, self.n_qubits)
        self.coefficients = np.array([c for c, _ in terms])
        self.table = PauliTable([p for _, p in terms], self.n_qubits)
        self.terms = TermCheck()
        av.vqe.two_stage_estimate = self.terms.wrap(av.vqe.two_stage_estimate)

    def warm_up(self) -> None:
        # three qubits with fixed angles that send a term down the alpha path,
        # so the lazy imports and linear algebra of that path are loaded
        av = self.av
        h = av.Hamiltonian(tfim_ring_terms(3, self.zz, self.x), 3)
        ansatz = av.Ansatz(3, 1, np.array([1.0, 0.3, 0.2]))
        av.vqe.estimate_energy(h, ansatz, "alpha", epsilon_total=0.5, rng=np.random.default_rng(0))
        self.terms.results.clear()

    def inputs(self, index: int) -> tuple[np.ndarray, float, int]:
        """Ansatz angles, the exact energy they give, and the task's stream seed."""
        rng = _rng(self.seed, index)
        lo, hi = self.gate
        margin = self.gate_margin
        while True:
            params = rng.uniform(-math.pi, math.pi, (self.draw_batch, self.n_qubits * self.layers))
            values = self.table.expectations(trial_states(self.n_qubits, self.layers, params))
            mags = np.abs(values)
            near_edge = (np.abs(mags - lo) < margin) | (np.abs(mags - hi) < margin)
            inside = (mags >= lo) & (mags <= hi)
            kept = np.flatnonzero(~near_edge.any(axis=1) & (inside.sum(axis=1) == self.gated_terms))
            if kept.size:
                i = kept[0]
                return params[i], float(self.coefficients @ values[i]), _run_seed(self.seed, index)

    def run(self, index: int, clock) -> TaskOutcome:
        av = self.av
        params, reference, run_seed = self.inputs(index)
        ansatz = av.Ansatz(self.n_qubits, self.layers, params)
        rng = np.random.default_rng(run_seed)
        self.terms.results.clear()
        t0 = clock()
        try:
            energy, used = av.vqe.estimate_energy(
                self.hamiltonian, ansatz, "alpha", epsilon_total=self.epsilon_total, rng=rng
            )
        except Exception as exc:  # every failure is counted, never dropped
            failure = _failure(exc)
            return TaskOutcome(index, clock() - t0, failure=failure, record=(index, failure))
        seconds = clock() - t0
        outcome = TaskOutcome(index, seconds, measurements=int(used))
        outcome.record = (index, repr(energy), int(used))
        violations = self.terms.violations()
        if not math.isfinite(energy):
            outcome.failure = f"non-finite energy {energy!r}"
        elif not used > 0:
            outcome.failure = f"{used} measurements"
        elif violations:
            outcome.failure = "; ".join(violations)
        else:
            outcome.error = abs(energy - reference)
            outcome.hit = outcome.error <= self.epsilon_total
        return outcome


WORKLOADS = {w.name: w for w in (PhaseToEps, EnergyTfim8)}
