"""Iterative phase estimation: schedule -> measurement -> belief update, traced.

A run threads a normal belief through repeated single-bit measurements.
`run_estimation` is the one estimation loop: plain phase estimation and stage
2 of the two-stage expectation estimator both run through it.

An oracle has a `pinned_theta` attribute and `sample(setting, u) -> outcome`,
where setting is a plain (m, theta) tuple.  The loop draws u, one uniform in
[0, 1), from its Generator, and the oracle returns 0 when u falls below P(0)
at that setting and 1 otherwise, so the outcome is a bit from the cosine
likelihood.  pinned_theta is None when any (m, theta) can be run, or the one
theta the oracle can read out at, which `next_setting` then holds fixed while
it picks a whole m.  `SyntheticOracle` compares u with the cosine at a hidden
true phase.

Inside the loop the belief is two plain floats, mu and sigma, and the
oracle receives the setting as a plain (m, theta) tuple.  An unpinned
iteration makes two calls: `oracle.sample` and `bayes._moment_step`, the
closed-form update.  It picks its setting itself: m from `policy.raw_m`,
clamped to the depth cap, theta = mu - sigma, and the checks of
`ExperimentSetting`, whose constructor raises for a setting that fails them.
A pinned iteration also calls `next_setting`, for its window scan.  An update
the closed form cannot make raises `DegenerateUpdateError` out of the loop.
So a wrapper on `engine.next_setting` sees only pinned iterations, while
`oracle.sample` and `engine._moment_step` see every iteration.  The
validated value types sit at the loop's edges: the prior comes in as a
`NormalBelief` and the run returns a `NormalBelief`.

Each iteration adds its row to a short plain list.  Every 256 iterations,
when the loop draws its next block of uniforms, and when it returns or times
out, the list moves into one packed `array('d')`: five float64 values a row,
8 bytes each, with the outcome as 0.0 or 1.0.  The trace's `rows` builds
each `TraceRow`, an immutable named tuple, when a reader reaches it, reading
the outcome back as an int and k from the row's position.  The array holds
no Python object, so neither a run of any length nor a scan of its rows
leaves the cyclic garbage collector anything to walk.  Two consequences of
the packing: an `EstimationTrace` is not hashable, and a row's m and theta
read back as floats even where an oracle's `pinned_theta` is an int.

Each iteration takes one uniform.  The loop draws its uniforms in blocks, and
on every exit it leaves the Generator exactly where one scalar `random()`
call per completed iteration would.  Identical seeds and configuration
reproduce traces bit for bit.
"""

from __future__ import annotations

import math
import struct
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count, repeat
from typing import NamedTuple

import numpy as np

# rejection_filter_update goes uncalled here (a degenerate update raises out
# of the loop): bench/tracing.py patches it by name
from .bayes import ExperimentSetting, NormalBelief, _moment_step, rejection_filter_update
from .rand import child_seed, rng_for
from .schedules import AlphaQPE, next_setting

__all__ = [
    "HARD_ITERATION_CAP",
    "EstimationTimeout",
    "SyntheticOracle",
    "TraceRow",
    "EstimationTrace",
    "run_estimation",
    "EnsembleResult",
    "ensemble_run",
    "circular_distance",
]

HARD_ITERATION_CAP = 1_000_000
# uniforms drawn from a run's Generator at a time
_UNIFORM_BLOCK = 256


class EstimationTimeout(RuntimeError):
    """Raised when the iteration hard cap is hit; carries the partial trace."""

    def __init__(self, message: str, trace: "EstimationTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SyntheticOracle:
    """Outcomes drawn from the analytic likelihood at a known true phase."""

    true_phi: float
    pinned_theta = None

    def __post_init__(self) -> None:
        if not -np.pi <= self.true_phi < np.pi:
            raise ValueError(f"true_phi must lie in [-pi, pi), got {self.true_phi}")

    def sample(self, setting, u: float) -> int:
        m, theta = setting
        return 0 if u < 0.5 * (1.0 + math.cos(m * (self.true_phi - theta))) else 1


class TraceRow(NamedTuple):
    """One iteration: the setting used, the outcome, and the updated belief."""

    k: int
    m: float
    theta: float
    outcome: int
    mu: float
    sigma: float


# float64 values stored per row: every `TraceRow` field but k, which is
# implied by the row's position
_ROW_WIDTH = 5


class _TraceRows(Sequence):
    """`EstimationTrace.rows`: a read-only sequence over a trace's packed
    float64 values, 8 bytes each, that compares and prints as the tuple of its
    rows.  A row's outcome reads back as an int, its k as its position, and
    its m and theta as floats, whatever type the oracle's `pinned_theta` had.
    Like the trace, it is not hashable."""

    __slots__ = ("_values",)

    def __init__(self, values: array):
        self._values = values

    def __len__(self) -> int:
        return len(self._values) // _ROW_WIDTH

    def __iter__(self):
        # one read-only strided view per field; iterating a view gives floats
        view = memoryview(self._values).toreadonly()
        m, theta, outcome, mu, sigma = (view[i::_ROW_WIDTH] for i in range(_ROW_WIDTH))
        return map(tuple.__new__, repeat(TraceRow), zip(count(1), m, theta, map(int, outcome), mu, sigma))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        k = range(len(self))[index]
        start = _ROW_WIDTH * k
        m, theta, outcome, mu, sigma = self._values[start : start + _ROW_WIDTH]
        return tuple.__new__(TraceRow, (k + 1, m, theta, int(outcome), mu, sigma))

    def __eq__(self, other):
        if isinstance(other, _TraceRows):
            return self._values == other._values
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class EstimationTrace:
    """A run's rows, packed, and the prior it started from.

    `_values` is an `array('d')` holding (m, theta, outcome, mu, sigma) for
    each iteration in turn, 8 bytes a value, the outcome as 0.0 or 1.0.
    `rows` reads them as `TraceRow`s: each row is built when it is reached,
    and every read builds fresh, equal rows.  The array makes a trace
    unhashable, and a row's m and theta read back as floats.
    """

    _values: array
    prior_mu: float
    prior_sigma: float

    @property
    def rows(self) -> Sequence[TraceRow]:
        """The rows as `TraceRow`s, each built when it is reached: `len` and
        indexing build no row beyond the one asked for, a scan holds one at a
        time, and `tuple(rows)` builds them all."""
        return _TraceRows(self._values)

    def sigmas(self) -> np.ndarray:
        return np.concatenate(([self.prior_sigma], np.frombuffer(self._values)[4::_ROW_WIDTH]))

    def mus(self) -> np.ndarray:
        return np.concatenate(([self.prior_mu], np.frombuffer(self._values)[3::_ROW_WIDTH]))

    def depths(self) -> np.ndarray:
        """Each row's m in run order, read from the packed column with no row built."""
        return np.frombuffer(self._values)[0::_ROW_WIDTH].copy()


def _pack(packed: array, values: list) -> None:
    """Move `values` to the end of `packed` as float64, bit for bit.  struct
    converts each value with one float conversion, where `array.fromlist`
    parses each one against a format string at about 2.5 times the cost
    (CPython 3.11)."""
    packed.frombytes(struct.pack(f"{len(values)}d", *values))
    values.clear()


def run_estimation(
    oracle,
    policy: AlphaQPE,
    prior: NormalBelief,
    *,
    epsilon: float | None = None,
    max_iterations: int | None = None,
    seed: int | np.random.Generator = 0,
) -> tuple[NormalBelief, EstimationTrace]:
    """Estimate a phase until sigma <= epsilon or max_iterations, whichever first.

    `seed` is an integer or a Generator, which is drawn from in place: one
    uniform per completed iteration, whatever way the run ends.  At least one
    stopping rule is required.  If only epsilon is given and the hard cap of
    10**6 iterations is reached, EstimationTimeout is raised with the partial
    trace attached.  An update the closed form cannot make raises
    `DegenerateUpdateError`.  Every return gives the belief as a
    `NormalBelief`.
    """
    if epsilon is None and max_iterations is None:
        raise ValueError("provide a stopping rule: epsilon and/or max_iterations")
    if epsilon is not None and not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if max_iterations is not None and max_iterations < 0:
        raise ValueError(f"max_iterations must be non-negative, got {max_iterations}")
    rng = np.random.default_rng(seed)
    bit_generator = rng.bit_generator
    # looked up per call, not at import, so that wrappers installed on these
    # names see every run: `sample` and `_moment_step` are called on every
    # iteration, `next_setting` only on the pinned path
    pinned_theta, sample = oracle.pinned_theta, oracle.sample
    choose, step = next_setting, _moment_step
    # the unpinned setting: the policy's rule, clamped to its depth cap (no
    # cap is an infinite one), and theta = mu - sigma.  float(depth_cap) is
    # the float nearest an int cap, so `m > top` clamps exactly as
    # `m > depth_cap` does
    raw_m, depth_cap = policy.raw_m, policy.depth_cap
    inf = math.inf
    top = inf if depth_cap is None else float(depth_cap)
    cap = HARD_ITERATION_CAP
    # the belief is two plain floats inside the loop
    mu, sigma = prior
    # the trace's rows, _ROW_WIDTH values each: `values` collects the rows
    # since the last block was drawn, and `packed` takes them over at each
    # block and on the return and the timeout
    packed = array("d")
    values: list = []
    push = values.extend
    k = 0
    # iteration k takes block[k - base]; `saved` is the Generator's state
    # before the block was drawn
    saved, block, base = None, [], 0
    try:
        while True:
            if max_iterations is not None and k >= max_iterations:
                break
            if epsilon is not None and sigma <= epsilon:
                break
            if k >= cap:
                _pack(packed, values)
                raise EstimationTimeout(
                    f"sigma={sigma:.3g} after {k} iterations without reaching epsilon={epsilon}",
                    EstimationTrace(packed, prior.mu, prior.sigma),
                )
            if k - base == len(block):
                _pack(packed, values)
                saved, base = bit_generator.state, k
                block = rng.random(_UNIFORM_BLOCK).tolist()
            if pinned_theta is None:
                m = raw_m(sigma)
                if m > top:
                    m = top
                theta = mu - sigma
                # the checks of ExperimentSetting, as comparisons that nan
                # fails; a setting that fails them goes through it for its
                # message
                if not (0.0 < m < inf and -inf < theta < inf):
                    ExperimentSetting(m, theta)
            else:
                m, theta = choose(policy, (mu, sigma), pinned_theta)
            outcome = sample((m, theta), block[k - base])
            mu, sigma = step(mu, sigma, outcome, m, theta)
            k += 1
            push((m, theta, outcome, mu, sigma))
    finally:
        # Generator.random(n) gives the same values as n scalar calls, so
        # rewinding and redrawing the used part of the block leaves the
        # Generator where scalar draws would have
        if saved is not None:
            bit_generator.state = saved
            rng.random(k - base)
    _pack(packed, values)
    return tuple.__new__(NormalBelief, (mu, sigma)), EstimationTrace(packed, prior.mu, prior.sigma)


def circular_distance(a, b):
    """Distance between phases modulo 2 pi, in [0, pi]."""
    return np.abs(np.mod(np.asarray(a) - b + np.pi, 2.0 * np.pi) - np.pi)


@dataclass(frozen=True)
class EnsembleResult:
    """Per-iteration aggregates over many true phases; index 0 is the prior."""

    iterations: np.ndarray
    mean_sigma: np.ndarray
    median_sigma: np.ndarray
    median_error: np.ndarray
    n_phases: int


def ensemble_run(
    policy: AlphaQPE,
    n_phases: int,
    iterations: int,
    seed: int = 0,
) -> EnsembleResult:
    """Run the synthetic estimator from the prior N(0, 1) over uniformly drawn
    true phases and aggregate.

    True phases come from the substream (seed, "phases"); run i uses the
    substream (seed, "run", i), so the ensemble is reproducible and each run
    independently replayable.
    """
    if n_phases < 1:
        raise ValueError(f"n_phases must be positive, got {n_phases}")
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    prior = NormalBelief(0.0, 1.0)
    phases = rng_for(seed, "phases").uniform(-np.pi, np.pi, n_phases)
    sigmas = np.empty((n_phases, iterations + 1))
    errors = np.empty((n_phases, iterations + 1))
    for i, phi in enumerate(phases):
        _, trace = run_estimation(
            SyntheticOracle(float(phi)),
            policy,
            prior,
            max_iterations=iterations,
            seed=child_seed(seed, "run", i),
        )
        sigmas[i] = trace.sigmas()
        errors[i] = circular_distance(trace.mus(), phi)
    return EnsembleResult(
        iterations=np.arange(iterations + 1),
        mean_sigma=sigmas.mean(axis=0),
        median_sigma=np.median(sigmas, axis=0),
        median_error=np.median(errors, axis=0),
        n_phases=n_phases,
    )
