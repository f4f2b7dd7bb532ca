"""Iterative phase estimation: schedule -> measurement -> belief update, traced.

A run threads a normal belief through repeated single-bit measurements.
`run_estimation` is the one estimation loop: plain phase estimation and stage
2 of the two-stage expectation estimator both run through it.

An oracle is a `SyntheticOracle`: a hidden true phase, and `pinned_theta`,
None or the one theta it can read out at, which `next_setting` then holds
while it picks a whole m.  A readout at (m, theta) takes a uniform u and
gives 0 when u falls below P(0) = (1 + cos(m (phi - theta))) / 2, else 1.
The loop draws u from its Generator and writes that readout
(`SyntheticOracle.sample`) and the closed-form update (`bayes._moment_step`)
out inline, with their arithmetic, checks and messages; the tests hold it
bit for bit to `reference_run` in `tests/dense_oracles.py`, which calls
both.  Any other oracle, a subclass that overrides `sample` too, would have
its readout ignored, so a run refuses it with a TypeError before any draw.

Inside the loop the belief is two plain floats, mu and sigma.  An unpinned
iteration picks its setting itself: m from `policy.raw_m`, clamped to the
depth cap, theta = mu - sigma, and the checks of `ExperimentSetting`, whose
constructor raises for a setting that fails them.  A pinned iteration calls
`next_setting`, so a wrapper on `engine.next_setting` sees every pinned
iteration and no other.  An update the closed form cannot make raises
`DegenerateUpdateError` out of the loop.  The prior comes in as a
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

Each iteration takes one uniform, and the loop draws them from its Generator
in whole blocks of 256.  An iteration starts once the stopping rules and the
cap let it, and a run that starts j iterations draws 256 ceil(j / 256)
uniforms however it ends, raising or not, so a Generator shared by several
runs gives each run the uniforms after the last block of the one before.
Identical seeds and configuration reproduce traces bit for bit.
"""

from __future__ import annotations

import math
import numbers
import struct
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count, repeat
from types import MethodType
from typing import NamedTuple

import numpy as np

# rejection_filter_update goes uncalled here (a degenerate update raises out
# of the loop): bench/tracing.py patches it by name
from .bayes import DegenerateUpdateError, ExperimentSetting, NormalBelief, rejection_filter_update
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
# uniforms drawn from a run's Generator at a time: part of the stream a
# Generator shared across runs gives each run
_UNIFORM_BLOCK = 256


class EstimationTimeout(RuntimeError):
    """Raised when the iteration hard cap is hit; carries the partial trace."""

    def __init__(self, message: str, trace: "EstimationTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SyntheticOracle:
    """Outcomes drawn from the analytic likelihood at a known true phase,
    read out at any theta or, with `pinned_theta` set, at that one alone."""

    true_phi: float
    pinned_theta: float | None = None

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


def _check_count(name: str, value, least: int = 0) -> None:
    """Refuse a count that is not a whole number >= least, naming it."""
    if not (isinstance(value, numbers.Real) and value >= least and value % 1 == 0):
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")


def run_estimation(
    oracle: SyntheticOracle,
    policy: AlphaQPE,
    prior: NormalBelief,
    *,
    epsilon: float | None = None,
    max_iterations: int | None = None,
    seed: int | np.random.Generator = 0,
) -> tuple[NormalBelief, EstimationTrace]:
    """Estimate a phase until sigma <= epsilon or max_iterations, whichever first.

    `seed` is an integer or a Generator, drawn from in place in whole blocks
    of 256 uniforms: a run that starts j iterations leaves it 256 ceil(j /
    256) draws on, however it ends.  At least one stopping rule is required,
    and max_iterations must be a whole number >= 0.  The hard cap of 10**6
    iterations bounds every run: a run that reaches it before its own
    stopping rule raises EstimationTimeout, with the partial trace attached
    and a message that names what the run did not reach.  An update the
    closed form cannot make raises `DegenerateUpdateError`.  Every return
    gives the belief as a `NormalBelief`.
    """
    if epsilon is None and max_iterations is None:
        raise ValueError("provide a stopping rule: epsilon and/or max_iterations")
    if epsilon is not None and not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if max_iterations is not None:
        _check_count("max_iterations", max_iterations)
    # the loop reads out inline, so any other readout would be ignored; the
    # class attribute is read live, so a wrapper set on it, as
    # bench/tracing.py sets one, still passes
    if not (isinstance(oracle, SyntheticOracle) and oracle.sample == MethodType(SyntheticOracle.sample, oracle)):
        raise TypeError(f"oracle must be a SyntheticOracle read out by SyntheticOracle.sample, got {oracle!r}")
    rng = np.random.default_rng(seed)
    phi, pinned_theta = oracle.true_phi, oracle.pinned_theta
    # looked up per call, not at import, so that a wrapper installed on
    # `engine.next_setting` sees every pinned iteration
    choose = next_setting
    # the unpinned setting: the policy's rule, clamped to its depth cap (no
    # cap is an infinite one), and theta = mu - sigma.  float(depth_cap) is
    # the float nearest an int cap, so `m > top` clamps exactly as
    # `m > depth_cap` does
    raw_m, depth_cap = policy.raw_m, policy.depth_cap
    inf = math.inf
    top = inf if depth_cap is None else float(depth_cap)
    cap = HARD_ITERATION_CAP
    # an iteration starts while k < limit and sigma > eps; sigma is positive,
    # so an eps of -inf never stops a run
    limit = int(cap if max_iterations is None else min(max_iterations, cap))
    eps = -inf if epsilon is None else epsilon
    # the belief is two plain floats inside the loop
    mu, sigma = prior
    # the trace's rows, _ROW_WIDTH values each: `values` collects the rows
    # since the last block was drawn, and `packed` takes them over at each
    # block and at the run's end
    packed = array("d")
    values: list = []
    push = values.extend
    k = 0
    cos, sin, exp, expm1, sqrt, isfinite = math.cos, math.sin, math.exp, math.expm1, math.sqrt, math.isfinite
    while k < limit and not sigma <= eps:
        _pack(packed, values)
        # the block's first limit - k uniforms; the stopping rules were
        # checked for the first, and sigma is checked after each row
        for u in rng.random(_UNIFORM_BLOCK).tolist()[: limit - k]:
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
            # `SyntheticOracle.sample`'s readout and `bayes._moment_step`'s
            # update, in their arithmetic order, with their checks and messages
            if u < 0.5 * (1.0 + cos(m * (phi - theta))):
                outcome, s, half = 0, 1.0, cos
            else:
                outcome, s, half = 1, -1.0, sin
            t = (m * sigma) ** 2
            damp = exp(-0.5 * t)
            g = -expm1(-0.5 * t)
            delta = m * (mu - theta)
            h = half(0.5 * delta) ** 2
            z = g + 2.0 * damp * h
            if not z > 0.0:
                raise DegenerateUpdateError(f"posterior mass vanished for outcome {outcome} at m={m}")
            var = sigma**2
            mu = mu - s * m * var * damp * sin(delta) / z
            var *= 1.0 - (t / z) * (damp * (2.0 * h - g) / z)
            if not (isfinite(mu) and var > 0.0):
                raise DegenerateUpdateError(f"closed-form update degenerated for outcome {outcome} at m={m}")
            sigma = sqrt(var)
            # mu is finite and sigma positive here, so only an infinite sigma
            # fails the checks of NormalBelief, which then raises its own error
            if not isfinite(sigma):
                NormalBelief(mu, sigma)
            push((m, theta, outcome, mu, sigma))
            if sigma <= eps:
                break
        k += len(values) // _ROW_WIDTH
    _pack(packed, values)
    trace = EstimationTrace(packed, prior.mu, prior.sigma)
    if k == cap and not sigma <= eps and (max_iterations is None or max_iterations > cap):
        if max_iterations is None:
            short_of = f"without reaching epsilon={epsilon}"
        else:
            short_of = f"at the hard cap of {cap}, short of max_iterations={max_iterations}"
            if epsilon is not None:
                short_of += f" and epsilon={epsilon}"
        raise EstimationTimeout(f"sigma={sigma:.3g} after {k} iterations {short_of}", trace)
    return tuple.__new__(NormalBelief, (mu, sigma)), trace


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
    _check_count("n_phases", n_phases, 1)
    _check_count("iterations", iterations)
    n_phases, iterations = int(n_phases), int(iterations)
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
