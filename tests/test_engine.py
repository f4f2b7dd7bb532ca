"""The traced estimation loop and its measurement oracles."""

import dataclasses
import gc
import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import alphavqe.engine as engine
from alphavqe.bayes import DegenerateUpdateError, ExperimentSetting, NormalBelief, likelihood
from alphavqe.engine import (
    EstimationTimeout,
    SyntheticOracle,
    TraceRow,
    circular_distance,
    ensemble_run,
    run_estimation,
)
from alphavqe.schedules import AlphaQPE

from dense_oracles import reference_run, unpinned_setting
from test_schedules import FixedM

# (rows, SHA-256 of repr(trace.rows)) for run_estimation(SyntheticOracle(0.3),
# AlphaQPE(alpha), NormalBelief(0, 1), epsilon=0.02, seed=5): they pin every
# setting, outcome and belief bit and the Python type of every field
ROW_DIGESTS = {
    0.0: (4999, "6b51ab68e7254badce6fe932eeb28a9e51ef3d929fd615228eadfa39f6919649"),
    0.5: (200, "8b366122d18ce9a5a8adf6ff401891cecef558c06fe80542b1f28dcf3d493e9b"),
    1.0: (24, "6dad84b26388ada95cf1aa8cef2dbaea52f03bb350ebbab8d8798e992befc419"),
}
# the same for a theta-pinned oracle under AlphaQPE(0.5, scale=1.5,
# depth_cap=32) from NormalBelief(0.25, 0.125), as stage 2 runs it
PINNED_ROW_DIGEST = (31, "fcc49dd411e916a9a1477870914a5b72dc93f494aab5cae7e37e27d3065409ae")


def pinned_run():
    """The run PINNED_ROW_DIGEST pins."""
    policy = AlphaQPE(0.5, scale=1.5, depth_cap=32.0)
    oracle = SyntheticOracle(0.3, pinned_theta=0.0)
    return run_estimation(oracle, policy, NormalBelief(0.25, 0.125), epsilon=0.02, seed=5)


class NanAfter(FixedM):
    """A policy whose rule gives m = 1 for `calls` calls and nan after them,
    which the loop refuses as `ExperimentSetting` does."""

    def __init__(self, calls):
        super().__init__(1.0)
        self.calls = calls

    def raw_m(self, sigma):
        if self.calls == 0:
            return math.nan
        self.calls -= 1
        return self.m


def rows_digest(rows) -> tuple[int, str]:
    return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()


def uniform_after(seed, draws):
    """The uniform a fresh Generator gives after its first `draws`."""
    twin = np.random.default_rng(seed)
    twin.random(draws)
    return twin.random()


def test_synthetic_oracle_validates_phase():
    with pytest.raises(ValueError):
        SyntheticOracle(3.5)
    with pytest.raises(ValueError):
        SyntheticOracle(np.pi)


def test_synthetic_oracle_outcome_frequency():
    setting = ExperimentSetting(3.0, 0.1)
    oracle = SyntheticOracle(0.7)
    rng = np.random.default_rng(5)
    draws = np.array([oracle.sample(setting, rng.random()) for _ in range(20_000)])
    p0 = likelihood(0, 0.7, setting)
    assert (draws == 0).mean() == pytest.approx(p0, abs=3.0 * np.sqrt(p0 * (1 - p0) / 20_000))


def test_run_estimation_needs_a_stopping_rule():
    oracle = SyntheticOracle(0.3)
    prior = NormalBelief(0.0, 1.0)
    with pytest.raises(ValueError):
        run_estimation(oracle, AlphaQPE(0.5), prior)
    with pytest.raises(ValueError):
        run_estimation(oracle, AlphaQPE(0.5), prior, epsilon=-0.1)
    with pytest.raises(ValueError):
        run_estimation(oracle, AlphaQPE(0.5), prior, max_iterations=-1)


def test_zero_iterations_returns_the_prior():
    prior = NormalBelief(0.2, 0.8)
    belief, trace = run_estimation(SyntheticOracle(0.3), AlphaQPE(0.5), prior, max_iterations=0)
    assert belief == prior
    assert trace.rows == ()
    assert_array_equal(trace.sigmas(), [0.8])
    assert_array_equal(trace.mus(), [0.2])


def test_trace_layout_and_reproducibility():
    prior = NormalBelief(0.0, 1.0)
    args = dict(epsilon=None, max_iterations=25, seed=42)
    _, t1 = run_estimation(SyntheticOracle(-0.9), AlphaQPE(0.75), prior, **args)
    _, t2 = run_estimation(SyntheticOracle(-0.9), AlphaQPE(0.75), prior, **args)
    assert t1 == t2
    assert [row.k for row in t1.rows] == list(range(1, 26))
    assert t1.sigmas().shape == (26,)
    assert t1.sigmas()[0] == 1.0
    assert all(row.outcome in (0, 1) for row in t1.rows)
    _, t3 = run_estimation(SyntheticOracle(-0.9), AlphaQPE(0.75), prior, max_iterations=25, seed=43)
    assert [r.outcome for r in t3.rows] != [r.outcome for r in t1.rows]


def test_settings_follow_the_policy():
    prior = NormalBelief(0.0, 1.0)
    policy = AlphaQPE(1.0, scale=1.25)
    _, trace = run_estimation(SyntheticOracle(0.4), policy, prior, max_iterations=15, seed=7)
    sigmas = trace.sigmas()
    for i, row in enumerate(trace.rows):
        assert row.m == policy.raw_m(sigmas[i])
        # theta sits one posterior deviation below the running mean
        mu_prev = trace.mus()[i]
        assert row.theta == pytest.approx(mu_prev - sigmas[i])


def test_epsilon_stop_halts_at_first_crossing():
    prior = NormalBelief(0.0, 1.0)
    belief, trace = run_estimation(
        SyntheticOracle(0.5), AlphaQPE(1.0), prior, epsilon=0.05, seed=11
    )
    sigmas = trace.sigmas()
    assert belief.sigma <= 0.05
    assert np.all(sigmas[:-1] > 0.05)


def test_converges_to_the_true_phase():
    belief, trace = run_estimation(
        SyntheticOracle(0.7),
        AlphaQPE(0.5),
        NormalBelief(0.0, 1.0),
        epsilon=0.02,
        seed=3,
    )
    assert belief.sigma <= 0.02
    assert circular_distance(belief.mu, 0.7) < 0.06


def test_hard_cap_raises_with_partial_trace(monkeypatch):
    monkeypatch.setattr(engine, "HARD_ITERATION_CAP", 6)
    with pytest.raises(EstimationTimeout) as err:
        run_estimation(
            SyntheticOracle(0.3),
            AlphaQPE(0.0),
            NormalBelief(0.0, 1.0),
            epsilon=1e-9,
            seed=1,
        )
    rows = err.value.trace.rows
    assert len(rows) == 6
    assert str(err.value) == f"sigma={rows[-1].sigma:.3g} after 6 iterations without reaching epsilon=1e-09"


def test_circular_distance_wraps():
    assert circular_distance(np.pi - 0.1, -np.pi + 0.1) == pytest.approx(0.2)
    assert circular_distance(0.0, 2.0 * np.pi) == pytest.approx(0.0)
    assert_allclose(circular_distance([0.0, 0.5], 0.25), [0.25, 0.25])


def test_ensemble_shapes_and_determinism():
    res = ensemble_run(AlphaQPE(1.0), n_phases=20, iterations=15, seed=8)
    assert_array_equal(res.iterations, np.arange(16))
    assert res.mean_sigma.shape == (16,)
    assert res.mean_sigma[0] == 1.0
    assert res.median_error[-1] < res.median_error[0]
    assert np.all(np.diff(res.mean_sigma) < 0.0)
    again = ensemble_run(AlphaQPE(1.0), n_phases=20, iterations=15, seed=8)
    assert_array_equal(res.median_error, again.median_error)


def test_ensemble_validates_arguments():
    with pytest.raises(ValueError):
        ensemble_run(AlphaQPE(0.5), n_phases=0, iterations=5)
    with pytest.raises(ValueError):
        ensemble_run(AlphaQPE(0.5), n_phases=5, iterations=-1)


@pytest.mark.parametrize("alpha", sorted(ROW_DIGESTS))
def test_rows_are_pinned_bit_for_bit(alpha):
    _, trace = run_estimation(
        SyntheticOracle(0.3), AlphaQPE(alpha), NormalBelief(0.0, 1.0), epsilon=0.02, seed=5
    )
    assert rows_digest(trace.rows) == ROW_DIGESTS[alpha]


def test_pinned_theta_rows_are_pinned_bit_for_bit():
    _, trace = pinned_run()
    assert rows_digest(trace.rows) == PINNED_ROW_DIGEST
    assert len({row.m for row in trace.rows}) > 1


def test_trace_rows_are_immutable_and_compare_by_value():
    args = (SyntheticOracle(0.3), AlphaQPE(0.5), NormalBelief(0.0, 1.0))
    _, t1 = run_estimation(*args, max_iterations=10, seed=3)
    _, t2 = run_estimation(*args, max_iterations=10, seed=3)
    row = t1.rows[0]
    assert isinstance(row, TraceRow)
    assert TraceRow._fields == ("k", "m", "theta", "outcome", "mu", "sigma")
    with pytest.raises(AttributeError):
        row.sigma = 0.0
    with pytest.raises(AttributeError):
        row.extra = 1
    assert t1.rows == t2.rows
    assert t1.rows[-1] is not t2.rows[-1]


def tracked_reachable(root) -> int:
    """How many objects reachable from root through gc.get_referents the
    cyclic garbage collector tracks; classes are neither counted nor entered."""
    seen, stack, tracked = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        tracked += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return tracked


def test_a_trace_holds_no_gc_tracked_object_per_row():
    args = (SyntheticOracle(0.3), AlphaQPE(0.0), NormalBelief(0.0, 1.0))
    _, long = run_estimation(*args, epsilon=0.01, seed=5)
    _, short = run_estimation(*args, max_iterations=10, seed=5)
    assert len(long.rows) > 15_000
    # a collection untracks every tuple that holds only untracked values, so
    # both traces are counted in the same state
    gc.collect()
    assert tracked_reachable(long) == tracked_reachable(short)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, "pinned"])
def test_the_flat_trace_reads_back_exactly(alpha):
    if alpha == "pinned":
        _, trace = pinned_run()
    else:
        _, trace = run_estimation(
            SyntheticOracle(0.3), AlphaQPE(alpha), NormalBelief(0.0, 1.0), epsilon=0.02, seed=5
        )
    rows = trace.rows
    want_sigmas = np.array([trace.prior_sigma] + [row.sigma for row in rows])
    want_mus = np.array([trace.prior_mu] + [row.mu for row in rows])
    assert trace.sigmas().tobytes() == want_sigmas.tobytes()
    assert trace.mus().tobytes() == want_mus.tobytes()
    assert trace.depths().tobytes() == np.array([row.m for row in rows]).tobytes()
    assert [row.k for row in rows] == list(range(1, len(rows) + 1))
    for row in rows:
        assert [type(value) for value in row] == [int, float, float, int, float, float]
    # every read builds fresh rows, equal to the last
    assert trace.rows == rows and trace.rows[0] is not rows[0]
    # the storage is five float64 values a row, bit for bit the rows' fields
    stored = memoryview(trace._values)
    assert (stored.format, stored.itemsize, len(stored)) == ("d", 8, 5 * len(rows))
    assert stored.tobytes() == np.array([row[1:] for row in rows], dtype=np.float64).tobytes()
    again = pickle.loads(pickle.dumps(trace))
    assert again == trace and repr(again.rows) == repr(rows)
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.prior_mu = 0.0
    with pytest.raises(TypeError):
        hash(trace)


def test_an_int_pinned_theta_reads_back_as_a_float():
    policy = AlphaQPE(0.5, scale=1.5, depth_cap=32.0)
    oracle = SyntheticOracle(0.3, pinned_theta=0)
    _, trace = run_estimation(oracle, policy, NormalBelief(0.25, 0.125), epsilon=0.02, seed=5)
    assert repr(trace.rows) == repr(pinned_run()[1].rows)
    assert all(type(row.theta) is float and type(row.m) is float for row in trace.rows)


def test_a_trace_keeps_at_most_ten_bytes_per_value():
    # the alpha = 0 end keeps ~20k rows at epsilon = 0.01; the run's peak
    # traced allocation, everything it held at once, is charged to the trace
    args = (SyntheticOracle(0.3), AlphaQPE(0.0), NormalBelief(0.0, 1.0))
    # a first run imports numpy.random's submodules, once per process
    run_estimation(*args, max_iterations=1, seed=5)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _, trace = run_estimation(*args, epsilon=0.01, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    values = 5 * len(trace.rows)
    assert len(trace.rows) > 15_000
    assert (peak - before) / values <= 10.0


def test_trace_rows_read_as_the_tuple_of_them():
    _, trace = run_estimation(SyntheticOracle(0.3), AlphaQPE(0.5), NormalBelief(0.0, 1.0), max_iterations=40, seed=3)
    rows = trace.rows
    every = tuple(rows)
    assert len(rows) == len(every) == 40
    assert [rows[i] for i in range(-40, 40)] == [every[i] for i in range(-40, 40)]
    for index in (slice(None), slice(3, 9), slice(-5, None), slice(None, None, -3), slice(50, 60)):
        assert type(rows[index]) is tuple and rows[index] == every[index]
    with pytest.raises(IndexError):
        rows[40]
    with pytest.raises(IndexError):
        rows[-41]
    assert rows == every and every == rows and rows != every[:-1] and rows != list(every)
    assert repr(rows) == repr(every) and rows.index(every[7]) == 7 and every[-1] in rows
    _, empty = run_estimation(SyntheticOracle(0.3), AlphaQPE(0.5), NormalBelief(0.0, 1.0), max_iterations=0, seed=3)
    assert empty.rows == () and not empty.rows and repr(empty.rows) == "()"


def test_a_long_run_and_a_scan_of_its_rows_set_off_no_collection():
    # rows are built one at a time as the scan reaches them, each freed before
    # the next, so neither the run nor the read leaves ~20k objects for the
    # collector: what the benchmark and stage 2 do after every run
    generations = []

    def on_gc(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        _, trace = run_estimation(
            SyntheticOracle(0.3), AlphaQPE(0.0), NormalBelief(0.0, 1.0), epsilon=0.01, seed=5
        )
        rows = trace.rows
        deepest = max(row.m for row in rows)
        last = rows[-1]
    finally:
        gc.callbacks.remove(on_gc)
    assert len(rows) > 15_000 and deepest == 1.0 and last.k == len(rows)
    assert generations == []


def test_a_timed_out_trace_reads_back_the_rows_of_an_uncapped_run(monkeypatch):
    args = (SyntheticOracle(0.3), AlphaQPE(0.0), NormalBelief(0.0, 1.0))
    _, uncapped = run_estimation(*args, epsilon=0.01, seed=5)
    monkeypatch.setattr(engine, "HARD_ITERATION_CAP", 300)
    with pytest.raises(EstimationTimeout) as err:
        run_estimation(*args, epsilon=0.01, seed=5)
    assert repr(err.value.trace.rows) == repr(uncapped.rows[:300])
    assert err.value.trace.sigmas().tobytes() == uncapped.sigmas()[:301].tobytes()


def assert_the_next_run_starts_after_whole_blocks(gen, started):
    """`gen` has drawn whole blocks for a run that started `started` iterations.

    A second run on it is the run a fresh Generator gives after those draws,
    and it too draws one whole block.
    """
    draws = 256 * math.ceil(started / 256)
    twin = np.random.default_rng(17)
    twin.random(draws)
    second = (SyntheticOracle(0.3), AlphaQPE(0.5), NormalBelief(0.0, 1.0))
    _, shared = run_estimation(*second, max_iterations=40, seed=gen)
    _, fresh = run_estimation(*second, max_iterations=40, seed=twin)
    assert repr(shared.rows) == repr(fresh.rows)
    assert gen.random() == uniform_after(17, draws + 256)


# run lengths on either side of the ends of the loop's first two 256-uniform
# blocks
BLOCK_EDGE_RUNS = [255, 256, 257, 511, 512, 513]


@pytest.mark.parametrize("k", [0, 5, 300, *BLOCK_EDGE_RUNS])
@pytest.mark.parametrize("exit", ["return", "timeout", "update_raises"])
def test_a_run_draws_whole_blocks_and_the_next_run_starts_after_them(monkeypatch, exit, k):
    # the first run completes k rows and then ends by `exit`; one that raises
    # has started its (k + 1)-th iteration, so it has drawn that one's block
    args = (SyntheticOracle(0.3), AlphaQPE(0.0), NormalBelief(0.0, 1.0))
    gen, started = np.random.default_rng(17), k
    if exit == "return":
        _, trace = run_estimation(*args, max_iterations=k, seed=gen)
        assert len(trace.rows) == k
    elif exit == "timeout":
        monkeypatch.setattr(engine, "HARD_ITERATION_CAP", k)
        with pytest.raises(EstimationTimeout) as err:
            run_estimation(*args, epsilon=1e-9, seed=gen)
        assert len(err.value.trace.rows) == k
    else:
        # the (k + 1)-th iteration's setting fails its checks
        started = k + 1
        with pytest.raises(ValueError, match="m must be finite and positive, got nan"):
            run_estimation(args[0], NanAfter(k), args[2], epsilon=1e-9, seed=gen)
    monkeypatch.undo()
    assert_the_next_run_starts_after_whole_blocks(gen, started)


@pytest.mark.parametrize(
    "stop",
    [
        dict(max_iterations=0),
        dict(epsilon=2.0),  # the prior already meets it
        dict(epsilon=0.02),
        dict(max_iterations=7),
    ],
)
def test_run_returns_a_normal_belief_on_every_exit(stop):
    prior = NormalBelief(0.2, 0.8)
    belief, trace = run_estimation(SyntheticOracle(0.3), AlphaQPE(0.5), prior, seed=3, **stop)
    assert type(belief) is NormalBelief
    rows = trace.rows
    last = rows[-1] if rows else None
    assert belief == (prior if last is None else (last.mu, last.sigma))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("cap", [None, 4.5, 4])
def test_the_loop_picks_next_settings_unpinned_setting_bit_for_bit(alpha, cap):
    policy, prior = AlphaQPE(alpha, depth_cap=cap), NormalBelief(0.2, 0.8)
    _, trace = run_estimation(SyntheticOracle(0.3), policy, prior, max_iterations=300, seed=11)
    rows = trace.rows
    assert len(rows) == 300
    beliefs = [tuple(prior)] + [(row.mu, row.sigma) for row in rows]
    for belief, row in zip(beliefs, rows):
        m, theta = unpinned_setting(policy, belief)
        assert (row.m, row.theta) == (m, theta)
        assert type(row.m) is type(m) and type(row.theta) is type(theta)
    # the cap binds at alpha > 0 once sigma is small enough
    if cap is not None and alpha > 0.0:
        assert rows[-1].m == float(cap)


def test_a_degenerate_update_raises_out_of_the_loop():
    # at sigma = 1e-320, sigma^2 underflows to 0, so the first closed-form
    # step has no posterior width to return
    gen = np.random.default_rng(3)
    with pytest.raises(DegenerateUpdateError, match="outcome [01] at m=1.0"):
        run_estimation(SyntheticOracle(0.3), AlphaQPE(0.0), NormalBelief(0.0, 1e-320), max_iterations=50, seed=gen)
    # no row completed, but the first iteration started and drew its block
    assert gen.random() == uniform_after(3, 256)
    # an iteration that raises on the fourth setting ends the run there too
    gen, policy = np.random.default_rng(17), NanAfter(3)
    with pytest.raises(ValueError, match="m must be finite and positive, got nan"):
        run_estimation(SyntheticOracle(0.3), policy, NormalBelief(0.0, 1.0), max_iterations=40, seed=gen)
    assert policy.calls == 0
    assert gen.random() == uniform_after(17, 256)


def run_result(run, oracle, policy, prior, **stop):
    """Everything a run shows its caller: on a return, the belief and the
    packed trace; on a raise, the exception's type, message and any trace;
    and in both, where the Generator ends."""
    gen = np.random.default_rng(29)
    try:
        belief, trace = run(oracle, policy, prior, seed=gen, **stop)
        shown = ("return", type(belief), tuple(belief), trace._values.tobytes(), trace.prior_mu, trace.prior_sigma)
    except Exception as exc:  # each error is compared, not expected
        trace = getattr(exc, "trace", None)
        shown = ("raise", type(exc), str(exc), None if trace is None else trace._values.tobytes())
    return shown, gen.bit_generator.state


# the names below keep the words of the loop's two former paths: "the
# kernel" is `run_estimation`, and "the general path" is `reference_run`
def assert_kernel_is_general_path(oracle, policy, prior, **stop):
    """The loop's run on `oracle` shows exactly what `reference_run`, the
    plain loop of library calls, shows; returns what it showed."""
    reference = run_result(reference_run, oracle, policy, prior, **stop)
    loop = run_result(run_estimation, oracle, policy, prior, **stop)
    assert loop == reference
    return loop[0]


STOPS = {
    "epsilon": dict(epsilon=0.02),
    "max_iterations": dict(max_iterations=300),
    "both": dict(epsilon=0.05, max_iterations=120),
}


@pytest.mark.parametrize("stop", sorted(STOPS))
@pytest.mark.parametrize("cap", [None, 4, 4.5, 32])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_the_kernel_is_the_general_path_bit_for_bit(alpha, cap, stop):
    shown = assert_kernel_is_general_path(
        SyntheticOracle(0.3), AlphaQPE(alpha, depth_cap=cap), NormalBelief(0.2, 0.8), **STOPS[stop]
    )
    assert shown[0] == "return"


@pytest.mark.parametrize("stop", sorted(STOPS))
@pytest.mark.parametrize("cap", [4, 4.5, 32])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_a_pinned_run_is_the_reference_loop_bit_for_bit(alpha, cap, stop):
    oracle = SyntheticOracle(0.3, pinned_theta=0.0)
    shown = assert_kernel_is_general_path(oracle, AlphaQPE(alpha, depth_cap=cap), NormalBelief(0.2, 0.8), **STOPS[stop])
    assert shown[0] == "return"


@pytest.mark.parametrize("rows", BLOCK_EDGE_RUNS)
def test_the_kernel_is_the_general_path_at_block_edges(rows):
    for stop in (dict(max_iterations=rows), dict(max_iterations=rows, epsilon=1e-9)):
        shown = assert_kernel_is_general_path(SyntheticOracle(-2.1), AlphaQPE(0.5), NormalBelief(0.0, 1.0), **stop)
        assert shown[0] == "return" and len(shown[3]) == 8 * 5 * rows


# the loop's every error, each reached through its own arithmetic, with the
# message the reference loop gives: (phi, policy, prior, the message)
ERROR_RUNS = [
    # the rule's m fails ExperimentSetting's check
    (0.3, FixedM(math.nan), NormalBelief(0.0, 1.0), "m must be finite and positive, got nan"),
    # theta = mu - sigma overflows
    (0.3, AlphaQPE(0.5), NormalBelief(-1e308, 1e308), "theta must be finite, got -inf"),
    # sigma^2 underflows to 0: no width for outcome 0, no mass for outcome 1
    (0.3, AlphaQPE(0.0), NormalBelief(0.0, 1e-320), "closed-form update degenerated for outcome 0 at m=1.0"),
    (3.0, AlphaQPE(0.0), NormalBelief(0.0, 1e-320), "posterior mass vanished for outcome 1 at m=1.0"),
    # a readout angle past float range
    (0.3, FixedM(1e300), NormalBelief(0.0, 1e10), "math domain error"),
    # (m sigma)^2 past float range
    (0.3, FixedM(1.0), NormalBelief(0.0, 1e200), "(34, 'Numerical result out of range')"),
    # at m sigma = pi with mu one sigma below phi, outcome 0 grows the
    # variance past float range
    (0.3, FixedM(math.pi / 1.3e154), NormalBelief(0.3 - 1.3e154, 1.3e154), "sigma must be finite and positive, got inf"),
]


@pytest.mark.parametrize("phi, policy, prior, message", ERROR_RUNS)
def test_the_kernel_raises_as_the_general_path_does(phi, policy, prior, message):
    shown = assert_kernel_is_general_path(SyntheticOracle(phi), policy, prior, max_iterations=50)
    assert shown[0] == "raise" and shown[2] == message and shown[3] is None


@pytest.mark.parametrize(
    "stop",
    [dict(epsilon=1e-9), dict(max_iterations=400), dict(max_iterations=400, epsilon=1e-9)],
)
@pytest.mark.parametrize("cap", [0, 255, 300, 512])
def test_the_kernel_times_out_as_the_general_path_does(monkeypatch, cap, stop):
    monkeypatch.setattr(engine, "HARD_ITERATION_CAP", cap)
    shown = assert_kernel_is_general_path(SyntheticOracle(0.3), AlphaQPE(0.0), NormalBelief(0.0, 1.0), **stop)
    if cap < stop.get("max_iterations", math.inf):
        assert shown[:2] == ("raise", EstimationTimeout) and len(shown[3]) == 8 * 5 * cap
    else:
        assert shown[0] == "return"


@pytest.mark.parametrize(
    "stop",
    [
        dict(max_iterations=math.nan),
        dict(max_iterations=math.inf),
        dict(max_iterations=2.5),
        dict(max_iterations=-1),
        dict(max_iterations="3"),
        dict(max_iterations=1.5, epsilon=0.1),
    ],
)
def test_max_iterations_must_be_a_whole_number_before_any_draw(stop):
    # nan and inf ran to the hard cap of 10**6 iterations, and 2.5 ran 3 rows
    gen = np.random.default_rng(8)
    state = gen.bit_generator.state
    bad = stop["max_iterations"]
    with pytest.raises(ValueError) as err:
        run_estimation(SyntheticOracle(0.3), AlphaQPE(0.5), NormalBelief(0.0, 1.0), seed=gen, **stop)
    assert str(err.value) == f"max_iterations must be a whole number >= 0, got {bad!r}"
    assert gen.bit_generator.state == state


@pytest.mark.parametrize("whole", [3, 3.0, np.int64(3), np.float64(3.0)])
def test_max_iterations_takes_any_whole_number(whole):
    _, trace = run_estimation(SyntheticOracle(0.3), AlphaQPE(0.5), NormalBelief(0.0, 1.0), max_iterations=whole)
    assert len(trace.rows) == 3


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, -1])
def test_ensemble_counts_must_be_whole_numbers(bad):
    # each raised numpy's TypeError, or ran, where it now names the count
    with pytest.raises(ValueError) as err:
        ensemble_run(AlphaQPE(0.5), n_phases=2, iterations=bad)
    assert str(err.value) == f"iterations must be a whole number >= 0, got {bad!r}"
    with pytest.raises(ValueError) as err:
        ensemble_run(AlphaQPE(0.5), n_phases=bad, iterations=3)
    assert str(err.value) == f"n_phases must be a whole number >= 1, got {bad!r}"


def test_ensemble_takes_a_whole_float_count_as_its_int():
    res = ensemble_run(AlphaQPE(0.5), n_phases=2.0, iterations=4.0, seed=8)
    again = ensemble_run(AlphaQPE(0.5), n_phases=2, iterations=4, seed=8)
    assert_array_equal(res.iterations, again.iterations)
    assert res.iterations.dtype == again.iterations.dtype
    assert_array_equal(res.median_error, again.median_error)


@pytest.mark.parametrize(
    "stop, short_of",
    [
        (dict(epsilon=1e-9), "without reaching epsilon=1e-09"),
        (dict(max_iterations=80), "at the hard cap of 50, short of max_iterations=80"),
        (dict(max_iterations=80, epsilon=1e-9), "at the hard cap of 50, short of max_iterations=80 and epsilon=1e-09"),
    ],
)
def test_a_timeout_names_what_the_cap_stopped_short_of(monkeypatch, stop, short_of):
    monkeypatch.setattr(engine, "HARD_ITERATION_CAP", 50)
    for run in (run_estimation, reference_run):
        with pytest.raises(EstimationTimeout) as err:
            run(SyntheticOracle(0.3), AlphaQPE(0.0), NormalBelief(0.0, 1.0), seed=1, **stop)
        rows = err.value.trace.rows
        assert len(rows) == 50
        assert str(err.value) == f"sigma={rows[-1].sigma:.3g} after 50 iterations {short_of}"
    # a run whose max_iterations the cap allows returns at the cap
    _, trace = run_estimation(SyntheticOracle(0.3), AlphaQPE(0.0), NormalBelief(0.0, 1.0), max_iterations=50, seed=1)
    assert len(trace.rows) == 50


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_next_setting_is_called_once_per_pinned_iteration_and_never_unpinned(monkeypatch, alpha):
    # the seam a wrapper on `engine.next_setting` counts pinned iterations by
    calls, choose = [], engine.next_setting

    def counted(*args):
        calls.append(args)
        return choose(*args)

    monkeypatch.setattr(engine, "next_setting", counted)
    policy, prior = AlphaQPE(alpha, depth_cap=32), NormalBelief(0.2, 0.8)
    _, trace = run_estimation(SyntheticOracle(0.3, pinned_theta=0.0), policy, prior, epsilon=0.02, seed=4)
    pinned = len(calls)
    assert pinned == len(trace.rows) > 0
    _, trace = run_estimation(SyntheticOracle(0.3), policy, prior, epsilon=0.02, seed=4)
    assert len(calls) == pinned and len(trace.rows) > 0


class PlainSubclassOracle(SyntheticOracle):
    """A subclass that keeps SyntheticOracle's readout; unlike SyntheticOracle
    itself, its instances take attributes beyond the fields."""


class OverridingOracle(SyntheticOracle):
    """A subclass whose readout the loop would ignore."""

    def sample(self, setting, u):
        return 1 - super().sample(setting, u)


class DuckOracle:
    """Has everything the loop reads, but is no SyntheticOracle."""

    true_phi, pinned_theta = 0.3, None

    def sample(self, setting, u):
        return SyntheticOracle(0.3).sample(setting, u)


def refused_oracles():
    """Each kind of oracle whose readout the loop would ignore, by name."""
    own = PlainSubclassOracle(0.3)
    own.sample = lambda setting, u: 1
    other = PlainSubclassOracle(0.3)
    # a readout bound to another oracle, at another phase, is not its own
    other.sample = SyntheticOracle(-2.0).sample
    return {"duck": DuckOracle(), "override": OverridingOracle(0.3), "own": own, "other": other, "none": None}


@pytest.mark.parametrize("kind", ["duck", "override", "own", "other", "none"])
def test_an_oracle_the_loop_would_not_read_out_is_refused_before_any_draw(kind):
    oracle = refused_oracles()[kind]
    gen = np.random.default_rng(8)
    state = gen.bit_generator.state
    with pytest.raises(TypeError, match="oracle must be a SyntheticOracle read out by SyntheticOracle.sample"):
        run_estimation(oracle, AlphaQPE(0.5), NormalBelief(0.0, 1.0), max_iterations=10, seed=gen)
    assert gen.bit_generator.state == state


def test_a_wrapper_on_the_class_readout_still_runs_and_is_not_called(monkeypatch):
    # as the benchmark's tracer sets one: the loop reads out inline, so the
    # wrapper sees no iteration, and a subclass that keeps the class's
    # readout runs too
    args = (AlphaQPE(0.5), NormalBelief(0.0, 1.0))
    _, plain = run_estimation(SyntheticOracle(0.3), *args, max_iterations=300, seed=4)
    calls, readout = [], SyntheticOracle.sample

    def wrapper(self, setting, u):
        calls.append(u)
        return readout(self, setting, u)

    monkeypatch.setattr(SyntheticOracle, "sample", wrapper)
    for oracle in (SyntheticOracle(0.3), PlainSubclassOracle(0.3)):
        _, trace = run_estimation(oracle, *args, max_iterations=300, seed=4)
        assert trace == plain
    assert calls == []
