"""alphavqe benchmark: time to a stated accuracy, with a traced per-layer breakdown.

Run from the root of a checkout:

    python3 bench/run.py --workload phase-to-eps --seed 1 --seconds 58 --trace 0
    python3 bench/run.py --workload energy-tfim8 --seed 1 --seconds 58 --trace 1
    python3 bench/run.py --smoke

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import os

# one process with one BLAS/OpenMP thread generates and serves the whole
# load; this must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 9


class BenchError(Exception):
    """A structural break: the run must exit non-zero without a result."""


def load_package():
    """Import alphavqe from this checkout's src/, never from anywhere else."""
    if not (SRC / "alphavqe" / "__init__.py").is_file():
        raise BenchError(f"no alphavqe package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    av = importlib.import_module("alphavqe")
    if Path(av.__file__).resolve().parent != (SRC / "alphavqe").resolve():
        raise BenchError(f"alphavqe imported from {av.__file__}, not from {SRC}")
    for module in ("engine", "expectation", "statevector", "vqe"):
        importlib.import_module(f"alphavqe.{module}")
    return av


def make_workload(name: str, av, seed: int):
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](av, seed)


def setup_probe(name: str) -> None:
    """Child process: time the import and one warm-up call, print seconds.

    Building the workload's own inputs and reference tables is left out."""
    t0 = time.perf_counter()
    av = load_package()
    imported = time.perf_counter() - t0
    workload = make_workload(name, av, 0)
    t0 = time.perf_counter()
    workload.warm_up()
    print(json.dumps({"setup_s": imported + time.perf_counter() - t0}))


def measure_setup(name: str) -> float:
    """Set-up seconds of one fresh process, which this process waits for."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "thread_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(np) -> int | None:
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return int(getter())
    return None


def run_tasks(workload, indices):
    """Closed loop: each task starts when the previous one has returned."""
    return [workload.run(index, time.perf_counter) for index in indices]


def busy_seconds(outcomes) -> float:
    """Timed wall clock: the program's calls, without making inputs or checking."""
    return sum(o.seconds for o in outcomes)


def percentile_tail(times):
    """Highest whole percentile with at least ten tasks beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return {"percentile": pct, "value": ordered[rank - 1], "tasks": n}


def summarize(outcomes) -> tuple[dict, dict]:
    """End-to-end metrics, and the extra figures reported beside them.

    The mean rate and the median task time sit between the host's fast and
    contended speeds, in a mix that shifts from minute to minute, and the
    median error of a few dozen energy tasks moves by a third from seed to
    seed, so these are reported in `extra` but not gated; the tail lies in
    the contended speed, which every run meets.  `task_s_tail` is left out
    when the run holds too few tasks to have one; `extra` then says so.
    """
    attempted = len(outcomes)
    ok = [o for o in outcomes if o.failure is None]
    times = [o.seconds for o in outcomes]
    tail = percentile_tail(times)
    metrics = {
        "measurements_p50": statistics.median(o.measurements for o in ok) if ok else math.nan,
        "hit_rate": sum(o.hit for o in outcomes) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tail is not None:
        metrics["task_s_tail"] = tail["value"]
    extra = {
        "abs_error_p50": statistics.median(o.error for o in ok) if ok else None,
        "tasks_per_s": attempted / busy_seconds(outcomes),
        "task_s_p50": statistics.median(times),
        "task_s_tail": tail or f"omitted: {attempted} tasks, fewer than 11",
        "failed_frac": (attempted - len(ok)) / attempted,
        "timed_s": busy_seconds(outcomes),
    }
    return metrics, extra


def records_digest(outcomes) -> dict:
    records = [o.record for o in outcomes]
    blob = json.dumps(records, separators=(",", ":")).encode()
    return {"tasks": len(records), "sha256": hashlib.sha256(blob).hexdigest()}


def declared_units(kind: str) -> dict:
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_metrics(metrics: dict, expected) -> None:
    if set(metrics) != set(expected):
        raise BenchError(
            f"metrics missing: {sorted(set(expected) - set(metrics))}, "
            f"undeclared: {sorted(set(metrics) - set(expected))}"
        )
    bad = {k: v for k, v in metrics.items() if not math.isfinite(v)}
    if bad:
        raise BenchError(f"non-finite metrics: {bad}")


def failures(outcomes) -> list[dict]:
    return [{"task": o.index, "failure": o.failure} for o in outcomes if o.failure]


def untraced_run(workload, seconds: float, expected) -> tuple[dict, dict]:
    """A closed loop over the seed's tasks 0, 1, 2, ... for `seconds` of wall clock.

    Tasks start in whole blocks of `workload.block`, and no block starts when
    the mean block so far would end it after `seconds`.  The host is shared
    and its speed drifts by up to 2x over spells of seconds to minutes, so
    the run holds many distinct tasks spread over the whole minute (see
    `summarize` for which figures are gated).  SETUP_PROBES set-up probes are
    spread evenly over the run for the same reason; setup_s is their median.
    """
    start = time.perf_counter()
    deadline = start + seconds
    setup = [measure_setup(workload.name)]
    workload.warm_up()
    outcomes = []
    loop_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        blocks = len(outcomes) // workload.block
        if blocks and now + (now - loop_start) / blocks > deadline:
            break
        if len(setup) < SETUP_PROBES - 1 and now - start >= len(setup) * seconds / (SETUP_PROBES - 1):
            setup.append(measure_setup(workload.name))
        first = len(outcomes)
        outcomes.extend(run_tasks(workload, range(first, first + workload.block)))
    setup.append(measure_setup(workload.name))
    metrics, extra = summarize(outcomes)
    if "task_s_tail" not in metrics:
        raise BenchError(f"run too short: {extra['task_s_tail']}")
    metrics = {"setup_s": statistics.median(setup), **metrics}
    check_metrics(metrics, expected)
    extra["setup_probes"] = len(setup)
    extra["digest"] = records_digest(outcomes[: workload.trace_tasks])
    extra["failures"] = failures(outcomes)
    extra["tasks"] = [[o.index, o.seconds, o.measurements, o.error, o.hit] for o in outcomes]
    correct = not extra["failures"] and metrics["hit_rate"] >= workload.min_hit_rate
    result = {"correct": correct, "attempted": len(outcomes), "failed": len(extra["failures"])}
    return result, {"metrics": metrics, "extra": extra}


def traced_run(workload, n_tasks: int, expected, spans_path=None) -> tuple[dict, dict]:
    """The same tasks untraced, then traced; their records must match."""
    from tracing import Tracer

    workload.warm_up()
    # the first pass over a task list runs slower while the allocator and
    # caches settle, so an unmeasured pass precedes the two compared here
    run_tasks(workload, range(n_tasks))
    plain = run_tasks(workload, range(n_tasks))
    tracer = Tracer()
    tracer.install(workload.av)
    try:
        traced = []
        for index in range(n_tasks):
            tracer.task_id = index
            traced.append(workload.run(index, time.perf_counter))
    finally:
        tracer.uninstall()
    if [o.record for o in plain] != [o.record for o in traced]:
        raise BenchError("traced and untraced runs of the same tasks gave different records")
    timeouts = sum(1 for o in traced if o.failure and o.failure.startswith("EstimationTimeout"))
    metrics = tracer.layer_metrics(timeouts)
    plain_s, traced_s = busy_seconds(plain), busy_seconds(traced)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    metrics["trace.spans"] = len(tracer.start)
    check_metrics(metrics, expected)
    if spans_path is not None:
        tracer.save(spans_path)
    failed = failures(traced)
    hits = sum(o.hit for o in traced) / len(traced)
    correct = not failed and hits >= workload.min_hit_rate
    result = {"correct": correct, "attempted": len(traced), "failed": len(failed)}
    extra = {"digest": records_digest(traced), "failures": failed, "untraced_s": plain_s, "traced_s": traced_s}
    return result, {"metrics": metrics, "extra": extra}


def with_units(metrics: dict, units: dict) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def write_report(name: str, report: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")


def main_run(args) -> int:
    av = load_package()
    workload = make_workload(args.workload, av, args.seed)
    env = environment()
    if args.trace:
        units = declared_units("per_layer")
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz"
        result, report = traced_run(workload, workload.trace_tasks, units, spans)
    else:
        units = declared_units("end_to_end")
        result, report = untraced_run(workload, args.seconds, units)
    report.update(workload=workload.name, seed=args.seed, trace=args.trace, env=env, result=result)
    write_report(f"{workload.name}-seed{args.seed}-trace{args.trace}.json", report)
    print("# env " + json.dumps(env))
    print("# extra " + json.dumps({k: v for k, v in report["extra"].items() if k != "tasks"}))
    print(json.dumps({**result, "metrics": with_units(report["metrics"], units)}))
    return 0


def main_smoke() -> int:
    """Every workload at minimal size: declared metrics, determinism."""
    from workloads import WORKLOADS

    av = load_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from the benchmark's workloads")
    end_to_end, per_layer = declared_units("end_to_end"), declared_units("per_layer")
    for name in WORKLOADS:
        workload = make_workload(name, av, 7)
        n_tasks = workload.smoke_tasks
        workload.warm_up()
        first = run_tasks(workload, range(n_tasks))
        metrics, _ = summarize(first)
        # a smoke run is too short for a task_s_tail
        expected = {k: u for k, u in end_to_end.items() if k != "task_s_tail"}
        check_metrics({"setup_s": measure_setup(name), **metrics}, expected)
        # traced_run checks its own untraced pass against its traced pass;
        # this pass ran before any wrapper was installed
        result, report = traced_run(workload, n_tasks, per_layer)
        if report["extra"]["digest"] != records_digest(first):
            raise BenchError(f"{name}: records differ between untraced and traced runs")
        if result["failed"]:
            raise BenchError(f"{name}: {report['extra']['failures']}")
        print(f"smoke {name}: {n_tasks} tasks, records {records_digest(first)['sha256'][:16]}")
    print(json.dumps({"smoke": "ok"}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at minimal size")
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.smoke or args.setup_probe or args.workload):
        parser.error("--workload is required unless --smoke is given")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.setup_probe)
            return 0
        if args.smoke:
            return main_smoke()
        return main_run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
