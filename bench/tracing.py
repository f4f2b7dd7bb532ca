"""Spans around the calls that one alphavqe module makes into another.

The tracer replaces module attributes (and two methods) with wrappers while
it is installed and restores them afterwards; nothing in the package is
edited.  Each wrapper records one span: name, start, end, parent span and
task id.  Spans stay in memory in flat arrays and are written out once, when
the run ends.  A span's self time is its duration minus the time its child
spans cover; a layer's self time is the sum over the spans named after it.
"""

from __future__ import annotations

import functools
import statistics
import time
import weakref
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.task_id = -1
        self.counts: Counter = Counter()
        self.first_power: list[int] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, observe=None):
        nid = self._name_id(name)
        names, starts, ends, parents, tasks = self.name, self.start, self.end, self.parent, self.task
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            tasks.append(self.task_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, observe))
        self._restore.append((owner, attr, original))

    def install(self, av) -> None:
        """Wrap every cross-module call on the workloads' paths."""
        seen_ops = weakref.WeakSet()

        def on_estimate(idx, args, result):
            self.counts["alpha_path"] += result.path == "alpha_qpe"
            self.counts["stage2_iterations"] += result.iterations

        def on_collapse(idx, args, result):
            self.counts["collapse_useful"] += result.outcomes[0] == 1

        def on_update(idx, args, result):
            self.counts["starved"] += bool(result[1])

        def on_power(idx, args, result):
            op = args[0]
            if op not in seen_ops:
                seen_ops.add(op)
                self.first_power.append(idx)

        vqe, expectation, engine = av.vqe, av.expectation, av.engine
        self.patch(vqe, "estimate_energy", "vqe.estimate_energy")
        self.patch(vqe, "two_stage_estimate", "expectation.two_stage_estimate", on_estimate)
        self.patch(vqe, "statistical_estimate", "expectation.statistical_estimate")
        self.patch(expectation, "stage1_gate", "expectation.stage1_gate")
        self.patch(expectation, "statistical_estimate", "expectation.statistical_estimate")
        self.patch(expectation, "collapse_state", "expectation.collapse_state", on_collapse)
        self.patch(expectation, "build_rotation_operator", "statevector.build_rotation_operator")
        self.patch(expectation, "prepare", "statevector.prepare")
        self.patch(expectation, "sample_pauli_outcomes", "statevector.sample_pauli_outcomes")
        self.patch(expectation, "run_phase_circuit", "statevector.run_phase_circuit")
        self.patch(expectation, "rejection_filter_update", "bayes.rejection_filter_update", on_update)
        self.patch(expectation, "next_setting", "schedules.next_setting")
        self.patch(av.statevector.RotationOperator, "power_apply", "statevector.power_apply", on_power)
        self.patch(engine, "run_estimation", "engine.run_estimation")
        self.patch(engine, "rejection_filter_update", "bayes.rejection_filter_update", on_update)
        self.patch(engine, "next_setting", "schedules.next_setting")
        self.patch(engine.SyntheticOracle, "sample", "engine.SyntheticOracle.sample")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "task": np.frombuffer(self.task, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, timeouts: int) -> dict[str, float]:
        """The per-layer metrics, from the spans and the counts beside them."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - covered
        ids = a["name"]

        def select(name):
            nid = self._ids.get(name)
            return np.zeros(dur.size, dtype=bool) if nid is None else ids == nid

        def count(name):
            return int(select(name).sum())

        def total(name):
            return float(dur[select(name)].sum())

        def layer_self(layer):
            mask = np.zeros(dur.size, dtype=bool)
            for name, nid in self._ids.items():
                if name.split(".", 1)[0] == layer:
                    mask |= ids == nid
            return float(own[mask].sum())

        def ratio(num, den):
            return num / den if den else 0.0

        estimate_ms = sorted(1e3 * dur[select("expectation.two_stage_estimate")])
        if len(estimate_ms) >= 2:
            p50, p90 = statistics.median(estimate_ms), statistics.quantiles(estimate_ms, n=10)[-1]
        else:
            p50 = p90 = estimate_ms[0] if estimate_ms else 0.0
        estimates = count("expectation.two_stage_estimate")
        collapses = count("expectation.collapse_state")
        updates = count("bayes.rejection_filter_update")
        iterations = count("engine.SyntheticOracle.sample")
        return {
            "vqe.objective_evals": count("vqe.estimate_energy"),
            "vqe.self_s": layer_self("vqe"),
            "expectation.estimates": estimates,
            "expectation.estimate_ms_p50": p50,
            "expectation.estimate_ms_p90": p90,
            "expectation.self_s": layer_self("expectation"),
            "expectation.stage1_s": total("expectation.stage1_gate"),
            "expectation.alpha_path_frac": ratio(self.counts["alpha_path"], estimates),
            "expectation.stage2_iterations": self.counts["stage2_iterations"],
            "expectation.collapse_calls": collapses,
            "expectation.collapse_s": total("expectation.collapse_state"),
            "expectation.collapse_useful_frac": ratio(self.counts["collapse_useful"], collapses),
            "bayes.updates": updates,
            "bayes.update_s": total("bayes.rejection_filter_update"),
            "bayes.update_us": 1e6 * ratio(total("bayes.rejection_filter_update"), updates),
            "bayes.starved_frac": ratio(self.counts["starved"], updates),
            "statevector.operators": count("statevector.build_rotation_operator"),
            "statevector.first_power_s": float(dur[self.first_power].sum()) if self.first_power else 0.0,
            "statevector.power_calls": count("statevector.power_apply"),
            "statevector.power_s": total("statevector.power_apply"),
            "statevector.circuit_calls": count("statevector.run_phase_circuit"),
            "statevector.circuit_s": total("statevector.run_phase_circuit"),
            "statevector.sample_s": total("statevector.sample_pauli_outcomes"),
            "engine.runs": count("engine.run_estimation"),
            "engine.iterations": iterations,
            "engine.iter_us": 1e6 * ratio(total("engine.run_estimation"), iterations),
            "engine.oracle_s": total("engine.SyntheticOracle.sample"),
            "engine.self_s": layer_self("engine"),
            "engine.timeouts": timeouts,
            "schedules.next_setting_calls": count("schedules.next_setting"),
            "schedules.next_setting_s": total("schedules.next_setting"),
        }
