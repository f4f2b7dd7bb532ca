"""The benchmark's smoke run: every name it wraps exists and the record digests hold."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# record digests of the smoke tasks (3 on phase-to-eps, 1 on energy-tfim8)
SMOKE_DIGESTS = {"phase-to-eps": "3362652874006c0d", "energy-tfim8": "005735e0c3d8a927"}


def test_bench_smoke_runs_and_keeps_its_digests():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert json.loads(lines[-1]) == {"smoke": "ok"}
    # one line per workload: "smoke <workload>: <n> tasks, records <digest>"
    reported = {
        line.split(":")[0].removeprefix("smoke "): line.rsplit(" ", 1)[-1]
        for line in lines
        if line.startswith("smoke ")
    }
    assert reported == SMOKE_DIGESTS, done.stdout
