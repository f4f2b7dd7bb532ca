"""Command-line experiment harness emitting deterministic CSV.

Every subcommand resolves its configuration as CLI flags > config file >
defaults and writes RFC-4180-style CSV whose '#' lines record the version and
the resolved configuration.  phase-sim, expectation and vqe derive all their
randomness from --seed through named substreams; the rest draw nothing and
take no seed.  Same flags, same bytes.

Config files are line-oriented 'key = value' pairs ('#' comments allowed);
keys match the long option names without the leading dashes.  A flag and a
config key are read the same way, as their default's type: a comma-separated
float list, an int, a float, or a string, so a bad value exits 1 and names its
key.  phase-sim sweeps a list of alpha and tradeoff lists of epsilon and dmax;
expectation and vqe take one value of each.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

import numpy as np

from . import __version__
from .bayes import ExperimentSetting, NormalBelief, bayes_risk, bayes_risk_quadrature
from .engine import EstimationTimeout, ensemble_run
from .expectation import TwoStageConfig, collapse_distribution, two_stage_estimate
from .rand import child_seed, rng_for
from .schedules import AlphaQPE, alpha_max, analytic_risk_curve, n_min, n_min_restarts
from .statevector import Ansatz
from .vqe import (
    HamiltonianParseError,
    bundled_hamiltonian,
    exact_ground_energy,
    load_hamiltonian,
    optimize,
)

__all__ = ["main"]


class CliError(Exception):
    """User-facing configuration or validation problem."""


def _parse_float_list(raw: str) -> list[float]:
    raw = raw.strip()
    if not raw:
        return []
    try:
        return [float(part) for part in raw.split(",")]
    except ValueError as exc:
        raise CliError(f"bad list value {raw!r}: {exc}") from None


def _convert(key: str, raw: str, default) -> object:
    """raw read as its default's type: a float list, an int, a float, or a string."""
    if isinstance(default, list):
        return _parse_float_list(raw)
    if isinstance(default, (int, float)):
        try:
            return type(default)(raw)
        except ValueError:
            raise CliError(f"bad value {raw!r} for {key}") from None
    return raw


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        values[key.strip()] = value.strip()
    return values


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    if getattr(args, "config", None):
        for key, value in _parse_config_file(args.config).items():
            if key not in cfg:
                raise CliError(f"unknown config key {key!r} for this subcommand")
            cfg[key] = _convert(key, value, defaults[key])
    for key in cfg:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            cfg[key] = _convert(key, cli_value, defaults[key])
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    if value is None:
        return ""
    return str(value)


def _write_csv(cfg: dict, subcommand: str, columns, rows, footer: list[str] | None = None) -> None:
    buf = io.StringIO()
    buf.write(f"# alphavqe {__version__}\n")
    buf.write(f"# subcommand = {subcommand}\n")
    for key, value in cfg.items():
        if key == "out":
            continue
        buf.write(f"# {key} = {_fmt(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    for line in footer or []:
        buf.write(f"# {line}\n")
    out = cfg.get("out")
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def cmd_risk_surface(cfg: dict) -> int:
    rows = []
    worst = 0.0
    for m in cfg["mvals"]:
        for offset in cfg["offsets"]:
            for sigma in cfg["sigmas"]:
                setting = ExperimentSetting(m=m, theta=-offset)
                belief = NormalBelief(0.0, sigma)
                closed = bayes_risk(setting, belief)
                quad = bayes_risk_quadrature(setting, belief)
                # at a tiny enough width both risks underflow to 0, and agree
                rel = abs(closed - quad) / abs(quad) if quad else (math.inf if closed else 0.0)
                worst = max(worst, rel)
                rows.append((m, offset, sigma, closed, quad, rel))
    _write_csv(
        cfg,
        "risk-surface",
        ["m", "theta_offset", "sigma", "r2_closed_form", "r2_quadrature", "rel_err"],
        rows,
        footer=[f"max_rel_err = {_fmt(worst)}"],
    )
    if worst > 1e-6:
        print(f"risk-surface: closed form and quadrature disagree (rel err {worst:.3g})", file=sys.stderr)
        return 1
    return 0


def cmd_phase_sim(cfg: dict) -> int:
    rows = []
    for idx, alpha in enumerate(cfg["alpha"]):
        result = ensemble_run(
            AlphaQPE(alpha),
            n_phases=cfg["phases"],
            iterations=cfg["iters"],
            seed=child_seed(cfg["seed"], "alpha", idx),
        )
        for k in result.iterations:
            from_zero = analytic_risk_curve(float(k), 0.0, 1.0, alpha)
            from_20 = (
                analytic_risk_curve(float(k), 20.0, float(result.mean_sigma[20]), alpha) if k >= 20 else None
            )
            rows.append(
                (
                    alpha,
                    int(k),
                    float(result.mean_sigma[k]),
                    float(result.median_sigma[k]),
                    float(result.median_error[k]),
                    from_zero,
                    from_20,
                )
            )
    _write_csv(
        cfg,
        "phase-sim",
        ["alpha", "k", "mean_sigma", "median_sigma", "median_error", "analytic_from_0", "analytic_from_20"],
        rows,
    )
    return 0


def cmd_tradeoff(cfg: dict) -> int:
    rows = []
    ok = True
    for eps in cfg["epsilon"]:
        for d in cfg["dmax"]:
            nm = n_min(eps, d)
            nr = n_min_restarts(eps, d)
            ratio = nr / nm
            if ratio > 1.0 + 1e-12:
                ok = False
            rows.append((eps, d, alpha_max(eps, d), nm, nr, ratio))
    _write_csv(
        cfg,
        "tradeoff",
        ["epsilon", "dmax", "alpha_max", "n_min", "n_min_restarts", "ratio"],
        rows,
    )
    if not ok:
        print("tradeoff: restart schedule exceeded the fixed-exponent count", file=sys.stderr)
        return 1
    return 0


def cmd_expectation(cfg: dict) -> int:
    config = TwoStageConfig(alpha=cfg["alpha"], d_max=cfg["dmax"], target_epsilon=cfg["epsilon"])
    # the footer's quantiles need at least one trial
    if cfg["trials"] < 1:
        raise CliError(f"trials must be positive, got {cfg['trials']}")
    if not cfg["avalues"]:
        raise CliError("avalues needs at least one value")
    for true_a in cfg["avalues"]:
        if not -1.0 <= true_a <= 1.0:
            raise CliError(f"avalues entries must lie in [-1, 1], got {true_a}")
    rows = []
    errors: list[float] = []
    counts: list[float] = []
    for i, true_a in enumerate(cfg["avalues"]):
        ansatz = Ansatz(1, 1, np.array([math.acos(true_a)]))
        for trial in range(cfg["trials"]):
            rng = rng_for(cfg["seed"], "expectation", i, trial)
            result = two_stage_estimate(ansatz, "Z", config, rng)
            err = abs(result.value - true_a)
            errors.append(err)
            counts.append(result.measurements_used)
            rows.append(
                (true_a, trial, result.path, result.value, err, result.measurements_used, result.max_depth_used)
            )
    footer = [
        f"median_abs_error = {_fmt(float(np.median(errors)))}",
        f"q90_abs_error = {_fmt(float(np.quantile(errors, 0.9)))}",
        f"median_measurements = {_fmt(float(np.median(counts)))}",
    ]
    _write_csv(
        cfg,
        "expectation",
        ["true_a", "trial", "path", "estimate", "abs_error", "measurements", "max_depth"],
        rows,
        footer=footer,
    )
    return 0


def cmd_vqe(cfg: dict) -> int:
    name = cfg["hamiltonian"]
    if name in ("toy1q", "toy2q"):
        hamiltonian = bundled_hamiltonian(name)
    else:
        hamiltonian = load_hamiltonian(name)
    if cfg["layers"] < 0:
        raise CliError(f"layers must be non-negative, got {cfg['layers']}")
    template = Ansatz(hamiltonian.n_qubits, cfg["layers"], np.zeros(hamiltonian.n_qubits * cfg["layers"]))
    # estimate_energy decides which of these settings the mode reads
    result = optimize(
        hamiltonian,
        template,
        max_iters=cfg["iters"],
        mode=cfg["mode"],
        epsilon_total=cfg["epsilon"],
        alpha=cfg["alpha"],
        d_max=cfg["dmax"],
        seed=cfg["seed"],
    )
    exact = exact_ground_energy(hamiltonian)
    rows = [
        (eval_idx, iteration, ";".join(_fmt(v) for v in lam), energy, meas)
        for eval_idx, (iteration, lam, energy, meas) in enumerate(result.energy_history)
    ]
    footer = [
        f"best_energy = {_fmt(result.best_energy)}",
        f"best_lambda = {';'.join(_fmt(v) for v in result.best_lambda)}",
        f"exact_ground_energy = {_fmt(exact)}",
        f"gap = {_fmt(result.best_energy - exact)}",
        f"converged = {result.converged}",
        f"total_measurements = {result.total_measurements}",
    ]
    _write_csv(
        cfg,
        "vqe",
        ["eval", "iteration", "lambda", "energy", "cumulative_measurements"],
        rows,
        footer=footer,
    )
    print(
        f"vqe: best energy {result.best_energy:.6f} vs exact {exact:.6f} "
        f"(gap {result.best_energy - exact:.2e}, {result.total_measurements} measurements)",
        file=sys.stderr,
    )
    return 0


def cmd_collapse_check(cfg: dict) -> int:
    rows = []
    worst = 0.0
    for phi in cfg["phis"]:
        dist = collapse_distribution(phi)
        sin_phi = math.sin(phi)
        expected = {
            (0, 0): (math.cos(phi) ** 2 * math.cos(phi / 2.0) ** 2, 0.5),
            (0, 1): (math.cos(phi) ** 2 * math.sin(phi / 2.0) ** 2, 0.5),
            (1, 0): (sin_phi**2 / 2.0, (1.0 + sin_phi) / 2.0),
            (1, 1): (sin_phi**2 / 2.0, (1.0 - sin_phi) / 2.0),
        }
        for (b2, b1), (p_sim, conf_sim) in sorted(dist.items()):
            p_ref, conf_ref = expected[(b2, b1)]
            dev = abs(p_sim - p_ref)
            if p_ref > 1e-12:
                dev = max(dev, abs(conf_sim - conf_ref))
            worst = max(worst, dev)
            rows.append((phi, b2, b1, p_sim, p_ref, conf_sim, conf_ref, dev))
    _write_csv(
        cfg,
        "collapse-check",
        ["phi", "b2", "b1", "p_simulated", "p_formula", "conf_simulated", "conf_formula", "abs_dev"],
        rows,
        footer=[f"max_abs_dev = {_fmt(worst)}"],
    )
    if worst > 1e-10:
        print(f"collapse-check: simulation deviates from the outcome table ({worst:.3g})", file=sys.stderr)
        return 1
    return 0


_DEFAULT_PHI_GRID = [math.pi / 6.0 + i * (2.0 * math.pi / 3.0) / 24.0 for i in range(25)]

_SUBCOMMANDS = {
    "risk-surface": (
        cmd_risk_surface,
        {
            "out": None,
            "mvals": [0.5, 1.0, 2.0, 5.0, 10.0],
            "offsets": [0.0, 0.3, math.pi / 4.0, math.pi / 2.0],
            "sigmas": [0.05, 0.1, 0.2, 0.5],
        },
        "Compare the closed-form expected posterior variance against quadrature on a grid",
    ),
    "phase-sim": (
        cmd_phase_sim,
        {
            "seed": 12345,
            "out": None,
            "alpha": [0.0, 0.5, 0.75, 1.0],
            "phases": 200,
            "iters": 60,
        },
        "Simulate phase-estimation ensembles and tabulate convergence against the analytic curve",
    ),
    "tradeoff": (
        cmd_tradeoff,
        {
            "out": None,
            "epsilon": [0.1, 0.05, 0.01],
            "dmax": [1.0, 2.0, 10.0, 100.0, 1000.0],
        },
        "Tabulate measurement counts under a depth budget, with and without restarts",
    ),
    "expectation": (
        cmd_expectation,
        {
            "seed": 12345,
            "out": None,
            "avalues": [0.7071],
            "trials": 20,
            "alpha": 0.5,
            "epsilon": 0.02,
            "dmax": 32.0,
        },
        "Run the gated two-stage expectation estimator on known single-qubit states",
    ),
    "vqe": (
        cmd_vqe,
        {
            "seed": 12345,
            "out": None,
            "hamiltonian": "toy1q",
            "mode": "alpha",
            "layers": 1,
            "iters": 200,
            "alpha": 0.5,
            "epsilon": 0.01,
            "dmax": 32.0,
        },
        "Minimize a Pauli-sum energy and compare against dense diagonalization",
    ),
    "collapse-check": (
        cmd_collapse_check,
        {
            "out": None,
            "phis": _DEFAULT_PHI_GRID,
        },
        "Verify the two-measurement collapse statistics against their closed forms",
    ),
}

_FLAG_HELP = {
    "seed": "master seed; all randomness derives from it through named substreams",
    "out": "output CSV path (default: stdout)",
    "phases": "number of true phases in the ensemble",
    "iters": "iteration count (phase-sim) or optimizer iteration cap (vqe)",
    "trials": "trials per listed expectation value",
    "layers": "ansatz layers",
    "hamiltonian": "Hamiltonian file path, or a bundled name (toy1q, toy2q)",
    "mode": "energy estimation mode: exact, statistical, or alpha",
    "alpha": "schedule exponent",
    "epsilon": "target precision (vqe: the total over all terms)",
    "dmax": "depth budget",
    "mvals": "repetition count",
    "offsets": "mu - theta offset",
    "sigmas": "prior width",
    "avalues": "true expectation value in [-1, 1]",
    "phis": "eigenphase in (0, pi)",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphavqe",
        description="Deterministic experiment harness for depth-aware phase and expectation estimation",
    )
    parser.add_argument("--version", action="version", version=f"alphavqe {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, defaults, help_text) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(func=func, defaults=defaults)
        sub.add_argument("--config", help="key = value config file; flags given here win")
        # every flag stays a string here; _resolve reads it as its default's type
        for key, default in defaults.items():
            flag_help = _FLAG_HELP[key]
            if isinstance(default, list):
                flag_help += "; a comma-separated list"
            if default is not None:
                flag_help += f" (default {_fmt(default)})"
            sub.add_argument(f"--{key}", help=flag_help)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args, args.defaults)
        return args.func(cfg)
    except (CliError, HamiltonianParseError, ValueError, EstimationTimeout) as exc:
        print(f"alphavqe: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
