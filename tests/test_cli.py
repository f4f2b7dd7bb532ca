"""Command-line interface: argument handling, config files, CSV determinism."""

import hashlib
import time

import numpy as np
import pytest

from alphavqe import __version__, cli, engine
from alphavqe.cli import main

# SHA-256 of each default-seed CSV after its first line, "# alphavqe
# <version>", which is the one line that may change without the output
# changing
DEFAULT_CSV_DIGESTS = {
    "risk-surface": "d28790f70a8fadb9042fc77fa2fd7892bbcd19c0470f36f8d3ac57c51c11ccc3",
    "phase-sim": "b0c361ca7eb102fd318d29399ab0c9baefe8271b56c969db8efb3b292e9abb68",
    "tradeoff": "c64739d9f879281335a1f9b8db0d17130e8a2ba7aa5304e6367c09b4ea7f3ee7",
    "expectation": "0b0f9d1c964d5676f086190049d0493c86345d2bd8411598adfb2451d8fb808a",
    "vqe": "95df9fca225c0c4c535ee20c414c4d61c1edb66a9f47021fd009249acdf1d803",
    "collapse-check": "28716873e9002c4b3cba7cb5a0524b8fa534e56ac130b8c346194f6a8badfa34",
}


def run_to_file(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


def test_risk_surface_runs_and_is_deterministic(tmp_path):
    args = ["risk-surface", "--mvals", "1,2", "--offsets", "0,0.3", "--sigmas", "0.1,0.2"]
    code1, bytes1 = run_to_file(tmp_path, "a.csv", args)
    code2, bytes2 = run_to_file(tmp_path, "b.csv", args)
    assert code1 == code2 == 0
    assert bytes1 == bytes2
    text = bytes1.decode()
    assert text.startswith("# alphavqe ")
    assert "# subcommand = risk-surface" in text
    assert "m,theta_offset,sigma,r2_closed_form,r2_quadrature,rel_err" in text
    assert "# max_rel_err = " in text


def test_tradeoff_and_collapse_check_pass_their_internal_checks(tmp_path):
    code, body = run_to_file(tmp_path, "t.csv", ["tradeoff", "--epsilon", "0.05", "--dmax", "2,10"])
    assert code == 0
    assert "n_min" in body.decode()
    code, body = run_to_file(tmp_path, "c.csv", ["collapse-check", "--phis", "0.6,1.3,2.2"])
    assert code == 0
    assert "# max_abs_dev = " in body.decode()


def test_phase_sim_seed_changes_output(tmp_path):
    base = ["phase-sim", "--alpha", "1.0", "--phases", "4", "--iters", "5"]
    _, run_a = run_to_file(tmp_path, "s1.csv", base + ["--seed", "1"])
    _, run_b = run_to_file(tmp_path, "s2.csv", base + ["--seed", "1"])
    _, run_c = run_to_file(tmp_path, "s3.csv", base + ["--seed", "2"])
    assert run_a == run_b
    body_b = run_b.decode().splitlines()
    body_c = run_c.decode().splitlines()
    assert [l for l in body_b if l.startswith("#") and "seed" not in l] == [
        l for l in body_c if l.startswith("#") and "seed" not in l
    ]
    assert run_b != run_c


def test_expectation_reports_summary_footer(tmp_path):
    code, body = run_to_file(
        tmp_path,
        "e.csv",
        [
            "expectation",
            "--avalues", "0.7071",
            "--trials", "2",
            "--epsilon", "0.1",
        ],
    )
    text = body.decode()
    assert code == 0
    assert "# median_abs_error = " in text
    assert "# median_measurements = " in text
    assert "alpha_qpe" in text or "statistical_fallback" in text


def test_expectation_at_alpha_zero_finishes_where_m_2_alone_has_no_gain(tmp_path):
    # |A| = 0.69675 puts phi near pi/2, where at theta = 0 the Bayes gain of
    # m = 2 vanishes; alpha = 0 pins m* at 1.5, so stage 2 needs a window of
    # two counts to leave that point
    args = ["expectation", "--alpha", "0", "--epsilon", "0.005", "--avalues", "0.69675", "--trials", "3"]
    code, body = run_to_file(tmp_path, "a0.csv", args)
    assert code == 0
    assert body.decode().count(",alpha_qpe,") == 3


def test_vqe_runs_bundled_problem(tmp_path, capsys):
    code, body = run_to_file(
        tmp_path,
        "v.csv",
        ["vqe", "--hamiltonian", "toy1q", "--mode", "exact", "--iters", "40"],
    )
    text = body.decode()
    assert code == 0
    assert "# exact_ground_energy = " in text
    assert "# best_energy = " in text
    summary = capsys.readouterr().err
    assert "best energy" in summary
    best = float(
        next(l for l in text.splitlines() if l.startswith("# best_energy")).split("=")[1]
    )
    assert best == pytest.approx(-np.sqrt(0.5), abs=1e-4)


def test_stdout_when_no_out_file(capsys):
    code = main(["tradeoff", "--epsilon", "0.1", "--dmax", "1,5"])
    assert code == 0
    captured = capsys.readouterr()
    assert "# subcommand = tradeoff" in captured.out


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 7\nepsilon = 0.1\n# comment\n", encoding="utf-8")
    args = ["expectation", "--config", str(cfg), "--trials", "1"]
    code, body = run_to_file(tmp_path, "p.csv", args)
    assert code == 0
    assert "# seed = 7" in body.decode()
    code, body = run_to_file(tmp_path, "q.csv", args + ["--seed", "9"])
    assert "# seed = 9" in body.decode()
    assert "# epsilon = 0.1" in body.decode()


@pytest.mark.parametrize("subcommand", ["risk-surface", "tradeoff", "collapse-check"])
def test_subcommands_that_draw_nothing_take_no_seed(tmp_path, subcommand, capsys):
    with pytest.raises(SystemExit) as done:
        main([subcommand, "--seed", "1"])
    assert done.value.code == 2
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 1\n", encoding="utf-8")
    assert main([subcommand, "--config", str(cfg)]) == 1
    assert "alphavqe: unknown config key 'seed' for this subcommand" in capsys.readouterr().err


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sneed = 7\n", encoding="utf-8")
    assert main(["tradeoff", "--config", str(cfg)]) == 1
    assert "sneed" in capsys.readouterr().err


def test_values_that_do_not_read_as_their_default_type_are_refused(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("trials = 2.5\n", encoding="utf-8")
    assert main(["expectation", "--config", str(cfg)]) == 1
    config_err = capsys.readouterr().err
    assert config_err == "alphavqe: bad value '2.5' for trials\n"
    # a flag is read as its config key is
    assert main(["expectation", "--trials", "2.5"]) == 1
    assert capsys.readouterr().err == config_err
    assert main(["expectation", "--alpha", "0.25,0.9"]) == 1
    assert main(["tradeoff", "--epsilon", "0.1,x"]) == 1
    err = capsys.readouterr().err
    assert "alphavqe: bad value '0.25,0.9' for alpha" in err
    assert "alphavqe: bad list value '0.1,x': could not convert string to float: 'x'" in err
    assert "Traceback" not in err


def test_bad_inputs_exit_nonzero(capsys):
    assert main(["vqe", "--hamiltonian", "/no/such/file.txt", "--mode", "exact"]) == 1
    assert main(["expectation", "--avalues", "1.5", "--trials", "1"]) == 1
    assert main(["collapse-check", "--phis", "0.0"]) == 1
    assert main(["vqe", "--hamiltonian", "toy1q", "--mode", "quantum"]) == 1
    # refused before any estimate runs, with a message that names layers
    assert main(["vqe", "--hamiltonian", "toy1q", "--layers", "-1"]) == 1
    assert main(["expectation", "--alpha", "0.25,0.9", "--trials", "1"]) == 1
    assert main(["expectation", "--alpha", "", "--trials", "1"]) == 1
    # nothing to summarise: refused before any estimate runs
    assert main(["expectation", "--trials", "0"]) == 1
    assert main(["expectation", "--trials", "-2"]) == 1
    assert main(["expectation", "--avalues", ""]) == 1
    assert main(["vqe", "--mode", "statistical", "--epsilon", "inf"]) == 1
    # epsilon^2 underflows: refused by the shot law on each sampled path
    assert main(["vqe", "--mode", "statistical", "--epsilon", "1e-200", "--iters", "0"]) == 1
    assert main(["expectation", "--epsilon", "1e-200", "--trials", "1", "--avalues", "0.1"]) == 1
    assert main(["vqe", "--mode", "alpha", "--epsilon", "1e-200", "--iters", "0"]) == 1
    # a share past the shot cap is refused by the values the user can change
    assert main(["vqe", "--hamiltonian", "toy2q", "--mode", "statistical", "--epsilon", "1e-5", "--iters", "0"]) == 1
    assert main(["vqe", "--mode", "alpha", "--epsilon", "1", "--iters", "0"]) == 1
    assert main(["vqe", "--hamiltonian", "toy2q", "--mode", "alpha", "--alpha", "0", "--epsilon", "1e-4", "--iters", "0"]) == 1
    err = capsys.readouterr().err
    assert "alphavqe:" in err
    assert "alphavqe: layers must be non-negative, got -1" in err
    assert "alphavqe: statistical mode needs a finite positive epsilon_total, got inf" in err
    assert "alphavqe: epsilon = 1e-200 asks for more than the 2**32 shots one estimate may take" in err
    assert (
        "alphavqe: epsilon_total = 1e-05 over measured_norm = 1.3 leaves each term a share of 7.69231e-06, "
        "which asks for more than the 2**32 shots one estimate may take"
    ) in err
    assert "alphavqe: epsilon_total = 1 over measured_norm = 1 leaves each term a share of 1, which alpha mode needs below 1" in err
    assert (
        "alphavqe: epsilon_total = 0.0001 over measured_norm = 1.3 leaves each term a share of 7.69231e-05, "
        "which at alpha = 0 and depth budget 32 needs at least 4.225e+07 stage-2 iterations (the Fisher bound "
        "at the window's deepest count, 2), more than 2 x the cap of 1000000 iterations a run may take"
    ) in err
    assert "alphavqe: epsilon_total = 1e-200 over measured_norm = 1 leaves each term a share of 1e-200, which asks" in err
    assert "target_epsilon" not in err
    assert "Traceback" not in err


def test_stage2_timeout_is_reported_without_a_traceback(monkeypatch, capsys):
    monkeypatch.setattr(engine, "HARD_ITERATION_CAP", 20)
    # 0.7071 passes the stage-1 gate; the config's Fisher bound, 22.5
    # iterations, is under two caps, so it is admitted, and stage 2 runs into
    # the cap
    assert main(["expectation", "--epsilon", "0.01", "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("alphavqe: sigma=")
    assert "after 20 iterations without reaching epsilon=0.01" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--epsilon", "1e-5"], "epsilon = 1e-05 asks for more than the 2**32 shots one estimate may take"),
        (
            ["--epsilon", "1e-4", "--dmax", "2"],
            "epsilon = 0.0001 at alpha = 0.5 and depth budget 2 needs at least 2.5e+07 stage-2 iterations "
            "(the Fisher bound at the window's deepest count, 2), more than 2 x the cap of 1000000 iterations "
            "a run may take",
        ),
        (
            # alpha = 0 pins the window to m in {1, 2} whatever the budget
            ["--alpha", "0", "--epsilon", "1e-4"],
            "epsilon = 0.0001 at alpha = 0 and depth budget 32 needs at least 2.5e+07 stage-2 iterations "
            "(the Fisher bound at the window's deepest count, 2), more than 2 x the cap of 1000000 iterations "
            "a run may take",
        ),
    ],
)
def test_a_budget_that_cannot_finish_is_refused_before_any_draw(monkeypatch, capsys, flags, message):
    def unreachable(*args):
        raise AssertionError("the estimator ran")

    monkeypatch.setattr(cli, "two_stage_estimate", unreachable)
    start = time.perf_counter()
    assert main(["expectation", "--trials", "1", *flags]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"alphavqe: {message}\n"


def test_vqe_statistical_at_a_huge_epsilon_takes_one_shot_per_term(tmp_path):
    args = ["vqe", "--mode", "statistical", "--epsilon", "1e200", "--iters", "0"]
    code, body = run_to_file(tmp_path, "v.csv", args)
    assert code == 0
    # toy1q has two terms
    assert "# total_measurements = 2" in body.decode()


def test_risk_surface_reads_two_zero_risks_as_agreeing(tmp_path):
    code, body = run_to_file(tmp_path, "r.csv", ["risk-surface", "--sigmas", "1e-200"])
    assert code == 0
    text = body.decode()
    assert ",1e-200,0,0,0\n" in text
    assert "# max_rel_err = 0\n" in text


@pytest.mark.parametrize("sigma", ["1e-155", "1e-158", "1e-160", "1e-161"])
def test_risk_surface_agrees_at_subnormal_variances(tmp_path, sigma):
    # sigma^2 is subnormal here; the quadrature scales by it only at the end
    args = ["risk-surface", "--mvals", "1", "--offsets", "0.3", "--sigmas", sigma]
    code, body = run_to_file(tmp_path, "r.csv", args)
    assert code == 0
    rel_err = float(body.decode().splitlines()[-2].split(",")[-1])
    assert rel_err < 1e-12


@pytest.mark.parametrize("flag, value", [("--mvals", "1e200"), ("--sigmas", "1e300")])
def test_risk_surface_refuses_squares_past_float_range(flag, value, capsys):
    assert main(["risk-surface", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("alphavqe: (m*sigma)^2 or sigma^2 is past float range at m*sigma = ")
    assert "Traceback" not in err


@pytest.mark.parametrize("mode, epsilon", [("exact", "1.5"), ("statistical", "1.5"), ("alpha", "1.0")])
def test_vqe_takes_a_total_epsilon_of_one_or_more(tmp_path, mode, epsilon):
    # the two-stage config holds the per-term share, 1.0 / 1.3 on toy2q in
    # alpha mode, and the other modes build none
    args = ["vqe", "--hamiltonian", "toy2q", "--mode", mode, "--epsilon", epsilon, "--iters", "2"]
    code, body = run_to_file(tmp_path, "v.csv", args)
    assert code == 0
    assert f"# epsilon = {float(epsilon):g}" in body.decode()


# which of --alpha, --epsilon and --dmax each subcommand sweeps as a list
SWEPT = {
    "expectation": {"alpha": False, "epsilon": False, "dmax": False},
    "vqe": {"alpha": False, "epsilon": False, "dmax": False},
    "phase-sim": {"alpha": True},
    "tradeoff": {"epsilon": True, "dmax": True},
}


@pytest.mark.parametrize("subcommand", sorted(SWEPT))
def test_help_says_single_valued_flags_take_one_value(subcommand, capsys):
    with pytest.raises(SystemExit) as done:
        main([subcommand, "--help"])
    assert done.value.code == 0
    # argparse wraps the lines; the usage line writes "[--alpha ALPHA]"
    text = " ".join(capsys.readouterr().out.split())
    for key, is_list in SWEPT[subcommand].items():
        flag_help = text.split(f"--{key} {key.upper()} ", 1)[1].split(" --", 1)[0]
        assert ("comma-separated" in flag_help) == is_list, flag_help


@pytest.mark.parametrize("subcommand", sorted(DEFAULT_CSV_DIGESTS))
def test_default_seed_csv_bytes_are_pinned(tmp_path, subcommand):
    code, body = run_to_file(tmp_path, f"{subcommand}.csv", [subcommand])
    assert code == 0
    version_line, rest = body.split(b"\n", 1)
    assert version_line.decode() == f"# alphavqe {__version__}"
    assert hashlib.sha256(rest).hexdigest() == DEFAULT_CSV_DIGESTS[subcommand]
