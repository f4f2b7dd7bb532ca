"""Command-line interface: argument handling, config files, CSV determinism."""

import numpy as np
import pytest

from alphavqe.cli import main


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
    args = ["tradeoff", "--config", str(cfg), "--dmax", "2"]
    code, body = run_to_file(tmp_path, "p.csv", args)
    assert code == 0
    assert "# seed = 7" in body.decode()
    code, body = run_to_file(tmp_path, "q.csv", args + ["--seed", "9"])
    assert "# seed = 9" in body.decode()
    assert "# epsilon = 0.1" in body.decode()


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sneed = 7\n", encoding="utf-8")
    assert main(["tradeoff", "--config", str(cfg)]) == 1
    assert "sneed" in capsys.readouterr().err


def test_bad_inputs_exit_nonzero(capsys):
    assert main(["vqe", "--hamiltonian", "/no/such/file.txt", "--mode", "exact"]) == 1
    assert main(["expectation", "--avalues", "1.5", "--trials", "1"]) == 1
    assert main(["collapse-check", "--phis", "0.0"]) == 1
    assert main(["vqe", "--hamiltonian", "toy1q", "--mode", "quantum"]) == 1
    err = capsys.readouterr().err
    assert "alphavqe:" in err
