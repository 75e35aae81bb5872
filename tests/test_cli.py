import json
import os
from dataclasses import replace

import numpy as np
import pytest

from usynth import cli, sdp
from usynth.linalg import matrix_to_json


def save_matrix(path, M):
    with open(path, "w") as f:
        json.dump(matrix_to_json(M), f)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_diamond_named_equivalents(tmp_path, capsys):
    i_path = str(tmp_path / "i.json")
    x_path = str(tmp_path / "x.json")
    save_matrix(i_path, np.eye(2, dtype=complex))
    save_matrix(x_path, np.array([[0, 1], [1, 0]], dtype=complex))
    code, out, _ = run_cli(capsys, "diamond", i_path, x_path)
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["value"] - 1.0) < 1e-6
    assert obj["gap"] <= 1e-6


def test_mixopt_axial(tmp_path, capsys):
    def rz(t):
        return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])

    cdir = tmp_path / "cands"
    cdir.mkdir()
    thetas = [0, np.pi / 3, 2 * np.pi / 3, np.pi, 4 * np.pi / 3, 5 * np.pi / 3]
    for i, t in enumerate(thetas):
        save_matrix(str(cdir / f"c{i}.json"), rz(t))
    tgt = str(tmp_path / "t.json")
    save_matrix(tgt, rz(np.pi / 2))
    code, out, _ = run_cli(capsys, "mixopt", tgt, str(cdir))
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["value"] - np.sin(np.pi / 12) ** 2) < 1e-6
    assert len(obj["p"]) == 6
    assert obj["candidates"] == sorted(obj["candidates"])


def test_synth1q_byte_identical_reruns(tmp_path, capsys):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    args = ["synth1q", "--target", "T", "--eps", "0.35", "--delta", "1e-6",
            "--seed", "7", "--samples", "20"]
    assert cli.main(args + ["--out", out1]) == 0
    assert cli.main(args + ["--out", out2]) == 0
    capsys.readouterr()
    with open(out1, "rb") as f:
        a = f.read()
    with open(out2, "rb") as f:
        b = f.read()
    assert a == b
    obj = json.loads(a)
    assert obj["prob_error"] <= obj["achieved_eps"] ** 2 + 1e-6
    assert obj["prob_error_lower"] <= obj["prob_error"] <= obj["prob_error_lower"] + 1e-6
    assert len(obj["samples"]) == 20


def test_synth1q_named_rz_target(capsys):
    code, out, _ = run_cli(
        capsys, "synth1q", "--target", "Rz(0.785398163397448)", "--eps", "0.35"
    )
    assert code == 0
    obj = json.loads(out)
    # Rz(pi/4) is T up to phase, present in the pool exactly
    assert obj["det_error"] < 1e-6


def test_bounds_csv_d2_columns_match(tmp_path, capsys):
    out = str(tmp_path / "curve.csv")
    code, _, _ = run_cli(capsys, "bounds", "--d", "2", "--eps-grid", "0.1:0.5:0.1",
                         "--out", out)
    assert code == 0
    with open(out) as f:
        lines = f.read().strip().splitlines()
    assert lines[0] == "eps,delta,lower,upper"
    assert len(lines) == 6
    for line in lines[1:]:
        eps, delta, lower, upper = (float(x) for x in line.split(","))
        assert abs(lower - upper) < 1e-12
        assert abs(upper - eps * eps) < 1e-12


def test_sharpness_lower_d2(capsys):
    code, out, _ = run_cli(capsys, "sharpness", "--d", "2", "--eps", "0.5",
                           "--family", "lower", "--mesh", "0.05")
    assert code == 0
    obj = json.loads(out)
    assert obj["slack"] < 1e-5
    assert abs(obj["expected"] - 0.25) < 1e-12


def test_axial_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "axial", "--target-theta", str(np.pi / 2),
        "--thetas", ",".join(str(t) for t in
                             [0, np.pi / 3, 2 * np.pi / 3, np.pi, 4 * np.pi / 3, 5 * np.pi / 3])
    )
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["value"] - 0.0669872981078) < 1e-9


def test_twelve_sig_digit_formatting():
    assert cli._sig12(0.06698729810778065) == 0.0669872981078
    assert cli._sig12(1.0) == 1.0


def test_exit_code_parse_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "diamond", "/no/such/file.json", "/none.json")
    assert code == 2
    code, _, _ = run_cli(capsys, "bounds", "--d", "2", "--eps-grid", "bad")
    assert code == 2
    code, _, _ = run_cli(capsys, "nosuchcommand")
    assert code == 2
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as f:
        f.write("{not json")
    code, _, _ = run_cli(capsys, "diamond", bad, bad)
    assert code == 2


def test_exit_code_synth1q_sdp_failure(monkeypatch, capsys):
    solve = sdp.solve
    monkeypatch.setattr(sdp, "solve", lambda *a, **k: replace(solve(*a, **k), status="MaxIter"))
    code, out, err = run_cli(capsys, "synth1q", "--target", "H", "--eps", "0.35")
    assert code == 3
    assert out == "" and "status MaxIter" in err


def test_synth1q_help_states_label_order(capsys):
    assert cli.main(["synth1q", "--help"]) == 0
    assert "leftmost label acts first" in " ".join(capsys.readouterr().out.split())


def test_exit_code_covering(capsys):
    code, _, err = run_cli(capsys, "synth1q", "--target", "H", "--eps", "0.05",
                           "--max-len", "3")
    assert code == 4
    assert "achieved radius" in err


def test_exit_code_synth1q_eps_outside_domain(capsys):
    code, out, err = run_cli(capsys, "synth1q", "--target", "H", "--eps", "0.6")
    assert code == 2
    assert out == ""
    assert "prob_synth needs 0 < eps < 1/2" in err
