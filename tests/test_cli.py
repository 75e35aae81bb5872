import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from usynth import bounds, channels, cli, qubit1, synth
from usynth.linalg import haar_unitary, matrix_to_json


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


def test_diamond_on_qubit_unitaries_prints_the_closed_form(tmp_path, capsys):
    # Through the tie-set pivots, value is the exact distance of the two unitaries: I
    # against X prints 1.0, not a solver's 1.00000000171.
    rng = np.random.default_rng([3600, 0])
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    for U, V in ((np.eye(2), X), (haar_unitary(2, rng), haar_unitary(2, rng))):
        save_matrix(tmp_path / "u.json", U)
        save_matrix(tmp_path / "v.json", V)
        code, out, _ = run_cli(capsys, "diamond", str(tmp_path / "u.json"),
                               str(tmp_path / "v.json"))
        want = float(f"{channels.unitary_distance(U, V):.12g}")
        assert code == 0 and json.loads(out)["value"] == want


@pytest.mark.parametrize("d, value", [(2, 0.954159523224), (3, 0.635723893551)])
def test_diamond_reads_a_choi_matrix_file_as_its_unitary_file(tmp_path, capsys, d, value):
    # A d^2 x d^2 file that is no unitary is a Choi matrix, factored where it is read:
    # J(U) prints U's value. The gap moves by rounding, as U's factor is read off J.
    rng = np.random.default_rng([41, d])
    U, V = haar_unitary(d, rng), haar_unitary(d, rng)
    for name, M in (("u", U), ("j", channels.choi(U).J), ("v", V)):
        save_matrix(tmp_path / f"{name}.json", M)
    answers = [run_cli(capsys, "diamond", str(tmp_path / f"{a}.json"), str(tmp_path / "v.json"))
               for a in "uj"]
    (code_u, out_u, err_u), (code_j, out_j, err_j) = answers
    (gap_u, value_u), (gap_j, value_j) = (json.loads(out).values() for out in (out_u, out_j))
    assert code_u == code_j == 0 and err_u == err_j == ""
    assert value_u == value_j == value and abs(gap_u - gap_j) <= 1e-12
    # J read from the file and J formed from U are the same bits: exactly 0, unsolved.
    code, out, _ = run_cli(capsys, "diamond", str(tmp_path / "j.json"), str(tmp_path / "u.json"))
    assert (code, out) == (0, '{\n  "gap": 0.0,\n  "value": 0.0\n}\n')


def test_a_qubit_mixture_choi_file_takes_the_watrous_sdp(tmp_path, capsys, monkeypatch):
    # Rank two: no qubit unitary, so the distance is _mix's.
    rng = np.random.default_rng([41, 1])
    U, V, W = (haar_unitary(2, rng) for _ in range(3))
    mixture = channels.choi_mixture([channels.choi(V), channels.choi(W)], np.array([0.25, 0.75]))
    save_matrix(tmp_path / "u.json", U)
    save_matrix(tmp_path / "m.json", mixture.J)
    want = channels._mix(channels.choi(U), [mixture])[1]
    spy = mock.Mock(wraps=channels._mix)
    monkeypatch.setattr(channels, "_mix", spy)
    code, out, _ = run_cli(capsys, "diamond", str(tmp_path / "u.json"), str(tmp_path / "m.json"))
    assert code == 0 and spy.call_count == 1
    assert abs(json.loads(out)["value"] - want) <= 1e-9


def test_diamond_of_a_far_pair_prints_the_cap(tmp_path, capsys):
    # Two Haar unitaries at d = 4 whose repaired primal reads 1.0000000029: the value is
    # capped at the channels' (1 + 1) / 2.
    rng = np.random.default_rng([4, 0])
    for name in "uv":
        save_matrix(tmp_path / f"{name}.json", haar_unitary(4, rng))
    code, out, _ = run_cli(capsys, "diamond", str(tmp_path / "u.json"), str(tmp_path / "v.json"))
    assert code == 0 and '  "value": 1.0\n' in out


def test_mixopt_of_far_candidates_prints_at_most_one(tmp_path, capsys):
    # Uncapped, this mixture's upper read 1.0000000065.
    rng = np.random.default_rng([43, 3])
    Ms = [haar_unitary(3, rng) for _ in range(6)]
    (tmp_path / "cands").mkdir()
    for i in (1, 2, 5):
        save_matrix(tmp_path / "cands" / f"c{i}.json", Ms[i])
    save_matrix(tmp_path / "t.json", Ms[0])
    code, out, _ = run_cli(capsys, "mixopt", str(tmp_path / "t.json"), str(tmp_path / "cands"))
    assert code == 0 and json.loads(out)["value"] <= 1.0


def test_a_matrix_neither_unitary_nor_choi_shaped_exits_2(tmp_path, capsys):
    path = str(tmp_path / "m.json")
    save_matrix(path, np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    code, out, err = run_cli(capsys, "diamond", path, path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: neither a unitary nor a Choi-shaped matrix\n"


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


def test_mixopt_without_candidates_exits_2(tmp_path, capsys):
    cdir = tmp_path / "cands"
    cdir.mkdir()
    (cdir / "notes.txt").write_text("not a candidate\n")
    tgt = str(tmp_path / "t.json")
    save_matrix(tgt, np.eye(2, dtype=complex))
    code, out, err = run_cli(capsys, "mixopt", tgt, str(cdir))
    assert code == 2 and out == ""
    assert err == "error: no candidate .json files found\n"


def test_synth1q_rejects_a_huge_finite_target_with_only_its_error_line(tmp_path, capsys):
    # U^dag U of this target overflows; the check fails before it is formed.
    path = str(tmp_path / "huge.json")
    save_matrix(path, np.array([[1e200, 0.0], [0.0, 1.0]]))
    code, out, err = run_cli(capsys, "synth1q", "--target", path, "--eps", "0.35")
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err == "error: matrix is not unitary within tolerance\n"


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

    # The commands that print the generic SDP's certified bounds.
    rng = np.random.default_rng(3)
    cdir = tmp_path / "cands"
    cdir.mkdir()
    for i in range(3):
        save_matrix(str(cdir / f"c{i}.json"), haar_unitary(2, rng))
    tgt = str(tmp_path / "t.json")
    save_matrix(tgt, haar_unitary(2, rng))
    for argv in (["diamond", tgt, str(cdir / "c0.json")],
                 ["mixopt", tgt, str(cdir)],
                 ["sharpness", "--d", "3", "--eps", "0.6", "--family", "lower"],
                 ["sharpness", "--d", "2", "--eps", "0.6", "--family", "upper"],
                 ["sharpness", "--d", "3", "--eps", "0.6", "--family", "upper"]):
        first, second = (run_cli(capsys, *argv) for _ in range(2))
        assert first == second and first[0] == 0


def _haar_answer(tmp_path, i, seed, samples=0):
    """synth1q's --out answer for the Haar target default_rng([33, i]), and the target."""
    U = haar_unitary(2, np.random.default_rng([33, i]))
    target, out = str(tmp_path / f"t{i}.json"), str(tmp_path / f"a{i}-{seed}.json")
    save_matrix(target, U)
    assert cli.main(["synth1q", "--target", target, "--eps", "0.35", "--max-len", "12",
                     "--seed", str(seed), "--samples", str(samples), "--out", out]) == 0
    with open(out) as f:
        return json.load(f), U


def test_synth1q_answer_rechecks_from_its_own_bytes(tmp_path, std_pool):
    # Each listed member is rebuilt from its labels alone, with the gates
    # written out here, and the listed weights give the printed prob_error.
    t = np.exp(1j * np.pi / 4)
    gates = {"H": np.array([[1, 1], [1, -1]]) / np.sqrt(2), "S": np.diag([1, 1j]),
             "Sdg": np.diag([1, -1j]), "T": np.diag([1, t]), "Tdg": np.diag([1, np.conj(t)])}
    for i in range(3):
        obj, U = _haar_answer(tmp_path, i, 0)
        W = []
        for labels in obj["support"]:
            V = np.eye(2, dtype=complex)
            for g in labels:  # the leftmost label acts first
                V = gates[g] @ V
            W.append(qubit1.magic_embed(V))
        p = np.array(obj["p"])
        u = qubit1.magic_embed(U)
        assert abs(qubit1.mix_distance_1q(u, np.stack(W), p) - obj["prob_error"]) <= 1e-9
        assert abs(p.sum() - 1) <= 1e-9 and (p > 0).all()
        assert obj["support_size"] == len(synth.prob_synth(U, 0.35, 1e-6, std_pool).support)


def test_synth1q_samples_index_the_printed_support(tmp_path, std_pool):
    # Drawn over the weighted members, the samples name the sequences a draw
    # over the whole support names.
    for i in range(10):
        for seed in range(5):
            obj, U = _haar_answer(tmp_path, i, seed, samples=40)
            if seed == 0:
                res = synth.prob_synth(U, 0.35, 1e-6, std_pool)
            assert all(0 <= k < len(obj["support"]) for k in obj["samples"])
            full = [list(res.support[k]) for k in synth.sample(res.p, seed, 40)]
            assert [obj["support"][k] for k in obj["samples"]] == full


def _parsed(capsys, ap, argv):
    """What a parse prints and returns: its exit code or namespace, stdout and stderr."""
    try:
        got = vars(ap.parse_args(argv))
    except SystemExit as exc:
        got = exc.code
    out = capsys.readouterr()
    return got, out.out, out.err


PARSE_CASES = [
    ["synth1q", "--target", "T", "--eps", "0.3", "--samples", "7", "--max-len", "9"],
    ["synth1q", "--target", "T"],
    ["synth1q", "--target", "T", "--eps", "x"],
    ["synth1q", "--target", "T", "--eps", "0.3", "--bogus"],
    ["synth1q", "--target", "T", "--eps", "0.3", "extra"],
    ["synth1q", "--help"],
    ["synth1q"],
    ["diamond", "a.json"],
    ["diamond", "a.json", "b.json"],
    ["mixopt", "-h"],
    ["bounds", "--d", "2", "--eps-grid", "0.1:0.2:0.1", "--out", "o.csv"],
    ["sharpness", "--d", "2", "--eps", "0.2", "--family", "mid"],
    ["axial", "--target-theta", "0.3"],
    ["axial", "--target-theta", "0.3", "--thetas", "0.1,0.5"],
]
# Every subcommand in the table, with -h and bare, so a new entry is covered too.
PARSE_CASES += [argv for name in cli.COMMANDS for argv in ([name, "-h"], [name])
                if argv not in PARSE_CASES]


@pytest.mark.parametrize("argv", PARSE_CASES)
def test_one_subcommand_parser_parses_as_the_whole_one(capsys, argv):
    # main builds only the subcommand its first argument names.
    whole = _parsed(capsys, cli.build_parser(), argv)
    assert _parsed(capsys, cli.build_parser(argv[0]), argv) == whole
    assert (whole[0] == 0) == ("-h" in argv or "--help" in argv)


@pytest.mark.parametrize("argv", [[], ["-h"], ["synth"], ["--", "synth1q"]])
def test_a_first_argument_naming_no_subcommand_gets_the_whole_parser(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    assert code == (0 if argv == ["-h"] else 2)
    assert "{diamond,mixopt,synth1q,bounds,sharpness,axial}" in out.out + out.err


@pytest.mark.parametrize("samples", ["1000001", "10000000000000"])
def test_synth1q_rejects_more_than_a_million_samples(tmp_path, capsys, monkeypatch, samples):
    # Checked before any work: 10**13 samples would ask rng.choice for 72.8 TiB.
    monkeypatch.setattr(cli, "_load_target", None)
    out_path = tmp_path / "o.json"
    code, out, err = run_cli(capsys, "synth1q", "--target", "T", "--eps", "0.35",
                             "--samples", samples, "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err == f"error: --samples {samples}: more than 1000000\n"


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


def test_bounds_d2_prints_lower_equal_to_upper_at_small_eps(capsys):
    # At eps = 1e-8, 1 - sqrt(1 - eps^2) would cancel to 1.1e-16 and print lower = 2 upper.
    code, out, _ = run_cli(capsys, "bounds", "--d", "2", "--eps-grid", "1e-8:3e-8:1e-8")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "eps,delta,lower,upper" and len(lines) == 4
    for line in lines[1:]:
        _, _, lower, upper = line.split(",")
        assert lower == upper


@pytest.mark.parametrize("grid", ["0.1:0.3:0", "0.3:0.1:0.1", "0.1:0.3:-0.1", "nan:0.3:0.1",
                                  "0.1:inf:0.1", "0.1:0.3:inf"])
def test_bounds_rejects_empty_or_endless_eps_grid(capsys, grid):
    code, out, err = run_cli(capsys, "bounds", "--d", "2", "--eps-grid", grid)
    assert code == 2 and out == ""
    assert "need finite a <= b and step > 0" in err


@pytest.mark.parametrize("grid, points", [("0:1:1e-12", "1000000000001"), ("0:1:1e-8", "100000001"),
                                          ("0:1:1e-6", "1000001"),
                                          ("0:1e308:1e-10", "infinitely many")])
def test_bounds_rejects_an_eps_grid_of_more_than_a_million_points(capsys, grid, points):
    # Checked before any grid is built: 0:1:1e-12 would ask np.arange for 7.28 TiB.
    code, out, err = run_cli(capsys, "bounds", "--d", "2", "--eps-grid", grid)
    assert code == 2 and out == ""
    assert err == f"error: --eps-grid {grid}: {points} points, more than 1000000\n"


def test_import_does_not_load_qhull(tmp_path):
    # scipy.spatial is imported only inside qubit1.covering_radius and
    # scipy.optimize only inside synth.campbell_mix: loading them would add to
    # the start-up time and memory of every CLI command. synth1q and mixopt
    # run without any scipy module.
    cdir = tmp_path / "cands"
    cdir.mkdir()
    rng = np.random.default_rng(4)
    for i in range(2):
        save_matrix(str(cdir / f"c{i}.json"), haar_unitary(3, rng))
    save_matrix(str(tmp_path / "t.json"), haar_unitary(3, rng))
    code = ("import sys, usynth.cli; "
            "print([m in sys.modules for m in ('scipy.spatial', 'scipy.optimize')]); "
            "assert usynth.cli.main(['synth1q', '--target', 'T', '--eps', '0.35', "
            "'--out', sys.argv[1] + '/s.json']) == 0; "
            "assert usynth.cli.main(['mixopt', sys.argv[1] + '/t.json', sys.argv[1] + '/cands', "
            "'--out', sys.argv[1] + '/m.json']) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:2] == ["[False, False]", "[]"]


@pytest.mark.parametrize("argv, message", [
    (["axial", "--target-theta", "nan", "--thetas", "0,1"], "must be finite"),
    (["axial", "--target-theta", "0", "--thetas", "nan,1"], "must be finite"),
    (["synth1q", "--target", "T", "--eps", "0.3", "--delta", "nan"], "delta must be positive"),
    (["sharpness", "--d", "2", "--eps", "nan", "--family", "lower"], "eps must lie in [0, 1]"),
    (["sharpness", "--d", "2", "--eps", "nan", "--family", "upper"], "eps must lie in [0, 1]"),
    (["sharpness", "--d", "2", "--eps", "inf", "--family", "upper"], "eps must lie in [0, 1]"),
    (["synth1q", "--target", "T", "--eps", "0.35", "--samples", "-5"],
     "--samples must be nonnegative"),
])
def test_non_finite_arguments_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_non_finite_result_is_not_emitted(tmp_path, capsys, monkeypatch):
    # JSON has no NaN or Infinity: a non-finite result exits 2 and writes
    # nothing, to stdout or to --out.
    from usynth import bounds

    monkeypatch.setattr(bounds, "axial_optimal", lambda t, ts: (np.ones(len(ts)), np.inf))
    out_path = tmp_path / "o.json"
    for extra in ([], ["--out", str(out_path)]):
        code, out, err = run_cli(capsys, "axial", "--target-theta", "0", "--thetas", "0,1",
                                 *extra)
        assert code == 2 and out == "" and "JSON" in err
    assert not out_path.exists()


def test_sharpness_lower_d2(capsys):
    code, out, _ = run_cli(capsys, "sharpness", "--d", "2", "--eps", "0.5", "--family", "lower")
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 2
    assert obj["slack"] < 1e-5
    assert abs(obj["expected"] - 0.25) < 1e-12


@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_sharpness_upper_d2_is_exact_at_small_eps(capsys, eps):
    # The d = 2 witness is a vertex of 2 members, which the tie-set pivots reach
    # exactly: slack/expected is rounding, where a 1e-8 solver width read 36% at 1e-4.
    code, out, _ = run_cli(capsys, "sharpness", "--d", "2", "--eps", str(eps),
                           "--family", "upper")
    assert code == 0
    obj = json.loads(out)
    assert obj["expected"] == pytest.approx(eps**2, rel=1e-12)
    assert obj["slack"] / obj["expected"] <= 1e-6


@pytest.mark.parametrize("family", ["lower", "upper"])
@pytest.mark.parametrize("d", [11, 10**6])
def test_sharpness_rejects_d_above_ten_before_building_a_witness(capsys, monkeypatch, family, d):
    # upper builds 2^d Choi operators of size d^2 x d^2: about 6.7 GB of unitaries at d = 20.
    def refuse(*args):
        raise AssertionError("a witness was built")
    monkeypatch.setattr(bounds, "lower_family", refuse)
    monkeypatch.setattr(bounds, "upper_family", refuse)
    code, out, err = run_cli(capsys, "sharpness", "--d", str(d), "--eps", "0.5",
                             "--family", family)
    assert code == 2 and out == ""
    assert err == f"error: --d {d}: more than 10\n"


def test_sharpness_upper_d3_d4(capsys):
    # The 2^d sign-dressed rotations attain eps^2 beyond qubits.
    for d in (3, 4):
        code, out, _ = run_cli(capsys, "sharpness", "--d", str(d), "--eps", "0.6",
                               "--family", "upper")
        assert code == 0
        obj = json.loads(out)
        assert obj["size"] == 2**d
        assert obj["slack"] <= 1e-7
        assert abs(obj["expected"] - 0.36) < 1e-12


def test_sequence_budget_exceeded_exits_2(capsys, monkeypatch):
    # The CLI enumerates with synth.BUDGET = 500,000 sequences; a budget of
    # 10 reaches the same error in milliseconds.
    from usynth import synth

    monkeypatch.setattr(synth, "BUDGET", 10)
    code, out, err = run_cli(capsys, "synth1q", "--target", "T", "--eps", "0.35")
    assert code == 2 and out == ""
    assert err.startswith("error: sequence budget 10 exceeded at length ")


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


@pytest.mark.parametrize("kind, content, message", [
    ("matrix", {"rows": 1, "cols": 1, "data": [1]}, 'expected {"rows"'),
    ("matrix", {"rows": 1, "cols": 1, "data": [["a", "b"]]}, 'expected {"rows"'),
    ("matrix", [[1, 0], [0, 1]], 'expected {"rows"'),
    ("matrix", {"rows": 1.9, "cols": "1", "data": [[1, 0]]}, 'expected {"rows"'),
    ("matrix", {"rows": True, "cols": True, "data": [[1, 0]]}, 'expected {"rows"'),
    ("matrix", {"rows": -1, "cols": -1, "data": [[1, 0]]}, 'expected {"rows"'),
    ("gateset", {"gates": 5}, 'expected {"gates"'),
    ("gateset", {"gates": [{"label": "A", "matrix": matrix_to_json(np.eye(2))},
                           {"label": "A", "matrix": matrix_to_json(np.diag([1, 1j]))}]},
     "labels must be distinct"),
], ids=["bare-entry", "string-entries", "top-level-list", "float-and-string-dims",
        "boolean-dims", "negative-dims", "gates-not-a-list", "duplicate-labels"])
def test_malformed_input_files_exit_2(tmp_path, capsys, kind, content, message):
    path = str(tmp_path / "in.json")
    with open(path, "w") as f:
        json.dump(content, f)
    if kind == "matrix":
        argv = ["synth1q", "--target", path, "--eps", "0.35"]
    else:
        argv = ["synth1q", "--target", "H", "--eps", "0.35", "--gateset", path]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


def test_exit_code_synth1q_sdp_failure(monkeypatch, capsys, tmp_path):
    # The d = 2 mixing makes no SDP: a walk of tie-set pivots that reaches no
    # certificate within qubit1.PIVOTS is the failure exit code 3 reports. (H is a
    # pool row, whose answer needs no pivot; a Haar target needs some.)
    target = str(tmp_path / "u.json")
    save_matrix(target, haar_unitary(2, np.random.default_rng(3)))
    monkeypatch.setattr(qubit1, "PIVOTS", 0)
    code, out, err = run_cli(capsys, "synth1q", "--target", target, "--eps", "0.35")
    assert code == 3
    assert out == "" and err.startswith("error: no certificate after 0 pivots: width ")


def test_synth1q_help_states_label_order(capsys):
    assert cli.main(["synth1q", "--help"]) == 0
    assert "leftmost label acts first" in " ".join(capsys.readouterr().out.split())


def test_exit_code_covering(capsys):
    code, out, err = run_cli(capsys, "synth1q", "--target", "H", "--eps", "0.05",
                             "--max-len", "3")
    assert code == 4
    assert out == ""
    # The library's advice, once, as every other error line. The radius is taken over
    # the cover points that can cover the 2*eps-ball (qubit1.cap_covering).
    assert err == (
        "error: deterministic synthesis reached radius 0.121559 > c'*eps = 0.025; "
        "use a longer pool or a larger eps\n"
    )


def test_exit_code_synth1q_eps_outside_domain(capsys):
    code, out, err = run_cli(capsys, "synth1q", "--target", "H", "--eps", "0.6")
    assert code == 2
    assert out == ""
    assert "prob_synth needs 0 < eps < 1/2" in err
