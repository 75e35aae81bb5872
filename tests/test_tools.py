import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "solve_sweep.py"


@pytest.fixture(scope="module")
def solve_sweep():
    spec = importlib.util.spec_from_file_location("solve_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mix(case, upper=0.25):
    return {"case": case, "d": 2, "path": "mix", "status": "Optimal", "iterations": 9,
            "upper": upper, "lower": 0.25 - 1e-9, "p": [0.5, 0.5],
            "sigma_mean": 0.2, "ap_mean": 0.9, "ad_mean": 0.9}


def synth(support):
    return {"case": "synth-12-0", "d": 2, "path": "prob_synth", "pivots": 8,
            "upper": 0.01, "lower": 0.01 - 1e-9, "p": [0.5, 0.25, 0.25],
            "support": support, "det_error": 0.1, "achieved_eps": 0.35,
            "det_synth_labels": ["H", "T"], "det_synth_error": 0.1}


def compare(solve_sweep, tmp_path, capsys, a, b):
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    for path, records in zip(paths, (a, b)):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(records, f)
    code = solve_sweep.main(["--compare", *paths])
    return code, capsys.readouterr().out


def test_compare_of_equal_sweeps_finds_nothing(solve_sweep, tmp_path, capsys):
    records = [mix("1-1"), mix("1-2"), synth([["H"], ["T"], ["H", "T"]])]
    code, out = compare(solve_sweep, tmp_path, capsys, records, records)
    assert code == 0
    assert "3 solves compared, 0 differ (0 in steps, 0 in support)" in out
    assert "in one sweep only" not in out
    assert "mix d=2: lower up 0, down 0, largest move down 0.0e+00 of upper\n" in out


def test_compare_prints_a_moved_bound(solve_sweep, tmp_path, capsys):
    code, out = compare(solve_sweep, tmp_path, capsys,
                        [mix("1-1"), mix("1-2")], [mix("1-1"), mix("1-2", 0.25 + 1e-12)])
    assert code == 1
    assert "largest move of upper: 1.000e-12 (1-2 mix)" in out
    assert "largest move of lower: 0.000e+00\n" in out
    assert "2 solves compared, 1 differ (0 in steps, 0 in support)" in out


def test_compare_counts_the_lowers_that_moved_up_and_down_per_path(solve_sweep, tmp_path,
                                                                  capsys):
    a = [mix("1-1"), mix("1-2"), mix("1-3"), dict(mix("1-4"), lower=0.0)]
    b = [dict(mix("1-1"), lower=0.25 - 5e-10), dict(mix("1-2"), lower=0.25 - 2e-9), mix("1-3"),
         dict(mix("1-4"), lower=0.25 - 3e-9)]
    code, out = compare(solve_sweep, tmp_path, capsys, a, b)
    assert code == 1
    # The move down is relative to the first sweep's upper: 1e-9 / 0.25.
    assert "mix d=2: lower up 2, down 1, largest move down 4.0e-09 of upper\n" in out
    assert "4 solves compared, 3 differ (0 in steps, 0 in support)" in out


def test_compare_prints_a_changed_support(solve_sweep, tmp_path, capsys):
    code, out = compare(solve_sweep, tmp_path, capsys,
                        [synth([["H"], ["T"], ["H", "T"]])],
                        [synth([["H"], ["T"], ["T", "H"]])])
    assert code == 1
    assert "synth-12-0 prob_synth: support 3 -> 3 labels, 1 out, 1 in" in out
    assert "1 solves compared, 1 differ (0 in steps, 1 in support)" in out
    assert "achieved_eps" not in out
    # Each moved achieved_eps is named, then counted with its largest move.
    support = [["H"], ["T"], ["H", "T"]]
    a = [dict(synth(support), case=f"synth-12-{i}") for i in range(3)]
    b = [a[0], dict(a[1], achieved_eps=0.3), dict(a[2], achieved_eps=0.36)]
    code, out = compare(solve_sweep, tmp_path, capsys, a, b)
    assert code == 1
    assert "synth-12-1 prob_synth: achieved_eps 0.35 -> 0.3\n" in out
    assert "synth-12-2 prob_synth: achieved_eps 0.35 -> 0.36\n" in out
    assert "2 achieved_eps moved, 1 down; largest move -5.000e-02 (synth-12-1 prob_synth)" in out
    assert "3 solves compared, 2 differ (0 in steps, 0 in support)" in out


def test_compare_counts_det_synth_keys_when_both_sweeps_have_them(solve_sweep, tmp_path,
                                                                   capsys):
    support = [["H"], ["T"], ["H", "T"]]
    code, out = compare(solve_sweep, tmp_path, capsys, [synth(support)],
                        [dict(synth(support), det_synth_labels=["T", "H"])])
    assert code == 1
    assert "1 solves compared, 1 differ (0 in steps, 0 in support)" in out
    # A sweep written without the keys is compared without them.
    old = {k: v for k, v in synth(support).items() if not k.startswith("det_synth")}
    code, out = compare(solve_sweep, tmp_path, capsys, [old],
                        [dict(synth(support), det_synth_error=0.2)])
    assert code == 0
    assert "1 solves compared, 0 differ" in out


def test_compare_reads_pivot_records_against_solver_records(solve_sweep, tmp_path, capsys):
    # A d = 2 answer of the solver (status, iterations) against the same answer by pivots:
    # the steps differ, the step counts are not compared, and members are counted.
    solved = dict(mix("1-1"), path="mix_1q", p=[0.2] * 5, upper=0.25 - 1e-12)
    pivoted = {k: v for k, v in mix("1-1").items()
               if k not in ("status", "iterations", "sigma_mean", "ap_mean", "ad_mean")}
    pivoted = dict(pivoted, path="mix_1q", pivots=3, p=[0.5, 0.5, 0.0, 0.0, 0.0])
    code, out = compare(solve_sweep, tmp_path, capsys, [solved], [pivoted])
    assert code == 1
    assert "1-1 mix_1q: Optimal after 9 -> 3 pivots\n" in out
    assert ("mix_1q: 1 records; iterations mean 9.00 max 9 -> pivots mean 3.00 max 3; "
            "fewer 0, equal 0, more 0, 1 counted otherwise; largest move upper 1.0e-12") in out
    assert "members at most 5 -> 2; mean sigma 0.200 -> -," in out
    assert "optimal_mix_1q answers with more than 4 members: 1 -> 0\n" in out
    assert "1 solves compared, 1 differ (1 in steps, 0 in support)" in out
    # Two sweeps of pivots compare their pivot counts.
    code, out = compare(solve_sweep, tmp_path, capsys, [pivoted], [dict(pivoted, pivots=4)])
    assert code == 1
    assert "1-1 mix_1q: 3 pivots -> 4 pivots\n" in out
    assert "pivots mean 3.00 max 3 -> pivots mean 4.00 max 4; fewer 0, equal 0, more 1;" in out


def test_compare_counts_unpaired_records_without_comparing_them(solve_sweep, tmp_path,
                                                                capsys):
    code, out = compare(solve_sweep, tmp_path, capsys,
                        [mix("1-1"), mix("1-2", 0.5)], [mix("1-1"), mix("1-3", 0.75)])
    assert code == 0
    assert "2 solves in one sweep only, not compared" in out
    assert "1 solves compared, 0 differ" in out


def test_compare_counts_a_lower_its_certificate_does_not_reproduce(solve_sweep, tmp_path,
                                                                    capsys):
    priced = dict(mix("1-1"), path="mix_1q", repriced=0.25 - 1e-9)
    code, out = compare(solve_sweep, tmp_path, capsys, [priced], [priced])
    assert code == 0
    assert "2 d = 2 lower bounds re-priced from v, 0 not reproduced" in out
    # A sweep written without repriced (the parent's, say) is compared as ever.
    off = dict(priced, repriced=0.25 - 2e-9)
    code, out = compare(solve_sweep, tmp_path, capsys, [dict(mix("1-1"), path="mix_1q")], [off])
    assert code == 1
    assert "1 solves compared, 0 differ" in out
    assert "1 d = 2 lower bounds re-priced from v, 1 not reproduced" in out
    code, out = compare(solve_sweep, tmp_path, capsys, [off], [off])
    assert code == 1
    assert "1 solves compared, 0 differ" in out
    assert "2 d = 2 lower bounds re-priced from v, 2 not reproduced" in out


@pytest.mark.parametrize("p", [[1.0], [0.25, 0.25, 0.5]], ids=["broadcasts", "mismatched"])
def test_compare_counts_a_p_of_another_length_as_differing(solve_sweep, tmp_path, capsys, p):
    # A p of length 1 would broadcast against the other into a move of 0.5; one of
    # length 3 would not subtract at all. Neither is a move.
    code, out = compare(solve_sweep, tmp_path, capsys,
                        [mix("1-1"), mix("1-2")], [mix("1-1"), dict(mix("1-2"), p=p)])
    assert code == 1
    assert f"1-2 mix: p has 2 -> {len(p)} entries" in out
    assert "largest move of p: 0.000e+00\n" in out
    assert "2 solves compared, 1 differ (0 in steps, 0 in support)" in out


def test_sweep_on_a_cut_down_set_solves_every_case(solve_sweep, monkeypatch):
    # Two mixing cases per seed (one at d = 3, one at d = 2 with its mix_1q), one
    # diamond4, kraus3, iso23 and replace32 case, one witness per family at d = 2 and 3,
    # and two prob_synth targets at L = 12.
    for name, value in (("CASES", 2), ("SUPPORT_CASES", 1), ("CHANNEL_CASES", 1),
                        ("SYNTH_CASES", 2), ("SYNTH_LENGTHS", (12,)),
                        ("WITNESS_DIMS", (2, 3)), ("WITNESS_EPS", (0.6,))):
        monkeypatch.setattr(solve_sweep, name, value)
    records = solve_sweep.sweep()
    paths = [(rec["path"], rec["d"]) for rec in records]
    assert paths == [("mix", 3), ("mix", 2), ("mix_1q", 2)] * 2 + [("mix", 4), ("mix", 3)] \
        + [("mix", [2, 3]), ("mix", [3, 2])] + [("sharpness", 2)] * 2 + [("sharpness", 3)] * 2 \
        + [("prob_synth", 2)] * 2
    assert [solve_sweep.group(rec) for rec in records[8:10]] == ["iso23", "replace32"]
    assert [rec["case"] for rec in records if rec["path"] == "sharpness"] == [
        "lower-2-0.6", "upper-2-0.6", "lower-3-0.6", "upper-3-0.6"]
    assert [len(rec["p"]) for rec in records if rec["path"] == "sharpness"] == [2, 4, 3, 8]
    # The d = 2 answers pivot, with no solve; every other record is one optimal solve.
    pivoted = [rec["path"] for rec in records if "pivots" in rec]
    assert pivoted == ["mix_1q"] * 2 + ["sharpness"] * 2 + ["prob_synth"] * 2
    assert all("p" in rec and ("pivots" in rec) != ("status" in rec) for rec in records)
    assert all(rec["status"] == "Optimal" for rec in records if "status" in rec)
    assert all(sum(x != 0 for x in rec["p"]) <= 4 for rec in records if "pivots" in rec)
    # Each d = 2 lower re-derived from its v in plain numpy is the checker's, bit for bit.
    priced = [rec for rec in records if "repriced" in rec]
    assert [(rec["path"], rec["d"]) for rec in priced] == [("mix_1q", 2)] * 2 + [
        ("sharpness", 2)] * 2
    assert sum(rec["repriced"] != rec["lower"] for rec in priced) == 0
    for rec in records[-2:]:  # the whole pool's best is no worse than the support's
        assert rec["det_synth_error"] <= rec["det_error"] + 1e-9
        assert all(isinstance(label, str) for label in rec["det_synth_labels"])


@pytest.fixture(scope="module")
def solve_time():
    spec = importlib.util.spec_from_file_location("solve_time", SWEEP.with_name("solve_time.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solve_time_against_its_own_source_runs_every_path(solve_sweep, solve_time, monkeypatch,
                                                           capsys):
    # The sweep's cut-down case set, each problem solved twice by each side;
    # both sides are this checkout's sdp.py, so their ratio is near 1. The d = 2
    # answers (mix_1q, prob_synth) pivot and pose no problem, so their paths are absent.
    for name, value in (("CASES", 2), ("SUPPORT_CASES", 1), ("CHANNEL_CASES", 1),
                        ("SYNTH_CASES", 1), ("SYNTH_LENGTHS", (12,)),
                        ("WITNESS_DIMS", (3,)), ("WITNESS_EPS", (0.6,))):
        monkeypatch.setattr(solve_time.solve_sweep, name, value)
    monkeypatch.setattr(solve_time, "REPEATS", 2)
    assert solve_time.main([str(SWEEP.parents[1] / "src")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "10 solves, fastest of 2 each; median us here, other, ratio"
    paths = [line.split(":")[0] for line in out[1:]]
    assert paths == [g for g in solve_sweep.GROUPS if g not in ("mix_1q", "prob_synth")] + ["all"]
    for line in out[1:]:
        here, other, ratio = (float(x) for x in line.split("; ")[1].split())
        assert here > 0 and other > 0 and ratio == pytest.approx(here / other, abs=1e-3)


def test_solve_time_refuses_a_tree_without_sdp_py_before_the_sweep(solve_time, monkeypatch,
                                                                   tmp_path, capsys):
    def refuse():
        raise AssertionError("the sweep ran")
    monkeypatch.setattr(solve_time.solve_sweep, "sweep", refuse)
    other = tmp_path / "no-src"
    with pytest.raises(SystemExit) as info:
        solve_time.main([str(other)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: {other}: no usynth/sdp.py in it\n")


def test_solve_time_poses_dense_blocks_as_complex_to_a_tree_with_a_complex_field(solve_time):
    # A tree whose Block still has a `complex` field defaults it to a real block,
    # so each dense block is posed to it with complex=True; this tree's Block has
    # only size and diag, and gets the blocks as they are.
    from usynth import sdp

    @dataclass(frozen=True)
    class Block:
        size: int
        complex: bool = False
        diag: bool = False

    older = SimpleNamespace(Block=Block, SdpProblem=sdp.SdpProblem)
    problem = sdp.SdpProblem([sdp.Block(2), sdp.Block(3, diag=True)], np.zeros(7),
                             np.zeros((0, 7)), np.zeros(0))
    posed = solve_time.in_module(older, problem)
    assert posed.blocks == [Block(2, complex=True), Block(3, diag=True)]
    assert posed.objective is problem.objective and posed.rhs is problem.rhs
    assert solve_time.in_module(sdp, problem).blocks == problem.blocks
