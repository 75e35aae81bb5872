"""Tiny-size runs of each workload: result schema, verifiers, determinism.

    python -m pytest -q bench
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_COVER_EPS = 0.35  # a few hundred net points instead of 986


def make(name: str, seed: int, workdir) -> object:
    if name == "cover":
        return workloads.Cover(seed, str(workdir), eps=TINY_COVER_EPS)
    return workloads.WORKLOADS[name](seed, str(workdir))


def expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name,trace", [("synth1q", 0), ("mix_d3", 0), ("synth1q", 1)])
def test_result_line_schema(name, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == run.item_count(workloads.WORKLOADS[name], 1)
    assert 0 <= result["failed"] <= result["attempted"]
    want = expected("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_cover_end_to_end_tiny(tmp_path):
    wl = make("cover", 3, tmp_path)
    metrics, items, problems, extra = run.end_to_end(wl, workloads, seconds=0.3)
    assert len(items) == run.item_count(wl, 0.3)
    assert {k: v["unit"] for k, v in metrics.items()} == expected("end_to_end")
    assert problems == [] and items[0].status == "ok"
    assert extra["fail_rate"]["value"] == 0.0


def test_traced_run_lists_every_layer_even_unentered(tmp_path):
    tr, items, scale = run.traced_items(make("mix_d3", 5, tmp_path), tracing,
                                        workloads.PROGRAM_FAILURES, 1)
    m = tracing.layer_metrics(tr.spans, len(items), scale)
    per_layer = {k for k in expected("per_layer") if not k.startswith("trace.")}
    assert set(m) == per_layer
    assert m["cli.main.calls"]["value"] == 0 and m["synth.enumerate_sequences.calls"]["value"] == 0
    assert m["sdp.solve.calls"]["value"] == 1


def _corrupt(name: str, wl):
    call = wl.call
    if name == "synth1q":
        def corrupted(inp):
            call(inp)
            res = json.loads(Path(inp["out"]).read_text())
            res["prob_error"] += 1e-3
            Path(inp["out"]).write_text(json.dumps(res))
    elif name == "mix_d3":
        def corrupted(inp):
            p, value = call(inp)
            return p, value + 1e-3
        make_input = wl.make_input
        wl.make_input = lambda i: dict(make_input(i), reference=True)
    else:
        def corrupted(u):
            idx, p, value = call(u)
            return idx, p, value + 1e-3
    wl.call = corrupted


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corrupted_results_count_as_failures(name, tmp_path):
    wl = make(name, 7, tmp_path)
    wl.setup()
    _corrupt(name, wl)
    items = run.run_items(wl, workloads.PROGRAM_FAILURES, 2)
    wl.close()
    assert [it.status for it in items] == ["mismatch", "mismatch"]
    assert run.summary(items)["mismatch"] == 2


@pytest.mark.parametrize("name,n", [("synth1q", 3), ("mix_d3", 2), ("cover", 4)])
def test_same_seed_same_inputs_and_counts(name, n, tmp_path):
    runs = []
    for k in range(2):
        wl = make(name, 11, tmp_path / str(k))
        tr, items, _ = run.traced_items(wl, tracing, workloads.PROGRAM_FAILURES, n)
        inputs = [wl.make_input(i) for i in range(n)]
        wl.close()
        runs.append((tr.digest(), [(it.status, it.detail) for it in items], inputs))
    (d0, s0, in0), (d1, s1, in1) = runs
    assert d0 == d1 and s0 == s1
    for a, b in zip(in0, in1):
        if isinstance(a, dict):
            a, b = [a["U"], *a.get("cands", [])], [b["U"], *b.get("cands", [])]
        np.testing.assert_array_equal(a, b)
    names = {name for name, *_ in d0}
    assert "sdp.solve" in names
