"""usynth benchmark: one closed-loop client drives one workload.

    python3 bench/run.py --workload {synth1q,mix_d3,cover} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The client sends the next item only
after the previous one returns, as a script or a CLI invocation does.
Every result is checked outside the timed region. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: with `--trace 0` the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced run and its overhead against the same
items replayed untraced. Records and spans go to `bench/out/`.
"""

import os

# BLAS reads these once, when numpy is first imported. `cli.main` sets them
# from USYNTH_THREADS only after numpy is loaded, so they are set here.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
# Set-ups per run: at least SETUP_REPEATS, more while they add up to less
# than SETUP_MIN_S, so that cheap set-ups get a steadier median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 25


# The host's CPU speed drifts by up to a third within a minute (shared
# cores), and the drift swamps the program's own run-to-run spread. So a
# fixed kernel of interpreter and small-matrix work, like usynth's own, is
# timed before and after every item, and each time is rescaled to the speed
# at which the kernel takes KERNEL_REF_S. Raw wall times are kept as `wall`.
KERNEL_REF_S = 0.003
_RNG = np.random.default_rng(0)
_KERNEL_X = _RNG.standard_normal((18, 18))
_KERNEL_A = _RNG.standard_normal((4, 18, 18))
_KERNEL_M = _KERNEL_X[:16, :16] @ _KERNEL_X[:16, :16].T + 16 * np.eye(16)
SPEED_WINDOW = 2  # items on each side whose kernel times set an item's speed


def kernel_seconds() -> float:
    """Interpreter loop, unoptimised einsum, tiny-array numpy calls and small
    LAPACK calls, under 1 ms each."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(10000):
        acc += k * k
    np.einsum("ab,ibc,cd->iad", _KERNEL_X, _KERNEL_A, _KERNEL_X)
    small = _KERNEL_X[:4, :4]
    for _ in range(100):
        acc += float(np.sum(np.abs(small @ small.T)))
    for _ in range(30):
        np.linalg.eigvalsh(_KERNEL_M @ _KERNEL_M)
    return time.perf_counter() - t0


@dataclass
class Item:
    i: int
    latency: float  # s at the reference speed; see KERNEL_REF_S
    status: str     # "ok" | "failed" | "mismatch" | "unverified"
    detail: str
    wall: float     # s as measured
    kernel: float   # mean kernel time around the item


def item_count(wl, seconds: float) -> int:
    """Items in a run of `seconds`: fixed by the workload's nominal rate, not
    by the clock, so that a seed fixes which items run and how many fail."""
    return max(1, round(seconds * wl.items_per_s))


def run_items(wl, failures, n: int, tracer=None) -> list[Item]:
    """Closed loop over items 0, 1, ..., n - 1."""
    items = []
    for i in range(n):
        inp = wl.make_input(i)
        k0 = kernel_seconds()
        if tracer is not None:
            tracer.item = i
        t0 = time.perf_counter()
        try:
            out = wl.call(inp)
        except failures as exc:
            wall = time.perf_counter() - t0
            status, detail = "failed", f"{type(exc).__name__}: {exc}"
        else:
            wall = time.perf_counter() - t0
            status, detail = None, ""
        finally:
            if tracer is not None:
                tracer.item = None
        k = (k0 + kernel_seconds()) / 2
        if status is None:
            status, detail = wl.check(inp, out)
        items.append(Item(i, wall, status, detail, wall, k))
    for it in items:
        near = items[max(0, it.i - SPEED_WINDOW): it.i + SPEED_WINDOW + 1]
        it.latency = it.wall * KERNEL_REF_S / statistics.median(x.kernel for x in near)
    return items


def import_seconds() -> float:
    """Time to import usynth in a fresh interpreter, as each CLI call pays."""
    code = "import time; t = time.perf_counter(); import usynth.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(res.stdout)


def timed_setup(wl) -> float:
    """One set-up: import, the workload's precomputation and its first input.

    Rescaled to the reference speed like the items.
    """
    k0 = kernel_seconds()
    t = import_seconds()
    t0 = time.perf_counter()
    wl.setup()
    wl.make_input(0)
    t += time.perf_counter() - t0
    return t * KERNEL_REF_S / ((k0 + kernel_seconds()) / 2)


def percentile(values: list[float], q: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def summary(items: list[Item]) -> dict:
    """Counts by status; throughput counts every answered item, goodput only
    the verified ones."""
    count = {k: sum(it.status == k for it in items) for k in ("ok", "failed", "mismatch", "unverified")}
    busy = sum(it.latency for it in items)
    return dict(count, attempted=len(items), busy_s=busy,
                throughput=len(items) / busy if busy > 0 else 0.0,
                goodput=count["ok"] / busy if busy > 0 else 0.0)


def machine() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(wl, workloads, seconds: float) -> tuple[dict, list[Item], list[str], dict]:
    setups = []
    while len(setups) < SETUP_REPEATS or (
        sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
    ):
        setups.append(timed_setup(wl))
    items = run_items(wl, workloads.PROGRAM_FAILURES, item_count(wl, seconds))
    s = summary(items)
    # Failed items keep their measured latency and count as answered, so
    # that the metrics stay finite and do not swing with the number of
    # failures in a run; failures are counted in fail_rate and goodput.
    lat = [it.latency for it in items]
    metrics = {
        "throughput_items_per_s": metric(s["throughput"], "items/s"),
        "latency_p50_s": metric(percentile(lat, 0.5), "s"),
        # A mix_d3 run holds 30 items, so p75 keeps about eight samples
        # beyond it.
        "latency_p75_s": metric(percentile(lat, 0.75), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "fail_rate": metric((s["failed"] + s["mismatch"]) / s["attempted"], "ratio"),
        "goodput_items_per_s": metric(s["goodput"], "items/s"),
        "wall_throughput_items_per_s": metric(len(items) / sum(it.wall for it in items), "items/s"),
        "wall_latency_p50_s": metric(percentile([it.wall for it in items], 0.5), "s"),
        "kernel_median_s": metric(statistics.median(it.kernel for it in items), "s"),
        "setup_runs_s": setups,
    }
    return metrics, items, wl.finish(), extra


def traced_items(wl, tracing, failures, n: int):
    """One traced set-up, then the closed loop with every layer call recorded.

    Also returns each item's (and the set-up's, as item -1) factor from wall
    time to time at the reference speed.
    """
    with tracing.Tracer() as tr:
        k0 = kernel_seconds()
        tr.item = -1
        wl.setup()
        tr.item = None
        setup_scale = KERNEL_REF_S / ((k0 + kernel_seconds()) / 2)
        items = run_items(wl, failures, n, tracer=tr)
    scale = {it.i: it.latency / it.wall for it in items}
    scale[-1] = setup_scale
    return tr, items, scale


def traced(wl, workloads, tracing, seconds: float, spans_path: Path):
    tr, items, scale = traced_items(wl, tracing, workloads.PROGRAM_FAILURES, item_count(wl, seconds))
    tr.dump(str(spans_path))
    replay = run_items(wl, workloads.PROGRAM_FAILURES, len(items))
    s, r = summary(items), summary(replay)
    metrics = tracing.layer_metrics(tr.spans, len(items), scale)
    metrics.update({
        "trace.items": metric(len(items), "count"),
        "trace.throughput_items_per_s": metric(s["throughput"], "items/s"),
        "trace.untraced_throughput_items_per_s": metric(r["throughput"], "items/s"),
        "trace.overhead": metric(s["busy_s"] / r["busy_s"] - 1 if r["busy_s"] > 0 else 0.0, "ratio"),
    })
    problems = wl.finish()
    if [(a.status, a.detail) for a in items] != [(b.status, b.detail) for b in replay]:
        problems.append("the untraced replay gave other results than the traced run")
    return metrics, items, problems, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("synth1q", "mix_d3", "cover"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "usynth").is_dir():
        print(f"error: no usynth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.WORKLOADS[args.workload](args.seed, str(OUT))
    try:
        if args.trace:
            metrics, items, problems, extra = traced(
                wl, workloads, tracing, args.seconds, stem.with_suffix(".spans.json"))
        else:
            metrics, items, problems, extra = end_to_end(wl, workloads, args.seconds)
    finally:
        wl.close()

    s = summary(items)
    result = {
        "correct": s["mismatch"] == 0 and not problems,
        "attempted": s["attempted"],
        "failed": s["failed"] + s["mismatch"],
        "metrics": metrics,
    }
    info = machine()
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as f:
        json.dump({"args": vars(args), "machine": info, "summary": s, "problems": problems,
                   "extra": extra, "result": result, "items": [asdict(it) for it in items]},
                  f, indent=1)

    print(f"usynth bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    print(f"items: {s['attempted']} attempted, {s['ok']} ok, {s['failed']} failed, "
          f"{s['mismatch']} mismatched, {s['unverified']} unverified")
    for problem in problems + [it.detail for it in items if it.status == "mismatch"]:
        print(f"problem: {problem}")
    for name, m in list(metrics.items()) + [(k, v) for k, v in extra.items() if isinstance(v, dict)]:
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
