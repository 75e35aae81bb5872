"""Per-solve time of `sdp.solve` here against another source tree, on the sweep's problems.

    PYTHONPATH=src python tools/solve_time.py OTHER_SRC

OTHER_SRC is the `src/` directory of another checkout (a `git archive` of a
parent commit, say). The problems are those `tools/solve_sweep.py` solves,
recorded through the same hook on `sdp.solve` the sweep uses: its `_mix`
records, since d = 2 mixing (`mix_1q`, `prob_synth` and the d = 2 witnesses)
pivots on tie sets and makes no SDP problem. `sdp.py` is
then loaded from this checkout's `src/` and from OTHER_SRC under two module
names, and each problem is solved REPEATS times by each, the two taking
turns solve by solve and each problem starting with the other side than
the one before. For each of the sweep's paths (`solve_sweep.GROUPS`) that has
a problem, and for all problems together, it prints the median over the problems of each
side's fastest solve of a problem, in microseconds, and their ratio,
here / other. Both sides must return the same status and iteration count on
every problem, or it exits 1. An OTHER_SRC with no `usynth/sdp.py` exits 2
before the sweep runs.
"""

import os

# BLAS reads its thread count once, when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import solve_sweep  # noqa: E402

HERE = Path(__file__).resolve().parents[1] / "src"
REPEATS = 5


def recorded() -> list[tuple[str, object, float]]:
    """(path, problem, gap_tol) of every solve the sweep makes, in order."""
    from usynth import sdp

    calls = []
    solve = sdp.solve

    def recording(problem, gap_tol=sdp.DEFAULT_GAP_TOL):
        calls.append((problem, gap_tol))
        return solve(problem, gap_tol)

    sdp.solve = recording  # the sweep's own hook wraps this one
    try:
        records = solve_sweep.sweep()
    finally:
        sdp.solve = solve
    paths = [solve_sweep.group(rec) for rec in records if "pivots" not in rec]
    assert len(paths) == len(calls)
    return [(path, *call) for path, call in zip(paths, calls)]


def load_sdp(src: Path, name: str):
    """`usynth/sdp.py` of the tree `src`, as a module named `name`."""
    spec = importlib.util.spec_from_file_location(name, src / "usynth" / "sdp.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def in_module(sdp, problem):
    """The problem as the module `sdp`'s own SdpProblem and Blocks.

    Every dense block is complex Hermitian; a tree whose Block still has a
    `complex` field, as before dense blocks had one kind, is told so.
    """
    dense = {"complex": True} if "complex" in sdp.Block.__dataclass_fields__ else {}
    blocks = [sdp.Block(blk.size, diag=True) if blk.diag else sdp.Block(blk.size, **dense)
              for blk in problem.blocks]
    return sdp.SdpProblem(blocks, problem.objective, problem.constraints, problem.rhs)


def timings(sides, calls) -> np.ndarray:
    """(problems, sides) array of each side's fastest of REPEATS solves of each problem."""
    best = np.full((len(calls), len(sides)), np.inf)
    for i, (_, problem, gap_tol) in enumerate(calls):
        posed = [in_module(sdp, problem) for sdp in sides]
        order = list(range(len(sides)))[:: 1 if i % 2 == 0 else -1]
        seen = {}
        for _ in range(REPEATS):
            for j in order:
                t0 = time.perf_counter()
                sol = sides[j].solve(posed[j], gap_tol)
                best[i, j] = min(best[i, j], time.perf_counter() - t0)
                seen[j] = (sol.status, sol.iterations)
        if len(set(seen.values())) > 1:
            raise SystemExit(f"problem {i}: status and iterations differ: {seen}")
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("other", type=Path, help="the src/ directory to compare against")
    args = ap.parse_args(argv)
    if not (args.other / "usynth" / "sdp.py").is_file():
        ap.error(f"{args.other}: no usynth/sdp.py in it")
    calls = recorded()
    sides = [load_sdp(HERE, "sdp_here"), load_sdp(args.other.resolve(), "sdp_other")]
    best = timings(sides, calls)
    paths = np.array([path for path, _, _ in calls])
    print(f"{len(calls)} solves, fastest of {REPEATS} each; median us here, other, ratio")
    for name in (*solve_sweep.GROUPS, "all"):
        rows = best if name == "all" else best[paths == name]
        if len(rows):
            here, other = np.median(rows, axis=0) * 1e6
            print(f"{name}: {len(rows)} solves; {here:.1f} {other:.1f} {here / other:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
