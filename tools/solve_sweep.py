"""Seeded sweep of mixing solves, for checking that a solver change keeps its numbers.

    PYTHONPATH=src python tools/solve_sweep.py OUT.json
    python tools/solve_sweep.py --compare A.json B.json

The sweep draws seeds 1 and 2 x 300 Haar cases, case i of seed s from
`default_rng([s, i])`: d = 3 on every third case (i % 3 == 0), d = 2
otherwise, and a target with 2-5 candidates. It runs `channels._mix` on
every case and `qubit1.optimal_mix_1q` on the d = 2 ones, 1,000 solves in
all, and writes for each its SDP status and iteration count and, when the
solve is optimal, `upper`, `lower` and `p`. Floats are written as Python's
shortest round-trip repr, so equal JSON means bitwise-equal numbers.

`--compare` prints every solve whose status or iteration count differs,
then the largest move of `upper`, `lower` and `p` over the solves optimal
on both sides; it exits 1 if anything differs at all.
"""

import os

# BLAS reads its thread count once, when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

SEEDS = (1, 2)
CASES = 300


def cases():
    """(name, d, target, candidates) of each case, as unitaries."""
    from usynth.linalg import haar_unitary

    for seed in SEEDS:
        for i in range(CASES):
            rng = np.random.default_rng([seed, i])
            d = 3 if i % 3 == 0 else 2
            n = int(rng.integers(2, 6))
            U = haar_unitary(d, rng)
            yield f"{seed}-{i}", d, U, [haar_unitary(d, rng) for _ in range(n)]


def sweep() -> list[dict]:
    from usynth import channels, qubit1, sdp

    seen = []
    solve = sdp.solve

    def recording(problem, *args, **kwargs):
        sol = solve(problem, *args, **kwargs)
        seen.append(sol)
        return sol

    sdp.solve = recording
    records = []
    try:
        for name, d, U, Vs in cases():
            runs = [("mix", lambda: channels._mix(channels.choi(U), [channels.choi(V) for V in Vs]))]
            if d == 2:
                W = qubit1.magic_embed_batch(np.stack(Vs))
                runs.append(("mix_1q", lambda: qubit1.optimal_mix_1q(qubit1.magic_embed(U), W)))
            for path, run in runs:
                seen.clear()
                rec = {"case": name, "d": d, "path": path}
                try:
                    p, upper, lower = run()
                    rec.update(upper=upper, lower=lower, p=[float(x) for x in p])
                except sdp.SdpFailureError:
                    pass
                (sol,) = seen
                rec.update(status=sol.status, iterations=sol.iterations)
                records.append(rec)
    finally:
        sdp.solve = solve
    return records


def compare(a: list[dict], b: list[dict]) -> int:
    """Print what differs between two sweeps; the number of differing solves."""
    if [(r["case"], r["path"]) for r in a] != [(r["case"], r["path"]) for r in b]:
        print("the sweeps list different solves")
        return max(len(a), len(b))
    differ = 0
    moves = {"upper": (0.0, None), "lower": (0.0, None), "p": (0.0, None)}
    for ra, rb in zip(a, b):
        where = f"{ra['case']} {ra['path']}"
        if (ra["status"], ra["iterations"]) != (rb["status"], rb["iterations"]):
            print(f"{where}: {ra['status']} after {ra['iterations']} -> "
                  f"{rb['status']} after {rb['iterations']}")
            differ += 1
            continue
        if "p" not in ra:
            continue
        differ += any(ra[k] != rb[k] for k in moves)
        for k in moves:
            move = float(np.max(np.abs(np.subtract(ra[k], rb[k]))))
            if move > moves[k][0]:
                moves[k] = (move, where)
    for k, (move, where) in moves.items():
        print(f"largest move of {k}: {move:.3e}" + (f" ({where})" if where else ""))
    print(f"{len(a)} solves, {differ} differ")
    return differ


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out", nargs="?", help="JSON file the sweep writes")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two sweeps")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (load(path) for path in args.compare)
        return 1 if compare(a, b) else 0
    if not args.out:
        ap.error("give OUT.json or --compare A B")
    records = sweep()
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(records, f, indent=1)
    statuses = sorted({r["status"] for r in records})
    print(f"{len(records)} solves; statuses {', '.join(statuses)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
