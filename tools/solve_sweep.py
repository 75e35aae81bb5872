"""Seeded sweep of mixing solves, for checking that a solver change keeps its numbers.

    PYTHONPATH=src python tools/solve_sweep.py OUT.json
    python tools/solve_sweep.py --compare A.json B.json

The sweep draws seeds 1 and 2 x 300 Haar cases, case i of seed s from
`default_rng([s, i])`: d = 3 on every third case (i % 3 == 0), d = 2
otherwise, and a target with 2-5 candidates. It runs `channels._mix` on
every case and `qubit1.optimal_mix_1q` on the d = 2 ones, 1,000 answers in
all. A `_mix` record holds its SDP status and iteration count, and
`sigma_mean`, `ap_mean` and `ad_mean`: the mean centering parameter and
primal and dual step lengths over the steps its solve took, read from
`SdpSolution.trace` (null if it took none). An `optimal_mix_1q` record, which
makes no SDP, holds `pivots` in their place: the tie-set pivots it took
(`qubit1._pivot` calls). Each holds `upper`, `lower` and `p` when it answers.
Floats are written as Python's shortest round-trip repr, so equal JSON means
bitwise-equal numbers.

A second set, keyed `synth-L-i` on the path `prob_synth`, runs `prob_synth`
at eps 0.35 and delta 1e-6 over the L = 12 and L = 14 pools of the standard
gate set on 60 Haar targets each, target i from `default_rng([3, i])`:
mixing problems over every pool row within 2*eps, a few hundred
candidates. For each it writes `pivots` (those `optimal_mix_1q` took),
`upper`, `lower` (priced over the whole pool)
and `p` as returned, the whole support `support` (the label lists of
`SynthesisResult.support`, of which `synth1q` prints the members with
weight), `det_error` and `achieved_eps`, and the labels and
error `det_synth` returns for the same target over the same pool,
`det_synth_labels` and `det_synth_error`: the deterministic baseline the
mixture is measured against.

A third set runs `channels._mix` on cases keyed `diamond4-i`, the
half-diamond distance between two Haar unitaries at d = 4 from
`default_rng([4, i])` (a support of 2 of 16 dimensions), and `kraus3-i`, a
Haar d = 3 target with 2-5 candidates of Kraus rank 2 (`choi_mixture` of two
Haar unitaries at a weight drawn from [0.5, 1)) from `default_rng([5, i])`,
whose support is all of C^9 from four candidates on; 60 cases each. It ends
with 20 cases each of channels with d1 != d2, a target with 2-5 candidates:
`iso23-i`, isometry channels C^2 -> C^3 of Haar 3x2 isometries (two columns
of a Haar unitary) from `default_rng([6, i])`, and `replace32-i`, replacement
channels C^3 -> C^2, rho -> tr(rho) sigma with J = I_3 (x) sigma for Ginibre
density operators sigma, from `default_rng([7, i])`. Their records' `d` is
the pair [d1, d2].

A fourth set, on the path `sharpness`, runs `channels._optimal_mix`, the
dispatch of `optimal_mix` and so of `sharpness`, on both Theorem 1 witnesses
(`bounds.lower_family` against the identity, `bounds.upper_family` against
`upper_family_target`) at d = 2 to 6 and eps 0.1, 0.3, 0.6 and 0.9, keyed
`lower-d-eps` and `upper-d-eps`: `qubit1.optimal_mix_1q` at d = 2, recorded
as the first set's d = 2 records, and `channels._mix` above. They are the most
degenerate mixing problems here.

Each `mix_1q` record and each d = 2 `sharpness` record also holds
`repriced`: its `lower` re-derived from the unit 4-vector `v` that
`optimal_mix_1q` returns as its certificate, by the two lines of `repriced`
rather than by the solver's own checker, so a checker that stops reading its
certificate shows.

`--compare` pairs the records of two sweeps by case and path, and counts
those that only one sweep has without comparing them. It prints every
record whose steps differ (status and iteration counts, or pivots; a record
counted one way in one sweep and the other way in the other differs), and
every `p` whose length differs (such a record differs, and `p` gives it no
move); then, per path (`mix` at d = 2 and at d = 3, `mix_1q`, `diamond4`,
`kraus3`, `iso23`, `replace32`, `prob_synth`, and the `sharpness` witnesses as
`lower` and `upper`), each sweep's mean and largest iterations over the records
that solve and pivots over those that pivot, how many records took fewer, equal
or more steps in the second among those counted the same way on both sides (and
how many are counted otherwise), the largest move of `upper` and `lower`, each sweep's largest width
`upper - lower`, its most members (nonzero entries of `p`) and its mean of the
records' `sigma_mean`, `ap_mean` and `ad_mean` ("-" for a sweep without them),
and on a line of its own how many `lower`s moved up and how many down, and the
largest move down relative to the first sweep's `upper`; then the largest move
of `upper`, `lower` and `p` over all records that answer on both sides (their
steps may differ); then how many `optimal_mix_1q` answers (`mix_1q`,
`prob_synth` and `sharpness` at d = 2) have more than 4 members in each sweep;
then, if any `achieved_eps` moved, how
many did, how many of them down and the largest move; then how many paired
solves differ at all, how many of those in their steps rather than
only in values, and how many `prob_synth` records in their support. A record
whose support, `det_error`, `achieved_eps`, `det_synth_labels` or
`det_synth_error` differs counts as differing; each support that differs is
printed with the labels it loses and gains, and each moved `achieved_eps`
with its two values; a key that only one sweep has is not compared. Last it
prints how many records of either sweep hold a `repriced` that is not
bitwise their `lower`. It exits 1 if any paired solve differs at all or any
such record is found.
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
SYNTH_SEED, SYNTH_CASES, SYNTH_LENGTHS = 3, 60, (12, 14)
DIAMOND4_SEED, KRAUS3_SEED, SUPPORT_CASES = 4, 5, 60
ISO23_SEED, REPLACE32_SEED, CHANNEL_CASES = 6, 7, 20
WITNESS_DIMS, WITNESS_EPS = (2, 3, 4, 5, 6), (0.1, 0.3, 0.6, 0.9)


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


def support_cases():
    """(name, d, target, candidates) of the third set, as Choi operators."""
    from usynth.channels import ChoiOperator, choi, choi_mixture
    from usynth.linalg import haar_unitary

    for i in range(SUPPORT_CASES):
        rng = np.random.default_rng([DIAMOND4_SEED, i])
        yield f"diamond4-{i}", 4, choi(haar_unitary(4, rng)), [choi(haar_unitary(4, rng))]
    for i in range(SUPPORT_CASES):
        rng = np.random.default_rng([KRAUS3_SEED, i])
        n = int(rng.integers(2, 6))
        target = choi(haar_unitary(3, rng))
        cands = []
        for _ in range(n):
            q = float(rng.uniform(0.5, 1.0))
            pair = [choi(haar_unitary(3, rng)), choi(haar_unitary(3, rng))]
            cands.append(choi_mixture(pair, np.array([q, 1 - q])))
        yield f"kraus3-{i}", 3, target, cands
    for i in range(CHANNEL_CASES):
        rng = np.random.default_rng([ISO23_SEED, i])
        n = int(rng.integers(2, 6))
        # W an isometry, v[(i, k)] = W[k, i]
        vs = [haar_unitary(3, rng)[:, :2].T.reshape(-1) for _ in range(n + 1)]
        ops = [ChoiOperator(np.outer(v, v.conj()), (2, 3)) for v in vs]
        yield f"iso23-{i}", [2, 3], ops[0], ops[1:]
    for i in range(CHANNEL_CASES):
        rng = np.random.default_rng([REPLACE32_SEED, i])
        n = int(rng.integers(2, 6))
        G = rng.standard_normal((n + 1, 2, 2)) + 1j * rng.standard_normal((n + 1, 2, 2))
        sigmas = [g @ g.conj().T / np.vdot(g, g).real for g in G]
        ops = [ChoiOperator(np.kron(np.eye(3), sigma), (3, 2)) for sigma in sigmas]
        yield f"replace32-{i}", [3, 2], ops[0], ops[1:]


def witness_cases():
    """(name, d, target, candidates) of the fourth set, as Choi operators."""
    from usynth import bounds
    from usynth.channels import choi

    for d in WITNESS_DIMS:
        for eps in WITNESS_EPS:
            for family, target, fam in (
                ("lower", np.eye(d), bounds.lower_family(eps, d)),
                ("upper", bounds.upper_family_target(d), bounds.upper_family(eps, d)),
            ):
                yield f"{family}-{d}-{eps}", d, choi(target), [choi(W) for W in fam]


STEPS = ("sigma", "ap", "ad")


def repriced(u: np.ndarray, W: np.ndarray, v: np.ndarray, upper: float) -> float:
    """The lower bound of `optimal_mix_1q`'s certificate v, re-derived here:
    (u.v)^2 - max_x (w_x.v)^2, clamped to [0, upper]."""
    lower = float((u @ v) ** 2 - np.max((W @ v) ** 2))
    return min(max(lower, 0.0), upper)


def step_means(sols) -> dict:
    """sigma_mean, ap_mean and ad_mean over the steps the solves took (None if none)."""
    taken = [step for sol in sols for step in sol.trace if step["sigma"] is not None]
    return {f"{k}_mean": sum(step[k] for step in taken) / len(taken) if taken else None
            for k in STEPS}


def sweep() -> list[dict]:
    from usynth import channels, qubit1, sdp, synth
    from usynth.linalg import haar_unitary

    seen, pivots = [], []
    solve, pivot = sdp.solve, qubit1._pivot

    def recording(problem, *args, **kwargs):
        sol = solve(problem, *args, **kwargs)
        seen.append(sol)
        return sol

    def pivoting(*args):
        pivots.append(args[-1])  # the entering row, counted before the pivot can fail
        return pivot(*args)

    def record(name, d, path, run, magic=None) -> dict:
        seen.clear()
        pivots.clear()
        rec = {"case": name, "d": d, "path": path}
        try:
            p, upper, lower, certificate = run()
            rec.update(upper=upper, lower=lower, p=[float(x) for x in p])
            if magic is not None:
                rec["repriced"] = repriced(*magic, certificate, upper)
        except sdp.SdpFailureError:
            pass
        if magic is not None:  # optimal_mix_1q, which makes no solve
            assert not seen
            rec["pivots"] = len(pivots)
        else:
            (sol,) = seen
            rec.update(status=sol.status, iterations=sol.iterations, **step_means(seen))
        return rec

    sdp.solve, qubit1._pivot = recording, pivoting
    records = []
    try:
        for name, d, U, Vs in cases():
            records.append(record(name, d, "mix", lambda: channels._mix(
                channels.choi(U), [channels.choi(V) for V in Vs])))
            if d == 2:
                u, W = qubit1.magic_embed(U), qubit1.magic_embed_batch(np.stack(Vs))
                records.append(record(name, d, "mix_1q",
                                      lambda: qubit1.optimal_mix_1q(u, W), (u, W)))
        for name, d, target, cands in support_cases():
            records.append(record(name, d, "mix", lambda: channels._mix(target, cands)))
        for name, d, target, cands in witness_cases():
            magic = None
            if d == 2:  # the dispatch pivots on the magic vectors it reads off the factors
                W = qubit1.magic_embed_batch(channels._qubit_unitaries([target, *cands]))
                magic = W[0], W[1:]
            records.append(record(name, d, "sharpness",
                                  lambda: channels._optimal_mix(target, cands), magic))
        for max_len in SYNTH_LENGTHS:
            pool = synth.enumerate_sequences(synth.standard_gate_set(), max_len)
            for i in range(SYNTH_CASES):
                U = haar_unitary(2, np.random.default_rng([SYNTH_SEED, i]))
                seen.clear()
                pivots.clear()
                res = synth.prob_synth(U, 0.35, 1e-6, pool)
                labels, det_err = synth.det_synth(U, pool)
                assert not seen
                records.append({
                    "case": f"synth-{max_len}-{i}", "d": 2, "path": "prob_synth",
                    "pivots": len(pivots),
                    "upper": res.prob_error, "lower": res.prob_error_lower,
                    "p": [float(x) for x in res.p],
                    "support": [list(s) for s in res.support],
                    "det_error": res.det_error, "achieved_eps": res.achieved_eps,
                    "det_synth_labels": list(labels), "det_synth_error": det_err,
                })
    finally:
        sdp.solve, qubit1._pivot = solve, pivot
    return records


GROUPS = ("mix d=2", "mix d=3", "mix_1q", "diamond4", "kraus3", "iso23", "replace32",
          "prob_synth", "lower", "upper")


def group(rec: dict) -> str:
    """The path a record summarizes under: one of GROUPS."""
    kind = rec["case"].split("-")[0]
    if kind in ("diamond4", "kraus3", "iso23", "replace32", "lower", "upper"):
        return kind
    return f"mix d={rec['d']}" if rec["path"] == "mix" else rec["path"]


def counts(rec: dict) -> list[int]:
    """A record's pivots, or the iterations of each of its solves."""
    its = rec["pivots"] if "pivots" in rec else rec["iterations"]
    return its if isinstance(its, list) else [its]


def members(rec: dict) -> int:
    """The nonzero entries of a record's p."""
    return sum(x != 0 for x in rec["p"])


def qubit(rec: dict) -> bool:
    """Whether a record is an optimal_mix_1q answer."""
    return rec["path"] in ("mix_1q", "prob_synth") or (rec["path"], rec["d"]) == ("sharpness", 2)


def tally(records) -> str:
    """The mean and largest iterations of the records that solve, and pivots of those that
    pivot, as summarize prints them."""
    parts = []
    for kind in ("iterations", "pivots"):
        n = [x for rec in records if ("pivots" in rec) == (kind == "pivots") for x in counts(rec)]
        if n:
            parts.append(f"{kind} mean {np.mean(n):.2f} max {max(n)}")
    return " and ".join(parts)


def side_mean(records, k: str) -> str:
    """The mean of the records' f"{k}_mean" that are set, or "-" if none is."""
    vals = [rec[f"{k}_mean"] for rec in records if rec.get(f"{k}_mean") is not None]
    return f"{np.mean(vals):.3f}" if vals else "-"


def summarize(pairs: list[tuple[dict, dict]]) -> None:
    """Print, per path, the steps and the bounds of the paired solves on each side."""
    for name in GROUPS:
        here = [(ra, rb) for ra, rb in pairs if group(ra) == name]
        if not here:
            continue
        a, b = zip(*here)
        same = [(ra, rb) for ra, rb in here if ("pivots" in ra) == ("pivots" in rb)]
        delta = np.sign([sum(counts(rb)) - sum(counts(ra)) for ra, rb in same])
        fewer = f"fewer {np.sum(delta < 0)}, equal {np.sum(delta == 0)}, more {np.sum(delta > 0)}"
        if len(same) < len(here):
            fewer += f", {len(here) - len(same)} counted otherwise"
        both = [(ra, rb) for ra, rb in here if "p" in ra and "p" in rb]
        move = {k: max([abs(ra[k] - rb[k]) for ra, rb in both], default=0.0)
                for k in ("upper", "lower")}
        width = [max([rec["upper"] - rec["lower"] for rec in side if "p" in rec], default=0.0)
                 for side in (a, b)]
        most = [max([members(rec) for rec in side if "p" in rec], default=0) for side in (a, b)]
        means = ", ".join(f"{k} {side_mean(a, k)} -> {side_mean(b, k)}" for k in STEPS)
        print(f"{name}: {len(here)} records; {tally(a)} -> {tally(b)}; "
              f"{fewer}; largest move upper {move['upper']:.1e}, lower {move['lower']:.1e}; "
              f"largest width {width[0]:.1e} -> {width[1]:.1e}; members at most {most[0]} -> "
              f"{most[1]}; mean {means}")
        down = [(ra["lower"] - rb["lower"]) / ra["upper"] for ra, rb in both
                if rb["lower"] < ra["lower"]]
        up = sum(rb["lower"] > ra["lower"] for ra, rb in both)
        print(f"{name}: lower up {up}, down {len(down)}, largest move down "
              f"{max(down, default=0.0):.1e} of upper")


def describe(rec: dict) -> str:
    """What a record's answer took: the pivots of optimal_mix_1q, else the status and
    iterations of its solves."""
    if "pivots" in rec:
        return f"{rec['pivots']} pivots"
    return f"{rec['status']} after {rec['iterations']}"


def compare(a: list[dict], b: list[dict]) -> int:
    """Print what differs between two sweeps; the number of differing solves, plus the
    records of either sweep whose `repriced` is not their `lower`."""
    keyed = [{(r["case"], r["path"]): r for r in recs} for recs in (a, b)]
    only = len(keyed[0].keys() ^ keyed[1].keys())
    if only:
        print(f"{only} solves in one sweep only, not compared")
    pairs = [(ra, keyed[1][key]) for key, ra in keyed[0].items() if key in keyed[1]]
    differ = stepped_count = supports = 0
    moves = {"upper": (0.0, None), "lower": (0.0, None), "p": (0.0, None)}
    eps_moves = []  # (b - a, where) of each moved achieved_eps
    for ra, rb in pairs:
        where = f"{ra['case']} {ra['path']}"
        changed = stepped = describe(ra) != describe(rb)
        if stepped:
            print(f"{where}: {describe(ra)} -> {describe(rb)}")
        if "support" in ra and "support" in rb and ra["support"] != rb["support"]:
            sa, sb = ({tuple(s) for s in rec["support"]} for rec in (ra, rb))
            print(f"{where}: support {len(sa)} -> {len(sb)} labels, "
                  f"{len(sa - sb)} out, {len(sb - sa)} in")
            supports += 1
        ea, eb = ra.get("achieved_eps"), rb.get("achieved_eps")
        if None not in (ea, eb) and ea != eb:
            print(f"{where}: achieved_eps {ea!r} -> {eb!r}")
            eps_moves.append((eb - ea, where))
        changed |= any(ra[k] != rb[k] for k in ("support", "det_error", "achieved_eps",
                                                "det_synth_labels", "det_synth_error")
                       if k in ra and k in rb)
        if "p" in ra and "p" in rb:
            changed |= any(ra[k] != rb[k] for k in moves)
            resized = len(ra["p"]) != len(rb["p"])
            if resized:
                print(f"{where}: p has {len(ra['p'])} -> {len(rb['p'])} entries")
            for k in ("upper", "lower") if resized else moves:
                move = float(np.max(np.abs(np.subtract(ra[k], rb[k]))))
                if move > moves[k][0]:
                    moves[k] = (move, where)
        differ += changed
        stepped_count += stepped
    summarize(pairs)
    for k, (move, where) in moves.items():
        print(f"largest move of {k}: {move:.3e}" + (f" ({where})" if where else ""))
    wide = [sum(qubit(rec) and "p" in rec and members(rec) > 4 for rec in recs) for recs in (a, b)]
    print(f"optimal_mix_1q answers with more than 4 members: {wide[0]} -> {wide[1]}")
    if eps_moves:
        move, where = max(eps_moves, key=lambda m: abs(m[0]))
        print(f"{len(eps_moves)} achieved_eps moved, {sum(m < 0 for m, _ in eps_moves)} down; "
              f"largest move {move:.3e} ({where})")
    print(f"{len(pairs)} solves compared, {differ} differ ({stepped_count} in steps, "
          f"{supports} in support)")
    priced = [rec for rec in (*a, *b) if "repriced" in rec]
    unequal = sum(rec["repriced"] != rec["lower"] for rec in priced)
    print(f"{len(priced)} d = 2 lower bounds re-priced from v, {unequal} not reproduced")
    return differ + unequal


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
    statuses = sorted({r["status"] for r in records if "status" in r})
    walks = [r for r in records if "pivots" in r]
    print(f"{len(records)} records; SDP statuses {', '.join(statuses)}; {len(walks)} pivot "
          f"walks, {sum('p' not in r for r in walks)} without an answer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
