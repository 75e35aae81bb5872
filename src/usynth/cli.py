"""Command-line interface.

Subcommands: diamond, mixopt, synth1q, bounds, sharpness, axial.
Exit codes: 0 success, 2 argument/parse error, 3 SDP failure,
4 covering unreachable in synthesis.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bounds, channels, synth
from .linalg import NotUnitaryError, check_unitary, load_matrix

EXIT_PARSE = 2
EXIT_SDP = 3
EXIT_COVERING = 4


def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _named_target(name: str) -> np.ndarray:
    table = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.diag([1.0, -1.0]).astype(complex),
        "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
        "S": np.diag([1, 1j]).astype(complex),
        "T": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
    }
    if name in table:
        return table[name]
    if name.startswith("Rz(") and name.endswith(")"):
        th = float(name[3:-1])
        return np.diag([np.exp(-1j * th / 2), np.exp(1j * th / 2)])
    raise ValueError(f"unknown named target {name!r}")


def _load_target(spec: str) -> np.ndarray:
    if os.path.exists(spec):
        return check_unitary(load_matrix(spec))
    return _named_target(spec)


def _load_choi(path: str) -> channels.ChoiOperator:
    M = load_matrix(path)
    try:
        return channels.choi(check_unitary(M))
    except (NotUnitaryError, ValueError):
        pass
    d = int(round(np.sqrt(M.shape[0])))
    if d * d != M.shape[0]:
        raise ValueError(f"{path}: neither a unitary nor a Choi-shaped matrix")
    return channels.ChoiOperator(J=M, dims=(d, d))


def _emit(obj, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)


def cmd_diamond(args) -> int:
    A = _load_choi(args.a)
    B = _load_choi(args.b)
    value, gap = channels.diamond_distance(A, B, full_output=True)
    _emit({"value": _sig12(value), "gap": _sig12(gap)}, None)
    return 0


def cmd_mixopt(args) -> int:
    target = _load_choi(args.target)
    files = sorted(
        f for f in os.listdir(args.candidates) if f.endswith(".json")
    )
    if not files:
        raise channels.EmptyCandidatesError("no candidate .json files found")
    cands = [_load_choi(os.path.join(args.candidates, f)) for f in files]
    p, value = channels.optimal_mix(target, cands)
    _emit(
        {
            "candidates": files,
            "p": [_sig12(x) for x in p],
            "value": _sig12(value),
        },
        args.out,
    )
    return 0


def cmd_synth1q(args) -> int:
    target = _load_target(args.target)
    if args.gateset:
        with open(args.gateset, "r", encoding="utf-8") as f:
            gs = synth.GateSet.from_json(json.load(f))
    else:
        gs = synth.standard_gate_set()
    res = synth.prob_synth(
        target,
        eps=args.eps,
        delta=args.delta,
        gs=gs,
        seed=args.seed,
        max_len=args.max_len,
    )
    obj = res.to_json()
    obj["p"] = [_sig12(x) for x in obj["p"]]
    for k in ("det_error", "prob_error", "prob_error_lower", "eps", "achieved_eps", "delta"):
        obj[k] = _sig12(obj[k])
    if args.samples > 0:
        obj["samples"] = [int(i) for i in synth.sample(res.p, args.seed, args.samples)]
    _emit(obj, args.out)
    return 0


def cmd_bounds(args) -> int:
    try:
        a, b, step = (float(x) for x in args.eps_grid.split(":"))
    except ValueError as exc:
        raise ValueError("--eps-grid must be a:b:step") from exc
    grid = list(np.arange(a, b + step / 2, step))
    rows = bounds.curve_sweep(args.d, grid)
    lines = ["eps,delta,lower,upper"]
    for r in rows:
        lines.append(
            f"{r.eps:.12g},{r.delta:.12g},{r.lower:.12g},{r.upper:.12g}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_sharpness(args) -> int:
    bp = bounds.theorem1_bounds(args.eps, args.d)
    if args.family == "lower":
        fam = bounds.lower_family(args.eps, args.d, mesh=args.mesh)
        target = np.eye(args.d, dtype=complex)
        expected = bp.lower
    else:
        fam = bounds.upper_family(args.eps, args.d, mesh=args.mesh)
        target = bounds.upper_family_target(args.d)
        expected = bp.upper
    p, value = channels.optimal_mix(
        channels.choi(target), [channels.choi(W) for W in fam]
    )
    _emit(
        {
            "family": args.family,
            "d": args.d,
            "eps": _sig12(args.eps),
            "mesh": _sig12(args.mesh),
            "size": len(fam),
            "value": _sig12(value),
            "expected": _sig12(expected),
            "slack": _sig12(abs(value - expected)),
        },
        args.out,
    )
    return 0


def cmd_axial(args) -> int:
    thetas = [float(x) for x in args.thetas.split(",")]
    p, value = bounds.axial_optimal(args.target_theta, thetas)
    _emit(
        {
            "thetas": [_sig12(t) for t in thetas],
            "target_theta": _sig12(args.target_theta),
            "p": [_sig12(x) for x in p],
            "value": _sig12(value),
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="usynth")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diamond", help="half-diamond distance between two channels")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_diamond)

    p = sub.add_parser("mixopt", help="optimal mixing of candidate channels")
    p.add_argument("target")
    p.add_argument("candidates", help="directory of candidate .json matrices")
    p.add_argument("--out")
    p.set_defaults(func=cmd_mixopt)

    p = sub.add_parser("synth1q", help="probabilistic single-qubit synthesis", description=(
        "Each support entry lists gate labels in the order they act: the leftmost label acts "
        "first, so [\"H\", \"T\"] realizes T @ H."))
    p.add_argument("--target", required=True, help="named target or matrix JSON path")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--gateset", help="gate set JSON path (default H,S,Sdg,T,Tdg)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth1q)

    p = sub.add_parser("bounds", help="lower/upper bound curve sweep")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps-grid", required=True, help="a:b:step")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sharpness", help="sharpness certificate for one bound")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--family", choices=("lower", "upper"), required=True)
    p.add_argument("--mesh", type=float, default=0.02)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sharpness)

    p = sub.add_parser("axial", help="optimal mixing of axial rotations")
    p.add_argument("--target-theta", type=float, required=True)
    p.add_argument("--thetas", required=True, help="comma-separated angles")
    p.add_argument("--out")
    p.set_defaults(func=cmd_axial)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except synth.CoveringUnreachableError as exc:
        print(f"error: {exc} (achieved radius {exc.achieved_radius:.6g})", file=sys.stderr)
        return EXIT_COVERING
    except channels.SdpFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SDP
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
