"""Command-line interface.

Subcommands: the keys of COMMANDS, the table that declares each one once.
Exit codes: 0 success, 2 argument/parse error (an exceeded sequence
budget included), 3 SDP failure (at d = 2: no certificate within
qubit1.PIVOTS pivots), 4 covering unreachable in synthesis.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bounds, channels, synth
from .linalg import check_unitary, load_matrix

EXIT_PARSE = 2
EXIT_SDP = 3
EXIT_COVERING = 4
MAX_GRID_POINTS = 1_000_000  # of `bounds --eps-grid`: one theorem1_bounds call each
MAX_SAMPLES = 1_000_000  # of `synth1q --samples`: one printed index each
MAX_SHARPNESS_D = 10  # of `sharpness --d`: upper builds 2^d Choi operators, each one d^2 column


def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _named_target(name: str) -> np.ndarray:
    gs = synth.standard_gate_set()
    gates = dict(zip(gs.labels, gs.unitaries))
    table = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.diag([1.0, -1.0]).astype(complex),
        "H": gates["H"],
        "S": gates["S"],
        "T": gates["T"],
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
        return channels.choi(M)
    except ValueError:
        pass
    d = int(round(np.sqrt(M.shape[0])))
    if d * d != M.shape[0]:
        raise ValueError(f"{path}: neither a unitary nor a Choi-shaped matrix")
    return channels.ChoiOperator(J=M, dims=(d, d))


def _rounded(obj):
    """obj with every float in it rounded by _sig12; lists of strings (gate labels) as they are."""
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list) and set(map(type, obj)) != {str}:
        return [_rounded(v) for v in obj]
    return obj


def _write(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit(obj, out: str | None) -> None:
    """Write obj as JSON, every float rounded to 12 significant digits."""
    _write(json.dumps(_rounded(obj), sort_keys=True, indent=2, allow_nan=False) + "\n", out)


def cmd_diamond(args) -> int:
    A = _load_choi(args.a)
    B = _load_choi(args.b)
    value, gap = channels.diamond_distance(A, B, full_output=True)
    _emit({"value": value, "gap": gap}, None)
    return 0


def cmd_mixopt(args) -> int:
    target = _load_choi(args.target)
    files = sorted(
        f for f in os.listdir(args.candidates) if f.endswith(".json")
    )
    if not files:
        raise ValueError("no candidate .json files found")
    cands = [_load_choi(os.path.join(args.candidates, f)) for f in files]
    p, value = channels.optimal_mix(target, cands)
    _emit({"candidates": files, "p": list(p), "value": value}, args.out)
    return 0


def cmd_synth1q(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be nonnegative, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples {args.samples}: more than {MAX_SAMPLES}")
    target = _load_target(args.target)
    if args.gateset:
        with open(args.gateset, "r", encoding="utf-8") as f:
            gs = synth.GateSet.from_json(json.load(f))
    else:
        gs = synth.standard_gate_set()
    pool = synth.enumerate_sequences(gs, args.max_len)
    res = synth.prob_synth(target, eps=args.eps, delta=args.delta, pool=pool)
    obj = res.to_json()
    obj["seed"] = args.seed
    if args.samples > 0:  # indices into the printed support
        obj["samples"] = synth.sample(np.array(obj["p"]), args.seed, args.samples).tolist()
    _emit(obj, args.out)
    return 0


def cmd_bounds(args) -> int:
    try:
        a, b, step = (float(x) for x in args.eps_grid.split(":"))
    except ValueError as exc:
        raise ValueError("--eps-grid must be a:b:step") from exc
    if not (np.isfinite([a, b, step]).all() and a <= b and step > 0):
        raise ValueError(f"--eps-grid {args.eps_grid}: need finite a <= b and step > 0")
    span = (b - a) / step  # the grid has floor(span) + 1 points
    if span >= MAX_GRID_POINTS:
        points = int(span) + 1 if np.isfinite(span) else "infinitely many"
        raise ValueError(
            f"--eps-grid {args.eps_grid}: {points} points, more than {MAX_GRID_POINTS}")
    grid = list(np.arange(a, b + step / 2, step))
    rows = [bounds.theorem1_bounds(e, args.d) for e in grid]
    csv = "".join(f"{r.eps:.12g},{r.delta:.12g},{r.lower:.12g},{r.upper:.12g}\n" for r in rows)
    _write("eps,delta,lower,upper\n" + csv, args.out)
    return 0


def cmd_sharpness(args) -> int:
    if args.d > MAX_SHARPNESS_D:
        raise ValueError(f"--d {args.d}: more than {MAX_SHARPNESS_D}")
    bp = bounds.theorem1_bounds(args.eps, args.d)
    if args.family == "lower":
        fam = bounds.lower_family(args.eps, args.d)
        target = np.eye(args.d, dtype=complex)
        expected = bp.lower
    else:
        fam = bounds.upper_family(args.eps, args.d)
        target = bounds.upper_family_target(args.d)
        expected = bp.upper
    p, value = channels.optimal_mix(
        channels.choi(target), [channels.choi(W) for W in fam]
    )
    _emit({"family": args.family, "d": args.d, "eps": args.eps, "size": len(fam),
           "value": value, "expected": expected, "slack": abs(value - expected)}, args.out)
    return 0


def cmd_axial(args) -> int:
    thetas = [float(x) for x in args.thetas.split(",")]
    p, value = bounds.axial_optimal(args.target_theta, thetas)
    _emit(
        {"thetas": thetas, "target_theta": args.target_theta, "p": list(p), "value": value},
        args.out,
    )
    return 0


COMMANDS = {  # name: (handler, add_parser keywords, arguments as (flag, add_argument keywords))
    "diamond": (cmd_diamond, {"help": "half-diamond distance between two channels"}, (
        ("a", {}), ("b", {}))),
    "mixopt": (cmd_mixopt, {"help": "optimal mixing of candidate channels"}, (
        ("target", {}),
        ("candidates", {"help": "directory of candidate .json matrices"}),
        ("--out", {}))),
    "synth1q": (cmd_synth1q, {"help": "probabilistic single-qubit synthesis", "description": (
        "support and p list the members the mixture weights, and support_size counts every "
        "pool row within 2*eps. Each support entry lists gate labels in the order they act: the "
        "leftmost label acts first, so [\"H\", \"T\"] realizes T @ H.")}, (
        ("--target", {"required": True, "help": "named target or matrix JSON path"}),
        ("--eps", {"type": float, "required": True}),
        ("--delta", {"type": float, "default": 1e-6}),
        ("--gateset", {"help": "gate set JSON path (default H,S,Sdg,T,Tdg)"}),
        ("--seed", {"type": int, "default": 0}),
        ("--samples", {"type": int, "default": 0}),
        ("--max-len", {"type": int, "default": 12}),
        ("--out", {}))),
    "bounds": (cmd_bounds, {"help": "lower/upper bound curve sweep"}, (
        ("--d", {"type": int, "required": True}),
        ("--eps-grid", {"required": True, "help": "a:b:step"}),
        ("--out", {}))),
    "sharpness": (cmd_sharpness, {"help": "sharpness certificate for one bound"}, (
        ("--d", {"type": int, "required": True}),
        ("--eps", {"type": float, "required": True}),
        ("--family", {"choices": ("lower", "upper"), "required": True}),
        ("--out", {}))),
    "axial": (cmd_axial, {"help": "optimal mixing of axial rotations"}, (
        ("--target-theta", {"type": float, "required": True}),
        ("--thetas", {"required": True, "help": "comma-separated angles"}),
        ("--out", {}))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """usynth's parser: every subcommand, or only `command` if it names one.

    Each subcommand is declared once, by its COMMANDS entry. main passes its
    first argument, so a call builds only the subcommand it runs. Their usage
    lines name every subcommand alike, so a parser with one subcommand parses
    its arguments and prints its messages as the whole one does; a first
    argument that names none gets the whole parser.
    """
    built = [command] if command in COMMANDS else COMMANDS
    ap = argparse.ArgumentParser(prog="usynth")
    sub = ap.add_subparsers(dest="command", required=True, metavar=(
        "{" + ",".join(COMMANDS) + "}" if len(built) == 1 else None))
    for name in built:
        func, keywords, arguments = COMMANDS[name]
        p = sub.add_parser(name, **keywords)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except synth.CoveringUnreachableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COVERING
    except channels.SdpFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SDP
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
