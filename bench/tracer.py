"""Spans and counts recorded around the calls into usynth's layers.

The tracer wraps module attributes that callers look up at call time
(`usynth.sdp.solve`, `usynth.channels.optimal_mix`, ...), so nothing
under `src/` changes. This sees every call because `channels` calls
`sdp.solve`, `synth` calls `channels.optimal_mix` and
`qubit1.cap_covering`, `cli` calls `synth.prob_synth`, and
`sphere_covering` calls its module-global `covering_radius_estimate`.
`linalg` helpers run at too fine a grain to time from outside, and
`bounds` only serves the checks, so neither is wrapped.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from usynth import channels, cli, qubit1, sdp, synth


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for none
    item: int    # timed item id, -1 for set-up
    attrs: dict = field(default_factory=dict)


def _solve_attrs(args, kwargs, result) -> dict:
    problem = args[0] if args else kwargs["problem"]
    out = {
        "constraints": len(problem.constraints),
        "dense_dim": max((b.size for b in problem.blocks if not b.diag), default=0),
        "lp_dim": sum(b.size for b in problem.blocks if b.diag),
    }
    if result is not None:
        out["iterations"] = int(result.iterations)
        out["optimal"] = result.status == "Optimal"
    return out


def _mix_attrs(args, kwargs, result) -> dict:
    cands = args[1] if len(args) > 1 else kwargs["candidates"]
    return {"candidates": len(cands), "failed": result is None}


def _filter_attrs(args, kwargs, result) -> dict:
    cands = args[1] if len(args) > 1 else kwargs["candidates"]
    offered = np.atleast_2d(np.asarray(cands)).shape[0]
    return {"offered": offered, "kept": 0 if result is None else len(result)}


# (module, attribute, attrs(args, kwargs, result or None on raise) -> dict)
LAYERS = [
    (cli, "main", None),
    (synth, "prob_synth", None),
    (synth, "enumerate_sequences",
     lambda a, k, r: {} if r is None else {"pool_size": len(r)}),
    (qubit1, "cap_covering", lambda a, k, r: {} if r is None else {"points": len(r)}),
    (qubit1, "support_filter", _filter_attrs),
    (qubit1, "sphere_covering",
     lambda a, k, r: {} if r is None else {"points": len(r[0])}),
    (qubit1, "covering_radius_estimate", None),
    (channels, "choi", None),
    (channels, "optimal_mix", _mix_attrs),
    (sdp, "solve", _solve_attrs),
    (sdp, "real_embed", None),
]


def layer_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Records a span for each call into a wrapped layer while `item` is set.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.item: int | None = None  # None: calls pass through unrecorded
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module, attr, attrs in LAYERS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer_name(module, attr), fn, attrs))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, attrs):
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if attrs is not None:
                    span.attrs = attrs(args, kwargs, result)

        return wrapper

    def digest(self) -> list:
        """The deterministic part of the trace: names, items and counts."""
        return [(s.name, s.item, s.parent, sorted(s.attrs.items())) for s in self.spans]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump([asdict(s) for s in self.spans], f)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def layer_metrics(spans: list[Span], items: int, scale: dict[int, float]) -> dict:
    """Per-layer metrics, every name present even when never entered.

    Calls and times of spans inside timed items are per item; spans from
    the set-up (`item == -1`, one set-up per traced run) are reported as
    they are. A span's duration is multiplied by `scale[item]`, the run's
    factor from wall time to time at the reference speed. Self time is a
    span's duration minus its children's.
    """
    dur = [(s.end - s.start) * scale[s.item] for s in spans]
    child = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += dur[k]
    agg: dict[str, dict] = {
        layer_name(m, a): {"calls": 0.0, "time": 0.0, "self": 0.0, "attrs": []}
        for m, a, _ in LAYERS
    }
    per_item = 1.0 / max(items, 1)
    for k, s in enumerate(spans):
        a = agg[s.name]
        w = 1.0 if s.item < 0 else per_item
        a["calls"] += w
        a["time"] += w * dur[k]
        a["self"] += w * (dur[k] - child[k])
        a["attrs"].append(s.attrs)

    def mean(name, key):
        vals = [x[key] for x in agg[name]["attrs"] if key in x]
        return sum(vals) / len(vals) if vals else 0.0

    def total(name, key):
        return float(sum(x.get(key, 0) for x in agg[name]["attrs"]))

    def largest(name, key):
        return float(max((x[key] for x in agg[name]["attrs"] if key in x), default=0))

    solve = agg["sdp.solve"]
    iters = total("sdp.solve", "iterations")
    offered = total("qubit1.support_filter", "offered")
    m = {
        "cli.main.calls": _metric(agg["cli.main"]["calls"], "1/item"),
        "cli.main.self_s": _metric(agg["cli.main"]["self"], "s/item"),
        "synth.enumerate_sequences.calls": _metric(agg["synth.enumerate_sequences"]["calls"], "1/item"),
        "synth.enumerate_sequences.time_s": _metric(agg["synth.enumerate_sequences"]["time"], "s/item"),
        "synth.enumerate_sequences.pool_size": _metric(mean("synth.enumerate_sequences", "pool_size"), "count"),
        "synth.prob_synth.calls": _metric(agg["synth.prob_synth"]["calls"], "1/item"),
        "synth.prob_synth.self_s": _metric(agg["synth.prob_synth"]["self"], "s/item"),
        "qubit1.cap_covering.time_s": _metric(agg["qubit1.cap_covering"]["time"], "s/item"),
        "qubit1.cap_covering.points": _metric(mean("qubit1.cap_covering", "points"), "count"),
        "qubit1.support_filter.time_s": _metric(agg["qubit1.support_filter"]["time"], "s/item"),
        "qubit1.support_filter.kept_ratio": _metric(
            total("qubit1.support_filter", "kept") / offered if offered else 0.0, "ratio"),
        "qubit1.sphere_covering.time_s": _metric(agg["qubit1.sphere_covering"]["time"], "s"),
        "qubit1.sphere_covering.points": _metric(mean("qubit1.sphere_covering", "points"), "count"),
        "qubit1.covering_radius_estimate.calls": _metric(agg["qubit1.covering_radius_estimate"]["calls"], "count"),
        "qubit1.covering_radius_estimate.time_s": _metric(agg["qubit1.covering_radius_estimate"]["time"], "s"),
        "channels.choi.calls": _metric(agg["channels.choi"]["calls"], "1/item"),
        "channels.choi.time_s": _metric(agg["channels.choi"]["time"], "s/item"),
        "channels.optimal_mix.calls": _metric(agg["channels.optimal_mix"]["calls"], "1/item"),
        "channels.optimal_mix.self_s": _metric(agg["channels.optimal_mix"]["self"], "s/item"),
        "channels.optimal_mix.failures": _metric(total("channels.optimal_mix", "failed") * per_item, "1/item"),
        "channels.optimal_mix.candidates_mean": _metric(mean("channels.optimal_mix", "candidates"), "count"),
        "sdp.solve.calls": _metric(solve["calls"], "1/item"),
        "sdp.solve.time_s": _metric(solve["time"], "s/item"),
        "sdp.solve.self_s": _metric(solve["self"], "s/item"),
        "sdp.solve.iterations_mean": _metric(mean("sdp.solve", "iterations"), "count"),
        "sdp.solve.iterations_max": _metric(largest("sdp.solve", "iterations"), "count"),
        "sdp.solve.not_optimal": _metric(
            sum(1 for x in solve["attrs"] if not x.get("optimal", False)) * per_item, "1/item"),
        "sdp.solve.time_per_iteration_s": _metric(
            sum(d for s, d in zip(spans, dur) if s.name == "sdp.solve") / iters if iters else 0.0, "s"),
        "sdp.solve.constraints_mean": _metric(mean("sdp.solve", "constraints"), "count"),
        "sdp.solve.dense_dim_max": _metric(largest("sdp.solve", "dense_dim"), "count"),
        "sdp.solve.lp_dim_mean": _metric(mean("sdp.solve", "lp_dim"), "count"),
        "sdp.real_embed.time_s": _metric(agg["sdp.real_embed"]["time"], "s/item"),
    }
    return m
