"""The benchmark's closed-loop workloads.

Each workload makes item `i` of a run from the generator seeded with
`(seed, i)`, so a seed fixes the inputs whatever the run length. A run of
`seconds` holds `seconds * items_per_s` items, the rate of this workload on
the machine the benchmark was built on, so a seed also fixes the run's
items and its failure count. The runner times only `call`; `setup`, `make_input` and `check` run outside
the timed region. Every call into usynth goes through a module attribute
(`channels.optimal_mix`, not a name imported from it) so that the
tracer's wrappers see it.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from usynth import channels, cli, linalg, qubit1, synth


class ExitCodeError(RuntimeError):
    """`cli.main` returned a non-zero exit code."""


# Failures of the program that count against fail_rate; the run goes on.
PROGRAM_FAILURES = (channels.SdpFailureError, synth.CoveringUnreachableError, ExitCodeError)

# The standard gate set, written out here so that the synthesis check does
# not rely on the program's own gate definitions.
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j])
_T = np.diag([1, np.exp(1j * np.pi / 4)])
GATES = {"H": _H, "S": _S, "Sdg": _S.conj().T, "T": _T, "Tdg": _T.conj().T}


def item_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


class Workload:
    """Set-up and the run-level check do nothing unless a workload needs them."""

    items_per_s: float

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass

    def finish(self) -> list[str]:
        """Problems found over the whole run."""
        return []


class Synth1q(Workload):
    """The README's `usynth synth1q` command, run in process on Haar targets.

    Every request enumerates the sequence pool again and solves a d=2 dual
    SDP with an LP block of a few hundred candidates.
    """

    name = "synth1q"
    items_per_s = 6.0
    eps = 0.35
    delta = 1e-6
    max_len = 12

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = os.path.join(workdir, f"synth1q-{os.getpid()}")

    def setup(self) -> None:
        os.makedirs(self.dir, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def make_input(self, i: int) -> dict:
        U = linalg.haar_unitary(2, item_rng(self.seed, i))
        target = os.path.join(self.dir, "target.json")
        with open(target, "w", encoding="utf-8") as f:
            json.dump(linalg.matrix_to_json(U), f)
        return {"U": U, "target": target, "out": os.path.join(self.dir, "out.json")}

    def call(self, inp: dict):
        code = cli.main([
            "synth1q", "--target", inp["target"], "--eps", str(self.eps),
            "--delta", str(self.delta), "--max-len", str(self.max_len),
            "--seed", str(self.seed), "--out", inp["out"],
        ])
        if code != 0:
            raise ExitCodeError(f"cli.main exit code {code}")

    def check(self, inp: dict, _) -> tuple[str, str]:
        with open(inp["out"], encoding="utf-8") as f:
            res = json.load(f)
        prob, det, ach = res["prob_error"], res["det_error"], res["achieved_eps"]
        if prob > ach**2 + res["delta"]:
            return "mismatch", f"prob_error {prob} > achieved_eps^2 + delta"
        if det > ach:
            return "mismatch", f"det_error {det} > achieved_eps {ach}"
        W = []
        for labels in res["support"]:
            V = np.eye(2, dtype=complex)
            for lab in labels:  # a label appended later acts later
                V = GATES[lab] @ V
            W.append(qubit1.magic_embed(V))
        err = qubit1.mix_distance_1q(qubit1.magic_embed(inp["U"]), np.stack(W), np.array(res["p"]))
        if abs(err - prob) > 1e-6:
            return "mismatch", f"mixture of the support has error {err}, reported {prob}"
        return "ok", f"support {len(W)}"


class MixD3(Workload):
    """`optimal_mix` at d=3 over 2-5 Haar candidates (`mixopt` traffic).

    Almost all the time goes to the dense-block SDP path; `synth` and
    `qubit1` are never entered. About 6% of items fail with
    `SdpFailureError` (status MaxIter) at the parent of this benchmark.
    """

    name = "mix_d3"
    items_per_s = 1.5
    d = 3
    reference_share = 1 / 8  # items also re-checked with diamond_distance

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def make_input(self, i: int) -> dict:
        rng = item_rng(self.seed, i)
        target = linalg.haar_unitary(self.d, rng)
        cands = [linalg.haar_unitary(self.d, rng) for _ in range(int(rng.integers(2, 6)))]
        return {"U": target, "cands": cands, "reference": rng.random() < self.reference_share}

    def call(self, inp: dict):
        return channels.optimal_mix(
            channels.choi(inp["U"]), [channels.choi(V) for V in inp["cands"]]
        )

    def check(self, inp: dict, out) -> tuple[str, str]:
        p, value = out
        if p.shape != (len(inp["cands"]),) or np.any(p < 0) or abs(p.sum() - 1) > 1e-9:
            return "mismatch", f"p is off the simplex: {p}"
        best = min(channels.unitary_distance(inp["U"], V) for V in inp["cands"])
        if value > best + 1e-7:
            return "mismatch", f"value {value} above the best single candidate {best}"
        if not inp["reference"]:
            return "ok", f"candidates {len(p)}"
        mixture = channels.choi_mixture([channels.choi(V) for V in inp["cands"]], p)
        try:
            ref = channels.diamond_distance(channels.choi(inp["U"]), mixture)
        except channels.SdpFailureError as exc:
            return "unverified", f"reference SDP failed: {exc}"
        if abs(ref - value) > 1e-6:
            return "mismatch", f"diamond distance of the mixture {ref}, reported {value}"
        return "ok", f"candidates {len(p)}, reference checked"


class Cover(Workload):
    """Worst-case mixing queries against a calibrated eps-net of the qubit.

    Set-up calibrates `sphere_covering(eps, seed)` and finds its deepest
    hole; item 0 targets that hole and later items Haar targets. Each query
    is `support_filter` then `optimal_mix` at d=2 over the kept points.
    """

    name = "cover"
    items_per_s = 35.0

    def __init__(self, seed: int, workdir: str, eps: float = 0.2):
        self.seed = seed
        self.eps = eps
        self.worst = 0.0
        self.witness_answered = False

    def setup(self) -> None:
        self.net, _ = qubit1.sphere_covering(self.eps, seed=self.seed)
        _, w = qubit1.covering_radius_estimate(
            self.net, n_samples=200000, seed=self.seed + 1, return_witness=True
        )
        self.witness = w / np.linalg.norm(w)

    def make_input(self, i: int) -> np.ndarray:
        if i == 0:
            return self.witness
        return qubit1.magic_embed(linalg.haar_unitary(2, item_rng(self.seed, i)))

    def call(self, u: np.ndarray):
        idx = qubit1.support_filter(u, self.net, self.eps)
        cands = [channels.choi(qubit1.magic_unembed(self.net[j])) for j in idx]
        p, value = channels.optimal_mix(channels.choi(qubit1.magic_unembed(u)), cands)
        return idx, p, value

    def check(self, u: np.ndarray, out) -> tuple[str, str]:
        idx, p, value = out
        if value > self.eps**2 + 1e-6:
            return "mismatch", f"value {value} > eps^2"
        err = qubit1.mix_distance_1q(u, self.net[idx], p)
        if abs(err - value) > 1e-6:
            return "mismatch", f"mixture has error {err}, reported {value}"
        self.worst = max(self.worst, value)
        self.witness_answered |= u is self.witness
        return "ok", f"support {len(idx)}"

    def finish(self) -> list[str]:
        """Run-level check: the deepest hole reaches at least 0.9 eps^2.

        Skipped when the witness item itself failed; that failure is counted.
        """
        if self.witness_answered and self.worst < 0.9 * self.eps**2:
            return [f"worst value {self.worst} below 0.9 eps^2"]
        return []


WORKLOADS = {w.name: w for w in (Synth1q, MixD3, Cover)}
