"""Acceptance gate: end-to-end numerical criteria for the whole package.

Each test prints exactly one [PASS]/[FAIL] line with the measured numbers
and then asserts. Run with `pytest -v -s tests/test_acceptance.py` to see
the lines as they appear.
"""

import json
import time

import numpy as np
import pytest
from scipy.linalg import expm

from usynth import bounds, channels, cli, qubit1, synth
from usynth.channels import choi, choi_mixture, diamond_distance, optimal_mix
from usynth.linalg import haar_unitary
from usynth.qubit1 import (
    covering_radius,
    magic_embed,
    magic_unembed,
    mix_distance_1q,
    support_filter,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])


def test_acceptance_1_axial_three_paths():
    """Six axial rotations, target at pi/2: three independent computations
    of the optimal mixing error must agree."""
    t0 = time.perf_counter()
    thetas = [0, np.pi / 3, 2 * np.pi / 3, np.pi, 4 * np.pi / 3, 5 * np.pi / 3]
    target_theta = np.pi / 2
    det_expect = np.sin(np.pi / 12)
    prob_expect = det_expect**2

    # path 1: closed-form projection onto the hull of the eigenphases
    p1, v1 = bounds.axial_optimal(target_theta, thetas)

    # path 2: eigenvalue formula for single-qubit mixtures with the weights
    # from path 1
    u = magic_embed(rz(target_theta))
    W = np.stack([magic_embed(rz(t)) for t in thetas])
    v2 = mix_distance_1q(u, W, p1)

    # path 3: the full mixing SDP (Watrous's lowering; optimal_mix would take
    # the tie-set pivots on path 2's formula for these qubit unitaries)
    _, v3, _, _ = channels._mix(choi(rz(target_theta)), [choi(rz(t)) for t in thetas])

    det = min(qubit1.line_distance(u, w) for w in W)
    dt = time.perf_counter() - t0
    spread = max(abs(v1 - v2), abs(v1 - v3), abs(v2 - v3))
    ok = (
        spread <= 1e-7
        and abs(v1 - prob_expect) <= 1e-9
        and abs(det - det_expect) <= 1e-9
        and dt < 1.0
    )
    _report(
        "criterion 1 (axial three-path agreement)",
        ok,
        f"values=({v1:.10f},{v2:.10f},{v3:.10f}) spread={spread:.2e} "
        f"det={det:.10f} t={dt:.2f}s",
    )


def test_acceptance_2_qubit_bound_attained():
    """d=2: the bound curve collapses to r^2 at the covering radius r of the
    standard pool of sequences of length <= L, the best mixture at the
    pool's deepest hole errs by r^2, and no Haar target does worse."""
    t0 = time.perf_counter()
    lines = []
    ok = True
    gs = synth.standard_gate_set()
    rng = np.random.default_rng(123)
    targets = [magic_embed(haar_unitary(2, rng)) for _ in range(50)]
    for L in (4, 6, 8, 10, 12):
        P = synth.enumerate_sequences(gs, L).magic
        r, hole = covering_radius(P, return_witness=True)
        bp = bounds.theorem1_bounds(r, 2)
        ok &= abs(bp.lower - r * r) <= 1e-12 and abs(bp.upper - r * r) <= 1e-12

        # support_filter at r keeps what an r-covering needs; it takes r < 1/2.
        def support(u):
            return P if r >= 0.5 else P[support_filter(u, P, r)]

        _, upper, lower, _ = qubit1.optimal_mix_1q(hole, support(hole))
        ok &= lower - 1e-12 <= r * r and upper / (r * r) - 1 <= 2e-7
        worst = 0.0
        for u in targets:
            cands = [choi(magic_unembed(w)) for w in support(u)]
            _, v = optimal_mix(choi(magic_unembed(u)), cands)
            worst = max(worst, v)
        ok &= worst <= r * r + 1e-6
        lines.append(
            f"L={L}: n={len(P)} r={r:.5f} hole upper/r^2-1={upper / (r * r) - 1:.1e} "
            f"worst={worst:.6f}"
        )
    dt = time.perf_counter() - t0
    _report("criterion 2 (d=2 bound attained on the gate set's pools)", ok,
            "; ".join(lines) + f" t={dt:.1f}s")


def test_acceptance_3_sdp_vs_eigen_path():
    """500 random single-qubit mixtures: the diamond-distance SDP agrees
    with the 4x4 real-symmetric eigenvalue formula."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        U = haar_unitary(2, rng)
        Vs = [haar_unitary(2, rng) for _ in range(4)]
        p = rng.dirichlet(np.ones(4))
        fast = mix_distance_1q(
            magic_embed(U), np.stack([magic_embed(V) for V in Vs]), p
        )
        slow = diamond_distance(choi(U), choi_mixture([choi(V) for V in Vs], p))
        worst = max(worst, abs(fast - slow))
    ok = worst <= 1e-7
    _report(
        "criterion 3 (SDP vs eigenvalue path, 500 cases)",
        ok,
        f"max deviation {worst:.2e}",
    )


def test_acceptance_4_primal_dual_agreement():
    """100 random mixing instances, d in {2, 3}: the certified upper bound
    (the repaired primal) and lower bound (the repaired dual) of the mixing
    SDP agree at the default tolerances; at d=2 neither crosses the bounds
    of the independent tie-set pivots of `optimal_mix_1q`."""
    rng = np.random.default_rng(6)
    worst = 0.0
    crossing = -np.inf
    ok = True
    for k in range(100):
        d = 2 if k % 2 == 0 else 3
        U = haar_unitary(d, rng)
        n = int(rng.integers(2, 6))
        Vs = [haar_unitary(d, rng) for _ in range(n)]
        _, upper, lower, _ = channels._mix(choi(U), [choi(V) for V in Vs])
        ok &= 0.0 <= upper - lower <= 1e-7
        worst = max(worst, upper - lower)
        if d == 2:
            _, upper_1q, lower_1q, _ = qubit1.optimal_mix_1q(
                magic_embed(U), np.stack([magic_embed(V) for V in Vs])
            )
            crossing = max(crossing, lower - upper_1q, lower_1q - upper)
    ok &= crossing <= 1e-12
    _report(
        "criterion 4 (certified primal/dual bounds agree, 100 cases)",
        ok,
        f"max upper - lower {worst:.2e}, max crossing of the 4x4 bounds {crossing:.2e}",
    )


def test_acceptance_5_support_restriction_lossless():
    """100 targets against the standard pool of sequences of length <= 6,
    an r-covering with r its certified covering radius: restricting the
    mixing SDP to candidates within 2r of the target does not change the
    value. Both solves use the generic (Watrous) lowering; the tie-set pivots
    that optimal_mix takes for qubit unitaries are checked by criterion 2."""
    pts = synth.enumerate_sequences(synth.standard_gate_set(), 6).magic
    rad = covering_radius(pts)
    all_cands = [choi(magic_unembed(v)) for v in pts]
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        U = haar_unitary(2, rng)
        u = magic_embed(U)
        idx = support_filter(u, pts, rad)
        _, v_full, _, _ = channels._mix(choi(U), all_cands)
        _, v_filt, _, _ = channels._mix(choi(U), [all_cands[i] for i in idx])
        worst = max(worst, abs(v_full - v_filt))
    ok = worst <= 1e-7
    _report(
        "criterion 5 (support restriction lossless, 100 cases)",
        ok,
        f"pool size {len(pts)} rad={rad:.5f}, max deviation {worst:.2e}",
    )


def test_acceptance_6_d3_lower_sharpness():
    """d=3, eps=0.6: the constructed extremal family attains the lower
    bound 0.24889 within 5e-3."""
    t0 = time.perf_counter()
    eps, d = 0.6, 3
    fam = bounds.lower_family(eps, d)
    _, v = optimal_mix(choi(np.eye(d, dtype=complex)), [choi(W) for W in fam])
    dt = time.perf_counter() - t0
    expect = bounds.theorem1_bounds(eps, d).lower
    ok = abs(v - 0.24889) <= 5e-3 and abs(v - expect) <= 5e-3 and dt < 600
    _report(
        "criterion 6 (d=3 lower-bound sharpness)",
        ok,
        f"value={v:.8f} expected={expect:.8f} |size|={len(fam)} t={dt:.1f}s",
    )


def test_acceptance_7_first_order_baseline_dominated():
    """50 targets with symmetric candidate nets at eps=0.1: the mixing SDP
    never does worse than the first-order baseline, both stay below eps^2,
    and the baseline residual vanishes."""
    eps = 0.1
    rng = np.random.default_rng(8)
    ok = True
    worst_res = 0.0
    worst_gap = 0.0
    for _ in range(50):
        U = haar_unitary(2, rng)
        cands = []
        for _ in range(3):
            H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            H = (H + H.conj().T) / 2
            H -= (np.trace(H) / 2) * np.eye(2)
            t = rng.uniform(0.5 * eps, eps)
            H *= np.arcsin(t) / np.abs(np.linalg.eigvalsh(H)).max()
            cands += [U @ expm(1j * H), U @ expm(-1j * H)]
        p_c, res = synth.campbell_mix(U, cands)
        u = magic_embed(U)
        W = np.stack([magic_embed(V) for V in cands])
        err_c = mix_distance_1q(u, W, p_c)
        _, err_opt = optimal_mix(choi(U), [choi(V) for V in cands])
        worst_res = max(worst_res, res)
        worst_gap = max(worst_gap, err_opt - err_c)
        ok &= res <= 1e-8
        ok &= err_opt <= err_c + 1e-7
        ok &= err_c <= eps * eps + 1e-6 and err_opt <= eps * eps + 1e-6
    _report(
        "criterion 7 (first-order baseline dominated, 50 cases)",
        ok,
        f"max residual {worst_res:.2e}, max (opt - baseline) {worst_gap:.2e}",
    )


def test_acceptance_8_synthesis_pipeline(tmp_path, capsys):
    """End-to-end probabilistic synthesis over {H, S, Sdg, T, Tdg} with
    sequences of length <= 12: quadratic error reduction, deterministic
    byte-identical output."""
    t0 = time.perf_counter()
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = [
        "synth1q", "--target", "H", "--eps", "0.35", "--delta", "1e-6",
        "--seed", "11", "--samples", "32", "--max-len", "12",
    ]
    code1 = cli.main(argv + ["--out", out1])
    code2 = cli.main(argv + ["--out", out2])
    capsys.readouterr()
    with open(out1, "rb") as f:
        raw1 = f.read()
    with open(out2, "rb") as f:
        raw2 = f.read()
    obj = json.loads(raw1)
    dt = time.perf_counter() - t0
    ok = (
        code1 == 0
        and code2 == 0
        and raw1 == raw2
        and obj["prob_error"] <= obj["achieved_eps"] ** 2 + 1e-6
        and obj["det_error"] <= obj["achieved_eps"]
        and dt < 900
    )
    _report(
        "criterion 8 (synthesis pipeline, len<=12)",
        ok,
        f"achieved_eps={obj['achieved_eps']:.4f} det={obj['det_error']:.4e} "
        f"prob={obj['prob_error']:.4e} byte_identical={raw1 == raw2} t={dt:.1f}s",
    )
