from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from usynth import qubit1, sdp
from usynth.channels import (
    EmptyCandidatesError,
    SdpFailureError,
    choi,
    diamond_distance,
    optimal_mix,
)
from usynth.linalg import haar_unitary
from usynth.qubit1 import (
    EmptySupportError,
    cap_covering,
    covering_radius_estimate,
    distance_1q,
    magic_embed,
    magic_embed_batch,
    magic_unembed,
    mix_distance_1q,
    optimal_mix_1q,
    sphere_covering,
    support_filter,
)


Y = np.array([[0, -1j], [1j, 0]])


def test_magic_embed_examples():
    assert np.allclose(magic_embed(np.eye(2)), [1, 0, 0, 0])
    u = magic_embed(np.diag([1, 1j]))
    assert np.allclose(u, [np.sqrt(0.5), -np.sqrt(0.5), 0, 0], atol=1e-12)
    assert np.allclose(magic_embed(Y), [0, 0, 0, 1])


def test_magic_embed_phase_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        U = haar_unitary(2, rng)
        u = magic_embed(U)
        v = magic_embed(np.exp(1j * rng.uniform(0, 2 * np.pi)) * U)
        assert np.linalg.norm(u - v) < 1e-10


def test_magic_roundtrip_vector_residual():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        u = magic_embed(haar_unitary(2, rng))
        v = magic_embed(magic_unembed(u))
        assert np.linalg.norm(u - v) <= 1e-9


def test_magic_embed_is_unit_and_isometric():
    rng = np.random.default_rng(2)
    U = np.stack([haar_unitary(2, rng) for _ in range(200)])
    V = magic_embed_batch(U)
    assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-9)
    # unembed always returns a unitary
    for v in V[:50]:
        W = magic_unembed(v)
        assert np.linalg.norm(W.conj().T @ W - np.eye(2)) < 1e-9


def test_distance_1q_matches_diamond_sdp():
    rng = np.random.default_rng(3)
    for _ in range(20):
        U, V = haar_unitary(2, rng), haar_unitary(2, rng)
        d = distance_1q(magic_embed(U), magic_embed(V))
        assert abs(d - diamond_distance(choi(U), choi(V))) < 1e-7


def test_mix_distance_1q_matches_diamond_sdp():
    rng = np.random.default_rng(4)
    for _ in range(20):
        U = haar_unitary(2, rng)
        Vs = [haar_unitary(2, rng) for _ in range(4)]
        p = rng.dirichlet(np.ones(4))
        fast = mix_distance_1q(
            magic_embed(U), np.stack([magic_embed(V) for V in Vs]), p
        )
        from usynth.channels import choi_mixture
        from usynth.linalg import trace_norm

        mixJ = choi_mixture([choi(V) for V in Vs], p)
        slow = trace_norm(choi(U).J - mixJ.J) / 4
        assert abs(fast - slow) < 1e-7


def test_mix_distance_point_mass_reduces_to_distance():
    rng = np.random.default_rng(5)
    u = magic_embed(haar_unitary(2, rng))
    w = magic_embed(haar_unitary(2, rng))
    assert abs(mix_distance_1q(u, w[None, :], np.array([1.0])) - distance_1q(u, w)) < 1e-10


def test_support_filter_examples():
    def rz_vec(t):
        return magic_embed(np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)]))

    u = rz_vec(0.0)
    dists = [0.05, 0.15, 0.35]
    W = np.stack([rz_vec(2 * np.arcsin(d)) for d in dists])
    idx = support_filter(u, W, 0.1)
    assert list(idx) == [0, 1]
    with pytest.raises(EmptySupportError):
        support_filter(u, W[2:], 0.1)
    with pytest.raises(ValueError):
        support_filter(u, W, 0.5)
    with pytest.raises(ValueError):
        support_filter(u, W, 0.0)


def test_cap_covering_zero_radius():
    c = np.array([1.0, 0.0, 0.0, 0.0])
    pts = cap_covering(c, 0.0, 0.1)
    assert pts.shape == (1, 4)
    assert np.allclose(pts[0], c)


def test_cap_covering_count_is_scale_free():
    c = np.array([0.0, 1.0, 0.0, 0.0])
    n1 = cap_covering(c, 0.4, 0.1).shape[0]
    n2 = cap_covering(c, 0.2, 0.05).shape[0]
    assert n1 == n2


def test_cap_covering_covers_sampled_ball():
    rng = np.random.default_rng(6)
    c = magic_embed(haar_unitary(2, rng))
    cap, mesh = 0.3, 0.1
    pts = cap_covering(c, cap, mesh)
    # sample the cap and check every sample has a net point within mesh
    frame = qubit1._tangent_frame(c)
    for _ in range(2000):
        r = np.arcsin(cap) * rng.uniform() ** (1 / 3)
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        v = np.cos(r) * c + np.sin(r) * (d @ frame)
        near = np.max(np.abs(pts @ v))
        assert np.sqrt(max(0.0, 1 - near**2)) <= mesh + 1e-9


def test_sphere_covering_radius_window():
    pts, rad = sphere_covering(0.5, seed=0)
    assert rad <= 0.985 * 0.5 + 1e-12
    assert rad >= 0.9 * 0.5
    # every point is a unit vector with canonical sign
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)


def test_covering_radius_estimate_witness():
    pts, rad = sphere_covering(0.5, seed=0)
    r2, w = covering_radius_estimate(pts, n_samples=50000, seed=1, return_witness=True)
    assert abs(np.linalg.norm(w) - 1.0) < 1e-9
    # witness depth is consistent with the reported radius
    near = np.max(np.abs(pts @ w))
    assert abs(np.sqrt(1 - near**2) - r2) < 1e-9
    assert r2 <= rad + 0.02


def test_sphere_covering_rejects_bad_eps():
    with pytest.raises(ValueError):
        sphere_covering(0.0)
    with pytest.raises(ValueError):
        sphere_covering(1.5)


def test_s3_net_has_no_antipodal_duplicates():
    # At this spacing near-ties of the two largest components give some p
    # and -p opposite canonical signs.
    P = qubit1._s3_net(np.arcsin(0.1))
    Q = np.round(np.vstack([P, -P]), 9) + 0.0
    assert len(np.unique(Q, axis=0)) == len(Q)


def _unit_rows(A):
    """Rows scaled to unit length; rows too short to scale become e_0."""
    norms = np.linalg.norm(A, axis=1, keepdims=True)
    return np.where(norms > 1e-3, A / np.maximum(norms, 1e-3), np.eye(4)[0])


_coords = st.floats(-1.0, 1.0, allow_nan=False)
_units = arrays(float, (1, 4), elements=_coords).map(lambda A: _unit_rows(A)[0])
_unit_sets = arrays(
    float, st.tuples(st.integers(1, 8), st.just(4)), elements=_coords
).map(_unit_rows)


@given(u=_units, W=_unit_sets)
def test_optimal_mix_1q_certificate(u, W):
    p, upper, lower = optimal_mix_1q(u, W)
    # Both bounds are evaluated in floating point: allow rounding at 1e-12.
    assert lower <= upper + 1e-12 and upper <= lower + 1e-7
    assert abs(p.sum() - 1) < 1e-12 and np.all(p >= 0)
    assert abs(upper - mix_distance_1q(u, W, p)) <= 1e-12
    # Never worse than the best single candidate.
    assert upper <= min(distance_1q(u, w) for w in W) + 1e-9
    _, value = optimal_mix(choi(magic_unembed(u)), [choi(magic_unembed(w)) for w in W])
    assert abs(upper - value) <= 1e-7


@given(u=_units, W=_unit_sets, flips=arrays(bool, 8))
def test_optimal_mix_1q_sign_invariance(u, W, flips):
    signs = np.where(flips[: len(W)], -1.0, 1.0)[:, None]
    _, upper, lower = optimal_mix_1q(u, W)
    _, upper_f, lower_f = optimal_mix_1q(-u, signs * W)
    assert abs(upper_f - upper) <= 1e-12 and abs(lower_f - lower) <= 1e-12


@given(W=_unit_sets, pick=st.integers(0, 7))
def test_optimal_mix_1q_exact_candidate(W, pick):
    _, upper, lower = optimal_mix_1q(W[pick % len(W)], W)
    assert lower <= upper + 1e-12 and upper <= 1e-8


def test_optimal_mix_1q_rejects_bad_input():
    u = np.array([1.0, 0.0, 0.0, 0.0])
    W = np.eye(4)
    for bad_u in (2 * u, u[:3], np.full(4, np.nan), np.outer(u, u)):
        with pytest.raises(ValueError, match="target must be a unit 4-vector"):
            optimal_mix_1q(bad_u, W)
    for bad_W in (u, W[:, :3], np.ones((2, 4, 1))):
        with pytest.raises(ValueError, match=r"candidates must have shape \(n, 4\)"):
            optimal_mix_1q(u, bad_W)
    for bad_W in (2 * W, np.vstack([W, np.full(4, np.inf)])):
        with pytest.raises(ValueError, match="candidates must be unit 4-vectors"):
            optimal_mix_1q(u, bad_W)
    with pytest.raises(EmptyCandidatesError):
        optimal_mix_1q(u, np.zeros((0, 4)))


def test_optimal_mix_1q_raises_when_solve_fails(monkeypatch):
    solve = sdp.solve
    monkeypatch.setattr(sdp, "solve", lambda *a, **k: replace(solve(*a, **k), status="Stalled"))
    with pytest.raises(SdpFailureError, match="status Stalled"):
        optimal_mix_1q(np.array([1.0, 0.0, 0.0, 0.0]), np.eye(4)[1:])
