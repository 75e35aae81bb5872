import numpy as np
import pytest

from usynth import qubit1
from usynth.channels import choi, diamond_distance
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
