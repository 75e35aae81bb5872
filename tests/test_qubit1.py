import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from usynth import channels, qubit1
from usynth.channels import SdpFailureError, choi
from usynth.linalg import haar_unitary
from usynth.qubit1 import (
    cap_covering,
    covering_radius,
    left_multiplication,
    line_distance,
    magic_embed,
    magic_embed_batch,
    magic_unembed,
    mix_distance_1q,
    optimal_mix_1q,
    sphere_covering,
    support_filter,
)
from usynth.synth import enumerate_sequences


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


def test_left_multiplication_composes_magic_vectors():
    # m(G V) = +-L(m(G)) m(V): magic vectors compose as unit quaternions.
    rng = np.random.default_rng(3)
    G = np.stack([haar_unitary(2, rng) for _ in range(200)])
    V = np.stack([haar_unitary(2, rng) for _ in range(200)])
    L = left_multiplication(magic_embed_batch(G))
    got = np.einsum("nab,nb->na", L, magic_embed_batch(V))
    assert np.max(line_distance(magic_embed_batch(G @ V), got)) <= 1e-14
    assert np.max(np.abs(L @ L.transpose(0, 2, 1) - np.eye(4))) <= 1e-15


def test_distance_1q_matches_diamond_sdp():
    # Watrous's one-candidate SDP (`_mix`): diamond_distance takes the tie-set pivots here.
    rng = np.random.default_rng(3)
    for _ in range(20):
        U, V = haar_unitary(2, rng), haar_unitary(2, rng)
        d = line_distance(magic_embed(U), magic_embed(V))
        assert abs(d - channels._mix(choi(U), [choi(V)])[1]) < 1e-7


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

        mixJ = choi_mixture([choi(V) for V in Vs], p)
        slow = np.linalg.svd(choi(U).J - mixJ.J, compute_uv=False).sum() / 4
        assert abs(fast - slow) < 1e-7


def test_mix_distance_point_mass_reduces_to_distance():
    rng = np.random.default_rng(5)
    u = magic_embed(haar_unitary(2, rng))
    w = magic_embed(haar_unitary(2, rng))
    assert abs(mix_distance_1q(u, w[None, :], np.array([1.0])) - line_distance(u, w)) < 1e-10


def test_support_filter_examples():
    def rz_vec(t):
        return magic_embed(np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)]))

    u = rz_vec(0.0)
    dists = [0.05, 0.15, 0.35]
    W = np.stack([rz_vec(2 * np.arcsin(d)) for d in dists])
    idx = support_filter(u, W, 0.1)
    assert list(idx) == [0, 1]
    with pytest.raises(ValueError, match=r"no candidate within 2\*eps = 0.2 of the target; "
                       "the covering premise is violated"):
        support_filter(u, W[2:], 0.1)
    with pytest.raises(ValueError):
        support_filter(u, W, 0.5)
    with pytest.raises(ValueError):
        support_filter(u, W, 0.0)


def test_magic_unembed_is_bitwise_the_numpy_scalar_formula():
    # The formula on numpy scalars, as magic_unembed once computed it. Python's
    # complex(a, b) would differ: it keeps the sign of a zero b that a + 1j * b drops.
    rng = np.random.default_rng(11)
    for _ in range(1000):
        u = rng.standard_normal(4) * (rng.random(4) < 0.7)
        u[0] += not u.any()
        u = u / np.linalg.norm(u) * rng.choice([-1.0, 1.0], 4)  # zeros of both signs
        a, b, c, d = u
        ref = np.array([[a + 1j * b, -d + 1j * c], [d + 1j * c, a - 1j * b]], dtype=complex)
        assert magic_unembed(u).tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "call",
    [
        lambda e0, I2: mix_distance_1q(2 * e0, I2, [1.0, 0.0]),
        lambda e0, I2: mix_distance_1q(e0, I2, [2.0, -1.0]),
        lambda e0, I2: mix_distance_1q(e0, I2, [1.0]),
        lambda e0, I2: mix_distance_1q(e0, [[np.nan, 0, 0, 0]], [1.0]),
        lambda e0, I2: mix_distance_1q(e0, I2[:, :3], [1.0, 0.0]),
        lambda e0, I2: support_filter(e0, [[0.5, 0, 0, 0]], 0.3),
        lambda e0, I2: support_filter(e0[:3], I2, 0.3),
        lambda e0, I2: support_filter(np.full(4, np.inf), I2, 0.3),
        lambda e0, I2: support_filter(e0, np.zeros((0, 4)), 0.3),
    ],
    ids=["long-target", "negative-weight", "short-weights", "nan-row", "short-rows",
         "half-length-row", "short-target", "inf-target", "no-rows"],
)
def test_mix_distance_and_support_filter_check_their_inputs(call):
    e0, I2 = np.eye(4)[0], np.eye(4)[:2]
    with pytest.raises(ValueError):
        call(e0, I2)


def test_mix_distance_1q_takes_one_candidate_as_a_vector():
    rng = np.random.default_rng(5)
    u, w = (magic_embed(haar_unitary(2, rng)) for _ in range(2))
    assert mix_distance_1q(u, w, [1.0]) == mix_distance_1q(u, w[None], [1.0])
    assert support_filter(u, u, 0.1).tolist() == [0]


def test_nan_vector_is_not_a_unit_vector():
    # abs(nan - 1) > tol is False: the checks must read not abs(...) <= tol.
    u = np.array([np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="expected a unit 4-vector"):
        magic_unembed(u)
    with pytest.raises(ValueError, match="center must be a unit 4-vector"):
        cap_covering(u, 0.4, 0.1)


def test_cap_covering_zero_radius():
    # A cap needs 0 < mesh_eps <= cap_radius_eps < 1; prob_synth's cap, 2 eps,
    # is never 0.
    c = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="0 < mesh_eps <= cap_radius_eps < 1"):
        cap_covering(c, 0.0, 0.1)


@pytest.mark.parametrize("cap, mesh, count", [(0.7, 0.175, 619), (0.9, 0.225, 799),
                                               (0.32, 0.08, 461)])
def test_cap_covering_keeps_the_grid_within_the_new_radius(full_cap, cap, mesh, count):
    # The points kept are the full (pi/2) cap grid's within tangent radius
    # arcsin(cap) + arcsin(mesh), bit for bit and in order (925 points before the trim),
    # and they still cover the cap, up to its edge.
    rng = np.random.default_rng([45, count])
    radius = min(np.pi / 2 * (cap / mesh), (np.arcsin(cap) + np.arcsin(mesh)) / mesh)
    for _ in range(3):
        c = magic_embed(haar_unitary(2, rng))
        pts = cap_covering(c, cap, mesh)
        ref, norms = full_cap(c, cap, mesh)
        assert (len(ref), len(pts)) == (925, count)
        assert pts.tobytes() == ref[norms <= radius].tobytes()
        frame = qubit1._tangent_frame(c)
        r = np.arcsin(cap) * np.concatenate([rng.uniform(size=1000) ** (1 / 3),
                                             1 - 0.05 / np.arcsin(cap) * rng.uniform(size=1000)])
        d = rng.standard_normal((len(r), 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        v = np.cos(r)[:, None] * c + np.sin(r)[:, None] * (d @ frame)
        near = np.max(np.abs(v @ pts.T), axis=1)
        assert np.all(np.sqrt(np.maximum(0.0, 1 - near**2)) <= mesh + 1e-9)


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
    # every point is a unit vector
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)


def test_covering_radius_is_certified(std_gateset):
    pts = enumerate_sequences(std_gateset, 8).magic
    r, w = covering_radius(pts, return_witness=True)
    assert abs(r - 0.27326) <= 5e-6
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12
    # The witness is a hole of exactly that depth ...
    assert abs(np.sqrt(1 - np.max(np.abs(pts @ w)) ** 2) - r) <= 1e-12
    # ... and no point of S^3 lies deeper: 200,000 samples, 20,000 at a time.
    rng = np.random.default_rng(8)
    for _ in range(10):
        S = rng.standard_normal((20000, 4))
        S /= np.linalg.norm(S, axis=1, keepdims=True)
        near = np.max(np.abs(S @ pts.T), axis=1)
        assert np.max(np.sqrt(np.maximum(0.0, 1 - near**2))) <= r + 1e-12


def test_covering_radius_rank_deficient_nets():
    rng = np.random.default_rng(9)
    for P in (np.eye(4)[:1], np.eye(4)[:3], np.linalg.qr(rng.standard_normal((4, 3)))[0].T,
              np.vstack([np.eye(4)[:2], -np.eye(4)[:2], [[0.6, 0.8, 0, 0]]])):
        r, w = covering_radius(P, return_witness=True)
        assert r == 1.0
        assert abs(np.linalg.norm(w) - 1) < 1e-12 and np.max(np.abs(P @ w)) < 1e-12


def test_covering_radius_full_rank_examples():
    # The 4 basis vectors leave the hole (1, 1, 1, 1)/2 at depth 1/2.
    r, w = covering_radius(np.eye(4), return_witness=True)
    assert abs(r - np.sqrt(3) / 2) < 1e-12
    assert np.allclose(np.abs(w), 0.5, atol=1e-12)


def test_covering_radius_rejects_bad_input():
    for bad in (np.eye(4)[0], np.eye(3), np.zeros((0, 4)), np.ones((2, 4, 1))):
        with pytest.raises(ValueError, match=r"points must have shape \(n, 4\)"):
            covering_radius(bad)
    for bad in (2 * np.eye(4), np.vstack([np.eye(4), np.full(4, np.nan)]), np.full((1, 4), np.inf)):
        with pytest.raises(ValueError, match="points must be unit 4-vectors"):
            covering_radius(bad)


def test_covering_radius_estimate_is_an_alias():
    r, w = covering_radius(np.eye(4), return_witness=True)
    r2, w2 = qubit1.covering_radius_estimate(np.eye(4), n_samples=10, seed=3, return_witness=True)
    assert r2 == r and np.array_equal(w2, w)


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
# An exact hit twice over: the start certifies with no pivot.
@example(u=np.array([1.0, 0, 0, 0]), W=np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]]))
def test_optimal_mix_1q_certificate(u, W):
    p, upper, lower, _ = optimal_mix_1q(u, W)
    # Both bounds are evaluated in floating point: allow rounding at 1e-12.
    assert lower <= upper + 1e-12 and upper <= lower + 1e-7
    assert abs(p.sum() - 1) < 1e-12 and np.all(p >= 0)
    assert abs(upper - mix_distance_1q(u, W, p)) <= 1e-12
    # Never worse than the best single candidate.
    assert upper <= min(line_distance(u, w) for w in W) + 1e-9
    # Against the generic lowering: optimal_mix itself would call this function.
    _, value, _, _ = channels._mix(choi(magic_unembed(u)), [choi(magic_unembed(w)) for w in W])
    assert abs(upper - value) <= 1e-7


@pytest.mark.parametrize("seed", range(3))
def test_check_1q_re_derives_lower_from_v_and_any_unit_vector_bounds_below_the_optimum(seed):
    rng = np.random.default_rng([44, seed])
    u = magic_embed(haar_unitary(2, rng))
    W = magic_embed_batch(np.stack([haar_unitary(2, rng) for _ in range(6)]))
    p, upper, lower, v = optimal_mix_1q(u, W)
    assert abs(np.linalg.norm(v) - 1) <= 1e-12
    # lower is two lines of the returned v, with no solve.
    assert min(max(float((u @ v) ** 2 - np.max((W @ v) ** 2)), 0.0), upper) == lower
    assert qubit1._check_1q(u, W, p, v)[0] == upper
    # Every unit v' certifies: v'^T M v' <= lambda_max(M) for every mixture's M.
    for w in rng.normal(size=(100, 4)):
        assert qubit1._check_1q(u, W, p, w / np.linalg.norm(w))[2] <= upper


@pytest.mark.parametrize("max_len", [4, 6, 8, 10, 12])
def test_the_certificate_at_the_pool_deepest_hole_is_the_hole(std_gateset, max_len):
    # At the hole w the optimum's v is w itself, and v = w certifies r^2 in one line:
    # (w.w)^2 - max_x (p_x.w)^2 = 1 - b^2.
    P = enumerate_sequences(std_gateset, max_len).magic
    r, w = covering_radius(P, return_witness=True)
    p, _, _, v = optimal_mix_1q(w, P)
    assert abs(v @ w) >= 1 - 1e-9
    assert abs(qubit1._check_1q(w, P, p, w)[2] - r**2) <= 1e-14


@given(u=_units, W=_unit_sets, flips=arrays(bool, 8))
def test_optimal_mix_1q_sign_invariance(u, W, flips):
    signs = np.where(flips[: len(W)], -1.0, 1.0)[:, None]
    _, upper, lower, _ = optimal_mix_1q(u, W)
    _, upper_f, lower_f, _ = optimal_mix_1q(-u, signs * W)
    assert abs(upper_f - upper) <= 1e-12 and abs(lower_f - lower) <= 1e-12


@given(W=_unit_sets, pick=st.integers(0, 7))
def test_optimal_mix_1q_exact_candidate(W, pick):
    _, upper, lower, _ = optimal_mix_1q(W[pick % len(W)], W)
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
    with pytest.raises(ValueError, match="empty candidate list"):
        optimal_mix_1q(u, np.zeros((0, 4)))


def _near(rng, u, n, spread):
    """n unit rows scattered about u."""
    W = u + spread * rng.standard_normal((n, 4))
    return W / np.linalg.norm(W, axis=1, keepdims=True)


def _random_set(i):
    """Case i of a seeded family of 2-39 rows scattered about a Haar target."""
    rng = np.random.default_rng([61, i])
    n = int(rng.integers(2, 40))
    u = magic_embed(haar_unitary(2, rng))
    return u, _near(rng, u, n, rng.uniform(0.05, 1.0))


def test_optimal_mix_1q_raises_past_the_pivot_cap(monkeypatch, pivots):
    u, W = _random_set(0)
    optimal_mix_1q(u, W)
    assert len(pivots) >= 1
    monkeypatch.setattr(qubit1, "PIVOTS", 0)
    with pytest.raises(SdpFailureError, match=r"^no certificate after 0 pivots: width \S+ "
                                              r"above gap_tol 1\.00e-08$"):
        optimal_mix_1q(u, W)


@pytest.mark.parametrize("gap_tol", [np.nan, 0.0, -1.0, np.inf])
def test_optimal_mix_1q_rejects_a_gap_tol_that_is_not_positive_and_finite(solves, gap_tol):
    with pytest.raises(ValueError, match="gap_tol must be positive and finite"):
        optimal_mix_1q(np.eye(4)[0], np.eye(4)[1:], gap_tol)
    assert solves == []


def test_optimal_mix_1q_wide_support_memory_is_linear():
    # 10^5 candidates: n^2 floats would be 80 GB; the solve needs a few
    # hundred bytes per candidate.
    rng = np.random.default_rng(17)
    n = 100_000
    W = rng.standard_normal((n, 4))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    u = W[0] + 0.1 * rng.standard_normal(4)
    u /= np.linalg.norm(u)
    tracemalloc.start()
    try:
        p, upper, lower, _ = optimal_mix_1q(u, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * n
    assert p.shape == (n,) and abs(p.sum() - 1) < 1e-12
    assert lower <= upper + 1e-12 and upper - lower <= 1e-7


def _seeded_sets(kind, std_gateset):
    """(u, W, gap_tol) of seeded d = 2 mixing problems of one kind."""
    if kind in ("synth-12", "synth-20"):  # prob_synth's supports, at (L, eps) as synth1q runs
        max_len, eps = (12, 0.35) if kind == "synth-12" else (20, 0.16)
        P = enumerate_sequences(std_gateset, max_len).magic
        for i in range(4):
            u = magic_embed(haar_unitary(2, np.random.default_rng([51, max_len, i])))
            yield u, P[support_filter(u, P, eps)], 1e-6
    elif kind == "cover":  # the cover workload's queries: a calibrated net's 2*eps support
        net, _ = sphere_covering(0.2)
        for i in range(6):
            u = magic_embed(haar_unitary(2, np.random.default_rng([52, i])))
            yield u, net[support_filter(u, net, 0.2)], 1e-8
    else:  # rows near u, some repeated, some negated, and u itself
        rng = np.random.default_rng(53)
        for i in range(12):
            u = magic_embed(haar_unitary(2, rng))
            W = _near(rng, u, int(rng.integers(2, 40)), rng.uniform(0.05, 1.0))
            yield u, np.vstack([W, W[:3], -W[:2], np.tile(u, (i % 2, 1))]), 1e-8


@pytest.mark.parametrize("kind", ["synth-12", "synth-20", "cover", "random"])
def test_optimal_mix_1q_certifies_at_its_gap_and_meets_watrous(std_gateset, solves, kind):
    for u, W, gap_tol in _seeded_sets(kind, std_gateset):
        p, upper, lower, _ = optimal_mix_1q(u, W, gap_tol)
        assert upper - lower <= gap_tol and 0 <= lower <= upper
        assert abs(p.sum() - 1) <= 1e-12 and np.all(p >= 0) and np.count_nonzero(p) <= 4
        assert upper == mix_distance_1q(u, W, p)
        assert solves == []  # qubit1 poses no SDP
        ops = [choi(magic_unembed(w)) for w in W]
        _, value, _, _ = channels._mix(choi(magic_unembed(u)), ops)
        assert abs(upper - value) <= gap_tol + 1e-8
        solves.clear()


def test_optimal_mix_1q_pivots_to_the_far_candidate(pivots):
    # 20 candidates at angles 0.100-0.138 from u = e0, all tilted toward +e1,
    # and one at 0.2 tilted toward -e1. The near ones cannot cancel the tilt,
    # so the far candidate enters the tie set and the answer.
    th = 0.100 + 0.002 * np.arange(20)
    phi = 2 * np.pi * np.arange(20) / 20
    tilt = np.column_stack([np.full(20, 0.6), np.cos(phi), np.sin(phi)])
    tilt /= np.linalg.norm(tilt, axis=1, keepdims=True)
    W = np.vstack([np.column_stack([np.cos(th), np.sin(th)[:, None] * tilt]),
                   [np.cos(0.2), -np.sin(0.2), 0.0, 0.0]])
    u = np.eye(4)[0]
    p, upper, lower, _ = optimal_mix_1q(u, W)
    assert p[-1] > 0 and np.count_nonzero(p) <= 4 and 20 in pivots[-1]
    assert upper == mix_distance_1q(u, W, p) and 0 <= lower <= upper <= lower + 1e-8
    # Watrous's lowering over all 21 channels agrees.
    _, value, _, _ = channels._mix(choi(magic_unembed(u)), [choi(magic_unembed(w)) for w in W])
    assert abs(upper - value) <= 1e-7
    # The 16 nearest alone are far worse.
    assert optimal_mix_1q(u, W[:16])[1] > 3 * upper


def test_optimal_mix_1q_exact_hit_takes_no_pivot(pivots):
    # The nearest row is the target: the start certifies, with lower clamped to upper = 0.
    e0 = np.eye(4)[0]
    p, upper, lower, _ = optimal_mix_1q(e0, np.array([e0, e0]))
    assert pivots == [] and upper == lower == 0.0 and p.tolist() == [1.0, 0.0]


def test_optimal_mix_1q_stops_when_the_entering_row_is_already_tied(pivots):
    # Trap (a): at the optimum a row of the tie set can price 2e-16 above the set's c^2 by
    # rounding, so a width above a tiny gap_tol would send that row in again, forever.
    # The walk stops instead, with the width at rounding level.
    u, W = _random_set(0)
    p, upper, lower, _ = optimal_mix_1q(u, W, 1e-300)
    assert 0 < upper - lower <= 1e-15 and len(pivots) < 20


def test_vertices_rejects_a_tie_set_orthogonal_to_v(monkeypatch):
    # Trap (b): rows orthogonal to u = e0 tie at c = w.v = 0 with v = u. There the 5
    # equations do not fix p (c multiplies every p_x), and what the solve returns is
    # rounding; on this pair it even lies on the simplex. Only c > TIE_DOT rejects it.
    u = np.eye(4)[0]
    S = np.column_stack([np.zeros(2), np.random.default_rng([71, 29]).standard_normal((2, 3))])
    S /= np.linalg.norm(S, axis=1, keepdims=True)
    ok, _, v, c = qubit1._vertices(u, S, np.array([[0, 1]]))
    assert not ok[0] and c[0] <= 1e-15 and abs(abs(v[0] @ u) - 1) <= 1e-15
    monkeypatch.setattr(qubit1, "TIE_DOT", -1.0)
    ok, p, _, _ = qubit1._vertices(u, S, np.array([[0, 1]]))
    assert ok[0] and np.all(p > 0)


@pytest.mark.parametrize("case", [1, 375])
def test_optimal_mix_1q_walks_only_to_optimal_vertices(case):
    # Each pivot keeps a set with lam >= 0 (trap (c): otherwise v is not the top
    # eigenvector, and case 375 reaches a pivot with no admissible set) that prices no
    # left-out row above c^2 (otherwise case 1 drops and re-enters rows until the cap).
    u, W = _random_set(case)
    p, upper, lower, _ = optimal_mix_1q(u, W)
    assert upper - lower <= 1e-8 and np.count_nonzero(p) <= 4


def test_vertices_of_a_batch_are_those_of_each_set():
    # One call evaluates every tie set of a size together: the same answer set by set.
    u, W = _random_set(2)
    S = W * np.where(W @ u < 0, -1.0, 1.0)[:, None]
    for k in (1, 2, 3, 4):
        sets = np.array(list(itertools.combinations(range(6), k)))
        batch = qubit1._vertices(u, S, sets)
        for i, row in enumerate(sets):
            one = qubit1._vertices(u, S, row[None])
            assert one[0][0] == batch[0][i]
            for a, b in zip(one[1:], batch[1:]):
                assert np.allclose(a[0], b[i], rtol=0, atol=1e-14)


@pytest.mark.parametrize("d, n", [(2, 1), (2, 3), (3, 4), (4, 2)])
def test_mixing_problems_have_the_row_counts_the_benchmark_reads(solves, d, n):
    # The benchmark's tracer reports len(problem.constraints) of every solve:
    # (n + 1)^2 + d^2 + 1 for _mix with n unitary candidates of a unitary target, whose
    # support has n + 1 dimensions (n + 1 <= d^2), and none for optimal_mix_1q.
    rng = np.random.default_rng([d, n])
    U = [haar_unitary(d, rng) for _ in range(n + 1)]
    channels._mix(choi(U[0]), [choi(V) for V in U[1:]])
    if d == 2:
        optimal_mix_1q(magic_embed(U[0]), magic_embed_batch(np.stack(U[1:])))
    rows = [len(s.problem.constraints) for s in solves]
    assert rows == [(n + 1) ** 2 + d * d + 1]
