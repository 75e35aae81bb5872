import numpy as np
import pytest

from usynth import channels, qubit1
from usynth.synth import (
    BranchCutError,
    BudgetExceededError,
    CoveringUnreachableError,
    EmptyPoolError,
    GateSequence,
    GateSet,
    _nearest,
    campbell_mix,
    det_synth,
    enumerate_sequences,
    prob_synth,
    sample,
    standard_gate_set,
)


def reference_enumerate(gs, max_len, dedup_tol=1e-9, budget=500000):
    """Per-product loop that deduplicates one product at a time.

    The reference for `enumerate_sequences`, which deduplicates a whole
    length at once and must return the same pool and raise the same
    BudgetExceededError.
    """
    decimals = max(1, int(round(-np.log10(max(dedup_tol, 1e-12)))) - 1)
    order = sorted(range(len(gs.labels)), key=lambda i: gs.labels[i])
    glabels = [gs.labels[i] for i in order]
    gmats = np.stack([gs.unitaries[i] for i in order])
    ng = len(glabels)

    def key_of(mv):
        r = np.round(mv, decimals)
        r += 0.0
        return tuple(r)

    ident = np.eye(2, dtype=complex)
    mv0 = qubit1.magic_embed(ident)
    out = [GateSequence(labels=(), realized=ident, magic=mv0)]
    seen = {key_of(mv0)}
    frontier_mats = ident[None, :, :]
    frontier_labels = [()]
    for _ in range(max_len):
        if frontier_mats.shape[0] == 0:
            break
        prod = np.einsum("gab,fbc->fgac", gmats, frontier_mats).reshape(-1, 2, 2)
        mv = qubit1.magic_embed_batch(prod)
        new_mats, new_labels = [], []
        for i in range(prod.shape[0]):
            k = key_of(mv[i])
            if k in seen:
                continue
            seen.add(k)
            lab = frontier_labels[i // ng] + (glabels[i % ng],)
            out.append(GateSequence(labels=lab, realized=prod[i], magic=mv[i]))
            new_mats.append(prod[i])
            new_labels.append(lab)
            if len(out) > budget:
                raise BudgetExceededError(
                    f"sequence budget {budget} exceeded at length {len(lab)}"
                )
        frontier_mats = np.stack(new_mats) if new_mats else np.empty((0, 2, 2), complex)
        frontier_labels = new_labels
    return out


def _std_gates():
    gs = standard_gate_set()
    return dict(zip(gs.labels, gs.unitaries))


def _unsorted_gate_set():
    g = _std_gates()
    labels = ("Tdg", "T", "H", "Sdg", "S")
    return GateSet(labels=labels, unitaries=tuple(g[l] for l in labels))


def _twin_gate_set():
    # "G" and "T" are the same gate; every tie must go to the "G" spelling.
    g = _std_gates()
    return GateSet(labels=("T", "H", "G"), unitaries=(g["T"], g["H"], g["T"]))


@pytest.mark.parametrize(
    "make_gs", [standard_gate_set, _unsorted_gate_set, _twin_gate_set],
    ids=["standard", "unsorted-labels", "twin-gates"],
)
@pytest.mark.parametrize("max_len", [0, 1, 3, 10])
def test_enumerate_matches_reference_loop(make_gs, max_len):
    gs = make_gs()
    got = enumerate_sequences(gs, max_len)
    ref = reference_enumerate(gs, max_len)
    assert [s.labels for s in got] == [s.labels for s in ref]
    for a, b in zip(got, ref):
        assert a.realized.tobytes() == b.realized.tobytes()
        assert a.magic.tobytes() == b.magic.tobytes()


def test_enumerate_twin_gates_keep_first_label():
    pool = enumerate_sequences(_twin_gate_set(), 3)
    assert ("G",) in {s.labels for s in pool}
    assert not any("T" in s.labels for s in pool)


@pytest.mark.parametrize("make_gs", [standard_gate_set, _twin_gate_set])
def test_enumerate_budget_boundary(make_gs):
    gs = make_gs()
    pool = enumerate_sequences(gs, 10)
    assert len(enumerate_sequences(gs, 10, budget=len(pool))) == len(pool)
    for budget in (len(pool) - 1, 100, 1, 0):
        with pytest.raises(BudgetExceededError) as got:
            enumerate_sequences(gs, 10, budget=budget)
        with pytest.raises(BudgetExceededError) as ref:
            reference_enumerate(gs, 10, budget=budget)
        assert str(got.value) == str(ref.value)


def test_standard_gate_set_contents(std_gateset):
    assert std_gateset.labels == ("H", "S", "Sdg", "T", "Tdg")
    T = std_gateset.unitaries[3]
    assert abs(T[1, 1] - np.exp(1j * np.pi / 4)) < 1e-12


def test_gateset_json_roundtrip(std_gateset):
    gs2 = GateSet.from_json(std_gateset.to_json())
    assert gs2.labels == std_gateset.labels
    for A, B in zip(gs2.unitaries, std_gateset.unitaries):
        assert np.allclose(A, B)


def test_enumerate_length_zero(std_gateset):
    pool = enumerate_sequences(std_gateset, 0)
    assert len(pool) == 1
    assert pool[0].labels == ()
    assert np.allclose(pool[0].realized, np.eye(2))


def test_enumerate_dedup_tt_equals_s():
    # With S in the gate set, TT duplicates S and must be dropped.
    gs = standard_gate_set()
    pool = enumerate_sequences(gs, 2)
    label_sets = {p.labels for p in pool}
    assert ("S",) in label_sets
    assert ("T", "T") not in label_sets
    # SdgS = identity, also dropped
    assert ("Sdg", "S") not in label_sets


def test_enumerate_ht_counts():
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)
    gs = GateSet(labels=("H", "T"), unitaries=(H, T))
    pool = enumerate_sequences(gs, 2)
    # identity, H, T, HH=I (dup), HT, TH, TT: 6 distinct
    assert len(pool) == 6
    lens = sorted(len(p.labels) for p in pool)
    assert lens == [0, 1, 1, 2, 2, 2]


def test_sequence_leftmost_label_acts_first(std_gateset):
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)
    seq = next(s for s in enumerate_sequences(std_gateset, 2) if s.labels == ("H", "T"))
    assert np.allclose(seq.realized, T @ H, rtol=0, atol=1e-15)
    assert not np.allclose(seq.realized, H @ T)


def test_enumerate_shortest_representative_wins(std_pool):
    # every kept unitary has no shorter equivalent in the pool
    by_key = {}
    for p in std_pool:
        k = tuple(np.round(p.magic, 8) + 0.0)
        assert k not in by_key
        by_key[k] = p


def test_enumerate_budget(std_gateset):
    with pytest.raises(BudgetExceededError):
        enumerate_sequences(std_gateset, 12, budget=100)


def test_det_synth_exact_member(std_pool):
    T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)
    seq, err = det_synth(T, std_pool)
    assert err < 1e-9
    assert seq.labels == ("T",)


def test_det_synth_monotone_in_pool_size(std_gateset, std_pool, rng):
    from usynth.linalg import haar_unitary

    small = enumerate_sequences(std_gateset, 6)
    for _ in range(10):
        U = haar_unitary(2, rng)
        _, e_small = det_synth(U, small)
        _, e_big = det_synth(U, std_pool)
        assert e_big <= e_small + 1e-12


def test_nearest_ties_and_errors(std_pool):
    P = np.stack([s.magic for s in std_pool])
    V = np.vstack([P[5], -P[7], P[3] + P[9]])
    V[2] /= np.linalg.norm(V[2])
    # Repeating a pool row makes an exact tie: the first index wins.
    idx, errs = _nearest(np.vstack([P, P]), V)
    dots = np.abs(V @ P.T)
    assert idx.tolist() == np.argmax(dots, axis=1).tolist()
    assert idx[0] == 5 and idx[1] == 7
    assert errs[0] < 1e-7 and errs[1] < 1e-7
    for k, i in enumerate(idx):
        assert abs(errs[k] - qubit1.distance_1q(V[k], P[i])) < 1e-7


def test_line_distance_keeps_digits_near_coincidence():
    # The lines of u and w meet at an angle of about 1.3856e-9, where
    # sqrt(1 - (u.w)^2) cancels to 0.
    a = 8e-10
    u = np.array([1.0, 0.0, 0.0, 0.0])
    w = np.array([1.0, a, a, a]) / np.sqrt(1 + 3 * a * a)
    exact = np.sqrt(3) * a / np.sqrt(1 + 3 * a * a)
    assert qubit1.distance_1q(u, -w) == pytest.approx(exact, rel=1e-6)
    assert _nearest(w[None], u[None])[1][0] == pytest.approx(exact, rel=1e-6)
    assert qubit1.support_filter(u, w[None], exact / 2 * (1 + 1e-6)).tolist() == [0]
    with pytest.raises(qubit1.EmptySupportError):
        qubit1.support_filter(u, w[None], exact / 2 * (1 - 1e-6))


def test_det_synth_empty_pool():
    with pytest.raises(EmptyPoolError):
        det_synth(np.eye(2, dtype=complex), [])


def test_prob_synth_quadratic_bound(std_gateset, std_pool):
    from usynth.linalg import haar_unitary

    U = haar_unitary(2, np.random.default_rng(7))
    res = prob_synth(U, eps=0.35, delta=1e-6, gs=std_gateset, seed=0, pool=std_pool)
    assert res.achieved_eps <= 0.35 + 1e-12
    assert res.prob_error <= res.achieved_eps**2 + 1e-6
    assert res.det_error <= res.achieved_eps
    assert abs(sum(res.p) - 1) < 1e-9
    # recompute the mixture error independently
    u = qubit1.magic_embed(U)
    W = np.stack([s.magic for s in res.support])
    recomputed = qubit1.mix_distance_1q(u, W, np.asarray(res.p))
    assert abs(recomputed - res.prob_error) < 1e-12


def test_prob_synth_builds_no_choi_matrices(std_gateset, std_pool, monkeypatch):
    from usynth.linalg import haar_unitary

    def no_choi(*_):
        raise AssertionError("prob_synth built a Choi matrix")

    monkeypatch.setattr(channels, "choi", no_choi)
    U = haar_unitary(2, np.random.default_rng(12))
    res = prob_synth(U, 0.35, 1e-6, std_gateset, pool=std_pool)
    assert res.prob_error_lower <= res.prob_error <= res.prob_error_lower + 1e-6
    assert res.to_json()["prob_error_lower"] == res.prob_error_lower


def test_prob_synth_deterministic(std_gateset, std_pool):
    from usynth.linalg import haar_unitary

    U = haar_unitary(2, np.random.default_rng(8))
    a = prob_synth(U, 0.35, 1e-6, std_gateset, seed=3, pool=std_pool).to_json()
    b = prob_synth(U, 0.35, 1e-6, std_gateset, seed=3, pool=std_pool).to_json()
    assert a == b


def test_prob_synth_unreachable(std_gateset):
    from usynth.linalg import haar_unitary

    U = haar_unitary(2, np.random.default_rng(9))
    tiny_pool = enumerate_sequences(std_gateset, 2)
    with pytest.raises(CoveringUnreachableError) as exc:
        prob_synth(U, 0.1, 1e-6, std_gateset, pool=tiny_pool)
    assert exc.value.achieved_radius > 0.05


def test_prob_synth_rejects_bad_args(std_gateset, std_pool):
    for eps in (0.0, -0.1, 0.5, 0.6, 1.0):
        with pytest.raises(ValueError, match=r"prob_synth needs 0 < eps < 1/2"):
            prob_synth(np.eye(2, dtype=complex), eps, 1e-6, std_gateset, pool=std_pool)
    with pytest.raises(ValueError):
        prob_synth(np.eye(2, dtype=complex), 0.3, 0.0, std_gateset)
    with pytest.raises(ValueError):
        prob_synth(np.eye(2, dtype=complex), 0.3, 1e-6, std_gateset, c=0.7, c_prime=0.7)
    # NaN fails every comparison, so a "<= 0" check lets it through.
    for delta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            prob_synth(np.eye(2, dtype=complex), 0.3, delta, std_gateset, pool=std_pool)
    for c, c_prime in ((np.nan, 0.5), (0.5, np.nan)):
        with pytest.raises(ValueError, match="require c, c_prime > 0"):
            prob_synth(np.eye(2, dtype=complex), 0.3, 1e-6, std_gateset, c=c, c_prime=c_prime,
                       pool=std_pool)


def test_campbell_symmetric_pair():
    U = np.eye(2, dtype=complex)
    H = np.array([[0.1, 0.02 - 0.03j], [0.02 + 0.03j, -0.1]])
    from scipy.linalg import expm

    Vp, Vm = U @ expm(1j * H), U @ expm(-1j * H)
    p, res = campbell_mix(U, [Vp, Vm])
    assert np.allclose(p, [0.5, 0.5], atol=1e-9)
    assert res < 1e-12


def test_campbell_target_in_candidates():
    from usynth.linalg import haar_unitary

    U = haar_unitary(2, np.random.default_rng(10))
    from scipy.linalg import expm

    H = np.array([[0.2, 0.0], [0.0, -0.2]])
    p, res = campbell_mix(U, [U, U @ expm(1j * H)])
    assert res < 1e-10
    assert p[0] > 1 - 1e-6


def _campbell_instance(seed):
    """Haar U and 1-29 candidates U expm(iH), the generators H biased towards
    Z so that the residual is often positive; max |eig H| ~ U(0.01, 1.2)."""
    from scipy.linalg import expm

    from usynth.linalg import haar_unitary

    rng = np.random.default_rng(seed)
    U = haar_unitary(2, rng)
    n = int(rng.integers(1, 30))
    B = rng.uniform(0, 3) * np.diag([1, -1]).astype(complex)
    cands = []
    for _ in range(n):
        H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + B
        H = (H + H.conj().T) / 2
        H -= (np.trace(H) / 2) * np.eye(2)
        H *= rng.uniform(0.01, 1.2) / np.abs(np.linalg.eigvalsh(H)).max()
        cands.append(U @ expm(1j * H))
    return U, cands


def test_campbell_phase_invariant():
    from scipy.linalg import expm

    H = np.array([[0.1, 0.02 - 0.03j], [0.02 + 0.03j, -0.1]])
    pair = [expm(1j * H), expm(-1j * H)]
    U, cands = _campbell_instance(778)
    for target, cs in ((np.eye(2, dtype=complex), pair), (U, cands)):
        p0, r0 = campbell_mix(target, cs)
        for phase in (-1, 1j, np.exp(0.7j)):
            for k in range(len(cs)):
                moved = [phase * V if j == k else V for j, V in enumerate(cs)]
                p, r = campbell_mix(target, moved)
                assert np.max(np.abs(p - p0)) <= 1e-12 and abs(r - r0) <= 1e-12
            p, r = campbell_mix(phase * target, cs)
            assert np.max(np.abs(p - p0)) <= 1e-12 and abs(r - r0) <= 1e-12


def test_campbell_is_the_exact_min_norm_point():
    # Reference generators: the principal log of U^dag V, vectorized
    # isometrically (max |eig H| <= 1.2 < pi/2 keeps it the shortest one).
    U, cands = _campbell_instance(778)
    ref = []
    for V in cands:
        w, B = np.linalg.eig(U.conj().T @ V)
        H = (B * np.angle(w)) @ np.linalg.inv(B)
        H = (H + H.conj().T) / 2
        H -= (np.trace(H) / 2) * np.eye(2)
        ref.append([H[0, 0].real, H[1, 1].real,
                    np.sqrt(2) * H[0, 1].real, np.sqrt(2) * H[0, 1].imag])
    ref = np.array(ref)
    p, res = campbell_mix(U, cands)
    assert np.all(p >= 0) and abs(p.sum() - 1) <= 1e-12
    g = ref @ (ref.T @ p)
    assert np.min(g) >= p @ g - 1e-12  # KKT: no vertex descends from p
    assert abs(res - np.linalg.norm(p @ ref)) <= 1e-12
    assert 0.0111 < res < 0.01111  # a solver that stops early lands at 0.011423


def test_campbell_branch_cut():
    U = np.eye(2, dtype=complex)
    V = np.diag([1.0, -1.0]).astype(complex)  # eigenphase exactly pi
    with pytest.raises(BranchCutError):
        campbell_mix(U, [V])


def test_sample_point_mass_and_determinism():
    idx = sample(np.array([0.0, 1.0, 0.0]), seed=0, n=100)
    assert np.all(idx == 1)
    a = sample(np.array([0.3, 0.7]), seed=42, n=1000)
    b = sample(np.array([0.3, 0.7]), seed=42, n=1000)
    assert np.array_equal(a, b)
    # frequencies roughly match
    assert abs(np.mean(a) - 0.7) < 0.05
    with pytest.raises(ValueError):
        sample(np.array([0.5, 0.6]), seed=0, n=1)
