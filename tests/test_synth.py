import json
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from usynth import channels, qubit1, synth
from usynth.linalg import haar_unitary, matrix_to_json
from usynth.synth import (
    CoveringUnreachableError,
    GateSet,
    Pool,
    _nearest,
    campbell_mix,
    det_synth,
    enumerate_sequences,
    prob_synth,
    sample,
    standard_gate_set,
)


def reference_enumerate(gs, max_len, budget=500000):
    """Per-product loop that deduplicates one product at a time.

    The reference for `enumerate_sequences`, which deduplicates a whole
    length at once and must return the same pool and raise the same
    ValueError for an exceeded budget. Returns the labels and the magic rows.
    """
    decimals = 8
    order = sorted(range(len(gs.labels)), key=lambda i: gs.labels[i])
    glabels = [gs.labels[i] for i in order]
    gmats = np.stack([gs.unitaries[i] for i in order])
    ng = len(glabels)

    def key_of(mv):
        # u and -u are one channel: the first nonzero rounded component is
        # made positive.
        r = np.round(mv, decimals) + 0.0
        lead = next(x for x in r if x != 0)
        return tuple(r * np.sign(lead) + 0.0)

    ident = np.eye(2, dtype=complex)
    mv0 = qubit1.magic_embed(ident)
    labels, rows = [()], [mv0]
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
            labels.append(lab)
            rows.append(mv[i])
            new_mats.append(prod[i])
            new_labels.append(lab)
            if len(labels) > budget:
                raise ValueError(
                    f"sequence budget {budget} exceeded at length {len(lab)}"
                )
        frontier_mats = np.stack(new_mats) if new_mats else np.empty((0, 2, 2), complex)
        frontier_labels = new_labels
    return labels, np.stack(rows)


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


def _haar_gate_set():
    # Three generic gates: no relations, so the pool grows as 3**L.
    rng = np.random.default_rng(2028)
    return GateSet(labels=("c", "a", "b"), unitaries=tuple(haar_unitary(2, rng) for _ in range(3)))


GATE_SETS = {"standard": standard_gate_set, "unsorted-labels": _unsorted_gate_set,
             "twin-gates": _twin_gate_set}
ENUMERATION_CASES = [(make_gs, max_len, f"{max_len}-{name}")
                     for name, make_gs in GATE_SETS.items() for max_len in (0, 1, 3, 10, 12)]
ENUMERATION_CASES.append((_haar_gate_set, 7, "7-haar"))


@pytest.mark.parametrize("make_gs, max_len", [c[:2] for c in ENUMERATION_CASES],
                         ids=[c[2] for c in ENUMERATION_CASES])
def test_enumerate_matches_reference_loop(make_gs, max_len):
    gs = make_gs()
    got = enumerate_sequences(gs, max_len)
    labels, magic = reference_enumerate(gs, max_len)
    assert got.words(range(len(got))) == labels
    # Any rows, in any order and repeated, spell the same words.
    rows = np.random.default_rng(max_len).integers(0, len(got), 2 * len(got))
    assert got.words(rows) == [labels[i] for i in rows]
    # Same channel per row: the pool composes quaternions where the
    # reference embeds 2x2 products, so a row may differ in sign (or -0.0).
    diff = np.minimum(np.abs(got.magic - magic).max(axis=1),
                      np.abs(got.magic + magic).max(axis=1))
    assert diff.max() <= 1e-15


@pytest.mark.parametrize("make_gs", GATE_SETS.values(), ids=GATE_SETS.keys())
def test_pool_is_suffix_closed(make_gs):
    # The least sequence of a channel in shortlex order has least factors,
    # which is what lets enumerate_sequences key only the products whose
    # suffix is kept. The reference loop keys every product and agrees.
    gs = make_gs()
    pool = enumerate_sequences(gs, 12)
    for labels in (pool.words(range(len(pool))), reference_enumerate(gs, 12)[0]):
        kept = set(labels)
        assert all(s[1:] in kept and s[:-1] in kept for s in labels if s)


def test_enumerate_keys_few_more_products_than_it_keeps(std_gateset, monkeypatch):
    # At L = 12, 2,506 products are keyed for 2,288 kept sequences; keying
    # every product of every kept sequence with a gate is 8,241 (3.6x).
    keyed = []
    line_keys = qubit1.line_keys

    def counting(V):
        keyed.append(len(V))
        return line_keys(V)

    monkeypatch.setattr(qubit1, "line_keys", counting)
    pool = enumerate_sequences(std_gateset, 12)
    assert len(pool) == 2288
    assert sum(keyed) <= 1.2 * len(pool)


def test_enumerate_twin_gates_keep_first_label():
    pool = enumerate_sequences(_twin_gate_set(), 3)
    words = pool.words(range(len(pool)))
    assert ("G",) in words
    assert not any("T" in s for s in words)


@pytest.mark.parametrize("make_gs", [standard_gate_set, _twin_gate_set])
def test_enumerate_budget_boundary(make_gs, monkeypatch):
    gs = make_gs()
    pool = enumerate_sequences(gs, 10)
    monkeypatch.setattr(synth, "BUDGET", len(pool))
    assert len(enumerate_sequences(gs, 10)) == len(pool)
    for budget in (len(pool) - 1, 100, 1, 0):
        monkeypatch.setattr(synth, "BUDGET", budget)
        message = f"sequence budget {budget} exceeded at length "
        with pytest.raises(ValueError, match=message) as got:
            enumerate_sequences(gs, 10)
        with pytest.raises(ValueError, match=message) as ref:
            reference_enumerate(gs, 10, budget=budget)
        assert str(got.value) == str(ref.value)


def test_standard_gate_set_contents(std_gateset):
    assert std_gateset.labels == ("H", "S", "Sdg", "T", "Tdg")
    T = std_gateset.unitaries[3]
    assert abs(T[1, 1] - np.exp(1j * np.pi / 4)) < 1e-12


def test_gate_set_rejects_duplicate_labels():
    H, T = _std_gates()["H"], _std_gates()["T"]
    with pytest.raises(ValueError, match="labels must be distinct"):
        GateSet(labels=("A", "A"), unitaries=(H, T))


def test_pool_checks_its_shape_and_is_read_only(std_pool):
    with pytest.raises(ValueError, match="empty sequence pool"):
        Pool(("H",), (), (), np.empty((0, 4)))
    with pytest.raises(ValueError, match="magic must have shape"):
        Pool(("H",), (-1, 0), (-1, 0), np.eye(4)[:1])
    with pytest.raises(ValueError, match="magic must have shape"):
        Pool(("H",), (-1,), (-1,), np.eye(4)[:2])
    with pytest.raises(ValueError, match="magic must have shape"):
        Pool(("H",), (-1,), (-1,), np.ones(4))
    with pytest.raises(ValueError, match="parent and last must be two arrays of one length"):
        Pool(("H",), (-1, 0), (-1,), np.eye(4)[:2])
    with pytest.raises(ValueError, match="parent and last must be two arrays of one length"):
        Pool(("H",), -1, -1, np.eye(4)[:1])
    # A parent after its row, or its row itself, would never end a word.
    for parent in ((-1, 1), (1, -1), (-1, -2)):
        with pytest.raises(ValueError, match="parent must be -1 or an earlier row"):
            Pool(("H",), parent, (-1, 0), np.eye(4)[:2])
    for last in (1, -1):
        with pytest.raises(ValueError, match="last gates must index the 1 gates"):
            Pool(("H",), (-1, 0), (-1, last), np.eye(4)[:2])
    tiny = Pool(("H",), (-1, 0), (-1, 0), np.eye(4)[:2])
    assert tiny.words([1, 0]) == [("H",), ()] and tiny.words([]) == []
    for field in (std_pool.magic, std_pool.parent, std_pool.last):
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 0
    assert len(std_pool) == len(std_pool.parent) == len(std_pool.last) == len(std_pool.magic)
    assert std_pool.gates == ("H", "S", "Sdg", "T", "Tdg")


def test_pool_rejects_magic_rows_that_are_not_unit_vectors():
    # det_synth would rank such a row by its length: a row of norm 2 made the identity's
    # own channel come out at distance 0.866, and a NaN row at distance nan.
    for row in ([2.0, 0, 0, 0], [np.nan, 0, 0, 0], [np.inf, 0, 0, 0], [1 + 2e-8, 0, 0, 0]):
        with pytest.raises(ValueError, match="magic rows must be finite unit vectors"):
            Pool(gates=("H",), parent=[-1], last=[-1], magic=[row])
    assert len(Pool(gates=("H",), parent=[-1], last=[-1], magic=[[1 + 5e-9, 0, 0, 0]])) == 1


def test_gateset_json_roundtrip(std_gateset):
    obj = {"gates": [{"label": l, "matrix": matrix_to_json(U)}
                     for l, U in zip(std_gateset.labels, std_gateset.unitaries)]}
    gs2 = GateSet.from_json(json.loads(json.dumps(obj)))
    assert gs2.labels == std_gateset.labels
    for A, B in zip(gs2.unitaries, std_gateset.unitaries):
        assert np.allclose(A, B)


def test_enumerate_length_zero(std_gateset):
    pool = enumerate_sequences(std_gateset, 0)
    assert len(pool) == 1
    assert pool.words([0]) == [()]
    assert pool.parent.tolist() == [-1]
    assert pool.magic.tobytes() == qubit1.magic_embed(np.eye(2)).tobytes()


def test_enumerate_dedup_tt_equals_s():
    # With S in the gate set, TT duplicates S and must be dropped.
    gs = standard_gate_set()
    pool = enumerate_sequences(gs, 2)
    label_sets = set(pool.words(range(len(pool))))
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
    lens = sorted(len(s) for s in pool.words(range(len(pool))))
    assert lens == [0, 1, 1, 2, 2, 2]


def test_enumerate_over_h_and_s_stops_at_the_clifford_group():
    # The 24 single-qubit Cliffords up to phase are all reached by length 6; from
    # there on no product is new, and the frontier empties before max_len.
    gates = dict(zip(standard_gate_set().labels, standard_gate_set().unitaries))
    gs = GateSet(labels=("H", "S"), unitaries=(gates["H"], gates["S"]))
    assert [len(enumerate_sequences(gs, L)) for L in range(4, 9)] == [16, 21, 24, 24, 24]
    assert len(enumerate_sequences(gs, 1000)) == 24


def test_sequence_leftmost_label_acts_first(std_gateset):
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)
    pool = enumerate_sequences(std_gateset, 2)
    row = pool.magic[pool.words(range(len(pool))).index(("H", "T"))]
    assert np.allclose(row, qubit1.magic_embed(T @ H), rtol=0, atol=1e-15)
    assert not np.allclose(row, qubit1.magic_embed(H @ T))


def test_enumerate_shortest_representative_wins(std_pool):
    # every kept unitary has no shorter equivalent in the pool
    by_key = {}
    words = std_pool.words(range(len(std_pool)))
    for labels, mv in zip(words, std_pool.magic):
        k = tuple(np.round(mv, 8) + 0.0)
        assert k not in by_key
        by_key[k] = labels
    # Sequences per length, 0 to 12.
    assert np.bincount([len(s) for s in words]).tolist() == [
        1, 5, 11, 24, 43, 71, 89, 132, 160, 248, 336, 528, 640]


@pytest.mark.parametrize("max_len", [3, 12])
def test_pool_rows_are_distinct_channels(std_gateset, max_len):
    # No two rows on one line: u and -u are one channel, so ("H", "Tdg",
    # "Tdg") must not sit beside ("H", "Sdg").
    pool = enumerate_sequences(std_gateset, max_len)
    dots = np.abs(pool.magic @ pool.magic.T)
    np.fill_diagonal(dots, 0.0)
    i, j = np.unravel_index(np.argmax(dots), dots.shape)
    assert dots[i, j] <= 1 - 1e-12, pool.words([i, j])


@pytest.mark.parametrize("max_len, size", [(16, 9296), (18, 18640), (20, 37328)])
def test_standard_pool_sizes(std_gateset, max_len, size):
    assert len(enumerate_sequences(std_gateset, max_len)) == size


@pytest.mark.parametrize("max_len, radius", [(8, 0.27326), (12, 0.15769)])
def test_mixing_at_the_pool_deepest_hole_attains_r_squared(std_gateset, max_len, radius):
    # The paper's d = 2 tightness on the real gate set: at the deepest hole
    # of the pool of sequences of length <= L, the best mixture of the
    # pool errs by r^2, r the pool's covering radius. support_filter at r
    # is lossless for an r-covering.
    pool = enumerate_sequences(std_gateset, max_len)
    r, hole = qubit1.covering_radius(pool.magic, return_witness=True)
    assert abs(r - radius) <= 5e-6
    W = pool.magic[qubit1.support_filter(hole, pool.magic, r)]
    _, upper, lower, _ = qubit1.optimal_mix_1q(hole, W)
    assert lower - 1e-12 <= r**2 <= upper + 1e-12
    assert upper / r**2 - 1 <= 2e-7


def test_enumerate_budget(std_gateset, monkeypatch):
    monkeypatch.setattr(synth, "BUDGET", 100)
    with pytest.raises(ValueError, match=r"sequence budget 100 exceeded at length \d+"):
        enumerate_sequences(std_gateset, 12)


def test_det_synth_exact_member(std_pool):
    T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)
    labels, err = det_synth(T, std_pool)
    assert err < 1e-9
    assert labels == ("T",)


def test_det_synth_monotone_in_pool_size(std_gateset, std_pool, rng):
    from usynth.linalg import haar_unitary

    small = enumerate_sequences(std_gateset, 6)
    for _ in range(10):
        U = haar_unitary(2, rng)
        _, e_small = det_synth(U, small)
        _, e_big = det_synth(U, std_pool)
        assert e_big <= e_small + 1e-12


@pytest.mark.parametrize("max_len", [12, 16])
def test_det_synth_is_the_tie_rule_over_the_whole_pool(std_gateset, max_len):
    # det_synth runs _nearest_rows over every row, with no shell: its index and
    # error bytes are the kernel's.
    pool = enumerate_sequences(std_gateset, max_len)
    P = pool.magic
    rng = np.random.default_rng([31, max_len])
    for _ in range(20):
        U = haar_unitary(2, rng)
        v = qubit1.magic_embed(U)
        labels, err = det_synth(U, pool)
        (i,) = synth._nearest_rows(v[None], P)
        assert [labels] == pool.words([i])
        assert np.float64(err).tobytes() == qubit1.line_distance(v[None], P[[i]]).tobytes()


def _full_search(P, V):
    """The plain search over every row: the line_distance to the row of largest |dot|."""
    return qubit1.line_distance(V, P[np.argmax(np.abs(V @ P.T), axis=1)])


def test_nearest_rows_ties_and_errors(std_pool):
    P = std_pool.magic
    V = np.vstack([P[5], -P[7], P[3] + P[9]])
    V[2] /= np.linalg.norm(V[2])
    # Repeating a pool row makes an exact tie: the first index wins. Rows
    # 152 and 179 are equally near V[2], and which |dot| rounds higher is
    # the BLAS's choice (179 by 1 ulp here): the lower index wins.
    Q = np.vstack([P, P])
    idx = synth._nearest_rows(V, Q)
    errs = _nearest(Q, V, V[0], 1.0)
    dots = np.abs(V @ P.T)
    ties = dots >= dots.max(axis=1, keepdims=True) - synth.TIE_TOL
    assert idx.tolist() == np.argmax(ties, axis=1).tolist() == [5, 7, 152]
    assert abs(dots[2, 152] - dots[2, 179]) <= 4 * np.spacing(1.0)
    assert errs[0] < 1e-7 and errs[1] < 1e-7
    for k, i in enumerate(idx):
        assert abs(errs[k] - qubit1.line_distance(V[k], P[i])) < 1e-7


def test_nearest_is_exact_on_a_covering(std_pool):
    # The same error as the plain expression, bit for bit.
    P = std_pool.magic
    u = qubit1.magic_embed(haar_unitary(2, np.random.default_rng(3)))
    V = qubit1.cap_covering(u, 0.7, 0.175)
    errs = _nearest(P, V, u, 1.0)
    assert errs.tobytes() == _full_search(P, V).tobytes()


def test_nearest_rows_planted_ties_go_to_the_lowest_index():
    # Entries 0 and +-1/2 make every dot product exact, so the planted ties
    # (each row p also as -p and again as p) are exact in any BLAS.
    A = np.array(np.meshgrid(*[[0.5, -0.5]] * 4, indexing="ij")).reshape(4, -1).T
    Q = np.vstack([A, -A, A])
    V = np.vstack([np.eye(4), A, -A[::3]])
    idx = synth._nearest_rows(V, Q)
    errs = _nearest(Q, V, V[0], 1.0)
    dots = np.abs(V @ Q.T)
    for r in range(len(V)):
        assert idx[r] == np.flatnonzero(dots[r] == dots[r].max())[0]
    assert idx[:4].tolist() == [0, 0, 0, 0]
    assert (idx[4:] < 8).all() and (errs[4:] == 0).all()

    # Near-ties. A[:8] holds 8 distinct lines. Row i of `near` is A[i] with
    # its last entry moved towards 0 by k * 2**-52, so its dot with A[i] is
    # exactly 1 - k * 2**-53: k = 1-4 ulps below the exact best, which sits
    # at a higher index. Plain argmax takes the exact best; the tie rule
    # takes the lower index. Row i of `far` lies 2**-30 below, a real gap,
    # and loses.
    A = A[:8]
    V = np.vstack([np.eye(4), A, -A[::3]])
    far = A.copy()
    far[:, 3] -= np.sign(A[:, 3]) * 2.0**-29
    for k in (1, 2, 3, 4):
        near = A.copy()
        near[:, 3] -= np.sign(A[:, 3]) * k * 2.0**-52
        assert (A * near).sum(axis=1).tolist() == [1 - k * 2.0**-53] * 8
        for Q, first in ((np.vstack([near, A, -A]), 0), (np.vstack([far, A, -A]), 8)):
            idx = synth._nearest_rows(V, Q)
            dots = np.abs(V @ Q.T)
            ties = dots >= dots.max(axis=1, keepdims=True) - synth.TIE_TOL
            assert idx.tolist() == np.argmax(ties, axis=1).tolist()
            assert idx[4:].tolist() == [first + i for i in [*range(8), 0, 3, 6]]
        # A search over any subset of rows that keeps both gives the lower one.
        Q = np.vstack([near, A])
        for cols in (np.arange(16), np.array([0, 8]), np.array([0, 5, 8, 15])):
            idx = synth._nearest_rows(A[:1], Q[cols])
            assert cols[idx[0]] == 0


def _nearest_peak(pool):
    P = pool.magic
    u = qubit1.magic_embed(haar_unitary(2, np.random.default_rng(4)))
    V = qubit1.cap_covering(u, 0.7, 0.175)
    n, m = len(V), len(P)
    tracemalloc.start()
    try:
        _nearest(P, V, u, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, n * m * 8


def test_nearest_memory_is_one_product(std_pool):
    # At most one n-by-m float array for the products.
    peak, product = _nearest_peak(std_pool)
    assert peak < 1.5 * product


def test_nearest_memory_is_a_row_block(std_pool):
    # The products of a block of cover points at a time, not of all of them.
    peak, product = _nearest_peak(std_pool)
    assert peak < 0.25 * product


def test_line_distance_keeps_digits_near_coincidence():
    # The lines of u and w meet at an angle of about 1.3856e-9, where
    # sqrt(1 - (u.w)^2) cancels to 0.
    a = 8e-10
    u = np.array([1.0, 0.0, 0.0, 0.0])
    w = np.array([1.0, a, a, a]) / np.sqrt(1 + 3 * a * a)
    exact = np.sqrt(3) * a / np.sqrt(1 + 3 * a * a)
    assert qubit1.line_distance(u, -w) == pytest.approx(exact, rel=1e-6)
    errs = _nearest(w[None], u[None], u, 1.0)
    assert errs[0] == pytest.approx(exact, rel=1e-6)
    assert qubit1.support_filter(u, w[None], exact / 2 * (1 + 1e-6)).tolist() == [0]
    with pytest.raises(ValueError, match="the covering premise is violated"):
        qubit1.support_filter(u, w[None], exact / 2 * (1 - 1e-6))


def test_angle_from_dot_lies_within_a_tenth_of_the_shell_margin():
    # _nearest and the support cut bound the angle arccos(min(|u.w|, 1)) of a
    # rounded |dot|, which loses digits near coincidence: there the lines of u
    # and w meet at about 1.3856e-9 and arccos(|u.w|) rounds to 0. Its
    # distance to the exact angle, arcsin(line_distance), stays far inside
    # SHELL_MARGIN, so the shells and the support cut keep every row within reach.
    a = 8e-10
    u = np.array([1.0, 0.0, 0.0, 0.0])
    w = np.array([1.0, a, a, a]) / np.sqrt(1 + 3 * a * a)
    assert np.arccos(abs(u @ w)) == 0.0
    rng = np.random.default_rng(11)
    U, W = (x / np.linalg.norm(x, axis=1, keepdims=True) for x in rng.standard_normal((2, 1000, 4)))
    U, W = np.vstack([U, u]), np.vstack([W, -w])
    from_dot = np.arccos(np.minimum(np.abs(np.einsum("ij,ij->i", U, W)), 1.0))
    assert np.max(np.abs(from_dot - np.arcsin(qubit1.line_distance(U, W)))) <= synth.SHELL_MARGIN / 10


def test_nearest_shell_keeps_a_row_whose_dot_rounds_above_one():
    # Row 2 is the target itself, and its |dot| with the target rounds above 1:
    # a shell capped at cos(0) = 1 would drop it, and arccos would warn.
    v = np.random.default_rng(12).standard_normal((11, 4))[10]
    v /= np.linalg.norm(v)
    P = np.vstack([np.eye(4)[:2], v])
    assert np.abs(P @ v)[2] > 1
    for reach in (1e-7, 1.0):
        errs = _nearest(P, v[None], v, reach)
        assert errs.tobytes() == _full_search(P, v[None]).tobytes() == np.zeros(1).tobytes()


def test_nearest_shell_keeps_a_row_orthogonal_to_the_target():
    # Row 1 is orthogonal to the target u, |dot| exactly 0, and is the point's
    # nearest row; row 0 is u. The point lies 0.1 rad from row 1, so its shell
    # reaches past pi/2 from u, where the cosine is negative: a bound clamped
    # at cos(pi/2) = 6.1e-17 > 0 would drop row 1.
    u = np.eye(4)[0]
    P = np.eye(4)[:2]
    t = np.pi / 2 - 0.1
    v = np.array([[np.cos(t), np.sin(t), 0.0, 0.0]])
    assert (P @ u)[1] == 0.0
    for reach in (0.5, 1.0):
        errs = _nearest(P, v, u, reach)
        assert errs.tobytes() == _full_search(P, v).tobytes()
        assert errs[0] == pytest.approx(np.sin(0.1))


def _named_targets(gs):
    """Targets on a symmetry of the gate set, where near-ties are common."""
    gates = dict(zip(gs.labels, gs.unitaries))
    rz = np.diag([np.exp(-0.15j), np.exp(0.15j)])
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    return [gates["H"], gates["T"], gates["S"], X, rz]


@pytest.mark.parametrize("max_len, eps", [(12, 0.35), (16, 0.25)])
def test_prob_synth_shell_search_returns_the_full_search_errors(
    std_gateset, std_pool, max_len, eps, monkeypatch
):
    # Every search prob_synth makes over the shells gives the errors of the
    # search over every row, on Haar targets and on targets whose cover
    # points have near-tied rows.
    pool = std_pool if max_len == 12 else enumerate_sequences(std_gateset, max_len)
    nearest, searches = synth._nearest, []

    def recording(P, V, target, reach):
        errs = nearest(P, V, target, reach)
        if reach < 1:  # not the search of the misses over every row
            searches.append((P, V, errs))
        return errs

    monkeypatch.setattr(synth, "_nearest", recording)
    haar = [haar_unitary(2, np.random.default_rng([28, max_len, i])) for i in range(12)]
    reached = 0
    for U in haar + _named_targets(std_gateset):
        try:
            prob_synth(U, eps, 1e-6, pool)
            reached += 1
        except CoveringUnreachableError:
            pass
    assert len(searches) == 17 and reached >= 12
    for P, V, errs in searches:
        assert errs.tobytes() == _full_search(P, V).tobytes()


def test_nearest_shells_keep_the_rows_within_reach():
    # Row 1 is the point itself; row 0 lies 1e-6 further from the target
    # along the same great circle, and row 2 0.2 nearer. At a reach of 5e-7
    # the point's shell holds rows 0 and 1, and the error is the full
    # search's, bit for bit.
    a, u = 0.3, np.eye(4)[0]
    line = lambda t: np.array([np.cos(t), np.sin(t), 0.0, 0.0])  # noqa: E731
    P = np.vstack([line(a + 1e-6), line(a), line(a - 0.2), np.eye(4)[2]])
    v = line(a)[None]
    for reach in (1.0, 5e-7):
        assert _nearest(P, v, u, reach).tobytes() == _full_search(P, v).tobytes()


def test_nearest_search_of_every_row_ends_past_a_distance_of_one():
    # u and w are orthogonal unit vectors whose line distance rounds to
    # 1 + 2**-52. The shell at reach 0.5 misses w, and the search again at
    # reach 1, over every row, returns it rather than missing again.
    u = np.array([float.fromhex(x) for x in (
        "-0x1.4bad59a4810e6p-1", "-0x1.b36a1684a5803p-3", "0x1.57f86646506d0p-2",
        "-0x1.4cb9bb5fc981cp-1")])
    w = np.array([float.fromhex(x) for x in (
        "-0x1.819814d70ebc5p-1", "0x1.212ef7a09cdbfp-2", "-0x1.66e9dd4093694p-3",
        "0x1.22b1c76ad8434p-1")])
    d = qubit1.line_distance(u, w)
    assert d > 1
    for reach in (0.5, 1.0):
        errs = _nearest(w[None], u[None], u, reach)
        assert errs.tolist() == [d] == _full_search(w[None], u[None]).tolist()


def test_prob_synth_unreachable_reports_the_full_search_radius(std_gateset):
    # At L = 8 (covering radius 0.273) and eps 0.3, c'*eps = 0.15: some
    # cover points find a row within reach in their shell and some do not.
    # The misses are searched again over every row, so the errors and the
    # reported radius are those of the plain search over every row.
    pool = enumerate_sequences(std_gateset, 8)
    eps = 0.3
    for i in range(5):
        U = haar_unitary(2, np.random.default_rng([29, i]))
        u = qubit1.magic_embed(U)
        cover = qubit1.cap_covering(u, 2 * eps, synth.C * eps)
        full = _full_search(pool.magic, cover)
        errs = _nearest(pool.magic, cover, u, synth.C_PRIME * eps)
        assert errs.tobytes() == full.tobytes()
        assert 0 < np.sum(full <= synth.C_PRIME * eps) < len(cover)
        with pytest.raises(CoveringUnreachableError) as exc:
            prob_synth(U, eps, 1e-6, pool)
        assert exc.value.achieved_radius == float(np.max(full))


def test_det_synth_rejects_magic_vector(std_pool):
    # The magic vector of the identity is e0; a 4-vector is not a unitary.
    for target in (np.array([1.0, 0, 0, 0]), np.array([2.0, 0, 0, 0])):
        with pytest.raises(ValueError, match="expected a square matrix"):
            det_synth(target, std_pool)


def test_gate_set_holds_read_only_copies():
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    gs = GateSet(labels=("H",), unitaries=(H,))
    H[0, 0] = 5
    assert gs.unitaries[0].tobytes() == standard_gate_set().unitaries[0].tobytes()
    with pytest.raises(ValueError, match="read-only"):
        gs.unitaries[0][0, 0] = 5


def test_synthesis_values_compare_by_identity(std_pool):
    # Equal contents are not equal values: == and hash read no array.
    U = haar_unitary(2, np.random.default_rng(8))
    twins = (standard_gate_set, lambda: enumerate_sequences(standard_gate_set(), 2),
             lambda: prob_synth(U, 0.35, 1e-6, std_pool))
    for a, b in ((make(), make()) for make in twins):
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_gate_set_rejects_empty_and_non_qubit_gates():
    with pytest.raises(ValueError, match="at least one gate"):
        GateSet(labels=(), unitaries=())
    with pytest.raises(ValueError, match="2x2"):
        GateSet(labels=("I3",), unitaries=(np.eye(3, dtype=complex),))
    with pytest.raises(ValueError, match="labels must be strings"):
        GateSet(labels=(1,), unitaries=(np.eye(2, dtype=complex),))


def test_det_synth_empty_pool():
    # A pool cannot be empty, so neither synthesis sees an empty one.
    U = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="empty sequence pool"):
        det_synth(U, Pool(gates=("H",), parent=(), last=(), magic=np.empty((0, 4))))


def test_prob_synth_quadratic_bound(std_gateset, std_pool):
    from usynth.linalg import haar_unitary

    U = haar_unitary(2, np.random.default_rng(7))
    res = prob_synth(U, eps=0.35, delta=1e-6, pool=std_pool)
    assert res.achieved_eps <= 0.35 + 1e-12
    assert res.prob_error <= res.achieved_eps**2 + 1e-6
    assert res.det_error <= res.achieved_eps
    assert abs(sum(res.p) - 1) < 1e-9
    # recompute the mixture error independently, from the support's labels
    u = qubit1.magic_embed(U)
    gates = dict(zip(std_gateset.labels, std_gateset.unitaries))
    W = np.stack([qubit1.magic_embed(reduce(lambda V, g: gates[g] @ V, s, np.eye(2)))
                  for s in res.support])
    recomputed = qubit1.mix_distance_1q(u, W, np.asarray(res.p))
    assert abs(recomputed - res.prob_error) < 1e-12


def test_prob_synth_builds_no_choi_matrices(std_pool, monkeypatch):
    from usynth.linalg import haar_unitary

    def no_choi(*_):
        raise AssertionError("prob_synth built a Choi matrix")

    monkeypatch.setattr(channels, "choi", no_choi)
    U = haar_unitary(2, np.random.default_rng(12))
    res = prob_synth(U, 0.35, 1e-6, std_pool)
    assert res.prob_error_lower <= res.prob_error <= res.prob_error_lower + 1e-6
    assert res.to_json()["prob_error_lower"] == res.prob_error_lower


def test_prob_synth_answers_take_few_pivots(std_pool, solves, pivots):
    # The mixing makes no SDP. Over 20 targets (tools/solve_sweep.py's synth-12-i set) the
    # tie-set pivots number 6-11 per answer, 8.3 on average: 9 leaves a 10% margin, and
    # the answers have at most 4 members.
    counts = []
    for i in range(20):
        pivots.clear()
        res = prob_synth(haar_unitary(2, np.random.default_rng([3, i])), 0.35, 1e-6, std_pool)
        counts.append(len(pivots))
        assert np.count_nonzero(res.p) <= 4 and res.prob_error - res.prob_error_lower <= 1e-6
    assert solves == [] and np.mean(counts) <= 9 and max(counts) <= 12


def test_prob_synth_deterministic(std_pool):
    from usynth.linalg import haar_unitary

    U = haar_unitary(2, np.random.default_rng(8))
    a = prob_synth(U, 0.35, 1e-6, std_pool).to_json()
    b = prob_synth(U, 0.35, 1e-6, std_pool).to_json()
    assert a == b


def test_synthesis_result_json_lists_the_weighted_members(std_pool):
    # The dataclass keeps the whole covering support; its JSON lists the
    # members with weight, in support order, and counts the support.
    res = prob_synth(haar_unitary(2, np.random.default_rng(8)), 0.35, 1e-6, std_pool)
    obj = res.to_json()
    weighted = np.flatnonzero(res.p > 0)
    assert 0 < len(weighted) < len(res.support) == obj["support_size"]
    assert obj["support"] == [list(res.support[i]) for i in weighted]
    assert obj["p"] == res.p[weighted].tolist()
    assert set(obj) == {"support", "p", "support_size", "det_error", "prob_error",
                        "prob_error_lower", "eps", "achieved_eps", "delta"}


@pytest.mark.parametrize("eps", [0.35, 0.4, 0.45])
def test_prob_synth_exact_hits_keep_lower_at_most_upper(std_gateset, std_pool, eps):
    # A target in the pool is hit exactly: prob_error is 0 or about 1e-16,
    # and the dual bound, a rounded sum, came out up to 3.3e-16 above it.
    gates = dict(zip(std_gateset.labels, std_gateset.unitaries))
    members = [
        reduce(lambda V, g: gates[g] @ V, word, np.eye(2, dtype=complex))
        for word in std_pool.words(range(6, 60, 4))
    ]
    for U in [np.eye(2, dtype=complex), *std_gateset.unitaries, *members]:
        res = prob_synth(U, eps, 1e-8, std_pool)
        assert res.prob_error_lower <= res.prob_error < 1e-15


@pytest.mark.parametrize("max_len, eps", [(12, 0.35), (16, 0.25), (20, 0.16)])
def test_prob_synth_mixes_every_row_within_two_eps(std_gateset, std_pool, max_len, eps,
                                                   monkeypatch):
    # The support is every pool row within 2*eps, so the mixture is the
    # whole pool's optimum within delta (support_filter is lossless); v
    # prices every pool row, and achieved_eps is the cover's full search.
    pool = std_pool if max_len == 12 else enumerate_sequences(std_gateset, max_len)
    mix, certificates = qubit1.optimal_mix_1q, []

    def recording(u, W, gap_tol):
        got = mix(u, W, gap_tol)
        certificates.append(got[3])
        return got

    monkeypatch.setattr(qubit1, "optimal_mix_1q", recording)
    delta, answered = 1e-6, 0
    for i in range(6):
        U = haar_unitary(2, np.random.default_rng([47, max_len, i]))
        u = qubit1.magic_embed(U)
        try:
            res = prob_synth(U, eps, delta, pool)
        except CoveringUnreachableError:
            continue
        answered += 1
        assert res.rows.tobytes() == qubit1.support_filter(u, pool.magic, eps).tobytes()
        _, optimum, _, _ = mix(u, pool.magic, 1e-9)
        assert res.prob_error <= optimum + delta
        v = certificates[-1]
        lower = (u @ v) ** 2 - np.max((pool.magic @ v) ** 2)
        assert res.prob_error_lower == min(max(lower, 0.0), res.prob_error)
        # Both are exact vertex values now, so the lower bound can round above the
        # whole-pool optimum: by 3e-17 at (20, 0.16). 1e-15 is a few ulps of 0.03.
        assert res.prob_error_lower <= optimum + 1e-15
        cover = qubit1.cap_covering(u, 2 * eps, synth.C * eps)
        worst = max(np.max(_full_search(pool.magic, cover[k:k + 64]))
                    for k in range(0, len(cover), 64))
        assert res.achieved_eps == synth.C * eps + worst
    assert answered >= 4


def test_prob_synth_unreachable(std_gateset):
    from usynth.linalg import haar_unitary

    U = haar_unitary(2, np.random.default_rng(9))
    tiny_pool = enumerate_sequences(std_gateset, 2)
    with pytest.raises(CoveringUnreachableError) as exc:
        prob_synth(U, 0.1, 1e-6, tiny_pool)
    assert exc.value.achieved_radius > 0.05
    # prob_synth takes a pool, not a length: the advice names the pool.
    assert str(exc.value).endswith("; use a longer pool or a larger eps")
    assert "max_len" not in str(exc.value)


def test_prob_synth_rejects_bad_args(std_pool):
    for eps in (0.0, -0.1, 0.5, 0.6, 1.0):
        with pytest.raises(ValueError, match=r"prob_synth needs 0 < eps < 1/2"):
            prob_synth(np.eye(2, dtype=complex), eps, 1e-6, std_pool)
    with pytest.raises(ValueError):
        prob_synth(np.eye(2, dtype=complex), 0.3, 0.0, std_pool)
    # NaN fails every comparison, so a "<= 0" check lets it through.
    for delta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            prob_synth(np.eye(2, dtype=complex), 0.3, delta, std_pool)


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
    with pytest.raises(ValueError, match="candidate orthogonal to the target: eigenphase at pi"):
        campbell_mix(U, [V])


def test_sample_point_mass_and_determinism():
    idx = sample(np.array([0.0, 1.0, 0.0]), seed=0, n=100)
    assert np.all(idx == 1)
    a = sample(np.array([0.3, 0.7]), seed=42, n=1000)
    b = sample(np.array([0.3, 0.7]), seed=42, n=1000)
    assert np.array_equal(a, b)
    # frequencies roughly match
    assert abs(np.mean(a) - 0.7) < 0.05
    for p in ([0.5, 0.6], [np.nan, 1.0], [2.0, -1.0], []):
        with pytest.raises(ValueError, match="invalid probability distribution"):
            sample(np.array(p), seed=0, n=1)
