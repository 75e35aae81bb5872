from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from usynth import bounds, channels, sdp
from usynth.channels import (
    ChoiOperator,
    choi,
    choi_mixture,
    diamond_distance,
    optimal_mix,
    unitary_distance,
)
from usynth.linalg import haar_unitary
from usynth.qubit1 import (
    line_distance,
    magic_embed,
    magic_unembed,
    mix_distance_1q,
    optimal_mix_1q,
)


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])


def test_choi_identity():
    J = choi(np.eye(2)).J
    expect = np.zeros((4, 4), dtype=complex)
    for a, b in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expect[a, b] = 1.0
    assert np.allclose(J, expect)


def test_choi_trace_is_dimension():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        assert abs(np.trace(choi(haar_unitary(d, rng)).J) - d) < 1e-10


def test_choi_phase_gate_entries():
    J = choi(np.diag([1, 1j])).J
    # indexing: row (i,k), column (j,l) with i,j on the input factor
    assert abs(J[3, 0] - 1j) < 1e-12
    assert abs(J[0, 3] + 1j) < 1e-12


def test_choi_is_rank_one_projector_scaled():
    rng = np.random.default_rng(1)
    J = choi(haar_unitary(3, rng)).J
    w = np.linalg.eigvalsh(J)
    assert abs(w[-1] - 3) < 1e-9
    assert np.all(np.abs(w[:-1]) < 1e-9)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_choi_is_bitwise_the_symmetrized_outer_product(d):
    # choi checks U only; its J is (J + J^dag) / 2 of the outer product, the
    # J that ChoiOperator's own check returns, to the last bit.
    for i in range(50):
        U = haar_unitary(d, np.random.default_rng([d, i]))
        v = U.T.reshape(-1)
        J = np.outer(v, v.conj())
        op = choi(U)
        assert op.J.tobytes() == ((J + J.conj().T) / 2).tobytes()
        assert op.J.tobytes() == ChoiOperator(J=J, dims=(d, d)).J.tobytes()
        assert op.dims == (d, d)


def test_choi_mixture_is_bitwise_the_checked_operator():
    rng = np.random.default_rng(7)
    cands = [choi(haar_unitary(3, rng)) for _ in range(3)]
    w = rng.dirichlet(np.ones(3))
    J = sum((p * c.J for p, c in zip(w, cands)), np.zeros((9, 9), dtype=complex))
    mixture = choi_mixture(cands, w)
    assert mixture.J.tobytes() == ChoiOperator(J=J, dims=(3, 3)).J.tobytes()
    assert mixture.dims == (3, 3)


def test_choi_operators_are_equal_only_when_identical():
    # Identity semantics: == and hash read no array, so a choi operator keeps its J unformed.
    op, twin = choi(np.eye(2)), choi(np.eye(2))
    assert op == op and op != twin
    assert op in [op] and twin not in [op]
    assert hash(op) == hash(op) and len({op, twin, op}) == 2
    assert "J" not in vars(op) and "J" not in vars(twin)
    checked = ChoiOperator(J=op.J, dims=(2, 2))
    assert checked != op and hash(checked) == hash(checked)


def test_unitary_distance_examples():
    U = haar_unitary(2, np.random.default_rng(2))
    assert unitary_distance(U, U) == 0
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    assert abs(unitary_distance(np.eye(2), X) - 1) < 1e-12
    assert abs(unitary_distance(np.eye(2), np.diag([1, 1j])) - np.sin(np.pi / 4)) < 1e-12


def test_unitary_distance_symmetry_and_phase_invariance():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        U, V = haar_unitary(d, rng), haar_unitary(d, rng)
        assert abs(unitary_distance(U, V) - unitary_distance(V, U)) < 1e-12
        assert abs(unitary_distance(U, np.exp(0.7j) * V) - unitary_distance(U, V)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_unitary_distance_keeps_its_digits_at_small_distances(d):
    # U diag(e^{ith}), h = (1, -1, 0, ...), is at distance sin t from U: the eigenphase
    # arc is 2t. At d = 2 the magic vectors' chord form agrees (Haar pairs too).
    rng = np.random.default_rng([37, d])
    U = haar_unitary(d, rng)
    h = np.r_[1.0, -1.0, np.zeros(d - 2)]
    for t in np.logspace(-12, 0, 49):
        V = U @ np.diag(np.exp(1j * t * h))
        assert abs(unitary_distance(U, V) - np.sin(t)) <= 1e-15
        if d == 2:
            W = haar_unitary(2, rng)
            for A, B in ((U, V), (U, W)):
                chord = line_distance(magic_embed(A), magic_embed(B))
                assert abs(unitary_distance(A, B) - chord) <= 1e-15


def test_diamond_distance_metric_properties():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        Js = [choi(haar_unitary(d, rng)) for _ in range(3)]
        d01 = diamond_distance(Js[0], Js[1])
        d10 = diamond_distance(Js[1], Js[0])
        d02 = diamond_distance(Js[0], Js[2])
        d12 = diamond_distance(Js[1], Js[2])
        assert abs(d01 - d10) < 1e-8
        assert d02 <= d01 + d12 + 1e-7


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_diamond_distance_matches_unitary_closed_form(d):
    # The SDP against the closed form: at d = 4 and 5 the solve runs on the
    # two-dimensional support of the two Choi operators, not on d^2.
    rng = np.random.default_rng(40 + d)
    for _ in range(3):
        U, V = haar_unitary(d, rng), haar_unitary(d, rng)
        value, gap = diamond_distance(choi(U), choi(V), full_output=True)
        assert abs(value - unitary_distance(U, V)) <= 1e-7 and gap <= 1e-7


def test_diamond_distance_is_zero_only_on_equal_operators():
    # V = U exp(i s H), about 1e-13 from U: ||J(U) - J(V)||_1 is about 6e-13, and the
    # certified upper bound stays no less than the closed form. Equal J gives exactly 0.
    rng = np.random.default_rng([44, 3])
    U = haar_unitary(3, rng)
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lam, Q = np.linalg.eigh(G + G.conj().T)
    V = U @ (Q * np.exp(1j * 2e-13 / (lam[-1] - lam[0]) * lam)) @ Q.conj().T
    dist = unitary_distance(U, V)
    assert 5e-14 <= dist <= 2e-13
    assert diamond_distance(choi(U), choi(V)) >= dist
    A = choi(U)
    assert diamond_distance(A, A, full_output=True) == (0.0, 0.0)
    assert diamond_distance(A, choi(U)) == 0.0
    assert diamond_distance(ChoiOperator(J=A.J, dims=(3, 3)), choi(U)) == 0.0


def _factor_columns(*ops: ChoiOperator) -> np.ndarray:
    return np.concatenate([op.factors[0] for op in ops], axis=1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mix_on_the_support_equals_the_full_space_solve(seed):
    # The same SDP posed on all of C^9 (V = I): the support loses nothing.
    rng = np.random.default_rng([60, seed])
    target, *cands = [choi(haar_unitary(3, rng)) for _ in range(2 + seed)]
    assert channels._support(_factor_columns(target, *cands)).shape == (9, 2 + seed)
    _, upper, lower, _ = channels._mix(target, cands)
    with mock.patch.object(channels, "_support", lambda J: np.eye(9)):
        _, upper_full, lower_full, _ = channels._mix(target, cands)
    assert abs(upper - upper_full) <= 1e-7 and abs(lower - lower_full) <= 1e-7
    assert lower <= upper <= lower + 1e-7


def test_mix_keeps_a_candidate_a_hair_from_the_target():
    # Supports 5.5e-8 apart: the spectrum of J(A) + J(B) shows the gap only as
    # an eigenvalue of about 3e-15, under any cut on it; each operator's own
    # eigenvector keeps it.
    t = 5.5e-8
    u, w = np.array([1.0, 0.0, 0.0, 0.0]), np.array([np.cos(t), np.sin(t), 0.0, 0.0])
    _, upper_1q, _, _ = optimal_mix_1q(u, w[None, :])
    _, upper, lower, _ = channels._mix(choi(magic_unembed(u)), [choi(magic_unembed(w))])
    assert lower <= upper and abs(upper - upper_1q) <= 1e-7


def test_mix_drops_a_small_eigen_part_and_stays_certified():
    rng = np.random.default_rng(50)
    U, V, W = (haar_unitary(3, rng) for _ in range(3))
    v = V.T.reshape(-1) / np.sqrt(3)  # the unit eigenvector of choi(V)
    phi = rng.normal(size=9) + 1j * rng.normal(size=9)
    phi -= (v.conj() @ phi) * v
    phi /= np.linalg.norm(phi)
    # 2e-10 is under SUPPORT_CUT times choi(V)'s eigenvalue 3: the part leaves K.
    noisy = ChoiOperator(J=choi(V).J + 2e-10 * np.outer(phi, phi.conj()), dims=(3, 3))
    assert channels._support(_factor_columns(choi(U), noisy, choi(W))).shape == (9, 3)
    _, upper, lower, _ = channels._mix(choi(U), [noisy, choi(W)])
    _, upper_r, lower_r, _ = channels._mix(choi(U), [choi(V), choi(W)])
    assert lower <= upper
    assert abs(upper - upper_r) <= 1e-7 and abs(lower - lower_r) <= 1e-7


_support = channels._support


def _candidates_and_another(F: np.ndarray) -> np.ndarray:
    """The candidates' support and one fixed direction, not the target's."""
    extra = np.random.default_rng(72).normal(size=(F.shape[0], 1)) + 0j
    return np.linalg.qr(np.concatenate([_support(F[:, 1:]), extra], axis=1))[0]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("cut", [lambda F: _support(F[:, :2]), _candidates_and_another],
                         ids=["target-and-first", "candidates-and-another"])
def test_mix_bounds_hold_on_a_support_that_drops_parts(d, cut):
    # A K that leaves out parts of the operators: upper is still evaluated on
    # all of C^(d^2), and lower pays for the parts outside K.
    rng = np.random.default_rng([70, 0])
    target, *cands = [choi(haar_unitary(d, rng)) for _ in range(3)]
    _, upper, lower, _ = channels._mix(target, cands)
    with mock.patch.object(channels, "_support", cut):
        p, upper_cut, lower_cut, _ = channels._mix(target, cands)
    assert lower_cut <= upper and upper_cut >= lower
    assert upper_cut >= diamond_distance(target, choi_mixture(cands, p)) - 1e-7


def test_mix_of_kraus_rank_two_channels_on_the_full_space():
    # A unitary target and five channels of Kraus rank 2: 11 >= 9 directions,
    # so K is all of C^9 and V only changes the basis.
    rng = np.random.default_rng(51)
    target = choi(haar_unitary(3, rng))
    cands = [
        choi_mixture([choi(haar_unitary(3, rng)), choi(haar_unitary(3, rng))], np.array([q, 1 - q]))
        for q in (0.9, 0.8, 0.7, 0.6, 0.5)
    ]
    assert channels._support(_factor_columns(target, *cands)).shape == (9, 9)
    p, upper, lower, _ = channels._mix(target, cands)
    assert 0 <= upper - lower <= 1e-7
    assert upper >= diamond_distance(target, choi_mixture(cands, p)) - 1e-7
    assert upper <= min(diamond_distance(target, c) for c in cands) + 1e-7


def _density(rng, d: int) -> np.ndarray:
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mix_distance_of_non_square_channels_is_the_closed_form(seed):
    # d1 != d2 both ways, where a partial-trace index error would hide. The isometry
    # channels C^2 -> C^3 of W and W U are as far apart as I and U; the replacement
    # channels C^3 -> C^2, rho -> tr(rho) sigma with J = I_3 (x) sigma, are
    # 1/2 ||sigma_1 - sigma_2||_1 apart.
    rng = np.random.default_rng([80, seed])
    W, U = haar_unitary(3, rng)[:, :2], haar_unitary(2, rng)
    iso = [ChoiOperator(J=np.outer(v, v.conj()), dims=(2, 3))
           for v in (W.T.reshape(-1), (W @ U).T.reshape(-1))]  # v[(i, k)] = W[k, i]
    s1, s2 = _density(rng, 2), _density(rng, 2)
    rep = [ChoiOperator(J=np.kron(np.eye(3), s), dims=(3, 2)) for s in (s1, s2)]
    for (A, B), exact in ((iso, unitary_distance(np.eye(2), U)),
                          (rep, np.abs(np.linalg.eigvalsh(s1 - s2)).sum() / 2)):
        _, upper, lower, _ = channels._mix(A, [B])
        assert lower - 1e-9 <= exact <= upper + 1e-9
        assert upper - lower <= 1e-7


def test_mix_solves_take_few_interior_point_iterations(solves):
    # tools/solve_sweep.py's first 30 d = 3 cases (seed 1, i = 0, 3, ..., 87), drawn in
    # its order. The mean is 10.20 with the centering exponent 1.5 and 11.40 with 3;
    # 11.0 leaves an 8% margin above the first.
    for i in range(0, 90, 3):
        rng = np.random.default_rng([1, i])
        n = int(rng.integers(2, 6))
        target = choi(haar_unitary(3, rng))
        channels._mix(target, [choi(haar_unitary(3, rng)) for _ in range(n)])
    iterations = [s.sol.iterations for s in solves]
    assert len(iterations) == 30 and np.mean(iterations) <= 11.0


def test_optimal_mix_target_in_candidates():
    rng = np.random.default_rng(5)
    U = haar_unitary(2, rng)
    cands = [choi(haar_unitary(2, rng)) for _ in range(3)] + [choi(U)]
    p, v = optimal_mix(choi(U), cands)
    assert v < 1e-7
    assert p[-1] > 0.99


@pytest.mark.parametrize("d", [2, 3])
def test_mix_exact_hit_keeps_lower_at_most_upper(d):
    rng = np.random.default_rng(30 + d)
    for _ in range(3):
        U, V = haar_unitary(d, rng), haar_unitary(d, rng)
        _, upper, lower, _ = channels._mix(choi(U), [choi(V), choi(U)])
        assert lower <= upper < 1e-7
        assert diamond_distance(choi(U), choi(V), full_output=True)[1] >= 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_mix_lower_is_never_negative_near_the_target(d):
    # U against itself and against U diag(e^{i theta}), theta from 1e-12 to 1e-6: lower
    # is clamped to [0, upper], as optimal_mix_1q's is, so a gap never exceeds its value.
    rng = np.random.default_rng([41, d])
    for theta in np.logspace(-12, -6, 7):
        U = haar_unitary(d, rng)
        A, B = choi(U), choi(U @ np.diag(np.exp(1j * theta * np.eye(d)[0])))
        for cands in ([A], [B]):
            _, upper, lower, _ = channels._mix(A, cands)
            assert 0 <= lower <= upper
        value, gap = diamond_distance(A, B, full_output=True)
        assert 0 <= gap <= value


def test_each_operator_is_factored_once_where_it_is_made(monkeypatch):
    # choi makes no eigendecomposition, a J given as a matrix one eigh at construction,
    # and optimal_mix on choi-built operators never decomposes the stack of all four.
    shapes = []
    for name in ("eigh", "eigvalsh"):
        def record(a, *args, _real=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    rng = np.random.default_rng(41)
    for d in (2, 3):
        target, *cands = [choi(haar_unitary(d, rng)) for _ in range(4)]
        assert shapes == []
        optimal_mix(target, cands)
        assert (4, d * d, d * d) not in shapes
        shapes.clear()
    ChoiOperator(J=target.J, dims=(3, 3))
    assert shapes == [(9, 9)]
    choi_mixture(cands, np.full(3, 1 / 3))
    assert shapes == [(9, 9)] * 2


@pytest.mark.parametrize("d", [3, 8])
def test_optimal_mix_reads_only_the_factors(monkeypatch, d):
    # No choi operator forms its J, and after the solve no eigh or eigvalsh sees a
    # d^2 x d^2 matrix: both bounds are taken on K. d = 8 is the sharpness upper witness.
    if d == 3:
        rng = np.random.default_rng([42, 3])
        target, *cands = [choi(haar_unitary(3, rng)) for _ in range(5)]
    else:
        target = choi(bounds.upper_family_target(8))
        cands = [choi(U) for U in bounds.upper_family(0.3, 8)]
    shapes = []
    for name in ("eigh", "eigvalsh"):
        def record(a, *args, _real=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a)[-2:])
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)

    def solve_then_record(*args, _solve=sdp.solve, **kwargs):
        sol = _solve(*args, **kwargs)
        shapes.clear()
        return sol

    monkeypatch.setattr(sdp, "solve", solve_then_record)
    optimal_mix(target, cands)
    assert shapes and (d * d, d * d) not in shapes
    assert not any("J" in vars(op) for op in [target, *cands])


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("kraus", [1, 2], ids=["unitary", "kraus-rank-2"])
def test_mix_upper_on_k_is_the_full_space_repair_plus_at_most_the_outside(solves, d, kraus):
    # u_full repairs S = V S' V^H against the full dJ on all of C^(d^2), recomputed from
    # the captured solve. upper, taken on K, is no less: its shift adds o, the bound on
    # ||dJ - V dJ' V^H||_1 that lower pays too, so it exceeds the full shift by at most
    # o + ||dJ - V dJ' V^H||_inf <= 2 o, and upper exceeds u_full by d2 times that. Where
    # u_full exceeds 1, upper is capped at the channels' (||A|| + sum p_x ||B_x||) / 2 = 1.
    rng = np.random.default_rng([43, d, kraus])

    def channel():
        Us = [choi(haar_unitary(d, rng)) for _ in range(kraus)]
        return Us[0] if kraus == 1 else choi_mixture(Us, np.array([0.7, 0.3]))

    target, *cands = [choi(haar_unitary(d, rng)), channel(), channel(), channel()]
    p, upper, _, _ = channels._mix(target, cands)
    V = channels._support(_factor_columns(target, *cands))
    S = V @ solves[-1].sol.X[0] @ V.conj().T
    dJ = target.J - sum(px * c.J for px, c in zip(p, cands))
    shift = max(0.0, -np.linalg.eigvalsh(S)[0], -np.linalg.eigvalsh(S - dJ)[0])
    u_full = np.linalg.eigvalsh(np.trace(S.reshape(d, d, d, d), axis1=1, axis2=3))[-1] + d * shift
    outside = []
    for F, w, rest in (op.factors for op in [target, *cands]):
        a, b = np.linalg.norm(V.conj().T @ F, axis=0), np.linalg.norm(F - V @ V.conj().T @ F, axis=0)
        outside.append(rest + np.abs(w) @ (2 * a * b + b * b))
    o = outside[0] + p @ outside[1:]
    assert V.shape[1] < d * d
    assert kraus == 1 or min(c.factors[2] for c in cands) > 0
    assert min(u_full, 1.0) - 1e-14 <= upper <= u_full + 2 * d * o + 1e-14


def test_optimal_mix_fig3_axial():
    thetas = [0, np.pi / 3, 2 * np.pi / 3, np.pi, 4 * np.pi / 3, 5 * np.pi / 3]
    cands = [choi(rz(t)) for t in thetas]
    p, v = optimal_mix(choi(rz(np.pi / 2)), cands)
    assert abs(v - np.sin(np.pi / 12) ** 2) < 1e-7
    assert abs(p[1] - 0.5) < 1e-5 and abs(p[2] - 0.5) < 1e-5


def test_optimal_mix_two_axial_candidates():
    cands = [choi(rz(0.0)), choi(rz(np.pi))]
    p, v = optimal_mix(choi(rz(np.pi / 2)), cands)
    assert abs(v - 0.5) < 1e-7


def test_optimal_mix_never_worse_than_best_candidate():
    rng = np.random.default_rng(6)
    U = haar_unitary(2, rng)
    Vs = [haar_unitary(2, rng) for _ in range(4)]
    p, v = optimal_mix(choi(U), [choi(V) for V in Vs])
    best = min(unitary_distance(U, V) for V in Vs)
    assert v <= best + 1e-7


def test_optimal_mix_empty_candidates():
    for d in (2, 3):
        with pytest.raises(ValueError, match="empty candidate list"):
            optimal_mix(choi(np.eye(d)), [])


def test_optimal_mix_weights_normalized():
    rng = np.random.default_rng(7)
    p, v = optimal_mix(
        choi(haar_unitary(2, rng)), [choi(haar_unitary(2, rng)) for _ in range(4)]
    )
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p >= 0)


def test_optimal_mix_value_bounds_error_of_its_p():
    # At this instance the solver's objective overstates the error of its own
    # p, and the second candidate alone is slightly better than that p. Both
    # lowerings: optimal_mix (the 4x4 one for qubit unitaries) and _mix.
    u = np.array([1.0, 0.0, 0.0, 0.0])
    W = np.array([[1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]) / np.sqrt([[3.0], [4.0]])
    target, cands = choi(magic_unembed(u)), [choi(magic_unembed(w)) for w in W]
    for p, value in (optimal_mix(target, cands), channels._mix(target, cands)[:2]):
        exact = mix_distance_1q(u, W, p)
        assert exact <= value <= exact + 1e-8


def test_optimal_mix_qubit_unitaries_skip_generic_path():
    # d = 2 unitary channels go to the tie-set pivots and agree with the
    # Watrous SDP; p follows the candidates' order.
    rng = np.random.default_rng(12)
    cases = []
    for k in range(20):
        U, *Vs = [haar_unitary(2, rng) for _ in range(k % 5 + 2)]
        cases.append((choi(U), [choi(V) for V in Vs]))
    U = haar_unitary(2, rng)
    cases.append((choi(U), [choi(haar_unitary(2, rng)), choi(1j * U), choi(haar_unitary(2, rng))]))
    expected = [channels._mix(target, cands)[1] for target, cands in cases]
    with mock.patch.object(channels, "_mix", side_effect=AssertionError("generic path")):
        for (target, cands), ref in zip(cases, expected):
            p, value = optimal_mix(target, cands)
            assert p.shape == (len(cands),) and abs(value - ref) <= 1e-7
    assert p[1] > 0.99 and value < 1e-7


def test_optimal_mix_other_inputs_take_generic_path():
    # Not trace preserving, not rank one, or d = 3: the Watrous SDP.
    rng = np.random.default_rng(13)
    U, V, W = (choi(haar_unitary(2, rng)) for _ in range(3))
    mixture = choi_mixture([V, W], np.array([0.5, 0.5]))
    half = ChoiOperator(J=0.5 * U.J, dims=(2, 2))
    A, B, C = (choi(haar_unitary(3, rng)) for _ in range(3))
    for target, cands in ((mixture, [U, V]), (U, [V, mixture]), (half, [V, W]), (U, [V, half]),
                          (A, [B, C])):
        with mock.patch.object(channels, "_mix", wraps=channels._mix) as spy:
            p, _ = optimal_mix(target, cands)
        assert spy.call_count == 1 and p.shape == (len(cands),)


@pytest.mark.parametrize("d", [2, 3])
def test_diamond_distance_is_optimal_mix_with_one_candidate(solves, d):
    # One dispatch picks the lowering of both: at d = 2 the tie-set pivots of
    # qubit1.optimal_mix_1q, no SDP, whose upper is the exact distance of the unitaries;
    # at d = 3 Watrous's SDP on a support of 2 dimensions, (1 + 1)^2 + d^2 + 1 rows.
    rng = np.random.default_rng([36, d])
    for _ in range(10):
        U, V = haar_unitary(d, rng), haar_unitary(d, rng)
        value, gap = diamond_distance(choi(U), choi(V), full_output=True)
        assert value == optimal_mix(choi(U), [choi(V)])[1] and 0.0 <= gap <= 1e-7
        if d == 2:
            assert abs(value - unitary_distance(U, V)) <= 1e-12
    rows = [] if d == 2 else [4 + d * d + 1] * 20
    assert [len(s.problem.constraints) for s in solves] == rows


def test_optimal_mix_rejects_mixed_dims():
    q, t = choi(np.eye(2)), choi(np.eye(3))
    for target, cands in ((q, [t]), (t, [q]), (q, [q, t])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            optimal_mix(target, cands)


@pytest.mark.parametrize(
    "bad", [complex(1.0, np.nan), complex(np.inf, 0.0)], ids=["imag-nan", "real-inf"]
)
def test_choi_rejects_a_non_finite_entry_in_either_part(bad):
    U = np.eye(2, dtype=complex)
    U[1, 0] = bad
    J = choi(np.eye(2)).J
    J[3, 0] = bad
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        choi(U)
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        ChoiOperator(J=J, dims=(2, 2))


@pytest.mark.parametrize("dims", [(-2, -2), (0, 4), (2.5, 1.6)],
                         ids=["negative", "zero", "non-integer"])
def test_choi_operator_rejects_dims_that_are_not_positive_integers(dims):
    # Each product is 4, so J = I_4 once matched the shape of every one.
    with pytest.raises(ValueError, match=r"^dims must be two positive integers d1, d2 "):
        ChoiOperator(J=np.eye(4), dims=dims)


def test_choi_mixture_dims_and_weights():
    with pytest.raises(ValueError):
        choi_mixture([choi(np.eye(2))], np.array([0.5, 0.5]))
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    for w in ([2.0, -1.0], [np.nan, 1.0], [0.5, 0.6]):
        with pytest.raises(ValueError, match="invalid probability distribution"):
            choi_mixture([choi(np.eye(2)), choi(X)], np.array(w))
    J = choi_mixture([choi(np.eye(2)), choi(np.eye(2))], np.array([0.3, 0.7]))
    assert np.allclose(J.J, choi(np.eye(2)).J)


# Property tests of the generic path at d=2: a seed draws a Haar target and
# 1-4 Haar candidates.
_seeds = st.integers(0, 2**32 - 1)
_counts = st.integers(1, 4)


def _haar_qubits(seed: int, n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [haar_unitary(2, rng) for _ in range(n)]


@pytest.mark.parametrize("lowering", ["diamond", "dual"])
@settings(max_examples=5, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=_seeds, n=_counts)
def test_native_complex_blocks_match_real_embedding(solves, lowering, seed, n):
    # "diamond" is Watrous's one-candidate problem and "dual" the Watrous mixing
    # problem, both of channels._mix (for these qubit unitaries diamond_distance
    # and optimal_mix pivot on tie sets and pose no SDP). real_embed lowers each
    # dense d-block to a Hermitian 2d-block with real rows. solves is cleared for
    # each example.
    target, *cands = [choi(U) for U in _haar_qubits(seed, n + 1)]
    solves.clear()
    channels._mix(target, cands[:1] if lowering == "diamond" else cands)
    ((problem, _, _),) = solves
    native = sdp.solve(problem)
    embedded = sdp.solve(sdp.real_embed(problem))
    assert native.status == embedded.status == "Optimal"
    assert abs(native.primal_value - embedded.primal_value) <= 1e-7


@settings(max_examples=5)
@given(seed=_seeds, n=_counts, phases=arrays(float, 5, elements=st.floats(0.0, 2 * np.pi)))
def test_optimal_mix_global_phase_invariance(seed, n, phases):
    Us = _haar_qubits(seed, n + 1)
    _, value = optimal_mix(choi(Us[0]), [choi(U) for U in Us[1:]])
    Us = [np.exp(1j * f) * U for f, U in zip(phases, Us)]
    _, value_ph = optimal_mix(choi(Us[0]), [choi(U) for U in Us[1:]])
    assert abs(value - value_ph) <= 1e-7


@settings(max_examples=10)
@given(seed=_seeds, n=_counts)
def test_optimal_mix_at_most_best_candidate(seed, n):
    target, *cands = _haar_qubits(seed, n + 1)
    _, value = optimal_mix(choi(target), [choi(U) for U in cands])
    assert value <= min(unitary_distance(target, U) for U in cands) + 1e-7


@settings(max_examples=300)
@given(seed=_seeds, n=_counts)
def test_optimal_mix_dual_equals_primal(seed, n):
    # The certified primal (upper) and dual (lower) bounds meet; the upper
    # bound is never below the exact error of its own p, and neither bound
    # crosses those of the independent tie-set pivots.
    Us = _haar_qubits(seed, n + 1)
    p, upper, lower, _ = channels._mix(choi(Us[0]), [choi(U) for U in Us[1:]])
    assert 0.0 <= upper - lower <= 1e-7
    u, W = magic_embed(Us[0]), np.stack([magic_embed(U) for U in Us[1:]])
    assert upper >= mix_distance_1q(u, W, p) - 1e-12
    _, upper_1q, lower_1q, _ = optimal_mix_1q(u, W)
    assert lower <= upper_1q + 1e-12 and lower_1q <= upper + 1e-12


def _far_pairs():
    """Cases whose repaired primal reads above 1: the sweep's diamond4-0 and mix 1-231,
    and three far qutrit candidates from default_rng([43, 3])."""
    rng = np.random.default_rng([4, 0])
    yield choi(haar_unitary(4, rng)), [choi(haar_unitary(4, rng))]
    rng = np.random.default_rng([1, 231])
    n = int(rng.integers(2, 6))
    yield choi(haar_unitary(3, rng)), [choi(haar_unitary(3, rng)) for _ in range(n)]
    rng = np.random.default_rng([43, 3])
    Ms = [haar_unitary(3, rng) for _ in range(6)]
    yield choi(Ms[0]), [choi(Ms[i]) for i in (1, 2, 5)]


@pytest.mark.parametrize("case", range(3), ids=["diamond4-0", "1-231", "43-3"])
def test_mix_upper_of_channels_is_capped_at_one(case):
    target, cands = list(_far_pairs())[case]
    p, upper, lower, certificate = channels._mix(target, cands)
    assert 0.0 <= lower <= upper <= 1 + 1e-12
    assert optimal_mix(target, cands)[1] == upper
    # The cap is read off the factors: the channels' diamond norms are 1.
    norms = channels._on_support([target, *cands], certificate[0])[3]
    assert np.allclose(norms, 1.0, rtol=0, atol=1e-12)


def test_mix_cap_of_a_non_channel_is_its_diamond_norm():
    # 2 J(U) is no channel: its diamond norm is 2, so the cap is (2 + 1) / 2.
    rng = np.random.default_rng([4, 0])
    U, V = haar_unitary(4, rng), haar_unitary(4, rng)
    double = ChoiOperator(J=2 * choi(U).J, dims=(4, 4))
    p, upper, lower, certificate = channels._mix(double, [choi(V)])
    assert 1.0 < lower <= upper <= 1.5 + 1e-12
    norms = channels._on_support([double, choi(V)], certificate[0])[3]
    assert np.allclose(norms, [2.0, 1.0], rtol=0, atol=1e-12)


def test_diamond_norm_bounds_skip_a_negative_part_only_where_there_is_none():
    # The norms are lmax(ptr2 J+) + lmax(ptr2 J-) + rest, bit for bit, whether or not
    # any operator has a negative factor weight.
    def reference(ops):  # both halves of every operator, always
        Fs, ws, rests = zip(*(op.factors for op in ops))
        w, starts = np.concatenate(ws), np.cumsum([0, *map(len, ws[:-1])])
        G = np.concatenate(Fs, axis=1).T.reshape(-1, *ops[0].dims)
        ptr = G @ G.conj().transpose(0, 2, 1)
        signs = np.stack([np.maximum(w, 0.0), np.maximum(-w, 0.0)])
        norms = np.linalg.eigvalsh(np.add.reduceat(signs[..., None, None] * ptr, starts, axis=1))
        return (norms[..., -1].sum(axis=0) + rests).tolist()

    rng = np.random.default_rng([45, 3])
    U, V, W = (haar_unitary(3, rng) for _ in range(3))
    mixed = ChoiOperator(J=choi(U).J - 0.5 * choi(V).J, dims=(3, 3))
    assert (mixed.factors[1] < 0).any()
    for ops in ([choi(U), choi(V)], [choi(W), mixed, choi(V)]):
        basis = channels._support(np.concatenate([op.factors[0] for op in ops], axis=1))
        norms = channels._on_support(ops, basis)[3]
        assert norms.tolist() == reference(ops)


def test_mix_bounds_are_re_checked_from_the_certificate_and_tampered_ones_repaired():
    rng = np.random.default_rng([44, 3])
    target, *cands = [choi(haar_unitary(3, rng)) for _ in range(4)]
    p, upper, lower, certificate = channels._mix(target, cands)
    V, S, T, rho = certificate
    on_k = channels._on_support([target, *cands], V)
    assert channels._check(p, certificate, on_k) == (upper, lower)  # no solve
    # A tester twice too large, and a rho with a negative eigenvalue: both repaired into
    # a feasible tester, whose bound holds for every mixture, so below the optimum.
    negative = rho - (np.linalg.eigvalsh(rho)[0] + 0.25) * np.eye(3)
    assert np.linalg.eigvalsh(negative)[0] < 0
    for tampered in ((V, S, 2 * T, rho), (V, S, T, negative)):
        upper_t, lower_t = channels._check(p, tampered, on_k)
        assert upper_t == upper
        assert 0.0 <= lower_t <= lower + 1e-7 and lower_t <= upper_t
