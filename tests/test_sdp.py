import dataclasses
import warnings

import numpy as np
import pytest

from usynth import channels, sdp
from usynth.channels import (
    SdpFailureError,
    choi,
    diamond_distance,
    unitary_distance,
)
from usynth.linalg import haar_unitary


def lowered(blocks, objective, constraints) -> sdp.SdpProblem:
    """The SdpProblem of a problem given by coefficient matrices.

    objective maps block k to C_k and constraints lists pairs ({k: A_ik}, b_i);
    a block not named contributes 0, and a diag block's coefficient is its
    vector. Each matrix becomes its svec row (`sdp.svec`, its Hermitian part).
    """
    def row(coeffs):
        return np.concatenate([
            np.zeros(sdp.width(blk)) if k not in coeffs
            else np.asarray(coeffs[k], float) if blk.diag else sdp.svec(blk, coeffs[k])
            for k, blk in enumerate(blocks)
        ])

    A = np.array([row(coeffs) for coeffs, _ in constraints]).reshape(len(constraints), -1)
    return sdp.SdpProblem(blocks, row(objective), A, np.array([b for _, b in constraints], float))


def _lift(blk, v):
    """The Hermitian matrix of a dense block with svec coordinates v."""
    return np.tensordot(v, sdp.hermitian_basis(blk), 1)


def test_trivial_scalar():
    p = lowered([sdp.Block(size=1)], {0: np.array([[1.0]])}, [({0: np.array([[1.0]])}, 1.0)])
    s = sdp.solve(p)
    assert s.status == "Optimal"
    assert abs(s.primal_value - 1.0) < 1e-7


def test_problems_and_solutions_compare_by_identity():
    # Equal contents are not equal values: == and hash read no array.
    def problem():
        return lowered([sdp.Block(size=1)], {0: np.array([[1.0]])},
                       [({0: np.array([[1.0]])}, 1.0)])

    a, b = problem(), problem()
    for x, y in ((a, b), (sdp.solve(a), sdp.solve(a))):
        assert x == x and x != y
        assert hash(x) == hash(x) and len({x, y, x}) == 2


def test_real_embed_scalar_identity():
    # A 1x1 block's coefficient a becomes phi(a) / 2 = (a / 2) I on a 2x2 block:
    # svec(I) = (1, 1, 0, 0), with zero imaginary coordinates.
    p = lowered([sdp.Block(size=1)], {0: np.array([[2.0]])}, [({0: np.array([[1.0]])}, 3.0)])
    q = sdp.real_embed(p)
    assert q.blocks == [sdp.Block(size=2)]
    assert np.array_equal(q.objective, [1.0, 1.0, 0.0, 0.0])
    assert np.array_equal(q.constraints, [[0.5, 0.5, 0.0, 0.0]]) and np.array_equal(q.rhs, [3.0])


def test_real_embed_pauli_y_eigenvalues():
    # A dense block's part svec(A) of a row becomes svec(phi(A) / 2) on the dense
    # block of twice the size, phi(A) = [[Re A, -Im A], [Im A, Re A]], which is real.
    Y = np.array([[0, -1j], [1j, 0]])
    blk = sdp.Block(size=2)
    q = sdp.real_embed(sdp.SdpProblem([blk], sdp.svec(blk, Y), np.zeros((0, 4)), np.zeros(0)))
    assert q.blocks == [sdp.Block(size=4)]
    E = _lift(q.blocks[0], q.objective)
    assert np.allclose(E, np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]) / 2)
    assert not E.imag.any()
    assert np.allclose(np.sort(np.linalg.eigvalsh(E)), [-0.5, -0.5, 0.5, 0.5])


def test_real_embed_preserves_psd():
    rng = np.random.default_rng(0)
    blk = sdp.Block(size=3)
    F = rng.standard_normal((500, 3, 3)) + 1j * rng.standard_normal((500, 3, 3))
    M = F @ F.conj().swapaxes(1, 2)
    q = sdp.real_embed(sdp.SdpProblem([blk], np.zeros(9), sdp.svec(blk, M), np.ones(500)))
    E = _lift(q.blocks[0], q.constraints)
    assert E.shape == (500, 6, 6)
    assert np.min(np.linalg.eigvalsh(E)) > -1e-9


def test_max_eigenvalue_complex_block():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    C = (A + A.conj().T) / 2
    p = lowered([sdp.Block(size=3)], {0: C}, [({0: np.eye(3)}, 1.0)])
    s = sdp.solve(p)
    assert s.status == "Optimal"
    assert abs(s.primal_value - np.max(np.linalg.eigvalsh(C))) < 1e-6
    # weak duality (maximization form: primal <= dual)
    assert s.primal_value <= s.dual_value + 1e-7
    # recovered variable is Hermitian PSD with the right trace
    X = s.X[0]
    assert np.linalg.norm(X - X.conj().T) < 1e-10
    assert np.min(np.linalg.eigvalsh(X)) > -1e-7
    assert abs(np.trace(X).real - 1) < 1e-7


def test_diag_block_lp():
    c = np.array([0.3, 0.7, 0.2])
    p = lowered([sdp.Block(size=3, diag=True)], {0: c}, [({0: np.ones(3)}, 1.0)])
    s = sdp.solve(p)
    assert s.status == "Optimal"
    assert abs(s.primal_value - 0.7) < 1e-7
    assert np.allclose(s.X[0], [0, 1, 0], atol=1e-6)


def test_diamond_sdp_identical_channels():
    assert diamond_distance(choi(np.eye(2)), choi(np.eye(2))) == 0.0


def test_diamond_sdp_pauli_x():
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    v = diamond_distance(choi(np.eye(2)), choi(X))
    assert abs(v - 1.0) < 1e-7


@pytest.mark.parametrize("d", [2, 3])
def test_diamond_sdp_matches_closed_form(d):
    rng = np.random.default_rng(10 + d)
    for _ in range(10):
        U, V = haar_unitary(d, rng), haar_unitary(d, rng)
        assert abs(diamond_distance(choi(U), choi(V)) - unitary_distance(U, V)) < 1e-6


def _herm_part_problem(rng, hermitian: bool) -> sdp.SdpProblem:
    """A feasible, bounded problem on two dense blocks and a diag block, lowered by svec.

    The first dense block's coefficients are real and the second's complex.
    Its objective and dense coefficients have an anti-Hermitian part unless
    `hermitian`; the problem with their Hermitian parts is drawn from the
    same rng state either way.
    """
    blocks = [sdp.Block(3), sdp.Block(3), sdp.Block(4, diag=True)]

    def coeffs():
        real, cplx = rng.standard_normal((3, 3)), rng.standard_normal((3, 3, 2)) @ [1, 1j]
        parts = [(real, real.T), (cplx, cplx.conj().T), (rng.standard_normal(4), None)]
        return [M if T is None else (M + T) / 2 if hermitian else M for M, T in parts]

    X0 = [np.eye(3) / 10, np.eye(3, dtype=complex) / 10, np.full(4, 0.1)]  # trace 1
    objective = dict(enumerate(coeffs()))
    constraints = [({0: np.eye(3), 1: np.eye(3), 2: np.ones(4)}, 1.0)]
    for _ in range(4):
        A = coeffs()
        rhs = sum(np.real(np.trace(Ak @ Xk)) for Ak, Xk in zip(A[:2], X0[:2])) + A[2] @ X0[2]
        constraints.append((dict(enumerate(A)), float(rhs)))
    return lowered(blocks, objective, constraints)


@pytest.mark.parametrize("seed", range(20))
def test_solve_reads_only_the_hermitian_part_of_each_coefficient(seed):
    # svec reads the Hermitian part of a coefficient, so the rows of a problem
    # and of its Hermitian part agree to rounding, and so do their solutions.
    given_problem = _herm_part_problem(np.random.default_rng(seed), hermitian=False)
    herm_problem = _herm_part_problem(np.random.default_rng(seed), hermitian=True)
    for field in ("objective", "constraints", "rhs"):
        got, want = getattr(given_problem, field), getattr(herm_problem, field)
        assert np.allclose(got, want, rtol=0, atol=1e-15)
    given, herm = sdp.solve(given_problem), sdp.solve(herm_problem)
    assert herm.status == "Optimal"
    assert (given.status, given.iterations) == (herm.status, herm.iterations)
    assert given.primal_value == pytest.approx(herm.primal_value, rel=0, abs=1e-10)
    assert given.dual_value == pytest.approx(herm.dual_value, rel=0, abs=1e-10)
    assert np.allclose(given.y, herm.y, rtol=0, atol=1e-10)
    for X, Xh in zip(given.X, herm.X):
        assert np.allclose(X, Xh, rtol=0, atol=1e-10)
    for X in given.X[:2]:
        assert np.array_equal(X, X.conj().T)


def test_constraint_permutation_invariance():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    C = (A + A.conj().T) / 2
    cons = [({0: np.eye(3)}, 1.0), ({0: np.diag([1.0, -1.0, 0.0])}, 0.2)]
    vals = []
    for order in ([0, 1], [1, 0]):
        p = lowered([sdp.Block(size=3)], {0: C}, [cons[i] for i in order])
        vals.append(sdp.solve(p).primal_value)
    assert abs(vals[0] - vals[1]) < 1e-8


def _given(blocks, n, m=3, **arrays):
    """A problem on blocks of total width n: m rows of ones and a zero objective, or `arrays`."""
    given = dict(objective=np.zeros(n), constraints=np.ones((m, n)), rhs=np.ones(m))
    return sdp.SdpProblem(blocks, **{**given, **arrays})


def _with(shape, at, value, dtype=float):
    """An array of ones with entry `at` set to value."""
    a = np.ones(shape, dtype)
    a[at] = value
    return a


def test_block_has_size_and_diag_only():
    # One dense kind, complex Hermitian: no field says whether a block is real.
    assert [f.name for f in dataclasses.fields(sdp.Block)] == ["size", "diag"]
    with pytest.raises(TypeError):
        sdp.Block(size=2, complex=True)


def test_validate_rejects_bad_shapes():
    # A block's coefficient matrix in place of its svec row.
    p = _given([sdp.Block(size=2)], 4, objective=np.eye(2))
    with pytest.raises(ValueError, match=r"^objective must have shape \(4,\), got \(2, 2\)$"):
        sdp.solve(p)


@pytest.mark.parametrize(
    "arrays, message",
    [
        (dict(objective=np.zeros(6)), "objective must have shape (4,), got (6,)"),
        (dict(rhs=_with(3, 1, np.nan)), "rhs has a non-finite entry at (1,)"),
        (dict(rhs=_with(3, 2, -np.inf)), "rhs has a non-finite entry at (2,)"),
        # A row that reaches past the last block.
        (dict(constraints=np.ones((3, 5))), "constraints must have shape (m, 4), got (3, 5)"),
        (dict(constraints=np.ones(3)), "constraints must have shape (m, 4), got (3,)"),
        (dict(objective=_with(4, 0, np.inf)), "objective has a non-finite entry at (0,)"),
    ],
    ids=["objective-count", "nan-rhs", "inf-rhs", "unknown-block", "flat-constraints",
         "inf-objective"],
)
def test_solve_rejects_bad_problems(arrays, message):
    with pytest.raises(ValueError) as exc:
        sdp.solve(_given([sdp.Block(size=2)], 4, **arrays))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "blocks, n, arrays, message",
    [
        ([sdp.Block(size=3)], 9, dict(constraints=np.ones((3, 6))),
         r"^constraints must have shape \(m, 9\), got \(3, 6\)$"),
        ([sdp.Block(size=3, diag=True)], 3, dict(constraints=np.ones((3, 3, 3))),
         r"^constraints must have shape \(m, 3\), got \(3, 3, 3\)$"),
        ([sdp.Block(size=3)], 9, dict(constraints=_with((3, 9), (0, 4), np.nan)),
         r"^constraints has a non-finite entry at \(0, 4\)$"),
        ([sdp.Block(size=3)], 9, dict(constraints=_with((3, 9), (1, 0), np.inf)),
         r"^constraints has a non-finite entry at \(1, 0\)$"),
        # A complex array is refused, not cast to its real part.
        ([sdp.Block(size=2)], 4, dict(constraints=_with((3, 4), (0, 1), 1j, complex)),
         "^constraints must be real, got dtype complex128$"),
        ([sdp.Block(size=2, diag=True)], 2, dict(objective=np.array([1.0, 1j])),
         "^objective must be real, got dtype complex128$"),
        ([sdp.Block(size=0)], 0, {}, "^block 0: size must be a positive integer$"),
        ([sdp.Block(size=-1)], 1, {}, "^block 0: size must be a positive integer$"),
        ([sdp.Block(size=2.5)], 3, {}, "^block 0: size must be a positive integer$"),
        ([sdp.Block(size=0, diag=True)], 0, {}, "^block 0: size must be a positive integer$"),
        ([sdp.Block(size=2), sdp.Block(size=-3, diag=True)], 3, {},
         "^block 1: size must be a positive integer$"),
        ([], 0, {}, "^a problem needs at least one block$"),
        # Even with a NaN imaginary part the dtype is named: nothing is cast.
        ([sdp.Block(size=2)], 4, dict(rhs=_with(3, 0, complex(1.0, np.nan), complex)),
         "^rhs must be real, got dtype complex128$"),
        ([sdp.Block(size=2), sdp.Block(size=2, diag=True)], 6,
         dict(constraints=_with((3, 6), (2, 5), np.nan)),
         r"^constraints has a non-finite entry at \(2, 5\)$"),
        ([sdp.Block(size=2)], 4, dict(rhs=np.ones(2)), r"^rhs must have shape \(3,\), got \(2,\)$"),
        # Every shape is checked before any entry: the short rhs is named, not the NaN.
        ([sdp.Block(size=2)], 4, dict(constraints=_with((3, 4), (0, 0), np.nan), rhs=np.ones(4)),
         r"^rhs must have shape \(3,\), got \(4,\)$"),
    ],
    ids=["shape", "shape-diag", "nan", "inf-complex", "imag-real", "imag-diag", "size-0",
         "size-negative", "size-fraction", "size-0-diag", "size-later-block", "no-blocks",
         "nan-imag-real", "later-constraint", "later-shape", "first-fault-named"],
)
def test_validate_rejects_bad_coefficients(blocks, n, arrays, message):
    with pytest.raises(ValueError, match=message):
        sdp.solve(_given(blocks, n, **arrays))


@pytest.mark.parametrize("gap_tol", [np.nan, 0.0, -1.0, np.inf])
def test_solve_rejects_a_gap_tol_that_is_not_positive_and_finite(gap_tol):
    problem = lowered([sdp.Block(size=1)], {0: np.array([[1.0]])}, [({0: np.array([[1.0]])}, 1.0)])
    with pytest.raises(ValueError, match="gap_tol must be positive and finite"):
        sdp.solve(problem, gap_tol)


def test_chol_signals_breakdown_on_tiny_negative_eigenvalue():
    # Exactly representable, so every BLAS sees the same matrix: the second
    # Cholesky pivot is -2**-52 and the smallest eigenvalue about -1.1e-16.
    S = np.array([[1.0, 1.0], [1.0, 1.0 - 2.0**-52]])
    assert -2e-16 < np.linalg.eigvalsh(S)[0] < -5e-17
    blk = sdp.Block(size=2)
    for X, Z in ((S, np.eye(2)), (np.eye(2), S)):
        with pytest.raises(np.linalg.LinAlgError):
            sdp._nt_scaling(blk, X, Z)
    X = np.diag([4.0, 1.0])
    R, lam = sdp._nt_scaling(blk, X, np.eye(2))
    assert lam == pytest.approx([2.0, 1.0])
    Ri = np.linalg.inv(R)
    assert np.allclose(Ri @ X @ Ri.T, np.diag(lam)) and np.allclose(R.T @ R, np.diag(lam))
    lam = np.array([4.0, 1.0])
    scaled = -np.eye(2) / np.sqrt(np.outer(lam, lam))
    assert sdp._max_step(scaled[None, None], np.zeros((1, 0))) == pytest.approx([1.0])
    assert sdp._max_step(np.zeros((1, 0, 1, 1)), (-lam / lam)[None]) == pytest.approx([1.0])


@pytest.mark.parametrize("case", ["matrix-binds", "diag-binds", "psd"])
def test_max_step_reads_padded_stacks_like_one_eigvalsh_per_matrix(case):
    # Two directions over complex blocks of sizes 9, 9 and 3, zero-padded to
    # 9 x 9, and a diag block of 5 entries.
    rng = np.random.default_rng(5)
    sizes = (9, 9, 3)
    S = np.zeros((2, 3, 9, 9), dtype=complex)
    v = {"matrix-binds": 1.0, "diag-binds": 100.0, "psd": 0.0}[case] * rng.standard_normal((2, 5))
    for i in range(2):
        for j, s in enumerate(sizes):
            F = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
            S[i, j, :s, :s] = F @ F.conj().T + np.eye(s) if case == "psd" else F + F.conj().T
    low = [
        min([v[i].min()] + [np.linalg.eigvalsh(S[i, j, :s, :s])[0] for j, s in enumerate(sizes)])
        for i in range(2)
    ]
    got = sdp._max_step(S, v)
    if case == "psd":
        assert got == [np.inf, np.inf]
    else:
        diag_binds = np.array(low) == v.min(axis=1)
        assert max(low) < 0
        assert diag_binds.all() if case == "diag-binds" else not diag_binds.any()
        assert got == pytest.approx([-1.0 / a for a in low], rel=1e-12)


def test_solve_forms_no_explicit_inverse(monkeypatch, solves):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    rng = np.random.default_rng(6)
    for d, n in ((3, 3), (2, 4)):
        channels._mix(choi(haar_unitary(d, rng)), [choi(haar_unitary(d, rng)) for _ in range(n)])
    assert [s.sol.status for s in solves] == ["Optimal"] * 2


@pytest.mark.parametrize("size", [1, 2, 3, 4, 9])
def test_hermitian_basis_is_orthonormal_with_unit_svec(size):
    blk = sdp.Block(size)
    E = sdp.hermitian_basis(blk)
    k = size * size
    assert E.shape == (k, size, size) and E.dtype == complex
    assert np.array_equal(E, E.conj().swapaxes(1, 2))
    gram = np.real(np.einsum("iab,jba->ij", E, E))
    assert np.allclose(gram, np.eye(k), rtol=0, atol=1e-15)
    # svec, the gathers of the block's layout, reads E_i as the i-th unit vector.
    _, _, _, (t1, c1, t2, c2), _ = sdp._stack_layout((blk,))
    Ef = E.reshape(k, -1).view(float)
    assert np.allclose(Ef[:, t1] * c1 + Ef[:, t2] * c2, np.eye(k), rtol=0, atol=1e-15)
    assert not np.signbit(Ef[Ef == 0]).any()  # every zero is +0.0


@pytest.mark.parametrize("size", [1, 2, 3, 4, 9])
def test_svec_of_a_real_symmetric_matrix_is_zero_on_the_imaginary_basis(size):
    # `real_embed` relies on this: its rows, svec of real matrices, have zero
    # coordinates on every basis matrix with zero real part, and lift back to
    # real matrices.
    blk = sdp.Block(size)
    E = sdp.hermitian_basis(blk)
    imaginary = ~E.real.any(axis=(1, 2))
    assert imaginary.sum() == size * (size - 1) // 2
    F = np.random.default_rng(size).standard_normal((3, size, size))
    S = F + F.swapaxes(1, 2)
    v = sdp.svec(blk, S)
    assert not v[:, imaginary].any()
    lifted = np.tensordot(v, E, 1)
    assert not lifted.imag.any()
    assert np.allclose(lifted.real, S, rtol=0, atol=1e-14)


def test_hermitian_basis_rejects_a_diag_block():
    with pytest.raises(ValueError, match="diag block"):
        sdp.hermitian_basis(sdp.Block(3, diag=True))


def test_svec_rejects_a_diag_block_and_reads_a_real_matrix_as_complex():
    with pytest.raises(ValueError, match="^svec: a diag block's coordinates are its entries$"):
        sdp.svec(sdp.Block(3, diag=True), np.eye(3))
    assert np.array_equal(sdp.svec(sdp.Block(2), np.eye(2)), [1.0, 1.0, 0.0, 0.0])


def test_stack_layout_gathers_match_hermitian_basis():
    # The layout of several dense blocks holds each block as its own basis
    # does: the stack of svec coordinates v is sum_i v_i E_i per block, and
    # the svec of a stack's Hermitian part H is Re tr(E_i H).
    dense = (sdp.Block(3), sdp.Block(4), sdp.Block(2))
    layout = sdp._stack_layout(dense)
    shape, _, _, (t1, c1, t2, c2), (jj, aa, bb) = layout
    assert shape == (3, 4, 4)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(len(t1))
    F = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack = sdp._lift(layout, v)
    Ff = F.reshape(-1).view(float)
    coords = Ff[t1] * c1 + Ff[t2] * c2
    start = 0
    for j, blk in enumerate(dense):
        E = sdp.hermitian_basis(blk)
        want = np.zeros(shape[1:], complex)
        want[: blk.size, : blk.size] = np.tensordot(v[start : start + len(E)], E, 1)
        assert np.array_equal(stack[j] == 0, want == 0)
        assert np.allclose(stack[j], want, rtol=0, atol=1e-15)
        M = F[j, : blk.size, : blk.size]
        H = (M + M.conj().T) / 2
        got = coords[start : start + len(E)]
        assert np.allclose(got, [np.real(np.trace(Ei @ H)) for Ei in E], rtol=0, atol=1e-14)
        assert set(jj[start : start + len(E)]) == {j}
        # coordinate i is entry (aa[i], bb[i]) of block j: that entry of E_i is nonzero
        assert all(E[i, a, b] != 0 for i, a, b in zip(range(len(E)), aa[start:], bb[start:]))
        start += len(E)
    assert start == len(t1)


def test_setup_is_built_once_per_block_shape_and_read_only():
    # Equal tuples of blocks share one entry, and so do equal blocks' bases;
    # every array the caches hand out is read-only.
    blocks = (sdp.Block(3), sdp.Block(4, diag=True), sdp.Block(2))
    equal = tuple(sdp.Block(b.size, b.diag) for b in blocks)
    assert equal == blocks and equal[0] is not blocks[0]
    assert sdp._setup(equal) is sdp._setup(blocks)
    assert sdp.hermitian_basis(equal[0]) is sdp.hermitian_basis(blocks[0])
    order, layout, ntot, ci, cj, ev, perm, cuts, gathers = sdp._setup(blocks)
    assert (order, ntot) == ((0, 2, 1), 9) and gathers[2] is None
    arrays = [ci, cj, ev, perm, *layout[1:3], *layout[3], *layout[4],
              *(a for g in gathers if g is not None for a in g), sdp.hermitian_basis(blocks[0])]
    for a in arrays:
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ev[0] = 2.0


def test_a_solve_is_bitwise_the_same_after_other_block_shapes(solves):
    rng = np.random.default_rng(17)
    for d, n in ((2, 3), (3, 4)):
        channels._mix(choi(haar_unitary(d, rng)), [choi(haar_unitary(d, rng)) for _ in range(n)])
    d2, d3 = (s.problem for s in solves)
    sdp._setup.cache_clear()
    first = sdp.solve(d2)  # builds its set-up
    sdp.solve(d3)
    again = sdp.solve(d2)  # reads it from the cache
    assert first.status == "Optimal" and again.trace == first.trace
    assert np.array_equal(again.y, first.y)
    assert all(np.array_equal(X, X1) for X, X1 in zip(again.X, first.X))


@pytest.mark.parametrize("extra", ["none", "zero", "repeated"])
def test_schur_factor_returns_the_full_rank_answer_once_rows_are_dropped(monkeypatch, extra):
    # Full-rank rows take one QR and are scaled in place; a zero row is left
    # out before it, and a repeated row (in the span of those before it) after
    # it, by a second QR of the rows kept. Either way the same rows, s, Q and T.
    rng = np.random.default_rng(21)
    G = rng.standard_normal((5, 9))
    want = sdp._schur_factor(G.copy())
    qrs, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: qrs.append(a.shape) or qr(a))
    given = {"none": G.copy(), "zero": np.vstack((G, np.zeros(9))),
             "repeated": np.vstack((G, G[2]))}[extra]
    got = sdp._schur_factor(given)
    assert len(qrs) == (2 if extra == "repeated" else 1)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    rows, s, Q, T, Gs = got
    assert np.array_equal(rows, np.arange(5))
    assert np.shares_memory(Gs, given) == (extra == "none")
    assert np.allclose(Gs, s[:, None] * G, rtol=0, atol=1e-15)
    assert np.allclose(Q @ T, Gs.T, rtol=0, atol=1e-14) and np.array_equal(T, np.triu(T))


def test_ten_iterations_without_progress_end_solve_as_stalled(monkeypatch):
    # With every step length zero the iterate never moves, so its merit
    # never improves after the first iteration.
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = lowered(
        [sdp.Block(size=3), sdp.Block(size=2, diag=True)],
        {0: (A + A.conj().T) / 2, 1: np.array([0.5, -1.0])},
        [({0: np.eye(3), 1: np.ones(2)}, 1.0)],
    )
    with monkeypatch.context() as m:
        m.setattr(sdp, "MAX_ITER", 1)
        first = sdp.solve(p)
    monkeypatch.setattr(sdp, "_max_step", lambda S, v: [0.0] * len(S))
    s = sdp.solve(p)
    assert (first.status, first.iterations) == ("MaxIter", 1)
    assert (s.status, s.iterations) == ("Stalled", 11)
    assert (s.pinf, s.dinf, s.rel_gap) == (first.pinf, first.dinf, first.rel_gap)
    assert all(np.array_equal(X, X1) for X, X1 in zip(s.X, first.X))
    assert np.array_equal(s.y, first.y)


def _break_nt_scaling_after(monkeypatch, n):
    """Make every _nt_scaling call after the first n raise np.linalg.LinAlgError."""
    calls = {"n": 0}
    nt_scaling = sdp._nt_scaling

    def failing(*args):
        calls["n"] += 1
        if calls["n"] > n:
            raise np.linalg.LinAlgError("forced")
        return nt_scaling(*args)

    monkeypatch.setattr(sdp, "_nt_scaling", failing)
    return calls


def test_breakdown_ends_solve_as_stalled(monkeypatch):
    # Let the NT scaling fail from the third iteration on (4 per iteration of a
    # d=2 mixing SDP: its three dense blocks and its diag block).
    calls = _break_nt_scaling_after(monkeypatch, 8)
    rng = np.random.default_rng(3)
    target = choi(haar_unitary(2, rng))
    cands = [choi(haar_unitary(2, rng)) for _ in range(3)]
    with pytest.raises(SdpFailureError, match=r"status Stalled after 3 iterations; best iterate pinf "):
        channels._mix(target, cands)
    assert calls["n"] == 9


def _infeasible_problem():
    # tr X = -1 has no psd solution; the dual ray y -> +inf makes y diverge.
    return lowered([sdp.Block(size=1)], {}, [({0: np.array([[1.0]])}, -1.0)])


def test_infeasible_returns_a_checked_iterate():
    s = sdp.solve(_infeasible_problem())
    assert s.status == "Infeasible"
    assert np.all(np.isfinite([s.pinf, s.dinf, s.rel_gap]))
    # The residuals are those of the returned X and y.
    assert s.pinf == abs(-1.0 - s.X[0][0, 0]) / 2
    assert s.dual_value == -s.y[0]
    with pytest.raises(SdpFailureError) as exc:
        sdp.check_optimal(s)
    assert "nan" not in str(exc.value)
    assert f"status Infeasible after {s.iterations} iterations; best iterate pinf {s.pinf:.2e}" \
        in str(exc.value)


def test_status_is_optimal_exactly_when_residuals_meet_tolerances(solves, monkeypatch):
    # _mix solves at the default gap_tol, 1e-8; each of its d = 2 problems is
    # solved again at both gap_tols.
    rng = np.random.default_rng(13)
    for i in range(9):
        d = 3 if i % 3 == 0 else 2
        n = 2 + i % 4
        channels._mix(choi(haar_unitary(d, rng)), [choi(haar_unitary(d, rng)) for _ in range(n)])
        if d == 2:
            problem = solves[-1].problem
            for gap_tol in (1e-8, 1e-6):
                sdp.solve(problem, gap_tol)
    sdp.solve(_infeasible_problem())
    with monkeypatch.context() as m:
        m.setattr(sdp, "MAX_ITER", 3)
        sdp.solve(_infeasible_problem(), 1e-6)
        with pytest.raises(SdpFailureError, match="status MaxIter after 3 iterations"):
            sdp.check_optimal(sdp.solve(problem))
    _break_nt_scaling_after(monkeypatch, 8)
    with pytest.raises(SdpFailureError, match="status Stalled after 3 iterations"):
        channels._mix(choi(haar_unitary(2, rng)), [choi(haar_unitary(2, rng)) for _ in range(3)])

    assert {s.sol.status for s in solves} == {"Optimal", "Stalled", "MaxIter", "Infeasible"}
    for _, gap_tol, sol in solves:
        feas_tol = min(gap_tol, sdp.FEAS_TOL)
        meets = sol.pinf <= feas_tol and sol.dinf <= feas_tol and sol.rel_gap <= gap_tol
        assert (sol.status == "Optimal") == meets, (sol.status, sol.pinf, sol.dinf, sol.rel_gap)
        assert np.all(np.isfinite([sol.pinf, sol.dinf, sol.rel_gap]))


@pytest.mark.parametrize(
    "blk, real",
    [(sdp.Block(size=5), True), (sdp.Block(size=5), False), (sdp.Block(size=7, diag=True), True)],
    ids=["real", "complex", "diag"],
)
def test_nt_scaling_makes_x_and_z_one_diagonal(blk, real):
    # "real": real symmetric X and Z on a dense block, as `real_embed` poses them,
    # held as complex arrays as the solver holds every dense iterate.
    rng = np.random.default_rng(blk.size + (not real))

    def random_pd():
        if blk.diag:
            return rng.uniform(0.01, 3.0, blk.size)
        if real:
            F = rng.standard_normal((blk.size, blk.size)).astype(complex)
        else:
            F = rng.standard_normal((2, blk.size, blk.size))
            F = F[0] + 1j * F[1]
        return F @ F.conj().T + 0.01 * np.eye(blk.size)

    X, Z = random_pd(), random_pd()
    R, lam = sdp._nt_scaling(blk, X, Z)
    if blk.diag:
        scaled_x, scaled_z, want = X / R**2, R**2 * Z, lam
    else:
        Ri = np.linalg.inv(R)
        scaled_x, scaled_z, want = Ri @ X @ Ri.conj().T, R.conj().T @ Z @ R, np.diag(lam)
    assert np.all(lam > 0)
    for S in (scaled_x, scaled_z):
        assert np.max(np.abs(S - want)) <= 1e-12 * np.max(lam)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["real", "complex", "diag"])
def test_nt_matrix_is_the_scaling_in_svec_coordinates(kind, size):
    # K maps svec(M) to svec(R^H M R) and K^T maps it to svec(R M R^H), for
    # Hermitian M, a random R and the R of an NT scaling; a diag block's K is R^2.
    # "real" draws real data for a dense block, as `real_embed` poses it, held as
    # complex arrays as the solver holds every dense iterate.
    # Size 6 is the k of a 5-candidate mix_d3 item.
    blk = sdp.Block(size, diag=kind == "diag")
    rng = np.random.default_rng([size, len(kind)])

    def random(shape):
        F = rng.standard_normal(shape)
        if kind == "real":
            return F.astype(complex)
        return F if blk.diag else F + 1j * rng.standard_normal(shape)

    def random_pd():
        if blk.diag:
            return rng.uniform(0.01, 3.0, size)
        F = random((size, size))
        return F @ F.conj().T + 0.01 * np.eye(size)

    gather = None if blk.diag else sdp._kron_gather(blk)
    if blk.diag:
        M = random((3, size))
        v, congruent, adjoint = M, lambda R: R * M * R, lambda R: R * M * R
    else:
        F = random((3, size, size))
        M = F + F.conj().swapaxes(1, 2)  # three Hermitian matrices
        v = sdp.svec(blk, M)
        congruent = lambda R: sdp.svec(blk, R.conj().T @ M @ R)  # noqa: E731
        adjoint = lambda R: sdp.svec(blk, R @ M @ R.conj().T)  # noqa: E731
    R_random = rng.uniform(0.1, 2.0, size) if blk.diag else random((size, size))
    for R in (R_random, sdp._nt_scaling(blk, random_pd(), random_pd())[0]):
        K = sdp._nt_matrix(blk, R, gather)
        k = sdp.width(blk)
        assert K.dtype == float and K.shape == ((size,) if blk.diag else (k, k))
        for got, want in ((sdp._nt_rows([K], [slice(None)], v), congruent(R)),
                          (sdp._nt_rows([K], [slice(None)], v, adjoint=True), adjoint(R))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _four_block_problem():
    """(blocks, objective, constraints) of a feasible, bounded problem, as `lowered` reads them.

    The blocks are diag(2), dense(3), dense(2) and diag(3); the 2x2 block's coefficients
    are real.
    """
    rng = np.random.default_rng(29)
    blocks = [sdp.Block(2, diag=True), sdp.Block(3), sdp.Block(2),
              sdp.Block(3, diag=True)]

    def coeffs():
        c, r = rng.standard_normal((3, 3, 2)) @ [1, 1j], rng.standard_normal((2, 2))
        return [rng.standard_normal(2), c + c.conj().T, r + r.T, rng.standard_normal(3)]

    # Each block has trace 1/4, so the optimum is nonzero on every block, and
    # the other constraints hold at X0 = I / (4 s) on each block of size s.
    eye = [np.ones(2), np.eye(3, dtype=complex), np.eye(2), np.ones(3)]
    constraints = [({k: I}, 0.25) for k, I in enumerate(eye)]
    for _ in range(5):
        A = coeffs()
        rhs = sum(np.real(np.sum(Ak * I)) / (4 * blk.size) for Ak, I, blk in zip(A, eye, blocks))
        constraints.append((dict(enumerate(A)), float(rhs)))
    return blocks, dict(enumerate(coeffs())), constraints


def _declared_in_order(blocks, objective, constraints, perm) -> sdp.SdpProblem:
    """The lowered problem with its block perm[j] declared as block j."""
    new = {k: j for j, k in enumerate(perm)}
    return lowered(
        [blocks[k] for k in perm], {new[k]: C for k, C in objective.items()},
        [({new[k]: A for k, A in coeffs.items()}, b) for coeffs, b in constraints],
    )


def test_solution_does_not_depend_on_block_order_or_lowering():
    # Two diag blocks, one declared first, around a 3x3 and a 2x2 dense block;
    # the permutation puts the 2x2 block before the 3x3 one, so the solver's
    # dense and diag blocks both come in a new order.
    given = _four_block_problem()
    p = lowered(*given)
    native = sdp.solve(p)
    embedded = sdp.solve(sdp.real_embed(p))
    perm = (3, 2, 0, 1)
    permuted = sdp.solve(_declared_in_order(*given, perm))
    for sol in (native, embedded, permuted):
        assert sol.status == "Optimal"
        assert sol.primal_value == pytest.approx(native.primal_value, rel=0, abs=1e-7)
        assert sol.dual_value == pytest.approx(native.dual_value, rel=0, abs=1e-7)
    assert np.allclose(permuted.y, native.y, rtol=0, atol=1e-6)
    for j, k in enumerate(perm):
        assert permuted.X[j].shape == native.X[k].shape
        assert np.allclose(permuted.X[j], native.X[k], rtol=0, atol=1e-7)


def test_schur_factor_columns_are_hermitian_coordinates(monkeypatch):
    # svec of R^H A_i R: s^2 reals for a dense s x s block, one per entry of a
    # diag block. _mix poses its S' and E' blocks on the k = min(n + 1, d^2)
    # dimensional support of n + 1 unitary channels: k^2 basis rows, d^2
    # partial-trace rows and the simplex row; k^2 columns for each of S' and
    # E', d^2 for G and n + 1 for (p, r).
    shapes = []
    schur_factor = sdp._schur_factor

    def recording(G):
        shapes.append(G.shape)
        return schur_factor(G)

    monkeypatch.setattr(sdp, "_schur_factor", recording)
    rng = np.random.default_rng(4)
    for n in (2, 4):
        shapes.clear()
        channels._mix(choi(haar_unitary(3, rng)), [choi(haar_unitary(3, rng)) for _ in range(n)])
        k = n + 1
        assert set(shapes) == {(k * k + 10, 2 * k * k + 9 + n + 1)}
        shapes.clear()
        channels._mix(choi(haar_unitary(2, rng)), [choi(haar_unitary(2, rng)) for _ in range(n)])
        k = min(n + 1, 4)
        assert set(shapes) == {(k * k + 5, 2 * k * k + 5 + n)}


@pytest.mark.parametrize(
    "extra",
    [
        ({0: np.eye(3)}, 1.0),       # duplicate
        ({0: 2 * np.eye(3)}, 2.0),   # multiple
        ({}, 0.0),                   # empty
    ],
)
def test_redundant_constraint(extra):
    p = lowered([sdp.Block(size=3)], {0: np.diag([1.0, 2.0, 0.5])}, [({0: np.eye(3)}, 1.0), extra])
    s = sdp.solve(p)
    assert s.status == "Optimal"
    assert abs(s.primal_value - 2.0) < 1e-7


def test_objective_in_the_constraint_span_starts_off_the_boundary():
    # C is the constraint's own coefficients, so the least-squares dual slack
    # z^ = sum y A - C is 0 and tr(C X) = 1 on every feasible X. Without
    # START_FLOOR both of Mehrotra's shifts of z^ are 0 and the start divides
    # x^ . z^ = 0 by tr z^ = 0.
    coeffs = {0: np.eye(2), 1: np.ones(2)}
    p = lowered([sdp.Block(size=2), sdp.Block(size=2, diag=True)], coeffs, [(coeffs, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        s = sdp.solve(p)
    assert s.status == "Optimal"
    assert abs(s.primal_value - 1.0) < 1e-7 and abs(s.dual_value - 1.0) < 1e-7


def test_trace_has_one_entry_per_iteration(solves):
    # The last problem offers one candidate twice.
    rng = np.random.default_rng(8)
    for d in (2, 3):
        channels._mix(choi(haar_unitary(d, rng)), [choi(haar_unitary(d, rng)) for _ in range(3)])
    target, twice = (choi(haar_unitary(2, rng)) for _ in range(2))
    channels._mix(target, [twice, twice])
    assert len(solves) == 3
    for _, _, sol in solves:
        assert sol.status == "Optimal" and len(sol.trace) == sol.iterations
        *steps, last = sol.trace
        assert (last["pinf"], last["dinf"], last["gap"]) == (sol.pinf, sol.dinf, sol.rel_gap)
        assert (last["sigma"], last["ap"], last["ad"]) == (None, None, None)
        for step in steps:
            assert 0 < step["ap"] <= 1 and 0 < step["ad"] <= 1 and 0 < step["sigma"] <= 1
            assert step["mu"] > 0
