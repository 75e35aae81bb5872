import numpy as np
import pytest

from usynth import sdp
from usynth.channels import (
    SdpFailureError,
    choi,
    diamond_distance,
    optimal_mix,
    unitary_distance,
)
from usynth.linalg import haar_unitary


def test_trivial_scalar():
    p = sdp.SdpProblem(
        blocks=[sdp.Block(size=1)],
        objective=[np.array([[1.0]])],
        constraints=[sdp.Constraint(coeffs={0: np.array([[1.0]])}, rhs=1.0)],
    )
    s = sdp.solve(p)
    assert s.status == "Optimal"
    assert abs(s.primal_value - 1.0) < 1e-7


def test_real_embed_scalar_identity():
    p = sdp.SdpProblem(
        blocks=[sdp.Block(size=1)],
        objective=[np.array([[2.0]])],
        constraints=[sdp.Constraint(coeffs={0: np.array([[1.0]])}, rhs=3.0)],
    )
    q = sdp.real_embed(p)
    assert q.blocks[0].size == 1
    assert np.allclose(q.objective[0], [[2.0]])
    assert q.constraints[0].rhs == 3.0


def test_real_embed_pauli_y_eigenvalues():
    Y = np.array([[0, -1j], [1j, 0]])
    E = sdp._embed_herm(Y)
    assert np.allclose(E, E.T)
    assert np.allclose(np.sort(np.linalg.eigvalsh(E)), [-1, -1, 1, 1])


def test_real_embed_preserves_psd():
    rng = np.random.default_rng(0)
    for _ in range(500):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        M = A @ A.conj().T
        E = sdp._embed_herm(M)
        assert np.min(np.linalg.eigvalsh(E)) > -1e-9


def test_max_eigenvalue_complex_block():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    C = (A + A.conj().T) / 2
    p = sdp.SdpProblem(
        blocks=[sdp.Block(size=3, complex=True)],
        objective=[C],
        constraints=[sdp.Constraint(coeffs={0: np.eye(3, dtype=complex)}, rhs=1.0)],
    )
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
    p = sdp.SdpProblem(
        blocks=[sdp.Block(size=3, diag=True)],
        objective=[c],
        constraints=[sdp.Constraint(coeffs={0: np.ones(3)}, rhs=1.0)],
    )
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


def test_constraint_permutation_invariance():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    C = (A + A.conj().T) / 2
    cons = [
        sdp.Constraint(coeffs={0: np.eye(3, dtype=complex)}, rhs=1.0),
        sdp.Constraint(coeffs={0: np.diag([1.0, -1.0, 0.0]).astype(complex)}, rhs=0.2),
    ]
    vals = []
    for order in ([0, 1], [1, 0]):
        p = sdp.SdpProblem(
            blocks=[sdp.Block(size=3, complex=True)],
            objective=[C],
            constraints=[cons[i] for i in order],
        )
        vals.append(sdp.solve(p).primal_value)
    assert abs(vals[0] - vals[1]) < 1e-8


def test_validate_rejects_bad_shapes():
    with pytest.raises(ValueError):
        sdp.SdpProblem(
            blocks=[sdp.Block(size=2)],
            objective=[np.eye(3)],
            constraints=[],
        ).validate()


@pytest.mark.parametrize(
    "blk, coeff, message",
    [
        (sdp.Block(size=3), np.eye(2), "has shape"),
        (sdp.Block(size=3, diag=True), np.eye(3), "has shape"),
        (sdp.Block(size=3), np.diag([1.0, np.nan, 0.0]), "non-finite"),
        (sdp.Block(size=3, complex=True), np.diag([1.0, np.inf, 0.0]), "non-finite"),
        (sdp.Block(size=2), np.array([[1.0, 1j], [-1j, 1.0]]), "imaginary part"),
        (sdp.Block(size=2, diag=True), np.array([1.0, 1j]), "imaginary part"),
        (sdp.Block(size=2, complex=True, diag=True), np.ones(2), "cannot be complex"),
    ],
    ids=["shape", "shape-diag", "nan", "inf-complex", "imag-real", "imag-diag", "complex-diag"],
)
def test_validate_rejects_bad_coefficients(blk, coeff, message):
    p = sdp.SdpProblem(
        blocks=[blk],
        objective=[None],
        constraints=[sdp.Constraint(coeffs={0: coeff}, rhs=1.0)],
    )
    with pytest.raises(ValueError, match=message):
        sdp.solve(p)


def test_chol_signals_breakdown_on_tiny_negative_eigenvalue():
    # Exactly representable, so every BLAS sees the same matrix: the second
    # Cholesky pivot is -2**-52 and the smallest eigenvalue about -1.1e-16.
    S = np.array([[1.0, 1.0], [1.0, 1.0 - 2.0**-52]])
    assert -2e-16 < np.linalg.eigvalsh(S)[0] < -5e-17
    with pytest.raises(sdp.NumericalBreakdown):
        sdp._chol(S)
    _, Li = sdp._chol(np.diag([4.0, 1.0]))
    assert sdp._max_step(Li, -np.eye(2)) == pytest.approx(1.0)


def test_breakdown_ends_solve_as_stalled(monkeypatch):
    # Let the positive-definiteness checks fail from the third iteration on
    # (6 factorizations per iteration of a d=2 dual mixing SDP).
    calls = {"n": 0}
    chol = sdp._chol

    def failing(S):
        calls["n"] += 1
        if calls["n"] > 12:
            raise sdp.NumericalBreakdown("forced")
        return chol(S)

    monkeypatch.setattr(sdp, "_chol", failing)
    rng = np.random.default_rng(3)
    target = choi(haar_unitary(2, rng))
    cands = [choi(haar_unitary(2, rng)) for _ in range(3)]
    with pytest.raises(SdpFailureError, match=r"status Stalled after \d+ iterations; best iterate pinf "):
        optimal_mix(target, cands)


@pytest.mark.parametrize(
    "extra",
    [
        sdp.Constraint(coeffs={0: np.eye(3)}, rhs=1.0),       # duplicate
        sdp.Constraint(coeffs={0: 2 * np.eye(3)}, rhs=2.0),   # multiple
        sdp.Constraint(coeffs={}, rhs=0.0),                   # empty
    ],
)
def test_redundant_constraint(extra):
    p = sdp.SdpProblem(
        blocks=[sdp.Block(size=3)],
        objective=[np.diag([1.0, 2.0, 0.5])],
        constraints=[sdp.Constraint(coeffs={0: np.eye(3)}, rhs=1.0), extra],
    )
    s = sdp.solve(p)
    assert s.status == "Optimal"
    assert abs(s.primal_value - 2.0) < 1e-7


def test_solve_rejects_nonpositive_max_iter():
    p = sdp.SdpProblem(
        blocks=[sdp.Block(size=1)],
        objective=[np.array([[1.0]])],
        constraints=[sdp.Constraint(coeffs={0: np.array([[1.0]])}, rhs=1.0)],
    )
    with pytest.raises(ValueError):
        sdp.solve(p, max_iter=0)
