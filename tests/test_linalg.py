import json

import numpy as np
import pytest

from usynth import linalg


X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_trace_norm_examples():
    assert linalg.trace_norm(np.zeros((2, 2))) == 0
    assert abs(linalg.trace_norm(X) - 2) < 1e-12


def test_trace_norm_rank2_projector_difference():
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        w = rng.standard_normal(4)
        w /= np.linalg.norm(w)
        alpha = np.arccos(np.clip(abs(u @ w), 0, 1))
        tn = linalg.trace_norm(np.outer(u, u) - np.outer(w, w))
        # sign of the inner product is irrelevant for the projectors
        assert abs(tn - 2 * np.sin(alpha)) < 1e-10


def test_trace_norm_equals_abs_eig_sum_hermitian():
    rng = np.random.default_rng(2)
    for _ in range(100):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        M = A + A.conj().T
        assert abs(linalg.trace_norm(M) - np.sum(np.abs(np.linalg.eigvalsh(M)))) < 1e-9


def test_partial_trace_and_kron():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    M = np.kron(A, B)
    assert np.allclose(linalg.partial_trace(M, (2, 3), 2), A * np.trace(B))
    assert np.allclose(linalg.partial_trace(M, (2, 3), 1), B * np.trace(A))
    # trace preservation
    assert abs(np.trace(linalg.partial_trace(M, (2, 3), 1)) - np.trace(M)) < 1e-10


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        U = linalg.haar_unitary(d, rng)
        assert np.linalg.norm(U.conj().T @ U - np.eye(d)) < 1e-12


def test_json_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    M = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    path = str(tmp_path / "m.json")
    with open(path, "w") as f:
        json.dump(linalg.matrix_to_json(M), f)
    assert np.allclose(linalg.load_matrix(path), M)


def test_json_rejects_nonfinite(tmp_path):
    obj = {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]}
    with pytest.raises(ValueError):
        linalg.matrix_from_json(obj)
    with pytest.raises(ValueError):
        linalg.matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
