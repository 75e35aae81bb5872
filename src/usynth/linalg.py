"""Dense complex linear algebra at small fixed dimensions.

Everything here operates on plain numpy arrays (complex128). Matrices are
small (operators on spaces of dimension <= ~64 after tensoring), so we use
dense eigendecompositions throughout.
"""

from __future__ import annotations

import json

import numpy as np

TOL_HERM = 1e-8
TOL_UNITARY = 1e-8
TOL_EIG = 1e-10


class NotHermitianError(ValueError):
    pass


class NotUnitaryError(ValueError):
    pass


def check_finite(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise ValueError("matrix contains non-finite entries")
    return M


def check_hermitian(M: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    M = check_finite(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if np.max(np.abs(M - M.conj().T)) > tol:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    return (M + M.conj().T) / 2


def check_unitary(U: np.ndarray, tol: float = TOL_UNITARY) -> np.ndarray:
    U = check_finite(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {U.shape}")
    d = U.shape[0]
    if np.max(np.abs(U.conj().T @ U - np.eye(d))) > tol:
        raise NotUnitaryError("matrix is not unitary within tolerance")
    return U


def trace_norm(M: np.ndarray) -> float:
    """Schatten 1-norm (sum of singular values)."""
    M = check_finite(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return float(np.sum(np.linalg.svd(M, compute_uv=False)))


def _split_dims(M: np.ndarray, dims: tuple[int, int]) -> tuple[int, int]:
    d1, d2 = dims
    if M.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix of shape {M.shape} does not factor as {d1}x{d2}")
    return d1, d2


def partial_trace(M: np.ndarray, dims: tuple[int, int], which: int) -> np.ndarray:
    """Partial trace over subsystem `which` (1 or 2) of H1 (x) H2."""
    M = check_finite(M)
    d1, d2 = _split_dims(M, dims)
    T = M.reshape(d1, d2, d1, d2)
    if which == 1:
        return np.trace(T, axis1=0, axis2=2)
    if which == 2:
        return np.trace(T, axis1=1, axis2=3)
    raise ValueError("which must be 1 or 2")


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fix."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    phases = np.diagonal(R) / np.abs(np.diagonal(R))
    return Q * phases


def matrix_to_json(M: np.ndarray) -> dict:
    """Repo-wide JSON matrix format: row-major [re, im] pairs."""
    M = check_finite(M)
    rows, cols = M.shape
    data = [[float(x.real), float(x.imag)] for x in M.reshape(-1)]
    return {"rows": rows, "cols": cols, "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError("rows*cols does not match the number of entries")
    flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    if not np.all(np.isfinite(flat.real)) or not np.all(np.isfinite(flat.imag)):
        raise ValueError("matrix contains non-finite entries")
    return flat.reshape(rows, cols)


def load_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as f:
        return matrix_from_json(json.load(f))
