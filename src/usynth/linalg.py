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


def check_finite(M: np.ndarray) -> np.ndarray:
    """M as complex; ValueError if any entry has a non-finite real or imaginary part."""
    return _finite(M)[0]


def _finite(M: np.ndarray) -> tuple[np.ndarray, np.float64]:
    """check_finite(M) and sum |M_ij|^2 = Re vdot(M, M), a BLAS sum that overflows unwarned."""
    M = np.asarray(M, dtype=complex)
    norm2 = np.vdot(M, M).real
    if not norm2 < np.inf and not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    return M, norm2


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M^dag) / 2, halved first: the same bits outside subnormals, and no overflow."""
    H = M / 2
    return H + H.conj().T


def check_hermitian(M: np.ndarray) -> np.ndarray:
    """_hermitian_part(M). ValueError, in this order: "matrix contains non-finite entries",
    "expected a square matrix, got shape (r, c)" (0 x 0 too) and "matrix is not
    Hermitian within tolerance" (an entry of M - M^dag above TOL_HERM in modulus)."""
    M = check_finite(M)
    if M.ndim != 2 or not 0 < M.shape[0] == M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    H = M / 2
    if np.abs(H - H.conj().T).max() > TOL_HERM / 2:  # in halves, as M - M^dag could overflow
        raise ValueError("matrix is not Hermitian within tolerance")
    return _hermitian_part(M)


def check_unitary(U: np.ndarray) -> np.ndarray:
    """U as complex. ValueError, in this order: "matrix contains non-finite entries",
    "expected a square matrix, got shape (r, c)" (0 x 0 too) and "matrix is not
    unitary within tolerance" (an entry of U^dag U - I above TOL_UNITARY in modulus)."""
    U, norm2 = _finite(U)
    if U.ndim != 2 or not 0 < U.shape[0] == U.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {U.shape}")
    if not abs(norm2 - len(U)) <= len(U) * TOL_UNITARY:  # norm2 = tr U^dag U; then U^dag U fits
        raise ValueError("matrix is not unitary within tolerance")
    G = U.conj().T @ U
    G.ravel()[:: len(G) + 1] -= 1  # U^dag U - I in place, with no identity temporary
    if np.abs(G).max() > TOL_UNITARY:
        raise ValueError("matrix is not unitary within tolerance")
    return U


def check_probabilities(p) -> np.ndarray:
    """p as floats; ValueError unless 1-D, all >= -1e-8 and summing to 1 +- 1e-6.

    NaN fails both comparisons."""
    p = np.asarray(p, dtype=float)
    if not (p.ndim == 1 and np.all(p >= -1e-8) and abs(p.sum() - 1.0) <= 1e-6):
        raise ValueError("invalid probability distribution")
    return p


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
    """Inverse of matrix_to_json; ValueError naming the format on other input.

    rows and cols must be positive JSON integers (not booleans).
    """
    fmt = 'expected {"rows": r, "cols": c, "data": [[re, im], ...]}'
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (TypeError, ValueError, KeyError):
        raise ValueError(fmt) from None
    if not all(type(n) is int and n > 0 for n in (rows, cols)):
        raise ValueError(fmt)
    if len(data) != rows * cols:
        raise ValueError("rows*cols does not match the number of entries")
    return check_finite(flat).reshape(rows, cols)


def load_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as f:
        return matrix_from_json(json.load(f))
