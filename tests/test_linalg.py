import json
import warnings

import numpy as np
import pytest

from usynth import channels, linalg, qubit1


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


@pytest.mark.parametrize("rows, cols", [(1.9, "1"), (True, True), (-1, -1), (0, 0), (1.0, 1)])
def test_json_requires_positive_integer_dims(rows, cols):
    obj = {"rows": rows, "cols": cols, "data": [[1.0, 0.0]] if rows != 0 else []}
    with pytest.raises(ValueError, match='expected {"rows"'):
        linalg.matrix_from_json(obj)


# The public entry points that check a matrix; ChoiOperator takes it as J with dims (1, n).
_CHECKS = {
    "check_unitary": linalg.check_unitary,
    "check_hermitian": linalg.check_hermitian,
    "choi": channels.choi,
    "ChoiOperator": lambda M: channels.ChoiOperator(J=M, dims=(1, len(M))),
    "magic_embed": qubit1.magic_embed,
}


@pytest.mark.parametrize("check", _CHECKS.values(), ids=_CHECKS.keys())
def test_an_empty_matrix_fails_the_shape_test(check):
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(0, 0\)$"):
        check(np.zeros((0, 0)))


@pytest.mark.parametrize("check", _CHECKS.values(), ids=_CHECKS.keys())
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("at", [(1, 1), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_a_non_finite_entry_fails_the_finiteness_test_without_a_warning(check, value, part, at):
    M = np.eye(2, dtype=complex)
    M[at] = complex(value, M[at].imag) if part == "real" else complex(M[at].real, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            check(M)
    assert type(info.value) is ValueError
    assert str(info.value) == "matrix contains non-finite entries"


def test_a_huge_finite_matrix_is_finite():
    # Re vdot(M, M) overflows to inf here; the entries themselves are finite.
    M = np.array([[1e200, 0.0], [0.0, 1e200]])
    assert linalg.check_finite(M).tobytes() == M.astype(complex).tobytes()
    M[0, 1] = 1.0
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        linalg.check_hermitian(M)
    # M - M^dag is taken in halves against half the tolerance, which cannot
    # overflow: an entry 0.8e-8 off passes, one 1.2e-8 off fails.
    M = np.array([[1e300, 1e300], [1e300, 0.4e-8j]])
    assert linalg.check_hermitian(M).tobytes() == M.real.astype(complex).tobytes()
    M[1, 1] = 0.6e-8j
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        linalg.check_hermitian(M)


def test_a_huge_finite_input_fails_its_check_without_a_warning():
    # U^dag U, M - M^dag and u.u would overflow here; each entry point raises
    # its documented error first, and warns of nothing.
    huge = np.array([[1e200, 0.0], [0.0, 1.0]])
    cases = [
        (linalg.check_unitary, huge, "matrix is not unitary within tolerance"),
        (channels.choi, huge, "matrix is not unitary within tolerance"),
        (qubit1.magic_embed, huge, "matrix is not unitary within tolerance"),
        (linalg.check_hermitian, np.array([[1e308, 1e308], [-1e308, 0.0]]),
         "matrix is not Hermitian within tolerance"),
        (qubit1.magic_unembed, np.array([1e200, 0.0, 0.0, 0.0]), "expected a unit 4-vector"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check, M, message in cases:
            with pytest.raises(ValueError) as info:
                check(M)
            assert type(info.value) is ValueError
            assert str(info.value) == message


def test_a_huge_finite_hermitian_matrix_passes_its_check_without_a_warning():
    # (M + M^dag) / 2 would overflow to inf at 1e308 + 1e308; it is halved first.
    M = np.array([[1e308, 0.0], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for J in (linalg.check_hermitian(M), channels.ChoiOperator(J=M, dims=(1, 2)).J):
            assert J.tobytes() == M.astype(complex).tobytes()
