from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from usynth import channels, sdp
from usynth.channels import (
    ChoiOperator,
    EmptyCandidatesError,
    NotDensityError,
    choi,
    choi_mixture,
    diamond_distance,
    fidelity,
    optimal_mix,
    trace_distance,
    unitary_distance,
)
from usynth.linalg import haar_unitary


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


def test_diamond_distance_metric_properties():
    rng = np.random.default_rng(4)
    Us = [haar_unitary(2, rng) for _ in range(3)]
    Js = [choi(U) for U in Us]
    d01 = diamond_distance(Js[0], Js[1])
    d10 = diamond_distance(Js[1], Js[0])
    d02 = diamond_distance(Js[0], Js[2])
    d12 = diamond_distance(Js[1], Js[2])
    assert abs(d01 - d10) < 1e-8
    assert d02 <= d01 + d12 + 1e-7


def test_optimal_mix_target_in_candidates():
    rng = np.random.default_rng(5)
    U = haar_unitary(2, rng)
    cands = [choi(haar_unitary(2, rng)) for _ in range(3)] + [choi(U)]
    p, v = optimal_mix(choi(U), cands)
    assert v < 1e-7
    assert p[-1] > 0.99


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
    with pytest.raises(EmptyCandidatesError):
        optimal_mix(choi(np.eye(2)), [])


def test_optimal_mix_weights_normalized():
    rng = np.random.default_rng(7)
    p, v = optimal_mix(
        choi(haar_unitary(2, rng)), [choi(haar_unitary(2, rng)) for _ in range(4)]
    )
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p >= 0)


def test_fidelity_and_trace_distance_basics():
    rho = np.diag([0.5, 0.5]).astype(complex)
    assert abs(fidelity(rho, rho) - 1) < 1e-12
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert fidelity(a, b) < 1e-12
    assert abs(trace_distance(a, b) - 1) < 1e-12


def test_fidelity_rejects_non_density():
    with pytest.raises(NotDensityError):
        fidelity(np.diag([2.0, 0.0]).astype(complex), np.eye(2) / 2)
    with pytest.raises(NotDensityError):
        trace_distance(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2) / 2)


def test_fuchs_van_de_graaf_sample():
    rng = np.random.default_rng(8)
    for _ in range(100):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = A @ A.conj().T
        rho /= np.trace(rho).real
        sig = B @ B.conj().T
        sig /= np.trace(sig).real
        F = fidelity(rho, sig)
        D = trace_distance(rho, sig)
        assert 1 - np.sqrt(F) <= D + 1e-9
        assert D <= np.sqrt(1 - F) + 1e-9


def test_choi_mixture_dims_and_weights():
    with pytest.raises(ValueError):
        choi_mixture([choi(np.eye(2))], np.array([0.5, 0.5]))
    J = choi_mixture([choi(np.eye(2)), choi(np.eye(2))], np.array([0.3, 0.7]))
    assert np.allclose(J.J, choi(np.eye(2)).J)


# Property tests of the generic path at d=2: a seed draws a Haar target and
# 1-4 Haar candidates.
_seeds = st.integers(0, 2**32 - 1)
_counts = st.integers(1, 4)


def _haar_qubits(seed: int, n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [haar_unitary(2, rng) for _ in range(n)]


def _lowered(fn, *args, **kwargs) -> sdp.SdpProblem:
    """The problem that fn hands to sdp.solve."""
    with mock.patch.object(sdp, "solve", wraps=sdp.solve) as spy:
        fn(*args, **kwargs)
    return spy.call_args.args[0]


@pytest.mark.parametrize("lowering", ["diamond", "dual", "primal"])
@settings(max_examples=5)
@given(seed=_seeds, n=_counts)
def test_native_complex_blocks_match_real_embedding(lowering, seed, n):
    target, *cands = [choi(U) for U in _haar_qubits(seed, n + 1)]
    if lowering == "diamond":
        problem = _lowered(diamond_distance, target, cands[0])
    else:
        problem = _lowered(optimal_mix, target, cands, mode=lowering)
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


@settings(max_examples=10)
@given(seed=_seeds, n=_counts)
def test_optimal_mix_dual_equals_primal(seed, n):
    target, *cands = [choi(U) for U in _haar_qubits(seed, n + 1)]
    _, dual = optimal_mix(target, cands, mode="dual")
    _, primal = optimal_mix(target, cands, mode="primal")
    assert abs(dual - primal) <= 1e-7
