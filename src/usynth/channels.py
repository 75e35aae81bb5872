"""Channel-level constructions.

Choi operators, the half-diamond distance between channels (computed by
SDP), the optimal-mixing SDP that finds the best convex combination of
candidate channels approximating a target, the closed-form half-diamond
distance between unitary channels, and state fidelity / trace distance.

Conventions: the Choi operator of a channel Xi acting on a d1-dimensional
input is J(Xi) = sum_ij |i><j| (x) Xi(|i><j|), an operator on H1 (x) H2
with the input factor first. The error measure used throughout is the
half-diamond distance (1/2)||A - B||_diamond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .linalg import (
    TOL_HERM,
    check_finite,
    check_hermitian,
    check_unitary,
    partial_trace,
    trace_norm,
)


class NotDensityError(ValueError):
    pass


class SdpFailureError(RuntimeError):
    pass


class EmptyCandidatesError(ValueError):
    pass


@dataclass(frozen=True)
class ChoiOperator:
    """Choi operator J on H1 (x) H2 with dims = (d1, d2)."""

    J: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self):
        J = check_hermitian(self.J)
        d1, d2 = self.dims
        if J.shape != (d1 * d2, d1 * d2):
            raise ValueError("Choi matrix shape does not match dims")
        object.__setattr__(self, "J", J)


def choi(U: np.ndarray) -> ChoiOperator:
    """Choi operator of conjugation by a unitary: rank one, trace d."""
    U = check_unitary(U)
    d = U.shape[0]
    # sum_i |i> (x) U|i>  has components v[(i,k)] = U[k,i]
    v = U.T.reshape(-1)
    return ChoiOperator(J=np.outer(v, v.conj()), dims=(d, d))


def choi_mixture(candidates: list[ChoiOperator], weights: np.ndarray) -> ChoiOperator:
    """Convex combination sum_x p(x) J_x."""
    if not candidates:
        raise EmptyCandidatesError("empty candidate list")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(candidates),):
        raise ValueError("weights length does not match candidates")
    dims = candidates[0].dims
    J = np.zeros_like(candidates[0].J)
    for p, c in zip(w, candidates):
        if c.dims != dims:
            raise ValueError("mixed Choi dimensions")
        J = J + p * c.J
    return ChoiOperator(J=J, dims=dims)


def _circle_hull_distance(eigs: np.ndarray) -> float:
    """Distance from the origin to conv{eigs} for unit-modulus eigs.

    The hull contains the origin iff every cyclic gap between sorted
    eigenphases is <= pi; otherwise the closest boundary point lies on the
    chord closing the largest gap, at distance |cos(gap/2)|.
    """
    ang = np.sort(np.angle(eigs))
    gaps = np.diff(ang, append=ang[0] + 2 * np.pi)
    gmax = float(np.max(gaps))
    if gmax <= np.pi:
        return 0.0
    return abs(np.cos(gmax / 2))


def unitary_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Half-diamond distance between the channels of two unitaries.

    Closed form: sqrt(1 - m^2) with m the distance from the origin to the
    convex hull of the eigenvalues of U^dag V.
    """
    U = check_unitary(U)
    V = check_unitary(V)
    if U.shape != V.shape:
        raise ValueError("dimension mismatch")
    eigs = np.linalg.eigvals(U.conj().T @ V)
    m = _circle_hull_distance(eigs)
    return float(np.sqrt(max(0.0, 1.0 - m * m)))


def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (trace inner product) basis of d x d Hermitian matrices."""
    out = np.zeros((d * d, d, d), dtype=complex)
    n = 0
    for k in range(d):
        out[n, k, k] = 1.0
        n += 1
    s = 1 / np.sqrt(2)
    for k in range(d):
        for l in range(k + 1, d):
            out[n, k, l] = s
            out[n, l, k] = s
            n += 1
            out[n, k, l] = 1j * s
            out[n, l, k] = -1j * s
            n += 1
    return out


def _check_solution(sol: sdp.SdpSolution) -> sdp.SdpSolution:
    if sol.status != "Optimal":
        raise SdpFailureError(
            f"SDP did not converge: status {sol.status} after {sol.iterations} "
            f"iterations; best iterate pinf {sol.pinf:.2e}, dinf {sol.dinf:.2e}, "
            f"relative gap {sol.rel_gap:.2e}"
        )
    return sol


def _tester(d1: int, d2: int) -> tuple[list[sdp.Block], list[sdp.Constraint]]:
    """Blocks T, T2 = rho (x) I - T and rho of a tester 0 <= T <= rho (x) I.

    Returns the three complex blocks and the constraints that tie them: T +
    T2 - rho (x) I = 0, taken against each basis matrix E (tr(E (rho (x) I))
    = tr(ptr2(E) rho)), and tr(rho) = 1.
    """
    D = d1 * d2
    blocks = [
        sdp.Block(size=D, complex=True),
        sdp.Block(size=D, complex=True),
        sdp.Block(size=d1, complex=True),
    ]
    constraints = [
        sdp.Constraint(coeffs={0: E, 1: E, 2: -partial_trace(E, (d1, d2), 2)}, rhs=0.0)
        for E in _hermitian_basis(D)
    ]
    constraints.append(sdp.Constraint(coeffs={2: np.eye(d1)}, rhs=1.0))
    return blocks, constraints


def diamond_distance(
    A: ChoiOperator,
    B: ChoiOperator,
    gap_tol: float = sdp.DEFAULT_GAP_TOL,
    feas_tol: float = sdp.DEFAULT_FEAS_TOL,
    full_output: bool = False,
):
    """Half-diamond distance (1/2)||A - B||_diamond via SDP.

    Primal: maximize tr(dJ T) over testers 0 <= T <= rho (x) I with rho a
    density operator on the input factor. Lowered with a slack block
    T2 = rho (x) I - T.
    """
    if A.dims != B.dims:
        raise ValueError("dimension mismatch")
    d1, d2 = A.dims
    dJ = A.J - B.J
    if trace_norm(dJ) <= 1e-12:
        return (0.0, 0.0) if full_output else 0.0

    blocks, constraints = _tester(d1, d2)
    problem = sdp.SdpProblem(blocks=blocks, objective=[dJ, None, None], constraints=constraints)
    sol = _check_solution(sdp.solve(problem, gap_tol=gap_tol, feas_tol=feas_tol))
    value = float(min(1.0, max(0.0, sol.primal_value)))
    if full_output:
        return value, float(sol.gap)
    return value


def optimal_mix(
    target: ChoiOperator,
    candidates: list[ChoiOperator],
    gap_tol: float = sdp.DEFAULT_GAP_TOL,
    feas_tol: float = sdp.DEFAULT_FEAS_TOL,
    mode: str = "dual",
) -> tuple[np.ndarray, float]:
    """Best convex mixture of candidates approximating the target channel.

    Returns (p, value) with value = min_p (1/2)||target - sum p_x cand_x||
    in half-diamond distance, to the solver's tolerances (value is the
    solver's objective, not the exact error of the returned p). The default
    "dual" lowering (Watrous's SDP for the diamond norm) exposes p directly
    and its constraint count is independent of the number of candidates.
    "primal" maximizes over the testers of `diamond_distance`, with one
    constraint per candidate whose multiplier is p_x; it is kept for
    cross-checking strong duality. Both solve complex Hermitian blocks.
    """
    if not candidates:
        raise EmptyCandidatesError("empty candidate list")
    d1, d2 = target.dims
    for c in candidates:
        if c.dims != target.dims:
            raise ValueError("dimension mismatch")
    D = d1 * d2
    n = len(candidates)
    JA = target.J
    JB = np.stack([c.J for c in candidates])

    if mode == "dual":
        # Variables: S >= 0, E = S - J(A) + sum p J(B_x) >= 0,
        #            G = r I - ptr2(S) >= 0, p >= 0, s = 1 - sum p >= 0, r >= 0.
        # minimize r  ==  maximize -r.
        blocks = [
            sdp.Block(size=D, complex=True),   # S
            sdp.Block(size=D, complex=True),   # E
            sdp.Block(size=d1, complex=True),  # G
            sdp.Block(size=n, diag=True),      # p
            sdp.Block(size=1, diag=True),      # slack of sum p <= 1
            sdp.Block(size=1, diag=True),      # r
        ]
        objective = [None, None, None, None, None, np.array([-1.0])]
        constraints = []
        for E in _hermitian_basis(D):
            pc = np.real(np.einsum("ab,xba->x", E, JB))
            constraints.append(
                sdp.Constraint(
                    coeffs={0: -E, 1: E, 3: -pc},
                    rhs=-float(np.real(np.trace(E @ JA))),
                )
            )
        for F in _hermitian_basis(d1):
            constraints.append(
                sdp.Constraint(
                    coeffs={
                        0: np.kron(F, np.eye(d2)),
                        2: F,
                        5: np.array([-float(np.real(np.trace(F)))]),
                    },
                    rhs=0.0,
                )
            )
        constraints.append(
            sdp.Constraint(coeffs={3: np.ones(n), 4: np.array([1.0])}, rhs=1.0)
        )
        problem = sdp.SdpProblem(blocks=blocks, objective=objective, constraints=constraints)
        sol = _check_solution(sdp.solve(problem, gap_tol=gap_tol, feas_tol=feas_tol))
        p = np.maximum(sol.X[3], 0.0)
        value = float(max(0.0, -sol.primal_value))
    elif mode == "primal":
        # maximize tr(J(A) T) - t over testers T with tr(J(B_x) T) <= t.
        blocks, constraints = _tester(d1, d2)
        blocks += [
            sdp.Block(size=n, diag=True),      # q_x = t - tr(J(B_x) T)
            sdp.Block(size=1, diag=True),      # t
        ]
        objective = [JA, None, None, None, np.array([-1.0])]
        for x in range(n):
            ek = np.zeros(n)
            ek[x] = 1.0
            constraints.append(
                sdp.Constraint(
                    coeffs={0: JB[x], 3: ek, 4: np.array([-1.0])}, rhs=0.0
                )
            )
        problem = sdp.SdpProblem(blocks=blocks, objective=objective, constraints=constraints)
        sol = _check_solution(sdp.solve(problem, gap_tol=gap_tol, feas_tol=feas_tol))
        value = float(max(0.0, sol.primal_value))
        # Recover p from the dual multipliers of the tr(J(B_x) T) <= t rows.
        p = np.maximum(sol.y[-n:], 0.0)
    else:
        raise ValueError("mode must be 'dual' or 'primal'")

    total = float(np.sum(p))
    if total > 0:
        p = p / total
    else:
        p = np.full(n, 1.0 / n)
    return p, value


def _check_density(rho: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    rho = check_finite(rho)
    try:
        rho = check_hermitian(rho, tol)
    except ValueError as exc:
        raise NotDensityError(str(exc)) from exc
    w = np.linalg.eigvalsh(rho)
    if w[0] < -tol or abs(np.sum(w) - 1.0) > tol:
        raise NotDensityError("matrix is not a density operator within tolerance")
    return rho


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    rho = _check_density(rho)
    sigma = _check_density(sigma)
    if rho.shape[0] == 2:
        # Closed form for qubits; avoids the precision loss of the matrix
        # square root when a state is (nearly) pure.
        cross = 2.0 * np.sqrt(
            max(0.0, np.linalg.det(rho).real) * max(0.0, np.linalg.det(sigma).real)
        )
        return min(1.0, float(np.trace(rho @ sigma).real + cross))
    w, V = np.linalg.eigh(rho)
    sq = (V * np.sqrt(np.maximum(w, 0.0))) @ V.conj().T
    inner = sq @ sigma @ sq
    lam = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    root = float(np.sum(np.sqrt(np.maximum(lam, 0.0))))
    return min(1.0, root * root)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance (1/2)||rho - sigma||_1."""
    rho = _check_density(rho)
    sigma = _check_density(sigma)
    return min(1.0, trace_norm(rho - sigma) / 2)
