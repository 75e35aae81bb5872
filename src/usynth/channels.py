"""Channel-level constructions.

Choi operators, optimal mixing (the best convex combination of candidate
channels approximating a target; the half-diamond distance between two
channels is its one-candidate case), and the closed-form half-diamond
distance between unitary channels. `_optimal_mix` sends every mixing query,
distances too, to Watrous's SDP, except when the target and every candidate
are d = 2 unitary channels (`_qubit_unitaries`): those take the tie-set
pivots of qubit1.optimal_mix_1q, with no SDP. Both read each Choi operator
through its factors, made once with it (`ChoiOperator`), and Watrous's SDP is posed
exactly on the span of the factors (`_mix`): n + 1 dimensions for n unitary
candidates of a unitary target, not d^2.
Every returned distance or mixing value is a certified upper bound on the
error, evaluated on the full space, never the solver's objective: one checker
per lowering (`_check`, `qubit1._check_1q`) forms it from the lowering's certificate.

Conventions: the Choi operator of a channel Xi acting on a d1-dimensional
input is J(Xi) = sum_ij |i><j| (x) Xi(|i><j|), an operator on H1 (x) H2
with the input factor first. The error measure used throughout is the
half-diamond distance (1/2)||A - B||_diamond.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import qubit1, sdp
from .linalg import (
    TOL_UNITARY,
    _hermitian_part,
    check_hermitian,
    check_probabilities,
    check_unitary,
)
from .sdp import SdpFailureError  # noqa: F401  (callers catch channels.SdpFailureError)

# An eigenvalue of a Choi operator below this fraction of its largest leaves
# the mixing SDP's support; `_mix`'s lower bound pays for what it drops.
SUPPORT_CUT = 1e-10


@dataclass(frozen=True, eq=False)
class ChoiOperator:
    """Choi operator J on H1 (x) H2 with dims = (d1, d2), each a positive integer.

    factors = (F, w, rest), made here by one eigh (choi gives its own): J = F diag(w) F^dag + R
    with rest = ||R||_1, F the eigenvectors whose |eigenvalue| w is >= SUPPORT_CUT times the
    largest (all of them if J = 0). A `choi` operator forms J on its first read. Two
    operators are equal only if they are the same object, and hash by identity."""

    J: np.ndarray
    dims: tuple[int, int]
    factors: tuple[np.ndarray, np.ndarray, float] = field(init=False, repr=False)

    def __post_init__(self):
        J = check_hermitian(self.J)
        try:
            d1, d2 = map(operator.index, self.dims)
        except (TypeError, ValueError):
            d1 = d2 = 0
        if min(d1, d2) < 1 or J.shape != (d1 * d2, d1 * d2):
            raise ValueError(f"dims must be two positive integers d1, d2 with J of shape "
                             f"(d1 d2, d1 d2), got {self.dims!r} for {J.shape}")
        w, F = np.linalg.eigh(J)
        a = np.abs(w)
        keep = a >= SUPPORT_CUT * a.max()
        vars(self).update(J=J, factors=(F[:, keep], w[keep], float(a[~keep].sum())))

    def __getattr__(self, name):  # J, unset only by choi: formed from its factor v
        if name != "J":
            return object.__getattribute__(self, name)  # its usual AttributeError
        v = self.factors[0][:, 0]
        vars(self)["J"] = J = _hermitian_part(np.outer(v, v.conj()))
        return J


def choi(U: np.ndarray) -> ChoiOperator:
    """Choi operator of conjugation by a unitary: rank one, trace d; only U is checked.
    It holds only its factors (v, 1, 0), from no decomposition; J = v v^dag, symmetrized
    as check_hermitian does, is formed on its first read."""
    U = check_unitary(U)
    d = U.shape[0]
    # sum_i |i> (x) U|i>  has components v[(i,k)] = U[k,i]
    v = U.T.reshape(-1)
    op = object.__new__(ChoiOperator)  # unchecked
    vars(op).update(dims=(d, d), factors=(v[:, None], np.array([1.0]), 0.0))
    return op


def choi_mixture(candidates: list[ChoiOperator], weights: np.ndarray) -> ChoiOperator:
    """Convex combination sum_x p(x) J_x (one eigh); ValueError unless p is a distribution."""
    if not candidates:
        raise ValueError("empty candidate list")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(candidates),):
        raise ValueError("weights length does not match candidates")
    check_probabilities(w)
    dims = candidates[0].dims
    J = np.zeros_like(candidates[0].J)
    for p, c in zip(w, candidates):
        if c.dims != dims:
            raise ValueError("mixed Choi dimensions")
        J = J + p * c.J
    return ChoiOperator(J=J, dims=dims)


def unitary_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Half-diamond distance between the channels of two unitaries.

    sin(s/2) if s < pi, else 1, with s the spread max - min of the eigenphases
    of U^dag V relative to one eigenvalue: each lies in (-pi, pi] and one is 0,
    so s < pi is the shortest arc holding them all (else their hull holds 0).
    The sine keeps the digits that sqrt(1 - m^2), m the hull's distance, cancels.
    """
    U = check_unitary(U)
    V = check_unitary(V)
    if U.shape != V.shape:
        raise ValueError("dimension mismatch")
    if np.array_equal(U, V):
        return 0.0
    eigs = np.linalg.eigvals(U.conj().T @ V)
    phases = np.angle(eigs * eigs[0].conj())
    s = phases.max() - phases.min()
    return float(np.sin(s / 2)) if s < np.pi else 1.0


def _support(F: np.ndarray) -> np.ndarray:
    """Orthonormal basis V, D x k, of the span K of the stacked factor columns F.

    The SVD drops singular values only at rounding level, so two supports a
    distance delta apart stay apart, where the spectrum of their sum shows
    delta only as delta^2.
    """
    Q, s, _ = np.linalg.svd(F, full_matrices=False)
    return Q[:, s > max(F.shape) * sdp.EPS * s[0]]


def _on_support(ops: list[ChoiOperator], V: np.ndarray):
    """(Jk, outside, X, norms) of the operators J = F diag(w) F^H + R on K = span V: blocks
    V^H F diag(w) F^H V; outside terms rest + sum |w| (2ab + b^2) over the factors f = P f + h
    (P = V V^H, a = |P f|, b = |h|), bounding ||J - P F diag(w) F^H P||_1; the Gram X[i, j] =
    V^H (|i><j| (x) I) V; diamond-norm bounds lmax(ptr2 J+) + lmax(ptr2 J-) + rest, J+- the
    factors' parts of either sign (1 up to rounding for a channel; no J- when no w < 0)."""
    Fs, ws, rests = zip(*(op.factors for op in ops))
    F, w = np.concatenate(Fs, axis=1), np.concatenate(ws)
    starts = np.cumsum([0, *map(len, ws[:-1])])  # each operator's first column
    FK = V.conj().T @ F
    Jk = np.add.reduceat((FK.T * w[:, None])[:, :, None] * FK.T.conj()[:, None, :], starts)
    a, b = np.linalg.norm(FK, axis=0), np.linalg.norm(F - V @ FK, axis=0)
    outside = np.add.reduceat(np.abs(w) * (2 * a * b + b * b), starts) + rests
    d1, d2 = ops[0].dims
    Vi = V.reshape(d1, d2, -1)
    X = Vi.conj().transpose(0, 2, 1)[:, None] @ Vi  # X[i, j] = V^H (|i><j| (x) I) V
    G = F.T.reshape(-1, d1, d2)
    ptr = G @ G.conj().transpose(0, 2, 1)  # ptr2(f f^H) of each factor f
    signs = np.maximum([w, -w] if (w < 0).any() else [w], 0.0)  # the weights of J+ and any J-
    norms = np.linalg.eigvalsh(np.add.reduceat(signs[..., None, None] * ptr, starts, axis=1))
    norms = norms[..., -1].sum(axis=0) + rests
    return Jk, outside, X, norms


def _check(p: np.ndarray, certificate, blocks) -> tuple[float, float]:
    """(upper, lower) of `_mix`'s certificate (V, S', T', rho) at p, blocks `_on_support`'s.
    With o the outside terms' p-weighted sum, dJ' = Jk[0] - sum p_x Jk[x] is within o of dJ:

    - upper = lmax(ptr2(V S' V^H)) + d2 s with s = max(0, -lmin(S'), max(0, -lmin(S' - dJ'))
      + o), so S + s I >= 0 and >= dJ, capped at (norms[0] + p . norms[1:]) / 2 by the
      triangle inequality: no less than the error of p;
    - lower = the dual objective at the tester repaired to be feasible (rho clipped to a
      density operator, T' into [0, N], N = V^H (rho (x) I) V), less the target's and the
      largest candidate's outside terms, which bound what the extended tester, of norm at
      most 1, sees there: no more than any mixture's error, clamped to [0, upper].
    """
    V, S, T, rho = certificate
    Jk, outside, X, norms = blocks
    d2 = len(V) // len(X)
    dJ, o = Jk[0] - np.tensordot(p, Jk[1:], 1), outside[0] + p @ outside[1:]
    shift = max(0.0, -np.linalg.eigvalsh(S)[0], max(0.0, -np.linalg.eigvalsh(S - dJ)[0]) + o)
    ptr2 = np.tensordot(X, S.T, 2).T  # ptr2(V S' V^H): entry (i, j) is tr(X[j, i] S')
    upper = min(float(np.linalg.eigvalsh(ptr2)[-1] + d2 * shift),
                float(norms[0] + p @ norms[1:]) / 2)

    w, R = np.linalg.eigh(rho)
    w = np.maximum(w, 0.0) + 1e-12
    T = T / w.sum()
    w /= w.sum()
    N = np.tensordot((R * w) @ R.conj().T, X, 2)  # V^H (rho (x) I) V
    nu, Q = np.linalg.eigh(N)
    root, root_inv = (Q * np.sqrt(nu)) @ Q.conj().T, (Q / np.sqrt(nu)) @ Q.conj().T
    lam, Q = np.linalg.eigh(root_inv @ T @ root_inv)
    Tf = root @ (Q * np.clip(lam, 0.0, 1.0)) @ Q.conj().T @ root
    values = np.real(np.einsum("ab,xba->x", Tf, Jk))
    lower = float(values[0] - values[1:].max() - outside[0] - outside[1:].max())
    return upper, min(max(lower, 0.0), upper)


def _mix(target: ChoiOperator, candidates: list[ChoiOperator]):
    """Optimal mixture p of the candidates, certified bounds and their certificate:
    (p, upper, lower, (V, S', T', rho)).

    Watrous's SDP for the half-diamond norm (arXiv:0901.4709, 1207.5726),
    minimized over the simplex: min r with S >= 0, S >= J(A) - sum p_x J(B_x),
    r I >= ptr2(S), p >= 0 and sum p = 1. Its dual maximizes
    tr(J(A) T) - max_x tr(J(B_x) T) over testers 0 <= T <= rho (x) I,
    tr(rho) <= 1, which are the multipliers of the basis rows and of the
    partial-trace rows.

    Each operator J = F diag(w) F^H + R enters through its factors
    (`ChoiOperator`). The SDP is posed on K, the span of all their columns
    (`_support`), with V an orthonormal basis of K: S = V S' V^H, with k x k
    blocks S' and E' (k = n + 1 for n unitary candidates of a unitary target,
    whatever d), k^2 basis rows in the blocks of `_on_support` and d1^2 partial-trace
    rows. Every partial trace on K is read off its Gram X: the rows' V^H (M (x) I) V =
    sum_ij M[i, j] X[i, j] (M a basis of H1), ptr2(V S' V^H)[i, j] = tr(X[j, i] S') and
    the tester's N = V^H (rho (x) I) V. That is exact when the operators live on K:
    testers enter the dual only through V^H T V, and the compressions of 0 <= T <= rho
    (x) I are exactly 0 <= T' <= N (T = C^H T' C with C = N^-1 V^H (rho (x) I) extends
    T'). Neither bound is the solver's objective: `_check` repairs the certificate, the
    solver's S', T' and rho, and both bounds hold on the full space whatever the support
    cut dropped. `_check(p, certificate, _on_support([target, *candidates], V))` re-checks
    them with no solve.

    With one candidate, p = 1 and the solve is the half-diamond distance.
    """
    if not candidates:
        raise ValueError("empty candidate list")
    d1 = target.dims[0]
    for c in candidates:
        if c.dims != target.dims:
            raise ValueError("dimension mismatch")
    n = len(candidates)
    ops = [target, *candidates]
    V = _support(np.concatenate([op.factors[0] for op in ops], axis=1))
    k = V.shape[1]
    on_k = _on_support(ops, V)
    Jk, _, X, _ = on_k
    JA, JB = Jk[0], Jk[1:]

    # Variables: S' >= 0, E' = S' - V^H J(A) V + sum p V^H J(B_x) V >= 0,
    #            G = r I - ptr2(V S' V^H) >= 0, p >= 0, r >= 0.
    # minimize r  ==  maximize -r.
    blocks = [
        sdp.Block(size=k),   # S'
        sdp.Block(size=k),   # E'
        sdp.Block(size=d1),  # G
        sdp.Block(size=n + 1, diag=True),  # (p, r)
    ]
    basis, basis1 = sdp.hermitian_basis(blocks[0]), sdp.hermitian_basis(blocks[2])
    kk, dd = k * k, d1 * d1
    lp = 2 * kk + dd  # the columns: S' from 0, E' from kk, G from 2 kk, then p and r (the last)
    A = np.zeros((kk + dd + 1, lp + n + 1))
    # The basis rows: svec(E' - S') - sum_x p_x svec(V^H J(B_x) V) = -svec(V^H J(A) V).
    A[:kk, :kk], A[:kk, kk : 2 * kk] = -np.eye(kk), np.eye(kk)
    A[:kk, lp:-1] = -sdp.svec(blocks[0], JB).T
    # The partial-trace rows, one per basis matrix M of H1: Re tr(M ptr2(V S' V^H)) + svec(G)_M
    # - tr(M) r = 0, with Re tr(M ptr2(V S' V^H)) = svec(V^H (M (x) I) V) . svec(S').
    ptr = np.tensordot(basis1, X, 2)  # V^H (M (x) I) V
    A[kk:-1, :kk], A[kk:-1, 2 * kk : lp] = sdp.svec(blocks[0], ptr), np.eye(dd)
    A[kk:-1, -1] = -sdp.svec(blocks[2], np.eye(d1))  # tr(M) = svec(I)_M
    A[-1, lp:-1] = 1.0  # sum p = 1
    rhs = np.concatenate((-sdp.svec(blocks[0], JA), np.zeros(dd), [1.0]))
    objective = np.zeros(lp + n + 1)
    objective[-1] = -1.0
    problem = sdp.SdpProblem(blocks, objective, A, rhs)
    sol = sdp.check_optimal(sdp.solve(problem))

    p = np.maximum(sol.X[3][:n], 0.0)
    p /= p.sum()
    T, rho = np.tensordot(sol.y[:kk], basis, 1), np.tensordot(sol.y[kk : kk + dd], basis1, 1)
    certificate = (V, sol.X[0], T, rho)
    return (p, *_check(p, certificate, on_k), certificate)


def diamond_distance(A: ChoiOperator, B: ChoiOperator, full_output: bool = False):
    """Half-diamond distance (1/2)||A - B||_diamond via SDP; exactly 0 (gap 0), unsolved,
    only when A.J and B.J are equal entry by entry, as no other pair is at distance 0.

    Returns a certified upper bound on the distance; with full_output,
    (upper, upper - lower), where lower <= upper is the dual's certified
    lower bound, so the gap is never negative. It is `optimal_mix` with the
    single candidate B, solved as it is: for d = 2 unitary channels the upper
    bound is the exact distance of the unitaries read from the Choi operators.
    """
    if A.dims != B.dims:
        raise ValueError("dimension mismatch")
    if np.array_equal(A.J, B.J):
        return (0.0, 0.0) if full_output else 0.0
    _, upper, lower, _ = _optimal_mix(A, [B])
    return (upper, upper - lower) if full_output else upper


def _qubit_unitaries(ops: list[ChoiOperator]) -> np.ndarray | None:
    """Unitaries (up to phase) of d = 2 unitary channels; None if any op is not one.

    Unitary: dims (2, 2), one factor f of weight w > 0, rest and U^dag U - I within
    TOL_UNITARY for U read off v = sqrt(w) f as in choi, v[(i, k)] = U[k, i]: J is
    rank one and trace preserving (ptr2(J) = (U^dag U)^T) within TOL_UNITARY.
    """
    if any(op.dims != (2, 2) or len(op.factors[1]) != 1 or op.factors[2] > TOL_UNITARY
           for op in ops):
        return None
    w = np.concatenate([op.factors[1] for op in ops])
    v = np.concatenate([op.factors[0] for op in ops], axis=1).T * np.sqrt(np.abs(w))[:, None]
    U = v.reshape(-1, 2, 2).transpose(0, 2, 1)
    if w.min() <= 0 or np.max(np.abs(U.conj().transpose(0, 2, 1) @ U - np.eye(2))) > TOL_UNITARY:
        return None
    return U


def _optimal_mix(target: ChoiOperator, candidates: list[ChoiOperator]):
    """(p, upper, lower, certificate) of the one lowering a mixing query takes: see optimal_mix."""
    U = _qubit_unitaries([target, *candidates])
    if U is None:
        return _mix(target, candidates)
    W = qubit1.magic_embed_batch(U)
    return qubit1.optimal_mix_1q(W[0], W[1:])


def optimal_mix(
    target: ChoiOperator, candidates: list[ChoiOperator]
) -> tuple[np.ndarray, float]:
    """Best convex mixture of candidates approximating the target channel.

    Returns (p, value): value is a certified upper bound on the
    half-diamond error (1/2)||target - sum p_x cand_x||_diamond of the
    returned p, not the solver's objective. When the target and every
    candidate are d = 2 unitary channels (`_qubit_unitaries`: trace preserving
    and rank one within TOL_UNITARY), the query takes the tie-set pivots of
    `qubit1.optimal_mix_1q` (p has at most 4 members), which stop at the width
    upper - lower <= 1e-8, and value is its upper, `mix_distance_1q` at p: the
    exact error of p for the unitaries read from the Choi operators. Every other
    input takes the Watrous SDP of `_mix`, and value is its repaired-primal upper
    bound, capped at (||target||_diamond + sum p_x ||cand_x||_diamond) / 2, 1 for
    channels; that SDP is solved to relative gap and feasibility 1e-8 within 200
    iterations.
    `_optimal_mix` makes this choice, for `diamond_distance` too.
    """
    return _optimal_mix(target, candidates)[:2]
