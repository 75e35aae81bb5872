"""Small dense semidefinite-program solver.

Standard form handled here:

    maximize    tr(C X)
    subject to  tr(A_i X) = b_i   (i = 1..m)
                X >= 0, block-diagonal over the declared blocks

with the dual

    minimize    b . y
    subject to  Z = sum_i y_i A_i - C >= 0.

Blocks are either real symmetric, complex Hermitian, or "diag" (a batch of
independent 1x1 blocks, i.e. a nonnegative vector). Complex Hermitian
blocks are solved in complex arithmetic, with the real inner product
Re tr(A X); `real_embed` is kept as a reference lowering to real blocks.

The solver is a primal-dual path-following interior-point method with a
Mehrotra predictor-corrector. Problems here are tiny (block sizes <= ~40,
up to a few hundred equality constraints, possibly many 1x1 blocks), so
all factorizations are dense. Each block's coefficients are stacked over
all m constraints, with zeros where a constraint does not touch the block.

Each iteration factors once. X and Z of every dense block are factored
by Cholesky; the factors give both step lengths. The Schur complement
M_ij = Re tr(A_i X A_j Z^-1) is not formed: with X = L_X L_X^H and
Z = L_Z L_Z^H it is M = G G^T, G_i = vec(L_Z^-1 A_i L_X) read as real
numbers (2 s^2 of them for a complex s x s block). With the rows of G
scaled to unit norm, G_s^T = Q R by QR, and R is the Cholesky factor of M
scaled to unit diagonal. The predictor and the corrector reuse it. The
primal step is an orthogonal projection with Q, so it meets its equality
constraints to about eps * sqrt(cond(M)). Solving the normal equations with
M itself leaves a residual of eps * cond(M): near the optimum of a
degenerate problem cond(M) grows like 1/mu^2 and passes 1/eps, and that
residual becomes primal infeasibility that later steps cannot remove.

A solve ends with one of these `SdpSolution.status` values:

- "Optimal": relative primal and dual infeasibility within `feas_tol` and
  relative gap within `gap_tol`.
- "Stalled": ten iterations without a better merit (the largest of the
  three measures), or a numerical breakdown: X or Z is no longer
  numerically positive definite, or R is singular. Both happen at the
  limit of double precision near the optimum.
- "MaxIter": `max_iter` iterations without meeting the tolerances.
- "Infeasible": the dual iterate diverges.

On "Stalled" and "MaxIter" the best iterate seen is returned, and the
status becomes "Optimal" if that iterate meets the tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_GAP_TOL = 1e-8
DEFAULT_FEAS_TOL = 1e-8
DEFAULT_MAX_ITER = 200


class SdpError(RuntimeError):
    pass


class NumericalBreakdown(SdpError):
    """A matrix the iteration needs positive definite is not, numerically."""


@dataclass(frozen=True)
class Block:
    """One block of the block-diagonal variable.

    size: matrix dimension (or vector length for diag blocks).
    complex: True for a complex Hermitian block.
    diag: True for a batch of independent 1x1 blocks stored as a vector
    (always real).
    """

    size: int
    complex: bool = False
    diag: bool = False


@dataclass
class Constraint:
    """tr(A X) = rhs with A given per block; missing blocks contribute 0."""

    coeffs: dict[int, np.ndarray]
    rhs: float


def _check_coeff(blk: Block, M, what: str) -> None:
    M = np.asarray(M)
    expect = (blk.size,) if blk.diag else (blk.size, blk.size)
    if M.shape != expect:
        raise ValueError(f"{what} has shape {M.shape}, expected {expect}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{what} has a non-finite entry")
    if np.iscomplexobj(M) and not blk.complex and np.any(M.imag != 0):
        raise ValueError(f"{what} has an imaginary part on a real block")


@dataclass
class SdpProblem:
    blocks: list[Block]
    objective: list[Optional[np.ndarray]]
    constraints: list[Constraint]

    def validate(self) -> None:
        if len(self.objective) != len(self.blocks):
            raise ValueError("objective must have one entry per block")
        for k, blk in enumerate(self.blocks):
            if blk.complex and blk.diag:
                raise ValueError(f"block {k}: a diag block cannot be complex")
            if self.objective[k] is not None:
                _check_coeff(blk, self.objective[k], f"objective block {k}")
        for i, con in enumerate(self.constraints):
            if not np.isfinite(con.rhs):
                raise ValueError("constraint rhs must be finite")
            for k, A in con.coeffs.items():
                if not 0 <= k < len(self.blocks):
                    raise ValueError(f"constraint references unknown block {k}")
                _check_coeff(self.blocks[k], A, f"constraint {i}, block {k}")


@dataclass
class SdpSolution:
    X: list[np.ndarray]
    y: np.ndarray
    primal_value: float
    dual_value: float
    gap: float
    status: str  # "Optimal" | "Stalled" | "MaxIter" | "Infeasible"
    iterations: int = 0
    # Relative primal and dual infeasibility and relative gap of the returned
    # iterate, the measures the tolerances apply to (nan on "Infeasible").
    pinf: float = float("nan")
    dinf: float = float("nan")
    rel_gap: float = float("nan")


def _embed_herm(M: np.ndarray) -> np.ndarray:
    """[[Re, -Im], [Im, Re]]: real symmetric iff M Hermitian; PSD preserved."""
    R, I = M.real, M.imag
    return np.block([[R, -I], [I, R]])


def real_embed(problem: SdpProblem) -> SdpProblem:
    """Lower complex Hermitian blocks to real symmetric ones.

    `solve` handles complex blocks itself; this is the reference lowering
    that tests compare it against. Each complex d x d block becomes a real
    symmetric 2d x 2d variable block. The raw embedding doubles traces
    (tr phi(A) phi(X) = 2 tr(A X)), so all coefficient matrices on complex
    blocks are halved, which keeps every tr(A X) = b constraint and the
    objective value unchanged.
    """
    blocks = []
    for blk in problem.blocks:
        if blk.complex:
            blocks.append(Block(size=2 * blk.size))
        else:
            blocks.append(Block(size=blk.size, diag=blk.diag))

    def conv(k: int, M: Optional[np.ndarray]) -> Optional[np.ndarray]:
        if M is None:
            return None
        if problem.blocks[k].complex:
            return _embed_herm(np.asarray(M, dtype=complex)) / 2
        return np.asarray(M, dtype=float)

    objective = [conv(k, C) for k, C in enumerate(problem.objective)]
    constraints = [
        Constraint(
            coeffs={k: conv(k, A) for k, A in con.coeffs.items()},
            rhs=con.rhs,
        )
        for con in problem.constraints
    ]
    return SdpProblem(blocks=blocks, objective=objective, constraints=constraints)


def _herm(M: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix; a diag block's vector is returned as is."""
    return (M + M.conj().T) / 2


def _flat(M: np.ndarray) -> np.ndarray:
    """M as real numbers: Re tr(A X) = _flat(A) @ _flat(X) for Hermitian X."""
    return M.reshape(-1).view(float)


def _unflat(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Inverse of _flat: the real numbers v as an array shaped like `like`."""
    return v.view(like.dtype).reshape(like.shape)


def _chol(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor L of S = L L^H and its inverse L^-1.

    Raises NumericalBreakdown when S is not numerically positive definite.
    """
    try:
        L = np.linalg.cholesky(S)
        return L, np.linalg.inv(L)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"Cholesky factorization failed: {exc}") from None


def _factor(blk: Block, X: np.ndarray, Z: np.ndarray):
    """(L_X, L_X^-1, L_Z^-1) with X = L_X L_X^H and Z = L_Z L_Z^H.

    The factors of a diag block are the square roots of its vectors.
    """
    if blk.diag:
        sx = np.sqrt(X)
        return sx, 1 / sx, 1 / np.sqrt(Z)
    LX, LiX = _chol(X)
    return LX, LiX, _chol(Z)[1]


def _max_step(Li: np.ndarray, dS: np.ndarray) -> float:
    """Largest a with S + a dS psd, given Li = L^-1 for S = L L^H.

    A diag block's Li and dS are vectors.
    """
    if dS.ndim == 1:
        lam = float(np.min(Li * dS * Li))
    else:
        lam = np.linalg.eigvalsh(_herm(Li @ dS @ Li.conj().T))[0]
    if lam >= 0:
        return np.inf
    return -1.0 / lam


def _schur_factor(G: np.ndarray):
    """(rows, s, Q, R^-1) for the Schur complement M = G G^T.

    The rows of G are scaled to unit norm by s, which scales M to unit
    diagonal, and (diag(s) G[rows])^T = Q R, so R is the Cholesky factor of
    the equilibrated M, found without forming M. `rows` leaves out each row
    that is zero or in the span of the rows before it (a redundant equality
    constraint); its multiplier stays 0. Raises NumericalBreakdown when R is
    singular.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", G, G))
    rows = np.flatnonzero(norms > 0)
    if len(rows) < len(G):
        G = G[rows]
    G /= norms[rows, None]  # in place: G is the caller's scratch
    Gs = G.T
    Q, R = np.linalg.qr(Gs)
    d = np.zeros(len(rows))
    d[: min(R.shape)] = np.abs(np.diag(R))
    independent = d > max(Gs.shape) * np.finfo(float).eps * d.max(initial=0.0)
    if not independent.all():
        rows = rows[independent]
        Q, R = np.linalg.qr(Gs[:, independent])
    try:
        return rows, 1.0 / norms[rows], Q, np.linalg.inv(R)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"Schur complement is singular: {exc}") from None


def _projected_step(rows, s, Q, R_inv, h: np.ndarray, rp: np.ndarray):
    """(r, dy) with r = h - G^T dy and G r = rp, from _schur_factor(G).

    This is the normal-equations solve dy = M^-1 (G h - rp), but r is formed
    as a projection with the orthonormal Q, so G r = rp holds to about
    eps * cond(G) = eps * sqrt(cond(M)), not eps * cond(M).
    """
    u = Q.T @ h - R_inv.T @ (s * rp[rows])
    dy = np.zeros(len(rp))
    dy[rows] = s * (R_inv @ u)
    return h - Q @ u, dy


def solve(
    problem: SdpProblem,
    gap_tol: float = DEFAULT_GAP_TOL,
    feas_tol: float = DEFAULT_FEAS_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SdpSolution:
    """Solve the SDP by the interior-point method described above.

    `X` holds a Hermitian matrix for each complex block, a real symmetric
    matrix for each real block and a nonnegative vector for each diag
    block; `y` holds the multipliers of the constraints in order.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    problem.validate()
    blocks = problem.blocks
    m = len(problem.constraints)
    b = np.array([c.rhs for c in problem.constraints], dtype=float)

    # Per block: the identity, C, the coefficients A stacked over all m
    # constraints and their real rows Af, and the product that acts in the
    # Newton system (matrix product, or elementwise for diag blocks).
    eye = [
        np.ones(blk.size) if blk.diag
        else np.eye(blk.size, dtype=complex if blk.complex else float)
        for blk in blocks
    ]
    C = [np.zeros_like(I) for I in eye]
    A = [np.zeros((m,) + I.shape, I.dtype) for I in eye]

    def coeff(k: int, M) -> np.ndarray:  # validate() ruled out Im M != 0 on real blocks
        return _herm(np.asarray(M) if blocks[k].complex else np.real(M))

    for k, Ck in enumerate(problem.objective):
        if Ck is not None:
            C[k][...] = coeff(k, Ck)
    for i, con in enumerate(problem.constraints):
        for k, Ak in con.coeffs.items():
            A[k][i] = coeff(k, Ak)
    Af = [Ak.reshape(m, Ck.size).view(float) for Ak, Ck in zip(A, C)]
    muls = [np.multiply if blk.diag else np.matmul for blk in blocks]
    # Columns of the Schur factor G (see below) per block.
    offsets = np.cumsum([0] + [Afk.shape[1] for Afk in Af])

    def a_of(Xs) -> np.ndarray:
        return sum((Afk @ _flat(Xk) for Afk, Xk in zip(Af, Xs)), np.zeros(m))

    def a_adj(v) -> list[np.ndarray]:
        return [_unflat(v @ Afk, Ck) for Afk, Ck in zip(Af, C)]

    def inner(Ps, Qs) -> float:
        return sum(float(_flat(P) @ _flat(Q)) for P, Q in zip(Ps, Qs))

    ntot = sum(blk.size for blk in blocks)

    # Cold start scaled from problem norms.
    norm_scale = max(
        1.0,
        float(np.max(np.abs(b))) if m else 1.0,
        max((float(np.max(np.abs(Ck))) if Ck.size else 0.0) for Ck in C),
    )
    rho0 = float(np.sqrt(norm_scale) * max(1.0, np.sqrt(ntot)))
    X = [rho0 * I for I in eye]
    Z = [rho0 * I for I in eye]
    y = np.zeros(m)

    status = "MaxIter"
    it = 0
    best = None  # (merit, pinf, dinf, gap_rel, X, y, pobj, dobj)
    stall = 0
    for it in range(1, max_iter + 1):
        rp = b - a_of(X)
        Rd = [S - Ck - Zk for S, Ck, Zk in zip(a_adj(y), C, Z)]  # want 0
        mu = inner(X, Z) / ntot

        pobj = inner(C, X)
        dobj = float(b @ y)
        pinf = float(np.max(np.abs(rp))) / (1 + float(np.max(np.abs(b)))) if m else 0.0
        dinf = max(float(np.max(np.abs(R))) for R in Rd) / (1 + norm_scale)
        gap_rel = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        merit = max(pinf, dinf, gap_rel)
        if best is None or merit < best[0]:
            best = (merit, pinf, dinf, gap_rel, X, y, pobj, dobj)
            stall = 0
        else:
            stall += 1
        if pinf <= feas_tol and dinf <= feas_tol and gap_rel <= gap_tol:
            status = "Optimal"
            break
        if stall >= 10:
            status = "Stalled"  # no progress near the optimum; keep best iterate
            break

        # Every factorization of the iteration. With X = L_X L_X^H and
        # Z = L_Z L_Z^H per block, M_ij = Re tr(A_i X A_j Z^-1) = G_i . G_j
        # with G_i = vec(L_Z^-1 A_i L_X) as real numbers.
        schur = None  # release the last factor before making the next
        try:
            fac = [_factor(blk, Xk, Zk) for blk, Xk, Zk in zip(blocks, X, Z)]
            G = np.concatenate(
                [
                    mul(mul(LiZ, Ak), LX).reshape(m, Ck.size).view(float)
                    for mul, Ak, Ck, (LX, _, LiZ) in zip(muls, A, C, fac)
                ],
                axis=1,
            )
            schur = _schur_factor(G)
        except NumericalBreakdown:
            status = "Stalled"  # keep best iterate
            break

        def directions(Rc: list[np.ndarray]):
            # Solve for (dX, dy, dZ) with
            #   a(dX) = rp,  sum dy A - dZ = -Rd,  dX Z + X dZ = Rc (HKM)
            # so dZ = sum dy A + Rd and dX = (Rc - X dZ) Z^-1. In the variables
            # of G, h = L_Z^-1 F^H L_X^-H with F = Rc - X Rd,
            # dX = herm(L_Z^-H r L_X^H) with r = h - G^T dy, and a(dX) = G r = rp.
            h = np.concatenate(
                [
                    _flat(mul(mul(LiZ, (Rck - mul(Xk, Rdk)).conj().T), LiX.conj().T))
                    for mul, Rck, Xk, Rdk, (_, LiX, LiZ) in zip(muls, Rc, X, Rd, fac)
                ]
            )
            r, dy = _projected_step(*schur, h, rp)
            dX = [
                _herm(mul(mul(LiZ.conj().T, _unflat(rk, Ck)), LX.conj().T))
                for mul, rk, Ck, (LX, _, LiZ) in zip(muls, np.split(r, offsets[1:-1]), C, fac)
            ]
            dZ = [_herm(S + Rdk) for S, Rdk in zip(a_adj(dy), Rd)]
            return dX, dy, dZ

        def max_steps(dX, dZ):
            ap = min(_max_step(LiX, dXk) for (_, LiX, _), dXk in zip(fac, dX))
            ad = min(_max_step(LiZ, dZk) for (_, _, LiZ), dZk in zip(fac, dZ))
            return ap, ad

        # Predictor (affine scaling).
        XZ = [mul(Xk, Zk) for mul, Xk, Zk in zip(muls, X, Z)]
        dXa, dya, dZa = directions([-P for P in XZ])
        ap_a, ad_a = max_steps(dXa, dZa)
        ap_a = min(1.0, 0.95 * ap_a)
        ad_a = min(1.0, 0.95 * ad_a)
        mu_aff = inner(
            [Xk + ap_a * dXk for Xk, dXk in zip(X, dXa)],
            [Zk + ad_a * dZk for Zk, dZk in zip(Z, dZa)],
        ) / ntot
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-10))

        # Corrector.
        dX, dy, dZ = directions(
            [
                sigma * mu * I - P - mul(dXk, dZk)
                for mul, I, P, dXk, dZk in zip(muls, eye, XZ, dXa, dZa)
            ]
        )
        ap, ad = max_steps(dX, dZ)
        tau = 0.98 if mu > 1e-7 else 0.99
        ap = min(1.0, tau * ap)
        ad = min(1.0, tau * ad)
        X = [Xk + ap * dXk for Xk, dXk in zip(X, dX)]
        Z = [Zk + ad * dZk for Zk, dZk in zip(Z, dZ)]
        y = y + ad * dy

        if float(np.linalg.norm(y)) > 1e12 * norm_scale:
            return SdpSolution(
                X=X, y=y, primal_value=inner(C, X), dual_value=float(b @ y),
                gap=abs(inner(C, X) - float(b @ y)), status="Infeasible",
                iterations=it,
            )

    if status != "Optimal":
        _, pinf, dinf, gap_rel, X, y, pobj, dobj = best
        if pinf <= feas_tol and dinf <= feas_tol and gap_rel <= gap_tol:
            status = "Optimal"
    return SdpSolution(
        X=X,
        y=y,
        primal_value=pobj,
        dual_value=dobj,
        gap=abs(pobj - dobj),
        status=status,
        iterations=it,
        pinf=pinf,
        dinf=dinf,
        rel_gap=gap_rel,
    )
