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
blocks are lowered to real symmetric ones by `real_embed` before solving.

The solver is a primal-dual path-following interior-point method with a
Mehrotra predictor-corrector. Problems here are tiny (block sizes <= ~40,
up to a few hundred equality constraints, possibly many 1x1 blocks), so
all factorizations are dense.

Each iteration factors once. X and Z of every dense block are factored
by Cholesky; the factors give both step lengths. The Schur complement
M_ij = tr(A_i X A_j Z^-1) is not formed: with X = L_X L_X^T and
Z = L_Z L_Z^T it is M = G G^T, G_i = vec(L_Z^-1 A_i L_X). With the rows of
G scaled to unit norm, G_s^T = Q R by QR, and R is the Cholesky factor of M
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

from dataclasses import dataclass, replace
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
    diag: True for a batch of independent 1x1 blocks stored as a vector.
    """

    size: int
    complex: bool = False
    diag: bool = False


@dataclass
class Constraint:
    """tr(A X) = rhs with A given per block; missing blocks contribute 0."""

    coeffs: dict[int, np.ndarray]
    rhs: float


@dataclass
class SdpProblem:
    blocks: list[Block]
    objective: list[Optional[np.ndarray]]
    constraints: list[Constraint]

    def validate(self) -> None:
        if len(self.objective) != len(self.blocks):
            raise ValueError("objective must have one entry per block")
        for k, blk in enumerate(self.blocks):
            C = self.objective[k]
            if C is None:
                continue
            expect = (blk.size,) if blk.diag else (blk.size, blk.size)
            if np.asarray(C).shape != expect:
                raise ValueError(f"objective block {k} has wrong shape")
        for con in self.constraints:
            if not np.isfinite(con.rhs):
                raise ValueError("constraint rhs must be finite")
            for k in con.coeffs:
                if not 0 <= k < len(self.blocks):
                    raise ValueError(f"constraint references unknown block {k}")


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


def _unembed_sym(S: np.ndarray) -> np.ndarray:
    """Inverse of _embed_herm on averages; PSD preserved."""
    n = S.shape[0] // 2
    P, Q = S[:n, :n], S[:n, n:]
    R = S[n:, n:]
    return (P + R) / 2 + 1j * (Q.T - Q) / 2


def real_embed(problem: SdpProblem) -> SdpProblem:
    """Lower complex Hermitian blocks to real symmetric ones.

    Each complex d x d block becomes a real symmetric 2d x 2d variable block.
    The raw embedding doubles traces (tr phi(A) phi(X) = 2 tr(A X)), so all
    coefficient matrices on complex blocks are halved, which keeps every
    tr(A X) = b constraint and the objective value unchanged. The Hermitian
    variable is recovered from the real block by averaging its two copies.
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


def solve(
    problem: SdpProblem,
    gap_tol: float = DEFAULT_GAP_TOL,
    feas_tol: float = DEFAULT_FEAS_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SdpSolution:
    """Solve the SDP; values and X refer to the original (complex) problem."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    problem.validate()
    has_complex = any(b.complex for b in problem.blocks)
    real_prob = real_embed(problem) if has_complex else problem
    sol = _solve_real(real_prob, gap_tol, feas_tol, max_iter)
    if not has_complex:
        return sol
    X = [
        _unembed_sym(Xk) if blk.complex else Xk
        for blk, Xk in zip(problem.blocks, sol.X)
    ]
    return replace(sol, X=X)


# ---------------------------------------------------------------------------
# real solver


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2


def _chol(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor L of S = L L^T and its inverse L^-1.

    Raises NumericalBreakdown when S is not numerically positive definite.
    """
    try:
        L = np.linalg.cholesky(S)
        return L, np.linalg.inv(L)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"Cholesky factorization failed: {exc}") from None


def _max_step_dense(Li: np.ndarray, dX: np.ndarray) -> float:
    """Largest a with X + a dX psd, given Li = L^-1 for X = L L^T."""
    lam = np.linalg.eigvalsh(_sym(Li @ dX @ Li.T))[0]
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


def _max_step_diag(x: np.ndarray, dx: np.ndarray) -> float:
    neg = dx < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-x[neg] / dx[neg]))


def _solve_real(
    problem: SdpProblem, gap_tol: float, feas_tol: float, max_iter: int
) -> SdpSolution:
    blocks = problem.blocks
    m = len(problem.constraints)
    b = np.array([c.rhs for c in problem.constraints], dtype=float)

    # Per-block constraint data: indices of constraints touching the block and
    # their (stacked) coefficient matrices / vectors.
    dense_idx = [k for k, blk in enumerate(blocks) if not blk.diag]
    diag_idx = [k for k, blk in enumerate(blocks) if blk.diag]
    A_dense: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    A_diag: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for k in dense_idx:
        rows, mats = [], []
        for i, con in enumerate(problem.constraints):
            if k in con.coeffs:
                rows.append(i)
                mats.append(_sym(np.asarray(con.coeffs[k], dtype=float)))
        if rows:
            A_dense[k] = (np.array(rows), np.stack(mats))
    for k in diag_idx:
        rows, vecs = [], []
        for i, con in enumerate(problem.constraints):
            if k in con.coeffs:
                rows.append(i)
                vecs.append(np.asarray(con.coeffs[k], dtype=float))
        if rows:
            A_diag[k] = (np.array(rows), np.stack(vecs))

    C = []
    for k, blk in enumerate(blocks):
        Ck = problem.objective[k]
        if Ck is None:
            C.append(np.zeros(blk.size) if blk.diag else np.zeros((blk.size, blk.size)))
        elif blk.diag:
            C.append(np.asarray(Ck, dtype=float))
        else:
            C.append(_sym(np.asarray(Ck, dtype=float)))

    ntot = sum(blk.size for blk in blocks)

    # Cold start scaled from problem norms.
    norm_scale = max(
        1.0,
        float(np.max(np.abs(b))) if m else 1.0,
        max((float(np.max(np.abs(Ck))) if Ck.size else 0.0) for Ck in C),
    )
    rho0 = float(np.sqrt(norm_scale) * max(1.0, np.sqrt(ntot)))
    X = [rho0 * np.ones(blk.size) if blk.diag else rho0 * np.eye(blk.size) for blk in blocks]
    Z = [rho0 * np.ones(blk.size) if blk.diag else rho0 * np.eye(blk.size) for blk in blocks]
    y = np.zeros(m)

    def a_of(Xs) -> np.ndarray:
        out = np.zeros(m)
        for k, (rows, mats) in A_dense.items():
            out[rows] += np.einsum("iab,ab->i", mats, Xs[k])
        for k, (rows, vecs) in A_diag.items():
            out[rows] += vecs @ Xs[k]
        return out

    def primal_obj(Xs) -> float:
        tot = 0.0
        for k, blk in enumerate(blocks):
            tot += float(np.sum(C[k] * Xs[k]))
        return tot

    # Columns of the Schur factor G (see below) per block.
    offsets = np.cumsum([0] + [blk.size if blk.diag else blk.size**2 for blk in blocks])

    status = "MaxIter"
    it = 0
    best = None  # (merit, pinf, dinf, gap_rel, X, y, pobj, dobj)
    stall = 0
    for it in range(1, max_iter + 1):
        rp = b - a_of(X)
        # Rd_k = sum_i y_i A_i - C - Z per block (want 0)
        Rd = []
        for k, blk in enumerate(blocks):
            acc = -C[k] - Z[k]
            if blk.diag:
                if k in A_diag:
                    rows, vecs = A_diag[k]
                    acc = acc + vecs.T @ y[rows]
            else:
                if k in A_dense:
                    rows, mats = A_dense[k]
                    acc = acc + np.einsum("i,iab->ab", y[rows], mats)
            Rd.append(acc)

        mu = sum(float(np.sum(X[k] * Z[k])) for k in range(len(blocks))) / ntot

        pobj = primal_obj(X)
        dobj = float(b @ y)
        pinf = float(np.max(np.abs(rp))) / (1 + float(np.max(np.abs(b)))) if m else 0.0
        dinf = max(float(np.max(np.abs(R))) for R in Rd) / (1 + norm_scale)
        gap_rel = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        merit = max(pinf, dinf, gap_rel)
        if best is None or merit < best[0]:
            best = (merit, pinf, dinf, gap_rel, [Xk.copy() for Xk in X], y.copy(), pobj, dobj)
            stall = 0
        else:
            stall += 1
        if pinf <= feas_tol and dinf <= feas_tol and gap_rel <= gap_tol:
            status = "Optimal"
            break
        if stall >= 10:
            status = "Stalled"  # no progress near the optimum; keep best iterate
            break

        # Every factorization of the iteration. With X = L_X L_X^T and
        # Z = L_Z L_Z^T per dense block, M_ij = tr(A_i X A_j Z^-1) = G_i . G_j
        # with G_i = vec(L_Z^-1 A_i L_X); a diag block adds A_i sqrt(x / z).
        schur = None  # release the last factor before making the next
        try:
            LX, LiX, LiZ = {}, {}, {}
            G = np.zeros((m, offsets[-1]))
            for k, blk in enumerate(blocks):
                cols = slice(offsets[k], offsets[k + 1])
                if blk.diag:
                    if k in A_diag:
                        rows, vecs = A_diag[k]
                        G[rows, cols] = vecs * np.sqrt(X[k] / Z[k])
                else:
                    LX[k], LiX[k] = _chol(X[k])
                    LiZ[k] = _chol(Z[k])[1]
                    if k in A_dense:
                        rows, mats = A_dense[k]
                        G[rows, cols] = (LiZ[k] @ mats @ LX[k]).reshape(len(rows), -1)
            schur = _schur_factor(G)
        except NumericalBreakdown:
            status = "Stalled"  # keep best iterate
            break

        def directions(Rc: list[np.ndarray]):
            # Solve for (dX, dy, dZ) with
            #   a(dX) = rp,  sum dy A - dZ = -Rd,  dX Z + X dZ = Rc (HKM)
            # so dZ = sum dy A + Rd and dX = (Rc - X dZ) Z^-1. In the variables
            # of G, dX = sym(L_X r^T L_Z^-1) (r sqrt(x / z) on diag blocks)
            # with r = h - G^T dy and a(dX) = G r = rp.
            h = []
            for k, blk in enumerate(blocks):
                if blk.diag:
                    h.append((Rc[k] - X[k] * Rd[k]) / np.sqrt(X[k] * Z[k]))
                else:
                    F = Rc[k] - X[k] @ Rd[k]
                    h.append((LiZ[k] @ F.T @ LiX[k].T).ravel())
            r, dy = _projected_step(*schur, np.concatenate(h), rp)
            dX, dZ = [], []
            for k, blk in enumerate(blocks):
                rk = r[offsets[k]:offsets[k + 1]]
                if blk.diag:
                    acc = np.array(Rd[k], dtype=float, copy=True)
                    if k in A_diag:
                        rows, vecs = A_diag[k]
                        acc += vecs.T @ dy[rows]
                    dZ.append(acc)
                    dX.append(rk * np.sqrt(X[k] / Z[k]))
                else:
                    acc = Rd[k].copy()
                    if k in A_dense:
                        rows, mats = A_dense[k]
                        acc += np.einsum("i,iab->ab", dy[rows], mats)
                    dZ.append(_sym(acc))
                    rk = rk.reshape(blk.size, blk.size)
                    dX.append(_sym(LiZ[k].T @ rk @ LX[k].T))
            return dX, dy, dZ

        # Predictor (affine scaling).
        Rc_aff = []
        for k, blk in enumerate(blocks):
            if blk.diag:
                Rc_aff.append(-X[k] * Z[k])
            else:
                Rc_aff.append(-X[k] @ Z[k])
        dXa, dya, dZa = directions(Rc_aff)

        def max_steps(dX, dZ):
            ap = ad = np.inf
            for k, blk in enumerate(blocks):
                if blk.diag:
                    ap = min(ap, _max_step_diag(X[k], dX[k]))
                    ad = min(ad, _max_step_diag(Z[k], dZ[k]))
                else:
                    ap = min(ap, _max_step_dense(LiX[k], dX[k]))
                    ad = min(ad, _max_step_dense(LiZ[k], dZ[k]))
            return ap, ad

        ap_a, ad_a = max_steps(dXa, dZa)
        ap_a = min(1.0, 0.95 * ap_a)
        ad_a = min(1.0, 0.95 * ad_a)
        mu_aff = sum(
            float(np.sum((X[k] + ap_a * dXa[k]) * (Z[k] + ad_a * dZa[k])))
            for k in range(len(blocks))
        ) / ntot
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-10))

        # Corrector.
        Rc = []
        for k, blk in enumerate(blocks):
            if blk.diag:
                Rc.append(sigma * mu - X[k] * Z[k] - dXa[k] * dZa[k])
            else:
                Rc.append(sigma * mu * np.eye(blocks[k].size) - X[k] @ Z[k] - dXa[k] @ dZa[k])
        dX, dy, dZ = directions(Rc)

        ap, ad = max_steps(dX, dZ)
        tau = 0.98 if mu > 1e-7 else 0.99
        ap = min(1.0, tau * ap)
        ad = min(1.0, tau * ad)
        for k, blk in enumerate(blocks):
            X[k] = X[k] + ap * dX[k]
            Z[k] = Z[k] + ad * dZ[k]
            if not blk.diag:
                X[k] = _sym(X[k])
                Z[k] = _sym(Z[k])
        y = y + ad * dy

        if float(np.linalg.norm(y)) > 1e12 * norm_scale:
            return SdpSolution(
                X=X, y=y, primal_value=primal_obj(X), dual_value=float(b @ y),
                gap=abs(primal_obj(X) - float(b @ y)), status="Infeasible",
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
