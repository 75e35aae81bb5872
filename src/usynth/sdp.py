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
`solve` reads its input in one pass: each coefficient is checked (shape,
finite entries, no imaginary part on a real block) as it is written into
its block's stack, and each dense stack is then made Hermitian once.

Each iteration factors once, in the Nesterov-Todd (NT) scaling (Todd, Toh
and Tutuncu, SIAM J. Optim. 8:769, 1998): per dense block, X = L_X L_X^H
and Z = L_Z L_Z^H and the SVD L_Z^H L_X = U diag(lam) V^H give
R = L_X V diag(lam)^-1/2 with R^-1 X R^-H = R^H Z R = diag(lam). The
complementarity is linearized and the step lengths are taken in these
scaled variables. The Schur complement M_ij = Re tr(A_i W A_j W), W = R R^H,
is M = G G^T with G_i = svec(R^H A_i R), the coordinates of a Hermitian
matrix in an orthonormal basis: s^2 reals for a complex s x s block and
s(s+1)/2 for a real one, half the columns of HKM's non-Hermitian rows.
M is not formed: with the rows of G scaled to unit norm, G_s^T = Q T by QR,
and T is the Cholesky factor of the equilibrated M; the predictor and the
corrector reuse it. The primal step is an orthogonal projection with Q, so
it meets its equality constraints to about eps * sqrt(cond(M)). Solving the
normal equations with M itself leaves a residual of eps * cond(M): near the
optimum of a degenerate problem cond(M) grows like 1/mu^2 and passes 1/eps,
and that residual becomes primal infeasibility that later steps cannot remove.

A solve ends with one of these `SdpSolution.status` values:

- "Optimal": relative gap within `gap_tol`, and relative primal and dual
  infeasibility within min(gap_tol, FEAS_TOL), FEAS_TOL = 1e-8.
- "Stalled": ten iterations without a better merit (the largest of the
  three measures), or a numerical breakdown: X or Z is no longer
  numerically positive definite, or T is singular. Both happen at the
  limit of double precision near the optimum.
- "MaxIter": MAX_ITER = 200 iterations without meeting the tolerances.
- "Infeasible": the dual iterate diverges, as when no X meets the constraints.

Every iterate is checked: "Optimal" returns the first that meets the
tolerances, every other status the one with the best merit, each with its
own residuals. `check_optimal` raises SdpFailureError, with the status and
those residuals, on any status but "Optimal".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .linalg import hermitian_basis

DEFAULT_GAP_TOL = 1e-8
FEAS_TOL = 1e-8  # the feasibility tolerance is min(gap_tol, FEAS_TOL)
MAX_ITER = 200


class NumericalBreakdown(RuntimeError):
    """A matrix the iteration needs positive definite is not, numerically."""


class SdpFailureError(RuntimeError):
    pass


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


@dataclass
class SdpProblem:
    blocks: list[Block]
    objective: list[Optional[np.ndarray]]
    constraints: list[Constraint]


@dataclass
class SdpSolution:
    X: list[np.ndarray]
    y: np.ndarray
    primal_value: float
    dual_value: float
    status: str  # "Optimal" | "Stalled" | "MaxIter" | "Infeasible"
    iterations: int
    # The returned iterate's relative infeasibilities and gap, as the tolerances read them.
    pinf: float
    dinf: float
    rel_gap: float


def check_optimal(sol: SdpSolution) -> SdpSolution:
    """sol if its status is "Optimal"; SdpFailureError with its residuals otherwise."""
    if sol.status != "Optimal":
        raise SdpFailureError(
            f"SDP did not converge: status {sol.status} after {sol.iterations} "
            f"iterations; best iterate pinf {sol.pinf:.2e}, dinf {sol.dinf:.2e}, "
            f"relative gap {sol.rel_gap:.2e}"
        )
    return sol


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
    """Hermitian part of a matrix or a stack of them; a diag block's vector as is."""
    return M if M.ndim == 1 else (M + M.conj().swapaxes(-1, -2)) / 2


def _flat(M: np.ndarray) -> np.ndarray:
    """M as real numbers: Re tr(A X) = _flat(A) @ _flat(X) for Hermitian X."""
    return M.reshape(-1).view(float)


def _unflat(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Inverse of _flat: the real numbers v as an array shaped like `like`."""
    return v.view(like.dtype).reshape(like.shape)


def _chol(S: np.ndarray) -> np.ndarray:
    """L with S = L L^H; NumericalBreakdown if S is not numerically positive definite."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"Cholesky factorization failed: {exc}") from None


def _nt_scaling(blk: Block, X: np.ndarray, Z: np.ndarray):
    """NT scaling (R, lam): R^-1 X R^-H = R^H Z R = diag(lam), R from the module docstring.

    A diag block's R and lam are the vectors (x/z)^1/4 and sqrt(xz).
    """
    if blk.diag:
        return (X / Z) ** 0.25, np.sqrt(X * Z)
    LX = _chol(X)
    _, lam, Vh = np.linalg.svd(_chol(Z).conj().T @ LX)
    if not lam[-1] > 0:
        raise NumericalBreakdown("X Z is singular")
    return LX @ Vh.conj().T / np.sqrt(lam), lam


def _svec_basis(blk: Block) -> np.ndarray:
    """Orthonormal basis P of a dense block's Hermitian matrices, as _flat rows.

    svec(M) = P @ _flat(M) and _flat(M) = svec(M) @ P for Hermitian M: s^2
    reals for a complex s x s block, s(s+1)/2 for a real one (the diagonal,
    and the upper triangle times sqrt(2)).
    """
    E = hermitian_basis(blk.size)
    E = E if blk.complex else E[~np.any(E.imag, axis=(1, 2))].real
    return E.reshape(len(E), -1).view(float)


def _congruence(R: np.ndarray, M: np.ndarray) -> np.ndarray:
    """R^H M R for one matrix M or a stack of them; R M R for diag blocks' vectors."""
    if R.ndim == 1:
        return R * M * R
    if M.ndim == 2:
        return R.conj().T @ M @ R
    s = len(R)  # two products over the whole stack, not two per matrix
    B = (M.reshape(-1, s) @ R).reshape(-1, s, s).transpose(1, 0, 2).reshape(s, -1)
    return (R.conj().T @ B).reshape(s, -1, s).transpose(1, 0, 2).reshape(M.shape)


def _max_step(w: np.ndarray, dS: np.ndarray) -> float:
    """Largest a with diag(lam) + a dS psd, given w_ij = (lam_i lam_j)^-1/2 (1/lam if diag)."""
    S = dS * w  # diag(lam)^-1/2 dS diag(lam)^-1/2; eigvalsh reads one triangle
    low = float(np.min(S)) if S.ndim == 1 else np.linalg.eigvalsh(S)[0]
    return np.inf if low >= 0 else -1.0 / low


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


def solve(problem: SdpProblem, gap_tol: float = DEFAULT_GAP_TOL) -> SdpSolution:
    """Solve the SDP by the interior-point method described above.

    `X` holds a Hermitian matrix for each complex block, a real symmetric
    matrix for each real block and a nonnegative vector for each diag
    block; `y` holds the multipliers of the constraints in order. A
    malformed problem raises ValueError naming the entry at fault.
    """
    blocks = problem.blocks
    if len(problem.objective) != len(blocks):
        raise ValueError("objective must have one entry per block")
    for k, blk in enumerate(blocks):
        if blk.complex and blk.diag:
            raise ValueError(f"block {k}: a diag block cannot be complex")
    b = np.array([c.rhs for c in problem.constraints], dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("constraint rhs must be finite")
    feas_tol = min(gap_tol, FEAS_TOL)
    m = len(b)

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

    def given():  # (name, block, destination, coefficient) of each coefficient given
        for k, M in enumerate(problem.objective):
            if M is not None:
                yield f"objective block {k}", k, C[k], M
        for i, con in enumerate(problem.constraints):
            for k, M in con.coeffs.items():
                if not 0 <= k < len(blocks):
                    raise ValueError(f"constraint references unknown block {k}")
                yield f"constraint {i}, block {k}", k, A[k][i], M

    # One pass: check each coefficient and write it into its block's stack.
    for what, k, dest, M in given():
        M = np.asarray(M)
        if M.shape != dest.shape:
            raise ValueError(f"{what} has shape {M.shape}, expected {dest.shape}")
        if not np.all(np.isfinite(M)):
            raise ValueError(f"{what} has a non-finite entry")
        if np.iscomplexobj(M) and not blocks[k].complex and np.any(M.imag != 0):
            raise ValueError(f"{what} has an imaginary part on a real block")
        dest[...] = M if blocks[k].complex else np.real(M)
    for k, blk in enumerate(blocks):
        if not blk.diag:
            C[k], A[k] = _herm(C[k]), _herm(A[k])
    Af = [Ak.reshape(m, Ck.size).view(float) for Ak, Ck in zip(A, C)]
    muls = [np.multiply if blk.diag else np.matmul for blk in blocks]
    P = [None if blk.diag else _svec_basis(blk) for blk in blocks]  # None: the identity
    # Columns of the Schur factor G (see below) per block.
    offsets = np.cumsum([0] + [Ck.size if Pk is None else len(Pk) for Pk, Ck in zip(P, C)])
    cols = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]

    def svec(Pk, F: np.ndarray) -> np.ndarray:  # F: _flat rows of one block
        return F if Pk is None else F @ Pk.T

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
    best = None  # the checked iterate with the smallest merit
    stall = 0
    for it in range(1, MAX_ITER + 1):
        rp = b - a_of(X)
        Rd = [S - Ck - Zk for S, Ck, Zk in zip(a_adj(y), C, Z)]  # want 0
        mu = inner(X, Z) / ntot

        pobj = inner(C, X)
        dobj = float(b @ y)
        pinf = float(np.max(np.abs(rp))) / (1 + float(np.max(np.abs(b)))) if m else 0.0
        dinf = max(float(np.max(np.abs(R))) for R in Rd) / (1 + norm_scale)
        gap_rel = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        current = SdpSolution(X, y, pobj, dobj, "Optimal", it, pinf, dinf, gap_rel)
        if pinf <= feas_tol and dinf <= feas_tol and gap_rel <= gap_tol:
            return current
        merit = max(pinf, dinf, gap_rel)
        if best is None or merit < best_merit:
            best, best_merit, stall = current, merit, 0
        else:
            stall += 1
        if stall >= 10:
            status = "Stalled"  # no progress near the optimum
            break

        # Every factorization of the iteration. With the NT scaling R of each
        # block (R^-1 X R^-H = R^H Z R = diag(lam)) and W = R R^H, the Schur
        # complement M_ij = Re tr(A_i W A_j W) is G_i . G_j, G_i = svec(R^H A_i R).
        schur = None  # release the last factor before making the next
        try:
            Rs, lams = zip(*[_nt_scaling(blk, Xk, Zk) for blk, Xk, Zk in zip(blocks, X, Z)])
            G = np.concatenate(
                [
                    svec(Pk, _congruence(R, Ak).reshape(m, Ck.size).view(float))
                    for Pk, Ak, Ck, R in zip(P, A, C, Rs)
                ],
                axis=1,
            )
            schur = _schur_factor(G)
        except NumericalBreakdown:
            status = "Stalled"
            break
        Lam = [lam * I for I, lam in zip(eye, lams)]
        col = [lam if blk.diag else lam[:, None] for blk, lam in zip(blocks, lams)]
        half = [(c + lam) / 2 for c, lam in zip(col, lams)]  # (lam_i + lam_j) / 2
        w = [1 / np.sqrt(c * lam) for c, lam in zip(col, lams)]  # (lam_i lam_j)^-1/2

        def directions(T: list[np.ndarray]):
            # Solve for (dX, dy, dZ) with a(dX) = rp, sum dy A - dZ = -Rd and,
            # in the scaled variables dX~ = R^-1 dX R^-H and dZ~ = R^H dZ R,
            # (Lam (dX~ + dZ~) + (dX~ + dZ~) Lam) / 2 = rhs, so dX~ + dZ~ = T
            # with T_ij = rhs_ij / half_ij. As dZ~ = sum dy R^H A R + R^H Rd R,
            # svec(dX~) = r = h - G^T dy with h = svec(T - R^H Rd R), and
            # a(dX) = G r = rp. Returns dX~ and dy.
            h = np.concatenate(
                [
                    svec(Pk, _flat(Tk - _congruence(R, Rdk)))
                    for Pk, Tk, Rdk, R in zip(P, T, Rd, Rs)
                ]
            )
            r, dy = _projected_step(*schur, h, rp)
            return [
                _unflat(rk if Pk is None else rk @ Pk, Ck)
                for Pk, rk, Ck in zip(P, (r[c] for c in cols), C)
            ], dy

        # Predictor (affine scaling): rhs = -Lam^2, so T = -Lam, and only its
        # step lengths and Mehrotra term are used, so dZ~ = T - dX~ will do.
        dXa, _ = directions([-L for L in Lam])
        dZa = [-L - dXk for L, dXk in zip(Lam, dXa)]
        ap_a, ad_a = (min(1.0, 0.95 * min(map(_max_step, w, dS))) for dS in (dXa, dZa))
        mu_aff = inner(
            [L + ap_a * dXk for L, dXk in zip(Lam, dXa)],
            [L + ad_a * dZk for L, dZk in zip(Lam, dZa)],
        ) / ntot
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-10))

        # Corrector, with the Mehrotra term symmetrized in the scaled space. Its step
        # is taken on dZ = sum dy A + Rd itself, exactly Hermitian as A, C and Z are.
        dXs, dy = directions(
            [
                (sigma * mu * I - mul(L, L) - _herm(mul(dXk, dZk))) / hk
                for mul, I, L, dXk, dZk, hk in zip(muls, eye, Lam, dXa, dZa, half)
            ]
        )
        dZ = [S + Rdk for S, Rdk in zip(a_adj(dy), Rd)]
        dZs = [_congruence(R, dZk) for dZk, R in zip(dZ, Rs)]
        tau = 0.98 if mu > 1e-7 else 0.99
        ap, ad = (min(1.0, tau * min(map(_max_step, w, dS))) for dS in (dXs, dZs))
        X = [Xk + ap * _herm(_congruence(R.conj().T, dXk)) for Xk, dXk, R in zip(X, dXs, Rs)]
        Z = [Zk + ad * dZk for Zk, dZk in zip(Z, dZ)]
        y = y + ad * dy

        if float(np.linalg.norm(y)) > 1e12 * norm_scale:
            status = "Infeasible"
            break
    return replace(best, status=status, iterations=it)
