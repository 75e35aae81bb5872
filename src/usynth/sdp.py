"""Small dense semidefinite-program solver.

Standard form handled here:

    maximize    tr(C X)
    subject to  tr(A_i X) = b_i   (i = 1..m)
                X >= 0, block-diagonal over the declared blocks

with the dual

    minimize    b . y
    subject to  Z = sum_i y_i A_i - C >= 0.

Blocks are either dense, which means complex Hermitian, or "diag" (a batch
of independent 1x1 blocks, i.e. a nonnegative vector). Dense blocks are
solved in complex arithmetic, with the real inner product Re tr(A X);
`real_embed` is kept as a reference lowering of each dense block to one of
twice the size whose rows have zero imaginary coordinates.

A problem is given as svec rows (`SdpProblem`). svec(M) lists the
coordinates of M's Hermitian part in the orthonormal basis E_i of
`hermitian_basis`, `width(blk)` reals: s^2 for a dense s x s block, a diag
block's s entries. Row i of `constraints` is svec(A_i) and `objective` is
svec(C) over the blocks in declared order, so Re tr(A_i X) = svec(A_i) .
svec(X); the caller writes these rows. The package's one caller is
channels._mix: d = 2 mixing pivots on tie sets with no SDP
(qubit1.optimal_mix_1q).

The solver is a primal-dual path-following interior-point method with a
Mehrotra predictor-corrector. Problems here are tiny (block sizes <= ~40,
up to a few hundred equality constraints, possibly many 1x1 blocks), so
all factorizations are dense. `solve` permutes the columns into the dense
blocks' and then the diag blocks': G0_i = svec(A_i) and gc = svec(C). X, Z,
the dual residual and the scaled directions are svec vectors in that order.

Each iteration factors once, in the Nesterov-Todd (NT) scaling (Todd, Toh
and Tutuncu, SIAM J. Optim. 8:769, 1998): per dense block, X = L_X L_X^H
and Z = L_Z L_Z^H and the SVD L_Z^H L_X = U diag(lam) V^H give
R = L_X V diag(lam)^-1/2 with R^-1 X R^-H = R^H Z R = diag(lam). The
complementarity is linearized and the step lengths are taken in these
scaled variables. In svec coordinates a block's scaling is one matrix K,
column i svec(R^H E_i R): svec(R^H M R) = K svec(M) and
svec(R M R^H) = K^T svec(M) (a diag block's K is the vector R^2). K is
Re(B^H (R^H (x) R^T) B), B the basis flattened: one broadcast product, read
at B's two nonzeros per column by one gather. So the Schur complement
M_ij = Re tr(A_i W A_j W), W = R R^H, is G G^T with
G = G0 K^T blockwise, and the primal step is svec(dX) = K^T r for
r = svec(dX~). M is not formed: with the rows of G scaled to unit norm,
G_s^T = Q T by QR, and T is the Cholesky factor of the equilibrated M; the
predictor and the corrector reuse it, solving on T itself (no inverse is
formed). The primal step is an orthogonal projection with Q, so it meets
its equality constraints to about eps * sqrt(cond(M)). Solving the normal
equations with M itself leaves a residual of eps * cond(M): near the
optimum of a degenerate problem cond(M) grows like 1/mu^2 and passes 1/eps,
and that residual becomes primal infeasibility that later steps cannot
remove. Each iteration lifts X, Z and the residual into per-block matrices
once, for the scaling; a direction's step lengths come from one eigvalsh
over every dense block, zero-padded to one size (the padding adds the
eigenvalue 0). What depends on the block shapes alone (column order, index
maps, gathers) is built once per tuple of blocks (`_setup`), and a solve
writes its rows [G0; rd] and G in place, allocated once.

The iteration starts from Mehrotra's point (Mehrotra, SIAM J. Optim.
2:575, 1992), built from one more factorization, that of the scale R = I,
whose rows are G_i = svec(A_i): the min-norm x^ with A(x^) = b, the y that
minimizes |sum y A - C| and its residual z^ = sum y A - C. Each is shifted
by max(-1.5 lam_min, START_FLOOR) I, lam_min its least eigenvalue over
every block, then X by (x^ . z^ / 2 tr z^) I and Z by (x^ . z^ / 2 tr x^) I.
The floor keeps the start off the boundary. Without it, an objective in
the span of the constraints gives z^ = 0, so x^ . z^ = 0, neither shift
moves z^, and the second shift of X divides by tr z^ = 0; when x^ . z^ is
only at rounding level, Z starts next to singular. With floors from 1e-3
to 1e-1 the mixing solves take 12% to 24% fewer iterations than from the
cold start X = Z = sqrt(norm * ntot) I; with 0.3 or 1.0 they lose a fifth
to two thirds of that saving.

The corrector aims at sigma mu, with sigma = (mu_aff / mu) ** CENTERING_EXPONENT
clipped to [1e-10, 1] and mu_aff the mu the predictor's step would reach.
Mehrotra took the cube. On these small, degenerate mixing SDPs the cube
centers too little: in tools/solve_sweep.py its mean step lengths per path
are 0.85 to 0.98, against 0.92 to 0.99 with 1.5. Mean iterations on the
problems of 40 synth1q, 100 cover and 200 mix_d3 benchmark items (seed 77),
measured while the d = 2 problems of synth1q and cover were still SDPs:

    exponent   1      1.25   1.5    1.75   2      3
    synth1q    8.52   7.83   7.62   7.76   7.90   8.38
    cover      10.12  9.15   8.75   8.67   8.65   8.87
    mix_d3     11.37  10.30  10.09  10.20  10.38  11.28

1.5 takes the fewest on synth1q and mix_d3, 1.2% more than the fewest on
cover; the sharpness witnesses and unitary diamond distances (d = 4, 5)
take 7.88 at 1.5 and 7.79 at 3.

A solve ends with one of these `SdpSolution.status` values:

- "Optimal": relative gap within `gap_tol`, and relative primal and dual
  infeasibility within min(gap_tol, FEAS_TOL), FEAS_TOL = 1e-8.
- "Stalled": ten iterations without a better merit (the largest of the
  three measures), or a numerical breakdown, any np.linalg.LinAlgError
  of an iteration's factorizations: X or Z is no longer numerically
  positive definite, or T is singular. Both happen at the limit of double
  precision near the optimum.
- "MaxIter": MAX_ITER = 200 iterations without meeting the tolerances.
- "Infeasible": the dual iterate diverges, as when no X meets the constraints.

Every iterate is checked: "Optimal" returns the first that meets the
tolerances, every other status the one with the best merit, each with its
own residuals, and `SdpSolution.trace` lists every iteration's residuals,
mu and step. `check_optimal` raises SdpFailureError, with the status and
those residuals, on any status but "Optimal".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

DEFAULT_GAP_TOL = 1e-8
FEAS_TOL = 1e-8  # the feasibility tolerance is min(gap_tol, FEAS_TOL)
START_FLOOR = 1e-2  # least first shift of Mehrotra's starting point (module docstring)
CENTERING_EXPONENT = 1.5  # sigma = (mu_aff / mu) ** CENTERING_EXPONENT (module docstring)
MAX_ITER = 200
EPS = np.finfo(float).eps


class SdpFailureError(RuntimeError):
    pass


@dataclass(frozen=True)
class Block:
    """One block of the block-diagonal variable.

    size: matrix dimension (or vector length for diag blocks), a positive integer.
    diag: True for a batch of independent 1x1 blocks stored as a real vector;
    False for a dense block, a complex Hermitian matrix.
    """

    size: int
    diag: bool = False


def width(blk: Block) -> int:
    """The number of svec coordinates of a block: s^2 dense (complex Hermitian), s diag."""
    return blk.size if blk.diag else blk.size * blk.size


@dataclass(eq=False)
class SdpProblem:
    """max objective . x subject to constraints x = rhs, x the blocks' svec coordinates.

    objective is the (n,) row svec(C), constraints the real (m, n) array of rows
    svec(A_i) and rhs the (m,) b, n the sum of `width` over the blocks in order.
    """

    blocks: list[Block]
    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray


@dataclass(eq=False)
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
    # One dict per iteration: the iterate's pinf, dinf, gap (relative) and mu, then the
    # step taken from it, sigma, ap and ad (None where the solve stopped at that iterate).
    trace: list[dict] = field(default_factory=list)


def check_optimal(sol: SdpSolution) -> SdpSolution:
    """sol if its status is "Optimal"; SdpFailureError with its residuals otherwise."""
    if sol.status != "Optimal":
        raise SdpFailureError(
            f"SDP did not converge: status {sol.status} after {sol.iterations} "
            f"iterations; best iterate pinf {sol.pinf:.2e}, dinf {sol.dinf:.2e}, "
            f"relative gap {sol.rel_gap:.2e}"
        )
    return sol


def real_embed(problem: SdpProblem) -> SdpProblem:
    """Lower each dense block to a dense block of twice the size with real rows.

    `solve` works in complex arithmetic itself; this is the reference lowering
    that tests compare it against. Each dense d x d block becomes a dense
    2d x 2d block, phi(X) = [[Re X, -Im X], [Im X, Re X]]. The embedding
    doubles traces (tr phi(A) phi(X) = 2 tr(A X)), so each dense block's
    part svec(A) of a row becomes svec(phi(A) / 2), which keeps every
    tr(A X) = b constraint and the objective value unchanged. phi(A) is
    real, so those rows have zero imaginary coordinates: for a feasible Y of
    the 2d block, Re Y is feasible with the same objective, and the optimum
    is that of the real symmetric 2d block.
    """
    rows = np.vstack((problem.objective, problem.constraints))
    edges = np.cumsum([0] + [width(blk) for blk in problem.blocks])
    blocks, parts = [], []
    for blk, a, e in zip(problem.blocks, edges[:-1], edges[1:]):
        part = rows[:, a:e]
        if not blk.diag:
            M = np.tensordot(part, hermitian_basis(blk), 1)
            blk = Block(2 * blk.size)
            part = svec(blk, np.block([[M.real, -M.imag], [M.imag, M.real]]) / 2)
        blocks.append(blk)
        parts.append(part)
    rows = np.hstack(parts)
    return SdpProblem(blocks, rows[0], rows[1:], problem.rhs)


def _nt_scaling(blk: Block, X: np.ndarray, Z: np.ndarray):
    """NT scaling (R, lam): R^-1 X R^-H = R^H Z R = diag(lam), R from the module docstring.

    A diag block's R and lam are the vectors (x/z)^1/4 and sqrt(xz).
    Raises np.linalg.LinAlgError when X or Z is not numerically positive
    definite or X Z is singular.
    """
    if blk.diag:
        return (X / Z) ** 0.25, np.sqrt(X * Z)
    LX, LZ = np.linalg.cholesky(np.array((X, Z)))
    _, lam, Vh = np.linalg.svd(LZ.conj().T @ LX)
    if not lam[-1] > 0:
        raise np.linalg.LinAlgError("X Z is singular")
    return LX @ Vh.conj().T / np.sqrt(lam), lam


@functools.lru_cache(maxsize=8)
def _stack_layout(dense: tuple[Block, ...]):
    """(shape, src, coef, (t1, c1, t2, c2), (jj, aa, bb)): svec to and from one stack.

    svec(M) lists M_aa, then sqrt(2) Re M_ab and sqrt(2) Im M_ab for a < b:
    the coordinates of M in `hermitian_basis`. The complex stack holds dense
    block j in the corner of its n x n slice (n the largest size). For v the
    blocks' svec coordinates, coordinate i is entry (aa[i], bb[i]) of block
    jj[i], the stack is `_lift(layout, v)`, and the svec of its Hermitian
    part, with F = stack.reshape(-1).view(float), is F[t1] * c1 + F[t2] * c2.
    """
    n = max([1] + [blk.size for blk in dense])
    jj, aa, bb, pp = np.array(
        [
            (j, a, b, p)
            for j, blk in enumerate(dense)
            for a, b, p in [(a, a, 0) for a in range(blk.size)]
            + [(a, b, p) for a in range(blk.size) for b in range(a + 1, blk.size) for p in (0, 1)]
        ],
        dtype=int,
    ).reshape(-1, 4).T
    t1, t2 = ((jj * n + aa) * n + bb) * 2 + pp, ((jj * n + bb) * n + aa) * 2 + pp
    r = 1 / np.sqrt(2)
    c1 = np.where(aa == bb, 1.0, r)
    c2 = np.where(aa == bb, 0.0, np.where(pp == 1, -r, r))  # M_ba = conj(M_ab)
    src, coef = np.zeros(len(dense) * n * n * 2, int), np.zeros(len(dense) * n * n * 2)
    src[t2], coef[t2] = np.arange(len(t2)), c2
    src[t1], coef[t1] = np.arange(len(t1)), c1  # after t2: a diagonal entry is its t1
    _frozen(src, coef, t1, c1, t2, c2, jj, aa, bb)
    return (len(dense), n, n), src, coef, (t1, c1, t2, c2), (jj, aa, bb)


def _frozen(*arrays):
    """The arrays, made read-only: the caches hand them to every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _lift(layout, V: np.ndarray) -> np.ndarray:
    """The stack of Hermitian matrices whose svec coordinates are V[..., :], for each V[..., :]."""
    shape, src, coef = layout[:3]
    return (V.take(src, -1) * coef).view(complex).reshape(V.shape[:-1] + shape)


@functools.lru_cache(maxsize=16)
def hermitian_basis(blk: Block) -> np.ndarray:
    """Orthonormal basis (under Re tr) of a dense block's matrices; element i has svec e_i.

    That is E_aa, then for a < b (E_ab + E_ba)/sqrt(2) and i(E_ab - E_ba)/sqrt(2): s^2
    Hermitian matrices, as every dense block is complex Hermitian. A diag block raises
    ValueError. Built once per block shape: the array is read-only.
    """
    if blk.diag:
        raise ValueError("hermitian_basis: a diag block has no matrix basis")
    layout = _stack_layout((blk,))
    return _frozen(_lift(layout, np.eye(len(layout[3][0])))[:, 0] + 0.0)[0]  # + 0.0: no -0.0


def svec(blk: Block, M: np.ndarray) -> np.ndarray:
    """svec of the Hermitian part of each matrix M[..., :, :] of a dense (complex Hermitian) block.

    A real M is read as complex. A diag block, whose svec coordinates are its
    entries, raises ValueError.
    """
    if blk.diag:
        raise ValueError("svec: a diag block's coordinates are its entries")
    _, _, _, (t1, c1, t2, c2), _ = _stack_layout((blk,))
    M = np.asarray(M, complex)
    F = M.reshape(M.shape[:-2] + (-1,)).view(float)
    return F.take(t1, -1) * c1 + F.take(t2, -1) * c2


def _kron_gather(blk: Block):
    """(idx, coef), each (2, k, k): `_nt_matrix` reads K^T as (coef * F.take(idx)).sum(0).

    F is the floats of the Kronecker product P[a, b] = R^H E_ab R. Row j of K^T
    is svec(R^H E_j R) = svec(c' P[a, b]), E_j being E_aa (c' = 1) or c E_ab +
    conj(c) E_ba (c' = 2c, c = 1/sqrt(2) or i/sqrt(2)), as svec reads Hermitian parts.
    """
    _, _, _, (t1, c1, t2, c2), (_, aa, bb) = _stack_layout((blk,))
    s = blk.size
    imag = (c2 < 0)[:, None]  # c' = i sqrt(2)
    scale = np.where(c2 == 0, 1.0, np.sqrt(2))[:, None]
    base = ((aa * s + bb) * s * s * 2)[:, None]  # the first float of P[a, b]
    idx, coef = [], []
    for t, c in ((t1, c1), (t2, c2)):
        real = t % 2 == 0  # Re(i P) = -Im P, one float on; Im(i P) = Re P, one back
        idx.append(base + t + np.where(imag, np.where(real, 1, -1), 0))
        coef.append(scale * c * np.where(imag & real, -1.0, 1.0))
    return _frozen(np.array(idx), np.array(coef))


def _nt_matrix(blk: Block, R: np.ndarray, gather) -> np.ndarray:
    """K with svec(R^H M R) = K svec(M) and svec(R M R^H) = K^T svec(M) for Hermitian M.

    Column i of K is svec(R^H E_i R): K = Re(B^H (R^H (x) R^T) B), B the basis
    flattened, read off the Kronecker product by the block's `_kron_gather`, as
    B has two nonzeros per column. A diag block's K is the vector R^2 (gather None).
    """
    if blk.diag:
        return R * R
    idx, coef = gather
    T = (R.conj()[:, None, :, None] * R[None, :, None, :]).reshape(-1).view(float).take(idx)
    T *= coef
    return (T[0] + T[1]).T


def _nt_rows(Ks: list[np.ndarray], cuts: list[slice], V: np.ndarray, adjoint=False,
             out: np.ndarray | None = None) -> np.ndarray:
    """Per block j, K_j svec(M) for each row V[..., cuts[j]] = svec(M), or K_j^T svec(M).

    Written into out, shaped as V, if given."""
    out = np.empty_like(V) if out is None else out
    for K, cut in zip(Ks, cuts):
        out[..., cut] = V[..., cut] * K if K.ndim == 1 else V[..., cut] @ (K if adjoint else K.T)
    return out


@functools.lru_cache(maxsize=16)
def _setup(blocks: tuple[Block, ...]):
    """What `solve` reads off the block shapes alone, built once per tuple and read-only.

    (order, layout, ntot, ci, cj, ev, perm, cuts, gathers): the blocks, the dense
    ones first, the dense ones' `_stack_layout` and the ntot eigenvalues over all;
    coordinate (a, b) of a block reads lam_a = lam[ci] and lam_b = lam[cj]; ev =
    svec(I); perm takes the declared columns to `order`, block j at cuts[j]; and
    each block's `_kron_gather` (None if diag).
    """
    dense = [k for k, blk in enumerate(blocks) if not blk.diag]
    order, nd = dense + [k for k, blk in enumerate(blocks) if blk.diag], len(dense)
    layout = _stack_layout(tuple(blocks[k] for k in dense))
    *_, (jj, aa, bb) = layout
    first = np.cumsum([0] + [blocks[k].size for k in order])  # each block's first lam
    tail = np.arange(first[nd], first[-1])
    ci, cj = np.concatenate((first[jj] + aa, tail)), np.concatenate((first[jj] + bb, tail))
    given = np.cumsum([0] + [width(blk) for blk in blocks])  # each block's first column
    perm = np.concatenate([np.arange(given[k], given[k + 1]) for k in order])
    edges = np.cumsum([0] + [width(blocks[k]) for k in order])
    cuts = tuple(slice(a, e) for a, e in zip(edges[:-1], edges[1:]))
    gathers = tuple(None if blocks[k].diag else _kron_gather(blocks[k]) for k in order)
    return (tuple(order), layout, int(first[-1]), *_frozen(ci, cj, (ci == cj) * 1.0, perm),
            cuts, gathers)


def _lowest(S: np.ndarray, v: np.ndarray) -> list[float]:
    """Per i, min(0, the least eigenvalue of every S[i, j] and entry of v[i]).

    S[i] stacks Hermitian matrices zero-padded to one size: padding adds the eigenvalue 0.
    """
    low = np.concatenate((np.linalg.eigvalsh(S)[..., 0], v), axis=-1).min(-1, initial=0.0)
    return low.tolist()


def _max_step(S: np.ndarray, v: np.ndarray) -> list[float]:
    """Per i, the largest a (inf if none binds) with I + a S[i, j] psd for all j, 1 + a v[i] >= 0.

    S and v as `_lowest` reads them.
    """
    return [-1.0 / a if a < 0 else np.inf for a in _lowest(S, v)]


def _schur_factor(G: np.ndarray):
    """(rows, s, Q, T, Gs) for the Schur complement M = G G^T.

    The rows of G are scaled to unit norm by s, which scales M to unit
    diagonal, and Gs = diag(s) G[rows] has Gs^T = Q T, so T is the Cholesky
    factor of the equilibrated M, found without forming M. `rows` leaves out
    each row that is zero or in the span of the rows before it (a redundant
    equality constraint); its multiplier stays 0. When every row is nonzero
    and T's diagonal clears the rank threshold, that first QR is the answer,
    and G itself, scaled in place (it is the caller's scratch), is Gs. Raises
    np.linalg.LinAlgError when T is singular.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", G, G))
    rows = np.arange(len(G)) if norms.all() else norms.nonzero()[0]
    if len(rows) < len(G):
        G, norms = G[rows], norms[rows]
    G /= norms[:, None]  # in place: G is the caller's scratch
    Q, T = np.linalg.qr(G.T)
    d = np.abs(T.diagonal())
    independent = d > max(G.shape) * EPS * d.max(initial=0.0)
    if len(d) < len(rows) or not independent.all():
        rows, G, norms = (a[: len(d)][independent] for a in (rows, G, norms))
        Q, T = np.linalg.qr(G.T)
        if not T.diagonal().all():
            raise np.linalg.LinAlgError("Schur complement is singular")
    return rows, 1.0 / norms, Q, T, G


def solve(problem: SdpProblem, gap_tol: float = DEFAULT_GAP_TOL) -> SdpSolution:
    """Solve the SDP by the interior-point method described above.

    `X` holds a complex Hermitian matrix for each dense block and a
    nonnegative vector for each diag block; `y` holds the multipliers of the
    constraints in order. No block, a bad block size or a bad gap_tol raises
    ValueError naming it; then, every shape before any entry, "constraints
    must have shape (m, n), got ...", and so for objective (n,) and rhs (m,);
    then per array "... must be real, got dtype ..." (nothing is cast) and
    "... has a non-finite entry at (i, ...)".
    The dual infeasibility is scaled by max |objective|: 1 on the mixing
    problems, whose objective is -1 on one LP entry.
    """
    blocks = problem.blocks
    if not blocks:
        raise ValueError("a problem needs at least one block")
    for k, blk in enumerate(blocks):
        if not isinstance(blk.size, (int, np.integer)) or blk.size < 1:
            raise ValueError(f"block {k}: size must be a positive integer")
    if not 0 < gap_tol < np.inf:
        raise ValueError("gap_tol must be positive and finite")
    c, A, b = (np.asarray(v) for v in (problem.objective, problem.constraints, problem.rhs))
    n = sum(map(width, blocks))
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError(f"constraints must have shape (m, {n}), got {A.shape}")
    m = len(A)
    for name, v, shape in (("objective", c, (n,)), ("rhs", b, (m,))):
        if v.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {v.shape}")
    for name, v in (("objective", c), ("constraints", A), ("rhs", b)):
        if v.dtype.kind not in "fiu":
            raise ValueError(f"{name} must be real, got dtype {v.dtype}")
        finite = np.isfinite(v)
        if not finite.all():
            at = tuple(int(i) for i in np.argwhere(~finite)[0])
            raise ValueError(f"{name} has a non-finite entry at {at}")
    feas_tol = min(gap_tol, FEAS_TOL)

    # Vectors of svec coordinates hold the dense blocks', then the diag blocks'
    # entries: block j of `order` at cuts[j] (`_setup`, cached per block shape).
    order, layout, ntot, ci, cj, ev, perm, cuts, gathers = _setup(tuple(blocks))
    in_order = [blocks[k] for k in order]
    _, _, _, (t1, c1, t2, c2), _ = layout
    kd = len(t1)
    bmax = float(np.abs(b).max(initial=0.0))
    norm_scale = max(1.0, bmax, float(np.abs(c).max(initial=0.0)))

    def block(j: int, S: np.ndarray, V: np.ndarray) -> np.ndarray:
        # Block j of `order` of each V[..., :], S = _lift(layout, V) its dense blocks' stack.
        blk = in_order[j]
        return V[..., cuts[j]] if blk.diag else S[..., j, : blk.size, : blk.size]

    # The workspace, written in place: the rows [G0; rd] and their scaled rows G = [G0; rd] K^T.
    rows0, G = np.empty((2, m + 1, n))
    G0, rd = rows0[:m], rows0[m]

    # Mehrotra's starting point (module docstring). At R = I the rows are
    # G0_i = svec(A_i), and gc = svec(C): x^ is the min-norm solution of
    # G0 x = b, y[rows] = s T^-1 Q^T gc the least-squares one of G0^T y = gc,
    # and z^ = G0^T y - gc = Q Q^T gc - gc. G0 and gc read the constraints and
    # the objective from then on: Re tr(A_i X) = G0[i] . x, Re tr(C X) = gc . x.
    G0[:], gc = A[:, perm], c[perm]
    G[:m] = G0
    rows, s, Q, T, _ = _schur_factor(G[:m])  # it scales the rows in place
    qc = Q.T @ gc
    y = np.zeros(m)
    y[rows] = s * np.linalg.solve(T, qc)
    V = np.array((Q @ np.linalg.solve(T.T, s * b[rows]), Q @ qc - gc))
    for i, low in enumerate(_lowest(_lift(layout, V), V[:, kd:])):
        V[i] += max(-1.5 * low, START_FLOOR) * ev
    xz = float(V[0] @ V[1])
    V += 0.5 * xz / (V[::-1] @ ev)[:, None] * ev
    x, z = V

    def solution(xv, y, pobj, dobj, pinf, dinf, gap_rel, status, it) -> SdpSolution:
        S = _lift(layout, xv)
        X = dict(zip(order, (block(j, S, xv) for j in range(len(order)))))
        return SdpSolution([X[k] for k in range(len(blocks))], y, pobj, dobj, status, it, pinf,
                           dinf, gap_rel, trace)

    trace: list[dict] = []
    status, best, stall = "MaxIter", None, 0  # best: the checked iterate with the smallest merit
    for it in range(1, MAX_ITER + 1):
        rp = b - G0 @ x
        np.matmul(y, G0, out=rd)
        rd -= gc
        rd -= z  # svec(sum y A - C - Z), want 0
        V = np.array((x, z, rd))
        S = _lift(layout, V)
        mu = float(x @ z) / ntot

        pobj, dobj = float(gc @ x), float(b @ y)
        pinf = float(np.abs(rp).max(initial=0.0)) / (1 + bmax)
        dinf = max(np.abs(S[2]).max(initial=0.0), np.abs(rd[kd:]).max(initial=0.0))
        dinf = float(dinf) / (1 + norm_scale)
        gap_rel = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        step = dict(pinf=pinf, dinf=dinf, gap=gap_rel, mu=mu, sigma=None, ap=None, ad=None)
        trace.append(step)
        if pinf <= feas_tol and dinf <= feas_tol and gap_rel <= gap_tol:
            return solution(x, y, pobj, dobj, pinf, dinf, gap_rel, "Optimal", it)
        merit = max(pinf, dinf, gap_rel)
        if best is None or merit < best_merit:
            best, best_merit, stall = (x, y, pobj, dobj, pinf, dinf, gap_rel), merit, 0
        else:
            stall += 1
        if stall >= 10:
            status = "Stalled"  # no progress near the optimum
            break

        # Every factorization of the iteration. With the NT scaling R of each block
        # and W = R R^H, M_ij = Re tr(A_i W A_j W) is G_i . G_j for the rows
        # G_i = svec(R^H A_i R) = K svec(A_i) per block; row m is K rd = svec(R^H Rd R).
        try:
            Ks, lams = [], []
            for j, (blk, gather) in enumerate(zip(in_order, gathers)):
                R, lam = _nt_scaling(blk, *block(j, S, V)[:2])
                Ks.append(_nt_matrix(blk, R, gather))
                lams.append(lam)
            _nt_rows(Ks, cuts, rows0, out=G)
            rows, s, Q, T, Gs = _schur_factor(G[:m])
            v = np.linalg.solve(T.T, s * rp[rows])  # G r = rp for r = h - Q (Q^T h - v)
        except np.linalg.LinAlgError:
            status = "Stalled"
            break
        lam = np.concatenate(lams)
        li, lj = lam[ci], lam[cj]
        lamv = li * ev  # svec(diag(lam))
        half = (li + lj) / 2  # (lam_i + lam_j) / 2
        w = 1 / np.sqrt(li * lj)  # (lam_i lam_j)^-1/2

        def direction(h: np.ndarray):
            # Solve for (dX, dy, dZ) with a(dX) = rp, sum dy A - dZ = -Rd and,
            # in the scaled variables dX~ = R^-1 dX R^-H and dZ~ = R^H dZ R,
            # (Lam (dX~ + dZ~) + (dX~ + dZ~) Lam) / 2 = rhs, so dX~ + dZ~ = T
            # with T_ij = rhs_ij / half_ij. As dZ~ = sum dy R^H A R + R^H Rd R,
            # svec(dX~) = r = h - G^T dy with h = svec(T - R^H Rd R) and G r = rp,
            # r a projection with Q. Returns r and u, with dy[rows] = s T^-1 u.
            u = Q.T @ h - v
            return h - Q @ u, u

        # Predictor (affine scaling): rhs = -Lam^2, so T = -Lam, and only its
        # step lengths and Mehrotra term are used, so dZ~ = T - dX~ will do.
        nlamv = -lamv
        ra, _ = direction(nlamv - G[m])
        za = nlamv - ra
        V = np.array((ra, za, ra * w, za * w))
        S = _lift(layout, V)
        ap_a, ad_a = (min(1.0, 0.95 * a) for a in _max_step(S[2:], V[2:, kd:]))
        mu_aff = float((lamv + ap_a * ra) @ (lamv + ad_a * za)) / ntot
        ratio = max(mu_aff / mu, 0.0)  # < 0 only by rounding, where ** would return a complex
        sigma = min(1.0, max(ratio ** CENTERING_EXPONENT, 1e-10))

        # Corrector, with the Mehrotra term symmetrized in the scaled space. Its
        # step is taken on dZ~ = R^H dZ R for dZ = sum dy A + Rd itself:
        # svec(dZ~) = G^T dy + svec(R^H Rd R), with G^T dy = Gs^T t.
        dxdz = ra * za
        F = (S[0] @ S[1]).reshape(-1).view(float)  # the padded stack's svec, as in svec
        dxdz[:kd] = F[t1] * c1 + F[t2] * c2
        r, u = direction((sigma * mu * ev - lamv * lamv - dxdz) / half - G[m])
        t = np.linalg.solve(T, u)
        dy = np.zeros(m)
        dy[rows] = s * t
        V = np.array((r * w, (t @ Gs + G[m]) * w))
        tau = 0.98 if mu > 1e-7 else 0.99
        ap, ad = (min(1.0, tau * a) for a in _max_step(_lift(layout, V), V[:, kd:]))
        x = x + ap * _nt_rows(Ks, cuts, r, adjoint=True)  # svec(dX) = svec(R dX~ R^H) = K^T r
        z = z + ad * (dy @ G0 + rd)
        y = y + ad * dy
        step.update(sigma=sigma, ap=ap, ad=ad)

        if float(np.sqrt(y @ y)) > 1e12 * norm_scale:
            status = "Infeasible"
            break
    return solution(*best, status, it)
