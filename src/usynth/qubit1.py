"""Single-qubit fast path.

A single-qubit unitary channel corresponds, via the magic basis on two
qubits, to a real unit 4-vector u (unique up to sign): the Choi operator
of the channel is 2 uu^T in the magic basis. Channel distances then reduce
to elementary geometry on S^3 / {+-1}:

    half-diamond(U, V) = sqrt(1 - (u.v)^2) = sin(angle between the lines)

and for mixtures it is (1/2)||M||_1 with M = uu^T - sum_x p_x w_x w_x^T.
M has trace 0 and at most one positive eigenvalue (a rank-one PSD matrix
minus a PSD one), so (1/2)||M||_1 = lambda_max(M), and optimal mixing is
an SDP with one real 4x4 PSD block S = tI - M. This module provides the
embedding, those distances, optimal mixing (`optimal_mix_1q`), support
restriction, and epsilon-coverings of (caps of) S^3.
"""

from __future__ import annotations

import numpy as np

from . import channels, sdp
from .linalg import check_unitary


class EmptySupportError(ValueError):
    pass


def magic_embed(U: np.ndarray) -> np.ndarray:
    """Real unit 4-vector of a single-qubit unitary (global phase removed).

    Components before phase removal: the expansion coefficients of
    (U (x) I)|Phi+> in the magic basis. Sign convention: the component of
    largest magnitude is made positive (first such index on ties).
    """
    U = check_unitary(U)
    if U.shape != (2, 2):
        raise ValueError("magic_embed expects a 2x2 unitary")
    return _embed_batch(U[None, :, :])[0]


def _embed_batch(U: np.ndarray) -> np.ndarray:
    """Magic vectors for a batch of 2x2 unitaries, shape (n, 2, 2) -> (n, 4)."""
    c = np.empty((U.shape[0], 4), dtype=complex)
    c[:, 0] = (U[:, 0, 0] + U[:, 1, 1]) / 2
    c[:, 1] = -1j * (U[:, 0, 0] - U[:, 1, 1]) / 2
    c[:, 2] = -1j * (U[:, 1, 0] + U[:, 0, 1]) / 2
    c[:, 3] = (U[:, 1, 0] - U[:, 0, 1]) / 2
    idx = np.argmax(np.abs(c), axis=1)
    lead = np.take_along_axis(c, idx[:, None], axis=1)[:, 0]
    u = np.real(c * (np.abs(lead) / lead)[:, None])
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def magic_embed_batch(U: np.ndarray) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 3 or U.shape[1:] != (2, 2):
        raise ValueError("expected shape (n, 2, 2)")
    return _embed_batch(U)


def magic_unembed(u: np.ndarray) -> np.ndarray:
    """Single-qubit unitary (up to global phase) of a magic vector."""
    u = np.asarray(u, dtype=float)
    if u.shape != (4,) or abs(np.linalg.norm(u) - 1.0) > 1e-10:
        raise ValueError("expected a unit 4-vector")
    a, b, c, d = u
    return np.array(
        [[a + 1j * b, -d + 1j * c], [d + 1j * c, a - 1j * b]], dtype=complex
    )


def distance_1q(u: np.ndarray, w: np.ndarray) -> float:
    """Half-diamond distance between the channels of two magic vectors."""
    dot = min(1.0, abs(float(np.dot(u, w))))
    return float(np.sqrt(max(0.0, 1.0 - dot * dot)))


def mix_distance_1q(target: np.ndarray, candidates: np.ndarray, p: np.ndarray) -> float:
    """Half-diamond distance between a channel and a mixture of channels.

    Computed as (1/2) sum |eig| of the real symmetric 4x4 matrix
    uu^T - sum_x p(x) w_x w_x^T (difference of Choi operators over 2, in
    the magic basis).
    """
    u = np.asarray(target, dtype=float)
    W = np.atleast_2d(np.asarray(candidates, dtype=float))
    p = np.asarray(p, dtype=float)
    if p.shape != (W.shape[0],):
        raise ValueError("weights length does not match candidates")
    M = np.outer(u, u) - (W.T * p) @ W
    return float(np.sum(np.abs(np.linalg.eigvalsh(M))) / 2)


def optimal_mix_1q(
    target: np.ndarray,
    candidates: np.ndarray,
    gap_tol: float = sdp.DEFAULT_GAP_TOL,
    feas_tol: float = sdp.DEFAULT_FEAS_TOL,
) -> tuple[np.ndarray, float, float]:
    """Best mixture of the candidate magic vectors w_x for the target u.

    Solves max -t subject to S - tI - sum_x p_x w_x w_x^T = -uu^T (taken
    against the 10 basis matrices E_k of 4x4 real symmetric matrices) and
    sum p = 1, with S >= 0, p >= 0, t >= 0. Returns (p, upper, lower):

    - upper = lambda_max(uu^T - sum p w w^T) at the returned p, the exact
      half-diamond error of that mixture;
    - lower = u^T Y u - max_x w_x^T Y w_x with Y = sum y_k E_k from the dual
      multipliers of the basis rows, clipped to PSD and scaled to trace 1,
      a dual feasible point: no mixture does better.

    Raises ValueError unless u is a unit 4-vector and W has shape (n, 4)
    with unit rows, EmptyCandidatesError for n = 0 and SdpFailureError when
    the solve does not reach the tolerances.
    """
    u = np.asarray(target, dtype=float)
    W = np.asarray(candidates, dtype=float)
    if u.shape != (4,) or not abs(np.linalg.norm(u) - 1) <= 1e-8:
        raise ValueError("target must be a unit 4-vector")
    if W.ndim != 2 or W.shape[1] != 4:
        raise ValueError(f"candidates must have shape (n, 4), got {W.shape}")
    if len(W) == 0:
        raise channels.EmptyCandidatesError("empty candidate list")
    if not np.all(np.abs(np.linalg.norm(W, axis=1) - 1) <= 1e-8):
        raise ValueError("candidates must be unit 4-vectors")
    E = channels._hermitian_basis(4)
    E = E[~np.any(E.imag, axis=(1, 2))].real  # the 10 real symmetric ones
    wEw = np.einsum("kab,xa,xb->kx", E, W, W)  # w_x^T E_k w_x
    constraints = [
        sdp.Constraint(coeffs={0: Ek, 1: -wk, 2: -np.trace(Ek)[None]}, rhs=-float(u @ Ek @ u))
        for Ek, wk in zip(E, wEw)
    ]
    constraints.append(sdp.Constraint(coeffs={1: np.ones(len(W))}, rhs=1.0))
    blocks = [sdp.Block(size=4), sdp.Block(size=len(W), diag=True), sdp.Block(size=1, diag=True)]
    problem = sdp.SdpProblem(blocks, [None, None, np.array([-1.0])], constraints)
    sol = channels._check_solution(sdp.solve(problem, gap_tol=gap_tol, feas_tol=feas_tol))
    p = np.maximum(sol.X[1], 0.0)
    # Within the gap tolerance the best single candidate can beat the iterate.
    P = np.vstack([p / p.sum(), np.eye(len(W))[np.argmax(np.abs(W @ u))]])
    tops = np.linalg.eigvalsh(np.outer(u, u) - np.einsum("jx,xa,xb->jab", P, W, W))[:, -1]
    p, upper = P[np.argmin(tops)], float(np.min(tops))
    lam, V = np.linalg.eigh(np.einsum("k,kab->ab", sol.y[: len(E)], E))
    Y = (V * np.maximum(lam, 0.0)) @ V.T  # clipped to PSD, scaled to trace 1 below
    lower = float(u @ Y @ u - np.max(np.einsum("xa,ab,xb->x", W, Y, W))) / float(np.trace(Y))
    return p, upper, lower


def support_filter(target: np.ndarray, candidates: np.ndarray, eps: float) -> np.ndarray:
    """Indices of candidates within half-diamond distance 2*eps of the target.

    Restricting the mixing optimization to this set is lossless whenever
    the candidates form an eps-covering of the unitaries.
    """
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    u = np.asarray(target, dtype=float)
    W = np.atleast_2d(np.asarray(candidates, dtype=float))
    dist = np.sqrt(np.maximum(0.0, 1.0 - np.minimum(1.0, np.abs(W @ u)) ** 2))
    idx = np.flatnonzero(dist <= 2 * eps)
    if idx.size == 0:
        raise EmptySupportError(
            f"no candidate within 2*eps = {2 * eps:.6g} of the target; "
            "the covering premise is violated"
        )
    return idx


def _canonical_sign(V: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(V), axis=1)
    lead = np.take_along_axis(V, idx[:, None], axis=1)[:, 0]
    return V * np.where(lead < 0, -1.0, 1.0)[:, None]


def _tangent_frame(center: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space of S^3 at center (3 rows)."""
    M = np.eye(4) - np.outer(center, center)
    # Orthonormalize the projections of the standard basis.
    Q, R = np.linalg.qr(M.T)
    cols = [i for i in range(4) if abs(R[i, i]) > 1e-8][:3]
    return Q[:, cols].T


def cap_covering(center: np.ndarray, cap_radius_eps: float, mesh_eps: float) -> np.ndarray:
    """mesh_eps-covering (in half-diamond distance) of the cap_radius_eps-ball.

    Built as a cubic grid in the tangent space at the center pushed through
    the exponential map. The grid extent and spacing are chosen from the
    ratio cap_radius_eps / mesh_eps alone, so the point count at a fixed
    ratio does not depend on the absolute scale.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (4,) or abs(np.linalg.norm(center) - 1.0) > 1e-8:
        raise ValueError("center must be a unit 4-vector")
    if cap_radius_eps == 0:
        return _canonical_sign(center[None, :])
    if not 0 < mesh_eps <= cap_radius_eps < 1:
        raise ValueError("require 0 < mesh_eps <= cap_radius_eps < 1")

    ratio = cap_radius_eps / mesh_eps
    kappa = 0.9
    # Tangent-ball radius (pi/2)*ratio covers arcsin(cap) <= (pi/2)*cap;
    # grid spacing 2*kappa/sqrt(3) guarantees a nearest grid point within
    # kappa <= arcsin(1)/1 mesh units; both are in units of mesh_eps.
    T = (np.pi / 2) * ratio
    h = 2 * kappa / np.sqrt(3)
    nmax = int(np.ceil(T / h))
    ax = h * np.arange(-nmax, nmax + 1)
    G = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    G = G[np.linalg.norm(G, axis=1) <= T]
    # Scale back to actual angles.
    G = G * mesh_eps
    r = np.linalg.norm(G, axis=1)
    frame = _tangent_frame(center)
    with np.errstate(invalid="ignore", divide="ignore"):
        dirs = np.where(r[:, None] > 0, G / np.maximum(r, 1e-300)[:, None], 0.0)
    pts = np.cos(r)[:, None] * center + np.sin(r)[:, None] * (dirs @ frame)
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return _canonical_sign(pts)


def _s2_net(beta: float) -> np.ndarray:
    """Lat-long covering of S^2 with ring spacing beta (angles)."""
    n_th = max(1, int(np.ceil(np.pi / beta)))
    out = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    for i in range(1, n_th):
        th = np.pi * i / n_th
        s = np.sin(th)
        n_ph = max(1, int(np.ceil(2 * np.pi * s / beta)))
        ph = 2 * np.pi * np.arange(n_ph) / n_ph
        ring = np.stack([s * np.cos(ph), s * np.sin(ph), np.full(n_ph, np.cos(th))], axis=1)
        out.append(ring)
    return np.vstack([np.atleast_2d(o) for o in out])


def _s3_net(h: float) -> np.ndarray:
    """Ring-product net on S^3 (mod +-) with nominal angular spacing h."""
    n_psi = max(1, int(np.ceil((np.pi / 2) / h)))
    pts = [np.array([[1.0, 0.0, 0.0, 0.0]])]
    for i in range(1, n_psi + 1):
        psi = (np.pi / 2) * i / n_psi
        s = np.sin(psi)
        ring = _s2_net(h / max(s, 1e-12))
        layer = np.concatenate(
            [np.full((ring.shape[0], 1), np.cos(psi)), s * ring], axis=1
        )
        pts.append(layer)
    P = np.vstack(pts)
    P = _canonical_sign(P / np.linalg.norm(P, axis=1, keepdims=True))
    # Dedup identified points (psi = pi/2 hemisphere overlap) up to sign: a
    # near-tie of the two largest components can give p and -p opposite
    # canonical signs, so the keys take the sign of the first nonzero
    # rounded component.
    R = np.round(P, 9) + 0.0
    lead = np.take_along_axis(R, np.argmax(R != 0, axis=1)[:, None], axis=1)
    _, keep = np.unique(R * np.sign(lead) + 0.0, axis=0, return_index=True)
    return P[np.sort(keep)]


def _deepen_hole(v: np.ndarray, P: np.ndarray, iters: int = 200) -> np.ndarray:
    """Local minimization of max_j |v . p_j| (push v into the deepest hole)."""
    v = v / np.linalg.norm(v)
    step = 0.1
    cur = float(np.max(np.abs(v @ P.T)))
    for _ in range(iters):
        dots = v @ P.T
        m = np.max(np.abs(dots))
        active = np.abs(dots) >= m - 1e-3 * (1 - m + 1e-12)
        # Move away from the (signed) active net points, projected to the
        # tangent space at v.
        g = (np.sign(dots[active])[:, None] * P[active]).mean(axis=0)
        g = g - np.dot(g, v) * v
        ng = np.linalg.norm(g)
        if ng < 1e-14:
            break
        cand = v - step * g / ng
        cand /= np.linalg.norm(cand)
        new = float(np.max(np.abs(cand @ P.T)))
        if new < cur:
            v, cur = cand, new
            step = min(0.1, step * 1.3)
        else:
            step *= 0.5
            if step < 1e-10:
                break
    return v


def covering_radius_estimate(
    points: np.ndarray,
    n_samples: int = 400000,
    seed: int = 0,
    refine: int = 100,
    return_witness: bool = False,
):
    """Sampled estimate of the covering radius in half-diamond distance.

    Draws uniform points on S^3 (in chunks), keeps the deepest holes, and
    locally maximizes the hole depth from each of them. The result is a
    lower bound on the true covering radius that is tight in practice.
    """
    P = np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed)
    keep_v = []
    keep_d = []
    # Keep the S @ P.T work matrix around ~100 MB.
    chunk = max(2000, int(1.2e7 / max(1, P.shape[0])))
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        S = rng.standard_normal((m, 4))
        S /= np.linalg.norm(S, axis=1, keepdims=True)
        near = np.max(np.abs(S @ P.T), axis=1)
        order = np.argsort(near)[:refine]
        keep_v.append(S[order])
        keep_d.append(near[order])
        done += m
    V = np.vstack(keep_v)
    D = np.concatenate(keep_d)
    order = np.argsort(D)[:refine]
    best = float(D[order[0]])
    witness = V[order[0]]
    for v in V[order]:
        v = _deepen_hole(v, P)
        depth = float(np.max(np.abs(v @ P.T)))
        if depth < best:
            best = depth
            witness = v
    rad = float(np.sqrt(max(0.0, 1.0 - best * best)))
    if return_witness:
        return rad, witness
    return rad


def sphere_covering(eps: float, seed: int = 0) -> tuple[np.ndarray, float]:
    """eps-covering of all single-qubit unitaries (S^3 mod +-).

    Returns (points, estimated covering radius). The ring spacing is
    calibrated so the sampled covering radius lands just below eps, making
    the net tight: worst-case mixing error over the net approaches eps^2.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    lo, hi = 0.95 * eps, 0.985 * eps
    h = np.arcsin(eps)  # initial guess; calibrate below
    pts = _s3_net(h)
    rad = covering_radius_estimate(pts, seed=seed)
    best = (rad, pts) if rad <= hi else None
    for _ in range(8):
        if lo <= rad <= hi:
            return pts, rad
        h *= min(1.08, max(0.85, (0.97 * eps) / max(rad, 1e-9)))
        pts = _s3_net(h)
        rad = covering_radius_estimate(pts, seed=seed)
        if rad <= hi and (best is None or rad > best[0]):
            best = (rad, pts)
    if lo <= rad <= hi:
        return pts, rad
    # Coarse nets quantize: scan spacings and keep the largest radius <= hi.
    if len(pts) < 2000:
        for f in np.linspace(0.82, 1.12, 31):
            cand = _s3_net(h * f)
            r = covering_radius_estimate(cand, seed=seed)
            if r <= hi and (best is None or r > best[0]):
                best = (r, cand)
            if best is not None and best[0] >= lo:
                break
    if best is None:
        raise RuntimeError("covering calibration failed")
    return best[1], best[0]
