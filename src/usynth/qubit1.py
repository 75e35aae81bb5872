"""Single-qubit fast path.

A single-qubit unitary channel corresponds, via the magic basis on two
qubits, to a real unit 4-vector u (unique up to sign): the Choi operator
of the channel is 2 uu^T in the magic basis. Channel distances then reduce
to elementary geometry on S^3 / {+-1}:

    half-diamond(U, V) = sqrt(1 - (u.v)^2) = sin(angle between the lines)

and for mixtures it is (1/2)||M||_1 with M = uu^T - sum_x p_x w_x w_x^T.
M has trace 0 and at most one positive eigenvalue (a rank-one PSD matrix
minus a PSD one), so (1/2)||M||_1 = lambda_max(M) >= v^T M v for a unit v:
no mixture errs less than (u.v)^2 - max_x (w_x.v)^2 = e(V)^2 - D(U, V)^2,
e(V) the distance from V, the unitary of v, to its nearest candidate and D
the half-diamond distance. At the optimum the two meet, at a vertex with at
most 4 members that the rows tied at v give in closed form. This module
provides the embedding, one key per channel (`line_keys`), those distances,
optimal mixing by pivoting on those tie sets, with no SDP (`optimal_mix_1q`),
support restriction, epsilon-coverings of (caps of) S^3, and the exact
covering radius of a net from the convex hull of +-P (`covering_radius`).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .linalg import check_probabilities, check_unitary
from .sdp import DEFAULT_GAP_TOL, SdpFailureError

KEY_DECIMALS = 8  # magic vectors equal to this many decimals, up to sign, are one channel
PIVOTS = 100  # optimal_mix_1q raises SdpFailureError past this many pivots
TIE_DOT = 1e-6  # least common dot c = w.v of an admissible tie set (_vertices)
TIE_RESIDUAL = 1e-9  # largest residual of an admissible tie set's 5 equations (_vertices)
TIE_SLACK = 1e-12  # how far a row of the tie set left out may dot above c (_pivot)


def magic_embed(U: np.ndarray) -> np.ndarray:
    """Real unit 4-vector of a single-qubit unitary (global phase removed).

    Components before phase removal: the expansion coefficients of
    (U (x) I)|Phi+> in the magic basis. Sign convention: the component of
    largest magnitude is made positive (first such index on ties).
    """
    U = check_unitary(U)
    if U.shape != (2, 2):
        raise ValueError("magic_embed expects a 2x2 unitary")
    return magic_embed_batch(U[None, :, :])[0]


def magic_embed_batch(U: np.ndarray) -> np.ndarray:
    """Magic vectors of a batch of 2x2 unitaries, shape (n, 2, 2) -> (n, 4).

    Row by row as magic_embed, without its unitarity check.
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim != 3 or U.shape[1:] != (2, 2):
        raise ValueError("expected shape (n, 2, 2)")
    c = np.empty((U.shape[0], 4), dtype=complex)
    c[:, 0] = (U[:, 0, 0] + U[:, 1, 1]) / 2
    c[:, 1] = -1j * (U[:, 0, 0] - U[:, 1, 1]) / 2
    c[:, 2] = -1j * (U[:, 1, 0] + U[:, 0, 1]) / 2
    c[:, 3] = (U[:, 1, 0] - U[:, 0, 1]) / 2
    idx = np.argmax(np.abs(c), axis=1)
    lead = np.take_along_axis(c, idx[:, None], axis=1)[:, 0]
    u = np.real(c * (np.abs(lead) / lead)[:, None])
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def line_keys(V: np.ndarray) -> np.ndarray:
    """One byte key per row of V: rows with equal keys are one channel.

    Each row is rounded to KEY_DECIMALS decimals and signed so that its
    first nonzero rounded component is positive, so v and -v share a key.
    The sign of a magic vector alone cannot do this: magic_embed takes it
    from the largest component, and a near-tie of the two largest can give
    one channel both signs. Returns a (n,) numpy void array.
    """
    R = np.round(V, KEY_DECIMALS)
    lead = np.take_along_axis(R, np.argmax(R != 0, axis=1)[:, None], axis=1)
    R = np.ascontiguousarray(R * np.sign(lead)) + 0.0  # normalize -0.0
    return R.view(np.dtype((np.void, R.itemsize * R.shape[1])))[:, 0]


def left_multiplication(Q: np.ndarray) -> np.ndarray:
    """4x4 matrices of left multiplication by magic vectors, (..., 4) -> (..., 4, 4).

    Magic vectors compose as unit quaternions: m(G V) = +-L(m(G)) m(V),
    with L = left_multiplication(m(G)) orthogonal.
    """
    a, b, c, d = np.moveaxis(np.asarray(Q, dtype=float), -1, 0)
    rows = ([a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a])
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def magic_unembed(u: np.ndarray) -> np.ndarray:
    """Single-qubit unitary (up to global phase) of a magic vector."""
    u = np.asarray(u, dtype=float)
    if u.shape != (4,) or not abs(np.sqrt(np.vdot(u, u)) - 1.0) <= 1e-10:  # vdot: silent overflow
        raise ValueError("expected a unit 4-vector")
    a, b, c, d = u.tolist()  # Python floats: numpy scalar arithmetic costs 4x the call
    return np.array(
        [[a + 1j * b, -d + 1j * c], [d + 1j * c, a - 1j * b]], dtype=complex
    )


def line_distance(U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Half-diamond distances between the channels of magic vectors, by rows.

    The sine of the angle between the lines of u and w, computed as
    s sqrt(1 - s^2 / 4) with the chord s = min(|u - w|, |u + w|): unlike
    sqrt(1 - (u.w)^2) it keeps its digits when the lines nearly coincide.
    """
    s = np.minimum(np.linalg.norm(U - W, axis=-1), np.linalg.norm(U + W, axis=-1))
    return s * np.sqrt(1.0 - s * s / 4)


def _unit(V: np.ndarray) -> np.bool_:
    """Whether every row of V (V itself, for a vector) is finite with norm 1 within 1e-8."""
    return np.all(np.abs(np.sqrt(np.einsum("...i,...i", V, V)) - 1) <= 1e-8)


def _checked(target, candidates) -> tuple[np.ndarray, np.ndarray]:
    """(u, W) as floats, after optimal_mix_1q's checks of the target and the candidates."""
    u = np.asarray(target, dtype=float)
    W = np.asarray(candidates, dtype=float)
    if u.shape != (4,) or not _unit(u):
        raise ValueError("target must be a unit 4-vector")
    if W.ndim != 2 or W.shape[1] != 4:
        raise ValueError(f"candidates must have shape (n, 4), got {W.shape}")
    if len(W) == 0:
        raise ValueError("empty candidate list")
    if not _unit(W):
        raise ValueError("candidates must be unit 4-vectors")
    return u, W


def mix_distance_1q(target: np.ndarray, candidates: np.ndarray, p: np.ndarray) -> float:
    """Half-diamond distance between a channel and a mixture of channels.

    Computed as (1/2) sum |eig| of the real symmetric 4x4 matrix
    uu^T - sum_x p(x) w_x w_x^T (difference of Choi operators over 2, in
    the magic basis). ValueError unless u and W pass optimal_mix_1q's checks
    (W may be one 4-vector) and p is a distribution over W (`check_probabilities`).
    """
    u, W = _checked(target, np.atleast_2d(candidates))
    p = check_probabilities(p)
    if p.shape != (W.shape[0],):
        raise ValueError("weights length does not match candidates")
    return _mix_distance(u, W, p)


def _mix_distance(u: np.ndarray, W: np.ndarray, p: np.ndarray) -> float:
    """mix_distance_1q on inputs already checked."""
    M = np.outer(u, u) - (W.T * p) @ W
    return float(np.sum(np.abs(np.linalg.eigvalsh(M))) / 2)


def _check_1q(u: np.ndarray, W: np.ndarray, p: np.ndarray, v: np.ndarray):
    """(upper, price, lower) of optimal_mix_1q's certificate (p, v) on checked inputs, v a
    unit 4-vector: upper = _mix_distance(u, W, p), price = (w_x.v)^2 per candidate, and
    lower = (u.v)^2 - max price, unclamped, below every mixture's error for any such v."""
    price = (W @ v) ** 2
    return _mix_distance(u, W, p), price, float((u @ v) ** 2 - price.max())


def _vertices(u: np.ndarray, S: np.ndarray, sets: np.ndarray):
    """(admissible, p, v, c) of each tie set, a row of the (m, k) index array sets (k <= 4)
    into the rows S, each signed so that its dot with u is >= 0.

    v is the unit vector with one dot c = w.v >= 0 with every row of the set: the top
    eigenvector of uu^T - ww^T, w the first row, on the null space of the differences D
    from it (one vector for 4 rows). With lam = (u.v)^2 - c^2, p solves the 5 equations
    sum_x p_x c w_x + lam v = (u.v) u and sum p = 1, so that v is an eigenvector of M = uu^T
    - sum p_x w_x w_x^T with eigenvalue lam: p = (1 - sum q, q), c D^T q = (u.v) u - lam v
    - c w by the SVD of D. Admissible: c > TIE_DOT (at c = 0 any p solves them), every
    equation holds within TIE_RESIDUAL, p >= 0 and lam >= 0, so lam is the top eigenvalue
    of M (it has at most one positive one) and v certifies it.
    """
    R = S[sets]
    w, D = R[:, 0], R[:, 1:] - R[:, :1]
    U, s, Vt = np.linalg.svd(D)
    N = Vt[:, len(s[0]) :]  # the null space of D
    if len(s[0]) < 3:
        a, b = N @ u, N @ w[..., None]
        y = np.linalg.eigh(a[..., None] * a[:, None] - b * b.transpose(0, 2, 1))[1][..., -1]
        v = np.einsum("mr,mri->mi", y, N)
    else:  # 4 rows: v is the one null vector
        v = N[:, 0]
    c = np.einsum("mi,mi->m", v, w)
    v, c = v * np.where(c < 0, -1.0, 1.0)[:, None], np.abs(c)
    uv = v @ u
    lam = uv * uv - c * c
    h = np.outer(uv, u) - lam[:, None] * v - c[:, None] * w
    sc = s * c[:, None]
    q = np.einsum("mij,mj->mi", U, np.einsum("mji,mi->mj", Vt[:, : len(s[0])], h)
                  / np.where(sc > 0, sc, np.inf))
    residual = np.abs(c[:, None] * np.einsum("mj,mji->mi", q, D) - h).max(axis=1)
    p = np.column_stack([1 - q.sum(axis=1), q])
    ok = (c > TIE_DOT) & (residual <= TIE_RESIDUAL) & (np.minimum(lam, p.min(axis=1)) >= 0)
    return ok, p, v, c


def _pivot(u: np.ndarray, S: np.ndarray, T: tuple, e: int):
    """(tie set, p over it, v) of the first admissible set S' + (e,) (`_vertices`), S' a
    subset of the tie set T of at most 3 rows, largest first and in
    itertools.combinations order, whose v dots no row of T above c + TIE_SLACK: the
    optimum over the rows of T and e. A set that left out a row pricing above it would let
    the walk cycle. SdpFailureError if no set qualifies."""
    for r in range(min(len(T), 3), -1, -1):
        sets = np.array([(*s, e) for s in combinations(T, r)])
        ok, P, V, c = _vertices(u, S, sets)
        ok &= np.abs(V @ S[list(T)].T).max(axis=1) <= c + TIE_SLACK
        if ok.any():
            i = int(np.argmax(ok))
            return tuple(sets[i].tolist()), P[i] / P[i].sum(), V[i]
    raise SdpFailureError(f"no admissible tie set of row {e} and the tie set {T}")


def optimal_mix_1q(
    target: np.ndarray, candidates: np.ndarray, gap_tol: float = DEFAULT_GAP_TOL
) -> tuple[np.ndarray, float, float, np.ndarray]:
    """Best mixture of the candidate magic vectors w_x for the target u, by tie-set pivots.

    The optimum is a vertex: its members tie at the largest price (w_x.v)^2, v its error's
    top eigenvector, and there are at most 4 (Pataki, Math. Oper. Res. 23:339, 1998); a tie
    set gives p and v in closed form (`_vertices`). With every row signed so that w.u >= 0,
    the walk starts from the nearest row, v the top eigenvector of uu^T - ww^T. Each pivot
    prices every candidate with one product, and the top-priced row e enters (`_pivot`).
    It stops when upper - lower <= gap_tol, or when e is already tied: a tied row can price
    above the others by rounding (2e-16), so the width is then at rounding level. The
    answer depends only on u, the candidates and gap_tol. Returns (p, upper, lower, v),
    the bounds from `_check_1q`:

    - upper = mix_distance_1q(u, W, p), the exact half-diamond error of the returned p,
      which has at most 4 members;
    - lower = (u.v)^2 - max_x (w_x.v)^2 = e(V)^2 - D(U, V)^2 over every candidate (see
      the module docstring): no mixture does better. It is clamped to [0, upper].

    Raises ValueError unless gap_tol is positive and finite, u is a unit 4-vector and W
    has shape (n, 4) with unit rows, n > 0; SdpFailureError after PIVOTS pivots without a
    certificate (naming the width) or at a pivot with no admissible tie set.
    """
    if not 0 < gap_tol < np.inf:
        raise ValueError("gap_tol must be positive and finite")
    u, W = _checked(target, candidates)
    S = W * np.where(W @ u < 0, -1.0, 1.0)[:, None]
    T = (int(np.argmax(S @ u)),)
    q, v = np.ones(1), _vertices(u, S, np.array([T]))[2][0]
    for pivots in range(PIVOTS + 1):
        p = np.zeros(len(W))
        p[list(T)] = q
        upper, price, lower = _check_1q(u, W, p, v)
        lower = min(max(lower, 0.0), upper)
        e = int(np.argmax(price))
        if upper - lower <= gap_tol or e in T:
            return p, upper, lower, v
        if pivots < PIVOTS:
            T, q, v = _pivot(u, S, T, e)
    raise SdpFailureError(f"no certificate after {PIVOTS} pivots: width {upper - lower:.2e} "
                          f"above gap_tol {gap_tol:.2e}")


def support_filter(target: np.ndarray, candidates: np.ndarray, eps: float) -> np.ndarray:
    """Indices of candidates within half-diamond distance 2*eps of the target.

    Restricting the mixing optimization to this set is lossless whenever
    the candidates form an eps-covering of the unitaries. ValueError unless
    0 < eps < 1/2 and the target and candidates pass mix_distance_1q's checks.
    """
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    u, W = _checked(target, np.atleast_2d(candidates))
    idx = np.flatnonzero(line_distance(u, W) <= 2 * eps)
    if idx.size == 0:
        raise ValueError(
            f"no candidate within 2*eps = {2 * eps:.6g} of the target; "
            "the covering premise is violated"
        )
    return idx


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
    the exponential map, its lattice set by the ratio cap_radius_eps / mesh_eps
    alone, keeping the points within tangent radius arcsin(cap_radius_eps) +
    arcsin(mesh_eps): one farther out is more than mesh_eps from the whole cap.
    Raises ValueError unless center is a unit 4-vector and 0 < mesh_eps <=
    cap_radius_eps < 1.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (4,) or not _unit(center):
        raise ValueError("center must be a unit 4-vector")
    if not 0 < mesh_eps <= cap_radius_eps < 1:
        raise ValueError("require 0 < mesh_eps <= cap_radius_eps < 1")

    ratio = cap_radius_eps / mesh_eps
    kappa = 0.9
    # Grid spacing 2*kappa/sqrt(3) guarantees a nearest grid point within kappa <= arcsin(1)/1
    # mesh units, and the exponential map does not stretch distances, so the tangent ball of
    # radius min((pi/2) cap, arcsin(cap) + arcsin(mesh)) holds it; all in units of mesh_eps.
    T = min((np.pi / 2) * ratio, (np.arcsin(cap_radius_eps) + np.arcsin(mesh_eps)) / mesh_eps)
    h = 2 * kappa / np.sqrt(3)
    nmax = int(np.ceil(T / h))
    ax = h * np.arange(-nmax, nmax + 1)
    G = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    G = G[np.linalg.norm(G, axis=1) <= T]
    # Scale back to actual angles.
    G = G * mesh_eps
    r = np.linalg.norm(G, axis=1)
    frame = _tangent_frame(center)
    dirs = G / np.maximum(r, 1e-300)[:, None]
    pts = np.cos(r)[:, None] * center + np.sin(r)[:, None] * (dirs @ frame)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


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
    P = P / np.linalg.norm(P, axis=1, keepdims=True)
    # Drop the points the psi = pi/2 layer repeats, up to sign.
    _, keep = np.unique(line_keys(P), return_index=True)
    return P[np.sort(keep)]


def covering_radius(points: np.ndarray, return_witness: bool = False):
    """Exact covering radius of a net of magic vectors in half-diamond distance.

    The radius is sqrt(1 - b^2), where b = min over unit v of max_j |p_j . v|
    is the offset of the facet of conv(P u -P) nearest the origin; the
    witness, that facet's unit normal, is a deepest hole of the net (a
    spherical Voronoi vertex; Brown 1979). A net of rank < 4 has radius 1.0,
    with a unit witness orthogonal to every row. Raises ValueError unless
    points is a non-empty (n, 4) array of finite unit rows (tolerance 1e-8).
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != 4 or len(P) == 0:
        raise ValueError(f"points must have shape (n, 4) with n >= 1, got {P.shape}")
    if not _unit(P):
        raise ValueError("points must be unit 4-vectors")
    _, s, Vt = np.linalg.svd(np.linalg.qr(P, mode="r"))  # R is at most 4x4
    if len(s) < 4 or s[-1] <= 1e-8:
        # max_j |p_j . v| <= s_min <= 1e-8 rounds the radius to 1.0.
        witness, rad = Vt[-1], 1.0
    else:
        # Qhull (from scipy) is imported here: loading it costs every CLI
        # command about 0.45 s and 36 MB, and only coverings need it.
        from scipy.spatial import ConvexHull

        eq = ConvexHull(np.vstack([P, -P])).equations
        witness = eq[np.argmax(eq[:, -1]), :4]
        b = float(np.max(np.abs(P @ witness)))
        rad = float(np.sqrt(max(0.0, 1.0 - b * b)))
    return (rad, witness) if return_witness else rad


def covering_radius_estimate(points, n_samples=None, seed=None, refine=None, return_witness=False):
    """Deprecated alias of `covering_radius`; the sampling arguments are ignored."""
    return covering_radius(points, return_witness=return_witness)


def sphere_covering(eps: float, seed: int = 0) -> tuple[np.ndarray, float]:
    """eps-covering of all single-qubit unitaries (S^3 mod +-).

    Returns (points, exact covering radius from `covering_radius`); the
    radius is at most 0.985 * eps. The ring spacing is calibrated so the
    radius lands in [0.95, 0.985] * eps, making the net tight: worst-case
    mixing error over the net approaches eps^2. Coarse nets quantize: on a
    0.02 grid of eps over 0.08-0.70, nine calibration steps miss the window
    at 11 of 32 values (0.22, 0.34, 0.36, 0.40-0.44, 0.54-0.60, 0.68), and a
    scan of 31 more spacings returns the net with the largest radius
    <= 0.985 * eps (0.845 * eps at eps 0.6). seed has no effect.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    lo, hi = 0.95 * eps, 0.985 * eps
    h = np.arcsin(eps)  # initial guess; calibrate below
    best = None
    for i in range(9):
        if i:
            h *= min(1.08, max(0.85, (0.97 * eps) / max(rad, 1e-9)))
        pts = _s3_net(h)
        rad = covering_radius(pts)
        if lo <= rad <= hi:
            return pts, rad
        if rad <= hi and (best is None or rad > best[0]):
            best = (rad, pts)
    # Coarse nets quantize: scan spacings and keep the largest radius <= hi.
    if len(pts) < 2000:
        for f in np.linspace(0.82, 1.12, 31):
            cand = _s3_net(h * f)
            r = covering_radius(cand)
            if r <= hi and (best is None or r > best[0]):
                best = (r, cand)
            if best is not None and best[0] >= lo:
                break
    if best is None:
        raise RuntimeError("covering calibration failed")
    return best[1], best[0]
