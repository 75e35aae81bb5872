"""Worst-case error bounds and extremal families.

For candidates forming an eps-covering of the unitaries on C^d, the
optimal probabilistic-mixing error obeys

    (4 delta / d)(1 - delta / d)  <=  error  <=  eps^2,
    delta = 1 - sqrt(1 - eps^2),

and both bounds are sharp. This module evaluates the bounds, constructs
finite candidate families approaching each bound (a discrete
Weyl-Heisenberg twirl family for the lower bound; phase-dressed planar
rotations for the upper bound), and solves the axial (fixed rotation
axis) case in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _circle_hull_distance, unitary_distance
from .linalg import check_unitary, haar_unitary


@dataclass(frozen=True)
class BoundPoint:
    eps: float
    d: int
    delta: float
    lower: float
    upper: float
    weak_lower: float


def theorem1_bounds(eps: float, d: int) -> BoundPoint:
    """Tight lower/upper bounds on the worst-case mixing error."""
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    if d < 2:
        raise ValueError("d must be >= 2")
    delta = 1.0 - np.sqrt(max(0.0, 1.0 - eps * eps))
    lower = (4 * delta / d) * (1 - delta / d)
    return BoundPoint(
        eps=float(eps),
        d=int(d),
        delta=float(delta),
        lower=float(lower),
        upper=float(eps * eps),
        weak_lower=float(2 * eps * eps / d),
    )


def _weyl_heisenberg(d: int) -> list[np.ndarray]:
    """The d^2 discrete displacement operators X^a Z^b."""
    X = np.roll(np.eye(d), 1, axis=0).astype(complex)
    Z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    out = []
    Xa = np.eye(d, dtype=complex)
    for _ in range(d):
        Zb = np.eye(d, dtype=complex)
        for _ in range(d):
            out.append(Xa @ Zb)
            Zb = Zb @ Z
        Xa = Xa @ X
    return out


def lower_family(eps: float, d: int, mesh: float = 0.02, seed: int = 0) -> list[np.ndarray]:
    """Candidates at distance eps from the identity whose optimal mixture
    attains the lower bound.

    Core construction: W0 = diag(l+, l-, 1, ..., 1) with l+- =
    sqrt(1-eps^2) +- i eps, conjugated by all d^2 discrete displacement
    operators. The uniform mixture is then the discrete twirl of W0, a
    generalized-Pauli channel whose half-diamond distance from the
    identity equals the lower bound exactly; every member is at distance
    exactly eps, so no mixture can do better. A mesh of boundary diagonal
    unitaries is appended to exercise the wider family; members are
    filtered to hull distance within [sqrt(1-eps^2) - mesh, sqrt(1-eps^2)]
    so the bound premise stays intact.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0 < mesh < np.inf:
        raise ValueError("mesh must be positive and finite")
    root = np.sqrt(max(0.0, 1.0 - eps * eps))
    lam = np.concatenate([[root + 1j * eps, root - 1j * eps], np.ones(d - 2)])
    W0 = np.diag(lam)
    out = [g @ W0 @ g.conj().T for g in _weyl_heisenberg(d)]

    # Meshed diagonal supplement near the hull boundary.
    phi = np.arctan2(eps, root)  # half-opening angle of the extremal pair
    n_t = max(2, int(np.ceil(2 * np.pi / max(mesh, 1e-3) / 8)))
    rng = np.random.default_rng(seed)
    for t in np.linspace(0, 2 * np.pi, n_t, endpoint=False):
        phases = np.concatenate([[t + phi, t - phi], np.full(d - 2, t)])
        W = np.diag(np.exp(1j * phases))
        hull = _circle_hull_distance(np.exp(1j * phases))
        if root - mesh <= hull <= root + 1e-12:
            g = haar_unitary(d, rng)
            out.append(g @ W @ g.conj().T)
    return out


def upper_family(eps: float, d: int, mesh: float = 0.02, seed: int = 0) -> list[np.ndarray]:
    """Phase-dressed planar rotations: worst-case mixing error -> eps^2.

    Members are block unitaries (1 + V1) R(theta) (1 + V2) with R(theta) a
    rotation of the first two coordinates, 0 <= theta <= arccos(eps), and
    V1, V2 acting on the remaining d-1 coordinates (phases for d = 2, a
    seeded sample of U(d-1) for d >= 3). The hardest target is the
    quarter rotation R(pi/2); members closer than eps to it are dropped so
    the finite subset keeps the worst-case value at eps^2 up to mesh slack.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0 < mesh < np.inf:
        raise ValueError("mesh must be positive and finite")
    theta_max = np.arccos(eps)
    n_th = max(2, int(np.ceil(theta_max / mesh)) + 1)
    thetas = np.linspace(0.0, theta_max, n_th)

    def rot(th: float) -> np.ndarray:
        R = np.eye(d, dtype=complex)
        R[0, 0] = R[1, 1] = np.cos(th)
        R[0, 1] = -np.sin(th)
        R[1, 0] = np.sin(th)
        return R

    if d == 2:
        n_ph = max(2, int(np.ceil(2 * np.pi / mesh / 4)))
        phis = np.linspace(0, 2 * np.pi, n_ph, endpoint=False)
        dress = [np.diag([1.0, np.exp(1j * p)]).astype(complex) for p in phis]
    else:
        rng = np.random.default_rng(seed)
        dress = []
        for _ in range(8):
            V = np.eye(d, dtype=complex)
            V[1:, 1:] = haar_unitary(d - 1, rng)
            dress.append(V)

    target = rot(np.pi / 2)
    out = []
    for th in thetas:
        R = rot(th)
        for V1 in dress:
            for V2 in dress:
                W = V1 @ R @ V2
                if unitary_distance(target, W) >= eps - 1e-12:
                    out.append(W)
    return out


def upper_family_target(d: int) -> np.ndarray:
    """The hardest target for upper_family: quarter rotation of a plane."""
    R = np.eye(d, dtype=complex)
    R[0, 0] = R[1, 1] = 0.0
    R[0, 1] = -1.0
    R[1, 0] = 1.0
    return R


def axial_optimal(target_theta: float, thetas: list[float]) -> tuple[np.ndarray, float]:
    """Optimal mixing of rotations about a common axis.

    The error is half the Euclidean distance from e^{i target_theta} to the
    convex hull of {e^{i theta_x}}; the optimum is attained on a single
    vertex or one edge, giving at most two nonzero weights. Raises ValueError
    for an empty or non-finite thetas or a non-finite target_theta.
    """
    if len(thetas) == 0:
        raise ValueError("thetas must be nonempty")
    if not np.all(np.isfinite(np.append(np.asarray(thetas, dtype=float), target_theta))):
        raise ValueError("target_theta and thetas must be finite")
    z = np.exp(1j * target_theta)
    pts = np.exp(1j * np.asarray(thetas, dtype=float))
    n = len(thetas)
    best_d = np.inf
    best_p = np.zeros(n)
    for x in range(n):
        dx = abs(z - pts[x])
        if dx < best_d:
            best_d = dx
            best_p = np.zeros(n)
            best_p[x] = 1.0
    for x in range(n):
        for y in range(x + 1, n):
            a, b = pts[x], pts[y]
            ab = b - a
            denom = abs(ab) ** 2
            if denom < 1e-30:
                continue
            t = np.real((z - a) * np.conj(ab)) / denom
            if 0.0 < t < 1.0:
                dxy = abs(z - (a + t * ab))
                if dxy < best_d:
                    best_d = dxy
                    best_p = np.zeros(n)
                    best_p[x] = 1.0 - t
                    best_p[y] = t
    return best_p, float(best_d / 2)


def curve_sweep(d: int, eps_grid: list[float]) -> list[BoundPoint]:
    """BoundPoint rows for each eps in the grid."""
    return [theorem1_bounds(e, d) for e in eps_grid]
