"""Worst-case error bounds and extremal families.

For candidates forming an eps-covering of the unitaries on C^d, the
optimal probabilistic-mixing error obeys

    (4 delta / d)(1 - delta / d)  <=  error  <=  eps^2,
    delta = 1 - sqrt(1 - eps^2),

and both bounds are sharp. This module evaluates the bounds, solves the
axial (fixed rotation axis) case in closed form, and builds one exact
finite witness per bound: a candidate set whose nearest member is at
distance eps from a target and whose optimal mixing error equals the
bound. The lower witness is the d distinct Weyl-Heisenberg conjugates of
one extremal diagonal unitary, the cyclic shifts of its diagonal; the upper
witness is the 2^d copies of the planar rotation by arccos(eps) with signs
on their rows and columns.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoundPoint:
    eps: float
    d: int
    delta: float
    lower: float
    upper: float


def _check_d(d: int) -> None:
    if not isinstance(d, numbers.Integral) or d < 2:
        raise ValueError(f"d must be an integer >= 2, got {d!r}")


def theorem1_bounds(eps: float, d: int) -> BoundPoint:
    """Tight lower/upper bounds on the worst-case mixing error.

    delta is eps^2 / (1 + sqrt(1 - eps^2)), which does not cancel at small eps;
    lower is clamped to at most upper, which it equals at d = 2.
    """
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    _check_d(d)
    delta = eps * eps / (1.0 + np.sqrt(max(0.0, 1.0 - eps * eps)))
    lower = min((4 * delta / d) * (1 - delta / d), eps * eps)  # at most upper against rounding
    return BoundPoint(
        eps=float(eps),
        d=int(d),
        delta=float(delta),
        lower=float(lower),
        upper=float(eps * eps),
    )


def lower_family(eps: float, d: int) -> list[np.ndarray]:
    """The d distinct displacement conjugates of W0, a witness of the lower bound.

    W0 = diag(lam), lam = (l+, l-, 1, ..., 1) with l+- = sqrt(1-eps^2) +- i eps,
    sits at distance exactly eps from the identity, and so does each
    conjugate g W0 g^dag by a displacement operator g = X^a Z^b: Z^b is
    diagonal and commutes with W0, and the cyclic shift X^a moves entry j to
    j + a, so g W0 g^dag = diag(roll(lam, a)), member a. The d^2 conjugates
    are these d, each d times, so the uniform mixture of the d is that of
    the d^2: the discrete twirl of W0, a generalized-Pauli channel whose
    half-diamond distance from the identity equals the lower bound
    (4 delta / d)(1 - delta / d). So this finite candidate set has its nearest
    member at distance eps and optimal mixing error equal to the lower bound.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    _check_d(d)
    root = np.sqrt(max(0.0, 1.0 - eps * eps))
    lam = np.concatenate([[root + 1j * eps, root - 1j * eps], np.ones(d - 2)])
    return [np.diag(np.roll(lam, a)) for a in range(d)]


def _rotation(c: float, s: float, d: int) -> np.ndarray:
    """[[c, -s], [s, c]] on the first coordinate plane of C^d, identity elsewhere."""
    R = np.eye(d, dtype=complex)
    R[0, 0] = R[1, 1] = c
    R[0, 1], R[1, 0] = -s, s
    return R


def upper_family(eps: float, d: int) -> list[np.ndarray]:
    """The 2^d sign-dressed rotations D_a R D_b, a witness of the upper bound.

    R is the rotation by theta = arccos(eps) of the first coordinate plane
    (identity elsewhere), D_a = diag(1, a, 1, ..., 1) and D_b = diag(1, b,
    s_2, ..., s_{d-1}), over all signs a, b, s_k in {+1, -1}; the D are
    diagonal, so D_a R D_b is R with its rows and columns times their signs.
    Every member is at distance >= eps from upper_family_target(d), the
    quarter rotation of that plane, and R itself is at exactly eps. The
    optimal mixing error of this finite candidate set equals eps^2
    (channels.optimal_mix certifies it within 4.5e-9 at d = 2 to 4, 2.1e-8 at
    d = 5 and 3.5e-8 at d = 6, eps in {0.1, 0.3, 0.6, 0.9}; it is not proved
    here). At d = 2 the lower bound equals eps^2, so there this witness is
    also the optimum over every candidate set at distance >= eps. Whether
    every eps-covering at d >= 3 has a target at error eps^2 is not shown here.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    _check_d(d)
    theta = np.arccos(eps)
    R = _rotation(np.cos(theta), np.sin(theta), d)
    return [R * np.outer((1.0, a, *(1.0,) * (d - 2)), (1.0, *signs))
            for a, *signs in itertools.product((1.0, -1.0), repeat=d)]


def upper_family_target(d: int) -> np.ndarray:
    """The hardest target for upper_family: quarter rotation of a plane."""
    return _rotation(0.0, 1.0, d)


def axial_optimal(target_theta: float, thetas: list[float]) -> tuple[np.ndarray, float]:
    """Optimal mixing of rotations about a common axis.

    The error is half the distance from z = e^{i target_theta} to the convex
    hull of {e^{i theta_x}}. From z, on the unit circle, the hull shows one
    edge: the chord from the nearest point behind z to the nearest one ahead
    (the lowest index among equal angles). The optimum is z's projection on
    it, clipped to its ends: at most two nonzero weights. Raises ValueError
    for an empty or non-finite thetas or a non-finite target_theta.
    """
    theta = np.asarray(thetas, dtype=float)
    if len(theta) == 0:
        raise ValueError("thetas must be nonempty")
    if not np.all(np.isfinite(np.append(theta, target_theta))):
        raise ValueError("target_theta and thetas must be finite")
    z = np.exp(1j * target_theta)
    pts = np.exp(1j * theta)
    ahead = np.mod(theta - target_theta, 2 * np.pi)
    x, y = sorted((int(np.argmax(ahead)), int(np.argmin(ahead))))  # the chord's ends
    dist = abs(z - pts[x]), abs(z - pts[y])
    s = float(dist[1] < dist[0])  # the weight on y: the nearer end, x on a tie
    best = dist[int(s)]
    ab = pts[y] - pts[x]
    if abs(ab) ** 2 >= 1e-30:
        t = np.real((z - pts[x]) * np.conj(ab)) / abs(ab) ** 2
        d = abs(z - (pts[x] + t * ab))
        if 0.0 < t < 1.0 and d < best:
            s, best = t, d
    p = np.zeros(len(pts))
    p[x] += 1.0 - s
    p[y] += s
    return p, float(best / 2)
