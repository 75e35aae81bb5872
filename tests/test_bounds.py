import itertools

import numpy as np
import pytest

from usynth.bounds import (
    axial_optimal,
    lower_family,
    theorem1_bounds,
    upper_family,
    upper_family_target,
)
from usynth.channels import choi, optimal_mix, unitary_distance


def test_theorem1_eps_zero():
    bp = theorem1_bounds(0.0, 2)
    assert bp.lower == 0.0 and bp.upper == 0.0 and bp.delta == 0.0


def test_theorem1_d2_bounds_coincide():
    # for d = 2 the lower bound 2*delta*(1 - delta/2) equals eps^2 exactly
    for eps in np.linspace(0.0, 1.0, 101):
        bp = theorem1_bounds(float(eps), 2)
        assert abs(bp.lower - bp.upper) < 1e-12


def test_theorem1_bounds_keep_their_digits_at_small_eps():
    # delta = eps^2 / (1 + sqrt(1 - eps^2)) does not cancel: at d = 2 lower equals
    # upper to 4 ulps, and lower never exceeds upper.
    for eps in np.logspace(-9, 0, 91):
        for d in range(2, 9):
            bp = theorem1_bounds(float(eps), d)
            assert 0.0 < bp.lower <= bp.upper
        two = theorem1_bounds(float(eps), 2)
        assert abs(two.lower - two.upper) <= 4 * np.spacing(two.upper)


def test_theorem1_d4_example():
    bp = theorem1_bounds(0.6, 4)
    delta = 1 - np.sqrt(1 - 0.36)
    assert abs(bp.delta - delta) < 1e-12
    assert abs(bp.lower - delta * (1 - delta / 4)) < 1e-12
    assert abs(bp.upper - 0.36) < 1e-12
    assert 2 * 0.36 / 4 < bp.lower < bp.upper  # above the weaker bound 2 eps^2 / d


def test_theorem1_ordering_generic():
    for d in (2, 3, 5):
        for eps in (0.1, 0.4, 0.8):
            bp = theorem1_bounds(eps, d)
            assert bp.lower <= bp.upper + 1e-12
            assert 2 * eps * eps / d <= bp.upper + 1e-12


def test_theorem1_rejects_bad_args():
    with pytest.raises(ValueError):
        theorem1_bounds(-0.1, 2)
    with pytest.raises(ValueError):
        theorem1_bounds(0.5, 1)


@pytest.mark.parametrize("fn", [theorem1_bounds, lower_family, upper_family])
def test_bounds_require_integer_d(fn):
    for d in (2.5, 2.0, 1, "3", None):
        with pytest.raises(ValueError, match="d must be an integer >= 2"):
            fn(0.5, d)


@pytest.mark.parametrize("d,eps", [(2, 0.5), (3, 0.4)])
def test_lower_family_member_distances(d, eps):
    fam = lower_family(eps, d)
    I = np.eye(d, dtype=complex)
    # the d distinct displacement conjugates of W0 sit exactly at distance eps
    assert len(fam) == d
    for W in fam:
        assert abs(unitary_distance(I, W) - eps) < 1e-10


def test_lower_family_attains_bound_d2():
    eps = 0.5
    fam = lower_family(eps, 2)
    p, v = optimal_mix(choi(np.eye(2, dtype=complex)), [choi(W) for W in fam])
    assert abs(v - theorem1_bounds(eps, 2).lower) < 1e-6


def test_upper_family_members_at_least_eps_away():
    eps = 0.3
    for d in (2, 3, 4):
        fam = upper_family(eps, d)
        tgt = upper_family_target(d)
        dists = [unitary_distance(tgt, W) for W in fam]
        assert len(fam) == 2**d
        assert min(dists) >= eps - 1e-9
        assert abs(min(dists) - eps) < 1e-12


def test_upper_family_matches_phase_dressed_grid_d3():
    # The denser witness that the 2^d signs replace: rotations by 4 angles up
    # to arccos(eps), dressed on both sides by diag(1, e^{i a}, e^{i b}) with
    # 4 phases per coordinate (1,024 members). Both sets stay at distance
    # >= eps from the target, and both reach eps^2.
    eps, d = 0.6, 3
    tgt = upper_family_target(d)
    phis = np.linspace(0, 2 * np.pi, 4, endpoint=False)
    dress = [np.diag(np.exp(1j * np.array([0.0, a, b]))) for a in phis for b in phis]
    grid = []
    for th in np.linspace(0, np.arccos(eps), 4):
        R = np.eye(d, dtype=complex)
        R[0, 0] = R[1, 1] = np.cos(th)
        R[0, 1], R[1, 0] = -np.sin(th), np.sin(th)
        grid += [V1 @ R @ V2 for V1 in dress for V2 in dress]
    assert len(grid) == 1024
    assert min(unitary_distance(tgt, W) for W in grid) >= eps - 1e-9
    _, v_grid = optimal_mix(choi(tgt), [choi(W) for W in grid])
    _, v_fam = optimal_mix(choi(tgt), [choi(W) for W in upper_family(eps, d)])
    assert abs(v_grid - v_fam) < 1e-7
    assert abs(v_fam - eps**2) < 1e-7


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_witnesses_equal_their_group_definitions(d):
    # lower: member a is diag(roll(lam, a)), the d members are pairwise
    # distinct, and every conjugate (X^a Z^b) W0 (X^a Z^b)^dag, X the cyclic
    # shift and Z the clock, is one of them; upper: member number k is
    # D_a R D_b, (a, *signs) the k-th sign tuple of itertools.product, as
    # explicit matrix products.
    X = np.roll(np.eye(d), 1, axis=0).astype(complex)
    Z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    for eps in (0.1, 0.3, 0.6, 0.9):
        root = np.sqrt(1 - eps * eps)
        lam = np.array([root + 1j * eps, root - 1j * eps, *np.ones(d - 2)])
        fam = lower_family(eps, d)
        assert len(fam) == d
        for a, W in enumerate(fam):
            assert np.array_equal(W, np.diag(np.roll(lam, a)))
            assert not any(np.array_equal(W, V) for V in fam[:a])
        for a in range(d):
            for b in range(d):
                g = np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b)
                conj = g @ np.diag(lam) @ g.conj().T
                assert min(np.abs(W - conj).max() for W in fam) <= 1e-15

        theta = np.arccos(eps)
        R = np.eye(d, dtype=complex)
        R[0, 0] = R[1, 1] = np.cos(theta)
        R[0, 1], R[1, 0] = -np.sin(theta), np.sin(theta)
        fam = upper_family(eps, d)
        assert len(fam) == 2**d
        for W, (a, *signs) in zip(fam, itertools.product((1.0, -1.0), repeat=d)):
            D_a = np.diag([1.0, a, *np.ones(d - 2)])
            # Entry by entry: a zero may be -0.0 on one side and 0.0 on the other.
            assert np.array_equal(W, D_a @ R @ np.diag([1.0, *signs]))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_upper_family_members_keep_their_bytes(d):
    # Each member is R times the outer product of its row and column signs, built
    # here with np.r_ as the family once built it: the same bytes, -0.0 included.
    for eps in (0.1, 0.3, 0.6, 0.9):
        theta = np.arccos(eps)
        R = np.eye(d, dtype=complex)
        R[0, 0] = R[1, 1] = np.cos(theta)
        R[0, 1], R[1, 0] = -np.sin(theta), np.sin(theta)
        fam = upper_family(eps, d)
        signs = itertools.product((1.0, -1.0), repeat=d)
        assert [W.tobytes() for W in fam] == [
            (R * np.outer(np.r_[1.0, a, np.ones(d - 2)], np.r_[1.0, rest])).tobytes()
            for a, *rest in signs]


def test_upper_family_target_is_quarter_rotation():
    R = upper_family_target(3)
    assert np.allclose(R @ R.conj().T, np.eye(3))
    assert abs(R[0, 1] + 1) < 1e-12 and abs(R[1, 0] - 1) < 1e-12
    assert abs(R[2, 2] - 1) < 1e-12


def test_axial_fig3():
    thetas = [0, np.pi / 3, 2 * np.pi / 3, np.pi, 4 * np.pi / 3, 5 * np.pi / 3]
    p, v = axial_optimal(np.pi / 2, thetas)
    assert abs(v - np.sin(np.pi / 12) ** 2) < 1e-12
    assert abs(p[1] - 0.5) < 1e-12 and abs(p[2] - 0.5) < 1e-12
    assert abs(p.sum() - 1) < 1e-12


def test_axial_single_vertex_and_pair():
    p, v = axial_optimal(0.1, [0.1, 2.0])
    assert v == 0.0 and p[0] == 1.0
    p, v = axial_optimal(np.pi / 2, [0.0, np.pi])
    assert abs(v - 0.5) < 1e-12
    assert np.allclose(p, [0.5, 0.5])


def test_axial_rejects_empty():
    with pytest.raises(ValueError):
        axial_optimal(0.0, [])


@pytest.mark.parametrize("target, thetas", [(0.0, [np.nan, 1.0]), (np.nan, [0.0, 1.0]),
                                            (np.inf, [0.0, 1.0]), (0.0, [0.0, -np.inf])])
def test_axial_rejects_non_finite_angles(target, thetas):
    with pytest.raises(ValueError, match="must be finite"):
        axial_optimal(target, thetas)


def _axial_reference(target_theta, thetas):
    """Half the distance from e^{i target_theta} to the hull, by brute force:
    every vertex, and every pair's projection that falls inside the pair."""
    z = np.exp(1j * target_theta)
    pts = np.exp(1j * np.asarray(thetas))
    best = min(abs(z - w) for w in pts)
    for x in range(len(pts)):
        for y in range(x + 1, len(pts)):
            ab = pts[y] - pts[x]
            if abs(ab) ** 2 > 1e-30:
                t = np.real((z - pts[x]) * np.conj(ab)) / abs(ab) ** 2
                if 0 < t < 1:
                    best = min(best, abs(z - (pts[x] + t * ab)))
    return best / 2


def test_axial_matches_brute_force_reference():
    rng = np.random.default_rng(12)
    for case in range(600):
        n = int(rng.integers(1, 8))
        thetas = rng.uniform(-2 * np.pi, 2 * np.pi, n)
        if case % 2:
            thetas = thetas[rng.integers(0, n, n)]  # repeated angles
        target = thetas[-1] if case % 7 == 0 else rng.uniform(-2 * np.pi, 2 * np.pi)
        p, v = axial_optimal(target, list(thetas))
        assert abs(v - _axial_reference(target, thetas)) <= 1e-15
        assert np.all(p >= 0) and abs(p.sum() - 1) <= 1e-15 and np.count_nonzero(p) <= 2
        # The weights attain the value ...
        mixed = p @ np.exp(1j * thetas)
        assert abs(abs(np.exp(1j * target) - mixed) / 2 - v) <= 1e-15
        # ... and among equal angles they sit on the lowest index.
        for k in np.flatnonzero(p):
            assert k == np.flatnonzero(thetas == thetas[k])[0]
