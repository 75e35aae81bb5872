import numpy as np
import pytest

from usynth.bounds import (
    axial_optimal,
    curve_sweep,
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


def test_theorem1_d4_example():
    bp = theorem1_bounds(0.6, 4)
    delta = 1 - np.sqrt(1 - 0.36)
    assert abs(bp.delta - delta) < 1e-12
    assert abs(bp.lower - delta * (1 - delta / 4)) < 1e-12
    assert abs(bp.upper - 0.36) < 1e-12
    assert bp.weak_lower < bp.lower < bp.upper


def test_theorem1_ordering_generic():
    for d in (2, 3, 5):
        for eps in (0.1, 0.4, 0.8):
            bp = theorem1_bounds(eps, d)
            assert bp.lower <= bp.upper + 1e-12
            assert bp.weak_lower <= bp.upper + 1e-12


def test_theorem1_rejects_bad_args():
    with pytest.raises(ValueError):
        theorem1_bounds(-0.1, 2)
    with pytest.raises(ValueError):
        theorem1_bounds(0.5, 1)


@pytest.mark.parametrize("d,eps", [(2, 0.5), (3, 0.4)])
def test_lower_family_member_distances(d, eps):
    fam = lower_family(eps, d, mesh=0.05)
    I = np.eye(d, dtype=complex)
    # the d^2 core members sit exactly at distance eps; the meshed
    # supplement sits within mesh of the hull boundary, i.e. distance in
    # [eps - O(mesh), eps]
    for W in fam[: d * d]:
        assert abs(unitary_distance(I, W) - eps) < 1e-10
    for W in fam:
        dist = unitary_distance(I, W)
        assert dist <= eps + 1e-9
        assert dist >= eps - 0.12


def test_lower_family_attains_bound_d2():
    eps = 0.5
    fam = lower_family(eps, 2, mesh=0.05)
    p, v = optimal_mix(choi(np.eye(2, dtype=complex)), [choi(W) for W in fam])
    assert abs(v - theorem1_bounds(eps, 2).lower) < 1e-6


def test_upper_family_members_at_least_eps_away():
    eps = 0.3
    fam = upper_family(eps, 2, mesh=0.2)
    tgt = upper_family_target(2)
    for W in fam:
        assert unitary_distance(tgt, W) >= eps - 1e-9


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


@pytest.mark.parametrize("family", [lower_family, upper_family])
@pytest.mark.parametrize("mesh", [0.0, -0.1, np.nan, np.inf])
def test_families_reject_bad_mesh(family, mesh):
    with pytest.raises(ValueError, match="mesh must be positive"):
        family(0.5, 2, mesh=mesh)


def test_curve_sweep_rows():
    rows = curve_sweep(3, [0.1, 0.2])
    assert len(rows) == 2
    assert rows[0].d == 3 and rows[1].eps == 0.2
