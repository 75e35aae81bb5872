import os
from typing import NamedTuple

# BLAS reads its thread count once, when numpy is first imported, so pin it
# here, before that import: the solver's small factorizations run faster on
# one thread than split over several.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from usynth import qubit1, sdp  # noqa: E402
from usynth.synth import enumerate_sequences, standard_gate_set  # noqa: E402

# Property tests draw the same examples on every run, and a slow shared
# machine does not turn a correct example into a deadline failure.
settings.register_profile("usynth", derandomize=True, deadline=None, database=None)
settings.load_profile("usynth")


@pytest.fixture(scope="session")
def std_gateset():
    return standard_gate_set()


@pytest.fixture(scope="session")
def std_pool(std_gateset):
    return enumerate_sequences(std_gateset, 12)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


class Solve(NamedTuple):
    problem: sdp.SdpProblem
    gap_tol: float
    sol: sdp.SdpSolution


@pytest.fixture
def solves(monkeypatch):
    """Every sdp.solve call that returns, in order, as a Solve; a test clears it as it needs."""
    seen, solve = [], sdp.solve

    def recording(problem, gap_tol=sdp.DEFAULT_GAP_TOL):
        sol = solve(problem, gap_tol)
        seen.append(Solve(problem, gap_tol, sol))
        return sol

    monkeypatch.setattr(sdp, "solve", recording)
    return seen


@pytest.fixture
def pivots(monkeypatch):
    """The tie set each qubit1._pivot call returns, in order: one per pivot of
    qubit1.optimal_mix_1q; a test clears it as it needs."""
    seen, pivot = [], qubit1._pivot

    def recording(*args):
        out = pivot(*args)
        seen.append(out[0])
        return out

    monkeypatch.setattr(qubit1, "_pivot", recording)
    return seen


@pytest.fixture(scope="session")
def full_cap():
    """The covering qubit1.cap_covering trims, as a reference: (points, grid norms) of every
    lattice point within tangent radius (pi/2) cap, its norm in units of mesh, in order."""

    def grid(center, cap, mesh):
        T = (np.pi / 2) * (cap / mesh)
        h = 2 * 0.9 / np.sqrt(3)
        nmax = int(np.ceil(T / h))
        ax = h * np.arange(-nmax, nmax + 1)
        G = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
        norms = np.linalg.norm(G, axis=1)
        G, norms = G[norms <= T] * mesh, norms[norms <= T]
        r = np.linalg.norm(G, axis=1)
        dirs = G / np.maximum(r, 1e-300)[:, None]
        frame = qubit1._tangent_frame(center)
        pts = np.cos(r)[:, None] * center + np.sin(r)[:, None] * (dirs @ frame)
        return pts / np.linalg.norm(pts, axis=1, keepdims=True), norms

    return grid
