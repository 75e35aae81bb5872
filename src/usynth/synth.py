"""Probabilistic synthesis of single-qubit unitaries over a finite gate set.

Pipeline: enumerate distinct gate sequences up to a length budget (brute
force, deduplicated up to global phase), deterministically synthesize a
covering of a ball around the target, restrict support, and solve the
mixing SDP. A first-order baseline (minimizing the norm of the mixed
generator over the probability simplex) is included for comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import channels, qubit1
from .linalg import check_unitary, matrix_from_json, matrix_to_json


class BudgetExceededError(RuntimeError):
    pass


class EmptyPoolError(ValueError):
    pass


class CoveringUnreachableError(RuntimeError):
    def __init__(self, msg: str, achieved_radius: float):
        super().__init__(msg)
        self.achieved_radius = achieved_radius


class BranchCutError(ValueError):
    pass


@dataclass(frozen=True)
class GateSet:
    labels: tuple[str, ...]
    unitaries: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.unitaries):
            raise ValueError("labels and unitaries length mismatch")
        object.__setattr__(
            self, "unitaries", tuple(check_unitary(U) for U in self.unitaries)
        )

    @staticmethod
    def from_json(obj: dict) -> "GateSet":
        gates = obj["gates"]
        return GateSet(
            labels=tuple(g["label"] for g in gates),
            unitaries=tuple(matrix_from_json(g["matrix"]) for g in gates),
        )

    def to_json(self) -> dict:
        return {
            "gates": [
                {"label": l, "matrix": matrix_to_json(U)}
                for l, U in zip(self.labels, self.unitaries)
            ]
        }


def standard_gate_set() -> GateSet:
    """The {H, S, Sdg, T, Tdg} gate set."""
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    S = np.diag([1, 1j]).astype(complex)
    T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)
    return GateSet(
        labels=("H", "S", "Sdg", "T", "Tdg"),
        unitaries=(H, S, S.conj().T, T, T.conj().T),
    )


@dataclass(frozen=True)
class GateSequence:
    labels: tuple[str, ...]
    realized: np.ndarray  # product, leftmost label applied first
    magic: np.ndarray

    def to_json(self) -> dict:
        return {"labels": list(self.labels)}


def enumerate_sequences(
    gs: GateSet,
    max_len: int,
    dedup_tol: float = 1e-9,
    budget: int = 500000,
) -> list[GateSequence]:
    """All distinct (up to phase) gate sequences of length <= max_len.

    Breadth-first by length, deduplicated on magic vectors rounded to about
    -log10(dedup_tol) - 1 decimals. Each length is deduplicated at once: the
    rounded vector of every product is one byte key, a product is kept if
    its key is the first of its length and unseen at shorter lengths.
    Products are generated with gates in lexicographic label order, so the
    kept sequence for each unitary is the shortest, ties broken
    lexicographically by label list. Raises BudgetExceededError past
    `budget` kept sequences, before the sequences of that length are built.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    decimals = max(1, int(round(-np.log10(max(dedup_tol, 1e-12)))) - 1)
    order = sorted(range(len(gs.labels)), key=lambda i: gs.labels[i])
    glabels = [gs.labels[i] for i in order]
    gmats = np.stack([gs.unitaries[i] for i in order])
    ng = len(glabels)

    def keys_of(mv: np.ndarray) -> np.ndarray:
        r = np.round(mv, decimals) + 0.0  # normalize -0.0
        return r.view(np.dtype((np.void, r.itemsize * r.shape[1])))[:, 0]

    ident = np.eye(2, dtype=complex)
    mv0 = qubit1.magic_embed(ident)
    out = [GateSequence(labels=(), realized=ident, magic=mv0)]
    seen = keys_of(mv0[None, :])

    frontier_mats = ident[None, :, :]
    frontier_labels: list[tuple[str, ...]] = [()]
    for length in range(1, max_len + 1):
        if frontier_mats.shape[0] == 0:
            break
        # New label applied after the existing sequence: U_new = g @ U_old,
        # frontier-major, so product order is (length, labels) order.
        prod = np.einsum("gab,fbc->fgac", gmats, frontier_mats).reshape(-1, 2, 2)
        mv = qubit1.magic_embed_batch(prod)
        keys = keys_of(mv)
        _, first = np.unique(keys, return_index=True)
        first.sort()
        new = first[~np.isin(keys[first], seen)]
        if new.size and len(out) + new.size > budget:
            raise BudgetExceededError(
                f"sequence budget {budget} exceeded at length {length}"
            )
        seen = np.concatenate([seen, keys[new]])
        frontier_mats, mv = prod[new], mv[new]
        parent, gate = np.divmod(new, ng)
        frontier_labels = [
            frontier_labels[f] + (glabels[g],)
            for f, g in zip(parent.tolist(), gate.tolist())
        ]
        out.extend(
            GateSequence(labels=lab, realized=U, magic=m)
            for lab, U, m in zip(frontier_labels, frontier_mats, mv)
        )
    return out


def _nearest(P: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest row of the pool magic vectors P to each row of V.

    Returns the indices and the half-diamond errors. Ties go to the lowest
    index: in pool order, the shorter sequence, then lexicographic labels.
    """
    dots = np.abs(V @ P.T)
    idx = np.argmax(dots, axis=1)
    best = np.take_along_axis(dots, idx[:, None], axis=1)[:, 0]
    return idx, np.sqrt(np.maximum(0.0, 1.0 - np.minimum(1.0, best) ** 2))


def _pool_magic(pool: list[GateSequence]) -> np.ndarray:
    return np.stack([s.magic for s in pool])


def det_synth(
    target: np.ndarray, pool: list[GateSequence]
) -> tuple[GateSequence, float]:
    """Closest pool element to the target in half-diamond distance.

    Ties go to the shorter sequence, then lexicographic label order (the
    enumeration order of the pool).
    """
    if not pool:
        raise EmptyPoolError("empty sequence pool")
    u = qubit1.magic_embed(target) if target.ndim == 2 else np.asarray(target, float)
    idx, errs = _nearest(_pool_magic(pool), u[None, :])
    return pool[int(idx[0])], float(errs[0])


@dataclass
class SynthesisResult:
    support: list[GateSequence]
    p: np.ndarray
    det_error: float
    prob_error: float        # exact error of the mixture p: an upper bound
    prob_error_lower: float  # dual lower bound on the optimal mixing error
    eps: float           # requested accuracy
    achieved_eps: float  # certified covering radius of the 2*eps ball
    delta: float
    seed: int

    def to_json(self) -> dict:
        return {
            "support": [list(s.labels) for s in self.support],
            "p": [float(x) for x in self.p],
            "det_error": self.det_error,
            "prob_error": self.prob_error,
            "prob_error_lower": self.prob_error_lower,
            "eps": self.eps,
            "achieved_eps": self.achieved_eps,
            "delta": self.delta,
            "seed": self.seed,
        }


def prob_synth(
    target: np.ndarray,
    eps: float,
    delta: float,
    gs: GateSet,
    seed: int = 0,
    c: float = 0.5,
    c_prime: float = 0.5,
    max_len: int = 12,
    dedup_tol: float = 1e-9,
    pool: list[GateSequence] | None = None,
) -> SynthesisResult:
    """Probabilistic synthesis with certified quadratic error reduction.

    Covers the 2*eps-ball around the target with a c*eps mesh, synthesizes
    each covering point deterministically to within c_prime*eps, restricts
    to candidates within 2*eps of the target, and solves the mixing SDP to
    accuracy delta. The mixture then has half-diamond error at most
    achieved_eps**2 + delta, with achieved_eps = c*eps + (worst
    deterministic synthesis error over covering points) <= eps.

    prob_error is the exact error of the returned mixture p (an upper bound
    on the optimum); prob_error_lower is a dual lower bound: no mixture of
    the support does better (qubit1.optimal_mix_1q).

    eps must lie in (0, 1/2), so that the 2*eps-ball is a proper cap of the
    unitaries; ValueError otherwise.
    """
    if not 0 < eps < 0.5:
        raise ValueError(f"prob_synth needs 0 < eps < 1/2, got eps = {eps:g}")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if c <= 0 or c_prime <= 0 or c + c_prime > 1:
        raise ValueError("require c, c_prime > 0 with c + c_prime <= 1")
    target = check_unitary(target)
    if pool is None:
        pool = enumerate_sequences(gs, max_len, dedup_tol)
    u = qubit1.magic_embed(target)
    cover = qubit1.cap_covering(u, min(2 * eps, 0.999), c * eps)
    P = _pool_magic(pool)
    nearest, errs = _nearest(P, cover)
    worst = float(np.max(errs))
    if worst > c_prime * eps:
        raise CoveringUnreachableError(
            f"deterministic synthesis reached radius {worst:.6g} "
            f"> c'*eps = {c_prime * eps:.6g}; increase max_len or eps",
            achieved_radius=worst,
        )
    achieved = c * eps + worst

    support_idx = sorted(set(int(i) for i in nearest))
    support = [pool[i] for i in support_idx]
    W = P[support_idx]
    keep = qubit1.support_filter(u, W, eps)
    support = [support[int(i)] for i in keep]
    W = W[keep]

    p, upper, lower = qubit1.optimal_mix_1q(u, W, gap_tol=delta, feas_tol=min(delta, 1e-8))
    det_error = min(qubit1.distance_1q(u, w) for w in W)
    return SynthesisResult(
        support=support,
        p=p,
        det_error=det_error,
        prob_error=upper,
        prob_error_lower=lower,
        eps=eps,
        achieved_eps=achieved,
        delta=delta,
        seed=seed,
    )


def _principal_generator(U: np.ndarray, V: np.ndarray, branch_margin: float) -> np.ndarray:
    """Traceless H with V ~ U e^{iH} (principal branch of -i log(U^dag V))."""
    M = U.conj().T @ V
    w, B = np.linalg.eig(M)
    phases = np.angle(w)
    if np.any(np.abs(phases) > np.pi - branch_margin):
        raise BranchCutError("eigenphase too close to the branch cut at pi")
    H = (B * phases) @ np.linalg.inv(B)
    H = (H + H.conj().T) / 2
    return H - (np.trace(H) / 2) * np.eye(2)


def _vec_herm(H: np.ndarray) -> np.ndarray:
    """Isometric real vectorization of a 2x2 Hermitian matrix."""
    return np.array(
        [H[0, 0].real, H[1, 1].real, np.sqrt(2) * H[0, 1].real, np.sqrt(2) * H[0, 1].imag]
    )


def _min_norm_simplex(V: np.ndarray, max_iter: int = 10000, tol: float = 1e-9) -> np.ndarray:
    """Weights p on the simplex minimizing ||sum p_x V_x||_2.

    Frank-Wolfe with away steps, followed by an exact solve on the active
    support.
    """
    n = V.shape[0]
    G = V @ V.T
    p = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        g = G @ p  # gradient / 2
        s = int(np.argmin(g))
        active = np.flatnonzero(p > 1e-14)
        a = int(active[np.argmax(g[active])])
        # Frank-Wolfe direction vs away direction.
        fw_gap = float(p @ g - g[s])
        aw_gap = float(g[a] - p @ g)
        if max(fw_gap, aw_gap) < tol * max(1.0, float(p @ g)):
            break
        if fw_gap >= aw_gap:
            d = -p.copy()
            d[s] += 1.0
            gmax = 1.0
        else:
            d = p.copy()
            d[a] -= 1.0
            gmax = p[a] / (1.0 - p[a]) if p[a] < 1.0 else 1e16
        dGd = float(d @ G @ d)
        if dGd <= 0:
            gamma = gmax
        else:
            gamma = min(gmax, max(0.0, -float(p @ G @ d) / dGd))
        if gamma <= 0:
            break
        p = p + gamma * d
        p = np.maximum(p, 0.0)
        p /= p.sum()
    # Exact polish on the active set: minimize p'Gp s.t. sum p = 1, p >= 0,
    # dropping negative components until feasible.
    active = list(np.flatnonzero(p > 1e-12))
    while active:
        k = len(active)
        A = np.zeros((k + 1, k + 1))
        A[:k, :k] = G[np.ix_(active, active)]
        A[:k, k] = 1.0
        A[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            break
        q = sol[:k]
        if np.all(q >= -1e-12):
            cand = np.zeros(n)
            cand[active] = np.maximum(q, 0.0)
            cand /= cand.sum()
            if cand @ G @ cand <= p @ G @ p + 1e-15:
                p = cand
            break
        active = [a for a, qa in zip(active, q) if qa > 1e-12]
    return p


def campbell_mix(
    target: np.ndarray,
    candidates: list[np.ndarray],
    branch_margin: float = 1e-6,
) -> tuple[np.ndarray, float]:
    """First-order mixing baseline.

    Writes each candidate as target * exp(i H_x) with H_x traceless
    Hermitian and minimizes ||sum p_x H_x||_F over the simplex. A zero
    residual makes the mixture correct to first order, so its error is
    quadratic in the candidate distances.
    """
    if not candidates:
        raise channels.EmptyCandidatesError("empty candidate list")
    target = check_unitary(target)
    Hs = [_principal_generator(target, check_unitary(V), branch_margin) for V in candidates]
    V = np.stack([_vec_herm(H) for H in Hs])
    p = _min_norm_simplex(V)
    residual = float(np.linalg.norm(p @ V))
    return p, residual


def sample(p: np.ndarray, seed: int, n: int) -> np.ndarray:
    """n i.i.d. indices distributed as p (deterministic in seed)."""
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-8) or abs(p.sum() - 1.0) > 1e-6:
        raise ValueError("invalid probability distribution")
    p = np.maximum(p, 0.0)
    p /= p.sum()
    rng = np.random.default_rng(seed)
    return rng.choice(len(p), size=n, p=p)
