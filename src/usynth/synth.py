"""Probabilistic synthesis of single-qubit unitaries over a finite gate set.

Pipeline: enumerate distinct gate sequences up to a length budget into a
Pool, their labels and magic vectors (brute force over quaternion
products, one row per channel, keyed by qubit1.line_keys);
deterministically synthesize a C*eps covering of a ball around the target
over the pool to within C_PRIME*eps (C = C_PRIME = 1/2), restrict
support, and solve the mixing SDP to relative gap delta. The first-order
baseline of Campbell and Hastings is included for comparison: it works on
the candidates' channels (magic vectors, not matrices with a global
phase) and finds the exact minimum-norm mixture of their generators with
one nonnegative least-squares solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qubit1
from .linalg import check_probabilities, check_unitary, matrix_from_json

C = 0.5  # covering mesh of prob_synth, as a fraction of eps
C_PRIME = 0.5  # deterministic synthesis radius of prob_synth, as a fraction of eps
BUDGET = 500000  # the most sequences enumerate_sequences keeps


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
        if not self.labels:
            raise ValueError("a gate set needs at least one gate")
        if not all(isinstance(l, str) for l in self.labels):
            raise ValueError("gate labels must be strings")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("gate labels must be distinct")
        unitaries = tuple(check_unitary(U) for U in self.unitaries)
        if any(U.shape != (2, 2) for U in unitaries):
            raise ValueError("gates must be 2x2 single-qubit unitaries")
        object.__setattr__(self, "unitaries", unitaries)

    @staticmethod
    def from_json(obj: dict) -> "GateSet":
        """The gate set of {"gates": [{"label": ..., "matrix": ...}, ...]}.

        Each matrix is in linalg.matrix_to_json's format; ValueError naming
        the format on other input.
        """
        try:
            gates = obj["gates"]
            labels = tuple(g["label"] for g in gates)
            unitaries = tuple(matrix_from_json(g["matrix"]) for g in gates)
        except (TypeError, KeyError):
            raise ValueError('expected {"gates": [{"label": ..., "matrix": ...}, ...]}') from None
        return GateSet(labels=labels, unitaries=unitaries)


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
class Pool:
    """Gate sequences and their magic vectors, row i belonging to labels[i].

    Each label tuple lists gates in the order they act: the leftmost label
    acts first, so ("H", "T") realizes T @ H. magic is a read-only (n, 4)
    float array of unit vectors with no sign rule (u and -u are one
    channel). Raises EmptyPoolError for n = 0 and ValueError when the
    shapes do not line up.
    """

    labels: tuple[tuple[str, ...], ...]
    magic: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        magic = np.array(self.magic, dtype=float)
        if magic.shape != (len(labels), 4):
            raise ValueError(f"magic must have shape ({len(labels)}, 4), got {magic.shape}")
        if not labels:
            raise EmptyPoolError("empty sequence pool")
        magic.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "magic", magic)

    def __len__(self) -> int:
        return len(self.labels)


def enumerate_sequences(gs: GateSet, max_len: int) -> Pool:
    """All distinct (up to phase) gate sequences of length <= max_len.

    Breadth-first by length, one row per channel. Each length is one real
    GEMM of the frontier's magic vectors with every gate's quaternion left
    multiplication (`qubit1.left_multiplication`), rows renormalized and
    carrying no sign rule. Each product's magic vector has one key,
    `qubit1.line_keys` (the same for u and -u), and each length makes one
    pass in product order over its keys against the set of keys seen so
    far: a product is kept, and its key added, if the key is not in the
    set. So a product is kept if its key is the first of its length and
    unseen at shorter lengths. Products are generated with gates in
    lexicographic label order, so the kept sequence for each unitary is
    the shortest, ties broken lexicographically by label list. Raises
    BudgetExceededError past BUDGET kept sequences, before the sequences
    of that length are built.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    order = sorted(range(len(gs.labels)), key=lambda i: gs.labels[i])
    glabels = [gs.labels[i] for i in order]
    ng = len(glabels)
    # Column block g of LT is L(m(g))^T: row f * ng + g of the product is +-m(g V_f).
    gates = qubit1.magic_embed_batch(np.stack([gs.unitaries[i] for i in order]))
    LT = qubit1.left_multiplication(gates).transpose(2, 0, 1).reshape(4, 4 * ng)

    frontier = qubit1.magic_embed(np.eye(2))[None, :]
    seen = set(qubit1.line_keys(frontier).tolist())
    frontier_labels: list[tuple[str, ...]] = [()]
    labels, magic = [()], [frontier]
    for length in range(1, max_len + 1):
        if frontier.shape[0] == 0:
            break
        prod = (frontier @ LT).reshape(-1, 4)
        prod /= np.linalg.norm(prod, axis=1, keepdims=True)
        kept = []
        for j, key in enumerate(qubit1.line_keys(prod).tolist()):
            if key not in seen:
                seen.add(key)
                kept.append(j)
        new = np.array(kept, dtype=np.intp)
        if new.size and len(labels) + new.size > BUDGET:
            raise BudgetExceededError(
                f"sequence budget {BUDGET} exceeded at length {length}"
            )
        frontier = prod[new]
        parent, gate = np.divmod(new, ng)
        frontier_labels = [
            frontier_labels[f] + (glabels[g],)
            for f, g in zip(parent.tolist(), gate.tolist())
        ]
        labels += frontier_labels
        magic.append(frontier)
    return Pool(labels=tuple(labels), magic=np.concatenate(magic))


def _nearest(P: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest row of the pool magic vectors P to each row of V.

    Returns the indices and the half-diamond errors. Of the rows whose
    computed |dot| is exactly the largest, the lowest index wins (in pool
    order: the shorter sequence, then lexicographic labels); near-ties are
    decided by the rounding of the products.
    """
    idx = np.empty(len(V), dtype=np.intp)
    dots = np.empty((min(len(V), 64), len(P)))  # 64 rows at a time, in one reused array:
    for s in range(0, len(V), 64):  # a fresh one per block costs more in page faults
        d = np.matmul(V[s : s + 64], P.T, out=dots[: len(V) - s])
        idx[s : s + 64] = np.argmax(np.abs(d, out=d), axis=1)
    return idx, qubit1.line_distance(V, P[idx])


def det_synth(target: np.ndarray, pool: Pool) -> tuple[tuple[str, ...], float]:
    """Labels of the pool sequence closest to the target, and its error.

    The error is the half-diamond distance. Exact ties of the computed
    |dot| go to the lowest pool index (the shorter sequence, then
    lexicographic labels); near-ties are decided by rounding. Raises
    ValueError unless target is a 2x2 unitary.
    """
    idx, errs = _nearest(pool.magic, qubit1.magic_embed(target)[None, :])
    return pool.labels[int(idx[0])], float(errs[0])


@dataclass
class SynthesisResult:
    support: list[tuple[str, ...]]  # label tuples, leftmost label acting first
    p: np.ndarray
    det_error: float
    prob_error: float        # exact error of the mixture p: an upper bound
    prob_error_lower: float  # dual lower bound on the optimal mixing error
    eps: float           # requested accuracy
    achieved_eps: float  # certified covering radius of the 2*eps ball
    delta: float

    def to_json(self) -> dict:
        return {
            "support": [list(s) for s in self.support],
            "p": [float(x) for x in self.p],
            "det_error": self.det_error,
            "prob_error": self.prob_error,
            "prob_error_lower": self.prob_error_lower,
            "eps": self.eps,
            "achieved_eps": self.achieved_eps,
            "delta": self.delta,
        }


def prob_synth(target: np.ndarray, eps: float, delta: float, pool: Pool) -> SynthesisResult:
    """Probabilistic synthesis with certified quadratic error reduction.

    Covers the 2*eps-ball around the target with a c*eps mesh, synthesizes
    each covering point deterministically over `pool` to within c'*eps
    (c = c' = 1/2), restricts to candidates within 2*eps of the target, and
    solves the mixing SDP to relative gap delta. The mixture then has
    half-diamond error at most achieved_eps**2 + delta, with achieved_eps =
    c*eps + (worst deterministic synthesis error over covering points) <=
    eps. CoveringUnreachableError if that worst error exceeds c'*eps.

    prob_error is the exact error of the returned mixture p (an upper bound
    on the optimum; p is zero off the columns qubit1.optimal_mix_1q solved);
    prob_error_lower is its dual bound: no mixture of the support does better.

    eps must lie in (0, 1/2), so that the 2*eps-ball is a proper cap of the
    unitaries; ValueError otherwise.
    """
    if not 0 < eps < 0.5:
        raise ValueError(f"prob_synth needs 0 < eps < 1/2, got eps = {eps:g}")
    if not 0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    u = qubit1.magic_embed(target)
    cover = qubit1.cap_covering(u, min(2 * eps, 0.999), C * eps)
    nearest, errs = _nearest(pool.magic, cover)
    worst = float(np.max(errs))
    if worst > C_PRIME * eps:
        raise CoveringUnreachableError(
            f"deterministic synthesis reached radius {worst:.6g} "
            f"> c'*eps = {C_PRIME * eps:.6g}; use a longer pool or a larger eps",
            achieved_radius=worst,
        )
    achieved = C * eps + worst

    support_idx = np.unique(nearest)
    support_idx = support_idx[qubit1.support_filter(u, pool.magic[support_idx], eps)]
    W = pool.magic[support_idx]

    p, upper, lower = qubit1.optimal_mix_1q(u, W, delta)
    det_error = float(np.min(qubit1.line_distance(u, W)))
    return SynthesisResult(
        support=[pool.labels[i] for i in support_idx.tolist()],
        p=p,
        det_error=det_error,
        prob_error=upper,
        prob_error_lower=lower,
        eps=eps,
        achieved_eps=achieved,
        delta=delta,
    )


def campbell_mix(
    target: np.ndarray, candidates: list[np.ndarray]
) -> tuple[np.ndarray, float]:
    """First-order mixing baseline (Campbell 2017; Hastings 2017).

    Writes each candidate as target * exp(i H_x) with the shortest traceless
    H_x. In the magic basis, with u = magic_embed(target) and w_x the sign of
    magic_embed(V_x) nearest u, its generator is the log map h_x = sqrt(2)
    theta_x (w_x - (u.w_x) u) / sin(theta_x), and |h_x| = ||H_x||_F. Returns
    the p on the simplex minimizing ||sum_x p_x h_x||, and that residual; a
    zero residual makes the mixture correct to first order. Depends on the
    channels only, not on global phases. Raises BranchCutError if |u.w_x| <
    1e-6 (an eigenphase of U^dag V at pi: no unique shortest H_x).
    """
    if not candidates:
        raise qubit1.EmptyCandidatesError("empty candidate list")
    u = qubit1.magic_embed(target)
    W = np.stack([qubit1.magic_embed(V) for V in candidates])
    c = W @ u
    if np.any(np.abs(c) < 1e-6):
        raise BranchCutError("candidate orthogonal to the target: eigenphase at pi")
    W *= np.sign(c)[:, None]
    c = np.abs(c)
    T = W - c[:, None] * u
    s = np.linalg.norm(T, axis=1)
    h = (np.sqrt(2) * np.arctan2(s, c) / np.where(s > 0, s, 1.0))[:, None] * T
    # The NNLS of [h^T; 1^T] q ~ e_last has the KKT conditions of the
    # min-norm point of the hull of the h_x, at p = q / sum q (Lawson and
    # Hanson, least distance programming). scipy.optimize is imported here:
    # loading it with the module would cost every CLI command about 0.6 s.
    from scipy.optimize import nnls

    A = np.vstack([h.T, np.ones(len(h))])
    q, _ = nnls(A, np.eye(len(A))[-1])
    p = q / q.sum()
    return p, float(np.linalg.norm(p @ h))


def sample(p: np.ndarray, seed: int, n: int) -> np.ndarray:
    """n i.i.d. indices distributed as p (deterministic in seed)."""
    p = np.maximum(check_probabilities(p), 0.0)
    p /= p.sum()
    rng = np.random.default_rng(seed)
    return rng.choice(len(p), size=n, p=p)
