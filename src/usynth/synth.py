"""Probabilistic synthesis of single-qubit unitaries over a finite gate set.

Pipeline: enumerate distinct gate sequences up to a length budget into a
Pool, each row a parent row, a last gate and a magic vector (quaternion
products, one row per channel, keyed by qubit1.line_keys; a product is
keyed only when its suffix is kept, since the kept sequences are closed
under factors), whose label tuples are spelled out only for the rows an
answer returns; deterministically synthesize a C*eps covering of a ball
around the target over the pool to within C_PRIME*eps (C = C_PRIME =
1/2), each cover point searched over the rows whose |dot| with the target
can put them within reach, for the covering radius; mix every pool row
within 2*eps by qubit1.optimal_mix_1q's tie-set pivots, which stop at the
absolute width upper - lower <= delta. The
first-order baseline of Campbell and Hastings, for comparison, works on
the candidates' channels (magic vectors, not matrices with a global phase)
and finds the exact minimum-norm mixture of their generators by NNLS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qubit1
from .linalg import check_probabilities, check_unitary, matrix_from_json

C = 0.5  # covering mesh of prob_synth, as a fraction of eps
C_PRIME = 0.5  # deterministic synthesis radius of prob_synth, as a fraction of eps
# The most sequences enumerate_sequences keeps: a memory guard. Enumeration
# peaks at about 300 bytes per kept sequence (tracemalloc, L = 20 and 24),
# and the pool keeps 48 of them (magic 32, parent and last 16).
BUDGET = 500000
BLOCK = 96  # cover points _nearest searches per product
TIE_TOL = 1e-12  # |dot| within this of the largest is a tie in det_synth: see _nearest_rows
SHELL_MARGIN = 2e-6  # radians the |dot| bounds of the shells and the support cut reach past


class CoveringUnreachableError(RuntimeError):
    def __init__(self, msg: str, achieved_radius: float):
        super().__init__(msg)
        self.achieved_radius = achieved_radius


@dataclass(frozen=True, eq=False)
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
        unitaries = tuple(np.array(check_unitary(U)) for U in self.unitaries)
        if any(U.shape != (2, 2) for U in unitaries):
            raise ValueError("gates must be 2x2 single-qubit unitaries")
        for U in unitaries:
            U.setflags(write=False)
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


@dataclass(frozen=True, eq=False)
class Pool:
    """Gate sequences and their magic vectors, one row per sequence.

    Row i stores its sequence as a parent row and a last gate: it is row
    parent[i]'s sequence followed by the gate labelled gates[last[i]], or
    the empty sequence where parent[i] is -1. Every parent precedes its
    row. words(rows) spells rows out as label tuples, which list gates in
    the order they act: the leftmost label acts first, so ("H", "T")
    realizes T @ H. magic is a read-only (n, 4) float array of unit vectors
    with no sign rule (u and -u are one channel), and parent and last are
    read-only integer arrays of length n. Raises ValueError for n = 0, when
    the shapes do not line up, for a magic row not of norm 1 within 1e-8,
    for a parent after its row and for a last gate not indexing gates.
    """

    gates: tuple[str, ...]
    parent: np.ndarray
    last: np.ndarray
    magic: np.ndarray

    def __post_init__(self):
        gates = tuple(self.gates)
        parent = np.array(self.parent, dtype=np.intp)
        last = np.array(self.last, dtype=np.intp)
        magic = np.array(self.magic, dtype=float)
        if parent.ndim != 1 or last.shape != parent.shape:
            raise ValueError(f"parent and last must be two arrays of one length, "
                             f"got shapes {parent.shape} and {last.shape}")
        if magic.shape != (len(parent), 4):
            raise ValueError(f"magic must have shape ({len(parent)}, 4), got {magic.shape}")
        if not len(parent):
            raise ValueError("empty sequence pool")
        if np.any((parent < -1) | (parent >= np.arange(len(parent)))):
            raise ValueError("every row's parent must be -1 or an earlier row")
        if np.any((parent >= 0) & ((last < 0) | (last >= len(gates)))):
            raise ValueError(f"last gates must index the {len(gates)} gates")
        if not qubit1._unit(magic):
            raise ValueError("magic rows must be finite unit vectors")
        for a in (parent, last, magic):
            a.setflags(write=False)
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "last", last)
        object.__setattr__(self, "magic", magic)

    def __len__(self) -> int:
        return len(self.magic)

    def words(self, rows) -> list[tuple[str, ...]]:
        """The label tuples of the given rows, in the order given.

        Walks every row up its parents at once, one gate per step, so a call
        costs the returned labels and the longest of their sequences.
        """
        at = np.asarray(rows, dtype=np.intp).reshape(-1)
        length = np.zeros(len(at), dtype=np.intp)
        steps = []  # steps[k][j]: the gate k places from the end of row j's word, if it has one
        while True:
            up = self.parent[at]
            live = up >= 0
            if not live.any():
                break
            steps.append(np.where(live, self.last[at], 0))
            length += live
            at = np.where(live, up, at)
        k = len(steps)
        idx = np.array(steps[::-1], dtype=np.intp).reshape(k, len(at)).T
        spelled = np.array(self.gates, dtype=object)[idx].tolist()
        return [tuple(w[k - m:]) for w, m in zip(spelled, length.tolist())]


def enumerate_sequences(gs: GateSet, max_len: int) -> Pool:
    """All distinct (up to phase) gate sequences of length <= max_len.

    Breadth-first by length, one row per channel. Each length is one real
    GEMM of the frontier's magic vectors with every gate's quaternion left
    multiplication (`qubit1.left_multiplication`), rows renormalized and
    carrying no sign rule. Each product's magic vector has one key,
    `qubit1.line_keys` (the same for u and -u), and each length makes one
    pass in product order over its keys against the set of keys seen so
    far: a product is kept, and its key added, if the key is not in the
    set. Products are generated with gates in lexicographic label order, so
    the kept sequence for each unitary is the least of its key in shortlex
    order: the shortest, ties broken lexicographically by label list.

    Such least words are closed under taking factors (a factor with a
    shortlex-smaller equal would make a smaller equal of the whole word),
    so the product w g is keyed only when w minus its first gate, followed
    by g, is itself kept; every other product is a duplicate. Each frontier
    row carries the index of its suffix and each row of the length before
    it the index of its child by each gate, which decide this. The pool is
    the one the pass over every product keeps. Raises ValueError past
    BUDGET kept sequences, before the sequences of that length are built.

    Each kept product stores its frontier row as parent and its gate as
    last, and no label tuple is built: Pool.words spells out the rows a
    caller returns. The peak is about 300 bytes per kept sequence at L = 20
    and 24 (tracemalloc), most of it the set of keys.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    order = sorted(range(len(gs.labels)), key=lambda i: gs.labels[i])
    glabels = [gs.labels[i] for i in order]
    ng = len(glabels)
    # Column block g of LT is L(m(g))^T: row f * ng + g of the product is +-m(g V_f).
    gates = qubit1.magic_embed_batch(np.stack([gs.unitaries[i] for i in order]))
    LT = qubit1.left_multiplication(gates).transpose(2, 0, 1).reshape(4, 4 * ng)

    frontier = np.array([[1.0, 0.0, 0.0, 0.0]])  # the empty sequence's magic vector
    seen = set(qubit1.line_keys(frontier).tolist())
    parents, lasts, magic = [np.array([-1])], [np.array([-1])], [frontier]
    start, n = 0, 1  # the pool row of frontier row 0, and the rows kept
    # suffix[f]: the row of the length before holding frontier row f minus its
    # first gate; child[r, g]: the frontier row holding row r followed by gate
    # g, or -1. The empty sequence starts as its own suffix, every gate its child.
    suffix, child = np.zeros(1, dtype=np.intp), np.zeros((1, ng), dtype=np.intp)
    for length in range(1, max_len + 1):
        if frontier.shape[0] == 0:
            break
        cand = np.flatnonzero(child[suffix] >= 0)  # product f * ng + g, in product order
        prod = (frontier @ LT).reshape(-1, 4)[cand]
        prod /= np.linalg.norm(prod, axis=1, keepdims=True)
        kept = []
        for j, key in enumerate(qubit1.line_keys(prod).tolist()):
            if key not in seen:
                seen.add(key)
                kept.append(j)
        new = cand[np.array(kept, dtype=np.intp)]
        if new.size and n + new.size > BUDGET:
            raise ValueError(
                f"sequence budget {BUDGET} exceeded at length {length}"
            )
        parent, gate = np.divmod(new, ng)
        suffix = child[suffix[parent], gate]
        child = np.full((len(frontier), ng), -1, dtype=np.intp)
        child[parent, gate] = np.arange(new.size)
        frontier = prod[kept]
        parents.append(start + parent)
        lasts.append(gate)
        magic.append(frontier)
        start, n = n, n + new.size
    return Pool(gates=tuple(glabels), parent=np.concatenate(parents),
                last=np.concatenate(lasts), magic=np.concatenate(magic))


def _nearest(P: np.ndarray, V: np.ndarray, u: np.ndarray, reach: float) -> np.ndarray:
    """Half-diamond error of the nearest row of the pool magic vectors P to each row of V.

    Every row test reads one product with the target u: the rows of V are
    taken in order of descending |V.u|, BLOCK at a time, and each block is
    searched over the rows of P, in pool order, whose |P.u| lies in the
    block's shell: with near and far the angles arccos(min(|dot|, 1)) of the
    block's first and last point and width = arcsin(reach) + SHELL_MARGIN,
    cos(far + width) <= |P.u| <= cos(near - width), with no upper bound when
    near <= width (a |dot| can round above 1). Each point takes the row of
    largest |dot| in its shell, and its error is the line_distance to that
    row. The line angle is a metric, so every row within reach of a point
    lies in its shell, and a point whose shell holds such a row gets the
    error of a search over every row. A point whose shell holds none is
    searched again at reach 1, whose shell holds every row (line angles lie
    in [0, pi/2]): that is the search over every row, so its error is exact
    too, and it never misses. For rows unit to rounding, as
    enumerate_sequences makes them, the arccos of a rounded |dot| lies within
    sqrt(2e-15) = 4.5e-8 of the exact angle, which SHELL_MARGIN covers.
    """
    to_row, to_point = np.abs(P @ u), np.abs(V @ u)
    order = np.argsort(-to_point, kind="stable")
    blocks = np.split(order, range(BLOCK, len(V), BLOCK))
    width = np.arcsin(reach) + SHELL_MARGIN
    near, far = np.arccos(np.minimum(to_point[[(b[0], b[-1]) for b in blocks]], 1.0)).T
    # Unclamped: past pi/2 the cosine is negative, so rows orthogonal to u stay in.
    lo, hi = np.cos(far + width), np.where(near > width, np.cos(near - width), np.inf)
    shells = [np.flatnonzero((to_row >= a) & (to_row <= b)) for a, b in zip(lo, hi)]
    # Every block's products go into one reused array: a fresh one per block
    # costs more in page faults.
    buf = np.empty(min(len(V), BLOCK) * max(map(len, shells), default=0))
    idx = np.zeros(len(V), dtype=np.intp)  # row 0 stands in for an empty shell: a miss below
    for block, rows in zip(blocks, shells):
        if rows.size:
            d = buf[: len(block) * len(rows)].reshape(len(block), len(rows))
            np.matmul(V[block], P[rows].T, out=d)
            idx[block] = rows[np.argmax(np.abs(d, out=d), axis=1)]
    errs = qubit1.line_distance(V, P[idx])
    miss = np.flatnonzero(errs > reach)
    if miss.size and reach < 1:  # at reach 1, errs past 1 are rounding
        errs[miss] = _nearest(P, V[miss], u, 1.0)
    return errs


def _nearest_rows(V: np.ndarray, P: np.ndarray) -> np.ndarray:
    """det_synth's nearest row of P to each row of V: of the rows whose computed |dot| lies
    within TIE_TOL of the largest, the lowest index, so that a gap only rounding makes (a few
    ulps of 1) is decided by the pool, not by the order of the products."""
    d = np.abs(V @ P.T)
    return np.argmax(d >= d.max(axis=1, keepdims=True) - TIE_TOL, axis=1)


def det_synth(target: np.ndarray, pool: Pool) -> tuple[tuple[str, ...], float]:
    """Labels of the pool sequence closest to the target, and its error.

    The labels are Pool.words of that row, and the error is the half-diamond
    distance. _nearest_rows searches every row, with no shell, in one
    expression: of the rows within TIE_TOL of the largest computed |dot|, the
    lowest pool index wins (the shorter sequence, then lexicographic labels).
    Raises ValueError unless target is a 2x2 unitary.
    """
    v = qubit1.magic_embed(target)
    i = _nearest_rows(v[None], pool.magic)
    return pool.words(i)[0], float(qubit1.line_distance(v, pool.magic[i[0]]))


@dataclass(eq=False)
class SynthesisResult:
    """prob_synth's answer.

    rows are every pool row within 2*eps of the target, in pool order, which support spells
    out on read (Pool.words) with the leftmost label acting first, and p their mixture, zero
    off its at most 4 members; prob_error_lower holds for every mixture of the pool.
    """

    pool: Pool = field(repr=False)
    rows: np.ndarray
    p: np.ndarray
    det_error: float
    prob_error: float        # exact error of the mixture p: an upper bound
    prob_error_lower: float  # e(V)^2 - D(U, V)^2 for the certificate V: a lower bound
    eps: float           # requested accuracy
    achieved_eps: float  # certified covering radius of the 2*eps ball
    delta: float

    @property
    def support(self) -> list[tuple[str, ...]]:
        return self.pool.words(self.rows)

    def to_json(self) -> dict:
        """The answer as synth1q writes it.

        support and p list only the members with p > 0, in support's order;
        support_size counts the whole support, every pool row within 2*eps.
        """
        weighted = np.flatnonzero(self.p > 0)
        return {
            "support": [list(w) for w in self.pool.words(self.rows[weighted])],
            "p": self.p[weighted].tolist(),
            "support_size": len(self.rows),
            "det_error": self.det_error,
            "prob_error": self.prob_error,
            "prob_error_lower": self.prob_error_lower,
            "eps": self.eps,
            "achieved_eps": self.achieved_eps,
            "delta": self.delta,
        }


def prob_synth(target: np.ndarray, eps: float, delta: float, pool: Pool) -> SynthesisResult:
    """Probabilistic synthesis with certified quadratic error reduction.

    Covers the 2*eps-ball around the target with a c*eps mesh and
    synthesizes each covering point deterministically over `pool` to within
    c'*eps (c = c' = 1/2): achieved_eps = c*eps + (worst deterministic
    synthesis error over covering points) <= eps, and CoveringUnreachableError
    if that worst error exceeds c'*eps. It then mixes every pool row within
    2*eps of the target, which holds each covering point's nearest row within
    2*eps, so the mixture errs at most achieved_eps**2 + delta: the tie-set
    pivots of qubit1.optimal_mix_1q stop at the absolute width upper - lower
    <= delta.

    The deterministic step searches each covering point over the rows in a
    shell of |dot| with the target that holds every row within c'*eps of it
    (see _nearest), and yields the errors of a search over every row, so
    achieved_radius is exact. The rows with |dot| >= cos(arcsin(2*eps) +
    SHELL_MARGIN) go to qubit1.support_filter, so no distance is taken over
    the whole pool.

    support is spelled out by Pool.words on read; prob_error is the exact
    error of the returned mixture p (an upper bound; p has at most 4
    members, the optimum's tie set), and prob_error_lower = e(V)^2 -
    D(U, V)^2 for its certificate, a unitary V with error e(V) over every
    pool row and distance D(U, V) to the target: no mixture of the pool
    does better.

    eps must lie in (0, 1/2), so that the 2*eps-ball is a proper cap of the
    unitaries; ValueError otherwise.
    """
    if not 0 < eps < 0.5:
        raise ValueError(f"prob_synth needs 0 < eps < 1/2, got eps = {eps:g}")
    if not 0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    u = qubit1.magic_embed(target)
    cover = qubit1.cap_covering(u, min(2 * eps, 0.999), C * eps)
    worst = float(np.max(_nearest(pool.magic, cover, u, C_PRIME * eps)))
    if worst > C_PRIME * eps:
        raise CoveringUnreachableError(
            f"deterministic synthesis reached radius {worst:.6g} "
            f"> c'*eps = {C_PRIME * eps:.6g}; use a longer pool or a larger eps",
            achieved_radius=worst,
        )
    achieved = C * eps + worst

    near = np.flatnonzero(np.abs(pool.magic @ u) >= np.cos(np.arcsin(2 * eps) + SHELL_MARGIN))
    rows = near[qubit1.support_filter(u, pool.magic[near], eps)]
    W = pool.magic[rows]

    p, upper, _, v = qubit1.optimal_mix_1q(u, W, delta)
    lower = min(max(float((u @ v) ** 2 - np.max((pool.magic @ v) ** 2)), 0.0), upper)
    det_error = float(np.min(qubit1.line_distance(u, W)))
    return SynthesisResult(
        pool=pool,
        rows=rows,
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
    channels only, not on global phases. Raises ValueError for no candidates
    and if |u.w_x| < 1e-6 (an eigenphase of U^dag V at pi: no unique
    shortest H_x).
    """
    if not candidates:
        raise ValueError("empty candidate list")
    u = qubit1.magic_embed(target)
    W = np.stack([qubit1.magic_embed(V) for V in candidates])
    c = W @ u
    if np.any(np.abs(c) < 1e-6):
        raise ValueError("candidate orthogonal to the target: eigenphase at pi")
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
