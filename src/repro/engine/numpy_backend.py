"""Dense numpy backend: the whole pipeline as matrix kernels.

All three stages run as vectorized array programs over the row-indexed
weight matrices:

* GLOBAL ESTIMATES -- min-plus Floyd--Warshall, one broadcasted
  ``minimum`` per pivot (:func:`min_plus_closure`);
* components -- mutual-finiteness classes read directly off the closure;
* SHIFTS step 1 -- Howard's policy iteration locates a candidate
  critical cycle (:func:`howard_cycle`, Karp's past its cap);
* SHIFTS step 2 -- batched Bellman--Ford relaxation from the root
  (:func:`shift_distances`) under ``w = A^max - ms~`` with the same
  epsilon-nudge retry loop as the reference implementation.  Those
  distances are the corrections *and* feasible potentials, so the
  critical-cycle witness is any cycle of edges they make tight
  (:func:`tight_cycle`): one relaxation pass serves both.

Cold and warm solves share one rule (DESIGN.md section 6).  The
candidate is the previous result's cycle when given, else Howard's;
``A^max`` is its exact left-to-right mean from its smallest row
(:func:`canonical_cycle`, :func:`cycle_mean`), and the pass under that
mean is served when its canonical tight cycle is the candidate, or has a
bit-equal mean.  A hinted miss locates; a located miss retries under the
tight cycle.  Correctness never rests on the locators' floats.

It also implements the incremental single-edge update used by
:class:`repro.extensions.online.OnlineSynchronizer`: when one ``mls~``
entry decreases, the cached closure is repaired by relaxing paths through
the improved edge (two broadcast adds per change) instead of recomputing
all pairs.  For a batch of decreases applied in sequence this is exact:
a shortest path uses each decreased edge at most once (paths are simple
when no negative cycle exists), so relaxing edges one at a time covers
every new path, and a batch-created negative cycle surfaces as a negative
diagonal entry.  Exact in real arithmetic, that is: the repair adds path
segments in a different order from Floyd--Warshall, so in floats it can
differ from a batch recompute in the last bits (DESIGN.md section 14).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import InconsistentViewsError
from repro.engine.base import EngineShifts, KeepProof, SyncEngine
from repro.engine.stats import EngineStats

INF = float("inf")
_TOL = 1e-9
#: Bellman--Ford passes a cold SHIFTS solve makes before it serves the last.
_LOCATED_PASSES = 3
#: Howard iterations per row before :func:`howard_cycle` falls back to Karp.
_HOWARD_ITERATIONS_PER_ROW = 2


# ----------------------------------------------------------------------
# Kernels (module-level so tests and other layers can reuse them)
# ----------------------------------------------------------------------


def min_plus_closure(matrix: np.ndarray) -> np.ndarray:
    """Min-plus transitive closure (Floyd--Warshall), input unmutated.

    The kernel itself never raises: it returns the closure, and a
    negative diagonal entry is the negative-cycle witness -- check with
    :func:`has_negative_diagonal`.
    """
    dist = matrix.astype(float, copy=True)
    n = len(dist)
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


def has_negative_diagonal(matrix: np.ndarray, tol: float = _TOL) -> bool:
    """Whether the closure's diagonal witnesses a negative cycle."""
    return bool((np.diagonal(matrix) < -tol).any())


def bellman_ford_matrix(
    weights: np.ndarray, source: int, tol: float = _TOL
) -> Optional[np.ndarray]:
    """Single-source distances on a dense weight matrix.

    Rounds of relaxation run as one broadcast per round with early exit.
    Returns ``None`` when a negative cycle is reachable (the caller
    decides whether that is an error or a retry-with-nudge).
    """
    n = len(weights)
    dist = np.full(n, INF)
    dist[source] = 0.0
    for _ in range(max(0, n - 1)):
        relaxed = np.minimum(dist, (dist[:, None] + weights).min(axis=0))
        if not (relaxed < dist).any():
            return dist  # a fixpoint: the check below could not fail
        dist = relaxed
    if ((dist[:, None] + weights).min(axis=0) < dist - tol).any():
        return None
    return dist


def realizing_tree(
    weights: np.ndarray, dist: np.ndarray, source: int
) -> Optional[np.ndarray]:
    """A parent tree proving that :func:`bellman_ford_matrix` on
    ``weights`` from ``source`` returns ``dist`` bit for bit, or ``None``.

    The tree (``tree[source] == source``) is the rows attaining each
    minimum of one relaxation round, the argmin parents.  It proves
    ``dist`` when ``dist[source] == 0``, the round moves no other entry
    and nothing into the source, and the parents lead back to the
    source.  Then every entry is the float value of a walk from the
    source along the tree, and since ``fl(a + w)`` is monotone in ``a``
    no round ever drops below ``dist``; after as many rounds as the tree
    is deep, the distances are ``dist``.  A cycle of ties whose labels
    agree with one another but with no walk from the source fails the
    parent test; so do labels Bellman--Ford reaches only along a walk
    that goes round a cycle whose float sum absorbed a rounding, which
    only Bellman--Ford itself can confirm.
    """
    n = len(weights)
    if dist[source] != 0.0:
        return None
    reach = dist[:, None] + weights
    parent = reach.argmin(axis=0)
    best = reach[parent, np.arange(n)]
    if best[source] < 0.0:
        return None
    best[source] = 0.0
    if not np.array_equal(best, dist):
        return None
    parent[source] = source
    root = parent
    for _ in range((n - 1).bit_length()):
        root = root[root]
    return parent if (root == source).all() else None


def karp_cycle(weights: np.ndarray) -> Optional[List[int]]:
    """A maximum-mean cycle of a dense digraph given as a weight matrix.

    ``inf`` encodes absent edges; the diagonal is ignored (no self-loops,
    matching the complete ``ms~`` digraph SHIFTS builds).  Assumes the
    off-diagonal part is strongly connected -- true for any all-finite
    matrix with ``n >= 2``.  Returns ``None`` for ``n < 2``.

    Karp's level recurrence picks the node whose best ``n``-edge walk
    from row 0 realizes the maximum mean; walking it back, the first
    repeated node closes a maximum-mean cycle (Karp 1978; Chaturvedi &
    McConnell 2017).  O(n^3): SHIFTS uses it only past Howard's cap.
    """
    n = len(weights)
    if n < 2:
        return None
    # Negate to reuse Karp's *minimum* recurrence (absent edges stay
    # inf); kill self-loops.
    w = np.where(np.isfinite(weights), -weights, INF)
    np.fill_diagonal(w, INF)

    levels = np.full((n + 1, n), INF)
    levels[0, 0] = 0.0
    for k in range(n):
        levels[k + 1] = (levels[k][:, None] + w).min(axis=0)

    d_n = levels[n]
    denominators = np.arange(n, 0, -1, dtype=float)[:, None]
    with np.errstate(invalid="ignore"):
        ratios = (d_n[None, :] - levels[:n, :]) / denominators
    ratios[~np.isfinite(levels[:n, :])] = -INF
    per_node_max = ratios.max(axis=0)

    valid = np.isfinite(d_n) & np.isfinite(per_node_max)
    if not valid.any():
        return None
    # Walk the minimizing node's n-edge walk back to its first repeat.
    walk = [int(np.where(valid, per_node_max, INF).argmin())]
    for k in range(n - 1, -1, -1):
        walk.append(int((levels[k] + w[:, walk[-1]]).argmin()))
        if walk[-1] in walk[:-1]:
            break
    return walk[walk.index(walk[-1]):-1][::-1]


def howard_cycle(
    weights: np.ndarray, stats: Optional[EngineStats] = None
) -> Optional[List[int]]:
    """A maximum-mean cycle by Howard's policy iteration (Cochet-Terrasson
    et al. 1998; DESIGN.md section 6), with :func:`karp_cycle`'s contract
    (``-inf`` also marks an absent edge).  Its iterations have no
    polynomial bound: past ``2n`` it returns Karp's cycle.  ``stats``
    counts ``shifts.locator_iterations`` and ``shifts.locator_fallbacks``.
    """
    n = len(weights)
    if n < 2:
        return None
    edges = np.isfinite(weights) & ~np.eye(n, dtype=bool)
    w = np.where(edges, weights, -INF)
    # Smaller gains never switch a policy, so ulp ties cannot cycle.
    eps = 1e-12 * max(1.0, float(np.abs(weights[edges]).max()))
    flat, offsets = w.ravel(), np.arange(0, n * n, n)
    policy = (w + w.max(axis=1)).argmax(axis=1)
    x, cycle, steps = [0.0] * n, None, 0
    for steps in range(1, _HOWARD_ITERATIONS_PER_ROW * n + 1):
        successor, cost = policy.tolist(), flat[offsets + policy].tolist()
        eta, seen, cycles = [0.0] * n, [-1] * n, []
        for start in range(n):
            path, node = [], start
            while seen[node] < 0:
                seen[node] = start
                path.append(node)
                node = successor[node]
            if seen[node] == start:  # the walk closed a new cycle
                ring = path[path.index(node):]
                eta[node] = sum(cost[u] for u in ring) / len(ring)
                cycles.append((eta[node], ring))
                path.remove(node)
            for u in reversed(path):
                eta[u] = eta[successor[u]]
                x[u] = cost[u] - eta[u] + x[successor[u]]
        x_now, eta_now = np.array(x), np.array(eta)
        gain, better = w + x_now, False
        if max(eta) - min(eta) > eps:  # policy cycles of different means
            reach = np.where(edges, eta_now, -INF)
            top = reach.max(axis=1)
            gain[reach < top[:, None] - eps] = -INF
            better = top > eta_now + eps
        choice = gain.argmax(axis=1)
        better |= gain.ravel()[offsets + choice] > x_now + eta_now + eps
        if not better.any():
            cycle = max(cycles, key=lambda found: found[0])[1]
            break
        np.copyto(policy, choice, where=better)
    if stats is not None:
        stats.count("shifts.locator_iterations", steps)
        stats.count("shifts.locator_fallbacks", int(cycle is None))
    return karp_cycle(weights) if cycle is None else cycle


def shift_weights(weights: np.ndarray, a_max: float) -> np.ndarray:
    """``w = A^max - weights`` with absent edges and self-loops ``inf``."""
    base = np.where(np.isfinite(weights), a_max - weights, INF)
    np.fill_diagonal(base, INF)
    return base


def shift_distances(
    weights: np.ndarray, a_max: float, root: int
) -> Tuple[np.ndarray, int]:
    """SHIFTS step 2: distances from ``root`` under ``w = A^max - weights``.

    Absent edges (``inf`` weights) stay absent.  Relaxing a float-rounded
    ``A^max`` can leave an epsilon-negative cycle, so a failed
    Bellman--Ford run retries with ``w`` nudged up by
    ``1e-9 * max(1, |A^max|)`` per attempt.  Returns the distances and
    the number of nudges the successful run needed.
    """
    scale = max(1.0, abs(a_max))
    base = shift_weights(weights, a_max)
    for attempt in range(4):
        nudged = base + attempt * 1e-9 * scale if attempt else base
        dist = bellman_ford_matrix(nudged, root)
        if dist is not None:
            return dist, attempt
    raise AssertionError(  # pragma: no cover - pathological floats only
        "negative cycle under w = A^max - ms~ persisted after nudging; "
        "this contradicts the maximum cycle mean"
    )


def tight_cycle(
    weights: np.ndarray, a_max: float, dist: np.ndarray, nudges: int = 0
) -> Optional[List[int]]:
    """A critical cycle, read off the SHIFTS step-2 distances.

    ``dist`` are feasible potentials for ``w = A^max - weights``, so every
    edge has slack ``dist[u] + w[u, v] - dist[v] >= 0``.  A critical cycle
    has total ``w`` zero, hence every edge on it is tight; conversely a
    cycle of tight edges has mean ``A^max``.  Prune nodes with no tight
    in- or out-edge until none is left to prune, then follow the first
    tight successor from the first node until one repeats.  ``nudges``
    (from :func:`shift_distances`) widens the tolerance by the slack a
    nudged run may leave on each edge of the cycle.
    """
    n = len(weights)
    edges = np.isfinite(weights) & ~np.eye(n, dtype=bool)
    scale = max(1.0, float(np.abs(weights[edges]).max()))
    tol = _TOL * scale * (1 + nudges * (n - 1))
    slack = dist[:, None] + (a_max - weights) - dist[None, :]
    tight = edges & (slack <= tol)
    nodes = np.arange(n)
    while len(nodes):
        keep = tight.any(axis=1) & tight.any(axis=0)
        if keep.all():
            successor, path = tight.argmax(axis=1).tolist(), [0]
            while successor[path[-1]] not in path:
                path.append(successor[path[-1]])
            return nodes[path[path.index(successor[path[-1]]):]].tolist()
        nodes = nodes[keep]
        tight = tight[np.ix_(keep, keep)]
    return None


def canonical_cycle(cycle: Sequence[int]) -> List[int]:
    """``cycle`` rotated to start at its smallest row."""
    start = list(cycle).index(min(cycle))
    return list(cycle[start:]) + list(cycle[:start])


def cycle_mean(weights: np.ndarray, cycle: Sequence[int]) -> float:
    """Mean weight around ``cycle``, summed left to right from its start."""
    hops = weights[list(cycle), list(cycle[1:]) + [cycle[0]]].tolist()
    total = 0.0
    for weight in hops:
        total += weight
    return total / len(hops)


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------


class NumpyEngine(SyncEngine):
    """Vectorized dense-matrix implementation of the pipeline."""

    name = "numpy"

    def _closure(self, mls_matrix: np.ndarray) -> np.ndarray:
        closure = min_plus_closure(mls_matrix)
        if has_negative_diagonal(closure):
            raise InconsistentViewsError(
                "local shift estimates contain a negative cycle; the "
                "observed delays are inconsistent with the declared delay "
                "assumptions"
            )
        return closure

    def _components(
        self, mls_matrix: np.ndarray, ms_matrix: np.ndarray
    ) -> List[List[int]]:
        # Mutual finiteness of the closure is exactly "same strongly
        # connected component of the finite-mls~ digraph".
        finite = np.isfinite(ms_matrix)
        mutual = finite & finite.T
        n = len(ms_matrix)
        seen = np.zeros(n, dtype=bool)
        components: List[List[int]] = []
        for i in range(n):
            if seen[i]:
                continue
            members = np.flatnonzero(mutual[i])
            seen[members] = True
            components.append([int(j) for j in members])
        return components

    def _shifts(
        self,
        sub: np.ndarray,
        root_local: int,
        hint: Optional[List[int]] = None,
    ) -> EngineShifts:
        # One rule, cold or warm (DESIGN.md section 6): serve the pass
        # under a candidate's exact mean when its canonical tight cycle
        # is the candidate or, for a located one, has a bit-equal mean.
        # Served that way from an unnudged pass, the solve is settled.
        warm = hint is not None
        candidate = canonical_cycle(hint or howard_cycle(sub, self.stats))
        passes, settled = 0, False
        while True:
            dist, a_max, tight, nudges = self._pass(
                sub, root_local, candidate, warm
            )
            if warm:
                self.stats.count(
                    "shifts.warm_hits" if tight == candidate
                    else "shifts.warm_fallbacks"
                )
            else:
                passes += 1
            if tight == candidate:
                settled = not nudges
                break
            if warm:
                warm = False
                candidate = canonical_cycle(howard_cycle(sub, self.stats))
            elif tight is None or passes == _LOCATED_PASSES:
                break
            else:
                candidate = tight
                if cycle_mean(sub, tight) == a_max:
                    settled = not nudges
                    break
        return EngineShifts(
            corrections=dist,
            a_max=a_max,
            cycle_rows=tuple(candidate),
            settled=settled,
        )

    def _pass(
        self, sub: np.ndarray, root_local: int, cycle: List[int], warm: bool
    ) -> Tuple[Optional[np.ndarray], float, Optional[List[int]], int]:
        """Distances under ``mean(cycle) - ms~``, that mean, their
        canonical tight cycle and the nudges the pass needed; a warm pass
        may not nudge, so may fail."""
        a_max = cycle_mean(sub, cycle)
        if warm:
            dist = bellman_ford_matrix(shift_weights(sub, a_max), root_local)
            nudges = 0
        else:
            dist, nudges = shift_distances(sub, a_max, root_local)
            if nudges:
                self.stats.count("shifts.nudge_retries", nudges)
        tight = None if dist is None else tight_cycle(sub, a_max, dist, nudges)
        return dist, a_max, canonical_cycle(tight) if tight else None, nudges

    def _keeps(
        self,
        sub: np.ndarray,
        root_local: int,
        solve: EngineShifts,
        cells: Tuple[np.ndarray, np.ndarray],
        old: np.ndarray,
        proof: Optional[KeepProof],
    ) -> Optional[KeepProof]:
        # A warm re-solve hinted with the settled cycle C would serve
        # (A, x, C) again (DESIGN.md section 6) when (1) tight_cycle's
        # tolerance scale is unchanged, (2) no decreased entry was tight,
        # so C's entries and A = mean(C) are untouched and the tight set
        # stays the same, and (3) Bellman--Ford under the new weights
        # returns x bit for bit.  With an earlier proof, (1) reads the
        # changed entries and (3) follows from (2): no tree edge moved.
        rows, cols = cells
        if np.count_nonzero(rows == cols):
            return None  # a diagonal entry moved: not an edge, re-solve
        x, a_max = solve.corrections, solve.a_max
        if proof is None or (
            # Entries only decrease; one at the scale itself may have
            # been the maximum, so only the full max tells.
            proof.scale > 1.0 and len(old)
            and np.abs(old).max() == proof.scale
        ):
            magnitude = np.abs(sub)
            np.fill_diagonal(magnitude, 0.0)
            scale = max(1.0, float(magnitude.max()))
            if len(old):
                magnitude[rows, cols] = np.abs(old)
                if max(1.0, float(magnitude.max())) != scale:
                    return None
        else:
            scale = proof.scale
            if len(rows) and np.abs(sub[rows, cols]).max() > scale:
                return None
        # tight_cycle's slack expression and unnudged tolerance, exactly.
        slack = x[rows] + (a_max - old) - x[cols]
        if np.count_nonzero(slack > _TOL * scale) != len(slack):
            return None
        if proof is not None and proof.tree is not None:
            # Slack entries are no tree edges (fl(x_u + w) > x_v there),
            # which this restates at O(changed) cost.
            if np.count_nonzero(proof.tree[cols] == rows):
                return None
            return KeepProof(scale, proof.tree)
        # shift_weights(sub, a_max), as the block's scale is finite.
        weights = a_max - sub
        np.fill_diagonal(weights, INF)
        tree = realizing_tree(weights, x, root_local)
        if tree is None and len(old):
            dist = bellman_ford_matrix(weights, root_local)
            if dist is None or dist.tobytes() != x.tobytes():
                return None
        return KeepProof(scale, tree)

    def _incremental(
        self, ms_matrix: np.ndarray, changes: List[Tuple[int, int, float]]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        closure = ms_matrix.astype(float, copy=True)
        for i, j, weight in changes:
            if i == j:
                if weight < -_TOL:
                    raise InconsistentViewsError(
                        "negative self-estimate in incremental update"
                    )
                continue
            through = closure[:, i, None] + (weight + closure[None, j, :])
            np.minimum(closure, through, out=closure)
        self.stats.count("incremental_update.relaxed_edges", len(changes))
        if has_negative_diagonal(closure):
            raise InconsistentViewsError(
                "incrementally updated local shift estimates contain a "
                "negative cycle; the observed delays are inconsistent with "
                "the declared delay assumptions"
            )
        return closure, np.flatnonzero(closure < ms_matrix)


__all__ = [
    "NumpyEngine",
    "min_plus_closure",
    "has_negative_diagonal",
    "bellman_ford_matrix",
    "realizing_tree",
    "karp_cycle",
    "howard_cycle",
    "shift_weights",
    "shift_distances",
    "tight_cycle",
    "canonical_cycle",
    "cycle_mean",
]
