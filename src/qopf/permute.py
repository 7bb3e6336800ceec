"""Node orderings that make OPF observables cheap to measure.

The admittance pattern is the union of the sparsity patterns of all problem
matrices, so one node permutation chosen on it reduces the bandwidth and
the XOR-color count of every matrix at once.  Bandwidth
minimization is NP-hard; reverse Cuthill-McKee with random restarts is the
workhorse here.  A gradient costs (2P+1)(2C-1) rotated circuits for C
colors, and a bandwidth-minimal ordering need not have few colors, so the
rule is bandwidth first, then a descent on colors that never widens the
band (see ``best_rcm``).

Conventions, fixed for reproducible fixtures: Cuthill-McKee degree ties
break by ascending node index; restart seeds draw start nodes uniformly
with replacement; padding indices (>= the original n) are appended after
the permuted real nodes and never mixed in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .grid import MatrixStack, QcqpProblem, ValidationError, next_power_of_two


@dataclass(frozen=True)
class SparsityPattern:
    """Symmetric set of (row, col) positions of an n x n matrix."""

    n: int
    entries: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.entries:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValidationError(f"pattern entry ({i}, {j}) outside dimension {self.n}")
            if (j, i) not in self.entries:
                raise ValidationError(f"pattern not symmetric at ({i}, {j})")

    @classmethod
    def from_matrix(cls, matrix) -> "SparsityPattern":
        coo = sparse.csr_matrix(matrix).tocoo()
        nonzero = coo.data != 0
        rows, cols = coo.row[nonzero].tolist(), coo.col[nonzero].tolist()
        return cls(coo.shape[0], frozenset(zip(rows, cols)) | frozenset(zip(cols, rows)))

    def padded(self) -> "SparsityPattern":
        """Same entries inside the next power-of-two dimension."""
        return SparsityPattern(next_power_of_two(self.n), self.entries)

    def adjacency(self) -> list[list[int]]:
        neighbors: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.entries:
            if i != j:
                neighbors[i].add(j)
        return [sorted(s) for s in neighbors]


@dataclass(frozen=True)
class NodePermutation:
    """Bijection old index -> new index with its inverse."""

    forward: np.ndarray
    inverse: np.ndarray

    @classmethod
    def from_forward(cls, forward) -> "NodePermutation":
        forward = np.asarray(forward, dtype=int)
        n = len(forward)
        if sorted(forward.tolist()) != list(range(n)):
            raise ValidationError("forward map is not a bijection")
        inverse = np.empty(n, dtype=int)
        inverse[forward] = np.arange(n)
        return cls(forward, inverse)

    def __len__(self) -> int:
        return len(self.forward)

    def extended(self, dim: int) -> "NodePermutation":
        """Extend to ``dim`` with identity on the appended (padding) indices."""
        if dim < len(self):
            raise ValidationError("cannot extend a permutation to a smaller dimension")
        forward = np.concatenate([self.forward, np.arange(len(self), dim)])
        return NodePermutation.from_forward(forward)

    def apply_to_vector(self, v: np.ndarray) -> np.ndarray:
        """Return Pv (entry at new index comes from the old index)."""
        return np.asarray(v)[self.inverse]

    def undo_on_vector(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v)[self.forward]


def bandwidth(pattern: SparsityPattern) -> int:
    """Largest |i - j| over pattern entries; 0 for a diagonal-only pattern."""
    return max((abs(i - j) for i, j in pattern.entries), default=0)


def color_set(pattern: SparsityPattern) -> set[int]:
    """The XOR colors {i ^ j} occupied by a power-of-two-sized pattern."""
    if pattern.n & (pattern.n - 1) or pattern.n == 0:
        raise ValidationError(f"pattern dimension {pattern.n} is not a power of two")
    return {i ^ j for i, j in pattern.entries}


def permute_pattern(pattern: SparsityPattern, perm: NodePermutation) -> SparsityPattern:
    if len(perm) != pattern.n:
        raise ValidationError("permutation length does not match pattern dimension")
    fwd = perm.forward
    return SparsityPattern(
        pattern.n,
        frozenset((int(fwd[i]), int(fwd[j])) for i, j in pattern.entries),
    )


def _rcm_visit(adjacency: list[list[int]], start: int) -> list[int]:
    """Reverse Cuthill-McKee visit order from ``start`` (see ``rcm_order``)."""
    n = len(adjacency)
    degree = [len(a) for a in adjacency]
    visited = np.zeros(n, dtype=bool)
    order = [start]
    visited[start] = True
    queue = deque([start])
    while queue:
        node = queue.popleft()
        fresh = [p for p in adjacency[node] if not visited[p]]
        fresh.sort(key=lambda p: (degree[p], p))
        for peer in fresh:
            visited[peer] = True
            order.append(peer)
            queue.append(peer)
    if len(order) < n:
        missing = int(np.flatnonzero(~visited)[0])
        raise ValidationError(f"pattern is disconnected (node {missing} unreached)")
    order.reverse()
    return order


def rcm_order(pattern: SparsityPattern, start: int) -> NodePermutation:
    """Reverse Cuthill-McKee ordering of a connected adjacency pattern.

    Breadth-first from ``start``, queueing unvisited neighbors by ascending
    (degree, index), then reversing the visit order.  Diagonal entries are
    ignored.  Deterministic for a fixed start.
    """
    if not (0 <= start < pattern.n):
        raise ValidationError(f"start node {start} out of range")
    order = _rcm_visit(pattern.adjacency(), start)
    forward = np.empty(pattern.n, dtype=int)
    forward[order] = np.arange(pattern.n)
    return NodePermutation.from_forward(forward)


def best_rcm(pattern: SparsityPattern, runs: int, seed: int) -> NodePermutation:
    """Best-of-``runs`` RCM orderings from seeded uniform random start nodes
    (drawn with replacement), then a color descent at fixed bandwidth.

    Bandwidth first: the RCM winner minimizes the resulting bandwidth;
    among bandwidth ties, the one whose padded pattern occupies fewer XOR
    colors wins, and remaining ties keep the earliest run.  The winner is
    then refined by ``_color_descent``, which swaps node positions while
    that strictly lowers the color count and keeps every entry within the
    winner's bandwidth.  The outcome is therefore a deterministic function
    of (pattern, runs, seed) and of nothing else; its bandwidth is never
    larger than the RCM winner's (a swap may narrow the band) and its color
    count is never larger either.
    """
    if runs < 1:
        raise ValidationError("runs must be >= 1")
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, pattern.n, size=runs)
    adjacency = pattern.adjacency()
    rows, cols = np.array(list(pattern.entries), dtype=int).reshape(-1, 2).T
    best: np.ndarray | None = None
    best_key: tuple[int, int] | None = None
    for start in dict.fromkeys(starts.tolist()):  # equal starts give equal orders
        forward = np.empty(pattern.n, dtype=int)
        forward[_rcm_visit(adjacency, start)] = np.arange(pattern.n)
        new_rows, new_cols = forward[rows], forward[cols]
        key = (int(np.abs(new_rows - new_cols).max(initial=0)),
               len(np.unique(new_rows ^ new_cols)))
        if best is None or key < best_key:
            best, best_key = forward, key
    return NodePermutation.from_forward(
        _color_descent(adjacency, pattern.entries, best, best_key[0]))


def _color_descent(adjacency: list[list[int]], entries, forward: np.ndarray,
                   band: int) -> np.ndarray:
    """First-improvement pairwise position swaps that strictly lower the XOR
    color count while keeping every |i - j| within ``band``.

    Positions p < q are scanned in order and passes repeat until one makes
    no swap.  Every node of a connected pattern has a neighbor within
    ``band``, so positions more than 2 * band apart can never be swapped and
    are skipped.  A swap moves only the entries at the two nodes, so color
    multiplicities (one count per unordered entry) are updated in place.
    """
    position = forward.tolist()
    n = len(position)
    node_at = [0] * n
    for node, p in enumerate(position):
        node_at[p] = node
    counts: dict[int, int] = {}
    for i, j in entries:
        if i <= j:
            c = position[i] ^ position[j]
            counts[c] = counts.get(c, 0) + 1
    improved = True
    while improved:
        improved = False
        for p in range(n):
            for q in range(p + 1, min(n, p + 2 * band + 1)):
                a, b = node_at[p], node_at[q]
                change = _swap_change(adjacency, position, a, b, band)
                if change is None:
                    continue
                delta = 0
                for c, d in change.items():
                    before = counts.get(c, 0)
                    delta += (before + d > 0) - (before > 0)
                if delta >= 0:
                    continue
                for c, d in change.items():
                    counts[c] = counts.get(c, 0) + d
                position[a], position[b] = q, p
                node_at[p], node_at[q] = b, a
                improved = True
    return np.array(position, dtype=int)


def _swap_change(adjacency: list[list[int]], position: list[int], a: int, b: int,
                 band: int) -> dict[int, int] | None:
    """Color multiplicity changes when nodes ``a`` and ``b`` trade positions,
    or None if an entry would leave the band.  The entry (a, b) itself, if
    present, keeps its color and is skipped."""
    change: dict[int, int] = {}
    for node, old, new, other in ((a, position[a], position[b], b),
                                  (b, position[b], position[a], a)):
        for x in adjacency[node]:
            if x == other:
                continue
            px = position[x]
            if abs(new - px) > band:
                return None
            change[old ^ px] = change.get(old ^ px, 0) - 1
            change[new ^ px] = change.get(new ^ px, 0) + 1
    return change


def permute_problem(problem: QcqpProblem, perm: NodePermutation) -> QcqpProblem:
    """Conjugate the cost and every row by the permutation, mapping the row
    and column index of each stored entry through ``perm.forward``; bounds,
    order and labels are untouched, so quadratic forms are invariant:
    (Pv)^dag (P M P^T) (Pv) = v^dag M v."""
    if len(perm) != problem.dim:
        raise ValidationError(
            f"permutation length {len(perm)} != problem dimension {problem.dim}"
        )
    fwd = perm.forward
    c, s = problem.cost, problem.stack
    return replace(
        problem,
        cost=MatrixStack(c.segments, fwd[c.rows], fwd[c.cols], c.values, 1, c.dim),
        stack=MatrixStack(s.segments, fwd[s.rows], fwd[s.cols], s.values, s.count, s.dim),
    )
