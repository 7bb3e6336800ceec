"""Node orderings that make OPF observables cheap to measure.

The admittance pattern is the union of the sparsity patterns of all problem
matrices, so one node permutation chosen on it reduces the bandwidth and
the XOR-color count of every matrix at once.  Bandwidth
minimization is NP-hard; reverse Cuthill-McKee with random restarts is the
workhorse here.  A gradient costs (2P+1)(2C-1) rotated circuits for C
colors, and a bandwidth-minimal ordering need not have few colors, so the
rule is bandwidth first, then a search on colors that never widens the
band (see ``best_rcm``).  The search scores every candidate swap of two
node positions at once with numpy and ranks them by the change of C and
then of the concentration of entries on colors.  On the bundled ieee57
pattern it takes the bandwidth-11 RCM pick from 29 colors to 19 (a
first-improvement descent stopped at 22), and on two tied ieee57 copies
from 52 to 36 at bandwidth 16.

Conventions, fixed for reproducible fixtures: Cuthill-McKee degree ties
break by ascending node index; restart seeds draw start nodes uniformly
with replacement; padding indices (>= the original n) are appended after
the permuted real nodes and never mixed in.
"""

from __future__ import annotations

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


def _ranked_adjacency(pattern: SparsityPattern) -> list[list[int]]:
    """Each node's neighbors by ascending (degree, index): the order in
    which a Cuthill-McKee visit queues them."""
    adjacency = pattern.adjacency()
    degree = [len(a) for a in adjacency]
    return [sorted(a, key=lambda p: (degree[p], p)) for a in adjacency]


def _rcm_visit(ranked: list[list[int]], start: int) -> list[int]:
    """Reverse Cuthill-McKee visit order of a connected pattern from
    ``start``: breadth-first, queueing unvisited neighbors by ascending
    (degree, index), then reversed.  ``tests/conftest.py::rcm_order`` wraps
    it as a single ordering."""
    seen = bytearray(len(ranked))
    seen[start] = 1
    order = [start]
    for node in order:  # the visit order is its own breadth-first queue
        for peer in ranked[node]:
            if not seen[peer]:
                seen[peer] = 1
                order.append(peer)
    if len(order) < len(ranked):
        raise ValidationError(
            f"pattern is disconnected (node {seen.index(0)} unreached)")
    order.reverse()
    return order


def best_rcm(pattern: SparsityPattern, runs: int, seed: int) -> NodePermutation:
    """Best-of-``runs`` RCM orderings from seeded uniform random start nodes
    (drawn with replacement), then a color search at fixed bandwidth.

    Bandwidth first: the RCM winner minimizes the resulting bandwidth;
    among bandwidth ties, the one whose padded pattern occupies fewer XOR
    colors wins, and remaining ties keep the earliest run.  The winner is
    then refined by ``_ColorSearch``: rounds of node-position swaps within
    the winner's bandwidth, scored together and ranked by the change of the
    color count, then of the sum of squared color multiplicities.  On
    ieee57 (200 runs, seed 7) the winner has 29 colors at bandwidth 11 and
    the search ends at 19.  Its random tie breaks come from the same
    generator, after the start draws.  The outcome is therefore a
    deterministic function of (pattern, runs, seed) and of nothing else;
    its bandwidth is never larger than the RCM winner's (a swap may narrow
    the band) and its color count is never larger either.
    """
    if runs < 1:
        raise ValidationError("runs must be >= 1")
    rng = np.random.default_rng(seed)
    # equal starts give equal orders
    starts = dict.fromkeys(rng.integers(0, pattern.n, size=runs).tolist())
    search = _ColorSearch(pattern)
    forward, band = search.pick(starts)
    return NodePermutation.from_forward(search.run(forward, band, rng))


class _ColorSearch:
    """The RCM pick of ``best_rcm`` and its search for position swaps that
    lower the XOR color count at a fixed bandwidth.

    The state is a position per node; an unordered entry (i, j) occupies
    color position[i] ^ position[j], and the color multiplicities over all
    entries give C (colors occupied) and the concentration sum of squared
    multiplicities.  A round scores many swaps at once and ranks them by
    (change of C, minus change of the concentration sum), so that on a C
    plateau swaps that pile entries onto fewer colors still rank as
    progress.  See ``run``.
    """

    def __init__(self, pattern: SparsityPattern):
        n = pattern.n
        self.n = n
        self.ranked = ranked = _ranked_adjacency(pattern)
        self.dim = next_power_of_two(n)
        self.diagonal = sum(i == j for i, j in pattern.entries)
        self.edges = np.array([e for e in pattern.entries if e[0] < e[1]],
                              dtype=np.intp).reshape(-1, 2)
        degree = np.array([len(peers) for peers in ranked])
        # each node's neighbors, padded by repeating its first one
        self.table = np.zeros((n, degree.max(initial=0)), dtype=np.intp)
        for node, peers in enumerate(ranked):
            if peers:
                self.table[node] = peers[0]
                self.table[node, :len(peers)] = peers
        self.real = np.arange(self.table.shape[1]) < degree[:, None]
        self.closed = [set(peers) | {node} for node, peers in enumerate(ranked)]

    def pick(self, starts) -> tuple[np.ndarray, int]:
        """The RCM ordering (forward map) of least (bandwidth, colors) over
        ``starts``, earliest start on ties, and its bandwidth."""
        orders = np.empty((len(starts), self.n), dtype=np.int32)
        for row, start in enumerate(starts):
            orders[row] = _rcm_visit(self.ranked, start)
        forwards = np.empty_like(orders)
        np.put_along_axis(forwards, orders, np.arange(self.n, dtype=np.int32), axis=1)
        ends = forwards[:, self.edges]
        bands = np.abs(ends[..., 0] - ends[..., 1]).max(axis=1, initial=0)
        occupied = np.zeros((len(orders), self.dim), dtype=bool)
        occupied[np.arange(len(orders))[:, None], ends[..., 0] ^ ends[..., 1]] = True
        colors = occupied.sum(axis=1)
        pick = int(np.lexsort((colors, bands))[0])
        return forwards[pick].astype(np.intp), int(bands[pick])

    def counts(self, position: np.ndarray) -> np.ndarray:
        """Color multiplicities of the entries under ``position``."""
        counts = np.bincount(position[self.edges[:, 0]] ^ position[self.edges[:, 1]],
                             minlength=self.dim)
        counts[0] += self.diagonal
        return counts

    def score(self, position, node_at, counts, band, pairs):
        """Swaps of the positions in each row of ``pairs`` that keep every
        entry within ``band``: those rows, and per row the change of C, the
        change of the concentration sum and the (dim,) multiplicity changes."""
        ends = position[self.table[node_at]]  # neighbor positions, by position
        # a node can move to a position within band of all its neighbors;
        # its swap partner, if a neighbor, moves too but keeps the distance
        low = ends.max(axis=1, initial=0) - band
        high = ends.min(axis=1, initial=self.n) + band
        p, q = pairs.T
        pairs = pairs[(low[p] <= q) & (q <= high[p]) & (low[q] <= p) & (p <= high[q])]
        ends = ends[pairs]  # (swaps, 2, degree)
        src = pairs[:, :, None]
        dst = pairs[:, ::-1, None]
        moved = self.real[node_at[pairs]] & (ends != dst)  # (a, b) keeps its color
        rows = np.broadcast_to(np.arange(len(pairs))[:, None, None] * self.dim, ends.shape)[moved]
        cells = np.concatenate([rows + (dst ^ ends)[moved], rows + (src ^ ends)[moved]])
        signs = np.repeat([1, -1], len(rows))
        change = np.bincount(cells, signs, len(pairs) * self.dim).astype(np.int32)
        change = change.reshape(-1, self.dim)
        swap, color = np.nonzero(change)
        before = counts[color]
        after = before + change[swap, color]
        d_colors = np.bincount(swap, (after > 0).astype(int) - (before > 0), len(pairs))
        d_square = np.bincount(swap, after * after - before * before, len(pairs))
        return pairs, d_colors.astype(int), d_square.astype(int), change

    def run(self, forward: np.ndarray, band: int, rng: np.random.Generator) -> np.ndarray:
        """Rounds of ranked swaps (``step``) from ``forward`` until 3 rounds
        in a row find no new best; returns the best positions seen.

        No in-band swap of the result lowers C.  Such a swap must move every
        entry of some color, and it moves at most one entry of each color at
        each of its two nodes, so that color has at most 2 entries.  The
        round after each new best starts from it, scores every in-band swap
        that moves such an entry, and applies the best-ranked one, which
        would lower C and make a newer best.
        """
        p = np.repeat(np.arange(self.n), 2 * band)
        q = p + np.tile(np.arange(1, 2 * band + 1), self.n)
        pairs = np.stack([p, q], axis=1)[q < self.n]
        position = forward
        best_key, best = _key(self.counts(position)), position.copy()
        stall = 0
        while stall < 3:
            key = self.step(position, pairs, band, rng)
            if key < best_key:
                best_key, best, stall = key, position.copy(), 0
            else:
                stall += 1
        return best

    def step(self, position, pairs, band, rng) -> tuple[int, int]:
        """One round on ``position``, in place; returns the new key.

        A round scores the in-band swaps among ``pairs`` that move a node
        with an entry of a color of multiplicity <= 2, and applies the
        best-ranked swap even if that worsens the key, so the search can
        leave a plateau.  Every further improving swap whose closed
        neighborhoods and touched colors are disjoint from those already
        taken applies in the same round: such swaps read no position another
        one moves, so their changes add exactly.  Ties in the ranking break
        by ``rng``.
        """
        counts = self.counts(position)
        colors = position[self.edges[:, 0]] ^ position[self.edges[:, 1]]
        rare = np.zeros(self.n, dtype=bool)
        rare[position[self.edges[counts[colors] <= 2]]] = True
        node_at = np.empty_like(position)
        node_at[position] = np.arange(self.n)
        pairs, d_colors, d_square, change = self.score(
            position, node_at, counts, band, pairs[rare[pairs].any(axis=1)])
        order = np.lexsort((rng.random(len(pairs)), -d_square, d_colors))
        improving = np.count_nonzero((d_colors < 0) | ((d_colors == 0) & (d_square > 0)))
        taken_nodes: set[int] = set()
        taken_colors: set[int] = set()
        for s in order[:max(improving, 1)].tolist():
            a, b = node_at[pairs[s]].tolist()
            hood = self.closed[a] | self.closed[b]
            if not taken_nodes.isdisjoint(hood):
                continue
            touched = set(np.flatnonzero(change[s]).tolist())
            if taken_colors.isdisjoint(touched):
                taken_nodes |= hood
                taken_colors |= touched
                position[a], position[b] = position[b], position[a]
        return _key(self.counts(position))


def _key(counts: np.ndarray) -> tuple[int, int]:
    """(C, minus the concentration sum) of color multiplicities: lower is
    better."""
    return int(np.count_nonzero(counts)), -int(counts @ counts)


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
