import itertools
import tracemalloc

import numpy as np
import pytest

from qopf import grid, permute
from qopf.grid import ValidationError
from qopf.permute import NodePermutation, SparsityPattern

from conftest import (banded_pattern, color_counts, color_delta, descent_rcm,
                      pattern_from_edges, random_problem, rcm_order, rcm_pick, swap_change)


def pattern_of_edges(n, edges):
    return pattern_from_edges(n, edges, diagonal=True)


def exhaustive_min_bandwidth(pattern):
    best = pattern.n
    for order in itertools.permutations(range(pattern.n)):
        fwd = np.empty(pattern.n, dtype=int)
        fwd[list(order)] = np.arange(pattern.n)
        perm = NodePermutation.from_forward(fwd)
        best = min(best, permute.bandwidth(permute.permute_pattern(pattern, perm)))
    return best


def test_bandwidth_diagonal_is_zero():
    assert permute.bandwidth(pattern_from_edges(4, [], diagonal=True)) == 0


def test_bandwidth_tridiagonal_is_one():
    assert permute.bandwidth(banded_pattern(8, 1)) == 1


def test_bandwidth_ieee57_natural(ieee57):
    pattern = SparsityPattern.from_matrix(grid.build_admittance(ieee57))
    # frozen from the bundled topology: branch 9-55 spans indices 8..54
    assert permute.bandwidth(pattern) == 46


def test_color_set_diagonal():
    assert permute.color_set(pattern_from_edges(8, [], diagonal=True)) == {0}


def test_color_set_banded_8x8():
    colors = permute.color_set(banded_pattern(8, 1))
    assert colors == {0, 1, 3, 7}
    assert len(colors) == 4


def test_color_set_antidiagonal():
    entries = frozenset((i, 7 - i) for i in range(8))
    colors = permute.color_set(SparsityPattern(8, entries))
    assert colors == {7}


def test_color_set_requires_power_of_two():
    with pytest.raises(ValidationError, match="power of two"):
        permute.color_set(pattern_from_edges(6, [(0, 1)]))


def test_color_count_bound_for_banded_patterns():
    # C <= 2 k log2(n) + 1 for k-banded patterns
    for k in (1, 2, 4):
        for n in (8, 16, 32, 64, 128, 256, 512, 1024):
            colors = permute.color_set(banded_pattern(n, k))
            assert len(colors) <= 2 * k * int(np.log2(n)) + 1, (k, n, len(colors))


def test_rcm_path_graph_recovers_bandwidth_one():
    rng = np.random.default_rng(5)
    relabel = rng.permutation(8)
    edges = [(int(relabel[i]), int(relabel[i + 1])) for i in range(7)]
    pattern = pattern_of_edges(8, edges)
    perm = rcm_order(pattern, start=int(relabel[0]))
    assert permute.bandwidth(permute.permute_pattern(pattern, perm)) == 1


def test_rcm_star_graph_bounds():
    edges = [(0, i) for i in range(1, 5)]
    pattern = pattern_of_edges(5, edges)
    assert exhaustive_min_bandwidth(pattern) == 2
    for start in range(5):
        perm = rcm_order(pattern, start)
        bw = permute.bandwidth(permute.permute_pattern(pattern, perm))
        assert 2 <= bw <= 4


def test_rcm_keeps_banded_pattern_banded():
    pattern = banded_pattern(8, 1)
    perm = rcm_order(pattern, start=0)
    assert permute.bandwidth(permute.permute_pattern(pattern, perm)) <= 1


def test_rcm_output_is_bijection_and_deterministic():
    rng = np.random.default_rng(9)
    for trial in range(10):
        n = int(rng.integers(4, 12))
        tree = [(int(rng.integers(0, k)), k) for k in range(1, n)]
        extra = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(3)]
        edges = tree + [e for e in extra if e[0] != e[1]]
        pattern = pattern_of_edges(n, edges)
        perm = rcm_order(pattern, start=0)
        assert sorted(perm.forward.tolist()) == list(range(n))
        again = rcm_order(pattern, start=0)
        assert np.array_equal(perm.forward, again.forward)


def test_rcm_disconnected_raises_with_node():
    pattern = pattern_of_edges(4, [(0, 1)])
    with pytest.raises(ValidationError, match="disconnected"):
        rcm_order(pattern, start=0)


def test_best_rcm_single_run_matches_rcm_order(case3):
    """The no-swap case: the triangle admits no colour-lowering swap, so the
    single-run pick is exactly ``rcm_order`` from the drawn start."""
    pattern = SparsityPattern.from_matrix(grid.build_admittance(case3))
    rng = np.random.default_rng(12)
    start = int(rng.integers(0, pattern.n, size=1)[0])
    assert np.array_equal(permute.best_rcm(pattern, 1, 12).forward,
                          rcm_order(pattern, start).forward)


def test_best_rcm_monotone_in_runs(ieee57):
    pattern = SparsityPattern.from_matrix(grid.build_admittance(ieee57))
    bw200 = permute.bandwidth(
        permute.permute_pattern(pattern, permute.best_rcm(pattern, 200, seed=7)))
    bw400 = permute.bandwidth(
        permute.permute_pattern(pattern, permute.best_rcm(pattern, 400, seed=7)))
    assert bw400 <= bw200


def test_best_rcm_ieee57_reduces_bandwidth(ieee57):
    pattern = SparsityPattern.from_matrix(grid.build_admittance(ieee57))
    perm = permute.best_rcm(pattern, 200, seed=7)
    after = permute.permute_pattern(pattern, perm)
    assert permute.bandwidth(pattern) == 46
    # frozen fixture from the bundled topology, stable for seed 7
    assert permute.bandwidth(after) == 11


def test_best_rcm_never_worse_than_natural():
    rng = np.random.default_rng(21)
    for trial in range(8):
        n = int(rng.integers(5, 14))
        tree = [(int(rng.integers(0, k)), k) for k in range(1, n)]
        pattern = pattern_of_edges(n, tree)
        perm = permute.best_rcm(pattern, runs=n, seed=trial)
        assert permute.bandwidth(permute.permute_pattern(pattern, perm)) \
            <= permute.bandwidth(pattern)


def test_best_rcm_within_2x_of_exhaustive_optimum():
    rng = np.random.default_rng(33)
    for trial in range(6):
        n = int(rng.integers(5, 8))
        tree = [(int(rng.integers(0, k)), k) for k in range(1, n)]
        extra = [(int(rng.integers(0, n)), int(rng.integers(0, n)))]
        edges = tree + [e for e in extra if e[0] != e[1]]
        pattern = pattern_of_edges(n, edges)
        optimum = exhaustive_min_bandwidth(pattern)
        perm = permute.best_rcm(pattern, runs=n, seed=trial)
        achieved = permute.bandwidth(permute.permute_pattern(pattern, perm))
        assert achieved <= 2 * optimum, (trial, achieved, optimum)


def plain_rcm_winner(pattern, runs, seed):
    """(bandwidth, padded colors) of the restarted-RCM pick before any color
    descent: least (bandwidth, colors), earliest run on ties."""
    starts = np.random.default_rng(seed).integers(0, pattern.n, size=runs)
    keys = []
    for start in starts:
        after = permute.permute_pattern(pattern, rcm_order(pattern, int(start)))
        keys.append((permute.bandwidth(after), len(permute.color_set(after.padded()))))
    return min(keys)


def test_best_rcm_color_descent_against_plain_rcm():
    rng = np.random.default_rng(9)
    improved = 0
    for trial in range(30):
        n = int(rng.integers(4, 24))
        tree = [(int(rng.integers(0, k)), k) for k in range(1, n)]
        extra = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(3)]
        pattern = pattern_of_edges(n, tree + [e for e in extra if e[0] != e[1]])
        perm = permute.best_rcm(pattern, runs=n, seed=trial)
        assert sorted(perm.forward.tolist()) == list(range(n))
        assert np.array_equal(perm.forward, permute.best_rcm(pattern, n, trial).forward)
        after = permute.permute_pattern(pattern, perm)
        bw, colors = permute.bandwidth(after), len(permute.color_set(after.padded()))
        plain_bw, plain_colors = plain_rcm_winner(pattern, n, trial)
        # a swap may narrow the band but never widen it
        assert bw <= plain_bw, (trial, bw, plain_bw)
        assert colors <= plain_colors, (trial, colors, plain_colors)
        improved += colors < plain_colors
    assert improved > 0


def test_best_rcm_single_run_no_worse_than_rcm_order(ieee57):
    """With one run the colour descent follows ``rcm_order`` from the drawn
    start: the pick is never wider and never occupies more colours."""
    pattern = SparsityPattern.from_matrix(grid.build_admittance(ieee57))
    descended = 0
    for seed in range(4):
        after = permute.permute_pattern(pattern, permute.best_rcm(pattern, 1, seed))
        bw, colors = permute.bandwidth(after), len(permute.color_set(after.padded()))
        rcm_bw, rcm_colors = plain_rcm_winner(pattern, 1, seed)
        assert bw <= rcm_bw and colors <= rcm_colors, (seed, bw, rcm_bw, colors, rcm_colors)
        descended += colors < rcm_colors
    # the descent fires on this graph, so the bound is exercised
    assert descended > 0


def colors_and_band(pattern, perm):
    after = permute.permute_pattern(pattern, perm)
    return len(permute.color_set(after.padded())), permute.bandwidth(after)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("copies", [1, 2])
def test_best_rcm_beats_color_descent_ieee57(ieee57, ieee57x2_pattern, copies, seed):
    """The ranked swap search ends strictly below the first-improvement
    descent it replaced, from the same RCM pick, and no wider."""
    pattern = (SparsityPattern.from_matrix(grid.build_admittance(ieee57)) if copies == 1
               else ieee57x2_pattern)
    colors, band = colors_and_band(pattern, permute.best_rcm(pattern, 200, seed))
    descent_colors, descent_band = colors_and_band(pattern, descent_rcm(pattern, 200, seed))
    assert colors < descent_colors, (colors, descent_colors)
    assert band <= descent_band


def test_best_rcm_no_single_swap_lowers_colors():
    """On the random graphs of the plain-RCM comparison, the result is
    deterministic per seed and no swap of two node positions that keeps
    every entry within the RCM pick's bandwidth lowers C."""
    rng = np.random.default_rng(9)
    for trial in range(30):
        n = int(rng.integers(4, 24))
        tree = [(int(rng.integers(0, k)), k) for k in range(1, n)]
        extra = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(3)]
        pattern = pattern_of_edges(n, tree + [e for e in extra if e[0] != e[1]])
        forward = permute.best_rcm(pattern, n, trial).forward
        assert np.array_equal(forward, permute.best_rcm(pattern, n, trial).forward)
        _, band = rcm_pick(pattern, n, trial)
        adjacency, position = pattern.adjacency(), forward.tolist()
        counts = color_counts(pattern.entries, position)
        for a, b in itertools.combinations(range(n), 2):
            change = swap_change(adjacency, position, a, b, band)
            assert change is None or color_delta(counts, change) >= 0, (trial, a, b)


def test_best_rcm_memory_tiled_ieee57(ieee57x2_pattern):
    """The search scores only the filtered in-band swaps, with int32
    multiplicity changes: its traced peak on the two-copy tiled ieee57
    stays within 1 MB."""
    permute.best_rcm(ieee57x2_pattern, 200, 0)
    tracemalloc.start()
    try:
        permute.best_rcm(ieee57x2_pattern, 200, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000, peak


def test_permutation_extension_keeps_padding_fixed():
    perm = NodePermutation.from_forward([2, 0, 1])
    ext = perm.extended(8)
    assert np.array_equal(ext.forward[:3], [2, 0, 1])
    assert np.array_equal(ext.forward[3:], np.arange(3, 8))


def test_permute_problem_identity(case2):
    problem = grid.pad_to_qubits(grid.assemble_qcqp(case2))
    ident = NodePermutation.from_forward(np.arange(problem.dim))
    back = permute.permute_problem(problem, ident)
    assert np.allclose(back.m0.toarray(), problem.m0.toarray())


def test_permute_problem_quadratic_form_invariant():
    problem = random_problem(8, 4, seed=2)
    rng = np.random.default_rng(4)
    perm = NodePermutation.from_forward(rng.permutation(8))
    permuted = permute.permute_problem(problem, perm)
    for _ in range(10):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        pv = perm.apply_to_vector(v)
        lhs = np.real(v.conj() @ problem.m0.toarray() @ v)
        rhs = np.real(pv.conj() @ permuted.m0.toarray() @ pv)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        for a, b in zip(problem.constraints, permuted.constraints):
            assert np.real(v.conj() @ a.matrix.toarray() @ v) == pytest.approx(
                np.real(pv.conj() @ b.matrix.toarray() @ pv), abs=1e-12)
    assert permuted.bounds.tolist() == problem.bounds.tolist()
    inv = perm.inverse
    assert np.array_equal(permuted.dense_constraints(),
                          problem.dense_constraints()[:, inv][:, :, inv])
    assert np.array_equal(permuted.m0.toarray(), problem.m0.toarray()[inv][:, inv])


def test_permute_problem_dimension_mismatch(case2):
    problem = grid.assemble_qcqp(case2)
    with pytest.raises(ValidationError, match="dimension"):
        permute.permute_problem(problem, NodePermutation.from_forward(np.arange(5)))


def test_ieee57_color_fixture_after_rcm(ieee57):
    """Frozen statistics of the bundled pattern under the default seed.

    Colors drop 27 -> 19.  The RCM pick alone has 29 (no bandwidth-minimal
    RCM ordering of this graph beats the natural 27); the color search at
    fixed bandwidth 11 brings it below the natural numbering, and below the
    22 of the first-improvement descent it replaced.
    """
    pattern = SparsityPattern.from_matrix(grid.build_admittance(ieee57))
    perm = permute.best_rcm(pattern, 200, seed=7)
    after = permute.permute_pattern(pattern, perm)
    assert len(permute.color_set(pattern.padded())) == 27
    assert len(permute.color_set(after.padded())) == 19
