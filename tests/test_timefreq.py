"""Tests for the frequency-cube combinatorics layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqbench.timefreq import (
    CLUSTER_SPACING,
    FreqCube,
    HaloError,
    Iv,
    MultiTile,
    TopData,
    Tree,
    bessel_ratio,
    box_footprints,
    build_halos,
    candidate_tops,
    cluster_family,
    diagonal_clearance_violations,
    dyadic,
    footprint_violations,
    forest_decompose,
    greedy_select,
    halo_violations,
    le_matrix,
    mt_le,
    mt_lessdot,
    operator_intervals,
    regularize,
    selection_convexity_violations,
    spacing_violations,
    tile_le,
    tree_footprint_violations,
    tree_members,
)


def lessdot(tiles):
    """Matrix of the frequency-only order over all tile pairs."""
    return np.array([[mt_lessdot(p, q) for q in tiles] for p in tiles])


def diag_cube(side, anchor, spread=3.0, perm=(0, 1, 2)):
    offs = [0.0, spread, -spread]
    centers = tuple(anchor + offs[p] * side for p in perm)
    return FreqCube(side, centers)


class TestIntervals:
    def test_basic_measures(self):
        iv = Iv(-1.0, 3.0)
        assert iv.length == 4.0
        assert iv.center == 1.0
        assert iv.contains(3.0) and not iv.contains(3.5)

    def test_enclose_meet_dist(self):
        a, b = Iv(0.0, 2.0), Iv(0.5, 1.5)
        assert a.encloses(b) and not b.encloses(a)
        assert a.meets(b)
        c = Iv(5.0, 6.0)
        assert not a.meets(c)
        assert a.dist(c) == 3.0
        assert a.dist(b) == 0.0

    def test_scaled_is_centered(self):
        iv = Iv(2.0, 4.0).scaled(10.0)
        assert iv == Iv(-7.0, 13.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Iv(1.0, 0.0)

    def test_dyadic_grid(self):
        assert dyadic(0.25, 5) == Iv(1.25, 1.5)


class TestSpacing:
    def test_engineered_pair_passes(self):
        cubes = [diag_cube(1.0, 0.0), diag_cube(1.0, 100.0),
                 diag_cube(16.0, 2048.0)]
        assert spacing_violations(cubes, 4) == []

    def test_same_scale_crowding_detected(self):
        cubes = [diag_cube(1.0, 0.0), diag_cube(1.0, 10.0)]
        kinds = {v[0] for v in spacing_violations(cubes, 4)}
        assert "same-scale-crowding" in kinds

    def test_scale_gap_detected(self):
        # sides 1 and 8 are closer than the required factor 16
        cubes = [diag_cube(1.0, 0.0), diag_cube(8.0, 4096.0)]
        kinds = {v[0] for v in spacing_violations(cubes, 4)}
        assert "scale-gap" in kinds

    def test_shared_component_detected(self):
        a = FreqCube(1.0, (0.0, 3.0, -3.0))
        b = FreqCube(1.0, (0.0, 100.0, 94.0))
        kinds = {v[0] for v in spacing_violations([a, b], 4)}
        assert "shared-component" in kinds


class TestDiagonalClearance:
    def test_offset_cube_passes(self):
        assert diagonal_clearance_violations([diag_cube(4.0, 7.0)]) == []

    def test_straddling_cube_fails(self):
        bad = FreqCube(4.0, (7.0, 7.0, 7.0))
        kinds = {v[0] for v in diagonal_clearance_violations([bad])}
        assert "touches-diagonal" in kinds

    def test_remote_cube_fails(self):
        bad = FreqCube(1.0, (0.0, 50.0, -50.0))
        kinds = {v[0] for v in diagonal_clearance_violations([bad])}
        assert "strays-from-diagonal" in kinds


class TestHalos:
    def cubes(self):
        return [diag_cube(1.0, 576.0), diag_cube(1.0, 640.0, 2.5),
                diag_cube(16.0, 512.0), diag_cube(256.0, 0.0)]

    def test_halo_family_verifies(self):
        halos = build_halos(self.cubes())
        assert halo_violations(halos) == []

    def test_halo_contains_thousandfold_dilate(self):
        halos = build_halos(self.cubes())
        for q, hs in halos.items():
            for i in range(3):
                assert hs[i].encloses(q.component(i).scaled(1000))

    def test_budget_respected(self):
        halos = build_halos(self.cubes())
        for q, hs in halos.items():
            for h in hs:
                assert h.length <= 1020.0 * q.side

    def test_endpoints_quantized(self):
        halos = build_halos(self.cubes())
        for q, hs in halos.items():
            quantum = q.side / 256
            for h in hs:
                for e in (h.lo, h.hi):
                    assert (e / quantum) == round(e / quantum)

    def test_nesting_audit_catches_partial_overlap(self):
        small = diag_cube(1.0, 0.0)
        big = diag_cube(16.0, 0.0)
        fake = {
            small: tuple(small.component(i).scaled(1002) for i in range(3)),
            # shifted so the stretched small halos straddle its boundary
            big: tuple(Iv(c - 8000.0 + 6000.0, c + 8000.0 + 6000.0)
                       for c in big.centers),
        }
        assert halo_violations(fake) != []


class TestOrderings:
    def family(self, seed=0):
        return cluster_family(seed)

    def test_le_requires_both_inclusions(self):
        tiles = self.family()
        fine = min(tiles, key=lambda p: p.interval.length)
        coarse = max(tiles, key=lambda p: p.interval.length)
        assert fine.interval.length < coarse.interval.length
        # reflexive, antisymmetric on distinct scales
        assert mt_le(fine, fine)
        assert not mt_le(coarse, fine)

    def test_le_propagates_componentwise(self):
        tiles = self.family()
        for a in tiles:
            for b in tiles:
                if a is b or not mt_le(a, b):
                    continue
                assert all(tile_le(a, b, i) for i in range(3))

    def test_le_transitive(self):
        le = le_matrix(self.family())
        closure = le | (le @ le)
        assert (closure == le).all()

    def test_lessdot_coarser_than_le(self):
        tiles = self.family()
        le, ld = le_matrix(tiles), lessdot(tiles)
        assert (le <= ld).all()

    def test_no_cross_cluster_relations(self):
        tiles = self.family()
        ld = lessdot(tiles)
        cluster = np.array([round(p.cube.centers[0] / CLUSTER_SPACING)
                            for p in tiles])
        off = cluster[:, None] != cluster[None, :]
        assert not (ld & off).any()


class TestFootprints:
    def test_generated_family_monotone(self):
        assert footprint_violations(cluster_family(1)) == []

    def test_gap_detected_and_closed(self):
        cubes = [diag_cube(1.0, 576.0), diag_cube(16.0, 512.0)]
        halos = build_halos(cubes)
        unit, mid = cubes
        tiles = [MultiTile(dyadic(1.0, 0), unit, halos[unit]),
                 MultiTile(dyadic(1.0 / 16, 16 + 3), mid, halos[mid])]
        assert footprint_violations(tiles) != []
        closed = regularize(tiles)
        assert footprint_violations(closed) == []
        assert set(tiles) <= set(closed)

    def test_regularize_idempotent(self):
        tiles = cluster_family(2)
        assert regularize(tiles) == tiles

    def test_footprints_are_cell_sets(self):
        tiles = cluster_family(3)
        feet = box_footprints(tiles)
        width = min(p.interval.length for p in tiles)
        total = sum(p.interval.length for p in tiles)
        assert sum(len(c) for c in feet.values()) * width <= total + 1e-9


class TestTrees:
    def test_top_halo_radius(self):
        top = TopData(100.0, dyadic(16.0, 0))
        assert top.halo == Iv(100.0 - 31.25, 100.0 + 31.25)

    def test_own_top_captures_tile(self):
        tiles = cluster_family(4)
        for p in tiles:
            top = TopData(p.halos[0].center, p.interval)
            assert p in tree_members(tiles, top)

    def test_members_match_brute_filter(self):
        tiles = cluster_family(5)
        top = TopData(tiles[0].halos[0].center, dyadic(16.0, 0))
        got = tree_members(tiles, top)
        want = [p for p in tiles
                if top.interval.encloses(p.interval)
                and any(p.halos[i].encloses(top.halo) for i in range(3))]
        assert got == want

    def test_candidate_pool_sorted_and_covering(self):
        tiles = cluster_family(6)
        pool = candidate_tops(tiles, 6, 4)
        lengths = [t.interval.length for t in pool]
        assert lengths == sorted(lengths, reverse=True)
        covered = set()
        for top in pool:
            covered.update(tree_members(tiles, top))
        assert covered == set(tiles)


class TestGreedySelection:
    def test_partitions_family(self):
        tiles = cluster_family(7)
        trees = greedy_select(tiles)
        seen = [p for t in trees for p in t.members]
        assert sorted(seen, key=id) != []
        assert len(seen) == len(tiles)
        assert set(seen) == set(tiles)

    def test_each_tree_maximal_in_remainder(self):
        tiles = cluster_family(8)
        trees = greedy_select(tiles)
        remaining = list(tiles)
        for tree in trees:
            assert list(tree.members) == tree_members(remaining, tree.top)
            remaining = [p for p in remaining if p not in set(tree.members)]

    def test_deterministic(self):
        a = greedy_select(cluster_family(9))
        b = greedy_select(cluster_family(9))
        assert [t.top for t in a] == [t.top for t in b]

    def test_multiple_trees(self):
        assert len(greedy_select(cluster_family(10))) >= 2

    def test_selected_trees_footprint_monotone(self):
        for tree in greedy_select(cluster_family(11)):
            assert tree_footprint_violations(tree) == []

    def test_convexity_nontrivial_and_clean(self):
        tiles = cluster_family(12)
        trees = greedy_select(tiles)
        checked, bad = selection_convexity_violations(tiles, trees)
        assert checked > 0
        assert bad == 0


class TestForestDecompose:
    @staticmethod
    def weight_size(tree):
        # monotone mock size: largest cube side among members, rescaled
        return max(p.cube.side for p in tree.members) / 1024.0

    def test_levels_partition(self):
        tiles = cluster_family(13)
        forests = forest_decompose(tiles, self.weight_size)
        seen = [p for trees in forests.values() for t in trees
                for p in t.members]
        assert len(seen) == len(tiles)
        assert set(seen) == set(tiles)

    def test_level_thresholds(self):
        tiles = cluster_family(14)
        forests = forest_decompose(tiles, self.weight_size)
        for n, trees in forests.items():
            if n >= 60:
                continue
            for t in trees:
                assert self.weight_size(t) > 2.0 ** (-n - 1)

    def test_bessel_ratio_scaling(self):
        trees = [Tree(TopData(0.0, dyadic(4.0, 0)), ()),
                 Tree(TopData(0.0, dyadic(2.0, 1)), ())]
        assert bessel_ratio(trees, 1, 3.0) == (4.0 + 2.0) / (4.0 * 3.0)

    def test_zero_size_falls_through(self):
        tiles = cluster_family(15)
        forests = forest_decompose(tiles, lambda t: 0.0)
        assert list(forests) == [60]


class TestOperatorIntervals:
    def test_widths_follow_slope(self):
        cube = diag_cube(2.0, 100.0)
        u, v, w = operator_intervals(cube, 1.5)
        assert u.length == 2.0
        assert v.length == 3.0
        assert w.length == 5.0

    def test_third_component_flipped(self):
        cube = diag_cube(2.0, 100.0)
        _, _, w = operator_intervals(cube, 1.0)
        assert w.hi <= 0.0
        assert w.center == -2.0 * cube.centers[2]


class TestClusterFamily:
    def test_passes_all_audits(self):
        tiles = cluster_family(16)
        cubes = sorted({p.cube for p in tiles},
                       key=lambda c: (c.side, c.centers))
        assert spacing_violations(cubes, 4) == []
        assert diagonal_clearance_violations(cubes) == []
        assert halo_violations({p.cube: p.halos for p in tiles}) == []
        assert footprint_violations(tiles) == []

    def test_three_spatial_scales(self):
        lengths = {p.interval.length for p in cluster_family(17)}
        assert lengths == {1.0 / 256, 1.0 / 16, 1.0}

    def test_size_cap(self):
        assert len(cluster_family(18)) <= 200

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_pipeline_invariants_random_seeds(self, seed):
        tiles = cluster_family(seed)
        assert footprint_violations(tiles) == []
        trees = greedy_select(tiles)
        for tree in trees:
            assert tree_footprint_violations(tree) == []
        checked, bad = selection_convexity_violations(tiles, trees)
        assert checked > 0
        assert bad == 0
