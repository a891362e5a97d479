"""Tests for the frequency-cube combinatorics layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_timefreq as S
from freqbench import experiments as ex
from freqbench import timefreq as tf
from freqbench.sizes import TreeSizer
from freqbench.timefreq import (
    CLUSTER_SPACING,
    MAX_TILES,
    SINK_LEVEL,
    Family,
    HaloError,
    Tree,
    build_halos,
    candidate_tops,
    cluster_family,
    compact_family,
    diagonal_clearance_violations,
    footprint_violations,
    footprints,
    forest_decompose,
    greedy_select,
    halo_violations,
    le_matrix,
    lessdot_matrix,
    operator_band_edge,
    operator_intervals,
    regularize,
    selection_convexity_violations,
    spacing_violations,
    tree_members,
    _scaled,
)

# the default config's values: span_bits and scale_bits of the tree top
# pool; scale_bits and c0 (clearance, compact_spread) of the generators;
# the operators' support_factor
BITS = (6, 4)
CLEARANCE = 2.0
CLUSTER = (4, CLEARANCE)
COMPACT = (4, 0.5)
SUPPORT = 1.5


def lessdot(tiles):
    """Matrix of the frequency-only order over all tile pairs."""
    return lessdot_matrix(tiles.halos)[np.ix_(tiles.cube, tiles.cube)]


def diag_cube(side, anchor, spread=3.0, perm=(0, 1, 2)):
    offs = [0.0, spread, -spread]
    return side, tuple(anchor + offs[p] * side for p in perm)


def cubes(*qs):
    """(side, centers) arrays of (side, centres) pairs."""
    return (np.array([q[0] for q in qs], dtype=float),
            np.array([q[1] for q in qs], dtype=float))


def halo_family(*qs, cells=None):
    """One tile per cube, at the given dyadic cells (default 0)."""
    side, centers = cubes(*qs)
    return Family.tiled(side, centers, build_halos(side, centers),
                        np.arange(len(side)), cells or [0] * len(side))


def kinds(violations):
    return {v[0] for v in violations}


def members_of(tiles, top):
    """Indices of the maximal tree of one top."""
    return np.flatnonzero(tree_members(tiles, [top])[0])


def batched(size):
    """The batched form forest_decompose takes of a per-tree size."""
    return lambda trees: [size(tree) for tree in trees]


def weight_size(tiles):
    # monotone mock size: largest cube side among members, rescaled
    return lambda tree: tiles.side[tiles.cube[tree.members]].max() / 1024.0


class TestIntervals:
    def test_scaled_is_centered(self):
        assert _scaled(np.array([2.0, 4.0]), 10.0).tolist() == [-7.0, 13.0]


class TestSpacing:
    def test_engineered_pair_passes(self):
        side, centers = cubes(diag_cube(1.0, 0.0), diag_cube(1.0, 100.0),
                              diag_cube(16.0, 2048.0))
        assert spacing_violations(side, centers, 4) == []

    def test_same_scale_crowding_detected(self):
        side, centers = cubes(diag_cube(1.0, 0.0), diag_cube(1.0, 10.0))
        assert "same-scale-crowding" in \
            kinds(spacing_violations(side, centers, 4))

    def test_scale_gap_detected(self):
        # sides 1 and 8 are closer than the required factor 16
        side, centers = cubes(diag_cube(1.0, 0.0), diag_cube(8.0, 4096.0))
        assert "scale-gap" in kinds(spacing_violations(side, centers, 4))

    def test_shared_component_detected(self):
        side, centers = cubes((1.0, (0.0, 3.0, -3.0)),
                              (1.0, (0.0, 100.0, 94.0)))
        assert spacing_violations(side, centers, 4)[0] == \
            ("shared-component", 0, 1, 0)


class TestDiagonalClearance:
    def test_offset_cube_passes(self):
        assert diagonal_clearance_violations(
            *cubes(diag_cube(4.0, 7.0)), CLEARANCE) == []

    def test_straddling_cube_fails(self):
        bad = cubes((4.0, (7.0, 7.0, 7.0)))
        assert "touches-diagonal" in \
            kinds(diagonal_clearance_violations(*bad, CLEARANCE))

    def test_remote_cube_fails(self):
        bad = cubes((1.0, (0.0, 50.0, -50.0)))
        assert "strays-from-diagonal" in \
            kinds(diagonal_clearance_violations(*bad, CLEARANCE))


class TestHalos:
    def cubes(self):
        return cubes(diag_cube(1.0, 576.0), diag_cube(1.0, 640.0, 2.5),
                     diag_cube(16.0, 512.0), diag_cube(256.0, 0.0))

    def test_halo_family_verifies(self):
        side, centers = self.cubes()
        assert halo_violations(side, build_halos(side, centers)) == []

    def test_halo_contains_thousandfold_dilate(self):
        side, centers = self.cubes()
        halos = build_halos(side, centers)
        for q in range(len(side)):
            for i in range(3):
                c, h = centers[q, i], 0.5 * side[q]
                grown = S.Iv(c - h, c + h).scaled(1000)
                assert S.Iv(*halos[q, i]).encloses(grown)

    def test_budget_respected(self):
        side, centers = self.cubes()
        width = np.diff(build_halos(side, centers), axis=-1)[..., 0]
        assert (width <= 1020.0 * side[:, None]).all()

    def test_endpoints_quantized(self):
        side, centers = self.cubes()
        steps = build_halos(side, centers) / (side / 256)[:, None, None]
        assert (steps == np.round(steps)).all()

    def test_nesting_audit_catches_partial_overlap(self):
        side, centers = cubes(diag_cube(1.0, 0.0), diag_cube(16.0, 0.0))
        fake = np.empty((2, 3, 2))
        fake[0, :, 0] = centers[0] - 501.0
        fake[0, :, 1] = centers[0] + 501.0
        # shifted so the stretched small halos straddle its boundary
        fake[1, :, 0] = centers[1] - 8000.0 + 6000.0
        fake[1, :, 1] = centers[1] + 8000.0 + 6000.0
        assert "broken-nesting" in kinds(halo_violations(side, fake))


class TestOrderings:
    def family(self, seed=0):
        return cluster_family(seed, *CLUSTER)

    def test_le_requires_both_inclusions(self):
        tiles = self.family()
        le = le_matrix(tiles)
        fine = int(np.argmin(tiles.length))
        coarse = int(np.argmax(tiles.length))
        assert tiles.length[fine] < tiles.length[coarse]
        # reflexive, antisymmetric on distinct scales
        assert le.diagonal().all()
        assert not le[coarse, fine]

    def test_le_propagates_componentwise(self):
        tiles = self.family()
        h = tiles.halos[tiles.cube]
        every = ((h[:, None, :, 0] <= h[None, :, :, 0])
                 & (h[None, :, :, 1] <= h[:, None, :, 1])).all(axis=-1)
        le = le_matrix(tiles)
        np.fill_diagonal(le, False)
        assert every[le].all()

    def test_le_transitive(self):
        le = le_matrix(self.family())
        closure = le | (le.astype(int) @ le.astype(int) > 0)
        assert (closure == le).all()

    def test_lessdot_coarser_than_le(self):
        tiles = self.family()
        le, ld = le_matrix(tiles), lessdot(tiles)
        assert (le <= ld).all()

    def test_no_cross_cluster_relations(self):
        tiles = self.family()
        ld = lessdot(tiles)
        cluster = np.rint(tiles.centers[tiles.cube, 0] / CLUSTER_SPACING)
        off = cluster[:, None] != cluster[None, :]
        assert not (ld & off).any()


class TestFootprints:
    def test_generated_family_monotone(self):
        assert footprint_violations(cluster_family(1, *CLUSTER)) == []

    def test_gap_detected_and_closed(self):
        tiles = halo_family(diag_cube(1.0, 576.0), diag_cube(16.0, 512.0),
                            cells=[0, 16 + 3])
        assert footprint_violations(tiles) != []
        closed = regularize(tiles)
        assert footprint_violations(closed) == []
        have = set(zip(closed.cube.tolist(), closed.lo.tolist()))
        assert set(zip(tiles.cube.tolist(), tiles.lo.tolist())) <= have

    def test_regularize_idempotent(self):
        tiles = cluster_family(2, *CLUSTER)
        again = regularize(tiles)
        for name in ("side", "centers", "halos", "lo", "length", "cube"):
            assert np.array_equal(getattr(again, name), getattr(tiles, name))

    def test_footprints_are_cell_sets(self):
        tiles = cluster_family(3, *CLUSTER)
        _, feet = footprints(tiles)
        width = tiles.length.min()
        assert feet.sum() * width <= tiles.length.sum() + 1e-9


class TestTrees:
    def test_top_halo_radius(self):
        # the top halo is [zeta - r, zeta + r] with r = TOP_RADIUS / 16: a
        # cube halo holding exactly that interval admits the tile, one a
        # quantum short at either end does not
        top = (100.0, 0.0, 16.0)
        side, centers = cubes(diag_cube(1.0 / 16.0, 100.0))
        ends = [(68.75, 131.25), (68.75 + 2.0 ** -20, 131.25),
                (68.75, 131.25 - 2.0 ** -20)]
        halos = np.array([[end] * 3 for end in ends])
        tiles = Family(side.repeat(3), centers.repeat(3, axis=0), halos,
                       np.zeros(3), np.full(3, 16.0), np.arange(3))
        assert members_of(tiles, top).tolist() == [0]

    def test_own_top_captures_tile(self):
        tiles = cluster_family(4, *CLUSTER)
        tops = [tiles.own_top(j) for j in range(len(tiles))]
        assert tree_members(tiles, tops).diagonal().all()

    def test_members_match_brute_filter(self):
        tiles = cluster_family(5, *CLUSTER)
        top = (tiles.own_top(0)[0], 0.0, 16.0)
        old = S.TopData(top[0], S.dyadic(16.0, 0))
        want = [j for j in range(len(tiles))
                if old.interval.encloses(S.Iv(tiles.lo[j], tiles.hi[j]))
                and any(S.Iv(*tiles.halos[tiles.cube[j], i]).encloses(old.halo)
                        for i in range(3))]
        assert members_of(tiles, top).tolist() == want

    def test_candidate_pool_sorted_and_covering(self):
        tiles = cluster_family(6, *CLUSTER)
        pool = candidate_tops(tiles, 6, 4)
        lengths = [hi - lo for _, lo, hi in pool]
        assert lengths == sorted(lengths, reverse=True)
        assert tree_members(tiles, pool).any(axis=0).all()


class TestGreedySelection:
    def test_partitions_family(self):
        tiles = cluster_family(7, *CLUSTER)
        seen = np.concatenate([t.members for t in greedy_select(tiles, *BITS)])
        assert sorted(seen.tolist()) == list(range(len(tiles)))

    def test_each_tree_maximal_in_remainder(self):
        tiles = cluster_family(8, *CLUSTER)
        remaining = np.ones(len(tiles), dtype=bool)
        for tree in greedy_select(tiles, *BITS):
            want = np.flatnonzero(tree_members(tiles, [tree.top])[0]
                                  & remaining)
            assert tree.members.tolist() == want.tolist()
            remaining[tree.members] = False

    def test_deterministic(self):
        a = greedy_select(cluster_family(9, *CLUSTER), *BITS)
        b = greedy_select(cluster_family(9, *CLUSTER), *BITS)
        assert [t.top for t in a] == [t.top for t in b]

    def test_multiple_trees(self):
        assert len(greedy_select(cluster_family(10, *CLUSTER), *BITS)) >= 2

    def test_selected_trees_footprint_monotone(self):
        tiles = cluster_family(11, *CLUSTER)
        for tree in greedy_select(tiles, *BITS):
            assert footprint_violations(tiles.take(tree.members)) == []

    def test_convexity_refuses_uncovered_tiles(self):
        tiles = cluster_family(12, *CLUSTER)
        with pytest.raises(ValueError, match="leave a tile"):
            selection_convexity_violations(
                tiles, greedy_select(tiles, *BITS)[:-1])

    def test_convexity_nontrivial_and_clean(self):
        tiles = cluster_family(12, *CLUSTER)
        trees = greedy_select(tiles, *BITS)
        checked, bad = selection_convexity_violations(tiles, trees)
        assert checked > 0
        assert bad == 0


def level_by_level_forest(tiles, size_fn, span_bits, scale_bits):
    """The threshold sweep sizing one tree per call and visiting every
    level in turn: the reference for forest_decompose's batched sizes and
    skipped levels."""
    pool = candidate_tops(tiles, span_bits, scale_bits)
    member = tree_members(tiles, pool)
    sizes = [size_fn(tree) for tree in tf._trees(pool, member)]
    if not all(map(math.isfinite, sizes)):
        raise ValueError("non-finite tree size of a maximal tree")
    start = max((s for s in sizes if s > 0), default=None)
    n = SINK_LEVEL if start is None else math.floor(-math.log2(start))
    remaining = np.ones(len(tiles), dtype=bool)
    out = {}
    while remaining.any() and n < SINK_LEVEL:
        threshold = 2.0 ** (-n - 1)
        if trees := tf._select(pool, member, remaining,
                               lambda t: size_fn(t) > threshold):
            out[n] = trees
        n += 1
    if remaining.any():
        rest = np.flatnonzero(remaining)
        out[SINK_LEVEL] = [
            Tree(t.top, rest[t.members])
            for t in greedy_select(tiles.take(rest), span_bits, scale_bits)]
    return out


# per-tile values behind the synthetic sizes, by the tile's rank in a seeded
# shuffle; a size folds them over the tree's members
TILE_VALUES = {
    "ties": lambda r: 2.0 ** -r,                  # sizes on the thresholds
    "ulp-above": lambda r: np.nextafter(2.0 ** -(r + 2), 1.0),  # log2 rounds
    "plateaus": lambda r: 2.0 ** -(r // 8),       # trees of equal size
    "gaps": lambda r: 0.75 * 2.0 ** (-5 * r),     # 5 levels apart
    "above-one": lambda r: 2.0 ** (3 - r),        # negative levels
    "one-tile": lambda r: np.where(r == 0, 0.3, 0.0),  # the rest sinks
    "zero": lambda r: 0.0 * r,                    # everything sinks
    "below-sink": lambda r: 2.0 ** -70 + 0.0 * r,  # starts past the sink
}


class TestForestDecompose:
    def test_levels_partition(self):
        tiles = cluster_family(13, *CLUSTER)
        forests = forest_decompose(tiles, batched(weight_size(tiles)),
                                   *BITS)
        seen = [j for trees in forests.values() for t in trees
                for j in t.members.tolist()]
        assert sorted(seen) == list(range(len(tiles)))

    def test_level_thresholds(self):
        tiles = cluster_family(14, *CLUSTER)
        size = weight_size(tiles)
        for n, trees in forest_decompose(tiles, batched(size),
                                         *BITS).items():
            if n >= SINK_LEVEL:
                continue
            for t in trees:
                assert size(t) > 2.0 ** (-n - 1)

    def test_zero_size_falls_through(self):
        tiles = cluster_family(15, *CLUSTER)
        forests = forest_decompose(tiles, batched(lambda t: 0.0), *BITS)
        assert list(forests) == [SINK_LEVEL]
        assert forest_rows(forests) == forest_rows(
            {SINK_LEVEL: greedy_select(tiles, *BITS)})

    def test_empty_family_has_no_forest(self):
        tiles = cluster_family(15, *CLUSTER).take([])
        assert forest_decompose(tiles, batched(weight_size(tiles)),
                                *BITS) == {}

    @pytest.mark.parametrize("fold", [np.max, np.sum])
    @pytest.mark.parametrize("values", TILE_VALUES)
    def test_skipping_levels_matches_level_by_level(self, values, fold):
        for seed in (13, 14, 21):
            tiles = cluster_family(seed, *CLUSTER)
            rank = np.random.default_rng(seed).permutation(len(tiles))
            v = TILE_VALUES[values](rank.astype(float))

            def size(tree):
                return float(fold(v[tree.members]))
            new = forest_decompose(tiles, batched(size), *BITS)
            old = level_by_level_forest(tiles, size, *BITS)
            assert forest_rows(new) == forest_rows(old)
            assert list(new) == list(old)

    def test_nan_size_raises_like_level_by_level(self):
        tiles = cluster_family(13, *CLUSTER)
        v = np.full(len(tiles), 0.25)
        v[len(tiles) // 2] = math.nan

        def size(tree):
            return float(v[tree.members].max())
        with pytest.raises(ValueError, match="non-finite tree size"):
            level_by_level_forest(tiles, size, *BITS)
        with pytest.raises(ValueError, match="non-finite tree size"):
            forest_decompose(tiles, batched(size), *BITS)

    @pytest.mark.parametrize("seed", range(8))
    def test_sizer_forests_match_level_by_level(self, seed):
        # forest-bessel's first trial at config seed ``seed``; the reference
        # reads a fresh sizer one tree at a time
        cfg = ex.default_config("forest-bessel")
        cfg.seed = seed
        tiles = compact_family(seed, cfg.scale_bits, cfg.compact_spread)
        spans = ex.random_spans(ex.trial_rng(cfg, 0), cfg.domain_len,
                                cfg.set_count, 2.0, 4.0)
        f = ex.restricted_input(cfg.grid_n, cfg.domain_len, spans,
                                cfg.moll_width)
        knobs = (cfg.slope, cfg.order, cfg.support_factor, cfg.weight_power)
        sizer, fresh = TreeSizer(f, tiles, *knobs), TreeSizer(f, tiles, *knobs)
        for i in range(3):
            new = forest_decompose(
                tiles, lambda trees: sizer.tree_sizes(trees, i), *BITS)
            old = level_by_level_forest(
                tiles, lambda tree: fresh.tree_size(tree, i), *BITS)
            assert forest_rows(new) == forest_rows(old)
            assert list(new) == list(old)


class TestOperatorIntervals:
    def test_widths_follow_slope(self):
        ops = operator_intervals(*cubes(diag_cube(2.0, 100.0)), 1.5)
        assert (ops[0, :, 1] - ops[0, :, 0]).tolist() == [2.0, 3.0, 5.0]

    def test_third_component_flipped(self):
        side, centers = cubes(diag_cube(2.0, 100.0))
        lo, hi = operator_intervals(side, centers, 1.0)[0, 2]
        assert hi <= 0.0
        assert 0.5 * (lo + hi) == -2.0 * centers[0, 2]


class TestClusterFamily:
    def test_passes_all_audits(self):
        tiles = cluster_family(16, *CLUSTER)
        side, centers = tiles.side, tiles.centers
        assert spacing_violations(side, centers, 4) == []
        assert diagonal_clearance_violations(side, centers, CLEARANCE) == []
        assert halo_violations(side, tiles.halos) == []
        assert footprint_violations(tiles) == []

    def test_three_spatial_scales(self):
        lengths = set(cluster_family(17, *CLUSTER).length.tolist())
        assert lengths == {1.0 / 256, 1.0 / 16, 1.0}

    def test_size_cap(self):
        assert len(cluster_family(18, *CLUSTER)) <= MAX_TILES

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_pipeline_invariants_random_seeds(self, seed):
        tiles = cluster_family(seed, *CLUSTER)
        assert footprint_violations(tiles) == []
        trees = greedy_select(tiles, *BITS)
        for tree in trees:
            assert footprint_violations(tiles.take(tree.members)) == []
        checked, bad = selection_convexity_violations(tiles, trees)
        assert checked > 0
        assert bad == 0


# ---------------------------------------------------------------------------
# the array code against the scalar object code it replaced

def scalar_cubes(side, centers):
    return [S.FreqCube(float(s), tuple(c)) for s, c in
            zip(side.tolist(), centers.tolist())]


def scalar_tiles(tiles):
    """The family as the scalar code's MultiTile list, in family order."""
    qs = scalar_cubes(tiles.side, tiles.centers)
    halos = [tuple(S.Iv(lo, hi) for lo, hi in h) for h in tiles.halos.tolist()]
    return [S.MultiTile(S.Iv(lo, lo + length), qs[q], halos[q])
            for lo, length, q in zip(tiles.lo.tolist(), tiles.length.tolist(),
                                     tiles.cube.tolist())]


def tile_rows(objs):
    """Exact (interval, cube, halos) rows of scalar tiles."""
    return [(p.interval.lo, p.interval.hi, p.cube.side, p.cube.centers,
             tuple((h.lo, h.hi) for h in p.halos)) for p in objs]


def top_row(top):
    """A scalar top as the (zeta, lo, hi) tuple of the array code."""
    return top.zeta, top.interval.lo, top.interval.hi


# both generators at several seeds, plus hand-built cube sets: the scalar
# search pushes both ends of every halo of PUSHED's side-16 cube
FAMILIES = ([("cluster", s) for s in (0, 3, 8, 21, 40)]
            + [("compact", s) for s in (0, 1, 5, 6, 9, 13)])
PUSHED = [diag_cube(1.0, -3047.0), diag_cube(16.0, 0.0),
          diag_cube(1.0, 3050.0, perm=(1, 0, 2)), diag_cube(256.0, 40000.0)]
CUBE_SETS = {"hand": [diag_cube(1.0, 576.0), diag_cube(1.0, 640.0, 2.5),
                      diag_cube(16.0, 512.0), diag_cube(256.0, 0.0)]}


def generated(name, seed):
    if name == "cluster":
        return cluster_family(seed, *CLUSTER)
    return compact_family(seed, *COMPACT)


def subsets(tiles, seed, count=3):
    """Random subfamilies keeping one tile of every cube; most have
    footprint gaps."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        keep = rng.random(len(tiles)) < 0.3
        keep[[np.flatnonzero(tiles.cube == q)[0]
              for q in range(len(tiles.side))]] = True
        yield tiles.take(np.flatnonzero(keep))


def check_orders_and_footprints(tiles):
    objs = scalar_tiles(tiles)
    qs = scalar_cubes(tiles.side, tiles.centers)
    assert np.array_equal(le_matrix(tiles), S.le_matrix(objs))
    assert np.array_equal(lessdot(tiles), np.array(
        [[S.mt_lessdot(p, q) for q in objs] for p in objs]))
    first, feet = footprints(tiles)
    old_feet = S.box_footprints(objs)
    for q, row in zip(qs, feet):
        assert set((first + np.flatnonzero(row)).tolist()) == old_feet[q]
    got = [(qs[a].centers, qs[b].centers)
           for a, b in footprint_violations(tiles)]
    assert sorted(got) == sorted(S.footprint_violations(objs))


def forest_rows(forests, position=None):
    """Exact (top, members) rows; ``position`` maps scalar tiles."""
    return {level: [(top_row(t.top), [position[p] for p in t.members])
                    if position else (t.top, t.members.tolist())
                    for t in trees]
            for level, trees in forests.items()}


class TestScalarEquivalence:
    @pytest.mark.parametrize("name,seed", FAMILIES)
    def test_generators_match(self, name, seed):
        old = (S.cluster_family if name == "cluster" else S.compact_family)
        assert tile_rows(scalar_tiles(generated(name, seed))) == \
            tile_rows(old(seed))

    @pytest.mark.parametrize("name", ["hand", "cluster"])
    def test_halo_endpoints_bitwise(self, name):
        if name == "cluster":
            fam = generated("cluster", 5)
            side, centers = fam.side, fam.centers
        else:
            side, centers = cubes(*CUBE_SETS[name])
        new = build_halos(side, centers)
        qs = scalar_cubes(side, centers)
        old = S.build_halos(qs)
        assert [tuple(map(tuple, h)) for h in new.tolist()] == \
            [tuple((h.lo, h.hi) for h in old[q]) for q in qs]

    def test_set_needing_pushes_is_refused(self):
        # the scalar search moves halo ends here; the closed form moves
        # none, so its halos cut a stretched hull and the audit refuses them
        side, centers = cubes(*PUSHED)
        with pytest.raises(HaloError, match="broken-nesting"):
            build_halos(side, centers)
        qs = scalar_cubes(side, centers)
        old = S.build_halos(qs)
        base = (500 * side + side / 256)[:, None]
        ends = np.array([[(h.lo, h.hi) for h in old[q]] for q in qs])
        moved = ends != np.stack([centers - base, centers + base], -1)
        assert moved[1].all() and not moved[[0, 2, 3]].any()

    def test_halo_budget_failure_matches(self):
        # no budget is left to exhaust: the scalar search refuses because
        # its pushes would pass the budget, the closed form because the
        # audit fails
        qs = PUSHED[:2] + [diag_cube(1.0, 9000.0), diag_cube(256.0, 100.0)]
        side, centers = cubes(*qs)
        with pytest.raises(HaloError):
            build_halos(side, centers)
        with pytest.raises(S.HaloError):
            S.build_halos(scalar_cubes(side, centers))

    @pytest.mark.parametrize("name,seed", FAMILIES)
    def test_orders_and_footprints(self, name, seed):
        tiles = generated(name, seed)
        check_orders_and_footprints(tiles)
        for part in subsets(tiles, seed):
            check_orders_and_footprints(part)
        objs = scalar_tiles(tiles)
        qs = scalar_cubes(tiles.side, tiles.centers)
        assert operator_band_edge(tiles, 1.125, SUPPORT) == \
            S.operator_band_edge(objs, 1.125)
        ops = operator_intervals(tiles.side, tiles.centers, 1.125)
        assert ops.tolist() == [[[iv.lo, iv.hi] for iv in
                                 S.operator_intervals(q, 1.125)] for q in qs]

    @pytest.mark.parametrize("seed", range(6))
    def test_cube_audits_match(self, seed):
        # random cube sets near the generators' geometry, crowded enough
        # that every spacing, clearance and halo rule fires somewhere
        rng = np.random.default_rng(seed)
        n = 8
        side = 16.0 ** rng.integers(0, 3, n) / 2.0 ** rng.integers(0, 2, n)
        centers = np.round(rng.uniform(-40, 40, (n, 1))
                           + rng.integers(-3, 4, (n, 3)) * side[:, None])
        side[1], centers[1, 0] = side[0], centers[0, 0]
        qs = scalar_cubes(side, centers)
        assert len(set(qs)) == n
        for bits in (1, 4):
            assert spacing_violations(side, centers, bits) == \
                S.spacing_violations(qs, bits)
        for c0 in (0.5, 2.0):
            assert diagonal_clearance_violations(side, centers, c0) == \
                S.diagonal_clearance_violations(qs, c0)
        halos = np.stack([centers - 510.0 * side[:, None],
                          centers + 510.0 * side[:, None]], axis=-1)
        halos += rng.integers(-8000, 8000, halos.shape) / 16.0
        halos.sort(axis=-1)
        # the second set moves every component-1 halo far off, so only
        # some stretched halos of a smaller cube meet a larger cube's halo
        far = halos.copy()
        far[:, 1] += 1e6
        for hals in (halos, far):
            old = S.halo_violations({q: tuple(S.Iv(*h) for h in hs)
                                     for q, hs in zip(qs, hals.tolist())})
            # the scalar audit still has the dilate and budget rows; src
            # keeps only nesting, which the closed form can break
            assert kinds(old) == {"too-small", "over-budget",
                                  "broken-nesting"}
            got = [(v[0], qs[v[1]].centers, qs[v[2]].centers, v[3])
                   for v in halo_violations(side, hals)]
            assert sorted(got) == sorted(
                v for v in old if v[0] == "broken-nesting")

    @pytest.mark.parametrize("name,seed", FAMILIES)
    def test_regularize_matches(self, name, seed):
        for part in subsets(generated(name, seed), seed):
            assert tile_rows(scalar_tiles(regularize(part))) == \
                tile_rows(S.regularize(scalar_tiles(part)))

    @pytest.mark.parametrize("name,seed", FAMILIES)
    def test_selection_matches(self, name, seed):
        tiles = generated(name, seed)
        objs = scalar_tiles(tiles)
        position = {p: j for j, p in enumerate(objs)}
        pool = candidate_tops(tiles, 6, 4)
        old_pool = S.candidate_tops(objs, 6, 4)
        assert pool == [top_row(t) for t in old_pool]
        assert [np.flatnonzero(m).tolist()
                for m in tree_members(tiles, pool)] == \
            [[position[p] for p in S.tree_members(objs, t)] for t in old_pool]
        trees = greedy_select(tiles, *BITS)
        old_trees = S.greedy_select(objs)
        assert forest_rows({0: trees}) == forest_rows({0: old_trees}, position)
        assert selection_convexity_violations(tiles, trees) == \
            S.selection_convexity_violations(objs, old_trees)
        # plain sizes, sizes blind to unit cubes (their tiles sink), none
        for floor in (0.0, 1.0, math.inf):
            def size(tree):
                top = tiles.side[tiles.cube[tree.members]].max()
                return top / 1024.0 if top > floor else 0.0

            def old_size(tree):
                top = max(p.cube.side for p in tree.members)
                return top / 1024.0 if top > floor else 0.0
            new = forest_decompose(tiles, batched(size), *BITS)
            old = S.forest_decompose(objs, old_size)
            assert forest_rows(new) == forest_rows(old, position)
            assert list(new) == list(old)


# ---------------------------------------------------------------------------
# the whole-family passes against the per-object loops they replaced

def loop_bool_product(a, b):
    """The boolean product as an any() over broadcast ands, stacks too."""
    return (a[..., :, :, None] & b[..., None, :, :]).any(axis=-2)


def loop_build_halos(side, centers):
    """build_halos as a loop over every smaller cube, its stretched halos
    taken through numpy."""
    halos = np.empty(centers.shape + (2,))
    done = []
    for q in np.lexsort((centers[:, 2], centers[:, 1], centers[:, 0], side)):
        s = float(side[q])
        quantum = s / tf.ENDPOINT_QUANTUM
        base = tf.HALO_FACTOR / 2 * s + quantum
        budget = S.HALO_SLACK * s - quantum
        smaller = [d[1:] for d in done if d[0] < s]
        for i, c in enumerate(centers[q].tolist()):
            lo, hi = c - base, c + base
            for _ in range(3 * len(done) + 1):
                moved = False
                for stretched, hull_lo, hull_hi in smaller:
                    if not any(a <= hi and lo <= b for a, b in stretched):
                        continue
                    if lo <= hull_hi and hull_lo <= lo:
                        lo -= (math.ceil((lo - hull_lo) / quantum) + 1) \
                            * quantum
                        moved = True
                    if hi >= hull_lo and hi <= hull_hi:
                        hi += (math.ceil((hull_hi - hi) / quantum) + 1) \
                            * quantum
                        moved = True
                if not moved:
                    break
            if (c - lo) - base > budget or (hi - c) - base > budget:
                raise HaloError("halo budget exhausted")
            halos[q, i] = lo, hi
        stretched = _scaled(halos[q], tf.HALO_STRETCH).tolist()
        done.append((s, stretched, min(a for a, _ in stretched),
                     max(b for _, b in stretched)))
    if halo_violations(side, halos):
        raise HaloError("halo nesting failed")
    return halos


# every Whitney spread 0.5 * round(2 u), u in [c0 + 0.5, 3 c0), that a
# clearance or compact_spread up to the validator's bound can draw
SPREAD_BOUND = 32.0
SPREADS = np.arange(1, 6 * int(SPREAD_BOUND) + 2) * 0.5


def planned_layouts(make, bits, monkeypatch):
    """The distinct cube layouts a generator plans at scale_bits, as
    (sides, centres) arrays with every Whitney offset zero."""
    seen = set()

    def record(plan, scale_bits, c0):
        seen.add((tuple(plan[0]), tuple(c[0] for c in plan[1])))

    monkeypatch.setattr(tf, "_whitney_offsets", lambda rng, c0: (0.0,) * 3)
    monkeypatch.setattr(tf, "_closed_family", record)
    for seed in range(4):
        with pytest.raises(RuntimeError):
            make(seed, bits, 1.0)
    return [tuple(map(np.array, lay)) for lay in sorted(seen)]


def push_needs(s, b, s2, b2):
    """Where the push search would move an end of a halo of the larger cube
    (side s2, centred at b2 before its offsets) for the smaller cube (s, b),
    at every pair of spreads in SPREADS.  Returns two (smaller's spread,
    larger's spread) masks: some end moves, and some end moves past the
    budget (which the search refuses, as does the audit)."""
    def halos(side, base):
        d = np.stack([0 * SPREADS, SPREADS, -SPREADS], -1)
        return tf._rows(base + d * side, tf.HALO_FACTOR / 2 * side
                        + side / tf.ENDPOINT_QUANTUM)
    st = _scaled(halos(s, b), tf.HALO_STRETCH)[:, None, None]
    hull_lo, hull_hi = st[..., 0].min(-1), st[..., 1].max(-1)
    ends = halos(s2, b2)
    if not ((hull_lo.min() <= ends) & (ends <= hull_hi.max())).any():
        return np.zeros((2, len(SPREADS), len(SPREADS)), bool)
    lo, hi = np.moveaxis(ends[None], -1, 0)
    meets = ((st[..., 0] <= hi[..., None])
             & (lo[..., None] <= st[..., 1])).any(-1)
    # the search moves an end that sits on the hull of a stretched halo
    # set it meets, to one quantum past the hull
    at_lo = meets & (hull_lo <= lo) & (lo <= hull_hi)
    at_hi = meets & (hull_lo <= hi) & (hi <= hull_hi)
    budget = S.HALO_SLACK * s2
    past = (at_lo & (lo - hull_lo > budget)) | \
        (at_hi & (hull_hi - hi > budget))
    return (at_lo | at_hi).any(-1), past.any(-1)


def loop_footprint_count(tiles):
    """Footprint violations of one family, footprints by a boolean loop."""
    if not len(tiles):
        return 0
    width = tiles.length.min()
    start = np.rint(tiles.lo / width).astype(np.int64)
    stop = np.rint(tiles.hi / width).astype(np.int64)
    cells = np.arange(start.min(), stop.max())
    owner = tiles.cube == np.arange(len(tiles.side))[:, None]
    cover = (start[:, None] <= cells) & (cells < stop[:, None])
    feet = loop_bool_product(owner, cover)
    ld = lessdot_matrix(tiles.halos)
    np.fill_diagonal(ld, False)
    return int(np.count_nonzero(ld & loop_bool_product(feet, ~feet.T)))


def loop_convexity(tiles, tree_of):
    """(checked, bad) of the convexity audit, one middle tile at a time."""
    le = le_matrix(tiles)
    length = tiles.length
    checked = bad = 0
    for mid in range(len(tiles)):
        lowers = tree_of[le[:, mid] & (length < length[mid])][:, None]
        uppers = tree_of[le[mid, :] & (length[mid] < length)][None, :]
        checked += lowers.size * uppers.size
        t = tree_of[mid]
        bad += int(np.count_nonzero((np.minimum(lowers, uppers) > t)
                                    | (np.maximum(lowers, uppers) < t)))
    return checked, bad


def random_groupings(tiles, seed, count=3):
    """Random labellings of the tiles by 2 to 6 trees: (g, n) masks."""
    rng = np.random.default_rng((seed, 19))
    for _ in range(count):
        label = rng.integers(0, rng.integers(2, 7), len(tiles))
        yield label == np.arange(label.max() + 1)[:, None]


class TestWholeFamilyPasses:
    @pytest.mark.parametrize("name", ["cluster", "compact"])
    def test_grouped_audits_match_loops(self, name):
        hits = [0, 0]
        for seed in range(12):
            tiles = generated(name, seed)
            for groups in random_groupings(tiles, seed):
                want = sum(loop_footprint_count(tiles.take(np.flatnonzero(g)))
                           for g in groups)
                assert len(footprint_violations(tiles, groups)) == want
                trees = [Tree((0.0, 0.0, 1.0), np.flatnonzero(g))
                         for g in groups]
                tree_of = np.argmax(groups, axis=0)
                got = selection_convexity_violations(tiles, trees)
                assert got == loop_convexity(tiles, tree_of)
                hits[0] += want > 0
                hits[1] += got[1] > 0
        # the groupings exercise both counts; compact families hold two
        # tile lengths, so no triple of strictly increasing lengths
        assert hits[0] > 0 and (hits[1] > 0) == (name == "cluster")

    def test_one_group_is_the_family_audit(self):
        tiles = halo_family(diag_cube(1.0, 576.0), diag_cube(16.0, 512.0),
                            cells=[0, 16 + 3])
        every = np.ones((1, len(tiles)), dtype=bool)
        assert footprint_violations(tiles, every) == \
            footprint_violations(tiles) != []
        assert len(footprint_violations(tiles)) == loop_footprint_count(tiles)

    def test_group_without_the_upper_cube_is_clean(self):
        # the small cube's tile alone: the larger cube is not carried
        tiles = halo_family(diag_cube(1.0, 576.0), diag_cube(16.0, 512.0),
                            cells=[0, 16 + 3])
        alone = (tiles.cube == 1)[None]
        assert footprint_violations(tiles, alone) == []

    @pytest.fixture(scope="class")
    def halo_sweep(self):
        # one sweep over every halo set the generators ask for, away from
        # the default scale_bits and spread, recording for each call the
        # push search's halos, the closed form's, the scalar audit of the
        # dilate and what the closed form built, and for each family
        # regularize returns its footprint violations
        closed = tf.build_halos
        calls, families = [], []

        def both(side, centers):
            try:
                want = loop_build_halos(side, centers)
            except HaloError:
                want = None
            halos = tf._rows(centers, (tf.HALO_FACTOR / 2 * side
                                       + side / tf.ENDPOINT_QUANTUM)[:, None])
            old = S.halo_violations(
                {q: tuple(S.Iv(*h) for h in hs) for q, hs in
                 zip(scalar_cubes(side, centers), halos.tolist())})
            try:
                got = closed(side, centers)
            except HaloError:
                calls.append((want, halos, old, None))
                raise
            calls.append((want, halos, old, got))
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tf, "build_halos", both)
            for make in (cluster_family, compact_family):
                for bits in (2, 4, 8, 16):
                    for spread in (0.25, 1.0, 4.0, 8.0, 16.0, SPREAD_BOUND):
                        for seed in range(4):
                            try:
                                tiles = make(seed, bits, spread)
                            except RuntimeError:
                                continue
                            families.append(footprint_violations(tiles))
        return calls, families

    def test_halos_match_the_push_search_off_default(self, halo_sweep):
        # the closed form builds the push search's halos bit for bit, or
        # both refuse
        seen = set()
        for want, _, _, got in halo_sweep[0]:
            if got is None:
                assert want is None
                seen.add("refused")
                continue
            assert want is not None
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            seen.add("built")
        assert seen == {"built", "refused"}

    def test_closed_form_needs_only_the_nesting_audit(self, halo_sweep):
        # the rules src no longer audits hold where the generators go: no
        # closed-form halo set misses the dilate or passes the budget (the
        # scalar audit's other rows), and every family regularize returns
        # is already footprint monotone
        calls, families = halo_sweep
        seen = set()
        for _, halos, old, got in calls:
            assert kinds(old) <= {"broken-nesting"}
            if got is None:
                assert old
                seen.add("refused")
                continue
            assert not old
            assert np.array_equal(got.view(np.int64), halos.view(np.int64))
            seen.add("admitted")
        assert all(v == [] for v in families)
        assert seen == {"admitted", "refused"} and len(families) > 0

    def test_push_search_builds_past_the_spread_bound(self, monkeypatch):
        # why the validator stops at 32: at clearance 64 the search moves
        # halo ends to build a family whose closed-form halos are refused
        monkeypatch.setattr(tf, "build_halos", loop_build_halos)
        fam = cluster_family(0, 4, 64.0)
        with pytest.raises(HaloError, match="broken-nesting"):
            build_halos(fam.side, fam.centers)

    @pytest.mark.parametrize("name", ["cluster", "compact"])
    def test_no_admitted_spread_needs_a_push(self, name, monkeypatch):
        # up to the validator's bound, no cube set a generator plans has a
        # halo end the push search would move: at each scale_bits either
        # no cube pair moves an end within the budget at any spreads, or
        # some pair moves one past it at all spreads (search and audit
        # both refuse), or the spacing audit refuses every set first
        for field in ("clearance", "compact_spread"):
            admits = ex._DOMAINS[field][1]
            assert admits(SPREAD_BOUND)
            assert not admits(np.nextafter(SPREAD_BOUND, np.inf))
        make = {"cluster": cluster_family, "compact": compact_family}[name]
        verdicts = []
        for bits in range(2, 17):
            layouts = planned_layouts(make, bits, monkeypatch)
            assert len(layouts) == (1 if name == "cluster" else 4)
            for sides, centers in layouts:
                within = always_past = False
                for q, qq in zip(*np.nonzero(sides[:, None] < sides)):
                    moves, past = push_needs(sides[q], centers[q],
                                             sides[qq], centers[qq])
                    within |= (moves & ~past).any()
                    always_past |= past.all()
                # the two largest cubes' same-index components drawn as
                # far apart as the spreads allow: if they crowd, all do
                top = np.flatnonzero(sides == sides.max())[:2]
                far = sides.max() * SPREADS[-1] * np.array([[-1, 1, 0],
                                                            [1, -1, 0]])
                crowded = len(top) == 2 and ("same-scale-crowding", 0, 1, 0) \
                    in spacing_violations(sides[top],
                                          centers[top, None] + far, bits)
                verdicts.append((bits, "none in budget" if not within else
                                 "refused" if always_past or crowded
                                 else "open"))
        assert [v for v in verdicts if v[1] == "open"] == []

    @pytest.mark.parametrize("name", ["cluster", "compact"])
    def test_generators_bitwise_against_loops(self, name, monkeypatch):
        seeds = range(0, 64, 3)
        new = [generated(name, seed) for seed in seeds]
        monkeypatch.setattr(tf, "build_halos", loop_build_halos)
        monkeypatch.setattr(tf, "_bool_product", loop_bool_product)
        old = [generated(name, seed) for seed in seeds]
        fields = ("side", "centers", "halos", "lo", "length", "cube")
        for a, b in zip(new, old):
            for field in fields:
                x, y = getattr(a, field), getattr(b, field)
                assert x.dtype == y.dtype and x.shape == y.shape
                assert np.array_equal(x.view(np.int64), y.view(np.int64))
