"""Tests for size functionals, exceptional layers, and the model sum."""

import math

import numpy as np
import pytest

import freqbench.experiments as ex
from freqbench import sizes
from freqbench.grid import (
    GridFunction,
    indicator,
    maximal_average,
    shared_kernel,
)
from freqbench.sizes import (
    TreeSizer,
    exceptional_mask,
    layer_split,
    maximal_trees,
    model_sum,
    multiplier_family,
    single_tree_audit,
    spatial_cutoff,
    tail_weight,
    top_frequency,
    top_interval,
)
from freqbench.timefreq import (
    Family,
    Iv,
    TopData,
    Tree,
    build_halos,
    compact_family,
    dyadic,
    forest_decompose,
    greedy_select,
    operator_intervals,
)

SLOPE = 1.125
# the config defaults of order, support factor and weight power, of the
# cutoff blur and of the audit exponents
SIZE = (5, 1.5, 10)
BLUR = 0.25
THETAS = (1.0, 0.7, 0.7)
# the config defaults of scale_bits and compact_spread (the compact
# families' c0), and of span_bits and scale_bits (the tree top pool)
FAMILY = (4, 0.5)
BITS = (6, 4)


def band_noise(n, length, band, rng, normalize="l2"):
    """Random trigonometric polynomial with modes confined to |xi| <= band."""
    coeffs = np.zeros(n, dtype=complex)
    ks = np.arange(-(n // 2), n - (n // 2))
    live = np.abs(ks / length) <= band
    coeffs[live] = rng.normal(size=live.sum()) + 1j * rng.normal(size=live.sum())
    f = GridFunction.from_spectrum(coeffs, length)
    if normalize == "l2":
        return f / f.norm()
    return f / np.abs(f.values).max()


def ends(iv):
    return iv.lo, iv.hi


def one_cube_family(side, centers, cells):
    """Tiles at the given dyadic cells, all carrying one cube."""
    side, centers = np.array([side]), np.array([centers])
    return Family.tiled(side, centers, build_halos(side, centers),
                        np.zeros(len(cells), dtype=int), cells)


def unit_tiles(*cells):
    """A side-one cube on the diagonal paired with unit intervals."""
    return one_cube_family(1.0, (0.0, 0.5, -0.5), list(cells))


class TestTailWeight:
    def test_peak_and_reference_values(self):
        f = GridFunction.zeros(256, 1.0)
        iv = Iv(0.25, 0.5)  # center 0.375 lands on the sample lattice
        w = tail_weight(f, *ends(iv), power=10)
        assert w[np.argmin(np.abs(f.x - 0.375))] == 1.0
        at = np.argmin(np.abs(f.x - 0.625))  # one interval-length away, u = 1
        assert w[at] == pytest.approx(2.0 ** -5, rel=1e-12)

    def test_matches_wrapped_distance_formula(self):
        f = GridFunction.zeros(128, 1.0)
        iv = Iv(-0.05, 0.05)
        w = tail_weight(f, *ends(iv), power=6)
        d = np.abs(f.x - iv.center)
        d = np.minimum(d, f.length - d)
        ref = (1.0 + (d / iv.length) ** 2) ** -3.0
        assert np.allclose(w, ref, atol=1e-14)

    def test_higher_power_decays_faster(self):
        f = GridFunction.zeros(64, 1.0)
        iv = Iv(0.0, 0.125)
        lo, hi = (tail_weight(f, *ends(iv), power=12),
                  tail_weight(f, *ends(iv), power=4))
        off_center = np.abs(f.x - iv.center) > 1e-9
        assert np.all(lo[off_center] < hi[off_center])


class TestMultiplierFamily:
    def freqs(self, n=512, length=32.0):
        f = GridFunction.zeros(n, length)
        return f, f.freqs() / length

    def test_support_confined_to_dilated_interval(self):
        f, xs = self.freqs()
        omega = Iv(2.0, 3.0)
        outside = np.abs(xs - omega.center) >= 0.75  # 1.5 * |omega| / 2
        for marked in (None, 2.0):
            for sym in multiplier_family(f, omega, marked, *SIZE[:2]):
                assert np.all(sym[outside] == 0.0)

    def test_unmarked_family_bounded_and_distinct(self):
        f, xs = self.freqs()
        omega = Iv(-1.0, 1.0)
        fam = multiplier_family(f, omega, None, *SIZE[:2])
        for sym in fam:
            assert np.abs(sym).max() <= 0.95 + 1e-12
        center = np.argmin(np.abs(xs - omega.center))
        assert fam[0][center] == pytest.approx(0.95)
        assert fam[2][center] == pytest.approx(0.475)
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.abs(fam[a] - fam[b]).max() > 0.01

    def test_marked_family_obeys_vanishing_bound(self):
        f, xs = self.freqs()
        omega = Iv(1.5, 3.5)
        marked = 2.0  # on the mode lattice for length 32
        cap = 0.95 * np.minimum(1.0, np.abs(xs - marked) / omega.length)
        for sym in multiplier_family(f, omega, marked, *SIZE[:2]):
            assert np.all(np.abs(sym) <= cap + 1e-15)
            assert sym[np.argmin(np.abs(xs - marked))] == 0.0


class TestTopGeometry:
    def test_component_widths_and_zero_sum(self):
        top = TopData(3.0, dyadic(16.0, 1))
        marks = [top_frequency(top, i, SLOPE) for i in range(3)]
        assert marks == [3.0, 3.375, -6.375]
        assert sum(marks) == 0.0
        widths = [top_interval(top, i, SLOPE, 32.0).length for i in range(3)]
        assert widths == pytest.approx([1 / 16, 1.125 / 16, 2.125 / 16])

    def test_circle_caps_top_length(self):
        top = TopData(0.0, dyadic(64.0, 0))
        iv = top_interval(top, 0, SLOPE, circle=32.0)
        assert iv.length == pytest.approx(1 / 32)


class TestTileSeminorm:
    def test_single_mode_oracle(self):
        # For f a pure mode at frequency xi0 every projection is m(xi0) * f,
        # so the seminorm collapses to max |m(xi0)| times the weight norm.
        n, length = 512, 32.0
        tiles = unit_tiles(3)
        omega = Iv(*operator_intervals(tiles.side, tiles.centers, SLOPE)[0, 0])
        k0 = int(round(omega.center * length)) + 3  # inside the support
        coeffs = np.zeros(n, dtype=complex)
        coeffs[k0 + n // 2] = 0.7
        f = GridFunction.from_spectrum(coeffs, length)
        xi0 = (k0) / length

        marked = omega.lo - 0.25
        sizer = TreeSizer(f, tiles, SLOPE, *SIZE)
        got = sizer.tile_seminorm(0, 0, marked)

        xs = f.freqs() / length
        at = np.argmin(np.abs(xs - xi0))
        amp = max(
            abs(sym[at])
            for sym in multiplier_family(f, omega, marked, *SIZE[:2])
        )
        w = tail_weight(f, *ends(tiles.interval(0)), SIZE[2])
        want = amp * 0.7 * math.sqrt(float(np.sum(w * w)) * f.dx)
        assert got == pytest.approx(want, rel=1e-12)

    def test_cache_is_consumed(self):
        rng = np.random.default_rng(5)
        f = band_noise(512, 32.0, 6.0, rng)
        sizer = TreeSizer(f, unit_tiles(0), SLOPE, *SIZE)
        first = sizer.tile_seminorm(0, 1, 0.125)
        key = (0, 1, 0.125)
        assert sizer._tile_cache[key] == first
        sizer._tile_cache[key] = 123.0
        assert sizer.tile_seminorm(0, 1, 0.125) == 123.0


def per_symbol_weighted_max(sizer, interval, omega, marked):
    """The uncached seminorm: one spectral round trip per symbol."""
    f = sizer.f
    w = tail_weight(f, *ends(interval), sizer.weight_power)
    best = 0.0
    for sym in multiplier_family(f, omega, marked, sizer.order,
                                 sizer.support_factor):
        g = f.multiply_spectrum(sym)
        val = float(np.sqrt(np.sum(w * w * np.abs(g.values) ** 2) * f.dx))
        best = max(best, val)
    return best


class TestFilterCache:
    def test_matches_per_symbol_loop_bitwise(self):
        for seed, order, support, power in ((0, 5, 1.5, 10), (3, 4, 1.2, 4)):
            rng = np.random.default_rng(seed + 70)
            tiles = compact_family(seed, *FAMILY)
            f = band_noise(512, 32.0, 7.5, rng)
            sizer = TreeSizer(f, tiles, SLOPE, order, support, power)
            ops = operator_intervals(tiles.side, tiles.centers, SLOPE)
            for tree in maximal_trees(tiles, *BITS):
                for i in range(3):
                    marks = (top_frequency(tree.top, i, SLOPE),
                             float(rng.uniform(-8.0, 8.0)))
                    for marked in marks:
                        for j in tree.members.tolist():
                            omega = Iv(*ops[tiles.cube[j], i].tolist())
                            want = per_symbol_weighted_max(
                                sizer, tiles.interval(j), omega, marked)
                            assert sizer.tile_seminorm(j, i, marked) == want
                    omega = top_interval(tree.top, i, SLOPE, f.length)
                    length = min(tree.interval.length, f.length)
                    want = per_symbol_weighted_max(
                        sizer, tree.top.interval, omega, None)
                    w = tail_weight(f, *ends(tree.top.interval), power)
                    assert sizer._top_term(tree.top, i, w) == (
                        want / math.sqrt(length))
            # a repeated key recomputed from cached filtered powers
            j, i, marked = next(iter(sizer._tile_cache))
            first = sizer._tile_cache.pop((j, i, marked))
            assert sizer.tile_seminorm(j, i, marked) == first
            assert len(sizer._power_cache) < len(sizer._tile_cache)

    def test_default_size_decay_filters_six_times(self, monkeypatch):
        # 512 tiles share one frequency window and one top window, so the
        # run filters one bank of the three symbols per window: 2 windows
        # x 3 symbols
        rows = []
        original = GridFunction.bank

        def counted(self, windows):
            rows.append(len(windows))
            return original(self, windows)

        monkeypatch.setattr(GridFunction, "bank", counted)
        assert ex.run(ex.default_config("size-decay")).passed
        assert rows == [3, 3]

    def test_default_size_decay_weighs_each_tile_once(self, monkeypatch):
        # each of the 512 trees is one tile under its own top, whose
        # interval is the tile's, so one row serves the member and the top
        rows = []

        def counted(f, lo, hi, power):
            out = tail_weight(f, lo, hi, power)
            rows.append(1 if out.ndim == 1 else len(out))
            return out

        monkeypatch.setattr(sizes, "tail_weight", counted)
        assert ex.run(ex.default_config("size-decay")).passed
        assert len(rows) == 512 and sum(rows) == 512

    def test_batched_top_terms_match_one_row_top_terms(self):
        # the top term a tree size computes next to its members' rows
        # equals the one from a weight row of the top alone, bit for bit
        for seed in range(4):
            tiles = compact_family(seed, *FAMILY)
            f = band_noise(512, 32.0, 7.5, np.random.default_rng(seed + 90))
            sizer = TreeSizer(f, tiles, SLOPE, *SIZE)
            for tree in maximal_trees(tiles, *BITS):
                for i in range(3):
                    sizer.tree_size(tree, i)
                    w = tail_weight(f, *ends(tree.top.interval), SIZE[2])
                    omega = top_interval(tree.top, i, SLOPE, f.length)
                    length = min(tree.interval.length, f.length)
                    want = sizer._weighted_max(w, omega, None)
                    assert sizer._top_cache[(tree.top, i)] == (
                        want / math.sqrt(length))

    def test_cutoff_kernel_is_shared_and_read_only(self):
        f = GridFunction.zeros(512, 32.0)
        spatial_cutoff(f, *ends(Iv(4.0, 5.0)), BLUR)
        kern = shared_kernel(512, 32.0, 0.25, 1)
        assert shared_kernel(512, 32.0, 0.25, 1) is kern
        with pytest.raises(ValueError):
            kern.values[0] = 1.0
        with pytest.raises(ValueError):
            kern.transform[0] = 1.0


class TestTreeSize:
    def test_singleton_matches_two_term_formula(self):
        rng = np.random.default_rng(9)
        f = band_noise(512, 32.0, 6.0, rng)
        tiles = unit_tiles(4)
        top = tiles.own_top(0)
        tree = Tree(top, np.array([0]))
        sizer = TreeSizer(f, tiles, SLOPE, *SIZE)
        marked = top_frequency(top, 0, SLOPE)
        want = (
            math.sqrt(sizer.tile_seminorm(0, 0, marked) ** 2
                      / tiles.length[0])
            + sizer._top_term(top, 0, tail_weight(f, *ends(top.interval),
                                                  SIZE[2]))
        )
        assert sizer.tree_size(tree, 0) == pytest.approx(want, rel=1e-12)

    def test_more_members_never_shrink_a_tree(self):
        rng = np.random.default_rng(11)
        f = band_noise(512, 32.0, 6.0, rng)
        tiles = unit_tiles(2, 7)
        top = TopData(tiles.own_top(0).zeta, Iv(0.0, 8.0))
        sizer = TreeSizer(f, tiles, SLOPE, *SIZE)
        small = sizer.tree_size(Tree(top, np.array([0])), 0)
        big = sizer.tree_size(Tree(top, np.array([0, 1])), 0)
        assert big >= small

    def test_collection_size_dominates_selected_trees(self):
        tiles = compact_family(3, *FAMILY)
        rng = np.random.default_rng(33)
        f = band_noise(512, 32.0, 7.5, rng)
        sizer = TreeSizer(f, tiles, SLOPE, *SIZE)
        total = sizer.collection_size(2, maximal_trees(tiles, *BITS))
        for tree in greedy_select(tiles, *BITS):
            assert sizer.tree_size(tree, 2) <= total + 1e-12

    def nan_sizer(self):
        f = GridFunction(np.full(512, np.nan), 32.0)
        return TreeSizer(f, compact_family(0, *FAMILY), SLOPE, *SIZE)

    def test_nan_input_gives_nan_sizes(self):
        # a fold from 0.0 with the builtin max drops NaN, so a broken input
        # would read as size zero
        sizer = self.nan_sizer()
        assert math.isnan(sizer.tile_seminorm(0, 0, 0.5))
        assert math.isnan(sizer.collection_size(
            0, maximal_trees(sizer.tiles, *BITS)))

    def test_nan_size_stops_forest_sweep(self):
        # NaN compares false against every threshold, so the sweep would
        # put every tile in the sink level unseen
        sizer = self.nan_sizer()
        with pytest.raises(ValueError, match="non-finite tree size"):
            forest_decompose(sizer.tiles, lambda tr: sizer.tree_size(tr, 0),
                             *BITS)


def supinf_maximal_bound(f, tiles):
    """sup over tiles of inf over the tile interval of the maximal
    function."""
    m = maximal_average(f).values.real
    xs = np.mod(f.x, f.length)
    best = 0.0
    for lo, length in zip(tiles.lo.tolist(), tiles.length.tolist()):
        lo = math.fmod(lo, f.length)
        span = min(length, f.length)
        off = np.mod(xs - lo, f.length)
        cells = off < span - 0.5 * f.dx
        if cells.any():
            best = max(best, float(m[cells].min()))
    return best


class TestSupinfBound:
    def test_component_one_size_below_maximal_bound(self):
        # Frozen-seed form of the density bound: the component-one size of
        # an indicator never beats the sup-inf of its maximal function
        # (measured ratios stay under 0.4; constant one is the assertion).
        for seed in range(6):
            tiles = compact_family(seed, *FAMILY)
            rng = np.random.default_rng(seed + 400)
            locs = rng.uniform(0, 31.0, size=2)
            f = indicator([(a, a + 0.5) for a in locs], 512, 32.0)
            s1 = TreeSizer(f, tiles, SLOPE, *SIZE).collection_size(
                0, maximal_trees(tiles, *BITS))
            bound = supinf_maximal_bound(f, tiles)
            assert s1 <= bound


class TestExceptionalMask:
    def test_small_set_flagged_and_mask_stays_small(self):
        n, length = 2048, 1.0
        density = indicator([(0.5, 0.5 + 1 / 256)], n, length)
        mask = exceptional_mask(density, factor=100.0)
        on = (density.values.real > 0.5)
        assert mask[on].all()
        assert mask.mean() < 0.05
        far = np.argmin(np.abs(density.x - 0.1))
        assert not mask[far]

    @pytest.mark.parametrize("bad", [
        np.nan,
        # inf - inf in the running sums warns before the check can raise
        pytest.param(np.inf, marks=pytest.mark.filterwarnings(
            "ignore:invalid value encountered in subtract:RuntimeWarning")),
    ])
    def test_non_finite_density_raises(self, bad):
        # NaN compares false, so unchecked one bad sample flags nothing
        density = indicator([(0.5, 0.5 + 1 / 256)], 2048, 1.0)
        density.values[100] = bad
        with pytest.raises(ValueError, match="non-finite"):
            exceptional_mask(density, factor=100.0)


class TestLayerSplit:
    def make_tiles(self, cells):
        return one_cube_family(512.0, (0.0, 256.0, -256.0), cells)

    def flagged(self, n=512):
        omega = np.zeros(n, dtype=bool)
        omega[200:312] = True
        return omega

    def test_hand_layers(self):
        omega = self.flagged()
        cells = [100, 201, 250]
        layers = layer_split(self.make_tiles(cells), omega, 1.0)
        placed = {cells[j]: lv for lv, js in layers.items() for j in js}
        # cell 100 sits outside; 201 escapes at the 16-fold dilate; 250 is
        # deep enough that only the 256-fold dilate reaches the complement
        assert placed == {100: 0, 201: 2, 250: 4}

    def test_partition(self):
        omega = self.flagged()
        tiles = self.make_tiles(list(range(180, 330, 7)))
        layers = layer_split(tiles, omega, 1.0)
        got = np.concatenate(list(layers.values()))
        assert sorted(got.tolist()) == list(range(len(tiles)))

    def test_full_flag_rejected(self):
        with pytest.raises(ValueError):
            layer_split(self.make_tiles([0]), np.ones(512, dtype=bool), 1.0)

    def test_no_escape_within_budget_raises(self, monkeypatch):
        monkeypatch.setattr(sizes, "MAX_LAYER", 1)
        omega = self.flagged()
        with pytest.raises(RuntimeError):
            layer_split(self.make_tiles([250]), omega, 1.0)


class TestSpatialCutoff:
    def test_one_scale_partition_of_unity(self):
        f = GridFunction.zeros(512, 32.0)
        total = np.zeros(512)
        for j in range(32):
            total += spatial_cutoff(f, *ends(dyadic(1.0, j)), BLUR)
        assert np.abs(total - 1.0).max() < 1e-12

    def test_positive_localized_unit_mass(self):
        f = GridFunction.zeros(512, 32.0)
        cut = spatial_cutoff(f, *ends(Iv(4.0, 5.0)), BLUR)
        assert cut.min() > 0.0
        assert cut[np.argmin(np.abs(f.x - 4.5))] > 0.9
        assert cut[np.argmin(np.abs(f.x - 8.0))] < 0.01
        assert np.sum(cut) * f.dx == pytest.approx(1.0, abs=1e-12)


def one_tail_weight(f, iv, power):
    """The tail weight of one interval, in scalar arithmetic."""
    off = np.mod(f.x - iv.center + 0.5 * f.length, f.length) - 0.5 * f.length
    u = off / iv.length
    return (1.0 + u * u) ** (-0.5 * float(power))


def one_cutoff(f, iv, blur):
    """The cutoff of one interval: one box, one convolve."""
    width = max(blur * iv.length, sizes.MIN_WIDTH_CELLS * f.dx)
    start = int(round(iv.lo / f.dx))
    count = min(int(round(min(iv.length, f.length) / f.dx)), f.size)
    box = np.zeros(f.size, dtype=complex)
    box[np.mod(start + np.arange(count), f.size)] = 1.0
    kern = shared_kernel(f.size, f.length, width, 1)
    return (np.fft.ifft(np.fft.fft(box) * kern.transform) * f.dx).real


class TestBatchedRows:
    # rows of several widths, two wrapping the circle's end, two whose
    # mollifier sits at the MIN_WIDTH_CELLS floor (4 cells = 0.25 at
    # 512 samples on 32), one cut to the circle, and a repeat
    ROWS = np.array([[4.0, 5.0], [31.5, 32.5], [30.0, 34.0], [0.0, 0.5],
                     [17.25, 17.5], [2.0, 66.0], [7.0, 9.0], [4.0, 5.0],
                     [-0.75, 0.25]])

    def test_tail_weight_rows_match_single_intervals(self):
        f = GridFunction.zeros(512, 32.0)
        for power in (4, 10):
            got = tail_weight(f, *self.ROWS.T, power)
            assert got.shape == (len(self.ROWS), 512)
            for row, (lo, hi) in zip(got, self.ROWS.tolist()):
                iv = Iv(lo, hi)
                assert np.array_equal(row, tail_weight(f, *ends(iv), power))
                assert np.array_equal(row, one_tail_weight(f, iv, power))

    def test_cutoff_rows_match_single_intervals(self):
        f = GridFunction.zeros(512, 32.0)
        floor = sizes.MIN_WIDTH_CELLS * f.dx
        lengths = self.ROWS[:, 1] - self.ROWS[:, 0]
        assert (BLUR * lengths < floor).sum() == 2
        got = spatial_cutoff(f, *self.ROWS.T, BLUR)
        assert got.shape == (len(self.ROWS), 512)
        for row, (lo, hi) in zip(got, self.ROWS.tolist()):
            iv = Iv(lo, hi)
            assert np.array_equal(row, spatial_cutoff(f, *ends(iv), BLUR))
            assert np.array_equal(row, one_cutoff(f, iv, BLUR))

    def test_uncached_members_batched_like_single_tiles(self):
        # tree_size fills its uncached members from one weight array; a
        # fresh sizer asked tile by tile gives the same seminorms
        tiles = compact_family(5, *FAMILY)
        f = band_noise(512, 32.0, 7.5, np.random.default_rng(44))
        batched = TreeSizer(f, tiles, SLOPE, *SIZE)
        single = TreeSizer(f, tiles, SLOPE, *SIZE)
        for tree in maximal_trees(tiles, *BITS):
            for i in range(3):
                batched.tree_size(tree, i)
        assert batched._tile_cache
        for (j, i, marked), got in batched._tile_cache.items():
            assert single.tile_seminorm(j, i, marked) == got

class TestModelSum:
    def make_inputs(self, seed, band=7.5):
        rng = np.random.default_rng(seed)
        return tuple(band_noise(512, 32.0, band, rng) for _ in range(3))

    def test_matches_uncached_reference(self):
        # one round trip per cube component and one convolve per tile,
        # summed in tile order, gives the batched sum bit for bit
        fs = self.make_inputs(21)
        f = fs[0]
        widths = set()
        for seed in range(8):
            tiles = compact_family(seed, *FAMILY)
            widths.update(tiles.length.tolist())
            ops = operator_intervals(tiles.side, tiles.centers, SLOPE)
            ref = 0.0 + 0.0j
            for j in range(len(tiles)):
                prod = np.ones(f.size, dtype=complex)
                for i in range(3):
                    omega = Iv(*ops[tiles.cube[j], i])
                    sym = multiplier_family(fs[i], omega, None, 5, 1.2)[0]
                    prod = prod * fs[i].multiply_spectrum(sym).values
                cut = one_cutoff(f, tiles.interval(j), BLUR)
                ref += complex(np.sum(cut * prod) * f.dx)
            assert model_sum(fs, tiles, SLOPE, SIZE[0], BLUR) == ref
        assert len(widths) == 2

    def test_band_miss_gives_zero(self):
        # inputs confined to |xi| <= 0.4 cannot meet any component support of
        # a cube anchored well away from zero, so every projection vanishes
        fs = self.make_inputs(22, band=0.4)
        tiles = one_cube_family(1.0, (6.0, 6.5, 5.5), [5])
        assert abs(model_sum(fs, tiles, SLOPE, SIZE[0], BLUR)) < 1e-14

    def test_empty_collection_is_zero(self):
        fs = self.make_inputs(23)
        empty = compact_family(0, *FAMILY).take([])
        assert model_sum(fs, empty, SLOPE, SIZE[0], BLUR) == 0.0


class TestSingleTreeAudit:
    def largest_tree(self, tiles):
        return max(greedy_select(tiles, *BITS), key=lambda t: len(t.members))

    def test_budget_holds_on_frozen_seeds(self):
        for seed in (0, 2, 6):
            tiles = compact_family(seed, *FAMILY)
            rng = np.random.default_rng(seed + 900)
            fs = tuple(band_noise(512, 32.0, 7.5, rng, normalize="sup")
                       for _ in range(3))
            tree = self.largest_tree(tiles)
            lhs, rhs = single_tree_audit(fs, tiles, tree, SLOPE, THETAS,
                                         *SIZE, BLUR, *BITS)
            assert math.isfinite(lhs) and math.isfinite(rhs)
            assert rhs > 0.0
            assert lhs <= rhs

    def test_ratio_invariant_under_first_component_scaling(self):
        # exponent one on the first component: scaling it rescales both
        # sides identically, so the ratio is exactly stable
        tiles = compact_family(1, *FAMILY)
        rng = np.random.default_rng(901)
        fs = list(band_noise(512, 32.0, 7.5, rng, normalize="sup")
                  for _ in range(3))
        tree = self.largest_tree(tiles)
        lhs, rhs = single_tree_audit(tuple(fs), tiles, tree, SLOPE, THETAS,
                                     *SIZE, BLUR, *BITS)
        fs[0] = fs[0] * 3.0
        lhs3, rhs3 = single_tree_audit(tuple(fs), tiles, tree, SLOPE, THETAS,
                                       *SIZE, BLUR, *BITS)
        assert lhs3 / rhs3 == pytest.approx(lhs / rhs, rel=1e-9)

    def test_sizes_run_over_the_given_pool(self):
        # at scale_bits 5 the tree's maximal trees over the (6, 5) pool are
        # not those of the (6, 4) pool, so an audit on a fixed pool would
        # size a different collection than the run selects from
        bits = (6, 5)
        tiles = compact_family(0, bits[1], FAMILY[1])
        rng = np.random.default_rng(902)
        fs = tuple(band_noise(512, 32.0, 7.5, rng, normalize="sup")
                   for _ in range(3))
        tree = max(greedy_select(tiles, *bits), key=lambda t: len(t.members))
        members = tiles.take(tree.members)
        trees = maximal_trees(members, *bits)
        assert ([(t.top, t.members.tolist()) for t in trees]
                != [(t.top, t.members.tolist())
                    for t in maximal_trees(members, *BITS)])
        want = min(tree.interval.length, 32.0)
        for i in range(3):
            sizer = TreeSizer(fs[i], members, SLOPE, *SIZE)
            want *= sizer.collection_size(i, trees) ** THETAS[i]
        _, rhs = single_tree_audit(fs, tiles, tree, SLOPE, THETAS, *SIZE,
                                   BLUR, *bits)
        assert rhs == want
