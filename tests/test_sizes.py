"""Tests for size functionals, exceptional layers, and the model sum."""

import ast
import inspect
import math

import numpy as np
import pytest

import freqbench.experiments as ex
from freqbench import grid, sizes
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
    model_sum,
    multiplier_family,
    single_tree_audit,
    spatial_cutoff,
    tail_weight,
    term_sum,
    top_frequency,
    top_interval,
)
from freqbench.timefreq import (
    Family,
    Tree,
    build_halos,
    compact_family,
    forest_decompose,
    greedy_select,
    maximal_trees,
    operator_intervals,
)
from noise import band_noise

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


def span(tiles, j):
    """The (lo, hi) spatial interval of tile j."""
    return tiles.lo[j], tiles.hi[j]


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
        # center 0.375 lands on the sample lattice
        w = tail_weight(f, 0.25, 0.5, power=10)
        assert w[np.argmin(np.abs(f.x - 0.375))] == 1.0
        at = np.argmin(np.abs(f.x - 0.625))  # one interval-length away, u = 1
        assert w[at] == pytest.approx(2.0 ** -5, rel=1e-12)

    def test_matches_wrapped_distance_formula(self):
        f = GridFunction.zeros(128, 1.0)
        w = tail_weight(f, -0.05, 0.05, power=6)
        d = np.abs(f.x)
        d = np.minimum(d, f.length - d)
        ref = (1.0 + (d / 0.1) ** 2) ** -3.0
        assert np.allclose(w, ref, atol=1e-14)

    def test_negative_zero_remainder_matches_mod(self):
        # centre 1.5 puts sample 0 one circle left of the seam: fmod gives
        # -0.0 there where np.mod gives +0.0, and the weights still agree
        f = GridFunction.zeros(256, 1.0)
        off = np.fmod(f.x[0] - 1.5 + 0.5, 1.0)
        assert off == 0.0 and np.signbit(off)
        for power in (3, 4, 10):
            got = tail_weight(f, 1.25, 1.75, power)
            assert got[0] == 2.0 ** (-0.5 * power)
            assert got.tobytes() == one_tail_weight(f, 1.25, 1.75,
                                                    power).tobytes()

    def test_higher_power_decays_faster(self):
        f = GridFunction.zeros(64, 1.0)
        lo, hi = (tail_weight(f, 0.0, 0.125, power=12),
                  tail_weight(f, 0.0, 0.125, power=4))
        off_center = np.abs(f.x - 0.0625) > 1e-9
        assert np.all(lo[off_center] < hi[off_center])


@pytest.mark.parametrize("module", [sizes, grid])
def test_no_floor_divmod_remainder(module):
    # floats are periodized by np.fmod with an explicit sign fix and
    # integers by %, so neither module names numpy's floor-divmod
    # remainder, np.mod or np.remainder, whose float loop is most of a
    # weight row's cost
    tree = ast.parse(inspect.getsource(module))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id in ("np", "numpy")}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "numpy"
              for alias in node.names}
    assert not names & {"mod", "remainder"}


class TestMultiplierFamily:
    def freqs(self, n=512, length=32.0):
        f = GridFunction.zeros(n, length)
        return f, f.freqs() / length

    def test_support_confined_to_dilated_interval(self):
        f, xs = self.freqs()
        omega = (2.0, 3.0)
        outside = np.abs(xs - 2.5) >= 0.75  # 1.5 * |omega| / 2
        for marked in (None, 2.0):
            for sym in multiplier_family(f, *omega, marked, *SIZE[:2]):
                assert np.all(sym[outside] == 0.0)

    def test_unmarked_family_bounded_and_distinct(self):
        f, xs = self.freqs()
        fam = multiplier_family(f, -1.0, 1.0, None, *SIZE[:2])
        for sym in fam:
            assert np.abs(sym).max() <= 0.95 + 1e-12
        center = np.argmin(np.abs(xs))
        assert fam[0][center] == pytest.approx(0.95)
        assert fam[2][center] == pytest.approx(0.475)
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.abs(fam[a] - fam[b]).max() > 0.01

    def test_marked_family_obeys_vanishing_bound(self):
        f, xs = self.freqs()
        marked = 2.0  # on the mode lattice for length 32
        cap = 0.95 * np.minimum(1.0, np.abs(xs - marked) / 2.0)
        for sym in multiplier_family(f, 1.5, 3.5, marked, *SIZE[:2]):
            assert np.all(np.abs(sym) <= cap + 1e-15)
            assert sym[np.argmin(np.abs(xs - marked))] == 0.0


class TestTopGeometry:
    def test_component_widths_and_zero_sum(self):
        top = (3.0, 16.0, 32.0)
        marks = [top_frequency(top, i, SLOPE) for i in range(3)]
        assert marks == [3.0, 3.375, -6.375]
        assert sum(marks) == 0.0
        widths = [hi - lo for lo, hi in
                  (top_interval(top, i, SLOPE, 32.0) for i in range(3))]
        assert widths == pytest.approx([1 / 16, 1.125 / 16, 2.125 / 16])

    def test_circle_caps_top_length(self):
        lo, hi = top_interval((0.0, 0.0, 64.0), 0, SLOPE, circle=32.0)
        assert hi - lo == pytest.approx(1 / 32)


class TestTileSeminorm:
    def test_single_mode_oracle(self):
        # For f a pure mode at frequency xi0 every projection is m(xi0) * f,
        # so the seminorm collapses to max |m(xi0)| times the weight norm.
        n, length = 512, 32.0
        tiles = unit_tiles(3)
        omega = operator_intervals(tiles.side, tiles.centers, SLOPE)[0, 0]
        k0 = int(round(omega.mean() * length)) + 3  # inside the support
        coeffs = np.zeros(n, dtype=complex)
        coeffs[GridFunction.zeros(n, length).freqs() == k0] = 0.7
        f = GridFunction.from_spectrum(coeffs, length)
        xi0 = (k0) / length

        marked = omega[0] - 0.25
        sizer = TreeSizer(f, tiles, SLOPE, *SIZE)
        got = sizer.tile_seminorm(0, 0, marked)

        xs = f.freqs() / length
        at = np.argmin(np.abs(xs - xi0))
        amp = max(
            abs(sym[at])
            for sym in multiplier_family(f, *omega, marked, *SIZE[:2])
        )
        w = tail_weight(f, *span(tiles, 0), SIZE[2])
        want = amp * 0.7 * math.sqrt(float(np.sum(w * w)) * f.dx)
        assert got == pytest.approx(want, rel=1e-12)

    def test_cache_is_consumed(self):
        rng = np.random.default_rng(5)
        f = band_noise(512, 6.0, rng, 32.0, norm=2)
        sizer = TreeSizer(f, unit_tiles(0), SLOPE, *SIZE)
        first = sizer.tile_seminorm(0, 1, 0.125)
        key = (0, 1, 0.125)
        assert sizer._terms[key] == first
        sizer._terms[key] = 123.0
        assert sizer.tile_seminorm(0, 1, 0.125) == 123.0


def per_symbol_weighted_max(sizer, interval, omega, marked):
    """The uncached seminorm: one spectral round trip per symbol."""
    f = sizer.f
    w = tail_weight(f, *interval, sizer.weight_power)
    best = 0.0
    for sym in multiplier_family(f, *omega, marked, sizer.order,
                                 sizer.support_factor):
        g = f.multiply_spectrum(sym)
        val = float(np.sqrt(np.sum(w * w * np.abs(g.values) ** 2) * f.dx))
        best = max(best, val)
    return best


def one_row_top_term(sizer, top, i):
    """The uncached top term of component i, from the top's own row."""
    omega = top_interval(top, i, SLOPE, sizer.f.length)
    length = min(top[2] - top[1], sizer.f.length)
    best = per_symbol_weighted_max(sizer, top[1:], omega, None)
    return best / math.sqrt(length)


class TestFilterCache:
    def test_matches_per_symbol_loop_bitwise(self):
        for seed, order, support, power in ((0, 5, 1.5, 10), (3, 4, 1.2, 4)):
            rng = np.random.default_rng(seed + 70)
            tiles = compact_family(seed, *FAMILY)
            f = band_noise(512, 7.5, rng, 32.0, norm=2)
            sizer = TreeSizer(f, tiles, SLOPE, order, support, power)
            ops = operator_intervals(tiles.side, tiles.centers, SLOPE)
            for tree in maximal_trees(tiles, *BITS):
                for i in range(3):
                    marks = (top_frequency(tree.top, i, SLOPE),
                             float(rng.uniform(-8.0, 8.0)))
                    for marked in marks:
                        for j in tree.members.tolist():
                            omega = ops[tiles.cube[j], i].tolist()
                            want = per_symbol_weighted_max(
                                sizer, span(tiles, j), omega, marked)
                            assert sizer.tile_seminorm(j, i, marked) == want
                    sizer.tree_size(tree, i)
                    assert sizer._terms[(tree.top, i)] == (
                        one_row_top_term(sizer, tree.top, i))
            # a repeated key recomputed from cached filtered powers
            tile_keys = [key for key in sizer._terms if len(key) == 3]
            first = sizer._terms.pop(tile_keys[0])
            assert sizer.tile_seminorm(*tile_keys[0]) == first
            assert len(sizer._power_cache) < len(tile_keys)

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
            f = band_noise(512, 7.5, np.random.default_rng(seed + 90), 32.0,
                           norm=2)
            sizer = TreeSizer(f, tiles, SLOPE, *SIZE)
            for tree in maximal_trees(tiles, *BITS):
                for i in range(3):
                    sizer.tree_size(tree, i)
                    assert sizer._terms[(tree.top, i)] == (
                        one_row_top_term(sizer, tree.top, i))

    def test_cutoff_kernel_is_shared_and_read_only(self):
        f = GridFunction.zeros(512, 32.0)
        spatial_cutoff(f, 4.0, 5.0, BLUR)
        kern = shared_kernel(512, 32.0, 0.25, 1)
        assert shared_kernel(512, 32.0, 0.25, 1) is kern
        with pytest.raises(ValueError):
            kern.values[0] = 1.0
        with pytest.raises(ValueError):
            kern.transform[0] = 1.0


class TestTreeSize:
    def test_singleton_matches_two_term_formula(self):
        rng = np.random.default_rng(9)
        f = band_noise(512, 6.0, rng, 32.0, norm=2)
        tiles = unit_tiles(4)
        top = tiles.own_top(0)
        tree = Tree(top, np.array([0]))
        sizer = TreeSizer(f, tiles, SLOPE, *SIZE)
        marked = top_frequency(top, 0, SLOPE)
        want = (
            math.sqrt(sizer.tile_seminorm(0, 0, marked) ** 2
                      / tiles.length[0])
            + one_row_top_term(sizer, top, 0)
        )
        assert sizer.tree_size(tree, 0) == pytest.approx(want, rel=1e-12)

    def test_more_members_never_shrink_a_tree(self):
        rng = np.random.default_rng(11)
        f = band_noise(512, 6.0, rng, 32.0, norm=2)
        tiles = unit_tiles(2, 7)
        top = (tiles.own_top(0)[0], 0.0, 8.0)
        sizer = TreeSizer(f, tiles, SLOPE, *SIZE)
        small = sizer.tree_size(Tree(top, np.array([0])), 0)
        big = sizer.tree_size(Tree(top, np.array([0, 1])), 0)
        assert big >= small

    def test_collection_size_dominates_selected_trees(self):
        tiles = compact_family(3, *FAMILY)
        rng = np.random.default_rng(33)
        f = band_noise(512, 7.5, rng, 32.0, norm=2)
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
            forest_decompose(sizer.tiles,
                             lambda trees: sizer.tree_sizes(trees, 0), *BITS)


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

    @staticmethod
    def loop_layers(tiles, omega, circle):
        """The tile-by-tile, level-by-level reference."""
        if omega.all():
            raise ValueError("flagged set covers the whole circle")
        n = omega.size
        dx = circle / n
        out = {}
        centers = 0.5 * (tiles.lo + tiles.hi)
        for j, (center, width) in enumerate(zip(centers.tolist(),
                                                tiles.length.tolist())):
            for level in range(sizes.MAX_LAYER + 1):
                length = min(width * 4.0 ** level, circle)
                start = int(round((center - 0.5 * length) / dx))
                count = min(int(round(length / dx)), n)
                if not omega[(start + np.arange(count)) % n].all():
                    out.setdefault(level, []).append(j)
                    break
            else:
                raise RuntimeError("tile never escaped the flagged set")
        return {level: np.array(js) for level, js in out.items()}

    def assert_same_layers(self, tiles, omega, circle):
        try:
            want = self.loop_layers(tiles, omega, circle)
        except (ValueError, RuntimeError) as err:
            with pytest.raises(type(err), match=str(err)):
                layer_split(tiles, omega, circle)
            return None
        got = layer_split(tiles, omega, circle)
        assert sorted(got) == sorted(want)
        for level in want:
            assert got[level].dtype == np.int64
            assert np.array_equal(got[level], want[level])
        return got

    def test_prefix_counts_match_the_loop(self, monkeypatch):
        # one pass per level over prefix counts of unflagged samples gives
        # the loop's layers, and its raises, on seeded compact families
        # over random masks and circles, windows wrapping and saturating
        rng = np.random.default_rng(2024)
        depths, case, seed = [], 0, 0
        while case < 300:
            seed += 1
            try:
                tiles = compact_family(seed, int(rng.integers(4, 9)),
                                       float(rng.uniform(0.25, 4.0)))
            except RuntimeError:   # no admissible family at this draw
                continue
            case += 1
            monkeypatch.setattr(sizes, "MAX_LAYER", int(rng.integers(1, 13)))
            n = int(rng.choice([16, 64, 512, 4096]))
            # flagged runs of random length, or the whole circle
            omega = np.repeat(rng.uniform(size=n) < rng.uniform(0.3, 1.0),
                              rng.integers(1, 64, size=n))[:n]
            omega = np.resize(omega, n) if case % 50 else np.ones(n, bool)
            got = self.assert_same_layers(tiles, omega,
                                          float(rng.uniform(0.5, 64.0)))
            depths.extend(got or ())
        assert min(depths) == 0 and max(depths) >= 3

    def test_default_size_decay_layers_match_the_loop(self, monkeypatch):
        seen = []

        def checked(tiles, omega, circle):
            seen.append(self.assert_same_layers(tiles, omega, circle))
            return seen[-1]

        monkeypatch.setattr(ex, "layer_split", checked)
        ex.run(ex.default_config("size-decay"))
        assert len(seen) == 1 and len(seen[0]) >= 3


class TestSpatialCutoff:
    def test_one_scale_partition_of_unity(self):
        f = GridFunction.zeros(512, 32.0)
        total = np.zeros(512)
        for j in range(32):
            total += spatial_cutoff(f, float(j), j + 1.0, BLUR)
        assert np.abs(total - 1.0).max() < 1e-12

    def test_positive_localized_unit_mass(self):
        f = GridFunction.zeros(512, 32.0)
        cut = spatial_cutoff(f, 4.0, 5.0, BLUR)
        assert cut.min() > 0.0
        assert cut[np.argmin(np.abs(f.x - 4.5))] > 0.9
        assert cut[np.argmin(np.abs(f.x - 8.0))] < 0.01
        assert np.sum(cut) * f.dx == pytest.approx(1.0, abs=1e-12)


def one_tail_weight(f, lo, hi, power):
    """The tail weight of [lo, hi], in scalar arithmetic, periodized by
    numpy's floor-divmod remainder."""
    off = np.mod(f.x - 0.5 * (lo + hi) + 0.5 * f.length, f.length) \
        - 0.5 * f.length
    u = off / (hi - lo)
    return (1.0 + u * u) ** (-0.5 * float(power))


def one_cutoff(f, lo, hi, blur):
    """The cutoff of [lo, hi]: one box, one convolve."""
    width = max(blur * (hi - lo), sizes.MIN_WIDTH_CELLS * f.dx)
    start = int(round(lo / f.dx))
    count = min(int(round(min(hi - lo, f.length) / f.dx)), f.size)
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
        # the rows scaled to each circle, and ends drawn from five circles
        # either side: left of 0, right of the circle, longer than it; the
        # np.mod reference agrees byte for byte
        drawn = np.sort(np.random.default_rng(8).uniform(-5.0, 5.0, (64, 2)),
                        axis=1)
        for length in (1.0, 32.0, 0.3, 7.77):
            f = GridFunction.zeros(512, length)
            ends = np.vstack([self.ROWS / 32.0, drawn]) * length
            for power in (3, 4, 10):
                got = tail_weight(f, *ends.T, power)
                assert got.shape == (len(ends), 512)
                for row, (lo, hi) in zip(got, ends.tolist()):
                    assert np.array_equal(row, tail_weight(f, lo, hi, power))
                    assert row.tobytes() == one_tail_weight(
                        f, lo, hi, power).tobytes()

    def test_cutoff_rows_match_single_intervals(self):
        f = GridFunction.zeros(512, 32.0)
        floor = sizes.MIN_WIDTH_CELLS * f.dx
        lengths = self.ROWS[:, 1] - self.ROWS[:, 0]
        assert (BLUR * lengths < floor).sum() == 2
        got = spatial_cutoff(f, *self.ROWS.T, BLUR)
        assert got.shape == (len(self.ROWS), 512)
        for row, (lo, hi) in zip(got, self.ROWS.tolist()):
            assert np.array_equal(row, spatial_cutoff(f, lo, hi, BLUR))
            assert np.array_equal(row, one_cutoff(f, lo, hi, BLUR))

    def test_uncached_members_batched_like_single_tiles(self):
        # tree_size fills its uncached members from one weight array; a
        # fresh sizer asked tile by tile gives the same seminorms
        tiles = compact_family(5, *FAMILY)
        f = band_noise(512, 7.5, np.random.default_rng(44), 32.0, norm=2)
        batched = TreeSizer(f, tiles, SLOPE, *SIZE)
        single = TreeSizer(f, tiles, SLOPE, *SIZE)
        for tree in maximal_trees(tiles, *BITS):
            for i in range(3):
                batched.tree_size(tree, i)
        tile_terms = {key: got for key, got in batched._terms.items()
                      if len(key) == 3}
        assert tile_terms
        for (j, i, marked), got in tile_terms.items():
            assert single.tile_seminorm(j, i, marked) == got

    def test_multiplier_family_rows_match_single_windows(self):
        # every component window of the compact families of seeds 0-7,
        # with and without marks, in one call and one window at a time
        f = GridFunction.zeros(512, 32.0)
        for seed in range(8):
            tiles = compact_family(seed, *FAMILY)
            ops = operator_intervals(tiles.side, tiles.centers, SLOPE)
            lo, hi = ops[..., 0].ravel(), ops[..., 1].ravel()
            marks = np.random.default_rng(seed).uniform(-8.0, 8.0, lo.size)
            for marked in (None, marks):
                got = multiplier_family(f, lo, hi, marked, *SIZE[:2])
                assert got.shape == (lo.size, 3, 512)
                for k, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
                    one = None if marked is None else float(marked[k])
                    assert np.array_equal(
                        got[k], multiplier_family(f, a, b, one, *SIZE[:2]))


class TestTreeSizesBatch:
    def test_batch_matches_one_tree_calls_and_reference(self, monkeypatch):
        # all maximal trees in one call on a fresh sizer: one weight call,
        # at most one symbol stack and one bank per mark kind, and every
        # size, seminorm and top term equal to the one-tree and per-symbol
        # references bit for bit
        calls = []

        def counted(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(sizes, "tail_weight",
                            counted("weigh", tail_weight))
        monkeypatch.setattr(sizes, "multiplier_family",
                            counted("family", multiplier_family))
        monkeypatch.setattr(GridFunction, "bank",
                            counted("bank", GridFunction.bank))
        for seed in range(8):
            tiles = compact_family(seed, *FAMILY)
            f = band_noise(512, 7.5, np.random.default_rng(seed + 60), 32.0,
                           norm=2)
            ops = operator_intervals(tiles.side, tiles.centers, SLOPE)
            trees = maximal_trees(tiles, *BITS)
            batched = TreeSizer(f, tiles, SLOPE, *SIZE)
            single = TreeSizer(f, tiles, SLOPE, *SIZE)
            for i in range(3):
                calls.clear()
                got = batched.tree_sizes(trees, i)
                assert calls.count("weigh") == 1
                assert calls.count("family") == calls.count("bank") <= 2
                assert got == [single.tree_size(tree, i) for tree in trees]
                assert single.collection_size(i, trees) == max(got)
                for tree in trees:
                    marked = top_frequency(tree.top, i, SLOPE)
                    for j in tree.members.tolist():
                        omega = ops[tiles.cube[j], i].tolist()
                        assert batched._terms[(j, i, marked)] == (
                            per_symbol_weighted_max(
                                batched, span(tiles, j), omega, marked))
                    assert batched._terms[(tree.top, i)] == (
                        one_row_top_term(batched, tree.top, i))

class TestModelSum:
    def make_inputs(self, seed, band=7.5):
        rng = np.random.default_rng(seed)
        return tuple(band_noise(512, band, rng, 32.0, norm=2)
                     for _ in range(3))

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
                    sym = multiplier_family(fs[i], *ops[tiles.cube[j], i],
                                            None, 5, 1.2)[0]
                    prod = prod * fs[i].multiply_spectrum(sym).values
                cut = one_cutoff(f, *span(tiles, j), BLUR)
                ref += complex(np.sum(cut * prod) * f.dx)
            assert term_sum(model_sum(fs, tiles, SLOPE, SIZE[0],
                                      BLUR)) == ref
        assert len(widths) == 2

    def test_band_miss_gives_zero(self):
        # inputs confined to |xi| <= 0.4 cannot meet any component support of
        # a cube anchored well away from zero, so every projection vanishes
        fs = self.make_inputs(22, band=0.4)
        tiles = one_cube_family(1.0, (6.0, 6.5, 5.5), [5])
        assert abs(term_sum(model_sum(fs, tiles, SLOPE, SIZE[0],
                                      BLUR))) < 1e-14

    def test_empty_collection_is_zero(self):
        fs = self.make_inputs(23)
        empty = compact_family(0, *FAMILY).take([])
        terms = model_sum(fs, empty, SLOPE, SIZE[0], BLUR)
        assert terms.shape == (0,) and term_sum(terms) == 0.0


def audit(fs, tiles, tree, bits=BITS):
    """The single-tree audit of ``tree`` at the default sizes."""
    terms = model_sum(fs, tiles, SLOPE, SIZE[0], BLUR)
    return single_tree_audit(fs, tiles, tree, terms, SLOPE, THETAS, *SIZE,
                             *bits)


class TestSingleTreeAudit:
    def largest_tree(self, tiles):
        return max(greedy_select(tiles, *BITS), key=lambda t: len(t.members))

    def test_budget_holds_on_frozen_seeds(self):
        for seed in (0, 2, 6):
            tiles = compact_family(seed, *FAMILY)
            rng = np.random.default_rng(seed + 900)
            fs = tuple(band_noise(512, 7.5, rng, 32.0, norm=np.inf)
                       for _ in range(3))
            tree = self.largest_tree(tiles)
            lhs, rhs = audit(fs, tiles, tree)
            assert math.isfinite(lhs) and math.isfinite(rhs)
            assert rhs > 0.0
            assert lhs <= rhs

    def test_ratio_invariant_under_first_component_scaling(self):
        # exponent one on the first component: scaling it rescales both
        # sides identically, so the ratio is exactly stable
        tiles = compact_family(1, *FAMILY)
        rng = np.random.default_rng(901)
        fs = list(band_noise(512, 7.5, rng, 32.0, norm=np.inf)
                  for _ in range(3))
        tree = self.largest_tree(tiles)
        lhs, rhs = audit(tuple(fs), tiles, tree)
        fs[0] = fs[0] * 3.0
        lhs3, rhs3 = audit(tuple(fs), tiles, tree)
        assert lhs3 / rhs3 == pytest.approx(lhs / rhs, rel=1e-9)

    def test_lhs_is_the_members_own_model_sum(self):
        # the tree's member terms taken from the family's terms add up to
        # the model sum over the members alone, bit for bit
        for seed in range(8):
            tiles = compact_family(seed, *FAMILY)
            rng = np.random.default_rng(seed + 910)
            fs = tuple(band_noise(512, 7.5, rng, 32.0, norm=2)
                       for _ in range(3))
            tree = self.largest_tree(tiles)
            own = model_sum(fs, tiles.take(tree.members), SLOPE, SIZE[0],
                            BLUR)
            assert audit(fs, tiles, tree)[0] == abs(term_sum(own))

    def test_model_sum_run_weighs_once_per_audit(self, monkeypatch):
        # the three components size the same trees over one grid, so each
        # trial's audit takes all its weight rows from one call
        calls = []

        def counted(f, lo, hi, power):
            calls.append(np.size(lo))
            return tail_weight(f, lo, hi, power)

        monkeypatch.setattr(sizes, "tail_weight", counted)
        cfg = ex.default_config("model-sum")
        cfg.trials = 4
        assert ex.run(cfg).passed
        assert len(calls) == 4 and min(calls) > 1

    def test_sizes_run_over_the_given_pool(self):
        # at scale_bits 5 the tree's maximal trees over the (6, 5) pool are
        # not those of the (6, 4) pool, so an audit on a fixed pool would
        # size a different collection than the run selects from
        bits = (6, 5)
        tiles = compact_family(0, bits[1], FAMILY[1])
        rng = np.random.default_rng(902)
        fs = tuple(band_noise(512, 7.5, rng, 32.0, norm=np.inf)
                   for _ in range(3))
        tree = max(greedy_select(tiles, *bits), key=lambda t: len(t.members))
        members = tiles.take(tree.members)
        trees = maximal_trees(members, *bits)
        assert ([(t.top, t.members.tolist()) for t in trees]
                != [(t.top, t.members.tolist())
                    for t in maximal_trees(members, *BITS)])
        want = min(tree.length, 32.0)
        for i in range(3):
            sizer = TreeSizer(fs[i], members, SLOPE, *SIZE)
            want *= sizer.collection_size(i, trees) ** THETAS[i]
        _, rhs = audit(fs, tiles, tree, bits)
        assert rhs == want
