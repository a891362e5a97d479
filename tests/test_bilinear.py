"""Bilinear multiplier tests: product reproduction, sign symbols, the
principal-value quadrature twin, region cutoffs, trilinear pairing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqbench.bilinear as B
import freqbench.experiments as ex
import freqbench.geometry as G
from freqbench.grid import GridFunction
from noise import band_noise

RNG = np.random.default_rng
SCALE = 4.0   # polygon coordinate 1 at mode n/4


def modulate(f, shift):
    """f times exp(2 pi i shift x / length): the spectrum moved up by
    ``shift``, none of it across the band edge."""
    ks = f.freqs()
    moved = ks + shift
    assert not f.spectrum()[(moved < ks.min()) | (moved > ks.max())].any()
    c = np.roll(f.spectrum(), shift)  # frequency k to k + shift mod size
    return GridFunction.from_spectrum(c, f.length)


def exponential(n, k):
    c = np.zeros(n, dtype=complex)
    c[GridFunction.zeros(n).freqs() == k] = 1.0
    return GridFunction.from_spectrum(c)


def trilinear(f, g, h, symbol):
    """Integral of T(f, g) * h over the period (no conjugation)."""
    out, _ = B.bilinear_apply(f, g, symbol)
    return complex((out * h).integral())


class TestProductSymbol:
    def test_reproduces_product_band_limited(self):
        f = band_noise(128, 10, RNG(0))
        g = band_noise(128, 10, RNG(1))
        out, rep = B.bilinear_apply(f, g, B.unit_symbol)
        assert np.abs(out.values - (f * g).values).max() < 1e-12
        assert rep.wrapped_mass == 0.0

    def test_reproduces_product_despite_wrap(self):
        # dense spectra force wrapping, yet the wrapped sum is exactly
        # the grid product (discrete convolution theorem)
        rng = RNG(2)
        f = GridFunction(rng.standard_normal(64) + 0j)
        g = GridFunction(rng.standard_normal(64) + 0j)
        out, rep = B.bilinear_apply(f, g, B.unit_symbol)
        assert rep.wrapped_mass > 0
        assert np.abs(out.values - (f * g).values).max() < 1e-10

    def test_empty_input(self):
        f = GridFunction.zeros(32)
        g = band_noise(32, 3, RNG(3))
        out, rep = B.bilinear_apply(f, g, B.unit_symbol)
        assert np.abs(out.values).max() == 0.0
        assert rep.pairs == 0


class TestSignSymbol:
    @pytest.mark.parametrize("a,b,s", [
        (3, 1, 1), (1, 3, 1), (2, 2, 1),     # below, above, on the line
        (4, -5, 2), (-3, -6, 2), (1, 5, 5), (1, 2, 2),
    ])
    def test_exponential_pair_closed_form(self, a, b, s):
        n = 64
        out, rep = B.bilinear_apply(exponential(n, a), exponential(n, b),
                                  B.halfplane_sign_symbol(s))
        expect = 1j * np.pi * np.sign(s * a - b) * exponential(n, a + b).values
        assert np.abs(out.values - expect).max() < 1e-12
        assert rep.wrapped_mass == 0.0

    def test_real_inputs_real_output(self):
        f = band_noise(128, 8, RNG(4), real=True)
        g = band_noise(128, 8, RNG(5), real=True)
        assert np.abs(f.values.imag).max() < 1e-13
        out, _ = B.bilinear_apply(f, g, B.halfplane_sign_symbol(2))
        assert np.abs(out.values.imag).max() < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(c=st.integers(-4, 4), s=st.integers(1, 3))
    def test_modulation_invariance(self, c, s):
        # the symbol is constant along (ki, kj) -> (ki + c, kj + s*c), so
        # jointly modulating the inputs and compensating the output
        # leaves the trilinear form unchanged
        n = 256
        f = band_noise(n, 6, RNG(6))
        g = band_noise(n, 6, RNG(7))
        h = band_noise(n, 40, RNG(8))
        sym = B.halfplane_sign_symbol(s)
        base = trilinear(f, g, h, sym)
        shifted = trilinear(
            modulate(f, c), modulate(g, s * c), modulate(h, -(1 + s) * c),
            sym)
        assert shifted == pytest.approx(base, abs=1e-12)


class TestQuadratureTwin:
    def test_folded_formula_matches_two_sided_sum(self):
        # the packaged symbol folds the symmetric nodes; recompute from
        # the raw two-sided principal-value sum
        nodes, slope = 256, 2
        ki = np.array([[3]])
        kj = np.array([[-1]])
        got = B.pv_cotangent_symbol(slope, nodes)(ki, kj)[0, 0]
        t = (np.arange(nodes // 2) + 0.5) / nodes
        t = np.concatenate([-t[::-1], t])
        theta = slope * 3 - (-1)
        raw = (np.pi / np.tan(np.pi * t) * np.exp(2j * np.pi * theta * t)).sum() / nodes
        assert got == pytest.approx(raw, abs=1e-13)

    @pytest.mark.parametrize("theta", [1, 3, 17, 48])
    def test_exact_at_integer_offsets(self, theta):
        # cot(pi t) sin(2 pi theta t) is a trig polynomial of degree
        # theta, and the midpoint rule on a full period integrates trig
        # polynomials of degree < nodes exactly: roundoff only
        ki = np.array([[theta]])
        kj = np.array([[0]])
        val = B.pv_cotangent_symbol(1, 4096)(ki, kj)[0, 0]
        assert abs(val - 1j * np.pi) < 1e-12

    def test_alias_structure_at_node_count(self):
        # the only integer failure mode: offsets congruent to 0 mod the
        # node count vanish, and K - theta folds onto theta
        nodes = 256
        m = B.pv_cotangent_symbol(1, nodes)
        at_k = m(np.array([[nodes]]), np.array([[0]]))[0, 0]
        fold = m(np.array([[nodes - 3]]), np.array([[0]]))[0, 0]
        base = m(np.array([[3]]), np.array([[0]]))[0, 0]
        assert abs(at_k) < 1e-12
        assert fold == pytest.approx(base, abs=1e-13)

    def test_matches_sign_symbol_on_pair(self):
        f = band_noise(128, 8, RNG(9))
        g = band_noise(128, 8, RNG(10))
        fast, _ = B.bilinear_apply(f, g, B.halfplane_sign_symbol(2))
        slow, _ = B.bilinear_apply(f, g, B.pv_cotangent_symbol(2, 100_000))
        rel = (fast - slow).norm() / max(fast.norm(), 1e-300)
        assert rel < 1e-3

    def test_zero_on_the_line_too(self):
        # theta = 0 contributes exactly 0 by the odd fold
        val = B.pv_cotangent_symbol(3, 1024)(np.array([[1]]), np.array([[3]]))
        assert val[0, 0] == 0

    @pytest.mark.parametrize("nodes", [1001, 1024, 4097])
    def test_transform_lookup_matches_direct_sum(self, nodes):
        # integer theta are read off one FFT of the weights; recompute the
        # folded sum node by node, including negative theta, theta >= nodes
        # and theta = 0 mod nodes
        thetas = np.array([-nodes - 3, -7, -1, 0, 1, 2, 9, nodes - 1, nodes,
                           nodes + 1, 2 * nodes, 2 * nodes + 5, 3 * nodes - 4])
        got = B.pv_cotangent_symbol(1, nodes)(thetas[:, None],
                                              np.array([[0]]))[:, 0]
        t = (np.arange(nodes // 2) + 0.5) / nodes
        w = (2.0 / nodes) * np.pi / np.tan(np.pi * t)
        direct = 1j * (np.sin(2 * np.pi * thetas[:, None] * t[None, :]) @ w)
        assert np.abs(got - direct).max() < 1e-11

    @pytest.mark.parametrize("nodes", [100_000, 99_999])
    def test_transform_lookup_exact_at_driver_size(self, nodes):
        # S(theta + nodes) = -S(theta) and S = i*pi on 0 < theta < nodes,
        # so every integer theta has a closed form to compare against
        thetas = np.array([-nodes - 3, -300, -1, 0, 1, 5, 300, nodes - 1,
                           nodes, nodes + 1, 3 * nodes - 5])
        q, r = np.divmod(thetas, nodes)
        expect = np.where(r == 0, 0.0, 1j * np.pi * (-1.0) ** q)
        # a negative slope: theta = -1 * ki - 0
        got = B.pv_cotangent_symbol(-1, nodes)(-thetas[:, None],
                                               np.array([[0]]))[:, 0]
        assert np.abs(got - expect).max() < 1e-14

    def test_refuses_non_integer_offsets(self):
        # the quadrature is certified only where theta = slope*ki - kj is
        # an integer; elsewhere it tends to the periodized kernel's own
        # symbol, 1e-3 off the sign, so it refuses to answer there
        ki = np.arange(-6, 7)[:, None]
        kj = np.arange(-4, 5)[None, :]
        for slope in (np.sqrt(2.0), 0.5):   # 0.5: integer theta at even ki
            with pytest.raises(ValueError, match="integer"):
                B.pv_cotangent_symbol(slope, 2048)(ki, kj)
        got = B.pv_cotangent_symbol(2.0, 2048)(ki, kj)
        assert np.array_equal(got, B.pv_cotangent_symbol(2, 2048)(ki, kj))
        assert np.abs(got - B.halfplane_sign_symbol(2)(ki, kj)).max() < 1e-12


class TestRegionSymbol:
    def test_low_modes_pass_high_modes_blocked(self):
        n = 128
        P = G.LacunaryPolygon(3)
        sym = B.region_symbol(P.contains, n, SCALE)
        f = exponential(n, 2)   # maps to (0.0625, ...) well inside
        g = exponential(n, -3)
        out, _ = B.bilinear_apply(f, g, sym)
        expect = (f * g).values
        assert np.abs(out.values - expect).max() < 1e-12

        far = exponential(n, 40)  # maps to x = 1.25, outside the polygon
        out2, _ = B.bilinear_apply(far, g, sym)
        assert np.abs(out2.values).max() == 0.0

    def test_region_scale_map(self):
        # mode n/4 maps exactly to coordinate 1.0 on the boundary circle
        n = 64
        sym = B.region_symbol(lambda p: (np.abs(p) <= 1.0).all(axis=1), n,
                               SCALE)
        inside = sym(np.array([[n // 4]]), np.array([[0]]))
        past = sym(np.array([[n // 4 + 1]]), np.array([[0]]))
        assert inside[0, 0] == 1.0 and past[0, 0] == 0.0

    @pytest.mark.parametrize("n,scale", [(128, 4.0), (129, 2.5)])
    def test_table_matches_direct_containment(self, n, scale):
        # the mask is built once over the whole mode mesh; on a sparse
        # subset of modes it must equal contains() at the same points
        P = G.LacunaryPolygon(8)
        calls = []

        def contains(pts):
            calls.append(len(pts))
            return P.contains(pts)

        sym = B.region_symbol(contains, n, scale)
        ks = np.arange(-(n // 2), n - n // 2)
        for ki, kj in ((ks[::7], ks[::5]), (ks[3::11], ks[1::3])):
            got = sym(ki[:, None], kj[None, :])
            pts = np.stack(np.broadcast_arrays(ki[:, None] * (scale / n),
                                               kj[None, :] * (scale / n)),
                           axis=-1).reshape(-1, 2)
            expect = P.contains(pts).astype(float).reshape(got.shape)
            assert np.array_equal(got, expect)
        assert calls == [n * n]

    def test_modes_off_the_grid_refused(self):
        # a symbol built for one grid must not index another grid's modes
        sym = B.region_symbol(lambda p: np.ones(len(p), bool), 64, SCALE)
        for ki in (-33, 32):
            with pytest.raises(ValueError, match="64-point grid"):
                sym(np.array([[ki]]), np.array([[0]]))
        assert sym(np.array([[-32, 31]]), np.array([[0]])).tolist() == \
            [[1.0, 1.0]]


class TestTrilinearForm:
    def test_unit_symbol_is_plain_integral(self):
        f = band_noise(64, 5, RNG(11))
        g = band_noise(64, 5, RNG(12))
        h = band_noise(64, 20, RNG(13))
        out, rep = B.bilinear_apply(f, g, B.unit_symbol)
        direct = (f * g * h).integral()
        assert (out * h).integral() == pytest.approx(direct, abs=1e-12)
        assert rep.wrapped_mass == 0.0


def test_modes_are_found_without_sorting(monkeypatch):
    # the FFT layout gives the ascending order of the modes in closed
    # form, so the inputs, every symbol and the apply run with numpy's
    # sorts refused
    def refuse(*args, **kwargs):
        raise AssertionError("the modes were sorted")

    n = 128
    polygon = G.LacunaryPolygon(8)
    for name in ("sort", "argsort", "unique"):
        monkeypatch.setattr(np, name, refuse)
    f = ex.band_noise(n, 1.0, n / 8, RNG(0))
    g = ex.restricted_input(n, 1.0, [(0.1, 0.3), (0.5, 0.55)], 0.0625)
    symbols = (B.unit_symbol, B.halfplane_sign_symbol(2),
               B.pv_cotangent_symbol(2, 4 * n + 2),
               B.region_symbol(polygon.contains, n, SCALE))
    for symbol in symbols:
        out, report = B.bilinear_apply(f, g, symbol)
        assert report.pairs > 0 and np.isfinite(out.values).all()


@pytest.mark.parametrize("in_band,wrapped,want", [
    (0.0, 0.0, 0.0), (3.0, 1.0, 0.25), (np.nan, 0.0, np.nan),
    (1.0, np.nan, np.nan)])
def test_wrapped_fraction_keeps_a_nan_mass(in_band, wrapped, want):
    # a NaN mass once read as 0.0, an apply that wrapped nothing
    got = B.AliasReport(in_band, wrapped, 1).wrapped_fraction
    assert got == want or (np.isnan(got) and np.isnan(want))
