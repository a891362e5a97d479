"""Grid substrate: spectra, norms, exact maximal averages, kernels."""

import tracemalloc

import numpy as np
import pytest

from freqbench.grid import (
    GridFunction,
    PositiveBandKernel,
    convolve,
    indicator,
    maximal_average,
    smooth_ramp,
)
from freqbench.paraproduct import _annuli, _balls, pk, qk


def random_gridfunction(rng, size=128, length=1.0):
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return GridFunction(vals, length=length)


class TestSpectrum:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        f = random_gridfunction(rng)
        g = GridFunction.from_spectrum(f.spectrum(), f.length)
        assert np.abs(g.values - f.values).max() < 1e-12

    def test_single_mode(self):
        # coefficient at k=3 is exp(2 pi i 3 x)
        n = 64
        c = np.zeros(n, dtype=complex)
        c[n // 2 + 3] = 1.0
        f = GridFunction.from_spectrum(c, length=1.0)
        xs = f.x
        assert np.abs(f.values - np.exp(2j * np.pi * 3 * xs)).max() < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(11)
        f = random_gridfunction(rng, size=256, length=8.0)
        lhs = f.norm(2) ** 2
        rhs = f.length * np.sum(np.abs(f.spectrum()) ** 2)
        assert abs(lhs - rhs) < 1e-10 * max(lhs, 1.0)

    def test_refine_preserves_band_limited(self):
        # zero-padding the spectrum gives the same function on a grid
        # twice as fine
        rng = np.random.default_rng(5)
        c = np.zeros(64, dtype=complex)
        c[24:40] = rng.standard_normal(16)
        f = GridFunction.from_spectrum(c, length=1.0)
        big = np.zeros(128, dtype=complex)
        big[32:96] = f.spectrum()
        g = GridFunction.from_spectrum(big, length=1.0)
        assert abs(g.norm(2) - f.norm(2)) < 1e-12
        # samples of g at even indices are samples of f
        assert np.abs(g.values[::2] - f.values).max() < 1e-11


class TestNorms:
    def test_indicator_mass_exact(self):
        # half-open indicator with lattice endpoints has exact mass
        f = indicator((4.0, 5.0), 256, length=8.0)
        assert f.integral() == 1.0
        assert f.norm(1) == 1.0

    def test_integral_scales_real_and_imaginary_parts_apart(self):
        rng = np.random.default_rng(24)
        f = random_gridfunction(rng, size=128)
        assert f.integral() == f.values.sum() * f.dx
        # a complex product with dx would make the imaginary part inf * 0
        f.values[5] = np.inf
        total = f.integral()
        assert total.real == np.inf
        assert total.imag == pytest.approx(f.values.imag.sum() * f.dx,
                                           rel=1e-12)

    def test_lp_interpolation_bound(self):
        rng = np.random.default_rng(23)
        f = random_gridfunction(rng, size=128)
        # ||f||_2 <= ||f||_1^(1/2) ||f||_inf^(1/2) on a probability space
        assert f.norm(2) <= np.sqrt(f.norm(1) * f.norm(np.inf)) + 1e-12


def row_loop_maximal_average(f):
    """The maximal average one left endpoint at a time: a row of averages
    to every right endpoint and its reversed running maximum."""
    n = f.size
    dx = f.dx
    a = np.abs(f.values)
    prefix = np.concatenate([[0.0], np.cumsum(a)]) * dx
    out = np.zeros(n)
    for i0 in range(n):
        widths = (np.arange(i0 + 1, n + 1) - i0) * dx
        avgs = (prefix[i0 + 1 :] - prefix[i0]) / widths
        run = np.maximum.accumulate(avgs[::-1])[::-1]
        if run[0] > out[i0]:
            out[i0] = run[0]
        if i0 + 1 < n:
            np.maximum(out[i0 + 1 :], run[: n - 1 - i0], out=out[i0 + 1 :])
    return GridFunction(out.astype(complex), f.length)


def maximal_average_inputs():
    rng = np.random.default_rng(57)
    sparse = np.where(rng.random(4096) < 0.01, rng.random(4096), 0.0)
    yield indicator((0.5, 0.5 + 2.0 / 512), 4096)  # size-decay's density
    yield GridFunction(sparse)
    yield random_gridfunction(rng, size=4096)
    yield random_gridfunction(rng, size=1000, length=3.0)
    yield GridFunction(np.abs(rng.standard_normal(1000)), length=3.0)
    yield indicator([(1.0, 1.25), (2.0, 2.5)], 1000, length=3.0)
    yield GridFunction.zeros(16)
    yield random_gridfunction(rng, size=16, length=0.375)
    yield random_gridfunction(rng, size=2)
    yield GridFunction.zeros(2, length=5.0)


class TestMaximalAverage:
    def test_matches_row_loop_bitwise(self):
        for f in maximal_average_inputs():
            got = maximal_average(f).values
            want = row_loop_maximal_average(f).values
            assert got.tobytes() == want.tobytes(), f

    def test_peak_memory_not_above_row_loop(self):
        f = indicator((0.5, 0.5 + 2.0 / 512), 4096)
        peaks = []
        for fn in (maximal_average, row_loop_maximal_average):
            fn(GridFunction.zeros(16))  # first-call allocations are not peaks
            tracemalloc.start()
            try:
                fn(f)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]

    def test_indicator_value_two_units_right(self):
        # mass-1 indicator on [4,5); at x=6 the best closed interval is
        # [4,6]: average exactly 1/2
        f = indicator((4.0, 5.0), 256, length=8.0)
        m = maximal_average(f)
        x = f.x
        idx = int(np.argmin(np.abs(x - 6.0)))
        assert x[idx] == 6.0
        assert m.values[idx].real == 0.5

    def test_dominates_function(self):
        rng = np.random.default_rng(31)
        f = random_gridfunction(rng, size=128)
        m = maximal_average(f)
        assert np.all(m.values.real >= np.abs(f.values) - 1e-12)

    def test_doubling_infimum(self):
        # inf over I of the maximal average is controlled by the inf over
        # the 4^l-dilate, up to 8^l, when the dilate stays in the domain
        rng = np.random.default_rng(41)
        vals = np.abs(rng.standard_normal(256)) + 0.05
        f = GridFunction(vals.astype(complex), length=8.0)
        m = maximal_average(f).values.real
        x = f.x
        for l in (1, 2):
            base = (x >= 3.75) & (x < 4.25)
            big = (x >= 4.0 - 0.25 * 4**l) & (x < 4.0 + 0.25 * 4**l)
            assert m[base].min() <= 8.0**l * m[big].min() + 1e-9


class TestBumps:
    def test_ramp_endpoints(self):
        u = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        r = smooth_ramp(u)
        assert r[0] == 0.0 and r[1] == 0.0
        assert r[3] == 1.0 and r[4] == 1.0
        assert 0.0 < r[2] < 1.0


class TestPositiveKernel:
    def test_positive_and_band_limited(self):
        k = PositiveBandKernel(size=512, length=1.0, width=1 / 16, half_power=8)
        assert k.values.min() > 0.0
        # every frequency carrying mass above 4e-16 of the peak lies within
        # the spectrum radius m * length / w
        c = np.abs(np.fft.fftshift(k.transform)) / k.size
        ks = np.arange(-256, 256)
        assert np.abs(ks[c > 4e-16 * c.max()]).max() <= 8 * 16

    def test_mass_one(self):
        k = PositiveBandKernel(size=512, length=1.0, width=1 / 16, half_power=8)
        assert abs(k.values.sum() * (1.0 / 512) - 1.0) < 1e-12

    def test_alias_refused(self):
        with pytest.raises(ValueError):
            PositiveBandKernel(size=64, length=1.0, width=1 / 16, half_power=8)

    @pytest.mark.parametrize("width", [0.0, -0.5])
    def test_non_positive_width_refused(self, width):
        with pytest.raises(ValueError, match="width must be positive"):
            PositiveBandKernel(size=64, length=1.0, width=width, half_power=2)

    def test_envelope_two_sided_on_window(self):
        # on the samples within 12 widths of the peak, the unnormalized
        # kernel (both sinc powers are 1 at t = 0) stays between two
        # constant multiples of (1 + |t|/w)^(-2m)
        w, m = 1 / 32, 4
        k = PositiveBandKernel(size=1024, length=1.0, width=w, half_power=m)
        raw = np.roll(2.0 * k.values / k.values[0], 384)[:769]
        t = np.arange(-384, 385) / 1024
        ratio = raw / (1.0 + np.abs(t) / w) ** (-2 * m)
        assert 0.0 < ratio.min() < 1.0 < ratio.max() < 10.0

    def test_partition_of_unity_exact(self):
        # smoothing a partition by indicators gives the constant 1; decay
        # power kept low so the far tails stay above float roundoff
        k = PositiveBandKernel(size=512, length=1.0, width=1 / 32, half_power=2)
        cuts = np.linspace(0.0, 1.0, 9)
        parts = [
            convolve(indicator((a, b), 512, 1.0).values, k)
            for a, b in zip(cuts[:-1], cuts[1:])
        ]
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        assert np.abs(total - 1.0).max() < 1e-9
        for p in parts:
            assert p.real.min() > 0.0

    def test_convolution_preserves_mass(self):
        k = PositiveBandKernel(size=512, length=1.0, width=1 / 32, half_power=6)
        f = indicator((0.25, 0.5), 512, 1.0)
        g = GridFunction(convolve(f.values, k), f.length)
        assert abs(g.integral().real - 0.25) < 1e-12

    def test_convolve_reuses_kernel_transform(self, monkeypatch):
        k = PositiveBandKernel(size=512, length=1.0, width=1 / 32, half_power=6)
        f = indicator((0.25, 0.5), 512, 1.0)
        # the convolve of an uncached kernel: both transforms per call
        want = np.fft.ifft(np.fft.fft(f.values) * np.fft.fft(k.values)) * f.dx
        seen = []
        fft = np.fft.fft

        def counted(a, *args, **kwargs):
            seen.append(a)
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        got = convolve(f.values, k)
        assert len(seen) == 1 and seen[0] is f.values
        assert np.array_equal(got, want)

    def test_stacked_rows_match_single_rows(self):
        # a stack of rows shares one FFT pair, and each row of the result
        # equals that row convolved alone, bit for bit
        k = PositiveBandKernel(size=512, length=1.0, width=1 / 32, half_power=6)
        rng = np.random.default_rng(17)
        rows = rng.standard_normal((5, 512)) + 1j * rng.standard_normal((5, 512))
        got = convolve(rows, k)
        assert got.shape == (5, 512)
        for row, want in zip(got, rows):
            assert np.array_equal(row, convolve(want, k))


def band_noise(rng, size, band, length=1.0):
    coeffs = np.zeros(size, dtype=complex)
    ks = np.arange(-(size // 2), size // 2)
    live = np.abs(ks / length) <= band
    coeffs[live] = rng.normal(size=live.sum()) + 1j * rng.normal(size=live.sum())
    return GridFunction.from_spectrum(coeffs, length)


def mode(k, size, amp=1.0):
    coeffs = np.zeros(size, dtype=complex)
    coeffs[k + size // 2] = amp
    return GridFunction.from_spectrum(coeffs)


class TestBank:
    K = 8

    def old_qk(self, f, k):
        """Annulus projection as a per-band round trip with a scalar mask."""
        a = np.abs(f.freqs() / f.length)
        band = (a > 2.0 ** (k - 1)) & (a <= 2.0 ** k)
        return f.multiply_spectrum(band.astype(float))

    def old_pk(self, f, k):
        band = np.abs(f.freqs() / f.length) <= 2.0 ** k
        return f.multiply_spectrum(band.astype(float))

    def test_annulus_rows_match_per_band_projections(self):
        rng = np.random.default_rng(50)
        f = band_noise(rng, 1024, 250.0) + mode(400, 1024)
        ks = list(range(-1, self.K + 3))
        bank = f.bank(_annuli(f, ks))
        assert bank.shape == (len(ks), 1024)
        for row, k in zip(bank, ks):
            assert np.array_equal(row, qk(f, k).values)
            assert np.array_equal(row, self.old_qk(f, k).values)

    def test_ball_rows_match_per_band_projections(self):
        rng = np.random.default_rng(51)
        f = band_noise(rng, 1024, 250.0) + mode(400, 1024)
        ks = list(range(-1, self.K + 3))
        bank = f.bank(_balls(f, ks))
        for row, k in zip(bank, ks):
            assert np.array_equal(row, pk(f, k).values)
            assert np.array_equal(row, self.old_pk(f, k).values)

    @pytest.mark.parametrize("size", [512, 1024, 4096])
    def test_smooth_window_rows_match_one_row_round_trips(self, size):
        rng = np.random.default_rng(size)
        f = band_noise(rng, size, size / 5, length=32.0)
        for rows in (1, 2, 3, 17):
            windows = rng.uniform(-1.0, 1.0, (rows, size))
            bank = f.bank(windows)
            assert bank.shape == (rows, size)
            for row, window in zip(bank, windows):
                assert np.array_equal(row, f.multiply_spectrum(window).values)
