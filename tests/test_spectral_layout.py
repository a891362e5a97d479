"""The FFT-order spectrum layout against a centred reference.

Spectra are stored in numpy's FFT order, frequency k at index k mod n.
Before that they were stored centred, over [-n/2, n/2) in ascending
order, one ``fftshift`` away from the FFT.  The functions below keep that
centred code as a reference: every result of the package must match it
bit for bit, alias reports included, because the layout is a pure
permutation and every digest was frozen under the old one.
"""

import numpy as np
import pytest

import freqbench.bilinear as B
import freqbench.experiments as ex
import freqbench.geometry as G
from freqbench.grid import GridFunction, shared_kernel
from freqbench.paraproduct import _annuli

SIZES = (16, 96, 128, 1000, 1024)


# -- the centred reference ----------------------------------------------


def centred_freqs(n):
    return np.arange(-(n // 2), n // 2)


def ref_from_spectrum(c):
    return np.fft.ifft(np.fft.ifftshift(c)) * c.size


def ref_spectrum(values):
    return np.fft.fftshift(np.fft.fft(values)) / values.size


def ref_bank(values, windows):
    rows = np.fft.ifftshift(ref_spectrum(values) * windows, axes=-1)
    out = np.fft.ifft(rows, axis=-1)
    out *= values.size
    return out


def ref_band_noise(n, length, band, rng):
    coeffs = np.zeros(n, dtype=complex)
    ks = centred_freqs(n)
    live = np.abs(ks / length) <= band
    coeffs[live] = rng.normal(size=live.sum()) + 1j * rng.normal(size=live.sum())
    f = GridFunction(ref_from_spectrum(coeffs), length)
    return f / f.norm()


def ref_restricted_input(n, length, spans, width):
    kern = shared_kernel(n, length, width, ex.MOLLIFIER_HALF_POWER)
    kc = np.fft.fftshift(kern.transform) / n
    ks = centred_freqs(n)
    chi = np.zeros(n, dtype=complex)
    for a, b in spans:
        pa = np.exp(-2j * np.pi * ks * (a / length))
        pb = np.exp(-2j * np.pi * ks * (b / length))
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(ks == 0, (b - a) / length,
                            (pa - pb) / (2j * np.pi * np.where(ks == 0, 1, ks)))
        chi += term
    return ref_from_spectrum(length * chi * kc)


def ref_bilinear_apply(cf, cg, symbol):
    """Centred output coefficients and the alias report."""
    n = cf.size
    ks = centred_freqs(n)
    ia = np.nonzero(np.abs(cf) > 0.0)[0]
    ja = np.nonzero(np.abs(cg) > 0.0)[0]
    ki = ks[ia][:, None]
    kj = ks[ja][None, :]
    prod = (cf[ia][:, None] * cg[ja][None, :]) * symbol(ki, kj)
    ksum = ki + kj
    lo = -(n // 2)
    wrapped = (ksum < lo) | (ksum >= lo + n)
    pos = (ksum - lo) % n
    out = (np.bincount(pos.ravel(), weights=prod.real.ravel(), minlength=n)
           + 1j * np.bincount(pos.ravel(), weights=prod.imag.ravel(),
                              minlength=n))
    absprod = np.abs(prod)
    wrapped_mass = float(absprod[wrapped].sum())
    in_band = float(absprod.sum() - wrapped_mass)
    return out, B.AliasReport(in_band, wrapped_mass, int(prod.size))


# -- between the layouts ---------------------------------------------------


def to_fft(c):
    """A centred array, rearranged over ``freqs()``."""
    return c[GridFunction.zeros(c.shape[-1]).freqs() + c.shape[-1] // 2]


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def centred_noise(n, band, rng):
    """Centred coefficients, nonzero exactly on |k| <= band."""
    live = np.abs(centred_freqs(n)) <= band
    c = np.zeros(n, dtype=complex)
    c[live] = rng.normal(size=live.sum()) + 1j * rng.normal(size=live.sum())
    return c


# -- the tests -------------------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
def test_freqs_is_fft_order(n):
    ks = GridFunction.zeros(n).freqs()
    assert np.array_equal(ks, np.fft.fftfreq(n, 1.0 / n).astype(int))
    assert np.array_equal(np.sort(ks), centred_freqs(n))


@pytest.mark.parametrize("n", SIZES)
def test_round_trip_and_bank_match_reference(n):
    rng = np.random.default_rng(n)
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert same_bits(GridFunction.from_spectrum(to_fft(c)).values,
                     ref_from_spectrum(c))
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    f = GridFunction(vals, 2.0)
    assert same_bits(f.spectrum(), to_fft(ref_spectrum(vals)))
    kbits = int(np.log2(n // 2))
    rows = _annuli(f, range(kbits))
    centred = np.empty_like(rows)
    centred[:, f.freqs() + n // 2] = rows
    assert same_bits(f.bank(rows), ref_bank(vals, centred))


@pytest.mark.parametrize("n", SIZES)
def test_band_noise_matches_reference(n):
    for length, band in ((1.0, 3.0), (4.0, n / 16), (1.0, n / 2)):
        seed = np.random.SeedSequence((n, int(band)))
        got = ex.band_noise(n, length, band, np.random.default_rng(seed))
        want = ref_band_noise(n, length, band, np.random.default_rng(seed))
        assert same_bits(got.values, want.values)


@pytest.mark.parametrize("n", SIZES)
def test_restricted_input_matches_reference(n):
    spans = [(0.3, 1.1), (2.0, 2.125), (3.5, 3.9)]
    width = 64.0 / n
    got = ex.restricted_input(n, 4.0, spans, width)
    assert same_bits(got.values, ref_restricted_input(n, 4.0, spans, width))


def symbols(n):
    return {
        "unit": B.unit_symbol,
        "sign": B.halfplane_sign_symbol(2.0),
        "pv": B.pv_cotangent_symbol(1.0, 4 * n + 2),
        "region": B.region_symbol(G.LacunaryPolygon(8).contains, n, 4.0),
    }


@pytest.mark.parametrize("kind", ["unit", "sign", "pv", "region"])
@pytest.mark.parametrize("n", [16, 96, 128, 1000])
def test_bilinear_apply_matches_reference(n, kind):
    # band-limited pairs (skipped zeros, no wrap) and dense pairs (every
    # mode, heavy wrap); the dense sums are where the order of the
    # bincount accumulation shows in the last bits
    symbol = symbols(n)[kind]
    rng = np.random.default_rng(n)
    pairs = [(centred_noise(n, n // 8, rng), centred_noise(n, n // 5, rng)),
             (centred_noise(n, n, rng), centred_noise(n, n, rng))]
    for cf, cg in pairs:
        f = GridFunction.from_spectrum(to_fft(cf))
        g = GridFunction.from_spectrum(to_fft(cg))
        out, report = B.bilinear_apply(f, g, symbol)
        want, want_report = ref_bilinear_apply(cf, cg, symbol)
        assert report == want_report
        assert same_bits(out.spectrum(), to_fft(want))
        assert same_bits(out.values, ref_from_spectrum(want))
