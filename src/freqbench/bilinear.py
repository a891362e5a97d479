"""Bilinear frequency multipliers on the periodic grid.

An operator here takes two :class:`~freqbench.grid.GridFunction` inputs
and produces a third by weighting every pair of input modes with a
symbol value and depositing the product at the sum frequency:

    out_hat(k) = sum over ki + kj = k of  m(ki, kj) f_hat(ki) g_hat(kj).

Symbols are vectorized callables ``m(ki, kj)`` on integer frequency
meshes.  The module provides the constant symbol (pointwise product),
half-plane sign symbols (directional two-input Hilbert transforms), a
principal-value quadrature twin used as an independent cross-check, and
cutoffs to a planar region such as the lacunary polygon.

Sum frequencies that fall outside the representable band wrap modulo the
grid size, exactly as the discrete convolution theorem dictates; every
apply reports how much coefficient mass wrapped so band-limited
experiments can insist on none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction

__all__ = [
    "AliasReport",
    "bilinear_apply",
    "unit_symbol",
    "halfplane_sign_symbol",
    "pv_cotangent_symbol",
    "region_symbol",
]


@dataclass(frozen=True)
class AliasReport:
    """Accounting of coefficient mass moved by one bilinear apply."""

    in_band_mass: float
    wrapped_mass: float
    pairs: int

    @property
    def wrapped_fraction(self) -> float:
        """Share of the apply's pair mass that wrapped; NaN if a mass is."""
        total = self.in_band_mass + self.wrapped_mass
        return self.wrapped_mass / total if total != 0 else 0.0


def bilinear_apply(f: GridFunction, g: GridFunction, symbol):
    """Apply the bilinear multiplier ``symbol`` to the pair (f, g).

    ``symbol`` is a callable taking two integer arrays (broadcast mesh of
    input frequencies) and returning the symbol values.  Modes whose
    coefficient is exactly zero are skipped, which makes exactly
    band-limited inputs cheap without changing any other.

    Returns ``(out, report)`` where ``out`` is a GridFunction on the same
    grid and ``report`` an :class:`AliasReport`.  Output frequencies
    beyond the band wrap modulo the grid size and their mass is tallied
    in the report.
    """
    if not f.same_grid(g):
        raise ValueError("grid mismatch")
    n = f.size
    ks = f.freqs()
    cf, cg = f.spectrum(), g.spectrum()
    # up[j] = (j - n/2) mod n indexes the modes in ascending frequency,
    # which fixes bincount's order; for even n it is ks[j] + n/2
    up = ks + n // 2
    ia = up[np.abs(cf[up]) > 0.0]
    ja = up[np.abs(cg[up]) > 0.0]
    out = np.zeros(n, dtype=complex)
    if ia.size == 0 or ja.size == 0:
        return (GridFunction.from_spectrum(out, f.length),
                AliasReport(0.0, 0.0, 0))
    ki = ks[ia][:, None]
    kj = ks[ja][None, :]
    prod = (cf[ia][:, None] * cg[ja][None, :]) * symbol(ki, kj)
    ksum = ki + kj
    wrapped = (ksum < -(n // 2)) | (ksum >= n // 2)
    pos = ksum % n
    out = (np.bincount(pos.ravel(), weights=prod.real.ravel(), minlength=n)
           + 1j * np.bincount(pos.ravel(), weights=prod.imag.ravel(),
                              minlength=n))
    absprod = np.abs(prod)
    wrapped_mass = float(absprod[wrapped].sum())
    in_band = float(absprod.sum() - wrapped_mass)
    report = AliasReport(in_band, wrapped_mass, int(prod.size))
    return GridFunction.from_spectrum(out, f.length), report


def unit_symbol(ki, kj):
    """Constant symbol 1: the operator is the pointwise product."""
    return np.ones(np.broadcast(ki, kj).shape)


def halfplane_sign_symbol(slope):
    """i*pi*sign(slope*ki - kj): jump across the line kj = slope*ki.

    The zero set of the sign (the line itself) genuinely maps to 0, so
    mode pairs sitting on the line are annihilated.
    """
    def m(ki, kj):
        return 1j * np.pi * np.sign(slope * ki - kj)
    return m


def pv_cotangent_symbol(slope, nodes: int):
    """Quadrature twin of :func:`halfplane_sign_symbol`.

    Time-domain form of the same operator: a principal-value integral of
    f(x + slope*t) g(x - t) against the periodized kernel pi*cot(pi*t),
    discretized on ``nodes`` symmetric midpoints of one period.  Its
    value at a mode pair depends only on theta = slope*ki - kj:

        S(theta) = (2i/nodes) * sum_j pi*cot(pi t_j) sin(2 pi theta t_j)

    For integer theta with theta mod nodes != 0 this equals
    i*pi*sign(theta) exactly (the integrand is a trig polynomial of
    degree |theta|, integrated exactly by the midpoint rule), so at
    integer slopes the twin certifies the sign symbol to roundoff.  At
    non-integer theta the quadrature converges to the periodized kernel's
    own symbol instead, which differs from the sign at order 1e-3, so the
    twin is certified, and accepted, at integer offsets only: a
    non-integer theta raises ValueError.  Shares no code with the sign
    symbol.

    Evaluation: t_j = (2j + 1)/(2 nodes), so placing the folded weights
    w_j = (2/nodes) pi cot(pi t_j) at the odd slots 2j + 1 of a length
    2*nodes array u makes the sum at integer theta a DFT entry,
    S(theta) = -i Im U[theta mod 2 nodes], with no phase factor.  The
    real transform of u is taken once per factory call (U[2 nodes - m]
    is conj U[m]), so every theta is a lookup.
    """
    half = nodes // 2
    t = (np.arange(half) + 0.5) / nodes
    w = (2.0 / nodes) * np.pi / np.tan(np.pi * t)
    u = np.zeros(2 * nodes)
    u[1:2 * half:2] = w
    spec = np.fft.rfft(u)

    def m(ki, kj):
        theta = np.asarray(slope * ki - kj)
        whole = np.round(theta)
        if not np.array_equal(whole, theta):
            raise ValueError("pv_cotangent_symbol is certified at integer "
                             "offsets slope*ki - kj only")
        k = whole.astype(np.int64) % (2 * nodes)
        upper = k > nodes
        im = spec[np.where(upper, 2 * nodes - k, k)].imag
        return 1j * np.where(upper, im, -im)

    return m


def region_symbol(contains, size, scale: float):
    """Indicator symbol of a planar region.

    ``contains`` maps an (n, 2) point array to booleans.  Integer mode
    pairs land at (scale*ki/size, scale*kj/size); at scale 4 the open unit
    disk around the origin corresponds to the middle half-band of the grid.
    Every mode pair of a ``size``-point grid is tested in one batch when
    the symbol is made; every call is a table lookup, so ``ki`` and ``kj``
    must be modes of that grid.
    """
    lo = -(size // 2)
    ks = np.arange(lo, lo + size) * (scale / size)
    pts = np.stack([np.repeat(ks, size), np.tile(ks, size)], axis=1)
    table = contains(pts).astype(float).reshape(size, size)

    def m(ki, kj):
        i, j = np.asarray(ki) - lo, np.asarray(kj) - lo
        if min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= size:
            raise ValueError(f"mode outside the {size}-point grid")
        return table[i, j]
    return m
