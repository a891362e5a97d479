"""Periodic sampled functions with exact spectral bookkeeping.

Everything downstream runs on a uniformly sampled periodic interval
[0, length): complex samples, an integer spectrum in FFT order one FFT
away, and a small set of discrete operators whose exactness the rest of
the package leans on.  The design rule here is that any statement a test
wants to make "exactly" (mass of an indicator, a partition of unity
summing to one) must be exact in floating point, not merely accurate, so
endpoints and widths are kept on binary-friendly lattices by the callers.

A grid's sample points and frequencies are built once per (size, length)
by :func:`grid_lattice` and shared read-only by every caller on it.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "GridFunction",
    "grid_lattice",
    "indicator",
    "maximal_average",
    "smooth_ramp",
    "PositiveBandKernel",
    "shared_kernel",
    "convolve",
]


@functools.lru_cache(maxsize=16)
def grid_lattice(size: int, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sample points j * length / size and FFT-order frequencies
    of the grid of ``size`` samples on [0, length), one pair per grid."""
    x = np.arange(size) * (length / size)
    k = (np.arange(size) + size // 2) % size - size // 2
    x.flags.writeable = False
    k.flags.writeable = False
    return x, k


class GridFunction:
    """Complex function on a periodic interval, known by its samples.

    The domain is [0, length), sampled at ``size`` equally spaced points
    x_j = j * length / size.  The spectrum holds integer frequencies k in
    [-size/2, size/2) in FFT order, k at index k mod size (see ``freqs``);
    c_k multiplies exp(2*pi*i*k*x/length), so a round trip through the
    spectrum is an FFT and its inverse with no shift or phase factor.
    """

    __slots__ = ("values", "length", "_spec")

    def __init__(self, values, length=1.0):
        vals = np.asarray(values, dtype=complex)
        if vals.ndim != 1 or vals.size % 2:
            raise ValueError("need a 1-d sample array of even length")
        self.values = vals
        self.length = float(length)
        self._spec = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_spectrum(cls, coeffs, length=1.0):
        """Build from FFT-order coefficients, aligned with ``freqs()``."""
        c = np.asarray(coeffs, dtype=complex)
        vals = np.fft.ifft(c) * c.size
        out = cls(vals, length=length)
        out._spec = c.copy()
        return out

    @classmethod
    def zeros(cls, size, length=1.0):
        return cls(np.zeros(size, dtype=complex), length=length)

    # -- basic geometry ---------------------------------------------------

    @property
    def size(self):
        return self.values.size

    @property
    def dx(self):
        return self.length / self.values.size

    @property
    def x(self):
        """Sample points, read-only and shared by the grid's functions."""
        return grid_lattice(self.size, self.length)[0]

    def freqs(self):
        """Frequency of each spectrum index: 0, ..., n/2 - 1, -n/2, ..., -1;
        read-only and shared by the grid's functions."""
        return grid_lattice(self.size, self.length)[1]

    def same_grid(self, other):
        return self.size == other.size and self.length == other.length

    # -- spectrum ---------------------------------------------------------

    def spectrum(self):
        """FFT-order coefficients, aligned with ``freqs()``.  Cached."""
        if self._spec is None:
            self._spec = np.fft.fft(self.values) / self.size
        return self._spec

    def bank(self, windows):
        """Samples under each row of the (rows, size) stack ``windows`` over
        ``freqs()`` (FFT order), from one batched inverse FFT; row r equals
        ``multiply_spectrum(windows[r]).values`` bit for bit."""
        out = np.fft.ifft(self.spectrum() * windows, axis=-1)
        out *= self.size
        return out

    def multiply_spectrum(self, window):
        """Pointwise spectral multiplier, the one-row case of :meth:`bank`;
        ``window`` is an array over ``freqs()``."""
        w = np.asarray(window)
        if w.shape != (self.size,):
            raise ValueError("window shape mismatch")
        return GridFunction.from_spectrum(self.spectrum() * w, self.length)

    # -- integrals and norms ----------------------------------------------

    def integral(self):
        total = self.values.sum()  # parts apart: inf * 0j would be NaN
        return np.complex128(total.real * self.dx, total.imag * self.dx)

    def norm(self, p=2):
        a = np.abs(self.values)
        if np.isinf(p):
            return float(a.max())
        return float((np.sum(a**p) * self.dx) ** (1.0 / p))

    # -- arithmetic --------------------------------------------------------

    def _binop(self, other, op):
        if isinstance(other, GridFunction):
            if not self.same_grid(other):
                raise ValueError("grid mismatch")
            return GridFunction(op(self.values, other.values), self.length)
        return GridFunction(op(self.values, other), self.length)

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    def __truediv__(self, other):
        return self._binop(other, np.divide)


def indicator(intervals, size, length=1.0):
    """Indicator of a union of half-open intervals [a, b), sampled.

    Half-open on purpose: with endpoints on the sample lattice the grid
    mass of [a, b) is exactly b - a.
    """
    g = GridFunction.zeros(size, length=length)
    xs = g.x
    mask = np.zeros(size, dtype=bool)
    for a, b in intervals:
        mask |= (xs >= a) & (xs < b)
    g.values[mask] = 1.0
    return g


def maximal_average(f):
    """Exact running maximum of |f| averages.

    At each sample point x_q the value is the largest average of |f| over
    a lattice interval [x_p, x_r] (cells p..r-1), p <= q <= r, within the
    domain.  Per nonzero cell s, the reversed running max of the row
    (s, r > s) serves each q > s and the running max of the column
    (p <= s, s + 1) each q <= s: O(size * nonzeros), a few times an
    all-pairs sweep on a dense input (the drivers pass sparse ones).
    Bit for bit that sweep's maximum: each average is the same float
    (prefix[r] - prefix[p]) / widths[r - p], and a max ignores order.  A
    zero end cell adds +0.0 to the cumsum, so dropping it keeps the
    numerator and narrows the width; rounding is monotone, so the average
    stays as large.  Dropping zero left ends before x_q, then zero right
    ends after it, leaves a row or a column pair, or (q, q + 1) on a zero
    cell, whose 0 is where ``out`` starts.
    """
    n = f.size
    prefix = np.concatenate([[0.0], np.cumsum(np.abs(f.values))]) * f.dx
    widths = np.arange(n + 1) * f.dx
    out, buf = np.zeros(n), np.empty(n)
    for s in np.flatnonzero(f.values).tolist():
        row = buf[: n - s]
        np.subtract(prefix[s + 1 :], prefix[s], out=row)
        np.divide(row, widths[1 : n - s + 1], out=row)
        np.maximum.accumulate(row[::-1], out=row[::-1])
        np.maximum(out[s + 1 :], row[: n - s - 1], out=out[s + 1 :])
        col = buf[: s + 1]
        np.subtract(prefix[s + 1], prefix[: s + 1], out=col)
        np.divide(col, widths[s + 1 : 0 : -1], out=col)
        np.maximum.accumulate(col, out=col)
        np.maximum(out[: s + 1], col, out=out[: s + 1])
    return GridFunction(out.astype(complex), f.length)


# -- smooth ramp ----------------------------------------------------------


def smooth_ramp(u):
    """C-infinity ramp: 0 for u <= 0, 1 for u >= 1, strictly increasing between."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
        return np.where(a + b > 0, a / (a + b), 0.0)


# -- positive band-limited kernels ----------------------------------------


class PositiveBandKernel:
    """Strictly positive even kernel with compactly supported spectrum.

    A single sinc power is band-limited and decays polynomially but
    vanishes on a lattice; the fix is a pair at incommensurable widths,

        kern(t) = sinc(t/w)^(2m) + sinc(t/(w*sqrt(2)))^(2m),

    whose zero sets are disjoint, normalized to unit grid mass.  Spectrum
    radius is m*length/w integer frequencies; construction refuses
    parameters that would alias.  The polynomial envelope
    (1+|t|/w)^(-2m) holds two-sidedly on a bounded window only; near far
    sinc zeros the lower constant genuinely degrades, which is fine for
    every use the package makes of it.

    ``transform`` is the FFT of ``values``, laid out as ``freqs()``; every
    :func:`convolve` against the kernel reuses it.
    """

    __slots__ = ("size", "length", "values", "transform")

    def __init__(self, size, length, width, half_power):
        m = int(half_power)
        if m < 1:
            raise ValueError("half_power must be >= 1")
        if not width > 0:
            raise ValueError(f"kernel width must be positive, got {width:g}")
        radius = m * length / width
        if radius >= size / 2:
            raise ValueError(
                "kernel would alias: spectrum radius %.1f >= band edge %d"
                % (radius, size // 2)
            )
        self.size = int(size)
        self.length = float(length)
        dx = self.length / self.size
        d = np.arange(self.size)
        disp = np.where(d <= self.size // 2, d, d - self.size) * dx
        vals = np.sinc(disp / width) ** (2 * m) + np.sinc(disp / (width * np.sqrt(2.0))) ** (
            2 * m
        )
        mass = vals.sum() * dx
        self.values = vals / mass
        self.transform = np.fft.fft(self.values)


@functools.lru_cache(maxsize=64)
def shared_kernel(size: int, length: float, width: float,
                  half_power: int) -> PositiveBandKernel:
    """One read-only kernel per parameter set, shared by every caller."""
    kern = PositiveBandKernel(size, length, width, half_power)
    kern.values.flags.writeable = False
    kern.transform.flags.writeable = False
    return kern


def convolve(rows, kernel):
    """Circular convolution of a row of samples, or of each row of a
    stack in one batched FFT pair, with a PositiveBandKernel."""
    rows = np.asarray(rows)
    if rows.shape[-1] != kernel.size:
        raise ValueError("kernel built for a different grid")
    out = np.fft.ifft(np.fft.fft(rows, axis=-1) * kernel.transform, axis=-1)
    out *= kernel.length / kernel.size
    return out
