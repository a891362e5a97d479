"""Periodic sampled functions with exact spectral bookkeeping.

Everything downstream runs on a uniformly sampled periodic interval
[0, length): complex samples, a centered integer spectrum one shifted FFT
away, and a small set of discrete operators whose exactness the rest of
the package leans on.  The design rule here is that any statement a test
wants to make "exactly" (mass of an indicator, a partition of unity
summing to one) must be exact in floating point, not merely accurate, so
endpoints and widths are kept on binary-friendly lattices by the callers.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "GridFunction",
    "indicator",
    "maximal_average",
    "smooth_ramp",
    "PositiveBandKernel",
    "shared_kernel",
    "convolve",
]


class GridFunction:
    """Complex function on a periodic interval, known by its samples.

    The domain is [0, length), sampled at ``size`` equally spaced points
    x_j = j * length / size.  The spectrum is indexed by integer
    frequencies k in [-size/2, size/2); coefficient c_k multiplies
    exp(2*pi*i*k*x/length), so a round trip through the spectrum is a
    shifted FFT and its inverse with no phase factor.
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
        """Build from centered coefficients aligned with ``freqs()``."""
        c = np.asarray(coeffs, dtype=complex)
        vals = np.fft.ifft(np.fft.ifftshift(c)) * c.size
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
        """Sample points."""
        return np.arange(self.size) * self.dx

    def freqs(self):
        n = self.size
        return np.arange(-(n // 2), n // 2)

    def same_grid(self, other):
        return self.size == other.size and self.length == other.length

    # -- spectrum ---------------------------------------------------------

    def spectrum(self):
        """Centered coefficients, aligned with ``freqs()``.  Cached."""
        if self._spec is None:
            self._spec = np.fft.fftshift(np.fft.fft(self.values)) / self.size
        return self._spec

    def bank(self, windows):
        """Samples under each row of the (rows, size) stack ``windows`` over
        ``freqs()``, from one batched inverse FFT; row r equals
        ``multiply_spectrum(windows[r]).values`` bit for bit."""
        rows = np.fft.ifftshift(self.spectrum() * windows, axes=-1)
        out = np.fft.ifft(rows, axis=-1)
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

    def __repr__(self):
        return "GridFunction(size=%d, length=%g)" % (self.size, self.length)


def indicator(intervals, size, length=1.0):
    """Indicator of a union of half-open intervals [a, b), sampled.

    Half-open on purpose: with endpoints on the sample lattice the grid
    mass of [a, b) is exactly b - a.
    """
    if not hasattr(intervals[0], "__len__"):
        intervals = [intervals]
    g = GridFunction.zeros(size, length=length)
    xs = g.x
    mask = np.zeros(size, dtype=bool)
    for a, b in intervals:
        mask |= (xs >= a) & (xs < b)
    g.values[mask] = 1.0
    return g


def maximal_average(f):
    """Exact running maximum of |f| averages.

    At each sample point x the value is the supremum of
    (1/|I|) * integral_I |f| over all closed intervals I = [x_a, x_b]
    with endpoints on the sample lattice, x_a <= x <= x_b, within the
    domain (no wraparound).  Exact over that family in O(size^2), as a
    sweep of the right end q down from the last sample: ``best[p]`` holds
    the largest average over [x_p, x_q'] for any q' >= q, and the value at
    x_q is the largest of ``best[:q + 1]``.
    """
    n = f.size
    prefix = np.concatenate([[0.0], np.cumsum(np.abs(f.values))]) * f.dx
    widths = np.arange(n, 0, -1) * f.dx
    best = (prefix[n] - prefix[:n]) / widths
    avgs, out = np.empty(n), np.empty(n)
    for q in range(n - 1, -1, -1):
        np.subtract(prefix[q], prefix[:q], out=avgs[:q])
        np.divide(avgs[:q], widths[n - q :], out=avgs[:q])
        np.maximum(best[:q], avgs[:q], out=best[:q])
        out[q] = best[: q + 1].max()
    return GridFunction(out.astype(complex), f.length)


# -- smooth ramp ----------------------------------------------------------


def smooth_ramp(u):
    """C-infinity ramp: 0 for u <= 0, 1 for u >= 1, strictly increasing between."""
    u = np.asarray(u, dtype=float)
    lo = np.zeros_like(u)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
        r = np.where(a + b > 0, a / (a + b), lo)
    r[u <= 0] = 0.0
    r[u >= 1] = 1.0
    return r


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

    ``transform`` is the unshifted FFT of ``values``, taken once here so
    that every :func:`convolve` against the kernel reuses it.
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
