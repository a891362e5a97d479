"""The band-limited random input that the tests share.

The draws go to the live frequencies in ascending order, -n/2 first, and
frequency k lands at index k mod n of the FFT-order spectrum, as in
``freqbench.experiments.band_noise``.  Values that the tests freeze hang
on that order.
"""

import numpy as np

from freqbench.grid import GridFunction


def ascending(n):
    """The frequencies of an n-point grid, -n/2, ..., n/2 - 1."""
    return np.arange(-(n // 2), n // 2)


def band_noise(n, band, rng, length=1.0, real=False, norm=None):
    """Standard complex normal coefficients on every |k / length| <= band.

    ``real`` mirrors them to c_{-k} = conj(c_k) with a real c_0, so the
    samples are real.  ``norm``, when given, is the p of the norm that the
    result is scaled to 1 in.
    """
    ks = ascending(n)
    live = ks[np.abs(ks / length) <= band]
    c = np.zeros(n, dtype=complex)
    c[live % n] = rng.normal(size=live.size) + 1j * rng.normal(size=live.size)
    if real:
        pos = live[live > 0]
        c[-pos] = np.conj(c[pos])
        c[0] = c[0].real
    f = GridFunction.from_spectrum(c, length)
    return f if norm is None else f / f.norm(norm)
