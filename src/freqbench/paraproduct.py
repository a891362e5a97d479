"""Dyadic band projections and a quadratically coupled paraproduct.

Frequencies are split into dyadic annuli ``(2**(k-1), 2**k]`` (both signs)
and balls ``|xi| <= 2**k``.  The paraproduct pairs an annulus of the first
input at twice the depth with a ball of the second input: counting depth
``d`` downward from a band limit ``2**kbits``, the operator is

    sum_d  annulus[depth 2d](f) * ball[depth d](g),

so the surviving piece of ``f`` is always far finer than the ball of ``g``
it multiplies.  That scale gap is what drives the six-term telescoping
identity: the pairing against a third function splits into three forward
terms and three diagonal terms in which only adjacent annuli of the second
and third input interact.  The identity is exact on the mode lattice once
the diagonal depth ranges are started at the right offsets (two, one and
three below the coupling depth); starting all three one step down, as a
naive swap of summation order suggests, leaves a macroscopic defect, which
:func:`telescoping_decompose` reports beside the exact residual as
``naive_residual``, evaluated on the same bands.  The second and third
inputs enter only at the coupling depths; deeper bands add exact zeros.

A maximal martingale transform closes the toolkit; it acts band-by-band
on the same annuli.

:func:`pp_apply`, :func:`max_martingale` and :func:`telescoping_decompose`
take every band of one input from one
:meth:`freqbench.grid.GridFunction.bank`, a single batched inverse FFT over
the stack of band masks, which is built once per grid and band list and
shared read-only.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import GridFunction, grid_lattice

# diagonal depth offsets that make the telescoping identity lattice-exact,
# and the naive offsets obtained by swapping summation order carelessly
EXACT_OFFSETS = (2, 1, 3)
NAIVE_OFFSETS = (1, 1, 2)


@functools.lru_cache(maxsize=8)
def _masks(size: int, length: float, ks: tuple, ball: bool) -> np.ndarray:
    """Read-only (len(ks), size) boolean masks over one grid's ``freqs()``,
    built once per grid and ``ks``: balls |xi| <= 2**k, or annuli.  A
    spectrum times a mask casts it to the complex 0 and 1 that float 0/1
    masks cast to, so the products are the same bit for bit."""
    a = np.abs(grid_lattice(size, length)[1] / length)
    k = np.asarray(ks, dtype=float)[:, None]
    inside = a <= 2.0 ** k
    if not ball:
        inside &= a > 2.0 ** (k - 1)
    inside.flags.writeable = False
    return inside


def _annuli(f: GridFunction, ks) -> np.ndarray:
    """(len(ks), size) masks of 2**(k-1) < |xi| <= 2**k over ``freqs()``."""
    return _masks(f.size, f.length, tuple(map(float, ks)), False)


def _balls(f: GridFunction, ks) -> np.ndarray:
    """(len(ks), size) masks of |xi| <= 2**k over ``freqs()``."""
    return _masks(f.size, f.length, tuple(map(float, ks)), True)


def qk(f: GridFunction, k: int) -> GridFunction:
    """Annulus projection onto 2**(k-1) < |xi| <= 2**k."""
    return f.multiply_spectrum(_annuli(f, [k])[0])


def pk(f: GridFunction, k: int) -> GridFunction:
    """Ball projection onto |xi| <= 2**k."""
    return f.multiply_spectrum(_balls(f, [k])[0])


def _depth_range(kbits: int) -> np.ndarray:
    return np.arange(0, (kbits - 1) // 2 + 1)


def pp_apply(f: GridFunction, g: GridFunction, kbits: int) -> GridFunction:
    """Quadratically coupled paraproduct of two functions.

    Sums annulus[depth 2d](f) * ball[depth d](g) over all depths d >= 0
    for which the doubled depth still names a band inside the limit.
    """
    depths = _depth_range(kbits)
    pieces = (f.bank(_annuli(f, kbits - 2 * depths))
              * g.bank(_balls(g, kbits - depths)))
    out = np.zeros(f.size, dtype=complex)
    for piece in pieces:
        out = out + piece
    return GridFunction(out, f.length)


def max_martingale(a, psi: GridFunction, kmax: int) -> GridFunction:
    """sup over l of |sum_{k > l} a_k * annulus_k(psi)|, pointwise.

    ``a`` is indexed by the band exponent k and must cover 0..kmax.
    """
    coeffs = np.asarray(a, dtype=float)
    if coeffs.size < kmax + 1:
        raise ValueError("coefficient sequence shorter than the band range")
    bands = psi.bank(_annuli(psi, range(kmax + 1)))
    acc = np.zeros(psi.size, dtype=complex)
    best = np.zeros(psi.size)
    # a loop, not a band-axis cumsum: numpy's strided cumsum is slower here
    for k in range(kmax, -1, -1):
        acc = acc + coeffs[k] * bands[k]
        np.maximum(best, np.abs(acc), out=best)
    return GridFunction(best.astype(complex), psi.length)


def _diagonal_terms(dg: np.ndarray, dh: np.ndarray, fsum, offsets,
                    dx: float) -> tuple[complex, complex, complex]:
    """The three diagonal terms, started ``offsets`` below each depth and
    stopped where ``fsum[el + offset]`` becomes the zero row."""
    o_same, o_down, o_up = offsets
    reach = len(fsum) - 1
    t_same = t_down = t_up = 0.0j
    for el in range(reach - o_same):
        t_same += complex(np.sum(dg[el] * dh[el] * fsum[el + o_same]) * dx)
    for el in range(1, reach - o_down):
        t_down += complex(np.sum(dg[el] * dh[el - 1] * fsum[el + o_down]) * dx)
    for el in range(reach - o_up):
        t_up += complex(np.sum(dg[el] * dh[el + 1] * fsum[el + o_up]) * dx)
    return t_same, t_down, t_up


def telescoping_decompose(f: GridFunction, g: GridFunction, h: GridFunction,
                          kbits: int) -> dict:
    """Split the paraproduct pairing into its six telescoping terms.

    Inputs are projected onto the ball at the band limit first (flag
    ``truncated``: a sample moved by over 1e-13 times the input's
    largest).  Returns the three forward terms (full product,
    shallower-band swap of the second input, shallower-band swap of the
    third), the three diagonal terms (third-input annulus at the same,
    one-coarser and one-finer depth than the second's, started at
    :data:`EXACT_OFFSETS`), the direct pairing, their difference
    ``residual``, and ``scale`` = product of the three l2 norms.  The
    residual is pure float roundoff.  ``naive_residual`` is the same
    difference with the diagonal terms started at :data:`NAIVE_OFFSETS`,
    on the same bands: the macroscopic defect of the careless range swap.
    ``g`` and ``h`` are banked only at the coupling depths: a deeper
    annulus meets only empty suffix sums of ``f``, an exact zero.
    """

    def clip(u: GridFunction) -> tuple[GridFunction, bool]:
        v = pk(u, kbits)
        cut = np.abs((u - v).values).max()
        return v, bool(cut > 1e-13 * np.abs(u.values).max())

    f0, tf = clip(f)
    g0, tg = clip(g)
    h0, th = clip(h)

    depths = _depth_range(kbits)
    steps = kbits - depths
    df = f0.bank(_annuli(f0, kbits - 2 * depths))
    dg = g0.bank(_annuli(g0, steps))
    dh = h0.bank(_annuli(h0, steps))
    dx = f0.dx

    # suffix sums of the doubled-depth annuli of f: fsum[m] = sum_{d >= m}
    zero = np.zeros(f0.size, dtype=complex)
    fsum = [zero] * (len(df) + 1)
    # a loop, not a reversed cumsum: numpy's strided cumsum is slower here
    for d in range(len(df) - 1, -1, -1):
        fsum[d] = fsum[d + 1] + df[d]

    gv, hv = g0.values, h0.values
    t_full = complex(np.sum(fsum[0] * gv * hv) * dx)

    # prefix sums over depths of g and h: gpre[d] = sum_{e < d} dg[e]
    gpre = np.cumsum(np.vstack([zero, dg[:-1]]), axis=0)
    hpre = np.cumsum(np.vstack([zero, dh[:-1]]), axis=0)
    t_swap_g = 0.0j
    t_swap_h = 0.0j
    for d in depths:
        t_swap_g -= complex(np.sum(df[d] * gpre[d] * hv) * dx)
        t_swap_h -= complex(np.sum(df[d] * hpre[max(d - 1, 0)] * gv) * dx)

    pairing = complex(np.sum(pp_apply(f0, g0, kbits).values * hv) * dx)
    forward = t_full + t_swap_g + t_swap_h
    t_same, t_down, t_up = _diagonal_terms(dg, dh, fsum, EXACT_OFFSETS, dx)
    naive = sum(_diagonal_terms(dg, dh, fsum, NAIVE_OFFSETS, dx), forward)
    return {
        "forward": t_full,
        "swap_g": t_swap_g,
        "swap_h": t_swap_h,
        "diag_same": t_same,
        "diag_down": t_down,
        "diag_up": t_up,
        "pairing": pairing,
        "residual": abs(pairing - (forward + t_same + t_down + t_up)),
        "naive_residual": abs(pairing - naive),
        "scale": f0.norm() * g0.norm() * h0.norm(),
        "truncated": tf or tg or th,
    }
