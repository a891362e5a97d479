"""Size functionals for tile families on a sampled circle.

A tile couples to a function through two pieces of data: a frequency
interval (one component of its cube, pushed through the slope map) and a
spatial interval.  The *tile seminorm* measures how much of the function a
multiplier confined to that frequency interval can concentrate on the tile,
weighted by a polynomial tail factor pinned to the spatial interval.  Tree
and collection sizes aggregate the seminorms, and everything downstream
(forest thresholds, exceptional layers, the model sum) consumes those.

Multiplier suprema are taken over a small concrete family rather than an
abstract class: saturating odd profiles times compact bump envelopes when
the symbol must vanish at a marked frequency, plain bumps otherwise.  The
pointwise bound |m| <= min(1, |xi - marked| / width) holds exactly for the
saturating profiles, so no a posteriori constraint check is needed.

The module is deliberately grid-first: all operators act through centered
spectra of :class:`freqbench.grid.GridFunction`, and every interval is
assumed to keep its dilated support inside the grid's frequency band (see
:func:`freqbench.timefreq.operator_band_edge`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grid import GridFunction, PositiveBandKernel, convolve, maximal_average
from .timefreq import (
    Family,
    Iv,
    TopData,
    Tree,
    candidate_tops,
    operator_intervals,
    tree_members,
)

LEVEL = 0.95            # sup of every multiplier of :func:`multiplier_family`
MIN_WIDTH_CELLS = 4.0   # floor of the cutoff mollifier's width, in cells
MAX_LAYER = 12          # deepest 4**l-fold dilate :func:`layer_split` tries
MODEL_SUPPORT = 1.2     # support factor of the model sum's projections


def _shear_factor(i: int, slope: float) -> float:
    return (1.0, slope, -(1.0 + slope))[i]


def top_frequency(top: TopData, i: int, slope: float) -> float:
    """Marked frequency of component i for a tree top."""
    return _shear_factor(i, slope) * top.zeta


def top_interval(top: TopData, i: int, slope: float, circle: float) -> Iv:
    """Component interval attached to a tree top.

    Width is (1, slope, 1+slope)[i] over the top length, centered at the
    marked frequency; tops longer than the circle saturate at the circle
    length.
    """
    length = min(top.interval.length, circle)
    w = abs(_shear_factor(i, slope)) / length
    c = top_frequency(top, i, slope)
    return Iv(c - 0.5 * w, c + 0.5 * w)


# ---------------------------------------------------------------------------
# weights and multiplier families

def tail_weight(f: GridFunction, interval: Iv, power: int) -> np.ndarray:
    """Periodized polynomial tail weight pinned to the interval.

    Uses the smooth form (1 + (dist/length)^2)^(-power/2), equivalent to
    the kinked (1 + dist/length)^(-power) within a factor 2^(power/2) but
    infinitely differentiable away from the wrap seam, so grid quadrature
    of weighted norms converges fast and refining the grid moves measured
    sizes by far less than any dyadic threshold margin.
    """
    length = f.length
    off = np.mod(f.x - interval.center + 0.5 * length, length) - 0.5 * length
    u = off / interval.length
    return (1.0 + u * u) ** (-0.5 * float(power))


def _bump(u: np.ndarray, order: int) -> np.ndarray:
    return np.clip(1.0 - u * u, 0.0, None) ** order


def multiplier_family(f: GridFunction, omega: Iv, marked: float | None,
                      order: int, support_factor: float) -> list[np.ndarray]:
    """Concrete symbols over the grid modes, supported on the dilated omega.

    With a marked frequency the symbols carry a saturating odd factor, so
    |m(xi)| <= LEVEL * min(1, |xi - marked| / |omega|) pointwise; without
    one they are plain bump envelopes bounded by :data:`LEVEL`.
    """
    xs = f.freqs() / f.length
    half = 0.5 * support_factor * omega.length
    u = (xs - omega.center) / half
    env = _bump(u, order)
    if marked is None:
        return [LEVEL * env,
                LEVEL * _bump(u, order + 2),
                LEVEL * env * (1.0 - 0.5 * _bump(u, 2 * order))]
    t = (xs - marked) / omega.length
    return [LEVEL * env * np.tanh(t),
            LEVEL * env * (t / np.sqrt(1.0 + t * t)),
            LEVEL * _bump(u, order + 2) * np.tanh(0.5 * t)]


# ---------------------------------------------------------------------------
# seminorms and sizes

def _max_or_nan(values) -> float:
    """Largest of the nonnegative ``values``, 0.0 when there are none and
    NaN when one is NaN; the builtin ``max`` would drop a NaN, and a NaN
    input would read as size zero."""
    best = 0.0
    for val in values:
        if val != val:
            return val
        if val > best:
            best = val
    return best


class TreeSizer:
    """Size functionals of one function over one tile family.

    Trees are index arrays into ``tiles``.  Two caches serve the threshold
    sweeps, where the same tile reappears in many candidate trees:

    - tile seminorms, by (tile index, component, marked frequency);
    - filtered powers |f * m|^2 for the three symbols of
      :func:`multiplier_family`, by (frequency window, marked frequency).
      The filtered function does not depend on the tile, so every tile and
      top sharing a window shares one spectral round trip per symbol.
    """

    def __init__(self, f: GridFunction, tiles: Family, slope: float,
                 order: int, support_factor: float, weight_power: int):
        self.f = f
        self.tiles = tiles
        self.slope = slope
        self.order = order
        self.support_factor = support_factor
        self.weight_power = weight_power
        self._omega = operator_intervals(tiles.side, tiles.centers, slope)
        self._tile_cache: dict = {}
        self._top_cache: dict = {}
        self._power_cache: dict = {}

    def tile_seminorm(self, j: int, i: int, marked: float) -> float:
        key = (j, i, marked)
        got = self._tile_cache.get(key)
        if got is not None:
            return got
        omega = Iv(*self._omega[self.tiles.cube[j], i].tolist())
        best = self._weighted_max(self.tiles.interval(j), omega, marked)
        self._tile_cache[key] = best
        return best

    def _weighted_max(self, interval, omega, marked) -> float:
        """Largest tail-weighted L2 norm of f under the multiplier family
        of omega.  The filtered powers come from the per-window cache; only
        the tail weight of ``interval`` is computed per call."""
        key = (omega, marked)
        powers = self._power_cache.get(key)
        if powers is None:
            powers = [np.abs(self.f.multiply_spectrum(sym).values) ** 2
                      for sym in multiplier_family(self.f, omega, marked,
                                                   self.order,
                                                   self.support_factor)]
            self._power_cache[key] = powers
        w = tail_weight(self.f, interval, self.weight_power)
        ww = w * w
        return _max_or_nan([float(np.sqrt(np.sum(ww * power) * self.f.dx))
                            for power in powers])

    def _top_term(self, top: TopData, i: int) -> float:
        key = (top, i)
        got = self._top_cache.get(key)
        if got is not None:
            return got
        circle = self.f.length
        omega = top_interval(top, i, self.slope, circle)
        best = self._weighted_max(top.interval, omega, None)
        length = min(top.interval.length, circle)
        out = best / math.sqrt(length)
        self._top_cache[key] = out
        return out

    def tree_size(self, tree: Tree, i: int) -> float:
        marked = top_frequency(tree.top, i, self.slope)
        length = min(tree.interval.length, self.f.length)
        acc = sum(self.tile_seminorm(j, i, marked) ** 2
                  for j in tree.members.tolist())
        return math.sqrt(acc / length) + self._top_term(tree.top, i)

    def collection_size(self, i: int, trees: list[Tree]) -> float:
        """Largest tree size over ``trees``."""
        return _max_or_nan(self.tree_size(tree, i) for tree in trees)

    def size_callback(self, i: int):
        """Adapter for :func:`freqbench.timefreq.forest_decompose`."""
        return lambda tree: self.tree_size(tree, i)


def maximal_trees(tiles: Family) -> list[Tree]:
    """The nonempty maximal trees of ``tiles`` over the standard top
    pool, in pool order."""
    pool = candidate_tops(tiles, span_bits=6, scale_bits=4)
    member = tree_members(tiles, pool)
    return [Tree(pool[k], np.flatnonzero(member[k]))
            for k in np.flatnonzero(member.any(axis=1))]


# ---------------------------------------------------------------------------
# exceptional sets and layers

def exceptional_mask(density: GridFunction, factor: float) -> np.ndarray:
    """Samples where the maximal average of the density beats factor times
    its total mass."""
    m = maximal_average(density).values.real
    return m > factor * float(density.integral().real)


def _interval_cells(lo: float, length: float, n: int,
                    dx: float) -> np.ndarray:
    start = int(round(lo / dx))
    count = min(int(round(length / dx)), n)
    return np.mod(start + np.arange(count), n)


def layer_split(tiles: Family, omega: np.ndarray,
                circle: float) -> dict[int, np.ndarray]:
    """Partition tile indices by how deep their interval sits in the
    flagged set ``omega``, a mask over the samples of a circle of length
    ``circle``.

    Layer zero holds tiles whose interval already meets the complement of
    the flagged set; layer l >= 1 holds tiles whose 4**l-fold dilate is the
    first to reach the complement.  Dilates are centered, wrap around the
    circle, and saturate at the full circle, so every tile lands in exactly
    one layer as long as the flagged set is not everything and no tile
    needs a dilate deeper than :data:`MAX_LAYER`.
    """
    if omega.all():
        raise ValueError("flagged set covers the whole circle")
    n = omega.size
    dx = circle / n
    out: dict[int, list[int]] = {}
    centers = 0.5 * (tiles.lo + tiles.hi)
    for j, (center, width) in enumerate(zip(centers.tolist(),
                                            tiles.length.tolist())):
        for level in range(MAX_LAYER + 1):
            scale = 4.0 ** level
            length = min(width * scale, circle)
            lo = center - 0.5 * length
            cells = _interval_cells(lo, length, n, dx)
            if not omega[cells].all():
                out.setdefault(level, []).append(j)
                break
        else:
            raise RuntimeError("tile never escaped the flagged set")
    return {level: np.array(js) for level, js in out.items()}


# ---------------------------------------------------------------------------
# model sum

@functools.lru_cache(maxsize=64)
def _cutoff_kernel(size: int, length: float,
                   width: float) -> PositiveBandKernel:
    """The mollifier of :func:`spatial_cutoff`, shared by every cutoff at
    one width; its values and transform are read-only."""
    kern = PositiveBandKernel(size, length, width, half_power=1)
    kern.values.flags.writeable = False
    kern.transform.flags.writeable = False
    return kern


def spatial_cutoff(f: GridFunction, interval: Iv, blur: float) -> np.ndarray:
    """Mollified indicator of the interval over the samples.

    The mollifier is a positive band-limited kernel of width a fixed
    fraction of the interval, floored at a few grid cells so the kernel
    never aliases.  Summing over a full partition at one scale returns the
    constant one because the kernel has unit mass.
    """
    width = max(blur * interval.length, MIN_WIDTH_CELLS * f.dx)
    kern = _cutoff_kernel(f.size, f.length, width)
    box = GridFunction.zeros(f.size, f.length)
    cells = _interval_cells(interval.lo, min(interval.length, f.length),
                            f.size, f.dx)
    box.values[cells] = 1.0
    return convolve(box, kern).values.real


def model_sum(fs: tuple[GridFunction, GridFunction, GridFunction],
              tiles: Family, slope: float, order: int,
              blur: float) -> complex:
    """Sum over tiles of the cutoff-localized triple product.

    Each tile contributes the integral of its smoothed spatial indicator
    against the product of the three frequency-projected functions, each
    projected by a bump at support factor :data:`MODEL_SUPPORT`; the
    projection product is cached per cube since tiles sharing a cube share
    it exactly.
    """
    f = fs[0]
    ops = operator_intervals(tiles.side, tiles.centers, slope)
    per_cube: dict = {}
    total = 0.0 + 0.0j
    for j, q in enumerate(tiles.cube.tolist()):
        prod = per_cube.get(q)
        if prod is None:
            prod = np.ones(f.size, dtype=complex)
            for i in range(3):
                omega = Iv(*ops[q, i].tolist())
                sym = multiplier_family(fs[i], omega, None, order,
                                        MODEL_SUPPORT)[0]
                prod = prod * fs[i].multiply_spectrum(sym).values
            per_cube[q] = prod
        cut = spatial_cutoff(f, tiles.interval(j), blur)
        total += complex(np.sum(cut * prod) * f.dx)
    return total


def single_tree_audit(fs: tuple[GridFunction, GridFunction, GridFunction],
                      tiles: Family, tree: Tree, slope: float,
                      thetas: tuple[float, float, float], order: int,
                      support_factor: float, weight_power: int,
                      blur: float) -> tuple[float, float]:
    """Model sum over one tree of ``tiles`` against its size-product budget.

    Returns (lhs, rhs): the absolute model sum, and the top length times
    the product of per-component collection sizes raised to the exponents.
    The exponent on the first component is one; callers keep the others
    strictly inside (0, 1).
    """
    members = tiles.take(tree.members)
    lhs = abs(model_sum(fs, members, slope, order, blur))
    length = min(tree.interval.length, fs[0].length)
    rhs = length
    trees = maximal_trees(members)
    for i in range(3):
        sizer = TreeSizer(fs[i], members, slope, order, support_factor,
                          weight_power)
        s = sizer.collection_size(i, trees)
        rhs *= s ** thetas[i]
    return lhs, rhs
