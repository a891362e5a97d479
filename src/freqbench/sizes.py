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

import math

import numpy as np

from .grid import GridFunction, convolve, maximal_average, shared_kernel
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

def tail_weight(f: GridFunction, lo, hi, power: int) -> np.ndarray:
    """Periodized polynomial tail weight pinned to [lo, hi]; array ends
    give one weight row per interval.

    Uses the smooth form (1 + (dist/length)^2)^(-power/2), equivalent to
    the kinked (1 + dist/length)^(-power) within a factor 2^(power/2) but
    infinitely differentiable away from the wrap seam, so grid quadrature
    of weighted norms converges fast and refining the grid moves measured
    sizes by far less than any dyadic threshold margin.
    """
    lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
    off = np.mod(f.x - 0.5 * (lo + hi) + 0.5 * f.length, f.length)
    u = (off - 0.5 * f.length) / (hi - lo)
    return (1.0 + u * u) ** (-0.5 * float(power))


def _bump(u: np.ndarray, order: int) -> np.ndarray:
    """(1 - u^2)^order on |u| < 1, zero elsewhere: powers the support only."""
    out = np.zeros(np.shape(u))
    inside = np.abs(u) < 1.0
    out[inside] = (1.0 - u[inside] * u[inside]) ** order
    return out


def _window_offsets(f: GridFunction, lo, hi,
                    support_factor: float) -> np.ndarray:
    """Modes relative to [lo, hi], in its dilated half-widths."""
    half = 0.5 * support_factor * (hi - lo)
    return (f.freqs() / f.length - 0.5 * (lo + hi)) / half


def multiplier_family(f: GridFunction, omega: Iv, marked: float | None,
                      order: int, support_factor: float) -> np.ndarray:
    """Concrete symbols over the grid modes, supported on the dilated
    omega, as a (3, size) bank of windows.

    With a marked frequency the symbols carry a saturating odd factor, so
    |m(xi)| <= LEVEL * min(1, |xi - marked| / |omega|) pointwise; without
    one they are plain bump envelopes bounded by :data:`LEVEL`.
    """
    u = _window_offsets(f, omega.lo, omega.hi, support_factor)
    env = _bump(u, order)
    if marked is None:
        return np.array([LEVEL * env,
                         LEVEL * _bump(u, order + 2),
                         LEVEL * env * (1.0 - 0.5 * _bump(u, 2 * order))])
    t = (f.freqs() / f.length - marked) / omega.length
    return np.array([LEVEL * env * np.tanh(t),
                     LEVEL * env * (t / np.sqrt(1.0 + t * t)),
                     LEVEL * _bump(u, order + 2) * np.tanh(0.5 * t)])


# ---------------------------------------------------------------------------
# seminorms and sizes

class TreeSizer:
    """Size functionals of one function over one tile family.

    Trees are index arrays into ``tiles``.  Two caches serve the threshold
    sweeps, where the same tile reappears in many candidate trees:

    - tile seminorms, by (tile index, component, marked frequency);
    - filtered powers |f * m|^2 for the three symbols of
      :func:`multiplier_family`, by (frequency window, marked frequency).
      The filtered function does not depend on the tile, so every tile and
      top sharing a window shares one (3, size) :meth:`GridFunction.bank`.
      :meth:`tree_size` weighs the distinct intervals of a tree's uncached
      members and top in one call; the rows do not outlive the call.
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
        self._ends = list(zip(tiles.lo.tolist(), tiles.hi.tolist()))
        self._tile_cache: dict = {}
        self._top_cache: dict = {}
        self._power_cache: dict = {}

    def tile_seminorm(self, j: int, i: int, marked: float) -> float:
        key = (j, i, marked)
        if key not in self._tile_cache:
            self._fill_seminorms([j], i, marked,
                                 self._weights([self._ends[j]]).values())
        return self._tile_cache[key]

    def _weights(self, ends: list[tuple[float, float]]) -> dict:
        """Tail weight rows of the distinct (lo, hi) ``ends``, in one call."""
        distinct = list(dict.fromkeys(ends))
        rows = tail_weight(self.f, *zip(*distinct), self.weight_power)
        return dict(zip(distinct, rows))

    def _fill_seminorms(self, js: list[int], i: int, marked: float,
                        ws) -> None:
        """Cache the seminorms of tiles ``js``, weighed by rows ``ws``."""
        cache = self._tile_cache
        for j, w in zip(js, ws):
            omega = Iv(*self._omega[self.tiles.cube[j], i].tolist())
            cache[(j, i, marked)] = self._weighted_max(w, omega, marked)

    def _weighted_max(self, w: np.ndarray, omega: Iv, marked) -> float:
        """Largest ``w``-weighted L2 norm of f under omega's multiplier
        family; the filtered powers are cached per window."""
        key = (omega, marked)
        powers = self._power_cache.get(key)
        if powers is None:
            powers = np.abs(self.f.bank(multiplier_family(
                self.f, omega, marked, self.order, self.support_factor))) ** 2
            self._power_cache[key] = powers
        sums = np.sum(w * w * powers, axis=-1)
        return float(np.sqrt(sums * self.f.dx).max())

    def _top_term(self, top: TopData, i: int, w: np.ndarray) -> float:
        key = (top, i)
        got = self._top_cache.get(key)
        if got is not None:
            return got
        circle = self.f.length
        omega = top_interval(top, i, self.slope, circle)
        best = self._weighted_max(w, omega, None)
        length = min(top.interval.length, circle)
        out = best / math.sqrt(length)
        self._top_cache[key] = out
        return out

    def tree_size(self, tree: Tree, i: int) -> float:
        marked = top_frequency(tree.top, i, self.slope)
        length = min(tree.interval.length, self.f.length)
        members = tree.members.tolist()
        missing = [j for j in members
                   if (j, i, marked) not in self._tile_cache]
        ends = [self._ends[j] for j in missing]
        top = (tree.top.interval.lo, tree.top.interval.hi)
        if (tree.top, i) not in self._top_cache:
            ends.append(top)
        rows = self._weights(ends) if ends else {}
        self._fill_seminorms(missing, i, marked, map(rows.get, ends))
        acc = sum(self.tile_seminorm(j, i, marked) ** 2 for j in members)
        return math.sqrt(acc / length) + self._top_term(tree.top, i,
                                                         rows.get(top))

    def collection_size(self, i: int, trees: list[Tree]) -> float:
        """Largest tree size over ``trees``."""
        return float(np.max([self.tree_size(tree, i) for tree in trees],
                            initial=0.0))


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
    its total mass; a non-finite sample raises ValueError."""
    m = maximal_average(density).values.real
    if not np.isfinite(m).all():
        raise ValueError("density has a non-finite maximal average")
    return m > factor * float(density.integral().real)


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
            start = int(round(lo / dx))
            count = min(int(round(length / dx)), n)
            if not omega[np.mod(start + np.arange(count), n)].all():
                out.setdefault(level, []).append(j)
                break
        else:
            raise RuntimeError("tile never escaped the flagged set")
    return {level: np.array(js) for level, js in out.items()}


# ---------------------------------------------------------------------------
# model sum

def spatial_cutoff(f: GridFunction, lo, hi, blur: float) -> np.ndarray:
    """Mollified indicator of [lo, hi] over the samples; array ends give
    one cutoff row per interval.

    The mollifier is a positive band-limited kernel of width a fixed
    fraction of the interval, floored at a few grid cells so the kernel
    never aliases; rows of one width share one FFT pair.  Summing over a
    full partition at one scale returns the constant one because the
    kernel has unit mass.
    """
    lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
    n, dx = f.size, f.dx
    start = np.round(lo / dx)
    count = np.minimum(np.round(np.minimum(hi - lo, f.length) / dx), n)
    boxes = (np.mod(np.arange(n) - start, n) < count).astype(complex)
    widths = np.maximum(blur * (hi - lo), MIN_WIDTH_CELLS * dx)[..., 0]
    out = np.empty(boxes.shape)
    for width in dict.fromkeys(widths.ravel().tolist()):
        rows = widths == width
        kern = shared_kernel(n, f.length, width, half_power=1)
        out[rows] = convolve(boxes[rows], kern).real
    return out


def model_sum(fs: tuple[GridFunction, GridFunction, GridFunction],
              tiles: Family, slope: float, order: int,
              blur: float) -> complex:
    """Sum over tiles of the cutoff-localized triple product.

    Each tile contributes the integral of its smoothed spatial indicator
    against the product of the three frequency-projected functions, each
    projected by a bump at support factor :data:`MODEL_SUPPORT`.  Each
    component's projections of all cubes come from one
    :meth:`GridFunction.bank`; the terms are added in tile order.
    """
    f = fs[0]
    ops = operator_intervals(tiles.side, tiles.centers, slope)
    prod = np.ones((len(ops), f.size), dtype=complex)
    for i in range(3):
        u = _window_offsets(fs[i], ops[:, i, :1], ops[:, i, 1:],
                            MODEL_SUPPORT)
        prod = prod * fs[i].bank(LEVEL * _bump(u, order))
    cuts = spatial_cutoff(f, tiles.lo, tiles.hi, blur)
    total = 0.0 + 0.0j
    for cut, q in zip(cuts, tiles.cube.tolist()):
        total += complex(np.sum(cut * prod[q]) * f.dx)
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
