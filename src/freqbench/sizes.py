"""Size functionals for tile families on a sampled circle.

A tile couples to a function through two pieces of data: a frequency
interval (one component of its cube, pushed through the slope map) and a
spatial interval.  The *tile seminorm* measures how much of the function a
multiplier confined to that frequency interval can concentrate on the tile,
weighted by a polynomial tail factor pinned to the spatial interval.  Tree
and collection sizes aggregate the seminorms, and everything downstream
(forest thresholds, exceptional layers, the model sum) consumes those.  A
tree's top is a (zeta, lo, hi) tuple; :mod:`freqbench.timefreq` builds the
top pool and the maximal trees this module sizes.

Multiplier suprema are taken over a small concrete family rather than an
abstract class: saturating odd profiles times compact bump envelopes when
the symbol must vanish at a marked frequency, plain bumps otherwise.  The
pointwise bound |m| <= min(1, |xi - marked| / width) holds exactly for the
saturating profiles, so no a posteriori constraint check is needed.

The module is deliberately grid-first: all operators are spectral windows
over :meth:`freqbench.grid.GridFunction.freqs`, and every interval is
assumed to keep its dilated support inside the grid's frequency band (see
:func:`freqbench.timefreq.operator_band_edge`).
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridFunction, convolve, maximal_average, shared_kernel
from .timefreq import (Family, Tree, maximal_trees, operator_intervals,
                       shear)

LEVEL = 0.95            # sup of every multiplier of :func:`multiplier_family`
MIN_WIDTH_CELLS = 4.0   # floor of the cutoff mollifier's width, in cells
MAX_LAYER = 12          # deepest 4**l-fold dilate :func:`layer_split` tries
MODEL_SUPPORT = 1.2     # support factor of the model sum's projections


def top_frequency(top: tuple, i: int, slope: float) -> float:
    """Marked frequency of component i for a tree top (zeta, lo, hi)."""
    return shear(slope)[i] * top[0]


def top_interval(top: tuple, i: int, slope: float,
                 circle: float) -> tuple[float, float]:
    """Component interval (lo, hi) attached to a tree top (zeta, lo, hi).

    Width is (1, slope, 1+slope)[i] over the top length, centered at the
    marked frequency; tops longer than the circle saturate at the circle
    length.
    """
    w = abs(shear(slope)[i]) / min(top[2] - top[1], circle)
    c = top_frequency(top, i, slope)
    return c - 0.5 * w, c + 0.5 * w


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

    The offset is periodized by ``np.fmod`` plus length where negative:
    numpy's float remainder without the floor division it discards.  Only
    the sign of an exactly-zero remainder differs, and subtracting half the
    length erases it, so the weights equal the ``np.mod`` form bit for bit.
    """
    lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
    off = np.fmod(f.x - 0.5 * (lo + hi) + 0.5 * f.length, f.length)
    np.add(off, f.length, out=off, where=off < 0)
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


def multiplier_family(f: GridFunction, lo, hi, marked, order: int,
                      support_factor: float) -> np.ndarray:
    """Concrete symbols over the grid modes, supported on the dilated
    window [lo, hi], as a (3, size) bank; array ends (and marks) give one
    bank per window, stacked as (..., 3, size).

    With a marked frequency the symbols carry a saturating odd factor, so
    |m(xi)| <= LEVEL * min(1, |xi - marked| / (hi - lo)) pointwise; with
    ``marked`` None they are plain bump envelopes bounded by :data:`LEVEL`.
    """
    lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
    u = _window_offsets(f, lo, hi, support_factor)
    env = _bump(u, order)
    if marked is None:
        rows = (LEVEL * env, LEVEL * _bump(u, order + 2),
                LEVEL * env * (1.0 - 0.5 * _bump(u, 2 * order)))
    else:
        t = (f.freqs() / f.length - np.asarray(marked)[..., None]) / (hi - lo)
        rows = (LEVEL * env * np.tanh(t),
                LEVEL * env * (t / np.sqrt(1.0 + t * t)),
                LEVEL * _bump(u, order + 2) * np.tanh(0.5 * t))
    return np.stack(rows, axis=-2)


# ---------------------------------------------------------------------------
# seminorms and sizes

class TreeSizer:
    """Size functionals of one function over one tile family.

    Trees are index arrays into ``tiles``.  The threshold sweeps meet the
    same tile in many trees, so the sizer keeps one term cache, holding
    tile seminorms by (tile, component, marked frequency) and top terms by
    (top, component), keyed on the tree's (zeta, lo, hi) top as it is, and
    caches the filtered powers |f * m|^2 of the :func:`multiplier_family`
    symbols by window (lo, hi, marked frequency or None).  A batch of trees
    is filled at once: one :func:`tail_weight` call weighs every uncached
    term, and one :func:`multiplier_family` call and one
    :meth:`GridFunction.bank` per mark kind filter the new windows.  Weight
    rows never outlive the call.
    """

    def __init__(self, f: GridFunction, tiles: Family, slope: float,
                 order: int, support_factor: float, weight_power: int):
        self.f = f
        self.tiles = tiles
        self.slope = slope
        self.order = order
        self.support_factor = support_factor
        self.weight_power = weight_power
        ops = operator_intervals(tiles.side, tiles.centers, slope)
        self._omega = ops[tiles.cube].tolist()  # tile -> component -> ends
        self._ends = list(zip(tiles.lo.tolist(), tiles.hi.tolist()))
        self._terms, self._power_cache = {}, {}

    def tile_seminorm(self, j: int, i: int, marked: float) -> float:
        key = (j, i, marked)
        if key not in self._terms:
            self._fill({key: (self._ends[j], (*self._omega[j][i], marked),
                              1.0)}, {})
        return self._terms[key]

    def tree_size(self, tree: Tree, i: int) -> float:
        return self._sizes([tree], i, {})[0]

    def collection_size(self, i: int, trees: list[Tree]) -> float:
        """Largest tree size over ``trees``, from one batched fill."""
        return float(np.max(self._sizes(trees, i, {}), initial=0.0))

    def _sizes(self, trees: list[Tree], i: int, rows: dict) -> list[float]:
        """Tree sizes after filling every uncached term; ``rows`` holds the
        squared weight rows already taken, by spatial ends."""
        terms, circle = self._terms, self.f.length
        todo: dict = {}  # key -> (spatial ends, window, divisor)
        per_tree = []
        for tree in trees:
            top, marked = tree.top, top_frequency(tree.top, i, self.slope)
            members = tree.members.tolist()
            per_tree.append((marked, members))
            for j in members:
                if (j, i, marked) not in terms:
                    todo[(j, i, marked)] = (self._ends[j],
                                            (*self._omega[j][i], marked), 1.0)
            if (top, i) not in terms:
                todo[(top, i)] = (top[1:],
                                  (*top_interval(top, i, self.slope, circle),
                                   None),
                                  math.sqrt(min(tree.length, circle)))
        if todo:
            self._fill(todo, rows)
        return [math.sqrt(sum(terms[(j, i, marked)] ** 2 for j in members)
                          / min(tree.length, circle))
                + terms[(tree.top, i)]
                for tree, (marked, members) in zip(trees, per_tree)]

    def _fill(self, todo: dict, rows: dict) -> None:
        """Cache each ``todo`` entry's largest weighted L2 norm of f under
        its window's symbols, over its divisor; ``rows`` gains the squared
        weight rows it lacks, from one :func:`tail_weight` call."""
        f, dx, powers = self.f, self.f.dx, self._power_cache
        ends = [e for e in dict.fromkeys([t[0] for t in todo.values()])
                if e not in rows]
        if ends:
            w = tail_weight(f, *zip(*ends), self.weight_power)
            rows.update(zip(ends, w * w))
        new = [win for win in dict.fromkeys([t[1] for t in todo.values()])
               if win not in powers]
        for unmarked in (False, True):
            group = [win for win in new if (win[2] is None) == unmarked]
            if group:
                lo, hi, at = zip(*group)
                fam = multiplier_family(f, lo, hi, None if unmarked else at,
                                        self.order, self.support_factor)
                banks = np.abs(f.bank(fam.reshape(-1, f.size))) ** 2
                powers.update(zip(group, banks.reshape(len(group), 3, -1)))
        for key, (ends, window, divisor) in todo.items():
            # sqrt(max(s) dx) is max(sqrt(s dx)): both steps are monotone
            sums = np.sum(rows[ends] * powers[window], axis=-1)
            self._terms[key] = math.sqrt(sums.max() * dx) / divisor


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
    # unflagged samples before each index of the circle traversed twice, so
    # a wrapped window of at most n samples is one difference
    clear = np.r_[0, np.cumsum(np.tile(~omega, 2))]
    centers = 0.5 * (tiles.lo + tiles.hi)
    layer = np.full(len(centers), -1)
    for level in range(MAX_LAYER + 1):
        length = np.minimum(tiles.length * 4.0 ** level, circle)
        start = np.round((centers - 0.5 * length) / dx).astype(np.int64) % n
        count = np.minimum(np.round(length / dx), n).astype(np.int64)
        layer[(layer < 0) & (clear[start + count] > clear[start])] = level
    if (layer < 0).any():
        raise RuntimeError("tile never escaped the flagged set")
    return {level: np.flatnonzero(layer == level)
            for level in np.flatnonzero(np.bincount(layer)).tolist()}


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
    start = np.round(lo / dx).astype(np.int64)
    count = np.minimum(np.round(np.minimum(hi - lo, f.length) / dx), n)
    boxes = ((np.arange(n) - start) % n < count).astype(complex)
    widths = np.maximum(blur * (hi - lo), MIN_WIDTH_CELLS * dx)[..., 0]
    out = np.empty(boxes.shape)
    for width in dict.fromkeys(widths.ravel().tolist()):
        rows = widths == width
        kern = shared_kernel(n, f.length, width, half_power=1)
        out[rows] = convolve(boxes[rows], kern).real
    return out


def model_sum(fs: tuple[GridFunction, GridFunction, GridFunction],
              tiles: Family, slope: float, order: int,
              blur: float) -> np.ndarray:
    """Per-tile terms of the model sum, complex, in tile order.

    A tile's term is the integral of its smoothed spatial indicator against
    the product of the three frequency-projected functions, each projected
    by a bump at support factor :data:`MODEL_SUPPORT`; each component's
    projections of all cubes come from one :meth:`GridFunction.bank`.  No
    row depends on the other tiles of the call, so a subfamily's terms are
    the family's terms at its tiles.
    """
    f = fs[0]
    ops = operator_intervals(tiles.side, tiles.centers, slope)
    prod = np.ones((len(ops), f.size), dtype=complex)
    for i in range(3):
        u = _window_offsets(fs[i], ops[:, i, :1], ops[:, i, 1:],
                            MODEL_SUPPORT)
        prod = prod * fs[i].bank(LEVEL * _bump(u, order))
    cuts = spatial_cutoff(f, tiles.lo, tiles.hi, blur)
    return np.sum(cuts * prod[tiles.cube], axis=-1) * f.dx


def term_sum(terms: np.ndarray) -> complex:
    """The model sum of ``terms``, added one by one in their order."""
    total = 0j
    for term in terms.tolist():
        total += term
    return total


def single_tree_audit(fs: tuple[GridFunction, GridFunction, GridFunction],
                      tiles: Family, tree: Tree, terms: np.ndarray,
                      slope: float, thetas: tuple[float, float, float],
                      order: int, support_factor: float, weight_power: int,
                      span_bits: int, scale_bits: int) -> tuple[float, float]:
    """Model sum over one tree of ``tiles`` against its size-product budget.

    Returns (lhs, rhs): the absolute sum of the tree's members' ``terms``
    (the :func:`model_sum` terms of ``tiles``), and the top length times the
    product of per-component collection sizes raised to the exponents.  The
    exponent on the first component is one; callers keep the others
    strictly inside (0, 1).  The components size the same trees on one
    grid, so one :func:`tail_weight` call, alive for the audit, weighs all:
    a call per component took 13 ms, not 4, over 50 default model-sum audits.
    """
    lhs = abs(term_sum(terms[tree.members]))
    members = tiles.take(tree.members)
    rhs = min(tree.length, fs[0].length)
    trees = maximal_trees(members, span_bits, scale_bits)
    rows: dict = {}  # squared weight rows, shared by the components
    for i, f in enumerate(fs):
        sizer = TreeSizer(f, members, slope, order, support_factor,
                          weight_power)
        rhs *= float(np.max(sizer._sizes(trees, i, rows),
                            initial=0.0)) ** thetas[i]
    return lhs, rhs
