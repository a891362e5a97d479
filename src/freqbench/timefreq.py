"""Combinatorics of frequency cubes clustered near the diagonal.

A family of multi-tiles is a :class:`Family` of plain arrays.  Its cubes are
axis-parallel cubes in three frequency coordinates, held as sides ``(c,)``,
centres ``(c, 3)`` and halos ``(c, 3, 2)``.  Each side is a power of
``2**scale_bits``, and the three component intervals sit close to the line
``u = v = w`` without touching it (see :func:`diagonal_clearance_violations`).
Its tiles pair a cube index ``(n,)`` with a dyadic spatial interval of
reciprocal length, held as ``lo`` and ``length`` ``(n,)``.  A tree top is a
hashable float tuple ``(zeta, lo, hi)``: an anchor frequency over a dyadic
interval.  A :class:`Tree` is a top plus an index array into its family, in
family order.

Around each cube component we put a *halo*: the thousandfold dilate of the
component, one quantum wider at each end.  Halos are what every ordering,
tree and selection rule below consumes.  The module enforces, by explicit
exhaustive checking, the one geometric fact everything else leans on: when a
ten-fold stretched halo of a smaller cube meets a halo of a larger cube, all
three stretched halos of the smaller cube land inside that same halo.  A cube
set whose halos break it is refused, never repaired.

Contents:

- family health checks broadcast over the cube arrays
  (:func:`spacing_violations`, :func:`diagonal_clearance_violations`,
  the nesting audit :func:`halo_violations`) and halos (:func:`build_halos`),
- tile orderings as matrices (:func:`le_matrix`, :func:`lessdot_matrix`),
  footprints, their audit for a stack of tile groups
  (:func:`footprint_violations`) and a closure passing it (:func:`regularize`),
- the top pool (:func:`candidate_tops`), one top x tile membership mask per
  family (:func:`tree_members`), the maximal trees over the pool
  (:func:`maximal_trees`), greedy maximal selection
  (:func:`greedy_select`), its order-convexity audit as counts over tile
  x tile masks (:func:`selection_convexity_violations`) and a threshold
  sweep into forests driven by a size callback (:func:`forest_decompose`),
- seeded generators of families that pass every check
  (:func:`cluster_family`, :func:`compact_family`).

All endpoint arithmetic stays inside the binary rationals representable in a
double, so equality tests on interval endpoints are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Halo geometry constants.  A halo is the 1000-fold dilate of its cube
# component widened by side / ENDPOINT_QUANTUM per end; tree tops use a halo
# of half that width around a single point.
HALO_FACTOR = 1000
HALO_STRETCH = 10        # stretch factor applied when comparing across scales
TOP_RADIUS = HALO_FACTOR // 2
ENDPOINT_QUANTUM = 256   # a halo end sits side / 256 beyond the dilate

#: forest level that collects the tiles no size threshold ever selects
SINK_LEVEL = 60


# ---------------------------------------------------------------------------
# intervals

def _rows(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Rows (c - h, c + h)."""
    out = np.empty(np.shape(c) + (2,))
    out[..., 0] = c - h
    out[..., 1] = c + h
    return out


def _scaled(rows: np.ndarray, factor: float) -> np.ndarray:
    """Rows (lo, hi) dilated by ``factor`` about their centres."""
    return _rows(0.5 * (rows[..., 0] + rows[..., 1]),
                 0.5 * factor * (rows[..., 1] - rows[..., 0]))


def _components(side: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Component intervals of each cube, (c, 3, 2)."""
    return _rows(centers, 0.5 * side[:, None])


def _encloses(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    return (outer[..., 0] <= inner[..., 0]) & (inner[..., 1] <= outer[..., 1])


# ---------------------------------------------------------------------------
# families of multi-tiles

@dataclass(frozen=True, eq=False)
class Family:
    """Multi-tiles as arrays: cubes (side, centers, halos) and tiles
    (lo, length, cube).

    ``halos[q, i]`` is the (lo, hi) halo of component i of cube q.  Tile j
    is the spatial interval [lo[j], lo[j] + length[j]] paired with cube
    ``cube[j]``; its length is the reciprocal of that cube's side, and
    every cube carries at least one tile.
    """

    side: np.ndarray
    centers: np.ndarray
    halos: np.ndarray
    lo: np.ndarray
    length: np.ndarray
    cube: np.ndarray

    @classmethod
    def tiled(cls, side, centers, halos, cube, index) -> "Family":
        """Tile j is the index[j]-th dyadic interval of length
        1 / side[cube[j]]."""
        side = np.asarray(side, dtype=float)
        cube = np.asarray(cube, dtype=np.intp)
        length = 1.0 / side[cube]
        return cls(side, np.asarray(centers, dtype=float), halos,
                   np.asarray(index) * length, length, cube)

    def __len__(self) -> int:
        return len(self.lo)

    @property
    def hi(self) -> np.ndarray:
        return self.lo + self.length

    def own_top(self, j: int) -> tuple[float, float, float]:
        """Tile j's first-halo centre over its own interval."""
        h = self.halos[self.cube[j], 0]
        lo = float(self.lo[j])
        return float(0.5 * (h[0] + h[1])), lo, float(lo + self.length[j])

    def take(self, idx) -> "Family":
        """The tiles ``idx``, in that order, over the cubes they carry."""
        idx = np.asarray(idx, dtype=np.intp)
        carried = np.bincount(self.cube[idx], minlength=len(self.side)) > 0
        renumber = np.cumsum(carried) - 1
        return Family(self.side[carried], self.centers[carried],
                      self.halos[carried], self.lo[idx], self.length[idx],
                      renumber[self.cube[idx]])


def shear(slope: float) -> tuple[float, float, float]:
    """Factors of the map t -> (t, slope*t, -(1+slope)*t), one per
    component; the three frequencies sum to zero along the diagonal."""
    return 1.0, slope, -(1.0 + slope)


def operator_intervals(side: np.ndarray, centers: np.ndarray,
                       slope: float) -> np.ndarray:
    """Images of the cube components under :func:`shear`, as (c, 3, 2)
    rows (lo, hi).  Widths come out in the ratio 1 : slope : 1+slope,
    matching the anisotropy of the directional model operators."""
    out = _components(side, centers) * np.array(shear(slope))[:, None]
    out[:, 2] = out[:, 2, ::-1]     # the negative factor swaps the ends
    return out


# ---------------------------------------------------------------------------
# family health checks and halos

def spacing_violations(side: np.ndarray, centers: np.ndarray,
                       scale_bits: int) -> list[tuple]:
    """Scale-separation audit of a cube family.

    For every pair of cubes a < b and component index i the rules are:
    strictly smaller sides are smaller by at least 2**-scale_bits;
    equal-side distinct components are at least 2**scale_bits sides apart;
    an equal component forces equal cubes.  Returns one (rule, a, b, i)
    tuple per violated rule, in (a, b, i) order.
    """
    gap = float(2 ** scale_bits)
    comp = _components(side, centers)
    a, b = comp[:, None], comp[None, :]
    wa = a[..., 1] - a[..., 0]
    wb = b[..., 1] - b[..., 0]
    same_len = wa == wb
    scale_gap = ~same_len & (np.minimum(wa, wb) > np.maximum(wa, wb) / gap)
    equal = same_len & (a[..., 0] == b[..., 0]) & (a[..., 1] == b[..., 1])
    same_cube = (side[:, None] == side[None, :]) & \
        (centers[:, None] == centers[None, :]).all(axis=-1)
    shared = equal & ~same_cube[..., None]
    apart = np.maximum(b[..., 0] - a[..., 1], a[..., 0] - b[..., 1])
    crowded = same_len & ~equal & (np.maximum(apart, 0.0) < gap * wa)
    # the three rules exclude one another; only pairs a < b count
    code = scale_gap + 2 * shared + 3 * crowded
    rules = ("", "scale-gap", "shared-component", "same-scale-crowding")
    return [(rules[code[p, q, i]], p, q, i)
            for p, q, i in zip(*(k.tolist() for k in np.nonzero(code)))
            if p < q]


def diagonal_clearance_violations(side: np.ndarray, centers: np.ndarray,
                                  c0: float) -> list[tuple]:
    """Check each cube avoids the diagonal at dilation c0 but meets it at 10*c0.

    The diagonal is the line u = v = w; the dilate of a cube by a factor is
    taken about its center, so the dilated cube meets the diagonal exactly
    when the dilated components share a common point.
    """
    # dilations c0 and 10 * c0 as rows of one broadcast
    half = np.array([[0.5 * c0], [5.0 * c0]]) * side
    meets = (centers.T[:, None] - half).max(axis=0) \
        <= (centers.T[:, None] + half).min(axis=0)
    flags = np.column_stack([meets[0], ~meets[1]])
    return [(("touches-diagonal", "strays-from-diagonal")[k], int(q))
            for q, k in zip(*np.nonzero(flags))]

class HaloError(ValueError):
    """Raised when the halos of a cube family break the nesting property."""


def build_halos(side: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Assign to each cube three halos with the cross-scale nesting property.

    Each halo is the 1000-fold component dilate widened by one quantum
    (side / ENDPOINT_QUANTUM) per endpoint, so it holds the dilate by
    construction.  Returns the (c, 3, 2) halos when :func:`halo_violations`
    finds no broken nesting, and raises :class:`HaloError` naming the first
    violation otherwise; no endpoint is ever moved.
    """
    halos = _rows(centers,
                  (HALO_FACTOR / 2 * side + side / ENDPOINT_QUANTUM)[:, None])
    bad = halo_violations(side, halos)
    if bad:
        raise HaloError(f"halo nesting failed: {bad[0]}")
    return halos


def halo_violations(side: np.ndarray, halos: np.ndarray) -> list[tuple]:
    """Exhaustively audit the cross-scale halo nesting property.

    For cubes q, q' with side(q) < side(q'): if any stretched halo of q
    meets halo j of q', then every stretched halo of q must lie inside
    that same halo.  Returns ("broken-nesting", q, q', j) tuples.
    """
    # axes: smaller cube, larger cube, its halo j, stretched halo of q
    st = _scaled(halos, HALO_STRETCH)[:, None, None]
    big = halos[None, :, :, None]
    meets = ((st[..., 0] <= big[..., 1]) & (big[..., 0] <= st[..., 1]))
    broken = (side[:, None] < side[None, :])[..., None] & \
        meets.any(axis=-1) & ~_encloses(big, st).all(axis=-1)
    return [("broken-nesting", int(q), int(qq), int(j))
            for q, qq, j in zip(*np.nonzero(broken))]


# ---------------------------------------------------------------------------
# tile orderings and footprints

def lessdot_matrix(halos: np.ndarray) -> np.ndarray:
    """Frequency-only order between cubes: [a, b] when some halo of a
    encloses that halo of b."""
    return _encloses(halos[:, None], halos[None, :]).any(axis=-1)


def le_matrix(tiles: Family) -> np.ndarray:
    """Tile order: [a, b] when b's interval encloses a's and some halo of
    a's cube encloses that halo of b's cube."""
    lo, hi = tiles.lo, tiles.hi
    inside = (lo[None, :] <= lo[:, None]) & (hi[:, None] <= hi[None, :])
    return inside & lessdot_matrix(tiles.halos)[np.ix_(tiles.cube, tiles.cube)]

def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked boolean product; float32 sums of 0/1 are > 0 iff a term is 1."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def footprints(tiles: Family, groups=None) -> tuple[int, np.ndarray]:
    """Union of spatial intervals per cube, as finest-scale cells.

    Returns the index of the first cell and a (c, cells) mask; cell k has
    width the shortest tile length and starts at (first + k) * width.
    A (g, n) tile mask ``groups`` gives each group's (g, c, cells) stack.
    """
    width = tiles.length.min()
    start = np.rint(tiles.lo / width).astype(np.int64)
    stop = np.rint(tiles.hi / width).astype(np.int64)
    first = int(start.min())
    cells = np.arange(first, stop.max())
    owner = tiles.cube == np.arange(len(tiles.side))[:, None]
    owner = owner if groups is None else owner & groups[:, None, :]
    cover = (start[:, None] <= cells) & (cells < stop[:, None])
    return first, _bool_product(owner, cover)


def footprint_violations(tiles: Family, groups=None) -> list[tuple]:
    """Monotonicity audit: frequency-below tiles have nested footprints.

    Whenever cube a lessdot cube b, the footprint of a must sit inside the
    footprint of b; the relation depends on the cubes only.  A (g, n) tile
    mask ``groups`` (default one group of all) audits each group as a family
    of its own, a pair counting when the group carries both cubes; every
    tile end is a whole number of cells, so the family's cells serve all.
    Returns the violating (a, b) cube pairs, group by group.
    """
    if not len(tiles):
        return []
    groups = np.ones((1, len(tiles)), bool) if groups is None else groups
    _, feet = footprints(tiles, groups)
    ld = lessdot_matrix(tiles.halos)
    np.fill_diagonal(ld, False)
    gaps = _bool_product(feet, ~feet.swapaxes(1, 2))
    _, a, b = np.nonzero(ld & gaps & feet.any(axis=-1)[:, None, :])
    return list(zip(a.tolist(), b.tolist()))


def regularize(tiles: Family) -> Family:
    """Close a family under footprint monotonicity by adding tiles.

    For each frequency-below pair with a footprint gap, the larger-interval
    cube receives tiles over the missing cells, aligned to its own spatial
    length.  Iterates to a fixpoint; the result contains the input, sorted
    by decreasing length, then position, then cube centres.
    """
    per = np.rint(1.0 / (tiles.side * tiles.length.min())).astype(np.int64)
    cube = tiles.cube
    index = np.rint(tiles.lo / tiles.length).astype(np.int64)
    ld = lessdot_matrix(tiles.halos)
    np.fill_diagonal(ld, False)
    for _ in range(64):
        fam = Family.tiled(tiles.side, tiles.centers, tiles.halos, cube, index)
        first, feet = footprints(fam)
        # cells cube b lacks although some other cube lessdot b holds them
        b, k = np.nonzero(~feet & _bool_product(ld.T, feet))
        if not len(b):
            break
        # cover them by b's own dyadic intervals.  None of those is a tile
        # yet, and duplicates among them are adjacent: k ascends within b
        new = (first + k) // per[b]
        keep = np.r_[True, (b[1:] != b[:-1]) | (new[1:] != new[:-1])]
        cube = np.concatenate([cube, b[keep]])
        index = np.concatenate([index, new[keep]])
    else:
        raise RuntimeError("footprint closure did not stabilize")
    at = fam.centers[cube]
    order = np.lexsort((at[:, 2], at[:, 1], at[:, 0], fam.lo, -fam.length))
    return Family.tiled(tiles.side, tiles.centers, tiles.halos, cube[order],
                        index[order])


# ---------------------------------------------------------------------------
# trees and forests

@dataclass(frozen=True)
class Tree:
    """A top (zeta, lo, hi), an anchor frequency over a dyadic interval, and
    the indices of its member tiles, in family order."""

    top: tuple[float, float, float]
    members: np.ndarray = field(compare=False)

    @property
    def length(self) -> float:
        return self.top[2] - self.top[1]


def tree_members(tiles: Family, tops: list[tuple]) -> np.ndarray:
    """Membership mask (len(tops), len(tiles)) of the maximal trees.

    Tile j belongs to top t when its spatial interval fits the top's and
    some halo of its cube encloses the top halo.
    """
    zeta, lo, hi = np.array(tops, dtype=float).reshape(-1, 3).T[..., None]
    r = TOP_RADIUS / (hi - lo)
    th = np.stack([zeta - r, zeta + r], axis=-1)
    inside = (lo <= tiles.lo) & (tiles.hi <= hi)
    halo = _encloses(tiles.halos[tiles.cube][None], th[:, None])
    return inside & halo.any(axis=-1)


def candidate_tops(tiles: Family, span_bits: int,
                   scale_bits: int) -> list[tuple[float, float, float]]:
    """Deterministic top pool: first-halo centers crossed with the dyadic
    ancestors of each tile interval up to length 2**span_bits.

    Every tile admits at least its own (center, interval) pair, so greedy
    selection over this pool always exhausts the family.  Sorted so that
    wider tops come first, ties broken by anchor then position.
    """
    tops: set[tuple[float, float, float]] = set()
    step = 2 ** scale_bits
    zeta = 0.5 * (tiles.halos[:, 0, 0] + tiles.halos[:, 0, 1])
    for z, lo, length in zip(zeta[tiles.cube].tolist(), tiles.lo.tolist(),
                             tiles.length.tolist()):
        while length <= float(2 ** span_bits):
            idx = math.floor(lo / length)
            tops.add((z, idx * length, (idx + 1) * length))
            length *= step
    return sorted(tops, key=lambda t: (t[1] - t[2], t[0], t[1]))


def _trees(pool, member):
    """The nonempty rows of a top x tile mask as trees, lazily, in pool
    order."""
    for k in np.flatnonzero(member.any(axis=1)):
        yield Tree(pool[k], np.flatnonzero(member[k]))


def _select(pool, member, remaining, accept=None) -> list[Tree]:
    """Take the first maximal tree over the ``remaining`` tiles that passes
    ``accept``, drop its tiles from ``remaining`` (in place), and repeat
    until no tree passes."""
    out: list[Tree] = []
    while tree := next(filter(accept, _trees(pool, member & remaining)),
                       None):
        out.append(tree)
        remaining[tree.members] = False
    return out


def maximal_trees(tiles: Family, span_bits: int,
                  scale_bits: int) -> list[Tree]:
    """The nonempty maximal trees of ``tiles`` over the top pool of
    :func:`candidate_tops`, in pool order."""
    pool = candidate_tops(tiles, span_bits, scale_bits)
    return list(_trees(pool, tree_members(tiles, pool)))


def greedy_select(tiles: Family, span_bits: int,
                  scale_bits: int) -> list[Tree]:
    """Greedy maximal-tree selection until the family is exhausted.

    Each round scans the fixed top pool in order and selects the first top
    whose maximal tree over the remaining tiles is nonempty.  Every selected
    tree is maximal in the remainder by construction.
    """
    pool = candidate_tops(tiles, span_bits, scale_bits)
    remaining = np.ones(len(tiles), dtype=bool)
    out = _select(pool, tree_members(tiles, pool), remaining)
    if remaining.any():
        raise RuntimeError("top pool failed to cover remaining tiles")
    return out


def selection_convexity_violations(tiles: Family,
                                   trees: list[Tree]) -> tuple[int, int]:
    """Audit order-convexity of consecutive greedy selections.

    For tiles p' <= p'' <= p with strictly increasing spatial lengths, the
    tree index of p'' must lie between those of p' and p; then every union
    of consecutively selected trees is closed under order sandwiching.
    Returns (checked_triples, violations).
    """
    tree_of = np.full(len(tiles), -1)
    for t, tree in enumerate(trees):
        tree_of[tree.members] = t
    if (tree_of < 0).any():
        raise ValueError("the trees leave a tile of the family out")
    # below[x, y]: x <= y, x strictly shorter: m's lowers are column m, its
    # uppers row m.  A bad triple's two outer trees both follow or precede m's
    below = le_matrix(tiles) & (tiles.length[:, None] < tiles.length)
    later = below & (tree_of[:, None] > tree_of)     # x's tree after y's
    earlier = below & (tree_of[:, None] < tree_of)
    checked = int(below.sum(axis=0) @ below.sum(axis=1))
    bad = int(later.sum(axis=0) @ earlier.sum(axis=1)
              + earlier.sum(axis=0) @ later.sum(axis=1))
    return checked, bad

def forest_decompose(tiles: Family, size_fn, span_bits: int,
                     scale_bits: int) -> dict[int, list[Tree]]:
    """Split a family into forests by a dyadic threshold sweep on tree size.

    ``size_fn(tree)`` must be a nonnegative functional, monotone under
    adding members.  Level n collects greedily selected maximal trees whose
    size exceeds 2**-(n+1); once no remaining top produces such a tree the
    level closes and the threshold halves.  Tiles invisible to ``size_fn``
    at every level land in level ``SINK_LEVEL``.  A non-finite size of a
    maximal tree raises ValueError: NaN compares false against every
    threshold and would land its tiles in the sink unseen.
    """
    pool = candidate_tops(tiles, span_bits, scale_bits)
    member = tree_members(tiles, pool)
    sizes = [size_fn(tree) for tree in _trees(pool, member)]
    if not all(map(math.isfinite, sizes)):
        raise ValueError("non-finite tree size of a maximal tree")
    start = max((s for s in sizes if s > 0), default=None)
    n = SINK_LEVEL if start is None else math.floor(-math.log2(start))
    remaining = np.ones(len(tiles), dtype=bool)
    out: dict[int, list[Tree]] = {}
    while remaining.any() and n < SINK_LEVEL:
        threshold = 2.0 ** (-n - 1)
        if trees := _select(pool, member, remaining,
                            lambda t: size_fn(t) > threshold):
            out[n] = trees
        n += 1
    if remaining.any():
        rest = np.flatnonzero(remaining)
        out[SINK_LEVEL] = [
            Tree(t.top, rest[t.members])
            for t in greedy_select(tiles.take(rest), span_bits, scale_bits)]
    return out


# ---------------------------------------------------------------------------
# seeded generators

#: anchor spacing between clusters; wide enough that stretched halos of the
#: largest cubes in one cluster miss every halo of the next
CLUSTER_SPACING = float(2 ** 18)
N_CLUSTERS = 3
CLUSTER_SPAN_CELLS = 4   # unit cells of the window a cluster's tiles span
COMPACT_SPAN_CELLS = 2   # circle of length 16 * COMPACT_SPAN_CELLS
MAX_TILES = 200          # cluster families beyond this size are redrawn


def _whitney_offsets(rng: np.random.Generator, c0: float) -> tuple:
    # component offsets in units of the side: pairwise spread must exceed c0
    # (clearing the diagonal) while staying below 10*c0 (meeting its dilate)
    spread = 0.5 * round(2 * rng.uniform(c0 + 0.5, 3.0 * c0), 0)
    signs = rng.permutation([0.0, spread, -spread])
    return tuple(float(s) for s in signs)


def operator_band_edge(tiles: Family, slope: float,
                       support_factor: float) -> float:
    """Largest absolute frequency touched by dilated operator intervals.

    Grid experiments must keep this below the Nyquist frequency of the
    sampling grid; the generators below are tuned so that it stays small.
    """
    big = _scaled(operator_intervals(tiles.side, tiles.centers, slope),
                  support_factor)
    return float(np.abs(big).max(initial=0.0))


def _add_cube(plan, side, offset, d, cells) -> None:
    """Plan a cube of the given side at offset + d * side, carrying the
    tiles at the given dyadic cells."""
    sides, centers, cube, index = plan
    cube.extend([len(sides)] * len(cells))
    index.extend(cells)
    sides.append(side)
    centers.append([offset + di * side for di in d])


def _closed_family(plan, scale_bits: int, c0: float) -> Family | None:
    """The planned tiles closed under footprint monotonicity, or None when
    the cubes fail the spacing, clearance or halo audit.  No footprint
    audit follows: :func:`regularize` stops only where that audit passes."""
    side, centers = np.array(plan[0]), np.array(plan[1])
    if (spacing_violations(side, centers, scale_bits)
            or diagonal_clearance_violations(side, centers, c0)):
        return None
    try:
        halos = build_halos(side, centers)
    except HaloError:
        return None
    return regularize(Family.tiled(side, centers, halos, *plan[2:]))


def compact_family(seed: int, scale_bits: int, c0: float) -> Family:
    """Seeded single-cluster family with frequencies packed near zero.

    Cube sides are 1/16 and 1, spatial lengths 16 and 1, so the family
    lives naturally on a circle of length ``16 * COMPACT_SPAN_CELLS``.
    Every frequency the operators touch stays within a few units of zero,
    which lets a 512-point grid on that circle resolve all the multipliers.
    The same audits as :func:`cluster_family` are enforced.
    """
    step = 2 ** scale_bits
    small_side = 1.0 / step
    for attempt in range(8):
        rng = np.random.default_rng((seed, 71, attempt))
        anchor = 0.25 + 0.25 * int(rng.integers(0, 2))
        sign = 1.0 if rng.integers(0, 2) else -1.0
        d = _whitney_offsets(rng, c0)
        positions = sorted(rng.choice(step, size=3, replace=False))
        plan = ([], [], [], [])
        _add_cube(plan, 1.0, anchor, d, [int(k) for k in positions])
        for m in range(2):
            d = _whitney_offsets(rng, c0)
            cell = 0 if m == 0 else int(rng.integers(0, COMPACT_SPAN_CELLS))
            _add_cube(plan, small_side, anchor + sign * 1.5 * (m + 1), d,
                      [cell])
        tiles = _closed_family(plan, scale_bits, c0)
        if tiles is not None:
            return tiles
    raise RuntimeError(f"no admissible compact family for seed {seed}")


def cluster_family(seed: int, scale_bits: int, c0: float) -> Family:
    """Seeded family of multi-tiles organized in well-separated clusters.

    Each cluster sits at an integer anchor and holds cubes of sides 1,
    2**scale_bits and 4**scale_bits whose components are Whitney-offset from
    the cluster's diagonal position.  Spatial intervals are nested across
    scales inside a window of ``CLUSTER_SPAN_CELLS`` unit cells, so order
    sandwiches with three strict scales exist.  The family is closed under
    footprint monotonicity before being returned, and every health check is
    enforced.
    """
    span = CLUSTER_SPAN_CELLS
    for attempt in range(8):
        rng = np.random.default_rng((seed, attempt))
        step = 2 ** scale_bits
        mid_side, big_side = float(step), float(step * step)
        plan = ([], [], [], [])
        for k in range(N_CLUSTERS):
            anchor = (k + 1) * CLUSTER_SPACING
            unit_cell = int(rng.integers(0, span))
            # one big cube, finest spatial scale, two positions nested in a
            # single mid cell of the chosen unit cell
            d = _whitney_offsets(rng, c0)
            mid_cell = unit_cell * step + int(rng.integers(0, step))
            fine0 = mid_cell * step + int(rng.integers(0, step - 1))
            _add_cube(plan, big_side, anchor, d, [fine0, fine0 + 1])
            # two mid cubes separated within the cluster; one covers the
            # nested chain, the other sits elsewhere in the window
            for m in range(2):
                d = _whitney_offsets(rng, c0)
                off = (m + 1) * 2.0 * step * mid_side
                cell = mid_cell if m == 0 else \
                    int(rng.integers(0, span)) * step \
                    + int(rng.integers(0, step))
                _add_cube(plan, mid_side, anchor + off, d, [cell])
            # unit cubes on two sub-anchors; spatial scale is the unit cell
            for m in range(2):
                d = _whitney_offsets(rng, c0)
                off = 2.0 * step * mid_side + (m + 1) * 4.0 * step
                cell = unit_cell if m == 0 else int(rng.integers(0, span))
                _add_cube(plan, 1.0, anchor + off, d, [cell])
        tiles = _closed_family(plan, scale_bits, c0)
        if tiles is not None and len(tiles) <= MAX_TILES:
            return tiles
    raise RuntimeError(f"no admissible family for seed {seed}")
