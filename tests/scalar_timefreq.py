"""Scalar reference copy of the object-model multi-tile code.

Frozen dataclasses (``FreqCube``, ``MultiTile``) and per-pair interval
predicates, exactly as the package computed them before families became
arrays.  ``test_timefreq.py`` checks the array code against it bit for bit;
nothing here is tested on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Halo geometry constants.  A halo contains the 1000-fold dilate of its cube
# component and is at most one percent wider per side; tree tops use a halo
# of half that width around a single point.
HALO_FACTOR = 1000
HALO_SLACK = 10          # max widening per side, in units of the cube side
HALO_STRETCH = 10        # stretch factor applied when comparing across scales
TOP_RADIUS = HALO_FACTOR // 2
ENDPOINT_QUANTUM = 256   # halo endpoints move in steps of side / 256


# ---------------------------------------------------------------------------
# intervals

@dataclass(frozen=True, order=True)
class Iv:
    """Closed interval [lo, hi] with exact dyadic endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi >= self.lo:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Iv") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def meets(self, other: "Iv") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def dist(self, other: "Iv") -> float:
        if self.meets(other):
            return 0.0
        return max(other.lo - self.hi, self.lo - other.hi)

    def scaled(self, factor: float) -> "Iv":
        c, h = self.center, 0.5 * factor * self.length
        return Iv(c - h, c + h)


def dyadic(length: float, index: int) -> Iv:
    """The index-th interval of the given length in the standard grid."""
    return Iv(index * length, (index + 1) * length)


# ---------------------------------------------------------------------------
# cubes and multi-tiles

@dataclass(frozen=True)
class FreqCube:
    """Axis-parallel cube: three component intervals of a common side."""

    side: float
    centers: tuple[float, float, float]

    def component(self, i: int) -> Iv:
        c, h = self.centers[i], 0.5 * self.side
        return Iv(c - h, c + h)

    @property
    def components(self) -> tuple[Iv, Iv, Iv]:
        return tuple(self.component(i) for i in range(3))


@dataclass(frozen=True)
class MultiTile:
    """A spatial dyadic interval paired with a frequency cube and its halos.

    The spatial length is the reciprocal of the cube side.  ``halos`` are
    shared across all tiles carrying the same cube.
    """

    interval: Iv
    cube: FreqCube
    halos: tuple[Iv, Iv, Iv]

    def __post_init__(self):
        if self.interval.length * self.cube.side != 1.0:
            raise ValueError("spatial length must be reciprocal of cube side")


def operator_intervals(cube: FreqCube, slope: float) -> tuple[Iv, Iv, Iv]:
    """Images of the cube components under t -> (t, slope*t, -(1+slope)*t).

    Component widths come out in the ratio 1 : slope : 1+slope, matching the
    anisotropy of the directional model operators; the third factor flips
    orientation so the three frequencies sum to zero along the diagonal.
    """
    u, v, w = cube.components
    second = Iv(slope * v.lo, slope * v.hi)
    third = Iv(-(1.0 + slope) * w.hi, -(1.0 + slope) * w.lo)
    return (u, second, third)


# ---------------------------------------------------------------------------
# family health checks

def spacing_violations(cubes: list[FreqCube], scale_bits: int) -> list[tuple]:
    """Scale-separation audit of a cube family.

    For every pair of cubes and component index the rules are: strictly
    smaller sides are smaller by at least 2**-scale_bits; equal-side distinct
    components are at least 2**scale_bits sides apart; an equal component
    forces equal cubes.  Returns one tuple per violated rule.
    """
    gap = float(2 ** scale_bits)
    bad = []
    for a, qa in enumerate(cubes):
        for b, qb in enumerate(cubes):
            if b <= a:
                continue
            for i in range(3):
                wa, wb = qa.component(i), qb.component(i)
                if wa.length != wb.length:
                    small, big = sorted((wa.length, wb.length))
                    if small > big / gap:
                        bad.append(("scale-gap", a, b, i))
                    continue
                if wa == wb:
                    if qa != qb:
                        bad.append(("shared-component", a, b, i))
                    continue
                if wa.dist(wb) < gap * wa.length:
                    bad.append(("same-scale-crowding", a, b, i))
    return bad


def diagonal_clearance_violations(cubes: list[FreqCube],
                                  c0: float = 2.0) -> list[tuple]:
    """Check each cube avoids the diagonal at dilation c0 but meets it at 10*c0.

    The diagonal is the line u = v = w; the dilate of a cube by a factor is
    taken about its center, so the dilated cube meets the diagonal exactly
    when the dilated components share a common point.
    """
    bad = []
    for idx, q in enumerate(cubes):
        lo = [q.centers[i] - 0.5 * c0 * q.side for i in range(3)]
        hi = [q.centers[i] + 0.5 * c0 * q.side for i in range(3)]
        if max(lo) <= min(hi):
            bad.append(("touches-diagonal", idx))
        lo = [q.centers[i] - 5.0 * c0 * q.side for i in range(3)]
        hi = [q.centers[i] + 5.0 * c0 * q.side for i in range(3)]
        if max(lo) > min(hi):
            bad.append(("strays-from-diagonal", idx))
    return bad


# ---------------------------------------------------------------------------
# halos

class HaloError(ValueError):
    """Raised when no admissible halo assignment exists within the budget."""


def _halo_ok(small: tuple[Iv, Iv, Iv], big_halo: Iv) -> bool:
    # vacuous unless some stretched halo of the smaller cube meets big_halo,
    # in which case all three must be enclosed
    stretched = [h.scaled(HALO_STRETCH) for h in small]
    if not any(s.meets(big_halo) for s in stretched):
        return True
    return all(big_halo.encloses(s) for s in stretched)


def build_halos(cubes: list[FreqCube]) -> dict[FreqCube, tuple[Iv, Iv, Iv]]:
    """Assign to each cube three halos with the cross-scale nesting property.

    Each halo starts one quantum beyond the 1000-fold component dilate and
    may grow by at most HALO_SLACK sides per endpoint, in quantized steps.
    Cubes are processed by increasing side; a halo endpoint of a larger cube
    that would cut through the stretched-halo hull of a smaller cube is
    pushed outward past it.  Raises :class:`HaloError` when the one-percent
    budget cannot resolve a cut.
    """
    halos: dict[FreqCube, tuple[Iv, Iv, Iv]] = {}
    for q in sorted(set(cubes), key=lambda c: (c.side, c.centers)):
        quantum = q.side / ENDPOINT_QUANTUM
        base = HALO_FACTOR / 2 * q.side + quantum
        comps = []
        for i in range(3):
            c = q.centers[i]
            lo, hi = c - base, c + base
            budget = HALO_SLACK * q.side - quantum
            # push endpoints off every smaller cube's stretched hull
            for _ in range(3 * len(halos) + 1):
                moved = False
                for small, shalos in halos.items():
                    if small.side >= q.side:
                        continue
                    stretched = [h.scaled(HALO_STRETCH) for h in shalos]
                    if not any(s.meets(Iv(lo, hi)) for s in stretched):
                        continue
                    hull_lo = min(s.lo for s in stretched)
                    hull_hi = max(s.hi for s in stretched)
                    if lo <= hull_hi and hull_lo <= lo:
                        steps = math.ceil((lo - hull_lo) / quantum) + 1
                        lo -= steps * quantum
                        moved = True
                    if hi >= hull_lo and hi <= hull_hi:
                        steps = math.ceil((hull_hi - hi) / quantum) + 1
                        hi += steps * quantum
                        moved = True
                if not moved:
                    break
            if (c - lo) - base > budget or (hi - c) - base > budget:
                raise HaloError(
                    f"halo budget exhausted for cube side {q.side} "
                    f"component {i}")
            comps.append(Iv(lo, hi))
        halos[q] = tuple(comps)
    # full audit; construction bugs surface here, not downstream
    bad = halo_violations(halos)
    if bad:
        raise HaloError(f"halo nesting failed: {bad[0]}")
    return halos


def halo_violations(halos: dict[FreqCube, tuple[Iv, Iv, Iv]]) -> list[tuple]:
    """Exhaustively audit the cross-scale halo nesting property.

    For cubes q, q' with side(q) < side(q'): if any stretched halo of q
    meets any halo of q', then every stretched halo of q must lie inside
    that same halo of q'.  Also audits containment of the 1000-fold dilate
    and the one-percent width budget.
    """
    bad = []
    items = list(halos.items())
    for q, hs in items:
        for i in range(3):
            grown = q.component(i).scaled(HALO_FACTOR)
            if not hs[i].encloses(grown):
                bad.append(("too-small", q.side, q.centers, i))
            if hs[i].lo < grown.lo - HALO_SLACK * q.side or \
               hs[i].hi > grown.hi + HALO_SLACK * q.side:
                bad.append(("over-budget", q.side, q.centers, i))
    for q, hs in items:
        for qq, hhs in items:
            if not q.side < qq.side:
                continue
            for j in range(3):
                if not _halo_ok(hs, hhs[j]):
                    bad.append(("broken-nesting", q.centers, qq.centers, j))
    return bad


# ---------------------------------------------------------------------------
# tile orderings

def tile_le(p: MultiTile, q: MultiTile, i: int) -> bool:
    """Component order: finer spatial interval and fatter halo."""
    return q.interval.encloses(p.interval) and p.halos[i].encloses(q.halos[i])


def mt_le(p: MultiTile, q: MultiTile) -> bool:
    """p below q when some component of p sits below that component of q."""
    return any(tile_le(p, q, i) for i in range(3))


def mt_lessdot(p: MultiTile, q: MultiTile) -> bool:
    """Frequency-only order: some halo of p encloses that halo of q."""
    return any(p.halos[i].encloses(q.halos[i]) for i in range(3))


def le_matrix(tiles: list[MultiTile]) -> np.ndarray:
    n = len(tiles)
    out = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(n):
            out[a, b] = mt_le(tiles[a], tiles[b])
    return out


# ---------------------------------------------------------------------------
# footprints

def _cell_width(tiles: list[MultiTile]) -> float:
    return min(p.interval.length for p in tiles)


def _cells(iv: Iv, width: float) -> frozenset[int]:
    lo = round(iv.lo / width)
    hi = round(iv.hi / width)
    return frozenset(range(lo, hi))


def box_footprints(tiles: list[MultiTile]) -> dict[FreqCube, frozenset[int]]:
    """Union of spatial intervals per cube, as sets of finest-scale cells."""
    width = _cell_width(tiles)
    out: dict[FreqCube, frozenset[int]] = {}
    for p in tiles:
        out[p.cube] = out.get(p.cube, frozenset()) | _cells(p.interval, width)
    return out


def footprint_violations(tiles: list[MultiTile]) -> list[tuple]:
    """Monotonicity audit: frequency-below tiles have nested footprints.

    Whenever p lessdot q, the footprint of p's cube must sit inside the
    footprint of q's cube; the relation depends on the cubes only.
    """
    if not tiles:
        return []
    feet = box_footprints(tiles)
    by_cube = {p.cube: p for p in tiles}
    bad = []
    for qa, pa in by_cube.items():
        for qb, pb in by_cube.items():
            if qa is qb:
                continue
            if mt_lessdot(pa, pb) and not feet[qa] <= feet[qb]:
                bad.append((qa.centers, qb.centers))
    return bad


def regularize(tiles: list[MultiTile]) -> list[MultiTile]:
    """Close a family under footprint monotonicity by adding tiles.

    For each frequency-below pair with a footprint gap, the larger-interval
    cube receives tiles over the missing cells, aligned to its own spatial
    length.  Iterates to a fixpoint; the result contains the input.
    """
    width = _cell_width(tiles)
    halos = {p.cube: p.halos for p in tiles}
    have: set[MultiTile] = set(tiles)
    for _ in range(64):
        feet: dict[FreqCube, set[int]] = {}
        for p in have:
            feet.setdefault(p.cube, set()).update(_cells(p.interval, width))
        reps = {p.cube: p for p in have}
        added = False
        for qa, pa in reps.items():
            for qb, pb in reps.items():
                if qa is qb or not mt_lessdot(pa, pb):
                    continue
                missing = feet[qa] - feet[qb]
                if not missing:
                    continue
                # cover missing fine cells by qb-scale dyadic intervals
                per = round(1.0 / (qb.side * width))
                for idx in sorted({c // per for c in missing}):
                    have.add(MultiTile(dyadic(1.0 / qb.side, idx), qb,
                                       halos[qb]))
                added = True
        if not added:
            break
    else:
        raise RuntimeError("footprint closure did not stabilize")
    return sorted(have, key=lambda p: (-p.interval.length, p.interval.lo,
                                       p.cube.centers))


# ---------------------------------------------------------------------------
# trees

@dataclass(frozen=True)
class TopData:
    """Anchor frequency and spatial extent of a tree."""

    zeta: float
    interval: Iv

    @property
    def halo(self) -> Iv:
        r = TOP_RADIUS / self.interval.length
        return Iv(self.zeta - r, self.zeta + r)


@dataclass(frozen=True)
class Tree:
    top: TopData
    members: tuple[MultiTile, ...] = field(compare=False)

    @property
    def interval(self) -> Iv:
        return self.top.interval


def tree_members(tiles: list[MultiTile], top: TopData) -> list[MultiTile]:
    """All tiles whose spatial interval fits the top and whose some halo
    encloses the top halo; this is the maximal tree for the given top."""
    th = top.halo
    return [p for p in tiles
            if top.interval.encloses(p.interval)
            and any(p.halos[i].encloses(th) for i in range(3))]


def candidate_tops(tiles: list[MultiTile], span_bits: int,
                   scale_bits: int) -> list[TopData]:
    """Deterministic top pool: first-halo centers crossed with the dyadic
    ancestors of each tile interval up to length 2**span_bits.

    Every tile admits at least its own (center, interval) pair, so greedy
    selection over this pool always exhausts the family.  Sorted so that
    wider tops come first, ties broken by anchor then position.
    """
    tops: set[TopData] = set()
    step = 2 ** scale_bits
    for p in tiles:
        zeta = p.halos[0].center
        length = p.interval.length
        lo = p.interval.lo
        while length <= float(2 ** span_bits):
            idx = math.floor(lo / length + 1e-12)
            tops.add(TopData(zeta, dyadic(length, idx)))
            length *= step
    return sorted(tops, key=lambda t: (-t.interval.length, t.zeta,
                                       t.interval.lo))


def greedy_select(tiles: list[MultiTile], span_bits: int = 6,
                  scale_bits: int = 4) -> list[Tree]:
    """Greedy maximal-tree selection until the family is exhausted.

    Each round scans the fixed top pool in order and selects the first top
    whose maximal tree over the remaining tiles is nonempty.  Every selected
    tree is maximal in the remainder by construction.
    """
    pool = candidate_tops(tiles, span_bits, scale_bits)
    remaining = list(tiles)
    out: list[Tree] = []
    while remaining:
        for top in pool:
            got = tree_members(remaining, top)
            if got:
                out.append(Tree(top, tuple(got)))
                chosen = set(got)
                remaining = [p for p in remaining if p not in chosen]
                break
        else:
            raise RuntimeError("top pool failed to cover remaining tiles")
    return out


def selection_convexity_violations(tiles: list[MultiTile],
                                   trees: list[Tree]) -> tuple[int, int]:
    """Audit order-convexity of consecutive greedy selections.

    For tiles p' <= p'' <= p with strictly increasing spatial lengths, the
    tree index of p'' must lie between those of p' and p; then every union
    of consecutively selected trees is closed under order sandwiching.
    Returns (checked_triples, violations).
    """
    n = len(tiles)
    idx = {}
    for t, tree in enumerate(trees):
        for p in tree.members:
            idx[p] = t
    tree_of = np.array([idx[p] for p in tiles])
    le = le_matrix(tiles)
    length = np.array([p.interval.length for p in tiles])
    checked = 0
    bad = 0
    for mid in range(n):
        lowers = np.nonzero(le[:, mid] & (length < length[mid]))[0]
        uppers = np.nonzero(le[mid, :] & (length[mid] < length))[0]
        if lowers.size == 0 or uppers.size == 0:
            continue
        checked += lowers.size * uppers.size
        t_mid = tree_of[mid]
        below_l, below_u = tree_of[lowers] < t_mid, tree_of[uppers] < t_mid
        above_l, above_u = tree_of[lowers] > t_mid, tree_of[uppers] > t_mid
        if (below_l.any() and below_u.any()) or \
           (above_l.any() and above_u.any()):
            for a in lowers:
                for b in uppers:
                    lohi = sorted((tree_of[a], tree_of[b]))
                    if not lohi[0] <= t_mid <= lohi[1]:
                        bad += 1
    return checked, bad


# ---------------------------------------------------------------------------
# forests

def forest_decompose(tiles: list[MultiTile], size_fn, span_bits: int = 6,
                     scale_bits: int = 4, max_level: int = 60,
                     ) -> dict[int, list[Tree]]:
    """Split a family into forests by a dyadic threshold sweep on tree size.

    ``size_fn(tree)`` must be a nonnegative functional, monotone under
    adding members.  Level n collects greedily selected maximal trees whose
    size exceeds 2**-(n+1); once no remaining top produces such a tree the
    level closes and the threshold halves.  Tiles invisible to ``size_fn``
    at every level land in level ``max_level``.
    """
    pool = candidate_tops(tiles, span_bits, scale_bits)
    remaining = list(tiles)
    start = None
    for top in pool:
        got = tree_members(remaining, top)
        if got:
            s = size_fn(Tree(top, tuple(got)))
            if s > 0 and (start is None or s > start):
                start = s
    if start is None:
        return {max_level: greedy_select(tiles, span_bits, scale_bits)} \
            if tiles else {}
    n = math.floor(-math.log2(start))
    out: dict[int, list[Tree]] = {}
    while remaining and n < max_level:
        threshold = 2.0 ** (-n - 1)
        while True:
            for top in pool:
                got = tree_members(remaining, top)
                if got and size_fn(Tree(top, tuple(got))) > threshold:
                    tree = Tree(top, tuple(got))
                    out.setdefault(n, []).append(tree)
                    chosen = set(got)
                    remaining = [p for p in remaining if p not in chosen]
                    break
            else:
                break
        n += 1
    if remaining:
        out[max_level] = greedy_select(remaining, span_bits, scale_bits)
    return out


# ---------------------------------------------------------------------------
# seeded generator

#: anchor spacing between clusters; wide enough that stretched halos of the
#: largest cubes in one cluster miss every halo of the next
CLUSTER_SPACING = float(2 ** 18)


def _whitney_offsets(rng: np.random.Generator, c0: float) -> tuple:
    # component offsets in units of the side: pairwise spread must exceed c0
    # (clearing the diagonal) while staying below 10*c0 (meeting its dilate)
    spread = 0.5 * round(2 * rng.uniform(c0 + 0.5, 3.0 * c0), 0)
    signs = rng.permutation([0.0, spread, -spread])
    return tuple(float(s) for s in signs)


def operator_band_edge(tiles: list[MultiTile], slope: float,
                       support_factor: float = 1.5) -> float:
    """Largest absolute frequency touched by dilated operator intervals.

    Grid experiments must keep this below the Nyquist frequency of the
    sampling grid; the generators below are tuned so that it stays small.
    """
    edge = 0.0
    for p in tiles:
        for iv in operator_intervals(p.cube, slope):
            big = iv.scaled(support_factor)
            edge = max(edge, abs(big.lo), abs(big.hi))
    return edge


def compact_family(seed: int, span_cells: int = 2, scale_bits: int = 4,
                   c0: float = 0.5) -> list[MultiTile]:
    """Seeded single-cluster family with frequencies packed near zero.

    Cube sides are 1/16 and 1, spatial lengths 16 and 1, so the family
    lives naturally on a circle of length ``16 * span_cells``.  Every
    frequency the operators touch stays within a few units of zero, which
    lets a 512-point grid on that circle resolve all the multipliers.  The
    same audits as :func:`cluster_family` are enforced.
    """
    step = 2 ** scale_bits
    small_side = 1.0 / step
    for attempt in range(8):
        rng = np.random.default_rng((seed, 71, attempt))
        anchor = 0.25 + 0.25 * int(rng.integers(0, 2))
        sign = 1.0 if rng.integers(0, 2) else -1.0
        d = _whitney_offsets(rng, c0)
        big = FreqCube(1.0, tuple(anchor + di for di in d))
        cubes = [big]
        plans: list[tuple[FreqCube, list[Iv]]] = []
        positions = sorted(rng.choice(step, size=3, replace=False))
        plans.append((big, [dyadic(1.0, int(k)) for k in positions]))
        for m in range(2):
            d = _whitney_offsets(rng, c0)
            off = sign * 1.5 * (m + 1)
            mini = FreqCube(small_side,
                            tuple(anchor + off + di * small_side for di in d))
            cubes.append(mini)
            cell = 0 if m == 0 else int(rng.integers(0, span_cells))
            plans.append((mini, [dyadic(float(step), cell)]))
        if spacing_violations(cubes, scale_bits):
            continue
        if diagonal_clearance_violations(cubes, c0):
            continue
        try:
            halos = build_halos(cubes)
        except HaloError:
            continue
        tiles = [MultiTile(iv, q, halos[q]) for q, ivs in plans for iv in ivs]
        tiles = regularize(tiles)
        if footprint_violations(tiles):
            continue
        return tiles
    raise RuntimeError(f"no admissible compact family for seed {seed}")


def cluster_family(seed: int, n_clusters: int = 3, scale_bits: int = 4,
                   c0: float = 2.0, span_cells: int = 4,
                   max_tiles: int = 200) -> list[MultiTile]:
    """Seeded family of multi-tiles organized in well-separated clusters.

    Each cluster sits at an integer anchor and holds cubes of sides 1,
    2**scale_bits and 4**scale_bits whose components are Whitney-offset from
    the cluster's diagonal position.  Spatial intervals are nested across
    scales inside a window of ``span_cells`` unit cells, so order sandwiches
    with three strict scales exist.  The family is closed under footprint
    monotonicity before being returned, and every health check is enforced.
    """
    for attempt in range(8):
        rng = np.random.default_rng((seed, attempt))
        step = 2 ** scale_bits
        mid_side, big_side = float(step), float(step * step)
        cubes: list[FreqCube] = []
        plans: list[tuple[FreqCube, list[Iv]]] = []
        for k in range(n_clusters):
            anchor = (k + 1) * CLUSTER_SPACING
            unit_cell = int(rng.integers(0, span_cells))
            # one big cube, finest spatial scale, two positions nested in a
            # single mid cell of the chosen unit cell
            d = _whitney_offsets(rng, c0)
            big = FreqCube(big_side,
                           tuple(anchor + di * big_side for di in d))
            mid_cell = unit_cell * step + int(rng.integers(0, step))
            fine0 = mid_cell * step + int(rng.integers(0, step - 1))
            big_ivs = [dyadic(1.0 / big_side, fine0),
                       dyadic(1.0 / big_side, fine0 + 1)]
            plans.append((big, big_ivs))
            cubes.append(big)
            # two mid cubes separated within the cluster; one covers the
            # nested chain, the other sits elsewhere in the window
            for m in range(2):
                d = _whitney_offsets(rng, c0)
                off = (m + 1) * 2.0 * step * mid_side
                mid = FreqCube(mid_side,
                               tuple(anchor + off + di * mid_side for di in d))
                if m == 0:
                    ivs = [dyadic(1.0 / mid_side, mid_cell)]
                else:
                    other = int(rng.integers(0, span_cells)) * step \
                        + int(rng.integers(0, step))
                    ivs = [dyadic(1.0 / mid_side, other)]
                plans.append((mid, ivs))
                cubes.append(mid)
            # unit cubes on two sub-anchors; spatial scale is the unit cell
            for m in range(2):
                d = _whitney_offsets(rng, c0)
                off = 2.0 * step * mid_side + (m + 1) * 4.0 * step
                unit = FreqCube(1.0, tuple(anchor + off + di for di in d))
                cell = unit_cell if m == 0 else int(
                    rng.integers(0, span_cells))
                plans.append((unit, [dyadic(1.0, cell)]))
                cubes.append(unit)
        if spacing_violations(cubes, scale_bits):
            continue
        if diagonal_clearance_violations(cubes, c0):
            continue
        try:
            halos = build_halos(cubes)
        except HaloError:
            continue
        tiles = [MultiTile(iv, q, halos[q]) for q, ivs in plans for iv in ivs]
        tiles = regularize(tiles)
        if len(tiles) > max_tiles:
            continue
        if footprint_violations(tiles):
            continue
        return tiles
    raise RuntimeError(f"no admissible family for seed {seed}")
