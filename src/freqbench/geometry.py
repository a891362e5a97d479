"""Plane geometry for the inscribed lacunary polygon and its cover.

The polygon has vertices on the unit circle at angles pi*2^-mu, reflected
through both axes and truncated near (+-1, 0): the second quadrant's are
:func:`quadrant2_vertex`, the cover frames' closed form, and the other
quadrants' are their exact sign flips.  Everything downstream needs the
same few ingredients:

- stable closed forms for vertices, chord slopes and diagonal spans
  (product forms, no cancellation down to mu ~ 25);
- one convex containment rule in distance units, with the roundoff slack
  SLACK, and the sheared local frame of each chord shell;
- Whitney rectangles hugging each chord: dyadic squares selected against
  the diagonal by integer offsets and pushed through the chord shear;
- the axis-hugging staircase, pole caps and central square;
- interval projections of the chord families and a bounded-overlap counter;
- a normalized product-bump partition of unity over the whole cover, with a
  machine-checked hypothesis report.

A set of closed rectangles [x0, x1] x [y0, y1] is one float array of
shape (4, m) with rows x0, x1, y0, y1; a single rectangle is the tuple
(x0, x1, y0, y1).  The cover is such an array, and a member's id is its
column.

Angles, not symbols: `mu` always indexes the chord from quadrant2_vertex(mu)
to quadrant2_vertex(mu + 1) (second quadrant is the reference quadrant; the
other three are reflections).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import smooth_ramp

GUARD_FRAC = 0.2        # sampling guard off chord mu, in units of 4^-mu
CONTAIN_CHUNK = 4096    # points per bounding-box edge cull in containment
# containment slack in distance from each edge's line: two ulps of 1, a
# coordinate's roundoff; every vertex is within 0.2 SLACK of its circle point
SLACK = 2.0 * np.finfo(float).eps

# ---------------------------------------------------------------------------
# vertices, slopes, diagonal spans


def quadrant2_vertex(mu: int) -> np.ndarray:
    """Second-quadrant vertex at angle pi - pi*2^-mu: (-cos(pi 2^-mu), sin(pi 2^-mu))."""
    a = math.pi * 2.0 ** (-mu)
    return np.array([-math.cos(a), math.sin(a)])


def chord_slope(mu: int) -> float:
    """Slope of the chord joining the mu and mu+1 vertices (second quadrant).

    Exact form cot(3 pi 2^-(mu+2)); grows like 2^mu * 4/(3 pi).
    """
    return 1.0 / math.tan(3.0 * math.pi * 2.0 ** (-mu - 2))


def chord_diag_span(mu: int) -> float:
    """Length parameter g of the chord pulled back to the (u, u) diagonal."""
    t = math.pi * 2.0 ** (-mu - 2)
    return 2.0 * math.sin(3.0 * t) * math.sin(t)


# ---------------------------------------------------------------------------
# boxes and convex quads


def _dilate(boxes: np.ndarray, factor: float) -> np.ndarray:
    """Each box scaled by `factor` about its centre."""
    x0, x1, y0, y1 = boxes
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    hx, hy = 0.5 * (x1 - x0) * factor, 0.5 * (y1 - y0) * factor
    return np.stack([cx - hx, cx + hx, cy - hy, cy + hy])


def _mirrored(boxes: np.ndarray) -> np.ndarray:
    """Second-quadrant boxes followed by their quadrant 1, 3 and 4 images;
    a box of non-positive (or NaN) width or height is refused."""
    x0, x1, y0, y1 = boxes
    if not np.all((x0 < x1) & (y0 < y1)):
        raise ValueError("degenerate rectangle")
    flip = -boxes[[1, 0, 3, 2]]   # both axes mirrored
    return np.concatenate([boxes, np.vstack([flip[:2], boxes[2:]]),
                           np.vstack([boxes[:2], flip[2:]]), flip], axis=1)


def _convex_contains(verts: np.ndarray, boxes: np.ndarray):
    """Which (4, m) boxes lie within SLACK of the closed CCW convex `verts`."""
    nxt = np.roll(verts, -1, axis=0)
    (mx, my), (ex, ey) = (0.5 * (verts + nxt)).T, (nxt - verts).T
    floor = -SLACK * np.hypot(ex, ey)   # per edge, in cross-product units
    # cross(edge, corner - m) >= floor for every edge and corner: a signed
    # distance of at least -SLACK.  From the midpoint m every term is exactly
    # sign-symmetric, so a mirrored box meets the mirrored edge, traversed
    # from its other end, with the same bits.  The cross product is affine in
    # the corner and rounding is monotone, so per edge its computed value at
    # px = x1 if ey > 0 else x0, py = y0 if ex > 0 else y1 is the least of
    # the four corners' and decides the box with no rounding margin; a chunk
    # of CONTAIN_CHUNK boxes skips each edge its bounding box passes at that
    # corner.  A NaN fails, and keeps, every edge whose corner reads its row.
    inside = np.ones(boxes.shape[1], dtype=bool)
    for lo in range(0, len(inside), CONTAIN_CHUNK):
        x0, x1, y0, y1 = boxes[:, lo:lo + CONTAIN_CHUNK]
        cx = np.where(ey > 0, x1.max(), x0.min())
        cy = np.where(ex > 0, y0.min(), y1.max())
        chunk = inside[lo:lo + CONTAIN_CHUNK]  # a view: &= writes inside
        for k in np.flatnonzero(~(ex * (cy - my) - ey * (cx - mx) >= floor)):
            px = x1 if ey[k] > 0 else x0
            py = y0 if ex[k] > 0 else y1
            chunk &= ex[k] * (py - my[k]) - ey[k] * (px - mx[k]) >= floor[k]
    return inside


def quad_rect_overlap(quad: np.ndarray, boxes: np.ndarray):
    """Vectorized separating-axis test: which boxes of a (4, ...) array
    meet the convex quad with (4, 2) counterclockwise vertices `quad`."""
    x0, x1, y0, y1 = boxes
    # axis-aligned separation
    ok = (x0 <= quad[:, 0].max()) & (x1 >= quad[:, 0].min())
    ok &= (y0 <= quad[:, 1].max()) & (y1 >= quad[:, 1].min())
    # quad edge normals
    nxt = np.roll(quad, -1, axis=0)
    for (ax, ay), (bx, by) in zip(quad, nxt):
        nx, ny = ay - by, bx - ax  # inward normal of a CCW edge
        qproj = quad @ np.array([nx, ny])
        rect_lo = nx * (x0 if nx >= 0 else x1) + ny * (y0 if ny >= 0 else y1)
        rect_hi = nx * (x1 if nx >= 0 else x0) + ny * (y1 if ny >= 0 else y0)
        ok &= (rect_lo <= qproj.max()) & (rect_hi >= qproj.min())
    return ok


# ---------------------------------------------------------------------------
# the polygon


class LacunaryPolygon:
    """Closed inscribed polygon with lacunary vertex angles.

    Vertices sit on the unit circle at angles pi*2^-mu from the
    horizontal axis for mu = 1..mu_max+1, in all four quadrants, plus the
    truncation vertices (+-1, 0) closing the loop near the horizontal
    poles.  4*mu_max + 4 vertices in all, counterclockwise.
    """

    __slots__ = ("mu_max", "vertices", "edge_mu")

    def __init__(self, mu_max: int):
        if mu_max < 1:
            raise ValueError("mu_max must be at least 1")
        self.mu_max = int(mu_max)
        # the second-quadrant chain, its mirror image in x, exact axis
        # vertices, then the lower half as the exact mirror image in y
        q2 = np.array([quadrant2_vertex(mu) for mu in range(2, mu_max + 2)])
        upper = np.vstack([[1.0, 0.0], q2[::-1] * [-1.0, 1.0], [0.0, 1.0],
                           q2, [-1.0, 0.0]])
        self.vertices = np.vstack([upper, upper[-2:0:-1] * [1.0, -1.0]])

        # chord index per edge: edge k joins vertex k to k+1 (wrapping);
        # the edge between angles pi*2^-(mu+1) and pi*2^-mu belongs to mu,
        # truncation edges get mu_max + 1.
        half = np.r_[mu_max + 1, mu_max:0:-1, 1:mu_max + 1, mu_max + 1]
        self.edge_mu = np.r_[half, half[::-1]]

    # -- containment -------------------------------------------------------

    def contains(self, points) -> np.ndarray:
        """Closed containment, up to SLACK outside: one boolean per point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _convex_contains(self.vertices, pts.T[[0, 0, 1, 1]])

    # -- distances and sampling -------------------------------------------

    def edge_distances(self, points) -> np.ndarray:
        """Distance from each point to each boundary edge segment, measured
        from its start vertex: a strict guard test reads it, not SLACK."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        px, py = pts[:, 0], pts[:, 1]
        out = np.empty((len(pts), len(self.vertices)))
        steps = np.roll(self.vertices, -1, axis=0) - self.vertices
        for i, ((ax, ay), (dx, dy)) in enumerate(zip(self.vertices, steps)):
            t = np.clip(((px - ax) * dx + (py - ay) * dy)
                        / (dx * dx + dy * dy), 0.0, 1.0)
            rx = px - (ax + t * dx)
            ry = py - (ay + t * dy)
            out[:, i] = np.sqrt(rx * rx + ry * ry)
        return out

    def interior_samples(self, count: int, rng) -> np.ndarray:
        """Uniform interior points keeping a per-chord guard off the boundary.

        A point is accepted when its distance to every edge of chord index
        mu exceeds GUARD_FRAC * 4^-mu.  Finite Whitney families cannot
        reach all the way to a chord, so the cover check needs this guard.
        The truncation edges use the last chord's guard scale.  Points
        within min(apothem - guard) - SLACK of the origin clear every guard
        (an edge is at least its apothem less |p| away, and SLACK absorbs
        the roundoff of both), so only the rest need :meth:`edge_distances`.
        """
        eff_mu = np.minimum(self.edge_mu, self.mu_max).astype(float)
        guards = GUARD_FRAC * 4.0 ** (-eff_mu)
        vx, vy = self.vertices.T
        ex, ey = (np.roll(self.vertices, -1, axis=0) - self.vertices).T
        safe = np.min((ey * vx - ex * vy) / np.hypot(ex, ey) - guards) - SLACK
        out = []
        need = count
        while need > 0:
            batch = max(4 * need, 256)
            pts = rng.uniform(-1.0, 1.0, size=(batch, 2))
            pts = pts[self.contains(pts)]
            ok = np.hypot(pts[:, 0], pts[:, 1]) <= safe
            ok[~ok] = (self.edge_distances(pts[~ok]) > guards).all(axis=1)
            pts = pts[ok]
            out.append(pts[:need])
            need -= len(pts[:need])
        return np.concatenate(out, axis=0)


# ---------------------------------------------------------------------------
# sheared local frames of the chord shells


def shell_frame(mu: int, r: int):
    """(anchor, slope, quad): the sheared local frame of chord shell r.

    Absolute points map to local (u, w) via the pullback
    (x, y) -> (-(x - ax), -(y - ay)/slope); the chord itself pulls back to
    a segment of the diagonal u = w starting at the origin.  `quad` holds
    the shell's local vertices, (4, 2) and counterclockwise.
    """
    c0 = (2.0 ** r - 1.0) * 4.0 ** (-mu)
    c1 = (2.0 ** (r + 1) - 1.0) * 4.0 ** (-mu)
    s = chord_slope(mu)
    g = chord_diag_span(mu)
    va, vb = quadrant2_vertex(mu), quadrant2_vertex(mu + 1)
    anchor = (1.0 - c0) * va
    dc = c1 - c0
    pa = (-va[0], -va[1] / s)   # the chord shear's inverse
    pb = (-vb[0], -vb[1] / s)
    gg = (1.0 - c0) * g
    quad = np.array([(0.0, 0.0), (gg, gg),
                     (gg - dc * pb[0], gg - dc * pb[1]),
                     (-dc * pa[0], -dc * pa[1])])
    x, y = quad.T
    if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) < 0:  # clockwise
        quad = quad[::-1]
    return anchor, s, quad


# ---------------------------------------------------------------------------
# Whitney rectangles


Q = 1             # square centres sit on the 2^(j-Q) lattice at side 2^j


def finest_side(mu: int, C0: int) -> float:
    """Side of chord mu's finest Whitney squares: the largest power of two
    whose closest squares, C0 + 2^-Q sides off the diagonal, are within
    0.75 * GUARD_FRAC * 4^-mu of the chord (s / |(1, s)| times as far)."""
    s = chord_slope(mu)
    reach = (C0 + 2.0 ** (-Q)) * (s / math.hypot(1.0, s))
    target = 0.75 * GUARD_FRAC * 4.0 ** (-mu)
    side = 2.0 ** math.ceil(math.log2(target / reach))   # or twice the side
    return side if side * reach < target else side / 2.0


def whitney_shell_rects(mu: int, r: int, *, C0: int,
                        alpha: float) -> np.ndarray:
    """Whitney rectangles for one chord shell (second quadrant), (4, k).

    A dyadic square of side 2^j centred at (m, n) 2^(j-Q) in the sheared
    local frame is a candidate when its C0-dilate clears the diagonal and
    its 4C0-dilate meets it: C0 2^Q < n - m <= 4 C0 2^Q, integer-exact.
    It is kept when its alpha-dilate meets the shell, then pushed forward
    through the chord shear.  Scales run from the shell's extent down to
    :func:`finest_side`, whose closest squares sit inside the sampling
    guard, and every nonempty one is kept, so the family covers every
    guarded point of its shell.

    Below the top two nonempty scales only offsets up to 2 C0 2^Q are
    kept: the larger ones duplicate distance bands already covered one
    scale up.
    """
    if C0 < 2:
        raise ValueError("need C0 >= 2 for a nonempty clearance band")
    (ax, ay), s, quad = shell_frame(mu, r)
    (bx0, by0), (bx1, by1) = quad.min(axis=0), quad.max(axis=0)

    lo_off = C0 * (1 << Q) + 1       # n - m strictly above C0 * 2^Q
    hi_full = 4 * C0 * (1 << Q)      # 4C0-dilate still meets the diagonal
    hi_thin = 2 * C0 * (1 << Q)

    kept = [np.empty((4, 0))]        # rows x0, x1, y0, y1 per scale
    top = math.floor(math.log2(max(bx1 - bx0, by1 - by0)))
    found = 0
    for j in range(top, int(math.log2(finest_side(mu, C0))) - 1, -1):
        step = 2.0 ** (j - Q)
        h = 2.0 ** (j - 1)
        hi_off = hi_full if found < 2 else hi_thin
        m_lo = math.floor((bx0 - h) / step) - 1
        m_hi = math.ceil((bx1 + h) / step) + 1
        M, O = np.meshgrid(np.arange(m_lo, m_hi + 1),
                           np.arange(lo_off, hi_off + 1), indexing="ij")
        uc = M * step
        wc = (M + O) * step  # shell sits above the diagonal (w > u locally)
        ah = alpha * h
        hit = quad_rect_overlap(quad, np.stack([uc - ah, uc + ah,
                                                wc - ah, wc + ah]))
        if hit.any():
            found += 1
            uh, wh = uc[hit], wc[hit]
            kept.append(np.stack([ax - (uh + h), ax - (uh - h),
                                  ay - s * (wh + h), ay - s * (wh - h)]))
    return np.concatenate(kept, axis=1)


# ---------------------------------------------------------------------------
# staircase, caps, central square


STAIR_OVERLAP = 0.1   # inner-edge overlap of the cover's staircase members
SHELLS = 3            # dyadic chord shells per chord in the cover


def staircase_rect(mu: int, overlap_frac: float = 0.0) -> tuple:
    """Axis-hugging staircase rectangle under chord mu, second quadrant.

    Uses the corrected dilation factors (the ones the original figure
    draws).  The displayed closed form, with outer abscissa
    (1 - 4^-mu) cos(pi 2^-mu / 2), inner abscissa (1 - 4^-(mu-1))
    cos(pi 2^-mu) and height (1 - 4^-mu) sin(pi 2^-mu), puts its
    top-outer corner outside the polygon for every mu (radius excess
    about (3 pi^2/8 - 1) 4^-mu).  The same height with the corrected
    abscissas stays inside with margin ~0.3 * 4^-mu.  `overlap_frac`
    widens the inner edge into the neighbor so that alpha-shrinks of
    consecutive members still overlap at desk alpha.
    """
    if mu < 2:
        raise ValueError("staircase starts at mu = 2")
    a = math.pi * 2.0 ** (-mu)
    outer = (1.0 - 4.0 ** (-mu + 1)) * math.cos(a / 2.0)
    inner = (1.0 - 4.0 ** (-mu + 2)) * math.cos(a)
    top = (1.0 - 4.0 ** (-mu)) * math.sin(a)
    inner -= overlap_frac * (outer - inner)
    return (-outer, -inner, 0.0, top)


def truncation_fillers(mu_max: int, alpha: float) -> list[tuple]:
    """Axis-anchored mini-staircase between the last chord zone and the
    truncation chord (second quadrant).

    The truncation chord joins (-1, 0) to the innermost vertex and has no
    Whitney family; a single rectangle cannot hug it because the chord
    recedes as y drops.  Rectangle k spans heights [0, y_top (1 - k/K)]
    with its left edge tracking the chord at that height, overlapping the
    previous member by STAIR_OVERLAP of its width.  Uniform height steps
    keep every chord wedge thinner than the sampling guard: the wedge per
    step is tan(a/2) y_top / K and tan(a/2) y_top ~ (pi^2/4) 4^-mu_max, so
    K ~ pi^2/(2 GUARD_FRAC) works for every depth.  Margins absorb the (1/alpha)-dilation applied by the
    cover (the dilation pushes the top edge up, which costs tan(a/2) * dy
    of horizontal clearance against the slanted chord).
    """
    a = math.pi * 2.0 ** (-mu_max - 1)
    tan_half = math.tan(0.5 * a)
    sin_a = math.sin(a)
    scale = 4.0 ** (-mu_max)
    margin = 0.3 * GUARD_FRAC * scale
    infl = 1.0 / alpha - 1.0
    if mu_max >= 2:
        right0 = staircase_rect(mu_max)[0]
    else:
        # Reach into the central square: exact abutment would leave a gap
        # between the two alpha-shrinks.
        right0 = -(2.0 * alpha - 1.0) * math.sqrt(0.5)
    levels = math.ceil(math.pi ** 2 / (2.0 * GUARD_FRAC)) + 1
    y_top = (1.0 - 0.5 / levels) * sin_a
    step = y_top / levels
    rects = []
    prev_left = right0
    for k in range(levels):
        # Half-step vertical overlap between consecutive columns; the
        # chord position is taken at the dilation-inflated top so the
        # stored member's corner stays clear of the chord.
        built_top = y_top if k == 0 else y_top * (1.0 - k / levels) + 0.5 * step
        chord_x = -1.0 + tan_half * built_top * (1.0 + infl)
        w_raw = prev_left - chord_x
        if w_raw <= margin:
            continue
        left = chord_x + margin
        right = prev_left + STAIR_OVERLAP * (prev_left - left)
        rects.append((left, right, 0.0, built_top))
        prev_left = left
    # Apex member: owns the band between the top column and the polygon
    # vertex, reaching slightly past the vertex height.  Its left edge
    # clears the next chord up, so at shallow depths (where that chord
    # recedes faster than the band is wide) it degenerates and is skipped;
    # there the central square and the chord families own the apex.
    top_a = 1.01 * sin_a
    vx, vy = quadrant2_vertex(mu_max + 1)
    s_next = chord_slope(mu_max)
    left_a = vx + (top_a * (1.0 + infl) - sin_a) / s_next \
        + 0.15 * GUARD_FRAC * scale
    right_a = right0 + STAIR_OVERLAP * (right0 - left_a)
    if rects and left_a < right_a:
        rects.insert(0, (left_a, right_a, y_top - 2.0 * step, top_a))
    return rects


def central_square() -> tuple:
    h = math.sqrt(0.5)
    return (-h, h, -h, h)


def pole_caps() -> list[tuple]:
    """Two rectangles plugging the lens under each vertical pole vertex.

    The staircase tops at mu = 2 leave the set {|x| < 0.104,
    sqrt(1/2) < y < 0.75 - 0.415 |x|} uncovered; [-0.54, 0.54] x [0, 0.76]
    contains it, stays under chord 1 (1 - (sqrt 2 - 1) * 0.54 = 0.776 >
    0.76), and its 0.99-shrink still swallows the lens.
    """
    return [(-0.54, 0.54, 0.0, 0.76), (-0.54, 0.54, -0.76, 0.0)]


def polygon_cover(mu_max: int, alpha: float, C0: int) -> np.ndarray:
    """Full rectangle cover of the interior of LacunaryPolygon(mu_max), (4, m).

    Central square + pole caps + (1/alpha)-dilated staircase (members
    widened by STAIR_OVERLAP) and truncation fillers (all quadrant
    images) + Whitney rectangle families for up to SHELLS dyadic chord
    shells per chord (a shell is skipped once its inner dilation factor
    would drop below 1/2; the staircase and square own the deep
    interior).

    The staircase members are stored dilated so that their alpha-shrinks
    reproduce the undilated staircase, which touches the horizontal axis;
    undilated members would leave an uncovered sliver along it.  With the
    corrected staircase factors the dilates stay inside the closed polygon
    for alpha >= 0.96 (margin ~0.2 * 4^-mu).  Nothing here checks
    containment: the hypothesis report checks every member once.

    Members come in this order: the square, the caps, the staircase and
    fillers with their mirror images, then each (mu, shell) ring with its
    mirror images.  A degenerate staircase, filler or ring member raises.
    """
    stair2 = [staircase_rect(mu, overlap_frac=STAIR_OVERLAP)
              for mu in range(2, mu_max + 1)]
    stair2.extend(truncation_fillers(mu_max, alpha=alpha))
    parts = [np.transpose([central_square(), *pole_caps()]),
             _mirrored(_dilate(np.transpose(stair2), 1.0 / alpha))]
    for mu in range(1, mu_max + 1):
        for r in range(SHELLS):
            if (2.0 ** (r + 1) - 1.0) * 4.0 ** (-mu) > 0.5:
                break
            parts.append(_mirrored(whitney_shell_rects(mu, r, C0=C0,
                                                       alpha=alpha)))
    return np.concatenate(parts, axis=1)


# ---------------------------------------------------------------------------
# interval projections of one chord family


def _merge_intervals(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Connected components of the union of closed intervals [lo, hi],
    as (count, 2) rows in ascending order; touching intervals merge."""
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    new = np.r_[True, lo[1:] > reach[:-1]]   # interval i opens a component
    return np.column_stack([lo[new], reach[np.r_[new[1:], True]]])


def chord_intervals(mu: int, C0: int, alpha: float) -> dict[int, np.ndarray]:
    """{i: (1/alpha)-dilated components of the i-th projections of chord
    mu's outermost Whitney family}, each a (count, 2) array of ascending
    (lo, hi) rows: i = 1 horizontal, 2 vertical, 3 the reflected sum
    -(J1_R + J2_R) rectangle by rectangle."""
    x0, x1, y0, y1 = whitney_shell_rects(mu, 0, C0=C0, alpha=alpha)
    dil = {}
    for i, (lo, hi) in enumerate(((x0, x1), (y0, y1),
                                  (-(x1 + y1), -(x0 + y0))), 1):
        a, b = _merge_intervals(lo, hi).T
        c, h = 0.5 * (a + b), 0.5 * (b - a) / alpha
        dil[i] = _merge_intervals(c - h, c + h)
    return dil


def interval_overlap_count(families: list[dict], i: int) -> int:
    """Max number of dilated i-intervals of the :func:`chord_intervals`
    families covering a single point.

    Endpoints at depth mu live at scale 4^-mu around O(1) anchors; the
    chord anchors themselves come from stable product-form steps, so the
    sweep decides ties from differences far above roundoff.  At a tie an
    interval closes before the next opens, so touching ones do not overlap.
    """
    ends = np.concatenate([fam[i] for fam in families]).T   # rows lo, hi
    steps = np.repeat([1, -1], ends.shape[1])
    order = np.lexsort((steps, ends.ravel()))
    return int(np.cumsum(steps[order]).max(initial=0))


# ---------------------------------------------------------------------------
# partition of unity


def plateau_profile(t, alpha: float):
    """Even C^inf profile: 1 on [-alpha, alpha], 0 outside (-1, 1)."""
    t = np.abs(np.asarray(t, dtype=float))
    return smooth_ramp((1.0 - t) / (1.0 - alpha))


@dataclass
class PartitionReport:
    """Machine-checked hypotheses for a rectangle cover of an open region:
    `outside` holds the ids of members with a corner outside it."""

    outside: np.ndarray
    cover_misses: int
    m1: int
    m2: float

    @property
    def containment_ok(self) -> bool:
        return len(self.outside) == 0

    @property
    def cover_ok(self) -> bool:
        return self.cover_misses == 0

    @property
    def ok(self) -> bool:
        return self.containment_ok and self.cover_ok


def _slots(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, rank) of every slot when owner k holds counts[k] slots."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - first[owner]


class PolygonPartition:
    """Normalized product-bump partition subordinate to a rectangle cover,
    given as a (4, m) box array.

    Each member R carries eta_R(x, y) = prof((x-cx)/hx) * prof((y-cy)/hy)
    with the canonical plateau profile, so chi_{alpha R} <= eta_R <=
    chi_R exactly; psi_R = eta_R / sum eta.  The weights sum to 1 wherever
    any member's shrink covers the point, which the hypothesis report
    verifies on guarded interior samples.

    Candidate lookup runs on a BUCKETS x BUCKETS grid over the square
    [-1.05, 1.05]^2: every member is listed once per bucket it meets, in
    one array sorted by bucket key (ascending member id within a bucket).
    """

    BUCKETS = 256
    _LO, _HI = -1.05, 1.05

    def __init__(self, polygon: LacunaryPolygon, boxes: np.ndarray,
                 alpha: float):
        self.polygon = polygon
        self.alpha = float(alpha)
        self.boxes = boxes
        x0, x1, y0, y1 = boxes
        self.cx, self.cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        self.hx, self.hy = 0.5 * (x1 - x0), 0.5 * (y1 - y0)

        ix0, iy0 = self._bucket(x0), self._bucket(y0)
        ny = self._bucket(y1) - iy0 + 1
        member, rank = _slots((self._bucket(x1) - ix0 + 1) * ny)
        col, row = np.divmod(rank, ny[member])
        keys = ((ix0 * self.BUCKETS + iy0)[member] + col * self.BUCKETS
                + row).astype(np.uint16)   # BUCKETS**2 keys: a radix sort
        self._members = member[np.argsort(keys, kind="stable")]
        self._offsets = np.r_[0, np.cumsum(np.bincount(
            keys, minlength=self.BUCKETS ** 2))]

    def __len__(self) -> int:
        return self.boxes.shape[1]

    def _bucket(self, coords):
        scale = self.BUCKETS / (self._HI - self._LO)
        idx = np.floor((np.asarray(coords) - self._LO) * scale).astype(int)
        return np.clip(idx, 0, self.BUCKETS - 1)

    def _candidates(self, pts: np.ndarray):
        """(member ids, point ids) of every member listed in each point's
        bucket, point by point."""
        key = self._bucket(pts[:, 0]) * self.BUCKETS + self._bucket(pts[:, 1])
        start = self._offsets[key]
        owners, rank = _slots(self._offsets[key + 1] - start)
        return self._members[start[owners] + rank], owners

    def member_weights(self, pts):
        """Raw bump values: (member ids, point ids, eta) triples, sparse."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ids, owners = self._candidates(pts)
        tx = (pts[owners, 0] - self.cx[ids]) / self.hx[ids]
        ty = (pts[owners, 1] - self.cy[ids]) / self.hy[ids]
        eta = plateau_profile(tx, self.alpha) * plateau_profile(ty, self.alpha)
        keep = eta > 0.0
        return ids[keep], owners[keep], eta[keep]

    def partition_sum(self, pts, weights=None):
        """Sum of normalized weights at each point (0 where nothing covers);
        ``weights``, if given, is the points' :meth:`member_weights`."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ids, owners, eta = weights or self.member_weights(pts)
        denom = np.bincount(owners, weights=eta, minlength=len(pts))
        # float even where no weight lands: a bincount of none is int64
        return np.bincount(owners, weights=eta / denom[owners],
                           minlength=len(pts)).astype(float)

    def shrink_misses(self, pts, weights=None) -> int:
        """Number of points that no member's alpha-shrink covers."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ids, owners, _ = weights or self.member_weights(pts)
        tx = np.abs(pts[owners, 0] - self.cx[ids]) / self.hx[ids]
        ty = np.abs(pts[owners, 1] - self.cy[ids]) / self.hy[ids]
        in_shrink = (tx <= self.alpha) & (ty <= self.alpha)
        hits = np.bincount(owners[in_shrink], minlength=len(pts))
        return int(np.count_nonzero(hits == 0))

    def _comparability(self, ids, owners) -> float:
        """Largest side ratio, widths and heights apart, among members that
        share a point: `ids[i]` covers point `owners[i]`.  1 when no point
        has two members."""
        order = np.argsort(owners, kind="stable")
        ids, owners = ids[order], owners[order]
        first = np.flatnonzero(np.diff(owners, prepend=-1))  # group starts
        shared = np.diff(np.append(first, len(owners))) >= 2
        m2 = 1.0
        if shared.any():
            for dims in (2 * self.hx[ids], 2 * self.hy[ids]):
                hi = np.maximum.reduceat(dims, first)[shared]
                lo = np.minimum.reduceat(dims, first)[shared]
                m2 = max(m2, float((hi / lo).max()))
        return m2

    def hypothesis_report(self, rng, cover_samples: int,
                          overlap_samples: int) -> PartitionReport:
        # (1) every member inside the closed region: all four corners
        inside = _convex_contains(self.polygon.vertices, self.boxes)
        # (2) alpha-shrinks cover guarded interior samples
        misses = self.shrink_misses(
            self.polygon.interior_samples(cover_samples, rng))
        # (3) bounded overlap, (4) comparability of co-covering members.
        # A weight eta > 0 means fl(|p - c| / h) < 1, so |p - c| < h by
        # monotone rounding: every weighted member contains its point.
        pts = self.polygon.interior_samples(overlap_samples, rng)
        ids, owners, _ = self.member_weights(pts)
        counts = np.bincount(owners, minlength=len(pts))
        m1 = int(counts.max()) if len(counts) else 0
        return PartitionReport(outside=np.flatnonzero(~inside),
                               cover_misses=misses, m1=m1,
                               m2=self._comparability(ids, owners))
