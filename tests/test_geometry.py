"""Geometry of the polygon, chord shells, Whitney families, partition."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqbench import experiments as ex, geometry as G

RNG = lambda seed=0: np.random.default_rng(seed)
ALPHA, C0 = 0.99, 4   # the default config's cover parameters


def chord_step(mu):
    """Vertex difference v_{mu+1} - v_mu in product form: both components
    are products of sines of small angles, so no digits cancel at depth."""
    t = math.pi * 2.0 ** (-mu - 2)
    return np.array([-2.0 * math.sin(3.0 * t) * math.sin(t),
                     -2.0 * math.cos(3.0 * t) * math.sin(t)])


def intersects(a, b):
    """Closed rectangles a and b, (x0, x1, y0, y1) each, share a point."""
    return not (a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2])


def corners(boxes):
    """The four corners of each box of a (4, m) array or of one
    (x0, x1, y0, y1) tuple, as (4 m, 2) rows."""
    x0, x1, y0, y1 = np.reshape(boxes, (4, -1))
    return np.concatenate([np.stack([x0, y0], 1), np.stack([x1, y0], 1),
                           np.stack([x1, y1], 1), np.stack([x0, y1], 1)])


def point_boxes(pts):
    """The (4, m) array of degenerate boxes (x, x, y, y) of (m, 2) points,
    or (4, 1) for one point."""
    return np.atleast_2d(np.asarray(pts, dtype=float)).T[[0, 0, 1, 1]]


def deepest_admitted(c0):
    """The deepest chord a partition config admits at this c0."""
    cfg = ex.default_config("partition")
    cfg.c0 = c0
    for mu in range(1, 64):
        cfg.mu_max = mu + 1
        try:
            ex.validate_config(cfg)
        except ValueError:
            return mu
    raise AssertionError(f"no partition depth refused at c0 = {c0}")


def chord_shell(mu, r):
    """Counterclockwise (4, 2) vertices of the quadrilateral between the
    (1-(2^r - 1) 4^-mu)- and (1-(2^(r+1) - 1) 4^-mu)-dilates of the
    polygon, under chord mu (second quadrant).  r = 0 is the outermost
    ring touching the chord."""
    c0 = (2.0 ** r - 1.0) * 4.0 ** (-mu)
    c1 = (2.0 ** (r + 1) - 1.0) * 4.0 ** (-mu)
    va, vb = G.quadrant2_vertex(mu), G.quadrant2_vertex(mu + 1)
    return np.array([(1 - c0) * va, (1 - c0) * vb,
                     (1 - c1) * vb, (1 - c1) * va])


def gap_stop_rects(mu, r, c0, alpha):
    """(boxes, finest side) of one Whitney ring by the older scale loop:
    at most 16 nonempty scales, a 64-step guard, and a stop at the first
    empty scale after a hit or at the first hit no wider than
    G.finest_side."""
    (ax, ay), s, quad = G.shell_frame(mu, r)
    (bx0, by0), (bx1, by1) = quad.min(axis=0), quad.max(axis=0)
    lo_off, hi_full, hi_thin = 2 * c0 + 1, 8 * c0, 4 * c0   # Q = 1
    kept = [np.empty((4, 0))]
    j = math.floor(math.log2(max(bx1 - bx0, by1 - by0)))
    found = 0
    for _ in range(64):
        step = h = 2.0 ** (j - 1)   # Q = 1: the lattice step is a half side
        m_lo = math.floor((bx0 - h) / step) - 1
        m_hi = math.ceil((bx1 + h) / step) + 1
        M, O = np.meshgrid(np.arange(m_lo, m_hi + 1),
                           np.arange(lo_off, (hi_full if found < 2
                                              else hi_thin) + 1),
                           indexing="ij")
        uc, wc, ah = M * step, (M + O) * step, alpha * h
        hit = G.quad_rect_overlap(quad, np.stack([uc - ah, uc + ah,
                                                  wc - ah, wc + ah]))
        if hit.any():
            found += 1
            uh, wh = uc[hit], wc[hit]
            kept.append(np.stack([ax - (uh + h), ax - (uh - h),
                                  ay - s * (wh + h), ay - s * (wh - h)]))
            if 2.0 ** j <= G.finest_side(mu, c0) or found >= 16:
                break
        elif found > 0:
            break
        j -= 1
    return np.concatenate(kept, axis=1), 2.0 ** j


def components(mu):
    """Undilated merged projection components of chord mu's outermost
    Whitney family, i = 1, 2, 3 as in G.chord_intervals."""
    x0, x1, y0, y1 = G.whitney_shell_rects(mu, 0, C0=C0, alpha=ALPHA)
    return {1: G._merge_intervals(x0, x1), 2: G._merge_intervals(y0, y1),
            3: G._merge_intervals(-(x1 + y1), -(x0 + y0))}


def span(comp):
    """(lowest, highest) endpoint of merged (count, 2) components."""
    return comp[0][0], comp[-1][1]


class TestVerticesAndSlopes:
    def test_first_vertex_is_pole(self):
        v = G.quadrant2_vertex(1)
        assert np.allclose(v, [0.0, 1.0], atol=1e-15)

    def test_vertex_depth_three(self):
        v = G.quadrant2_vertex(3)
        assert v[0] == pytest.approx(-0.9238795325112867, abs=1e-15)
        assert v[1] == pytest.approx(0.3826834323650898, abs=1e-15)

    def test_all_vertices_on_unit_circle(self):
        P = G.LacunaryPolygon(6)
        radii = np.linalg.norm(P.vertices, axis=1)
        assert np.max(np.abs(radii - 1.0)) <= 1e-12

    @pytest.mark.parametrize("mu_max", [1, 2, 8, 22])
    def test_vertices_are_exact_mirror_images(self, mu_max):
        # the second-quadrant chain is quadrant2_vertex bit for bit, the
        # vertex set is its own image under exact (-x, y) and (x, -y), and
        # the axis vertices are exact
        v = G.LacunaryPolygon(mu_max).vertices
        assert np.array_equal(v[mu_max + 2:2 * mu_max + 2], [
            G.quadrant2_vertex(mu) for mu in range(2, mu_max + 2)])
        rows = {tuple(p) for p in v}
        assert len(rows) == len(v) == 4 * mu_max + 4
        for flip in ([-1.0, 1.0], [1.0, -1.0]):
            assert {tuple(p) for p in v * flip} == rows
        axis = v[[0, mu_max + 1, 2 * mu_max + 2, 3 * mu_max + 3]]
        assert np.array_equal(axis, [[1, 0], [0, 1], [-1, 0], [0, -1]])

    def test_slope_shallowest_chord_exact(self):
        assert G.chord_slope(1) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-15)

    def test_slope_matches_vertex_difference(self):
        # finite-difference oracle straight from the vertex coordinates
        for mu in range(1, 12):
            va, vb = G.quadrant2_vertex(mu), G.quadrant2_vertex(mu + 1)
            fd = (vb[1] - va[1]) / (vb[0] - va[0])
            assert G.chord_slope(mu) == pytest.approx(fd, rel=1e-9)

    def test_slope_depth_three_frozen(self):
        assert G.chord_slope(3) == pytest.approx(3.29655820893832, rel=1e-12)

    def test_slope_growth_ratio_window(self):
        # s_mu / 2^mu stays inside a fixed window and converges to 4/(3 pi)
        ratios = [G.chord_slope(mu) / 2.0 ** mu for mu in range(1, 21)]
        assert min(ratios) >= 0.207
        assert max(ratios) <= 0.4245
        assert ratios[-1] == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-9)

    def test_chord_step_matches_direct_difference(self):
        for mu in range(1, 15):
            direct = G.quadrant2_vertex(mu + 1) - G.quadrant2_vertex(mu)
            assert np.allclose(chord_step(mu), direct, atol=1e-15)

    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_step_slope_consistency(self, mu):
        dx, dy = chord_step(mu)
        assert dy / dx == pytest.approx(G.chord_slope(mu), rel=1e-12)


class TestPolygonContainment:
    def test_origin_inside_far_point_outside(self):
        P = G.LacunaryPolygon(4)
        assert P.contains(np.array([0.0, 0.0]))[0]
        assert not P.contains(np.array([2.0, 0.0]))[0]

    def test_chord_midpoint_inside_pushed_outside(self):
        P = G.LacunaryPolygon(4)
        mid = 0.5 * (G.quadrant2_vertex(3) + G.quadrant2_vertex(4))
        assert P.contains(mid)[0]
        assert not P.contains(mid * 1.001)[0]

    def test_vertices_are_boundary_points(self):
        P = G.LacunaryPolygon(3)
        assert np.all(P.contains(P.vertices))
        assert not np.any(P.contains(P.vertices * (1.0 + 1e-9)))

    def test_reflection_symmetry(self):
        P = G.LacunaryPolygon(5)
        pts = RNG(3).uniform(-1.1, 1.1, size=(500, 2))
        base = P.contains(pts)
        assert np.array_equal(base, P.contains(pts * np.array([-1.0, 1.0])))
        assert np.array_equal(base, P.contains(pts * np.array([1.0, -1.0])))

    @staticmethod
    def near_boundary(verts, rng):
        """(near, all): `near` holds eight points within 1e-9 and eight
        within 4 SLACK of every vertex and of one point on every edge;
        `all` adds those sites themselves (on the boundary up to rounding)
        and 500 points around the loop."""
        nxt = np.roll(verts, -1, axis=0)
        along = verts + rng.uniform(size=(len(verts), 1)) * (nxt - verts)
        sites = np.concatenate([verts, along])
        near = np.repeat(sites, 16, axis=0)
        reach = np.tile(np.repeat([1e-9, 4 * G.SLACK], 8), len(sites))
        near += rng.uniform(-1.0, 1.0, size=near.shape) * reach[:, None]
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        pad = 0.1 * (hi - lo)
        return near, np.concatenate([
            rng.uniform(lo - pad, hi + pad, size=(500, 2)), near, sites])

    @staticmethod
    def broadcast_contains(verts, pts, slack=G.SLACK):
        """The (points x edges) containment test: every cross product, taken
        from the edge's midpoint, at least -slack times its edge's length."""
        v, nxt = verts, np.roll(verts, -1, axis=0)
        (ex, ey), m = (nxt - v).T, 0.5 * (v + nxt)
        cross = (ex[None, :] * (pts[:, 1:2] - m[None, :, 1])
                 - ey[None, :] * (pts[:, 0:1] - m[None, :, 0]))
        return np.all(cross >= -slack * np.hypot(ex, ey), axis=1)

    @pytest.mark.parametrize("mu_max", [2, 5, 8, 22])
    def test_near_edge_verdicts_are_mirror_symmetric(self, mu_max):
        # points and boxes within 4 SLACK of the edges, where the slack
        # decides, keep their verdicts bit for bit under (-x, y), (x, -y)
        # and (-x, -y): the mirrored edge runs from its other end, and
        # only a midpoint anchor gives it the same cross products
        P = G.LacunaryPolygon(mu_max)
        rng = RNG(mu_max)
        v, nxt = P.vertices, np.roll(P.vertices, -1, axis=0)
        k = rng.integers(len(v), size=20000)
        pts = (v[k] + rng.uniform(size=(len(k), 1)) * (nxt - v)[k]
               + rng.uniform(-4.0, 4.0, size=(len(k), 2)) * G.SLACK)
        lo = pts.T - rng.uniform(0.0, 4.0, size=(2, len(k))) * G.SLACK
        boxes = np.stack([lo[0], pts[:, 0], lo[1], pts[:, 1]])
        base = P.contains(pts)
        base_boxes = G._convex_contains(v, boxes)
        assert 0 < base.sum() < len(pts)
        assert 0 < base_boxes.sum() < len(k)
        for fx, fy in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
            assert np.array_equal(P.contains(pts * [fx, fy]), base)
            x0, x1 = (boxes[:2] if fx > 0 else -boxes[1::-1])
            y0, y1 = (boxes[2:] if fy > 0 else -boxes[:1:-1])
            assert np.array_equal(
                G._convex_contains(v, np.stack([x0, x1, y0, y1])), base_boxes)

    def test_edge_loops_match_broadcast(self, monkeypatch):
        # the per-edge loops, with the edge cull per chunk of points, must
        # reproduce the (points x edges) broadcast bit for bit, also for
        # points within 1e-9 and within a few SLACK of edges and vertices,
        # where the per-edge slack decides; sorted by angle about
        # the region's centre, small chunks hug the boundary and straddle
        # its edges, and one-point chunks hold the cull to the point's own
        # cross products
        rng = RNG(7)
        bad = np.array([[np.nan, 0.0], [0.0, np.nan], [np.inf, 0.0],
                        [-np.inf, 0.1], [0.2, np.inf], [0.0, -np.inf],
                        [np.inf, np.inf], [-np.inf, np.inf]])

        def check(verts, contains, pts):
            rel = pts - verts.mean(axis=0)
            pts = pts[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]),
                                 kind="stable")]
            # one non-finite point every 37 rows, amid finite ones
            at = np.arange(len(bad)) * 37 + 5
            pts = np.insert(pts, at, bad, axis=0)
            with np.errstate(invalid="ignore"):
                got = contains(pts)
                ref = self.broadcast_contains(verts, pts)
                strict = self.broadcast_contains(verts, pts, 0.0)
            assert np.array_equal(got, ref)
            assert not got[at + np.arange(len(bad))].any()
            # the slack admits some points the strict test refuses
            return (got & ~strict).any()

        regions = [(P.vertices, P.contains) for P in
                   map(G.LacunaryPolygon, (1, 5, 8, 12))]
        shell = chord_shell(3, 0)
        regions.append((shell, lambda pts: G._convex_contains(
            shell, point_boxes(pts))))
        loose = []
        for chunk in (G.CONTAIN_CHUNK, 16, 1):
            monkeypatch.setattr(G, "CONTAIN_CHUNK", chunk)
            for verts, contains in regions:
                near, pts = self.near_boundary(verts, rng)
                loose.append(check(verts, contains, pts))
                # the near points straddle the boundary
                assert 0 < contains(near).sum() < len(near)
        assert any(loose)

        P = G.LacunaryPolygon(5)
        v, nxt = P.vertices, np.roll(P.vertices, -1, axis=0)
        _, pts = self.near_boundary(v, rng)
        a = v[None, :, :]
        d = (nxt - v)[None, :, :]
        t = np.clip(np.sum((pts[:, None, :] - a) * d, axis=2)
                    / np.sum(d * d, axis=2), 0.0, 1.0)
        ref = np.linalg.norm(pts[:, None, :] - (a + t[:, :, None] * d), axis=2)
        assert np.array_equal(P.edge_distances(pts), ref)

    def test_box_loops_match_corner_broadcast(self, monkeypatch):
        # one extreme corner per edge must give the AND of the broadcast
        # over all four corners, bit for bit: boxes hug every edge and
        # vertex (sides from 0 to 1e-3 about points within 1e-9 of the
        # boundary), sorted by angle so that small chunks straddle edges,
        # and a NaN in any one coordinate refuses its box
        rng = RNG(12)
        regions = [G.LacunaryPolygon(mu).vertices for mu in (1, 5, 8, 12)]
        regions.append(chord_shell(3, 0))
        for chunk in (G.CONTAIN_CHUNK, 16, 1):
            monkeypatch.setattr(G, "CONTAIN_CHUNK", chunk)
            for verts in regions:
                _, pts = self.near_boundary(verts, rng)
                side = (rng.choice([0.0, 1e-9, 1e-6, 1e-3], size=(2, len(pts)))
                        * rng.uniform(size=(2, len(pts))))
                lo = pts.T - rng.uniform(size=(2, len(pts))) * side
                boxes = np.stack([lo[0], lo[0] + side[0],
                                  lo[1], lo[1] + side[1]])
                rel = 0.5 * (boxes[[0, 2]] + boxes[[1, 3]]).T \
                    - verts.mean(axis=0)
                boxes = boxes[:, np.argsort(np.arctan2(rel[:, 1], rel[:, 0]),
                                            kind="stable")]
                # one NaN coordinate, each row in turn, every 29 boxes
                at = np.arange(8) * 29 + 3
                boxes[at % 4, at] = np.nan
                got = G._convex_contains(verts, boxes)
                with np.errstate(invalid="ignore"):
                    per_corner = self.broadcast_contains(
                        verts, corners(boxes)).reshape(4, -1)
                assert np.array_equal(got, per_corner.all(axis=0))
                assert not got[at].any()
                # some boxes straddle an edge: corners on both sides
                assert (per_corner.any(axis=0) & ~got).any()

    def test_interior_samples_match_full_distance_reference(self):
        # the apothem disc only skips edge_distances, and the slack only
        # admits points the guard refuses: the same points, bit for bit,
        # from the same stream of draws as a strict (zero-slack) reference
        strict = TestPolygonContainment.broadcast_contains

        def reference(P, count, rng):
            eff_mu = np.minimum(P.edge_mu, P.mu_max).astype(float)
            guards = G.GUARD_FRAC * 4.0 ** (-eff_mu)
            out, need = [], count
            while need > 0:
                pts = rng.uniform(-1.0, 1.0, size=(max(4 * need, 256), 2))
                pts = pts[strict(P.vertices, pts, 0.0)]
                keep = np.all(P.edge_distances(pts) > guards[None, :], axis=1)
                pts = pts[keep]
                out.append(pts[:need])
                need -= len(pts[:need])
            return np.concatenate(out, axis=0)

        for mu_max in (1, 2, 8, 23):
            P = G.LacunaryPolygon(mu_max)
            for seed in range(4):
                got_rng, want_rng = RNG(seed), RNG(seed)
                got = P.interior_samples(1000 + 300 * seed, got_rng)
                want = reference(P, 1000 + 300 * seed, want_rng)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                assert (got_rng.bit_generator.state
                        == want_rng.bit_generator.state)

    def test_interior_samples_respect_guard(self):
        P = G.LacunaryPolygon(3)
        pts = P.interior_samples(300, RNG(1))
        assert np.all(P.contains(pts))
        eff = np.minimum(P.edge_mu, P.mu_max).astype(float)
        guards = 0.2 * 4.0 ** (-eff)
        assert np.all(P.edge_distances(pts) > guards[None, :])


class TestChordShells:
    def test_outer_shell_vertices(self):
        mu = 3
        T = chord_shell(mu, 0)
        inner = (1.0 - 2.0 ** (-2 * mu)) * G.quadrant2_vertex(mu)
        assert any(np.allclose(v, inner, atol=1e-15) for v in T)

    def test_chord_midpoint_on_shell_boundary(self):
        mu = 2
        T = chord_shell(mu, 0)
        mid = 0.5 * (G.quadrant2_vertex(mu) + G.quadrant2_vertex(mu + 1))
        assert G._convex_contains(T, point_boxes(mid)).all()
        assert not G._convex_contains(T, point_boxes(mid * (1.0 + 1e-6))).any()

    def test_area_against_sectional_quadrature(self):
        # slice the quad horizontally; width(y) is piecewise linear, so the
        # trapezoid rule over the vertex breakpoints is exact
        v = chord_shell(2, 0)
        x, y = v.T
        # the signed shoelace area, positive for counterclockwise vertices
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        ys = np.unique(v[:, 1])
        breaks = np.unique(np.concatenate([ys, 0.5 * (ys[:-1] + ys[1:])]))

        def width(y):
            xs = []
            for (x1, y1), (x2, y2) in zip(v, np.roll(v, -1, axis=0)):
                if (y1 - y) * (y2 - y) <= 0 and y1 != y2:
                    t = (y - y1) / (y2 - y1)
                    xs.append(x1 + t * (x2 - x1))
            return max(xs) - min(xs) if len(xs) >= 2 else 0.0

        quad_area = np.trapezoid([width(y) for y in breaks], breaks)
        assert area == pytest.approx(quad_area, abs=1e-12)
        assert area == pytest.approx(0.02317028594397999, rel=1e-12)

    def test_shells_nest_inward(self):
        for r in range(3):
            sh = chord_shell(3, r)
            nxt = chord_shell(3, r + 1)
            assert np.max(np.linalg.norm(nxt, axis=1)) <= \
                np.max(np.linalg.norm(sh, axis=1)) + 1e-15

    def test_local_frame_diagonal(self):
        # the chord itself pulls back onto the diagonal u = w
        _, _, c = G.shell_frame(4, 0)
        diag = [v for v in c if abs(v[0] - v[1]) < 1e-15]
        assert len(diag) == 2
        g = G.chord_diag_span(4)
        assert any(abs(v[0] - g) < 1e-15 for v in diag)


class TestWhitneyFamilies:
    @staticmethod
    def assert_band_conditions(mu):
        # pull every centre back through the shell frame: it must sit on
        # the 2^(j-Q) lattice at an offset n - m with C0-dilate clear of
        # the diagonal and 4C0-dilate meeting it
        x0, x1, y0, y1 = G.whitney_shell_rects(mu, 0, C0=C0, alpha=ALPHA)
        assert len(x0) > 0
        (ax, ay), slope, _ = G.shell_frame(mu, 0)
        side = x1 - x0
        j = np.round(np.log2(side))
        assert np.allclose(side, 2.0 ** j, rtol=1e-12, atol=0.0)
        assert np.allclose(y1 - y0, slope * side, rtol=1e-12, atol=0.0)
        u = ax - 0.5 * (x0 + x1)
        w = (ay - 0.5 * (y0 + y1)) / slope
        offset = (w - u) / 2.0 ** (j - G.Q)
        k = np.round(offset)
        assert np.max(np.abs(offset - k)) < 1e-6
        assert np.all(k > C0 * 2 ** G.Q)
        assert np.all(k <= 4 * C0 * 2 ** G.Q)

    def test_members_satisfy_band_conditions(self):
        for mu in (2, 5):
            self.assert_band_conditions(mu)

    def test_retention_touches_shell(self):
        # alpha-dilate of each member must meet the absolute shell quad
        boxes = G.whitney_shell_rects(3, 0, C0=C0, alpha=ALPHA)
        m = boxes.shape[1]
        idx = RNG(2).choice(m, size=min(300, m), replace=False)
        shrunk = G._dilate(boxes[:, idx], 0.99)
        assert G.quad_rect_overlap(chord_shell(3, 0), shrunk).all()

    def test_corners_inside_polygon(self):
        P = G.LacunaryPolygon(8)
        boxes = G.whitney_shell_rects(2, 0, C0=C0, alpha=ALPHA)
        assert np.all(P.contains(corners(boxes)))

    def test_shrinks_cover_guarded_shell_points(self):
        mu = 2
        x0, x1, y0, y1 = G.whitney_shell_rects(mu, 0, C0=C0, alpha=ALPHA)
        P = G.LacunaryPolygon(8)
        T = chord_shell(mu, 0)
        pts = RNG(11).uniform(T.min(axis=0), T.max(axis=0), size=(4000, 2))
        pts = pts[G._convex_contains(T, point_boxes(pts))]
        eff = np.minimum(P.edge_mu, P.mu_max).astype(float)
        guards = 0.2 * 4.0 ** (-eff)
        pts = pts[np.all(P.edge_distances(pts) > guards[None, :], axis=1)]
        assert len(pts) > 100
        alpha = 0.99
        cx = 0.5 * (x0 + x1)
        cy = 0.5 * (y0 + y1)
        hx = 0.5 * (x1 - x0) * alpha
        hy = 0.5 * (y1 - y0) * alpha
        covered = np.zeros(len(pts), dtype=bool)
        for a0, a1, b0, b1 in zip(cx - hx, cx + hx, cy - hy, cy + hy):
            covered |= ((pts[:, 0] >= a0) & (pts[:, 0] <= a1)
                        & (pts[:, 1] >= b0) & (pts[:, 1] <= b1))
        assert covered.all()

    def test_empty_scale_range_not_fatal(self, monkeypatch):
        monkeypatch.setattr(G, "GUARD_FRAC", 1e9)
        boxes = G.whitney_shell_rects(1, 0, C0=C0, alpha=ALPHA)
        assert boxes.shape[0] == 4  # early stop, still a box array


def literal_staircase(mu):
    """The staircase rectangle's displayed closed form."""
    a = math.pi * 2.0 ** (-mu)
    outer = (1.0 - 4.0 ** (-mu)) * math.cos(a / 2.0)
    inner = (1.0 - 4.0 ** (-mu + 1)) * math.cos(a)
    top = (1.0 - 4.0 ** (-mu)) * math.sin(a)
    return (-outer, -inner, 0.0, top)


class TestStaircase:
    def test_literal_endpoints_depth_two(self):
        x0, x1, y0, y1 = literal_staircase(2)
        assert x0 == pytest.approx(-(15.0 / 16.0) * math.cos(math.pi / 8), abs=1e-15)
        assert x1 == pytest.approx(-(3.0 / 4.0) * math.cos(math.pi / 4), abs=1e-15)
        assert y0 == 0.0
        assert y1 == pytest.approx((15.0 / 16.0) * math.sin(math.pi / 4), abs=1e-15)

    def test_literal_corner_pokes_out(self):
        # the displayed closed form is inconsistent with the polygon; the
        # working variant fixes the dilation factors
        P = G.LacunaryPolygon(8)
        for mu in range(2, 7):
            x0, _, _, y1 = literal_staircase(mu)
            assert not P.contains(np.array([x0, y1]))[0]

    def test_working_corners_inside(self):
        P = G.LacunaryPolygon(10)
        for mu in range(2, 10):
            assert P.contains(corners(G.staircase_rect(mu))).all()

    def test_members_abut_exactly(self):
        for mu in range(2, 12):
            a = G.staircase_rect(mu)
            b = G.staircase_rect(mu + 1)
            assert a[0] == b[1]  # identical closed forms, identical floats

    def test_innermost_member_reaches_axis_mirror(self):
        assert G.staircase_rect(2)[1] == 0.0

    def test_dilated_members_stay_inside(self):
        P = G.LacunaryPolygon(10)
        for mu in range(2, 10):
            d = G._dilate(np.transpose([G.staircase_rect(mu)]), 1.0 / 0.99)
            assert P.contains(corners(d)).all()

    def test_truncation_fillers_inside_and_overlapping(self):
        for mu_max in (1, 4, 8):
            P = G.LacunaryPolygon(mu_max)
            fs = G.truncation_fillers(mu_max, ALPHA)
            assert len(fs) >= 2
            d = G._dilate(np.transpose(fs), 1.0 / 0.99)
            assert P.contains(corners(d)).all()
            for prev, nxt in zip(fs, fs[1:]):
                assert intersects(nxt, prev)  # consecutive levels overlap
            if mu_max >= 2:
                assert intersects(fs[0], G.staircase_rect(mu_max))


def tuple_merge(pairs):
    """Reference merge: sort the pairs, then grow the last component."""
    pairs = sorted(pairs)
    out = [list(pairs[0])]
    for a, b in pairs[1:]:
        if a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


class TestIntervalFamilies:
    def test_merge_matches_tuple_loop(self):
        rng = RNG(12)
        for n in (1, 2, 5, 40, 300):
            # quarter-integer endpoints: exact ties, duplicates, touching
            # and zero-length intervals all occur
            lo = rng.integers(0, 60, n) / 4.0
            hi = lo + rng.integers(0, 8, n) / 4.0
            lo = np.concatenate([lo, lo[: n // 3]])
            hi = np.concatenate([hi, hi[: n // 3]])
            got = G._merge_intervals(lo, hi)
            assert [tuple(r) for r in got] == tuple_merge(zip(lo, hi))

    def test_reflected_sum_construction(self):
        # every third-index component endpoint comes from -(J1_R + J2_R)
        x0, x1, y0, y1 = G.whitney_shell_rects(3, 0, C0=C0, alpha=ALPHA)
        lo = np.min(-(x1 + y1))
        hi = np.max(-(x0 + y0))
        a, b = span(components(3)[3])
        assert a == pytest.approx(lo, abs=1e-15)
        assert b == pytest.approx(hi, abs=1e-15)

    def test_unions_connected(self):
        for mu in (1, 4, 9):
            comps, fam = components(mu), G.chord_intervals(mu, C0, ALPHA)
            for i in (1, 2, 3):
                assert len(comps[i]) == 1 and fam[i].shape == (1, 2)

    def test_dilate_factor(self):
        comps, fam = components(2), G.chord_intervals(2, C0, ALPHA)
        for i in (1, 2, 3):
            (a, b), (da, db) = comps[i][0], fam[i][0]
            assert (db - da) == pytest.approx((b - a) / 0.99, rel=1e-12)
            assert da < a and db > b

    def test_overlap_count_stable_in_depth(self):
        fams10 = [G.chord_intervals(mu, C0, ALPHA) for mu in range(1, 11)]
        fams20 = fams10 + [G.chord_intervals(mu, C0, ALPHA) for mu in range(11, 21)]
        for i in (1, 2, 3):
            c10 = G.interval_overlap_count(fams10, i)
            c20 = G.interval_overlap_count(fams20, i)
            assert c10 == c20 == 2  # recorded value: no growth with depth

    def test_overlap_count_matches_event_loop(self):
        # the sorted sweep gives the tuple-sorted event loop's count, where
        # at a tie an interval closes before the next one opens
        def loop(families, i):
            events = sorted([(a, 1) for fam in families for a, _ in fam[i]]
                            + [(b, -1) for fam in families for _, b in fam[i]])
            best = cur = 0
            for _, delta in events:
                cur += delta
                best = max(best, cur)
            return best

        rng = RNG(13)
        counts = set()
        for _ in range(200):
            families = []
            for _ in range(rng.integers(1, 5)):
                lo = rng.integers(0, 12, size=rng.integers(0, 6)) / 4.0
                hi = lo + rng.integers(0, 5, size=len(lo)) / 4.0
                families.append({1: np.column_stack([lo, hi])})
            got = G.interval_overlap_count(families, 1)
            assert got == loop(families, 1) and type(got) is int
            counts.add(got)
        assert counts >= {0, 1, 2, 3}
        fams = [G.chord_intervals(mu, C0, ALPHA) for mu in range(1, 21)]
        for i in (1, 2, 3):
            assert G.interval_overlap_count(fams, i) == loop(fams, i)

    def test_vertical_extent_shrinks_geometrically(self):
        widths = []
        for mu in (4, 5, 6):
            a, b = span(components(mu)[2])
            widths.append(b - a)
        assert 1.7 < widths[0] / widths[1] < 2.3
        assert 1.7 < widths[1] / widths[2] < 2.3


def point_loop_m2(part, ids, owners, n_points):
    """Reference comparability: the per-point loop over each point's
    covering members, widths and heights apart."""
    m2 = 1.0
    order = np.argsort(owners, kind="stable")
    ids_sorted, owners_sorted = ids[order], owners[order]
    bounds = np.searchsorted(owners_sorted, np.arange(n_points + 1))
    for pi in range(n_points):
        group = ids_sorted[bounds[pi]:bounds[pi + 1]]
        if len(group) < 2:
            continue
        for dims in (2 * part.hx[group], 2 * part.hy[group]):
            m2 = max(m2, float(dims.max() / dims.min()))
    return m2


def covering(part, pts):
    """(member ids, point ids) of every closed member containing a point."""
    ids, owners, _ = part.member_weights(pts)
    inside = ((np.abs(pts[owners, 0] - part.cx[ids]) <= part.hx[ids])
              & (np.abs(pts[owners, 1] - part.cy[ids]) <= part.hy[ids]))
    return ids[inside], owners[inside]


class TestPartition:
    def test_singleton_weight_is_one(self):
        P = G.LacunaryPolygon(2)
        part = G.PolygonPartition(P, np.transpose([(-0.5, 0.5, -0.5, 0.5)]),
                                  alpha=0.9)
        pts = RNG(4).uniform(-0.44, 0.44, size=(200, 2))
        s = part.partition_sum(pts)
        assert np.max(np.abs(s - 1.0)) < 1e-15

    def test_two_member_normalization(self):
        # engineer raw bump values 0.5 and 0.25 at one point; the
        # normalized weights must be 2/3 and 1/3
        alpha = 0.5
        px, py = 0.1, 0.2
        off = 0.5 * (1.0 + alpha)  # profile crosses 1/2 at this offset
        r1 = (px - off - 1.0, px - off + 1.0, py - 1.0, py + 1.0)
        r2 = (px - off - 1.0, px - off + 1.0, py - off - 1.0, py - off + 1.0)
        P = G.LacunaryPolygon(2)
        part = G.PolygonPartition(P, np.transpose([r1, r2]), alpha=alpha)
        ids, _, eta = part.member_weights([[px, py]])
        assert ids.tolist() == [0, 1]
        assert eta == pytest.approx([0.5, 0.25], abs=1e-12)
        w = eta / eta.sum()
        assert w[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert w[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert part.partition_sum([[px, py]])[0] == pytest.approx(1.0,
                                                                  abs=1e-15)

    def test_sum_is_float_where_nothing_covers(self):
        # a bincount over no weights is int64; the sum must not follow it
        P = G.LacunaryPolygon(4)
        part = G.PolygonPartition(P, G.polygon_cover(4, 0.5, 2.0), alpha=0.5)
        for pts in ([[3, 0], [0, -3]], np.empty((0, 2))):
            s = part.partition_sum(pts)
            assert s.dtype == np.float64 and s.tolist() == [0.0] * len(pts)
        # covered points keep the bits of the normalized bincount
        pts = np.vstack([RNG(5).uniform(-0.3, 0.3, size=(50, 2)), [[3, 0]]])
        _, owners, eta = part.member_weights(pts)
        denom = np.bincount(owners, weights=eta, minlength=len(pts))
        want = np.bincount(owners, weights=eta / denom[owners],
                           minlength=len(pts))
        got = part.partition_sum(pts)
        assert got.dtype == np.float64 and (want[:-1] > 0).all()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_profile_sandwich(self):
        t = np.linspace(-1.3, 1.3, 2001)
        vals = G.plateau_profile(t, 0.8)
        assert np.all(vals[np.abs(t) <= 0.8] == 1.0)
        assert np.all(vals[np.abs(t) >= 1.0] == 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_member_weights_match_dense_evaluation(self):
        P = G.LacunaryPolygon(3)
        part = G.PolygonPartition(P, G.polygon_cover(3, ALPHA, C0), alpha=ALPHA)
        pts = RNG(8).uniform(-1.1, 1.1, size=(300, 2))
        ids, owners, eta = part.member_weights(pts)
        tx = (pts[:, None, 0] - part.cx[None, :]) / part.hx[None, :]
        ty = (pts[:, None, 1] - part.cy[None, :]) / part.hy[None, :]
        dense = G.plateau_profile(tx, 0.99) * G.plateau_profile(ty, 0.99)
        d_owner, d_id = np.nonzero(dense > 0.0)   # point-major, ids ascending
        assert len(ids) > len(pts)
        assert np.array_equal(owners, d_owner)
        assert np.array_equal(ids, d_id)
        assert np.array_equal(eta, dense[d_owner, d_id])

    def test_full_cover_hypotheses_and_sum(self):
        P = G.LacunaryPolygon(4)
        part = G.PolygonPartition(P, G.polygon_cover(4, ALPHA, C0), alpha=ALPHA)
        rng = RNG(9)
        rep = part.hypothesis_report(rng, cover_samples=1500, overlap_samples=1000)
        assert rep.containment_ok
        assert rep.cover_ok
        assert rep.m1 >= 1 and np.isfinite(rep.m2)
        pts = P.interior_samples(1500, rng)
        s = part.partition_sum(pts)
        assert np.max(np.abs(s - 1.0)) <= 1e-9

    def test_comparability_matches_point_loop(self):
        P = G.LacunaryPolygon(4)
        part = G.PolygonPartition(P, G.polygon_cover(4, ALPHA, C0), alpha=ALPHA)
        rng = RNG(10)
        wide = rng.uniform(-1.2, 1.2, size=(3000, 2))
        ids, owners = covering(part, wide)
        count = np.bincount(owners, minlength=len(wide))
        single = wide[count == 1]   # exactly one member covers each
        assert len(single) > 0 and (count == 0).any()
        sets = [P.interior_samples(1000, rng), wide, single,
                wide[count == 0], np.array([[3.0, 0.0], [0.0, -3.0]]),
                np.empty((0, 2))]
        # small subsets too, so that the maximum is not always one pair
        sets += [pts[rng.choice(len(pts), size=12, replace=False)]
                 for pts in sets[:2] for _ in range(40)]
        ratios = []
        for pts in sets:
            ids, owners = covering(part, pts)
            # pairs in any order: the report sorts them by point
            perm = rng.permutation(len(ids))
            got = part._comparability(ids[perm], owners[perm])
            assert got == point_loop_m2(part, ids, owners, len(pts))
            ratios.append(got)
        assert ratios[0] > 1.0 and ratios[2:6] == [1.0] * 4
        assert len(set(ratios[6:])) > 10

    @pytest.mark.parametrize("mu_max, c0", [(8, 4), (2, 2), (12, 9)])
    def test_bucket_index_matches_searchsorted(self, mu_max, c0):
        # the counting sort lists the same members in the same order as a
        # stable argsort of int64 keys with searchsorted bucket offsets
        part = G.PolygonPartition(G.LacunaryPolygon(mu_max),
                                  G.polygon_cover(mu_max, ALPHA, c0), ALPHA)
        x0, x1, y0, y1 = part.boxes
        ix0, iy0 = part._bucket(x0), part._bucket(y0)
        ny = part._bucket(y1) - iy0 + 1
        member, rank = G._slots((part._bucket(x1) - ix0 + 1) * ny)
        keys = ((ix0[member] + rank // ny[member]) * part.BUCKETS
                + iy0[member] + rank % ny[member])
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(part._members, member[order])
        assert np.array_equal(part._offsets, np.searchsorted(
            keys[order], np.arange(part.BUCKETS ** 2 + 1)))

    def test_report_checks_members_in_one_box_pass(self, monkeypatch):
        # containment takes the (4, m) members in one pass; the point
        # test sees only the draws of the guarded samples
        P = G.LacunaryPolygon(3)
        part = G.PolygonPartition(P, G.polygon_cover(3, ALPHA, C0), ALPHA)
        widths = []
        box_pass = G._convex_contains
        monkeypatch.setattr(G, "_convex_contains", lambda verts, boxes:
                            widths.append(boxes.shape[1])
                            or box_pass(verts, boxes))
        part.hypothesis_report(RNG(2), cover_samples=300, overlap_samples=200)
        assert widths[0] == len(part) > 1024
        assert len(part) not in widths[1:]   # the rest are sample draws

    def test_bad_containment_is_reported_with_witnesses(self):
        P = G.LacunaryPolygon(2)
        boxes = np.transpose([G.central_square(), (0.5, 1.2, -0.1, 0.1)])
        part = G.PolygonPartition(P, boxes, alpha=ALPHA)
        rep = part.hypothesis_report(RNG(1), cover_samples=200, overlap_samples=100)
        assert not rep.containment_ok and not rep.ok
        assert rep.outside.tolist() == [1]

    def test_shrink_misses_counts_points_outside_every_shrink(self):
        P = G.LacunaryPolygon(2)
        part = G.PolygonPartition(P, np.transpose([(-0.5, 0.5, -0.5, 0.5),
                                                   (0.0, 0.6, 0.0, 0.6)]),
                                  alpha=0.5)
        # inside the first shrink, inside the second only, inside a member
        # but no shrink, and outside every member
        pts = [[0.1, -0.1], [0.4, 0.4], [-0.4, 0.0], [0.9, 0.9]]
        assert part.shrink_misses(pts) == 2
        assert part.shrink_misses(np.empty((0, 2))) == 0

    def test_cover_hole_is_reported(self):
        P = G.LacunaryPolygon(2)
        part = G.PolygonPartition(P, np.transpose([G.central_square()]),
                                  alpha=ALPHA)
        rep = part.hypothesis_report(RNG(1), cover_samples=400, overlap_samples=100)
        assert not rep.cover_ok
        assert rep.cover_misses > 0


class TestCoverCollection:
    def test_every_ring_inside_smallest_polygon(self):
        # the cover keeps every Whitney member unchecked; each ring of
        # every chord mu a partition admits must already lie in
        # LacunaryPolygon(mu), the smallest polygon with that chord, which
        # every deeper polygon contains.  Each ring is also byte-equal to
        # the older gap-stop loop's, which stopped at G.finest_side, so no
        # scale above it is empty.  About 4 s on a 2-vCPU VM.
        rings = 0
        for c0 in (2, 9, 16):
            for mu in range(1, deepest_admitted(c0) + 1):
                P = G.LacunaryPolygon(mu)
                shells = [r for r in range(G.SHELLS)
                          if (2.0 ** (r + 1) - 1.0) * 4.0 ** (-mu) <= 0.5]
                for alpha in (0.3, 0.99):
                    for r in shells:
                        boxes = G.whitney_shell_rects(mu, r, C0=c0,
                                                      alpha=alpha)
                        assert P.contains(corners(boxes)).all()
                        old, finest = gap_stop_rects(mu, r, c0, alpha)
                        assert old.tobytes() == boxes.tobytes()
                        assert finest == G.finest_side(mu, c0)
                        rings += 1
        assert rings == 378   # chords 1-22 at c0 2 and 9, 1-21 at c0 16

    @pytest.mark.parametrize("c0", [2, 4, 9, 10, 16])
    def test_every_admitted_chord_is_resolved(self, c0):
        # at every chord a partition admits, each edge midpoint of that
        # chord is inside and a point one thinnest-member width outside it
        # is refused: a member poking out by its own width is seen
        deepest = deepest_admitted(c0)
        P = G.LacunaryPolygon(deepest)
        v, nxt = P.vertices, np.roll(P.vertices, -1, axis=0)
        ex, ey = (nxt - v).T
        outward = np.stack([ey, -ex], 1) / np.hypot(ex, ey)[:, None]
        for mu in range(1, deepest + 1):
            x0, x1, y0, y1 = G.whitney_shell_rects(mu, 0, C0=c0, alpha=ALPHA)
            width = min((x1 - x0).min(), (y1 - y0).min())
            edges = np.flatnonzero(P.edge_mu == mu)   # one per quadrant
            mid = 0.5 * (v[edges] + nxt[edges])
            assert len(edges) == 4 and width > 0
            assert P.contains(mid).all(), mu
            assert not P.contains(mid + width * outward[edges]).any(), mu

    def test_corners_inside_refuses_any_corner_out(self):
        # the report alone checks containment: one box inside, then one
        # poking out in each of the four directions
        P = G.LacunaryPolygon(2)
        boxes = np.transpose([(-0.1, 0.1, -0.1, 0.1), (0.5, 1.2, -0.1, 0.1),
                              (-1.2, -0.5, -0.1, 0.1), (-0.1, 0.1, 0.5, 1.2),
                              (-0.1, 0.1, -1.2, -0.5)])
        part = G.PolygonPartition(P, boxes, alpha=ALPHA)
        rep = part.hypothesis_report(RNG(1), cover_samples=200, overlap_samples=100)
        assert not rep.containment_ok and not rep.ok
        assert rep.outside.tolist() == [1, 2, 3, 4]

    def test_cover_equals_its_mirror_images(self):
        # as multisets of boxes, compared exactly: the cover is its own
        # image under x -> -x and under y -> -y
        def multiset(boxes):
            return boxes[:, np.lexsort(boxes[::-1])]

        for mu_max in range(1, 9):
            x0, x1, y0, y1 = boxes = G.polygon_cover(mu_max, ALPHA, C0)
            for image in ([-x1, -x0, y0, y1], [x0, x1, -y1, -y0]):
                assert np.array_equal(multiset(np.array(image)),
                                      multiset(boxes))

    def test_small_polygon_covers(self):
        for mu_max in (1, 2):
            P = G.LacunaryPolygon(mu_max)
            part = G.PolygonPartition(P, G.polygon_cover(mu_max, ALPHA, C0),
                                      alpha=ALPHA)
            rep = part.hypothesis_report(RNG(6), cover_samples=800,
                                         overlap_samples=300)
            assert rep.containment_ok and rep.cover_ok

    @pytest.mark.parametrize("mu_max,c0", [(24, C0), (23, 10)])
    def test_unresolvable_chord_refused(self, mu_max, c0):
        # the last chord's Whitney members are about 4**-mu_max / c0 wide,
        # too thin for a double to keep both sides apart; the config domain
        # stops two steps short of these (22, and 21 from c0 10 on), at the
        # last chord whose thinnest members are wider than the slack
        with pytest.raises(ValueError, match="degenerate rectangle"):
            G.polygon_cover(mu_max, ALPHA, c0)


def test_one_containment_slack():
    # containment has one slack, SLACK: no function in the package takes a
    # tolerance parameter, and no call of contains or _convex_contains is
    # handed a float literal
    for path in sorted(Path(G.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                assert not [n for n in names if n.endswith("tol")], \
                    (path.name, node.lineno)
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in ("contains", "_convex_contains"):
                    args = node.args + [k.value for k in node.keywords]
                    floats = [c for arg in args for c in ast.walk(arg)
                              if isinstance(c, ast.Constant)
                              and isinstance(c.value, float)]
                    assert not floats, (path.name, node.lineno)
