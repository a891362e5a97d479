"""Tests for dyadic band projections and the coupled paraproduct."""

import numpy as np
import pytest

import freqbench.experiments as ex
import freqbench.paraproduct as para
from freqbench.grid import GridFunction
from freqbench.paraproduct import (
    EXACT_OFFSETS,
    NAIVE_OFFSETS,
    _annuli,
    _depth_range,
    max_martingale,
    pk,
    pp_apply,
    qk,
    telescoping_decompose,
)
from noise import band_noise

N, L = 1024, 1.0


def mode(k, n=N, amp=1.0):
    coeffs = np.zeros(n, dtype=complex)
    coeffs[GridFunction.zeros(n, L).freqs() == k] = amp
    return GridFunction.from_spectrum(coeffs, L)


def inner(u, v):
    """L2 pairing, conjugate-linear in ``v``."""
    return (u.values * np.conj(v.values)).sum() * u.dx


class TestBandProjections:
    def test_single_mode_band_membership(self):
        f = mode(3)
        assert np.allclose(qk(f, 2).values, f.values)  # 3 in (2, 4]
        assert np.abs(qk(f, 1).values).max() == 0.0
        assert np.abs(qk(f, 3).values).max() == 0.0

    def test_ball_is_mean_plus_annuli(self):
        rng = np.random.default_rng(1)
        f = band_noise(N, 200.0, rng, L)
        for k in (3, 6, 8):
            acc = pk(f, -1)  # the ball |xi| <= 1/2 holds only the zero mode
            for el in range(0, k + 1):
                acc = acc + qk(f, el)
            assert np.abs((pk(f, k) - acc).values).max() < 1e-12

    def test_annuli_disjoint_and_idempotent(self):
        rng = np.random.default_rng(2)
        f = band_noise(N, 200.0, rng, L)
        assert np.abs(qk(qk(f, 5), 5).values - qk(f, 5).values).max() < 1e-12
        assert np.abs(qk(qk(f, 5), 6).values).max() < 1e-13

    def test_parseval_over_bands(self):
        rng = np.random.default_rng(3)
        f = band_noise(N, 500.0, rng, L)
        total = pk(f, -1).norm() ** 2
        for k in range(0, 10):
            total += qk(f, k).norm() ** 2
        assert total == pytest.approx(f.norm() ** 2, rel=1e-12)

    def test_self_adjoint(self):
        rng = np.random.default_rng(4)
        f, g = band_noise(N, 100.0, rng, L), band_noise(N, 100.0, rng, L)
        assert inner(qk(f, 5), g) == pytest.approx(inner(f, qk(g, 5)),
                                                 rel=1e-12)


def old_qk(f, k):
    """Annulus projection as a per-band round trip with a scalar mask."""
    a = np.abs(f.freqs() / f.length)
    band = (a > 2.0 ** (k - 1)) & (a <= 2.0 ** k)
    return f.multiply_spectrum(band.astype(float))


def old_pk(f, k):
    band = np.abs(f.freqs() / f.length) <= 2.0 ** k
    return f.multiply_spectrum(band.astype(float))


def old_telescoping_decompose(f, g, h, kbits):
    """telescoping_decompose with g and h banked at all kbits + 1 annuli:
    the diagonal loops run every el against a zero row past the suffix
    sums of f, and the prefix stacks take every band.  Only the truncation
    flag follows the relative rule of the kept version."""

    def clip(u):
        v = pk(u, kbits)
        cut = np.abs((u - v).values).max()
        return v, bool(cut > 1e-13 * np.abs(u.values).max())

    f0, tf = clip(f)
    g0, tg = clip(g)
    h0, th = clip(h)
    depths = _depth_range(kbits)
    steps = kbits - np.arange(kbits + 1)
    df = f0.bank(_annuli(f0, kbits - 2 * depths))
    dg = g0.bank(_annuli(g0, steps))
    dh = h0.bank(_annuli(h0, steps))
    dx = f0.dx
    zero = np.zeros(f0.size, dtype=complex)
    fsum = [zero] * (len(df) + 1)
    for d in range(len(df) - 1, -1, -1):
        fsum[d] = fsum[d + 1] + df[d]

    def fat(m):
        return fsum[min(max(m, 0), len(df))] if m < len(df) else zero

    def diagonal(offsets):
        o_same, o_down, o_up = offsets
        t_same = t_down = t_up = 0.0j
        for el in range(kbits + 1):
            t_same += complex(np.sum(dg[el] * dh[el] * fat(el + o_same)) * dx)
            if el >= 1:
                t_down += complex(np.sum(dg[el] * dh[el - 1]
                                         * fat(el + o_down)) * dx)
            if el + 1 <= kbits:
                t_up += complex(np.sum(dg[el] * dh[el + 1]
                                       * fat(el + o_up)) * dx)
        return t_same, t_down, t_up

    gv, hv = g0.values, h0.values
    t_full = complex(np.sum(fsum[0] * gv * hv) * dx)
    gpre = np.cumsum(np.vstack([zero, dg]), axis=0)
    hpre = np.cumsum(np.vstack([zero, dh]), axis=0)
    t_swap_g = 0.0j
    t_swap_h = 0.0j
    for d in depths:
        t_swap_g -= complex(np.sum(df[d] * gpre[d] * hv) * dx)
        t_swap_h -= complex(np.sum(df[d] * hpre[max(d - 1, 0)] * gv) * dx)
    pairing = complex(np.sum(pp_apply(f0, g0, kbits).values * hv) * dx)
    forward = t_full + t_swap_g + t_swap_h
    t_same, t_down, t_up = diagonal(EXACT_OFFSETS)
    naive = sum(diagonal(NAIVE_OFFSETS), forward)
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


class TestBandBank:
    K = 8

    def test_pp_apply_matches_per_band_loop(self):
        rng = np.random.default_rng(52)
        f, g = band_noise(N, 250.0, rng, L), band_noise(N, 250.0, rng, L)
        want = GridFunction.zeros(N, L)
        for d in range(0, (self.K - 1) // 2 + 1):
            piece = (old_qk(f, self.K - 2 * d).values
                     * old_pk(g, self.K - d).values)
            want = want + GridFunction(piece, L)
        assert np.array_equal(pp_apply(f, g, self.K).values, want.values)

    def test_max_martingale_matches_per_band_loop(self):
        rng = np.random.default_rng(53)
        psi = band_noise(N, 400.0, rng, L)
        kmax = self.K + 1
        a = rng.choice([-1.0, 1.0], size=kmax + 1)
        acc = np.zeros(N, dtype=complex)
        best = np.zeros(N)
        for k in range(kmax, -1, -1):
            acc = acc + a[k] * old_qk(psi, k).values
            np.maximum(best, np.abs(acc), out=best)
        got = max_martingale(a, psi, kmax).values
        assert np.array_equal(got, best.astype(complex))

    def test_run_builds_each_mask_stack_once(self):
        # the clip balls, the doubled-depth and coupling-depth annuli, the
        # coupling balls and the martingale annuli: five stacks, however
        # many trials
        cfg = ex.default_config("paraproduct")
        cfg.trials = 3
        para._masks.cache_clear()
        assert ex.run(cfg).passed
        assert para._masks.cache_info().misses == 5


class TestParaproduct:
    def test_constant_second_input(self):
        rng = np.random.default_rng(5)
        f = band_noise(N, 250.0, rng, L)
        g = GridFunction(np.full(N, 2.5, dtype=complex), L)
        want = GridFunction.zeros(N, L)
        for d in range(0, 4):
            want = want + qk(f, 8 - 2 * d)
        got = pp_apply(f, g, kbits=8)
        assert np.abs((got - want * 2.5).values).max() < 1e-12

    def test_single_mode_pair_survives_at_even_depth(self):
        f, g = mode(200, amp=2.0), mode(5, amp=3.0)  # 200 in (128, 256]
        out = pp_apply(f, g, kbits=8)
        assert np.abs(out.values - f.values * g.values).max() < 1e-12

    def test_odd_depth_mode_is_dropped(self):
        f, g = mode(100), mode(5)  # 100 in (64, 128], depth 1: not doubled
        out = pp_apply(f, g, kbits=8)
        assert np.abs(out.values).max() < 1e-13

    def test_pairing_sees_truncated_third_ball(self):
        # pairing against h equals the sum with h cut to the one-coarser
        # ball, because each summand's spectrum fits inside it
        rng = np.random.default_rng(6)
        f, g, h = (band_noise(N, 250.0, rng, L) for _ in range(3))
        K = 8
        lhs = complex(np.sum(pp_apply(f, g, K).values * h.values) * f.dx)
        rhs = 0.0j
        for d in range(0, (K - 1) // 2 + 1):
            rhs += complex(np.sum(qk(f, K - 2 * d).values
                                  * pk(g, K - d).values
                                  * pk(h, K - d + 1).values) * f.dx)
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)


class TestTelescoping:
    def test_residual_is_roundoff_on_random_triples(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            f, g, h = (band_noise(N, 250.0, rng, L) for _ in range(3))
            out = telescoping_decompose(f, g, h, kbits=8)
            assert not out["truncated"]
            assert out["residual"] <= 1e-10 * out["scale"]

    def test_zero_first_input(self):
        rng = np.random.default_rng(30)
        g, h = band_noise(N, 250.0, rng, L), band_noise(N, 250.0, rng, L)
        out = telescoping_decompose(GridFunction.zeros(N, L), g, h, kbits=8)
        for key in ("forward", "swap_g", "swap_h", "diag_same", "diag_down",
                    "diag_up", "pairing"):
            assert out[key] == 0.0

    def test_naive_ranges_leave_macroscopic_defect(self):
        rng = np.random.default_rng(31)
        f, g, h = (band_noise(N, 250.0, rng, L) for _ in range(3))
        out = telescoping_decompose(f, g, h, kbits=8)
        assert out["residual"] <= 1e-10 * out["scale"]
        assert out["naive_residual"] > 1e-4 * out["scale"]

    def test_out_of_band_input_is_clipped_and_flagged(self):
        rng = np.random.default_rng(32)
        f = band_noise(N, 250.0, rng, L) + mode(400)  # above the 2**8 ball
        g, h = band_noise(N, 250.0, rng, L), band_noise(N, 250.0, rng, L)
        out = telescoping_decompose(f, g, h, kbits=8)
        assert out["truncated"]
        assert out["residual"] <= 1e-10 * out["scale"]

    def test_middle_step_diagonalization(self):
        # pairing a band of the second input and the far tail of the first
        # against h only sees the three adjacent bands of h
        rng = np.random.default_rng(33)
        f, g, h = (band_noise(N, 250.0, rng, L) for _ in range(3))
        K = 8
        dg = [qk(g, K - e) for e in range(K + 1)]
        dh = [qk(h, K - e) for e in range(K + 1)]

        def ftail(m):
            acc = GridFunction.zeros(N, L)
            for d in range(m, (K - 1) // 2 + 1):
                acc = acc + qk(f, K - 2 * d)
            return acc

        lhs = 0.0j
        rhs = 0.0j
        for el in range(K + 1):
            x = dg[el].values * ftail(el + 1).values
            lhs += complex(np.sum(x * h.values) * f.dx)
            near = dh[el].values.copy()
            if el >= 1:
                near = near + dh[el - 1].values
            if el + 1 <= K:
                near = near + dh[el + 1].values
            rhs += complex(np.sum(x * near) * f.dx)
        assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1e-30)

    @pytest.mark.parametrize("scale", [1e3, 1e4, 1e6])
    def test_truncated_is_relative_to_input_size(self, scale):
        rng = np.random.default_rng(34)
        f, g, h = (band_noise(N, 250.0, rng, L) for _ in range(3))
        f = f / f.norm() * scale  # in band: only roundoff leaves the ball
        assert not telescoping_decompose(f, g, h, kbits=8)["truncated"]
        out = telescoping_decompose(f + mode(400, amp=scale), g, h, kbits=8)
        assert out["truncated"]

    @pytest.mark.parametrize("n", [64, 256, 1024, 2048])
    def test_matches_full_band_reference_bit_for_bit(self, n):
        for kbits in range(1, 13):
            band = min(0.9 * 2 ** kbits, n / 2 - 1)
            rng = np.random.default_rng(kbits)
            f, g, h = (band_noise(n, band, rng, L) for _ in range(3))
            triples = [(f, g, h), (GridFunction.zeros(n, L), g, h)]
            if 2 ** kbits + 2 < n // 2:  # a mode the clip must remove
                triples.append((f + mode(2 ** kbits + 2, n=n), g, h))
            for u, v, w in triples:
                got = telescoping_decompose(u, v, w, kbits)
                want = old_telescoping_decompose(u, v, w, kbits)
                assert repr(got) == repr(want)

    @pytest.mark.parametrize("kbits", [1, 2, 5, 8, 12])
    def test_banks_only_the_reachable_depths(self, kbits, monkeypatch):
        rows = []
        bank = GridFunction.bank

        def counting_bank(self, windows):
            rows.append(len(windows))
            return bank(self, windows)

        monkeypatch.setattr(GridFunction, "bank", counting_bank)
        rng = np.random.default_rng(35)
        f, g, h = (band_noise(N, 250.0, rng, L) for _ in range(3))
        telescoping_decompose(f, g, h, kbits)
        # f, g and h, then pp_apply's f and g
        assert rows == [len(_depth_range(kbits))] * 5


class TestSquareAndMartingale:
    def test_unit_coefficients_give_ball_remainders(self):
        rng = np.random.default_rng(40)
        psi = band_noise(N, 400.0, rng, L)
        kmax = 10
        got = max_martingale(np.ones(kmax + 1), psi, kmax)
        best = np.zeros(N)
        for el in range(-1, kmax):
            best = np.maximum(best, np.abs((psi - pk(psi, el)).values))
        assert np.allclose(got.values.real, best, atol=1e-10)

    def test_triangle_bound(self):
        rng = np.random.default_rng(41)
        psi = band_noise(N, 400.0, rng, L)
        kmax = 10
        a = rng.uniform(-1, 1, size=kmax + 1)
        got = max_martingale(a, psi, kmax).values.real
        cap = np.zeros(N)
        for k in range(kmax + 1):
            cap += np.abs(a[k]) * np.abs(qk(psi, k).values)
        assert np.all(got <= cap + 1e-10)

    def test_short_coefficients_rejected(self):
        rng = np.random.default_rng(42)
        psi = band_noise(N, 100.0, rng, L)
        with pytest.raises(ValueError):
            max_martingale(np.ones(3), psi, kmax=8)

