"""Tests for dyadic band projections and the coupled paraproduct."""

import numpy as np
import pytest

from freqbench.grid import GridFunction
from freqbench.paraproduct import (
    max_martingale,
    pk,
    pp_apply,
    qk,
    telescoping_decompose,
)

N, L = 1024, 1.0


def noise(band, rng, n=N):
    coeffs = np.zeros(n, dtype=complex)
    ks = np.arange(-(n // 2), n - (n // 2))
    live = np.abs(ks / L) <= band
    coeffs[live] = rng.normal(size=live.sum()) + 1j * rng.normal(size=live.sum())
    return GridFunction.from_spectrum(coeffs, L)


def mode(k, n=N, amp=1.0):
    coeffs = np.zeros(n, dtype=complex)
    coeffs[k + n // 2] = amp
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
        f = noise(200.0, rng)
        for k in (3, 6, 8):
            acc = pk(f, -1)  # the ball |xi| <= 1/2 holds only the zero mode
            for el in range(0, k + 1):
                acc = acc + qk(f, el)
            assert np.abs((pk(f, k) - acc).values).max() < 1e-12

    def test_annuli_disjoint_and_idempotent(self):
        rng = np.random.default_rng(2)
        f = noise(200.0, rng)
        assert np.abs(qk(qk(f, 5), 5).values - qk(f, 5).values).max() < 1e-12
        assert np.abs(qk(qk(f, 5), 6).values).max() < 1e-13

    def test_parseval_over_bands(self):
        rng = np.random.default_rng(3)
        f = noise(500.0, rng)
        total = pk(f, -1).norm() ** 2
        for k in range(0, 10):
            total += qk(f, k).norm() ** 2
        assert total == pytest.approx(f.norm() ** 2, rel=1e-12)

    def test_self_adjoint(self):
        rng = np.random.default_rng(4)
        f, g = noise(100.0, rng), noise(100.0, rng)
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


class TestBandBank:
    K = 8

    def test_pp_apply_matches_per_band_loop(self):
        rng = np.random.default_rng(52)
        f, g = noise(250.0, rng), noise(250.0, rng)
        want = GridFunction.zeros(N, L)
        for d in range(0, (self.K - 1) // 2 + 1):
            piece = (old_qk(f, self.K - 2 * d).values
                     * old_pk(g, self.K - d).values)
            want = want + GridFunction(piece, L)
        assert np.array_equal(pp_apply(f, g, self.K).values, want.values)

    def test_max_martingale_matches_per_band_loop(self):
        rng = np.random.default_rng(53)
        psi = noise(400.0, rng)
        kmax = self.K + 1
        a = rng.choice([-1.0, 1.0], size=kmax + 1)
        acc = np.zeros(N, dtype=complex)
        best = np.zeros(N)
        for k in range(kmax, -1, -1):
            acc = acc + a[k] * old_qk(psi, k).values
            np.maximum(best, np.abs(acc), out=best)
        got = max_martingale(a, psi, kmax).values
        assert np.array_equal(got, best.astype(complex))


class TestParaproduct:
    def test_constant_second_input(self):
        rng = np.random.default_rng(5)
        f = noise(250.0, rng)
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
        f, g, h = (noise(250.0, rng) for _ in range(3))
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
            f, g, h = (noise(250.0, rng) for _ in range(3))
            out = telescoping_decompose(f, g, h, kbits=8)
            assert not out["truncated"]
            assert out["residual"] <= 1e-10 * out["scale"]

    def test_zero_first_input(self):
        rng = np.random.default_rng(30)
        g, h = noise(250.0, rng), noise(250.0, rng)
        out = telescoping_decompose(GridFunction.zeros(N, L), g, h, kbits=8)
        for key in ("forward", "swap_g", "swap_h", "diag_same", "diag_down",
                    "diag_up", "pairing"):
            assert out[key] == 0.0

    def test_naive_ranges_leave_macroscopic_defect(self):
        rng = np.random.default_rng(31)
        f, g, h = (noise(250.0, rng) for _ in range(3))
        out = telescoping_decompose(f, g, h, kbits=8)
        assert out["residual"] <= 1e-10 * out["scale"]
        assert out["naive_residual"] > 1e-4 * out["scale"]

    def test_out_of_band_input_is_clipped_and_flagged(self):
        rng = np.random.default_rng(32)
        f = noise(250.0, rng) + mode(400)  # above the 2**8 ball
        g, h = noise(250.0, rng), noise(250.0, rng)
        out = telescoping_decompose(f, g, h, kbits=8)
        assert out["truncated"]
        assert out["residual"] <= 1e-10 * out["scale"]

    def test_middle_step_diagonalization(self):
        # pairing a band of the second input and the far tail of the first
        # against h only sees the three adjacent bands of h
        rng = np.random.default_rng(33)
        f, g, h = (noise(250.0, rng) for _ in range(3))
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


class TestSquareAndMartingale:
    def test_unit_coefficients_give_ball_remainders(self):
        rng = np.random.default_rng(40)
        psi = noise(400.0, rng)
        kmax = 10
        got = max_martingale(np.ones(kmax + 1), psi, kmax)
        best = np.zeros(N)
        for el in range(-1, kmax):
            best = np.maximum(best, np.abs((psi - pk(psi, el)).values))
        assert np.allclose(got.values.real, best, atol=1e-10)

    def test_triangle_bound(self):
        rng = np.random.default_rng(41)
        psi = noise(400.0, rng)
        kmax = 10
        a = rng.uniform(-1, 1, size=kmax + 1)
        got = max_martingale(a, psi, kmax).values.real
        cap = np.zeros(N)
        for k in range(kmax + 1):
            cap += np.abs(a[k]) * np.abs(qk(psi, k).values)
        assert np.all(got <= cap + 1e-10)

    def test_short_coefficients_rejected(self):
        rng = np.random.default_rng(42)
        psi = noise(100.0, rng)
        with pytest.raises(ValueError):
            max_martingale(np.ones(3), psi, kmax=8)

