"""The two Gamma routes, their agreement, and the closed forms.

A third, fully independent route (pure Python Lagrange reversion plus a
Mercator log, from _oracles) referees both package routes on random inputs.
"""

import math
import warnings
import zlib

import numpy as np
import pytest

from _oracles import analytic_draw, gamma_oracle
from invlog import families, gammas, series
from invlog.families import ClassSpec


def RNG(tag):
    return np.random.default_rng(zlib.crc32(f"gammas:{tag}".encode()))


def test_identity_has_zero_gammas():
    f = series.identity(8)
    for route in (gammas.gamma_via_reversion, gammas.gamma_via_bn):
        assert route(f, 7).shape == (1, 7)
        assert np.all(route(f, 7) == 0)


def test_half_plane_map_gammas_alternate():
    # z/(1-z): Gamma_n = (-1)^n / (2n)
    order = 13
    f = np.r_[0j, np.ones(order)][None]
    for route in (gammas.gamma_via_reversion, gammas.gamma_via_bn):
        gv = route(f, 12)[0]
        for n in range(1, 13):
            assert abs(gv[n - 1] - (-1.0) ** n / (2.0 * n)) < 1e-12


def test_cusp_map_gamma_magnitudes():
    gv = gammas.gamma_via_bn(families.koebe(0.0, 11), 10)[0]
    for n in range(1, 11):
        want = math.comb(2 * n, n) / (2.0 * n)
        assert abs(abs(gv[n - 1]) - want) <= 1e-12 * want


def test_rotation_covariance():
    # rotating the function by theta multiplies Gamma_n by e^{i n theta}
    theta = 0.9
    base = gammas.gamma_via_bn(families.koebe(0.0, 9), 8)[0]
    rot = gammas.gamma_via_bn(families.koebe(theta, 9), 8)[0]
    n = np.arange(1, 9)
    err = np.abs(rot - base * np.exp(1j * n * theta)) / (1.0 + np.abs(base))
    assert float(np.max(err)) < 1e-12


def test_routes_agree_on_random_normalized_series():
    # decay 0.5 keeps |Gamma_16| around 1e4, where 1e-10 absolute agreement
    # is still far above one ulp of the values compared
    rng = RNG("routes")
    for _ in range(40):
        f = analytic_draw(rng, 17, rho=0.5)[None]
        a = gammas.gamma_via_reversion(f, 16)
        b = gammas.gamma_via_bn(f, 16)
        assert float(np.max(np.abs(a - b))) < 1e-10


def test_routes_agree_with_pure_python_oracle():
    rng = RNG("oracle")
    for _ in range(25):
        f = analytic_draw(rng, 9, rho=0.7)
        want = np.array(gamma_oracle(list(f), 8))
        for route in (gammas.gamma_via_reversion, gammas.gamma_via_bn):
            got = route(f[None], 8)[0]
            assert float(np.max(np.abs(got - want))) < 1e-11


def test_reversion_rows_agree_with_pure_python_oracle():
    # the stacked route against Lagrange reversion plus a Mercator log, at
    # the tolerance of the one-row oracle test above
    rng = RNG("oracle-rows")
    f = np.array([analytic_draw(rng, 9, rho=0.7) for _ in range(25)])
    got = gammas.gamma_via_reversion(f, 8)
    for row, member in zip(got, f):
        want = np.array(gamma_oracle(list(member), 8))
        assert float(np.max(np.abs(row - want))) < 1e-11


def test_one_row_reversion_route_is_its_row_of_a_stack():
    # and likewise the bn route: a one-row stack gets the bits of its row
    rng = RNG("reversion-rows")
    f = np.array([analytic_draw(rng, 18, rho=0.5) for _ in range(256)])
    for route in (gammas.gamma_via_reversion, gammas.gamma_via_bn):
        stacked = route(f, 16)
        assert stacked.shape == (256, 16)
        for s in range(256):
            one = route(f[s:s + 1], 16)
            assert one.shape == (1, 16)
            assert np.array_equal(one[0], stacked[s])


def test_a_one_row_stack_gets_its_row_of_a_forty_row_stack_by_both_routes():
    # members known past n_max + 1, at orders where revert runs in one block
    rng = RNG("one-of-forty")
    for n_max in (1, 7, 30):
        f = np.array([analytic_draw(rng, n_max + 4, rho=0.4) for _ in range(40)])
        for route in (gammas.gamma_via_reversion, gammas.gamma_via_bn):
            stacked = route(f, n_max)
            for s in range(40):
                assert np.array_equal(route(f[s:s + 1], n_max)[0], stacked[s]), (n_max, s)


def test_reversion_route_runs_without_the_bn_route(monkeypatch):
    # the routes share only the logarithm and reversion kernels: with every
    # bn-route step disabled the reversion route still gives the same bits
    f = np.array([analytic_draw(RNG("independent"), 12, rho=0.6) for _ in range(3)])
    want = gammas.gamma_via_reversion(f, 10)

    def disabled(*args, **kwargs):
        raise AssertionError("the reversion route called a bn-route step")

    for name in ("reciprocal", "multiply", "exp_zero", "compose"):
        monkeypatch.setattr(series, name, disabled)
    monkeypatch.setattr(gammas, "gamma_via_bn", disabled)
    assert np.array_equal(gammas.gamma_via_reversion(f, 10), want)
    assert np.array_equal(gammas.gamma_via_reversion(f[:1], 10), want[:1])


def test_bn_route_runs_without_the_reversion_route(monkeypatch):
    # the mirror image: with every reversion-route step disabled the bn
    # route still gives the same bits
    f = np.array([analytic_draw(RNG("independent"), 12, rho=0.6) for _ in range(3)])
    want = gammas.gamma_via_bn(f, 10)

    def disabled(*args, **kwargs):
        raise AssertionError("the bn route called a reversion-route step")

    for name in ("revert", "log_unit", "exp_zero", "compose"):
        monkeypatch.setattr(series, name, disabled)
    monkeypatch.setattr(gammas, "gamma_via_reversion", disabled)
    assert np.array_equal(gammas.gamma_via_bn(f, 10), want)
    assert np.array_equal(gammas.gamma_via_bn(f[:1], 10), want[:1])


def test_inverse_coefficient_closed_forms():
    rng = RNG("inverse")
    for _ in range(30):
        f = analytic_draw(rng, 6, rho=0.9)
        a2, a3, a4 = f[2], f[3], f[4]
        got = series.revert(f[None], 4)[0, 2:]
        assert abs(got[0] - (-a2)) < 1e-12
        assert abs(got[1] - (2.0 * a2 * a2 - a3)) < 1e-12
        assert abs(got[2] - (-a4 + 5.0 * a2 * a3 - 5.0 * a2 ** 3)) < 1e-12


def test_gammas_from_inverse_coefficients():
    # 2 Gamma_1 = A2, 2 Gamma_2 = A3 - A2^2/2, 2 Gamma_3 = A4 - A2 A3 + A2^3/3
    rng = RNG("gamma-inv")
    for _ in range(30):
        f = analytic_draw(rng, 5, rho=0.9)[None]
        g1, g2, g3 = gammas.gamma_via_reversion(f, 3)[0]
        A = series.revert(f, 4)[0]
        assert abs(2.0 * g1 - A[2]) < 1e-12
        assert abs(2.0 * g2 - (A[3] - A[2] ** 2 / 2.0)) < 1e-12
        assert abs(2.0 * g3 - (A[4] - A[2] * A[3] + A[2] ** 3 / 3.0)) < 1e-12


# ---------------------------------------------------------------------------
# closed forms for the two structure classes


def test_bounded_distortion_closed_forms_match_generic_route():
    rng = RNG("u-closed")
    for _ in range(30):
        lam = float(rng.uniform(0.05, 1.0))
        a = complex(rng.normal(), rng.normal())
        a = a / max(1.0, abs(a) * 1.25)  # keep |a| <= 0.8
        a2 = complex(rng.normal(), rng.normal()) * 0.6
        omega = families.blaschke_series(0.0, (a,), 10)
        assert abs(omega[0, 0] - a) < 1e-15
        f = families.u_lambda_member(a2, omega, lam, 12)
        g1, g2 = gammas.gamma12_U(a2, a, lam)
        gv = gammas.gamma_via_bn(f, 2)[0]
        assert abs(gv[0] - g1) < 1e-10
        assert abs(gv[1] - g2) < 1e-10


def test_gamma12_U_validation():
    with pytest.raises(ValueError):
        gammas.gamma12_U(0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        gammas.gamma12_U(0.1, 1.2, 0.5)


def test_half_plane_convexity_closed_forms_match_generic_route():
    rng = RNG("f-closed")
    for _ in range(30):
        alpha = float(rng.uniform(-0.5, 1.0 - 1e-9))
        cs = rng.normal(size=3) + 1j * rng.normal(size=3)
        total = float(np.sum(np.abs(cs)))
        if total > 0.9:
            cs *= 0.9 / total
        phi = np.concatenate([[0.0], cs, np.zeros(8)])[None]
        f = families.member_from_schwarz(ClassSpec.f_alpha(alpha), phi, 12)
        want = gammas.gamma123_F_alpha(cs[0], cs[1], cs[2], alpha)
        gv = gammas.gamma_via_bn(f, 3)[0]
        for n in (1, 2, 3):
            assert abs(gv[n - 1] - want[n - 1]) < 1e-10


def test_gamma123_F_alpha_validation():
    with pytest.raises(ValueError):
        gammas.gamma123_F_alpha(0.1, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# input checking


def test_routes_demand_enough_order():
    f = series.identity(5)
    with pytest.raises(ValueError):
        gammas.gamma_via_reversion(f, 5)
    with pytest.raises(ValueError):
        gammas.gamma_via_bn(f, 5)
    with pytest.raises(ValueError):
        gammas.gamma_via_bn(f, 0)


def test_routes_demand_normalization():
    with pytest.raises(ValueError):
        gammas.gamma_via_bn(np.array([[0.0, 2.0, 0.0]]), 1)
    with pytest.raises(ValueError):
        gammas.gamma_via_reversion(np.array([[1.0, 1.0, 0.0]]), 1)


def test_reversion_overflow_is_a_bad_argument():
    # z + 1e200 z^2 reverts to A_n of about 1e200^(n-1): A_3 already overflows
    # raised as the error, not also warned about on the way
    f = np.array([[0.0, 1.0, 1e200, 0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            gammas.gamma_via_reversion(f, 4)


def test_bn_route_keeps_the_orders_below_an_overflow():
    # f/z = 1 + 1e200 z^60: z/f has 1e400 at z^120, which overflows, but
    # Gamma_n reads a_2..a_{n+1} only, so every order below it stays exact
    f = np.zeros((1, 130), dtype=np.complex128)
    f[0, 1], f[0, 61] = 1.0, 1e200
    # and it says so in the values, not in warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        g = gammas.gamma_via_bn(f, 128)[0]
    assert np.all(g[:59] == 0)
    assert np.isfinite(g[59]) and abs(g[59] / -5e199 - 1) < 1e-12
    assert np.flatnonzero(~np.isfinite(g))[0] + 1 == 120


def test_stacked_revert_is_the_one_row_revert():
    f = np.array([analytic_draw(RNG("stacked-entry"), 9, rho=0.6) for _ in range(4)])
    inv = series.revert(f, 9)
    assert inv.shape == (4, 10)
    assert np.array_equal(inv[2], series.revert(f[2:3], 9)[0])


def test_reversion_rows_validate_like_the_bn_rows():
    f = series.identity(5)
    stack = np.concatenate([f, f, f])
    for route in (gammas.gamma_via_reversion, gammas.gamma_via_bn):
        for rows in (f, stack):
            with pytest.raises(ValueError, match="needs rows known"):
                route(rows, 5)
            with pytest.raises(ValueError, match="n_max"):
                route(rows, 0)
            with pytest.raises(ValueError, match="normalized"):
                route(2.0 * rows, 3)
        # one row of the stack off is enough
        with pytest.raises(ValueError, match="normalized"):
            route(stack * np.array([[1.0], [2.0], [1.0]]), 3)
        # a single function is a one-row stack, never a bare coefficient array
        with pytest.raises(ValueError, match=r"needs rows known through a_4, got shape \(6,\)"):
            route(f[0], 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
def test_routes_refuse_non_finite_rows(bad):
    f = np.concatenate([families.koebe(0.0, 8)] * 3)
    f[1, 7] = bad  # past every order the routes read at n_max 3
    for route in (gammas.gamma_via_reversion, gammas.gamma_via_bn):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            route(f, 3)
