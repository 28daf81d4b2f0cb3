"""Series kernel: oracle agreement, algebraic invariants, round trips.

Oracle comparisons pit every kernel recurrence against the naive pure
Python implementation in _oracles. Round trips run at orders up to 32 on
draws with |c_k| <= 1; the tail decay per invariant keeps the target
conditioned (see the module docstring of _oracles).
"""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    analytic_draw,
    as_list,
    compose_direct,
    exp_taylor,
    log_mercator,
    log_unit_one_row,
    poly_mul,
    pow_binomial,
    recip_neumann,
    revert_lagrange,
    revert_lagrange_exact,
    revert_one_row,
    revert_triangular,
    unit_draw,
)
from invlog import series
from invlog.series import Series

def RNG(tag):
    # deterministic per-test stream without shared state between tests
    return np.random.default_rng(zlib.crc32(f"series:{tag}".encode()))


def _series(c):
    return Series(np.asarray(c, dtype=np.complex128))


def _maxdiff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _power(a: Series, mu, order: int) -> Series:
    """a**mu as exp(mu log a): the exponential of a scaled logarithm, the
    composition the power-map members are built from."""
    return series.exp_zero(Series(complex(mu) * series.log_unit(a, order).coeffs), order)


# ---------------------------------------------------------------------------
# oracle agreement


def test_multiply_matches_naive_convolution():
    rng = RNG("mul")
    for _ in range(50):
        a = unit_draw(rng, 12)
        b = unit_draw(rng, 12)
        got = series.multiply(_series(a), _series(b), 12).coeffs
        want = poly_mul(list(a), list(b), 12)
        assert _maxdiff(got, want) < 1e-13


def test_an_infinite_coefficient_leaves_lower_product_terms_finite():
    # inf * 0 from the zero padding must not reach the terms below the inf
    a = np.array([[1.0, np.inf, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 0.0, np.nan]],
                 dtype=np.complex128)
    b = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.5, 0.0], [1.0, 1.0, 0.0, 0.0]],
                 dtype=np.complex128)
    with np.errstate(invalid="ignore"):
        got = series.multiply_rows(a, b, 3)
    assert got[0, 0] == 1.0
    assert np.isinf(got[0, 1].real) and np.isinf(got[0, 2].real)
    assert list(got[2, :3]) == [1.0, 1.0, 0.0] and np.isnan(got[2, 3])
    # a finite row stacked with it keeps the bits of its own one-row product
    assert np.array_equal(got[1], series.multiply_rows(a[1:], b[1:], 3)[0])
    assert np.array_equal(got[1], poly_mul(list(a[1]), list(b[1]), 3))


def test_reciprocal_matches_neumann_sum():
    rng = RNG("recip")
    for _ in range(50):
        a = unit_draw(rng, 12, rho=0.9)
        got = series.reciprocal(_series(a), 12).coeffs
        want = recip_neumann(list(a), 12)
        assert _maxdiff(got, want) < 1e-11


@pytest.mark.parametrize("order", [0, 1, 12, 40])
def test_row_kernels_match_the_scalar_kernels(order):
    # the Series functions are these kernels on one row: both are held to
    # the oracles, at the tolerances of the oracle tests above
    rng = RNG(f"rows-{order}")
    units = np.array([unit_draw(rng, order, rho=0.9) for _ in range(9)])
    others = np.array([unit_draw(rng, order, rho=0.9) for _ in range(9)])
    zeros = units - np.eye(1, order + 1)  # constant terms exactly 0
    got = {"multiply": series.multiply_rows(units, others, order),
           "reciprocal": series.reciprocal_rows(units, order),
           "exp_zero": series.exp_zero_rows(zeros, order)}
    for s in range(9):
        want = {"multiply": (poly_mul(list(units[s]), list(others[s]), order), 1e-13),
                "reciprocal": (recip_neumann(list(units[s]), order), 1e-11),
                "exp_zero": (exp_taylor(list(zeros[s]), order), 1e-12)}
        if order > 12:
            del want["reciprocal"], want["exp_zero"]  # the product case only
        for name, (w, tol) in want.items():
            assert _maxdiff(got[name][s], w) < tol, name
        # a row's bits do not depend on the rows stacked with it, and the
        # Series function is the one-row case
        alone = {"multiply": series.multiply_rows(units[s:s + 1], others[s:s + 1], order)[0],
                 "reciprocal": series.reciprocal_rows(units[s:s + 1], order)[0],
                 "exp_zero": series.exp_zero_rows(zeros[s:s + 1], order)[0]}
        wrapped = {"multiply": series.multiply(_series(units[s]), _series(others[s]), order),
                   "reciprocal": series.reciprocal(_series(units[s]), order),
                   "exp_zero": series.exp_zero(_series(zeros[s]), order)}
        for name in alone:
            assert np.array_equal(alone[name], got[name][s]), name
            assert np.array_equal(wrapped[name].coeffs, got[name][s]), name


@pytest.mark.parametrize("order", [1, 2, 3, 16, 33, 64, 129])
def test_log_and_revert_rows_are_the_one_row_kernels_bit_for_bit(order):
    # stacks of 1, 7, 60 and 256 rows led by the cusp map; revert_rows works
    # in blocks of max(1, 2**21 // (16 (order+1) order)) rows, so at orders
    # 33, 64 and 129 some stacks cross a block boundary
    rng = RNG(f"rows-log-revert-{order}")
    cusp = np.arange(order + 1, dtype=np.complex128)
    f = np.array([cusp] + [analytic_draw(rng, order, rho=0.3) for _ in range(255)])
    u = np.array([np.concatenate([[1.0], cusp[1:]])]
                 + [unit_draw(rng, order, rho=0.9) for _ in range(255)])
    want_inv = np.array([revert_one_row(row, order) for row in f])
    want_log = np.array([log_unit_one_row(row, order) for row in u])
    assert np.isfinite(want_inv).all() and np.isfinite(want_log).all()
    for size in (1, 7, 60, 256):
        assert np.array_equal(series.revert_rows(f[:size], order), want_inv[:size]), size
        assert np.array_equal(series.log_unit_rows(u[:size], order), want_log[:size]), size
    for s in range(256):
        assert np.array_equal(series.revert_rows(f[s:s + 1], order)[0], want_inv[s]), s
        assert np.array_equal(series.log_unit_rows(u[s:s + 1], order)[0], want_log[s]), s
    for s in (0, 255):  # the Series functions are the one-row case
        assert np.array_equal(series.revert(_series(f[s]), order).coeffs, want_inv[s])
        assert np.array_equal(series.log_unit(_series(u[s]), order).coeffs, want_log[s])


def test_log_matches_mercator_series():
    rng = RNG("log")
    for _ in range(50):
        a = unit_draw(rng, 12, rho=0.9)
        got = series.log_unit(_series(a), 12).coeffs
        want = log_mercator(list(a), 12)
        assert _maxdiff(got, want) < 1e-11


def test_exp_matches_taylor_sum():
    rng = RNG("exp")
    for _ in range(50):
        a = unit_draw(rng, 12)
        a[0] = 0.0
        got = series.exp_zero(_series(a), 12).coeffs
        want = exp_taylor(list(a), 12)
        assert _maxdiff(got, want) < 1e-12


def test_power_via_scaled_log_matches_binomial_sum():
    rng = RNG("pow")
    for _ in range(30):
        a = unit_draw(rng, 12, rho=0.8)
        mu = complex(rng.normal(), rng.normal())
        got = _power(_series(a), mu, 12).coeffs
        want = pow_binomial(list(a), mu, 12)
        assert _maxdiff(got, want) < 1e-10


def test_compose_matches_direct_power_sum():
    rng = RNG("compose")
    for _ in range(30):
        outer = unit_draw(rng, 12)
        inner = analytic_draw(rng, 12, rho=0.8)
        got = series.compose(_series(outer), _series(inner), 12).coeffs
        want = compose_direct(list(outer), list(inner), 12)
        assert _maxdiff(got, want) < 1e-11


def test_revert_matches_lagrange_formula():
    # brute-force oracles at N <= 16; decay 0.4 keeps the oracle itself
    # accurate to the comparison tolerance (measured: 1.5e-13 worst)
    rng = RNG("revert")
    for _ in range(25):
        f = analytic_draw(rng, 16, rho=0.4)
        got = series.revert(_series(f), 16).coeffs
        lag = revert_lagrange(list(f), 16)
        tri = revert_triangular(list(f), 16)
        assert _maxdiff(got, lag) < 1e-12
        assert _maxdiff(got, tri) < 1e-12


def test_revert_exact_integer_input():
    # f = z - z^2: inverse coefficients are the Catalan numbers, checked
    # against exact rational Lagrange inversion
    f = [0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    exact = revert_lagrange_exact(f, 12)
    got = series.revert(_series(f), 12).coeffs
    for n in range(1, 13):
        assert exact[n].denominator == 1
        assert abs(got[n] - float(exact[n])) <= 1e-12 * abs(float(exact[n]))
    assert [int(x) for x in exact[1:7]] == [1, 1, 2, 5, 14, 42]


def test_revert_matches_lagrange_formula_at_order_64():
    # decay 0.25 keeps the inverse coefficients below 1, so the float
    # oracle stays accurate coefficient by coefficient (measured: 2.5e-15
    # relative worst)
    rng = RNG("revert-64")
    for _ in range(4):
        f = analytic_draw(rng, 64, rho=0.25)
        got = series.revert(_series(f), 64).coeffs
        lag = np.asarray(revert_lagrange(list(f), 64))
        assert np.all(np.abs(got - lag) <= 1e-12 * np.abs(lag))


@pytest.mark.parametrize("order", [64, 128])
def test_revert_cusp_map_closed_form(order):
    # z/(1-z)^2 has coefficients k; its inverse has
    # A_n = (-1)^(n-1) (2n)!/(n!(n+1)!)
    got = series.revert(_series(np.arange(order + 1)), order).coeffs
    for n in range(1, order + 1):
        want = (-1) ** (n - 1) * math.comb(2 * n, n) / (n + 1)
        assert abs(got[n] - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("order, want", [(1, [0, 1]), (2, [0, 1, -2]), (3, [0, 1, -2, 5])])
def test_revert_cusp_map_lowest_orders_exact(order, want):
    got = series.revert(_series(np.arange(order + 1)), order).coeffs
    assert got.tolist() == want


# ---------------------------------------------------------------------------
# stated algebraic invariants


def test_power_via_scaled_log_integer_exponent_equals_repeated_multiply():
    rng = RNG("pow-int")
    for mu in (0, 1, 2, 3, 5):
        for _ in range(10):
            a = _series(unit_draw(rng, 14, rho=0.9))
            via_pow = _power(a, mu, 14).coeffs
            acc = series.constant(1.0, 14)
            for _ in range(mu):
                acc = series.multiply(acc, a, 14)
            ref = np.abs(acc.coeffs) + 1.0
            assert float(np.max(np.abs(via_pow - acc.coeffs) / ref)) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_power_via_scaled_log_small_powers(m):
    rng = RNG(f"pow-{m}")
    for _ in range(20):
        a = _series(unit_draw(rng, 12))
        via_pow = _power(a, m, 12).coeffs
        acc = a
        for _ in range(m - 1):
            acc = series.multiply(acc, a, 12)
        ref = np.abs(acc.coeffs) + 1.0
        assert float(np.max(np.abs(via_pow - acc.coeffs) / ref)) < 1e-12


def test_exp_of_zero_is_exactly_one():
    # mu = 0 in exp(mu log a): the exponential of the zero series is 1 exactly
    a = _series(unit_draw(RNG("pow0"), 8, rho=0.9))
    one = _power(a, 0, 8)
    assert np.array_equal(one.coeffs, series.constant(1.0, 8).coeffs)


def test_multiply_by_identity_is_an_exact_shift():
    rng = RNG("shift")
    for order in (1, 2, 9, 33):
        a = _series(unit_draw(rng, order))
        shifted = series.multiply(series.identity(order), a, order).coeffs
        assert np.array_equal(shifted, np.concatenate([[0.0], a.coeffs[:order]]))
    assert list(series.multiply(_series([1.0, 2.0, 0.0, 0.0]), series.identity(3), 3).coeffs) \
        == [0, 1.0, 2.0, 0]


def test_operands_known_past_the_order_are_read_only_to_it():
    # an operation at order N gives the same bits whether its operands stop
    # at N or run on: coefficients past the truncation are never read
    rng = RNG("long-operands")
    a_long, b_long = unit_draw(rng, 24, rho=0.9), unit_draw(rng, 24, rho=0.9)
    f_long = analytic_draw(rng, 24, rho=0.6)
    z_long = np.array(a_long)
    z_long[0] = 0.0
    for order in (1, 5, 10):
        a, b, f, z = (_series(x[: order + 1]) for x in (a_long, b_long, f_long, z_long))
        la, lb, lf, lz = (_series(x) for x in (a_long, b_long, f_long, z_long))
        pairs = [
            (series.add(a, b, order), series.add(la, lb, order)),
            (series.multiply(a, b, order), series.multiply(la, lb, order)),
            (series.reciprocal(a, order), series.reciprocal(la, order)),
            (series.log_unit(a, order), series.log_unit(la, order)),
            (series.exp_zero(z, order), series.exp_zero(lz, order)),
            (series.compose(a, f, order), series.compose(la, lf, order)),
            (series.revert(f, order), series.revert(lf, order)),
        ]
        for short, long in pairs:
            assert short.order == long.order == order
            assert short == long


def test_multiply_commutative_and_associative():
    rng = RNG("mul-alg")
    for _ in range(30):
        a = _series(unit_draw(rng, 10))
        b = _series(unit_draw(rng, 10))
        c = _series(unit_draw(rng, 10))
        ab = series.multiply(a, b, 10)
        ba = series.multiply(b, a, 10)
        assert _maxdiff(ab.coeffs, ba.coeffs) < 1e-13
        left = series.multiply(ab, c, 10)
        right = series.multiply(a, series.multiply(b, c, 10), 10)
        assert _maxdiff(left.coeffs, right.coeffs) < 1e-13


# ---------------------------------------------------------------------------
# round trips at N <= 32, |c_k| <= 1 (decay per invariant, see _oracles)


@pytest.mark.parametrize("order", [8, 16, 32])
def test_round_trip_log_exp(order):
    rng = RNG(f"rt-le-{order}")
    for _ in range(40):
        a = unit_draw(rng, order, rho=1.0)
        a0 = np.concatenate([[0.0], a[1:]])
        back = series.log_unit(series.exp_zero(_series(a0), order), order)
        assert _maxdiff(back.coeffs, a0) < 1e-11


@pytest.mark.parametrize("order", [8, 16, 32])
def test_round_trip_exp_log(order):
    rng = RNG(f"rt-el-{order}")
    for _ in range(40):
        a = unit_draw(rng, order, rho=0.9)
        back = series.exp_zero(series.log_unit(_series(a), order), order)
        assert _maxdiff(back.coeffs, a) < 1e-11


@pytest.mark.parametrize("order", [8, 16, 32])
def test_round_trip_reciprocal_twice(order):
    rng = RNG(f"rt-rr-{order}")
    for _ in range(40):
        a = unit_draw(rng, order, rho=0.75)
        back = series.reciprocal(series.reciprocal(_series(a), order), order)
        assert _maxdiff(back.coeffs, a) < 1e-11


# inverse coefficients grow roughly like (4 rho)^n, so the decay must fall
# with the order for 1e-11 absolute to stay above one ulp of the values
_REVERT_RHO = {8: 0.6, 16: 0.45, 32: 0.3}


@pytest.mark.parametrize("order", [8, 16, 32])
def test_round_trip_revert_twice(order):
    rng = RNG(f"rt-vv-{order}")
    for _ in range(40):
        f = analytic_draw(rng, order, rho=_REVERT_RHO[order])
        back = series.revert(series.revert(_series(f), order), order)
        assert _maxdiff(back.coeffs, f) < 1e-11


@pytest.mark.parametrize("order", [8, 16, 32])
def test_compose_with_revert_is_identity(order):
    rng = RNG(f"rt-cv-{order}")
    for _ in range(40):
        f = _series(analytic_draw(rng, order, rho=_REVERT_RHO[order]))
        comp = series.compose(f, series.revert(f, order), order)
        assert _maxdiff(comp.coeffs, series.identity(order).coeffs) < 1e-11


def test_reciprocal_product_is_one():
    rng = RNG("recip-prod")
    for _ in range(40):
        a = _series(unit_draw(rng, 16, rho=0.9))
        prod = series.multiply(a, series.reciprocal(a, 16), 16)
        assert _maxdiff(prod.coeffs, series.constant(1.0, 16).coeffs) < 1e-12


# ---------------------------------------------------------------------------
# triangularity: higher-order computation never changes low-order output


def test_results_are_triangular_in_order():
    rng = RNG("triangular")
    a = unit_draw(rng, 24, rho=0.9)
    f = analytic_draw(rng, 24, rho=0.6)
    pairs = [
        (series.reciprocal(_series(a), 10).coeffs, series.reciprocal(_series(a), 24).coeffs),
        (series.log_unit(_series(a), 10).coeffs, series.log_unit(_series(a), 24).coeffs),
        (series.revert(_series(f), 10).coeffs, series.revert(_series(f), 24).coeffs),
        (series.multiply(_series(a), _series(a), 10).coeffs,
         series.multiply(_series(a), _series(a), 24).coeffs),
    ]
    # revert sums each row of its Horner table on its own, so the rows a
    # higher order adds must not change the low coefficients' bits
    for _ in range(5):
        g = _series(analytic_draw(rng, 40, rho=0.6))
        high = series.revert(g, 40).coeffs
        pairs += [(series.revert(g, low).coeffs, high) for low in (10, 24)]
    for low, high in pairs:
        assert np.array_equal(low, high[: len(low)])


# ---------------------------------------------------------------------------
# hypothesis sweeps


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=0.7, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=10))
def test_exp_log_round_trip_property(tail):
    c = np.concatenate([[1.0], np.asarray(tail, dtype=np.complex128) * 0.5])
    order = len(c) - 1
    back = series.exp_zero(series.log_unit(_series(c), order), order)
    assert _maxdiff(back.coeffs, c) < 1e-11


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6),
       st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False))
def test_power_via_scaled_log_adds_exponents_property(m, w):
    c = _series([1.0, w, w / 2])
    combined = _power(c, m + 1.5, 2)
    split = series.multiply(_power(c, m, 2), _power(c, 1.5, 2), 2)
    assert _maxdiff(combined.coeffs, split.coeffs) < 1e-12


# ---------------------------------------------------------------------------
# containers and validation


def test_series_is_immutable():
    s = _series([1.0, 2.0])
    with pytest.raises((ValueError, RuntimeError)):
        s.coeffs[0] = 5.0


def test_series_indexing_and_order():
    s = _series([1.0, 2.0, 3.0])
    assert s.order == 2
    assert s[2] == 3.0
    with pytest.raises(IndexError):
        s[3]
    with pytest.raises(IndexError):
        s[-1]


def test_series_equality_and_hash():
    a = _series([1.0, 2.0])
    b = _series([1.0, 2.0])
    c = _series([1.0, 2.0, 0.0])
    assert a == b and hash(a) == hash(b)
    assert a != c  # same values, different stated order: not the same object


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Series([])
    with pytest.raises(ValueError):
        Series([[1.0, 2.0]])
    with pytest.raises(ValueError):
        Series([1.0, float("nan")])
    with pytest.raises(ValueError):
        Series([1.0, float("inf")])


def test_operations_demand_known_order():
    a = _series([1.0, 2.0])
    with pytest.raises(ValueError):
        series.multiply(a, a, 5)
    with pytest.raises(ValueError):
        series.log_unit(a, 3)


def test_domain_checks():
    with pytest.raises(ValueError):
        series.reciprocal(_series([2.0, 1.0]), 1)
    with pytest.raises(ValueError):
        series.log_unit(_series([0.5, 1.0]), 1)
    with pytest.raises(ValueError):
        series.exp_zero(_series([1.0, 1.0]), 1)
    with pytest.raises(ValueError):
        series.compose(_series([1.0, 1.0]), _series([1.0, 1.0]), 1)
    with pytest.raises(ValueError):
        series.revert(_series([0.0, 2.0]), 1)
    with pytest.raises(ValueError):
        series.identity(0)
    with pytest.raises(ValueError):
        series.multiply(_series([1.0, 1.0]), _series([1.0, 1.0]), -1)
