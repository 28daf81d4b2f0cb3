"""Bound formulas: values, clause dispatch, seams, and the region table.

Values are checked against factorial closed forms (math.comb) where one
exists and against hand-evaluated products at chosen parameter points
otherwise. Dispatch tests pin which clause fires where, including the
integer-seam reroute and the top-interval precedence.
"""

import math
from fractions import Fraction

import pytest

from _oracles import v_quadrature
from invlog import bounds
from invlog.bounds import (
    BoundResult,
    bound_bn_Gc,
    bound_class_S,
    bound_F_gamma1,
    bound_F_gamma2,
    bound_F_gamma3,
    bound_for,
    bound_Gc,
    bound_spiral,
    bound_star_AB,
    bound_star_order,
    bound_U_gamma1,
    bound_U_gamma2,
    f_alpha_mu_upsilon,
    ps_psi_bound,
    ps_region,
    v_of_x,
    verify_d1234,
)
from invlog.families import ClassSpec


def test_full_class_bound_is_central_binomial():
    for n in range(1, 17):
        want = math.comb(2 * n, n) / (2.0 * n)
        got = bound_class_S(n)
        assert got.branch == "central-binomial"
        assert abs(got.value - want) <= 1e-15 * want
    with pytest.raises(ValueError):
        bound_class_S(0)


# ---------------------------------------------------------------------------
# the (A, B) family: clause dispatch


def test_star_AB_with_extreme_parameters_matches_full_class():
    for n in range(1, 13):
        assert abs(bound_star_AB(n, 1, -1).value - bound_class_S(n).value) < 1e-12


def test_star_AB_order_one_is_linear():
    res = bound_star_AB(1, 0.5, -0.5)
    assert res.branch == "full-product"
    assert abs(res.value - 0.5) < 1e-15  # (A-B)/2


def test_star_AB_top_interval_linear_clause():
    # delta = 5/6 puts n*delta in the top interval for n = 3
    res = bound_star_AB(3, Fraction(-2, 3), -1)
    assert res.branch == "endpoint-linear"
    assert abs(res.value - Fraction(1, 18)) < 1e-16


def test_star_AB_endpoint_takes_precedence_over_integer_seam():
    # delta = 1/2, n = 2: n*delta = 1 is both integer and top-interval;
    # the linear clause wins
    res = bound_star_AB(2, Fraction(0, 1), -1)
    assert res.branch == "endpoint-linear"
    assert abs(res.value - 0.25) < 1e-15


def test_star_AB_integer_seam_reroutes_to_full_product():
    # delta = 1/3: at n = 3 the seam k = 1 reroutes
    res = bound_star_AB(3, Fraction(1, 2), Fraction(-1, 2))
    assert res.branch == "full-product"
    assert "rerouted" in res.note
    assert abs(res.value - (1.0 / 6.0) * 3.0 * (2.5 / 2.0) * (2.0 / 3.0)) < 1e-15
    # at n = 4 the same delta gives a fractional k = 1: partial product
    res4 = bound_star_AB(4, Fraction(1, 2), Fraction(-1, 2))
    assert res4.branch == "partial-product k=1"
    want = (3.0 / 32.0) * 4.0 * (3.5 / 2.0) * (3.0 / 3.0)
    assert abs(res4.value - want) < 1e-14


def test_star_AB_reroute_points_from_the_other_pairs():
    res = bound_star_AB(5, Fraction(3, 5), -1)  # delta = 1/5
    assert res.branch == "full-product" and "rerouted" in res.note
    res = bound_star_AB(6, Fraction(3, 5), -1)
    assert res.branch == "partial-product k=1"


def test_star_AB_with_B_zero_endpoint_run():
    # delta = 0.8: top interval for n = 2..5, then partial products
    for n in range(2, 6):
        res = bound_star_AB(n, Fraction(1, 5), 0)
        assert res.branch == "endpoint-linear"
        assert abs(res.value - 0.2 / (2.0 * n)) < 1e-15
    for n, k in ((6, 4), (7, 5), (8, 6)):
        res = bound_star_AB(n, Fraction(1, 5), 0)
        assert res.branch == f"partial-product k={k}"
        assert res.value > 0


def test_star_AB_float_and_fraction_inputs_agree():
    for n in range(1, 11):
        exact = bound_star_AB(n, Fraction(1, 2), Fraction(-1, 2))
        approx = bound_star_AB(n, 0.5, -0.5)
        assert exact.branch == approx.branch
        assert abs(exact.value - approx.value) <= 1e-14 * exact.value


def test_star_AB_fired_clauses_are_positive():
    for A, B in ((1.0, -1.0), (0.6, -1.0), (0.5, -0.5), (0.2, 0.0), (0.9, 0.5)):
        for n in range(1, 13):
            assert bound_star_AB(n, A, B).value > 0


def test_star_AB_validation():
    with pytest.raises(ValueError):
        bound_star_AB(0, 1, -1)
    with pytest.raises(ValueError):
        bound_star_AB(3, -1, 1)
    with pytest.raises(ValueError):
        bound_star_AB(3, 0.5, 0.5)


def test_star_order_delegates_to_the_two_parameter_family():
    for beta in (0.0, 0.25, 0.37):
        for n in range(1, 9):
            a = bound_star_order(n, beta)
            b = bound_star_AB(n, 1.0 - 2.0 * beta, -1.0)
            assert abs(a.value - b.value) <= 1e-14 * b.value
            assert a.branch == b.branch


def test_star_order_partial_branch_carries_limit_note():
    res = bound_star_order(6, Fraction(1, 4))  # delta = 1/4, k = 1 at n = 6
    assert res.branch == "partial-product k=1"
    assert "off by two" in res.note
    clean = bound_star_order(2, Fraction(1, 4))
    assert "off by two" not in clean.note


# ---------------------------------------------------------------------------
# the tilted family


def test_spiral_reduces_to_real_family_when_untilted():
    for beta in (0.1, 0.3, 0.55):
        for n in range(1, 9):
            sp = bound_spiral(n, 0.0, beta)
            st = bound_star_order(n, beta)
            if "rerouted" in st.note:
                continue  # the tilted family has no integer-seam rule
            assert abs(sp.value - st.value) <= 1e-13 * st.value


def test_spiral_full_product_value():
    import cmath
    n, alpha, beta = 4, 0.5, 0.1
    zeta = 2.0 * n * (1.0 - beta) * math.cos(alpha) * cmath.exp(-1j * alpha)
    want = 1.0
    for j in range(n):
        want *= abs(zeta - j) / (1.0 + j)
    want /= 2.0 * n
    res = bound_spiral(n, alpha, beta)
    assert res.branch == "full-product"
    assert abs(res.value - want) <= 1e-14 * want


def test_spiral_endpoint_clause_and_note():
    res = bound_spiral(2, 0.7, 0.6)
    assert res.branch == "endpoint-linear"
    assert abs(res.value - 0.4 * math.cos(0.7) / 2.0) < 1e-15
    assert "corrected" in res.note


def test_spiral_middle_clause():
    res = bound_spiral(5, 0.3, 0.25)  # k = 1
    assert res.branch == "partial-product k=1"
    assert res.value > 0


def test_spiral_validation():
    with pytest.raises(ValueError):
        bound_spiral(0, 0.0, 0.5)
    with pytest.raises(ValueError):
        bound_spiral(2, 1.6, 0.5)
    with pytest.raises(ValueError):
        bound_spiral(2, 0.0, 1.0)


# ---------------------------------------------------------------------------
# bounded turning with convexity control


def test_bn_helper_bound_regimes():
    # lam <= 1 is linear in lam
    assert abs(bound_bn_Gc(3, 0.5, 0.5) - 0.5 * 0.5 / (3 * 1.5)) < 1e-15
    # 1 < lam, m small: full product over m factors
    lam, c = 2.5, 0.5
    want = (lam * c) * (lam * c + 1) / 2.0 / 1.5 ** 2
    assert abs(bound_bn_Gc(2, lam, c) - want) < 1e-14
    # m beyond floor(lam) + 1: frozen product with the 1/m prefactor
    p = 2
    want = p / (5 * 1.5 ** p) * (lam * c) * (lam * c + 1) / 2.0
    assert abs(bound_bn_Gc(5, lam, c) - want) < 1e-14
    with pytest.raises(ValueError):
        bound_bn_Gc(0, 1.0, 0.5)
    with pytest.raises(ValueError):
        bound_bn_Gc(1, 0.0, 0.5)
    with pytest.raises(ValueError):
        bound_bn_Gc(1, 1.0, 2.0)


def test_gamma_bound_is_bn_bound_at_lam_n_over_2n():
    for c in (0.25, 0.5, 1.0):
        for n in range(1, 9):
            assert abs(bound_Gc(n, c).value - bound_bn_Gc(n, n, c) / (2.0 * n)) < 1e-15


def test_gamma_bound_at_c_one_closed_form():
    for n in range(1, 13):
        want = math.factorial(2 * n - 1) / (math.factorial(n) ** 2 * 2.0 ** (n + 1))
        assert abs(bound_Gc(n, 1.0).value - want) <= 1e-12 * want


def test_gamma_bound_validation():
    with pytest.raises(ValueError):
        bound_Gc(0, 0.5)
    with pytest.raises(ValueError):
        bound_Gc(3, 0.0)


# ---------------------------------------------------------------------------
# the distortion mean and the bounded-distortion bounds


def test_v_at_zero_and_one():
    assert abs(v_of_x(0.0) - 0.5) < 1e-16
    assert abs(v_of_x(1.0) - 1.0) < 1e-15


def test_v_series_and_closed_form_agree_at_the_seam():
    # both branches a hair on either side of the switch
    a = v_of_x(0.2499999999)
    b = v_of_x(0.2500000001)
    assert abs(a - b) < 1e-9
    assert abs(v_of_x(0.25) - v_quadrature(0.25)) < 1e-13


def test_v_matches_quadrature_oracle():
    for i in range(21):
        x = i / 20.0
        assert abs(v_of_x(x) - v_quadrature(x)) < 1e-10


def test_v_validation():
    with pytest.raises(ValueError):
        v_of_x(-0.1)
    with pytest.raises(ValueError):
        v_of_x(1.1)


def test_bounded_distortion_bound_values():
    r1 = bound_U_gamma1(1.0, 0.0)
    assert abs(r1.value - 0.75) < 1e-15
    r2 = bound_U_gamma2(1.0, 0.0)
    assert abs(r2.value - 9.0 / 16.0) < 1e-15
    assert r1.branch == r2.branch == "structural"
    with pytest.raises(ValueError):
        bound_U_gamma1(0.0, 0.5)
    with pytest.raises(ValueError):
        bound_U_gamma2(0.5, 1.5)


# ---------------------------------------------------------------------------
# half-plane convexity: three orders, seams, and the gap


def test_convexity_bound_order_one():
    assert abs(bound_F_gamma1(0.0).value - 0.5) < 1e-16
    assert abs(bound_F_gamma1(-0.5).value - 0.75) < 1e-16


def test_convexity_bound_order_two_clauses_meet():
    low = (1.0 - 0.2) * (3.0 - 1.0) / 12.0
    high = (1.0 - 0.2) / 6.0
    assert abs(low - high) < 1e-16
    res = bound_F_gamma2(0.2)
    assert abs(res.value - 2.0 / 15.0) < 1e-14
    assert bound_F_gamma2(0.19).branch == "low-range"
    assert bound_F_gamma2(0.21).branch == "high-range"
    assert abs(bound_F_gamma2(-0.5).value - 11.0 / 16.0) < 1e-15


def test_convexity_bound_order_three_ranges():
    low_hi = 7.0 / 47.0
    res = bound_F_gamma3(low_hi)
    assert res.branch == "low-range" and res.applicable
    res = bound_F_gamma3(low_hi + 1e-6)
    assert not res.applicable and res.value is None and res.branch == "gap"
    res = bound_F_gamma3(bounds.ALPHA3_LO)
    assert res.branch == "mid-range"
    assert abs(res.value - (1.0 - bounds.ALPHA3_LO) / 12.0) < 1e-15
    assert bound_F_gamma3(0.7).applicable
    assert not bound_F_gamma3(0.701).applicable
    assert abs(bound_F_gamma3(-0.5).value - 7.0 / 8.0) < 1e-15
    assert abs(bound_F_gamma3(0.0).value - 1.0 / 6.0) < 1e-15


def test_convexity_validation():
    for fn in (bound_F_gamma1, bound_F_gamma2, bound_F_gamma3):
        with pytest.raises(ValueError):
            fn(-0.51)
        with pytest.raises(ValueError):
            fn(1.0)


# ---------------------------------------------------------------------------
# quartic-functional region classification


def test_mu_upsilon_map():
    mu, ups = f_alpha_mu_upsilon(0.2)
    assert abs(mu + 2.0) < 1e-15
    assert abs(ups - 0.84) < 1e-15


def test_region_spot_checks():
    assert ps_region(0.0, 0.0) == "D1"
    assert ps_region(0.4, -1.0) == "D1"
    assert ps_region(1.0, 0.9) == "D2"
    assert ps_region(-1.5, 1.0) == "D2"
    assert ps_region(3.0, 17.0 / 12.0 + 0.1) == "D6"
    assert ps_region(-3.0, 17.0 / 12.0 + 0.1) == "D6"
    assert ps_region(5.0, 8.0 / 3.0 + 0.1) == "D7"
    assert ps_region(0.0, 2.0) == "other"
    assert ps_region(1.0, -0.9) == "other"


def test_region_ties_go_to_the_earliest():
    # |mu| = 0.5 with admissible upsilon lies in both D1 and D2
    assert ps_region(0.5, 0.5) == "D1"
    assert ps_region(-0.5, 1.0) == "D1"
    # |mu| = 2 on the shared wall
    assert ps_region(2.0, 1.0) == "D2"


def test_psi_bound_values():
    assert ps_psi_bound(0.0, 0.5) == 1.0
    assert ps_psi_bound(1.0, 0.9) == 1.0
    assert ps_psi_bound(3.0, 2.0) == 2.0
    assert ps_psi_bound(-5.0, 3.0) == 3.0
    assert ps_psi_bound(0.0, 2.0) is None


def test_region_table_verification_clean():
    report = verify_d1234(step=1e-2)
    assert report["ok"]
    assert report["mismatches"] == []
    assert report["checked"] > 100
    assert len(report["rows"]) == 4
    with pytest.raises(ValueError):
        verify_d1234(step=0.0)


def test_region_table_rows_cover_the_proved_ranges():
    rows = {r["region"]: r for r in verify_d1234(step=0.5)["rows"]}
    assert rows["D7"]["alpha_lo"] == -0.5 and rows["D7"]["alpha_hi"] == -0.2
    assert rows["D6"]["alpha_hi"] == pytest.approx(7.0 / 47.0)
    assert rows["D2"]["alpha_lo"] == pytest.approx(bounds.ALPHA3_LO)
    assert rows["D1"]["alpha_hi"] == 0.7


def test_low_range_edge_sits_on_the_region_wall():
    # at the upper edge of the low range the pair (mu, upsilon) lies exactly
    # on the boundary curve of the sixth region
    mu, ups = f_alpha_mu_upsilon(7.0 / 47.0)
    assert abs(ups - (mu * mu + 8.0) / 12.0) < 1e-12


# ---------------------------------------------------------------------------
# dispatcher


def test_bound_for_routes_every_class():
    assert bound_for(ClassSpec.full_s(), 3).branch == "central-binomial"
    assert bound_for(ClassSpec.star_ab(0.5, -0.5), 2).value == bound_star_AB(2, 0.5, -0.5).value
    assert bound_for(ClassSpec.spiral(0.2, 0.3), 2).value == bound_spiral(2, 0.2, 0.3).value
    assert bound_for(ClassSpec.gc(0.5), 2).value == bound_Gc(2, 0.5).value
    assert bound_for(ClassSpec.u_lambda(0.5), 1, abs_a=0.3).value == \
        bound_U_gamma1(0.5, 0.3).value
    assert bound_for(ClassSpec.f_alpha(0.1), 2).value == bound_F_gamma2(0.1).value


def test_bound_for_marks_open_orders():
    res = bound_for(ClassSpec.u_lambda(0.5), 3, abs_a=0.3)
    assert not res.applicable and res.branch == "open"
    res = bound_for(ClassSpec.f_alpha(0.1), 4)
    assert not res.applicable and res.branch == "open"


def test_bound_for_u_lambda_demands_the_sample_parameter():
    with pytest.raises(ValueError):
        bound_for(ClassSpec.u_lambda(0.5), 1)


def test_bound_result_shape():
    res = BoundResult(n=2, value=0.5, branch="x")
    assert res.applicable and res.note == ""
