"""Function classes: extremal constructions, membership residuals, sampling.

The heavy lifting is the residual block: every random member must satisfy
its class's defining differential relation identically in the truncation,
which is what "membership by construction" promises.
"""

import cmath
import math
import zlib

import numpy as np
import pytest

import _oracles
from _oracles import blaschke, bn_term_scale, gamma_bn_mp, poly_mul
from invlog import bounds, families, gammas, series
from invlog.families import ClassSpec, SchwarzFn
from invlog.series import Series


def RNG(tag):
    return np.random.default_rng(zlib.crc32(f"families:{tag}".encode()))


def _maxabs(arr):
    return float(np.max(np.abs(arr)))


def _z_fprime_over_f(f: Series) -> Series:
    # z f'/f = f' / (f/z), both known one order below f
    fp = series.differentiate(f)
    return series.multiply(fp, series.reciprocal(series.divide_by_z(f), f.order - 1),
                           f.order - 1)


def _z_fpp_over_fp(f: Series) -> Series:
    ord2 = f.order - 2
    fpp = series.differentiate(series.differentiate(f))
    zfpp = series.shift(fpp, 1, ord2)
    fp = series.truncate(series.differentiate(f), ord2)
    return series.multiply(zfpp, series.reciprocal(fp, ord2), ord2)


def _phi(phi_fn: SchwarzFn, order: int) -> Series:
    return families.schwarz_series(phi_fn, order)


def _is_z(f: Series) -> bool:
    """f is exactly the identity z: what a power map leaves when its z^k
    term lies past the order."""
    want = np.zeros(f.order + 1)
    want[1] = 1.0
    return np.array_equal(f.coeffs, want)


# ---------------------------------------------------------------------------
# named extremal functions


def test_koebe_coefficients():
    f = families.koebe(0.0, 10)
    assert np.allclose(f.coeffs, np.arange(11), atol=0)
    theta = 0.7
    g = families.koebe(theta, 8)
    n = np.arange(2, 9)
    assert _maxabs(g.coeffs[2:] - n * np.exp(1j * theta * (n - 1))) < 1e-15


def test_koebe_equals_one_point_map_of_widest_class():
    k = families.k_AB_n(1.0, -1.0, 1, 12)
    assert _maxabs(k.coeffs - families.koebe(0.0, 12).coeffs) < 1e-12


def test_k_AB_n_is_n_symmetric():
    f = families.k_AB_n(0.4, -0.6, 3, 13)
    for idx in range(13):
        if idx % 3 != 1:
            assert f.coeffs[idx] == 0
    assert abs(f.coeffs[4] - (0.4 + 0.6) / (3 * -0.6) * -0.6) < 1e-15  # (A-B)/n at z^4
    # n = order - 1 keeps its z^{n+1} term; n >= order puts every nonzero
    # term past the order, order 1 included
    assert _maxabs(families.k_AB_n(0.4, -0.6, 3, 4).coeffs - f.coeffs[:5]) < 1e-15
    for A, B, n, order in ((0.4, -0.6, 3, 3), (0.4, -0.6, 7, 3), (0.3, 0.0, 5, 5),
                           (1.0, -1.0, 1, 1)):
        assert _is_z(families.k_AB_n(A, B, n, order))


def test_k_AB_n_limit_form_at_B_zero():
    # z exp(A z^n / n): coefficient of z^{mn+1} is (A/n)^m / m!
    A, n = 0.3, 2
    f = families.k_AB_n(A, 0.0, n, 11)
    for m in range(0, 5):
        want = (A / n) ** m / math.factorial(m)
        assert abs(f.coeffs[m * n + 1] - want) < 1e-14
    # and it is the B -> 0 limit of the power form
    g = families.k_AB_n(A, 1e-9, n, 11)
    assert _maxabs(f.coeffs - g.coeffs) < 1e-6


def test_k_AB_n_validation():
    with pytest.raises(ValueError):
        families.k_AB_n(-1.0, 1.0, 1, 5)
    with pytest.raises(ValueError):
        families.k_AB_n(0.5, 0.5, 1, 5)
    with pytest.raises(ValueError):
        families.k_AB_n(1.0, -1.0, 0, 5)
    with pytest.raises(ValueError):
        families.k_AB_n(1.0, -1.0, 1, 0)
    # the other power maps share k_AB_n's check of the symmetry index
    with pytest.raises(ValueError):
        families.spiral_extremal(0.5, 0.25, 0, 5)
    with pytest.raises(ValueError):
        families.gc_extremal(0.5, 0, 5)


def test_spiral_extremal_with_no_tilt_reduces_to_real_family():
    for beta in (0.0, 0.25, 0.6):
        for n in (1, 2, 4):
            s = families.spiral_extremal(0.0, beta, n, 10)
            k = families.k_AB_n(1.0 - 2.0 * beta, -1.0, n, 10)
            assert _maxabs(s.coeffs - k.coeffs) < 1e-12


def test_gc_extremal_derivative_identity():
    for c, m in ((0.25, 1), (0.5, 2), (1.0, 1)):
        f = families.gc_extremal(c, m, 9)
        dp = series.differentiate(f)
        want = series.pow_scalar(
            series.subtract(series.constant(1.0, 8), series.monomial(m, 8), 8), c / m, 8)
        assert _maxabs(dp.coeffs - want.coeffs) < 1e-13
    # m >= order: f' = 1 to the order, so f = z
    for c, m, order in ((0.5, 4, 4), (0.25, 6, 4), (1.0, 1, 1)):
        assert _is_z(families.gc_extremal(c, m, order))
    g = families.gc_extremal(1.0, 1, 5)
    assert np.allclose(g.coeffs, [0, 1, -0.5, 0, 0, 0], atol=1e-15)


def test_f_alpha_extremal_halfconvex_closed_form():
    # f = ((1-z)^{-2} - 1)/2 = (z - z^2/2)/(1-z)^2: a_n = (n+1)/2 for n >= 1
    f = families.f_alpha_extremal(-0.5, "halfconvex", 12)
    n = np.arange(13)
    want = np.where(n >= 1, (n + 1) / 2.0, 0.0)
    assert _maxabs(f.coeffs - want) < 1e-12


def test_f_alpha_extremal_derivative_identities():
    alpha = 0.3
    for variant, k, mu in (("pow1", 1, -2.0 * 0.7), ("pow2", 2, -0.7),
                           ("pow3", 3, -2.0 * 0.7 / 3.0)):
        f = families.f_alpha_extremal(alpha, variant, 9)
        dp = series.differentiate(f)
        want = series.pow_scalar(
            series.subtract(series.constant(1.0, 8), series.monomial(k, 8), 8), mu, 8)
        assert _maxabs(dp.coeffs - want.coeffs) < 1e-13
    # k >= order: f' = 1 to the order, so f = z
    for variant, order in (("pow2", 2), ("pow3", 3), ("pow3", 2), ("pow1", 1)):
        assert _is_z(families.f_alpha_extremal(alpha, variant, order))
    assert _is_z(families.f_alpha_extremal(-0.5, "halfconvex", 1))


def test_f_alpha_extremal_validation():
    with pytest.raises(ValueError):
        families.f_alpha_extremal(1.0, "pow1", 5)
    with pytest.raises(ValueError):
        families.f_alpha_extremal(0.0, "pow9", 5)
    # the half-convex map is the alpha = -1/2 map only, never a stand-in for another
    for alpha in (0.3, 0.0, -0.4999):
        with pytest.raises(ValueError, match="halfconvex"):
            families.f_alpha_extremal(alpha, "halfconvex", 5)


# ---------------------------------------------------------------------------
# Schwarz functions


def _schwarz_eval(phi: SchwarzFn, z: complex) -> complex:
    out = cmath.exp(1j * phi.theta) * z ** phi.multiplicity
    for a in phi.factors:
        out *= (z + a) / (1.0 + a.conjugate() * z)
    return out


def test_schwarz_series_matches_rational_evaluation():
    rng = RNG("schwarz-eval")
    for _ in range(20):
        phi = families.sample_schwarz(int(rng.integers(1 << 30)))
        s = families.schwarz_series(phi, 40)
        for t in (0.0, 1.1, 2.5):
            z = 0.3 * cmath.exp(1j * t)
            partial = sum(s.coeffs[k] * z ** k for k in range(41))
            assert abs(partial - _schwarz_eval(phi, z)) < 1e-10


def test_schwarz_series_leading_coefficients():
    a = 0.4 + 0.1j
    phi = SchwarzFn(theta=0.9, multiplicity=2, factors=(a,))
    s = families.schwarz_series(phi, 5)
    rot = cmath.exp(0.9j)
    assert abs(s.coeffs[0]) == 0 and abs(s.coeffs[1]) == 0
    assert abs(s.coeffs[2] - rot * a) < 1e-15
    assert abs(s.coeffs[3] - rot * (1.0 - abs(a) ** 2)) < 1e-15


def test_blaschke_series_leading_coefficients():
    a = -0.3 + 0.25j
    b = families.blaschke_series(0.0, (a,), 4)
    assert abs(b.coeffs[0] - a) < 1e-15
    assert abs(b.coeffs[1] - (1.0 - abs(a) ** 2)) < 1e-15
    assert abs(b.coeffs[2] + a.conjugate() * (1.0 - abs(a) ** 2)) < 1e-15


def test_blaschke_is_unimodular_on_the_circle():
    # property of the product formula itself, checked pointwise
    phi = SchwarzFn(theta=0.3, multiplicity=1, factors=(0.5, -0.2 + 0.6j))
    for t in (0.1, 1.0, 3.0, 5.5):
        assert abs(abs(_schwarz_eval(phi, cmath.exp(1j * t))) - 1.0) < 1e-12


def test_schwarz_validation():
    with pytest.raises(ValueError):
        SchwarzFn(theta=0.0, multiplicity=0)
    with pytest.raises(ValueError):
        SchwarzFn(theta=0.0, multiplicity=1, factors=(1.0,))
    with pytest.raises(ValueError):
        families.blaschke_series(0.0, (1.2,), 4)


def test_schwarz_series_high_multiplicity_is_zero_padding():
    phi = SchwarzFn(theta=0.0, multiplicity=7, factors=())
    s = families.schwarz_series(phi, 4)
    assert np.all(s.coeffs == 0)


def test_sample_schwarz_is_deterministic_and_capped():
    a = families.sample_schwarz((123, 4, 0))
    b = families.sample_schwarz((123, 4, 0))
    assert a == b
    c = families.sample_schwarz((123, 5, 0))
    assert a != c
    for i in range(50):
        phi = families.sample_schwarz((99, i), radius_cap=0.7)
        assert phi.multiplicity in (1, 2, 3)
        assert 1 <= len(phi.factors) <= 4
        assert all(abs(x) <= 0.7 for x in phi.factors)


def test_sample_schwarz_validation():
    for cap in (1.0, 1.5, -0.1, math.nan):
        for draw in (lambda: families.sample_schwarz(1, radius_cap=cap),
                     lambda: families.sample_dilation(1, 0.5, radius_cap=cap)):
            with pytest.raises(ValueError, match="radius_cap"):
                draw()


@pytest.mark.parametrize("seed", [3, 131, 2**40 + 7])
def test_keyed_draws_match_the_reference_draws(seed):
    # the draws take fewer Generator calls than _oracles' one-call-per-value
    # form; every value must keep its bits (repr tells -0.0 from 0.0)
    keys = [(seed, i, attempt) for i in range(2000) for attempt in (0, 1)]
    cases = [(families.sample_schwarz, _oracles.sample_schwarz, {}),
             (families.sample_schwarz, _oracles.sample_schwarz, {"radius_cap": 0.0}),
             (families.sample_dilation, _oracles.sample_dilation, {"lam": 0.5}),
             (families.sample_dilation, _oracles.sample_dilation,
              {"lam": 0.75, "radius_cap": 0.0})]
    for draw, reference, kwargs in cases:
        keyed = keys if kwargs in ({}, {"lam": 0.5}) else keys[:400]
        got = [draw(key, **kwargs) for key in keyed]
        want = [reference(key, **kwargs) for key in keyed]
        assert got == want, (draw.__name__, kwargs)
        assert list(map(repr, got)) == list(map(repr, want)), (draw.__name__, kwargs)


# ---------------------------------------------------------------------------
# members by subordination: defining-relation residuals


def _member_residual(spec: ClassSpec, phi_fn: SchwarzFn, order: int) -> float:
    f = families.member_from_schwarz(spec, phi_fn, order)
    if spec.tag == "f-alpha":
        ord2 = order - 2
        s = _phi(phi_fn, ord2)
        lhs = series.multiply(_z_fpp_over_fp(f),
                              series.subtract(series.constant(1.0, ord2), s, ord2), ord2)
        rhs = series.scale(s, 2.0 * (1.0 - spec.alpha))
        return _maxabs(series.subtract(lhs, rhs, ord2).coeffs)
    ord1 = order - 1
    s = _phi(phi_fn, ord1)
    q = _z_fprime_over_f(f)
    one = series.constant(1.0, ord1)
    if spec.tag in ("full-s", "star-ab"):
        A = 1.0 if spec.tag == "full-s" else spec.A
        B = -1.0 if spec.tag == "full-s" else spec.B
        lhs = series.multiply(q, series.add(one, series.scale(s, B), ord1), ord1)
        rhs = series.add(one, series.scale(s, A), ord1)
    elif spec.tag == "spiral":
        A = cmath.exp(1j * spec.alpha) * (cmath.exp(1j * spec.alpha)
                                          - 2.0 * spec.beta * math.cos(spec.alpha))
        lhs = series.multiply(q, series.subtract(one, s, ord1), ord1)
        rhs = series.add(one, series.scale(s, A), ord1)
    elif spec.tag == "gc":
        c = spec.c
        lhs = series.multiply(q, series.subtract(series.constant(1.0 + c, ord1), s, ord1), ord1)
        rhs = series.scale(series.subtract(one, s, ord1), 1.0 + c)
    else:
        raise AssertionError(spec.tag)
    return _maxabs(series.subtract(lhs, rhs, ord1).coeffs)


@pytest.mark.parametrize("spec", [
    ClassSpec.full_s(),
    ClassSpec.star_ab(1.0, -1.0),
    ClassSpec.star_ab(0.6, -0.4),
    ClassSpec.star_ab(0.2, 0.0),
    ClassSpec.spiral(0.5, 0.25),
    ClassSpec.spiral(-1.1, 0.7),
    ClassSpec.gc(0.5),
    ClassSpec.gc(1.0),
    ClassSpec.f_alpha(0.0),
    ClassSpec.f_alpha(-0.5),
    ClassSpec.f_alpha(0.8),
], ids=lambda s: s.label())
def test_member_satisfies_defining_relation(spec):
    rng = RNG(f"resid-{spec.label()}")
    worst = 0.0
    for i in range(25):
        phi_fn = families.sample_schwarz((int(rng.integers(1 << 30)), i))
        worst = max(worst, _member_residual(spec, phi_fn, 14))
    assert worst < 1e-10


def test_member_from_schwarz_identity_phi_gives_named_extremals():
    order = 12
    phi = series.extend(series.identity(1), order - 1)
    full = families.member_from_schwarz(ClassSpec.full_s(), phi, order)
    assert _maxabs(full.coeffs - families.koebe(0.0, order).coeffs) < 1e-12

    star = families.member_from_schwarz(ClassSpec.star_ab(0.5, -0.5), phi, order)
    assert _maxabs(star.coeffs - families.k_AB_n(0.5, -0.5, 1, order).coeffs) < 1e-12

    fa = families.member_from_schwarz(ClassSpec.f_alpha(-0.5), phi, order)
    assert _maxabs(fa.coeffs - families.f_alpha_extremal(-0.5, "pow1", order).coeffs) < 1e-12

    c = 0.5
    gc = families.member_from_schwarz(ClassSpec.gc(c), phi, order)
    base = series.subtract(series.constant(1.0, order - 1),
                           series.scale(series.extend(series.identity(1), order - 1),
                                        1.0 / (1.0 + c)), order - 1)
    want = np.concatenate([[0.0], series.pow_scalar(base, c, order - 1).coeffs])
    assert _maxabs(gc.coeffs - want) < 1e-12

    alpha, beta = 0.5, 0.25
    sp = families.member_from_schwarz(ClassSpec.spiral(alpha, beta), phi, order)
    gam = 2.0 * (1.0 - beta) * math.cos(alpha) * cmath.exp(1j * alpha)
    base = series.subtract(series.constant(1.0, order - 1),
                           series.extend(series.identity(1), order - 1), order - 1)
    want = np.concatenate([[0.0], series.pow_scalar(base, -gam, order - 1).coeffs])
    assert _maxabs(sp.coeffs - want) < 1e-12


def test_member_from_schwarz_rejects_bad_phi():
    spec = ClassSpec.star_ab(1.0, -1.0)
    with pytest.raises(ValueError):
        families.member_from_schwarz(spec, series.Series([0.5, 1.0]), 8)
    with pytest.raises(ValueError):
        families.member_from_schwarz(spec, series.identity(2), 8)  # too short
    with pytest.raises(TypeError):
        families.member_from_schwarz(spec, "z", 8)
    with pytest.raises(ValueError):
        families.member_from_schwarz(ClassSpec.u_lambda(0.5),
                                     series.extend(series.identity(1), 7), 8)


# ---------------------------------------------------------------------------
# bounded-distortion members


def test_u_lambda_member_structure_identity():
    # f' (z/f)^2 - 1 + lam z^2 omega = 0 in the truncation
    rng = RNG("u-resid")
    lam = 0.75
    order = 14
    for i in range(20):
        omega = families.blaschke_series(float(rng.uniform(0, 6)),
                                         tuple(0.8 * np.sqrt(rng.uniform(size=2))
                                               * np.exp(1j * rng.uniform(0, 6, size=2))),
                                         order)
        a2 = complex(rng.normal(), rng.normal()) * 0.5
        f = families.u_lambda_member(a2, omega, lam, order)
        ord2 = order - 2
        zf = series.reciprocal(series.divide_by_z(f), order - 1)  # z/f
        sq = series.multiply(zf, zf, ord2)
        lhs = series.multiply(series.truncate(series.differentiate(f), ord2), sq, ord2)
        resid = series.add(series.subtract(lhs, series.constant(1.0, ord2), ord2),
                           series.shift(series.scale(omega, lam), 2, ord2), ord2)
        assert _maxabs(resid.coeffs) < 1e-10


def test_u_lambda_member_accepts_three_omega_forms():
    lam, a2, order = 0.5, 0.3 + 0.1j, 10
    const = families.u_lambda_member(a2, 0.4, lam, order)
    flat = families.blaschke_series(0.0, (), order)  # constant 1
    assert abs(const.coeffs[2] - a2) < 1e-15
    via_series = families.u_lambda_member(a2, series.scale(flat, 0.4), lam, order)
    assert _maxabs(const.coeffs - via_series.coeffs) < 1e-15
    phi = SchwarzFn(theta=0.0, multiplicity=1, factors=(0.2,))
    f = families.u_lambda_member(a2, phi, lam, order)
    assert f.order == order


def test_u_lambda_member_validation():
    with pytest.raises(ValueError):
        families.u_lambda_member(0.1, 0.0, 1.5, 8)
    with pytest.raises(ValueError):
        families.u_lambda_member(0.1, 0.0, 0.5, 1)
    with pytest.raises(ValueError):
        families.u_lambda_member(0.1, 1.5, 0.5, 8)  # constant omega too large
    with pytest.raises(ValueError):
        families.u_lambda_member(0.1, series.constant(0.5, 2), 0.5, 12)  # short omega


def test_u_extremal_second_coefficient():
    for lam, a in ((0.25, 0.0), (1.0, 0.3), (0.6, 0.7)):
        f = families.u_extremal(lam, a, 9)
        assert abs(f.coeffs[2] - (1.0 + lam * bounds.v_of_x(a))) < 1e-13
    with pytest.raises(ValueError):
        families.u_extremal(0.5, 1.0, 9)


# ---------------------------------------------------------------------------
# class descriptors


def test_class_spec_validation():
    with pytest.raises(ValueError):
        ClassSpec(tag="nope")
    with pytest.raises(ValueError):
        ClassSpec.star_ab(0.5, 0.5)
    with pytest.raises(ValueError):
        ClassSpec.star_ab(1.2, -1.0)
    with pytest.raises(ValueError):
        ClassSpec.spiral(2.0, 0.5)
    with pytest.raises(ValueError):
        ClassSpec.spiral(0.0, 1.0)
    with pytest.raises(ValueError):
        ClassSpec.gc(0.0)
    with pytest.raises(ValueError):
        ClassSpec.gc(1.5)
    with pytest.raises(ValueError):
        ClassSpec.u_lambda(0.0)
    with pytest.raises(ValueError):
        ClassSpec.f_alpha(-0.6)
    with pytest.raises(ValueError):
        ClassSpec.f_alpha(1.0)
    with pytest.raises(ValueError):
        ClassSpec(tag="star-ab", A=1.0)  # missing B


def test_class_spec_delta_and_label():
    sp = ClassSpec.star_ab(0.5, -0.5)
    assert abs(sp.delta - 1.0 / 3.0) < 1e-15
    assert sp.label() == "star-ab(A=0.5,B=-0.5)"
    assert sp.params() == {"A": 0.5, "B": -0.5}
    with pytest.raises(ValueError):
        ClassSpec.gc(0.5).delta
    assert ClassSpec.full_s().label() == "full-s"
    assert ClassSpec.u_lambda(0.75).params() == {"lam": 0.75}


# ---------------------------------------------------------------------------
# members in batches, held to the oracles
#
# member_rows is also what member_from_schwarz and u_lambda_member run on one
# row, so the rows are checked against relations evaluated in _oracles: the
# defining relation written with products only (no reciprocal to cancel),
# to within rounding of the terms it sums.


BATCH_CLASSES = [ClassSpec.full_s(), ClassSpec.star_ab(0.6, -0.4), ClassSpec.spiral(0.5, 0.25),
                 ClassSpec.gc(0.5), ClassSpec.u_lambda(0.75), ClassSpec.f_alpha(-0.5)]


def _abs(p):
    return [abs(x) for x in p]


def _oracle_residual(spec: ClassSpec, draw, row, order: int):
    """Residual and term scale per coefficient of the member's defining
    relation. With q = z f'/f (or 1 + z f''/f') and q - 1 = a phi/(1 + b phi),
    it reads q_num (1 + b phi) = g (1 + (a + b) phi) for q = q_num/g; the
    bounded-distortion class reads f' = (f/z)^2 (1 - lam z^2 omega)."""
    f = [complex(c) for c in row]
    if spec.entry.subordination is None:
        n = order - 1
        omega = blaschke(draw.theta, 0, draw.factors, max(order - 3, 0))
        factor = ([1, 0] + [-spec.lam * w for w in omega] + [0] * n)[: n + 1]
        lhs = [(k + 1) * f[k + 1] for k in range(n + 1)]
        rhs = poly_mul(poly_mul(f[1:], f[1:], n), factor, n)
        scale = [abs(x) + y for x, y in
                 zip(lhs, poly_mul(poly_mul(_abs(f[1:]), _abs(f[1:]), n), _abs(factor), n))]
        return np.abs(np.subtract(lhs, rhs)), np.array(scale)
    a, b = spec.entry.subordination(spec)
    n = order - 1 if spec.entry.derivative else order
    phi = blaschke(draw.theta, draw.multiplicity, draw.factors, order - 1)
    g = [(k + 1) * f[k + 1] for k in range(n + 1)] if spec.entry.derivative else f
    q_num = [(k + 1) * g[k] if spec.entry.derivative else k * g[k] for k in range(n + 1)]
    one_b = [1] + [b * p for p in phi[1 : n + 1]]
    one_ab = [1] + [(a + b) * p for p in phi[1 : n + 1]]
    resid = np.subtract(poly_mul(q_num, one_b, n), poly_mul(g, one_ab, n))
    scale = np.add(poly_mul(_abs(q_num), _abs(one_b), n), poly_mul(_abs(g), _abs(one_ab), n))
    return np.abs(resid), scale


@pytest.mark.parametrize("order,radius_cap", [(16, 0.95), (40, 0.8)])
@pytest.mark.parametrize("spec", BATCH_CLASSES, ids=lambda s: s.label())
def test_member_rows_match_the_scalar_members(spec, order, radius_cap):
    draws = [families.sample_member(spec, (11, i, 0), radius_cap=radius_cap)
             for i in range(24)]
    rows = families.member_rows(spec, draws, order)
    gam = gammas.gamma_via_bn(rows, order - 1)
    assert rows.shape == (24, order + 1) and gam.shape == (24, order - 1)
    for draw, row, g in zip(draws, rows, gam):
        assert row[0] == 0 and row[1] == 1
        if spec.entry.subordination is None:
            assert row[2] == draw.a2  # f = z / (1 - a2 z + ...)
        resid, scale = _oracle_residual(spec, draw, row, order)
        assert np.all(resid[scale == 0] == 0)
        assert np.max(resid[scale > 0] / scale[scale > 0]) <= 1e-12
        # a row's bits do not depend on the rows stacked with it
        alone = families.member_rows(spec, [draw], order)
        assert np.array_equal(alone[0], row)
        assert np.array_equal(gammas.gamma_via_bn(alone, order - 1)[0], g)


@pytest.mark.parametrize("spec", BATCH_CLASSES + [None],
                         ids=lambda s: "cusp-map" if s is None else s.label())
def test_bn_route_is_within_rounding_of_a_50_digit_oracle(spec):
    # the scale-aware check of the float bn route: the 50-digit oracle runs
    # the same identity on the same doubles, so what is left is rounding,
    # bounded by the route's own term scale (the top Gammas cancel: at order
    # 40 they move by 1e-9 of themselves when the member moves by 1e-14)
    order, at = 40, 97
    draws = [families.sample_member(spec or ClassSpec.full_s(), (29, i, 0), radius_cap=0.95)
             for i in range(256)]
    rows = families.member_rows(spec or ClassSpec.full_s(), draws, order)
    if spec is None:
        rows[at] = families.koebe(0.0, order).coeffs
    stacked = gammas.gamma_via_bn(rows, order - 1)[at]
    one = gammas.gamma_via_bn(Series(rows[at]), order - 1)
    want = np.array(gamma_bn_mp(rows[at], order - 1))
    scale = np.array(bn_term_scale(rows[at], order - 1))
    for got in (one, stacked):
        assert np.all(got[scale == 0] == want[scale == 0])
        assert np.max(np.abs(got - want)[scale > 0] / scale[scale > 0]) <= 1e-12


def test_blaschke_rows_match_the_scalar_series():
    rng = RNG("blaschke-rows")
    thetas = rng.uniform(0, 2 * math.pi, size=5)
    factors = [tuple(0.9 * np.sqrt(rng.uniform(size=d)) * np.exp(2j * math.pi * rng.uniform(size=d)))
               for d in (0, 1, 4, 2, 3)]
    multiplicities = [0, 1, 2, 3, 20]
    rows = families.blaschke_rows(thetas, multiplicities, factors, 12)
    for s in range(5):
        want = blaschke(thetas[s], multiplicities[s], factors[s], 12)
        np.testing.assert_allclose(rows[s], want, rtol=0, atol=1e-14)
        alone = families.blaschke_rows(thetas[s:s + 1], multiplicities[s:s + 1], factors[s:s + 1], 12)
        assert np.array_equal(alone[0], rows[s])
    assert np.array_equal(rows[0], families.blaschke_series(thetas[0], factors[0], 12).coeffs)
    for s in range(1, 5):
        phi = SchwarzFn(thetas[s], multiplicities[s], factors[s])
        assert np.array_equal(rows[s], families.schwarz_series(phi, 12).coeffs)


def test_sample_dilation_is_keyed_and_inside_the_class():
    a = families.sample_dilation((5, 3, 0), 0.5, radius_cap=0.95)
    assert a == families.sample_dilation((5, 3, 0), 0.5, radius_cap=0.95)
    assert a != families.sample_dilation((5, 4, 0), 0.5, radius_cap=0.95)
    assert len(a.factors) <= 3 and all(abs(x) < 0.95 for x in a.factors)
    omega = families.blaschke_series(a.theta, a.factors, 0)
    assert a.abs_a == pytest.approx(abs(omega[0]), rel=1e-15)
    assert abs(a.a2) <= 0.95 * (1.0 + 0.5 * bounds.v_of_x(a.abs_a))
