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
from _oracles import (blaschke, bn_term_scale, gamma_bn_mp, poly_mul, pow_binomial,
                      recip_neumann)
from invlog import bounds, families, gammas, keyed, series
from invlog.families import F_ALPHA_VARIANTS, ClassSpec


def RNG(tag):
    return np.random.default_rng(zlib.crc32(f"families:{tag}".encode()))


def _maxabs(arr):
    return float(np.max(np.abs(arr)))


def _derivative(c: np.ndarray) -> np.ndarray:
    """Term-wise derivative of a coefficient array; one order lower."""
    return c[1:] * np.arange(1, len(c))


def _plus(c0, c: np.ndarray) -> np.ndarray:
    """c0 + c, a constant added to a coefficient array, as a one-row stack."""
    out = np.array(c, dtype=np.complex128)
    out[0] += c0
    return out[None]


def _z_fprime_over_f(f: np.ndarray) -> np.ndarray:
    # z f'/f = f' / (f/z), both known one order below f
    order = len(f) - 2
    return series.multiply(_derivative(f)[None], series.reciprocal(f[None, 1:], order), order)


def _z_fpp_over_fp(f: np.ndarray) -> np.ndarray:
    ord2 = len(f) - 3
    fp = _derivative(f)
    zfpp = np.concatenate([[0.0], _derivative(fp)[:ord2]])
    return series.multiply(zfpp[None], series.reciprocal(fp[None, : ord2 + 1], ord2), ord2)


def _one_minus_z_to(k: int, order: int) -> list:
    """1 - z^k to the order, for k <= order."""
    return [1.0] + [-1.0 if i == k else 0.0 for i in range(1, order + 1)]


def _schwarz_rows(draws, order: int) -> np.ndarray:
    """The Schwarz functions of draw_members' columns, one row each."""
    return families.blaschke_rows(draws.theta, draws.multiplicity, draws.factors, draws.count,
                                  order)


def _is_z(f: np.ndarray) -> bool:
    """f is exactly the identity z: what a power map leaves when its z^k
    term lies past the order."""
    want = np.zeros((1, f.shape[1]))
    want[0, 1] = 1.0
    return np.array_equal(f, want)


# ---------------------------------------------------------------------------
# named extremal functions


def test_koebe_coefficients():
    f = families.koebe(0.0, 10)
    assert np.allclose(f[0], np.arange(11), atol=0)
    theta = 0.7
    g = families.koebe(theta, 8)
    n = np.arange(2, 9)
    assert _maxabs(g[0][2:] - n * np.exp(1j * theta * (n - 1))) < 1e-15


def test_koebe_equals_one_point_map_of_widest_class():
    k = families.k_AB_n(1.0, -1.0, 1, 12)
    assert _maxabs(k[0] - families.koebe(0.0, 12)[0]) < 1e-12


def test_k_AB_n_is_n_symmetric():
    f = families.k_AB_n(0.4, -0.6, 3, 13)
    for idx in range(13):
        if idx % 3 != 1:
            assert f[0][idx] == 0
    assert abs(f[0][4] - (0.4 + 0.6) / (3 * -0.6) * -0.6) < 1e-15  # (A-B)/n at z^4
    # n = order - 1 keeps its z^{n+1} term; n >= order puts every nonzero
    # term past the order, order 1 included
    assert _maxabs(families.k_AB_n(0.4, -0.6, 3, 4)[0] - f[0][:5]) < 1e-15
    for A, B, n, order in ((0.4, -0.6, 3, 3), (0.4, -0.6, 7, 3), (0.3, 0.0, 5, 5),
                           (1.0, -1.0, 1, 1)):
        assert _is_z(families.k_AB_n(A, B, n, order))


def test_k_AB_n_limit_form_at_B_zero():
    # z exp(A z^n / n): coefficient of z^{mn+1} is (A/n)^m / m!
    A, n = 0.3, 2
    f = families.k_AB_n(A, 0.0, n, 11)
    for m in range(0, 5):
        want = (A / n) ** m / math.factorial(m)
        assert abs(f[0][m * n + 1] - want) < 1e-14
    # and it is the B -> 0 limit of the power form
    g = families.k_AB_n(A, 1e-9, n, 11)
    assert _maxabs(f[0] - g[0]) < 1e-6


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
            assert _maxabs(s[0] - k[0]) < 1e-12


def test_gc_extremal_derivative_identity():
    for c, m in ((0.25, 1), (0.5, 2), (1.0, 1)):
        dp = _derivative(families.gc_extremal(c, m, 9)[0])
        want = pow_binomial(_one_minus_z_to(m, 8), c / m, 8)
        assert _maxabs(dp - np.array(want)) < 1e-13
    # m >= order: f' = 1 to the order, so f = z
    for c, m, order in ((0.5, 4, 4), (0.25, 6, 4), (1.0, 1, 1)):
        assert _is_z(families.gc_extremal(c, m, order))
    g = families.gc_extremal(1.0, 1, 5)
    assert np.allclose(g[0], [0, 1, -0.5, 0, 0, 0], atol=1e-15)


def test_f_alpha_extremal_halfconvex_closed_form():
    # f = ((1-z)^{-2} - 1)/2 = (z - z^2/2)/(1-z)^2: a_n = (n+1)/2 for n >= 1
    f = families.f_alpha_extremal(-0.5, "halfconvex", 12)
    n = np.arange(13)
    want = np.where(n >= 1, (n + 1) / 2.0, 0.0)
    assert _maxabs(f[0] - want) < 1e-12


def test_f_alpha_extremal_derivative_identities():
    alpha = 0.3
    for variant, k, mu in (("pow1", 1, -2.0 * 0.7), ("pow2", 2, -0.7),
                           ("pow3", 3, -2.0 * 0.7 / 3.0)):
        dp = _derivative(families.f_alpha_extremal(alpha, variant, 9)[0])
        want = pow_binomial(_one_minus_z_to(k, 8), mu, 8)
        assert _maxabs(dp - np.array(want)) < 1e-13
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


def _schwarz_eval(theta, m, factors, z: complex) -> complex:
    out = cmath.exp(1j * theta) * z ** m
    for a in factors:
        out *= (z + a) / (1.0 + a.conjugate() * z)
    return out


def test_schwarz_rows_match_rational_evaluation():
    rng = RNG("schwarz-eval")
    keys = [int(rng.integers(1 << 30)) for _ in range(20)]
    draws = families.draw_members(ClassSpec.gc(0.5), keys, radius_cap=0.95)
    for row, (theta, m, factors) in zip(_schwarz_rows(draws, 40), _draw_rows(draws)):
        for t in (0.0, 1.1, 2.5):
            z = 0.3 * cmath.exp(1j * t)
            partial = sum(row[k] * z ** k for k in range(41))
            assert abs(partial - _schwarz_eval(theta, m, factors, z)) < 1e-10


def test_schwarz_rows_leading_coefficients():
    a = 0.4 + 0.1j
    s = families.blaschke_rows([0.9], [2], [[a]], [1], 5)[0]
    rot = cmath.exp(0.9j)
    assert abs(s[0]) == 0 and abs(s[1]) == 0
    assert abs(s[2] - rot * a) < 1e-15
    assert abs(s[3] - rot * (1.0 - abs(a) ** 2)) < 1e-15


def test_blaschke_series_leading_coefficients():
    a = -0.3 + 0.25j
    b = families.blaschke_series(0.0, (a,), 4)
    assert abs(b[0][0] - a) < 1e-15
    assert abs(b[0][1] - (1.0 - abs(a) ** 2)) < 1e-15
    assert abs(b[0][2] + a.conjugate() * (1.0 - abs(a) ** 2)) < 1e-15


def test_blaschke_is_unimodular_on_the_circle():
    # property of the product formula itself, checked pointwise
    for t in (0.1, 1.0, 3.0, 5.5):
        z = cmath.exp(1j * t)
        assert abs(abs(_schwarz_eval(0.3, 1, (0.5, -0.2 + 0.6j), z)) - 1.0) < 1e-12


def test_schwarz_validation():
    with pytest.raises(ValueError):
        families.blaschke_series(0.0, (1.2,), 4)


def test_schwarz_rows_high_multiplicity_is_zero_padding():
    s = families.blaschke_rows([0.0], [7], np.zeros((1, 0)), [0], 4)[0]
    assert np.all(s == 0)


def test_sample_schwarz_is_deterministic_and_capped():
    a = _draw_rows(families.sample_schwarz((123, 4, 0)))
    assert a == _draw_rows(families.sample_schwarz((123, 4, 0)))
    assert a != _draw_rows(families.sample_schwarz((123, 5, 0)))
    for i in range(50):
        [(_, m, factors)] = _draw_rows(families.sample_schwarz((99, i), radius_cap=0.7))
        assert m in (1, 2, 3)
        assert 1 <= len(factors) <= 4
        assert all(abs(x) <= 0.7 for x in factors)


def test_sample_schwarz_validation():
    for cap in (1.0, 1.5, -0.1, math.nan):
        for draw in (lambda: families.sample_schwarz(1, radius_cap=cap),
                     lambda: families.draw_members(ClassSpec.u_lambda(0.5), [1], radius_cap=cap)):
            with pytest.raises(ValueError, match="radius_cap"):
                draw()


@pytest.mark.parametrize("seed", [3, 131, 2**40 + 7])
def test_keyed_draws_match_the_reference_draws(seed):
    # the chunk draw, every key of a case in one call, against _oracles' one
    # Generator call per value; every value must keep its bits (repr tells
    # -0.0 from 0.0)
    keys = [(seed, i, attempt) for i in range(2000) for attempt in (0, 1)]
    cases = [(ClassSpec.gc(0.5), 0.95, keys), (ClassSpec.gc(0.5), 0.0, keys[:400]),
             (ClassSpec.u_lambda(0.5), 0.95, keys), (ClassSpec.u_lambda(0.75), 0.0, keys[:400])]
    for spec, radius_cap, keyed in cases:
        got = _draw_rows(families.draw_members(spec, keyed, radius_cap=radius_cap))
        want = _reference_rows(keyed, spec, radius_cap)
        assert got == want, (spec.label(), radius_cap)
        assert list(map(repr, got)) == list(map(repr, want)), (spec.label(), radius_cap)


def _draw_rows(draws) -> list:
    """draw_members' columns as one tuple of Python scalars per row, in the
    fields of the reference draw; the padding past each count must be zero."""
    assert np.all(draws.factors[np.arange(4) >= draws.count[:, None]] == 0)
    factors = [tuple(fs[:d]) for fs, d in zip(draws.factors.tolist(), draws.count.tolist())]
    if draws.abs_a is None:
        return list(zip(draws.theta.tolist(), draws.multiplicity.tolist(), factors))
    assert not draws.multiplicity.any()
    return list(zip(draws.theta.tolist(), factors, draws.abs_a.tolist(), draws.a2.tolist()))


def _reference_rows(keys, spec, radius_cap) -> list:
    if spec.entry.subordination is None:
        return [_oracles.sample_dilation(key, spec.lam, radius_cap=radius_cap) for key in keys]
    return [_oracles.sample_schwarz(key, radius_cap=radius_cap) for key in keys]


_SCHWARZ_AND_DILATION = [ClassSpec.gc(0.5), ClassSpec.u_lambda(0.5)]


@pytest.mark.parametrize("seed", [3, 2**32 + 5, 2**40 + 7, 2**96 + 11])
@pytest.mark.parametrize("spec", _SCHWARZ_AND_DILATION, ids=lambda s: s.tag)
def test_chunk_draw_matches_the_reference_draws_bit_for_bit(spec, seed):
    # 2**96 + 11 makes a key of six 32-bit words, past SeedSequence's pool
    for attempt in range(4):
        keys = [(seed, i, attempt) for i in range(2000)]
        got = _draw_rows(families.draw_members(spec, keys, radius_cap=0.95))
        want = _reference_rows(keys, spec, 0.95)
        assert list(map(repr, got)) == list(map(repr, want)), attempt


@pytest.mark.parametrize("spec", _SCHWARZ_AND_DILATION, ids=lambda s: s.tag)
def test_chunk_draw_matches_the_reference_on_odd_keys(spec):
    # a zero radius cap (signed zeros), int keys, two-part keys, and one
    # chunk whose key parts lie on both sides of 2**32 (1 to 6 words a key)
    mixed = [(i, 2**32 + i, 2**64 - 1 - i) if i % 3 == 0 else (2**31 + i, i) if i % 3 == 1
             else i for i in range(600)] + [(2**96 + 11, 1, 2)]
    cases = [([(7, i, 0) for i in range(500)], 0.0), (list(range(500)), 0.95),
             ([(99, i) for i in range(500)], 0.7), (mixed, 0.95)]
    for keys, radius_cap in cases:
        got = _draw_rows(families.draw_members(spec, keys, radius_cap=radius_cap))
        want = _reference_rows(keys, spec, radius_cap)
        assert list(map(repr, got)) == list(map(repr, want)), (keys[0], radius_cap)


# ---------------------------------------------------------------------------
# members by subordination: defining-relation residuals


def _member_residual(spec: ClassSpec, f: np.ndarray, phi: np.ndarray) -> float:
    """The defining relation's residual on the member row f, with phi its
    Schwarz function known to f's order - 1."""
    if spec.tag == "f-alpha":
        ord2 = len(f) - 3
        s = phi[: ord2 + 1]
        lhs = series.multiply(_z_fpp_over_fp(f), _plus(1.0, -s), ord2)
        return _maxabs(lhs[0] - s * (2.0 * (1.0 - spec.alpha)))
    ord1 = len(f) - 2
    s = phi[: ord1 + 1]
    q = _z_fprime_over_f(f)
    if spec.tag in ("full-s", "star-ab"):
        A = 1.0 if spec.tag == "full-s" else spec.A
        B = -1.0 if spec.tag == "full-s" else spec.B
        lhs = series.multiply(q, _plus(1.0, s * B), ord1)
        rhs = _plus(1.0, s * A)[0]
    elif spec.tag == "spiral":
        A = cmath.exp(1j * spec.alpha) * (cmath.exp(1j * spec.alpha)
                                          - 2.0 * spec.beta * math.cos(spec.alpha))
        lhs = series.multiply(q, _plus(1.0, -s), ord1)
        rhs = _plus(1.0, s * A)[0]
    elif spec.tag == "gc":
        c = spec.c
        lhs = series.multiply(q, _plus(1.0 + c, -s), ord1)
        rhs = _plus(1.0, -s)[0] * (1.0 + c)
    else:
        raise AssertionError(spec.tag)
    return _maxabs(lhs[0] - rhs)


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
    draws = families.draw_members(spec, [(int(rng.integers(1 << 30)), i) for i in range(25)],
                                  radius_cap=0.95)
    rows = families.member_rows(spec, draws, 14)
    worst = max(_member_residual(spec, f, phi) for f, phi in zip(rows, _schwarz_rows(draws, 13)))
    assert worst < 1e-10


def test_member_from_schwarz_identity_phi_gives_named_extremals():
    order = 12
    phi = series.identity(order - 1)
    full = families.member_from_schwarz(ClassSpec.full_s(), phi, order)
    assert _maxabs(full[0] - families.koebe(0.0, order)[0]) < 1e-12

    star = families.member_from_schwarz(ClassSpec.star_ab(0.5, -0.5), phi, order)
    assert _maxabs(star[0] - families.k_AB_n(0.5, -0.5, 1, order)[0]) < 1e-12

    fa = families.member_from_schwarz(ClassSpec.f_alpha(-0.5), phi, order)
    assert _maxabs(fa[0] - families.f_alpha_extremal(-0.5, "pow1", order)[0]) < 1e-12

    c = 0.5
    gc = families.member_from_schwarz(ClassSpec.gc(c), phi, order)
    base = [1.0, -1.0 / (1.0 + c)] + [0.0] * (order - 2)
    want = np.concatenate([[0.0], pow_binomial(base, c, order - 1)])
    assert _maxabs(gc[0] - want) < 1e-12

    alpha, beta = 0.5, 0.25
    sp = families.member_from_schwarz(ClassSpec.spiral(alpha, beta), phi, order)
    gam = 2.0 * (1.0 - beta) * math.cos(alpha) * cmath.exp(1j * alpha)
    want = np.concatenate([[0.0], pow_binomial(_one_minus_z_to(1, order - 1), -gam, order - 1)])
    assert _maxabs(sp[0] - want) < 1e-12


def test_derivative_form_member_is_the_termwise_integral():
    # for one (a, b, phi), f' in the derivative form and f/z in the plain
    # form are the same unit; the derivative form integrates it term-wise
    rng = RNG("termwise")
    draws = families.draw_members(ClassSpec.full_s(), [(7, i) for i in range(20)],
                                  radius_cap=0.95)
    order = 16
    phi = _schwarz_rows(draws, order - 1)
    for a, b in ((2.0, -1.0), (-0.5, -1.0), (complex(rng.normal(), rng.normal()), 0.3)):
        plain = families.subordination_rows(a, b, False, phi, order)
        integral = families.subordination_rows(a, b, True, phi, order)
        assert np.all(integral[:, 0] == 0) and np.all(integral[:, 1] == 1)
        back = integral[:, 1:] * np.arange(1, order + 1)
        assert _maxabs((back - plain[:, 1:]) / (np.abs(plain[:, 1:]) + 1.0)) < 1e-15
    # phi = z, a = 2, b = -1: f/z = 1/(1 - z)^2, so f' has it and f = z/(1 - z)
    phi = np.zeros((1, 4), dtype=np.complex128)
    phi[0, 1] = 1.0
    got = families.subordination_rows(2.0, -1.0, True, phi, 4)[0]
    assert _maxabs(got - [0, 1, 1, 1, 1]) < 1e-15


def test_u_lambda_member_integrates_each_monomial_of_omega():
    # omega = z^j: z int_0^z omega = z^(j+2) / (j+1), so f = z / (1 - a2 z + lam z^(j+2) / (j+1))
    lam, a2, order = 0.75, 0.3 - 0.2j, 12
    for j in range(order - 2):
        omega = np.zeros(order - 1, dtype=np.complex128)
        omega[j] = 1.0
        f = families.u_lambda_member(a2, omega[None], lam, order)[0]
        den = [1.0, -a2] + [0.0] * (order - 2)
        den[j + 2] = lam / (j + 1)
        want = np.concatenate([[0.0], recip_neumann(den, order - 1)])
        assert _maxabs(f - want) < 1e-13, f"omega = z^{j}"


def test_member_from_schwarz_rejects_bad_phi():
    spec = ClassSpec.star_ab(1.0, -1.0)
    off = np.concatenate([series.identity(7)] * 3)
    off[1, 0] = 0.5  # one row of the stack off is enough
    with pytest.raises(ValueError, match="a Schwarz function must vanish at the origin"):
        families.member_from_schwarz(spec, off, 8)
    with pytest.raises(ValueError, match=r"phi rows of shape \(1, 3\) not known to order 7"):
        families.member_from_schwarz(spec, series.identity(2), 8)  # too short
    with pytest.raises(ValueError, match=r"phi rows of shape \(8,\) not known to order 7"):
        families.member_from_schwarz(spec, series.identity(7)[0], 8)  # not a stack
    with pytest.raises(ValueError, match="u-lambda members come from u_lambda_member"):
        families.member_from_schwarz(ClassSpec.u_lambda(0.5), series.identity(7), 8)


def test_member_from_schwarz_makes_one_member_per_row_of_phi():
    spec = ClassSpec.f_alpha(0.3)
    draws = families.draw_members(spec, [(4, i, 0) for i in range(6)], radius_cap=0.9)
    phi = _schwarz_rows(draws, 11)
    rows = families.member_from_schwarz(spec, phi, 12)
    assert np.array_equal(rows, families.member_rows(spec, draws, 12))
    # phi known past order - 1 is read only to it
    longer = np.concatenate([phi, np.ones((6, 5))], axis=1)
    assert np.array_equal(families.member_from_schwarz(spec, longer, 12), rows)


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
        f = families.u_lambda_member(a2, omega, lam, order)[0]
        ord2 = order - 2
        zf = series.reciprocal(f[None, 1:], order - 1)  # z/f
        sq = series.multiply(zf, zf, ord2)
        resid = series.multiply(_derivative(f)[None, : ord2 + 1], sq, ord2)[0]
        resid[0] -= 1.0
        resid[2:] += omega[0, : ord2 - 1] * lam  # lam z^2 omega
        assert _maxabs(resid) < 1e-10


def test_u_lambda_member_accepts_both_omega_forms():
    lam, a2, order = 0.5, 0.3 + 0.1j, 10
    const = families.u_lambda_member(a2, 0.4, lam, order)
    flat = families.blaschke_series(0.0, (), order)  # constant 1
    assert abs(const[0][2] - a2) < 1e-15
    via_series = families.u_lambda_member(a2, flat * 0.4, lam, order)
    assert _maxabs(const[0] - via_series[0]) < 1e-15


def test_u_lambda_member_validation():
    with pytest.raises(ValueError):
        families.u_lambda_member(0.1, 0.0, 1.5, 8)
    with pytest.raises(ValueError):
        families.u_lambda_member(0.1, 0.0, 0.5, 1)
    with pytest.raises(ValueError):
        families.u_lambda_member(0.1, 1.5, 0.5, 8)  # constant omega too large
    short, message = series.constant(0.5, 2), r"omega of shape \(1, 3\) is not a \(1, >= 10\) stack"
    with pytest.raises(ValueError, match=message):
        families.u_lambda_member(0.1, short, 0.5, 12)
    omega = families.blaschke_series(0.0, (0.5,), 9)
    for bad in (omega[0], np.concatenate([omega, omega])):  # not one row per a2
        with pytest.raises(ValueError, match=r"omega of shape \(.*\) is not a \(1, >= 10\) stack"):
            families.u_lambda_member(0.1, bad, 0.5, 12)


def test_u_lambda_member_makes_one_member_per_value_of_a2():
    lam, order = 0.75, 12
    a2 = np.array([0.3 + 0.1j, -0.2, 1.1j])
    omega = np.concatenate([families.blaschke_series(t, (0.5j, -0.3), order - 3)
                            for t in (0.0, 1.0, 2.0)])
    rows = families.u_lambda_member(a2, omega, lam, order)
    alone = [families.u_lambda_member(a, w[None], lam, order) for a, w in zip(a2, omega)]
    assert np.array_equal(rows, np.concatenate(alone))
    # a constant omega is every row's
    const = families.u_lambda_member(a2, 0.4, lam, order)
    assert np.array_equal(const, np.concatenate(
        [families.u_lambda_member(a, 0.4, lam, order) for a in a2]))
    with pytest.raises(ValueError, match=r"omega of shape \(2, 10\) is not a \(3, >= 10\) stack"):
        families.u_lambda_member(a2, omega[:2], lam, order)


def test_u_extremal_second_coefficient():
    for lam, a in ((0.25, 0.0), (1.0, 0.3), (0.6, 0.7)):
        f = families.u_extremal(lam, a, 9)
        assert abs(f[0][2] - (1.0 + lam * bounds.v_of_x(a))) < 1e-13
    with pytest.raises(ValueError):
        families.u_extremal(0.5, 1.0, 9)


@pytest.mark.parametrize("order", [2, 3, 12])
def test_every_builder_gives_one_normalized_row(order):
    # a single function is a one-row stack, normalized with no rounding
    omega = families.blaschke_series(0.2, (0.5,), max(order - 3, 0))
    built = {
        "koebe": families.koebe(0.7, order),
        "power-map": families._power_map(0.5 + 0.5j, -0.3, 2, order),
        "power-map-derivative": families._power_map(1.2, -1.0, 3, order, derivative=True),
        "k_AB_n": families.k_AB_n(0.5, -0.5, 2, order),
        "k_AB_n-limit": families.k_AB_n(0.2, 0.0, 1, order),
        "spiral_extremal": families.spiral_extremal(0.5, 0.25, 1, order),
        "gc_extremal": families.gc_extremal(0.5, 1, order),
        "u_extremal": families.u_extremal(0.75, 0.3, order),
        "u_lambda_member-constant": families.u_lambda_member(0.3 + 0.1j, 0.4, 0.5, order),
        "u_lambda_member-row": families.u_lambda_member(0.3, omega, 0.5, order),
        "member_from_schwarz": families.member_from_schwarz(ClassSpec.gc(0.5),
                                                            series.identity(order - 1), order),
    }
    alpha = {"halfconvex": -0.5}
    built.update({f"f_alpha_extremal-{v}": families.f_alpha_extremal(alpha.get(v, 0.2), v, order)
                  for v in F_ALPHA_VARIANTS})
    for name, f in built.items():
        assert f.shape == (1, order + 1) and f.dtype == np.complex128, name
        assert f[0, 0] == 0 and f[0, 1] == 1, name
    ball = families.blaschke_series(0.2, (0.5, -0.3j), order)
    assert ball.shape == (1, order + 1) and ball.dtype == np.complex128


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
    assert sp.label() == "star-ab(A=0.5,B=-0.5)"
    assert sp.params() == {"A": 0.5, "B": -0.5}
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


def _oracle_residual(spec: ClassSpec, theta, m, factors, row, order: int):
    """Residual and term scale per coefficient of the member's defining
    relation. With q = z f'/f (or 1 + z f''/f') and q - 1 = a phi/(1 + b phi),
    it reads q_num (1 + b phi) = g (1 + (a + b) phi) for q = q_num/g; the
    bounded-distortion class reads f' = (f/z)^2 (1 - lam z^2 omega)."""
    f = [complex(c) for c in row]
    if spec.entry.subordination is None:
        n = order - 1
        omega = blaschke(theta, m, factors, max(order - 3, 0))
        factor = ([1, 0] + [-spec.lam * w for w in omega] + [0] * n)[: n + 1]
        lhs = [(k + 1) * f[k + 1] for k in range(n + 1)]
        rhs = poly_mul(poly_mul(f[1:], f[1:], n), factor, n)
        scale = [abs(x) + y for x, y in
                 zip(lhs, poly_mul(poly_mul(_abs(f[1:]), _abs(f[1:]), n), _abs(factor), n))]
        return np.abs(np.subtract(lhs, rhs)), np.array(scale)
    a, b = spec.entry.subordination(spec)
    n = order - 1 if spec.entry.derivative else order
    phi = blaschke(theta, m, factors, order - 1)
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
    keys = [(11, i, 0) for i in range(24)]
    rows = families.member_rows(spec, families.draw_members(spec, keys, radius_cap=radius_cap),
                                order)
    gam = gammas.gamma_via_bn(rows, order - 1)
    assert rows.shape == (24, order + 1) and gam.shape == (24, order - 1)
    for key, row, g in zip(keys, rows, gam):
        assert row[0] == 0 and row[1] == 1
        if spec.entry.subordination is None:
            theta, factors, _, a2 = _oracles.sample_dilation(key, spec.lam, radius_cap=radius_cap)
            m = 0
            assert row[2] == a2  # f = z / (1 - a2 z + ...)
        else:
            theta, m, factors = _oracles.sample_schwarz(key, radius_cap=radius_cap)
        resid, scale = _oracle_residual(spec, theta, m, factors, row, order)
        assert np.all(resid[scale == 0] == 0)
        assert np.max(resid[scale > 0] / scale[scale > 0]) <= 1e-12
        # a row's bits do not depend on the rows stacked with it
        alone = families.member_rows(
            spec, families.draw_members(spec, [key], radius_cap=radius_cap), order)
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
    spec_or_full = spec or ClassSpec.full_s()
    draws = families.draw_members(spec_or_full, [(29, i, 0) for i in range(256)], radius_cap=0.95)
    rows = families.member_rows(spec_or_full, draws, order)
    if spec is None:
        rows[at] = families.koebe(0.0, order)[0]
    stacked = gammas.gamma_via_bn(rows, order - 1)[at]
    one = gammas.gamma_via_bn(rows[at:at + 1], order - 1)[0]
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
    counts = [len(fs) for fs in factors]
    padded = np.zeros((5, 4), dtype=np.complex128)
    for s, fs in enumerate(factors):
        padded[s, : len(fs)] = fs
    rows = families.blaschke_rows(thetas, multiplicities, padded, counts, 12)
    for s in range(5):
        want = blaschke(thetas[s], multiplicities[s], factors[s], 12)
        np.testing.assert_allclose(rows[s], want, rtol=0, atol=1e-14)
        alone = families.blaschke_rows(thetas[s:s + 1], multiplicities[s:s + 1],
                                       padded[s:s + 1, : counts[s]], counts[s:s + 1], 12)
        assert np.array_equal(alone[0], rows[s])
    assert np.array_equal(rows[0], families.blaschke_series(thetas[0], factors[0], 12)[0])


@pytest.mark.parametrize("order", [0, 1, 2, 8, 39, 128])
@pytest.mark.parametrize("rows", [1, 7, 1638])
def test_blaschke_rows_keep_the_reciprocal_bits(rows, order):
    # the geometric recurrence against the construction it replaced,
    # multiply(num, reciprocal(den)): the same bytes, signs of zero included,
    # on drawn rows and on edge factors: a = 0, a real a as u_extremal uses
    # (its conjugate has imaginary part -0), and a = 1e-9, whose powers
    # underflow by order 40
    draws = families.draw_members(ClassSpec.gc(0.5), keyed.Columns(
        17, np.arange(rows), np.zeros(rows, dtype=np.int64)), radius_cap=0.95)
    factors, counts = draws.factors.copy(), draws.count.copy()
    edges = [0.0, 0.5, 1e-9, -0.3, 1e-9j][:rows]
    factors[:len(edges), 0], counts[:len(edges)] = edges, np.maximum(counts[:len(edges)], 1)
    args = (draws.theta, draws.multiplicity, factors, counts, order)
    want = _oracles.blaschke_rows_reciprocal(*args)
    assert families.blaschke_rows(*args).tobytes() == want.tobytes()
    for a in (0.0, 0.5, 1e-9):
        want = _oracles.blaschke_rows_reciprocal([0.0], [0], [[a]], [1], order)
        assert families.blaschke_series(0.0, (a,), order).tobytes() == want.tobytes()


def test_a_negative_order_is_refused_by_name():
    with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
        families.blaschke_series(0.0, (0.3,), -1)
    # orders 0 and 1 reach the builders' own check, with a Schwarz function or a dilation
    for spec in (ClassSpec.gc(0.5), ClassSpec.u_lambda(0.5)):
        draws = families.draw_members(spec, [(1, i, 0) for i in range(3)], radius_cap=0.95)
        for order in (0, 1):
            with pytest.raises(ValueError, match=r"^order must be >= 2$"):
                families.member_rows(spec, draws, order)


def test_a_dilation_draw_is_keyed_and_inside_the_class():
    def draw(key):
        [row] = _draw_rows(families.draw_members(ClassSpec.u_lambda(0.5), [key], radius_cap=0.95))
        return row

    a = draw((5, 3, 0))
    assert a == draw((5, 3, 0))
    assert a != draw((5, 4, 0))
    theta, factors, abs_a, a2 = a
    assert len(factors) <= 3 and all(abs(x) < 0.95 for x in factors)
    omega = families.blaschke_series(theta, factors, 0)
    assert abs_a == pytest.approx(abs(omega[0, 0]), rel=1e-15)
    assert abs(a2) <= 0.95 * (1.0 + 0.5 * bounds.v_of_x(abs_a))
