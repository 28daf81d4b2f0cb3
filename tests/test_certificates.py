"""Exact certificates for the two findings that contradict the paper's text.

Each function below has rational coefficients, so 2n Gamma_n = [z^n] (z/f)^n
is computed exactly in Fractions with tests/_oracles.py's series reference
(recip_neumann, poly_pow); nothing here rounds.

- Convex class, 4 <= n <= 9 (ROADMAP item 2): the paper leaves |Gamma_n| <=
  1/(2n) open there. The convex map f' = (1 - z)^(-2w) (1 + z)^(-2(1-w))
  overshoots it exactly at n = 5..9, while its w = 0 member, z/(1+z) (a
  rotation of l = z/(1-z)), sits on it.
- Bounded turning: the stated equality function of bound_Gc, the
  antiderivative of (1 - z)^c, misses the bound at c = 1/4 and 1/2 by the
  gaps test_c06a measures in floats, and attains it at c = 1.
"""

from fractions import Fraction

import numpy as np
import pytest

import _oracles
from invlog import bounds, families, gammas


def _binomial_series(mu, s, order):
    """(1 + s z)^mu to z^order, exactly for rational mu and s."""
    out, coeff = [], Fraction(1)
    for k in range(order + 1):
        out.append(coeff)
        coeff = coeff * (mu - k) / (k + 1) * s
    return out


def _antiderivative(d):
    return [Fraction(0)] + [c / (k + 1) for k, c in enumerate(d)]


def _two_n_gamma(f, n):
    """2n Gamma_n = [z^n] (z/f)^n, for f = z + ... with at least n + 2 coefficients."""
    z_over_f = _oracles.recip_neumann(f[1:n + 2], n)
    return _oracles.poly_pow(z_over_f, n, n)[n]


def _convex_map(w, order):
    """f with f' = (1 - z)^(-2w) (1 + z)^(-2(1-w)): 1 + z f''/f' is
    w (1+z)/(1-z) + (1-w) (1-z)/(1+z), of positive real part for 0 <= w <= 1
    (Herglotz), so f is convex."""
    d = _oracles.poly_mul(_binomial_series(-2 * w, -1, order),
                          _binomial_series(-2 * (1 - w), 1, order), order)
    return _antiderivative(d)


def _assert_routes_match(f, n, want):
    # the float routes on the float-rounded f, relative to the exact Gamma_n
    stack = np.array([[complex(c) for c in f]])
    for route in (gammas.gamma_via_bn, gammas.gamma_via_reversion):
        got = route(stack, n)[0, n - 1]
        assert abs(got - float(want)) <= 1e-12 * abs(float(want)), (route.__name__, n, got)


@pytest.mark.parametrize("w, n", [(Fraction(5, 42), 5), (Fraction(5, 56), 6),
                                  (Fraction(4, 57), 7), (Fraction(3, 52), 8),
                                  (Fraction(3, 61), 9)], ids=str)
def test_a_convex_map_overshoots_one_over_2n_exactly(w, n):
    f = _convex_map(w, n + 1)
    two_n_gamma = _two_n_gamma(f, n)
    assert two_n_gamma ** 2 > 1, (w, n, two_n_gamma)  # |Gamma_n| > 1/(2n), exactly
    if n == 5:
        assert two_n_gamma == Fraction(-37455136, 36756909)
    _assert_routes_match(f, n, two_n_gamma / (2 * n))


@pytest.mark.parametrize("n", [3, 4, 10])
def test_the_w_0_convex_map_sits_on_one_over_2n(n):
    f = _convex_map(Fraction(0), n + 1)
    assert f[:4] == [0, 1, -1, 1]  # z/(1+z)
    assert _two_n_gamma(f, n) == 1
    _assert_routes_match(f, n, Fraction(1, 2 * n))


def _bound_gc(n, c):
    """bounds.bound_Gc in Fractions: prod_{j<n} (nc+j)/(1+j) / (2n (1+c)^n)."""
    out = Fraction(1, 2 * n) / (1 + c) ** n
    for j in range(n):
        out *= (n * c + j) / Fraction(1 + j)
    return out


@pytest.mark.parametrize("c, worst", [(Fraction(1, 4), 0.08370), (Fraction(1, 2), 0.31367),
                                      (Fraction(1), 0.0)], ids=["1/4", "1/2", "1"])
def test_the_claimed_gc_equality_function_misses_its_bound_exactly(c, worst):
    f = _antiderivative(_binomial_series(c, -1, 9))
    stack = families.gc_extremal(float(c), 1, 10)
    # the package's claimed map, to rounding
    assert np.allclose(stack[0], [complex(x) for x in f], rtol=1e-15, atol=0)
    float_gammas = gammas.gamma_via_bn(stack, 8)[0]
    gaps = []
    for n in range(1, 9):
        bound = _bound_gc(n, c)
        assert abs(bounds.bound_Gc(n, float(c)).value - float(bound)) <= 1e-15 * float(bound)
        gaps.append(bound - abs(_two_n_gamma(f, n) / (2 * n)))
        # test_c06a's float gap, to rounding
        assert abs(bounds.bound_Gc(n, float(c)).value - abs(float_gammas[n - 1])
                   - float(gaps[-1])) < 1e-12
    if c == 1:
        assert gaps == [0] * 8
    else:
        assert all(gap > 0 for gap in gaps), gaps
        assert round(float(max(gaps)), 5) == worst
