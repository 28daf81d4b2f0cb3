"""Logarithmic coefficients of inverse functions, two independent ways.

For f(z) = z + a2 z^2 + ... with inverse F(w) = w + A2 w^2 + ..., the target
quantities are the Gamma_n in log(F(w)/w) = 2 sum Gamma_n w^n.

Route one, gamma_via_reversion, builds F by series reversion and reads the
log. Route two, gamma_via_bn, never reverts anything: with (z/f(z))^lam
= 1 + sum_{n>=1} b_n(lam, f) z^n, a residue computation gives
2 n Gamma_n = b_n(n, f), so the n-th coefficient falls out of powers of the
single series z/f. The two routes share only their input check and the
elementary series kernels; keeping them independent is the point, so do not
"simplify" one into the other.

Each route takes one Series, giving the (n_max,) array whose entry n - 1
holds Gamma_n, or an (S, order+1) array of normalized member rows, giving
the (S, n_max) array whose row s holds Gamma_1..Gamma_{n_max} of member s.
A Series goes through the same row code as a one-row stack, so it gets the
bits of its row. Gamma_n depends on a2..a_{n+1}; both routes therefore
demand the input be known to order n_max + 1.
"""

from __future__ import annotations

import numpy as np

from . import series
from .bounds import check_f_alpha, check_u_lambda
from .series import Series


def _check_rows(f: Series | np.ndarray, n_max: int) -> np.ndarray:
    """The (S, order+1) member rows of f, a Series being one row, once they
    are known far enough and normalized."""
    f = f.coeffs[None] if isinstance(f, Series) else f
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if f.ndim != 2 or f.shape[1] < n_max + 2:
        raise ValueError(f"Gamma_{n_max} needs rows known through a_{n_max + 1}, "
                         f"got shape {f.shape}")
    if np.any(f[:, 0] != 0) or np.any(f[:, 1] != 1):
        raise ValueError("input must be normalized: f(0) = 0, f'(0) = 1")
    return f


def gamma_via_reversion(f: Series | np.ndarray, n_max: int) -> np.ndarray:
    """Revert f, then read Gamma_n off log(F(w)/w)/2. The rows go through
    series.revert and series.log_unit_rows as one stack, no kernel the bn
    route runs. cross_check passes whole chunks, so perfbench's tracer,
    which wraps this name and series.revert, times the route."""
    rows = _check_rows(f, n_max)
    # F to order n_max + 1, then half the log of F/w (constant term exactly 1);
    # an overflow on the way is reported by _finite, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        F = _finite(series.revert(rows, n_max + 1))
        g = _finite(series.log_unit_rows(F[:, 1:], n_max)[:, 1:] / 2.0)
    return g[0] if isinstance(f, Series) else g


def _finite(a: np.ndarray) -> np.ndarray:
    # the check Series applies to one row, on a whole stack
    if not np.isfinite(a).all():
        raise ValueError("coefficients must be finite")
    return a


def gamma_via_bn(f: Series | np.ndarray, n_max: int) -> np.ndarray:
    """Reversion-free route, 2 n Gamma_n = [z^n] (z/f)^n. One reciprocal
    gives u = z/f, successive products on the whole stack give u^m for
    m <= ceil(n_max/2), and [z^n] u^n is the z^n coefficient of
    u^{n - n//2} u^{n//2}: one sum of n + 1 terms. Campaigns pass whole
    chunks, so perfbench's tracer, which wraps this name, times the route."""
    rows = _check_rows(f, n_max)
    base = series.reciprocal_rows(rows[:, 1:], n_max)  # z/f, one row per member
    out = np.empty((rows.shape[0], n_max), dtype=np.complex128)
    out[:, 0] = base[:, 1] / 2.0
    # u^m and u^(m-1) only: the powers n reads rise with n
    m, power, prev = 1, base, None
    for n in range(2, n_max + 1):
        if n - n // 2 > m:
            m, power, prev = m + 1, series.multiply_rows(power, base, n_max), power
        lo = power if n // 2 == m else prev
        out[:, n - 1] = np.einsum("sj,sj->s", power[:, : n + 1], lo[:, n::-1]) / (2.0 * n)
    return out[0] if isinstance(f, Series) else out


def gamma12_U(a2, a, lam: float) -> tuple[complex, complex]:
    """Closed forms for the bounded-distortion class from its structure
    formula: Gamma_1 = -a2/2, Gamma_2 = (a2^2 + 2 lam a)/4, where
    a = omega(0) of the member's dilation."""
    check_u_lambda(lam)
    a2 = complex(a2)
    a = complex(a)
    if abs(a) > 1 + 1e-12:
        raise ValueError(f"omega(0) must satisfy |a| <= 1, got {abs(a)}")
    return -a2 / 2.0, (a2 * a2 + 2.0 * lam * a) / 4.0


def gamma123_F_alpha(c1, c2, c3, alpha: float) -> tuple[complex, complex, complex]:
    """Closed forms for the half-plane convexity class in terms of the first
    three coefficients of the member's Schwarz function omega, where
    z f''/f' = 2 (1-alpha) omega / (1 - omega):

        2 Gamma_1 = -(1-alpha) c1
        4 Gamma_2 = ((1-alpha)/3) (-2 c2 + (3-5 alpha) c1^2)
        6 Gamma_3 = ((1-alpha)/2) (-c3 + (3-5 alpha) c1 c2
                                   - (3 alpha-2)(2 alpha-1) c1^3)
    """
    check_f_alpha(alpha)
    c1, c2, c3 = complex(c1), complex(c2), complex(c3)
    om = 1.0 - alpha
    g1 = -om * c1 / 2.0
    g2 = om * (-2.0 * c2 + (3.0 - 5.0 * alpha) * c1 * c1) / 12.0
    g3 = om * (-c3 + (3.0 - 5.0 * alpha) * c1 * c2
               - (3.0 * alpha - 2.0) * (2.0 * alpha - 1.0) * c1 ** 3) / 12.0
    return g1, g2, g3
