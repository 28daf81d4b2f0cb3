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

Each route takes an (S, order+1) stack of normalized member rows, a single
function being a one-row stack, and gives the (S, n_max) array whose row s
holds Gamma_1..Gamma_{n_max} of member s. A row's bits do not depend on the
rows stacked with it. Gamma_n depends on a2..a_{n+1}; both routes therefore
demand the input be known to order n_max + 1.
"""

from __future__ import annotations

import numpy as np

from . import series


def _check_rows(f: np.ndarray, n_max: int) -> np.ndarray:
    """The (S, order+1) member rows f, once they are known far enough,
    finite and normalized."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if f.ndim != 2 or f.shape[1] < n_max + 2:
        raise ValueError(f"Gamma_{n_max} needs rows known through a_{n_max + 1}, "
                         f"got shape {f.shape}")
    _finite(f)
    if (f[:, 0] != 0).any() or (f[:, 1] != 1).any():
        raise ValueError("input must be normalized: f(0) = 0, f'(0) = 1")
    return f


def gamma_via_reversion(f: np.ndarray, n_max: int) -> np.ndarray:
    """Revert f, then read Gamma_n off log(F(w)/w)/2. The rows go through
    series.revert and series.log_unit as one stack, no kernel the bn
    route runs. cross_check passes whole chunks, so perfbench's tracer,
    which wraps this name and series.revert, times the route."""
    rows = _check_rows(f, n_max)
    # F to order n_max + 1, then half the log of F/w (constant term exactly 1);
    # an overflow on the way is reported by _finite, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        F = _finite(series.revert(rows, n_max + 1))
        return _finite(series.log_unit(F[:, 1:], n_max)[:, 1:] / 2.0)


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError("coefficients must be finite")
    return a


def gamma_via_bn(f: np.ndarray, n_max: int) -> np.ndarray:
    """Reversion-free route, 2 n Gamma_n = [z^n] (z/f)^n. One reciprocal
    gives u = z/f, successive products on the whole stack give u^m for
    m <= ceil(n_max/2), and [z^n] u^n is the z^n coefficient of
    u^{n - n//2} u^{n//2}: one sum of n + 1 terms. Campaigns pass whole
    chunks, so perfbench's tracer, which wraps this name, times the route.
    An overflow leaves inf or NaN at the orders it reaches, silently; the
    orders below it keep their values."""
    rows = _check_rows(f, n_max)
    out = np.empty((rows.shape[0], n_max), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        base = series.reciprocal(rows[:, 1:], n_max)  # z/f, one row per member
        out[:, 0] = base[:, 1] / 2.0
        # u^m and u^(m-1) only: the powers n reads rise with n
        m, power, prev = 1, base, None
        for n in range(2, n_max + 1):
            if n - n // 2 > m:
                m, power, prev = m + 1, series.multiply(power, base, n_max), power
            lo = power if n // 2 == m else prev
            out[:, n - 1] = np.einsum("sj,sj->s", power[:, : n + 1], lo[:, n::-1]) / (2.0 * n)
    return out
