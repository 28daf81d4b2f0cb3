"""Logarithmic coefficients of inverse functions, two independent ways.

For f(z) = z + a2 z^2 + ... with inverse F(w) = w + A2 w^2 + ..., the target
quantities are the Gamma_n in log(F(w)/w) = 2 sum Gamma_n w^n.

Route one ("reversion") builds F by series reversion and reads the log.
Route two ("bn-identity") never reverts anything: with (z/f(z))^lam
= 1 + sum_{n>=1} b_n(lam, f) z^n, a residue computation gives
2 n Gamma_n = b_n(n, f), so the n-th coefficient falls out of powers of the
single series z/f. The two routes share no code past the elementary series
kernel; keeping them independent is the point, so do not "simplify" one
into the other.

Gamma_n depends on a2..a_{n+1}; both routes therefore demand the input be
known to order n_max + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import series
from .bounds import check_f_alpha, check_u_lambda
from .series import AnalyticSeries, Series

SOURCES = ("reversion", "bn-identity", "closed-form")


@dataclass(frozen=True)
class GammaVector:
    """Gamma_1..Gamma_{n_max} plus which route produced them. The reversion
    route also carries the inverse coefficients A_2..A_{n_max+1} it passed
    through; the other routes leave that field None."""

    gammas: np.ndarray
    source: str
    inverse_coeffs: np.ndarray | None = None

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {self.source!r}")
        g = np.asarray(self.gammas, dtype=np.complex128)
        g.setflags(write=False)
        object.__setattr__(self, "gammas", g)
        if self.inverse_coeffs is not None:
            a = np.asarray(self.inverse_coeffs, dtype=np.complex128)
            a.setflags(write=False)
            object.__setattr__(self, "inverse_coeffs", a)

    @property
    def n_max(self) -> int:
        return len(self.gammas)

    def __getitem__(self, n: int) -> complex:
        """Gamma_n, 1-indexed like the mathematics."""
        if not 1 <= n <= len(self.gammas):
            raise IndexError(f"Gamma_{n} not computed (have 1..{len(self.gammas)})")
        return complex(self.gammas[n - 1])


def _check_input(f: Series, n_max: int):
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if f.order < n_max + 1:
        raise ValueError(
            f"Gamma_{n_max} depends on coefficients through a_{n_max + 1}; "
            f"input of order {f.order} is not known that far")
    if f.coeffs[0] != 0 or f.coeffs[1] != 1:
        raise ValueError("input must be normalized: f(0) = 0, f'(0) = 1")


def inverse_coeffs(f: Series, n_max: int) -> np.ndarray:
    """A_2..A_{n_max} of the inverse, by series reversion."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if f.order < n_max:
        raise ValueError(f"A_{n_max} needs f through order {n_max}, only {f.order} known")
    if f.coeffs[0] != 0 or f.coeffs[1] != 1:
        raise ValueError("input must be normalized: f(0) = 0, f'(0) = 1")
    F = series.revert(f, n_max)
    out = F.coeffs[2:].copy()
    out.setflags(write=False)
    return out


def gamma_via_reversion(f: Series, n_max: int) -> GammaVector:
    """Revert f, then read Gamma_n off log(F(w)/w)/2."""
    _check_input(f, n_max)
    F = series.revert(f, n_max + 1)
    unit = Series(F.coeffs[1:])  # F/w, constant term exactly 1
    ell = series.log_unit(unit, n_max)
    return GammaVector(gammas=ell.coeffs[1:] / 2.0, source="reversion",
                       inverse_coeffs=F.coeffs[2:])


def gamma_via_bn(f: Series, n_max: int) -> GammaVector:
    """Reversion-free route, 2 n Gamma_n = [z^n] (z/f)^n: gamma_rows_via_bn on one row."""
    _check_input(f, n_max)
    return GammaVector(gammas=gamma_rows_via_bn(f.coeffs[None], n_max)[0], source="bn-identity")


def gamma_rows_via_bn(f: np.ndarray, n_max: int) -> np.ndarray:
    """The bn route on every row of an (S, order+1) array of normalized
    members at once: row s of the (S, n_max) result holds Gamma_1..Gamma_{n_max}
    of member s. One reciprocal gives u = z/f, successive products on the
    whole stack give u^m for m <= ceil(n_max/2), and [z^n] u^n is the z^n
    coefficient of u^{n - n//2} u^{n//2}: one sum of n + 1 terms."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if f.ndim != 2 or f.shape[1] < n_max + 2:
        raise ValueError(f"Gamma_{n_max} needs rows known through a_{n_max + 1}, "
                         f"got shape {f.shape}")
    if np.any(f[:, 0] != 0) or np.any(f[:, 1] != 1):
        raise ValueError("input must be normalized: f(0) = 0, f'(0) = 1")
    base = series.reciprocal_rows(f[:, 1:], n_max)  # z/f, one row per member
    powers = [None, base]
    for _ in range(2, (n_max + 1) // 2 + 1):
        powers.append(series.multiply_rows(powers[-1], base, n_max))
    out = np.empty((f.shape[0], n_max), dtype=np.complex128)
    out[:, 0] = base[:, 1] / 2.0
    for n in range(2, n_max + 1):
        hi, lo = powers[n - n // 2], powers[n // 2]
        out[:, n - 1] = np.einsum("sj,sj->s", hi[:, : n + 1], lo[:, n::-1]) / (2.0 * n)
    return out


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
