"""Independent reference implementations for the test suite.

Everything here is pure Python over plain lists (of complex numbers,
Fractions or mpmath numbers), written from the defining formulas rather
than the package's recurrences: naive convolution, Neumann sums for
reciprocals, Mercator and Taylor series for log and exp, generalized
binomial sums for powers, direct power sums for composition, Lagrange's
formula for reversion, and the bn identity at 50 digits. Slow on purpose;
the point is that they share no algorithmic structure with the kernel they
check. The package's series kernels, which take a stack of series or one
series as a one-row stack, are one implementation; these are the
reference they are held to.

Lists hold coefficients low to high: p[k] multiplies z**k.

The last sections keep earlier forms of package code that must not change
its output: the logarithm and reversion kernels one row at a time, the
keyed parameter draws, one Generator call per value, and the report
serializers, the pure-Python indent encoder and one format per CSV cell.
The package's row kernels, draws and writers are held to them bit for bit
and byte for byte.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np


def poly_mul(a, b, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def poly_pow(a, k, order):
    out = [1] + [0] * order
    for _ in range(k):
        out = poly_mul(out, a, order)
    return out


def recip_neumann(c, order):
    """1/c for c with c[0] == 1, by summing the geometric series in (c - 1)."""
    if c[0] != 1:
        raise ValueError("need constant term 1")
    u = [0] + [x for x in c[1 : order + 1]]
    u += [0] * (order + 1 - len(u))
    out = [0] * (order + 1)
    term = [1] + [0] * order
    for k in range(order + 1):
        sign = -1 if k % 2 else 1
        for i in range(order + 1):
            out[i] += sign * term[i]
        term = poly_mul(term, u, order)
    return out


def log_mercator(c, order):
    """log of c with c[0] == 1: sum (-1)^{k+1} u^k / k, u = c - 1."""
    if c[0] != 1:
        raise ValueError("need constant term 1")
    u = [0] + list(c[1 : order + 1])
    u += [0] * (order + 1 - len(u))
    out = [0] * (order + 1)
    term = list(u)
    for k in range(1, order + 1):
        sign = 1 if k % 2 else -1
        for i in range(order + 1):
            out[i] += sign * term[i] / k
        term = poly_mul(term, u, order)
    return out


def exp_taylor(c, order):
    """exp of c with c[0] == 0: sum c^k / k!."""
    if c[0] != 0:
        raise ValueError("need zero constant term")
    out = [0] * (order + 1)
    term = [1] + [0] * order
    fact = 1.0
    for k in range(order + 1):
        if k:
            fact *= k
        for i in range(order + 1):
            out[i] += term[i] / fact
        term = poly_mul(term, c, order)
    return out


def pow_binomial(c, mu, order):
    """c**mu for c with c[0] == 1: sum binom(mu, k) u^k with Pochhammer
    binomials, valid for any complex mu."""
    if c[0] != 1:
        raise ValueError("need constant term 1")
    u = [0] + list(c[1 : order + 1])
    u += [0] * (order + 1 - len(u))
    out = [0] * (order + 1)
    term = [1] + [0] * order
    binom = 1.0 + 0.0j
    for k in range(order + 1):
        if k:
            binom *= (mu - (k - 1)) / k
        for i in range(order + 1):
            out[i] += binom * term[i]
        term = poly_mul(term, u, order)
    return out


def compose_direct(outer, inner, order):
    """outer(inner) as the literal power sum, inner[0] == 0."""
    if inner[0] != 0:
        raise ValueError("inner must vanish at the origin")
    out = [0] * (order + 1)
    term = [1] + [0] * order
    for k, ok in enumerate(outer[: order + 1]):
        for i in range(order + 1):
            out[i] += ok * term[i]
        term = poly_mul(term, inner, order)
    return out


def revert_lagrange(f, n_max):
    """Inverse coefficients A_1..A_{n_max} by Lagrange's formula,
    A_n = (1/n) [z^{n-1}] (z/f)^n. Works for Fractions and complex alike."""
    one = f[1]
    if f[0] != 0 or one != 1:
        raise ValueError("need a normalized series")
    zf = recip_neumann(f[1:], n_max)  # z/f, constant term 1
    out = [0, 1]
    power = list(zf)
    for n in range(2, n_max + 1):
        power = poly_mul(power, zf, n_max)
        out.append(power[n - 1] / n)
    return out


def revert_triangular(f, n_max):
    """Inverse coefficients by solving [w^n] f(F(w)) = 0 order by order,
    evaluating f(F) as a direct power sum at each step."""
    if f[0] != 0 or f[1] != 1:
        raise ValueError("need a normalized series")
    inv = [0, 1]
    for n in range(2, n_max + 1):
        trial = inv + [0]
        defect = compose_direct(f[: n + 1], trial, n)[n]
        inv.append(-defect)
    return inv


def revert_lagrange_exact(f_fractions, n_max):
    """Exact-rational Lagrange reversion, for integer and Fraction inputs."""
    f = [Fraction(x) for x in f_fractions]
    return revert_lagrange(f, n_max)


def gamma_oracle(f, n_max):
    """Gamma_1..Gamma_{n_max} the long way around: Lagrange reversion, then
    the Mercator log of F/w, halved. Pure Python end to end."""
    aa = revert_lagrange(list(f), n_max + 1)
    unit = aa[1:]  # F/w
    ell = log_mercator(unit, n_max)
    return [ell[n] / 2 for n in range(1, n_max + 1)]


def _bn_coefficients(u, n_max):
    """[z^n] u^n / (2n) for n = 1..n_max, from plain powers of u."""
    out, power = [], [1] + [0] * n_max
    for n in range(1, n_max + 1):
        power = poly_mul(power, u, n_max)
        out.append(power[n] / (2 * n))
    return out


def _z_over_f_mp(f, n_max):
    """z/f by the Neumann sum on mpmath.mpc, from the exact values of f's
    doubles; call inside an mpmath precision context."""
    import mpmath

    return recip_neumann([mpmath.mpc(complex(c)) for c in f[1 : n_max + 2]], n_max)


def gamma_bn_mp(f, n_max, dps=50):
    """Gamma_1..Gamma_{n_max} by the bn identity 2n Gamma_n = [z^n] (z/f)^n,
    with the generic Neumann reciprocal and powers run on mpmath.mpc at dps
    digits. The float route computes the same identity, so the difference is
    the float route's rounding alone."""
    import mpmath

    with mpmath.workdps(dps):
        return [complex(g) for g in _bn_coefficients(_z_over_f_mp(f, n_max), n_max)]


def bn_term_scale(f, n_max, dps=50):
    """The bn route run on |z/f|: [z^n] (sum_k |u_k| z^k)^n / (2n) bounds the
    modulus of every term the route sums for Gamma_n, so rounding errors
    scale with it, not with |Gamma_n|. A sum of positive terms, so the
    powers need no extra precision; z/f itself does (the Neumann sum
    cancels)."""
    import mpmath

    with mpmath.workdps(dps):
        u = [float(abs(x)) for x in _z_over_f_mp(f, n_max)]
    return _bn_coefficients(u, n_max)


def blaschke(theta, m, factors, order):
    """e^{i theta} z^m prod_j (z + a_j)/(1 + conj(a_j) z), each denominator
    by its geometric (Neumann) series."""
    out = [0] * (order + 1)
    if m <= order:
        out[m] = cmath.exp(1j * theta)
    for a in factors:
        a = complex(a)
        num = ([a, 1] + [0] * order)[: order + 1]
        den = ([1, a.conjugate()] + [0] * order)[: order + 1]
        out = poly_mul(out, poly_mul(num, recip_neumann(den, order), order), order)
    return out


def v_quadrature(x):
    """The distortion mean v(x) = int_0^1 (x + t)/(1 + x t) dt by adaptive
    quadrature, the independent check for the closed form."""
    from scipy.integrate import quad

    val, err = quad(lambda t: (x + t) / (1.0 + x * t), 0.0, 1.0,
                    epsabs=1e-13, epsrel=1e-13)
    if err > 1e-11:
        raise RuntimeError(f"quadrature did not converge: err={err}")
    return val


# ---------------------------------------------------------------------------
# random draws shared by the kernel tests


def unit_draw(rng, order, rho=1.0):
    """Random series with constant term exactly 1 and |c_k| <= rho^k.

    The decay keeps round-trip targets conditioned: a uniform draw's
    compositional inverse has coefficients around 1e16 by order 32, where
    an absolute tolerance of 1e-11 is far below one ulp.
    """
    mags = rho ** np.arange(1, order + 1) * rng.uniform(size=order)
    args = rng.uniform(0.0, 2.0 * np.pi, size=order)
    c = np.empty(order + 1, dtype=np.complex128)
    c[0] = 1.0
    c[1:] = mags * np.exp(1j * args)
    return c


def analytic_draw(rng, order, rho=1.0):
    """Random normalized series (c0 = 0, c1 = 1), tail |c_k| <= rho^{k-1}."""
    c = np.zeros(order + 1, dtype=np.complex128)
    c[1] = 1.0
    if order >= 2:
        mags = rho ** np.arange(1, order) * rng.uniform(size=order - 1)
        args = rng.uniform(0.0, 2.0 * np.pi, size=order - 1)
        c[2:] = mags * np.exp(1j * args)
    return c


# ---------------------------------------------------------------------------
# series kernels one row at a time, as they were before the row layer held
# them; arrays in and out, bodies unchanged


def log_unit_one_row(c, order):
    """series.log_unit's recurrence on one coefficient array, c[0] == 1."""
    ell = np.zeros(order + 1, dtype=np.complex128)
    for k in range(1, order + 1):
        # k l_k = k c_k - sum_{m=1..k-1} m l_m c_{k-m}
        s = np.dot(np.arange(1, k) * ell[1:k], c[k - 1 : 0 : -1]) if k > 1 else 0.0
        ell[k] = c[k] - s / k
    return ell


def revert_one_row(fc, order):
    """series.revert's Horner-table back-substitution on one normalized
    coefficient array."""
    inv = np.zeros(order + 1, dtype=np.complex128)
    inv[1] = 1.0
    # H[k, 0] = f_k because F has zero constant term. Row 0, f(F) itself,
    # is never filled: only its column-n entry, the defect, is needed. No
    # step reads column ``order``, so the table stops before it.
    H = np.zeros((order + 1, order), dtype=np.complex128)
    H[:, 0] = fc[: order + 1]
    for n in range(1, order + 1):
        if n > 1:
            # with A_n still zero, [w^n] H_0 = sum_{0<m<n} [w^m] H_1 A_{n-m}
            # is the defect; the A_n term enters linearly with coefficient
            # [w^0] H_1 = f1 == 1
            inv[n] = -np.dot(H[1, 1:n], inv[n - 1 : 0 : -1])
        if n < order:
            # [w^n] H_k = sum_{m<n} [w^m] H_{k+1} A_{n-m}, for k = 1..order-n
            H[1 : order + 1 - n, n] = (H[2 : order + 2 - n, :n] * inv[n:0:-1]).sum(axis=1)
    return inv


# ---------------------------------------------------------------------------
# keyed parameter draws, one Generator call per value


def sample_schwarz(seed, *, radius_cap: float = 0.95):
    """The Schwarz-function draw as first written, as the tuple (theta,
    multiplicity, factors): rng.choice for the multiplicity and one
    uniform() call per angle and radius."""
    if not 0 <= radius_cap < 1:
        raise ValueError("radius_cap must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    m = int(rng.choice([1, 1, 1, 2, 3]))
    d = int(rng.integers(1, 5))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    factors = []
    for _ in range(d):
        r = radius_cap * math.sqrt(rng.uniform())
        t = rng.uniform(0.0, 2.0 * math.pi)
        factors.append(r * cmath.exp(1j * t))
    return theta, m, tuple(factors)


def sample_dilation(seed, lam: float, *, radius_cap: float = 0.95):
    """The bounded-distortion draw as first written, one uniform() per
    value, as the tuple (theta, factors, abs_a, a2): the dilation
    omega = e^{i theta} prod_j (z + a_j)/(1 + conj(a_j) z), abs_a =
    |omega(0)| and a2."""
    from invlog.bounds import v_of_x

    rng = np.random.default_rng(seed)
    nfac = int(rng.integers(0, 4))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    factors = []
    for _ in range(nfac):
        r = 0.95 * math.sqrt(rng.uniform())
        t = rng.uniform(0.0, 2.0 * math.pi)
        factors.append(r * complex(math.cos(t), math.sin(t)))
    omega0 = cmath.exp(1j * theta)
    for a in factors:
        omega0 *= a
    abs_a = abs(omega0)
    radius = radius_cap * (1.0 + lam * v_of_x(abs_a)) * math.sqrt(rng.uniform())
    ang = rng.uniform(0.0, 2.0 * math.pi)
    a2 = radius * complex(math.cos(ang), math.sin(ang))
    return theta, tuple(factors), abs_a, a2


# ---------------------------------------------------------------------------
# report serializers: the whole payload through json's indent encoder, and
# one _fmt17 call per CSV cell


def _fmt17(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def report_json(report) -> str:
    """VerifyReport.to_json as first written."""
    payload = {f.name: getattr(report, f.name) for f in fields(report)}
    payload.update(counts=report.counts(), ok=report.ok)
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def report_csv(report) -> str:
    """VerifyReport.to_csv as first written."""
    from invlog.harness import CSV_COLUMNS

    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        lines.append(",".join(_fmt17(row[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
