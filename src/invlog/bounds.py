"""Sharp coefficient bounds for the logarithmic coefficients of inverses.

Every bound evaluates the product expressions as written, as running
products of ratio factors; no factorial quotients, so values stay finite
and accurate for every order this toolkit handles. Each result records the
clause that produced it ("branch") plus any clause-level caveat ("note").
Interval dispatch uses a half-open partition of [0, 1) into n pieces
I_k = [k/n, (k+1)/n), selected by the class's dispatch variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_EDGE_EPS = 1e-12  # nudges floor() at interval seams; exact inputs skip it


@dataclass(frozen=True)
class BoundResult:
    """One bound evaluation: |Gamma_n| <= value when applicable."""

    n: int
    value: float | None
    branch: str
    applicable: bool = True
    note: str = ""


# ---------------------------------------------------------------------------
# parameter ranges, one check per class; the class registry in families and
# every bound and extremal function of a class call the same check


def check_star_ab(A, B):
    if not -1 <= B < A <= 1:
        raise ValueError(f"star-ab requires -1 <= B < A <= 1, got A={A}, B={B}")


def check_spiral(alpha, beta):
    if not abs(alpha) < math.pi / 2:
        raise ValueError(f"spiral requires |alpha| < pi/2, got {alpha}")
    if not 0 <= beta < 1:
        raise ValueError(f"spiral requires 0 <= beta < 1, got {beta}")


def check_gc(c):
    if not 0 < c <= 1:
        raise ValueError(f"gc requires 0 < c <= 1, got {c}")


def check_u_lambda(lam):
    if not 0 < lam <= 1:
        raise ValueError(f"u-lambda requires 0 < lam <= 1, got {lam}")


def check_f_alpha(alpha):
    if not -0.5 <= alpha < 1:
        raise ValueError(f"f-alpha requires -1/2 <= alpha < 1, got {alpha}")


def _interval_index(n: int, x: float, exact: Fraction | None = None) -> tuple[int, bool]:
    """Return (k, integer_case) with x in I_k; exact rationals dodge the epsilon."""
    if exact is not None:
        nd = n * exact
        k = nd.numerator // nd.denominator
        integer_case = nd.denominator == 1
    else:
        nd = n * x
        k = int(math.floor(nd + _EDGE_EPS))
        integer_case = abs(nd - round(nd)) <= _EDGE_EPS
    return min(max(k, 0), n - 1), integer_case


def _product(numerators) -> float:
    """prod (num_j / (1+j)) as a running product, j = 0, 1, ..."""
    out = 1.0
    for j, num in enumerate(numerators):
        out *= num / (1.0 + j)
    return out


# ---------------------------------------------------------------------------
# full class of normalized univalent functions


def bound_class_S(n: int) -> BoundResult:
    """|Gamma_n| <= C(2n, n)/(2n); the cusp map attains it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    value = _product(2.0 * n - j for j in range(n)) / (2.0 * n)
    return BoundResult(n=n, value=value, branch="central-binomial")


def inverse_coeff_bound_S(n: int) -> float:
    """Sharp bound on the n-th inverse coefficient over the full class,
    (2n)!/(n! (n+1)!), again attained by the cusp map."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return _product(2.0 * n - j for j in range(n)) / (n + 1.0)


# ---------------------------------------------------------------------------
# the two-parameter starlike family and its specializations


def _coerce_exact(x) -> Fraction | None:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return None


def bound_star_AB(n: int, A, B) -> BoundResult:
    """Sharp |Gamma_n| bound for the (A, B) starlike family.

    Dispatch variable delta = (1-A)/(1-B). The top interval's linear clause
    takes precedence over the integer-boundary rule; when n*delta lands
    exactly on 1 the first partial product is rerouted to the full product.
    Pass A, B as Fraction (or int) for exact seam detection.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_star_ab(A, B)
    Af, Bf = float(A), float(B)
    eA, eB = _coerce_exact(A), _coerce_exact(B)
    exact = (1 - eA) / (1 - eB) if eA is not None and eB is not None else None
    delta = (1.0 - Af) / (1.0 - Bf)
    k, integer_case = _interval_index(n, delta, exact)

    def factors(count):
        return (n * (Af - Bf) + Bf * j for j in range(count))

    if n >= 2 and k == n - 1:
        return BoundResult(n=n, value=(Af - Bf) / (2.0 * n), branch="endpoint-linear")
    if k == 0 or (integer_case and k == 1):
        note = "integer seam rerouted to the full product" if k == 1 else ""
        value = _product(factors(n)) / (2.0 * n)
        return BoundResult(n=n, value=value, branch="full-product", note=note)
    value = (n - k) / (2.0 * n * n) * _product(factors(n - k))
    return BoundResult(n=n, value=value, branch=f"partial-product k={k}")


def bound_star_order(n: int, beta) -> BoundResult:
    """Starlike of order beta: the (1-2*beta, -1) case of the family bound."""
    bf = float(beta)
    if not 0 <= bf < 1:
        raise ValueError(f"requires 0 <= beta < 1, got {bf}")
    eb = _coerce_exact(beta)
    A = 1 - 2 * eb if eb is not None else 1.0 - 2.0 * bf
    res = bound_star_AB(n, A, -1)
    note = res.note
    if res.branch.startswith("partial-product"):
        note = (note + "; " if note else "") + "partial product runs to n-k-1 (printed upper limit off by two)"
    return BoundResult(n=n, value=res.value, branch=res.branch, note=note)


def bound_spiral(n: int, alpha: float, beta: float) -> BoundResult:
    """Sharp |Gamma_n| bound for spirallike of order beta, tilt alpha.

    Same interval dispatch on beta, three clauses, no integer-boundary rule.
    The top clause's printed value is corrected to (1-beta)cos(alpha)/n, the
    value the named attaining function actually reaches (and the value of the
    middle clause at k = n-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_spiral(alpha, beta)
    k, _ = _interval_index(n, beta, _coerce_exact(beta))
    zeta = 2.0 * n * (1.0 - beta) * math.cos(alpha) * complex(math.cos(alpha), -math.sin(alpha))
    if n >= 2 and k == n - 1:
        return BoundResult(n=n, value=(1.0 - beta) * math.cos(alpha) / n,
                           branch="endpoint-linear",
                           note="printed endpoint value corrected to (1-beta)cos(alpha)/n")
    if k == 0:
        value = _product(abs(zeta - j) for j in range(n)) / (2.0 * n)
        return BoundResult(n=n, value=value, branch="full-product")
    value = (n - k) / (2.0 * n * n) * _product(abs(zeta - j) for j in range(n - k))
    return BoundResult(n=n, value=value, branch=f"partial-product k={k}")


# ---------------------------------------------------------------------------
# bounded-turning with convexity control: the G(c) class


def bound_bn_Gc(m: int, lam: float, c: float) -> float:
    """Helper bound |b_m(lam, f)| <= ... for the G(c) class, three regimes in lam."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if lam <= 0:
        raise ValueError("lam must be positive")
    check_gc(c)
    if lam <= 1:
        return lam * c / (m * (1.0 + c))
    p = math.floor(lam)
    if m <= p + 1:
        return _product(lam * c + j for j in range(m)) / (1.0 + c) ** m
    return p / (m * (1.0 + c) ** p) * _product(lam * c + j for j in range(p))


def bound_Gc(n: int, c: float) -> BoundResult:
    """|Gamma_n| <= (1/(2n(1+c)^n)) prod_{j<n} (nc+j)/(1+j) for the G(c) class."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_gc(c)
    value = _product(n * c + j for j in range(n)) / (2.0 * n * (1.0 + c) ** n)
    return BoundResult(n=n, value=value, branch="product")


# ---------------------------------------------------------------------------
# bounded distortion: the U(lam) class, n = 1, 2 only


def v_of_x(x: float) -> float:
    """v(x) = int_0^1 (x+t)/(1+xt) dt = 1/x - ((1-x^2)/x^2) log(1+x).

    Near zero the closed form cancels catastrophically, so for x < 1/4 we
    use v(x) = 1/2 + sum_{m>=1} (-1)^{m-1} 2 x^m / (m(m+2)) instead.
    """
    if not 0 <= x <= 1:
        raise ValueError(f"requires 0 <= x <= 1, got {x}")
    if x < 0.25:
        total = 0.5
        power = 1.0
        for m in range(1, 64):
            power *= x
            term = 2.0 * power / (m * (m + 2))
            if m % 2 == 0:
                term = -term
            total += term
            if abs(term) < 1e-18:
                break
        return total
    return 1.0 / x - (1.0 - x * x) / (x * x) * math.log1p(x)


def bound_U_gamma1(lam: float, abs_a: float) -> BoundResult:
    """|Gamma_1| <= (1/2)(1 + lam v(|a|)), a = omega(0) of the member's dilation."""
    _check_U(lam, abs_a)
    return BoundResult(n=1, value=0.5 * (1.0 + lam * v_of_x(abs_a)), branch="structural")


def bound_U_gamma2(lam: float, abs_a: float) -> BoundResult:
    """|Gamma_2| <= (1/4)((1 + lam v(|a|))^2 + 2 lam |a|)."""
    _check_U(lam, abs_a)
    t = 1.0 + lam * v_of_x(abs_a)
    return BoundResult(n=2, value=0.25 * (t * t + 2.0 * lam * abs_a), branch="structural")


def _check_U(lam: float, abs_a: float | None):
    check_u_lambda(lam)
    if abs_a is None:
        raise ValueError("u-lambda bounds are per-sample; pass abs_a = |omega(0)|")
    if not 0 <= abs_a <= 1:
        raise ValueError(f"requires 0 <= |a| <= 1, got {abs_a}")


# ---------------------------------------------------------------------------
# convexity in a half-plane: the F(alpha) class, n = 1, 2, 3 only


ALPHA3_LO = 0.21605468  # left end of the middle-clause range for Gamma_3
ALPHA3_HI = 0.7
ALPHA3_LOW_HI = 7.0 / 47.0


def bound_F_gamma1(alpha: float) -> BoundResult:
    check_f_alpha(alpha)
    return BoundResult(n=1, value=0.5 * (1.0 - alpha), branch="linear")


def bound_F_gamma2(alpha: float) -> BoundResult:
    check_f_alpha(alpha)
    if alpha <= 0.2:
        value = (1.0 - alpha) * (3.0 - 5.0 * alpha) / 12.0
        return BoundResult(n=2, value=value, branch="low-range")
    return BoundResult(n=2, value=(1.0 - alpha) / 6.0, branch="high-range")


def bound_F_gamma3(alpha: float) -> BoundResult:
    """Two proved ranges with a genuine gap between them; outside both the
    result is marked not applicable rather than interpolated."""
    check_f_alpha(alpha)
    if alpha <= ALPHA3_LOW_HI:
        value = (1.0 - alpha) * (3.0 * alpha - 2.0) * (2.0 * alpha - 1.0) / 12.0
        return BoundResult(n=3, value=value, branch="low-range")
    if ALPHA3_LO <= alpha <= ALPHA3_HI:
        return BoundResult(n=3, value=(1.0 - alpha) / 12.0, branch="mid-range")
    return BoundResult(n=3, value=None, branch="gap", applicable=False,
                       note="no bound established on this alpha range")


# ---------------------------------------------------------------------------
# quartic-coefficient functional: region classification


def f_alpha_mu_upsilon(alpha: float) -> tuple[float, float]:
    """The (mu, upsilon) pair fed to the quartic functional for this class."""
    check_f_alpha(alpha)
    return 5.0 * alpha - 3.0, (3.0 * alpha - 2.0) * (2.0 * alpha - 1.0)


def ps_region(mu: float, ups: float) -> str:
    """Classify (mu, upsilon) into the first, second, sixth or seventh region
    of the quartic-functional partition; 'other' when none matches.
    Closed conditions throughout; ties go to the earliest region."""
    am = abs(mu)
    if am <= 0.5 and -1.0 <= ups <= 1.0:
        return "D1"
    if 0.5 <= am <= 2.0 and (4.0 / 27.0) * (am + 1.0) ** 3 - (am + 1.0) <= ups <= 1.0:
        return "D2"
    if 2.0 <= am <= 4.0 and ups >= (mu * mu + 8.0) / 12.0:
        return "D6"
    if am >= 4.0 and ups >= (2.0 / 3.0) * (am - 1.0):
        return "D7"
    return "other"


def ps_psi_bound(mu: float, ups: float) -> float | None:
    """Max of |upsilon + mu t + t^2| over t in [0,1] ... the known sharp value
    on the four regions used here: 1 on D1 and D2, |upsilon| on D6 and D7."""
    region = ps_region(mu, ups)
    if region in ("D1", "D2"):
        return 1.0
    if region in ("D6", "D7"):
        return abs(ups)
    return None


_D1234_ROWS = (
    {"region": "D1", "alpha_lo": 0.5, "alpha_hi": ALPHA3_HI},
    {"region": "D2", "alpha_lo": ALPHA3_LO, "alpha_hi": 0.5},
    {"region": "D6", "alpha_lo": -0.2, "alpha_hi": ALPHA3_LOW_HI},
    {"region": "D7", "alpha_lo": -0.5, "alpha_hi": -0.2},
)


def verify_d1234(step: float = 1e-3) -> dict:
    """March alpha across [-1/2, 7/10] and check the claimed region for every
    alpha one of the four table rows covers. Endpoints shared by two rows
    accept either region. Returns a plain-dict report."""
    if step <= 0:
        raise ValueError("step must be positive")
    mismatches = []
    checked = 0
    count = int(round(1.2 / step))
    for i in range(count + 1):
        alpha = -0.5 + 1.2 * i / count
        expected = [row["region"] for row in _D1234_ROWS
                    if row["alpha_lo"] - _EDGE_EPS <= alpha <= row["alpha_hi"] + _EDGE_EPS]
        if not expected:
            continue
        checked += 1
        got = ps_region(*f_alpha_mu_upsilon(alpha))
        if got not in expected:
            mismatches.append({"alpha": alpha, "expected": expected, "got": got})
    return {
        "step": step,
        "checked": checked,
        "mismatches": mismatches,
        "ok": not mismatches,
        "rows": [dict(row) for row in _D1234_ROWS],
    }


# ---------------------------------------------------------------------------
# dispatch


def bound_for(spec, n: int, abs_a: float | None = None) -> BoundResult:
    """Route a ClassSpec to its class's bound. u-lambda needs abs_a =
    |omega(0)| of the sample at hand; classes with no bound at this n come
    back applicable=False. An applicable bound that is not finite raises
    ValueError: past double precision it can neither grade a row nor be
    written to a report, so every caller gets the same refusal."""
    res = spec.entry.bound(spec, n, abs_a)
    if res.applicable and not math.isfinite(res.value):
        raise ValueError(f"the bound at n={n} is {res.value}, beyond double precision; "
                         "lower n_max")
    return res
