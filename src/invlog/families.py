"""Function classes: named extremal functions and random member generation.

Members are produced from each class's defining subordination with a true
Schwarz function, so membership holds by construction; there is no
a-posteriori boundary checking of truncated series. The named power-map
extremals are a subordination at phi = z^k, though spiral's real-power map
and gc's claimed map are not their class's own. The exception is the
bounded-distortion class ("u-lambda"), whose members and extremal come from
the structure formula f = z / (1 - a2 z + lam * z * int(omega)) with an
analytic omega bounded by 1.

Random members are drawn a chunk of keys at a time: draw_members gives
each key, as columns, the bits numpy's default generator seeded with the
key would (see invlog.keyed), and member_rows turns the columns into
Blaschke products and those into members with the public builders,
member_from_schwarz and u_lambda_member; that is the one path every
campaign builds its members by. Every function here gives its members as
an (S, order+1) stack, one member per row; a single function, such as a
named extremal, is a one-row stack.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import bounds, keyed, series
from .bounds import (BoundResult, check_f_alpha, check_gc, check_spiral, check_star_ab,
                     check_u_lambda, v_of_x)

F_ALPHA_VARIANTS = ("pow1", "pow2", "pow3", "halfconvex")


@dataclass(frozen=True)
class ClassSpec:
    """Tagged description of a function class and its parameters."""

    tag: str
    A: float | Fraction | None = None
    B: float | Fraction | None = None
    alpha: float | None = None
    beta: float | None = None
    c: float | None = None
    lam: float | None = None

    def __post_init__(self):
        if self.tag not in CLASSES:
            raise ValueError(f"unknown class tag {self.tag!r}")
        names = self.entry.params
        values = [getattr(self, name) for name in names]
        if any(v is None for v in values):
            raise ValueError(f"{self.tag} needs {' and '.join(names)}")
        self.entry.check(*values)

    @property
    def entry(self) -> ClassEntry:
        return CLASSES[self.tag]

    @classmethod
    def full_s(cls):
        return cls(tag="full-s")

    @classmethod
    def star_ab(cls, A, B):
        # Fractions stay exact, so the bound finds its interval seams exactly
        A, B = (x if isinstance(x, Fraction) else float(x) for x in (A, B))
        return cls(tag="star-ab", A=A, B=B)

    @classmethod
    def spiral(cls, alpha, beta):
        return cls(tag="spiral", alpha=float(alpha), beta=float(beta))

    @classmethod
    def gc(cls, c):
        return cls(tag="gc", c=float(c))

    @classmethod
    def u_lambda(cls, lam):
        return cls(tag="u-lambda", lam=float(lam))

    @classmethod
    def f_alpha(cls, alpha):
        return cls(tag="f-alpha", alpha=float(alpha))

    def label(self) -> str:
        # float(): Fraction parameters reject the :g format
        inner = ",".join(f"{name}={float(getattr(self, name)):g}" for name in self.entry.params)
        return f"{self.tag}({inner})" if inner else self.tag

    def params(self) -> dict:
        return {name: float(getattr(self, name)) for name in self.entry.params}


# ---------------------------------------------------------------------------
# named extremal functions


def koebe(theta: float, order: int) -> np.ndarray:
    """Rotated cusp map e^{-i theta} k(e^{i theta} z); coefficients n e^{i(n-1)theta}."""
    if order < 1:
        raise ValueError("koebe needs order >= 1")
    n = np.arange(order + 1, dtype=np.float64)
    coeffs = n * np.exp(1j * theta * (n - 1))
    coeffs[0] = 0.0
    coeffs[1] = 1.0
    return coeffs[None]


def _power_map(a, b, k: int, order: int, derivative: bool = False) -> np.ndarray:
    """The subordination member at phi = z^k: f/z, or f' when derivative,
    is (1 + b z^k)^{a/(kb)}, and exp(a z^k / k) at b = 0."""
    if k < 1 or order < 1:
        raise ValueError("k and order must be >= 1")
    phi = np.zeros((1, order), dtype=np.complex128)
    if k < order:
        phi[0, k] = 1.0
    return subordination_rows(a, b, derivative, phi, order)


def k_AB_n(A: float, B: float, n: int, order: int) -> np.ndarray:
    """z (1 + B z^n)^{(A-B)/(nB)}; B = 0 takes the limit form z exp(A z^n / n)."""
    check_star_ab(A, B)
    return _power_map(A - B, B, n, order)


def spiral_extremal(alpha: float, beta: float, n: int, order: int) -> np.ndarray:
    """z / (1 - z^n)^{gamma/n} with real exponent gamma = 2(1-beta)cos(alpha)."""
    check_spiral(alpha, beta)
    return _power_map(2.0 * (1.0 - beta) * math.cos(alpha), -1.0, n, order)


def gc_extremal(c: float, m: int, order: int) -> np.ndarray:
    """Antiderivative of (1 - z^m)^{c/m}: the function the bound is claimed sharp for."""
    check_gc(c)
    return _power_map(-c, -1.0, m, order, derivative=True)


def u_lambda_member(a2, omega, lam: float, order: int) -> np.ndarray:
    """f = z / (1 - a2 z + lam z int_0^z omega(t) dt), one member per value of a2.

    a2 is one value or a column of S; omega is a complex constant of modulus
    <= 1, shared by every row, or an (S, >= order - 2) stack (analytic,
    bounded by 1 -- the caller's responsibility). The construction satisfies
    f'(z/f)^2 - 1 = -lam z^2 omega identically. A row may come back
    non-finite: an overflow, left to the caller, raises no warning.
    perfbench's tracer wraps this name, so it stays.
    """
    check_u_lambda(lam)
    if order < 2:
        raise ValueError("order must be >= 2")
    a2 = np.atleast_1d(np.asarray(a2, dtype=np.complex128))
    dord = order - 1
    den = np.zeros((len(a2), dord + 1), dtype=np.complex128)
    den[:, 0] = 1.0
    den[:, 1] = -a2
    if dord >= 2:  # order 2 never reads omega: f = z / (1 - a2 z) there
        omega = _omega_rows(omega, len(a2), order - 3)
        # (z * int omega)[k] = omega_{k-2} / (k-1) for k >= 2
        den[:, 2:] += lam * omega[:, : dord - 1] / np.arange(1, dord, dtype=np.float64)
    f = np.zeros((len(a2), order + 1), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        f[:, 1:] = series.reciprocal(den, dord)
    return f


def _omega_rows(omega, rows: int, order: int) -> np.ndarray:
    """omega known to order: a constant as one row all members share, or one row each."""
    if np.ndim(omega) == 0:
        val = complex(omega)
        if abs(val) > 1:
            raise ValueError(f"constant omega must have modulus <= 1, got {abs(val)}")
        c = np.zeros((1, order + 1), dtype=np.complex128)
        c[0, 0] = val
        return c
    if omega.ndim != 2 or omega.shape[0] != rows or omega.shape[1] <= order:
        raise ValueError(f"omega of shape {omega.shape} is not a ({rows}, >= {order + 1}) stack")
    return omega


def u_extremal(lam: float, a: float, order: int) -> np.ndarray:
    """The equality function for the bounded-distortion class: a2 = 1 + lam v(a),
    omega(t) = (t + a)/(1 + a t), for a in [0, 1)."""
    if not 0 <= a < 1:
        raise ValueError(f"requires 0 <= a < 1, got {a}")
    a2 = 1.0 + lam * v_of_x(a)
    omega = blaschke_series(0.0, (a,), max(order - 3, 0))
    return u_lambda_member(a2, omega, lam, order)


def f_alpha_extremal(alpha: float, variant: str, order: int) -> np.ndarray:
    """The convexity-type equality functions, one per bound clause.

    pow1: f' = (1-z)^{-2(1-alpha)}     pow2: f' = (1-z^2)^{-(1-alpha)}
    pow3: f' = (1-z^3)^{-2(1-alpha)/3} halfconvex: (z - z^2/2)/(1-z)^2,
    which is pow1 at alpha = -1/2 and takes no other alpha. Each is the
    class subordination, with q(phi) - 1 = 2(1-alpha) phi / (1 - phi), at
    phi = z^k.
    """
    check_f_alpha(alpha)
    if variant not in F_ALPHA_VARIANTS:
        raise ValueError(f"variant must be one of {F_ALPHA_VARIANTS}, got {variant!r}")
    if variant == "halfconvex":
        if alpha != -0.5:
            raise ValueError(f"variant 'halfconvex' is the alpha = -1/2 map, got alpha={alpha}")
        variant = "pow1"
    k = {"pow1": 1, "pow2": 2, "pow3": 3}[variant]
    return _power_map(2.0 * (1.0 - alpha), -1.0, k, order, derivative=True)


# ---------------------------------------------------------------------------
# Schwarz functions and sampling


def blaschke_series(theta: float, factors, order: int) -> np.ndarray:
    """e^{i theta} prod_j (z + a_j)/(1 + conj(a_j) z): unit-ball function,
    generally nonzero at the origin (no z^m factor), as a one-row stack.
    perfbench's tracer wraps this name, so it stays."""
    factors = tuple(factors)
    for a in factors:
        if abs(a) >= 1:
            raise ValueError(f"Blaschke parameter {a!r} not inside the unit disk")
    return blaschke_rows([theta], [0], [factors], [len(factors)], order)


@dataclass(frozen=True)
class MemberDraws:
    """The random parameters of a chunk of members, one row per key, as
    columns: the rotation theta, the multiplicity m of the zero at 0 (0 for
    a dilation, which has no z^m factor), the Blaschke parameters, zero past
    each row's factor count, and for a bounded-distortion class
    abs_a = |omega(0)| and a2 (None otherwise). member_rows turns them into
    members."""

    theta: np.ndarray  # (S,)
    multiplicity: np.ndarray  # (S,) int
    factors: np.ndarray  # (S, 4) complex
    count: np.ndarray  # (S,) int
    abs_a: np.ndarray | None = None  # (S,)
    a2: np.ndarray | None = None  # (S,) complex


def draw_members(spec: ClassSpec, keys, *, radius_cap: float) -> MemberDraws:
    """The random parameters of one member of the class per key (a key list,
    or keyed.Columns): the bits numpy's default generator seeded with the key
    gives, a Schwarz function for a subordination class and a dilation and a2
    for the class drawn from its structure formula, as one invlog.keyed batch."""
    if spec.entry.subordination is None:
        return _draw_dilations(keys, spec.lam, radius_cap)
    return _draw_schwarz(keys, radius_cap)


def _streams(keys, radius_cap: float) -> keyed.Streams:
    if not 0 <= radius_cap < 1:
        raise ValueError("radius_cap must lie in [0, 1)")
    return keyed.Streams.seeded(keys)


def _blaschke_factors(u, radius, count) -> np.ndarray:
    """radius sqrt(u_r) e^{2 pi i u_t} from the uniform pairs (u_r, u_t) that
    follow u[:, 0], zero past each row's count."""
    factors = radius * np.sqrt(u[:, 1::2]) * np.exp(1j * (2.0 * math.pi * u[:, 2::2]))
    factors[np.arange(factors.shape[1]) >= count[:, None]] = 0.0
    return factors


def _draw_schwarz(keys, radius_cap: float) -> MemberDraws:
    streams = _streams(keys, radius_cap)
    m = np.array((1, 1, 1, 2, 3))[streams.integers(0, 5)]
    d = streams.integers(1, 5)
    # uniform(0, 2 pi) is 2 pi times the next double; a row reads its first 2 d + 1
    u = streams.random(9)
    return MemberDraws(theta=2.0 * math.pi * u[:, 0], multiplicity=m,
                       factors=_blaschke_factors(u, radius_cap, d), count=d)


def _draw_dilations(keys, lam: float, radius_cap: float) -> MemberDraws:
    streams = _streams(keys, radius_cap)
    nfac = streams.integers(0, 4)
    u = streams.random(9)  # a row reads its first 2 nfac + 3
    theta = 2.0 * math.pi * u[:, 0]
    factors = _blaschke_factors(u, 0.95, nfac)
    # omega(0) = e^{i theta} prod_j a_j, one factor at a time on the rows that
    # have it, in real arithmetic: numpy's complex product may round otherwise
    rot = np.exp(1j * theta)
    re, im = rot.real.copy(), rot.imag.copy()
    for j in range(factors.shape[1]):
        has = nfac > j
        ar, ai = factors[has, j].real, factors[has, j].imag
        re[has], im[has] = re[has] * ar - im[has] * ai, re[has] * ai + im[has] * ar
    abs_a = np.hypot(re, im)
    # v_of_x's series stops at a value-dependent term, so it runs per row
    v = np.array([v_of_x(x) for x in abs_a.tolist()])
    rows = np.arange(len(nfac))
    radius = radius_cap * (1.0 + lam * v) * np.sqrt(u[rows, 2 * nfac + 1])
    a2 = radius * np.exp(1j * (2.0 * math.pi * u[rows, 2 * nfac + 2]))
    return MemberDraws(theta=theta, multiplicity=np.zeros_like(nfac), factors=factors,
                       count=nfac, abs_a=abs_a, a2=a2)


def sample_schwarz(seed, *, radius_cap: float = 0.95) -> MemberDraws:
    """The one-key draw_members of a subordination class: one to four
    Blaschke factors, with radii sqrt-uniform in [0, radius_cap], and a
    multiplicity that favors simple zeros but exercises the c1 = 0 branches
    too. perfbench's tracer wraps this name, so it stays."""
    return _draw_schwarz([seed], radius_cap)


# ---------------------------------------------------------------------------
# members from subordination


def member_from_schwarz(spec: ClassSpec, phi, order: int) -> np.ndarray:
    """Solve the class's defining subordination with the given Schwarz
    functions, one member per row of phi.

    phi is an (S, >= order) stack of Schwarz functions with zero constant
    terms, known to order - 1 (a polynomial one is padded with zeros by the
    caller). With q(phi) - 1 = a phi / (1 + b phi) from the class entry, the
    starlike-type classes give f = z exp(int (q(phi)-1)/t dt) and the
    convexity class integrates f' = exp(int (q(phi)-1)/t dt). perfbench's
    tracer wraps this name, so it stays.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    if phi.ndim != 2 or phi.shape[1] < order:
        raise ValueError(f"phi rows of shape {phi.shape} not known to order {order - 1}")
    if (phi[:, 0] != 0).any():
        raise ValueError("a Schwarz function must vanish at the origin")
    if spec.entry.subordination is None:
        raise ValueError(f"{spec.tag} members come from u_lambda_member(a2, omega, lam), "
                         "not subordination")
    a, b = spec.entry.subordination(spec)
    return subordination_rows(a, b, spec.entry.derivative, phi[:, :order], order)


# ---------------------------------------------------------------------------
# members in batches: one member per row of an (S, order+1) array
#
# member_rows builds a chunk of campaign members through the public builders.
# blaschke_rows and subordination_rows are the row kernels under them, and
# subordination_rows also makes the named power maps, which need not be
# their class's subordination. Each caller checks the finished rows for
# overflow, never an intermediate one.


def member_rows(spec: ClassSpec, draws: MemberDraws, order: int) -> np.ndarray:
    """One member of the class per row of draw_members' columns, as rows."""
    dilation = spec.entry.subordination is None
    # omega to order - 3, phi to order - 1, never below 0: the builders refuse order < 2
    ball = blaschke_rows(draws.theta, draws.multiplicity, draws.factors, draws.count,
                         max(order - 3 if dilation else order - 1, 0))
    if dilation:
        return u_lambda_member(draws.a2, ball, spec.lam, order)
    return member_from_schwarz(spec, ball, order)


def blaschke_rows(thetas, multiplicities, factors, counts, order: int) -> np.ndarray:
    """Row s is e^{i theta_s} z^{m_s} prod_j (z + a_j)/(1 + conj(a_j) z) over
    the a_j = factors[s, j] with j < counts[s]; m = 0 leaves out the z^m
    factor, as blaschke_series does. Factor slot j multiplies only the rows
    that have a j-th factor.

    Each 1/(1 + conj(a) z) is r_k = -(conj(a) r_{k-1}). series.reciprocal's sum
    for r_k is this product plus exact zeros, so the two differ at most in a
    zero's sign, which the product with z + a erases: it adds an exact +0 (a
    term with r_0 = 1) to every coefficient past the constant."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    thetas, m = np.asarray(thetas, dtype=np.float64), np.asarray(multiplicities)
    factors, counts = np.asarray(factors, dtype=np.complex128), np.asarray(counts)
    out = np.zeros((len(thetas), order + 1), dtype=np.complex128)
    rows = np.flatnonzero(m <= order)
    out[rows, m[rows]] = np.exp(1j * thetas[rows])
    for j in range(counts.max(initial=0)):
        has = np.flatnonzero(counts > j)
        num = np.zeros((has.size, order + 1), dtype=np.complex128)  # z + a
        num[:, 0], num[:, 1:2] = factors[has, j], 1.0
        recip = np.empty((order + 1, has.size), dtype=np.complex128)  # by order, then row
        recip[0], conj = 1.0, factors[has, j].conj()
        for k in range(1, order + 1):
            recip[k] = -(conj * recip[k - 1])
        factor = series.multiply(num, recip.T, order)
        out[has] = series.multiply(out[has], factor, order)
    return out


def subordination_rows(a, b, derivative: bool, phi: np.ndarray, order: int) -> np.ndarray:
    """member_from_schwarz on each row of phi, Schwarz functions known to
    order - 1 with zero constant terms: q(phi) - 1 = a phi / (1 + b phi),
    solved for f' when derivative, for f/z otherwise."""
    den = phi * complex(b)  # 1 + b phi
    den[:, 0] += 1.0
    g = series.multiply(phi * complex(a), series.reciprocal(den, order - 1), order - 1)
    # log(f/z), or log f': [z^k] = g_k / k, the term-wise integral of g/z
    log_unit = np.zeros((phi.shape[0], order), dtype=np.complex128)
    log_unit[:, 1:] = g[:, 1:order] / np.arange(1, order)
    unit = series.exp_zero(log_unit, order - 1)
    f = np.zeros((phi.shape[0], order + 1), dtype=np.complex128)
    f[:, 1:] = unit / np.arange(1, order + 1) if derivative else unit
    return f


# ---------------------------------------------------------------------------
# the class registry


@dataclass(frozen=True)
class ClassEntry:
    """Everything one class tag means, read by specs, bounds, campaigns and
    the CLI instead of switching on the tag."""

    # ClassSpec fields the class takes, in label order
    params: tuple[str, ...]
    # range check, called with those fields in that order
    check: Callable
    # bound(spec, n, abs_a) -> BoundResult
    bound: Callable
    # spec -> (a, b) with q(phi) - 1 = a phi / (1 + b phi); None for a class
    # drawn from its structure formula instead
    subordination: Callable | None
    # candidates(spec, n, branch, order, abs_a) -> [(label, build, asserted, note)]:
    # the named equality functions of the clause that gave the bound at n,
    # build() making the function as a one-row stack. Within one (spec, order, abs_a)
    # a label names one function at every n, so sharpness_check builds each label once
    candidates: Callable
    # the subordination gives f' rather than f/z
    derivative: bool = False
    # the bound depends on each member's omega(0), passed as abs_a
    per_sample_bound: bool = False


def _by_order(bound_fns, n: int, *args) -> BoundResult:
    """The n-th of a class's per-order bounds; open past the last one."""
    if 1 <= n <= len(bound_fns):
        return bound_fns[n - 1](*args)
    return BoundResult(n=n, value=None, branch="open", applicable=False,
                       note=f"no bound known for n >= {len(bound_fns) + 1}")


_NO_MIDDLE = "no equality function named on the middle clauses"


def _clause_candidates(branch: str, full: list, sym: tuple) -> list:
    """The interval-dispatched classes: the full-product maps, the
    n-symmetric map (label, build) on the endpoint clause, and both report-only
    on the middle clauses."""
    if branch == "full-product":
        return full
    if branch == "endpoint-linear":
        return [(*sym, True, "")]
    return [(*full[0][:2], False, _NO_MIDDLE), (*sym, False, _NO_MIDDLE)]


def _star_ab_candidates(spec, n, branch, order, abs_a):
    A, B = float(spec.A), float(spec.B)
    one = ("one-point-map", partial(k_AB_n, A, B, 1, order), True, "")
    return _clause_candidates(branch, [one],
                              (f"{n}-symmetric-map", partial(k_AB_n, A, B, n, order)))


def _spiral_candidates(spec, n, branch, order, abs_a):
    line = ("tilted-line-map", partial(_power_map, *spec.entry.subordination(spec), 1, order),
            True, "")
    real = ("real-power-map", partial(spiral_extremal, spec.alpha, spec.beta, 1, order),
            spec.alpha == 0, "" if spec.alpha == 0 else "reaches the bound only at alpha = 0")
    sym = (f"{n}-symmetric-map", partial(spiral_extremal, spec.alpha, spec.beta, n, order))
    return _clause_candidates(branch, [line, real], sym)


def _gc_candidates(spec, n, branch, order, abs_a):
    note = "" if spec.c == 1 else "claimed equality function; reaches the bound only at c = 1"
    return [("claimed-derivative-map", partial(gc_extremal, spec.c, 1, order), True, note),
            ("kernel-ray-map", partial(_power_map, *spec.entry.subordination(spec), 1, order),
             True, "substitute equality function from the defining subordination")]


# (n, branch) -> the power maps p of the clause, f' = (1 - z^p)^(...): the
# first attains the clause, any other attains the other clause at that n
_F_ALPHA_POWERS = {(1, "linear"): (1,), (2, "low-range"): (1, 2), (2, "high-range"): (2, 1),
                   (3, "low-range"): (1,), (3, "mid-range"): (3,)}


def _f_alpha_candidates(spec, n, branch, order, abs_a):
    cands = [(f"power-map-{p}", partial(f_alpha_extremal, spec.alpha, f"pow{p}", order),
              i == 0, "" if i == 0 else "attains the other clause")
             for i, p in enumerate(_F_ALPHA_POWERS[n, branch])]
    if spec.alpha == -0.5:
        cands.append(("half-convex-map", partial(f_alpha_extremal, -0.5, "halfconvex", order),
                      False, "same function as power-map-1 at alpha = -1/2"))
    return cands


CLASSES = {
    "full-s": ClassEntry(
        params=(),
        check=lambda: None,
        bound=lambda spec, n, abs_a: bounds.bound_class_S(n),
        subordination=lambda spec: (2.0, -1.0),
        candidates=lambda spec, n, branch, order, abs_a: [
            ("cusp-map", partial(koebe, 0.0, order), True, "")],
    ),
    "star-ab": ClassEntry(
        params=("A", "B"),
        check=check_star_ab,
        # the spec's own A, B: Fractions reach the seam detection exactly
        bound=lambda spec, n, abs_a: bounds.bound_star_AB(n, spec.A, spec.B),
        subordination=lambda spec: (float(spec.A) - float(spec.B), float(spec.B)),
        candidates=_star_ab_candidates,
    ),
    "spiral": ClassEntry(
        params=("alpha", "beta"),
        check=check_spiral,
        bound=lambda spec, n, abs_a: bounds.bound_spiral(n, spec.alpha, spec.beta),
        # target (1 + A z)/(1 - z) with A = e^{i a}(e^{i a} - 2 beta cos a);
        # A + 1 = 2(1-beta)cos(a) e^{i a}
        subordination=lambda spec: (
            2.0 * (1.0 - spec.beta) * math.cos(spec.alpha) * cmath.exp(1j * spec.alpha), -1.0),
        candidates=_spiral_candidates,
    ),
    "gc": ClassEntry(
        params=("c",),
        check=check_gc,
        bound=lambda spec, n, abs_a: bounds.bound_Gc(n, spec.c),
        subordination=lambda spec: (-spec.c / (1.0 + spec.c), -1.0 / (1.0 + spec.c)),
        candidates=_gc_candidates,
    ),
    "u-lambda": ClassEntry(
        params=("lam",),
        check=check_u_lambda,
        bound=lambda spec, n, abs_a: _by_order(
            (bounds.bound_U_gamma1, bounds.bound_U_gamma2), n, spec.lam, abs_a),
        subordination=None,
        candidates=lambda spec, n, branch, order, abs_a: [
            ("extremal-dilation-map", partial(u_extremal, spec.lam, abs_a, order), True,
             f"at omega(0) = {abs_a:g}")],
        per_sample_bound=True,
    ),
    "f-alpha": ClassEntry(
        params=("alpha",),
        check=check_f_alpha,
        bound=lambda spec, n, abs_a: _by_order(
            (bounds.bound_F_gamma1, bounds.bound_F_gamma2, bounds.bound_F_gamma3), n,
            spec.alpha),
        subordination=lambda spec: (2.0 * (1.0 - spec.alpha), -1.0),
        candidates=_f_alpha_candidates,
        derivative=True,
    ),
}

CLASS_TAGS = tuple(CLASSES)
