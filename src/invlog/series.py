"""Truncated formal power series over complex floating point.

A series of order N is the polynomial representative of a power series
modulo z^{N+1}: exactly N+1 stored coefficients, coefficient k multiplying
z**k. Missing high coefficients are never implied to be zero; every
operation takes an explicit target order and refuses operands that are
not known at least that far. All recurrences below are triangular, so a
result coefficient depends only on input coefficients of equal or lower
index; computing at a higher order never changes the low-order output.

Values are immutable (read-only numpy arrays) and every function here is
pure, so series can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

class Series:
    """Immutable truncated power series; ``coeffs[k]`` multiplies z**k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("need a nonempty 1-d coefficient sequence")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        self.coeffs = arr

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __getitem__(self, k: int) -> complex:
        # beyond the truncation the series is unknown, not zero
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} outside truncation order {self.order}")
        return complex(self.coeffs[k])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __hash__(self):
        return hash((self.coeffs.shape, self.coeffs.tobytes()))

    def __repr__(self):
        head = np.array2string(self.coeffs[:5], precision=6, separator=", ")
        tail = ", ..." if self.order >= 5 else ""
        return f"{type(self).__name__}(order={self.order}, coeffs={head[:-1]}{tail}])"


class AnalyticSeries(Series):
    """Series with c0 = 0 and c1 = 1 exactly (a normalized function)."""

    def __init__(self, coeffs):
        super().__init__(coeffs)
        if self.order < 1:
            raise ValueError("normalized series needs order >= 1")
        if self.coeffs[0] != 0 or self.coeffs[1] != 1:
            raise ValueError("normalized series requires c0 == 0 and c1 == 1 exactly")


class UnitSeries(Series):
    """Series with c0 = 1 exactly."""

    def __init__(self, coeffs):
        super().__init__(coeffs)
        if self.coeffs[0] != 1:
            raise ValueError("unit series requires c0 == 1 exactly")


# ---------------------------------------------------------------------------
# constructors


def constant(value, order: int) -> Series:
    _check_order(order)
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0] = value
    return Series(c)


def identity(order: int) -> AnalyticSeries:
    """The series of z itself."""
    _check_order(order)
    if order < 1:
        raise ValueError("identity needs order >= 1")
    c = np.zeros(order + 1, dtype=np.complex128)
    c[1] = 1.0
    return AnalyticSeries(c)


def monomial(k: int, order: int, coeff=1.0) -> Series:
    _check_order(order)
    if not 0 <= k <= order:
        raise ValueError(f"monomial degree {k} outside order {order}")
    c = np.zeros(order + 1, dtype=np.complex128)
    c[k] = coeff
    return Series(c)


def extend(a: Series, order: int) -> Series:
    """Explicitly declare ``a`` exact and pad with zero coefficients.

    This is the one deliberate way to raise order; arithmetic never does
    it silently.
    """
    _check_order(order)
    if order < a.order:
        raise ValueError("extend cannot lower order; use truncate")
    c = np.zeros(order + 1, dtype=np.complex128)
    c[: a.order + 1] = a.coeffs
    return Series(c)


def truncate(a: Series, order: int) -> Series:
    _check_order(order)
    if order > a.order:
        raise ValueError(f"operand of order {a.order} not known to order {order}")
    return Series(a.coeffs[: order + 1])


# ---------------------------------------------------------------------------
# linear ops


def add(a: Series, b: Series, order: int) -> Series:
    _need(a, order)
    _need(b, order)
    return Series(a.coeffs[: order + 1] + b.coeffs[: order + 1])


def subtract(a: Series, b: Series, order: int) -> Series:
    _need(a, order)
    _need(b, order)
    return Series(a.coeffs[: order + 1] - b.coeffs[: order + 1])


def scale(a: Series, s) -> Series:
    return Series(a.coeffs * complex(s))


def shift(a: Series, power: int, order: int) -> Series:
    """Multiply by z**power at the stated order."""
    _check_order(order)
    if power < 0:
        raise ValueError("shift power must be >= 0")
    c = np.zeros(order + 1, dtype=np.complex128)
    if power <= order:
        _need(a, order - power)
        c[power:] = a.coeffs[: order + 1 - power]
    return Series(c)


def divide_by_z(a: Series) -> Series:
    """Drop the (exactly zero) constant term and reindex; order drops by 1."""
    if a.coeffs[0] != 0:
        raise ValueError("divide_by_z requires c0 == 0 exactly")
    if a.order < 1:
        raise ValueError("divide_by_z needs order >= 1")
    return Series(a.coeffs[1:])


def differentiate(a: Series) -> Series:
    """Term-wise derivative; order drops by 1."""
    if a.order < 1:
        raise ValueError("differentiate needs order >= 1")
    k = np.arange(1, a.order + 1)
    return Series(a.coeffs[1:] * k)


def integrate_termwise(a: Series, order: int) -> Series:
    """Term-wise antiderivative with zero constant term."""
    _check_order(order)
    if order < 1:
        raise ValueError("integrate_termwise needs order >= 1")
    _need(a, order - 1)
    c = np.zeros(order + 1, dtype=np.complex128)
    k = np.arange(1, order + 1)
    c[1:] = a.coeffs[:order] / k
    return Series(c)


# ---------------------------------------------------------------------------
# multiplicative ops


def multiply(a: Series, b: Series, order: int) -> Series:
    _need(a, order)
    _need(b, order)
    return Series(multiply_rows(a.coeffs[None], b.coeffs[None], order)[0])


def reciprocal(a: Series, order: int) -> UnitSeries:
    """Series r with multiply(a, r, order) == 1 modulo z^{order+1}."""
    _need(a, order)
    if a.coeffs[0] != 1:
        raise ValueError("reciprocal requires c0 == 1 exactly")
    return UnitSeries(reciprocal_rows(a.coeffs[None], order)[0])


def log_unit(a: Series, order: int) -> Series:
    """Logarithm of a series with c0 == 1; result has c0 == 0."""
    _need(a, order)
    c = a.coeffs
    if c[0] != 1:
        raise ValueError("log_unit requires c0 == 1 exactly")
    ell = np.zeros(order + 1, dtype=np.complex128)
    for k in range(1, order + 1):
        # k l_k = k c_k - sum_{m=1..k-1} m l_m c_{k-m}
        s = np.dot(np.arange(1, k) * ell[1:k], c[k - 1 : 0 : -1]) if k > 1 else 0.0
        ell[k] = c[k] - s / k
    return Series(ell)


def exp_zero(a: Series, order: int) -> UnitSeries:
    """Exponential of a series with c0 == 0; result has c0 == 1."""
    _need(a, order)
    if a.coeffs[0] != 0:
        raise ValueError("exp_zero requires c0 == 0 exactly")
    return UnitSeries(exp_zero_rows(a.coeffs[None], order)[0])


def pow_scalar(a: Series, mu, order: int) -> UnitSeries:
    """a**mu for complex scalar mu via exp(mu log a); principal branch at 1."""
    _need(a, order)
    if a.coeffs[0] != 1:
        raise ValueError("pow_scalar requires c0 == 1 exactly")
    mu = complex(mu)
    if mu == 0:
        return UnitSeries(constant(1.0, order).coeffs)
    return exp_zero(scale(log_unit(a, order), mu), order)


def compose(outer: Series, inner: Series, order: int) -> Series:
    """outer(inner(z)) modulo z^{order+1}; inner must have c0 == 0 exactly."""
    _need(outer, order)
    _need(inner, order)
    if inner.coeffs[0] != 0:
        raise ValueError("compose requires inner c0 == 0 exactly")
    return Series(_compose_raw(outer.coeffs[: order + 1], inner.coeffs[: order + 1], order))


def revert(f: Series, order: int) -> AnalyticSeries:
    """Compositional inverse: compose(f, revert(f)) == identity mod z^{order+1}.

    Triangular back-substitution on [w^n] f(F(w)) = 0; the normalization
    c0 = 0, c1 = 1 makes each step's pivot exactly 1. Instead of
    recomposing f(F) for every new coefficient, the Horner nesting
    H_k = f_k + F H_{k+1} (so f(F) = H_0) is kept as a table,
    H[k, m] = [w^m] H_k. Column m of H_k needs only columns < m of
    H_{k+1} and A_1..A_m, so step n reads the defect [w^n] H_0 off row 1
    with one dot, sets A_n, then fills column n of every row a later step
    reads (k + n <= order) with one elementwise product and one row sum.
    That is about order^3/6 multiply-adds in ``order`` loop steps, and an
    (order+1) x order table: O(order^2) memory.

    The row sum is numpy's pairwise ``sum(axis=1)``, not a BLAS matvec.
    Both solve the same triangular system, but the matvec's rounding
    measured 1.7e-11 on the order-32 double-reversion round trip, against
    8.6e-12 here and a 1e-11 tolerance. Each row is also summed on its own,
    so a row's bits do not depend on how many rows the table has and the
    result stays bit-exact triangular in ``order``.
    """
    _need(f, order)
    if order < 1:
        raise ValueError("revert needs order >= 1")
    fc = f.coeffs
    if fc[0] != 0 or fc[1] != 1:
        raise ValueError("revert requires a normalized series (c0 == 0, c1 == 1)")
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
    return AnalyticSeries(inv)


# ---------------------------------------------------------------------------
# row layer: many series at once, one per row of an (S, order+1) array
#
# The one implementation of the product, reciprocal and exponential; the
# Series functions above validate and call these on one row. Each result
# coefficient is one sum over a row's own terms, never BLAS: exactly the
# terms it needs, or (the product) those in turn and then exact zeros. So
# its bits depend neither on the rows stacked with it nor on the order.


def _compose_raw(outer: np.ndarray, inner: np.ndarray, order: int) -> np.ndarray:
    # Horner: o_0 + g (o_1 + g (o_2 + ...)); g has zero constant term.
    # Only compose uses it; revert keeps the same nesting as a table.
    acc = np.zeros((1, order + 1), dtype=np.complex128)
    acc[0, 0] = outer[-1]
    for k in range(len(outer) - 2, -1, -1):
        acc = multiply_rows(acc, inner[None], order)
        acc[0, 0] += outer[k]
    return acc[0]


def multiply_rows(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Row-wise product modulo z^{order+1}: out[s, k] = sum_j a[s, j] T[s, k, j]
    with T[s, k, j] = b[s, k - j], zero for j > k, a strided view (no copy)
    of b reversed and zero-padded. The padding adds exact zeros to each
    in-turn sum, so it changes no bits while a is finite."""
    n = order + 1
    padded = np.zeros((b.shape[0], 2 * n - 1), dtype=np.complex128)
    padded[:, :n] = b[:, n - 1 :: -1]
    step = padded.itemsize
    toeplitz = np.ndarray((b.shape[0], n, n), np.complex128, padded, (n - 1) * step,
                          (padded.strides[0], -step, step))
    return np.einsum("sj,skj->sk", a[:, :n], toeplitz)


def reciprocal_rows(c: np.ndarray, order: int) -> np.ndarray:
    """Row-wise reciprocal of series whose constant terms are all 1."""
    r = np.empty((c.shape[0], order + 1), dtype=np.complex128)
    r[:, 0] = 1.0
    for k in range(1, order + 1):
        r[:, k] = -(c[:, k:0:-1] * r[:, :k]).sum(axis=-1)
    return r


def exp_zero_rows(c: np.ndarray, order: int) -> np.ndarray:
    """Row-wise exponential of series whose constant terms are all 0."""
    e = np.empty((c.shape[0], order + 1), dtype=np.complex128)
    e[:, 0] = 1.0
    weighted = np.arange(order + 1) * c[:, : order + 1]
    for k in range(1, order + 1):
        e[:, k] = (weighted[:, 1 : k + 1] * e[:, k - 1 :: -1]).sum(axis=-1) / k
    return e


# ---------------------------------------------------------------------------
# argument checking


def _check_order(order: int) -> None:
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")


def _need(a: Series, order: int) -> None:
    _check_order(order)
    if a.order < order:
        raise ValueError(f"operand of order {a.order} not known to order {order}")
