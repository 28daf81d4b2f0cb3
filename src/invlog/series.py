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
    """Immutable truncated power series; ``coeffs[k]`` multiplies z**k.
    perfbench's tracer counts the objects made through __init__, so it stays."""

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


# ---------------------------------------------------------------------------
# constructors


def constant(value, order: int) -> Series:
    """The constant series; perfbench's kernel probe calls it by name, so it stays."""
    _check_order(order)
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0] = value
    return Series(c)


def identity(order: int) -> Series:
    """The series of z itself."""
    _check_order(order)
    if order < 1:
        raise ValueError("identity needs order >= 1")
    c = np.zeros(order + 1, dtype=np.complex128)
    c[1] = 1.0
    return Series(c)


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Series, b: Series, order: int) -> Series:
    """a + b; perfbench's kernel probe calls it by name, so it stays."""
    _need(a, order)
    _need(b, order)
    return Series(a.coeffs[: order + 1] + b.coeffs[: order + 1])


def multiply(a: Series, b: Series, order: int) -> Series:
    """a b; perfbench's kernel probe calls it by name, so it stays."""
    _need(a, order)
    _need(b, order)
    return Series(multiply_rows(a.coeffs[None], b.coeffs[None], order)[0])


def reciprocal(a: Series, order: int) -> Series:
    """Series r with multiply(a, r, order) == 1 modulo z^{order+1}.
    perfbench's kernel probe calls it by name, so it stays."""
    _need(a, order)
    if a.coeffs[0] != 1:
        raise ValueError("reciprocal requires c0 == 1 exactly")
    return Series(reciprocal_rows(a.coeffs[None], order)[0])


def log_unit(a: Series, order: int) -> Series:
    """Logarithm of a series with c0 == 1; result has c0 == 0.
    perfbench's kernel probe calls it by name, so it stays."""
    _need(a, order)
    if a.coeffs[0] != 1:
        raise ValueError("log_unit requires c0 == 1 exactly")
    return Series(log_unit_rows(a.coeffs[None], order)[0])


def exp_zero(a: Series, order: int) -> Series:
    """Exponential of a series with c0 == 0; result has c0 == 1.
    perfbench's kernel probe calls it by name, so it stays."""
    _need(a, order)
    if a.coeffs[0] != 0:
        raise ValueError("exp_zero requires c0 == 0 exactly")
    return Series(exp_zero_rows(a.coeffs[None], order)[0])


def compose(outer: Series, inner: Series, order: int) -> Series:
    """outer(inner(z)) modulo z^{order+1}; inner must have c0 == 0 exactly.
    perfbench's kernel probe calls it by name, so it stays."""
    _need(outer, order)
    _need(inner, order)
    if inner.coeffs[0] != 0:
        raise ValueError("compose requires inner c0 == 0 exactly")
    return Series(_compose_raw(outer.coeffs[: order + 1], inner.coeffs[: order + 1], order))


def revert(f: Series | np.ndarray, order: int) -> Series | np.ndarray:
    """Compositional inverse: compose(f, revert(f)) == identity mod z^{order+1}.

    f is one Series, giving the inverse's Series, or an (S, >= order+1) array
    of series rows, giving the (S, order+1) array of their inverses; either
    way revert_rows does the work. The reversion route passes whole chunks
    through this name, so perfbench's tracer (series.revert) times them, and
    its kernel probe calls it by name."""
    if isinstance(f, Series):
        _need(f, order)
        rows = f.coeffs[None]
    else:
        _check_order(order)
        rows = f
        if rows.ndim != 2 or rows.shape[1] < order + 1:
            raise ValueError(f"rows of shape {rows.shape} not known to order {order}")
    if order < 1:
        raise ValueError("revert needs order >= 1")
    if np.any(rows[:, 0] != 0) or np.any(rows[:, 1] != 1):
        raise ValueError("revert requires a normalized series (c0 == 0, c1 == 1)")
    inv = revert_rows(rows, order)
    return Series(inv[0]) if isinstance(f, Series) else inv


# ---------------------------------------------------------------------------
# row layer: many series at once, one per row of an (S, order+1) array
#
# The one implementation of the product, reciprocal, exponential, logarithm
# and reversion; the Series functions above validate and call these on one
# row (revert takes a whole stack too). Each result coefficient is one sum
# over a row's own terms: exactly the terms it needs, or (the product) those
# in turn and then exact zeros.
# Most are numpy's pairwise sum over the last axis. The defect sums of
# log_unit_rows and revert_rows are instead BLAS dots (zdotu), the routine
# np.dot has always called for them, run once per row by _dot_rows. The
# reversion round trip sits at its rounding floor (order 32: 8.6e-12 against
# a 1e-11 tolerance), and a pairwise sum or einsum there, or a dot whose
# operand is not contiguous (matmul then skips BLAS), measured 1.55e-11 to
# 1.76e-11. Either way a row's bits depend neither on the rows stacked with
# it nor on the order.


def _compose_raw(outer: np.ndarray, inner: np.ndarray, order: int) -> np.ndarray:
    # Horner: o_0 + g (o_1 + g (o_2 + ...)); g has zero constant term.
    # Only compose uses it; revert_rows keeps the same nesting as a table.
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
    in-turn sum, so it changes no bits while a is finite; a row of a holding
    an inf, which would meet the padding as inf * 0 = NaN, is summed again
    over its true terms (j <= k) only. Such a row always has a non-finite
    constant term (every j > 0 meets the padding there), so column 0 of the
    product is the one finiteness check a finite stack pays."""
    n = order + 1
    padded = np.zeros((b.shape[0], 2 * n - 1), dtype=np.complex128)
    padded[:, :n] = b[:, n - 1 :: -1]
    step = padded.itemsize
    toeplitz = np.ndarray((b.shape[0], n, n), np.complex128, padded, (n - 1) * step,
                          (padded.strides[0], -step, step))
    out = np.einsum("sj,skj->sk", a[:, :n], toeplitz)
    if not np.isfinite(out[:, 0]).all():
        bad = ~np.isfinite(a[:, :n]).all(axis=1)
        true_a = np.where(np.tri(n, dtype=bool), a[bad, None, :n], 0.0)
        out[bad] = (true_a * toeplitz[bad]).sum(axis=-1)
    return out


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


def _dot_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_j x[s, j] y[s, j] for every row s, by one BLAS zdotu call per row:
    a stacked matmul of (1, m) by (m, 1) calls the same routine as np.dot on
    one pair of rows, provided both rows are contiguous."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def log_unit_rows(c: np.ndarray, order: int) -> np.ndarray:
    """Row-wise logarithm of series whose constant terms are all 1:
    k l_k = k c_k - sum_{m=1..k-1} m l_m c_{k-m}, one defect dot per step."""
    ell = np.zeros((c.shape[0], order + 1), dtype=np.complex128)
    if order < 1:
        return ell
    # reversed once, so each step's c_{k-1}, ..., c_1 is a contiguous slice
    rev = np.ascontiguousarray(c[:, order::-1])
    weights = np.arange(order + 1, dtype=np.complex128)  # cast once, not per step
    ell[:, 1] = c[:, 1]
    for k in range(2, order + 1):
        s = _dot_rows(weights[1:k] * ell[:, 1:k], rev[:, order + 1 - k : order])
        ell[:, k] = c[:, k] - s / k
    return ell


def revert_rows(f: np.ndarray, order: int) -> np.ndarray:
    """Row-wise compositional inverse of normalized series (c0 = 0, c1 = 1).

    Triangular back-substitution on [w^n] f(F(w)) = 0; the normalization
    makes each step's pivot exactly 1. Instead of recomposing f(F) for
    every new coefficient, the Horner nesting H_k = f_k + F H_{k+1} (so
    f(F) = H_0) is kept as a table per row, H[s, k, m] = [w^m] H_k. Column m
    of H_k needs only columns < m of H_{k+1} and A_1..A_m, so step n reads
    the defect [w^n] H_0 off row 1 with one dot, sets A_n, then fills column
    n of every row a later step reads (k + n <= order) with one elementwise
    product and one row sum. That is about order^3/6 multiply-adds per
    series in ``order`` loop steps, and an (order+1) x order table each.
    The row sum is numpy's pairwise sum, not a BLAS matvec: both solve the
    same triangular system, but the matvec measured 1.7e-11 on the order-32
    round trip.

    The stack goes through in blocks of max(1, 2**21 // (16 (order+1) order))
    rows, whose tables total about 2 MiB, so a block stays in cache across
    the steps that sweep it. On 256 rows at order 129 (2-vCPU x86 VM) that
    took 360 ms, against 651 ms for one table of all 256 rows and 559 ms
    one row at a time.
    """
    inv = np.empty((f.shape[0], order + 1), dtype=np.complex128)
    inv[:, 0], inv[:, 1] = 0.0, 1.0
    block = max(1, 2 ** 21 // (16 * (order + 1) * order))
    # Column 0 is H[s, k, 0] = f_k because F has zero constant term. Row 0,
    # f(F) itself, is never filled: only its column-n entry, the defect, is
    # needed. No step reads column ``order``, so the table stops before it.
    # Every entry a step reads was written earlier in the same block, so
    # one table serves every block.
    H = np.empty((min(block, f.shape[0]), order + 1, order), dtype=np.complex128)
    for lo in range(0, f.shape[0], block):
        A = inv[lo : lo + block]
        T = H[: len(A)]
        T[:, :, 0] = f[lo : lo + block, : order + 1]
        for n in range(1, order + 1):
            if n > 1:
                # without its A_n term, [w^n] H_0 = sum_{0<m<n} [w^m] H_1 A_{n-m}
                # is the defect; the A_n term enters linearly with coefficient
                # [w^0] H_1 = f1 == 1
                A[:, n] = -_dot_rows(T[:, 1, 1:n], np.ascontiguousarray(A[:, n - 1 : 0 : -1]))
            if n < order:
                # [w^n] H_k = sum_{m<n} [w^m] H_{k+1} A_{n-m}, for k = 1..order-n
                T[:, 1 : order + 1 - n, n] = (T[:, 2 : order + 2 - n, :n]
                                              * A[:, None, n:0:-1]).sum(axis=-1)
    return inv


# ---------------------------------------------------------------------------
# argument checking


def _check_order(order: int) -> None:
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")


def _need(a: Series, order: int) -> None:
    _check_order(order)
    if a.order < order:
        raise ValueError(f"operand of order {a.order} not known to order {order}")
