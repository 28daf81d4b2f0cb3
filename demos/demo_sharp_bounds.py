"""Print bound tables next to the |Gamma_n| of the named equality functions.

A sharp bound is one some class member actually reaches. For each class we
evaluate the bound clause by clause and then the function claimed to attain
it; the gap column should be zero up to roundoff wherever a claim exists.

The bounded-turning class is the known exception: its printed equality
function reaches the bound only at c = 1. The substitute coming straight
from the defining subordination closes the gap at every c, so both are
shown.
"""

import math

import numpy as np

from invlog import bounds, families, gammas, series
from invlog.families import ClassSpec


def gap_line(n, res, f, label):
    ag = abs(gammas.gamma_via_bn(f, n)[n - 1])
    print(f"  n={n}  bound {res.value:<12.9f} |Gamma_n| {ag:<12.9f} "
          f"gap {res.value - ag:>10.2e}   {res.branch:<20} {label}")


def starlike_table(A, B, n_max=6):
    print(f"\nstarlike family, A={A}, B={B}")
    order = n_max + 6
    for n in range(1, n_max + 1):
        res = bounds.bound_star_AB(n, A, B)
        if res.branch == "full-product":
            f = families.k_AB_n(float(A), float(B), 1, order)
            gap_line(n, res, f, "one-point map")
        elif res.branch == "endpoint-linear":
            f = families.k_AB_n(float(A), float(B), n, order)
            gap_line(n, res, f, f"{n}-symmetric map")
        else:
            print(f"  n={n}  bound {res.value:<12.9f} {'':>37}{res.branch:<20} "
                  "(no equality function named)")
        if res.note:
            print(f"        note: {res.note}")


def bounded_turning_table(c, n_max=6):
    print(f"\nbounded-turning class, c={c}")
    order = n_max + 6
    claimed = families.gc_extremal(c, 1, order)
    ray = families.member_from_schwarz(ClassSpec.gc(c), series.identity(order - 1), order)
    for n in range(1, n_max + 1):
        res = bounds.bound_Gc(n, c)
        gap_line(n, res, claimed, "claimed extremal")
        gap_line(n, res, ray, "kernel-ray substitute")


def distortion_table(lam, n_max=2):
    print(f"\nbounded-distortion class, lam={lam} (bounds depend on omega(0))")
    for a in (0.0, 0.3, 0.7):
        f = families.u_extremal(lam, a, 10)
        for n, res in ((1, bounds.bound_U_gamma1(lam, a)),
                       (2, bounds.bound_U_gamma2(lam, a))):
            gap_line(n, res, f, f"extremal dilation, omega(0)={a}")


def main():
    print("full class: the cusp map against the central-binomial values")
    order = 14
    k = families.koebe(0.0, order)
    for n in range(1, 9):
        res = bounds.bound_class_S(n)
        gap_line(n, res, k, f"= C({2 * n},{n})/{2 * n} = "
                 f"{math.comb(2 * n, n)}/{2 * n}")

    starlike_table(1, -1)
    starlike_table(0.2, 0)        # endpoint clause then partial products
    bounded_turning_table(0.5)
    distortion_table(0.75)

    print("\nhalf-plane convexity class at its two fully solved spots")
    for alpha, fn in ((0.0, None), (-0.5, families.f_alpha_extremal(-0.5, "pow1", 10))):
        label = "power map 1" if fn is not None else "half-plane map z/(1-z)"
        if fn is None:
            fn = series.Series(np.concatenate([[0.0], np.ones(10)]))
        print(f" alpha = {alpha}:")
        for n in range(1, 4):
            res = bounds.bound_for(ClassSpec.f_alpha(alpha), n)
            gap_line(n, res, fn, label)


if __name__ == "__main__":
    main()
