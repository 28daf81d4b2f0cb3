"""Compute the inverse-log coefficients two independent ways and watch them agree.

Route one reverts the series and reads log(F(w)/w). Route two never reverts:
2 n Gamma_n is the z^n coefficient of (z/f)^n. They share nothing past
elementary series arithmetic, which is what makes the agreement worth
printing.
"""

import numpy as np

from invlog import families, gammas
from invlog.families import ClassSpec


def show(name, f, n_max=8):
    # f is one function, a one-row stack: each route gives one row of Gammas
    rev = gammas.gamma_via_reversion(f, n_max)[0]
    bn = gammas.gamma_via_bn(f, n_max)[0]
    disc = np.max(np.abs(rev - bn))
    print(f"\n{name}")
    print(f"  {'n':>2}  {'|Gamma_n| (reversion)':>22}  {'|Gamma_n| (bn identity)':>23}")
    for n in range(1, n_max + 1):
        print(f"  {n:>2}  {abs(rev[n - 1]):>22.15f}  {abs(bn[n - 1]):>23.15f}")
    print(f"  max route discrepancy: {disc:.3e}")


def main():
    order = 12
    show("cusp map (full-class extremal)", families.koebe(0.0, order))
    show("half-convex extremal", families.f_alpha_extremal(-0.5, "halfconvex", order))

    # a random starlike member, built from a random Schwarz function so
    # membership holds by construction
    spec = ClassSpec.star_ab(0.6, -1.0)
    draws = families.draw_members(spec, [(2024, 0, 0)], radius_cap=0.95)
    f = families.member_rows(spec, draws, order)
    show(f"random member of {spec.label()}", f)

    # a bounded-distortion member comes from its structure formula instead
    g = families.u_lambda_member(0.4 + 0.2j, 0.3, 0.75, order)
    show("bounded-distortion member, constant dilation 0.3", g)


if __name__ == "__main__":
    main()
