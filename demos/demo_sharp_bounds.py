"""Print bound tables next to the |Gamma_n| of the named equality functions.

A sharp bound is one some class member actually reaches. For each class,
harness.sharpness_check evaluates the bound clause by clause and every
equality function the class registry names for that clause; the margin
column should be zero up to roundoff on each row not marked report-only.

The bounded-turning class is the known exception: its claimed equality
function reaches the bound only at c = 1. The substitute coming straight
from the defining subordination closes the gap at every c, so both are
shown.
"""

from invlog import harness
from invlog.families import ClassSpec

# (class, largest order); the bounded-distortion bounds depend on omega(0)
TABLES = [(ClassSpec.full_s(), 8), (ClassSpec.star_ab(1, -1), 6),
          (ClassSpec.star_ab(0.2, 0), 6),  # endpoint clause, then partial products
          (ClassSpec.gc(0.5), 6), (ClassSpec.u_lambda(0.75), 2),
          (ClassSpec.f_alpha(0.0), 3), (ClassSpec.f_alpha(-0.5), 3)]
OMEGA0 = (0.0, 0.3, 0.7)


def main():
    for spec, n_max in TABLES:
        for abs_a in OMEGA0 if spec.entry.per_sample_bound else (harness.DEFAULT_ABS_A,):
            rep = harness.sharpness_check(spec, n_max, abs_a=abs_a)
            at = f" at |omega(0)| = {abs_a:g}" if spec.entry.per_sample_bound else ""
            print(f"\n{spec.label()}{at}")
            for row in rep.rows:
                mark = "  (report-only)" if row["flag"] == "report-only" else ""
                print(f"  n={row['n']}  bound {row['bound']:<12.9f} "
                      f"|Gamma_n| {row['abs_gamma']:<12.9f} margin {row['margin']:>10.2e}   "
                      f"{row['branch']:<20} {row['sample_id']}{mark}")
            for note in rep.notes:
                print(f"        note: {note}")


if __name__ == "__main__":
    main()
