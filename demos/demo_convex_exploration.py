"""Probe the convex class beyond the proved orders.

For convex functions the first three inverse-log coefficients obey
|Gamma_n| <= 1/(2n). Whether that pattern continues is not a matter of
taste: random convex members cannot prove it, but a single member crossing
1/(2n) kills the naive extension. Orders up to 3 are graded against the
proved bounds; above that the harness reports overshoots as findings, not
failures, and this run produces plenty of them.
"""

from invlog import harness
from invlog.bounds import bound_for
from invlog.families import ClassSpec


def main():
    rep = harness.explore_convex_large_n(1, 10, samples=800, seed=271828)
    print(f"{rep.samples} random convex members, orders 1..10 "
          f"(series order {rep.order})")
    print(f" {'n':>2}  {'max 2n|Gamma_n|':>16}  {'at sample':>9}  "
          f"{'members over':>12}")
    for row in rep.summary:
        n = row["n"]
        proved = bound_for(ClassSpec.f_alpha(0.0), n).applicable
        marker = "proved bound" if proved else "conjectured 1"
        print(f" {n:>2}  {row['max_ratio']:>16.9f}  {row['argmax_sample']:>9}  "
              f"{row['exceed_count']:>12}   vs {marker}")
    print(f"\nflags: {rep.counts()}")
    print(f"graded violations (n <= 3): {len(rep.violations)}")
    print("reading: the proved orders never budge, and n = 4 survives this "
          "probe too. The overshoot of 1/(2n) at n = 5..9 is certified in exact "
          "arithmetic by tests/test_certificates.py::"
          "test_a_convex_map_overshoots_one_over_2n_exactly; the random members "
          "above only illustrate it. The three proved orders are not the "
          "visible edge of an all-orders pattern; they are where the pattern "
          "stops.")


if __name__ == "__main__":
    main()
