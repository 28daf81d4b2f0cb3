"""Command line front end.

Subcommands:

  gamma        Gamma_1..Gamma_{n_max} of a named function, by the bn identity
  bounds       the bound table of a class
  verify       random-member bound verification campaign
  sharpness    equality-function gap check
  explore      probe the open orders of the convex class
  cross-check  two-route agreement campaign

Every command writes through harness.dumps and harness.write_text.

Exit status: 0 clean; 1 when a campaign turns up a mathematical violation
(for sharpness: an asserted equality function missing its bound by more
than tolerance noise); 2 on bad arguments, including a flag the subcommand
does not take, a class or family parameter flag the chosen class or family
does not take (--a included), an empty --output, orders above
harness.MAX_ORDER and sizes too large to allocate.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from fractions import Fraction

import numpy as np

from . import families, gammas, harness, series
from .bounds import bound_for
from .families import ClassSpec

def _rational(text: str):
    """Exact where possible: '1/3' and '0.25' become Fractions, '1e-3' a float."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return float(text)


def _complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _add_class_args(p: argparse.ArgumentParser, required=True, a=False):
    p.add_argument("--class", dest="cls", required=required, choices=families.CLASS_TAGS)
    _add_param_args(p, a)


def _add_param_args(p: argparse.ArgumentParser, a=False, a2=False):
    """The class parameter flags; --a and --a2 where read."""
    p.add_argument("--A", type=_rational, default=None)
    p.add_argument("--B", type=_rational, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    if a:  # None when not given: its reader's default, and refused where not read
        p.add_argument("--a", type=_complex, default=None,
                       help="omega(0) for the bounded-distortion class")
    if a2:
        p.add_argument("--a2", type=_complex, default=None)


def _add_run_args(p: argparse.ArgumentParser, n_max: int, samples=None, tol=None, order=True):
    # with the command's own defaults; a sampled command takes --samples and --seed
    p.add_argument("--n-max", type=int, default=n_max)
    if samples is not None:
        p.add_argument("--samples", type=int, default=samples)
        p.add_argument("--seed", type=int, required=True)
    if tol is not None:
        p.add_argument("--tol", type=float, default=tol)
    if order:
        p.add_argument("--order", type=int, default=None)


def _add_output_args(p: argparse.ArgumentParser, table=False):
    # a table command (gamma, bounds) prints a human table by default, --format first
    if table:
        p.add_argument("--format", choices=("human", "json", "csv"), default="human")
    p.add_argument("--output", default=None, help="write the report to this path")
    if not table:
        p.add_argument("--format", choices=("json", "csv"), default="json")


_PARAMS = ("A", "B", "alpha", "beta", "c", "lam", "a", "a2")


def _require_flags(args, names, what: str):
    """Reject a class or family missing a parameter flag or given one it does not take;
    --a, with a default where read, is never missing."""
    missing = [name for name in names if name != "a" and getattr(args, name) is None]
    extra = [name for name in _PARAMS
             if name not in names and getattr(args, name, None) is not None]
    for bad, verb in ((missing, "needs"), (extra, "does not take")):
        flags = " and ".join("--lambda" if name == "lam" else f"--{name}" for name in bad)
        _require(not bad, f"{what} {verb} {flags}")


def _spec_from_args(args) -> ClassSpec:
    entry = families.CLASSES[args.cls]
    # a class whose bound varies with omega(0) reads --a
    _require_flags(args, (*entry.params, "a") if entry.per_sample_bound else entry.params,
                   f"--class {args.cls}")
    # --A and --B keep their exact Fractions for the bound's seam detection
    return ClassSpec(tag=args.cls, **{name: getattr(args, name) for name in entry.params})


def _omega0(args, default):
    """--a, or default where it is not given."""
    return default if args.a is None else args.a


def _require(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


_COUNTS = ("n_max", "n", "samples", "n_min")  # integer flags that must be >= 1


def _require_counts(args):
    """Reject a count flag below 1 by its own name, before any work starts."""
    for name in _COUNTS:
        value = getattr(args, name, None)
        _require(value is None or value >= 1,
                 f"--{name.replace('_', '-')} must be >= 1, got {value}")


def _u_extremal(args, order: int):
    a = _omega0(args, 0.0)
    _require(a.imag == 0 and 0 <= a.real < 1, "--family u-extremal needs real --a in [0,1)")
    return families.u_extremal(args.lam, a.real, order)


# each gamma family: the parameter flags it reads (--a, 0 unless given, is
# optional) and its builder, called with the parsed arguments and the order
GAMMA_FAMILIES = {
    "identity": ((), lambda args, order: series.identity(order)),
    "koebe": ((), lambda args, order: families.koebe(args.theta, order)),
    # z/(1-z) = z + z^2 + ...
    "halfplane": ((), lambda args, order: np.r_[0j, np.ones(order)][None]),
    "halfconvex": ((), lambda args, order: families.f_alpha_extremal(-0.5, "halfconvex", order)),
    "star-ab": (("A", "B"), lambda args, order: families.k_AB_n(float(args.A), float(args.B),
                                                                args.n, order)),
    "spiral": (("alpha", "beta"),
               lambda args, order: families.spiral_extremal(args.alpha, args.beta, args.n, order)),
    "gc": (("c",), lambda args, order: families.gc_extremal(args.c, args.n, order)),
    "u-extremal": (("lam", "a"), _u_extremal),
    "u-member": (("lam", "a2", "a"),
                 lambda args, order: families.u_lambda_member(args.a2, _omega0(args, 0.0),
                                                              args.lam, order)),
    "f-alpha": (("alpha",),
                lambda args, order: families.f_alpha_extremal(args.alpha, args.variant, order)),
}


def _gamma_function(args, order: int):
    params, build = GAMMA_FAMILIES[args.family]
    _require_flags(args, params, f"--family {args.family}")
    return build(args, order)


def _table(args, payload: dict, rows: list, title: str, line, cell=harness._fmt17) -> int:
    """Write a table command's rows (dicts with the same keys) in --format: json is payload,
    which holds them; csv their keys, then cell(value); human the title, then line(row)."""
    if args.format == "json":
        lines = [harness.dumps(payload)]
    elif args.format == "csv":
        lines = [",".join(rows[0])] + [",".join(map(cell, row.values())) for row in rows]
    else:
        lines = [title, *map(line, rows)]
    harness.write_text("\n".join(lines) + "\n", args.output)
    return 0


def cmd_gamma(args) -> int:
    order = harness._resolve_order(args.n_max, args.order)
    gams = gammas.gamma_via_bn(_gamma_function(args, order), args.n_max)[0]
    rows = []
    for n, g in enumerate(gams.tolist(), start=1):  # an overflow stops at its first n
        _require(np.isfinite(g), f"Gamma at n={n} is {g}, beyond double precision; lower n_max")
        rows.append({"n": n, "re": g.real, "im": g.imag, "abs": abs(g)})
    return _table(args, {"family": args.family, "n_max": args.n_max, "order": order,
                         "gammas": rows}, rows,
                  f"Gamma_n for family {args.family} (order {order}, route: bn-identity)",
                  lambda r: f"  n={r['n']:3d}  re={r['re']:+.12e}  im={r['im']:+.12e}  "
                            f"|Gamma|={r['abs']:.12e}")


def _bound_line(r: dict) -> str:
    if not r["applicable"]:
        return f"  n={r['n']:3d}  |Gamma_n| <= n/a  ({r['branch']}): {r['note']}"
    note = f"   [{r['note']}]" if r["note"] else ""
    return f"  n={r['n']:3d}  |Gamma_n| <= {r['value']:.12e}  ({r['branch']}){note}"


def cmd_bounds(args) -> int:
    spec = _spec_from_args(args)
    abs_a = abs(_omega0(args, harness.DEFAULT_ABS_A)) if spec.entry.per_sample_bound else None
    rows = [dataclasses.asdict(bound_for(spec, n, abs_a=abs_a)) for n in range(1, args.n_max + 1)]
    at = f" at |omega(0)| = {abs_a:g}" if abs_a is not None else ""
    return _table(args, {"label": spec.label(), "params": spec.params(), "rows": rows}, rows,
                  f"bounds for {spec.label()}{at}", _bound_line,
                  lambda v: "n/a" if v is None else harness._fmt17(  # applicable: 0 or 1
                      int(v) if isinstance(v, bool) else v))


def _finish_report(report, args) -> int:
    report.write(args.output, args.format)
    if args.output:
        counts = report.counts()  # a sampled campaign's rows stay columns
        print(f"{report.kind}: {report.label}  rows={sum(counts.values())}  "
              f"counts={counts}  ok={report.ok}  -> {args.output}")
    return 0 if report.ok else 1


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    report = harness.verify_bounds(spec, args.n_max, args.samples, args.seed,
                                   tol=args.tol, order=args.order)
    return _finish_report(report, args)


def cmd_cross_check(args) -> int:
    if args.cls is None:  # the default class, star-ab(1,-1), takes no parameter flag
        _require_flags(args, (), "cross-check with no --class")
    spec = _spec_from_args(args) if args.cls else None
    report = harness.cross_check(args.samples, args.seed, args.n_max, tol=args.tol,
                                 spec=spec, order=args.order)
    return _finish_report(report, args)


def cmd_sharpness(args) -> int:
    spec = _spec_from_args(args)
    n_max = args.n if args.n is not None else args.n_max
    report = harness.sharpness_check(spec, n_max, tol=args.tol, order=args.order,
                                     abs_a=abs(_omega0(args, harness.DEFAULT_ABS_A)),
                                     n_min=n_max if args.n is not None else 1)
    return _finish_report(report, args)


def cmd_explore(args) -> int:
    report = harness.explore_convex_large_n(args.n_min, args.n_max, args.samples,
                                            args.seed, order=args.order, tol=args.tol)
    return _finish_report(report, args)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="invlog",
                                description="logarithmic coefficients of inverse functions: "
                                            "computation, bounds, verification")
    sub = p.add_subparsers(dest="command", required=True)
    # no prefix matching: a flag the command does not take (--a) is not read as --alpha
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    g = command("gamma", help="Gamma coefficients of a named function")
    g.add_argument("--family", required=True, choices=GAMMA_FAMILIES)
    g.add_argument("--theta", type=float, default=0.0)
    g.add_argument("--n", type=int, default=1, help="symmetry index for star-ab/spiral/gc")
    g.add_argument("--variant", choices=families.F_ALPHA_VARIANTS, default="pow1")
    _add_run_args(g, 6)
    _add_param_args(g, a=True, a2=True)
    _add_output_args(g, table=True)
    g.set_defaults(fn=cmd_gamma)

    b = command("bounds", help="bound table for a class")
    _add_class_args(b, a=True)
    _add_run_args(b, 8, order=False)
    _add_output_args(b, table=True)
    b.set_defaults(fn=cmd_bounds)

    v = command("verify", help="sampled bound verification")
    _add_class_args(v)
    _add_run_args(v, 8, samples=200, tol=1e-9)
    _add_output_args(v)
    v.set_defaults(fn=cmd_verify)

    x = command("cross-check", help="two-route agreement campaign")
    _add_class_args(x, required=False)
    _add_run_args(x, 12, samples=200, tol=1e-10)
    _add_output_args(x)
    x.set_defaults(fn=cmd_cross_check)

    s = command("sharpness", help="equality-function gap check")
    _add_class_args(s, a=True)
    s.add_argument("--n", type=int, default=None, help="check this order only")
    _add_run_args(s, 4, tol=1e-9)
    _add_output_args(s)
    s.set_defaults(fn=cmd_sharpness)

    e = command("explore", help="probe open orders of the convex class")
    e.add_argument("--class", dest="cls", default="convex", choices=("convex",))
    e.add_argument("--n-min", type=int, default=4)
    _add_run_args(e, 9, samples=500, tol=1e-9)
    _add_output_args(e)
    e.set_defaults(fn=cmd_explore)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _require_counts(args)
        _require(args.output != "", "--output needs a path")
        return args.fn(args)
    except (ValueError, MemoryError) as exc:
        # an order too large to allocate is a bad argument, not a finding
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
