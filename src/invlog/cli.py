"""Command line front end.

Subcommands:

  gamma        Gamma_1..Gamma_{n_max} of a named function, by the bn identity
  bounds       the bound table of a class
  verify       random-member bound verification campaign
  sharpness    equality-function gap check
  explore      probe the open orders of the convex class
  cross-check  two-route agreement campaign

Exit status: 0 clean; 1 when a campaign turns up a mathematical violation
(for sharpness: an asserted equality function missing its bound by more
than tolerance noise); 2 on bad arguments, including orders above
harness.MAX_ORDER and sizes too large to allocate.
"""

from __future__ import annotations

import argparse
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


def _add_class_args(p: argparse.ArgumentParser):
    p.add_argument("--class", dest="cls", required=True, choices=families.CLASS_TAGS)
    _add_param_args(p)


def _add_param_args(p: argparse.ArgumentParser):
    p.add_argument("--A", type=_rational, default=None)
    p.add_argument("--B", type=_rational, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--a", type=_complex, default=None,
                   help="omega(0) for the bounded-distortion class")
    p.add_argument("--a2", type=_complex, default=None)


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--output", default=None, help="write the report to this path")
    p.add_argument("--format", choices=("json", "csv"), default="json")


_FLAGS = {"lam": "--lambda"}  # ClassSpec fields whose flag is not --<field>


def _require_flags(args, names, what: str):
    """Reject a class or family missing any of its parameter flags, naming each."""
    missing = [_FLAGS.get(name, f"--{name}") for name in names if getattr(args, name) is None]
    _require(not missing, f"{what} needs {' and '.join(missing)}")


def _spec_from_args(args) -> ClassSpec:
    names = families.CLASSES[args.cls].params
    _require_flags(args, names, f"--class {args.cls}")
    # --A and --B keep their exact Fractions for the bound's seam detection
    return ClassSpec(tag=args.cls, **{name: getattr(args, name) for name in names})


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


def _omega0(args):
    return 0.0 if args.a is None else args.a


def _u_extremal(args, order: int):
    a = _omega0(args)
    _require(a.imag == 0 and 0 <= a.real < 1, "--family u-extremal needs real --a in [0,1)")
    return families.u_extremal(args.lam, a.real, order)


# each gamma family: the parameter flags it needs (--a is optional where
# read) and its builder, called with the parsed arguments and the order
GAMMA_FAMILIES = {
    "identity": ((), lambda args, order: series.identity(order)),
    "koebe": ((), lambda args, order: families.koebe(args.theta, order)),
    # z/(1-z) = z + z^2 + ...
    "halfplane": ((), lambda args, order: series.Series(np.r_[0.0, np.ones(order)])),
    "halfconvex": ((), lambda args, order: families.f_alpha_extremal(-0.5, "halfconvex", order)),
    "star-ab": (("A", "B"), lambda args, order: families.k_AB_n(float(args.A), float(args.B),
                                                                args.n, order)),
    "spiral": (("alpha", "beta"),
               lambda args, order: families.spiral_extremal(args.alpha, args.beta, args.n, order)),
    "gc": (("c",), lambda args, order: families.gc_extremal(args.c, args.n, order)),
    "u-extremal": (("lam",), _u_extremal),
    "u-member": (("lam", "a2"),
                 lambda args, order: families.u_lambda_member(args.a2, _omega0(args), args.lam,
                                                              order)),
    "f-alpha": (("alpha",),
                lambda args, order: families.f_alpha_extremal(args.alpha, args.variant, order)),
}


def _gamma_function(args, order: int):
    params, build = GAMMA_FAMILIES[args.family]
    _require_flags(args, params, f"--family {args.family}")
    return build(args, order)


def cmd_gamma(args) -> int:
    n_max = args.n_max
    order = harness._resolve_order(n_max, args.order)
    f = _gamma_function(args, order)
    with np.errstate(all="ignore"):  # an overflow is reported below, at its first n
        gams = gammas.gamma_via_bn(f, n_max)
    lines_csv = ["n,re,im,abs"]
    human = [f"Gamma_n for family {args.family} (order {order}, route: bn-identity)"]
    payload = []
    for n in range(1, n_max + 1):
        g = complex(gams[n - 1])
        _require(np.isfinite(g), f"Gamma at n={n} is {g}, beyond double precision; lower n_max")
        payload.append({"n": n, "re": g.real, "im": g.imag, "abs": abs(g)})
        lines_csv.append(",".join((str(n), harness._fmt17(g.real), harness._fmt17(g.imag),
                                   harness._fmt17(abs(g)))))
        human.append(f"  n={n:3d}  re={g.real:+.12e}  im={g.imag:+.12e}  |Gamma|={abs(g):.12e}")
    if args.format == "csv":
        text = "\n".join(lines_csv) + "\n"
    elif args.format == "json":
        import json
        text = json.dumps({"family": args.family, "n_max": n_max, "order": order,
                           "gammas": payload}, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    else:
        text = "\n".join(human) + "\n"
    _emit(text, args.output)
    return 0


def cmd_bounds(args) -> int:
    spec = _spec_from_args(args)
    abs_a = None
    if spec.entry.per_sample_bound:
        abs_a = harness.DEFAULT_ABS_A if args.a is None else abs(args.a)
    lines = [f"bounds for {spec.label()}" + (f" at |omega(0)| = {abs_a:g}" if abs_a is not None else "")]
    rows = []
    for n in range(1, args.n_max + 1):
        res = bound_for(spec, n, abs_a=abs_a)
        rows.append({"n": n, "value": res.value, "branch": res.branch,
                     "applicable": res.applicable, "note": res.note})
        if res.applicable:
            note = f"   [{res.note}]" if res.note else ""
            lines.append(f"  n={n:3d}  |Gamma_n| <= {res.value:.12e}  ({res.branch}){note}")
        else:
            lines.append(f"  n={n:3d}  |Gamma_n| <= n/a  ({res.branch}): {res.note}")
    if args.format == "json":
        import json
        text = json.dumps({"label": spec.label(), "params": spec.params(), "rows": rows},
                          sort_keys=True, indent=2, allow_nan=False) + "\n"
    elif args.format == "csv":
        out = ["n,value,branch,applicable,note"]
        for r in rows:
            val = "n/a" if r["value"] is None else harness._fmt17(r["value"])
            out.append(f'{r["n"]},{val},{r["branch"]},{int(r["applicable"])},{r["note"]}')
        text = "\n".join(out) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def _finish_report(report, args) -> int:
    if args.output:
        report.write(args.output, args.format)
        counts = report.counts()  # a sampled campaign's rows stay columns
        print(f"{report.kind}: {report.label}  rows={sum(counts.values())}  "
              f"counts={counts}  ok={report.ok}  -> {args.output}")
    else:
        text = report.to_json() if args.format == "json" else report.to_csv()
        sys.stdout.write(text)
    return 0 if report.ok else 1


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    report = harness.verify_bounds(spec, args.n_max, args.samples, args.seed,
                                   tol=args.tol, order=args.order)
    return _finish_report(report, args)


def cmd_cross_check(args) -> int:
    spec = _spec_from_args(args) if args.cls else None
    report = harness.cross_check(args.samples, args.seed, args.n_max, tol=args.tol,
                                 spec=spec, order=args.order)
    return _finish_report(report, args)


def cmd_sharpness(args) -> int:
    spec = _spec_from_args(args)
    n_max = args.n if args.n is not None else args.n_max
    abs_a = harness.DEFAULT_ABS_A if args.a is None else abs(args.a)
    report = harness.sharpness_check(spec, n_max, tol=args.tol, order=args.order,
                                     abs_a=abs_a, n_min=n_max if args.n is not None else 1)
    return _finish_report(report, args)


def cmd_explore(args) -> int:
    report = harness.explore_convex_large_n(args.n_min, args.n_max, args.samples,
                                            args.seed, order=args.order, tol=args.tol)
    return _finish_report(report, args)


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="invlog",
                                description="logarithmic coefficients of inverse functions: "
                                            "computation, bounds, verification")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", help="Gamma coefficients of a named function")
    g.add_argument("--family", required=True, choices=GAMMA_FAMILIES)
    g.add_argument("--theta", type=float, default=0.0)
    g.add_argument("--n", type=int, default=1, help="symmetry index for star-ab/spiral/gc")
    g.add_argument("--variant", choices=families.F_ALPHA_VARIANTS, default="pow1")
    g.add_argument("--n-max", type=int, default=6)
    g.add_argument("--order", type=int, default=None)
    _add_param_args(g)
    g.add_argument("--format", choices=("human", "json", "csv"), default="human")
    g.add_argument("--output", default=None)
    g.set_defaults(fn=cmd_gamma)

    b = sub.add_parser("bounds", help="bound table for a class")
    _add_class_args(b)
    b.add_argument("--n-max", type=int, default=8)
    b.add_argument("--format", choices=("human", "json", "csv"), default="human")
    b.add_argument("--output", default=None)
    b.set_defaults(fn=cmd_bounds)

    v = sub.add_parser("verify", help="sampled bound verification")
    _add_class_args(v)
    v.add_argument("--n-max", type=int, default=8)
    v.add_argument("--samples", type=int, default=200)
    v.add_argument("--seed", type=int, required=True)
    v.add_argument("--tol", type=float, default=1e-9)
    v.add_argument("--order", type=int, default=None)
    _add_output_args(v)
    v.set_defaults(fn=cmd_verify)

    x = sub.add_parser("cross-check", help="two-route agreement campaign")
    x.add_argument("--class", dest="cls", default=None, choices=families.CLASS_TAGS)
    _add_param_args(x)
    x.add_argument("--n-max", type=int, default=12)
    x.add_argument("--samples", type=int, default=200)
    x.add_argument("--seed", type=int, required=True)
    x.add_argument("--tol", type=float, default=1e-10)
    x.add_argument("--order", type=int, default=None)
    _add_output_args(x)
    x.set_defaults(fn=cmd_cross_check)

    s = sub.add_parser("sharpness", help="equality-function gap check")
    _add_class_args(s)
    s.add_argument("--n", type=int, default=None, help="check this order only")
    s.add_argument("--n-max", type=int, default=4)
    s.add_argument("--tol", type=float, default=1e-9)
    s.add_argument("--order", type=int, default=None)
    _add_output_args(s)
    s.set_defaults(fn=cmd_sharpness)

    e = sub.add_parser("explore", help="probe open orders of the convex class")
    e.add_argument("--class", dest="cls", default="convex", choices=("convex",))
    e.add_argument("--n-min", type=int, default=4)
    e.add_argument("--n-max", type=int, default=9)
    e.add_argument("--samples", type=int, default=500)
    e.add_argument("--seed", type=int, required=True)
    e.add_argument("--tol", type=float, default=1e-9)
    e.add_argument("--order", type=int, default=None)
    _add_output_args(e)
    e.set_defaults(fn=cmd_explore)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _require_counts(args)
        return args.fn(args)
    except (ValueError, MemoryError) as exc:
        # an order too large to allocate is a bad argument, not a finding
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
