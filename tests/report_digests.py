"""Print the sha256 of to_json() + to_csv() for a fixed set of 129 reports.

Not collected by pytest. A change that must keep report bytes is checked by
running this on both trees and diffing the output:

    PYTHONPATH=src python tests/report_digests.py [--chunk N] > digests.txt

--chunk N shrinks both chunks first: N samples a text chunk (harness.CHUNK)
and a compute budget of 10 N coefficients (harness.CHUNK_COEFFS), N samples
a compute chunk at order 9 and a few at every order of the set, at least
one. Reports must not depend on either chunk. Each line is "sha256  label".

Each report is also written with write(path, fmt) to a temporary file, in
both formats; the script exits 1, naming the report on stderr, if a file's
bytes differ from to_json() or to_csv().
"""

import argparse
import hashlib
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from invlog import harness
from invlog.families import ClassSpec
from invlog.harness import cross_check, explore_convex_large_n, sharpness_check, verify_bounds

CLASSES = [
    ("full-s", ClassSpec.full_s()),
    ("star-ab(0.6,-1)", ClassSpec.star_ab(0.6, -1.0)),
    ("star-ab(0.5,-0.5)", ClassSpec.star_ab(0.5, -0.5)),
    ("star-ab(Fraction(1/2,-1/2))", ClassSpec.star_ab(Fraction(1, 2), Fraction(-1, 2))),
    ("spiral(0.5,0.2)", ClassSpec.spiral(0.5, 0.2)),
    ("spiral(0,0.25)", ClassSpec.spiral(0.0, 0.25)),
    ("gc(0.25)", ClassSpec.gc(0.25)),
    ("gc(0.5)", ClassSpec.gc(0.5)),
    ("gc(1)", ClassSpec.gc(1.0)),
    ("u-lambda(0.5)", ClassSpec.u_lambda(0.5)),
    ("f-alpha(0)", ClassSpec.f_alpha(0.0)),
    ("f-alpha(-0.5)", ClassSpec.f_alpha(-0.5)),
    ("f-alpha(0.3)", ClassSpec.f_alpha(0.3)),
    ("f-alpha(0.8)", ClassSpec.f_alpha(0.8)),
    ("f-alpha(0.18)", ClassSpec.f_alpha(0.18)),
]

# one class per tag, for the campaigns at seeds past 32 bits
WIDE_SEED_CLASSES = ["full-s", "star-ab(0.6,-1)", "spiral(0.5,0.2)", "gc(0.5)",
                     "u-lambda(0.5)", "f-alpha(0.3)"]


def reports():
    """(label, thunk) for each report of the set, in a fixed order."""
    for name, spec in CLASSES:
        yield (f"verify_bounds({name}, 8, 40, 3)",
               lambda spec=spec: verify_bounds(spec, 8, 40, 3))
        yield (f"verify_bounds({name}, 6, 600, 5)",
               lambda spec=spec: verify_bounds(spec, 6, 600, 5))
        yield f"sharpness_check({name}, 12)", lambda spec=spec: sharpness_check(spec, 12)
        # wide candidate stacks: every order's equality functions in one bn call
        yield f"sharpness_check({name}, 20)", lambda spec=spec: sharpness_check(spec, 20)
        yield f"sharpness_check({name}, 64)", lambda spec=spec: sharpness_check(spec, 64)
        yield (f"sharpness_check({name}, 64, n_min=64)",
               lambda spec=spec: sharpness_check(spec, 64, n_min=64))
        yield (f"cross_check(20, 3, 10, spec={name})",
               lambda spec=spec: cross_check(20, 3, 10, spec=spec))
    for args in ((1, 9, 50, 3), (4, 9, 700, 2), (2, 5, 300, 11)):
        yield f"explore_convex_large_n{args}", lambda args=args: explore_convex_large_n(*args)
    yield "cross_check(60, 3, 32, order=40)", lambda: cross_check(60, 3, 32, order=40)
    yield "cross_check(30, 5, 12, tol=1e-14)", lambda: cross_check(30, 5, 12, tol=1e-14)
    for seed in (3, 4, 5):
        yield (f"verify_bounds(gc(0.5), 8, 5500, {seed})",
               lambda seed=seed: verify_bounds(ClassSpec.gc(0.5), 8, 5500, seed))
    by_name = dict(CLASSES)
    for seed in (2**32 + 5, 2**96 + 11):
        for name in WIDE_SEED_CLASSES:
            yield (f"verify_bounds({name}, 6, 300, {seed})",
                   lambda spec=by_name[name], seed=seed: verify_bounds(spec, 6, 300, seed))
        yield f"cross_check(50, {seed}, 8)", lambda seed=seed: cross_check(50, seed, 8)
        yield (f"explore_convex_large_n(1, 6, 80, {seed})",
               lambda seed=seed: explore_convex_large_n(1, 6, 80, seed))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--chunk", type=int, default=None,
                        help="set harness.CHUNK to N and harness.CHUNK_COEFFS to 10 N "
                             "before running (default: leave both)")
    args = parser.parse_args(argv)
    if args.chunk is not None:
        harness.CHUNK, harness.CHUNK_COEFFS = args.chunk, 10 * args.chunk
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report"
        for label, make in reports():
            rep = make()
            texts = {"json": rep.to_json(), "csv": rep.to_csv()}
            digest = hashlib.sha256((texts["json"] + texts["csv"]).encode()).hexdigest()
            print(f"{digest}  {label}", flush=True)
            for fmt, text in texts.items():
                rep.write(str(path), fmt)
                if path.read_bytes() != text.encode():
                    differ += 1
                    print(f"{label}: write(path, {fmt!r}) differs from to_{fmt}()",
                          file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
