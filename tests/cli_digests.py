"""Print one sha256 per CLI invocation of a fixed argv set.

Not collected by pytest. A change that must keep the CLI's output and exit
codes is checked by running this on both trees and diffing the output:

    PYTHONPATH=src python tests/cli_digests.py > cli_digests.txt

Each argv runs in process through invlog.cli.main, in a fresh temporary
directory, with any --output written to the fixed relative name "out". The
digest covers the exit code, stdout, stderr and the --output file's bytes.
Python warnings are caught rather than printed, since their text names
source files and lines; the count of them is printed on the line instead.
Each line is "exit  warnings  sha256  argv".

The set covers every subcommand in each format it has, on stdout and with
--output, and the exit-1 and exit-2 cases of tests/test_cli.py that run in
process (the two that need an address-space limit are left out).
"""

import contextlib
import hashlib
import io
import os
import tempfile
import warnings
from pathlib import Path

from invlog.cli import main

GAMMA = [
    ("identity",),
    ("koebe", "--theta", "0.3"),
    ("halfplane",),
    ("halfconvex",),
    ("star-ab", "--A", "0.5", "--B=-0.5", "--n", "2"),
    ("spiral", "--alpha", "0.5", "--beta", "0.2", "--n", "2"),
    ("gc", "--c", "0.5", "--n", "1"),
    ("u-extremal", "--lambda", "0.75", "--a", "0.3"),
    ("u-member", "--lambda", "0.5", "--a2", "0.2+0.1j", "--a", "0.4"),
    ("f-alpha", "--alpha", "0.3", "--variant", "pow2"),
]

CLASSES = [
    ("full-s",),
    ("star-ab", "--A", "0.6", "--B=-1"),
    ("spiral", "--alpha", "0.5", "--beta", "0.2"),
    ("gc", "--c", "0.5"),
    ("u-lambda", "--lambda", "0.75"),
    ("f-alpha", "--alpha", "0"),
]

# bad arguments (exit 2) and findings (exit 1), as tests/test_cli.py runs them
FAILING = [
    ("gamma", "--family", "f-alpha", "--alpha", "0.3", "--variant", "halfconvex"),
    ("gamma", "--family", "star-ab", "--A", "0.5", "--n-max", "2"),
    ("gamma", "--family", "u-member", "--lambda", "0.5", "--a", "0.3", "--n-max", "2"),
    ("gamma", "--family", "koebe", "--n-max", "5", "--order", "3"),
    ("gamma", "--family", "koebe", "--n-max", "-2"),
    ("gamma", "--family", "star-ab", "--A", "0.5", "--B", "-0.5", "--n", "0"),
    ("gamma", "--family", "koebe", "--n-max", "600", "--format", "json"),
    ("gamma", "--family", "koebe", "--n-max", "600", "--format", "csv"),
    ("gamma", "--family", "koebe", "--n-max", "4", "--order", "100000000"),
    ("bounds", "--class", "gc", "--n-max", "3"),
    ("bounds", "--class", "full-s", "--n-max=0"),
    ("bounds", "--class", "full-s", "--n-max=-3", "--format", "csv"),
    ("bounds", "--class", "full-s", "--n-max", "600", "--format", "json"),
    ("bounds", "--class", "full-s", "--n-max", "600", "--format", "human"),
    ("bounds", "--class", "banana"),
    ("verify", "--class", "full-s", "--seed", "1", "--n-max", "0"),
    ("verify", "--class", "full-s", "--seed", "1", "--samples", "0"),
    ("verify", "--class", "gc", "--c", "0.5", "--seed", "1", "--tol=-1"),
    ("verify", "--class", "gc", "--c", "0.5", "--seed", "1", "--tol=nan"),
    ("verify", "--class", "gc", "--c", "0.5", "--seed", "-3", "--samples", "2"),
    ("verify", "--class", "full-s", "--n-max", "560", "--samples", "1", "--seed", "1"),
    ("verify", "--class", "gc", "--c", "0.5", "--n-max", "5000", "--samples", "1",
     "--seed", "1"),
    ("verify", "--class", "gc", "--c", "0.5"),
    ("cross-check", "--seed", "1", "--n-max", "0"),
    ("cross-check", "--seed", "-1", "--samples", "2"),
    ("cross-check", "--samples", "5", "--seed", "3", "--n-max", "4", "--order", "100000000"),
    ("cross-check", "--samples", "30", "--seed", "5", "--n-max", "12", "--tol", "1e-14"),
    ("cross-check", "--samples", "30", "--seed", "5", "--n-max", "12", "--tol", "1e-14",
     "--format", "csv", "--output", "out"),
    ("sharpness", "--class", "full-s", "--n", "-1"),
    ("sharpness", "--class", "gc", "--c", "0.5", "--n-max", "5"),
    ("sharpness", "--class", "gc", "--c", "0.5", "--n-max", "5", "--output", "out"),
    ("sharpness", "--class", "gc", "--c", "0.5", "--n", "2000"),
    ("sharpness", "--class", "full-s", "--n", "600", "--format", "json"),
    ("sharpness", "--class", "full-s", "--n", "600", "--format", "csv"),
    ("explore", "--seed", "1", "--n-min", "0"),
    ("explore", "--seed", "-1", "--samples", "2"),
    ("explore", "--n-max", "9", "--samples", "1", "--seed", "1", "--order", "1025"),
    ("gamma", "--family", "u-member", "--lambda", "0.5", "--a2", "1e200", "--n-max", "5"),
    ("verify", "--class", "u-lambda", "--lambda", "0.5", "--seed", "1", "--a", "0.3"),
    ("cross-check", "--seed", "1", "--a2", "1"),
    ("bounds", "--class", "full-s", "--a2", "1"),
    ("sharpness", "--class", "full-s", "--a2", "1"),
    ("verify", "--class", "gc", "--c", "0.5", "--lambda", "2", "--seed", "1"),
    ("cross-check", "--seed", "1", "--A", "0.3", "--c", "0.7"),
    ("gamma", "--family", "koebe", "--c", "9"),
]


def argvs():
    """The argv set, in a fixed order."""
    for family in GAMMA:
        for fmt in ("human", "json", "csv"):
            yield ("gamma", "--family", *family, "--n-max", "5", "--format", fmt)
        yield ("gamma", "--family", *family, "--n-max", "5", "--format", "json",
               "--output", "out")
    for cls in CLASSES:
        for fmt in ("human", "json", "csv"):
            yield ("bounds", "--class", *cls, "--n-max", "6", "--format", fmt)
        yield ("bounds", "--class", *cls, "--n-max", "6", "--format", "csv", "--output", "out")
        verify = ("verify", "--class", *cls, "--n-max", "5", "--samples", "12", "--seed", "4")
        cross = ("cross-check", "--class", *cls, "--n-max", "6", "--samples", "10",
                 "--seed", "2")
        sharp = ("sharpness", "--class", *cls, "--n-max", "6")
        for argv in (verify, cross, sharp):
            for fmt in ("json", "csv"):
                yield (*argv, "--format", fmt)
                yield (*argv, "--format", fmt, "--output", "out")
    yield ("cross-check", "--samples", "10", "--seed", "2", "--n-max", "4")
    yield ("sharpness", "--class", "star-ab", "--A", "0.5", "--B=-0.5", "--n", "4")
    explore = ("explore", "--n-min", "1", "--n-max", "9", "--samples", "40", "--seed", "3")
    for fmt in ("json", "csv"):
        yield (*explore, "--format", fmt)
        yield (*explore, "--format", fmt, "--output", "out")
    yield ("explore", "--samples", "30", "--seed", "1")
    yield from FAILING


def run(argv):
    """(exit code, warnings caught, sha256) of one invocation in a fresh directory."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # argparse's own refusals
                    code = exc.code
            written = Path("out").read_bytes() if os.path.exists("out") else None
        finally:
            os.chdir(here)
    digest = hashlib.sha256()
    for part in (str(code).encode(), out.getvalue().encode(), err.getvalue().encode()):
        digest.update(b"%d:" % len(part) + part)
    if written is not None:
        digest.update(b"%d:" % len(written) + written)
    return code, len(caught), digest.hexdigest()


def main_digests():
    for argv in argvs():
        code, caught, digest = run(argv)
        print(f"{code}  {caught}  {digest}  {' '.join(argv)}", flush=True)


if __name__ == "__main__":
    main_digests()
