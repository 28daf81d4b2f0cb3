"""The byte-check scripts, run as their users run them.

tests/report_digests.py and tests/cli_digests.py are diffed across trees
when a change must keep report or CLI bytes. These tests keep them
runnable and their lines well formed, and hold the report set to the same
bytes at two chunk sizes.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import cli_digests

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def run_script(name, *args) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(TESTS / name), *args], capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    return proc.stdout.splitlines()


def test_report_digests_are_well_formed_and_do_not_depend_on_the_chunk():
    lines = run_script("report_digests.py")
    assert len(lines) == 129
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines), lines
    assert len({line.split("  ", 1)[1] for line in lines}) == 129  # one label each
    assert run_script("report_digests.py", "--chunk", "7") == lines


def test_cli_digests_print_one_line_per_argv():
    lines = run_script("cli_digests.py")
    argvs = list(cli_digests.argvs())
    assert len(lines) == len(argvs)
    for line, argv in zip(lines, argvs):
        assert re.fullmatch(r"[012]  \d+  [0-9a-f]{64}  .+", line), line
        assert line.split("  ", 3)[3] == " ".join(argv)
