"""Command line front end, driven in process through main(argv).

One subprocess test at the end confirms the installed console script wires
up to the same entry point, and one runs an oversized order under an
address-space cap; everything else avoids process spawns.
"""

import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from invlog import cli, families, gammas, harness
from invlog.cli import build_parser, main


def run_cli(*argv):
    return main(list(argv))


def gamma_rows(capsys, *argv):
    code = run_cli(*argv, "--format", "csv")
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "n,re,im,abs"
    rows = [line.split(",") for line in out[1:]]
    return code, [(int(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in rows]


# ---------------------------------------------------------------------------
# gamma


def test_gamma_cusp_map_values(capsys):
    code, rows = gamma_rows(capsys, "gamma", "--family", "koebe", "--n-max", "3")
    assert code == 0
    want = [1.0, 1.5, 10.0 / 3.0]
    for (n, re, im, ab), w in zip(rows, want):
        assert abs(ab - w) < 1e-12
        assert abs(im) < 1e-15


def test_gamma_identity_is_zero(capsys):
    code, rows = gamma_rows(capsys, "gamma", "--family", "identity", "--n-max", "4")
    assert code == 0
    assert all(ab == 0 for (_, _, _, ab) in rows)


def test_gamma_half_convex_values(capsys):
    code, rows = gamma_rows(capsys, "gamma", "--family", "halfconvex", "--n-max", "3")
    assert code == 0
    for (n, re, im, ab), w in zip(rows, (0.75, 11.0 / 16.0, 7.0 / 8.0)):
        assert abs(ab - w) < 1e-12
    # the f-alpha variant is the same map, at alpha = -1/2 and at no other alpha
    assert gamma_rows(capsys, "gamma", "--family", "f-alpha", "--alpha", "-0.5",
                      "--variant", "halfconvex", "--n-max", "3") == (code, rows)
    assert run_cli("gamma", "--family", "f-alpha", "--alpha", "0.3",
                   "--variant", "halfconvex") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "halfconvex" in captured.err


def test_gamma_half_plane_alternating(capsys):
    code, rows = gamma_rows(capsys, "gamma", "--family", "halfplane", "--n-max", "4")
    assert code == 0
    for n, re, im, ab in rows:
        assert abs(re - (-1.0) ** n / (2.0 * n)) < 1e-14


@pytest.mark.parametrize("family, given, missing", [
    ("star-ab", (), "--A and --B"),
    ("star-ab", ("--A", "0.5"), "--B"),
    ("spiral", ("--beta", "0.2"), "--alpha"),
    ("gc", (), "--c"),
    ("u-extremal", ("--a", "0.3"), "--lambda"),
    ("u-member", ("--lambda", "0.5", "--a", "0.3"), "--a2"),
    ("f-alpha", (), "--alpha"),
], ids=["star-ab", "star-ab-B", "spiral", "gc", "u-extremal", "u-member", "f-alpha"])
def test_gamma_star_family_needs_parameters(capsys, family, given, missing):
    # the error names each missing flag, as --class does
    assert run_cli("gamma", "--family", family, *given, "--n-max", "2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --family {family} needs {missing}\n"


def test_gamma_order_below_n_max_plus_one_is_named(capsys):
    # the campaigns' order rule: Gamma_n reads a_2..a_{n+1}
    assert run_cli("gamma", "--family", "koebe", "--n-max", "5", "--order", "3") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: order 3 cannot support Gamma_5; need >= 6\n"


def test_gamma_json_format(capsys):
    code = run_cli("gamma", "--family", "koebe", "--n-max", "2", "--format", "json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_max"] == 2
    assert abs(payload["gammas"][1]["abs"] - 1.5) < 1e-12


def test_gamma_human_format_default(capsys):
    assert run_cli("gamma", "--family", "koebe", "--n-max", "2") == 0
    out = capsys.readouterr().out
    assert "|Gamma|" in out and "n=  2" in out


def test_gamma_u_extremal_and_member(capsys):
    assert run_cli("gamma", "--family", "u-extremal", "--lambda", "0.75",
                   "--a", "0.3", "--n-max", "2") == 0
    capsys.readouterr()
    assert run_cli("gamma", "--family", "u-member", "--lambda", "0.5",
                   "--a2", "0.2+0.1j", "--a", "0.4", "--n-max", "2") == 0


# ---------------------------------------------------------------------------
# bounds


def test_bounds_table_star(capsys):
    code = run_cli("bounds", "--class", "star-ab", "--A", "1", "--B", "-1",
                   "--n-max", "4", "--format", "csv")
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    for got, want in zip(vals, (1.0, 1.5, 10.0 / 3.0, 8.75)):
        assert abs(got - want) < 1e-12


def test_bounds_inapplicable_rows_print_na(capsys):
    code = run_cli("bounds", "--class", "f-alpha", "--alpha", "0.18", "--n-max", "4")
    assert code == 0
    out = capsys.readouterr().out
    assert "n/a" in out
    assert "(gap)" in out and "(open)" in out


def test_bounds_na_in_csv_too(capsys):
    code = run_cli("bounds", "--class", "f-alpha", "--alpha", "0.18", "--n-max", "3",
                   "--format", "csv")
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[3].startswith("3,n/a,gap,0")


def test_bounds_exact_fraction_dispatch(capsys):
    # equals-sign form because a leading dash would read as a flag
    code = run_cli("bounds", "--class", "star-ab", "--A", "1/2", "--B=-1/2",
                   "--n-max", "3")
    assert code == 0
    out = capsys.readouterr().out
    assert "rerouted" in out  # the n = 3 integer seam, detected exactly


def test_bounds_u_lambda_uses_a(capsys):
    code = run_cli("bounds", "--class", "u-lambda", "--lambda", "0.75",
                   "--a", "0.3", "--n-max", "3", "--format", "json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    rows = {r["n"]: r for r in payload["rows"]}
    assert rows[1]["applicable"] and rows[2]["applicable"]
    assert not rows[3]["applicable"]
    assert rows[3]["value"] is None


def test_bounds_missing_parameters(capsys):
    assert run_cli("bounds", "--class", "gc", "--n-max", "3") == 2
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_bounds_rejects_n_max_below_one(capsys, n_max, fmt):
    # like every other subcommand, rather than printing an empty table
    assert run_cli("bounds", "--class", "full-s", f"--n-max={n_max}", "--format", fmt) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --n-max must be >= 1, got {n_max}\n"


@pytest.mark.parametrize("argv,flag,value", [
    (("gamma", "--family", "koebe", "--n-max", "-2"), "--n-max", -2),
    (("gamma", "--family", "star-ab", "--A", "0.5", "--B", "-0.5", "--n", "0"), "--n", 0),
    (("verify", "--class", "full-s", "--seed", "1", "--n-max", "0"), "--n-max", 0),
    (("verify", "--class", "full-s", "--seed", "1", "--samples", "0"), "--samples", 0),
    (("cross-check", "--seed", "1", "--n-max", "0"), "--n-max", 0),
    (("sharpness", "--class", "full-s", "--n", "-1"), "--n", -1),
    (("explore", "--seed", "1", "--n-min", "0"), "--n-min", 0),
], ids=lambda v: v[0] if isinstance(v, tuple) else None)
def test_count_flags_below_one_are_named(capsys, argv, flag, value):
    # the error names the flag, not the library parameter it becomes
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= 1, got {value}\n"


# ---------------------------------------------------------------------------
# campaigns through the CLI


def test_verify_exits_clean(capsys, tmp_path):
    out = tmp_path / "verify.json"
    code = run_cli("verify", "--class", "gc", "--c", "0.5", "--n-max", "6",
                   "--samples", "100", "--seed", "7", "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] and payload["kind"] == "verify"
    assert "counts" in capsys.readouterr().out


def test_verify_streams_json_by_default(capsys):
    code = run_cli("verify", "--class", "full-s", "--n-max", "4",
                   "--samples", "25", "--seed", "5")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == "full-s"


def test_cross_check_all_classes_accepted(capsys, tmp_path):
    out = tmp_path / "x.json"
    code = run_cli("cross-check", "--class", "u-lambda", "--lambda", "0.75",
                   "--samples", "20", "--seed", "3", "--n-max", "6",
                   "--output", str(out))
    assert code == 0
    assert json.loads(out.read_text())["ok"]


def test_cross_check_defaults_to_widest_starlike(capsys):
    code = run_cli("cross-check", "--samples", "10", "--seed", "2", "--n-max", "4",
                   "--format", "csv")
    assert code == 0
    assert capsys.readouterr().out.startswith("sample_id,")


def test_sharpness_exit_codes(capsys, tmp_path):
    ok = run_cli("sharpness", "--class", "gc", "--c", "1", "--n-max", "5",
                 "--output", str(tmp_path / "a.json"))
    bad = run_cli("sharpness", "--class", "gc", "--c", "0.5", "--n-max", "5",
                  "--output", str(tmp_path / "b.json"))
    assert ok == 0
    assert bad == 1  # the printed equality function misses for c < 1
    capsys.readouterr()


def test_sharpness_single_order_filter(capsys):
    code = run_cli("sharpness", "--class", "star-ab", "--A", "0.5", "--B=-0.5",
                   "--n", "4")
    assert code == 0  # middle clause: report-only rows, nothing asserted
    payload = json.loads(capsys.readouterr().out)
    assert {r["n"] for r in payload["rows"]} == {4}


def test_sharpness_single_order_report_holds_that_order_only(capsys):
    # spiral(0, 0.75): orders 2-4 sit on the endpoint clause, each with a
    # note and an asserted map; order 5 is a middle clause, report-only
    params = ("sharpness", "--class", "spiral", "--alpha", "0", "--beta", "0.75")
    assert run_cli(*params, "--n-max", "5") == 0
    full = json.loads(capsys.readouterr().out)
    assert run_cli(*params, "--n", "5") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == [r for r in full["rows"] if r["n"] == 5]
    assert payload["summary"] == [s for s in full["summary"] if s["n"] == 5]
    assert [note for note in full["notes"] if note.startswith("n=")]
    assert payload["notes"] == []
    assert full["max_discrepancy"] is not None
    assert payload["max_discrepancy"] is None  # nothing asserted at n = 5
    assert run_cli("sharpness", "--class", "full-s", "--n", "3") == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in payload["rows"]] == [3]
    assert [s["n"] for s in payload["summary"]] == [3]
    assert payload["max_discrepancy"] == payload["rows"][0]["excess"]


@pytest.mark.parametrize("cls", [("u-lambda", "--lambda", "0.5"),
                                 ("f-alpha", "--alpha", "0")], ids=lambda c: c[0])
def test_sharpness_open_orders_serialize(capsys, cls):
    # the default --n-max 4 runs past the last proved order of both classes
    name, flag, value = cls
    assert run_cli("sharpness", "--class", name, flag, value) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    open_rows = [r for r in rows if r["flag"] == "open"]
    assert open_rows
    assert all(r["abs_gamma"] is None and r["bound"] is None and r["margin"] is None
               for r in open_rows)
    assert run_cli("sharpness", "--class", name, flag, value, "--format", "csv") == 0
    assert ",4,,,open,,open" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tolerance_is_a_bad_argument(capsys, tol):
    code = run_cli("verify", "--class", "gc", "--c", "0.5", "--seed", "1", f"--tol={tol}")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tol")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ("verify", "--class", "gc", "--c", "0.5", "--seed", "-3", "--samples", "2"),
    ("cross-check", "--seed", "-1", "--samples", "2"),
    ("explore", "--seed", "-1", "--samples", "2"),
], ids=lambda argv: argv[0])
def test_negative_seed_is_a_bad_argument(capsys, argv):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    seed = argv[argv.index("--seed") + 1]
    assert captured.err == f"error: seed must be a non-negative integer, got {seed}\n"
    assert captured.out == ""


def test_exact_star_parameters_reach_every_command(capsys):
    # 5 delta sits 5e-14 above the seam at 1: only exact arithmetic sees it
    params = ("--class", "star-ab", "--A", "0.59999999999998", "--B=-1", "--n-max", "5")
    assert run_cli("bounds", *params, "--format", "json") == 0
    table = {r["n"]: r["branch"] for r in json.loads(capsys.readouterr().out)["rows"]}
    assert run_cli("verify", *params, "--samples", "5", "--seed", "1") == 0
    payload = json.loads(capsys.readouterr().out)
    campaign = {r["n"]: r["branch"] for r in payload["summary"]}
    assert table[5] == campaign[5] == "partial-product k=1"
    assert payload["params"] == {"A": 0.59999999999998, "B": -1.0}
    assert payload["label"] == "star-ab(A=0.6,B=-1)"


# (id, argv, the first order that overflows): the full-class bound and the
# cusp map's Gammas overflow a double first at n = 515; sharpness --n 600
# evaluates n = 600 only
_OVERFLOWING = [
    ("bounds", ("bounds", "--class", "full-s", "--n-max", "600"), 515),
    ("gamma", ("gamma", "--family", "koebe", "--n-max", "600"), 515),
    ("sharpness", ("sharpness", "--class", "full-s", "--n", "600"), 600),
]


@pytest.mark.parametrize("argv", [case[1] for case in _OVERFLOWING],
                         ids=[case[0] for case in _OVERFLOWING])
def test_overflowing_json_is_an_error_not_output(capsys, argv):
    # JSON has no infinity
    with np.errstate(all="ignore"):
        assert run_cli(*argv, "--format", "json") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# sharpness has no human format
_IN_EVERY_FORMAT = [(name, argv, first, fmt) for name, argv, first in _OVERFLOWING
                    for fmt in (("csv",) if name == "sharpness" else ("human", "csv"))]


@pytest.mark.parametrize("argv, first, fmt", [case[1:] for case in _IN_EVERY_FORMAT],
                         ids=[f"{case[0]}-{case[3]}" for case in _IN_EVERY_FORMAT])
def test_a_value_beyond_double_precision_is_an_error_in_every_format(capsys, argv, first, fmt):
    # no earlier Gamma may turn NaN on the way, and no row of an infinite
    # bound may grade as a finding (exit 1)
    assert run_cli(*argv, "--format", fmt) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f" at n={first} is " in captured.err


def test_an_overflowing_member_is_an_error_without_a_warning(capsys):
    # the builder's reciprocal overflows quietly; the route refuses the member
    assert run_cli("gamma", "--family", "u-member", "--lambda", "0.5", "--a2", "1e200",
                   "--n-max", "5") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coefficients must be finite\n"


def test_an_overflowing_bound_stops_verify_before_sampling(capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("sampled before the bounds were checked")

    monkeypatch.setattr(harness, "_draw_chunk", no_draw)
    code = run_cli("verify", "--class", "full-s", "--n-max", "560", "--samples", "1",
                   "--seed", "1")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the bound at n=515 is inf")


@pytest.mark.parametrize("argv", [
    ("verify", "--class", "gc", "--c", "0.5", "--n-max", "4", "--samples", "5", "--seed", "3"),
    ("cross-check", "--samples", "5", "--seed", "3", "--n-max", "4"),
    ("explore", "--n-min", "4", "--n-max", "5", "--samples", "5", "--seed", "3"),
], ids=lambda argv: argv[0])
def test_a_sample_with_no_usable_draw_exits_2(capsys, monkeypatch, argv):
    # four non-finite members in a row are a bad argument, not a finding
    draw = families.draw_members

    def always_nan(spec, keys, **kwargs):
        draws = draw(spec, keys, **kwargs)
        return dataclasses.replace(draws, theta=np.full(len(keys), math.nan))

    monkeypatch.setattr(families, "draw_members", always_nan)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: sample 0: no usable draw in 4 attempts "
                            "(non-finite coefficients)\n")


def test_explore_exits_zero_regardless_of_findings(capsys):
    code = run_cli("explore", "--n-min", "4", "--n-max", "7", "--samples", "60",
                   "--seed", "1", "--format", "csv")
    assert code == 0
    capsys.readouterr()


def test_order_too_large_to_allocate_is_a_bad_argument():
    # a 1.46 TiB coefficient array; the address-space cap makes the refusal
    # immediate whatever the machine's overcommit policy
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (16 << 30, 16 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "invlog.cli", "cross-check", "--seed", "1",
         "--order", "100000000000"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_a_sample_count_too_large_to_allocate_is_a_bad_argument():
    # the order cap now stops the oversized order above before any
    # allocation; a sample count still reaches the MemoryError path
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (16 << 30, 16 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "invlog.cli", "cross-check", "--seed", "1",
         "--samples", "100000000000"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("cross-check", "--samples", "5", "--seed", "3", "--n-max", "4", "--order", "100000000"),
    ("verify", "--class", "gc", "--c", "0.5", "--n-max", "5000", "--samples", "1",
     "--seed", "1"),
    ("explore", "--n-max", "9", "--samples", "1", "--seed", "1", "--order", "1025"),
    ("sharpness", "--class", "gc", "--c", "0.5", "--n", "2000"),
    ("gamma", "--family", "koebe", "--n-max", "4", "--order", "100000000"),
], ids=["cross-check", "verify-default-order", "explore", "sharpness", "gamma"])
def test_an_order_above_the_cap_exits_2_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("ran past the order check")

    for owner, name in ((harness, "_draw_chunk"), (gammas, "gamma_via_bn"),
                        (cli, "_gamma_function")):
        monkeypatch.setattr(owner, name, no_work)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: order ")
    assert f"largest supported order {harness.MAX_ORDER}" in captured.err


# stdout of --output runs as the parent tree printed it; a sampled
# campaign's report is written and counted without building its row dicts
_OUTPUT_LINES = [
    (("verify", "--class", "gc", "--c", "0.5", "--n-max", "4", "--samples", "20", "--seed",
      "1"), 0, "verify: gc(c=0.5)  rows=80  counts={'ok': 80}  ok=True"),
    (("cross-check", "--samples", "30", "--seed", "5", "--n-max", "12", "--tol", "1e-14"), 1,
     "cross-check: star-ab(A=1,B=-1)  rows=360  "
     "counts={'ok': 330, 'numerical': 16, 'mathematical': 14}  ok=False"),
    (("explore", "--n-min", "1", "--n-max", "9", "--samples", "300", "--seed", "3",
      "--format", "csv"), 0,
     "explore: f-alpha(alpha=0)  rows=2700  counts={'ok': 2674, 'open': 26}  ok=True"),
]


@pytest.mark.parametrize("argv, code, line", _OUTPUT_LINES,
                         ids=[case[0][0] for case in _OUTPUT_LINES])
def test_output_runs_print_the_counts_without_building_rows(capsys, monkeypatch, tmp_path,
                                                            argv, code, line):
    def no_rows(report):
        if report._columns is not None:
            raise AssertionError("built the row dicts of a column-backed report")

    monkeypatch.setattr(harness.VerifyReport, "_build_rows", no_rows)
    path = tmp_path / "report"
    assert run_cli(*argv, "--output", str(path)) == code
    assert capsys.readouterr().out == f"{line}  -> {path}\n"
    assert path.stat().st_size > 0


def test_seed_is_required_on_campaigns(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--class", "gc", "--c", "0.5")
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("verify", "--class", "u-lambda", "--lambda", "0.5", "--seed", "1", "--a", "0.3"),
    ("cross-check", "--seed", "1", "--a2", "1"),
    ("bounds", "--class", "full-s", "--a2", "1"),
    ("sharpness", "--class", "full-s", "--a2", "1"),
], ids=lambda argv: argv[0])
def test_a_flag_the_command_does_not_read_is_refused(capsys, argv):
    # --a is not taken as a prefix of --alpha either
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


@pytest.mark.parametrize("argv, message", [
    (("verify", "--class", "gc", "--c", "0.5", "--lambda", "2", "--seed", "1"),
     "--class gc does not take --lambda"),
    (("cross-check", "--seed", "1", "--A", "0.3", "--c", "0.7"),
     "cross-check with no --class does not take --A and --c"),
    (("gamma", "--family", "koebe", "--c", "9"), "--family koebe does not take --c"),
    # --a is read by the class whose bound varies with omega(0) and the u families only
    (("bounds", "--class", "full-s", "--a", "0.9", "--n-max", "2"),
     "--class full-s does not take --a"),
    (("sharpness", "--class", "gc", "--c", "0.5", "--a", "0.3", "--n-max", "2"),
     "--class gc does not take --a"),
    (("gamma", "--family", "koebe", "--a", "0.3"), "--family koebe does not take --a"),
], ids=["verify", "cross-check", "gamma", "bounds-a", "sharpness-a", "gamma-a"])
def test_a_parameter_flag_the_class_does_not_take_is_refused(capsys, argv, message):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_an_empty_output_path_is_refused_before_any_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("ran past the --output check")

    monkeypatch.setattr(harness, "_draw_chunk", no_work)
    assert run_cli("verify", "--class", "gc", "--c", "0.5", "--n-max", "2", "--samples", "1",
                   "--seed", "1", "--format", "csv", "--output", "") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --output needs a path\n"


def test_unknown_class_rejected(capsys):
    with pytest.raises(SystemExit):
        run_cli("bounds", "--class", "banana")
    capsys.readouterr()


def test_parser_builds_help_for_every_subcommand():
    parser = build_parser()
    text = parser.format_help()
    for name in ("gamma", "bounds", "verify", "sharpness", "explore", "cross-check"):
        assert name in text


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "invlog.cli", "gamma", "--family", "koebe",
         "--n-max", "2", "--format", "csv"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,re,im,abs")
