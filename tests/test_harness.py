"""Campaign harness: determinism, report shape, grading, honest gaps.

Campaigns here run with sample counts small enough for a fast suite; the
full-size runs live in the acceptance tests.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

import _oracles
from invlog import families, gammas, harness, keyed, series
from invlog.families import ClassSpec
from invlog.harness import (
    CSV_COLUMNS,
    VerifyReport,
    cross_check,
    explore_convex_large_n,
    sharpness_check,
    verify_bounds,
)

SUMMARY_KEYS = {"n", "empirical_max_abs_gamma", "bound", "margin", "sharpness_gap",
                "branch"}

EVERY_CLASS = [ClassSpec.full_s(), ClassSpec.star_ab(0.6, -1.0), ClassSpec.spiral(0.5, 0.2),
               ClassSpec.gc(0.5), ClassSpec.u_lambda(0.5), ClassSpec.f_alpha(0.0),
               ClassSpec.f_alpha(-0.5)]

SHARPNESS_CLASSES = EVERY_CLASS + [
    ClassSpec.star_ab(0.5, -0.5), ClassSpec.star_ab(0.2, 0.0), ClassSpec.spiral(0.0, 0.25),
    ClassSpec.gc(1.0), ClassSpec.f_alpha(0.3), ClassSpec.f_alpha(0.8), ClassSpec.f_alpha(0.18)]


# ---------------------------------------------------------------------------
# determinism


def test_cross_check_is_deterministic():
    a = cross_check(40, 7, 8)
    b = cross_check(40, 7, 8)
    assert a.to_json() == b.to_json()
    c = cross_check(40, 8, 8)
    assert a.to_json() != c.to_json()


# ---------------------------------------------------------------------------
# report container


def test_json_round_trips_byte_for_byte():
    rep = cross_check(20, 3, 6)
    text = rep.to_json()
    again = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    assert text == again


def test_csv_schema_and_float_round_trip():
    rep = verify_bounds(ClassSpec.star_ab(1.0, -1.0), 5, 30, 5)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(rep.rows) + 1
    first = lines[1].split(",")
    row = rep.rows[0]
    for col, cell in zip(CSV_COLUMNS, first):
        if isinstance(row[col], float):
            assert float(cell) == row[col]  # 17 significant digits: exact


def test_report_write_file(tmp_path):
    rep = cross_check(10, 2, 4)
    p_json = tmp_path / "r.json"
    p_csv = tmp_path / "r.csv"
    rep.write(str(p_json), "json")
    rep.write(str(p_csv), "csv")
    assert p_json.read_text() == rep.to_json()
    assert p_csv.read_text() == rep.to_csv()
    assert json.loads(p_json.read_text())["kind"] == "cross-check"


def test_a_report_longer_than_one_write_slice_is_written_whole(tmp_path):
    # write hands the text to the file 1 MiB at a time; this one takes three
    rep = harness.VerifyReport("verify", "long", {}, 1, 2, 0, None, 0.0,
                               notes=["x" * (5 << 19)])
    text = rep.to_json()
    assert 2 << 20 < len(text) < 3 << 20
    p = tmp_path / "r.json"
    rep.write(str(p), "json")
    assert p.read_text() == text


def test_a_report_goes_to_stdout_without_a_path_in_the_same_slices(monkeypatch):
    class Sink:  # records each piece handed over
        def __init__(self):
            self.pieces = []

        def writelines(self, pieces):
            self.pieces += pieces

    rep = harness.VerifyReport("verify", "long", {}, 1, 2, 0, None, 0.0,
                               notes=["x" * (5 << 19)])
    for fmt, text, slices in (("json", rep.to_json(), 3), ("csv", rep.to_csv(), 1)):
        sink = Sink()
        monkeypatch.setattr("sys.stdout", sink)
        rep.write(None, fmt)
        assert "".join(sink.pieces) == text
        assert len(sink.pieces) == slices
        assert all(len(piece) == 1 << 20 for piece in sink.pieces[:-1])


def test_dumps_is_the_reports_json_spelling():
    obj = {"b": [1.5, None], "a": {"d": True, "c": "x"}}
    assert harness.dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(ValueError):
        harness.dumps({"x": math.nan})


def test_flag_grading_thresholds():
    tol = 1e-9
    assert harness._flag(0.0, tol) == "ok"
    assert harness._flag(tol, tol) == "ok"
    assert harness._flag(5 * tol, tol) == "numerical"
    assert harness._flag(10 * tol, tol) == "numerical"
    assert harness._flag(11 * tol, tol) == "mathematical"


def test_flag_grades_an_array_as_each_element():
    tol = 1e-9
    excess = np.array([[0.0, tol, 5 * tol], [10 * tol, 11 * tol, math.nan],
                       [-math.inf, math.inf, -1.0]])
    flags = harness._flag(excess, tol)
    assert flags.tolist() == [[harness._flag(float(x), tol) for x in row] for row in excess]
    assert flags[1, 2] == "mathematical"  # NaN fails, as in the scalar comparison
    assert all(type(f) is str for f in flags.ravel())


# ---------------------------------------------------------------------------
# writers: byte for byte the reference serializers of tests/_oracles.py


def _hand_built_report(with_violations: bool) -> VerifyReport:
    # strings that would fool a row-boundary search that did not rest on the
    # C encoder escaping newlines: quotes, backslashes, braces, "}, {", a raw
    # newline and tab, the boundary text itself, and a non-ASCII letter
    tricky = 'q"uo\\te {x} }, { \n\t \u03c9 },\n      {'
    rows = [
        {"sample_id": tricky, "n": 1, "abs_gamma": 0.1, "bound": None, "branch": "}",
         "margin": -0.0, "flag": "ok", "excess": 5e-324},
        {"sample_id": 7, "n": 2, "abs_gamma": 1e300, "bound": 2.5, "branch": tricky,
         "margin": -1e300, "flag": "mathematical", "excess": 1e300, "asserted": True,
         "note": "{", "{key}": None, "z, {": "}, {"},
        {"sample_id": "none", "n": 3, "abs_gamma": None, "bound": None, "branch": "open",
         "margin": None, "flag": "open", "asserted": False, "note": "\u03c9 \\ \""},
        {"sample_id": 2**70, "n": 4, "abs_gamma": 1 / 3, "bound": 1, "branch": "{}",
         "margin": 2 / 3, "flag": "numerical", "excess": -(1 / 3)},
    ]
    rep = VerifyReport(kind="verify", label="spiral(\u03c9=\"1\")",
                       params={"A": 0.5, "B": -1.0},
                       n_max=4, order=12, samples=3, seed=5, tol=1e-9, rows=rows,
                       summary=[{"n": 1, "best_candidate": tricky, "best_gap": 0.0},
                                {"n": 2, "bound": None}],
                       notes=[tricky, "tab\there", "plain"], max_discrepancy=1e-17)
    if with_violations:
        rep.violations = [dict(rows[1]), dict(rows[3])]
    return rep


def _writer_cases():
    cases = [(f"verify {spec.label()} CHUNK {chunk}", chunk,
              lambda spec=spec, samples=samples: verify_bounds(spec, 8, samples, 3))
             for chunk, samples in ((1, 40), (256, 260)) for spec in EVERY_CLASS]
    cases += [(f"sharpness {spec.label()}", 256, lambda spec=spec: sharpness_check(spec, 6))
              for spec in EVERY_CLASS]
    cases += [("cross-check", 256, lambda: cross_check(30, 5, 12, tol=1e-14)),
              ("explore", 256, lambda: explore_convex_large_n(1, 9, 300, 3)),
              ("hand-built", 256, lambda: _hand_built_report(False)),
              ("hand-built with violations", 256, lambda: _hand_built_report(True))]
    return [pytest.param(chunk, make, id=name) for name, chunk, make in cases]


@pytest.mark.parametrize("chunk, make", _writer_cases())
def test_writers_match_the_reference_serializers(monkeypatch, chunk, make):
    monkeypatch.setattr(harness, "CHUNK", chunk)
    rep = make()
    assert rep.to_json() == _oracles.report_json(rep)
    assert rep.to_csv() == _oracles.report_csv(rep)


@pytest.mark.parametrize("planted, named", [
    ([("row", "discrepancy", math.inf)], "inf"),
    ([("row", "discrepancy", -math.inf)], "-inf"),
    ([("row", "discrepancy", math.nan)], "nan"),
    ([("summary", "max_discrepancy", math.inf)], "inf"),
    ([("summary", "max_discrepancy", math.nan)], "nan"),
    ([("violation", "discrepancy", math.nan)], "nan"),
    # the first value out of range in the reference's order is named: keys
    # sort within a row; rows come before summary, summary before violations
    ([("row", "discrepancy", math.inf), ("row", "abs_gamma", math.nan)], "nan"),
    ([("row", "discrepancy", math.nan), ("summary", "max_discrepancy", math.inf)], "nan"),
    ([("summary", "max_discrepancy", -math.inf), ("violation", "discrepancy", math.nan)],
     "-inf"),
], ids=lambda p: "+".join(f"{where}.{key}:{value!r}" for where, key, value in p)
   if isinstance(p, list) else p)
def test_a_non_finite_value_raises_the_reference_message(planted, named):
    # the C encoder names no value; the message must stay the one the
    # indent encoder gives, which the CLI prints after "error:"
    rep = cross_check(4, 5, 3, tol=1e-17)
    assert rep.violations
    for where, key, value in planted:
        target = {"row": rep.rows[5], "summary": rep.summary[1],
                  "violation": rep.violations[0]}[where]
        target[key] = value
    with pytest.raises(ValueError) as want:
        _oracles.report_json(rep)
    with pytest.raises(ValueError) as got:
        rep.to_json()
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"Out of range float values are not JSON compliant: {named}"


# a sampled campaign holds its rows as columns: writing, counting and
# grading read them, and the row dicts are built only when rows or
# violations is read

COLUMN_CAMPAIGNS = pytest.mark.parametrize("make", [
    lambda: cross_check(30, 5, 12, tol=1e-14),
    lambda: verify_bounds(ClassSpec.gc(0.5), 8, 40, 3, tol=1e-14),
    lambda: verify_bounds(ClassSpec.u_lambda(0.5), 6, 30, 3),
    lambda: explore_convex_large_n(1, 9, 300, 3),
], ids=["cross-check", "verify", "verify-per-sample-bound", "explore"])


def _spy_row_builds(monkeypatch) -> list:
    """Record each time a column-backed report builds its row dicts, which a
    read or write of rows or violations does."""
    builds, build = [], VerifyReport._build_rows

    def spy(report):
        if report._columns is not None:
            builds.append(report.kind)
        build(report)

    monkeypatch.setattr(VerifyReport, "_build_rows", spy)
    return builds


@COLUMN_CAMPAIGNS
def test_column_backed_reports_write_and_grade_without_rows(monkeypatch, make):
    monkeypatch.setattr(harness, "CHUNK", 7)  # several text chunks, the last one short
    monkeypatch.setattr(harness, "CHUNK_COEFFS", 64)  # 4 to 8 samples a compute chunk
    calls = _spy_bn(monkeypatch)
    builds = _spy_row_builds(monkeypatch)
    rep = make()
    assert len(_chunk_sizes(calls)) > 1
    text_json, text_csv = rep.to_json(), rep.to_csv()
    counts, ok, math_rows = rep.counts(), rep.ok, rep.mathematical_violations
    assert builds == [] and rep._columns is not None
    assert text_json == _oracles.report_json(rep)  # builds the rows
    assert builds == [rep.kind] and rep._columns is None
    assert text_csv == _oracles.report_csv(rep)
    assert counts == rep.counts() and ok == rep.ok
    assert math_rows == rep.mathematical_violations


@COLUMN_CAMPAIGNS
def test_counts_keep_the_order_of_first_appearance(make):
    rep = make()
    counts = rep.counts()
    flags = [row["flag"] for row in rep.rows]
    assert list(counts.items()) == [(flag, flags.count(flag)) for flag in dict.fromkeys(flags)]
    assert list(rep.counts().items()) == list(counts.items())


def test_reading_a_view_makes_the_report_row_backed():
    rep = cross_check(30, 5, 12, tol=1e-14)
    violations = rep.violations
    assert violations and rep._columns is None
    assert rep.violations is violations
    assert violations == [dict(row) for row in rep.rows
                          if row["flag"] in ("numerical", "mathematical")]
    assert all(v is not row for v in violations for row in rep.rows)
    # a write builds the other list first, from the columns
    rep = cross_check(30, 5, 12, tol=1e-14)
    rep.rows = []
    assert rep._columns is None and rep.counts() == {}
    assert len(rep.violations) == len(violations)


def test_a_nan_in_a_column_raises_the_reference_message(monkeypatch):
    def sample_2_is_nan(calls, out):
        if calls[-1][0] == "chunk":
            out[2] = math.nan

    _spy_bn(monkeypatch, sample_2_is_nan)
    builds = _spy_row_builds(monkeypatch)
    rep = cross_check(5, 3, 4)
    text_csv = rep.to_csv()  # CSV prints a NaN as "nan"
    assert builds == []
    with pytest.raises(ValueError) as got:
        rep.to_json()
    with pytest.raises(ValueError) as want:
        _oracles.report_json(rep)
    assert str(got.value) == str(want.value)
    assert str(got.value) == "Out of range float values are not JSON compliant: nan"
    assert text_csv == _oracles.report_csv(rep)


def test_report_ok_logic():
    rep = VerifyReport(kind="verify", label="x", params={}, n_max=1, order=2,
                       samples=0, seed=0, tol=1e-9)
    assert rep.ok
    rep.violations.append({"flag": "numerical"})
    assert rep.ok  # tolerance-scale noise does not fail a campaign
    rep.violations.append({"flag": "mathematical"})
    assert not rep.ok


# ---------------------------------------------------------------------------
# cross-check campaigns


@pytest.mark.parametrize("spec", [
    None,
    ClassSpec.spiral(0.5, 0.25),
    ClassSpec.gc(0.5),
    ClassSpec.u_lambda(0.75),
    ClassSpec.f_alpha(0.0),
], ids=lambda s: "default" if s is None else s.label())
def test_cross_check_routes_agree(spec):
    rep = cross_check(40, 17, 10, spec=spec)
    assert rep.ok
    assert rep.max_discrepancy < 1e-10
    assert rep.kind == "cross-check"
    assert len(rep.rows) == 40 * 10
    assert [row["n"] for row in rep.summary] == list(range(1, 11))


def test_cross_check_discrepancies_are_those_of_the_one_row_routes():
    # the chunk is reverted as one stack; each row keeps the bits of the
    # member reverted on its own
    rep = cross_check(20, 5, 6)
    members, _, _ = harness._draw_chunk(ClassSpec.star_ab(1.0, -1.0), 5, range(20),
                                        rep.order, 0.8)
    for i in range(len(members)):
        g = members[i:i + 1]
        disc = np.abs(gammas.gamma_via_reversion(g, 6) - gammas.gamma_via_bn(g, 6))[0]
        assert [row["discrepancy"] for row in rep.rows if row["sample_id"] == i] == disc.tolist()


def test_cross_check_overflow_is_a_bad_argument(monkeypatch):
    real = series.revert

    def overflowing(f, order):
        out = real(f, order)
        out[3, -1] = np.inf
        return out

    monkeypatch.setattr(series, "revert", overflowing)
    with pytest.raises(ValueError, match="coefficients must be finite"):
        cross_check(6, 1, 4)


def _shrink_compute_chunk(monkeypatch, order, rows):
    """Make a compute chunk hold rows samples at order, by its coefficient budget."""
    monkeypatch.setattr(harness, "CHUNK_COEFFS", rows * (order + 1))
    assert harness._chunk_rows(order) == rows


def test_cross_check_reverts_each_chunk_in_one_call_of_the_public_names(monkeypatch):
    # perfbench's tracer times the reversion route through these two names
    calls = []
    for owner, name in ((gammas, "gamma_via_reversion"), (series, "revert")):
        def spy(f, n, real=getattr(owner, name), name=name):
            calls.append((name, f.shape[0]))
            return real(f, n)
        monkeypatch.setattr(owner, name, spy)
    _shrink_compute_chunk(monkeypatch, 5, 7)
    cross_check(7 + 5, 2, 4)
    assert calls == [("gamma_via_reversion", 7), ("revert", 7),
                     ("gamma_via_reversion", 5), ("revert", 5)]


def _spy_bn(monkeypatch, edit=None):
    """Record each gammas.gamma_via_bn call as (source, shape of its rows,
    n_max): source "candidates" for a call made inside
    harness.sharpness_check, "chunk" for any other. edit(calls, out), if
    given, may change a call's result before it is returned."""
    calls, inside = [], []
    real_bn, real_check = gammas.gamma_via_bn, harness.sharpness_check

    def sharpness_check(*args, **kwargs):
        inside.append(True)
        try:
            return real_check(*args, **kwargs)
        finally:
            inside.pop()

    def bn(f, n_max):
        out = real_bn(f, n_max)
        calls.append(("candidates" if inside else "chunk", np.shape(f), n_max))
        if edit is not None:
            edit(calls, out)
        return out

    monkeypatch.setattr(harness, "sharpness_check", sharpness_check)
    monkeypatch.setattr(gammas, "gamma_via_bn", bn)
    return calls


def _chunk_sizes(calls) -> list:
    """The samples of each compute chunk among _spy_bn's calls."""
    return [shape[0] for source, shape, _ in calls if source == "chunk"]


@pytest.mark.parametrize("campaign, candidates", [
    (lambda n: cross_check(n, 2, 4), []),
    # gc's two equality functions, stacked once at order 5 for every bounded n
    (lambda n: verify_bounds(ClassSpec.gc(0.5), 4, n, 2), [("candidates", (2, 6), 4)]),
    (lambda n: explore_convex_large_n(1, 4, n, 2), []),
], ids=["cross-check", "verify", "explore"])
def test_sampled_campaigns_run_the_bn_route_once_per_chunk(monkeypatch, campaign, candidates):
    # perfbench's tracer times the bn route through this name; verify's
    # sharp gaps add one stack of equality functions, which is not a chunk
    calls = _spy_bn(monkeypatch)
    _shrink_compute_chunk(monkeypatch, 5, 7)
    rep = campaign(7 + 5)
    assert rep.order == 5
    assert calls == candidates + [("chunk", (7, 6), 4), ("chunk", (5, 6), 4)]


@pytest.mark.parametrize("order, rows", [(1, 8192), (9, 1638), (40, 399), (41, 390),
                                         (harness.MAX_ORDER, 15)])
def test_a_compute_chunk_is_a_budget_of_coefficients(order, rows):
    assert harness.CHUNK_COEFFS == 2 ** 14
    assert harness._chunk_rows(order) == rows


def test_a_compute_chunk_holds_at_least_one_sample(monkeypatch):
    monkeypatch.setattr(harness, "CHUNK_COEFFS", 100)
    assert [harness._chunk_rows(order) for order in (9, 49, 50, 99, harness.MAX_ORDER)] == [
        10, 2, 1, 1, 1]


@pytest.mark.parametrize("campaign, samples, order", [
    (lambda s: verify_bounds(ClassSpec.gc(0.5), 8, s, 1), 5000, 9),
    (lambda s: explore_convex_large_n(1, 40, s, 1), 1000, 41),
    (lambda s: cross_check(s, 1, 32, order=40), 900, 40),
], ids=["verify-order-9", "explore-order-41", "cross-check-order-40"])
def test_a_campaign_runs_ceil_samples_over_rows_chunks(monkeypatch, campaign, samples, order):
    # at the default budget: every chunk but the last is full
    calls = _spy_bn(monkeypatch)
    rep = campaign(samples)
    rows = harness._chunk_rows(order)
    sizes = _chunk_sizes(calls)
    assert rep.order == order and len(sizes) == math.ceil(samples / rows) > 1
    assert sizes == [rows] * (len(sizes) - 1) + [samples - rows * (len(sizes) - 1)]


def test_cross_check_validation():
    with pytest.raises(ValueError):
        cross_check(0, 1, 4)
    with pytest.raises(ValueError):
        cross_check(5, 1, 0)
    with pytest.raises(ValueError):
        cross_check(5, 1, 8, order=6)


# ---------------------------------------------------------------------------
# bound campaigns


def test_verify_summary_has_the_pinned_row_shape():
    rep = verify_bounds(ClassSpec.star_ab(0.6, -1.0), 6, 40, 9)
    assert rep.ok
    for row in rep.summary:
        assert set(row) == SUMMARY_KEYS
        assert row["margin"] >= 0
        assert row["empirical_max_abs_gamma"] <= row["bound"]
    by_n = {row["n"]: row for row in rep.summary}
    # full-product orders have a named equality function: gap is tiny
    assert abs(by_n[1]["sharpness_gap"]) < 1e-12
    # partial-product order: no equality function is named
    assert by_n[6]["sharpness_gap"] is None
    assert by_n[6]["branch"] == "partial-product k=1"


def test_verify_skips_orders_without_a_bound():
    rep = verify_bounds(ClassSpec.f_alpha(0.18), 4, 25, 3)
    have = {row["n"] for row in rep.summary}
    assert have == {1, 2}  # order 3 in the gap, order 4 open
    assert any("skipped" in note for note in rep.notes)


def test_verify_u_lambda_uses_per_sample_bounds():
    rep = verify_bounds(ClassSpec.u_lambda(0.75), 2, 60, 13)
    assert rep.ok
    assert {row["n"] for row in rep.summary} == {1, 2}
    for row in rep.summary:
        assert row["sharpness_gap"] is None
    assert any("vary" in n for n in rep.notes)
    bounds_seen = {r["bound"] for r in rep.rows if r["n"] == 1}
    assert len(bounds_seen) > 1


@pytest.mark.parametrize("spec", [spec for spec in SHARPNESS_CLASSES
                                  if not spec.entry.per_sample_bound], ids=ClassSpec.label)
def test_verify_sharpness_gap_is_the_least_asserted_margin_of_sharpness_check(spec):
    # bound - max |Gamma| and min (bound - |Gamma|) round alike, bit for bit
    for tol, order in ((1e-9, None), (1e-6, 12)):
        verify = verify_bounds(spec, 8, 5, 1, tol, order=order)
        sharp = sharpness_check(spec, 8, tol, order=order)
        bounded = [row["n"] for row in verify.summary]
        assert bounded == [row["n"] for row in sharp.summary]
        for row in verify.summary:
            margins = [r["margin"] for r in sharp.rows if r["n"] == row["n"] and r["asserted"]]
            assert row["sharpness_gap"] == min(margins, default=None)


def test_verify_u_lambda_bounds_each_draw_at_the_bounded_orders_only(monkeypatch):
    calls, real = [], harness.bound_for

    def counting(spec, n, abs_a=None):
        calls.append(n)
        return real(spec, n, abs_a=abs_a)

    monkeypatch.setattr(harness, "bound_for", counting)
    verify_bounds(ClassSpec.u_lambda(0.5), 6, 5, 1)
    # one scan for the orders with a bound, then Gamma_1 and Gamma_2 per draw
    assert calls == [1, 2, 3, 4, 5, 6] + [1, 2] * 5


def test_verify_validation():
    with pytest.raises(ValueError):
        verify_bounds(ClassSpec.gc(0.5), 0, 10, 1)
    # open orders above the proved ones are skipped, not failed
    rep = verify_bounds(ClassSpec.u_lambda(0.5), 3, 10, 1)
    assert {row["n"] for row in rep.summary} == {1, 2}


def test_violation_rows_carry_excess():
    # force violations by shrinking the bound tolerance: use a tiny tol on
    # cross-check so route noise grades as numerical
    rep = cross_check(30, 5, 12, tol=1e-14)
    assert rep.violations, "expected tolerance-scale flags at tol=1e-14"
    for v in rep.violations:
        assert "excess" in v and v["excess"] > 0


# ---------------------------------------------------------------------------
# sharpness campaigns


def test_sharpness_full_class():
    rep = sharpness_check(ClassSpec.full_s(), 8)
    assert rep.ok
    assert rep.max_discrepancy < 1e-12
    assert all(row["sample_id"] == "cusp-map" for row in rep.rows)


def test_sharpness_star_named_clauses_close():
    rep = sharpness_check(ClassSpec.star_ab(0.6, -1.0), 8)
    assert rep.ok
    asserted = [r for r in rep.rows if r["asserted"]]
    report_only = [r for r in rep.rows if r["flag"] == "report-only"]
    assert asserted and report_only
    assert max(abs(r["margin"]) for r in asserted) < 1e-9


def test_sharpness_endpoint_clause_uses_symmetric_map():
    rep = sharpness_check(ClassSpec.star_ab(0.2, 0.0), 5)
    rows = [r for r in rep.rows if r["n"] == 4 and r["asserted"]]
    assert len(rows) == 1
    assert rows[0]["sample_id"] == "4-symmetric-map"
    assert abs(rows[0]["margin"]) < 1e-12


def test_sharpness_gc_discrepancy_is_reported_not_hidden():
    rep = sharpness_check(ClassSpec.gc(0.5), 6)
    assert not rep.ok  # the printed equality function misses for c < 1
    printed = [r for r in rep.rows if r["sample_id"] == "claimed-derivative-map"]
    ray = [r for r in rep.rows if r["sample_id"] == "kernel-ray-map"]
    assert all(r["flag"] == "mathematical" for r in printed)
    assert all(abs(r["margin"]) < 1e-12 for r in ray)
    assert all(v["sample_id"] == "claimed-derivative-map" for v in rep.violations)


def test_sharpness_gc_closes_at_c_one():
    rep = sharpness_check(ClassSpec.gc(1.0), 8)
    assert rep.ok
    assert rep.max_discrepancy < 1e-9


def test_sharpness_u_lambda_tracks_the_dilation_parameter():
    for abs_a in (0.0, 0.3, 0.7):
        rep = sharpness_check(ClassSpec.u_lambda(0.75), 2, abs_a=abs_a)
        assert rep.ok, f"abs_a={abs_a}"
        assert rep.max_discrepancy < 1e-9


def test_sharpness_convexity_class_branches():
    rep = sharpness_check(ClassSpec.f_alpha(-0.5), 3)
    assert rep.ok
    names = {r["sample_id"] for r in rep.rows}
    assert "half-convex-map" in names
    rep2 = sharpness_check(ClassSpec.f_alpha(0.5), 3)
    assert rep2.ok
    mid = [r for r in rep2.rows if r["n"] == 3 and r["asserted"]]
    assert mid and mid[0]["sample_id"] == "power-map-3"


def test_sharpness_marks_open_orders():
    rep = sharpness_check(ClassSpec.f_alpha(0.18), 4)
    open_rows = [r for r in rep.rows if r["flag"] == "open"]
    assert {r["n"] for r in open_rows} == {3, 4}
    assert rep.ok  # open rows never fail the run


def test_sharpness_middle_clause_is_report_only():
    rep = sharpness_check(ClassSpec.star_ab(0.5, -0.5), 4)
    n4 = [r for r in rep.rows if r["n"] == 4]
    assert n4 and all(r["flag"] == "report-only" for r in n4)
    assert rep.ok


# every class, and a spec on each bound clause that names equality functions
def _candidates_by_n(spec, n_max, order, abs_a=harness.DEFAULT_ABS_A):
    """{n: the registry's (label, build, asserted, note) list} for every n
    up to n_max with a bound."""
    out = {}
    for n in range(1, n_max + 1):
        res = harness.bound_for(spec, n, abs_a=abs_a)
        if res.applicable:
            out[n] = spec.entry.candidates(spec, n, res.branch, order, abs_a)
    return out


@pytest.mark.parametrize("spec", SHARPNESS_CLASSES, ids=ClassSpec.label)
def test_a_candidate_label_builds_one_function_at_every_order(spec):
    # sharpness_check builds each label once per (spec, order, abs_a)
    built = {}
    for cands in _candidates_by_n(spec, 12, 13).values():
        for label, build, _, _ in cands:
            f = build()
            assert f.shape == (1, 14), label
            assert f.tobytes() == built.setdefault(label, f).tobytes(), label


def test_named_functions_are_normalized_exactly():
    # c0 == 0 and c1 == 1 with no rounding: both routes and revert refuse anything else
    built = [build() for spec in SHARPNESS_CLASSES
             for abs_a in (0.0, harness.DEFAULT_ABS_A, 0.9)
             for cands in _candidates_by_n(spec, 12, 13, abs_a).values()
             for _, build, _, _ in cands]
    built += [families.koebe(theta, 9) for theta in (0.0, 0.7, -2.5)]
    built += [series.identity(order) for order in (1, 2, 9)]
    built += [series.revert(f, 9) for f in (built[0], families.koebe(0.7, 9),
                                            series.identity(9))]
    assert len(built) > 100
    for f in built:
        assert f.shape[0] == 1 and f[0, 0] == 0 and f[0, 1] == 1, f


@pytest.mark.parametrize("spec", SHARPNESS_CLASSES, ids=ClassSpec.label)
def test_sharpness_rows_have_the_bits_of_one_row_calls_at_their_order(spec):
    rep = sharpness_check(spec, 12)
    builds = {(n, label): build
              for n, cands in _candidates_by_n(spec, 12, rep.order).items()
              for label, build, _, _ in cands}
    rows = [row for row in rep.rows if row["flag"] != "open"]
    assert [(row["n"], row["sample_id"]) for row in rows] == list(builds)
    for row in rows:
        n = row["n"]
        alone = float(abs(gammas.gamma_via_bn(builds[n, row["sample_id"]](), n)[0, n - 1]))
        assert row["abs_gamma"] == alone, (n, row["sample_id"])


@pytest.mark.parametrize("spec", SHARPNESS_CLASSES, ids=ClassSpec.label)
def test_sharpness_and_verify_make_one_candidate_stack_of_the_distinct_labels(monkeypatch,
                                                                              spec):
    by_n = _candidates_by_n(spec, 12, 13)
    labels = {label for cands in by_n.values() for label, *_ in cands}
    stack = [("candidates", (len(labels), 14), max(by_n))]
    calls = _spy_bn(monkeypatch)
    harness.sharpness_check(spec, 12)
    assert calls == stack
    del calls[:]
    verify_bounds(spec, 12, 3, 1)
    assert [c for c in calls if c[0] == "candidates"] == (
        [] if spec.entry.per_sample_bound else stack)


# ---------------------------------------------------------------------------
# exploration


def test_explore_grades_only_the_proved_orders():
    rep = explore_convex_large_n(1, 6, 80, 21)
    assert rep.ok
    assert all(v["n"] <= 3 for v in rep.violations)
    assert rep.violations == []
    flags = {r["flag"] for r in rep.rows if r["n"] > 3}
    assert flags <= {"ok", "open"}
    for row in rep.summary:
        assert {"n", "max_abs_gamma", "max_ratio", "argmax_sample",
                "exceed_count"} <= set(row)


def test_explore_flags_an_overshoot_open_only_at_conjectured_orders(monkeypatch):
    # planted |Gamma_n| just past the bound: 5 tol grades "numerical" and
    # 0.5 tol "ok"; at a conjectured order the overshoot is "open", a NaN
    # stays "mathematical"
    tol, conj = 1e-9, 1.0 / 10.0  # the conjectured bound at n = 5
    proved = harness.bound_for(ClassSpec.f_alpha(0.0), 2).value
    planted = {(0, 5): conj + 5 * tol, (1, 5): conj + 0.5 * tol, (2, 5): math.nan,
               (3, 2): proved + 5 * tol}

    def plant(calls, out):
        for (s, n), value in planted.items():
            out[s, n - 1] = value

    _spy_bn(monkeypatch, plant)
    rep = explore_convex_large_n(1, 5, 4, 7, tol=tol)
    flags = {(row["sample_id"], row["n"]): row["flag"] for row in rep.rows}
    assert [flags[key] for key in planted] == ["open", "ok", "mathematical", "numerical"]
    assert [row["branch"] for row in rep.rows[:5]] == (
        [harness.bound_for(ClassSpec.f_alpha(0.0), n).branch for n in (1, 2, 3)]
        + ["conjectured", "conjectured"])


def test_explore_is_deterministic():
    a = explore_convex_large_n(4, 8, 50, 3)
    b = explore_convex_large_n(4, 8, 50, 3)
    assert a.to_json() == b.to_json()


def test_explore_validation():
    with pytest.raises(ValueError):
        explore_convex_large_n(0, 5, 10, 1)
    with pytest.raises(ValueError):
        explore_convex_large_n(5, 4, 10, 1)
    with pytest.raises(ValueError):
        explore_convex_large_n(1, 4, 0, 1)


# ---------------------------------------------------------------------------
# plumbing


def test_resolve_order_default_margin():
    # Gamma_8 reads a_2..a_9, so order 9 is enough
    assert harness._resolve_order(8, None) == 9
    assert harness._resolve_order(8, 9) == 9
    with pytest.raises(ValueError):
        harness._resolve_order(8, 8)


def test_resolve_order_caps_the_order():
    cap = harness.MAX_ORDER
    assert harness._resolve_order(cap - 1, None) == cap
    assert harness._resolve_order(4, cap) == cap
    for n_max, order in ((cap, None), (4, cap + 1), (4, 10**8)):
        with pytest.raises(ValueError, match=f"largest supported order {cap}"):
            harness._resolve_order(n_max, order)


# Gamma_n reads a_2..a_{n+1} only, so running above the default order
# n_max + 1 must change nothing but the report's order field
_AT_ORDER = (
    [(f"verify-{spec.label()}", 8,
      lambda order, spec=spec: verify_bounds(spec, 8, 40, 3, order=order)) for spec in EVERY_CLASS]
    + [(f"sharpness-{spec.label()}", 8,
        lambda order, spec=spec: sharpness_check(spec, 8, order=order)) for spec in EVERY_CLASS]
    + [("cross-check-12", 12, lambda order: cross_check(40, 3, 12, order=order)),
       ("cross-check-32", 32, lambda order: cross_check(20, 3, 32, order=order)),
       ("explore", 9, lambda order: explore_convex_large_n(1, 9, 60, 3, order=order))])


@pytest.mark.parametrize("n_max, campaign", [case[1:] for case in _AT_ORDER],
                         ids=[case[0] for case in _AT_ORDER])
def test_the_order_margin_changes_only_the_order_field(n_max, campaign):
    default, wide = campaign(None), campaign(n_max + 8)
    assert (default.order, wide.order) == (n_max + 1, n_max + 8)

    def without_order(rep):
        text, found = re.subn(rf'\n  "order": {rep.order},', "", rep.to_json())
        assert found == 1
        return text

    assert without_order(default) == without_order(wide)
    assert default.to_csv() == wide.to_csv()


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_every_campaign_rejects_a_bad_tolerance_before_sampling(monkeypatch, tol):
    def no_draw(*args):
        raise AssertionError("sampled before the tolerance was checked")

    monkeypatch.setattr(harness, "_draw_chunk", no_draw)
    campaigns = [lambda: cross_check(5, 1, 4, tol=tol),
                 lambda: verify_bounds(ClassSpec.gc(0.5), 4, 5, 1, tol=tol),
                 lambda: sharpness_check(ClassSpec.gc(0.5), 4, tol=tol),
                 lambda: explore_convex_large_n(1, 4, 5, 1, tol=tol)]
    for campaign in campaigns:
        with pytest.raises(ValueError, match="tol must be finite"):
            campaign()


_GC = ClassSpec.gc(0.5)
# each out-of-range count, with every campaign that takes it
_BAD_COUNTS = {
    "samples=0": [lambda: cross_check(0, 1, 4), lambda: verify_bounds(_GC, 4, 0, 1),
                  lambda: explore_convex_large_n(1, 4, 0, 1)],
    "n_max=0": [lambda: cross_check(5, 1, 0), lambda: verify_bounds(_GC, 0, 5, 1),
                lambda: sharpness_check(_GC, 0), lambda: explore_convex_large_n(1, 0, 5, 1)],
    "n_min=0": [lambda: sharpness_check(_GC, 4, n_min=0),
                lambda: explore_convex_large_n(0, 4, 5, 1)],
    "n_min>n_max": [lambda: sharpness_check(_GC, 4, n_min=5),
                    lambda: explore_convex_large_n(5, 4, 5, 1)],
}


@pytest.mark.parametrize("bad", list(_BAD_COUNTS))
def test_every_campaign_rejects_a_bad_count_before_sampling(monkeypatch, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("sampled or bounded before the counts were checked")

    monkeypatch.setattr(harness, "_draw_chunk", no_work)
    monkeypatch.setattr(harness, "bound_for", no_work)
    message = "samples must be >= 1" if bad == "samples=0" else "need 1 <= n_min <= n_max"
    for campaign in _BAD_COUNTS[bad]:
        with pytest.raises(ValueError, match=message):
            campaign()


@pytest.mark.parametrize("seed", [-1, 2.5, "3", True])
def test_sampled_campaigns_reject_a_bad_seed_before_sampling(monkeypatch, seed):
    def no_draw(*args):
        raise AssertionError("sampled before the seed was checked")

    monkeypatch.setattr(harness, "_draw_chunk", no_draw)
    campaigns = [lambda: cross_check(5, seed, 4),
                 lambda: verify_bounds(ClassSpec.gc(0.5), 4, 5, seed),
                 lambda: explore_convex_large_n(1, 4, 5, seed)]
    for campaign in campaigns:
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            campaign()


def test_draw_member_is_reproducible_per_key():
    for spec in (ClassSpec.gc(0.5), ClassSpec.u_lambda(0.5)):
        f1, abs_a1, att1 = harness._draw_chunk(spec, 42, [7], 12, 0.9)
        f2, abs_a2, att2 = harness._draw_chunk(spec, 42, [7], 12, 0.9)
        assert np.array_equal(f1, f2) and np.array_equal(abs_a1, abs_a2)
        assert att1 == att2 == [0]
        # |omega(0)| is the dilation's own; a Schwarz function fixes 0
        _, _, abs_a, _ = _oracles.sample_dilation((42, 7, 0), 0.5)
        assert abs_a1.tolist() == ([0.0] if spec.entry.subordination else [abs_a])
        f3, abs_a3, _ = harness._draw_chunk(spec, 42, [8], 12, 0.9)
        assert not np.array_equal(f1, f3)
        # a member's row does not depend on the indices drawn with it
        rows, abs_a, _ = harness._draw_chunk(spec, 42, range(5, 10), 12, 0.9)
        assert np.array_equal(rows[2], f1[0]) and np.array_equal(rows[3], f3[0])
        assert abs_a[2:4].tolist() == [abs_a1[0], abs_a3[0]]


def test_a_campaign_splits_key_words_once_per_draw_pass(monkeypatch):
    # a chunk's keys reach invlog.keyed as columns, so the per-key word split
    # runs on the seed once a pass, not once a sample
    splits, passes = [], []
    key_words, draw = keyed._key_words, families.draw_members
    monkeypatch.setattr(keyed, "_key_words", lambda key: splits.append(key) or key_words(key))
    monkeypatch.setattr(families, "draw_members",
                        lambda *args, **kwargs: passes.append(args[1]) or draw(*args, **kwargs))
    verify_bounds(ClassSpec.gc(0.5), 8, 5500, 1)
    assert sum(map(len, passes)) >= 5500
    assert 1 <= len(splits) <= len(passes)


@pytest.mark.parametrize("spec", [ClassSpec.gc(0.5), ClassSpec.u_lambda(0.5)],
                         ids=lambda s: s.label())
def test_a_row_is_rebuilt_from_its_key(spec):
    # replay: the one-key draw of (seed, index, attempt) gives the member,
    # and the member the row's |Gamma_n|, with the campaign's bits
    rep = verify_bounds(spec, 4, 300, 2**32 + 5)
    assert not any("resampled" in note for note in rep.notes)
    for i in (0, 137, 299):
        draws = families.draw_members(spec, [(2**32 + 5, i, 0)], radius_cap=0.95)
        f = families.member_rows(spec, draws, rep.order)
        gams = np.abs(gammas.gamma_via_bn(f, rep.n_max)[0]).tolist()
        rows = [row for row in rep.rows if row["sample_id"] == i]
        assert rows and [row["abs_gamma"] for row in rows] == [gams[row["n"] - 1] for row in rows]


@pytest.mark.parametrize("seed", [np.int64(3), np.uint32(3)], ids=lambda s: type(s).__name__)
def test_a_numpy_integer_seed_is_recorded_as_an_int(seed):
    campaigns = [lambda seed: cross_check(5, seed, 4),
                 lambda seed: verify_bounds(ClassSpec.gc(0.5), 4, 5, seed),
                 lambda seed: explore_convex_large_n(1, 4, 5, seed)]
    for campaign in campaigns:
        rep, want = campaign(seed), campaign(3)
        assert type(rep.seed) is int and json.loads(rep.to_json())["seed"] == 3
        assert rep.to_json() + rep.to_csv() == want.to_json() + want.to_csv()


def _campaign_bytes():
    reports = [verify_bounds(spec, 8, 12, 3) for spec in EVERY_CLASS]
    reports += [cross_check(12, 3, 8), explore_convex_large_n(1, 9, 12, 3)]
    return [rep.to_json() + rep.to_csv() for rep in reports]


def test_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    reference = _campaign_bytes()  # 12 samples: one chunk of each kind
    calls = _spy_bn(monkeypatch)
    for chunk in (1, 7):
        # chunk samples a text chunk and a compute chunk at order 9
        monkeypatch.setattr(harness, "CHUNK", chunk)
        monkeypatch.setattr(harness, "CHUNK_COEFFS", 10 * chunk)
        del calls[:]
        assert _campaign_bytes() == reference, f"CHUNK = {chunk}"
        # eight campaigns at order 9 and one at order 10, each in several chunks
        chunks = [math.ceil(12 / harness._chunk_rows(order)) for order in [9] * 8 + [10]]
        assert min(chunks) > 1
        assert len(_chunk_sizes(calls)) == sum(chunks)


# a sampled campaign's summary is a plain fold over its own rows, in which a
# NaN value (a row graded "mathematical") never wins


def _largest(values, start):
    for value in values:
        if value > start:  # NaN never compares greater
            start = value
    return start


def _least(values, start):
    for value in values:
        if value < start:
            start = value
    return start


def _rows_by_n(rep) -> dict:
    by_n = {}
    for row in rep.rows:
        by_n.setdefault(row["n"], []).append(row)
    return by_n


def _verify_fold(rep):
    summary = [{"n": n,
                "empirical_max_abs_gamma": _largest((r["abs_gamma"] for r in rows), 0.0),
                "margin": _least((r["margin"] for r in rows), math.inf),
                "bound": _least((r["bound"] for r in rows), math.inf),
                "branch": rows[0]["branch"]}
               for n, rows in _rows_by_n(rep).items()]
    worst = min(st["margin"] for st in summary)
    return summary, max(0.0, -worst)


def _cross_check_fold(rep):
    summary = [{"n": n, "max_discrepancy": _largest((r["discrepancy"] for r in rows), 0.0)}
               for n, rows in _rows_by_n(rep).items()]
    return summary, max(st["max_discrepancy"] for st in summary)


def _explore_fold(rep):
    summary = []
    for n, rows in _rows_by_n(rep).items():
        top, first = 0.0, -1
        for row in rows:  # a tie goes to the earliest sample
            if row["abs_gamma"] > top:
                top, first = row["abs_gamma"], row["sample_id"]
        summary.append({"n": n, "max_abs_gamma": top,
                        "max_ratio": _largest((2 * n * r["abs_gamma"] for r in rows), 0.0),
                        "argmax_sample": first,
                        "exceed_count": sum(r["flag"] in ("mathematical", "open") for r in rows)})
    return summary, None


FOLDED_CAMPAIGNS = {
    "verify-gc": (lambda: verify_bounds(ClassSpec.gc(0.5), 6, 30, 3), _verify_fold),
    "verify-u-lambda": (lambda: verify_bounds(ClassSpec.u_lambda(0.5), 6, 30, 3), _verify_fold),
    "explore": (lambda: explore_convex_large_n(1, 6, 40, 3), _explore_fold),
    "cross-check": (lambda: cross_check(30, 3, 6), _cross_check_fold),
}


def _assert_summary_is_the_fold(rep, fold):
    summary, max_discrepancy = fold(rep)
    assert [{key: st[key] for key in want} for st, want in zip(rep.summary, summary)] == summary
    assert len(rep.summary) == len(summary)
    assert rep.max_discrepancy == max_discrepancy


@pytest.mark.parametrize("name", FOLDED_CAMPAIGNS)
def test_sampled_summaries_are_folds_of_their_rows(monkeypatch, name):
    _shrink_compute_chunk(monkeypatch, 7, 7)  # several chunks, the last one short
    calls = _spy_bn(monkeypatch)
    campaign, fold = FOLDED_CAMPAIGNS[name]
    rep = campaign()
    assert len(_chunk_sizes(calls)) == math.ceil(rep.samples / 7)
    _assert_summary_is_the_fold(rep, fold)


@pytest.mark.parametrize("name", ["verify-gc", "verify-u-lambda", "explore", "cross-check"])
def test_a_nan_gamma_row_is_flagged_and_left_out_of_the_summary(monkeypatch, name):
    _shrink_compute_chunk(monkeypatch, 7, 7)

    def sample_8_is_nan(calls, out):  # sample 8 is row 1 of the second chunk
        if calls[-1][0] == "chunk" and len(_chunk_sizes(calls)) == 2:
            out[1] = math.nan

    _spy_bn(monkeypatch, sample_8_is_nan)
    campaign, fold = FOLDED_CAMPAIGNS[name]
    rep = campaign()
    planted = [row for row in rep.rows if row["sample_id"] == 8]
    assert planted and all(math.isnan(row["abs_gamma"]) for row in planted)
    assert all(row["flag"] == "mathematical" for row in planted)
    assert [v for v in rep.violations if v["sample_id"] == 8] == planted
    _assert_summary_is_the_fold(rep, fold)


# every sampled campaign redraws a member that is not finite under a fresh
# key; real campaigns almost never do, so the draw is made to fail on purpose
SAMPLED_CAMPAIGNS = pytest.mark.parametrize("campaign", [
    lambda: cross_check(5, 3, 4),
    lambda: verify_bounds(ClassSpec.gc(0.5), 4, 5, 3),
    lambda: explore_convex_large_n(1, 4, 5, 3),
], ids=["cross-check", "verify", "explore"])


@SAMPLED_CAMPAIGNS
def test_a_non_finite_member_is_redrawn(monkeypatch, campaign):
    draw = families.draw_members

    def first_attempt_of_sample_2_overflows(spec, keys, **kwargs):
        draws = draw(spec, keys, **kwargs)
        # a NaN rotation makes every coefficient NaN
        assert keys.seed == 3
        theta = np.where((keys.index == 2) & (keys.attempt == 0), math.nan, draws.theta)
        return dataclasses.replace(draws, theta=theta)

    monkeypatch.setattr(families, "draw_members", first_attempt_of_sample_2_overflows)
    _shrink_compute_chunk(monkeypatch, 5, 3)  # sample 2 ends the first of two chunks
    calls = _spy_bn(monkeypatch)
    rep = campaign()
    assert _chunk_sizes(calls) == [3, 2]
    assert [n for n in rep.notes if "resampled" in n] == ["sample 2: resampled 1 time(s)"]
    assert len(rep.rows) == 5 * 4
    assert [row["sample_id"] for row in rep.rows[::4]] == [0, 1, 2, 3, 4]
    assert all(math.isfinite(row["abs_gamma"]) for row in rep.rows)


@SAMPLED_CAMPAIGNS
def test_a_draw_that_raises_is_not_retried(monkeypatch, campaign):
    # arguments are checked before sampling, so a raising draw is a bug to
    # surface as it is, not a degenerate draw to retry
    calls = []

    def broken_draw(spec, keys, **kwargs):
        calls.append((keys.seed, keys.index.tolist(), keys.attempt.tolist()))
        raise ValueError("boom")

    monkeypatch.setattr(families, "draw_members", broken_draw)
    with pytest.raises(ValueError, match="^boom$"):
        campaign()
    # one call, on the first chunk's attempt-0 keys
    assert calls == [(3, list(range(5)), [0] * 5)]


@pytest.mark.parametrize("radius_cap", [1.0, 1.5, -0.1, math.nan])
def test_sampled_campaigns_reject_a_bad_radius_cap_before_sampling(monkeypatch, radius_cap):
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before radius_cap was checked")

    monkeypatch.setattr(families, "draw_members", no_draw)
    campaigns = [lambda spec: cross_check(5, 3, 4, spec=spec, radius_cap=radius_cap),
                 lambda spec: verify_bounds(spec, 4, 5, 3, radius_cap=radius_cap)]
    for spec in (ClassSpec.gc(0.5), ClassSpec.u_lambda(0.5)):
        for campaign in campaigns:
            with pytest.raises(ValueError, match=r"radius_cap must lie in \[0, 1\)"):
                campaign(spec)


def test_draw_gives_up_on_four_non_finite_members(monkeypatch):
    draw = families.draw_members

    def always_nan(spec, keys, **kwargs):
        draws = draw(spec, keys, **kwargs)
        return dataclasses.replace(draws, theta=np.full(len(keys), math.nan))

    monkeypatch.setattr(families, "draw_members", always_nan)
    with pytest.raises(ValueError, match=r"sample 0: no usable draw in 4 attempts "
                                         r"\(non-finite coefficients\)"):
        verify_bounds(ClassSpec.gc(0.5), 4, 5, 3)


def test_a_bound_beyond_double_precision_is_rejected_before_sampling(monkeypatch):
    def no_draw(*args):
        raise AssertionError("sampled before the bounds were checked")

    monkeypatch.setattr(harness, "_draw_chunk", no_draw)
    with pytest.raises(ValueError, match="bound at n=51[0-9] is inf"):
        verify_bounds(ClassSpec.full_s(), 560, 1, 1)
