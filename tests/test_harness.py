"""Campaign harness: determinism, report shape, grading, honest gaps.

Campaigns here run with sample counts small enough for a fast suite; the
full-size runs live in the acceptance tests.
"""

import json
import math
import re

import numpy as np
import pytest

import _oracles
from invlog import families, gammas, harness, series
from invlog.families import ClassSpec
from invlog.series import AnalyticSeries
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
    for i, f in enumerate(members):
        g = AnalyticSeries(f)
        disc = np.abs(gammas.gamma_via_reversion(g, 6) - gammas.gamma_via_bn(g, 6))
        assert [row["discrepancy"] for row in rep.rows if row["sample_id"] == i] == disc.tolist()


def test_cross_check_overflow_is_a_bad_argument(monkeypatch):
    real = series.revert_rows

    def overflowing(f, order):
        out = real(f, order)
        out[3, -1] = np.inf
        return out

    monkeypatch.setattr(series, "revert_rows", overflowing)
    with pytest.raises(ValueError, match="coefficients must be finite"):
        cross_check(6, 1, 4)


def test_cross_check_reverts_each_chunk_in_one_call_of_the_public_names(monkeypatch):
    # perfbench's tracer times the reversion route through these two names
    calls = []
    for owner, name in ((gammas, "gamma_via_reversion"), (series, "revert")):
        def spy(f, n, real=getattr(owner, name), name=name):
            calls.append((name, f.shape[0]))
            return real(f, n)
        monkeypatch.setattr(owner, name, spy)
    cross_check(harness.CHUNK + 5, 2, 4)
    assert calls == [("gamma_via_reversion", harness.CHUNK), ("revert", harness.CHUNK),
                     ("gamma_via_reversion", 5), ("revert", 5)]


@pytest.mark.parametrize("campaign", [
    lambda n: cross_check(n, 2, 4),
    lambda n: verify_bounds(ClassSpec.gc(0.5), 4, n, 2),
    lambda n: explore_convex_large_n(1, 4, n, 2),
], ids=["cross-check", "verify", "explore"])
def test_sampled_campaigns_run_the_bn_route_once_per_chunk(monkeypatch, campaign):
    # perfbench's tracer times the bn route through this name; verify's
    # sharp gaps call it on one Series each, which is not a chunk
    stacks = []
    real = gammas.gamma_via_bn

    def spy(f, n_max):
        if isinstance(f, np.ndarray):
            stacks.append((f.shape, n_max))
        return real(f, n_max)

    monkeypatch.setattr(gammas, "gamma_via_bn", spy)
    rep = campaign(harness.CHUNK + 5)
    assert stacks == [((harness.CHUNK, rep.order + 1), 4), ((5, rep.order + 1), 4)]


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


@pytest.mark.parametrize("spec", [spec for spec in EVERY_CLASS
                                  if not spec.entry.per_sample_bound], ids=ClassSpec.label)
def test_verify_sharpness_gap_is_the_least_asserted_margin_of_sharpness_check(spec):
    # bound - max |Gamma| and min (bound - |Gamma|) round alike, bit for bit
    verify, sharp = verify_bounds(spec, 8, 5, 1), sharpness_check(spec, 8, order=9)
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


@pytest.mark.parametrize("seed", [-1, 2.5, "3"])
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
    spec = ClassSpec.gc(0.5)
    f1, draws1, att1 = harness._draw_chunk(spec, 42, [7], 12, 0.9)
    f2, draws2, att2 = harness._draw_chunk(spec, 42, [7], 12, 0.9)
    assert np.array_equal(f1, f2)
    assert draws1 == draws2 and att1 == att2 == [0]
    f3, _, _ = harness._draw_chunk(spec, 42, [8], 12, 0.9)
    assert not np.array_equal(f1, f3)
    # a member's row does not depend on the indices drawn with it
    rows, _, _ = harness._draw_chunk(spec, 42, range(5, 10), 12, 0.9)
    assert np.array_equal(rows[2], f1[0])
    assert np.array_equal(rows[3], f3[0])


def _campaign_bytes():
    reports = [verify_bounds(spec, 8, 12, 3) for spec in EVERY_CLASS]
    reports += [cross_check(12, 3, 8), explore_convex_large_n(1, 9, 12, 3)]
    return [rep.to_json() + rep.to_csv() for rep in reports]


def test_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    reference = _campaign_bytes()  # 12 samples: one chunk
    for chunk in (1, 7):
        monkeypatch.setattr(harness, "CHUNK", chunk)
        assert _campaign_bytes() == reference, f"CHUNK = {chunk}"


# every sampled campaign redraws a member that is not finite under a fresh
# key; real campaigns almost never do, so the draw is made to fail on purpose
SAMPLED_CAMPAIGNS = pytest.mark.parametrize("campaign", [
    lambda: cross_check(5, 3, 4),
    lambda: verify_bounds(ClassSpec.gc(0.5), 4, 5, 3),
    lambda: explore_convex_large_n(1, 4, 5, 3),
], ids=["cross-check", "verify", "explore"])


@SAMPLED_CAMPAIGNS
def test_a_non_finite_member_is_redrawn(monkeypatch, campaign):
    draw = families.sample_schwarz

    def first_attempt_of_sample_2_overflows(key, *args, **kwargs):
        phi = draw(key, *args, **kwargs)
        if key[1:] == (2, 0):  # a NaN rotation makes every coefficient NaN
            return families.SchwarzFn(math.nan, phi.multiplicity, phi.factors)
        return phi

    monkeypatch.setattr(families, "sample_schwarz", first_attempt_of_sample_2_overflows)
    monkeypatch.setattr(harness, "CHUNK", 3)
    rep = campaign()
    assert [n for n in rep.notes if "resampled" in n] == ["sample 2: resampled 1 time(s)"]
    assert len(rep.rows) == 5 * 4
    assert [row["sample_id"] for row in rep.rows[::4]] == [0, 1, 2, 3, 4]
    assert all(math.isfinite(row["abs_gamma"]) for row in rep.rows)


@SAMPLED_CAMPAIGNS
def test_a_draw_that_raises_is_not_retried(monkeypatch, campaign):
    # arguments are checked before sampling, so a raising draw is a bug to
    # surface as it is, not a degenerate draw to retry
    calls = []

    def broken_draw(key, *args, **kwargs):
        calls.append(key)
        raise ValueError("boom")

    monkeypatch.setattr(families, "sample_schwarz", broken_draw)
    with pytest.raises(ValueError, match="^boom$"):
        campaign()
    assert calls == [(3, 0, 0)]


@pytest.mark.parametrize("radius_cap", [1.0, 1.5, -0.1, math.nan])
def test_sampled_campaigns_reject_a_bad_radius_cap_before_sampling(monkeypatch, radius_cap):
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before radius_cap was checked")

    monkeypatch.setattr(families, "sample_member", no_draw)
    campaigns = [lambda spec: cross_check(5, 3, 4, spec=spec, radius_cap=radius_cap),
                 lambda spec: verify_bounds(spec, 4, 5, 3, radius_cap=radius_cap)]
    for spec in (ClassSpec.gc(0.5), ClassSpec.u_lambda(0.5)):
        for campaign in campaigns:
            with pytest.raises(ValueError, match=r"radius_cap must lie in \[0, 1\)"):
                campaign(spec)
    with pytest.raises(ValueError, match=r"radius_cap must lie in \[0, 1\)"):
        explore_convex_large_n(1, 4, 5, 3, radius_cap=radius_cap)


def test_draw_gives_up_on_four_non_finite_members(monkeypatch):
    def always_nan(key, *args, **kwargs):
        return families.SchwarzFn(math.nan)

    monkeypatch.setattr(families, "sample_schwarz", always_nan)
    with pytest.raises(RuntimeError, match=r"sample 0: no usable draw in 4 attempts "
                                           r"\(non-finite coefficients\)"):
        verify_bounds(ClassSpec.gc(0.5), 4, 5, 3)


def test_a_bound_beyond_double_precision_is_rejected_before_sampling(monkeypatch):
    def no_draw(*args):
        raise AssertionError("sampled before the bounds were checked")

    monkeypatch.setattr(harness, "_draw_chunk", no_draw)
    with pytest.raises(ValueError, match="bound at n=51[0-9] is inf"):
        verify_bounds(ClassSpec.full_s(), 560, 1, 1)
