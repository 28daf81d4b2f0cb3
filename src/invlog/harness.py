"""Verification campaigns over randomly sampled class members.

Four entry points, all deterministic in (seed, sample index):

  cross_check   -- the two Gamma routes must agree on every sample
  verify_bounds -- |Gamma_n| of every sample stays under the class bound
  sharpness_check -- the named equality functions actually reach the bounds
  explore_convex_large_n -- probe the open orders of the convex class

Per-sample randomness comes from numpy's counter-style seeding with the key
(seed, index, attempt), so a campaign gives byte-identical reports. Each
campaign check has one home: _resolve_order checks every argument before
sampling, so the one reason to redraw, under the next attempt, is a member
that is not finite (a draw that raises is a fault; its error propagates);
bounds.bound_for refuses a bound beyond double precision; _candidate_rows
evaluates the named equality functions for sharpness_check's rows and
verify_bounds' sharpness_gap alike.
VerifyReport.to_json and to_csv are byte-identical to the reference writers
in tests/_oracles.py (the whole payload through json's indent encoder, one
format per CSV cell). to_json encodes the rows, flat dicts of JSON scalars,
with one call of the C encoder and rewrites only the list level; see
_rows_json for why that finds exactly the row boundaries.

The sampled campaigns share one chunked loop, _sample_rows. It takes CHUNK
sample indices at a time; each index draws its parameters under its own
key, then the chunk's members and their bn-route Gammas are computed as
(samples x order) arrays (families.member_rows, then one call of
gammas.gamma_via_bn on the chunk's rows). Each chunk is graded by one
vectorized comparison, folded into the per-order summary by numpy
reductions, and its rows are built in index order. A row's bits do not
depend on the rows computed with it, so reports do not depend on CHUNK. The
Series API (member_from_schwarz, u_lambda_member, and both routes on a
Series) runs the same row functions on one row; tests/_oracles.py is the
reference both are held to. cross_check runs the reversion route on the
same chunk arrays too (gammas.gamma_via_reversion of the member rows), one
Horner table per member but the whole chunk in one loop over the orders.
A campaign with no order given runs at n_max + 1: Gamma_n reads a_2..a_{n+1}
only, so a higher order changes nothing but the report's order field.

Violation grading: with excess the amount by which a sample oversteps
(|Gamma| - bound, or the route discrepancy), excess <= tol is "ok",
excess <= 10 tol is "numerical" (a tolerance-scale artifact), and anything
larger, NaN included, is "mathematical" (would falsify the claim being
tested).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from . import families, gammas
from .bounds import bound_for
from .families import ClassSpec

CSV_COLUMNS = ("sample_id", "n", "abs_gamma", "bound", "branch", "margin", "flag")

DEFAULT_ABS_A = 0.5  # |omega(0)| the bounded-distortion bounds are taken at, unless given


def _flag(excess, tol: float):
    """The flag of an excess, or an object array of the flags of an array of
    them; NaN grades "mathematical"."""
    excess = np.asarray(excess)
    level = (~(excess <= tol)).astype(np.intp) + ~(excess <= 10.0 * tol)
    return np.array(("ok", "numerical", "mathematical"), dtype=object)[level]


def _fmt17(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass
class VerifyReport:
    """Uniform result container for every campaign kind.

    rows (and violations, copies of rows) are flat dicts of JSON scalars
    (str, int, float, bool, None) with at least the seven CSV fields; JSON
    keeps any extras. to_json output is stable under a json load/dump round
    trip byte for byte; to_csv prints floats with 17 significant digits so
    values round-trip exactly.
    """

    kind: str
    label: str
    params: dict
    n_max: int
    order: int
    samples: int
    seed: int | None
    tol: float
    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    max_discrepancy: float | None = None

    def counts(self) -> dict:
        out = {}
        for row in self.rows:
            out[row["flag"]] = out.get(row["flag"], 0) + 1
        return out

    @property
    def mathematical_violations(self) -> list:
        return [v for v in self.violations if v.get("flag") == "mathematical"]

    @property
    def ok(self) -> bool:
        return not self.mathematical_violations

    def to_json(self) -> str:
        """json.dumps(payload, sort_keys=True, indent=2, allow_nan=False),
        with rows and violations written by the C encoder (_rows_json)."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload.update(counts=self.counts(), ok=self.ok)
        pieces, sep = [], "{"  # joined once, so the rows' text is copied once
        for key in sorted(payload):
            pieces.append(f'{sep}\n  "{key}": ')
            if key in ("rows", "violations"):
                pieces += _rows_json(payload[key])
            else:  # indented one level: strings hold no raw newline
                pieces.append(json.dumps(payload[key], sort_keys=True, indent=2,
                                         allow_nan=False).replace("\n", "\n  "))
            sep = ","
        pieces.append("\n}\n")
        return "".join(pieces)

    def to_csv(self) -> str:
        # one %-format per row, built from its cells' types to give each cell
        # _fmt17's text: "%.0s" prints None as nothing
        cells_of = operator.itemgetter(*CSV_COLUMNS)
        formats = {}
        lines = [",".join(CSV_COLUMNS)]
        for cells in map(cells_of, self.rows):
            types = tuple(map(type, cells))
            fmt = formats.get(types)
            if fmt is None:
                fmt = formats[types] = ",".join(
                    "%.17g" if issubclass(t, float) else "%.0s" if t is type(None) else "%s"
                    for t in types)
            lines.append(fmt % cells)
        return "\n".join(lines) + "\n"

    def write(self, path: str, fmt: str = "json"):
        text = self.to_json() if fmt == "json" else self.to_csv()
        with open(path, "w") as fh:
            fh.write(text)


def _rows_json(rows: list) -> list:
    """A list of rows as json.dumps(indent=2) writes it at the payload's first
    level, in pieces, encoded by one call of the C encoder.

    With item separator ",\n" + 6 spaces, the C encoder already writes each
    row's members one per line at the indent=2 depth; only the list level is
    rewritten. It writes a raw newline only inside a separator (strings
    escape theirs), and inside a flat row a separator is always followed by
    a key's quote, so "}" + separator + "{" occurs exactly at row boundaries.
    """
    if not rows:
        return ["[]"]
    try:
        text = json.dumps(rows, sort_keys=True, allow_nan=False,
                          separators=(",\n      ", ": "))[2:-2]
    except ValueError:
        # name the first value out of range, as the indent encoder does
        for row in rows:
            for _, value in sorted(row.items()):
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError("Out of range float values are not JSON compliant: "
                                     + repr(value)) from None
        raise
    return ["[\n    {\n      ", text.replace("},\n      {", "\n    },\n    {\n      "),
            "\n    }\n  ]"]


# ---------------------------------------------------------------------------
# sampling


CHUNK = 256  # sample indices drawn and computed as one batch


def _draw_chunk(spec: ClassSpec, seed, ids, order: int, radius_cap: float):
    """Members for the sample indices ids, as rows of one array, plus each
    index's parameter draw and attempt count.

    Each index draws its parameters under the key (seed, index, attempt).
    A draw whose member row is not finite (an overflow) is redrawn under the
    next attempt rather than perturbed, so results stay reproducible; four
    attempts are allowed. The campaign's arguments are checked before any
    draw, so a draw that raises anyway is a fault, and its error propagates.
    Each pass turns all pending draws into members as one batch.
    """
    rows = np.empty((len(ids), order + 1), dtype=np.complex128)
    draws = [None] * len(ids)
    attempts = [0] * len(ids)
    todo = list(range(len(ids)))
    while todo:
        for j in todo:
            draws[j] = families.sample_member(spec, (seed, ids[j], attempts[j]),
                                              radius_cap=radius_cap)
        # overflow shows up as a non-finite row, caught below
        with np.errstate(all="ignore"):
            batch = families.member_rows(spec, [draws[j] for j in todo], order)
        rows[todo] = batch
        todo = [j for j, ok in zip(todo, np.isfinite(batch).all(axis=1)) if not ok]
        for j in todo:
            attempts[j] += 1
            if attempts[j] == 4:
                raise RuntimeError(f"sample {ids[j]}: no usable draw in 4 attempts "
                                   "(non-finite coefficients)")
    return rows, draws, attempts


def _resolve_order(n_max: int, order, tol: float = 0.0, seed=0, radius_cap=0.0, *,
                   samples: int = 1, n_min: int = 1) -> int:
    """The series order a campaign up to Gamma_{n_max} runs at. Every
    campaign calls this before any sampling, so it also rejects a sample
    count below 1, an order range n_min..n_max that is empty or starts
    below 1, a tolerance that cannot grade (a negative one flags every row,
    a NaN or infinite one cannot be serialized), a seed no draw can be keyed
    by and a radius cap that would draw members outside the class."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got n_min={n_min}, n_max={n_max}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not 0 <= radius_cap < 1:
        raise ValueError(f"radius_cap must lie in [0, 1), got {radius_cap}")
    if order is None:
        return n_max + 1
    order = int(order)
    if order < n_max + 1:
        raise ValueError(f"order {order} cannot support Gamma_{n_max}; need >= {n_max + 1}")
    return order


def _chunk_rows(ids, ns, abs_gamma, bound, branch, margin, flag, excess) -> list:
    """One row per sample of ids and order of ns, in index order and by
    ascending n within a sample. An array column gives row (s, k) its
    [s, k] entry, broadcast to (len(ids), len(ns)); any other column gives
    every row its value as is."""
    shape = (len(ids), len(ns))

    def cells(col):
        col = col if isinstance(col, np.ndarray) else np.array(col, dtype=object)
        return np.broadcast_to(col, shape).ravel().tolist()

    # keys in sorted order: to_json's sort_keys pass then finds each row sorted
    return [{"abs_gamma": ag, "bound": b, "branch": br, "excess": e, "flag": f,
             "margin": m, "n": n, "sample_id": i}
            for i, n, ag, b, br, m, f, e in zip(
                *map(cells, (np.asarray(ids)[:, None], np.asarray(ns), abs_gamma, bound,
                             branch, margin, flag, excess)))]


def _sample_rows(report: VerifyReport, spec: ClassSpec, radius_cap: float, rows_of):
    """The sample loop of every sampled campaign. CHUNK indices at a time,
    draw the members and compute their Gamma_1..Gamma_{n_max} by the bn route
    as arrays; rows_of(ids, members, gammas, draws) grades the chunk, folds
    it into the caller's summary and returns its rows in index order, which
    are appended to the report. Rows flagged neither ok nor open become
    violations; resampled draws leave a note."""
    for start in range(0, report.samples, CHUNK):
        ids = range(start, min(start + CHUNK, report.samples))
        members, draws, attempts = _draw_chunk(spec, report.seed, ids, report.order,
                                               radius_cap)
        gams = gammas.gamma_via_bn(members, report.n_max)  # one stacked call per chunk
        report.notes += [f"sample {i}: resampled {tries} time(s)"
                         for i, tries in zip(ids, attempts) if tries]
        rows = rows_of(ids, members, gams, draws)
        report.rows += rows
        report.violations += [dict(row) for row in rows if row["flag"] not in ("ok", "open")]


def _candidate_rows(spec: ClassSpec, res, order: int, abs_a: float, tol: float) -> list:
    """One sharpness row per named equality function of the clause that gave
    the bound res, in the registry's order, with margin bound - |Gamma_n|.
    An asserted candidate is graded on both sides of the bound (an equality
    function must reach it); any other is "report-only"."""
    n, rows = res.n, []
    for name, f, asserted, note in spec.entry.candidates(spec, n, res.branch, order, abs_a):
        ag = float(abs(gammas.gamma_via_bn(f, n)[n - 1]))
        gap = res.value - ag
        rows.append({"sample_id": name, "n": n, "abs_gamma": ag, "bound": res.value,
                     "branch": res.branch, "margin": gap,
                     "flag": _flag(abs(gap), tol) if asserted else "report-only",
                     "excess": abs(gap), "asserted": asserted, "note": note})
    return rows


# ---------------------------------------------------------------------------
# campaigns


def cross_check(samples: int, seed: int, n_max: int, tol: float = 1e-10, *,
                spec: ClassSpec | None = None, order: int | None = None,
                radius_cap: float = 0.8) -> VerifyReport:
    """Compute Gamma_1..Gamma_{n_max} by reversion and by the reversion-free
    identity on every sample; the two must agree to tol.

    The default radius cap is tighter than the bound campaigns': near-boundary
    samples push inverse coefficients to ~1e5, where agreement to 1e-10 is
    below one ulp of the values compared.
    """
    spec = spec if spec is not None else ClassSpec.star_ab(1.0, -1.0)
    order = _resolve_order(n_max, order, tol, seed, radius_cap, samples=samples)

    per_n_max = np.zeros(n_max)

    def rows_of(ids, members, gams, draws):
        rev = gammas.gamma_via_reversion(members, n_max)  # one stacked call per chunk
        disc = np.abs(rev - gams)
        # a NaN discrepancy is flagged in its row; fmax keeps it out of the summary
        np.fmax(per_n_max, np.fmax.reduce(disc, axis=0), out=per_n_max)
        rows = _chunk_rows(ids, range(1, n_max + 1), abs_gamma=np.abs(gams), bound=tol,
                           branch="path-equivalence", margin=tol - disc,
                           flag=_flag(disc, tol), excess=disc)
        for row in rows:
            row["discrepancy"] = row["excess"]
        return rows

    report = VerifyReport(kind="cross-check", label=spec.label(), params=spec.params(),
                          n_max=n_max, order=order, samples=samples, seed=seed, tol=tol)
    _sample_rows(report, spec, radius_cap, rows_of)
    report.summary = [{"n": n, "max_discrepancy": float(per_n_max[n - 1])}
                      for n in range(1, n_max + 1)]
    report.max_discrepancy = float(per_n_max.max())
    report.notes.append(f"routes agree to {report.max_discrepancy:.3e} over "
                        f"{samples} samples x {n_max} orders")
    return report


def verify_bounds(spec: ClassSpec, n_max: int, samples: int, seed: int,
                  tol: float = 1e-9, *, order: int | None = None,
                  radius_cap: float = 0.95) -> VerifyReport:
    """Check |Gamma_n| <= bound on random members, for every n with a bound.

    Bounds are per-class constants except for the bounded-distortion class,
    where the bound depends on the sample's own omega(0).
    """
    order = _resolve_order(n_max, order, tol, seed, radius_cap, samples=samples)
    # which orders have a bound does not depend on omega(0)
    static = [res for res in (bound_for(spec, n, abs_a=DEFAULT_ABS_A)
                              for n in range(1, n_max + 1)) if res.applicable]
    if not static:
        raise ValueError(f"no applicable bounds for {spec.label()} with n_max={n_max}")
    ns = [res.n for res in static]
    per_sample = spec.entry.per_sample_bound
    stats: dict[int, dict] = {}

    def rows_of(ids, members, gams, draws):
        results = ([[bound_for(spec, n, abs_a=d.abs_a) for n in ns] for d in draws]
                   if per_sample else [static])
        bound = np.array([[res.value for res in row] for row in results])
        branch = np.array([[res.branch for res in row] for row in results], dtype=object)
        ag = np.abs(gams[:, np.subtract(ns, 1)])
        margin, excess = bound - ag, ag - bound
        # a NaN row is flagged; fmax and fmin keep it out of the summary
        for k, n in enumerate(ns):
            st = stats.setdefault(n, {"empirical_max_abs_gamma": 0.0, "margin": math.inf,
                                      "bound": float(bound[0, k]), "branch": branch[0, k]})
            st["empirical_max_abs_gamma"] = float(
                np.fmax.reduce(ag[:, k], initial=st["empirical_max_abs_gamma"]))
            st["margin"] = float(np.fmin.reduce(margin[:, k], initial=st["margin"]))
            st["bound"] = float(np.fmin.reduce(bound[:, k], initial=st["bound"]))
        return _chunk_rows(ids, ns, abs_gamma=ag, bound=bound, branch=branch, margin=margin,
                           flag=_flag(excess, tol), excess=excess)

    report = VerifyReport(kind="verify", label=spec.label(), params=spec.params(),
                          n_max=n_max, order=order, samples=samples, seed=seed, tol=tol)
    # bound - max |Gamma| as the least margin: rounding is monotone, so the bits agree
    sharp_gaps = {} if per_sample else {
        res.n: min((row["margin"] for row in _candidate_rows(spec, res, order, DEFAULT_ABS_A, tol)
                    if row["asserted"]), default=None) for res in static}
    _sample_rows(report, spec, radius_cap, rows_of)
    report.summary = [{"n": n, **stats[n], "sharpness_gap": sharp_gaps.get(n)}
                      for n in sorted(stats)]
    if per_sample:
        report.notes.append("bounds vary with each sample's omega(0); summary bound "
                            "and margin are the worst cases, sharpness_gap is per-run "
                            "(see sharpness_check)")
    worst = min((st["margin"] for st in stats.values()), default=None)
    report.max_discrepancy = None if worst is None else float(max(0.0, -worst))
    skipped = [n for n in range(1, n_max + 1) if n not in stats]
    if skipped:
        report.notes.append(f"orders without a bound, skipped: {skipped}")
    return report


def sharpness_check(spec: ClassSpec, n_max: int, tol: float = 1e-9, *,
                    order: int | None = None, abs_a: float = DEFAULT_ABS_A,
                    n_min: int = 1) -> VerifyReport:
    """Evaluate each bound's named equality function at orders n_min..n_max
    and report the gap bound - |Gamma_n|. Candidates marked asserted must
    close the gap to tol; report-only candidates never fail the run. abs_a
    selects the bounded-distortion bound's omega(0) (its bounds are a
    one-parameter family)."""
    order = _resolve_order(n_max, order, tol, n_min=n_min)
    report = VerifyReport(kind="sharpness", label=spec.label(), params=spec.params(),
                          n_max=n_max, order=order, samples=0, seed=None, tol=tol)
    gaps = []
    for n in range(n_min, n_max + 1):
        res = bound_for(spec, n, abs_a=abs_a)
        if not res.applicable:
            report.rows.append({"sample_id": "none", "n": n, "abs_gamma": None,
                                "bound": None, "branch": res.branch, "margin": None,
                                "flag": "open", "asserted": False, "note": res.note})
            continue
        if res.note:
            report.notes.append(f"n={n}: {res.note}")
        rows = _candidate_rows(spec, res, order, abs_a, tol)
        report.rows += rows
        asserted = [row for row in rows if row["asserted"]]
        gaps += [row["excess"] for row in asserted]
        report.violations += [dict(row) for row in asserted if row["flag"] != "ok"]
        best = {"best_gap": math.inf, "best_candidate": ""}
        for row in rows:  # a NaN gap never wins, and equal gaps go to the first
            if row["margin"] < best["best_gap"]:
                best = {"best_gap": row["margin"], "best_candidate": row["sample_id"]}
        report.summary.append({"n": n, "bound": res.value, "branch": res.branch, **best})
    report.max_discrepancy = float(max(gaps)) if gaps else None
    return report


def explore_convex_large_n(n_min: int, n_max: int, samples: int, seed: int, *,
                           order: int | None = None, radius_cap: float = 0.95,
                           tol: float = 1e-9) -> VerifyReport:
    """Probe whether 2n |Gamma_n| <= 1 survives on random convex functions at
    orders where it is neither proved nor refuted. Orders up to 3 are graded
    against the proved bounds; beyond that, rows report the conjectured value
    1/(2n) and flag overshoots "open" instead of failing, since exceeding it
    there answers a question rather than revealing a bug."""
    spec = ClassSpec.f_alpha(0.0)
    order = _resolve_order(n_max, order, tol, seed, radius_cap, samples=samples, n_min=n_min)
    ns = range(n_min, n_max + 1)
    proved = {n: bound_for(spec, n) for n in ns if n <= 3}
    bound = np.array([proved[n].value if n in proved else 1.0 / (2.0 * n) for n in ns])
    branch = np.array([proved[n].branch if n in proved else "conjectured" for n in ns],
                      dtype=object)
    conjectured = np.array([n not in proved for n in ns])
    stats: dict[int, dict] = {}

    def rows_of(ids, members, gams, draws):
        ag = np.abs(gams[:, n_min - 1:])
        excess = ag - bound
        flag = np.where(conjectured, np.where(ag > bound + tol, "open", "ok").astype(object),
                        _flag(excess, tol))
        for k, n in enumerate(ns):
            st = stats.setdefault(n, {"max_abs_gamma": 0.0, "max_ratio": 0.0,
                                      "argmax_sample": -1, "exceed_count": 0})
            col = ag[:, k]
            top = np.fmax.reduce(col)
            if top > st["max_abs_gamma"]:  # a tie goes to the earliest sample
                st["max_abs_gamma"] = float(top)
                st["argmax_sample"] = ids[int(np.argmax(col == top))]
            st["max_ratio"] = float(np.fmax.reduce(2.0 * n * col, initial=st["max_ratio"]))
            st["exceed_count"] += int(((flag[:, k] == "mathematical")
                                       | (flag[:, k] == "open")).sum())
        return _chunk_rows(ids, ns, abs_gamma=ag, bound=bound, branch=branch,
                           margin=bound - ag, flag=flag, excess=excess)

    report = VerifyReport(kind="explore", label=spec.label(), params=spec.params(),
                          n_max=n_max, order=order, samples=samples, seed=seed, tol=tol)
    _sample_rows(report, spec, radius_cap, rows_of)
    report.summary = [{"n": n, **stats[n]} for n in sorted(stats)]
    report.notes.append("orders beyond 3 probe an open question; overshoots there "
                        "are reported as open, not failed")
    return report
