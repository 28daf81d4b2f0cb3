"""Verification campaigns over randomly sampled class members.

Four entry points, all deterministic in (seed, sample index):

  cross_check   -- the two Gamma routes must agree on every sample
  verify_bounds -- |Gamma_n| of every sample stays under the class bound
  sharpness_check -- the named equality functions actually reach the bounds
  explore_convex_large_n -- probe the open orders of the convex class

Each sample draws its parameters under its own key (seed, index, attempt),
with the bits numpy's default generator seeded with the key would give, so
a campaign gives byte-identical reports. families.draw_members draws a
chunk's pending keys with one call, as keyed.Columns (the seed, arrays of
indices and attempts: numpy's seed sequence and PCG64 by array ops, one
uint64 lane per key), and the same call on a one-key list replays one row.
Each campaign check has one home:
_resolve_order checks every argument before sampling, so the one reason to
redraw, under the next attempt, is a member that is not finite (a draw
that raises is a fault; its error propagates);
bounds.bound_for refuses a bound beyond double precision; sharpness_check
alone evaluates the named equality functions, and verify_bounds reads its
sharpness_gap from sharpness_check's rows: each distinct function is built
once, and the bn route runs on all of them as one stack per campaign, up
to its largest bounded order.
VerifyReport.to_json and to_csv are byte-identical to the reference writers
in tests/_oracles.py (the whole payload through json's indent encoder, one
format per CSV cell). dumps and write_text are the package's one JSON
spelling and one sink (a path or stdout, 1 MiB at a time), reports and CLI
tables alike.

The sampled campaigns share one sample loop, _sample. It takes
_chunk_rows(order) = max(1, CHUNK_COEFFS // (order + 1)) sample indices at
a time, a budget of CHUNK_COEFFS = 2**14 member coefficients (1,638 samples
at order 9, 399 at order 40, 15 at MAX_ORDER), draws their keys as one
batch, builds their members as a (samples x order) array
(families.member_rows) and runs each Gamma route the campaign asks for on
it with one stacked call (gammas.gamma_via_bn; cross_check adds
gammas.gamma_via_reversion, one Horner table per member but the whole
chunk in one loop over the orders). The campaign gets each route's Gammas
for all its samples and grades them with one vectorized comparison; its
summary is numpy reductions over the samples axis, and its report keeps
those arrays as its rows' columns (_set_columns), written as text CHUNK =
256 samples at a time and made into row dicts only when asked. The two
chunks bound different things: the compute chunk holds enough coefficients
that numpy arithmetic, not the overhead of each call, sets a campaign's
speed, and few enough to stay in cache; the text chunk bounds the writers'
heap (text chunks of 1,638 samples raised perfbench's verify-wide-report
peak RSS from 82.8 to 88.7 MB). A row's bits do not depend on the rows
computed with it, so reports depend on neither chunk; one function is a
one-row stack through the same code. tests/_oracles.py is the reference
the routes are held to.
A campaign with no order given runs at n_max + 1: Gamma_n reads a_2..a_{n+1}
only, so a higher order changes nothing but the report's order field.

Violation grading: with excess the amount by which a sample oversteps
(|Gamma| - bound, or the route discrepancy), excess <= tol is "ok",
excess <= 10 tol is "numerical" (a tolerance-scale artifact), and anything
larger, NaN included, is "mathematical" (would falsify the claim being
tested). In every campaign, the rows flagged "numerical" or "mathematical"
are the report's violations.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import compress

import numpy as np

from . import families, gammas, keyed
from .bounds import bound_for
from .families import ClassSpec

CSV_COLUMNS = ("sample_id", "n", "abs_gamma", "bound", "branch", "margin", "flag")

VIOLATION_FLAGS = ("numerical", "mathematical")

DEFAULT_ABS_A = 0.5  # |omega(0)| the bounded-distortion bounds are taken at, unless given


def _flag(excess, tol: float):
    """The flag of an excess, or an object array of the flags of an array of
    them; NaN grades "mathematical"."""
    excess = np.asarray(excess)
    level = (~(excess <= tol)).astype(np.intp) + ~(excess <= 10.0 * tol)
    return np.array(("ok", "numerical", "mathematical"), dtype=object)[level]


def dumps(obj) -> str:
    """The one JSON spelling of reports and CLI tables: sorted keys, indent 2, no NaN."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def write_text(text: str, path: str | None = None):
    """Put text on path, or on sys.stdout without one, 1 MiB at a time: never encoded whole."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(text[i:i + (1 << 20)] for i in range(0, len(text), 1 << 20))


def _fmt17(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _format(values, fast, cell) -> list:
    """The texts of an array of cells: fast(value) for floats; otherwise,
    once per distinct value, repr for integers and cell for anything else."""
    kind, values = values.dtype.kind, values.tolist()
    if kind == "f":
        return list(map(fast, values))
    once = {v: int.__repr__(v) if kind in "iu" else cell(v) for v in set(values)}
    return list(map(once.__getitem__, values))


@dataclass
class VerifyReport:
    """Uniform result container for every campaign kind.

    rows (and violations, copies of the flagged rows) are flat dicts of JSON
    scalars (str, int, float, bool, None) with at least the seven CSV
    fields; JSON keeps any extras. A sampled campaign's report holds them as
    columns until rows or violations is read or set (_set_columns). to_json output
    is stable under a json load/dump round trip byte for byte; to_csv
    prints floats with 17 significant digits so values round-trip exactly.
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
    _columns = None  # name -> (samples, orders) array; None once row-backed

    def __post_init__(self):
        # a numpy integer seed is recorded, and keys draws, as the Python int it is
        if self.seed is not None:
            self.seed = operator.index(self.seed)

    def __getattr__(self, name):  # rows and violations of a column-backed report
        if name in ("rows", "violations") and self._columns is not None:
            self._build_rows()
            return self.__dict__[name]
        raise AttributeError(name)

    def __setattr__(self, name, value):
        if name in ("rows", "violations"):  # writing either makes the report row-backed
            self._build_rows()
        object.__setattr__(self, name, value)

    def counts(self) -> dict:  # rows per flag, in order of first appearance
        if self._columns is None:
            return dict(Counter(row["flag"] for row in self.rows))
        return dict(Counter(self._columns["flag"].ravel().tolist()))

    @property
    def mathematical_violations(self) -> list:
        if self._columns is not None:
            return self._dicts(self._columns["flag"] == "mathematical")
        return [v for v in self.violations if v.get("flag") == "mathematical"]

    @property
    def ok(self) -> bool:
        return not self.mathematical_violations

    def to_json(self) -> str:
        """dumps(payload), one key at a time. Rows and violations of a column-backed
        report with finite floats come from its columns."""
        cols = self._columns
        columnar = cols is not None and all(np.isfinite(col).all() for col in cols.values()
                                            if col.dtype.kind == "f")
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if not (columnar and f.name in ("rows", "violations"))}
        payload.update(counts=self.counts(), ok=self.ok)
        masks = {}
        if columnar:
            masks = {"rows": None, "violations": np.isin(cols["flag"], VIOLATION_FLAGS)}
            line = ",\n    {\n      " + ",\n      ".join(f"{json.dumps(name)}: %s"
                                                  for name in cols) + "\n    }"
        pieces, sep = [], "{"  # joined once, so the rows' text is copied once
        for key in sorted([*payload, *masks]):
            pieces.append(f'{sep}\n  "{key}": ')
            if key in masks:  # the rows' text starts with ","
                body = self._text(masks[key], cols, line, float.__repr__, json.dumps)
                pieces += ["[", body[0][1:], *body[1:], "\n  ]"] if body else ["[]"]
            else:  # indented one level: strings hold no raw newline
                pieces.append(dumps(payload[key]).replace("\n", "\n  "))
            sep = ","
        pieces.append("\n}\n")
        return "".join(pieces)

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        if self._columns is None:
            lines += [",".join(_fmt17(row[col]) for col in CSV_COLUMNS) for row in self.rows]
            return "\n".join(lines) + "\n"
        line = "\n" + ",".join(["%s"] * len(CSV_COLUMNS))
        return "".join(lines + self._text(None, CSV_COLUMNS, line, "%.17g".__mod__, _fmt17)
                       + ["\n"])

    def write(self, path: str | None, fmt: str = "json"):  # on stdout when path is None
        write_text(self.to_json() if fmt == "json" else self.to_csv(), path)

    def _chunks(self, mask) -> list:
        """(sample, order) indices of the rows mask selects (all when None), CHUNK
        samples at a time; rows run by sample, then by order."""
        samples, orders = self._columns["flag"].shape
        sel = np.arange(samples * orders) if mask is None else np.flatnonzero(mask)
        bounds = np.searchsorted(sel, np.arange(CHUNK, samples, CHUNK) * orders)
        return [np.divmod(rows, orders) for rows in np.split(sel, bounds) if rows.size]

    def _dicts(self, mask) -> list:
        cols, out = self._columns, []
        for s, k in self._chunks(mask):
            out += [dict(zip(cols, r)) for r in zip(*(c[s, k].tolist() for c in cols.values()))]
        return out

    def _build_rows(self):
        if self._columns is not None:
            flagged = np.isin(self._columns["flag"], VIOLATION_FLAGS).ravel()
            rows, self._columns = self._dicts(None), None
            self.__dict__.update(rows=rows, violations=list(map(dict, compress(rows, flagged))))

    def _text(self, mask, names, line, fast, cell) -> list:
        """The rows mask selects as text, one string per CHUNK of samples:
        line with a row's cells at its "%s" marks, one per column of names.
        A column constant along samples is formatted once, any other distinct
        column once per chunk; cells and line's pieces are joined at once."""
        cols, out = self._columns, []
        fixed = {name: np.array(_format(cols[name][0], fast, cell), dtype=object)
                 for name in names if not cols[name].strides[0]}
        for s, k in self._chunks(mask):
            texts = {}  # by array: cross_check's excess is its discrepancy
            for name in names:
                if id(cols[name]) not in texts:
                    texts[id(cols[name])] = (fixed[name][k] if name in fixed
                                             else _format(cols[name][s, k], fast, cell))
            cells = np.empty((len(k), 2 * len(names) + 1), dtype=object)
            cells[:, ::2] = line.split("%s")
            cells[:, 1::2] = np.array([texts[id(cols[name])] for name in names], dtype=object).T
            out.append("".join(cells.ravel().tolist()))
        return out


# ---------------------------------------------------------------------------
# sampling


# two chunks, for two resources (see the module docstring): the compute
# chunk bounds Python overhead against cache size, the text chunk bounds heap
CHUNK_COEFFS = 2 ** 14  # member coefficients per compute chunk: 256 KiB of complex128
CHUNK = 256  # samples per string of report text

MAX_ORDER = 1024  # the largest order a campaign or `invlog gamma` runs at; work grows as order^3
RADIUS_CAP = 0.95  # explore_convex_large_n's Blaschke radius cap, and verify_bounds' default


def _draw_chunk(spec: ClassSpec, seed: int, ids, order: int, radius_cap: float):
    """Members for the sample indices ids, as rows of one array, plus each
    member's |omega(0)| (0 for a Schwarz function, which fixes 0) and each
    index's attempt count.

    Pass k draws every index still pending under the key (seed, index, k),
    all with one families.draw_members call on keyed.Columns (the seed once,
    arrays of indices and attempts), and makes them members as one batch.
    A draw whose member row is not finite (an overflow) is redrawn under the
    next attempt rather than perturbed, so results stay reproducible; four
    attempts are allowed, and a sample with no usable one raises ValueError:
    the arguments ask for more than double precision holds, which is no
    finding about the class. The campaign's arguments are checked before any
    draw, so a draw that raises anyway is a fault, and its error propagates.
    """
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.empty((len(ids), order + 1), dtype=np.complex128)
    abs_a = np.zeros(len(ids))
    attempts = np.zeros(len(ids), dtype=np.int64)
    todo = np.arange(len(ids))
    for attempt in range(4):
        keys = keyed.Columns(seed, ids[todo], np.full(todo.size, attempt))
        draws = families.draw_members(spec, keys, radius_cap=radius_cap)
        if draws.abs_a is not None:
            abs_a[todo] = draws.abs_a
        # overflow shows up as a non-finite row, caught below
        members = families.member_rows(spec, draws, order)
        rows[todo] = members
        todo = todo[~np.isfinite(members).all(axis=1)]
        if not todo.size:
            return rows, abs_a, attempts.tolist()
        attempts[todo] += 1
    raise ValueError(f"sample {ids[todo[0]]}: no usable draw in 4 attempts "
                     "(non-finite coefficients)")


def _chunk_rows(order: int) -> int:
    """Samples per compute chunk at a series order: CHUNK_COEFFS coefficients'
    worth of member rows, and at least one."""
    return max(1, CHUNK_COEFFS // (order + 1))


def _resolve_order(n_max: int, order, tol: float = 0.0, seed=0, radius_cap=0.0, *,
                   samples: int = 1, n_min: int = 1) -> int:
    """The series order a campaign up to Gamma_{n_max} runs at. Every
    campaign calls this before any sampling, so it also rejects a sample
    count below 1, an order range n_min..n_max that is empty or starts
    below 1, a tolerance that cannot grade (a negative one flags every row,
    a NaN or infinite one cannot be serialized), a seed no draw can be keyed
    by (a bool is not taken for 0 or 1), a radius cap that would draw
    members outside the class and an order above MAX_ORDER."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got n_min={n_min}, n_max={n_max}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not 0 <= radius_cap < 1:
        raise ValueError(f"radius_cap must lie in [0, 1), got {radius_cap}")
    order = n_max + 1 if order is None else int(order)
    if order < n_max + 1:
        raise ValueError(f"order {order} cannot support Gamma_{n_max}; need >= {n_max + 1}")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} is above the largest supported order {MAX_ORDER}; "
                         "lower n_max or order")
    return order


def _sample(report: VerifyReport, spec: ClassSpec, radius_cap: float, *routes):
    """The sample loop of every sampled campaign. _chunk_rows(order) indices
    at a time, draw the members and run each Gamma route on them with one
    stacked call, so a chunk holds about CHUNK_COEFFS coefficients at any
    order. Returns each route's (samples, n_max) Gamma_1..Gamma_{n_max}, then
    the |omega(0)| column; resampled draws leave a note."""
    out = [np.empty((report.samples, report.n_max), dtype=np.complex128) for _ in routes]
    abs_a = np.empty(report.samples)
    rows, samples = _chunk_rows(report.order), np.arange(report.samples)
    for start in range(0, report.samples, rows):
        chunk = slice(start, start + rows)
        ids = samples[chunk]
        members, abs_a[chunk], attempts = _draw_chunk(spec, report.seed, ids, report.order,
                                                      radius_cap)
        for gams, route in zip(out, routes):
            gams[chunk] = route(members, report.n_max)
        report.notes += [f"sample {i}: resampled {tries} time(s)"
                         for i, tries in zip(ids.tolist(), attempts) if tries]
    return (*out, abs_a)


def _set_columns(report: VerifyReport, ns, **columns):
    """Hold a sampled campaign's rows as columns, one row per sample and
    order of ns: a column gives row (s, k) its entry at [s, k], broadcast to
    (samples, len(ns)). The rows' dicts are built only when asked for."""
    columns.update(sample_id=np.arange(report.samples)[:, None], n=np.asarray(ns)[None, :])
    shape, views = (report.samples, len(ns)), {}  # one view of an array given twice
    report._columns = {name: views.setdefault(id(col), np.broadcast_to(col, shape))
                       for name, col in sorted(columns.items())}
    del report.rows, report.violations


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
    report = VerifyReport(kind="cross-check", label=spec.label(), params=spec.params(),
                          n_max=n_max, order=order, samples=samples, seed=seed, tol=tol)
    gams, rev, _ = _sample(report, spec, radius_cap, gammas.gamma_via_bn,
                           gammas.gamma_via_reversion)
    disc = np.abs(rev - gams)
    _set_columns(report, range(1, n_max + 1), abs_gamma=np.abs(gams), bound=tol,
                 branch="path-equivalence", margin=tol - disc, flag=_flag(disc, tol),
                 excess=disc, discrepancy=disc)
    # a NaN discrepancy is flagged in its row; fmax keeps it out of the summary
    per_n_max = np.fmax.reduce(disc, axis=0, initial=0.0)
    report.summary = [{"n": n, "max_discrepancy": d}
                      for n, d in enumerate(per_n_max.tolist(), start=1)]
    report.max_discrepancy = float(per_n_max.max())
    report.notes.append(f"routes agree to {report.max_discrepancy:.3e} over "
                        f"{samples} samples x {n_max} orders")
    return report


def verify_bounds(spec: ClassSpec, n_max: int, samples: int, seed: int,
                  tol: float = 1e-9, *, order: int | None = None,
                  radius_cap: float = RADIUS_CAP) -> VerifyReport:
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
    report = VerifyReport(kind="verify", label=spec.label(), params=spec.params(),
                          n_max=n_max, order=order, samples=samples, seed=seed, tol=tol)
    # bound - max |Gamma| as the least margin: rounding is monotone, so the bits agree
    sharp = [] if per_sample else sharpness_check(spec, n_max, tol, order=order).rows
    gams, abs_a = _sample(report, spec, radius_cap, gammas.gamma_via_bn)
    results = ([[bound_for(spec, n, abs_a=a) for n in ns] for a in abs_a.tolist()]
               if per_sample else [static])
    bound = np.array([[res.value for res in row] for row in results])
    branch = np.array([[res.branch for res in row] for row in results], dtype=object)
    ag = np.abs(gams[:, np.subtract(ns, 1)])
    margin, excess = bound - ag, ag - bound
    _set_columns(report, ns, abs_gamma=ag, bound=bound, branch=branch, margin=margin,
                 flag=_flag(excess, tol), excess=excess)
    # a NaN row is flagged; fmax and fmin keep it out of the summary
    top = np.fmax.reduce(ag, axis=0, initial=0.0)
    least = np.fmin.reduce(margin, axis=0, initial=math.inf).tolist()
    lowest = np.fmin.reduce(bound, axis=0)
    report.summary = [{"n": n, "empirical_max_abs_gamma": t, "margin": m, "bound": b,
                       "branch": br, "sharpness_gap": min(
                           (row["margin"] for row in sharp if row["n"] == n and row["asserted"]),
                           default=None)}
                      for n, t, m, b, br in zip(ns, top.tolist(), least, lowest.tolist(),
                                                branch[0])]
    if per_sample:
        report.notes.append("bounds vary with each sample's omega(0); summary bound "
                            "and margin are the worst cases, sharpness_gap is per-run "
                            "(see sharpness_check)")
    report.max_discrepancy = max(0.0, -min(least))
    skipped = [n for n in range(1, n_max + 1) if n not in ns]
    if skipped:
        report.notes.append(f"orders without a bound, skipped: {skipped}")
    return report


def sharpness_check(spec: ClassSpec, n_max: int, tol: float = 1e-9, *,
                    order: int | None = None, abs_a: float = DEFAULT_ABS_A,
                    n_min: int = 1) -> VerifyReport:
    """Evaluate each bound's named equality functions at orders n_min..n_max
    and report the gap bound - |Gamma_n|, one row per function in the
    registry's order. Candidates marked asserted must close the gap to tol,
    on both sides of the bound; report-only candidates never fail the run.
    abs_a selects the bounded-distortion bound's omega(0) (its bounds are a
    one-parameter family).

    Within one (spec, order, abs_a) a label names one function at every n
    (the registry's rule), so each label is built once, and all of them go
    through the bn route as one stack up to the largest n. A row's Gamma_n
    has the bits of that function's one-row call at n alone."""
    order = _resolve_order(n_max, order, tol, n_min=n_min)
    report = VerifyReport(kind="sharpness", label=spec.label(), params=spec.params(),
                          n_max=n_max, order=order, samples=0, seed=None, tol=tol)
    results = [bound_for(spec, n, abs_a=abs_a) for n in range(n_min, n_max + 1)]
    cands = {res.n: spec.entry.candidates(spec, res.n, res.branch, order, abs_a)
             for res in results if res.applicable}
    builds = {}
    for per_n in cands.values():
        for name, build, _, _ in per_n:
            builds.setdefault(name, build)
    if builds:
        stack = np.concatenate([build() for build in builds.values()])
        gams = dict(zip(builds, gammas.gamma_via_bn(stack, max(cands))))
    gaps = []
    for res in results:
        n = res.n
        if not res.applicable:
            report.rows.append({"sample_id": "none", "n": n, "abs_gamma": None, "bound": None,
                                "branch": res.branch, "margin": None, "flag": "open",
                                "asserted": False, "note": res.note})
            continue
        if res.note:
            report.notes.append(f"n={n}: {res.note}")
        best = {"best_gap": math.inf, "best_candidate": ""}
        for name, _, asserted, note in cands[n]:
            # a scalar abs: np.abs on an array can differ from it in the last bit
            ag = float(abs(gams[name][n - 1]))
            gap = res.value - ag
            report.rows.append({"sample_id": name, "n": n, "abs_gamma": ag, "bound": res.value,
                                "branch": res.branch, "margin": gap,
                                "flag": _flag(abs(gap), tol) if asserted else "report-only",
                                "excess": abs(gap), "asserted": asserted, "note": note})
            if asserted:
                gaps.append(abs(gap))
            if gap < best["best_gap"]:  # a NaN gap never wins, and equal gaps go to the first
                best = {"best_gap": gap, "best_candidate": name}
        report.summary.append({"n": n, "bound": res.value, "branch": res.branch, **best})
    report.violations = [dict(row) for row in report.rows if row["flag"] in VIOLATION_FLAGS]
    report.max_discrepancy = float(max(gaps)) if gaps else None
    return report


def explore_convex_large_n(n_min: int, n_max: int, samples: int, seed: int, *,
                           order: int | None = None, tol: float = 1e-9) -> VerifyReport:
    """Probe whether 2n |Gamma_n| <= 1 survives on random convex functions at
    orders where it is neither proved nor refuted. Orders with a proved bound
    (n <= 3) are graded against it; beyond that, rows report the conjectured
    value 1/(2n) and flag overshoots "open" instead of failing, since exceeding
    it there answers a question rather than revealing a bug. A NaN |Gamma_n| is
    "mathematical" at every order."""
    spec = ClassSpec.f_alpha(0.0)
    order = _resolve_order(n_max, order, tol, seed, samples=samples, n_min=n_min)
    ns = range(n_min, n_max + 1)
    results = [bound_for(spec, n) for n in ns]
    conjectured = np.array([not res.applicable for res in results])
    bound = np.array([res.value if res.applicable else 1.0 / (2.0 * res.n) for res in results])
    branch = np.array([res.branch if res.applicable else "conjectured" for res in results],
                      dtype=object)
    report = VerifyReport(kind="explore", label=spec.label(), params=spec.params(),
                          n_max=n_max, order=order, samples=samples, seed=seed, tol=tol)
    gams, _ = _sample(report, spec, RADIUS_CAP, gammas.gamma_via_bn)
    ag = np.abs(gams[:, n_min - 1:])
    excess = ag - bound
    flag = _flag(excess, tol)
    flag[conjectured & (flag != "ok") & ~np.isnan(ag)] = "open"  # _flag's NaN rule stands
    _set_columns(report, ns, abs_gamma=ag, bound=bound, branch=branch, margin=bound - ag,
                 flag=flag, excess=excess)
    # a NaN row never wins; a tie goes to the earliest sample
    top = np.fmax.reduce(ag, axis=0, initial=0.0)
    first = np.where(top > 0.0, (ag == top).argmax(axis=0), -1)
    ratio = np.fmax.reduce(2.0 * np.asarray(ns) * ag, axis=0, initial=0.0)
    exceed = ((flag == "mathematical") | (flag == "open")).sum(axis=0)
    report.summary = [{"n": n, "max_abs_gamma": t, "max_ratio": r, "argmax_sample": i,
                       "exceed_count": c}
                      for n, t, r, i, c in zip(ns, top.tolist(), ratio.tolist(), first.tolist(),
                                               exceed.tolist())]
    report.notes.append("orders beyond 3 probe an open question; overshoots there "
                        "are reported as open, not failed")
    return report
