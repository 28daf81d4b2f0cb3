"""Verification campaigns over randomly sampled class members.

Four entry points, all deterministic in (seed, sample index):

  cross_check   -- the two Gamma routes must agree on every sample
  verify_bounds -- |Gamma_n| of every sample stays under the class bound
  sharpness_check -- the named equality functions actually reach the bounds
  explore_convex_large_n -- probe the open orders of the convex class

Per-sample randomness comes from numpy's counter-style seeding with the key
(seed, index, attempt), so a campaign gives byte-identical reports.

The sampled campaigns share one chunked loop, _sample_rows. It takes CHUNK
sample indices at a time; each index draws its parameters under its own
key, then the chunk's members and their bn-route Gammas are computed as
(samples x order) arrays (families.member_rows, gammas.gamma_rows_via_bn on
the row kernels of series). Rows are built, graded and folded in index
order. A row's bits do not depend on the rows computed with it, so reports
do not depend on CHUNK. The Series API (member_from_schwarz,
u_lambda_member, gamma_via_bn) is a validating one-row wrapper over the
same row functions; tests/_oracles.py is the reference both are held to.
cross_check still runs the reversion route sample by sample, on a Series
of each member row.

Violation grading: with excess the amount by which a sample oversteps
(|Gamma| - bound, or the route discrepancy), excess <= tol is "ok",
excess <= 10 tol is "numerical" (a tolerance-scale artifact), and anything
larger is "mathematical" (would falsify the claim being tested).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import families, gammas
from .bounds import bound_for
from .families import ClassSpec
from .series import AnalyticSeries

CSV_COLUMNS = ("sample_id", "n", "abs_gamma", "bound", "branch", "margin", "flag")

DEFAULT_ORDER_MARGIN = 8  # campaign order = n_max + this, unless overridden


def _flag(excess: float, tol: float) -> str:
    if excess <= tol:
        return "ok"
    if excess <= 10.0 * tol:
        return "numerical"
    return "mathematical"


def _fmt17(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass
class VerifyReport:
    """Uniform result container for every campaign kind.

    rows carry at least the seven CSV fields; JSON keeps any extras.
    to_json output is stable under a json load/dump round trip byte for
    byte; to_csv prints floats with 17 significant digits so values
    round-trip exactly.
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
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload.update(counts=self.counts(), ok=self.ok)
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(_fmt17(row[col]) for col in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def write(self, path: str, fmt: str = "json"):
        text = self.to_json() if fmt == "json" else self.to_csv()
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# sampling


CHUNK = 256  # sample indices drawn and computed as one batch


def _draw_chunk(spec: ClassSpec, seed, ids, order: int, radius_cap: float):
    """Members for the sample indices ids, as rows of one array, plus each
    index's parameter draw and attempt count.

    Each index draws its parameters under the key (seed, index, attempt);
    a draw that raises, or whose member row is not finite, is retried under
    the next attempt rather than perturbed, so results stay reproducible.
    Each pass turns all pending draws into members as one batch.
    """
    rows = np.empty((len(ids), order + 1), dtype=np.complex128)
    draws = [None] * len(ids)
    attempts = [0] * len(ids)
    last = [None] * len(ids)
    todo = list(range(len(ids)))
    while todo:
        for j in todo:
            while draws[j] is None:
                if attempts[j] == 4:
                    raise RuntimeError(f"sample {ids[j]}: no usable draw in 4 attempts "
                                       f"({last[j]})")
                try:
                    draws[j] = families.sample_member(spec, (seed, ids[j], attempts[j]),
                                                      radius_cap=radius_cap)
                except (ValueError, FloatingPointError) as exc:
                    last[j] = str(exc)
                    attempts[j] += 1
        # overflow shows up as a non-finite row, caught below
        with np.errstate(all="ignore"):
            batch = families.member_rows(spec, [draws[j] for j in todo], order)
        finite = np.isfinite(batch).all(axis=1)
        rows[todo] = batch
        redo = [j for j, ok in zip(todo, finite) if not ok]
        for j in redo:
            draws[j] = None
            last[j] = "non-finite coefficients"
            attempts[j] += 1
        todo = redo
    return rows, draws, attempts


def _resolve_order(n_max: int, order, tol: float = 0.0) -> int:
    """The series order a campaign up to Gamma_{n_max} runs at. Every
    campaign calls this before any sampling, so it also rejects a tolerance
    that cannot grade: a negative one flags every row, a NaN or infinite one
    cannot be serialized."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if order is None:
        return n_max + DEFAULT_ORDER_MARGIN
    order = int(order)
    if order < n_max + 1:
        raise ValueError(f"order {order} cannot support Gamma_{n_max}; need >= {n_max + 1}")
    return order


def _graded_row(sample_id, n: int, ag: float, bound: float, branch: str, tol: float) -> dict:
    """The row for |Gamma_n| = ag, graded against a bound it must not exceed."""
    return {"sample_id": sample_id, "n": n, "abs_gamma": ag, "bound": bound, "branch": branch,
            "margin": bound - ag, "flag": _flag(ag - bound, tol), "excess": ag - bound}


def _sample_rows(report: VerifyReport, spec: ClassSpec, radius_cap: float, rows_of):
    """The sample loop of every sampled campaign. CHUNK indices at a time,
    draw the members and compute their Gamma_1..Gamma_{n_max} by the bn route
    as arrays; then, in index order, append rows_of(i, f, gamma, draw) to the
    report and yield each row for the caller's summary. Rows flagged neither
    ok nor open become violations; resampled draws leave a note."""
    for start in range(0, report.samples, CHUNK):
        ids = range(start, min(start + CHUNK, report.samples))
        members, draws, attempts = _draw_chunk(spec, report.seed, ids, report.order,
                                               radius_cap)
        gams = gammas.gamma_rows_via_bn(members, report.n_max)
        for i, f, gam, draw, tries in zip(ids, members, gams, draws, attempts):
            if tries:
                report.notes.append(f"sample {i}: resampled {tries} time(s)")
            for row in rows_of(i, f, gam, draw):
                report.rows.append(row)
                if row["flag"] not in ("ok", "open"):
                    report.violations.append(dict(row))
                yield row


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
    if samples < 1 or n_max < 1:
        raise ValueError("samples and n_max must be >= 1")
    order = _resolve_order(n_max, order, tol)

    def rows_of(i: int, f, gam, draw):
        gr = gammas.gamma_via_reversion(AnalyticSeries(f), n_max)
        disc = np.abs(gr.gammas - gam).tolist()
        abs_gamma = np.abs(gam).tolist()
        rows = []
        for n in range(1, n_max + 1):
            d = disc[n - 1]
            rows.append({
                "sample_id": i,
                "n": n,
                "abs_gamma": abs_gamma[n - 1],
                "bound": tol,
                "branch": "path-equivalence",
                "margin": tol - d,
                "flag": _flag(d, tol),
                "discrepancy": d,
                "excess": d,
            })
        return rows

    report = VerifyReport(kind="cross-check", label=spec.label(), params=spec.params(),
                          n_max=n_max, order=order, samples=samples, seed=seed, tol=tol)
    per_n_max = np.zeros(n_max)
    for row in _sample_rows(report, spec, radius_cap, rows_of):
        per_n_max[row["n"] - 1] = max(per_n_max[row["n"] - 1], row["discrepancy"])
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
    if samples < 1 or n_max < 1:
        raise ValueError("samples and n_max must be >= 1")
    order = _resolve_order(n_max, order, tol)

    def applicable(abs_a):
        results = (bound_for(spec, n, abs_a=abs_a) for n in range(1, n_max + 1))
        found = {res.n: res for res in results if res.applicable}
        for n, res in found.items():
            if not math.isfinite(res.value):
                raise ValueError(f"the bound at n={n} is {res.value}, beyond double "
                                 "precision; lower n_max")
        return found

    per_sample = spec.entry.per_sample_bound
    static = None if per_sample else applicable(None)
    if static == {}:
        raise ValueError(f"no applicable bounds for {spec.label()} with n_max={n_max}")

    def rows_of(i: int, f, gam, draw):
        abs_gamma = np.abs(gam).tolist()
        results = applicable(draw.abs_a) if per_sample else static
        return [_graded_row(i, n, abs_gamma[n - 1], res.value, res.branch, tol)
                for n, res in results.items()]

    report = VerifyReport(kind="verify", label=spec.label(), params=spec.params(),
                          n_max=n_max, order=order, samples=samples, seed=seed, tol=tol)
    sharp_gaps: dict[int, float | None] = {}
    for n, res in (static or {}).items():
        reached = [float(abs(gammas.gamma_via_bn(f, n).gammas[n - 1]))
                   for _, f, asserted, _ in spec.entry.candidates(spec, n, res.branch, order, 0.5)
                   if asserted]
        sharp_gaps[n] = res.value - max(reached) if reached else None
    stats: dict[int, dict] = {}
    for row in _sample_rows(report, spec, radius_cap, rows_of):
        st = stats.setdefault(row["n"], {"empirical_max_abs_gamma": 0.0,
                                         "margin": math.inf,
                                         "bound": row["bound"],
                                         "branch": row["branch"]})
        st["empirical_max_abs_gamma"] = max(st["empirical_max_abs_gamma"], row["abs_gamma"])
        st["margin"] = min(st["margin"], row["margin"])
        st["bound"] = min(st["bound"], row["bound"])
    report.summary = [{"n": n, **stats[n], "sharpness_gap": sharp_gaps.get(n)}
                      for n in sorted(stats)]
    if per_sample:
        report.notes.append("bounds vary with each sample's omega(0); summary bound "
                            "and margin are the worst cases, sharpness_gap is per-run "
                            "(see sharpness_check)")
    worst = min((row["margin"] for row in report.rows), default=None)
    report.max_discrepancy = None if worst is None else float(max(0.0, -worst))
    skipped = [n for n in range(1, n_max + 1) if n not in stats]
    if skipped:
        report.notes.append(f"orders without a bound, skipped: {skipped}")
    return report


def sharpness_check(spec: ClassSpec, n_max: int, tol: float = 1e-9, *,
                    order: int | None = None, abs_a: float = 0.5) -> VerifyReport:
    """Evaluate each bound's named equality function and report the gap
    bound - |Gamma_n|. Candidates marked asserted must close the gap to tol;
    report-only candidates never fail the run. abs_a selects the
    bounded-distortion bound's omega(0) (its bounds are a one-parameter
    family)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    order = _resolve_order(n_max, order, tol)
    report = VerifyReport(kind="sharpness", label=spec.label(), params=spec.params(),
                          n_max=n_max, order=order, samples=0, seed=None, tol=tol)
    gaps = []
    for n in range(1, n_max + 1):
        res = bound_for(spec, n, abs_a=abs_a)
        if not res.applicable:
            report.rows.append({"sample_id": "none", "n": n, "abs_gamma": None,
                                "bound": None, "branch": res.branch, "margin": None,
                                "flag": "open", "asserted": False, "note": res.note})
            continue
        if res.note:
            report.notes.append(f"n={n}: {res.note}")
        for name, f, asserted, note in spec.entry.candidates(spec, n, res.branch, order, abs_a):
            gv = gammas.gamma_via_bn(f, n)
            ag = float(abs(gv.gammas[n - 1]))
            gap = res.value - ag
            # both sides of the bound: an equality function must reach it
            flag = _flag(abs(gap), tol) if asserted else "report-only"
            row = {**_graded_row(name, n, ag, res.value, res.branch, tol), "flag": flag,
                   "asserted": asserted, "note": note, "excess": abs(gap)}
            report.rows.append(row)
            if asserted:
                gaps.append(abs(gap))
                if flag != "ok":
                    report.violations.append(dict(row))
    by_n: dict[int, dict] = {}
    for row in report.rows:
        if row["flag"] == "open":
            continue
        st = by_n.setdefault(row["n"], {"bound": row["bound"], "branch": row["branch"],
                                        "best_gap": math.inf, "best_candidate": ""})
        if row["margin"] < st["best_gap"]:
            st["best_gap"] = row["margin"]
            st["best_candidate"] = row["sample_id"]
    report.summary = [{"n": n, **by_n[n]} for n in sorted(by_n)]
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
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    spec = ClassSpec.f_alpha(0.0)
    order = _resolve_order(n_max, order, tol)

    def rows_of(i: int, f, gam, draw):
        abs_gamma = np.abs(gam).tolist()
        rows = []
        for n in range(n_min, n_max + 1):
            ag = abs_gamma[n - 1]
            if n <= 3:
                res = bound_for(spec, n)
                rows.append(_graded_row(i, n, ag, res.value, res.branch, tol))
            else:
                conj = 1.0 / (2.0 * n)
                row = _graded_row(i, n, ag, conj, "conjectured", tol)
                rows.append({**row, "flag": "open" if ag > conj + tol else "ok"})
        return rows

    report = VerifyReport(kind="explore", label=spec.label(), params=spec.params(),
                          n_max=n_max, order=order, samples=samples, seed=seed, tol=tol)
    stats: dict[int, dict] = {}
    for row in _sample_rows(report, spec, radius_cap, rows_of):
        n = row["n"]
        st = stats.setdefault(n, {"max_abs_gamma": 0.0, "max_ratio": 0.0,
                                  "argmax_sample": -1, "exceed_count": 0})
        if row["abs_gamma"] > st["max_abs_gamma"]:
            st["max_abs_gamma"] = row["abs_gamma"]
            st["argmax_sample"] = row["sample_id"]
        st["max_ratio"] = max(st["max_ratio"], 2.0 * n * row["abs_gamma"])
        if row["flag"] == "mathematical" or row["flag"] == "open":
            st["exceed_count"] += 1
    report.summary = [{"n": n, **stats[n]} for n in sorted(stats)]
    report.notes.append("orders beyond 3 probe an open question; overshoots there "
                        "are reported as open, not failed")
    return report
