#!/usr/bin/env python3
"""Layered campaign benchmark for invlog, and its single entrypoint.

Run from the repository root:

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

Each run is one process, one thread and one workload. It imports invlog
from ``src/`` of the checkout it sits in, sets up (import plus a warm-up
campaign, repeated), then runs campaign rounds in a closed loop for
``--seconds``: one caller, one campaign at a time, every round on the same
seeded inputs. Every campaign's report is checked by correctness gates that
do not trust the harness's own grading.

The shared host this benchmark was built on changes speed by up to 2x
within a minute, so the timed end-to-end metrics are counted in refs: one
ref is the time the machine takes, sampled during each round, to run a
fixed reference routine that does not touch invlog. Plain seconds are
printed too.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` times the series
kernels on their own, then alternates untraced and traced rounds, prints the
per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench_out/``. The trace wraps the public functions at the module
attributes the harness resolves; nothing under ``src/`` is changed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RUN_SECONDS = 36
SETUP_REPEATS = 9
KERNEL_ORDERS = (16, 32, 64, 128)
KERNEL_MIN_S = 0.05  # per kernel op: repeat until this much time has passed
REF_INTERVAL_S = 0.05  # the speed sampler times the reference routine this often
REF_ROWS = 160  # one reference call takes about 0.9 ms on the measured VM

# Gates, fixed here rather than read from the reports they judge. Routes
# agree to about 1e-13 relative at the seed; a wrong route is off by O(1).
CROSS_REL_TOL = 1e-9
# A verify row may exceed its bound by this share of max(1, bound).
BOUND_REL_MARGIN = 1e-9

END_TO_END = (
    # name, unit, better, bound
    ("samples_per_ref", "samples/ref", "higher", 0.25),
    ("time_to_report_ref", "ref", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

LAYER_METRICS = (
    # name, unit, better; times and counts are per round unless named per sample
    ("families.draw_s", "s", "lower"),
    ("families.draw_share", "ratio", "lower"),
    ("families.attempts_per_sample", "count", "lower"),
    ("series.objects_per_sample", "count", "lower"),
    # a layer that does not run on a workload reads 0 there, so layers that
    # some workloads skip report shares of campaign time and counts, not times
    ("series.revert_share", "ratio", "lower"),
    ("series.revert_calls", "count", "lower"),
    ("gammas.bn_s", "s", "lower"),
    ("gammas.reversion_share", "ratio", "lower"),
    ("bounds.bound_for_share", "ratio", "lower"),
    ("bounds.bound_for_calls", "count", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.to_json_s", "s", "lower"),
    ("harness.to_csv_s", "s", "lower"),
    ("harness.serialize_share", "ratio", "lower"),
    ("harness.report_bytes_per_sample", "bytes", "lower"),
    ("harness.rss_kb_per_sample", "KB", "lower"),
    ("harness.flagged_mathematical", "count", "lower"),
    ("harness.flagged_numerical", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

KERNEL_OPS = ("series.reciprocal", "series.log_unit", "series.exp_zero",
              "series.multiply", "series.compose", "series.revert",
              "gammas.bn", "gammas.reversion")


def kernel_madds(op: str, N: int) -> int:
    """Complex multiply-adds the seed kernels perform on an order-N operand,
    counted from their recurrences (np.convolve computes the full product)."""
    revert = sum(n * (n + 1) ** 2 for n in range(2, N + 1))
    return {
        "series.reciprocal": N * (N + 1) // 2,
        "series.log_unit": N * (N - 1) // 2,
        "series.exp_zero": N * (N + 1) // 2,
        "series.multiply": (N + 1) ** 2,
        "series.compose": N * (N + 1) ** 2,
        "series.revert": revert,
        # routes at n_max = N - 1, which need the input to order N
        "gammas.bn": (N - 1) * N // 2 + (N - 2) * N * N,
        "gammas.reversion": revert + (N - 1) * (N - 2) // 2,
    }[op]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    out = list(LAYER_METRICS)
    for op in KERNEL_OPS:
        for N in KERNEL_ORDERS:
            out.append((f"{op}_ms.N{N}", "ms", "lower"))
            out.append((f"{op}_madds.N{N}", "madd_computed", "lower"))
    return out


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "verify" or "cross-check"
    specs: tuple  # (ClassSpec constructor name, args) per campaign of a round
    n_max: int
    samples: int  # per campaign
    warmup_samples: int
    radius_cap: float
    order: int | None = None


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="verify-mix",
        why="all six classes' draw and subordination paths; drawing is ~77% of campaign "
            "time and series.revert never runs, so a reversion change must leave it unchanged",
        kind="verify",
        specs=(("full_s", ()), ("star_ab", (0.6, -1)), ("spiral", (0.5, 0.2)),
               ("gc", (0.5,)), ("u_lambda", (0.5,)), ("f_alpha", (0,))),
        n_max=8, samples=100, warmup_samples=30, radius_cap=0.95),
    Workload(
        name="cross-check-deep",
        why="the only workload running the reversion route: series.revert, an N^3 "
            "Horner recompose, takes ~65% of campaign time at n_max 32",
        kind="cross-check",
        specs=(("star_ab", (1, -1)),),
        n_max=32, order=40, samples=60, warmup_samples=15, radius_cap=0.8),
    Workload(
        name="verify-wide-report",
        why="one gc(0.5) campaign with a 10.9 MB JSON report: the only workload where "
            "report rows and heap growth set peak_rss_mb; serializing takes ~1 s a round",
        kind="verify",
        specs=(("gc", (0.5,)),),
        n_max=8, samples=5500, warmup_samples=150, radius_cap=0.95),
)}


def spec() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": wl.name, "why": wl.why} for wl in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_metrics()],
    }


# ---------------------------------------------------------------------------
# set-up


def import_invlog():
    """Import invlog afresh from this checkout's src/, never from elsewhere."""
    for name in [m for m in sys.modules if m == "invlog" or m.startswith("invlog.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    invlog = importlib.import_module("invlog")
    if SRC not in Path(invlog.__file__).resolve().parents:
        raise ImportError(f"invlog resolved to {invlog.__file__}, not under {SRC}")
    return invlog


def campaign(invlog, wl: Workload, spec_ctor, seed: int, samples: int):
    cls_spec = getattr(invlog.ClassSpec, spec_ctor[0])(*spec_ctor[1])
    if wl.kind == "cross-check":
        return invlog.harness.cross_check(samples, seed, wl.n_max, spec=cls_spec,
                                          order=wl.order, radius_cap=wl.radius_cap)
    return invlog.harness.verify_bounds(cls_spec, wl.n_max, samples, seed,
                                        order=wl.order, radius_cap=wl.radius_cap)


def setup(wl: Workload, seed: int):
    """Import plus a small warm-up round, repeated; returns the last import
    and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        invlog = import_invlog()
        for ctor in wl.specs:
            rep = campaign(invlog, wl, ctor, seed, wl.warmup_samples)
            rep.to_json()
            rep.to_csv()
        times.append(time.perf_counter() - t0)
    return invlog, statistics.median(times)


# ---------------------------------------------------------------------------
# correctness gates


def check_report(wl: Workload, rep) -> list[str]:
    """Failures of one campaign report, judged from its rows' numbers, not
    from the flags the harness assigned."""
    problems = []
    if not rep.rows:
        problems.append("report has no rows")
    if wl.kind == "cross-check":
        expected = rep.samples * wl.n_max
        if len(rep.rows) != expected:
            problems.append(f"{len(rep.rows)} rows, expected {expected}")
        for row in rep.rows:
            rel = row["discrepancy"] / max(1.0, row["abs_gamma"])
            if not rel <= CROSS_REL_TOL:
                problems.append(f"sample {row['sample_id']} n={row['n']}: routes differ "
                                f"by {rel:.3e} relative (gate {CROSS_REL_TOL:g})")
                break
        return problems
    if not rep.ok:
        problems.append(f"report.ok is false: {len(rep.mathematical_violations)} "
                        "mathematical violations")
    for row in rep.rows:
        limit = row["bound"] + BOUND_REL_MARGIN * max(1.0, abs(row["bound"]))
        if not row["abs_gamma"] <= limit:
            problems.append(f"sample {row['sample_id']} n={row['n']}: |Gamma| "
                            f"{row['abs_gamma']!r} exceeds bound {row['bound']!r}")
            break
    return problems


def check_digest(reference: dict, key, digest: str) -> list[str]:
    """The JSON bytes of one campaign must not change across repeats of it."""
    first = reference.setdefault(key, digest)
    if first != digest:
        return [f"campaign {key}: to_json sha256 {digest} differs from {first}"]
    return []


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """In-memory spans [name, start, end, parent index, sample id] recorded
    by wrappers installed at the module attributes the harness calls."""

    DRAW = ("families.sample_schwarz", "families.member_from_schwarz",
            "families.blaschke_series", "families.u_lambda_member")

    def __init__(self):
        self.spans = []
        self.stack = []
        self.sample = None
        self.draws = 0
        self.series_objects = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.sample])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def start_campaign(self) -> int:
        self.sample = None
        return self.open("harness.campaign")

    def _wrap(self, fn, name, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _keyed_draw(self, args):
        # sample_schwarz receives the (seed, index, attempt) key
        self.draws += 1
        key = args[0]
        self.sample = key[1] if isinstance(key, tuple) else None

    def _unkeyed_draw(self, args):
        # the u-lambda draw passes no key: number draws in call order
        self.draws += 1
        self.sample = 0 if self.sample is None else self.sample + 1

    def install(self, invlog) -> list:
        """Patch the wrappers in; returns what restore() puts back."""
        fam, gam, ser, har = invlog.families, invlog.gammas, invlog.series, invlog.harness
        report = har.VerifyReport
        targets = [
            (fam, "sample_schwarz", "families.sample_schwarz", self._keyed_draw),
            (fam, "member_from_schwarz", "families.member_from_schwarz", None),
            (fam, "blaschke_series", "families.blaschke_series", self._unkeyed_draw),
            (fam, "u_lambda_member", "families.u_lambda_member", None),
            (gam, "gamma_via_bn", "gammas.gamma_via_bn", None),
            (gam, "gamma_via_reversion", "gammas.gamma_via_reversion", None),
            (ser, "revert", "series.revert", None),
            (har, "bound_for", "bounds.bound_for", None),
            (report, "to_json", "harness.to_json", None),
            (report, "to_csv", "harness.to_csv", None),
            (report, "write", "harness.write", None),
        ]
        saved = []
        for owner, attr, name, hook in targets:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))

        init = ser.Series.__init__

        def counting_init(obj, coeffs):
            self.series_objects += 1
            init(obj, coeffs)

        saved.append((ser.Series, "__init__", init))
        ser.Series.__init__ = counting_init
        return saved

    @staticmethod
    def restore(saved: list):
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)

    def totals(self) -> tuple[dict, float]:
        """Seconds per span name, and the campaigns' self time."""
        total, child = {}, {}
        for name, start, end, parent, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        self_s = sum((end - start) - child.get(i, 0.0)
                     for i, (name, start, end, _, _) in enumerate(self.spans)
                     if name == "harness.campaign")
        return total, self_s

    def write(self, path: Path):
        with open(path, "w") as fh:
            for name, start, end, parent, sample in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "sample": sample}) + "\n")


# ---------------------------------------------------------------------------
# measurement


@dataclasses.dataclass
class Round:
    samples: int = 0
    campaign_s: float = 0.0
    report_s: float = 0.0
    json_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    flags: dict = dataclasses.field(default_factory=dict)
    peak_rss_kb: int = 0  # of the process, when the round ended
    ref_s: float = float("nan")  # mean reference call time during the round


def run_round(invlog, wl: Workload, seed: int, digests: dict, tracer=None,
              sampler=None) -> Round:
    """One round of the workload's campaigns, each written as JSON and CSV
    and checked. With a sampler, its own time is left out of the round's
    times and the round's ref is the mean of its samples."""
    rnd = Round()
    spent = (lambda: sampler.spent) if sampler else (lambda: 0.0)
    first_sample = len(sampler.samples) if sampler else 0
    for i, ctor in enumerate(wl.specs):
        rnd.attempted += 1
        json_path = OUT / f"{wl.name}-{i}.json"
        csv_path = OUT / f"{wl.name}-{i}.csv"
        try:
            s0, t0 = spent(), time.perf_counter()
            idx = tracer.start_campaign() if tracer else None
            try:
                rep = campaign(invlog, wl, ctor, seed, wl.samples)
            finally:
                if tracer:
                    tracer.close(idx)
            t1, s1 = time.perf_counter(), spent()
            rep.write(str(json_path), "json")
            rep.write(str(csv_path), "csv")
            t2, s2 = time.perf_counter(), spent()
            data = json_path.read_bytes()
            problems = check_report(wl, rep)
            problems += check_digest(digests, i, hashlib.sha256(data).hexdigest())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rnd.failed += 1
            continue
        for problem in problems:
            print(f"gate failed [{wl.name} campaign {i}]: {problem}", file=sys.stderr)
        rnd.failed += bool(problems)
        rnd.samples += rep.samples
        rnd.campaign_s += (t1 - t0) - (s1 - s0)
        rnd.report_s += (t2 - t0) - (s2 - s0)
        rnd.json_bytes += len(data)
        for flag, count in rep.counts().items():
            rnd.flags[flag] = rnd.flags.get(flag, 0) + count
    rnd.peak_rss_kb = peak_rss_kb()
    if sampler:
        sampler.sample()  # a round too short for the timer still gets one
        rnd.ref_s = statistics.fmean(sampler.samples[first_sample:])
    return rnd


def closed_loop(seconds: float, step) -> None:
    """Call step() back to back, at least once, and stop before a further
    call would run past `seconds`, judged by the last call's duration."""
    start = time.perf_counter()
    last = 0.0
    calls = 0
    while calls == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        calls += 1


def median_of(rounds: list[Round], fn) -> float:
    values = [fn(r) for r in rounds if r.failed < r.attempted and r.campaign_s > 0]
    return statistics.median(values) if values else float("nan")


def samples_per_s(rounds: list[Round]) -> float:
    return median_of(rounds, lambda r: r.samples / r.campaign_s)


def tail_summary(values: list[float]) -> str:
    """Median and the highest percentile with at least ten values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered)!r} over {n}"
    k = n - 10  # ordered[k:] are the ten slowest
    if k > n // 2:
        text += f", p{100 * k // n} {ordered[k - 1]!r}"
    return text


class SpeedSampler:
    """Samples the machine's speed while rounds run: every REF_INTERVAL_S a
    timer signal times one call of a fixed routine that does not touch
    invlog (small complex numpy products, float arithmetic, row dicts and
    JSON text, the kinds of work a campaign sample does). `samples` holds
    the call times, and `spent` their sum, which rounds leave out of their
    own times. Handlers run between bytecodes of the main thread, so a
    sample never splits a numpy call, and one that falls inside a long C
    call is taken when it returns."""

    def __init__(self):
        np = sys.modules["numpy"]  # loaded by invlog, after pin_environment
        self.operand = np.linspace(0.1, 1.0, 17) + 0.3j
        self.convolve = np.convolve
        self.samples = []
        self.spent = 0.0
        self.busy = False
        self.routine()  # warm up before any sample counts

    def routine(self) -> str:
        a = self.operand
        acc, rows = 0.0, []
        for i in range(REF_ROWS):
            c = self.convolve(a, a)[:a.size]
            acc += abs(c[i % a.size])
            rows.append({"n": i, "x": float(c[3].real), "y": acc})
        return json.dumps(rows)

    def sample(self, *_signal_args):
        if self.busy:  # a timer signal during a sample taken directly
            return
        self.busy = True
        t0 = time.perf_counter()
        self.routine()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed
        self.busy = False

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KB on Linux


def kernel_probe(invlog) -> dict:
    """Median wall time per call of the series kernels and both routes on
    koebe(0, N), with each op's computed multiply-add count."""
    ser, gam = invlog.series, invlog.gammas
    out = {}
    for N in KERNEL_ORDERS:
        f = invlog.koebe(0.0, N)
        u = ser.add(f, ser.constant(1.0, N), N)  # 1 + f: the unit-series operand
        calls = {
            "series.reciprocal": lambda: ser.reciprocal(u, N),
            "series.log_unit": lambda: ser.log_unit(u, N),
            "series.exp_zero": lambda: ser.exp_zero(f, N),
            "series.multiply": lambda: ser.multiply(u, u, N),
            "series.compose": lambda: ser.compose(u, f, N),
            "series.revert": lambda: ser.revert(f, N),
            "gammas.bn": lambda: gam.gamma_via_bn(f, N - 1),
            "gammas.reversion": lambda: gam.gamma_via_reversion(f, N - 1),
        }
        for op, call in calls.items():
            times = []
            begin = time.perf_counter()
            while len(times) < 3 or time.perf_counter() - begin < KERNEL_MIN_S:
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            out[f"{op}_ms.N{N}"] = statistics.median(times) * 1e3
            out[f"{op}_madds.N{N}"] = kernel_madds(op, N)
    return out


def layer_metrics(tracer: Tracer, traced: list[Round], plain: list[Round],
                  rss_growth_kb: int) -> dict:
    total, self_s = tracer.totals()
    n_rounds = len(traced)
    samples = sum(r.samples for r in traced)
    campaign_s = total.get("harness.campaign", 0.0)
    draw_s = sum(total.get(name, 0.0) for name in Tracer.DRAW)
    to_json_s = total.get("harness.to_json", 0.0)
    to_csv_s = total.get("harness.to_csv", 0.0)
    report_s = sum(r.report_s for r in traced)
    calls = {}
    for span in tracer.spans:
        calls[span[0]] = calls.get(span[0], 0) + 1
    first = plain[0]
    traced_sps, plain_sps = samples_per_s(traced), samples_per_s(plain)
    return {
        "families.draw_s": draw_s / n_rounds,
        "families.draw_share": draw_s / campaign_s,
        "families.attempts_per_sample": tracer.draws / samples,
        "series.objects_per_sample": tracer.series_objects / samples,
        "series.revert_share": total.get("series.revert", 0.0) / campaign_s,
        "series.revert_calls": calls.get("series.revert", 0) / n_rounds,
        "gammas.bn_s": total.get("gammas.gamma_via_bn", 0.0) / n_rounds,
        "gammas.reversion_share": total.get("gammas.gamma_via_reversion", 0.0) / campaign_s,
        "bounds.bound_for_share": total.get("bounds.bound_for", 0.0) / campaign_s,
        "bounds.bound_for_calls": calls.get("bounds.bound_for", 0) / n_rounds,
        "harness.self_s": self_s / n_rounds,
        "harness.to_json_s": to_json_s / n_rounds,
        "harness.to_csv_s": to_csv_s / n_rounds,
        "harness.serialize_share": (to_json_s + to_csv_s) / report_s,
        "harness.report_bytes_per_sample": first.json_bytes / first.samples,
        "harness.rss_kb_per_sample": rss_growth_kb / first.samples,
        "harness.flagged_mathematical": first.flags.get("mathematical", 0),
        "harness.flagged_numerical": first.flags.get("numerical", 0),
        "trace.overhead_share": 1.0 - traced_sps / plain_sps,
    }


def provenance(invlog, wl: Workload, seed: int) -> dict:
    return {
        "workload": wl.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "invlog": invlog.__version__,
        "env": {k: os.environ.get(k) for k in
                ("INVLOG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def pin_environment():
    """Single-threaded campaigns and BLAS; must run before numpy loads."""
    os.environ.pop("INVLOG_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds >= 0:
        parser.error("--seconds must be >= 0")

    pin_environment()
    wl = WORKLOADS[args.workload]
    try:
        invlog, setup_s = setup(wl, args.seed)
    except ImportError as exc:
        print(f"perfbench: cannot import invlog from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    print("provenance " + json.dumps(provenance(invlog, wl, args.seed), sort_keys=True))

    digests = {}
    rss_before = peak_rss_kb()
    if args.trace:
        layers = kernel_probe(invlog)
        tracer = Tracer()
        plain, traced = [], []

        def pair():
            # untraced and traced rounds alternate, so drift hits both alike
            plain.append(run_round(invlog, wl, args.seed, digests))
            saved = tracer.install(invlog)
            try:
                traced.append(run_round(invlog, wl, args.seed, digests, tracer))
            finally:
                Tracer.restore(saved)

        closed_loop(args.seconds, pair)
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
        rounds = plain + traced
        layers.update(layer_metrics(tracer, traced, plain, plain[0].peak_rss_kb - rss_before))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in per_layer_metrics()}
    else:
        rounds = []
        with SpeedSampler() as sampler:
            closed_loop(args.seconds, lambda: rounds.append(
                run_round(invlog, wl, args.seed, digests, sampler=sampler)))
        values = {
            "samples_per_ref": median_of(rounds, lambda r: r.samples / r.campaign_s * r.ref_s),
            "time_to_report_ref": median_of(rounds, lambda r: r.report_s / r.ref_s),
            "peak_rss_mb": peak_rss_kb() / 1024.0,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in END_TO_END}
        print(f"samples_per_s {samples_per_s(rounds)!r} samples/s")
        print(f"time_to_report_s {median_of(rounds, lambda r: r.report_s)!r} s")
        print(f"ref_ms {statistics.median(r.ref_s for r in rounds) * 1e3!r} ms "
              f"(median over rounds of {len(sampler.samples)} samples)")

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"rounds {len(rounds)} (campaign calls per round {len(wl.specs)}, "
          f"samples per round {rounds[0].samples})")
    print("round_time_to_report_s " + tail_summary([r.report_s for r in rounds]))
    print(f"failed_share {failed / attempted!r} ratio ({failed} of {attempted} campaign calls)")
    for i in sorted(digests):
        print(f"report_sha256 campaign {i} {digests[i]}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
