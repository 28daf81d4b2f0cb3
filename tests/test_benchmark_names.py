"""The package names perfbench/run.py wraps and probes still exist.

The benchmark's tracer patches wrappers onto module attributes of invlog,
and its kernel probe calls the series kernels and both Gamma routes by
name, so deleting or renaming one of them breaks the benchmark. This runs
both against the package the suite imports, at the smallest probe size,
and puts every patched name back.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import invlog
from invlog.families import ClassSpec

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture
def run(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_and_times_both_routes_per_chunk(run):
    tracer = run.Tracer()
    saved = tracer.install(invlog)
    try:
        invlog.harness.cross_check(3, 1, 4)
    finally:
        run.Tracer.restore(saved)
    for owner, attr, fn in saved:
        assert vars(owner)[attr] is fn, attr
    calls = [span[0] for span in tracer.spans]
    # one chunk: one stacked call of each route
    for name in ("gammas.gamma_via_bn", "gammas.gamma_via_reversion", "series.revert"):
        assert calls.count(name) == 1, name


def test_the_kernel_probe_runs_every_op(run, monkeypatch):
    monkeypatch.setattr(run, "KERNEL_ORDERS", (16,))
    monkeypatch.setattr(run, "KERNEL_MIN_S", 0.0)
    out = run.kernel_probe(invlog)
    assert set(out) == {f"{op}_{unit}.N16" for op in run.KERNEL_OPS for unit in ("ms", "madds")}


@pytest.mark.parametrize("spec, name", [(ClassSpec.gc(0.5), "families.member_from_schwarz"),
                                        (ClassSpec.u_lambda(0.5), "families.u_lambda_member")],
                         ids=lambda v: v.label() if isinstance(v, ClassSpec) else None)
def test_the_tracer_times_the_member_build_once_per_draw_pass(run, monkeypatch, spec, name):
    # campaigns build their members through the wrapped public builders
    # four samples a compute chunk at the campaigns' order 4
    monkeypatch.setattr(invlog.harness, "CHUNK_COEFFS", 4 * 5)
    tracer = run.Tracer()
    saved = tracer.install(invlog)
    try:
        invlog.harness.verify_bounds(spec, 3, 10, 1)
    finally:
        run.Tracer.restore(saved)
    calls = [span[0] for span in tracer.spans]
    # three chunks of four keys, none redrawn: one stacked build each
    assert calls.count(name) == 3
