"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Runs every workload once in each mode with two samples per campaign, checks
that every metric of BENCHMARK.json is printed, and shows that each
correctness gate fires on a doctored report.
"""

import dataclasses
import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


run = _load_run()


@pytest.fixture
def tiny(monkeypatch):
    small = {name: dataclasses.replace(wl, samples=2, warmup_samples=1)
             for name, wl in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", small)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "KERNEL_MIN_S", 0.0)
    monkeypatch.setattr(run, "REF_INTERVAL_S", 0.001)
    return small


def _main(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_each_workload_prints_every_metric(tiny, capsys, workload, trace):
    code, text, result = _main(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(tiny[workload].specs)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in run.spec()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0] for line in text}
    assert set(expected) <= printed
    assert {"failed_share", "report_sha256", "provenance"} <= printed
    if not trace:
        # the wall-clock figures behind the ref-counted metrics
        assert {"samples_per_s", "time_to_report_s", "ref_ms"} <= printed
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_trace_separates_the_layers(tiny, capsys):
    mix = _main(capsys, "verify-mix", 1)[2]["metrics"]
    deep = _main(capsys, "cross-check-deep", 1)[2]["metrics"]
    assert mix["series.revert_share"]["value"] == 0.0
    assert mix["series.revert_calls"]["value"] == 0
    assert mix["bounds.bound_for_calls"]["value"] > 0
    assert deep["series.revert_share"]["value"] > 0
    assert deep["gammas.reversion_share"]["value"] >= deep["series.revert_share"]["value"]
    assert deep["bounds.bound_for_calls"]["value"] == 0


def test_a_failing_gate_counts_as_failed(tiny, capsys, monkeypatch):
    monkeypatch.setattr(run, "CROSS_REL_TOL", -1.0)
    code, _, result = _main(capsys, "cross-check-deep", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_verify_gate_fires_on_a_row_above_its_bound(tiny):
    invlog = run.import_invlog()
    wl = run.WORKLOADS["verify-mix"]
    rep = run.campaign(invlog, wl, wl.specs[1], 3, 2)
    assert run.check_report(wl, rep) == []
    row = rep.rows[0]
    row["abs_gamma"] = row["bound"] * (1.0 + 1e-6) + 1e-6
    assert run.check_report(wl, rep)


def test_verify_gate_fires_when_report_is_not_ok(tiny):
    invlog = run.import_invlog()
    wl = run.WORKLOADS["verify-wide-report"]
    rep = run.campaign(invlog, wl, wl.specs[0], 3, 2)
    rep.violations.append(dict(rep.rows[0], flag="mathematical"))
    assert run.check_report(wl, rep)


def test_cross_check_gate_fires_on_route_disagreement(tiny):
    invlog = run.import_invlog()
    wl = run.WORKLOADS["cross-check-deep"]
    rep = run.campaign(invlog, wl, wl.specs[0], 3, 2)
    assert run.check_report(wl, rep) == []
    row = rep.rows[5]
    row["discrepancy"] = 1e-6 * max(1.0, row["abs_gamma"])
    assert run.check_report(wl, rep)


def test_digest_gate_fires_on_a_changed_byte(tiny):
    invlog = run.import_invlog()
    wl = run.WORKLOADS["verify-mix"]
    data = run.campaign(invlog, wl, wl.specs[0], 3, 2).to_json().encode()
    doctored = data.replace(b"0", b"1", 1)
    assert doctored != data
    reference = {}
    assert run.check_digest(reference, 0, hashlib.sha256(data).hexdigest()) == []
    assert run.check_digest(reference, 0, hashlib.sha256(data).hexdigest()) == []
    assert run.check_digest(reference, 0, hashlib.sha256(doctored).hexdigest())


def test_benchmark_json_matches_the_tables():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == run.spec()


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_speed_sampler_keeps_its_time_out_of_the_round(tiny):
    invlog = run.import_invlog()
    wl = run.WORKLOADS["cross-check-deep"]
    run.OUT.mkdir(exist_ok=True)
    with run.SpeedSampler() as sampler:
        rnd = run.run_round(invlog, wl, 3, {}, sampler=sampler)
    assert sampler.samples
    assert rnd.ref_s > 0
    assert 0 < rnd.campaign_s <= rnd.report_s
    assert sampler.spent == pytest.approx(sum(sampler.samples))
