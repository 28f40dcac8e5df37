"""The benchmark's own tests: tiny-scale smoke runs and its checks.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import child, run
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Shrinks every workload's trace to a few simulated seconds.
SCALE = 0.05


def _invoke(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", str(SCALE)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _units(entries) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in entries}


def test_benchmark_json_matches_the_harness():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == {
        name: (unit, better)
        for name, (unit, _, better, _) in run.END_TO_END.items()}
    for entry in SPEC["per_layer"]:
        assert entry["unit"] == run.layer_unit(entry["name"]), entry
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = _invoke(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_RUNS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(
        SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = "\n".join(lines[:-1])
    for name, (unit, kind, *_rest) in {**run.END_TO_END, **run.UNBOUNDED}.items():
        row = next(line for line in lines if line.startswith(name + " "))
        assert unit in row and kind in row, row
    assert "simulated summary digest" in table


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_prints_every_per_layer_metric_with_its_unit(workload):
    proc = _invoke(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], lines
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(
        SPEC["per_layer"])
    assert any(line.startswith("traced run: counts digest") for line in lines)


def test_contrast_between_workloads_in_the_traced_counts():
    layers = {
        name: child.execute(name, 5, scale=SCALE, trace=True)["layers"]
        for name in WORKLOADS
    }
    per_req = {k: v["engine.events_per_req"] for k, v in layers.items()}
    assert per_req["llm-mix"] > per_req["dag-tweet"] > per_req["stream-overload"]
    assert layers["stream-overload"]["collector.records"] == 0
    assert layers["dag-tweet"]["source.arrivals"] == 0
    assert layers["stream-overload"]["source.arrivals"] > 0
    for name, metrics in layers.items():
        llm_used = metrics["llm.enqueues"] > 0 and metrics["llm.steps"] > 0
        assert llm_used == (name == "llm-mix")


def _run_in_process(workload: str, tracer: Tracer | None = None):
    from repro.experiments.runner import run_multi_scenario, run_scenario
    from repro.experiments.scenario import MultiScenario, Scenario

    wl = WORKLOADS[workload]
    spec = wl.spec(1, SCALE)
    if tracer is not None:
        tracer.install()
    try:
        if wl.multi:
            result = run_multi_scenario(MultiScenario.from_dict(spec), lean=wl.lean)
        else:
            result = run_scenario(Scenario.from_dict(spec), lean=wl.lean)
    finally:
        if tracer is not None:
            tracer.restore()
    return child.outcome(wl, result)


def test_a_clean_run_passes_every_check():
    sim, collectors, _, summary, _ = _run_in_process("dag-tweet")
    assert child.check_run(sim, collectors, summary) == []


def test_a_corrupted_summary_is_a_failed_run():
    sim, collectors, _, summary, _ = _run_in_process("dag-tweet")
    corrupted = replace(summary, good=summary.good + 1)
    assert child.check_run(sim, collectors, corrupted)
    collectors[0].count += 1  # one request counted twice
    assert any("submitted" in f for f in child.check_run(sim, collectors, summary))


def test_host_times_are_scaled_to_the_reference_speed():
    runs = [{"requests": 100, "run_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 60.0,
             "speed": speed, "sim": {"goodput_norm": 0.9}} for speed in (2.0, 2.0)]
    scaled = run.end_to_end(runs)
    raw = run.end_to_end(runs, at_reference=False)
    assert raw["sim_req_per_s"] == 100 and raw["setup_s"] == 0.5
    assert scaled["sim_req_per_s"] == 50 and scaled["setup_s"] == 1.0
    assert scaled["peak_rss_mb"] == 60.0 and scaled["goodput_norm"] == 0.9


def test_a_run_with_a_different_summary_counts_as_failed():
    base = {"ok": True, "digest": "aaaa", "failures": []}
    runs = [dict(base), dict(base), dict(base, digest="bbbb"),
            {"ok": False, "failures": ["boom"]}]
    messages = run.evaluate(runs)
    assert [r["ok"] for r in runs] == [True, True, False, False]
    assert len(messages) == 2


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_equal_the_program_counters(workload):
    tracer = Tracer(sample_every=7)
    sim, collectors, modules, _, _ = _run_in_process(workload, tracer)
    assert tracer.cross_check(sim, collectors, modules) == []
    assert tracer.counts["engine.events"] == sim.processed_events
    assert tracer.counts["collector.calls"] == sum(c.count for c in collectors)
    assert tracer.spans, "sampled spans were recorded"
    rids = {span[2] for span in tracer.spans}
    assert all(rid % 7 == 0 for rid in rids)
    # A missed boundary shows up as a mismatch.
    tracer.counts["engine.events"] -= 1
    assert any(m.startswith("engine.events")
               for m in tracer.cross_check(sim, collectors, modules))


def test_tracing_does_not_change_the_simulation_and_is_undone():
    from repro.simulation.engine import Simulator

    original = Simulator.__dict__["run"]
    plain = child.execute("stream-overload", 4, scale=SCALE)
    traced = child.execute("stream-overload", 4, scale=SCALE, trace=True)
    again = child.execute("stream-overload", 4, scale=SCALE, trace=True)
    assert Simulator.__dict__["run"] is original
    assert plain["ok"] and traced["ok"] and again["ok"]
    assert plain["digest"] == traced["digest"] == again["digest"]
    assert traced["counts_digest"] == again["counts_digest"]


def test_self_times_add_up_to_the_traced_wall():
    out = child.execute("dag-tweet", 2, scale=SCALE, trace=True)
    self_total = sum(v for k, v in out["layers"].items() if k.endswith(".self_s"))
    assert 0 < self_total
    # Set-up spans (trace calibration, arrival priming) happen before the
    # run phase, so the sum may exceed it slightly; never by much.
    assert self_total < 1.5 * out["run_s"] + 0.05


def test_spans_are_written_as_json_lines(tmp_path):
    path = tmp_path / "spans.jsonl"
    out = child.execute("llm-mix", 1, scale=SCALE, trace=True,
                        spans_path=str(path), sample_every=10)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == out["spans"] > 0
    ids = {row["sid"] for row in rows}
    assert any(row["parent"] in ids for row in rows)
    assert all(row["end_ns"] >= row["start_ns"] for row in rows)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke("dag-tweet", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
