"""Benchmark driver: timed runs of one workload, each in a fresh child.

Usage, from the repository root::

    python3 perfbench/run.py --workload dag-tweet --seed 1 --seconds 30 --trace 0

The parent starts one child process per run (``perfbench/child.py``), one
at a time, until ``--seconds`` have passed (at least ``MIN_RUNS`` runs).
Every child replays the same seeded open-loop arrival schedule inside the
simulator; host time is measured offline, as a batch job, not as a served
loop.  The parent checks every run, checks that all runs produced
byte-identical simulated summaries, prints a table of every metric with
its unit and kind (host or simulated), and ends with one JSON line:

* ``--trace 0``: the end-to-end metrics (medians over the runs);
* ``--trace 1``: the per-layer metrics of one traced run, next to the
  untraced runs that give its overhead.  Sampled spans are written to
  ``.perfbench_out/``.

Before each run the parent times a fixed reference loop in its own process
(``perfbench/reference.py``); host seconds are reported scaled to the
reference speed, so drift in the shared machine's speed cancels out.  The
printed table shows the unscaled medians too.

The simulated system is a model that has not been validated against real
hardware; simulated figures are the model's outputs, and no error figure
against hardware is claimed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.child import EXIT_NO_PROGRAM  # noqa: E402
from perfbench.reference import NOMINAL_S  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Runs per invocation, whatever ``--seconds`` says: two to compare.
MIN_RUNS = 3
#: Hard cap on runs per invocation.
MAX_RUNS = 60
#: No child may take longer than this (seconds); it is killed and fails.
CHILD_TIMEOUT = 120.0
#: Start no new run after this many seconds of the invocation.
START_DEADLINE = 140.0

#: End-to-end metrics: name -> (unit, kind, better, meaning).
END_TO_END = {
    "sim_req_per_s": ("req/s", "host", "higher",
                      "simulated requests brought to a terminal state per "
                      "host second of the run phase, at reference speed"),
    "setup_s": ("s", "host", "lower",
                "cold import repro + scenario parse/validate + cluster "
                "build, at reference speed"),
    "peak_rss_mb": ("MB", "host", "lower", "child peak RSS (ru_maxrss)"),
    "goodput_norm": ("ratio", "simulated", "higher",
                     "good / total (Summary.mean_goodput_normalized)"),
    "token_goodput_norm": ("ratio", "simulated", "higher",
                           "requests meeting every GoodputSpec constraint "
                           "/ total (the SLO alone where none is declared)"),
}
#: Simulated outcomes printed with the end-to-end table but not bounded:
#: their spread across seeds is wider than any admissible bound.
UNBOUNDED = {
    "drop_rate": ("ratio", "simulated", "lower", "Summary.drop_rate"),
    "invalid_rate": ("ratio", "simulated", "lower",
                     "wasted GPU share (Summary.invalid_rate)"),
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    if name.endswith("_s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith(("_frac", "_rate")):
        return "ratio"
    if name.endswith(("mean_len", "mean_batch")):
        return "req"
    if name.endswith("_per_req"):
        return "events/req"
    return "count"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``repro`` package."""


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _reference_seconds(env: dict[str, str]) -> float | None:
    """Time the host-speed reference loop in a fresh process."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.reference"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        return float(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError):
        return None


def spawn(workload: str, seed: int, scale: float, trace: bool,
          spans: str | None = None) -> dict:
    """Time the reference, then run one child to completion.

    Returns the child's result record with ``speed``, the host's speed
    relative to the reference speed just before the run.
    """
    env = _environment()
    reference = _reference_seconds(env)
    if reference is None:
        return {"ok": False, "failures": ["host-speed reference failed"]}
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale),
           "--trace", "1" if trace else "0"]
    if spans is not None:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        return {"ok": False, "failures": [f"timed out after {CHILD_TIMEOUT}s"]}
    if proc.returncode == EXIT_NO_PROGRAM:
        raise ProgramMissing(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "failures": [
            f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"]}
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"ok": False, "failures": [f"unreadable result: {lines[-1]!r}"]}
    result["speed"] = NOMINAL_S / reference
    return result


def evaluate(runs: list[dict]) -> list[str]:
    """Mark failed runs; returns one message per failure.

    A run fails when it raised, failed a check in the child, or produced
    a simulated summary that differs from the first good run's (every run
    of one workload and seed must be byte-identical).
    """
    messages = []
    reference = next((r["digest"] for r in runs if r.get("ok")), None)
    for i, run in enumerate(runs):
        if run.get("ok") and run["digest"] != reference:
            run["ok"] = False
            run.setdefault("failures", []).append(
                f"summary digest {run['digest']} != {reference}")
        if not run.get("ok"):
            messages += [f"run {i}: {m}" for m in run.get("failures", ["?"])]
    return messages


def _median(runs: list[dict], key: str, at_reference: bool = True) -> float:
    """Median of a per-run time, scaled to the reference speed."""
    return statistics.median(
        r[key] * (r["speed"] if at_reference else 1.0) for r in runs)


def end_to_end(runs: list[dict], at_reference: bool = True) -> dict[str, float]:
    """Medians of the host metrics; simulated ones from the first run."""
    out = {
        "sim_req_per_s": statistics.median(
            r["requests"] / (r["run_s"] * (r["speed"] if at_reference else 1.0))
            for r in runs),
        "setup_s": _median(runs, "setup_s", at_reference),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    out.update(runs[0]["sim"])
    return out


def per_layer(untraced: list[dict], traced: dict) -> dict[str, float]:
    """Per-layer metrics of the traced run plus set-up and overhead.

    Times are scaled to the reference speed, like the end-to-end ones.
    """
    speed = traced["speed"]
    out = {k: v * speed if layer_unit(k) in ("s", "ns") else v
           for k, v in traced["layers"].items()}
    for phase in ("import", "parse", "build"):
        out[f"setup.{phase}_s"] = _median(untraced, f"{phase}_s")
    out["trace.wall_s"] = traced["run_s"] * speed
    out["trace.overhead_s"] = out["trace.wall_s"] - _median(untraced, "run_s")
    out["collector.drop_rate"] = traced["sim"]["drop_rate"]
    out["collector.invalid_rate"] = traced["sim"]["invalid_rate"]
    return out


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: float = 1.0) -> tuple[dict, list[dict], dict | None]:
    """All runs of one invocation: (report, untraced runs, traced run)."""
    start = time.monotonic()
    # With --trace 1 half the time goes to the untraced baseline runs and
    # the rest to the single (slower) traced run.
    budget = seconds / 2 if trace else seconds
    runs: list[dict] = []
    while len(runs) < MAX_RUNS:
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and (elapsed >= budget
                                      or elapsed >= START_DEADLINE):
            break
        runs.append(spawn(workload, seed, scale, trace=False))
    traced = None
    if trace:
        spans = f".perfbench_out/{workload}-seed{seed}-spans.jsonl"
        traced = spawn(workload, seed, scale, trace=True, spans=spans)
        runs.append(traced)
    failures = evaluate(runs)
    good = [r for r in runs if r.get("ok") and not r.get("traced")]
    report = {"attempted": len(runs), "failed": sum(not r.get("ok") for r in runs),
              "failures": failures, "metrics": {}}
    if not good or (trace and not traced.get("ok")):
        return report, good, traced
    if trace:
        report["metrics"] = {
            k: {"value": v, "unit": layer_unit(k)}
            for k, v in per_layer(good, traced).items()
        }
    else:
        values = end_to_end(good)
        report["metrics"] = {
            k: {"value": values[k], "unit": END_TO_END[k][0]}
            for k in END_TO_END
        }
    return report, good, traced


def _print_table(workload: str, seed: int, report: dict, good: list[dict],
                 traced: dict | None) -> None:
    n = len(good)
    print(f"perfbench {workload} seed={seed}: {report['attempted']} runs, "
          f"{report['failed']} failed (one fresh child per run, one at a time)")
    print("the simulated system is an unvalidated model: no hardware "
          "error figure exists")
    for message in report["failures"]:
        print(f"  FAILED {message}")
    if not good:
        return
    print(f"simulated summary digest: {good[0]['digest']}")
    speeds = [r["speed"] for r in good]
    print(f"host speed / reference speed: median {statistics.median(speeds):.3f}"
          f" (min {min(speeds):.3f}, max {max(speeds):.3f}); host times below"
          f" are scaled to the reference speed, 'raw' is unscaled")
    values, raw = end_to_end(good), end_to_end(good, at_reference=False)
    rows = [(k, *spec) for k, spec in END_TO_END.items()]
    rows += [(k, *spec) for k, spec in UNBOUNDED.items()]
    print(f"{'metric':<22}{'value':>14}{'raw':>14}  {'unit':<7}{'kind':<10}better")
    for name, unit, kind, better, meaning in rows:
        basis = f"median of {n} runs" if kind == "host" else "identical in every run"
        print(f"{name:<22}{values[name]:>14.6g}{raw[name]:>14.6g}  {unit:<7}"
              f"{kind:<10}{better:<7}{meaning}; {basis}")
    if traced is None or not traced.get("ok"):
        return
    layers = per_layer(good, traced)
    wall = layers["trace.wall_s"]
    print(f"traced run: counts digest {traced['counts_digest']}, "
          f"{traced.get('spans', 0)} sampled spans written")
    print(f"{'layer metric':<26}{'value':>14}  unit   share of traced wall")
    for name, value in layers.items():
        share = (f"{100 * value / wall:5.1f} %"
                 if name.endswith(".self_s") and wall > 0 else "")
        print(f"{name:<26}{value:>14.6g}  {layer_unit(name):<7}{share}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the simulated trace (smoke tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        report, good, traced = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.scale)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print_table(args.workload, args.seed, report, good, traced)
    print(json.dumps({
        "correct": report["failed"] == 0 and bool(report["metrics"]),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
