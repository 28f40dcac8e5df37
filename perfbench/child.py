"""One timed benchmark run, executed in a fresh process.

The parent (``perfbench/run.py``) starts ``python -m perfbench.child`` once
per run, one at a time.  The child times the cold ``import repro``, the
scenario parse/validate and the cluster build (everything up to the first
``Simulator.run``), then the simulation itself, checks the outcome and
prints one JSON object as its last line of output.

Exit codes: 0 when a result was printed (``"ok"`` may still be false),
3 when the ``repro`` package cannot be imported at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from dataclasses import asdict
from time import perf_counter

from perfbench.tracer import Patcher, Tracer
from perfbench.workloads import WORKLOADS

#: Keep full spans for one request id in this many.
SAMPLE_EVERY = 100

#: Exit code for "the program under test is not importable".
EXIT_NO_PROGRAM = 3

def digest(data) -> str:
    """Short stable hash of a JSON-serializable value."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def simulated_metrics(collectors, summary) -> dict[str, float]:
    """The simulated end-to-end outcomes of one run.

    ``token_goodput_norm`` counts a request as good when it meets every
    constraint of its tenant's ``GoodputSpec``; a tenant without one has
    only its SLO, so there it counts SLO-meeting requests.
    """
    total = sum(c.count for c in collectors)
    token_good = sum(
        c.gp_good if c.goodput is not None and c.goodput.declared
        else c.good_count
        for c in collectors
    )
    return {
        "goodput_norm": summary.mean_goodput_normalized,
        "drop_rate": summary.drop_rate,
        "invalid_rate": summary.invalid_rate,
        "token_goodput_norm": token_good / total if total else 0.0,
    }


def check_run(sim, collectors, summary) -> list[str]:
    """Correctness checks on one finished run; returns the failures."""
    failures = []
    for i, c in enumerate(collectors):
        if c.count != c.submitted:
            failures.append(
                f"collector {i}: {c.count} requests in a terminal state, "
                f"{c.submitted} submitted"
            )
    if sim.pending_events:
        failures.append(f"engine: {sim.pending_events} events still pending")
    expected = {
        "total": sum(c.count for c in collectors),
        "good": sum(c.good_count for c in collectors),
        "dropped": sum(c.dropped_count for c in collectors),
        "completed": sum(c.completed_count for c in collectors),
    }
    for field, want in expected.items():
        got = getattr(summary, field)
        if got != want:
            failures.append(f"summary.{field} = {got}, collectors say {want}")
    if expected["total"] == 0:
        failures.append("no request reached a terminal state")
    for field in ("drop_rate", "invalid_rate", "mean_goodput_normalized"):
        value = getattr(summary, field)
        if not 0.0 <= value <= 1.0:
            failures.append(f"summary.{field} = {value} outside [0, 1]")
    return failures


def outcome(workload, result):
    """(sim, collectors, modules, summary, simulated record) of a result."""
    if workload.multi:
        collectors = list(result.collectors.values())
        summary = result.aggregate
        record = {
            "summary": asdict(summary),
            "tenants": {k: asdict(v) for k, v in result.summaries.items()},
            "goodput": {k: v.to_dict() if v is not None else None
                        for k, v in result.goodputs.items()},
        }
    else:
        collectors = [result.collector]
        summary = result.summary
        record = {
            "summary": asdict(summary),
            "goodput": (result.goodput.to_dict()
                        if result.goodput is not None else None),
        }
    modules = list(result.cluster.modules.values())
    return result.cluster.sim, collectors, modules, summary, record


def execute(
    name: str,
    seed: int,
    scale: float = 1.0,
    trace: bool = False,
    spans_path: str | None = None,
    sample_every: int = SAMPLE_EVERY,
) -> dict:
    """Run one workload in this process and return the measurements.

    Imports of ``repro`` happen here, so in a fresh process ``import_s``
    is the cold import.  With ``trace`` the layer boundaries are wrapped
    for the run (and restored afterwards).
    """
    workload = WORKLOADS[name]
    t0 = perf_counter()
    import repro  # noqa: F401 - the cold import is part of set-up
    from repro.experiments.runner import run_multi_scenario, run_scenario
    from repro.experiments.scenario import MultiScenario, Scenario
    from repro.simulation.engine import Simulator

    t1 = perf_counter()
    scenario_cls = MultiScenario if workload.multi else Scenario
    scenario = scenario_cls.from_dict(workload.spec(seed, scale))
    scenario.validate()
    t2 = perf_counter()

    tracer = Tracer(sample_every) if trace else None
    patcher = Patcher()
    first_run: list[float] = []

    def mark_first_run(fn):
        def run(*args, **kwargs):
            if not first_run:
                first_run.append(perf_counter())
            return fn(*args, **kwargs)
        return run

    runner = run_multi_scenario if workload.multi else run_scenario
    try:
        if tracer is not None:
            tracer.install()
        patcher.replace(Simulator, "run", mark_first_run)
        result = runner(scenario, lean=workload.lean)
        t_end = perf_counter()
    finally:
        patcher.restore()
        if tracer is not None:
            tracer.restore()

    sim, collectors, modules, summary, record = outcome(workload, result)
    requests = sum(c.count for c in collectors)
    run_s = t_end - first_run[0]
    out = {
        "traced": trace,
        "import_s": t1 - t0,
        "parse_s": t2 - t1,
        "build_s": first_run[0] - t2,
        "setup_s": first_run[0] - t0,
        "run_s": run_s,
        "requests": requests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim": simulated_metrics(collectors, summary),
        "digest": digest(record),
        "failures": check_run(sim, collectors, summary),
    }
    if tracer is not None:
        out["failures"] += tracer.cross_check(sim, collectors, modules)
        workers = [w for m in modules for w in m.workers]
        layers = tracer.layer_metrics(workers, requests)
        out["layers"] = layers
        out["counts_digest"] = digest({
            k: v for k, v in layers.items()
            if not k.endswith("_s") and ".ns_per_" not in k
        })
        if spans_path is not None:
            out["spans"] = tracer.write_spans(spans_path)
    out["ok"] = not out["failures"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    try:
        out = execute(args.workload, args.seed, args.scale, bool(args.trace),
                      args.spans)
    except ImportError as exc:
        if (exc.name or "").split(".")[0] == "repro":
            print(f"perfbench: cannot import repro: {exc}", file=sys.stderr)
            return EXIT_NO_PROGRAM
        raise
    except Exception:
        # A run that raises is a failed operation, reported, not a crash.
        out = {"ok": False, "failures": [traceback.format_exc(limit=3)]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
