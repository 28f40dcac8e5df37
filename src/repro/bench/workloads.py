"""Canonical benchmark workloads for the simulation core.

Three macro-benchmark components mirror the three ways the repo exercises
the simulator:

* **single-dag** — the paper's DAG application (``da``) under PARD at high
  utilization: entry fan-out, join accounting and per-fork routing on
  every request.
* **multi-tenant** — a shared cluster hosting the DAG app next to the
  ``tm`` chain (they share the ``face_recognition`` pool), with a burst on
  the chain tenant: pool demultiplexing, per-tenant books, cross-app load.
* **sweep-grid** — a fig-10-style apps x policies grid (all four paper
  applications under PARD and Naive), executed serially in-process so the
  number measures the engine rather than process-pool overhead.  Cells
  only consume summaries, so they run lean.
* **llm-serving** — a shared cluster hosting an LLM chat tenant next to
  the agentic RAG pipeline: iteration-level continuous batching, KV-cache
  reservations and token-SLO goodput accounting on the hot path.
* **million-request** — one heavily overloaded chain replaying a
  *streaming* constant trace (one million arrivals at full fidelity):
  measures the lazy arrival pipeline end to end, where the old eager
  replay would pre-schedule a million heap events before t=0.

Workloads are declared as plain scenario dicts — the same schema scenario
files use — so the harness is self-contained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..experiments.runner import run_multi_scenario, run_scenario
from ..experiments.scenario import (
    MultiScenario,
    Scenario,
    SweepSpec,
    scenario_from_dict,
)

#: Trace seconds per workload: full fidelity vs ``--quick``.
_FULL = {"single": 30.0, "multi": 20.0, "sweep": 15.0, "llm": 15.0,
         "million": 200.0}
_QUICK = {"single": 10.0, "multi": 8.0, "sweep": 6.0, "llm": 6.0,
          "million": 20.0}

#: Constant arrival rate of the million-request workload: 5000 req/s x
#: 200 s = one million arrivals at full fidelity (100k under --quick).
_MILLION_RATE = 5000.0


def _single_dag(duration: float) -> dict:
    return {
        "name": "bench-single-dag",
        "app": {"name": "da"},
        "trace": {"name": "tweet", "duration": duration},
        "policy": "PARD",
        "utilization": 0.95,
        "workers": 4,
        "seed": 0,
    }


def _multi_tenant(duration: float) -> dict:
    return {
        "name": "bench-multi-tenant",
        "tenants": [
            {
                "weight": 1.0,
                "scenario": {
                    "name": "dag",
                    "app": {"name": "da"},
                    "policy": "PARD",
                    "trace": {
                        "name": "tweet",
                        "duration": duration,
                        "base_rate": 60,
                    },
                },
            },
            {
                "weight": 1.0,
                "scenario": {
                    "name": "chain",
                    "app": {"name": "tm"},
                    "policy": "PARD",
                    "trace": {
                        "name": "poisson",
                        "duration": duration,
                        "base_rate": 70,
                        "bursts": [
                            {"start": duration * 0.4, "length": duration * 0.25,
                             "factor": 3.0}
                        ],
                    },
                },
            },
        ],
        "seed": 0,
    }


def _sweep_grid(duration: float) -> dict:
    return {
        "name": "bench-sweep-grid",
        "base": {
            "name": "cell",
            "app": {"name": "tm"},
            "trace": {"name": "tweet", "duration": duration},
            "policy": "PARD",
            "utilization": 0.95,
            "workers": 4,
            "seed": 0,
        },
        "axes": {
            "app.name": ["tm", "lv", "gm", "da"],
            "policy": ["PARD", "Naive"],
        },
    }


def _llm_serving(duration: float) -> dict:
    return {
        "name": "bench-llm-serving",
        "tenants": [
            {
                "weight": 1.0,
                "scenario": {
                    "name": "chat",
                    "app": {"name": "llm-chat"},
                    "policy": "PARD",
                    "trace": {
                        "name": "tweet",
                        "duration": duration,
                        "base_rate": 30,
                    },
                    "goodput": {"ttft": 0.35, "tpot": 0.005, "e2e": 8.0},
                },
            },
            {
                "weight": 1.0,
                "scenario": {
                    "name": "rag",
                    "app": {"name": "rag-agentic"},
                    "policy": "PARD",
                    "trace": {
                        "name": "poisson",
                        "duration": duration,
                        "base_rate": 12,
                    },
                    "router": {
                        "kind": "probabilistic",
                        "weights": {"rerank": 0.6, "generate_direct": 0.4},
                    },
                    "goodput": {"ttft": 1.0, "e2e": 10.0},
                },
            },
        ],
        "seed": 0,
    }


def _million_request(duration: float) -> dict:
    return {
        "name": "bench-million-request",
        "app": {"name": "tm"},
        "trace": {
            "name": "constant",
            "duration": duration,
            "base_rate": _MILLION_RATE,
            "stream": True,
        },
        # Deliberately overloaded at fixed provisioning: the run exercises
        # per-arrival admission and proactive dropping at full stream rate
        # without letting queues (and memory) grow with the backlog.
        "policy": "PARD",
        "workers": 8,
        "seed": 0,
    }


@dataclass(frozen=True)
class BenchWorkload:
    """One timed macro-benchmark component."""

    name: str
    kind: str  # "single" | "multi" | "sweep" | "llm" | "million"
    run: Callable[[], tuple[int, int]]  # () -> (simulator events, requests)
    cells: int = 1


def _run_single(spec: dict) -> tuple[int, int]:
    result = run_scenario(Scenario.from_dict(spec))
    return result.cluster.sim.processed_events, result.summary.total


def _run_multi(spec: dict) -> tuple[int, int]:
    result = run_multi_scenario(MultiScenario.from_dict(spec))
    return result.cluster.sim.processed_events, result.aggregate.total


def _run_million(spec: dict) -> tuple[int, int]:
    # Lean collection is mandatory here: a million per-request records
    # would dominate the measurement (and the memory) of the very
    # pipeline whose flatness this workload benchmarks.
    result = run_scenario(Scenario.from_dict(spec), lean=True)
    return result.cluster.sim.processed_events, result.summary.total


def _run_sweep(spec: dict) -> tuple[int, int]:
    sweep = SweepSpec(base=scenario_from_dict(spec["base"]),
                      axes=spec["axes"], name=spec["name"])
    events = requests = 0
    for scenario in sweep.expand():
        scenario.validate()
        result = run_scenario(scenario, lean=True)
        events += result.cluster.sim.processed_events
        requests += result.summary.total
    return events, requests


def bench_workloads(quick: bool = False) -> list[BenchWorkload]:
    """The canonical macro-benchmark suite (scaled down under --quick)."""
    durations = _QUICK if quick else _FULL
    single = _single_dag(durations["single"])
    multi = _multi_tenant(durations["multi"])
    sweep = _sweep_grid(durations["sweep"])
    n_cells = 1
    for values in sweep["axes"].values():
        n_cells *= len(values)
    llm = _llm_serving(durations["llm"])
    million = _million_request(durations["million"])
    return [
        BenchWorkload("single-dag", "single", lambda: _run_single(single)),
        BenchWorkload("multi-tenant", "multi", lambda: _run_multi(multi)),
        BenchWorkload("sweep-grid", "sweep", lambda: _run_sweep(sweep),
                      cells=n_cells),
        BenchWorkload("llm-serving", "llm", lambda: _run_multi(llm)),
        BenchWorkload("million-request", "million",
                      lambda: _run_million(million)),
    ]
