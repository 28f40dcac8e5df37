"""The benchmark's three workloads, declared as plain scenario dicts.

Each workload is the same schema scenario files use, driven through the
public ``run_scenario`` / ``run_multi_scenario`` entry points, so the
benchmark does not depend on ``repro.bench`` or any other internal
harness.  ``--seed`` becomes the scenario seed: it seeds the arrival
generators (tweet, Poisson) and the simulator's RNG streams.  The
constant source of ``stream-overload`` is seed-free; there the seed only
reaches the simulator's RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Constant arrival rate of ``stream-overload`` (req/s), far above what
#: its eight fixed workers per module can serve.
STREAM_RATE = 5000.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario builder plus how to run it."""

    name: str
    why: str
    #: ``(seed, duration) -> scenario dict``.
    build: Callable[[int, float], dict]
    #: Simulated trace seconds at full size.
    duration: float
    #: ``MultiScenario`` (shared cluster) rather than ``Scenario``.
    multi: bool
    #: Lean collection: streaming counters only, no per-request records.
    lean: bool

    def spec(self, seed: int, scale: float = 1.0) -> dict:
        """The scenario dict for ``seed``; ``scale`` shrinks the trace."""
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale!r}")
        return self.build(seed, self.duration * scale)


def _stream_overload(seed: int, duration: float) -> dict:
    return {
        "name": "perfbench-stream-overload",
        "app": {"name": "tm"},
        "trace": {
            "name": "constant",
            "duration": duration,
            "base_rate": STREAM_RATE,
            "stream": True,
        },
        "policy": "PARD",
        "workers": 8,
        "seed": seed,
    }


def _dag_tweet(seed: int, duration: float) -> dict:
    return {
        "name": "perfbench-dag-tweet",
        "app": {"name": "da"},
        "trace": {"name": "tweet", "duration": duration},
        "policy": "PARD",
        "utilization": 0.95,
        "workers": 4,
        "seed": seed,
    }


def _llm_mix(seed: int, duration: float) -> dict:
    return {
        "name": "perfbench-llm-mix",
        "tenants": [
            {
                "weight": 1.0,
                "scenario": {
                    "name": "chat",
                    "app": {"name": "llm-chat"},
                    "policy": "PARD",
                    "trace": {
                        "name": "poisson",
                        "duration": duration,
                        "base_rate": 60,
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
                        "base_rate": 25,
                    },
                    "router": {
                        "kind": "probabilistic",
                        "weights": {"rerank": 0.6, "generate_direct": 0.4},
                    },
                    "goodput": {"ttft": 1.0, "e2e": 10.0},
                },
            },
        ],
        # Pools sized for 70 % of the steady load: a stationary overload,
        # so drops are the policy's steady behaviour rather than a burst
        # that one seed places well and another badly.
        "provision_headroom": 0.7,
        "seed": seed,
    }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="stream-overload",
            why=(
                "tm chain on a streaming constant source far above fixed "
                "provisioning, lean collection: deep DEPQs, per-arrival "
                "dispatch and should_drop, ~1.1 events per request"
            ),
            build=_stream_overload,
            duration=8.0,
            multi=False,
            lean=True,
        ),
        Workload(
            name="dag-tweet",
            why=(
                "da DAG on the bursty tweet trace at utilization 0.95 with "
                "full records: fan-out/join flow, window stats, HBF/LBF "
                "switches, shallow queues"
            ),
            build=_dag_tweet,
            duration=40.0,
            multi=False,
            lean=False,
        ),
        Workload(
            name="llm-mix",
            why=(
                "llm-chat next to rag-agentic on a shared cluster with a "
                "token GoodputSpec: the LLM engine dominates and DEPQ and "
                "dispatch are bypassed (control)"
            ),
            build=_llm_mix,
            duration=60.0,
            multi=True,
            lean=False,
        ),
    )
}
