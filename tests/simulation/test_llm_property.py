"""Property tests: token-flow lifecycle and determinism for LLM apps.

The continuous-batching engine must uphold the same lifecycle invariant
as fixed-duration workers — every admitted request reaches exactly one
terminal state with no token or KV state left behind — under every
registered policy, including on the multi-exit agentic RAG DAG where a
probabilistic router kills the untaken branch.  After every engine step
the reserved cache equals the sum of the running sequences'
reservations.  A sweep over the committed ``llm_serving.json`` example
additionally pins that a process pool reproduces the serial run
byte-for-byte.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.metrics.collector import MetricsCollector
from repro.pipeline.applications import get_application
from repro.pipeline.profiles import DEFAULT_PROFILES
from repro.policies.registry import known_policies, make_policy
from repro.simulation.cluster import Cluster
from repro.simulation.engine import Simulator
from repro.simulation.llm import LLMWorker
from repro.simulation.request import RequestStatus
from repro.simulation.rng import RngStreams
from repro.simulation.routing import ProbabilisticRouter

SCENARIO_DIR = (
    Path(__file__).resolve().parent.parent.parent / "examples" / "scenarios"
)


@pytest.fixture
def kv_checked(monkeypatch):
    """Check ``kv_used`` against the running records after every step."""
    step = LLMWorker._step
    steps = {"n": 0}

    def checked(self):
        step(self)
        steps["n"] += 1
        assert self.kv_used == sum(s.reserved for s in self._seqs)
        assert self._running == [s.request for s in self._seqs]

    monkeypatch.setattr(LLMWorker, "_step", checked)
    return steps


def _run_llm(app_name: str, policy_name: str, requests: int = 12) -> Cluster:
    cluster = Cluster(
        sim=Simulator(),
        app=get_application(app_name),
        policy=make_policy(policy_name, seed=3),
        workers=1,
        registry=DEFAULT_PROFILES,
        metrics=MetricsCollector(),
        rng=RngStreams(seed=3),
        router=ProbabilisticRouter(
            {"rerank": 0.5, "generate_direct": 0.5}, seed=3
        )
        if app_name == "rag-agentic"
        else None,
    )
    for i in range(requests):
        cluster.submit_at(0.02 * i)
    cluster.sim.run()
    return cluster


@pytest.mark.parametrize("app_name", ["llm-chat", "rag-agentic"])
@pytest.mark.parametrize("policy_name", known_policies())
def test_every_llm_request_terminal_exactly_once(
    kv_checked, app_name, policy_name
):
    cluster = _run_llm(app_name, policy_name)
    assert kv_checked["n"] > 0
    records = cluster.metrics.records
    assert len(records) == cluster.metrics.submitted == 12
    rids = [r.rid for r in records]
    assert len(rids) == len(set(rids))
    for record in records:
        assert record.status in (
            RequestStatus.COMPLETED, RequestStatus.DROPPED,
        )
    # All per-request token-flow state was reclaimed...
    assert not cluster._join_arrived
    assert not cluster._join_expected
    assert not cluster._exit_expected
    # ...and every KV reservation and sequence record was released.
    for module in cluster.modules.values():
        for worker in module.workers:
            if isinstance(worker, LLMWorker):
                assert worker.kv_used == 0
                assert not worker._seqs and not worker._running
                assert not worker._need_prefill
                assert not worker._preempted


@pytest.mark.parametrize("app_name", ["llm-chat", "rag-agentic"])
def test_same_seed_reruns_are_identical(app_name):
    def outcome(cluster):
        return [
            (r.status, r.tokens_out, r.finished_at, r.first_token_at)
            for r in sorted(cluster.metrics.records, key=lambda r: r.sent_at)
        ]

    a = _run_llm(app_name, "PARD")
    b = _run_llm(app_name, "PARD")
    assert outcome(a) == outcome(b)


def test_llm_serving_sweep_pool_matches_serial_bytes():
    """Serial and 2-process sweeps over the committed LLM example are
    bitwise equal — the determinism contract the CI smoke and the golden
    rely on."""
    from repro.experiments.sweep import (
        load_scenario_cells,
        run_sweep,
        summaries_text,
    )

    cells = load_scenario_cells(SCENARIO_DIR / "llm_serving.json")
    serial = run_sweep(cells, workers=1, cache_dir=None)
    assert all(r.ok for r in serial), [r.error for r in serial if not r.ok]
    parallel = run_sweep(cells, workers=2, cache_dir=None)
    assert summaries_text(parallel) == summaries_text(serial)
    # The goodput block is part of the replicated payload.
    assert '"per_app_goodput"' in summaries_text(serial)
