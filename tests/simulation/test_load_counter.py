"""``Worker.load`` is a maintained counter: it must equal the recount.

The least-loaded dispatcher reads ``load`` on every pick, so the worker
keeps it as a plain integer updated at each transition instead of summing
three lengths per read.  These tests run small scenarios covering every
path that moves a request into or out of a worker — policy drops,
tombstones, resilience duplicates, queue-internal discards (Nexus's
windowed scan), kills, drains, quotas and the LLM engine — and compare the
counter with ``len(queue) + len(forming) + len(executing)`` after every
draw and at the end of the run.

A draw returns early when the counter says nothing is queued, so every
draw is also checked to leave the forming batch full or the queue empty:
the early exit must never strand a queued request.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_multi_scenario, run_scenario
from repro.experiments.scenario import MultiScenario, Scenario
from repro.metrics.collector import MetricsCollector
from repro.pipeline.applications import Application
from repro.pipeline.llm_profiles import LLMProfile, TokenDist
from repro.pipeline.profiles import ProfileRegistry
from repro.pipeline.spec import chain
from repro.policies.naive import NaivePolicy
from repro.policies.nexus import NexusPolicy
from repro.simulation.cluster import Cluster
from repro.simulation.engine import Simulator
from repro.simulation.failures import FailureEvent, FailureInjector
from repro.simulation.llm import LLMWorker
from repro.simulation.resilience import HopResilience
from repro.simulation.rng import RngStreams
from repro.simulation.worker import Worker
from repro.workload.generators import constant_trace
from repro.workload.replay import replay

from ..conftest import make_cluster, tiny_chain_app


def recount(worker: Worker) -> int:
    """The load as the pre-counter code computed it."""
    n = len(worker.queue) + len(worker.forming)
    if isinstance(worker, LLMWorker):
        return n + len(worker._running)
    if worker.executing is not None:
        n += len(worker.executing.requests)
    return n


def assert_loads(modules) -> int:
    checked = 0
    for module in modules:
        for w in module.workers:
            assert w.load == recount(w), (module.spec.id, w.worker_id)
            assert w.idle == (recount(w) == 0 and w.executing is None)
            checked += 1
    return checked


@pytest.fixture
def checked_draws(monkeypatch):
    """Check every worker of the module after each draw/engine step."""
    calls = {"draws": 0}

    def wrap(cls, name, post=None):
        original = getattr(cls, name)

        def checked(self, *args):
            original(self, *args)
            calls["draws"] += 1
            assert_loads([self.module])
            if post is not None:
                post(self)

        monkeypatch.setattr(cls, name, checked)

    def drained_or_full(worker):
        assert (len(worker.forming) >= worker.module.target_batch
                or len(worker.queue) == 0), (worker.module.spec.id,
                                             worker.worker_id)

    wrap(Worker, "_draw", drained_or_full)
    wrap(LLMWorker, "_step")
    strand = FailureInjector._strand

    def checked_strand(self, worker):
        strand(self, worker)
        assert worker.load == 0  # a killed worker holds nothing
        if not isinstance(worker, LLMWorker):
            assert recount(worker) == 0

    monkeypatch.setattr(FailureInjector, "_strand", checked_strand)
    return calls


def run_single(spec: dict):
    result = run_scenario(Scenario.from_dict(spec))
    return result.cluster.modules.values()


def tm_tweet(policy, **extra) -> dict:
    return {
        "name": "load-counter",
        "app": {"name": "tm"},
        "trace": {"name": "tweet", "duration": 6},
        "policy": policy,
        "utilization": 1.3,
        "seed": 3,
        **extra,
    }


@pytest.mark.parametrize("policy", ["PARD", "Naive", "Clipper++", "Nexus"])
def test_policies(checked_draws, policy):
    modules = run_single(tm_tweet(policy))
    assert assert_loads(modules) > 0
    assert checked_draws["draws"] > 0


def test_dag_sibling_drops_leave_tombstones(checked_draws):
    """A fork branch dropped elsewhere lingers in its sibling's queue."""
    modules = run_single({**tm_tweet("PARD"), "app": {"name": "da"}})
    assert assert_loads(modules) > 0
    assert sum(w.telemetry.skipped_cancelled
               for m in modules for w in m.workers) > 0


def test_windowed_nexus_discards_inside_pop(checked_draws):
    """The scan queue drops head victims without returning them."""
    modules = run_single(
        tm_tweet({"name": "Nexus", "params": {"windowed": True}})
    )
    assert assert_loads(modules) > 0
    assert sum(m.stats.drops for m in modules) > 0


def test_kill_faults(checked_draws):
    """Kills strand and re-dispatch; a total outage parks arrivals."""
    modules = run_single(tm_tweet(
        "PARD",
        utilization=0.9,
        failures=[
            {"time": 1.5, "module_id": "m1", "workers": 1, "downtime": 1.0},
            {"time": 2.0, "module_id": "m2", "workers": 2, "downtime": 0.5},
        ],
    ))
    assert assert_loads(modules) > 0


@pytest.mark.parametrize("policy", ["PARD", "Naive"])
def test_resilience_retries_and_hedges(checked_draws, policy):
    """Duplicate dispatches leave tombstones that draws skip."""
    modules = run_single(tm_tweet(
        policy,
        utilization=1.0,
        resilience={
            "m1": {"timeout": 0.05, "retry": {"max": 2, "base": 0.01}},
            "m2": {"hedge": 0.02},
            "m3": {"timeout": 0.1, "on_timeout": "drop"},
        },
        failures=[
            {"time": 2.0, "module_id": "m2", "workers": 1, "downtime": 1.0},
        ],
    ))
    assert assert_loads(modules) > 0
    skipped = sum(w.telemetry.skipped_cancelled
                  for m in modules for w in m.workers)
    assert skipped > 0


def test_drain_worker_and_reap(checked_draws):
    """Workers drained mid-run keep an exact load until they are reaped."""
    cluster = make_cluster(NaivePolicy(), app=tiny_chain_app(n=2, slo=0.3),
                           workers=4, batch_plan={"m1": 4, "m2": 4})
    module = cluster.modules["m1"]
    for t in (0.5, 1.0, 1.5):
        cluster.sim.schedule(t, module.drain_worker)
    replay(constant_trace(300.0, 3.0), cluster)
    assert module.n_workers < 4
    assert assert_loads(cluster.modules.values()) > 0


def test_tenant_quota(checked_draws):
    multi = MultiScenario.from_dict({
        "name": "quota",
        "tenants": [
            {"scenario": {"name": "a", "app": {"name": "tm"},
                          "policy": "PARD",
                          "trace": {"name": "poisson", "duration": 6,
                                    "base_rate": 40}},
             "quota": 1},
            {"scenario": {"name": "b", "app": {"name": "tm"},
                          "policy": "Naive",
                          "trace": {"name": "poisson", "duration": 6,
                                    "base_rate": 40}}},
        ],
        "seed": 1,
    })
    result = run_multi_scenario(multi)
    modules = result.cluster.modules.values()
    assert any(m._quota_of for m in modules)
    assert assert_loads(modules) > 0


def test_llm_pool(checked_draws):
    multi = MultiScenario.from_dict({
        "name": "llm",
        "tenants": [
            {"scenario": {"name": "chat", "app": {"name": "llm-chat"},
                          "policy": "PARD",
                          "trace": {"name": "poisson", "duration": 8,
                                    "base_rate": 40}}},
            {"scenario": {"name": "rag", "app": {"name": "rag-agentic"},
                          "policy": "Naive",
                          "trace": {"name": "poisson", "duration": 8,
                                    "base_rate": 15}}},
        ],
        "provision_headroom": 0.7,
        "seed": 2,
    })
    result = run_multi_scenario(multi)
    modules = result.cluster.modules.values()
    assert any(isinstance(w, LLMWorker) for m in modules for w in m.workers)
    assert assert_loads(modules) > 0


@pytest.mark.parametrize("preempt", [False, True])
@pytest.mark.parametrize("windowed", [False, True])
def test_llm_engine_paths(checked_draws, preempt, windowed):
    """KV blocking and preemption, admission-control rejects, policy and
    scan drops, hedge duplicates and a kill on a dedicated LLM module."""
    profile = LLMProfile(
        name="gen", max_batch=4, prefill_base=0.002,
        prefill_per_token=0.00002, decode_base=0.001,
        decode_per_token=0.0001, kv_capacity=240, preempt=preempt,
        prompt_dist=TokenDist(kind="uniform", low=20, high=220),
        output_dist=TokenDist(kind="uniform", low=4, high=40),
    )
    cluster = Cluster(
        sim=Simulator(),
        app=Application(spec=chain("llm", ["gen"]), slo=0.25),
        policy=NexusPolicy(windowed=windowed),
        workers=2,
        registry=ProfileRegistry([profile]),
        metrics=MetricsCollector(),
        rng=RngStreams(seed=7),
        resilience={"m1": HopResilience(timeout=0.1, hedge=0.03)},
    )
    FailureInjector(cluster, events=[
        FailureEvent(time=0.4, module_id="m1", workers=1, downtime=0.3),
    ]).schedule_all()
    for i in range(300):
        cluster.submit_at(0.004 * i)
    cluster.sim.run()
    assert assert_loads(cluster.modules.values()) == 2
