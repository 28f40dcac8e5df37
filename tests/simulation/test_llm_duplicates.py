"""Resilience duplicates on an LLM hop must not corrupt engine state.

A timeout retry or a hedge puts a second queue entry for the *same*
request (same rid) on a worker, possibly the worker already running it.
The engine keys its per-sequence state by admission, not by rid, so the
losing entry is skipped at admission like any claimed duplicate: no
double KV reservation, no sequence admitted twice, and preempt mode's
resume path only ever sees the sequence it preempted.
"""

from __future__ import annotations

import pytest

from repro.metrics.collector import MetricsCollector
from repro.pipeline.applications import Application
from repro.pipeline.llm_profiles import LLMProfile, TokenDist
from repro.pipeline.profiles import ProfileRegistry
from repro.pipeline.spec import chain
from repro.policies.nexus import NexusPolicy
from repro.simulation.cluster import Cluster
from repro.simulation.engine import Simulator
from repro.simulation.request import RequestStatus
from repro.simulation.resilience import HopResilience
from repro.simulation.rng import RngStreams


@pytest.mark.parametrize("preempt", [False, True])
@pytest.mark.parametrize("windowed", [False, True])
def test_hedged_llm_hop_releases_everything(preempt, windowed):
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
    requests = [cluster.submit_at(0.004 * i) for i in range(300)]
    cluster.sim.run()
    workers = cluster.modules["m1"].workers
    assert cluster.metrics.res_hedges > 0
    assert [w.kv_used for w in workers] == [0, 0]
    assert sum(r.status is not RequestStatus.IN_FLIGHT for r in requests) == 300
    assert cluster.metrics.submitted == len(cluster.metrics.records) == 300
    for w in workers:
        assert w._seqs == [] and w._running == []
        assert w._need_prefill == [] and w._preempted == {}
        assert w.forming == [] and len(w.queue) == 0
        assert w.load == 0 and w.idle
