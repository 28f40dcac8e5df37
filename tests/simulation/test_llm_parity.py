"""Byte-level parity pins for LLMWorker paths that no golden reaches.

The committed goldens cover LLM serving only through clean block-mode
runs.  These scenarios drive the remaining engine paths — preemption and
resumption, a kill and a degrade fault in mid-decode, admission-control
rejects, and a sibling branch dropping a running sequence — and digest
everything the engine writes onto requests: per-request token counts,
first/last token times, status and drop reason, and per-visit claim and
execution times, batch size and GPU time, all as ``repr`` floats.  The
expected digests were produced by the engine this file was introduced
against; a rewrite of the step path must reproduce them byte for byte.

Resilience duplicates (retries/hedges) on LLM hops are deliberately left
out: see ``test_llm_duplicates.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.metrics.collector import MetricsCollector
from repro.pipeline.applications import Application
from repro.pipeline.llm_profiles import LLMProfile, TokenDist
from repro.pipeline.profiles import ModelProfile, ProfileRegistry
from repro.pipeline.spec import ModuleSpec, PipelineSpec, chain
from repro.policies.naive import NaivePolicy
from repro.policies.registry import make_policy
from repro.simulation.cluster import Cluster
from repro.simulation.engine import Simulator
from repro.simulation.failures import FailureEvent, FailureInjector
from repro.simulation.llm import LLMWorker
from repro.simulation.request import DropReason, RequestStatus
from repro.simulation.rng import RngStreams


def profile(name: str = "gen", **overrides) -> LLMProfile:
    kwargs = dict(
        name=name, max_batch=6, prefill_base=0.002,
        prefill_per_token=0.00002, decode_base=0.001,
        decode_per_token=0.0001, kv_capacity=600,
        prompt_dist=TokenDist(kind="uniform", low=20, high=220),
        output_dist=TokenDist(kind="uniform", low=4, high=40),
    )
    kwargs.update(overrides)
    return LLMProfile(**kwargs)


def build(app: Application, profiles, policy=None, workers=1) -> Cluster:
    return Cluster(
        sim=Simulator(),
        app=app,
        policy=policy or NaivePolicy(),
        workers=workers,
        registry=ProfileRegistry(list(profiles)),
        metrics=MetricsCollector(),
        rng=RngStreams(seed=11),
    )


def run(cluster: Cluster, n: int, gap: float) -> list:
    requests = [cluster.submit_at(gap * i) for i in range(n)]
    cluster.sim.run()
    return requests


def digest(requests) -> str:
    """Everything the engine writes onto requests, in submission order."""
    lines = []
    for r in requests:
        lines.append(repr((
            r.status.name, r.dropped_at_module,
            None if r.drop_reason is None else r.drop_reason.name,
            r.finished_at, r.tokens_out, r.first_token_at, r.last_token_at,
        )))
        for mid in sorted(r.visits):
            v = r.visits[mid]
            lines.append(repr((
                mid, v.t_received, v.t_batched, v.t_exec_start, v.t_exec_end,
                v.batch_size, v.worker_id, v.gpu_time,
                v.prompt_tokens, v.output_tokens,
            )))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def assert_drained(cluster: Cluster, requests) -> None:
    assert all(r.status is not RequestStatus.IN_FLIGHT for r in requests)
    for module in cluster.modules.values():
        for w in module.workers:
            if isinstance(w, LLMWorker):
                assert w.kv_used == 0
                assert w.load == 0 and w.idle


def probe(cluster: Cluster, every: float, until: float, check) -> list:
    """Run ``check()`` every ``every`` seconds; collect truthy results."""
    seen: list = []

    def tick() -> None:
        hit = check()
        if hit:
            seen.append(hit)
        if cluster.sim.now + every <= until:
            cluster.sim.schedule_after(every, tick)

    cluster.sim.schedule(0.0, tick)
    return seen


def llm_workers(cluster: Cluster, mid: str = "m1") -> list[LLMWorker]:
    return cluster.modules[mid].workers


@pytest.mark.parametrize("preempt, expected", [
    (False, "ee9261c007a2cf94"),
    (True, "93132c513820aa70"),
])
def test_kv_pressure(preempt, expected):
    """Admission blocks (block mode) or preempts and resumes (preempt
    mode) under cache pressure, with policy drops at admission."""
    cluster = build(
        Application(spec=chain("llm", ["gen"]), slo=0.6),
        [profile(kv_capacity=400, preempt=preempt)],
        policy=make_policy("PARD", seed=1), workers=2,
    )

    def preempted():
        # A claimed sequence back in ``forming`` was preempted.
        return any(
            r.visits["m1"].t_batched is not None
            for w in llm_workers(cluster) for r in w.forming
        )

    seen = probe(cluster, 0.0005, 1.0, preempted)
    requests = run(cluster, 160, 0.004)
    assert bool(seen) == preempt
    assert sum(r.status is RequestStatus.COMPLETED for r in requests) > 80
    assert_drained(cluster, requests)
    assert digest(requests) == expected


@pytest.mark.parametrize("preempt, expected", [
    (False, "4e391a73e0346b45"),
    (True, "54c66896c2127256"),
])
def test_faults_mid_decode(preempt, expected):
    """A kill strands running sequences for re-dispatch; a degrade fault
    stretches the iterations of sequences already decoding."""
    cluster = build(
        Application(spec=chain("llm", ["gen"]), slo=5.0),
        [profile(kv_capacity=500, preempt=preempt)], workers=2,
    )
    FailureInjector(cluster, events=[
        FailureEvent(time=0.12, module_id="m1", workers=1, downtime=0.1),
        FailureEvent(time=0.3, module_id="m1", workers=1, downtime=0.15,
                     kind="degrade", factor=3.0),
    ]).schedule_all()
    decoding = {}

    def at(t, key):
        cluster.sim.schedule(t, lambda: decoding.setdefault(key, sum(
            w.kv_used for w in llm_workers(cluster)
            if w.executing is not None)))

    at(0.1199, "kill")
    at(0.3001, "degrade")
    requests = run(cluster, 120, 0.004)
    assert decoding["kill"] > 0 and decoding["degrade"] > 0
    assert all(r.status is RequestStatus.COMPLETED for r in requests)
    assert_drained(cluster, requests)
    assert digest(requests) == expected


@pytest.mark.parametrize("preempt, expected", [
    (False, "971124f7ee66b05b"),
    (True, "c1b28a1d5682559f"),
])
def test_admission_control_rejects(preempt, expected):
    """A sequence whose worst case exceeds the cache is rejected outright;
    the rest complete."""
    cluster = build(
        Application(spec=chain("llm", ["gen"]), slo=5.0),
        [profile(kv_capacity=200, preempt=preempt)],
    )
    requests = run(cluster, 80, 0.01)
    reasons = {r.drop_reason for r in requests
               if r.status is RequestStatus.DROPPED}
    assert reasons == {DropReason.ADMISSION_CONTROL}
    assert sum(r.status is RequestStatus.COMPLETED for r in requests) > 20
    assert_drained(cluster, requests)
    assert digest(requests) == expected


@pytest.mark.parametrize("preempt, expected", [
    (False, "fb97138cdabf7088"),
    (True, "9933ec693a5ee406"),
])
def test_sibling_drop_evicts_running_sequence(preempt, expected):
    """Fan-out to two LLM branches: the narrow one rejects long prompts
    while the wide one is already decoding the same request, so the wide
    engine must evict a sequence that is no longer in flight."""
    spec = PipelineSpec(name="fan", modules=[
        ModuleSpec("m1", "embed", subs=("wide", "narrow")),
        ModuleSpec("wide", "gen", pres=("m1",), subs=("m4",)),
        ModuleSpec("narrow", "check", pres=("m1",), subs=("m4",)),
        ModuleSpec("m4", "embed", pres=("wide", "narrow")),
    ])
    cluster = build(
        Application(spec=spec, slo=5.0),
        [
            ModelProfile("embed", base=0.001, per_item=0.0002, max_batch=8),
            profile("gen", kv_capacity=1500, preempt=preempt,
                    output_dist=TokenDist(kind="uniform", low=60, high=200)),
            profile("check", kv_capacity=180, prefill_base=0.02,
                    max_batch=1, preempt=preempt),
        ],
    )
    requests = run(cluster, 60, 0.01)
    evicted = [
        r for r in requests
        if r.drop_reason is DropReason.ADMISSION_CONTROL
        and r.visits["wide"].t_exec_start is not None
        and r.visits["wide"].t_exec_end is None
    ]
    assert evicted  # dropped by the sibling while decoding at "wide"
    assert all(r.tokens_out > 0 for r in evicted)
    assert_drained(cluster, requests)
    assert digest(requests) == expected
