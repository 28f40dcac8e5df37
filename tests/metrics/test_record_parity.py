"""Per-request record parity: every field of every record is pinned.

The perfbench summary digest covers run-level aggregates only; these
digests cover each :class:`RequestRecord` and :class:`VisitRecord` field,
so a change to how records are built (or to any latency stamp they copy)
shows up here even when the summary does not move.  Floats are hashed as
``repr`` (exact), and request ids relative to the first record, because
the id counter is process-global.

The ``*_RUN_DIGEST`` constants pin whole runs (summary plus records,
without request ids) that were first run from live objects — a custom
trace, an inline application, a seeded ablation instance — and are now
declared as scenario data.

The constants were generated by this file's ``record_digest`` and must
only change together with a deliberate behaviour change.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

from repro.experiments.configs import standard_config
from repro.experiments.runner import run_multi_scenario, run_scenario
from repro.experiments.scenario import AppSpec, MultiScenario, Scenario
from repro.policies.registry import make_policy
from repro.simulation.request import RequestStatus

from ..conftest import make_cluster, tiny_dag_app

DAG_TWEET_DIGEST = "da08739ee029c739"
LLM_MIX_DIGEST = "ca199aed108b2968"
SIBLING_FORMING_DIGEST = "a0d876f996534e4b"
POISSON_RUN_DIGEST = "9440b2a140c67ca1"
INLINE_APP_RUN_DIGEST = "6b5f4e4d295646b5"
ABLATION_RUN_DIGEST = "059dafd7d72864d7"


def _opt(value) -> str:
    return "-" if value is None else repr(value)


def record_digest(records, rids: bool = True) -> str:
    """16 hex digits of sha256 over every field of ``records``, in order.

    ``rids=False`` leaves the request ids out entirely.
    """
    h = hashlib.sha256()
    if not records:
        return h.hexdigest()[:16]
    rid0 = records[0].rid
    for r in records:
        visits = ";".join(
            f"{v.module_id},{v.queueing_delay!r},{v.batch_wait!r},"
            f"{v.execution!r},{v.gpu_time!r},{v.batch_size}"
            for v in r.visits
        )
        rid = f"{r.rid - rid0}|" if rids else ""
        h.update(
            f"{rid}{r.sent_at!r}|{r.finished_at!r}|"
            f"{r.status.value}|{r.met_slo}|{r.slo!r}|{r.gpu_time!r}|"
            f"{_opt(r.dropped_at_module)}|"
            f"{_opt(r.drop_reason and r.drop_reason.value)}|[{visits}]|"
            f"{_opt(r.first_token_at)}|{_opt(r.last_token_at)}|"
            f"{r.tokens_out}\n".encode()
        )
    return h.hexdigest()[:16]


def run_digest(result) -> str:
    """16 hex digits over a run's summary and its records (no rids)."""
    h = hashlib.sha256(repr(asdict(result.summary)).encode())
    h.update(record_digest(result.collector.records, rids=False).encode())
    return h.hexdigest()[:16]


def test_dag_tweet_records():
    result = run_scenario(Scenario.from_dict({
        "name": "record-parity-dag-tweet",
        "app": {"name": "da"},
        "trace": {"name": "tweet", "duration": 4},
        "policy": "PARD",
        "utilization": 0.95,
        "workers": 4,
        "seed": 1,
    }))
    records = result.collector.records
    assert len(records) > 500
    assert any(r.status is RequestStatus.DROPPED for r in records)
    assert record_digest(records) == DAG_TWEET_DIGEST


def test_llm_mix_records():
    def tenant(name, app, rate, **extra):
        return {"scenario": {
            "name": name,
            "app": {"name": app},
            "policy": "PARD",
            "trace": {"name": "poisson", "duration": 4, "base_rate": rate},
            **extra,
        }}

    result = run_multi_scenario(MultiScenario.from_dict({
        "name": "record-parity-llm-mix",
        "tenants": [
            tenant("chat", "llm-chat", 60,
                   goodput={"ttft": 0.35, "tpot": 0.005, "e2e": 8.0}),
            tenant("rag", "rag-agentic", 25,
                   router={"kind": "probabilistic",
                           "weights": {"rerank": 0.6,
                                       "generate_direct": 0.4}},
                   goodput={"ttft": 1.0, "e2e": 10.0}),
        ],
        "provision_headroom": 0.7,
        "seed": 1,
    }))
    records = [r for name in sorted(result.collectors)
               for r in result.collectors[name].records]
    assert len(records) > 100
    assert any(r.tokens_out for r in records)
    assert record_digest(records) == LLM_MIX_DIGEST


def test_sibling_drop_while_branch_forms():
    """A record is a snapshot taken when the request terminates.

    When one fork branch drops a request whose sibling branch has already
    drawn it into a forming batch, that batch still starts later and
    stamps the sibling visit's execution times.  The record, taken at the
    drop, must not include that visit.
    """
    cluster = make_cluster(make_policy("Clipper++", 1), app=tiny_dag_app(slo=0.2),
                           workers=2, seed=1)
    requests = [cluster.submit_at(0.006 * i) for i in range(300)]
    cluster.start_ticks()
    cluster.sim.run(until=0.006 * 300 + 2)
    cluster.stop_ticks()
    cluster.sim.run()
    records = cluster.metrics.records
    by_rid = {r.rid: r for r in records}
    stamped_late = 0
    for request in requests:
        if request.status is not RequestStatus.DROPPED:
            continue
        recorded = {v.module_id for v in by_rid[request.rid].visits}
        for mid, visit in request.visits.items():
            if (visit.t_exec_end is not None and mid not in recorded
                    and visit.t_batched <= request.dropped_at_time):
                stamped_late += 1
    assert stamped_late > 0
    assert record_digest(records) == SIBLING_FORMING_DIGEST


def test_poisson_trace_run():
    """A fixed pool under a generated Poisson trace (Figure 14a's form)."""
    result = run_scenario(Scenario(
        app={"name": "lv"},
        trace={"name": "poisson", "base_rate": 220.0, "duration": 8.0},
        workers={"m1": 2, "m2": 2, "m3": 2, "m4": 1, "m5": 2},
        policy="PARD",
    ))
    assert result.summary.total > 1500
    assert run_digest(result) == POISSON_RUN_DIGEST


def test_inline_app_run():
    """An inline re-merging diamond DAG (the diamond-merge benchmark)."""
    modules = [
        {"id": "m1", "model": "object_detection", "subs": ["a", "b"]},
        {"id": "a", "model": "face_recognition", "pres": ["m1"],
         "subs": ["j1"]},
        {"id": "b", "model": "text_recognition", "pres": ["m1"],
         "subs": ["j1"]},
        {"id": "j1", "model": "person_detection", "pres": ["a", "b"],
         "subs": ["c", "d"]},
        {"id": "c", "model": "expression_recognition", "pres": ["j1"],
         "subs": ["j2"]},
        {"id": "d", "model": "pose_recognition", "pres": ["j1"],
         "subs": ["j2"]},
        {"id": "j2", "model": "eye_tracking", "pres": ["c", "d"]},
    ]
    result = run_scenario(Scenario(
        app=AppSpec.from_dict({"pipeline": "diamond-of-diamonds",
                               "modules": modules, "slo": 0.5}),
        trace={"name": "tweet", "base_rate": 40.0, "duration": 8.0},
        workers=1,
        policy="PARD",
    ))
    assert result.summary.total > 300
    assert run_digest(result) == INLINE_APP_RUN_DIGEST


def test_calibrated_scaling_ablation_run():
    """A calibrated standard workload with scaling under an ablation."""
    result = run_scenario(standard_config(
        "lv", "tweet", seed=1, duration=12.0, policy="PARD-instant"
    ))
    assert result.scenario.scaling.enabled
    assert result.policy_name == "PARD-instant"
    assert run_digest(result) == ABLATION_RUN_DIGEST
