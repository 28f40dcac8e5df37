"""The record types' contract: immutable, hashable, picklable values."""

from __future__ import annotations

import pickle

import pytest

from repro.metrics.collector import MetricsCollector, RequestRecord, VisitRecord
from repro.simulation.request import DropReason, Request, RequestStatus


def visit(module_id: str = "m1", gpu_time: float = 0.004) -> VisitRecord:
    return VisitRecord(module_id, 0.01, 0.002, 0.02, gpu_time, 4)


def record(**overrides) -> RequestRecord:
    fields = dict(
        rid=7, sent_at=1.0, finished_at=1.25, status=RequestStatus.COMPLETED,
        met_slo=True, slo=0.3, gpu_time=0.008, dropped_at_module=None,
        drop_reason=None, visits=(visit("m1"), visit("m2")),
    )
    fields.update(overrides)
    return RequestRecord(**fields)


@pytest.mark.parametrize("make, name", [
    (visit, "gpu_time"),
    (record, "met_slo"),
    (record, "visits"),
])
def test_fields_cannot_be_assigned(make, name):
    r = make()
    with pytest.raises(AttributeError):
        setattr(r, name, getattr(r, name))


def test_no_new_attributes():
    with pytest.raises(AttributeError):
        record().note = "x"


def test_equal_values_hash_equal():
    assert record() == record()
    assert hash(record()) == hash(record())
    assert record() != record(rid=8)
    assert len({record(), record(), record(tokens_out=3)}) == 2
    assert visit() == visit() and hash(visit()) == hash(visit())


def test_pickle_round_trip():
    r = record(status=RequestStatus.DROPPED, met_slo=False,
               dropped_at_module="m2",
               drop_reason=DropReason.ESTIMATED_VIOLATION,
               first_token_at=1.1, last_token_at=1.2, tokens_out=9)
    back = pickle.loads(pickle.dumps(r))
    assert back == r
    assert type(back) is RequestRecord
    assert type(back.visits[0]) is VisitRecord
    assert back.drop_reason is DropReason.ESTIMATED_VIOLATION


def test_derived_properties():
    good = record()
    assert good.latency == 1.25 - 1.0
    assert not good.counts_as_dropped
    assert good.wasted_gpu_time == 0.0
    late = record(met_slo=False)
    assert late.counts_as_dropped  # completed but over the SLO (§5.1)
    assert late.wasted_gpu_time == 0.008
    dropped = record(status=RequestStatus.DROPPED, met_slo=False,
                     dropped_at_module="m1",
                     drop_reason=DropReason.ALREADY_EXPIRED)
    assert dropped.counts_as_dropped
    assert dropped.wasted_gpu_time == 0.008


def test_defaults():
    r = RequestRecord(1, 0.0, 0.1, RequestStatus.COMPLETED, True, 0.3, 0.0,
                      None, None)
    assert r.visits == ()
    assert r.first_token_at is None
    assert r.last_token_at is None
    assert r.tokens_out == 0


def test_collector_builds_records_from_a_request():
    request = Request(sent_at=1.0, slo=0.5)
    for mid, t0 in (("m1", 1.0), ("m2", 1.2), ("m3", 1.3)):
        v = request.begin_visit(mid, t0)
        if mid == "m3":
            continue  # still queued when the request finished
        v.t_batched = t0 + 0.01
        v.t_exec_start = t0 + 0.05
        v.t_exec_end = t0 + 0.15
        v.batch_size = 2
        v.gpu_time = 0.05
    request.mark_completed(1.4)
    collector = MetricsCollector()
    collector.record_request(request)
    (r,) = collector.records
    assert r.rid == request.rid
    assert r.gpu_time == request.gpu_time
    assert [v.module_id for v in r.visits] == ["m1", "m2"]
    for rec, mid in zip(r.visits, ("m1", "m2")):
        src = request.visits[mid]
        assert rec == VisitRecord(mid, src.queueing_delay, src.batch_wait,
                                  src.execution, 0.05, 2)
