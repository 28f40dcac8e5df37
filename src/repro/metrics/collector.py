"""Per-request outcome records and the run-level collector.

The collector is the single source of truth for every metric the paper
reports: goodput, drop rate, invalid rate (wasted GPU time), per-module
drop distribution, transient rates and latency decompositions.

Both record types are :class:`typing.NamedTuple` classes: immutable,
hashable and picklable values that are cheap to build.  A full-mode run
builds one record per request and one per executed visit; a tuple is
built in a single C call, where a frozen dataclass ``__init__`` would pay
one ``object.__setattr__`` per field.
"""

from __future__ import annotations

from typing import NamedTuple

from ..simulation.request import DropReason, Request, RequestStatus
from .goodput import GoodputSpec, constraint_checks


class VisitRecord(NamedTuple):
    """Latency decomposition of one executed module visit."""

    module_id: str
    queueing_delay: float
    batch_wait: float
    execution: float
    gpu_time: float
    batch_size: int


class RequestRecord(NamedTuple):
    """Immutable outcome of one request (terminal state)."""

    rid: int
    sent_at: float
    finished_at: float
    status: RequestStatus
    met_slo: bool
    slo: float
    gpu_time: float
    dropped_at_module: str | None
    drop_reason: DropReason | None
    visits: tuple[VisitRecord, ...] = ()
    # Token-level (LLM) outcomes; defaults keep fixed-duration records lean.
    first_token_at: float | None = None
    last_token_at: float | None = None
    tokens_out: int = 0

    @property
    def latency(self) -> float:
        return self.finished_at - self.sent_at

    @property
    def counts_as_dropped(self) -> bool:
        """Paper §5.1: completed-but-SLO-violating requests count as dropped."""
        return self.status is RequestStatus.DROPPED or not self.met_slo

    @property
    def wasted_gpu_time(self) -> float:
        """GPU time that produced no SLO-compliant result."""
        return self.gpu_time if self.counts_as_dropped else 0.0


def _visit_records(request: Request) -> tuple[VisitRecord, ...]:
    # Q, W and D are the ModuleVisit properties' subtractions, inlined:
    # a visit that finished executing has every stamp set.
    return tuple([
        VisitRecord(
            v.module_id,
            v.t_batched - v.t_received,
            v.t_exec_start - v.t_batched,
            v.t_exec_end - v.t_exec_start,
            v.gpu_time,
            v.batch_size,
        )
        for v in request.visits.values()
        # never executed at this module (queued/forming when dropped)
        if v.t_exec_end is not None
    ])


class MetricsCollector:
    """Accumulates request outcomes during a simulation run.

    Alongside the per-request :class:`RequestRecord` list (immutable
    NamedTuples, snapshotted when the request terminates: a visit a
    sibling branch stamps later is not in the record), the collector
    maintains *streaming* counters (counts, GPU-time totals, send-time
    span) updated once per terminal request, so run-level summaries are
    O(1) instead of a full pass over the records.

    ``lean=True`` keeps only the streaming counters: no ``RequestRecord``
    or :class:`VisitRecord` objects are materialised at all.  Sweep cells
    and benchmarks that only consume a
    :class:`~repro.metrics.analysis.Summary` use this to skip the
    dominant per-request allocation cost; per-window series, per-module
    drop shares and latency CDFs need full records and are unavailable.
    """

    def __init__(
        self, lean: bool = False, goodput: GoodputSpec | None = None
    ) -> None:
        self.records: list[RequestRecord] = []
        self.lean = lean
        self.submitted = 0
        # Streaming counters (single source of truth for summaries).
        self.count = 0
        self.completed_count = 0
        self.good_count = 0
        self.dropped_count = 0  # includes SLO-violating completions
        self.gpu_time_total = 0.0
        self.wasted_gpu_total = 0.0
        self.first_sent = float("inf")
        self.last_sent = float("-inf")
        # Goodput-under-constraints counters, evaluated per terminal
        # request against the declared spec (None = no constraints; the
        # counters stay zero and goodput_report() returns None).
        self.goodput = goodput
        self.gp_good = 0
        self.gp_ttft_met = 0
        self.gp_tpot_met = 0
        self.gp_e2e_met = 0
        self.gp_tokens_out = 0
        # Resilience counters (streamed, lean-safe): incremented by the
        # ResilienceManager as it acts, not per terminal request.  The
        # retry/hedge totals are the numerators of the dispatch
        # amplification factor.
        self.res_retries = 0
        self.res_hedges = 0
        self.res_timeouts = 0
        self.res_fallbacks = 0

    def record_submitted(self) -> None:
        self.submitted += 1

    def record_request(self, request: Request) -> None:
        """Snapshot a request that has reached a terminal state."""
        status = request.status
        if status is RequestStatus.IN_FLIGHT:
            raise ValueError(f"request {request.rid} is still in flight")
        assert request.finished_at is not None
        met_slo = request.met_slo
        gpu_time = request.gpu_time
        counts_as_dropped = status is RequestStatus.DROPPED or not met_slo
        self.count += 1
        if status is RequestStatus.COMPLETED:
            self.completed_count += 1
        if met_slo:
            self.good_count += 1
        if counts_as_dropped:
            self.dropped_count += 1
            self.wasted_gpu_total += gpu_time
        self.gpu_time_total += gpu_time
        sent_at = request.sent_at
        if sent_at < self.first_sent:
            self.first_sent = sent_at
        if sent_at > self.last_sent:
            self.last_sent = sent_at
        gp = self.goodput
        if gp is not None and gp.declared:
            self.gp_tokens_out += request.tokens_out
            if status is RequestStatus.COMPLETED:
                ttft_ok, tpot_ok, e2e_ok = constraint_checks(gp, request)
                self.gp_ttft_met += ttft_ok
                self.gp_tpot_met += tpot_ok
                self.gp_e2e_met += e2e_ok
                self.gp_good += ttft_ok and tpot_ok and e2e_ok
        if self.lean:
            return
        self.records.append(
            RequestRecord(
                request.rid,
                sent_at,
                request.finished_at,
                status,
                met_slo,
                request.slo,
                gpu_time,
                request.dropped_at_module,
                request.drop_reason,
                _visit_records(request),
                request.first_token_at,
                request.last_token_at,
                request.tokens_out,
            )
        )

    # -- convenience views ---------------------------------------------------

    def __len__(self) -> int:
        return self.count if self.lean else len(self.records)

    @property
    def completed(self) -> list[RequestRecord]:
        return [r for r in self.records if r.status is RequestStatus.COMPLETED]

    @property
    def good(self) -> list[RequestRecord]:
        """Requests that completed within their SLO."""
        return [r for r in self.records if r.met_slo]

    @property
    def dropped(self) -> list[RequestRecord]:
        """Explicit drops plus SLO-violating completions (paper §5.1)."""
        return [r for r in self.records if r.counts_as_dropped]
