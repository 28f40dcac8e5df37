"""Worker: one GPU serving one module's model with dynamic batching.

The batching mechanics follow Figure 3b of the paper: a worker collects the
next batch *while* the previous batch executes (never letting the GPU idle),
so a request drawn into the forming batch at ``t_b`` waits ``W = t_e - t_b``
until the expected start ``t_e`` (= the end of the executing batch).  The
drop decision for each request is made exactly once, at ``t_b``, via the
bound policy — at that moment all bi-directional runtime information is
available (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..simulation.request import Request, RequestStatus
from ..interfaces import DropContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .module import Module


@dataclass(slots=True)
class Batch:
    """A batch executing on the GPU."""

    requests: list[Request]
    start: float
    end: float
    aborted: bool = False  # set when the worker dies mid-execution

    @property
    def size(self) -> int:
        return len(self.requests)


@dataclass(slots=True)
class WorkerTelemetry:
    """Counters exposed for tests and overhead analysis."""

    batches: int = 0
    executed_requests: int = 0
    dropped_requests: int = 0
    skipped_cancelled: int = 0
    busy_time: float = 0.0


class Worker:
    """One GPU container executing batches for a single module.

    ``load`` is the outstanding work the least-loaded dispatcher compares
    on every pick: queued requests (tombstones included) plus the forming
    batch plus the executing batch.  It is a plain counter, kept exact at
    each transition — ``enqueue`` adds one; a draw that skips, discards
    or drops a request removes it; ``_finish_batch`` removes the batch —
    so a pick reads integers instead of summing three lengths per worker.
    A killed worker is zeroed by the failure injector.
    """

    __slots__ = (
        "module", "worker_id", "sim", "queue", "forming", "executing",
        "load", "_draining", "telemetry", "_ctx", "degrade_factor",
    )

    def __init__(self, module: "Module", worker_id: int) -> None:
        self.module = module
        self.worker_id = worker_id
        self.sim = module.sim
        self.queue = module.policy.make_queue(module)
        self.forming: list[Request] = []
        self.executing: Batch | None = None
        self.load = 0  # queued + forming + executing (see class docstring)
        self._draining = False
        # Straggler injection (FailureEvent kind="degrade"): batches run
        # this many times slower while the fault is active.  1.0 — the
        # permanent value on healthy clusters — is branch-free cheap.
        self.degrade_factor = 1.0
        self.telemetry = WorkerTelemetry()
        # Reusable drop context: rewritten per drawn request in _draw so
        # the hot loop does not allocate one per decision (policies read
        # it synchronously; see the DropContext docstring).
        self._ctx = DropContext(
            request=None,  # type: ignore[arg-type] - set before every use
            module=module,
            worker=self,
            now=0.0,
            expected_start=0.0,
            batch_duration=0.0,
            slo=0.0,
        )

    @property
    def draining(self) -> bool:
        return self._draining

    @draining.setter
    def draining(self, value: bool) -> None:
        # Route through the module's draining flag so its dispatch fast
        # path (no candidate filtering while nothing drains) stays valid
        # no matter who marks the worker.
        self._draining = value
        if value:
            self.module._maybe_draining = True

    # -- introspection ------------------------------------------------------

    @property
    def idle(self) -> bool:
        return self.load == 0

    @property
    def expected_start(self) -> float:
        """t_e: when the batch currently being formed will start executing."""
        return self.executing.end if self.executing else self.sim._now

    # -- request flow -------------------------------------------------------

    def enqueue(self, request: Request) -> None:
        """Accept a dispatched request and try to advance batching."""
        self.load += 1
        self.queue.push(request, self.sim._now)
        self._draw()

    def _pop_discarding(self, now: float) -> Request | None:
        """``queue.pop`` for a queue that ``discards`` inside ``pop``.

        Such a queue (Nexus's windowed scan) shrinks by more than the
        request it hands out; the extra removals come off ``load`` here,
        so callers only account for the requests they receive.
        """
        queue = self.queue
        before = len(queue)
        request = queue.pop(now)
        self.load -= before - len(queue) - (request is not None)
        return request

    def _draw(self) -> None:
        """Pull requests from the queue into the forming batch.

        Each drawn request gets its drop decision here (t_b), with the
        expected batch start t_e known.  Respects the module's target batch
        size as the forming capacity.
        """
        module = self.module
        target = module.target_batch
        forming = self.forming
        executing = self.executing
        n_exec = len(executing.requests) if executing is not None else 0
        # ``load`` less forming and executing is exactly the queue length,
        # so the loop stops once the queue is empty instead of paying for
        # a pop that returns None — and most draws (batch already full, or
        # nothing queued) return before binding any loop local.
        if len(forming) >= target or self.load == len(forming) + n_exec:
            if executing is None and forming:
                self._start_batch()
            return
        now = self.sim._now
        # Hot loop: every request drawn toward a batch passes through here
        # once, so the per-iteration lookups are bound outside the loop.
        # Nothing in it starts or ends a batch on this worker, so t_e (and
        # the batch wait it implies) is the same for every drawn request.
        t_e = executing.end if executing is not None else now
        batch_wait = t_e - now if t_e > now else 0.0
        queue = self.queue
        queue_pop = self._pop_discarding if queue.discards else queue.pop
        should_drop = module.policy.should_drop
        stats = module.stats
        record_queue_delay = stats.queue_delays.record
        record_batch_wait = stats.batch_waits.record
        module_id = module.spec.id
        in_flight = RequestStatus.IN_FLIGHT
        ctx = self._ctx
        ctx.now = now
        ctx.expected_start = t_e
        # Resilient hops dispatch duplicate entries (retries/hedges); the
        # first worker to draw one claims the hop via t_batched and every
        # other copy is a tombstone to skip.  Hoisted: modules without a
        # resilience config never pay the per-request visit lookup.
        resilient = module._resilience is not None
        while len(forming) < target and self.load > len(forming) + n_exec:
            request = queue_pop(now)
            if request is None:
                break
            if request.status is not in_flight:
                # A sibling DAG branch already dropped this request; skip it
                # without spending GPU time (its earlier work is already
                # accounted as invalid).
                self.telemetry.skipped_cancelled += 1
                self.load -= 1
                continue
            if resilient and request.visits[module_id].t_batched is not None:
                # A duplicate dispatch lost the race: another worker (or a
                # fallback) already claimed this hop.
                self.telemetry.skipped_cancelled += 1
                self.load -= 1
                continue
            ctx.request = request
            ctx.batch_duration = module.effective_duration(now)
            # The request's own objective, not the cluster's: in a shared
            # (multi-tenant) cluster requests from different apps carry
            # different SLOs through the same pool.
            ctx.slo = request.slo
            reason = should_drop(ctx)
            visit = request.visits[module_id]
            visit.t_batched = now
            visit.worker_id = self.worker_id
            record_queue_delay(now, now - visit.t_received)
            if reason is not None:
                self.telemetry.dropped_requests += 1
                self.load -= 1
                stats.record_drop()
                module.cluster.drop(request, module_id, reason)
                continue
            record_batch_wait(now, batch_wait)
            forming.append(request)
        if executing is None and forming:
            self._start_batch()

    def _start_batch(self) -> None:
        """Begin executing the forming batch on the GPU."""
        now = self.sim._now
        module = self.module
        requests = self.forming
        self.forming = []
        size = len(requests)
        duration = module.profile.duration(size)
        if self.degrade_factor != 1.0:
            duration *= self.degrade_factor  # straggler fault active
        share = duration / size
        module_id = module.spec.id
        end = now + duration
        for r in requests:
            v = r.visits[module_id]
            v.t_exec_start = now
            v.t_exec_end = end
            v.batch_size = size
            v.gpu_time = share
        batch = Batch(requests, now, end)
        self.executing = batch
        telemetry = self.telemetry
        telemetry.batches += 1
        telemetry.executed_requests += size
        telemetry.busy_time += duration
        module.stats.record_batch(now, size)
        self.sim.schedule(end, self._finish_batch, batch)
        # Immediately begin forming the next batch (Figure 3b: collection
        # starts right after the previous batch begins execution).
        self._draw()

    def _finish_batch(self, batch: Batch) -> None:
        """Batch execution completed: forward requests, start next batch."""
        if batch.aborted:
            return  # the worker died mid-execution (failure injection)
        self.executing = None
        requests = batch.requests
        self.load -= len(requests)
        module = self.module
        on_module_done = module.cluster.on_module_done
        for request in requests:
            on_module_done(request, module)
        if self.forming:
            self._start_batch()
        else:
            self._draw()
        if self._draining and self.load == 0:
            module.reap(self)
