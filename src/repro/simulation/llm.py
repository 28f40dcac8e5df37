"""LLMWorker: iteration-level continuous batching with a KV-cache budget.

Where the base :class:`~repro.simulation.worker.Worker` executes fixed
batches back-to-back, an LLM engine interleaves *iterations*: each engine
step first admits queued requests into the running batch, then executes
either one prefill iteration (over the newly admitted requests' prompt
tokens, emitting each one's first output token) or one decode iteration
(appending one token to every running request), and retires requests
whose sampled output length is exhausted.  Iteration durations come from
the module's :class:`~repro.pipeline.llm_profiles.LLMProfile`.

The KV cache is a schedulable resource.  Every admitted request holds a
token reservation against the profile's per-worker ``kv_capacity``:

* **block mode** (default): ``prompt + output`` tokens are reserved at
  admission, and admission simply blocks while the cache is full — the
  policy layer sees memory pressure as queueing delay, nothing else.
* **preempt mode** (``profile.preempt=True``): only ``prompt +
  generated`` tokens are reserved, the reservation grows one token per
  decode, and when the cache fills the most recently admitted request is
  preempted back to the head of the admission buffer (keeping its
  generated-token count; its KV is conceptually swapped out).

Engine state lives in one :class:`_Seq` record per *admission* — the
request, its visit, its reservation and its generated-token count — not
in maps keyed by request id.  Resilience retries and hedges put several
queue entries for the same request (the same rid) on a module's workers,
possibly on the worker already running it; a losing entry carries no
record, so it is skipped at admission like any claimed duplicate instead
of aliasing the live sequence's state.  The only rid-keyed state is the
small map of preempted sequences waiting in ``forming`` to resume.

Contract compatibility: the worker keeps the base class's ``queue`` /
``forming`` / ``executing`` surface, so dispatchers, draining, scaling
and :class:`~repro.simulation.failures.FailureInjector` stranding work
unchanged.  ``forming`` holds requests popped from the queue but blocked
on cache space (plus preempted requests awaiting resume); ``executing``
is a :class:`~repro.simulation.worker.Batch` spanning the current
iteration whose ``requests`` is the live list of running requests, so a
worker failure strands *all* of them (their per-worker KV state dies with
the worker, and generation restarts from scratch on re-dispatch — the
sampled token lengths on the visit are sticky, so the replay is
deterministic).  Nothing changes the running set while an iteration
executes: admission, eviction and preemption happen only between
iterations, so the live list needs no per-step copy.

Every iteration is its own event, even a run of identical decode steps.
Coalescing them would change results: each step appends one sample to the
module's window statistics (whose float sums and eviction depend on the
append order), Nexus reads the executing iteration's end as the expected
start, and a sibling drop terminating a running sequence snapshots its
token counts and GPU time as of that instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..pipeline.llm_profiles import LLMProfile
from .request import DropReason, ModuleVisit, Request, RequestStatus
from .worker import Batch, Worker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .module import Module


@dataclass(slots=True, eq=False)  # identity equality: list.index is cheap
class _Seq:
    """One admitted, KV-resident sequence on an :class:`LLMWorker`."""

    request: Request
    visit: ModuleVisit
    reserved: int  # cache tokens held against kv_capacity
    generated: int  # output tokens produced so far


class LLMWorker(Worker):
    """One GPU running continuous batching for a token-level module."""

    __slots__ = ("kv_used", "_seqs", "_running", "_need_prefill", "_preempted")

    def __init__(self, module: "Module", worker_id: int) -> None:
        if not isinstance(module.profile, LLMProfile):
            raise TypeError(
                f"module {module.spec.id!r}: LLMWorker needs an LLMProfile, "
                f"got {type(module.profile).__name__}"
            )
        super().__init__(module, worker_id)
        self.kv_used = 0
        self._seqs: list[_Seq] = []  # running sequences, in admission order
        self._running: list[Request] = []  # their requests, same order
        self._need_prefill: list[_Seq] = []  # admitted but not yet prefilled
        self._preempted: dict[int, int] = {}  # rid -> generated, in forming

    # -- introspection ------------------------------------------------------

    @property
    def idle(self) -> bool:
        # ``load`` here counts queued + forming + running sequences: the
        # running set, not the per-iteration ``executing`` snapshot.
        return self.executing is None and self.load == 0

    # -- request flow -------------------------------------------------------

    def _sample_tokens(self, request: Request) -> None:
        """Sample prompt/output lengths once per request per module.

        Drawn from the cluster's named RNG stream in dispatch order, so
        lengths are deterministic for a given scenario seed and sticky
        across failure re-dispatch (0 is the not-sampled sentinel; draws
        are clamped >= 1).
        """
        module = self.module
        visit = request.visits[module.spec.id]
        if visit.prompt_tokens:
            return
        profile = module.profile
        rng = module.cluster.rng.stream(f"llm:{module.spec.id}")
        visit.prompt_tokens = profile.prompt_dist.sample(rng)
        visit.output_tokens = profile.output_dist.sample(rng)

    def enqueue(self, request: Request) -> None:
        """Accept a dispatched request and advance the engine if idle."""
        self._sample_tokens(request)
        self.load += 1
        self.queue.push(request, self.sim.now)
        if self.executing is None:
            self._step()

    def _purge(self) -> None:
        """Evict sequences a sibling branch already dropped (free their KV)."""
        in_flight = RequestStatus.IN_FLIGHT
        for request in self._running:
            if request.status is not in_flight:
                break
        else:
            return
        seqs: list[_Seq] = []
        running: list[Request] = []
        for s in self._seqs:
            request = s.request
            if request.status is in_flight:
                seqs.append(s)
                running.append(request)
            else:
                self.telemetry.skipped_cancelled += 1
                self.load -= 1
                self.kv_used -= s.reserved
        self._seqs = seqs
        self._running = running
        self._need_prefill = [
            s for s in self._need_prefill if s.request.status is in_flight
        ]

    def _admit(self, now: float) -> None:
        """Move queued requests into the running batch.

        Each *fresh* request gets its once-only drop decision here (t_b);
        resumed preemptions were decided at first admission.  Admission
        stops at the module's target batch (max concurrent sequences) or
        when the next request's KV reservation does not fit — blocked
        requests wait in ``forming`` in FIFO order so memory pressure
        surfaces as queueing delay, never reordering.
        """
        module = self.module
        profile = module.profile
        target = module.target_batch
        seqs = self._seqs
        running = self._running
        capacity = profile.kv_capacity
        block = not profile.preempt
        module_id = module.spec.id
        in_flight = RequestStatus.IN_FLIGHT
        stats = module.stats
        ctx = self._ctx
        ctx.now = now
        forming = self.forming
        preempted = self._preempted
        queue = self.queue
        queue_pop = self._pop_discarding if queue.discards else queue.pop
        resilient = module._resilience is not None
        while len(seqs) < target:
            if forming:
                request = forming[0]
                from_forming = True
            else:
                from_forming = False
                request = queue_pop(now)
                if request is None:
                    break
            if request.status is not in_flight:
                if from_forming:
                    forming.pop(0)
                    preempted.pop(request.rid, None)
                self.telemetry.skipped_cancelled += 1
                self.load -= 1
                continue
            self._sample_tokens(request)  # parked arrivals skip enqueue()
            visit = request.visits[module_id]
            worst = visit.prompt_tokens + visit.output_tokens
            # Only a preempted sequence, waiting in ``forming``, resumes.
            generated = preempted.get(request.rid) if from_forming else None
            if resilient and generated is None and visit.t_batched is not None:
                # A duplicate dispatch (retry/hedge) lost the race: this
                # hop was already claimed, here or at another worker.
                if from_forming:
                    forming.pop(0)
                self.telemetry.skipped_cancelled += 1
                self.load -= 1
                continue
            if worst > capacity:
                # Could never fit even on an empty cache: reject outright
                # rather than wedging the worker behind it forever.  (A
                # preempted sequence fit once, so it never lands here.)
                if from_forming:
                    forming.pop(0)
                visit.t_batched = now
                visit.worker_id = self.worker_id
                stats.queue_delays.record(now, now - visit.t_received)
                self.telemetry.dropped_requests += 1
                self.load -= 1
                stats.record_drop()
                module.cluster.drop(
                    request, module_id, DropReason.ADMISSION_CONTROL
                )
                continue
            # Fresh sequences in preempt mode reserve prompt + the first
            # token prefill will emit; block mode reserves the worst case.
            need = worst if block else visit.prompt_tokens + (generated or 1)
            if self.kv_used + need > capacity:
                if not from_forming:
                    forming.append(request)
                break
            if from_forming:
                forming.pop(0)
            if generated is None:
                ctx.request = request
                ctx.expected_start = now
                ctx.batch_duration = profile.request_estimate(
                    visit.prompt_tokens, visit.output_tokens, len(seqs) + 1
                )
                ctx.slo = request.slo
                visit.t_batched = now
                visit.worker_id = self.worker_id
                stats.queue_delays.record(now, now - visit.t_received)
                reason = module.policy.should_drop(ctx)
                if reason is not None:
                    self.telemetry.dropped_requests += 1
                    self.load -= 1
                    stats.record_drop()
                    module.cluster.drop(request, module_id, reason)
                    continue
                stats.batch_waits.record(now, 0.0)
                seq = _Seq(request, visit, need, 0)
                self._need_prefill.append(seq)
            else:
                del preempted[request.rid]
                seq = _Seq(request, visit, need, generated)
            self.kv_used += need
            seqs.append(seq)
            running.append(request)

    def _grow_reservations(self) -> None:
        """Preempt mode: reserve one more token per sequence before a
        decode iteration, preempting the most recently admitted sequences
        while the cache cannot hold the growth (at least one sequence
        always keeps making progress)."""
        seqs = self._seqs
        capacity = self.module.profile.kv_capacity
        while len(seqs) > 1 and self.kv_used + len(seqs) > capacity:
            victim = seqs.pop()
            self._running.pop()
            self.kv_used -= victim.reserved
            self._preempted[victim.request.rid] = victim.generated
            self.forming.insert(0, victim.request)
        for s in seqs:
            s.reserved += 1
        self.kv_used += len(seqs)

    def _step(self) -> None:
        """Run one continuous-batching engine iteration."""
        if self.executing is not None:
            return
        now = self.sim.now
        self._purge()
        seqs = self._seqs
        n = len(seqs)
        module = self.module
        forming = self.forming
        # ``load`` counts queue + forming + running, so the second test
        # asks whether the queue holds anything to draw.
        if n < module.target_batch and (
            forming or self.load > n + len(forming)
        ):
            self._admit(now)
            n = len(seqs)
        if not n:
            if self.draining and self.idle:
                module.reap(self)
            return
        profile = module.profile
        prefill = self._need_prefill
        if prefill:
            self._need_prefill = []
            total_prompt = sum(s.visit.prompt_tokens for s in prefill)
            duration = profile.prefill_duration(total_prompt)
        else:
            prefill = None
            if profile.preempt:
                self._grow_reservations()
                n = len(seqs)
            duration = profile.decode_base + profile.decode_per_token * n
        if self.degrade_factor != 1.0:
            duration *= self.degrade_factor  # straggler fault active
        batch = Batch(requests=self._running, start=now, end=now + duration)
        self.executing = batch
        telemetry = self.telemetry
        telemetry.batches += 1
        telemetry.busy_time += duration
        module.stats.record_batch(now, n)
        self.sim.schedule(batch.end, self._finish_step, batch, prefill)

    def _finish_step(self, batch: Batch, prefill: list[_Seq] | None) -> None:
        """One iteration finished: emit tokens, retire exhausted sequences.

        ``prefill`` lists the sequences a prefill iteration started; a
        decode iteration (``None``) advances every running sequence.
        """
        if batch.aborted:
            return  # the worker died mid-iteration (failure injection)
        now = self.sim.now
        in_flight = RequestStatus.IN_FLIGHT
        seqs = self._seqs
        producers = seqs if prefill is None else prefill
        for s in producers:
            if s.request.status is not in_flight:
                producers = [
                    s for s in producers if s.request.status is in_flight
                ]
                break
        retired: list[_Seq] = []
        if producers:
            share = (batch.end - batch.start) / len(producers)
            for s in producers:
                request = s.request
                visit = s.visit
                if prefill is not None:
                    # Decode producers were all prefilled on this worker.
                    if visit.t_exec_start is None:
                        visit.t_exec_start = batch.start
                        visit.batch_size = batch.size
                    if request.first_token_at is None:
                        request.first_token_at = now
                visit.gpu_time += share
                generated = s.generated + 1
                s.generated = generated
                request.last_token_at = now
                request.tokens_out += 1
                if generated >= visit.output_tokens:
                    # Last token: free the KV reservation and retire.
                    visit.t_exec_end = now
                    self.kv_used -= s.reserved
                    self.load -= 1
                    self.telemetry.executed_requests += 1
                    retired.append(s)
        if retired:
            # Retire after the loop: ``producers`` may be the live list.
            running = self._running
            for s in retired:
                i = seqs.index(s)
                del seqs[i]
                del running[i]
        # Forward retirees only after all engine bookkeeping is settled:
        # on_module_done can synchronously re-enter this worker (a shared
        # pool serving consecutive pipeline modules dispatches right back),
        # which must observe a consistent running set.  The iteration stays
        # marked as executing until here so a re-entrant enqueue defers to
        # the _step below instead of starting a conflicting one.
        self.executing = None
        module = self.module
        on_module_done = module.cluster.on_module_done
        for s in retired:
            on_module_done(s.request, module)
        self._step()
