"""Layer tracing for the benchmark's traced run.

The tracer wraps the public boundary of each simulator layer from the
outside, by replacing class attributes for the duration of one run; no
tracing code lives in ``src/``.  Every wrapped call opens a *span* on one
stack.  A span's self time is its duration minus the part its child spans
cover, so the per-layer self times add up to the traced wall time without
double counting nested layers.

Aggregation is online: per-layer self time, plus named counters updated
at the same boundaries.  Full spans are kept only for requests whose id
is a multiple of ``sample_every``; a span without a request of its own
inherits its parent's, so a sampled request's spans all share its ``rid``
and each records the id of the span that caused it.  ``write_spans``
writes them out once the run has ended.

Layer names are repository modules:

==========  ==============================================================
engine      ``Simulator.run`` / ``Simulator.schedule`` /
            ``ArrivalLane.schedule`` and the arrival pump's callbacks
source      ``ArrivalSource.chunks`` iteration (every subclass)
flow        ``RequestFlow.submit_now`` / ``on_module_done`` / ``drop`` and
            the ``SharedCluster`` entry points that route into them
dispatch    ``Module.receive``, ``Dispatcher.pick``
worker      ``Worker.enqueue`` and the batch-completion callbacks
depq        ``RequestQueue.push`` / ``pop`` on every queue class
policy      ``DropPolicy.should_drop`` on every subclass (incl. the
            ``SharedPolicy`` demultiplexer)
priority    ``AdaptivePriorityController.update``
stats       ``WindowedSamples.record``, ``RateMeter.record``
llm         ``LLMWorker.enqueue`` and the LLM step callbacks
collector   ``MetricsCollector.record_request``
control     ``DropPolicy.on_tick`` (the periodic state synchronisation)
==========  ==============================================================

Each callback handed to the engine is wrapped at ``schedule`` time and
attributed to the layer of the module that owns it (``CALLBACK_LAYER``).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

LAYERS = (
    "engine", "source", "flow", "dispatch", "worker", "depq", "policy",
    "priority", "stats", "llm", "collector", "control",
)

#: Owner module of an engine callback -> layer the callback belongs to.
#: Anything unlisted stays with the engine.
CALLBACK_LAYER = {
    "repro.simulation.worker": "worker",
    "repro.simulation.llm": "llm",
    "repro.simulation.cluster": "flow",
    "repro.simulation.tenancy": "flow",
    "repro.simulation.module": "dispatch",
}

# Frame slots (frames are lists: the child-time slot is updated in place).
_LAYER, _NAME, _RID, _SID, _PID, _CHILD, _NESTED, _START = range(8)


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every subclass currently defined, depth first."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def _callback_layer(callback: Callable) -> str:
    owner = getattr(callback, "__self__", None)
    module = (type(owner).__module__ if owner is not None
              else getattr(callback, "__module__", None))
    return CALLBACK_LAYER.get(module, "engine")


class Patcher:
    """Replaces class attributes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, Any]] = []

    def replace(self, owner: type, name: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.name`` to ``make(original)``; only own attributes."""
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Tracer:
    """Span stack, per-layer self time and boundary counters for one run."""

    def __init__(self, sample_every: int = 100) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.self_ns: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: Counter[str] = Counter()
        #: Summed duration (ns) of the spans counted for per-op costs.
        self.total_ns: Counter[str] = Counter()
        self.spans: list[tuple] = []
        #: Priority controllers seen, for the transition cross-check.
        self.controllers: list[Any] = []
        self._stack: list[list] = []
        self._next_sid = 1
        self._patcher = Patcher()

    # -- spans ---------------------------------------------------------------

    def enter(self, layer: str, name: str, rid: int | None = None) -> list:
        stack = self._stack
        if stack:
            parent = stack[-1]
            if rid is None:
                rid = parent[_RID]
            pid, nested = parent[_SID], parent[_LAYER] == layer
        else:
            pid, nested = 0, False
        sid = self._next_sid
        self._next_sid = sid + 1
        frame = [layer, name, rid, sid, pid, 0, nested, 0]
        stack.append(frame)
        frame[_START] = perf_counter_ns()
        return frame

    def exit(self, frame: list) -> int:
        end = perf_counter_ns()
        duration = end - frame[_START]
        self.self_ns[frame[_LAYER]] += duration - frame[_CHILD]
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][_CHILD] += duration
        rid = frame[_RID]
        if rid is not None and rid % self.sample_every == 0:
            self.spans.append((
                frame[_SID], frame[_PID], rid, frame[_LAYER], frame[_NAME],
                frame[_START], end,
            ))
        return duration

    def _span(
        self,
        layer: str,
        fn: Callable,
        rid: Callable[[tuple], int | None] | None = None,
        count: str | None = None,
    ) -> Callable:
        """Wrap ``fn`` in a span; ``count`` tallies calls not nested in
        a span of the same layer."""
        enter, exit_, counts = self.enter, self.exit, self.counts
        name = fn.__qualname__

        def traced(*args, **kwargs):
            frame = enter(layer, name, rid(args) if rid is not None else None)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
                if count is not None and not frame[_NESTED]:
                    counts[count] += 1

        return traced

    def event(self, callback: Callable) -> Callable:
        """Wrap an engine callback in a span of its owner's layer."""
        layer = _callback_layer(callback)
        name = getattr(callback, "__qualname__", type(callback).__qualname__)
        enter, exit_, counts = self.enter, self.exit, self.counts
        key = f"{layer}.callbacks"

        def fire(*args):
            arg = args[0] if args else None
            frame = enter(layer, name, getattr(arg, "rid", None))
            try:
                callback(*args)
            finally:
                exit_(frame)
            counts["engine.events"] += 1
            counts[key] += 1

        return fire

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary (``restore`` undoes it)."""
        from repro.core.priority import AdaptivePriorityController
        from repro.interfaces import DropPolicy, RequestQueue
        from repro.metrics.collector import MetricsCollector
        from repro.simulation.cluster import RequestFlow
        from repro.simulation.dispatcher import Dispatcher
        from repro.simulation.engine import ArrivalLane, EventHandle, Simulator
        from repro.simulation.llm import LLMWorker
        from repro.simulation.module import Module
        from repro.simulation.request import RequestStatus
        from repro.simulation.stats import RateMeter, WindowedSamples
        from repro.simulation.tenancy import SharedCluster
        from repro.simulation.worker import Worker
        from repro.workload.source import ArrivalSource

        patch = self._patcher.replace
        span = self._span
        counts, total_ns = self.counts, self.total_ns
        enter, exit_ = self.enter, self.exit
        in_flight, dropped = RequestStatus.IN_FLIGHT, RequestStatus.DROPPED

        def request_rid(args):
            return args[1].rid

        # engine
        patch(Simulator, "run", lambda fn: span("engine", fn))

        def schedule(fn):
            def traced(self_, time, callback, *args):
                counts["engine.schedules"] += 1
                frame = enter("engine", "schedule")
                try:
                    return fn(self_, time, self.event(callback), *args)
                finally:
                    exit_(frame)
            return traced

        patch(Simulator, "schedule", schedule)
        patch(ArrivalLane, "schedule", schedule)

        def cancel(fn):
            def traced(handle):
                if not handle.cancelled and handle.callback is not None:
                    counts["engine.cancels"] += 1
                return fn(handle)
            return traced

        patch(EventHandle, "cancel", cancel)

        # source
        def chunks(fn):
            def traced(source):
                it = fn(source)
                while True:
                    frame = enter("source", "chunks")
                    try:
                        chunk = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_(frame)
                    if not frame[_NESTED]:
                        counts["source.chunks"] += 1
                        counts["source.arrivals"] += int(chunk.size)
                    yield chunk
            return traced

        for cls in _subclasses(ArrivalSource):
            if "chunks" in cls.__dict__:
                patch(cls, "chunks", chunks)

        # flow
        def drop(fn):
            def traced(self_, request, *args):
                live = request.status is not dropped
                frame = enter("flow", "drop", request.rid)
                try:
                    return fn(self_, request, *args)
                finally:
                    exit_(frame)
                    if live and not frame[_NESTED]:
                        counts["flow.drops"] += 1
            return traced

        def submit_now(fn):
            def traced(*args, **kwargs):
                frame = enter("flow", "submit_now")
                try:
                    request = fn(*args, **kwargs)
                    frame[_RID] = request.rid
                    return request
                finally:
                    exit_(frame)
                    if not frame[_NESTED]:
                        counts["flow.submits"] += 1
            return traced

        for cls in (RequestFlow, SharedCluster):
            patch(cls, "submit_now", submit_now)
            patch(cls, "on_module_done",
                  lambda fn: span("flow", fn, request_rid, "flow.hops"))
            patch(cls, "drop", drop)

        # dispatch
        def receive(fn):
            def traced(module, request):
                if request.status is in_flight:
                    counts["dispatch.admitted"] += 1
                frame = enter("dispatch", "receive", request.rid)
                try:
                    return fn(module, request)
                finally:
                    exit_(frame)
            return traced

        patch(Module, "receive", receive)

        def pick(fn):
            def traced(dispatcher, workers):
                frame = enter("dispatch", "pick")
                try:
                    return fn(dispatcher, workers)
                finally:
                    ns = exit_(frame)
                    counts["dispatch.picks"] += 1
                    counts["dispatch.scanned"] += len(workers)
                    total_ns["dispatch.pick"] += ns
            return traced

        for cls in _subclasses(Dispatcher):
            if "pick" in cls.__dict__:
                patch(cls, "pick", pick)

        # worker / llm
        patch(Worker, "enqueue",
              lambda fn: span("worker", fn, request_rid, "worker.enqueues"))
        patch(LLMWorker, "enqueue",
              lambda fn: span("llm", fn, request_rid, "llm.enqueues"))

        # depq
        def push(fn):
            def traced(queue, request, now):
                counts["depq.len_sum"] += len(queue)
                frame = enter("depq", "push", request.rid)
                try:
                    return fn(queue, request, now)
                finally:
                    total_ns["depq.op"] += exit_(frame)
                    counts["depq.pushes"] += 1
            return traced

        def pop(fn):
            def traced(queue, now):
                frame = enter("depq", "pop")
                request = None
                try:
                    request = fn(queue, now)
                    return request
                finally:
                    total_ns["depq.op"] += exit_(frame)
                    counts["depq.pop_calls"] += 1
                    if request is not None:
                        counts["depq.pops"] += 1
            return traced

        for cls in _subclasses(RequestQueue):
            if "push" in cls.__dict__:
                patch(cls, "push", push)
            if "pop" in cls.__dict__:
                patch(cls, "pop", pop)

        # policy / control
        def should_drop(fn):
            def traced(policy, ctx):
                frame = enter("policy", "should_drop", ctx.request.rid)
                reason = None
                try:
                    reason = fn(policy, ctx)
                    return reason
                finally:
                    ns = exit_(frame)
                    if not frame[_NESTED]:
                        counts["policy.calls"] += 1
                        total_ns["policy.call"] += ns
                        if reason is not None:
                            counts["policy.drops"] += 1
            return traced

        for cls in _subclasses(DropPolicy):
            if "should_drop" in cls.__dict__:
                patch(cls, "should_drop", should_drop)
            if "on_tick" in cls.__dict__:
                patch(cls, "on_tick",
                      lambda fn: span("control", fn, count="control.ticks"))

        # priority
        controllers = self.controllers

        def update(fn):
            def traced(controller, module, now):
                if not any(c is controller for c in controllers):
                    controllers.append(controller)
                before = len(controller.transitions)
                frame = enter("priority", "update")
                try:
                    return fn(controller, module, now)
                finally:
                    exit_(frame)
                    counts["priority.updates"] += 1
                    counts["priority.transitions"] += (
                        len(controller.transitions) - before
                    )
            return traced

        patch(AdaptivePriorityController, "update", update)

        # stats
        patch(WindowedSamples, "record",
              lambda fn: span("stats", fn, count="stats.records"))
        patch(RateMeter, "record",
              lambda fn: span("stats", fn, count="stats.records"))

        # collector
        def record_request(fn):
            def traced(collector, request):
                frame = enter("collector", "record_request", request.rid)
                try:
                    return fn(collector, request)
                finally:
                    exit_(frame)
                    counts["collector.calls"] += 1
                    if not collector.lean:
                        counts["collector.records"] += 1
            return traced

        patch(MetricsCollector, "record_request", record_request)

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        self._patcher.restore()

    # -- results -------------------------------------------------------------

    def cross_check(self, sim, collectors, modules) -> list[str]:
        """Compare wrapper counts with the program's own counters.

        A mismatch means a boundary was missed (or counted twice), so the
        per-layer numbers cannot be trusted; every mismatch is returned.
        """
        from repro.simulation.llm import LLMWorker

        workers = [w for m in modules for w in m.workers]
        batch = sum(w.telemetry.batches for w in workers
                    if not isinstance(w, LLMWorker))
        steps = sum(w.telemetry.batches for w in workers
                    if isinstance(w, LLMWorker))
        c = self.counts
        pairs = {
            "engine.events == Simulator.processed_events":
                (c["engine.events"], sim.processed_events),
            "worker.callbacks == WorkerTelemetry.batches":
                (c["worker.callbacks"], batch),
            "llm.callbacks == LLMWorker telemetry.batches":
                (c["llm.callbacks"], steps),
            "collector.calls == collector.count":
                (c["collector.calls"], sum(k.count for k in collectors)),
            "collector.records == len(collector.records)":
                (c["collector.records"],
                 sum(len(k.records) for k in collectors)),
            "flow.submits == collector.submitted":
                (c["flow.submits"], sum(k.submitted for k in collectors)),
            "flow.drops == collector.count - completed_count":
                (c["flow.drops"],
                 sum(k.count - k.completed_count for k in collectors)),
            "dispatch.admitted == ModuleStats.arrivals.total":
                (c["dispatch.admitted"],
                 sum(m.stats.arrivals.total for m in modules)),
            "priority.transitions == len(controller.transitions)":
                (c["priority.transitions"],
                 sum(len(k.transitions) for k in self.controllers)),
        }
        return [f"{label}: traced {got} != program {want}"
                for label, (got, want) in pairs.items() if got != want]

    def layer_metrics(self, workers, requests: int) -> dict[str, float]:
        """Per-layer metrics (counts, ratios, per-op ns, self seconds)."""
        from repro.simulation.llm import LLMWorker

        c, t = self.counts, self.total_ns
        plain = [w.telemetry for w in workers if not isinstance(w, LLMWorker)]
        batches = sum(k.batches for k in plain)
        executed = sum(k.executed_requests for k in plain)
        skipped = sum(k.skipped_cancelled for k in plain)
        drawn = skipped + sum(k.dropped_requests for k in plain) + executed
        ops = c["depq.pushes"] + c["depq.pop_calls"]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "engine.events": c["engine.events"],
            "engine.schedules": c["engine.schedules"],
            "engine.cancel_frac": ratio(c["engine.cancels"],
                                        c["engine.schedules"]),
            "engine.events_per_req": ratio(c["engine.events"], requests),
            "source.arrivals": c["source.arrivals"],
            "source.chunks": c["source.chunks"],
            "flow.hops": c["flow.hops"],
            "flow.drops": c["flow.drops"],
            "dispatch.picks": c["dispatch.picks"],
            "dispatch.scanned": c["dispatch.scanned"],
            "dispatch.ns_per_pick": ratio(t["dispatch.pick"],
                                          c["dispatch.picks"]),
            "worker.batches": batches,
            "worker.mean_batch": ratio(executed, batches),
            "worker.stale_frac": ratio(skipped, drawn),
            "depq.pushes": c["depq.pushes"],
            "depq.pops": c["depq.pops"],
            "depq.mean_len": ratio(c["depq.len_sum"], c["depq.pushes"]),
            "depq.ns_per_op": ratio(t["depq.op"], ops),
            "policy.calls": c["policy.calls"],
            "policy.drop_frac": ratio(c["policy.drops"], c["policy.calls"]),
            "policy.ns_per_call": ratio(t["policy.call"], c["policy.calls"]),
            "priority.updates": c["priority.updates"],
            "priority.transitions": c["priority.transitions"],
            "stats.records": c["stats.records"],
            "llm.enqueues": c["llm.enqueues"],
            "llm.steps": c["llm.callbacks"],
            "collector.records": c["collector.records"],
            "control.ticks": c["control.ticks"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        return out

    def write_spans(self, path: str | Path) -> int:
        """Write the sampled spans as JSON lines; returns how many."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("sid", "parent", "rid", "layer", "name", "start_ns", "end_ns")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
        return len(self.spans)
