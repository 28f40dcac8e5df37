"""Nexus baseline: reactive "Early Drop" on the end-to-end SLO.

Nexus (SOSP '19) drops requests that cannot complete the *current
module's* execution within the latency objective — i.e. it accounts for
L_pre + L_cur but ignores everything downstream (the paper's Figure 1b).
Two faithful formulations are provided:

* **per-request** (default): at the decision point t_b, with the expected
  batch start t_e known, drop iff ``t_e - t_s + d_k > SLO``;
* **windowed scan** (``windowed=True``, the paper's §5.1 description):
  scan the FIFO queue in arrival order with a sliding window equal to the
  batch size, stop at the first position where *all* requests in the
  window can meet the latency objective, and drop everything earlier.

Both reproduce Nexus's drop-too-late behaviour: early modules almost
never trigger the rule because d_k alone rarely exceeds the remaining
budget there, so drops cluster in the last modules.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..interfaces import DropContext, DropPolicy, RequestQueue
from ..simulation.request import DropReason, Request, RequestStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simulation.module import Module


class NexusPolicy(DropPolicy):
    """Reactive early-drop on the full SLO, arrival order, FIFO queue."""

    name = "Nexus"

    def __init__(self, windowed: bool = False) -> None:
        super().__init__()
        self.windowed = windowed

    def make_queue(self, module: "Module") -> RequestQueue:
        if self.windowed:
            return _NexusScanQueue(module)
        return super().make_queue(module)

    def should_drop(self, ctx: DropContext) -> DropReason | None:
        finish_estimate = ctx.expected_start - ctx.request.sent_at + ctx.batch_duration
        if finish_estimate > ctx.slo:
            return DropReason.ESTIMATED_VIOLATION
        return None

    def describe(self) -> str:
        return f"{self.name} [windowed={self.windowed}]"


class _NexusScanQueue(RequestQueue):
    """FIFO queue implementing Nexus's sliding-window scan on pop.

    On every pop the queue scans from the head with a window of the
    module's target batch size, drops every request before the first
    all-feasible window, and hands out the window head.  Requests dropped
    here are routed through the cluster exactly like policy drops.
    """

    discards = True

    def __init__(self, module: "Module") -> None:
        self._module = module
        self._dq: deque[Request] = deque()

    def push(self, request: Request, now: float) -> None:
        self._dq.append(request)

    def __len__(self) -> int:
        return len(self._dq)

    def _feasible(self, request: Request, now: float) -> bool:
        module = self._module
        d_k = module.effective_duration(now)
        # Expected start: the least-loaded worker's current estimate; the
        # queue cannot know which worker pops, so it uses its own module's
        # earliest expected start.
        t_e = min((w.expected_start for w in module.workers), default=now)
        return max(t_e, now) - request.sent_at + d_k <= request.slo

    def pop(self, now: float) -> Request | None:
        module = self._module
        window = max(1, module.target_batch)
        while self._dq:
            # Check the window starting at the head.
            head_ok = True
            for i, request in enumerate(self._dq):
                if i >= window:
                    break
                if request.status is not RequestStatus.IN_FLIGHT:
                    continue
                if not self._feasible(request, now):
                    head_ok = False
                    break
            if head_ok:
                return self._dq.popleft()
            # Drop the head and slide the window forward.
            victim = self._dq.popleft()
            if victim.status is RequestStatus.IN_FLIGHT:
                visit = victim.visit(module.spec.id)
                visit.t_batched = now
                module.stats.record_drop()
                module.cluster.drop(
                    victim, module.spec.id, DropReason.ESTIMATED_VIOLATION
                )
        return None
