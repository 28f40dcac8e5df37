"""Replay an arrival source into a cluster.

:class:`ArrivalPump` keeps *one* pending heap event per workload: when
it fires, the request is submitted and the next arrival is pulled from
the iterator, so a replay never pre-schedules the whole workload.  The
pump schedules through an engine arrival lane
(:meth:`~repro.simulation.engine.Simulator.open_lane`), whose reserved
sequence-number block gives every arrival the tie-breaking slot it
would hold had all arrivals been scheduled up front.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..simulation.cluster import Cluster
from ..simulation.engine import ArrivalLane
from .source import ArrivalSource


class ArrivalPump:
    """Drives one sorted arrival stream into a cluster, one event at a time.

    ``arrivals`` is anything iterable over ascending times (an
    :class:`~repro.workload.source.ArrivalSource` or a plain list);
    ``submit`` is called with the arrival time when its event fires.
    The lane enforces monotonicity, so an unsorted stream fails loudly
    instead of silently reordering.
    """

    __slots__ = ("_it", "_submit", "_lane", "submitted")

    def __init__(
        self,
        arrivals: Iterable[float],
        submit: Callable[[float], object],
        lane: ArrivalLane,
    ) -> None:
        self._it = iter(arrivals)
        self._submit = submit
        self._lane = lane
        self.submitted = 0

    def prime(self) -> "ArrivalPump":
        """Schedule the first arrival (no-op on an empty stream)."""
        self._advance()
        return self

    def _advance(self) -> None:
        t = next(self._it, None)
        if t is not None:
            t = float(t)
            self._lane.schedule(t, self._fire, t)

    def _fire(self, t: float) -> None:
        self._submit(t)
        self.submitted += 1
        self._advance()


def replay(trace: ArrivalSource, cluster: Cluster,
           drain: float = 5.0) -> None:
    """Stream every arrival into the cluster and run to completion.

    The simulation runs with control-plane ticks until
    ``duration + drain``; the ticks are then cancelled and the event
    queue drained so every in-flight request reaches a terminal state
    and is accounted in the metrics (backlogged queues under the Naive
    policy can far outlive the trace).
    """
    if drain < 0:
        raise ValueError("drain must be >= 0")
    pump = ArrivalPump(trace, cluster.submit_now, cluster.sim.open_lane())
    pump.prime()
    cluster.start_ticks()
    cluster.sim.run(until=trace.duration + drain)
    cluster.stop_ticks()
    cluster.sim.run()
