"""Host-speed reference: a fixed workload that does not use ``repro``.

The machine the benchmark runs on is shared, and its speed drifts by
tens of percent over minutes.  Before every run the parent times this
loop in its own fresh process.  The run's host seconds are then scaled
to the *reference speed*, the speed at which the loop takes
``NOMINAL_S``.  The loop chases random pointers through a few hundred
thousand small objects, so like the simulator it is sensitive to cache
and memory contention, not only to the clock.  It runs in a separate
process so that its memory does not count toward a run's peak RSS.

Usage: ``python -m perfbench.reference`` prints the loop's seconds.
"""

from __future__ import annotations

from time import perf_counter

#: Loop seconds at the reference speed (about this machine's typical).
NOMINAL_S = 0.30
#: Live objects the loop walks, and random steps it takes through them.
OBJECTS = 300_000
STEPS = 300_000


class _Node:
    __slots__ = ("hits", "data")

    def __init__(self, i: int) -> None:
        self.hits = 0
        self.data = {"k": i}


def reference_seconds() -> float:
    """Seconds the fixed pointer-chasing loop takes on this host now."""
    nodes = [_Node(i) for i in range(OBJECTS)]
    x, total = 1, 0
    start = perf_counter()
    for _ in range(STEPS):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        node = nodes[x % OBJECTS]
        node.hits += 1
        total += node.data["k"]
    return perf_counter() - start


if __name__ == "__main__":
    print(reference_seconds())
