"""Deferred window sums are exact: a model test against eager sums.

:class:`WindowedSamples` only appends on ``record`` and folds the pending
samples into its running sums at the next query.  ``EagerWindowedSamples``
below is the reference: every add at record time, every subtract at
query time.  Random interleavings of
records and queries must give ``==`` results, equal running sums and an
equal ``_mutations`` count, so the exact ``_rebuild`` points match too.
"""

from __future__ import annotations

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulation.stats import WindowedSamples

WINDOW = 2.0


class EagerWindowedSamples:
    """The running-sum window with every add made at record time."""

    def __init__(self, window: float) -> None:
        self.window = window
        self._inv_window = 1.0 / window
        self._samples: deque[tuple[float, float]] = deque()
        self._sum_v = 0.0
        self._sum_t = 0.0
        self._sum_tv = 0.0
        self._mutations = 0
        self.rebuilds = 0
        self.drains = 0
        self.edge_queries = 0
        self.results: list = []  # query results, filled in by replay()

    def record(self, t: float, value: float) -> None:
        self._samples.append((t, value))
        self._sum_v += value
        self._sum_t += t
        self._sum_tv += t * value
        self._mutations += 1

    def _evict(self, now: float) -> None:
        cutoff = now - self.window
        dq = self._samples
        if dq and dq[0][0] == cutoff:
            self.edge_queries += 1
        if not dq or dq[0][0] >= cutoff:
            return
        while dq and dq[0][0] < cutoff:
            t, v = dq.popleft()
            self._sum_v -= v
            self._sum_t -= t
            self._sum_tv -= t * v
            self._mutations += 1
        if not dq:
            self._sum_v = self._sum_t = self._sum_tv = 0.0
            self._mutations = 0
            self.drains += 1
        elif self._mutations > (len(dq) << 2) + 64:
            sum_v = sum_t = sum_tv = 0.0
            for t, v in dq:
                sum_v += v
                sum_t += t
                sum_tv += t * v
            self._sum_v, self._sum_t, self._sum_tv = sum_v, sum_t, sum_tv
            self._mutations = 0
            self.rebuilds += 1

    def weighted_average(self, now: float, default: float = 0.0) -> float:
        self._evict(now)
        n = len(self._samples)
        if n == 0:
            return default
        base = 1.0 - now * self._inv_window
        num = base * self._sum_v + self._sum_tv * self._inv_window
        den = base * n + self._sum_t * self._inv_window
        if den <= 1e-12:
            return default
        return num / den

    def mean(self, now: float, default: float = 0.0) -> float:
        self._evict(now)
        n = len(self._samples)
        if n == 0:
            return default
        return self._sum_v / n

    def values(self, now: float) -> list[float]:
        self._evict(now)
        return [v for _, v in self._samples]

    def __len__(self) -> int:
        return len(self._samples)


# Clock steps: dyadic ones land samples exactly on the window edge, the
# others make the running sums drift so rebuilds matter.
STEPS = st.sampled_from([0.0, 0.25, 0.5, 1.0, WINDOW, 2.5, 0.1, 0.7])
VALUES = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("record"), STEPS,
                  st.lists(VALUES, min_size=1, max_size=80)),
        st.tuples(st.sampled_from(["wavg", "mean", "values", "len"]), STEPS),
    ),
    max_size=60,
)

# Many samples, then one survivor while they leave: a rebuild.
REBUILD = [("record", 0.0, [0.1] * 70), ("record", 1.9, [0.3]),
           ("wavg", 0.2), ("mean", 0.0)]
# Everything leaves the window: the sums reset to zero.
DRAIN = [("record", 0.0, [1.5, 2.5]), ("mean", 0.0), ("len", WINDOW + 1.0),
         ("values", 0.0), ("record", 0.0, [4.0]), ("wavg", 0.0)]
# Only samples sitting exactly on the window edge remain (weight 0).
EDGE = [("record", 0.5, [3.0, 5.0]), ("wavg", WINDOW), ("values", 0.0)]


def replay(ops):
    eager, deferred = EagerWindowedSamples(WINDOW), WindowedSamples(WINDOW)
    now = 0.0
    for op in ops:
        kind, step = op[0], op[1]
        now += step
        if kind == "record":
            for value in op[2]:
                eager.record(now, value)
                deferred.record(now, value)
            assert len(deferred) == len(eager)
            continue
        if kind == "len":
            assert len(deferred) == len(eager)
            continue
        if kind == "wavg":
            got = deferred.weighted_average(now, default=-1.0)
            want = eager.weighted_average(now, default=-1.0)
        elif kind == "mean":
            got, want = deferred.mean(now, -1.0), eager.mean(now, -1.0)
        else:
            got, want = deferred.values(now), eager.values(now)
        assert got == want
        eager.results.append(got)
        assert (deferred._sum_v, deferred._sum_t, deferred._sum_tv) == (
            eager._sum_v, eager._sum_t, eager._sum_tv)
        assert deferred._mutations == eager._mutations
        assert len(deferred) == len(eager)
    return eager


@settings(max_examples=300, deadline=None)
@given(OPS)
@example(REBUILD)
@example(DRAIN)
@example(EDGE)
def test_deferred_sums_match_eager(ops):
    replay(ops)


def test_examples_cover_rebuild_drain_and_edge():
    assert replay(REBUILD).rebuilds == 1
    assert replay(DRAIN).drains == 1
    eager = replay(EDGE)
    assert eager.edge_queries == 2  # both queries keep only edge samples
    assert eager.results == [-1.0, [3.0, 5.0]]  # zero weight: the default


def test_len_counts_pending_samples():
    ws = WindowedSamples(WINDOW)
    ws.record(0.0, 1.0)
    ws.record(0.5, 2.0)
    assert len(ws) == 2  # nothing queried yet: both still pending
    assert ws.values(0.5) == [1.0, 2.0]
    ws.record(3.0, 4.0)
    assert len(ws) == 3
    assert ws.values(3.0) == [4.0]
    assert len(ws) == 1
