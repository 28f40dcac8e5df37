"""Tests for the DEPQ, including model-based property tests."""

from __future__ import annotations

import bisect
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.depq import MinMaxHeap


def test_empty_heap():
    h: MinMaxHeap[str] = MinMaxHeap()
    assert len(h) == 0
    assert not h
    with pytest.raises(IndexError):
        h.peek_min()
    with pytest.raises(IndexError):
        h.pop_max()


def test_single_element_is_both_min_and_max():
    h: MinMaxHeap[str] = MinMaxHeap()
    h.push(1.0, "a")
    assert h.peek_min() == "a"
    assert h.peek_max() == "a"
    assert h.min_key() == h.max_key() == 1.0


def test_pop_min_ascending():
    h: MinMaxHeap[int] = MinMaxHeap()
    for k in [5, 3, 8, 1, 9, 2]:
        h.push(float(k), k)
    assert [h.pop_min() for _ in range(len(h))] == [1, 2, 3, 5, 8, 9]


def test_pop_max_descending():
    h: MinMaxHeap[int] = MinMaxHeap()
    for k in [5, 3, 8, 1, 9, 2]:
        h.push(float(k), k)
    assert [h.pop_max() for _ in range(len(h))] == [9, 8, 5, 3, 2, 1]


def test_alternating_pops():
    h: MinMaxHeap[int] = MinMaxHeap()
    for k in range(10):
        h.push(float(k), k)
    assert h.pop_min() == 0
    assert h.pop_max() == 9
    assert h.pop_min() == 1
    assert h.pop_max() == 8
    assert len(h) == 6


def test_equal_keys_pop_min_is_fifo():
    h: MinMaxHeap[str] = MinMaxHeap()
    h.push(1.0, "first")
    h.push(1.0, "second")
    h.push(1.0, "third")
    assert h.pop_min() == "first"
    assert h.pop_min() == "second"


def test_equal_keys_pop_max_is_lifo():
    h: MinMaxHeap[str] = MinMaxHeap()
    for name in ("first", "second", "third"):
        h.push(1.0, name)
    h.push(0.0, "low")
    assert h.peek_max() == "third"
    assert [h.pop_max() for _ in range(4)] == ["third", "second", "first", "low"]


def test_items_returns_everything():
    h: MinMaxHeap[int] = MinMaxHeap()
    for k in range(5):
        h.push(float(k), k)
    assert sorted(h.items()) == [0, 1, 2, 3, 4]


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.sampled_from(["push", "pop_min", "pop_max"]),
                  st.floats(min_value=-1e6, max_value=1e6)),
        min_size=1,
        max_size=200,
    )
)
def test_property_matches_sorted_list_model(ops):
    """Drive the heap and a sorted-list oracle with the same operations."""
    heap: MinMaxHeap[float] = MinMaxHeap()
    model: list[float] = []
    counter = 0
    for op, key in ops:
        if op == "push":
            heap.push(key, key)
            model.append(key)
            counter += 1
        elif op == "pop_min" and model:
            expected = min(model)
            got = heap.pop_min()
            assert got == expected
            model.remove(expected)
        elif op == "pop_max" and model:
            expected = max(model)
            got = heap.pop_max()
            assert got == expected
            model.remove(expected)
        assert len(heap) == len(model)
        if model:
            assert heap.min_key() == min(model)
            assert heap.max_key() == max(model)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_property_heapsort_both_directions(keys):
    up: MinMaxHeap[float] = MinMaxHeap()
    down: MinMaxHeap[float] = MinMaxHeap()
    for k in keys:
        up.push(k, k)
        down.push(k, k)
    assert [up.pop_min() for _ in range(len(keys))] == sorted(keys)
    assert [down.pop_max() for _ in range(len(keys))] == sorted(keys, reverse=True)


_ITEMS = itertools.count()
_KEYS = st.sampled_from([0.0, 1.0, 2.0])
_STEP = st.tuples(st.sampled_from(["push", "pop_min", "pop_max", "peek"]), _KEYS)
_STREAK = st.one_of(
    # a one-sided run: the same pop (or peek) many times in a row
    st.tuples(st.sampled_from(["pop_min", "pop_max", "peek"]),
              st.integers(min_value=1, max_value=80))
    .map(lambda t: [(t[0], 0.0)] * t[1]),
    st.lists(st.tuples(st.just("push"), _KEYS), min_size=1, max_size=80),
    st.lists(_STEP, min_size=1, max_size=80),
)


def _drive(heap: MinMaxHeap, ops, model: list | None = None) -> list:
    """Apply ``(kind, key)`` ops to ``heap`` and a sorted model in
    lockstep; a pop on an empty queue pushes.

    Items are drawn from one increasing counter, so the model's ``(key,
    item)`` order is the heap's ``(key, insertion seq)`` order.
    """
    model = [] if model is None else model
    for kind, key in ops:
        if kind == "push" or not model:
            item = next(_ITEMS)
            heap.push(key, item)
            bisect.insort(model, (key, item))
        elif kind == "pop_min":
            assert heap.pop_min() == model.pop(0)[1]
        elif kind == "pop_max":
            assert heap.pop_max() == model.pop()[1]
        else:
            assert heap.peek_min() == model[0][1]
            assert heap.min_key() == model[0][0]
            assert heap.peek_max() == model[-1][1]
            assert heap.max_key() == model[-1][0]
        assert len(heap) == len(model)
        assert bool(heap) == bool(model)
    return model


def _heaps(heap: MinMaxHeap) -> list:
    return [h for h in (heap._lo, heap._hi) if h is not None]


@settings(max_examples=300)
@given(st.lists(_STREAK, min_size=1, max_size=25))
def test_property_tie_order_and_streaks_match_sorted_model(streaks):
    """Unique items, keys from a small set (ties are the common case).

    A sorted ``(key, seq)`` model fixes the exact item each pop and peek
    must return: FIFO among equal keys at the min end, LIFO at the max
    end.  Ops come in streaks — long one-sided runs, then a flip — which
    drives the heap drop and rebuild paths.
    """
    heap: MinMaxHeap[int] = MinMaxHeap()
    model: list[tuple[float, int]] = []
    for streak in streaks:
        _drive(heap, streak, model)
        assert sorted(heap.items()) == sorted(s for _, s in model)


@pytest.mark.parametrize("last", [["peek"], ["pop"]])
@pytest.mark.parametrize("end", ["min", "max"])
def test_pops_skip_a_run_of_entries_taken_from_the_other_end(end, last):
    """Two entries popped from the far end surface together at the top
    of this end's heap while both heaps are alive: a peek or a pop must
    skip both."""
    near, far = ("pop_min", "pop_max") if end == "min" else ("pop_max", "pop_min")
    low, high = (0.0, 9.0) if end == "min" else (9.0, 0.0)
    ops = [("push", low)] * 50 + [(near, 0.0)] + [(far, 0.0)] * 2
    ops += [("push", high)] * 100 + [(near, 0.0), (far, 0.0)] * 47
    heap: MinMaxHeap[int] = MinMaxHeap()
    model = _drive(heap, ops)
    assert len(_heaps(heap)) == 2 and len(heap._dead) >= 2
    _drive(heap, [(near if op == "pop" else op, 0.0) for op in last], model)


@pytest.mark.parametrize("end", ["pop_min", "pop_max"])
def test_single_ended_run_keeps_one_compact_heap(end):
    """Once the other end goes idle its heap is dropped, and the survivor
    holds exactly the live entries (no dead-seq leftovers)."""
    heap: MinMaxHeap[int] = MinMaxHeap()
    for i in range(200):
        heap.push(float(i % 5), i)
    heap.pop_min()
    heap.pop_max()  # both ends in use: two heaps, dead entries pending
    assert len(_heaps(heap)) == 2
    pop = getattr(heap, end)
    for i in range(200, 2200):
        heap.push(float(i % 5), i)
        pop()
    assert len(_heaps(heap)) == 1
    assert heap._dead == set()
    assert len(_heaps(heap)[0]) == len(heap) == 198
    assert (heap._lo is not None) == (end == "pop_min")
    flip = getattr(heap, "pop_max" if end == "pop_min" else "pop_min")
    flip()  # builds the other end's heap; the end just in use survives
    assert len(_heaps(heap)) == 2
    pop()  # and so does the freshly built one
    assert len(_heaps(heap)) == 2


def test_alternating_ends_keep_both_heaps():
    """Pops from both ends keep each end's heap alive (no rebuilds)."""
    heap: MinMaxHeap[int] = MinMaxHeap()
    for i in range(100):
        heap.push(float(i), i)
    for i in range(100, 1100):
        heap.push(float(i % 50), i)
        heap.push(float(i % 50), -i)
        heap.pop_min()
        heap.pop_max()
        assert len(_heaps(heap)) == 2
    assert len(heap) == 100
