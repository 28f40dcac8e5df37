"""Tests for the arrival-source library.

A :class:`Trace` is the in-memory :class:`ArrivalSource`, so every
transform has one implementation.  The one-shot numpy reference
formulas below are an independent oracle: each streaming transform
must match its reference bit for bit, sources must be re-iterable and
deterministic, and file replay must round-trip losslessly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.rng import stable_hash
from repro.workload.generators import get_trace, stream_trace
from repro.workload.io import (
    load_trace_jsonl,
    save_trace_csv,
    save_trace_jsonl,
)
from repro.workload.source import (
    ArrivalSource,
    BurstSource,
    ConcatSource,
    ConstantSource,
    FileSource,
    GeneratorSource,
    SliceSource,
    SpliceSource,
    ThinnedSource,
    concat_sources,
    trace_file_digest,
)
from repro.workload.trace import Trace

# -- reference transforms: whole-array numpy, one RNG call per draw --------


def ref_scaled(trace: Trace, factor: float) -> Trace:
    rng = np.random.default_rng(stable_hash(trace.name) % 2**32)
    keep = rng.random(len(trace)) < factor
    return Trace(
        name=f"{trace.name}x{factor:g}",
        arrivals=trace.arrivals[keep],
        duration=trace.duration,
    )


def ref_overlay_burst(
    trace: Trace, start: float, length: float, factor: float, seed: int = 0
) -> Trace:
    end = min(start + length, trace.duration)
    rng = np.random.default_rng(
        (stable_hash(f"{trace.name}|burst") + seed) % 2**32
    )
    in_window = (trace.arrivals >= start) & (trace.arrivals < end)
    if factor < 1:
        keep = ~in_window | (rng.random(len(trace)) < factor)
        arrivals = trace.arrivals[keep]
    else:
        n_extra = rng.poisson((factor - 1.0) * int(in_window.sum()))
        extra = rng.uniform(start, end, size=n_extra)
        arrivals = np.sort(np.concatenate([trace.arrivals, extra]))
    return Trace(
        name=f"{trace.name}@{start:g}x{factor:g}",
        arrivals=arrivals,
        duration=trace.duration,
    )


def ref_slice(trace: Trace, start: float, end: float) -> Trace:
    mask = (trace.arrivals >= start) & (trace.arrivals < end)
    return Trace(
        name=f"{trace.name}[{start:g}:{end:g}]",
        arrivals=trace.arrivals[mask] - start,
        duration=end - start,
    )


def ref_concat(traces: list[Trace]) -> Trace:
    parts: list[np.ndarray] = []
    offset = 0.0
    for trace in traces:
        parts.append(trace.arrivals + offset)
        offset += trace.duration
    return Trace(
        name="+".join(t.name for t in traces),
        arrivals=np.concatenate(parts),
        duration=offset,
    )


def ref_splice(trace: Trace, other: Trace, at: float) -> Trace:
    end = at + other.duration
    return Trace(
        name=f"{trace.name}<-{other.name}@{at:g}",
        arrivals=np.concatenate([
            trace.arrivals[trace.arrivals < at],
            other.arrivals + at,
            trace.arrivals[trace.arrivals >= end],
        ]),
        duration=max(trace.duration, end),
    )


def _bitwise(source: ArrivalSource, trace: Trace) -> None:
    assert source.materialize().arrivals.tobytes() == trace.arrivals.tobytes()
    assert source.name == trace.name
    assert source.duration == trace.duration


class TestConstantSource:
    def test_matches_eager_bitwise(self):
        src = ConstantSource(rate=37.0, duration=50.0)
        eager = get_trace("constant", base_rate=37.0, duration=50.0, seed=0)
        _bitwise(src, eager)

    def test_count_without_iteration(self):
        src = ConstantSource(rate=10.0, duration=30.0)
        assert src.count() == 300
        assert src.mean_rate == pytest.approx(10.0)

    def test_reiterable(self):
        src = ConstantSource(rate=100.0, duration=90.0)
        assert list(src) == list(src)


class TestTransformParity:
    """Streaming transforms == the reference formulas, bit for bit."""

    @pytest.fixture()
    def trace(self) -> Trace:
        return get_trace("tweet", base_rate=80.0, duration=60.0, seed=4)

    def test_scaled(self, trace):
        _bitwise(trace.scaled(0.4), ref_scaled(trace, 0.4))

    def test_burst_thinning(self, trace):
        _bitwise(
            trace.overlay_burst(10.0, 20.0, 0.3, seed=7),
            ref_overlay_burst(trace, 10.0, 20.0, 0.3, seed=7),
        )

    def test_burst_amplify(self, trace):
        _bitwise(
            trace.overlay_burst(15.0, 10.0, 3.0, seed=2),
            ref_overlay_burst(trace, 15.0, 10.0, 3.0, seed=2),
        )

    def test_burst_to_trace_end(self, trace):
        # Window clipped at the trace duration: the flush happens on
        # stream end, not on a post-window arrival.
        _bitwise(
            trace.overlay_burst(50.0, 99.0, 2.0),
            ref_overlay_burst(trace, 50.0, 99.0, 2.0),
        )

    def test_slice(self, trace):
        _bitwise(trace.slice(12.0, 40.0), ref_slice(trace, 12.0, 40.0))

    def test_stacked_transforms(self, trace):
        lazy = trace.scaled(0.8).overlay_burst(5.0, 15.0, 2.5)
        ref = ref_overlay_burst(ref_scaled(trace, 0.8), 5.0, 15.0, 2.5)
        _bitwise(lazy, ref)

    def test_transform_validation(self, trace):
        with pytest.raises(ValueError):
            trace.scaled(1.5)  # thinning only
        with pytest.raises(ValueError):
            trace.overlay_burst(99.0, 5.0, 2.0)  # start outside duration
        with pytest.raises(ValueError):
            trace.slice(40.0, 12.0)


class TestConcatSplice:
    def test_concat_matches_trace_concat(self):
        a = get_trace("poisson", base_rate=30.0, duration=20.0, seed=1)
        b = get_trace("constant", base_rate=25.0, duration=10.0, seed=0)
        joined = concat_sources([a, b])
        _bitwise(joined, ref_concat([a, b]))
        assert joined.duration == pytest.approx(30.0)
        # Part two re-based after part one's full duration.
        assert np.all(joined.materialize().arrivals[len(a):] >= a.duration)

    def test_concat_roundtrip_order(self):
        a = get_trace("poisson", base_rate=40.0, duration=15.0, seed=3)
        b = get_trace("poisson", base_rate=40.0, duration=15.0, seed=9)
        ab = concat_sources([a, b])
        # The original parts are recoverable by slicing at the seam.
        assert ab.slice(0.0, a.duration).materialize().arrivals.tobytes() \
            == a.arrivals.tobytes()

    def test_concat_determinism(self):
        a = get_trace("tweet", base_rate=50.0, duration=12.0, seed=5)
        b = get_trace("tweet", base_rate=50.0, duration=12.0, seed=6)
        one = concat_sources([a, b])
        two = concat_sources([a, b])
        assert one.materialize().arrivals.tobytes() == \
            two.materialize().arrivals.tobytes()

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            ConcatSource([])

    def test_splice_matches_trace_splice(self):
        base = get_trace("poisson", base_rate=60.0, duration=40.0, seed=2)
        other = get_trace("constant", base_rate=90.0, duration=8.0, seed=0)
        _bitwise(base.splice(other, at=16.0), ref_splice(base, other, 16.0))

    def test_splice_window_content(self):
        base = get_trace("poisson", base_rate=50.0, duration=30.0, seed=8)
        other = get_trace("constant", base_rate=10.0, duration=5.0, seed=0)
        out = base.splice(other, at=10.0).materialize().arrivals
        window = out[(out >= 10.0) & (out < 15.0)]
        assert window.tobytes() == (other.arrivals + 10.0).tobytes()
        # Outside the window the base survives untouched.
        before = out[out < 10.0]
        assert before.tobytes() == \
            base.arrivals[base.arrivals < 10.0].tobytes()

    def test_splice_extends_duration(self):
        base = get_trace("constant", base_rate=10.0, duration=10.0, seed=0)
        other = get_trace("constant", base_rate=10.0, duration=8.0, seed=0)
        out = base.splice(other, at=6.0)
        assert out.duration == pytest.approx(14.0)

    def test_splice_bounds_checked(self):
        base = get_trace("constant", base_rate=10.0, duration=10.0, seed=0)
        other = get_trace("constant", base_rate=10.0, duration=2.0, seed=0)
        with pytest.raises(ValueError):
            base.splice(other, at=11.0)


class TestGeneratorSource:
    def test_deterministic_and_reiterable(self):
        src = stream_trace("tweet", base_rate=60.0, duration=40.0, seed=3)
        assert isinstance(src, GeneratorSource)
        first = src.materialize().arrivals
        second = src.materialize().arrivals
        assert first.tobytes() == second.tobytes()

    def test_sorted_within_duration(self):
        src = stream_trace("azure", base_rate=70.0, duration=50.0, seed=1)
        arr = src.materialize().arrivals
        assert np.all(np.diff(arr) >= 0)
        assert arr.size == 0 or (arr[0] >= 0 and arr[-1] < 50.0)

    def test_seed_changes_realization(self):
        a = stream_trace("tweet", base_rate=60.0, duration=30.0, seed=0)
        b = stream_trace("tweet", base_rate=60.0, duration=30.0, seed=1)
        assert a.materialize().arrivals.tobytes() != \
            b.materialize().arrivals.tobytes()

    def test_statistically_matches_envelope(self):
        # Long constant-envelope stream: the realized mean rate should
        # land within a few percent of the declared rate.
        src = stream_trace("poisson", base_rate=100.0, duration=400.0, seed=0)
        assert src.mean_rate == pytest.approx(100.0, rel=0.05)

    def test_constant_stream_is_exact(self):
        src = stream_trace("constant", base_rate=45.0, duration=33.0)
        eager = get_trace("constant", base_rate=45.0, duration=33.0, seed=0)
        _bitwise(src, eager)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            stream_trace("nope", base_rate=10.0, duration=10.0)


class TestFileSource:
    @pytest.fixture()
    def trace(self) -> Trace:
        return get_trace("poisson", base_rate=40.0, duration=25.0, seed=6)

    def test_csv_roundtrip(self, tmp_path, trace):
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        src = FileSource(path)
        assert src.name == trace.name
        assert src.duration == pytest.approx(trace.duration)
        assert src.materialize().arrivals.tobytes() == trace.arrivals.tobytes()

    def test_jsonl_roundtrip(self, tmp_path, trace):
        path = tmp_path / "t.jsonl"
        save_trace_jsonl(trace, path)
        loaded = load_trace_jsonl(path)
        assert loaded.arrivals.tobytes() == trace.arrivals.tobytes()
        src = FileSource(path)
        assert src.materialize().arrivals.tobytes() == trace.arrivals.tobytes()

    def test_digest_pins_content(self, tmp_path, trace):
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        good = trace_file_digest(path)
        FileSource(path, digest=good)  # exact digest accepted
        with pytest.raises(ValueError, match="digest mismatch"):
            FileSource(path, digest="0" * 64)

    def test_unsorted_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# trace=bad duration=10\n1.0\n3.0\n2.0\n")
        src = FileSource(path)
        with pytest.raises(ValueError, match="bad.csv"):
            src.count()

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# trace=bad duration=5\n1.0\n7.0\n")
        src = FileSource(path)
        with pytest.raises(ValueError):
            src.count()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FileSource(tmp_path / "absent.csv")

    def test_duration_fallback_scan(self, tmp_path):
        # Headerless file: duration comes from one scan past the last
        # arrival.
        path = tmp_path / "raw.csv"
        path.write_text("0.5\n1.5\n4.25\n")
        src = FileSource(path)
        assert src.duration == pytest.approx(4.25, abs=1e-6)
        assert src.count() == 3

    def test_transforms_compose_on_files(self, tmp_path, trace):
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        lazy = FileSource(path).scaled(0.5)
        assert lazy.materialize().arrivals.tobytes() == \
            ref_scaled(trace, 0.5).arrivals.tobytes()

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# duration=5\n0.5\nnan\n1.0\n")
        src = FileSource(path)
        with pytest.raises(ValueError, match=r"x\.csv:3: arrival nan is not finite"):
            src.count()


class TestTraceIsSource:
    def test_trace_is_source(self):
        trace = get_trace("constant", base_rate=10.0, duration=5.0, seed=0)
        assert isinstance(trace, ArrivalSource)
        assert trace.count() == len(trace) == 50
        assert trace.materialize().arrivals.tobytes() == \
            trace.arrivals.tobytes()

    def test_iteration_protocols_match(self):
        # The direct list iteration equals the chunked base iteration.
        trace = get_trace("poisson", base_rate=30.0, duration=10.0, seed=0)
        assert list(trace) == list(ArrivalSource.__iter__(trace))


class TestTransformClasses:
    """Direct construction checks for the transform sources."""

    def test_thinned_name_and_duration(self):
        src = ThinnedSource(ConstantSource(10.0, 10.0), 0.5)
        assert src.name == "constantx0.5"
        assert src.duration == 10.0

    def test_burst_name(self):
        src = BurstSource(ConstantSource(10.0, 10.0), 2.0, 3.0, 2.0)
        assert src.name == "constant@2x2"

    def test_slice_rebases(self):
        src = SliceSource(ConstantSource(10.0, 10.0), 2.0, 5.0)
        arr = src.materialize().arrivals
        assert src.duration == pytest.approx(3.0)
        assert arr.min() >= 0 and arr.max() < 3.0

    def test_splice_duration(self):
        base = ConstantSource(10.0, 10.0)
        other = ConstantSource(10.0, 8.0)
        assert SpliceSource(base, other, 6.0).duration == pytest.approx(14.0)
