"""Arrival sources: lazy, re-iterable, composable workloads.

An :class:`ArrivalSource` is an ordered stream of request send-times
produced in bounded chunks.  It is the one arrival type: a
:class:`~repro.workload.trace.Trace` is the source held in memory,
while the generator and file sources here produce their arrivals on
demand, so a million-request workload replays in O(chunk) memory.

Sources are *re-iterable* and deterministic: every ``chunks()`` call
restarts generation from the seed, so a source can be counted for
provisioning, then replayed, then counted again, always yielding the
same stream.  Transforms (thinning, burst overlays, slicing, concat,
splice) compose lazily on any source, in memory or not.

:class:`GeneratorSource` regenerates each fixed window from
``default_rng([seed, stable_hash(name), window_index])`` —
statistically the inhomogeneous Poisson process of the registered
generators (Poisson processes are independent across disjoint
windows) and seekable, but a different realization than a generated
:class:`Trace`, which is why streaming generation is opt-in.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..simulation.rng import stable_hash

if TYPE_CHECKING:
    from .trace import Trace

#: Arrivals held in memory per generation step (not a correctness knob).
CHUNK = 8192

RateFn = Callable[[np.ndarray], np.ndarray]


class ArrivalSource:
    """A re-iterable stream of sorted arrival times in seconds.

    Subclasses implement :meth:`chunks`, yielding sorted float64 arrays
    that are globally nondecreasing across chunk boundaries.  Everything
    else — iteration, counting, materialization, composition — is
    shared.  ``duration`` is the horizon in seconds (``>= 0``).
    """

    def __init__(self, name: str, duration: float) -> None:
        if duration < 0:
            raise ValueError("source duration must be >= 0")
        self.name = name
        self.duration = float(duration)
        self._count: int | None = None

    def chunks(self) -> Iterator[np.ndarray]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[float]:
        for chunk in self.chunks():
            yield from chunk.tolist()

    def count(self) -> int:
        """Total arrivals (one streaming pass, cached — sources are
        deterministic, so the count never changes)."""
        if self._count is None:
            self._count = sum(int(c.size) for c in self.chunks())
        return self._count

    @property
    def mean_rate(self) -> float:
        """Average requests/second (triggers one counting pass); 0 over
        an empty horizon."""
        if self.duration <= 0:
            return 0.0
        return self.count() / self.duration

    def materialize(self, name: str | None = None) -> "Trace":
        """Collect the whole stream into an in-memory :class:`Trace`."""
        from .trace import Trace

        parts = list(self.chunks())
        arrivals = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
        )
        return Trace(
            name=name or self.name, arrivals=arrivals, duration=self.duration
        )

    # -- composable transforms ---------------------------------------------

    def scaled(self, factor: float) -> "ArrivalSource":
        """Rate thinning (see :class:`ThinnedSource`)."""
        return ThinnedSource(self, factor)

    def overlay_burst(
        self, start: float, length: float, factor: float, seed: int = 0
    ) -> "ArrivalSource":
        """Burst overlay (see :class:`BurstSource`)."""
        return BurstSource(self, start, length, factor, seed=seed)

    def slice(self, start: float, end: float) -> "ArrivalSource":
        """Sub-stream covering [start, end), re-based to t=0."""
        return SliceSource(self, start, end)

    def splice(self, other: "ArrivalSource", at: float) -> "ArrivalSource":
        """Replace [at, at+other.duration) with ``other``'s stream."""
        return SpliceSource(self, other, at)


class ConstantSource(ArrivalSource):
    """Perfectly regular arrivals; byte-identical to ``constant_trace``."""

    def __init__(self, rate: float, duration: float, name: str = "constant") -> None:
        if rate <= 0 or duration <= 0:
            raise ValueError("rate and duration must be > 0")
        super().__init__(name, duration)
        self.rate = float(rate)
        self._n = int(rate * duration)
        self._count = self._n

    def chunks(self) -> Iterator[np.ndarray]:
        for lo in range(0, self._n, CHUNK):
            hi = min(lo + CHUNK, self._n)
            yield np.arange(lo, hi) / self.rate


class GeneratorSource(ArrivalSource):
    """Windowed inhomogeneous-Poisson arrivals in O(window) memory.

    Window ``w`` (covering ``[w*window, (w+1)*window)``) draws its
    candidate count, positions and thinning from
    ``default_rng([seed, stable_hash(name), w])`` — every window is
    independent of the rest of the stream, so the source is re-iterable,
    seekable and embarrassingly shardable by time.  Statistically this
    is the same inhomogeneous Poisson process the registered generators
    sample (disjoint windows of a Poisson process are independent), but
    a *different realization* than their Lewis-Shedler draw order —
    which is why streaming generation is opt-in per scenario.
    """

    def __init__(
        self,
        rate_fn: RateFn,
        duration: float,
        peak_rate: float,
        seed: int,
        name: str,
        window: float = 16.0,
    ) -> None:
        if peak_rate <= 0:
            raise ValueError("peak_rate must be > 0")
        if window <= 0:
            raise ValueError("window must be > 0")
        super().__init__(name, duration)
        self.rate_fn = rate_fn
        self.peak_rate = float(peak_rate)
        self.seed = int(seed)
        self.window = float(window)

    def chunks(self) -> Iterator[np.ndarray]:
        key = stable_hash(self.name)
        n_windows = int(np.ceil(self.duration / self.window))
        for w in range(n_windows):
            start = w * self.window
            end = min(start + self.window, self.duration)
            rng = np.random.default_rng([self.seed, key, w])
            n = rng.poisson(self.peak_rate * (end - start))
            times = np.sort(rng.uniform(start, end, size=n))
            lam = self.rate_fn(times)
            if np.any(lam > self.peak_rate * (1 + 1e-9)):
                raise ValueError(
                    "rate_fn exceeds peak_rate; thinning would be biased"
                )
            keep = rng.random(n) < lam / self.peak_rate
            out = times[keep]
            if out.size:
                yield out


class ThinnedSource(ArrivalSource):
    """Rate thinning: each arrival survives with probability ``factor``.

    Rate up-scaling (``factor > 1``) must be done at generation time, so
    the temporal shape is kept without repeating arrivals.
    """

    def __init__(self, source: ArrivalSource, factor: float) -> None:
        if factor <= 0:
            raise ValueError("factor must be > 0")
        if factor > 1:
            raise ValueError(
                "rate up-scaling must be done at generation time; "
                "thinning only supports factor <= 1"
            )
        super().__init__(f"{source.name}x{factor:g}", source.duration)
        self.source = source
        self.factor = float(factor)

    def chunks(self) -> Iterator[np.ndarray]:
        # hash() is salted per process (PYTHONHASHSEED), which would make
        # thinning non-deterministic across sweep worker processes; derive
        # the seed from a stable digest of the name instead.  Per-chunk
        # random() calls consume the PCG64 stream one big call would.
        rng = np.random.default_rng(stable_hash(self.source.name) % 2**32)
        for chunk in self.source.chunks():
            out = chunk[rng.random(chunk.size) < self.factor]
            if out.size:
                yield out


class BurstSource(ArrivalSource):
    """Arrival rate multiplied by ``factor`` over ``[start, start+length)``.

    Models the paper's "unpredictable events": for ``factor > 1`` extra
    uniform arrivals — Poisson many, ``(factor - 1)`` times the window's
    own count — are merged into the window; ``factor < 1`` thins it
    instead, drawing one random per arrival, in and out of the window.
    Deterministic in ``seed`` and the source name, so declaratively
    composed workloads replay identically across sweep worker processes.
    ``factor > 1`` must know the window's arrival count before drawing
    the extras, so the window's own arrivals are buffered — the only
    transform whose memory scales with a declared burst window rather
    than the chunk size.
    """

    def __init__(
        self,
        source: ArrivalSource,
        start: float,
        length: float,
        factor: float,
        seed: int = 0,
    ) -> None:
        if length <= 0:
            raise ValueError("burst length must be > 0")
        if factor <= 0:
            raise ValueError("burst factor must be > 0")
        if not 0 <= start < source.duration:
            raise ValueError(
                f"burst start {start} outside trace duration {source.duration}"
            )
        super().__init__(
            f"{source.name}@{start:g}x{factor:g}", source.duration
        )
        self.source = source
        self.start = float(start)
        self.end = min(start + length, source.duration)
        self.factor = float(factor)
        self.seed = int(seed)

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(
            (stable_hash(f"{self.source.name}|burst") + self.seed) % 2**32
        )

    def chunks(self) -> Iterator[np.ndarray]:
        rng = self._rng()
        if self.factor < 1:
            for chunk in self.source.chunks():
                r = rng.random(chunk.size)
                in_window = (chunk >= self.start) & (chunk < self.end)
                out = chunk[~in_window | (r < self.factor)]
                if out.size:
                    yield out
            return
        window_parts: list[np.ndarray] = []
        flushed = False
        for chunk in self.source.chunks():
            before = chunk[chunk < self.start]
            if before.size:
                yield before
            in_window = chunk[(chunk >= self.start) & (chunk < self.end)]
            if in_window.size:
                window_parts.append(in_window)
            after = chunk[chunk >= self.end]
            if after.size:
                if not flushed:
                    yield from self._flush(rng, window_parts)
                    flushed = True
                yield after
        if not flushed:
            yield from self._flush(rng, window_parts)

    def _flush(
        self, rng: np.random.Generator, parts: list[np.ndarray]
    ) -> Iterator[np.ndarray]:
        in_window = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
        )
        n_extra = rng.poisson((self.factor - 1.0) * int(in_window.size))
        extra = rng.uniform(self.start, self.end, size=n_extra)
        merged = np.sort(np.concatenate([in_window, extra]))
        parts.clear()
        if merged.size:
            yield merged


class SliceSource(ArrivalSource):
    """Sub-stream covering [start, end), re-based to t=0."""

    def __init__(self, source: ArrivalSource, start: float, end: float) -> None:
        if not 0 <= start < end <= source.duration:
            raise ValueError(f"invalid slice [{start}, {end})")
        super().__init__(
            f"{source.name}[{start:g}:{end:g}]", end - start
        )
        self.source = source
        self.start = float(start)
        self.end = float(end)

    def chunks(self) -> Iterator[np.ndarray]:
        for chunk in self.source.chunks():
            if chunk.size and chunk[0] >= self.end:
                return  # sorted stream: nothing further can fall in range
            out = chunk[(chunk >= self.start) & (chunk < self.end)]
            if out.size:
                yield out - self.start


class ConcatSource(ArrivalSource):
    """End-to-end concatenation; each source re-based after the previous
    one's full duration (not its last arrival), so quiet tails are
    preserved."""

    def __init__(
        self, sources: Sequence[ArrivalSource], name: str | None = None
    ) -> None:
        sources = list(sources)
        if not sources:
            raise ValueError("concat needs at least one source")
        super().__init__(
            name or "+".join(s.name for s in sources),
            sum(s.duration for s in sources),
        )
        self.sources = sources

    def chunks(self) -> Iterator[np.ndarray]:
        offset = 0.0
        for source in self.sources:
            for chunk in source.chunks():
                yield chunk + offset
            offset += source.duration


class SpliceSource(ArrivalSource):
    """Replace ``[at, at + other.duration)`` of ``base`` with ``other``.

    Drops a recorded incident (or any other workload) into a steady
    baseline at a chosen time: ``base`` arrivals inside the window are
    discarded, ``other``'s shift to start at ``at``, and the duration
    extends if the splice runs past the end.  Deterministic — no RNG.
    The base stream is iterated twice (once for the prefix, once for the
    suffix) — sources are re-iterable, so this stays flat-memory.
    """

    def __init__(
        self, base: ArrivalSource, other: ArrivalSource, at: float
    ) -> None:
        if not 0 <= at <= base.duration:
            raise ValueError(
                f"splice point {at} outside base duration {base.duration}"
            )
        self._end = at + other.duration
        super().__init__(
            f"{base.name}<-{other.name}@{at:g}",
            max(base.duration, self._end),
        )
        self.base = base
        self.other = other
        self.at = float(at)

    def chunks(self) -> Iterator[np.ndarray]:
        for chunk in self.base.chunks():
            if chunk.size and chunk[0] >= self.at:
                break
            out = chunk[chunk < self.at]
            if out.size:
                yield out
        for chunk in self.other.chunks():
            if chunk.size:
                yield chunk + self.at
        for chunk in self.base.chunks():
            if chunk.size and chunk[-1] < self._end:
                continue
            out = chunk[chunk >= self._end]
            if out.size:
                yield out


class FileSource(ArrivalSource):
    """Chunked replay of an on-disk trace file (CSV or JSONL).

    The file must be sorted (validated while streaming — production
    arrival logs are); an optional sha256 ``digest`` pins the exact
    bytes, which is how file-backed :class:`~repro.experiments.scenario.
    TraceSpec`\\ s stay frozen and cache-fingerprintable.  ``duration``
    falls back to the file header, then to one scan for the last
    timestamp.
    """

    def __init__(
        self,
        path: str | Path,
        name: str | None = None,
        duration: float | None = None,
        digest: str | None = None,
    ) -> None:
        self.path = Path(path)
        if not self.path.is_file():
            raise FileNotFoundError(f"trace file not found: {self.path}")
        if digest is not None:
            actual = trace_file_digest(self.path)
            if actual != digest:
                raise ValueError(
                    f"trace file {self.path} digest mismatch: expected "
                    f"{digest}, file has {actual} — the file changed since "
                    "the scenario was declared"
                )
        self.digest = digest
        self.jsonl = self.path.suffix.lower() in (".jsonl", ".ndjson")
        header_name, header_duration = read_header(self.path, self.jsonl)
        if duration is None:
            duration = header_duration
        if duration is None:
            last = None
            for _, last in read_arrivals(self.path, self.jsonl):
                pass
            if last is None:
                raise ValueError(f"trace file {self.path} holds no arrivals")
            duration = last + 1e-9
        super().__init__(
            name or header_name or self.path.stem, float(duration)
        )

    def chunks(self) -> Iterator[np.ndarray]:
        buf: list[float] = []
        last = -float("inf")
        for lineno, t in read_arrivals(self.path, self.jsonl):
            if t < last:
                raise ValueError(
                    f"{self.path}:{lineno}: arrivals not sorted "
                    f"({t!r} after {last!r}); sort the file or use "
                    "load_trace_csv/load_trace_jsonl to materialize"
                )
            if t < 0 or t > self.duration:
                raise ValueError(
                    f"{self.path}:{lineno}: arrival {t!r} outside "
                    f"[0, {self.duration}]"
                )
            last = t
            buf.append(t)
            if len(buf) >= CHUNK:
                yield np.asarray(buf, dtype=np.float64)
                buf = []
        if buf:
            yield np.asarray(buf, dtype=np.float64)


def read_header(
    path: Path, jsonl: bool
) -> tuple[str | None, float | None]:
    """(name, duration) from a trace file's first line, where declared."""
    name: str | None = None
    duration: float | None = None
    with path.open() as fh:
        first = fh.readline().strip()
    if not first:
        return None, None
    if jsonl:
        meta = json.loads(first)
        if isinstance(meta, dict) and "t" not in meta:
            name = str(meta["name"]) if "name" in meta else None
            if meta.get("duration") is not None:
                duration = float(meta["duration"])
    elif first.startswith("#"):
        for token in first[1:].split():
            if token.startswith("duration="):
                duration = float(token.split("=", 1)[1])
            elif token.startswith("trace="):
                name = token.split("=", 1)[1]
    return name, duration


def read_arrivals(path: Path, jsonl: bool) -> Iterator[tuple[int, float]]:
    """(line number, arrival) for every arrival line of a trace file.

    CSV files hold one timestamp per line (``#`` lines are comments);
    JSONL files hold ``{"t": ...}`` objects or bare numbers after an
    optional meta header.  Non-finite timestamps are rejected here, so
    no reader of the format can let one through.
    """
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if jsonl:
                value = json.loads(line)
                if isinstance(value, dict):
                    if "t" not in value:
                        if lineno == 1:  # the meta header
                            continue
                        raise ValueError(
                            f"{path}:{lineno}: arrival object missing 't'"
                        )
                    value = value["t"]
                t = float(value)
            elif line.startswith("#"):
                continue
            else:
                t = float(line)
            if not math.isfinite(t):
                raise ValueError(f"{path}:{lineno}: arrival {t!r} is not finite")
            yield lineno, t


def concat_sources(
    sources: Iterable[ArrivalSource], name: str | None = None
) -> ConcatSource:
    """Concatenate sources end to end (see :class:`ConcatSource`)."""
    return ConcatSource(list(sources), name=name)


def trace_file_digest(path: str | Path) -> str:
    """sha256 hex digest of a trace file's bytes (streamed)."""
    import hashlib

    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
