"""Trace persistence: save/load traces as CSV or JSON.

Lets users replay their own production arrival logs through the simulator
(one timestamp per request), and ship reproducible trace files alongside
experiment results.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .source import read_arrivals, read_header
from .trace import Trace


def save_trace_csv(trace: Trace, path: str | Path) -> None:
    """Write one arrival timestamp per line, with a comment header."""
    p = Path(path)
    lines = [f"# trace={trace.name} duration={float(trace.duration)!r}"]
    lines.extend(repr(float(t)) for t in trace.arrivals)
    p.write_text("\n".join(lines) + "\n")


def load_trace_csv(path: str | Path, name: str | None = None,
                   duration: float | None = None) -> Trace:
    """Read a CSV trace written by :func:`save_trace_csv` (or any file with
    one timestamp per line; ``#`` lines are ignored)."""
    return _load(Path(path), False, name, duration)


def save_trace_jsonl(trace: Trace, path: str | Path) -> None:
    """Write one arrival per line as ``{"t": ...}`` after a meta header.

    The line-oriented sibling of :func:`save_trace_csv` for tooling that
    speaks JSONL; both formats replay chunked through
    :class:`~repro.workload.source.FileSource`.
    """
    with Path(path).open("w") as fh:
        fh.write(json.dumps({"name": trace.name,
                             "duration": float(trace.duration)}) + "\n")
        for t in trace.arrivals.tolist():
            fh.write(json.dumps({"t": t}) + "\n")


def load_trace_jsonl(path: str | Path, name: str | None = None,
                     duration: float | None = None) -> Trace:
    """Read a JSONL trace written by :func:`save_trace_jsonl` (arrivals
    are sorted, so unordered logs load too)."""
    return _load(Path(path), True, name, duration)


def _load(path: Path, jsonl: bool, name: str | None,
          duration: float | None) -> Trace:
    """Materialize a trace file with :class:`~repro.workload.source.
    FileSource`'s parser, sorting the arrivals."""
    header_name, header_duration = read_header(path, jsonl)
    arr = np.sort(np.fromiter(
        (t for _, t in read_arrivals(path, jsonl)), dtype=np.float64
    ))
    final_duration = duration or header_duration
    if final_duration is None:
        final_duration = float(arr[-1]) + 1e-9 if arr.size else 0.0
    return Trace(
        name=name or header_name or path.stem,
        arrivals=arr,
        duration=final_duration,
    )


def save_trace_json(trace: Trace, path: str | Path) -> None:
    """Write the trace as a self-describing JSON document."""
    Path(path).write_text(
        json.dumps(
            {
                "name": trace.name,
                "duration": trace.duration,
                "arrivals": trace.arrivals.tolist(),
            }
        )
    )


def load_trace_json(path: str | Path) -> Trace:
    """Read a JSON trace written by :func:`save_trace_json`."""
    data = json.loads(Path(path).read_text())
    return Trace(
        name=str(data["name"]),
        arrivals=np.asarray(data["arrivals"], dtype=float),
        duration=float(data["duration"]),
    )
