"""Arrival traces.

A :class:`Trace` is the arrival source held in memory: an ordered array
of client send timestamps.  The paper replays three real-world
request-rate traces (Wikipedia, Twitter, Azure Functions); we ship
synthetic generators matched to their published shape statistics (see
:mod:`repro.workload.generators`) plus the machinery to inspect and
replay any trace.  Transforms (thinning, bursts, slicing, concat,
splice) are the :class:`~repro.workload.source.ArrivalSource` ones and
compose lazily on top of the array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .source import CHUNK, ArrivalSource


@dataclass(frozen=True)
class Trace(ArrivalSource):
    """Ordered request send-times (seconds from run start), held in memory.

    Validated on construction: a 1-D, finite, ascending array inside
    ``[0, duration]``.
    """

    name: str
    arrivals: np.ndarray  # float64, sorted ascending
    duration: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.arrivals, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("arrivals must be a 1-D array")
        if self.duration < 0:
            raise ValueError("trace duration must be >= 0")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("arrivals must be finite")
        if arr.size and (np.any(np.diff(arr) < 0)):
            raise ValueError("arrivals must be sorted ascending")
        if arr.size and (arr[0] < 0 or arr[-1] > self.duration):
            raise ValueError("arrivals must fall within [0, duration]")
        object.__setattr__(self, "arrivals", arr)

    def __len__(self) -> int:
        return int(self.arrivals.size)

    def __iter__(self) -> Iterator[float]:
        # One list conversion beats the chunked generator per arrival.
        return iter(self.arrivals.tolist())

    def chunks(self) -> Iterator[np.ndarray]:
        arrivals = self.arrivals
        for lo in range(0, arrivals.size, CHUNK):
            yield arrivals[lo:lo + CHUNK]

    def count(self) -> int:
        """Total arrivals — the array size, no counting pass."""
        return int(self.arrivals.size)

    def rate_series(self, window: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """(window start times, requests/second) histogram of the trace."""
        if window <= 0:
            raise ValueError("window must be > 0")
        edges = np.arange(0.0, self.duration + window, window)
        counts, _ = np.histogram(self.arrivals, bins=edges)
        return edges[:-1], counts / window

    def rate_cv(self, window: float = 1.0) -> float:
        """Coefficient of variation of the windowed rate (burstiness).

        The paper characterises its traces by this statistic: wiki ~0.47,
        tweet ~1.0, azure ~1.3.
        """
        _, rates = self.rate_series(window)
        mean = rates.mean()
        if mean == 0:
            return 0.0
        return float(rates.std() / mean)
