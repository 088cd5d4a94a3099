"""Counters, gauges and histograms with a flat named registry.

The registry is deliberately small: metric names are plain dotted
strings (``vm.syscall_dispatches``, ``rosa.query_seconds``), instruments
are created on first use, and :meth:`MetricsRegistry.snapshot` renders
everything into one JSON-able dict.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Union


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that is set, not accumulated (e.g. peak frontier size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def set_max(self, value: Union[int, float]) -> None:
        """Keep the running maximum — handy for high-water marks."""
        if value > self.value:
            self.value = value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming aggregate of observations: count/sum/min/max/mean/stddev.

    Keeps Welford running moments rather than the raw samples, so a
    million observations cost the same as ten; percentile needs are
    served well enough by mean ± stddev for profile tables.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_mean", "_m2")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self._m2 / self.count) if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "stddev": self.stddev,
        }


class MetricsRegistry:
    """Named instruments, created on first use, snapshot in name order."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get(self, name: str, kind):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name)
            self._instruments[name] = instrument
            return instrument
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All instruments as ``{name: {"type": ..., ...}}``, name-sorted."""
        return {name: self._instruments[name].snapshot() for name in self.names()}
