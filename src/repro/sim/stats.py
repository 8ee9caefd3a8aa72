"""Metric collection for simulation runs.

Experiments record three kinds of metrics:

* :class:`Counter` — monotonically increasing totals (messages sent, token
  rounds completed, faults injected).
* :class:`Histogram` — distributions of per-sample values (propagation delay
  of a membership change, hop counts, query latencies).
* :class:`TimeSeries` — (time, value) samples for quantities that evolve over
  a run (membership size, number of partitions).

A :class:`MetricRegistry` groups them under string names so benchmark
harnesses can dump everything at the end of a run.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple


class Counter:
    """A monotonically non-decreasing integer counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot be decremented (amount={amount})")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name!r}, value={self._value})"


class Histogram:
    """A collection of scalar samples with summary statistics."""

    __slots__ = ("name", "_samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        self._samples.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        self._samples.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Tuple[float, ...]:
        return tuple(self._samples)

    def mean(self) -> float:
        if not self._samples:
            return float("nan")
        # numpy loads here, not at module level: a live shard imports this
        # module and never summarises a histogram.
        import numpy as np

        return float(np.mean(self._samples))

    def std(self) -> float:
        if not self._samples:
            return float("nan")
        import numpy as np

        return float(np.std(self._samples))

    def min(self) -> float:
        return float(min(self._samples)) if self._samples else float("nan")

    def max(self) -> float:
        return float(max(self._samples)) if self._samples else float("nan")

    def percentile(self, q: float) -> float:
        """q-th percentile (q in [0, 100])."""
        if not self._samples:
            return float("nan")
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        import numpy as np

        return float(np.percentile(self._samples, q))

    def summary(self) -> Dict[str, float]:
        """Summary dictionary used by the benchmark report printers."""
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "std": self.std(),
            "min": self.min(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max(),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean():.3f})"


class TimeSeries:
    """(time, value) samples for a quantity observed over a run."""

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time series {self.name!r} must be recorded in time order "
                f"(last={self._times[-1]}, new={time})"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    @property
    def times(self) -> Tuple[float, ...]:
        return tuple(self._times)

    @property
    def values(self) -> Tuple[float, ...]:
        return tuple(self._values)

    def last(self) -> float:
        if not self._values:
            raise ValueError(f"time series {self.name!r} has no samples")
        return self._values[-1]

    def value_at(self, time: float) -> float:
        """Value of the most recent sample at or before ``time`` (step function)."""
        if not self._times:
            raise ValueError(f"time series {self.name!r} has no samples")
        idx = bisect.bisect_right(self._times, time) - 1
        if idx < 0:
            raise ValueError(f"no sample at or before time {time} in {self.name!r}")
        return self._values[idx]

    def __len__(self) -> int:
        return len(self._times)


@dataclass
class MetricRegistry:
    """Named collection of counters, histograms and time series."""

    counters: Dict[str, Counter] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    series: Dict[str, TimeSeries] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        return self.histograms[name]

    def timeseries(self, name: str) -> TimeSeries:
        if name not in self.series:
            self.series[name] = TimeSeries(name)
        return self.series[name]

    def snapshot(self) -> Dict[str, object]:
        """Flat dictionary of every metric, for report printing."""
        out: Dict[str, object] = {}
        for name, counter in sorted(self.counters.items()):
            out[f"counter.{name}"] = counter.value
        for name, hist in sorted(self.histograms.items()):
            out[f"histogram.{name}"] = hist.summary()
        for name, series in sorted(self.series.items()):
            out[f"timeseries.{name}"] = {
                "samples": len(series),
                "last": series.last() if len(series) else None,
            }
        return out

    def merge_counters(self, other: Mapping[str, int]) -> None:
        """Add raw counter values (used when aggregating Monte-Carlo trials)."""
        for name, value in other.items():
            self.counter(name).increment(int(value))


@dataclass(frozen=True)
class RunRecord:
    """Flat, serialisable summary of one simulation run.

    The scenario-matrix runner emits one record per cell; the table renderers
    in :mod:`repro.analysis.tables` and the benchmark harness consume them
    without needing the live :class:`MetricRegistry` objects.
    """

    name: str
    params: Dict[str, object] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    values: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_registry(
        cls,
        name: str,
        registry: "MetricRegistry",
        params: Mapping[str, object] = (),
        values: Mapping[str, float] = (),
    ) -> "RunRecord":
        return cls(
            name=name,
            params=dict(params),
            counters={n: c.value for n, c in sorted(registry.counters.items())},
            values={k: float(v) for k, v in dict(values).items()},
        )

    def counter(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def value(self, name: str, default: float = 0.0) -> float:
        return self.values.get(name, default)

    def to_json(self) -> Dict[str, object]:
        """JSON-ready dictionary (stable key order)."""
        return {
            "name": self.name,
            "params": dict(sorted(self.params.items())),
            "values": dict(sorted(self.values.items())),
            "counters": dict(sorted(self.counters.items())),
        }
