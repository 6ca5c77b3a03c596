"""Simple time series over virtual time."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TimeSeries:
    """(time, value) samples, appended in time order."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> float | None:
        return self.values[-1] if self.values else None

    def deltas(self) -> "TimeSeries":
        """Per-interval differences (cumulative counter -> rate * dt)."""
        out = TimeSeries(f"{self.name}.delta")
        for i in range(1, len(self.times)):
            out.append(self.times[i], self.values[i] - self.values[i - 1])
        return out

    def rates(self) -> "TimeSeries":
        """Per-interval rates (cumulative counter -> value/sec)."""
        out = TimeSeries(f"{self.name}.rate")
        for i in range(1, len(self.times)):
            dt = self.times[i] - self.times[i - 1]
            if dt <= 0:
                continue
            out.append(self.times[i], (self.values[i] - self.values[i - 1]) / dt)
        return out

    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    def max(self) -> float:
        return max(self.values) if self.values else 0.0
