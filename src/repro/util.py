"""Small shared utilities (date <-> epoch-day conversion, formatting,
the bounded memo every text-keyed cache uses, the ring of retired
queries every engine-wide per-query table keeps).

TPC-H date columns are stored as int64 days since 1970-01-01 so that all
date arithmetic stays vectorized; these helpers convert at the boundaries
(SQL literals, CSV I/O, result rendering).
"""

from __future__ import annotations

import datetime as _dt
from collections import deque

_EPOCH = _dt.date(1970, 1, 1)


def date_to_days(value: str | _dt.date) -> int:
    """Convert ``YYYY-MM-DD`` (or a date object) to days since the epoch."""
    if isinstance(value, str):
        value = _dt.date.fromisoformat(value)
    return (value - _EPOCH).days


def days_to_date(days: int) -> _dt.date:
    """Inverse of :func:`date_to_days`."""
    return _EPOCH + _dt.timedelta(days=int(days))


def days_to_str(days: int) -> str:
    return days_to_date(days).isoformat()


def add_months(days: int, months: int) -> int:
    """Add calendar months to an epoch-day value (SQL ``INTERVAL n MONTH``)."""
    date = days_to_date(days)
    month_index = date.year * 12 + (date.month - 1) + months
    year, month = divmod(month_index, 12)
    month += 1
    # Clamp the day-of-month like standard SQL interval arithmetic.
    day = min(date.day, _days_in_month(year, month))
    return date_to_days(_dt.date(year, month, day))


def add_years(days: int, years: int) -> int:
    return add_months(days, 12 * years)


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        nxt = _dt.date(year + 1, 1, 1)
    else:
        nxt = _dt.date(year, month + 1, 1)
    return (nxt - _dt.date(year, month, 1)).days


def year_of_days(days: int) -> int:
    """EXTRACT(YEAR FROM date) for an epoch-day value."""
    return days_to_date(days).year


def format_bytes(nbytes: float) -> str:
    """Human-readable byte counts for reports (e.g. Table 1)."""
    units = ["B", "KB", "MB", "GB", "TB"]
    value = float(nbytes)
    for unit in units:
        if value < 1024 or unit == units[-1]:
            if unit == "B":
                return f"{value:.0f}{unit}"
            return f"{value:.2f}{unit}"
        value /= 1024
    raise AssertionError("unreachable")


class LruMemo(dict):
    """A memo of at most ``limit`` entries that evicts its least recently
    used one: :meth:`get` makes a hit the most recent, and :meth:`put`
    past the limit drops the oldest (dict order is recency order)."""

    __slots__ = ("limit",)

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def get(self, key):
        value = self.pop(key, None)
        if value is not None:
            self[key] = value
        return value

    def put(self, key, value) -> None:
        self.pop(key, None)
        while len(self) >= self.limit:
            del self[next(iter(self))]
        self[key] = value


#: Retired queries the engine-wide per-query table keeps, newest last
#: (DESIGN.md §17): ``coordinator.queries`` holds every live query and
#: these.  At least 256: the benchmark slices
#: ``coordinator.queries`` by position once per window, and one process
#: at the benchmark's run length starts at most ~220 executions, so none
#: may leave before it is read (``tests/test_retirement.py`` checks it).
RETAINED_QUERIES = 256


class RetiredRing:
    """The retired entries of an insertion-ordered ``table``: each one
    swaps in its record in place, and past :data:`RETAINED_QUERIES` the
    oldest retired entry leaves the table, and its key every table of
    ``also`` (what else is kept per query under the same key).
    ``dropped`` counts the entries that left."""

    def __init__(self, table: dict, *also: dict):
        self.table = table
        self.also = also
        self.dropped = 0
        self._keys: deque = deque()

    def retire(self, key, record) -> None:
        self.table[key] = record
        self._keys.append(key)
        if len(self._keys) > RETAINED_QUERIES:
            oldest = self._keys.popleft()
            del self.table[oldest]
            for table in self.also:
                table.pop(oldest, None)
            self.dropped += 1
