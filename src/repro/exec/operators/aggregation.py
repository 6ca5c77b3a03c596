"""Two-stage hash aggregation (paper Section 4.1), vectorized end-to-end.

``PartialAggOperator`` pre-aggregates per driver; its state is flushed
downstream whenever it grows past a limit (and on end pages), which is why
the paper classifies it as *stateless* — the state can be destroyed and
reconstructed, so stages containing it remain DOP-tunable.

``FinalAggOperator`` merges partial states; it is stateful and its stage
runs with parallelism fixed at 1.

Both operators keep their running state in :class:`_HashAggState`, which
stores one growable numpy array per state field and owns the one step
that takes a page's rows to state slots (DESIGN.md §8): through a table
indexed by the packed key codes while it stays within its bound, through
a dict of packed codes once it does not, through page-local groups and a
dict of key tuples for keys that do not pack.  Python never touches
rows, and on the table path not even groups.
"""

from __future__ import annotations

import math
import operator
from itertools import compress, repeat
from typing import TYPE_CHECKING

import numpy as np

from ...config import CostModel
from ...pages import DictColumn, MaskedColumn, Page, Schema
from ...pages.masked import concat_columns, map_values, split_nulls, with_nulls
from ...sql.compiler import compile_expressions
from ...sql.expressions import AggregateCall, CaseWhen, Constant, IsNull
from ...sql.functions import (
    GroupKeyEncoder,
    group_codes,
    grouped_count,
    grouped_max,
    grouped_min,
    grouped_sum,
    max_identity,
    min_identity,
    partial_fields,
)
from ..memory import OperatorMemory
from .base import TransformOperator

if TYPE_CHECKING:  # pragma: no cover
    from ..spill import SpillPartitions

#: Accounted bytes per string key cell in state accounting (a flat
#: estimate; part of the memory model, not of the representation).
_OBJECT_CELL_BYTES = 24
#: Estimated dict/bookkeeping overhead per aggregation slot.
_SLOT_OVERHEAD_BYTES = 64
#: The slot table may span this many int64 cells per group held (the
#: bytes a slot is accounted anyway), plus this many per row of the page
#: that widens it, plus a floor (8 KiB).  A hash partition's first page
#: spreads its keys over the whole key range (Q18's 4,096 ``l_orderkey``
#: over 75,000 at SF0.05); a page of a few rows gets a few cells.
_CELLS_PER_GROUP, _CELLS_PER_ROW, _TABLE_FLOOR = 8, 24, 1024
#: A table-path page merges into the window of slots between its lowest
#: and its highest while that spans fewer slots than this per page row
#: plus a floor (a pass over the window costs less than numbering the
#: page's groups); into its own groups' slots otherwise.
_WINDOW_PER_ROW, _WINDOW_FLOOR = 32, 4096
#: New groups are read back from the table window their codes span while
#: it is this narrow per new row plus a floor (``group_codes``' own
#: bincount-or-sort rule), sorted otherwise.
_SCAN_PER_ROW, _SCAN_FLOOR = 4, 1024
_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max
#: ``arr.min()`` / ``arr.max()`` without numpy's Python-level wrappers
#: (called several times on every page).
_LOWEST, _HIGHEST = np.minimum.reduce, np.maximum.reduce

#: How a state field combines with an incoming per-group partial array.
_SUM, _MIN, _MAX = np.add, np.minimum, np.maximum


def _field_specs(agg: AggregateCall) -> list[tuple[np.ufunc, np.dtype]]:
    """(merge kind, storage dtype) per state field of one aggregate call
    (a count of non-NULL values, the second field, is summed)."""
    arg_type = agg.arg.type if agg.arg is not None else None
    kind = {"min": _MIN, "max": _MAX}.get(agg.function, _SUM)
    fields = partial_fields(agg.function, arg_type, agg.skips_nulls)
    return [(kind if i == 0 else _SUM, t.numpy_dtype) for i, t in enumerate(fields)]


def _merge_identity(kind: np.ufunc, dtype: np.dtype):
    """Value that merging leaves unchanged (fills newly-grown slots)."""
    if kind is _SUM:
        return 0
    if dtype == object:
        return None
    return min_identity(dtype) if kind is _MIN else max_identity(dtype)


def _hashable_keys(columns: list) -> list:
    """One dict key per row of ``columns``: the value itself for a
    single column, the tuple of values otherwise."""
    values = [col.tolist() for col in columns]
    return values[0] if len(values) == 1 else list(zip(*values))


def _packed(values: list, lows: list[int], radices: list[int], num_rows: int):
    """Mixed-radix ``int64`` code per row of the key ``values`` columns
    (first column most significant), each digit ``value - low``."""
    packed = None
    for digit, low, radix in zip(values, lows, radices):
        if low:
            digit = digit - low
        packed = digit if packed is None else packed * radix + digit
    return np.zeros(num_rows, dtype=np.int64) if packed is None else packed


def _groups_of(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct values ascending, group per row, one row of each group)
    of an ``int64`` column."""
    codes, (groups,) = group_codes([values])
    first = np.empty(len(groups), dtype=np.int64)
    first[codes] = np.arange(len(codes))
    return groups, codes, first


def _reduce(kind: np.ufunc, dtype: np.dtype, codes: np.ndarray, values, ngroups: int):
    """One page column reduced to one value per group (``None``: count rows)."""
    if values is None:
        return grouped_count(codes, ngroups)
    if kind is _SUM:
        return grouped_sum(codes, values.astype(dtype, copy=False), ngroups)
    return (grouped_min if kind is _MIN else grouped_max)(codes, values, ngroups)


class _HashAggState:
    """Columnar aggregation state: key columns + one array per state field.

    :meth:`accumulate` is rows → slots → state.  While every key column
    encodes to an operator-lifetime integer — a string through its
    :class:`GroupKeyEncoder`, an integer as ``value - low`` — rows pack
    mixed-radix into one ``int64`` code per row.  The codes index
    ``_table`` (packed code → slot, -1 unseen) while it stays within its
    bound, so a page costs gathers only, and key ``_slots`` (packed code
    → slot) once it does not.  Keys that do not pack (a float, or a
    product of ranges past ``int64``) are factorized per page and key
    ``_slots`` by tuple for the rest of the operator's life.  Every way,
    a page's new groups get slots in ascending encoded-key order, so
    every regime emits the same rows in the same order.
    """

    def __init__(self, aggregates: list[AggregateCall]):
        self.aggregates = aggregates
        self.offsets: list[int] = []
        self.field_specs: list[tuple[np.ufunc, np.dtype]] = []
        for agg in aggregates:
            self.offsets.append(len(self.field_specs))
            self.field_specs.extend(_field_specs(agg))
        self._count = 0
        self._capacity = 0
        self._fields: list[np.ndarray] = [
            np.zeros(0, dtype=dt) for _, dt in self.field_specs
        ]
        #: Key columns of newly-seen groups, appended in slot order.
        self._key_chunks: list[list[np.ndarray]] = []
        #: Incrementally maintained key-column byte estimate (avoids an
        #: O(#chunks) walk on every page when budgets are enabled).
        self._key_bytes = 0
        #: String key column -> its operator-lifetime code assignment.
        self._encoders: dict[int, GroupKeyEncoder] = {}
        #: Packing: per key column the subtracted low value and the radix
        #: (``_radices`` is ``None`` once the keys stopped packing);
        #: ``_table`` is ``None`` once the codes moved to ``_slots``.
        self._lows: list[int] = []
        self._radices: list[int] | None = []
        self._table: np.ndarray | None = np.zeros(0, dtype=np.int64)
        self._slots: dict = {}

    def __len__(self) -> int:
        return self._count

    def tracked_bytes(self) -> int:
        """Estimated resident size of the state (field arrays at their
        grown capacity, key chunks, and per-slot dict overhead)."""
        total = self._key_bytes + _SLOT_OVERHEAD_BYTES * self._count
        for arr in self._fields:
            total += arr.nbytes
        return total

    def _add_groups(self, key_columns: list[np.ndarray]) -> None:
        """Append new groups (one row of ``key_columns`` each) as the
        next slots."""
        self._key_chunks.append(key_columns)
        for col in key_columns:
            self._key_bytes += (
                len(col) * (_OBJECT_CELL_BYTES if col.dtype == object else col.dtype.itemsize)
            )
        if self._count > self._capacity:
            capacity = max(256, self._capacity * 2, self._count)
            for i, ((kind, dtype), arr) in enumerate(
                zip(self.field_specs, self._fields)
            ):
                grown = np.full(capacity, _merge_identity(kind, dtype), dtype=dtype)
                grown[: len(arr)] = arr
                self._fields[i] = grown
            self._capacity = capacity

    def accumulate(
        self, key_cols: list[np.ndarray], num_rows: int, inputs: list
    ) -> None:
        """Add one page: ``key_cols[c][r]`` is row ``r``'s group key and
        ``inputs[f][r]`` its contribution to state field ``f`` (``None``
        counts the row)."""
        if not num_rows:
            return
        if not key_cols:
            # Global aggregate: every row falls in the one group.
            if not self._count:
                self._count = 1
                self._add_groups([])
            return self._merge(np.zeros(num_rows, dtype=np.int64), 1, slice(0, 1), inputs)
        packed = None if self._radices is None else self._pack(key_cols, num_rows)
        if packed is None:
            codes, keys, uniques = self._factorize(key_cols)
            self._merge(codes, len(keys), self._dict_slots(keys, uniques), inputs)
        elif self._table is None:
            groups, codes, first = _groups_of(packed)
            uniques = [col[first] for col in key_cols]
            self._merge(codes, len(groups), self._dict_slots(groups.tolist(), uniques), inputs)
        else:
            slots = self._table_slots(packed, key_cols)
            if self._count <= num_rows + _WINDOW_FLOOR:
                # The whole state is a window already: no min/max to take.
                return self._merge(slots, self._count, slice(0, self._count), inputs)
            low, high = int(_LOWEST(slots)), int(_HIGHEST(slots))
            if high - low < _WINDOW_PER_ROW * num_rows + _WINDOW_FLOOR:
                self._merge(slots - low, high - low + 1, slice(low, high + 1), inputs)
            else:
                target, codes, _ = _groups_of(slots)
                self._merge(codes, len(target), target, inputs)

    def _key_columns(self) -> list[np.ndarray]:
        """The key columns of the groups held, in slot order."""
        chunks = self._key_chunks
        return [
            concat_columns([chunk[c] for chunk in chunks])
            for c in range(len(chunks[0]) if chunks else 0)
        ]

    def _encode(self, j: int, col: DictColumn) -> np.ndarray:
        """String key column ``j`` as operator-lifetime ``int64`` codes
        (its NULLs kept)."""
        encoder = self._encoders.get(j)
        if encoder is None:
            encoder = self._encoders[j] = GroupKeyEncoder()
        if type(col) is MaskedColumn:
            return MaskedColumn(encoder.encode(col.values), col.valid)
        return encoder.encode(col)

    # -- rows -> packed codes ---------------------------------------------
    def _pack(self, key_cols: list[np.ndarray], num_rows: int):
        """Packed code per row, the packing grown to cover the page first;
        ``None`` (for good) once the keys stop packing (a NULL key too)."""
        digits, ranges = [], []
        for j, col in enumerate(key_cols):
            if isinstance(col, DictColumn):
                digits.append(self._encode(j, col))
                ranges.append((0, len(self._encoders[j].values) - 1))
            elif col.dtype.kind == "i" and type(col) is not MaskedColumn:
                digits.append(col)
                ranges.append((int(_LOWEST(col)), int(_HIGHEST(col))))
            else:
                return self._stop_packing()
        if not self._grow(ranges, num_rows):
            return self._stop_packing()
        return _packed(digits, self._lows, self._radices, num_rows)

    def _grow(self, ranges: list[tuple[int, int]], num_rows: int) -> bool:
        """Cover the inclusive ``ranges`` (one per key column), unless the
        packing does already, and re-address the groups held.  A column
        that escaped its range takes the union, widened by its old width
        on each side it escaped by, so re-addressing amortises; the exact
        union with the keys held (not with the widened packing) is the
        fallback when that outgrows a bound.  The table is
        kept while it fits ``_CELLS_PER_GROUP`` cells per group held
        plus ``_CELLS_PER_ROW`` per page row plus ``_TABLE_FLOOR``.
        False when not even ``int64`` holds the codes."""
        if self._radices and all(
            low <= lo and hi < low + radix
            for (lo, hi), low, radix in zip(ranges, self._lows, self._radices)
        ):
            return True
        itself = [(lo, hi - lo + 1) for lo, hi in ranges]  # what the first page covers
        covered = zip(self._lows, self._radices) if self._radices else itself
        held = [(_LOWEST(v), _HIGHEST(v)) for v in self._held()[0]] if self._count else ranges
        exact, grown = [], []
        for (lo, hi), (low, radix), (least, most) in zip(ranges, covered, held):
            top = low + radix - 1
            exact.append((min(lo, int(least)), max(hi, int(most))))
            lo = max(lo - radix, _INT64_MIN) if lo < low else low
            grown.append((lo, min(hi + radix, _INT64_MAX) if hi > top else top))
        bound = _CELLS_PER_GROUP * self._count + _CELLS_PER_ROW * num_rows + _TABLE_FLOOR
        for limit in (bound, _INT64_MAX) if self._table is not None else (_INT64_MAX,):
            for candidate in (grown, exact):
                radices = [hi - lo + 1 for lo, hi in candidate]
                if math.prod(radices) <= limit:
                    self._readdress([lo for lo, _ in candidate], radices, limit == bound)
                    return True
        return False

    def _held(self) -> tuple[list[np.ndarray], np.ndarray]:
        """(per key column the encoded key values, the slots) of every
        group held, unpacked from the current packing."""
        if self._table is not None:
            codes = np.flatnonzero(self._table >= 0)
            slots = self._table[codes]
        else:
            codes = np.fromiter(self._slots, dtype=np.int64, count=len(self._slots))
            slots = np.fromiter(self._slots.values(), dtype=np.int64, count=len(codes))
        values = []
        for low, radix in zip(reversed(self._lows), reversed(self._radices)):
            codes, digit = np.divmod(codes, radix)
            values.append(digit + low)
        return values[::-1], slots

    def _readdress(self, lows: list[int], radices: list[int], table: bool) -> None:
        """Move the groups held to the packing ``lows`` / ``radices``, in
        a table or in ``_slots``."""
        values, slots = self._held()
        codes = _packed(values, lows, radices, len(slots))
        if table:
            self._table = np.full(math.prod(radices), -1, dtype=np.int64)
            self._table[codes] = slots
        else:
            self._slots = dict(zip(codes.tolist(), slots.tolist()))
            self._table = None
        self._lows, self._radices = lows, radices

    def _stop_packing(self) -> None:
        """One way, at most once per operator: from here on the
        page-local path keyed by tuples, starting from the groups held."""
        values, slots = self._held()
        self._slots = dict(zip(_hashable_keys(values), slots.tolist()))
        self._radices = self._table = None

    # -- packed codes -> slots: the table path --------------------------------
    def _table_slots(self, packed: np.ndarray, key_cols: list[np.ndarray]) -> np.ndarray:
        """Slot per row, new groups assigned in ascending packed order: the
        table's cells of unseen codes are marked and read back in order
        from the window between the lowest and the highest while that is
        narrow (the table is already the bitmap ``group_codes`` would
        build), sorted otherwise.  A key's rows all carry one encoded key,
        so any of them supplies the key chunk."""
        table = self._table
        slots = table.take(packed)
        if _LOWEST(slots) < 0:
            rows = np.flatnonzero(slots < 0)
            unseen = packed[rows]
            low, high = int(_LOWEST(unseen)), int(_HIGHEST(unseen))
            if high - low < _SCAN_PER_ROW * len(rows) + _SCAN_FLOOR:
                table[unseen] = -2
                unseen = np.flatnonzero(table[low : high + 1] == -2) + low
            else:
                unseen = _groups_of(unseen)[0]
            table[unseen] = np.arange(self._count, self._count + len(unseen))
            slots = table.take(packed)
            first = np.empty(len(unseen), dtype=np.int64)
            first[slots[rows] - self._count] = rows
            self._count += len(unseen)
            self._add_groups([col[first] for col in key_cols])
        return slots

    # -- rows -> slots: the page-local paths ----------------------------------
    def _factorize(self, key_cols: list[np.ndarray]) -> tuple[np.ndarray, list, list]:
        """``group_codes`` over operator-lifetime codes for string keys:
        (codes, one dict key per page group, the groups' key columns over
        the page's own dictionaries)."""
        encoded = [
            self._encode(j, col) if col.dtype == object else col
            for j, col in enumerate(key_cols)
        ]
        codes, uniques = group_codes(encoded)
        keys = _hashable_keys(uniques)
        for j in self._encoders:
            # Operator code -> a dictionary code of this page carrying it
            # (entries are distinct, so any row of the group will do).
            col, operator_codes = split_nulls(key_cols[j])[0], split_nulls(encoded[j])[0]
            entry_of = np.zeros(len(self._encoders[j].values), dtype=np.int32)
            entry_of[operator_codes] = col.codes
            uniques[j] = map_values(lambda u, c=col: DictColumn(entry_of[u], c.dictionary), uniques[j])
        return codes, keys, uniques

    def _dict_slots(self, keys: list, uniques: list[np.ndarray]) -> np.ndarray:
        """Slot per page group (``keys`` distinct and ascending, so fancy
        indexing merges correctly and new groups are assigned in key
        order).  Python sees the page's groups as one list; the dict is
        probed and extended from C."""
        slots = self._slots
        ids = np.fromiter(
            map(slots.get, keys, repeat(-1)), dtype=np.int64, count=len(keys)
        )
        new = ids < 0
        count = self._count + int(np.count_nonzero(new))
        if count > self._count:
            ids[new] = np.arange(self._count, count)
            slots.update(zip(compress(keys, new.tolist()), range(self._count, count)))
            self._count = count
            self._add_groups([col[new] for col in uniques])
        return ids

    # -- slots -> state -----------------------------------------------------
    def _merge(self, codes: np.ndarray, ngroups: int, target, inputs: list) -> None:
        """Reduce each field's input per group — once per distinct
        (kind, input column), in row order — and combine it into the
        state: ``codes[r]`` is row ``r``'s group, ``target`` the groups'
        slots (a window of slots as a slice, combined in place)."""
        reduced: dict[tuple, np.ndarray] = {}
        for arr, (kind, dtype), values in zip(self._fields, self.field_specs, inputs):
            if dtype == object:
                self._merge_strings(arr, kind, codes, target, values)
                continue
            key = (kind, dtype, id(values))
            partial = reduced.get(key)
            if partial is None:
                partial = reduced[key] = _reduce(kind, dtype, codes, values, ngroups)
            if isinstance(target, slice):
                view = arr[target]
                kind(view, partial, out=view)
            else:
                arr[target] = kind(arr[target], partial)

    @staticmethod
    def _merge_strings(arr, kind: np.ufunc, codes, target, values: DictColumn) -> None:
        """String min/max state holds one python value per group; a
        group the page does not touch (or touches only with NULLs) has no
        string to offer, so slots are first narrowed to the ones present."""
        values, valid = split_nulls(values)
        if valid is not None:
            codes, values = codes[valid], values[valid]
        present, codes = np.unique(codes, return_inverse=True)
        target = present + target.start if isinstance(target, slice) else target[present]
        reduce, wins = (
            (grouped_min, operator.lt) if kind is _MIN else (grouped_max, operator.gt)
        )
        values = reduce(codes, values, len(target)).decode()
        current = arr[target]
        take = np.fromiter(
            (c is None or wins(v, c) for c, v in zip(current, values)),
            dtype=bool,
            count=len(target),
        )
        current[take] = values[take]
        arr[target] = current

    def drain_columns(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(key columns, state field columns) in slot order; resets state."""
        keys = self._key_columns()
        fields = [arr[: self._count] for arr in self._fields]
        self._count = 0
        self._capacity = 0
        self._fields = [np.zeros(0, dtype=dt) for _, dt in self.field_specs]
        self._key_chunks = []
        self._key_bytes = 0
        if self._table is None:
            self._slots = {}
        else:  # the table's memory goes; the next page packs afresh
            self._lows, self._radices, self._table = [], [], np.zeros(0, dtype=np.int64)
        return keys, fields


def _value_input(agg: AggregateCall):
    """What a call's value field reads: its argument, a NULL of which
    reads as the merge's identity (a string, with none, keeps its mask
    for :meth:`_HashAggState._merge_strings`)."""
    arg = agg.arg
    identity = _merge_identity(*_field_specs(agg)[0]) if agg.skips_nulls else None
    if identity is None:
        return arg
    return CaseWhen(((IsNull(arg, negated=True), arg),), Constant(identity, arg.type), arg.type)


def _field_input_evaluator(aggregates: list[AggregateCall]):
    """Build ``f(page) -> [input column | None per state field]``
    (``None``: the field counts rows).

    All argument expressions are compiled jointly, so common
    subexpressions shared between aggregates evaluate once per page, and
    one expression feeding several fields (``sum(x)``, ``avg(x)``) is one
    column, reduced once.  An argument that can be NULL is skipped: its
    value field reads :func:`_value_input`, its count field sums
    ``x IS NOT NULL``.
    """
    position: dict = {}
    picks: list[int | None] = []
    for agg in aggregates:
        if agg.function != "count":
            picks.append(position.setdefault(_value_input(agg), len(position)))
        if agg.skips_nulls:
            counted = IsNull(agg.arg, negated=True)
            picks.append(position.setdefault(counted, len(position)))
        elif agg.function in ("count", "avg"):
            picks.append(None)
    if not position:
        return lambda page: picks
    joint = compile_expressions(list(position))

    def field_inputs(page: Page) -> list:
        values = joint(page)
        return [None if p is None else values[p] for p in picks]

    return field_inputs


class PartialAggOperator(TransformOperator):
    name = "partial_aggregation"

    def __init__(
        self,
        cost: CostModel,
        group_keys: list[int],
        aggregates: list[AggregateCall],
        output_schema: Schema,
        row_limit: int = 4096,
        group_limit: int = 100_000,
        memory: OperatorMemory | None = None,
    ):
        super().__init__(cost)
        self.group_keys = group_keys
        self.output_schema = output_schema
        self.row_limit = row_limit
        self.group_limit = group_limit
        self.state = _HashAggState(aggregates)
        self._field_inputs = _field_input_evaluator(aggregates)
        self.memory = memory

    def process(self, page: Page) -> tuple[list[Page], float]:
        if page.is_end:
            pages = self._flush()
            cpu = self.cpu(sum(p.num_rows for p in pages), self.cost.partial_agg_row_cost)
            return pages + [page], cpu
        cpu = self.cpu(page.num_rows, self.cost.partial_agg_row_cost)
        self.state.accumulate(
            [page.columns[k] for k in self.group_keys],
            page.num_rows,
            self._field_inputs(page),
        )
        out: list[Page] = []
        # Partial state is destructible by design: memory pressure is
        # relieved by flushing downstream early, never by spilling.
        pressure = self.memory is not None and self.memory.update(
            self.state.tracked_bytes()
        )
        if len(self.state) > self.group_limit or pressure:
            out = self._flush()
            cpu += self.cpu(sum(p.num_rows for p in out), self.cost.partial_agg_row_cost)
        return out, cpu

    def _flush(self) -> list[Page]:
        if not len(self.state):
            return []
        key_cols, field_cols = self.state.drain_columns()
        if self.memory is not None:
            self.memory.update(0)
        return Page(self.output_schema, key_cols + field_cols).split(self.row_limit)


class FinalAggOperator(TransformOperator):
    """Merges partial aggregation pages into final results (stateful).

    Under a memory budget the state spills on overflow: it is drained
    back to partial-page format and radix-partitioned on the group keys
    (DESIGN.md §13).  On the end page the spilled partitions are merged
    one at a time into the emptied state — every group lands in exactly one
    partition, so partition results concatenate into the final output and
    peak memory is bounded by the largest partition's state.  Global
    aggregates (``num_keys == 0``) keep a single-slot state and never
    spill.
    """

    name = "final_aggregation"

    def __init__(
        self,
        cost: CostModel,
        num_keys: int,
        aggregates: list[AggregateCall],
        output_schema: Schema,
        row_limit: int = 4096,
        memory: OperatorMemory | None = None,
    ):
        super().__init__(cost)
        self.num_keys = num_keys
        self.output_schema = output_schema
        self.row_limit = row_limit
        self.state = _HashAggState(aggregates)
        self.memory = memory
        self.spill: SpillPartitions | None = None
        self._input_schema: Schema | None = None

    def process(self, page: Page) -> tuple[list[Page], float]:
        if page.is_end:
            if self.spill is not None:
                return self._grace_finalize(page)
            pages = self._final_pages()
            if self.memory is not None:
                self.memory.update(0)
            cpu = self.cpu(sum(p.num_rows for p in pages), self.cost.final_agg_row_cost)
            return pages + [page], cpu
        cpu = self.cpu(page.num_rows, self.cost.final_agg_row_cost)
        if self._input_schema is None:
            self._input_schema = page.schema
        self._merge_partial_page(page)
        # A single-slot global state (no keys) has nothing to partition on.
        if (
            self.memory is not None
            and self.memory.update(self.state.tracked_bytes())
            and self.num_keys
        ):
            cpu += self._spill_state()
        return [], cpu

    def _merge_partial_page(self, page: Page) -> None:
        """Merge one partial-format page (key columns, then one column
        per state field) into the state."""
        k = self.num_keys
        self.state.accumulate(list(page.columns[:k]), page.num_rows, page.columns[k:])

    # -- out-of-core path (DESIGN.md §13) ---------------------------------
    def _state_pages(self) -> list[Page]:
        """Drain the state back into partial-format pages (spill format:
        the operator's own input format, so merging a spilled page reuses
        the ordinary merge path)."""
        key_cols, field_cols = self.state.drain_columns()
        return Page(self._input_schema, key_cols + field_cols).split(self.row_limit)

    def _spill_state(self) -> float:
        """Spill the current state to the radix partitions; returns the
        virtual I/O cost."""
        memory = self.memory
        if self.spill is None:
            self.spill = memory.query.partitions(
                memory.name, self._input_schema, list(range(self.num_keys))
            )
        nbytes = 0
        for pg in self._state_pages():
            nbytes += self.spill.write_page(pg)
        memory.update(self.state.tracked_bytes())
        return memory.spill_written(nbytes, self.spill.partitions_written, "state")

    def _grace_finalize(self, end_page: Page) -> tuple[list[Page], float]:
        """End of input with spilled state: merge partition-at-a-time."""
        cpu = 0.0
        if len(self.state):
            cpu += self._spill_state()
        self.spill.finish()
        memory = self.memory
        out: list[Page] = []
        for p in range(self.spill.fanout):
            nbytes = self.spill.partition_bytes(p)
            if nbytes == 0:
                continue
            cpu += memory.spill_read(nbytes, f"partition {p}")
            # The state is empty here (spilled above, drained per
            # partition below) and keeps its operator-lifetime key codes.
            rows = 0
            for pg in self.spill.read_pages(p):
                rows += pg.num_rows
                self._merge_partial_page(pg)
            memory.update(self.state.tracked_bytes())
            pages = self._final_pages()
            cpu += self.cpu(
                rows + sum(p2.num_rows for p2 in pages),
                self.cost.final_agg_row_cost,
            )
            out.extend(pages)
        memory.update(0)
        self.spill.delete()
        self.spill = None
        return out + [end_page], cpu

    def _final_pages(self) -> list[Page]:
        """Drain the state into output-format pages."""
        state = self.state
        if not len(state):
            if self.num_keys == 0:
                # A global aggregate over no rows still yields one row:
                # count 0, every other call NULL.
                row = tuple(0 if a.function == "count" else None for a in state.aggregates)
                return [Page.from_rows(self.output_schema, [row])]
            return []
        key_cols, field_cols = state.drain_columns()
        columns = list(key_cols)
        for agg, offset in zip(state.aggregates, state.offsets):
            column = field_cols[offset]
            if agg.function == "avg":
                with np.errstate(divide="ignore", invalid="ignore"):
                    column = column / field_cols[offset + 1]
            if agg.skips_nulls and agg.function != "count" and column.dtype != object:
                # No non-NULL value: NULL (a string state holds None already).
                column = with_nulls(column, field_cols[offset + 1] > 0)
            columns.append(column)
        return Page(self.output_schema, columns).split(self.row_limit)
