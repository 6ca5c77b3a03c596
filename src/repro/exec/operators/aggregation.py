"""Two-stage hash aggregation (paper Section 4.1), vectorized end-to-end.

``PartialAggOperator`` pre-aggregates per driver; its state is flushed
downstream whenever it grows past a limit (and on end pages), which is why
the paper classifies it as *stateless* — the state can be destroyed and
reconstructed, so stages containing it remain DOP-tunable.

``FinalAggOperator`` merges partial states; it is stateful and its stage
runs with parallelism fixed at 1.

Both operators keep their running state in :class:`_HashAggState`, which
stores one growable numpy array per state field (DESIGN.md §8).  Each
input page is reduced to one value per *group* with the ``grouped_*``
kernels, and those per-group arrays are merged into the state with fancy
indexing — python touches groups (once per distinct key per page), never
rows.
"""

from __future__ import annotations

import numpy as np

from ...config import CostModel
from ...errors import ExecutionError
from ...pages import ColumnType, DictColumn, Page, Schema
from ...pages.dictcolumn import concat_columns
from ...sql.compiler import compile_expressions
from ...sql.expressions import AggregateCall, BoundExpr
from ...sql.functions import (
    GroupKeyEncoder,
    group_codes,
    grouped_count,
    grouped_max,
    grouped_min,
    grouped_sum,
    partial_fields,
)
from ..spill import OperatorMemory, SpillPartitions
from .base import TransformOperator

#: Accounted bytes per string key cell in state accounting (a flat
#: estimate; part of the memory model, not of the representation).
_OBJECT_CELL_BYTES = 24
#: Estimated dict/bookkeeping overhead per aggregation slot.
_SLOT_OVERHEAD_BYTES = 64

#: Aggregate over zero rows (engine-wide convention; see reference.py).
def _empty_value(function: str, result_type: ColumnType):
    if function == "count":
        return 0
    if function == "sum":
        return 0 if result_type is ColumnType.INT64 else 0.0
    return float("nan")


def _state_width(agg: AggregateCall) -> int:
    arg_type = agg.arg.type if agg.arg is not None else None
    return len(partial_fields(agg.function, arg_type))


#: How a state field combines with an incoming per-group partial array.
_SUM, _MIN, _MAX = "sum", "min", "max"


def _field_specs(agg: AggregateCall) -> list[tuple[str, np.dtype]]:
    """(merge kind, storage dtype) per state field of one aggregate call."""
    arg_type = agg.arg.type if agg.arg is not None else None
    types = partial_fields(agg.function, arg_type)
    if agg.function in ("sum", "count", "avg"):
        kinds = [_SUM] * len(types)
    elif agg.function == "min":
        kinds = [_MIN]
    elif agg.function == "max":
        kinds = [_MAX]
    else:  # pragma: no cover - analyzer rejects unknown aggregates
        raise ExecutionError(f"unknown aggregate {agg.function}")
    return [(kind, t.numpy_dtype) for kind, t in zip(kinds, types)]


def _merge_identity(kind: str, dtype: np.dtype):
    """Value that merging leaves unchanged (fills newly-grown slots)."""
    if kind == _SUM:
        return 0
    if dtype == object:
        return None
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return info.max if kind == _MIN else info.min
    return np.inf if kind == _MIN else -np.inf


class _HashAggState:
    """Columnar aggregation state: key columns + one array per state field.

    Slot assignment (key tuple → dense slot id) is the only dict the
    state keeps; it is consulted once per distinct key per page, and all
    value merging happens on whole numpy arrays.
    """

    def __init__(self, aggregates: list[AggregateCall]):
        self.aggregates = aggregates
        self.widths = [_state_width(a) for a in aggregates]
        self.offsets: list[int] = []
        total = 0
        for w in self.widths:
            self.offsets.append(total)
            total += w
        self.state_width = total
        self.field_specs: list[tuple[str, np.dtype]] = []
        for agg in aggregates:
            self.field_specs.extend(_field_specs(agg))
        self._slots: dict[tuple, int] = {}
        self._capacity = 0
        self._fields: list[np.ndarray] = [
            np.zeros(0, dtype=dt) for _, dt in self.field_specs
        ]
        #: Key columns of newly-seen groups, appended in slot order.
        self._key_chunks: list[list[np.ndarray]] = []
        #: Incrementally maintained key-column byte estimate (avoids an
        #: O(#chunks) walk on every page when budgets are enabled).
        self._key_bytes = 0

    def __len__(self) -> int:
        return len(self._slots)

    def tracked_bytes(self) -> int:
        """Estimated resident size of the state (field arrays at their
        grown capacity, key chunks, and per-slot dict overhead)."""
        total = self._key_bytes + _SLOT_OVERHEAD_BYTES * len(self._slots)
        for arr in self._fields:
            total += arr.nbytes
        return total

    def _grow_to(self, n: int) -> None:
        if n <= self._capacity:
            return
        capacity = max(256, self._capacity * 2, n)
        for i, ((kind, dtype), arr) in enumerate(zip(self.field_specs, self._fields)):
            grown = np.full(capacity, _merge_identity(kind, dtype), dtype=dtype)
            grown[: len(arr)] = arr
            self._fields[i] = grown
        self._capacity = capacity

    def merge_groups(
        self,
        group_keys: list[tuple],
        key_columns: list[np.ndarray],
        field_values: list[np.ndarray],
    ) -> None:
        """Merge one page's per-group partials into the state.

        ``group_keys[g]`` / ``key_columns[c][g]`` identify page-local group
        ``g``; ``field_values[f][g]`` is its contribution to state field
        ``f``.  Page-local groups are distinct, so each slot is touched at
        most once and plain fancy indexing merges correctly.
        """
        slots = self._slots
        before = len(slots)
        ids = np.empty(len(group_keys), dtype=np.int64)
        for g, key in enumerate(group_keys):
            slot = slots.get(key)
            if slot is None:
                slot = len(slots)
                slots[key] = slot

            ids[g] = slot
        if len(slots) > before:
            new = ids >= before
            chunk = [col[new] for col in key_columns]
            self._key_chunks.append(chunk)
            for col in chunk:
                self._key_bytes += (
                    len(col) * _OBJECT_CELL_BYTES
                    if isinstance(col, DictColumn)
                    else col.nbytes
                )
            self._grow_to(len(slots))
        for arr, (kind, dtype), values in zip(
            self._fields, self.field_specs, field_values
        ):
            if kind == _SUM:
                arr[ids] += values
            elif dtype == object:
                # String min/max state holds one python value per group.
                values = values.decode()
                current = arr[ids]
                if kind == _MIN:
                    take = np.fromiter(
                        (c is None or v < c for c, v in zip(current, values)),
                        dtype=bool,
                        count=len(ids),
                    )
                else:
                    take = np.fromiter(
                        (c is None or v > c for c, v in zip(current, values)),
                        dtype=bool,
                        count=len(ids),
                    )
                current[take] = values[take]
                arr[ids] = current
            elif kind == _MIN:
                arr[ids] = np.minimum(arr[ids], values)
            else:
                arr[ids] = np.maximum(arr[ids], values)

    def drain_columns(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(key columns, state field columns) in slot order; resets state."""
        n = len(self._slots)
        if self._key_chunks and len(self._key_chunks[0]):
            ncols = len(self._key_chunks[0])
            keys = [
                concat_columns([chunk[c] for chunk in self._key_chunks])
                for c in range(ncols)
            ]
        else:
            keys = []
        fields = [arr[:n] for arr in self._fields]
        self._slots = {}
        self._capacity = 0
        self._fields = [np.zeros(0, dtype=dt) for _, dt in self.field_specs]
        self._key_chunks = []
        self._key_bytes = 0
        return keys, fields


def _aggregate_arg_evaluator(aggregates: list[AggregateCall]):
    """Build ``f(page) -> [values | None per aggregate]``.

    All argument expressions are compiled jointly, so common
    subexpressions shared between aggregates evaluate once per page.
    """
    args: list[BoundExpr | None] = [a.arg for a in aggregates]
    exprs = [a for a in args if a is not None]
    if not exprs:
        return lambda page: [None] * len(args)
    joint = compile_expressions(exprs)

    def eval_args(page: Page) -> list:
        values = iter(joint(page))
        return [None if a is None else next(values) for a in args]

    return eval_args


def _page_partials(
    state: _HashAggState,
    arg_values: list,
    codes: np.ndarray,
    ngroups: int,
) -> list[np.ndarray]:
    """Reduce one input page to per-group partial arrays (one per field)."""
    out: list[np.ndarray] = []
    for agg, values in zip(state.aggregates, arg_values):
        if agg.function == "count":
            out.append(grouped_count(codes, ngroups))
            continue
        if agg.function == "sum":
            out.append(grouped_sum(codes, values, ngroups))
        elif agg.function == "avg":
            out.append(
                grouped_sum(codes, values.astype(np.float64, copy=False), ngroups)
            )
            out.append(grouped_count(codes, ngroups))
        elif agg.function == "min":
            out.append(grouped_min(codes, values, ngroups))
        elif agg.function == "max":
            out.append(grouped_max(codes, values, ngroups))
        else:  # pragma: no cover - analyzer rejects unknown aggregates
            raise ExecutionError(f"unknown aggregate {agg.function}")
    return out


def _group_key_tuples(uniques: list[np.ndarray], ngroups: int) -> list[tuple]:
    if not uniques:
        return [()] * ngroups
    return list(zip(*[u.tolist() for u in uniques]))


class _GroupKeyFactorizer:
    """Per-operator ``group_codes`` wrapper for string group keys.

    String key columns are mapped to operator-lifetime integer codes by a
    :class:`GroupKeyEncoder` first, so the per-page factorization only
    ever sorts machine ints and groups are numbered in first-seen order
    across pages; the representative unique keys come back as columns
    over the page's own dictionary.
    """

    def __init__(self):
        self._encoders: dict[int, GroupKeyEncoder] = {}

    def factorize(
        self, key_cols: list[np.ndarray]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        encoded = list(key_cols)
        for j, col in enumerate(key_cols):
            if isinstance(col, DictColumn):
                encoder = self._encoders.get(j)
                if encoder is None:
                    encoder = self._encoders[j] = GroupKeyEncoder()
                encoded[j] = encoder.encode(col)
        codes, uniques = group_codes(encoded)
        for j in self._encoders:
            # Operator code -> a dictionary code of this page carrying it
            # (entries are distinct, so any row of the group will do).
            col = key_cols[j]
            entry_of = np.empty(len(self._encoders[j].values), dtype=np.int32)
            entry_of[encoded[j]] = col.codes
            uniques[j] = DictColumn(entry_of[uniques[j]], col.dictionary)
        return codes, uniques

    def page_groups(
        self, key_cols: list[np.ndarray], num_rows: int
    ) -> tuple[np.ndarray, list[np.ndarray], int]:
        """(row -> page-local group, unique key columns, group count);
        without keys every row falls in the one global group."""
        if not key_cols:
            return np.zeros(num_rows, dtype=np.int64), [], 1
        codes, uniques = self.factorize(key_cols)
        return codes, uniques, len(uniques[0])


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
        self._factorizer = _GroupKeyFactorizer()
        self._eval_args = _aggregate_arg_evaluator(aggregates)
        self.rows_in = 0
        self.memory = memory

    def process(self, page: Page) -> tuple[list[Page], float]:
        if page.is_end:
            pages = self._flush()
            cpu = self.cpu(sum(p.num_rows for p in pages), self.cost.partial_agg_row_cost)
            return pages + [page], cpu
        self.rows_in += page.num_rows
        cpu = self.cpu(page.num_rows, self.cost.partial_agg_row_cost)
        codes, uniques, ngroups = self._factorizer.page_groups(
            [page.columns[k] for k in self.group_keys], page.num_rows
        )
        partials = _page_partials(self.state, self._eval_args(page), codes, ngroups)
        self.state.merge_groups(
            _group_key_tuples(uniques, ngroups), uniques, partials
        )
        out: list[Page] = []
        # Partial state is destructible by design: memory pressure is
        # relieved by flushing downstream early, never by spilling.
        pressure = self.memory is not None and self.memory.report(
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
            self.memory.report(0)
        return Page(self.output_schema, key_cols + field_cols).split(self.row_limit)


class FinalAggOperator(TransformOperator):
    """Merges partial aggregation pages into final results (stateful).

    Under a memory budget the state spills on overflow: it is drained
    back to partial-page format and radix-partitioned on the group keys
    (DESIGN.md §13).  On the end page the spilled partitions are merged
    one at a time into a fresh state — every group lands in exactly one
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
        self._factorizer = _GroupKeyFactorizer()
        self.rows_in = 0
        self.memory = memory
        self.spill: SpillPartitions | None = None
        self._input_schema: Schema | None = None

    def process(self, page: Page) -> tuple[list[Page], float]:
        if page.is_end:
            if self.spill is not None:
                return self._grace_finalize(page)
            pages = self._final_pages_from_state(self.state)
            if self.memory is not None:
                self.memory.report(0)
            cpu = self.cpu(sum(p.num_rows for p in pages), self.cost.final_agg_row_cost)
            return pages + [page], cpu
        self.rows_in += page.num_rows
        cpu = self.cpu(page.num_rows, self.cost.final_agg_row_cost)
        if self._input_schema is None:
            self._input_schema = page.schema
        self._merge_partial_page(self.state, page)
        if self.memory is not None:
            if self.num_keys:
                if self.memory.update(self.state.tracked_bytes()):
                    cpu += self._spill_state()
            else:
                # Single-slot global state: nothing to partition on.
                self.memory.report(self.state.tracked_bytes())
        return [], cpu

    def _merge_partial_page(self, state: _HashAggState, page: Page) -> None:
        """Merge one partial-format page into ``state`` (pre-reducing the
        page's state columns per group first)."""
        k = self.num_keys
        codes, uniques, ngroups = self._factorizer.page_groups(
            list(page.columns[:k]), page.num_rows
        )
        field_values: list[np.ndarray] = []
        field = 0
        for kind, _ in state.field_specs:
            col = page.columns[k + field]
            if kind == _SUM:
                field_values.append(grouped_sum(codes, col, ngroups))
            elif kind == _MIN:
                field_values.append(grouped_min(codes, col, ngroups))
            else:
                field_values.append(grouped_max(codes, col, ngroups))
            field += 1
        state.merge_groups(
            _group_key_tuples(uniques, ngroups), uniques, field_values
        )

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
            query = memory.query
            self.spill = SpillPartitions(
                query.spill_directory(),
                memory.name,
                self._input_schema,
                list(range(self.num_keys)),
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
            state = _HashAggState(self.state.aggregates)
            rows = 0
            for pg in self.spill.read_pages(p):
                rows += pg.num_rows
                self._merge_partial_page(state, pg)
            memory.update(state.tracked_bytes())
            pages = self._final_pages_from_state(state)
            cpu += self.cpu(
                rows + sum(p2.num_rows for p2 in pages),
                self.cost.final_agg_row_cost,
            )
            out.extend(pages)
        memory.update(0)
        self.spill.delete()
        self.spill = None
        return out + [end_page], cpu

    def _final_pages_from_state(self, state: _HashAggState) -> list[Page]:
        if not len(state):
            if self.num_keys == 0:
                # Global aggregate over empty input still yields one row.
                row = tuple(
                    _empty_value(a.function, a.result_type)
                    for a in state.aggregates
                )
                return [Page.from_rows(self.output_schema, [row])]
            return []
        key_cols, field_cols = state.drain_columns()
        columns = list(key_cols)
        for ai, agg in enumerate(state.aggregates):
            offset = state.offsets[ai]
            if agg.function == "avg":
                totals = field_cols[offset]
                counts = field_cols[offset + 1]
                with np.errstate(divide="ignore", invalid="ignore"):
                    avg = totals / counts
                avg = np.where(counts == 0, np.nan, avg)
                columns.append(avg)
            else:
                columns.append(field_cols[offset])
        return Page(self.output_schema, columns).split(self.row_limit)
