"""Hash join: bridge (shared vectorized index), build sink, probe transform.

One :class:`JoinBridge` exists per task.  Build pipelines feed it through
:class:`JoinBuildSink`; once every build driver has finished, the bridge
finalises its index, records the build duration (the ``T_build`` measured
by the evaluation, Sections 5.2/6.3), and wakes the probe drivers that
were blocked on it.  Probe drivers share the read-only index.

The index is CSR-style and fully columnar (DESIGN.md §8): composite build
keys are factorized to dense int64 group codes, build rows are argsorted
by code, and the bridge stores ``(sorted_rows, group_starts, group
dictionaries)``.  Probing maps a whole page of probe keys onto build
group ids in one vectorized pass — ``searchsorted`` against the sorted
per-column uniques for numeric keys, one dict lookup per *dictionary
entry* (not per row) for string keys — then pairs matches: one gather
when no build key occurs twice (and none of the probe columns when every
row of the page matched), ``np.repeat`` and fancy indexing otherwise.
No per-row python loop survives on the numeric path.

Out-of-core mode (DESIGN.md §13): when the query's memory budget is
exceeded while the build side accumulates, the bridge switches to a
Grace-style radix plan — build pages go to spilled partitions instead of
the in-memory index, probe pages are partitioned the same way, and once
the probe input ends the partitions are joined pairwise, building one
in-memory :class:`_BuildIndex` per partition so peak memory stays near
``build_bytes / fanout`` instead of ``build_bytes``.  Oversized
partitions repartition recursively on the next radix digit, guarded by a
max depth and a strict-shrink check (a single pathological key cannot
recurse forever).  CROSS joins have no keys to partition on and never
spill.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from ...buffers.elastic import WaiterList
from ...config import CostModel
from ...errors import ExecutionError
from ...pages import DictColumn, MaskedColumn, Page, Schema, concat_pages
from ...pages.masked import split_nulls, valid_rows
from ...pages.dictcolumn import EntryLookup
from ...plan.logical import JoinType
from ...sql.compiler import compile_expression
from ...sql.expressions import BoundExpr
from ..memory import OperatorMemory
from .base import SinkOperator, TransformOperator

if TYPE_CHECKING:  # pragma: no cover
    from ..spill import SpillPartitions

_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max

#: Max recursive repartition depth; past it an oversized partition is
#: processed in memory anyway (fallback guard against key skew).
SPILL_MAX_DEPTH = 4


def _dense_int_lut(uniq: np.ndarray) -> tuple[np.ndarray, int] | None:
    """(table, base): ``table[value - base]`` is the column code of a
    densely packed int key, -1 for none.

    TPC-H join keys are near-dense integers, so a direct-address table
    beats a binary search per probe row.  Only built when the value range
    stays within 64x the distinct count (selective build filters leave
    sparse-ish key sets) and an absolute entry cap, bounding memory.  A -1
    sentinel pads each end, so a clipped ``take`` maps every key outside
    the span to -1 by itself.
    """
    if len(uniq) == 0 or uniq.dtype.kind not in "iu":
        return None
    base = int(uniq[0]) - 1
    if base < _INT64_MIN or int(uniq[-1]) > _INT64_MAX:
        return None  # a key or the low pad leaves int64
    span = int(uniq[-1]) - base + 2
    if span > 64 * len(uniq) + 4098 or span > (1 << 22) + 2:
        return None
    table = np.full(span, -1, dtype=np.int64)
    table[uniq.astype(np.int64) - base] = np.arange(len(uniq), dtype=np.int64)
    return table, base


class _BuildIndex:
    """CSR join index over one build-side page.

    Extracted from the bridge so the out-of-core path can build one small
    index per spilled partition; the in-memory path builds exactly one
    over the whole build side.
    """

    def __init__(self, build_page: Page, build_keys: list[int]):
        self.build_page = build_page
        self.num_groups = 0
        self.sorted_rows = np.zeros(0, dtype=np.int64)
        self.group_starts = np.zeros(1, dtype=np.int64)
        self.group_counts = np.zeros(0, dtype=np.int64)
        #: No key occurs twice (the PK side of a join): observed, not declared.
        self.unique = True
        self._col_uniques: list[np.ndarray] = []
        #: Per string key column: probe value -> build column code (-1
        #: for no match), looked up once per probe dictionary entry.
        self._col_lookups: list[EntryLookup | None] = []
        self._col_luts: list[tuple[np.ndarray, int] | None] = []
        self._radices: list[int] = []
        self._ucomb = np.zeros(0, dtype=np.int64)
        self._identity_comb = False
        self._fallback_table: dict[tuple, int] | None = None
        key_cols = [build_page.columns[k] for k in build_keys]
        valid = valid_rows(key_cols)
        if valid is not None:  # a NULL key matches nothing: leave its rows out
            self.build_page = build_page = build_page.mask(valid)
            key_cols = [build_page.columns[k] for k in build_keys]
        if key_cols and build_page.num_rows:
            codes = self._factorize(key_cols)
            order = np.argsort(codes, kind="stable")
            counts = np.bincount(codes, minlength=self.num_groups).astype(np.int64)
            starts = np.zeros(self.num_groups + 1, dtype=np.int64)
            np.cumsum(counts, out=starts[1:])
            self.sorted_rows = order.astype(np.int64, copy=False)
            self.group_starts = starts
            self.group_counts = counts
            self.unique = bool(counts.max() == 1)

    def _factorize(self, key_cols: list[np.ndarray]) -> np.ndarray:
        """Factorize build keys; returns a dense group code per build row."""
        per_col_codes: list[np.ndarray] = []
        for col in key_cols:
            lookup = None
            if isinstance(col, DictColumn):
                # Factorize the value ranks: same order as the values.
                ranks, dictionary = col.rank_codes()
                uniq, inv = np.unique(ranks, return_inverse=True)
                uniq = dictionary.values[dictionary.order[uniq]]
                code_of = {v: i for i, v in enumerate(uniq.tolist())}
                lookup = EntryLookup(
                    lambda values, _get=code_of.get: np.fromiter(
                        (_get(v, -1) for v in values),
                        dtype=np.int64,
                        count=len(values),
                    ),
                    unset=-2,
                )
            else:
                uniq, inv = np.unique(col, return_inverse=True)
            self._col_uniques.append(uniq)
            self._radices.append(max(1, len(uniq)))
            self._col_lookups.append(lookup)
            self._col_luts.append(_dense_int_lut(uniq))
            per_col_codes.append(inv.astype(np.int64))
        radix_product = 1
        for r in self._radices:
            radix_product *= r
        if radix_product <= _INT64_MAX:
            if len(per_col_codes) == 1:
                # Single key column: the per-column code IS the group id
                # (every code 0..r-1 occurs), so skip the combined unique.
                self._identity_comb = True
                self.num_groups = self._radices[0]
                return per_col_codes[0]
            combined = per_col_codes[0]
            for inv, r in zip(per_col_codes[1:], self._radices[1:]):
                combined = combined * r + inv
            self._ucomb, codes = np.unique(combined, return_inverse=True)
            codes = codes.astype(np.int64)
            self.num_groups = len(self._ucomb)
            return codes
        # Mixed-radix packing would overflow int64 (astronomically wide
        # composite keys): fall back to a per-distinct-key dict.
        table: dict[tuple, int] = {}
        codes = np.empty(len(key_cols[0]), dtype=np.int64)
        for i, key in enumerate(zip(*[c.tolist() for c in key_cols])):
            gid = table.get(key)
            if gid is None:
                gid = len(table)
                table[key] = gid
            codes[i] = gid
        self._fallback_table = table
        self.num_groups = len(table)
        return codes

    def probe_group_ids(self, key_cols: list[np.ndarray]) -> np.ndarray:
        """Map each probe row to its build group id, or -1 for no match
        (a NULL key's)."""
        for col in key_cols:
            if type(col) is MaskedColumn:
                gids = self.probe_group_ids([split_nulls(c)[0] for c in key_cols])
                return np.where(valid_rows(key_cols), gids, -1)
        n = len(key_cols[0]) if key_cols else 0
        if not n or self.num_groups == 0:
            return np.full(n, -1, dtype=np.int64)
        if self._fallback_table is not None:
            table = self._fallback_table
            return np.fromiter(
                (
                    table.get(key, -1)
                    for key in zip(*[c.tolist() for c in key_cols])
                ),
                dtype=np.int64,
                count=n,
            )
        gid = None
        for col, uniq, lookup, lut, radix in zip(
            key_cols,
            self._col_uniques,
            self._col_lookups,
            self._col_luts,
            self._radices,
        ):
            # Per column: its build code, -1 for a value the build lacks.
            if lookup is not None:
                code = lookup(col)
            elif lut is not None and col.dtype.kind in "iu":
                # Dense integer keys: one clipped gather; the padded table
                # holds -1 for in-span misses and at both ends.
                table, base = lut
                code = table.take(col.astype(np.int64, copy=False) - base, mode="clip")
            else:
                code = np.minimum(np.searchsorted(uniq, col), len(uniq) - 1)
                code = np.where(uniq[code] == col, code, -1)
            # Mixed-radix packing; a miss in any column stays negative
            # (``|`` keeps either sign bit).
            gid = code if gid is None else np.where(
                (gid | code) < 0, -1, gid * radix + code
            )
        if self._identity_comb:
            return gid
        pos = np.minimum(np.searchsorted(self._ucomb, gid), len(self._ucomb) - 1)
        return np.where(self._ucomb[pos] == gid, pos, -1)

    def expand_matches(
        self, gids: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """(probe_rows, build_rows) index pairs for all matches, in
        probe-row order with build rows ascending per probe;
        ``probe_rows`` is ``None`` for "every row of the page, once".

        A unique build (the PK side) pairs each matched probe row with
        one build row, so a page costs a gather — and nothing on the
        probe side when all of it matched; duplicate keys take the CSR
        expansion.
        """
        hit = gids >= 0
        if self.unique and hit.all():
            return None, self.sorted_rows[gids]
        matched = np.flatnonzero(hit)
        mgids = gids[matched]
        if self.unique:
            return matched, self.sorted_rows[mgids]
        repeats = self.group_counts[mgids]
        probe_rows = np.repeat(matched, repeats)
        ends = np.cumsum(repeats)
        within = np.arange(len(probe_rows)) - np.repeat(ends - repeats, repeats)
        build_rows = self.sorted_rows[np.repeat(self.group_starts[mgids], repeats) + within]
        return probe_rows, build_rows


class JoinBridge:
    """Shared build-side state of one task's hash join."""

    def __init__(
        self,
        kernel,
        build_schema: Schema,
        build_keys: list[int],
        name: str = "bridge",
        memory: OperatorMemory | None = None,
    ):
        self.kernel = kernel
        self.build_schema = build_schema
        self.build_keys = build_keys
        self.name = name
        self.memory = memory
        self.pages: list[Page] = []
        self.build_rows = 0
        self.ready = False
        self.on_ready = WaiterList()
        self._producers = 0
        self._finished_producers = 0
        self.created_at = kernel.now
        self.first_page_at: float | None = None
        self.ready_at: float | None = None
        #: Populated by _finalize() on the in-memory path; None when spilled.
        self.index: _BuildIndex | None = None
        # Out-of-core (Grace) state.
        self.spilled = False
        self.grace_done = False
        self.build_spill: SpillPartitions | None = None
        self.probe_spill: SpillPartitions | None = None
        self._tracked = 0
        self._spill_seq = itertools.count()

    # -- index delegation (stable surface for probe operators and tests) --
    @property
    def build_page(self) -> Page | None:
        return self.index.build_page if self.index is not None else None

    def probe_group_ids(self, key_cols: list[np.ndarray]) -> np.ndarray:
        return self.index.probe_group_ids(key_cols)

    # -- build side -------------------------------------------------------
    def register_producer(self) -> None:
        self._producers += 1

    def add_page(self, page: Page) -> float:
        """Accumulate one build page; returns the virtual spill-I/O cost
        incurred (0.0 while the build stays in memory)."""
        if self.ready:
            raise ExecutionError(f"{self.name}: build page after finalize")
        if self.first_page_at is None:
            self.first_page_at = self.kernel.now
        self.build_rows += page.num_rows
        if self.spilled:
            nbytes = self.build_spill.write_page(page)
            return self.memory.spill_written(
                nbytes, self.build_spill.partitions_written, "build"
            )
        self.pages.append(page)
        if self.memory is not None:
            self._tracked += page.size_bytes
            # CROSS joins have no keys to partition on: they stay in
            # memory even over budget (documented fallback).
            if self.memory.update(self._tracked) and self.build_keys:
                return self._enter_spill_mode()
        return 0.0

    def _enter_spill_mode(self) -> float:
        """Switch to the Grace plan: flush accumulated build pages to
        radix partitions and stop growing the in-memory build."""
        self.build_spill = self.memory.query.partitions(
            f"{self.name}.build", self.build_schema, self.build_keys
        )
        nbytes = 0
        for page in self.pages:
            nbytes += self.build_spill.write_page(page)
        self.pages = []
        self.spilled = True
        self._tracked = 0
        self.memory.update(0)
        return self.memory.spill_written(
            nbytes, self.build_spill.partitions_written, "build"
        )

    def producer_finished(self) -> None:
        self._finished_producers += 1
        if self._producers and self._finished_producers >= self._producers:
            self._finalize()

    def _finalize(self) -> None:
        if self.spilled:
            # Index construction is deferred to the probe side, one
            # partition at a time (HashJoinProbeOperator._grace_join).
            self.build_spill.finish()
        else:
            self.index = _BuildIndex(
                concat_pages(self.build_schema, self.pages), self.build_keys
            )
            self.pages = []
            if self.memory is not None:
                self._tracked = self.index.build_page.size_bytes
                self.memory.update(self._tracked)
        self.ready = True
        self.ready_at = self.kernel.now
        self.on_ready.notify_all()

    def release_spill(self) -> None:
        """Drop the spilled partition files (after the grace join ran)."""
        if self.build_spill is not None:
            self.build_spill.delete()
        if self.probe_spill is not None:
            self.probe_spill.delete()

    @property
    def build_seconds(self) -> float:
        """T_build for this task: first build page to hash-table-ready.

        Measures the reconstruction work itself (transfer + insert), not
        the wait for the upstream stage to start producing — matching the
        paper's red-line-to-yellow-line interval.
        """
        start = self.first_page_at if self.first_page_at is not None else self.created_at
        if self.ready_at is None:
            return self.kernel.now - start
        return self.ready_at - start


class JoinBuildSink(SinkOperator):
    name = "hash_join_build"

    def __init__(self, cost: CostModel, bridge: JoinBridge):
        super().__init__(cost, cost.join_build_row_cost)
        self.bridge = bridge
        bridge.register_producer()

    def deliver(self, pages: list[Page]) -> float:
        # The return carries the build-side spill-write cost, which the
        # driver drops: a known uncharged cost (ROADMAP, correctness item;
        # tests/test_spill.py has the strict xfail).
        rows = 0
        spill_cost = 0.0
        for page in pages:
            spill_cost += self.bridge.add_page(page)
            rows += page.num_rows
        return rows * self.cost.join_build_row_cost * self.cost.cpu_multiplier + spill_cost

    def driver_finished(self) -> None:
        self.bridge.producer_finished()


class HashJoinProbeOperator(TransformOperator):
    name = "hash_join_probe"

    def __init__(
        self,
        cost: CostModel,
        bridge: JoinBridge,
        join_type: JoinType,
        probe_keys: list[int],
        residual: BoundExpr | None,
        output_schema: Schema,
    ):
        super().__init__(cost)
        self.bridge = bridge
        self.join_type = join_type
        self.probe_keys = probe_keys
        self.residual = residual
        self._residual_evaluate = (
            compile_expression(residual) if residual is not None else None
        )
        self.output_schema = output_schema
        self.rows_probed = 0

    may_wait = True

    def waits_on(self) -> WaiterList | None:
        if not self.bridge.ready:
            return self.bridge.on_ready
        return None

    def process(self, page: Page) -> tuple[list[Page], float]:
        if page.is_end:
            bridge = self.bridge
            if bridge.spilled and not bridge.grace_done:
                # First probe driver to drain its input runs the grace
                # join.  Safe with multiple drivers: every earlier data
                # page was partitioned to disk synchronously within its
                # own quantum, and end pages always trail the data.
                bridge.grace_done = True
                pages, cost = self._grace_join()
                bridge.release_spill()
                return pages + [page], cost
            return [page], 0.0
        if not self.bridge.ready:
            raise ExecutionError("probe ran before hash table was ready")
        self.rows_probed += page.num_rows
        cpu = self.cpu(page.num_rows, self.cost.join_probe_row_cost)

        if self.bridge.spilled:
            return self._spill_probe_page(page, cpu)

        if self.join_type is JoinType.CROSS:
            return self._cross(page, cpu)

        pages, extra = self._probe_with(self.bridge.index, page)
        return pages, cpu + extra

    def _probe_with(
        self, index: _BuildIndex, page: Page
    ) -> tuple[list[Page], float]:
        """Probe one page against one index (whole build or one spilled
        partition); returns output pages and the match-expansion cost."""
        key_cols = [page.columns[k] for k in self.probe_keys]
        gids = index.probe_group_ids(key_cols)
        if self.join_type in (JoinType.SEMI, JoinType.ANTI):
            mask = (gids >= 0) == (self.join_type is JoinType.SEMI)
            if not mask.any():
                return [], 0.0
            return [page.mask(mask)], 0.0

        probe_rows, build_rows = index.expand_matches(gids)
        if len(build_rows) == 0:
            return [], 0.0
        cpu = self.cpu(len(build_rows), self.cost.join_probe_row_cost)
        out = self._combine(index.build_page, page, probe_rows, build_rows)
        if self._residual_evaluate is not None:
            mask = self._residual_evaluate(out).astype(bool, copy=False)
            if not mask.any():
                return [], cpu
            out = out.mask(mask)
        return [out], cpu

    def _combine(
        self,
        build_page: Page,
        page: Page,
        probe_rows: np.ndarray | None,
        build_rows: np.ndarray,
    ) -> Page:
        """Output page of the matched pairs; with ``probe_rows`` ``None``
        the probe page's columns pass through as they are (a column is
        immutable once a page holds it, DESIGN.md §10.1)."""
        columns = (
            list(page.columns)
            if probe_rows is None
            else [c[probe_rows] for c in page.columns]
        )
        columns += [c[build_rows] for c in build_page.columns]
        return Page(self.output_schema, columns)

    def _cross(self, page: Page, cpu: float) -> tuple[list[Page], float]:
        build_page = self.bridge.build_page
        nb = build_page.num_rows
        if nb == 0:
            return [], cpu
        probe_rows = np.repeat(np.arange(page.num_rows), nb)
        build_rows = np.tile(np.arange(nb), page.num_rows)
        cpu += self.cpu(len(probe_rows), self.cost.join_probe_row_cost)
        out = self._combine(build_page, page, probe_rows, build_rows)
        if self._residual_evaluate is not None:
            mask = self._residual_evaluate(out).astype(bool, copy=False)
            out = out.mask(mask)
        if out.num_rows == 0:
            return [], cpu
        return [out], cpu

    # -- out-of-core (Grace) probe path -----------------------------------
    def _spill_probe_page(
        self, page: Page, cpu: float
    ) -> tuple[list[Page], float]:
        """Route one probe page to the shared radix partitions on disk."""
        bridge = self.bridge
        if bridge.probe_spill is None:
            bridge.probe_spill = bridge.memory.query.partitions(
                f"{bridge.name}.probe", page.schema, self.probe_keys
            )
        nbytes = bridge.probe_spill.write_page(page)
        cpu += bridge.memory.spill_written(
            nbytes, bridge.probe_spill.partitions_written, "probe"
        )
        return [], cpu

    def _grace_join(self) -> tuple[list[Page], float]:
        """Join the spilled build/probe partitions pairwise."""
        bridge = self.bridge
        out: list[Page] = []
        if bridge.probe_spill is None:
            return out, 0.0  # probe side produced no rows at all
        bridge.probe_spill.finish()  # flush buffered writers before reading
        return out, self._join_pairs(
            bridge.build_spill, bridge.probe_spill, _INT64_MAX, 0, out, 0.0
        )

    def _join_pairs(
        self,
        build: SpillPartitions,
        probe: SpillPartitions,
        parent_bytes: int,
        level: int,
        out: list[Page],
        cost: float,
    ) -> float:
        """Join partition ``p`` of ``build`` with partition ``p`` of
        ``probe`` (both split on radix digit ``level``) for every ``p``.
        Takes the caller's running ``cost`` and adds to it term by term
        rather than returning a subtotal: float addition is not
        associative, and the virtual clock is pinned bit for bit."""
        memory = self.bridge.memory
        label = f"partition l{level}." if level else "partition "
        for p in range(probe.fanout):
            probe_bytes = probe.partition_bytes(p)
            if probe_bytes == 0:
                continue  # no probe rows → no output, even for ANTI
            build_bytes = build.partition_bytes(p)
            cost += memory.spill_read(build_bytes + probe_bytes, f"{label}{p}")
            cost += self._join_partition(
                list(build.read_pages(p)),
                probe.read_pages(p),
                build_bytes,
                parent_bytes,
                level,
                out,
            )
        return cost

    def _join_partition(
        self,
        build_pages: list[Page],
        probe_pages,
        build_bytes: int,
        parent_bytes: int,
        level: int,
        out: list[Page],
    ) -> float:
        """Join one partition pair in memory, or repartition it on the
        next radix digit when its build side still exceeds the budget.

        The strict-shrink guard (``build_bytes < parent_bytes``) together
        with the depth cap stops recursion on degenerate keys — a
        partition whose rows all share one key value lands in the same
        child partition at every level, so repartitioning it again would
        loop forever; such partitions fall back to an in-memory build.
        """
        bridge = self.bridge
        memory = bridge.memory
        budget = memory.query.budget_bytes
        cost = 0.0
        if (
            budget is not None
            and build_bytes > budget
            and level + 1 < SPILL_MAX_DEPTH
            and build_bytes < parent_bytes
        ):
            seq = next(bridge._spill_seq)
            sub_build = memory.query.partitions(
                f"{bridge.name}.g{seq}.build",
                bridge.build_schema,
                bridge.build_keys,
                level=level + 1,
            )
            written = 0
            for pg in build_pages:
                written += sub_build.write_page(pg)
            sub_build.finish()
            sub_probe = None
            for pg in probe_pages:
                if sub_probe is None:
                    sub_probe = memory.query.partitions(
                        f"{bridge.name}.g{seq}.probe",
                        pg.schema,
                        self.probe_keys,
                        level=level + 1,
                    )
                written += sub_probe.write_page(pg)
            if sub_probe is not None:
                sub_probe.finish()
            cost += memory.spill_written(
                written,
                sub_build.partitions_written
                + (sub_probe.partitions_written if sub_probe else 0),
                f"repartition l{level + 1}",
            )
            if sub_probe is not None:
                cost = self._join_pairs(
                    sub_build, sub_probe, build_bytes, level + 1, out, cost
                )
                sub_probe.delete()
            sub_build.delete()
            return cost

        build_page = concat_pages(bridge.build_schema, build_pages)
        index = _BuildIndex(build_page, bridge.build_keys)
        cost += self.cpu(build_page.num_rows, self.cost.join_build_row_cost)
        memory.update(bridge._tracked + build_page.size_bytes)
        for page in probe_pages:
            cost += self.cpu(page.num_rows, self.cost.join_probe_row_cost)
            pages, extra = self._probe_with(index, page)
            cost += extra
            out.extend(pages)
        memory.update(bridge._tracked)
        return cost
