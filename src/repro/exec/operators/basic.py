"""Stateless transforms: filter, project, limit."""

from __future__ import annotations

import numpy as np

from ...config import CostModel
from ...pages import Page, Schema
from ...sql.compiler import compile_expression, compile_expressions
from ...sql.expressions import BoundExpr, InputRef
from .base import TransformOperator


def _referenced_positions(exprs) -> list[int]:
    """Input-column positions an expression list reads, ascending.

    Compiled closures touch nothing but ``page.columns[i]`` at these
    positions (plus ``page.num_rows``), so they are exactly the columns a
    worker-side stub page needs to evaluate the expressions remotely.
    """
    return sorted({
        node.index
        for expr in exprs
        for node in expr.walk()
        if isinstance(node, InputRef)
    })


class FilterOperator(TransformOperator):
    name = "filter"

    def __init__(
        self,
        cost: CostModel,
        predicate: BoundExpr,
        compiled: bool = True,
        offload=None,
    ):
        super().__init__(cost)
        self.predicate = predicate
        self._evaluate = (
            compile_expression(predicate) if compiled else predicate.evaluate
        )
        # Workers always evaluate the compiled form; interpreted mode is
        # a host-side debugging path (the compiler's bit-identity contract
        # with the interpreter makes this safe, but keep modes apart).
        self.offload = offload if compiled else None
        self._spec_id: int | None = None
        self._positions: list[int] | None = None
        self.rows_in = 0
        self.rows_out = 0

    def _offload_mask(self, page: Page) -> np.ndarray:
        if self._spec_id is None:
            self._positions = _referenced_positions([self.predicate])
            self._spec_id = self.offload.register_spec(
                {"kind": "filter", "expr": self.predicate}
            )
        return self.offload.filter_mask(
            self._spec_id,
            [page.columns[i] for i in self._positions],
            self._positions,
            page.num_rows,
        )

    def process(self, page: Page) -> tuple[list[Page], float]:
        if page.is_end:
            self.finished = True
            return [page], 0.0
        self.rows_in += page.num_rows
        if self.offload is not None and self.offload.want(page.num_rows):
            mask = self._offload_mask(page)
        else:
            mask = self._evaluate(page).astype(bool, copy=False)
        cpu = self.cpu(page.num_rows, self.cost.filter_row_cost)
        if not mask.any():
            return [], cpu
        out = page.mask(mask) if not mask.all() else page
        self.rows_out += out.num_rows
        return [out], cpu


class ProjectOperator(TransformOperator):
    name = "project"

    def __init__(
        self,
        cost: CostModel,
        exprs: list[BoundExpr],
        schema: Schema,
        compiled: bool = True,
        offload=None,
    ):
        super().__init__(cost)
        self.exprs = exprs
        self.schema = schema
        if compiled:
            # Joint compilation: subexpressions shared between projection
            # columns are computed once per page.
            self._evaluate = compile_expressions(exprs)
        else:
            self._evaluate = lambda page: [e.evaluate(page) for e in exprs]
        self.offload = offload if compiled else None
        self._spec_id: int | None = None
        self._positions: list[int] | None = None

    def _offload_columns(self, page: Page) -> list[np.ndarray]:
        if self._spec_id is None:
            self._positions = _referenced_positions(self.exprs)
            self._spec_id = self.offload.register_spec(
                {"kind": "project", "exprs": tuple(self.exprs)}
            )
        return self.offload.project_columns(
            self._spec_id,
            [page.columns[i] for i in self._positions],
            self._positions,
            page.num_rows,
        )

    def process(self, page: Page) -> tuple[list[Page], float]:
        if page.is_end:
            self.finished = True
            return [page], 0.0
        if self.offload is not None and self.offload.want(page.num_rows):
            columns = self._offload_columns(page)
        else:
            columns = self._evaluate(page)
        cpu = self.cpu(page.num_rows * max(1, len(self.exprs)), self.cost.project_row_cost)
        return [Page(self.schema, columns)], cpu


class LimitOperator(TransformOperator):
    """Stops the pipeline early once ``count`` rows have passed.

    ``partial`` limits run in upstream stages (each task passes at most
    ``count`` rows); the final limit runs in stage 0.
    """

    name = "limit"

    def __init__(self, cost: CostModel, count: int, partial: bool = False):
        super().__init__(cost)
        self.count = count
        self.partial = partial
        self.remaining = count

    def process(self, page: Page) -> tuple[list[Page], float]:
        if page.is_end:
            self.finished = True
            return [page], 0.0
        if self.remaining <= 0:
            self.done_early = True
            return [], 0.0
        out = page
        if page.num_rows > self.remaining:
            out = page.slice(0, self.remaining)
        self.remaining -= out.num_rows
        if self.remaining <= 0:
            self.done_early = True
        cpu = self.cpu(out.num_rows, self.cost.project_row_cost)
        return [out], cpu
