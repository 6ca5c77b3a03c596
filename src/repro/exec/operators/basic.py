"""Stateless transforms: filter, project, limit."""

from __future__ import annotations

from ...config import CostModel
from ...pages import Page, Schema
from ...sql.compiler import compile_expression, compile_expressions
from ...sql.expressions import BoundExpr
from .base import TransformOperator


class FilterOperator(TransformOperator):
    name = "filter"

    def __init__(self, cost: CostModel, predicate: BoundExpr):
        super().__init__(cost)
        self.predicate = predicate
        self._evaluate = compile_expression(predicate)
        self.rows_out = 0

    def process(self, page: Page) -> tuple[list[Page], float]:
        if page.is_end:
            return [page], 0.0
        mask = self._evaluate(page).astype(bool, copy=False)
        cpu = self.cpu(page.num_rows, self.cost.filter_row_cost)
        if not mask.any():
            return [], cpu
        out = page.mask(mask) if not mask.all() else page
        self.rows_out += out.num_rows
        return [out], cpu


class ProjectOperator(TransformOperator):
    name = "project"

    def __init__(self, cost: CostModel, exprs: list[BoundExpr], schema: Schema):
        super().__init__(cost)
        self.exprs = exprs
        self.schema = schema
        # Joint compilation: subexpressions shared between projection
        # columns are computed once per page.
        self._evaluate = compile_expressions(exprs)

    def process(self, page: Page) -> tuple[list[Page], float]:
        if page.is_end:
            return [page], 0.0
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
