"""Expression compiler: bound expression trees -> cached vectorized closures.

Interpreting a tree (:meth:`BoundExpr.evaluate`) re-walks it for every
page: each node re-dispatches on its operator string, constants
re-materialise ``np.full`` arrays, and common subexpressions (Q1's
``l_extendedprice * (1 - l_discount)`` appears inside the charge
expression too) are recomputed.  Operators instead compile their
expressions **once** into a closure over the page.  What the compiler
owns is structure — what to fold, what to share, which kinds have a fast
path:

* **Constant pre-folding** — any subtree without an :class:`InputRef` is
  evaluated once at compile time to a dtype-typed numpy scalar.  Under
  NEP 50 a typed scalar promotes exactly like an array of that dtype, so
  ``col <= np.int64(10471)`` is bit-identical to the interpreter's
  ``col <= np.full(n, 10471, np.int64)`` without the per-page allocation.
* **Common-subexpression sharing** — structurally equal subtrees (frozen
  dataclasses hash/compare by value) are computed once per page through a
  memo slot; a list of expressions (projection lists, aggregate argument
  lists) is compiled jointly so sharing crosses expression boundaries.
* **Hot kinds by hand** — :class:`InputRef`, :class:`Arithmetic`,
  :class:`Comparison`, :class:`BoolAnd` and :class:`BoolOr` (the measured
  ones: every TPC-H filter and aggregate argument) get a closure with
  operator dispatch and scalar operands resolved at compile time.
* **Every other kind by one rule** — the node's *own* ``evaluate`` runs
  over its compiled children (:meth:`_Compiler._build_generic`), so a
  kind's semantics are written once, in ``sql/expressions.py``; folding
  and sharing still apply below it, and CASE branches stay lazy.  A node
  that can yield NULL (``BoundExpr.nullable``) always takes this rule, so
  NULL semantics live only there and a hot closure never meets a mask.

Compiled evaluators are cached globally, keyed by the (hashable)
expression trees themselves, so respawned drivers and repeated queries
reuse them.  The contract is **bit-identity with the interpreter**, which
stays the reference (the oracle in ``repro.reference`` interprets): the
property test in ``tests/test_expression_compiler.py`` pits both against
each other on randomized trees and pages.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Sequence

import numpy as np

from ..errors import ExecutionError
from ..pages import ColumnType, DictColumn, Page
from ..util import LruMemo
from .expressions import (
    COMPARISON_FNS,
    Arithmetic,
    BoolAnd,
    BoolOr,
    BoundExpr,
    Comparison,
    InputRef,
)

__all__ = ["compile_expression", "compile_expressions", "clear_compile_cache"]

_ARITH_FNS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "%": np.mod,
}


class _OneRowPage:
    """Stand-in page for compile-time evaluation of constant subtrees
    (no :class:`InputRef` reaches ``columns``)."""

    num_rows = 1
    columns = ()


_ONE_ROW = _OneRowPage()


def _fold(expr: BoundExpr):
    """Evaluate a constant subtree once via the *interpreter* and return
    the single value — a numpy scalar carrying the interpreter's result
    dtype (or a plain python string for string columns), so downstream
    ufuncs see exactly the operand the interpreter would give them."""
    return expr.evaluate(_ONE_ROW)[0]


def _const_array_fn(value, ctype: ColumnType):
    """Array form of a folded constant (semantics of Constant.evaluate)."""
    if ctype is ColumnType.STRING:
        return lambda page, memo: DictColumn.constant(value, page.num_rows)
    dtype = ctype.numpy_dtype

    def fill(page: Page, memo) -> np.ndarray:
        return np.full(page.num_rows, value, dtype=dtype)

    return fill


class _ChildPage:
    """Stand-in page the generic rule hands to a node's own ``evaluate``:
    ``columns[i]`` computes compiled child ``i`` on demand, so a CASE
    branch no row takes is never evaluated."""

    __slots__ = ("_fns", "_page", "_memo", "num_rows")

    def __init__(self, fns: list, page: Page, memo):
        self._fns = fns
        self._page = page
        self._memo = memo
        self.num_rows = page.num_rows

    @property
    def columns(self) -> "_ChildPage":
        return self

    def __getitem__(self, index: int):
        return self._fns[index](self._page, self._memo)


class _Compiler:
    """Single-use compiler over one expression (or one joint list)."""

    def __init__(self, exprs: Sequence[BoundExpr]):
        self.counts: Counter = Counter()
        for expr in exprs:
            self.counts.update(expr.walk())
        self.slots = 0
        self._built: dict[BoundExpr, tuple] = {}

    # -- node dispatch ---------------------------------------------------
    def build(self, expr: BoundExpr) -> tuple:
        """Compile ``expr`` to ``("const", scalar, type)`` or
        ``("fn", f)`` where ``f(page, memo) -> np.ndarray``."""
        hit = self._built.get(expr)
        if hit is not None:
            return hit
        out = self._build(expr)
        if (
            out[0] == "fn"
            and self.counts[expr] > 1
            and not isinstance(expr, InputRef)
        ):
            # Shared subtree: evaluate once per page through a memo slot.
            slot = self.slots
            self.slots += 1
            inner = out[1]

            def shared(page: Page, memo, _slot=slot, _inner=inner):
                value = memo[_slot]
                if value is None:
                    value = _inner(page, memo)
                    memo[_slot] = value
                return value

            out = ("fn", shared)
        self._built[expr] = out
        return out

    def array_fn(self, expr: BoundExpr) -> Callable:
        """Compiled form that always yields an array (constants fill)."""
        kind, *rest = self.build(expr)
        if kind == "const":
            value, ctype = rest
            return _const_array_fn(value, ctype)
        return rest[0]

    def _build(self, expr: BoundExpr) -> tuple:
        # Constant pre-folding: no InputRef below means the value is fixed.
        if not expr.nullable and not any(isinstance(node, InputRef) for node in expr.walk()):
            try:
                return ("const", _fold(expr), expr.type)
            except Exception:
                # Folding raised (e.g. integer division by zero): keep the
                # interpreter's behaviour of raising only when a data page
                # actually flows through the operator.
                return ("fn", lambda page, memo, _e=expr: _e.evaluate(page))
        if expr.nullable and not isinstance(expr, InputRef):
            return self._build_generic(expr)
        builder = getattr(
            self, f"_build_{type(expr).__name__.lower()}", self._build_generic
        )
        return builder(expr)

    def _build_generic(self, expr: BoundExpr) -> tuple:
        """Any kind without a hand-written closure below: a copy of the
        node whose children are positional refs, evaluated by the node's
        own ``evaluate`` against a page that computes compiled child
        ``i`` when ``columns[i]`` is read."""
        fns: list[Callable] = []

        def positional(child: BoundExpr) -> InputRef:
            fns.append(self.array_fn(child))
            return InputRef(len(fns) - 1, child.type, nullable=child.nullable)

        shell = expr.rebuild(positional)
        return (
            "fn",
            lambda page, memo: shell.evaluate(_ChildPage(fns, page, memo)),
        )

    # -- leaves ----------------------------------------------------------
    def _build_inputref(self, expr: InputRef) -> tuple:
        index = expr.index
        return ("fn", lambda page, memo: page.columns[index])

    # -- scalar-capable binary nodes ------------------------------------
    def _operand(self, expr: BoundExpr):
        """Scalar (folded) or array compiled form for ufunc operands."""
        kind, *rest = self.build(expr)
        if kind == "const":
            return rest[0], None
        return None, rest[0]

    def _build_arithmetic(self, expr: Arithmetic) -> tuple:
        if expr.op == "||":
            left = self.array_fn(expr.left)
            right = self.array_fn(expr.right)

            def concat(page: Page, memo) -> DictColumn:
                lhs = left(page, memo)
                rhs = right(page, memo)
                return DictColumn.from_values(
                    f"{a}{b}" for a, b in zip(lhs.tolist(), rhs.tolist())
                )

            return ("fn", concat)
        fn = _ARITH_FNS.get(expr.op)
        if fn is None:
            raise ExecutionError(f"unsupported arithmetic operator {expr.op}")
        lconst, lfn = self._operand(expr.left)
        rconst, rfn = self._operand(expr.right)
        dtype = expr.type.numpy_dtype
        if expr.op == "/" and expr.type is ColumnType.FLOAT64:
            if lfn is None:
                lconst = lconst.astype(np.float64)

                def divide_const(page: Page, memo) -> np.ndarray:
                    return fn(lconst, rfn(page, memo)).astype(dtype, copy=False)

                return ("fn", divide_const)

            def divide(page: Page, memo) -> np.ndarray:
                lhs = lfn(page, memo).astype(np.float64, copy=False)
                rhs = rconst if rfn is None else rfn(page, memo)
                return fn(lhs, rhs).astype(dtype, copy=False)

            return ("fn", divide)
        if lfn is None:

            def arith_lconst(page: Page, memo) -> np.ndarray:
                return fn(lconst, rfn(page, memo)).astype(dtype, copy=False)

            return ("fn", arith_lconst)
        if rfn is None:

            def arith_rconst(page: Page, memo) -> np.ndarray:
                return fn(lfn(page, memo), rconst).astype(dtype, copy=False)

            return ("fn", arith_rconst)

        def arith(page: Page, memo) -> np.ndarray:
            return fn(lfn(page, memo), rfn(page, memo)).astype(dtype, copy=False)

        return ("fn", arith)

    def _build_comparison(self, expr: Comparison) -> tuple:
        fn = COMPARISON_FNS.get(expr.op)
        if fn is None:
            raise ExecutionError(f"unsupported comparison {expr.op}")
        # String operands need no branch: a DictColumn compares against a
        # constant once per dictionary entry (from either side — python
        # reflects ``const < col`` to ``col > const``).
        lconst, lfn = self._operand(expr.left)
        rconst, rfn = self._operand(expr.right)
        if lfn is None:

            def compare_lconst(page: Page, memo) -> np.ndarray:
                return fn(lconst, rfn(page, memo))

            return ("fn", compare_lconst)
        if rfn is None:

            def compare_rconst(page: Page, memo) -> np.ndarray:
                return fn(lfn(page, memo), rconst)

            return ("fn", compare_rconst)

        def compare(page: Page, memo) -> np.ndarray:
            return fn(lfn(page, memo), rfn(page, memo))

        return ("fn", compare)

    # -- boolean connectives ---------------------------------------------
    def _build_booland(self, expr: BoolAnd) -> tuple:
        terms = [self.array_fn(t) for t in expr.terms]

        def conjunction(page: Page, memo) -> np.ndarray:
            result = terms[0](page, memo).astype(bool, copy=True)
            for term in terms[1:]:
                result &= term(page, memo).astype(bool, copy=False)
            return result

        return ("fn", conjunction)

    def _build_boolor(self, expr: BoolOr) -> tuple:
        terms = [self.array_fn(t) for t in expr.terms]

        def disjunction(page: Page, memo) -> np.ndarray:
            result = terms[0](page, memo).astype(bool, copy=True)
            for term in terms[1:]:
                result |= term(page, memo).astype(bool, copy=False)
            return result

        return ("fn", disjunction)


#: Global compile caches; expression trees are frozen/hashable, so they
#: key their own compiled closures.  Bounded, least recently used out
#: first: the working set is the handful of expressions in the active
#: query mix (the plan cache's size), and fresh literals pass through.
_CACHE_LIMIT = 64
_EXPR_CACHE: LruMemo = LruMemo(_CACHE_LIMIT)
_LIST_CACHE: LruMemo = LruMemo(_CACHE_LIMIT)


def clear_compile_cache() -> None:
    _EXPR_CACHE.clear()
    _LIST_CACHE.clear()


def compile_expression(expr: BoundExpr) -> Callable[[Page], np.ndarray]:
    """Compile one expression into ``f(page) -> np.ndarray``."""
    cached = _EXPR_CACHE.get(expr)
    if cached is not None:
        return cached
    compiler = _Compiler((expr,))
    root = compiler.array_fn(expr)
    slots = compiler.slots
    if slots == 0:
        evaluator = lambda page, _f=root: _f(page, None)  # noqa: E731
    else:
        def evaluator(page: Page, _f=root, _slots=slots) -> np.ndarray:
            return _f(page, [None] * _slots)

    _EXPR_CACHE.put(expr, evaluator)
    return evaluator


def compile_expressions(exprs: Sequence[BoundExpr]) -> Callable[[Page], list]:
    """Jointly compile a list of expressions into ``f(page) -> [arrays]``.

    Joint compilation shares common subexpressions *across* the list —
    e.g. Q1's ``sum(l_extendedprice * (1 - l_discount))`` and
    ``sum(l_extendedprice * (1 - l_discount) * (1 + l_tax))`` compute the
    shared product once per page.
    """
    key = tuple(exprs)
    cached = _LIST_CACHE.get(key)
    if cached is not None:
        return cached
    compiler = _Compiler(key)
    fns = [compiler.array_fn(e) for e in key]
    slots = compiler.slots

    def evaluator(page: Page, _fns=tuple(fns), _slots=slots) -> list:
        memo = [None] * _slots if _slots else None
        return [fn(page, memo) for fn in _fns]

    _LIST_CACHE.put(key, evaluator)
    return evaluator
