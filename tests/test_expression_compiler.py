"""Compiled expression evaluation vs the interpreter.

The compiler's contract is *bit-identity*: for any bound expression tree
and any page, the compiled closure must return exactly the array the
interpreted ``BoundExpr.evaluate`` would — same dtype, same bits.  The
randomized property test below generates expression trees spanning every
node type (same oracle pattern as ``tests/test_vectorized_kernels.py``)
and pits both paths against each other; targeted tests cover constant
folding, joint-list common-subexpression sharing, and cache behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.pages import ColumnType, DictColumn, Field, MaskedColumn, Page, Schema
from repro.sql.compiler import (
    clear_compile_cache,
    compile_expression,
    compile_expressions,
)
from repro.sql.expressions import (
    Arithmetic,
    BoolAnd,
    BoolNot,
    BoolOr,
    BoundExpr,
    CaseWhen,
    Cast,
    Comparison,
    Constant,
    ExtractDatePart,
    InputRef,
    InSet,
    IsNull,
    LikeMatch,
    Negate,
)

INT = ColumnType.INT64
FLOAT = ColumnType.FLOAT64
STR = ColumnType.STRING
DATE = ColumnType.DATE

#: Column layout every generated expression is bound against:
#: 0,1 = int64 (nonzero), 2,3 = float64 (nonzero), 4,5 = string, 6 = date.
SCHEMA = Schema(
    (
        Field("i0", INT),
        Field("i1", INT),
        Field("f0", FLOAT),
        Field("f1", FLOAT),
        Field("s0", STR),
        Field("s1", STR),
        Field("d0", DATE),
    )
)

_WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "FOXTROT", "golf%x"]


def random_page(rng: np.random.Generator, n: int) -> Page:
    def objects(values):
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return arr

    return Page(
        SCHEMA,
        (
            rng.integers(1, 100, size=n),
            rng.integers(1, 50, size=n),
            rng.uniform(0.5, 10.0, size=n),
            rng.uniform(0.25, 4.0, size=n),
            objects([_WORDS[i] for i in rng.integers(0, len(_WORDS), size=n)]),
            objects([_WORDS[i] for i in rng.integers(0, len(_WORDS), size=n)]),
            rng.integers(8000, 11000, size=n),  # days since epoch (1992-2000)
        ),
    )


# -- random expression generator ---------------------------------------------
def _numeric_leaf(rng) -> BoundExpr:
    pick = rng.integers(0, 4)
    if pick == 0:
        return InputRef(int(rng.integers(0, 2)), INT)
    if pick == 1:
        return InputRef(int(rng.integers(2, 4)), FLOAT)
    if pick == 2:
        return Constant(int(rng.integers(1, 50)), INT)
    return Constant(float(np.round(rng.uniform(0.25, 8.0), 3)), FLOAT)


def _arith_type(op: str, left: BoundExpr, right: BoundExpr) -> ColumnType:
    if op == "/":
        return FLOAT
    if left.type is INT and right.type is INT:
        return INT
    return FLOAT


def gen_numeric(rng, depth: int) -> BoundExpr:
    if depth <= 0:
        return _numeric_leaf(rng)
    pick = rng.integers(0, 6)
    if pick <= 2:
        op = ["+", "-", "*", "/", "%"][int(rng.integers(0, 5))]
        left = gen_numeric(rng, depth - 1)
        # Divisors/moduli stay leaves: columns and constants are nonzero by
        # construction, so both paths stay warning-free and deterministic.
        right = _numeric_leaf(rng) if op in ("/", "%") else gen_numeric(rng, depth - 1)
        return Arithmetic(op, left, right, _arith_type(op, left, right))
    if pick == 3:
        inner = gen_numeric(rng, depth - 1)
        return Negate(inner, inner.type)
    if pick == 4:
        return ExtractDatePart(
            ["year", "month", "day"][int(rng.integers(0, 3))], InputRef(6, DATE)
        )
    whens = tuple(
        (gen_bool(rng, depth - 1), gen_numeric(rng, 0))
        for _ in range(int(rng.integers(1, 3)))
    )
    default = gen_numeric(rng, 0) if rng.integers(0, 2) else None
    # CASE branches coerce into one result dtype; fix FLOAT to keep the
    # branch arrays assignable either way.
    return CaseWhen(whens, default, FLOAT)


def gen_string(rng, depth: int) -> BoundExpr:
    if depth <= 0:
        return (
            InputRef(int(rng.integers(4, 6)), STR)
            if rng.integers(0, 3)
            else Constant(str(_WORDS[int(rng.integers(0, len(_WORDS)))]), STR)
        )
    pick = rng.integers(0, 3)
    if pick == 0:
        return Arithmetic(
            "||", gen_string(rng, depth - 1), gen_string(rng, 0), STR
        )
    if pick == 1:
        return Cast(gen_numeric(rng, depth - 1), STR)
    return gen_string(rng, 0)


def gen_bool(rng, depth: int) -> BoundExpr:
    ops = ["=", "<>", "<", "<=", ">", ">="]
    if depth <= 0:
        if rng.integers(0, 2):
            return Comparison(
                ops[int(rng.integers(0, 6))],
                _numeric_leaf(rng),
                _numeric_leaf(rng),
            )
        return Comparison(
            ops[int(rng.integers(0, 6))], gen_string(rng, 0), gen_string(rng, 0)
        )
    pick = rng.integers(0, 6)
    if pick == 0:
        return Comparison(
            ops[int(rng.integers(0, 6))],
            gen_numeric(rng, depth - 1),
            gen_numeric(rng, depth - 1),
        )
    if pick == 1:
        terms = tuple(gen_bool(rng, depth - 1) for _ in range(int(rng.integers(2, 4))))
        return BoolAnd(terms) if rng.integers(0, 2) else BoolOr(terms)
    if pick == 2:
        return BoolNot(gen_bool(rng, depth - 1))
    if pick == 3:
        if rng.integers(0, 2):
            options = frozenset(
                int(v) for v in rng.integers(1, 100, size=int(rng.integers(1, 6)))
            )
            return InSet(gen_numeric(rng, depth - 1), options)
        options = frozenset(
            str(_WORDS[i]) for i in rng.integers(0, len(_WORDS), size=3)
        )
        return InSet(gen_string(rng, depth - 1), options)
    if pick == 4:
        pattern = ["%a%", "a_pha", "%o", "de%", "%x%", "echo"][int(rng.integers(0, 6))]
        return LikeMatch(
            gen_string(rng, depth - 1), pattern, negated=bool(rng.integers(0, 2))
        )
    return IsNull(gen_string(rng, depth - 1), negated=bool(rng.integers(0, 2)))


def gen_expression(rng, depth: int) -> BoundExpr:
    return [gen_numeric, gen_bool, gen_string][int(rng.integers(0, 3))](rng, depth)


def assert_bit_identical(expected, got) -> None:
    assert type(got) is type(expected)
    assert got.dtype == expected.dtype
    assert len(got) == len(expected)
    if isinstance(expected, MaskedColumn):  # a CASE without ELSE
        assert np.array_equal(got.valid, expected.valid)
        assert_bit_identical(expected.values, got.values)
    elif isinstance(expected, DictColumn):
        assert got.tolist() == expected.tolist()
    else:
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


# -- the property test --------------------------------------------------------
@pytest.mark.parametrize("seed", range(40))
def test_compiled_matches_interpreter_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    exprs = [
        gen_expression(rng, depth=int(rng.integers(1, 4)))
        for _ in range(int(rng.integers(1, 5)))
    ]
    pages = [random_page(rng, int(rng.integers(1, 200))) for _ in range(3)]
    joint = compile_expressions(exprs)
    singles = [compile_expression(e) for e in exprs]
    for page in pages:
        expected = [e.evaluate(page) for e in exprs]
        for want, got in zip(expected, joint(page)):
            assert_bit_identical(want, got)
        for want, fn in zip(expected, singles):
            assert_bit_identical(want, fn(page))


# -- constant folding ---------------------------------------------------------
def test_constant_subtree_folds_to_interpreter_dtype():
    rng = np.random.default_rng(7)
    page = random_page(rng, 31)
    # (1 - 0.06) has no InputRef: folded at compile time; the comparison
    # against a float column must promote exactly as the interpreter's
    # np.full(n, ...) operand would under NEP 50.
    const = Arithmetic("-", Constant(1, INT), Constant(0.06, FLOAT), FLOAT)
    expr = Comparison("<=", InputRef(2, FLOAT), const)
    assert_bit_identical(expr.evaluate(page), compile_expression(expr)(page))


def test_pure_constant_expression_fills_pages():
    rng = np.random.default_rng(8)
    page = random_page(rng, 17)
    for expr in (
        Arithmetic("*", Constant(3, INT), Constant(4, INT), INT),
        Constant("hello", STR),
        Constant(2.5, FLOAT),
    ):
        assert_bit_identical(expr.evaluate(page), compile_expression(expr)(page))


def test_folding_failure_defers_to_runtime():
    # A constant subtree whose evaluation raises must not raise at compile
    # time (the interpreter only raises when a page actually flows through).
    bad = Arithmetic("^", Constant(1, INT), Constant(2, INT), INT)
    fn = compile_expression(BoolNot(Comparison("=", bad, Constant(1, INT))))
    page = random_page(np.random.default_rng(0), 3)
    with pytest.raises(Exception):
        fn(page)


# -- common-subexpression sharing --------------------------------------------
@dataclass(frozen=True)
class _CountingExpr(BoundExpr):
    """A kind the compiler has no closure for: the generic rule runs its
    own ``evaluate``, which lets the test observe how many times."""

    inner: InputRef
    type: ColumnType = INT

    def children(self):
        return (self.inner,)

    def evaluate(self, page):
        _COUNTS.append(1)
        return self.inner.evaluate(page) + np.int64(1)


_COUNTS: list[int] = []


def test_joint_compilation_shares_common_subexpressions():
    clear_compile_cache()
    shared = _CountingExpr(InputRef(0, INT))
    exprs = [
        Arithmetic("+", shared, Constant(1, INT), INT),
        Arithmetic("*", shared, Constant(2, INT), INT),
    ]
    joint = compile_expressions(exprs)
    page = random_page(np.random.default_rng(3), 11)

    del _COUNTS[:]
    a_plus, a_times = joint(page)
    assert len(_COUNTS) == 1  # memo slot: one evaluation feeds both outputs
    # Interpreted path evaluates it once per referencing expression.
    del _COUNTS[:]
    expected = [e.evaluate(page) for e in exprs]
    assert len(_COUNTS) == 2
    assert_bit_identical(expected[0], a_plus)
    assert_bit_identical(expected[1], a_times)


# -- the generic rule: a kind's own evaluate over its compiled children -------
_COUNTED = _CountingExpr(InputRef(0, INT))

#: One expression per kind without a hand-written closure, each with the
#: counting node somewhere below it (for CASE: inside a branch).
_GENERIC_KINDS = {
    "boolnot": BoolNot(Comparison("<", _COUNTED, Constant(50, INT))),
    "negate": Negate(_COUNTED, INT),
    "inset": InSet(_COUNTED, frozenset({3, 5, 8, 13, 21})),
    "likematch": LikeMatch(Cast(_COUNTED, STR), "%1%", negated=True),
    "isnull": IsNull(Cast(_COUNTED, STR)),
    "casewhen": CaseWhen(
        ((Comparison(">", InputRef(1, INT), Constant(25, INT)), _COUNTED),),
        Constant(0, INT),
        INT,
    ),
    "extractdatepart": ExtractDatePart("month", _COUNTED),
    "cast": Cast(_COUNTED, FLOAT),
}


@pytest.mark.parametrize("kind", sorted(_GENERIC_KINDS))
def test_generic_rule_shares_subexpressions_with_siblings(kind):
    """A subexpression below a generic-rule node and inside a sibling
    projection is computed once per page, and the node's result is the
    interpreter's."""
    clear_compile_cache()
    exprs = [_GENERIC_KINDS[kind], Arithmetic("+", _COUNTED, Constant(1, INT), INT)]
    joint = compile_expressions(exprs)
    for seed in (1, 2):
        page = random_page(np.random.default_rng(seed), 64)
        del _COUNTS[:]
        got = joint(page)
        assert len(_COUNTS) == 1
        for want, have in zip([e.evaluate(page) for e in exprs], got):
            assert_bit_identical(want, have)


def test_generic_rule_keeps_case_branches_lazy():
    import warnings

    page = random_page(np.random.default_rng(5), 40)
    zero = Arithmetic("-", InputRef(0, INT), InputRef(0, INT), INT)
    by_zero = Arithmetic("/", InputRef(2, FLOAT), zero, FLOAT)
    with pytest.warns(RuntimeWarning):
        compile_expression(by_zero)(page)
    # i0 >= 1 on every row: no row reaches the ELSE, so it must not run.
    always = Comparison(">", InputRef(0, INT), Constant(0, INT))
    expr = CaseWhen(((always, InputRef(2, FLOAT)),), by_zero, FLOAT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = compile_expression(expr)(page)
    assert_bit_identical(page.columns[2], got)


# -- caching ------------------------------------------------------------------
def test_compile_cache_returns_same_callable():
    clear_compile_cache()
    expr = Comparison("<", InputRef(0, INT), Constant(10, INT))
    first = compile_expression(expr)
    # Structural equality keys the cache: an equal-but-distinct tree hits.
    again = compile_expression(Comparison("<", InputRef(0, INT), Constant(10, INT)))
    assert first is again
    clear_compile_cache()
    assert compile_expression(expr) is not first


def test_list_cache_keys_on_expression_tuple():
    clear_compile_cache()
    exprs = (
        InputRef(0, INT),
        Arithmetic("+", InputRef(0, INT), Constant(1, INT), INT),
    )
    assert compile_expressions(exprs) is compile_expressions(list(exprs))
    assert compile_expressions(exprs[:1]) is not compile_expressions(exprs)


def test_isnull_sees_none_cells():
    schema = Schema((Field("s", STR),))
    values = np.empty(4, dtype=object)
    values[:] = ["a", None, "b", None]
    page = Page(schema, (values,))
    for negated in (False, True):
        expr = IsNull(InputRef(0, STR), negated=negated)
        assert_bit_identical(expr.evaluate(page), compile_expression(expr)(page))
