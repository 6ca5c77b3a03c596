"""One protocol for dataclass trees, and one structural key over them.

The SQL AST, bound expressions, logical plans and physical plans are each
a *family* of dataclasses whose children sit in their fields — directly,
or inside tuples and lists (CASE keeps its ``(condition, value)`` pairs
in one).  :class:`Tree` is the base of every family and writes the
descent once: :meth:`~Tree.children`, :meth:`~Tree.walk`,
:meth:`~Tree.rebuild` and :meth:`~Tree.pretty` visit, in field order,
the values that belong to the node's own family, so a predicate inside a
plan node is not a child of the plan and a subquery inside an AST
expression is not a child of the expression.  A new node kind is one
dataclass; nothing here or in any walker learns its name.

:func:`identity` is the one structural key (DESIGN.md §20):
option fingerprints, fold-group and result-cache keys, subtree matching
and template ids are all this function.  This is the only module under
``src/repro`` that reflects over dataclass fields.
"""

from __future__ import annotations

import dataclasses
import enum

_FIELDS: dict[type, tuple[str, ...] | None] = {}
_ATOMS = frozenset((str, int, float, bool))


def field_names(cls: type) -> tuple[str, ...] | None:
    """Field names of dataclass ``cls`` in declaration order, cached per
    class; ``None`` when ``cls`` is not a dataclass."""
    try:
        return _FIELDS[cls]
    except KeyError:
        names = _FIELDS[cls] = (
            tuple(f.name for f in dataclasses.fields(cls))
            if dataclasses.is_dataclass(cls) else None
        )
        return names


def _collect(value, family: type, out: list) -> None:
    if isinstance(value, family):
        out.append(value)
    elif isinstance(value, (tuple, list)):
        for item in value:
            if item.__class__ not in _ATOMS:
                _collect(item, family, out)


def _map(value, family: type, fn):
    if isinstance(value, family):
        return fn(value)
    if isinstance(value, (tuple, list)):
        items = type(value)(_map(item, family, fn) for item in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value


class Tree:
    """Base of a tree family: the class that lists ``Tree`` as its direct
    base *is* the family, and only its instances are children."""

    __slots__ = ()
    family: type

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if Tree in cls.__bases__:
            cls.family = cls

    def children(self) -> list:
        """Direct children of this node's family, in field order."""
        out: list = []
        for name in field_names(type(self)) or ():
            _collect(getattr(self, name), self.family, out)
        return out

    def walk(self):
        """Yield this node and all descendants (pre-order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def rebuild(self, fn):
        """This node with ``fn`` applied to each direct child — the same
        object when ``fn`` returned every child unchanged."""
        changes = {}
        for name in field_names(type(self)) or ():
            value = getattr(self, name)
            mapped = _map(value, self.family, fn)
            if mapped is not value:
                changes[name] = mapped
        return dataclasses.replace(self, **changes) if changes else self

    def describe(self) -> str:
        return type(self).__name__

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        lines.extend(child.pretty(indent + 1) for child in self.children())
        return "\n".join(lines)


#: class -> how its instances are keyed, decided once per class.
_KEYERS: dict[type, object] = {}


def _keys(values, literals: bool) -> list:
    return [
        v if v.__class__ in _ATOMS else identity(v, literals) for v in values
    ]


def _keyer(cls: type):
    """``f(value, literals) -> key`` for instances of ``cls``."""
    if issubclass(cls, (tuple, list)):
        return lambda value, literals: tuple(_keys(value, literals))
    if issubclass(cls, (set, frozenset)):
        return lambda value, literals: tuple(sorted(_keys(value, literals)))
    if issubclass(cls, dict):
        return lambda value, literals: tuple(sorted(
            (key, identity(item, literals)) for key, item in value.items()
        ))
    if issubclass(cls, enum.Enum):
        return lambda value, literals: value._value_
    if hasattr(cls, "identity_key"):
        return cls.identity_key
    names = field_names(cls)
    if names is None:
        return lambda value, literals: () if value is None else value
    tag = cls.__name__
    return lambda value, literals: (
        tag, *_keys([getattr(value, name) for name in names], literals)
    )


def identity(value, literals: bool = True):
    """Canonical, hashable, process-independent key of ``value``: equal
    keys mean structurally equal values.

    A dataclass is its class name followed by the keys of its fields; a
    dict is its sorted items, a set its sorted members, a list or tuple
    its members in order, an enum its value, ``None`` the empty tuple (so
    keys of one class always compare).  A class that is *more* equal
    than its fields say states its own rule as ``identity_key(literals)``
    — where the node is met, not in a second rendering of every kind:
    AND/OR flatten and sort, ``>`` flips to ``<``, an ``InputRef``'s name
    is not identity, consecutive filters merge (``sql/expressions.py``,
    ``plan/logical.py``).  ``literals=False`` asks those rules to leave a
    typed hole where a constant stood: the query-*template* key.
    """
    cls = value.__class__
    if cls in _ATOMS:
        return value
    try:
        keyer = _KEYERS[cls]
    except KeyError:
        keyer = _KEYERS[cls] = _keyer(cls)
    return keyer(value, literals)
