"""Dictionary-encoded string columns (DESIGN.md §18).

Every STRING column in the engine is a :class:`DictColumn`: ``int32``
codes into a shared, immutable :class:`StringDictionary`.  Row-level work
(filtering, gathering, sizing, hashing, grouping) touches only the codes;
anything that needs the text itself is computed once per dictionary
*entry* and gathered through the codes.

Base-table dictionaries are created once by the generator / cache / CSV
loader and shared by every page sliced from the table, so they keep
their identity through scans, joins, exchanges and buffers.  Columns
whose dictionaries differ (constants, CASE outputs, pages read back from
spill files or worker processes) are merged by :func:`unify`.
"""

from __future__ import annotations

import operator
import zlib
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["DictColumn"]

_INT32 = np.dtype(np.int32)
#: Memoised per-entry predicate tables kept per dictionary; cleared when
#: full (ad-hoc workloads submit an unbounded stream of fresh literals).
_MEMO_LIMIT = 64


def _lazy_gather(
    table: np.ndarray,
    codes: np.ndarray,
    unset: int,
    compute: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """``table[codes]``, first filling the referenced entries that still
    hold ``unset`` with ``compute(entry_codes)``; ``unset`` lies below
    every computed result, so a filled page is told by one ``min``.

    This is how per-entry work stays proportional to the entries a query
    actually touches: a 40k-entry ``p_name`` dictionary pays for the
    codes present in the pages that flow, a 3-entry ``l_returnflag``
    dictionary pays once.
    """
    # ``take`` is the faster gather through int32 codes at page size.
    out = table.take(codes)
    if out.size and out.min() == unset:
        todo = np.unique(codes[out == unset])
        table[todo] = compute(todo)
        out = table.take(codes)
    return out


def _utf8_lengths(values: Sequence, listed: list) -> np.ndarray:
    """Accounted UTF-8 byte length of each entry (sizes are the cost
    model's input).  A 1-D fixed-width unicode array (the dataset
    archive's form, which cannot hold ``None``) whose code points are all
    ASCII has one byte per character, counted in one vectorized pass;
    anything else is encoded entry by entry, ``None`` as ``str(None)``,
    which is what a NULL cell has always been accounted (and hashed) as."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype.kind == "U"
        and values.ndim == 1
        and values.flags.c_contiguous
        and (values.size == 0 or values.view(np.uint32).max() < 0x80)
    ):
        return np.strings.str_len(values).astype(np.int64, copy=False)
    return np.fromiter(
        (len(str(v).encode("utf-8")) for v in listed),
        dtype=np.int64,
        count=len(listed),
    )


class StringDictionary:
    """Immutable set of distinct string values (``None`` allowed once).

    Carries what the engine derives from the text, per entry: accounted
    UTF-8 byte lengths (eager — every page is sized), and lazily the
    ``crc32`` shuffle hash, the sort ranks, the wire encoding and
    memoised predicate results.
    """

    __slots__ = (
        "values", "utf8_len", "fixed_len", "has_none", "_crc", "_order",
        "_ranks", "_wire", "_memo",
    )

    def __init__(self, values: Sequence, utf8_len: np.ndarray | None = None):
        if isinstance(values, np.ndarray) and values.dtype == object:
            entries = values
        else:
            entries = np.empty(len(values), dtype=object)
            # Python strings, never ``np.str_``.  (Assigning a unicode
            # array directly left scan_agg's peak RSS ~0.4 MB higher.)
            entries[:] = values.tolist() if isinstance(values, np.ndarray) else list(values)
        listed = entries.tolist()
        distinct = set(listed)
        if len(distinct) != len(listed):
            raise ValueError("dictionary entries must be distinct")
        self.values = entries
        #: ``None`` does not order against text, so a dictionary holding
        #: it is ranked only over the entries a column uses.
        self.has_none = None in distinct
        if utf8_len is None:
            utf8_len = _utf8_lengths(values, listed)
        self.utf8_len = utf8_len
        #: Shared byte length when every entry has the same one (flags,
        #: zero-padded names): sizing a page is then a multiplication
        #: (7 % of ``scan_agg``'s queries/s, EXPERIMENTS.md).
        self.fixed_len: int | None = (
            int(utf8_len[0])
            if len(utf8_len) and (utf8_len == utf8_len[0]).all()
            else None
        )
        self._crc: np.ndarray | None = None
        self._order: np.ndarray | None = None
        self._ranks: np.ndarray | None = None
        self._wire: tuple[np.ndarray, bytes] | None = None
        self._memo: dict = {}

    def __len__(self) -> int:
        return len(self.values)

    @property
    def crc(self) -> np.ndarray:
        """``crc32`` of each entry's UTF-8 text (deterministic across
        processes, unlike ``hash()``)."""
        if self._crc is None:
            self._crc = np.fromiter(
                (zlib.crc32(str(v).encode("utf-8")) for v in self.values.tolist()),
                dtype=np.uint64,
                count=len(self.values),
            )
        return self._crc

    @property
    def order(self) -> np.ndarray:
        """Entry codes in ascending value order (``order[rank] = code``)."""
        if self._order is None:
            order = np.argsort(self.values, kind="stable")
            ranks = np.empty(len(order), dtype=np.int64)
            ranks[order] = np.arange(len(order), dtype=np.int64)
            self._order, self._ranks = order.astype(_INT32), ranks
        return self._order

    @property
    def ranks(self) -> np.ndarray:
        """Rank of each entry in ascending value order."""
        if self._ranks is None:
            self.order
        return self._ranks

    def test(self, key, fn: Callable[[object], bool], codes: np.ndarray) -> np.ndarray:
        """Boolean ``fn(value)`` per row, evaluating ``fn`` at most once
        per (dictionary entry, ``key``); ``key`` identifies the predicate."""
        table = self._memo.get(key)
        if table is None:
            if len(self._memo) >= _MEMO_LIMIT:
                self._memo.clear()
            table = self._memo[key] = np.full(len(self.values), -1, dtype=np.int8)
        values = self.values
        return _lazy_gather(
            table,
            codes,
            -1,
            lambda todo: np.fromiter(
                map(fn, values[todo].tolist()), dtype=bool, count=len(todo)
            ),
        ).view(bool)

    def wire(self) -> tuple[np.ndarray, bytes]:
        """(``int32`` byte length per entry with -1 for ``None``,
        concatenated UTF-8 payload) — the serialised dictionary."""
        if self._wire is None:
            encoded = [
                None if v is None else str(v).encode("utf-8")
                for v in self.values.tolist()
            ]
            lengths = np.fromiter(
                (-1 if e is None else len(e) for e in encoded),
                dtype=_INT32,
                count=len(encoded),
            )
            self._wire = lengths, b"".join(e for e in encoded if e is not None)
        return self._wire

    @classmethod
    def from_wire(cls, lengths: np.ndarray, payload: bytes) -> "StringDictionary":
        values = np.empty(len(lengths), dtype=object)
        at = 0
        for i, n in enumerate(lengths.tolist()):
            if n >= 0:
                values[i] = payload[at : at + n].decode("utf-8")
                at += n
        return cls(
            values, np.where(lengths < 0, len("None"), lengths).astype(np.int64)
        )


def _is_none(value) -> bool:
    return value is None


@lru_cache(maxsize=256)
def _constant_dictionary(value) -> StringDictionary:
    return StringDictionary([value])


class DictColumn:
    """A string column: ``dictionary.values[codes]``, never materialised
    on the operator path.

    Supports the slice of the ndarray surface the engine uses on columns
    (``len``, ``[]`` with an int / slice / mask / index array,
    ``tolist``, comparisons yielding boolean arrays).  Code that was not
    taught about the encoding still works through :meth:`decode` /
    ``__array__`` — at per-cell cost, which ``tests/test_hot_path.py``
    keeps off the benchmark queries.
    """

    __slots__ = ("codes", "dictionary")

    #: Logical element type, so dtype-dispatching code treats the column
    #: as the object column it stands for.
    dtype = np.dtype(object)
    __hash__ = None

    def __init__(self, codes: np.ndarray, dictionary: StringDictionary | Sequence):
        self.codes = (
            codes
            if type(codes) is np.ndarray and codes.dtype == _INT32
            else np.asarray(codes, dtype=_INT32)
        )
        self.dictionary = (
            dictionary
            if type(dictionary) is StringDictionary
            else StringDictionary(dictionary)
        )

    # -- construction ------------------------------------------------------
    @classmethod
    def from_values(cls, values: Iterable) -> "DictColumn":
        """Encode python values (ingestion: CSV, ``from_rows``, per-cell
        string functions).  Entries are numbered in first-seen order."""
        index: dict = {}
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        codes = np.fromiter(
            (index.setdefault(v, len(index)) for v in values),
            dtype=_INT32,
            count=len(values),
        )
        return cls(codes, StringDictionary(list(index)))

    @classmethod
    def constant(cls, value, n: int) -> "DictColumn":
        """``n`` copies of one value, over a dictionary shared by every
        column built from the same constant."""
        return cls(np.zeros(n, dtype=_INT32), _constant_dictionary(value))

    # -- ndarray-like surface ------------------------------------------------
    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, key):
        picked = self.codes[key]
        if picked.ndim == 0:
            return self.dictionary.values[picked]
        # Every row gather of every page lands here: skip __init__'s
        # argument normalisation (both parts are already canonical).
        col = DictColumn.__new__(DictColumn)
        col.codes = picked
        col.dictionary = self.dictionary
        return col

    def __iter__(self):
        return iter(self.tolist())

    def tolist(self) -> list:
        return self.dictionary.values.take(self.codes).tolist()

    def decode(self) -> np.ndarray:
        """The column as an object array of python strings (the escape
        hatch; per-cell pointer work)."""
        return self.dictionary.values.take(self.codes)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.decode()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DictColumn({len(self)} rows, {len(self.dictionary)} entries)"

    # -- per-dictionary kernels -----------------------------------------------
    def payload_bytes(self) -> int:
        """Total accounted UTF-8 bytes of the cells."""
        fixed = self.dictionary.fixed_len
        if fixed is not None:
            return fixed * len(self.codes)
        # Indexed, not ``take``: this one also sizes whole tables, and
        # ``take`` widens int32 codes into an int64 temporary first.
        return int(self.dictionary.utf8_len[self.codes].sum())

    def hash64(self) -> np.ndarray:
        return self.dictionary.crc.take(self.codes)

    def test(self, key, fn: Callable[[object], bool]) -> np.ndarray:
        """Row mask of a per-value predicate (LIKE, IN, IS NULL, compare
        with a constant), memoised on the dictionary under ``key``."""
        return self.dictionary.test(key, fn, self.codes)

    def is_null(self) -> np.ndarray:
        return self.test(("isnull",), _is_none)

    def compact(self) -> "DictColumn":
        """Equal column over a dictionary holding only the entries used."""
        used, inverse = np.unique(self.codes, return_inverse=True)
        dictionary = self.dictionary
        return DictColumn(
            inverse.astype(_INT32),
            StringDictionary(dictionary.values[used], dictionary.utf8_len[used]),
        )

    def _trimmed(self) -> "DictColumn":
        """Self, compacted when the dictionary outsizes the column (work
        per entry must not exceed work per row)."""
        return self.compact() if len(self.dictionary) > len(self.codes) else self

    def rank_codes(self) -> tuple[np.ndarray, StringDictionary]:
        """``(rank per row, dictionary)``: integers ordered like the
        values, for sorting and grouping; ``dictionary.order[rank]`` is
        the entry code a rank stands for."""
        # An unused ``None`` entry (CASE seeds one, a NULL-filtered CSV
        # column keeps one) must not reach the value sort.
        col = self.compact() if self.dictionary.has_none else self._trimmed()
        return col.dictionary.ranks[col.codes], col.dictionary

    def where(self, mask: np.ndarray, other: "DictColumn") -> "DictColumn":
        """Rows of ``other`` where ``mask``, of ``self`` elsewhere."""
        (mine, theirs), dictionary = unify([self, other])
        return DictColumn(np.where(mask, theirs, mine), dictionary)

    # -- comparisons (yield boolean arrays, like ndarray) ----------------------
    def _compare(self, op, other) -> np.ndarray:
        if isinstance(other, DictColumn):
            if op is operator.eq or op is operator.ne:
                (lhs, rhs), _ = unify([self, other])
                return op(lhs, rhs)
            ranks, _ = concat_columns([self, other]).rank_codes()
            return op(ranks[: len(self)], ranks[len(self) :])
        return self.test((op.__name__, other), lambda v: op(v, other))

    def __eq__(self, other):
        return self._compare(operator.eq, other)

    def __ne__(self, other):
        return self._compare(operator.ne, other)

    def __lt__(self, other):
        return self._compare(operator.lt, other)

    def __le__(self, other):
        return self._compare(operator.le, other)

    def __gt__(self, other):
        return self._compare(operator.gt, other)

    def __ge__(self, other):
        return self._compare(operator.ge, other)

    # -- wire format (Page.column_buffers / pagebuf) -----------------------------
    def to_buffers(self) -> list:
        """``[codes, entry lengths, entry payload]``; only the entries in
        use travel when the dictionary outsizes the column."""
        col = self._trimmed()
        lengths, payload = col.dictionary.wire()
        return [
            memoryview(np.ascontiguousarray(col.codes)).cast("B"),
            memoryview(lengths).cast("B"),
            payload,
        ]

    @classmethod
    def from_buffers(cls, codes, lengths, payload) -> "DictColumn":
        return cls(
            np.frombuffer(codes, dtype=_INT32),
            StringDictionary.from_wire(
                np.frombuffer(lengths, dtype=_INT32), bytes(payload)
            ),
        )


class EntryLookup:
    """An integer function of string values, kept by an operator as one
    lazily filled table per dictionary (entry code -> result).

    ``compute(values) -> int64 array`` sees each dictionary entry at most
    once while its table is kept; rows only gather.  ``unset`` lies
    below every result ``compute`` returns.
    """

    __slots__ = ("_compute", "_unset", "_tables")

    #: Dictionaries whose tables are kept (pages of one operator share a
    #: handful; a spill round trip brings a fresh one per page).
    _LIMIT = 8

    def __init__(self, compute: Callable[[list], np.ndarray], unset: int = -1):
        self._compute = compute
        self._unset = unset
        #: id(dictionary) -> (dictionary, table); the dictionary rides
        #: along so its id stays valid.
        self._tables: dict[int, tuple] = {}

    def __call__(self, col: DictColumn) -> np.ndarray:
        dictionary = col.dictionary
        hit = self._tables.get(id(dictionary))
        if hit is None:
            if len(self._tables) >= self._LIMIT:
                self._tables.clear()
            table = np.full(len(dictionary), self._unset, dtype=np.int64)
            hit = self._tables[id(dictionary)] = (dictionary, table)
        return _lazy_gather(
            hit[1],
            col.codes,
            self._unset,
            lambda todo: self._compute(dictionary.values[todo].tolist()),
        )


def unify(columns: Sequence[DictColumn]) -> tuple[list[np.ndarray], StringDictionary]:
    """Codes of ``columns`` re-expressed in one dictionary.

    Columns already sharing a dictionary (the common case: pages of one
    table) are returned as they are.  Otherwise the merged dictionary
    holds each distinct dictionary's entries in first-appearance order —
    only the entries in use where a dictionary outsizes its columns.
    """
    first = columns[0].dictionary
    if all(col.dictionary is first for col in columns):
        return [col.codes for col in columns], first
    groups: dict[int, list[int]] = {}
    for position, col in enumerate(columns):
        groups.setdefault(id(col.dictionary), []).append(position)
    index: dict = {}
    lengths: list[np.ndarray] = []
    out: list = [None] * len(columns)
    for positions in groups.values():
        members = [columns[p].codes for p in positions]
        group = DictColumn(
            np.concatenate(members), columns[positions[0]].dictionary
        )._trimmed()
        dictionary = group.dictionary
        known = len(index)
        remap = np.fromiter(
            (index.setdefault(v, len(index)) for v in dictionary.values.tolist()),
            dtype=_INT32,
            count=len(dictionary),
        )
        # Entries new to the merge were numbered in order: their byte
        # lengths line up with the merged dictionary's tail.
        lengths.append(dictionary.utf8_len[remap >= known])
        bounds = np.cumsum([len(m) for m in members[:-1]])
        for p, codes in zip(positions, np.split(remap[group.codes], bounds)):
            out[p] = codes
    return out, StringDictionary(list(index), np.concatenate(lengths))


def concat_columns(columns: Sequence) -> "np.ndarray | DictColumn":
    """``np.concatenate`` for page columns of one type."""
    if isinstance(columns[0], DictColumn):
        codes, dictionary = unify(columns)
        return DictColumn(np.concatenate(codes), dictionary)
    return np.concatenate(columns)
