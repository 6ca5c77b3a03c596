"""Array <-> shared-memory codec for offload jobs (DESIGN.md §15).

Job inputs and outputs are plain lists of numpy arrays.  The codec packs
them into one contiguous byte region (a ``multiprocessing.shared_memory``
segment) and describes the layout with a small picklable *meta* list —
dtype strings, lengths, and offsets, never array data.  Fixed-width
arrays are written as their raw little-endian buffers and come back as
``np.frombuffer`` views (zero-copy on the worker side).  String columns
travel as :meth:`DictColumn.to_buffers` — ``int32`` codes plus the
dictionary entries in use — the same three buffers
``Page.column_buffers()`` emits, so the two layouts stay interchangeable.
"""

from __future__ import annotations

import numpy as np

from ..pages import DictColumn

__all__ = ["encode_arrays", "write_buffers", "decode_arrays"]

#: Meta entry tags.
_FIXED = "a"
_STRINGS = "d"


def encode_arrays(arrays) -> tuple[list, list, int]:
    """Describe ``arrays`` as ``(meta, buffers, total_bytes)``.

    ``meta`` is picklable and contains no array data; ``buffers`` is a
    flat list of buffer-protocol objects whose concatenation (see
    :func:`write_buffers`) is the byte region ``meta`` describes.
    """
    meta: list = []
    buffers: list = []
    offset = 0
    for arr in arrays:
        if isinstance(arr, DictColumn):
            parts = arr.to_buffers()
            sizes = [len(part) for part in parts]
            meta.append((_STRINGS, offset, *sizes))
            buffers.extend(parts)
            offset += sum(sizes)
        else:
            contiguous = np.ascontiguousarray(arr)
            buf = memoryview(contiguous).cast("B")
            meta.append((_FIXED, contiguous.dtype.str, len(contiguous), offset, len(buf)))
            buffers.append(buf)
            offset += len(buf)
    return meta, buffers, offset


def write_buffers(dst, buffers) -> None:
    """Write the buffer list sequentially into ``dst`` (a memoryview)."""
    offset = 0
    for buf in buffers:
        n = len(buf)
        dst[offset : offset + n] = buf
        offset += n


def decode_arrays(buf, meta, copy: bool = False) -> list[np.ndarray]:
    """Rebuild the array list a peer encoded into ``buf``.

    With ``copy=False`` fixed-width arrays are read-only views into
    ``buf`` (the caller must keep the backing segment alive while they
    are in use); ``copy=True`` detaches them, which the host side uses
    before unlinking a result segment.  A string column's dictionary is
    always materialised (per-entry decode); its codes follow ``copy``.
    """
    out: list[np.ndarray] = []
    for entry in meta:
        if entry[0] == _STRINGS:
            _, offset, *sizes = entry
            parts = []
            for size in sizes:
                parts.append(buf[offset : offset + size])
                offset += size
            col = DictColumn.from_buffers(*parts)
            out.append(DictColumn(col.codes.copy(), col.dictionary) if copy else col)
        else:
            _, dtype, count, offset, _ = entry
            arr = np.frombuffer(buf, dtype=np.dtype(dtype), count=count, offset=offset)
            out.append(arr.copy() if copy else arr)
    return out
