"""Buffers: elastic page buffers, task output buffers, local exchanges."""

from .elastic import ElasticPageBuffer, WaiterList
from .local_exchange import LocalExchange
from .output import (
    BroadcastOutputBuffer,
    OutputMode,
    SharedOutputBuffer,
    ShuffleOutputBuffer,
    TaskOutputBuffer,
    make_output_buffer,
)

__all__ = [
    "BroadcastOutputBuffer",
    "ElasticPageBuffer",
    "LocalExchange",
    "OutputMode",
    "SharedOutputBuffer",
    "ShuffleOutputBuffer",
    "TaskOutputBuffer",
    "WaiterList",
    "make_output_buffer",
]
