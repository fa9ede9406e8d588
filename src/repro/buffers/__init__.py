"""Update-pattern-aware state buffers (Section 5.3.2 of the paper)."""

from .base import KeyFunction, StateBuffer, values_key
from .fifo import FifoBuffer
from .hashed import HashBuffer
from .listbuffer import ListBuffer
from .partitioned import PartitionedBuffer

__all__ = [
    "KeyFunction",
    "StateBuffer",
    "values_key",
    "FifoBuffer",
    "HashBuffer",
    "ListBuffer",
    "PartitionedBuffer",
]
