"""The Params Buffer: bounded FIFO storage for variable parameters.

Paper Section 4.1: *"Mint-agent reserves a fixed-size buffer (default
4 MB) in shared memory to temporarily store trace parameters.  Params
Buffer operates as a FIFO queue, with parameters from the same trace ID
grouped into one block.  Newly generated trace parameters blocks are
added to the end of the queue.  When the buffer is full, the block at
the front of the queue is popped out."*
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.parsing.span_parser import ParsedSpan


@dataclass
class ParamsBlock:
    """All buffered parameter records for one trace id."""

    trace_id: str
    spans: list[ParsedSpan] = field(default_factory=list)
    size_bytes: int = 0


class ParamsBuffer:
    """FIFO queue of per-trace parameter blocks with a byte budget."""

    def __init__(self, capacity_bytes: int = 4 * 1024 * 1024) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._blocks: OrderedDict[str, ParamsBlock] = OrderedDict()
        self._used_bytes = 0
        self._evicted_blocks = 0
        self._evicted_bytes = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, trace_id: str) -> bool:
        return trace_id in self._blocks

    @property
    def used_bytes(self) -> int:
        """Bytes currently buffered."""
        return self._used_bytes

    @property
    def evicted_blocks(self) -> int:
        """Blocks dropped from the front since construction."""
        return self._evicted_blocks

    @property
    def evicted_bytes(self) -> int:
        """Bytes dropped from the front since construction."""
        return self._evicted_bytes

    def add(self, parsed: ParsedSpan) -> None:
        """Buffer one span's parameters in its trace's block.

        A new block joins the queue tail; appending to an existing block
        does not refresh its queue position (FIFO, not LRU).
        """
        block = self._blocks.get(parsed.trace_id)
        if block is None:
            block = ParamsBlock(trace_id=parsed.trace_id)
            self._blocks[parsed.trace_id] = block
        added = parsed.params_size_bytes()
        block.spans.append(parsed)
        block.size_bytes += added
        used = self._used_bytes + added
        self._used_bytes = used
        if used > self.capacity_bytes:
            self._evict_until_fits()

    def get(self, trace_id: str) -> ParamsBlock | None:
        """Block for ``trace_id``, or None when absent/evicted."""
        return self._blocks.get(trace_id)

    def pop(self, trace_id: str) -> ParamsBlock | None:
        """Remove and return the block for ``trace_id`` (upload path)."""
        block = self._blocks.pop(trace_id, None)
        if block is not None:
            self._used_bytes -= block.size_bytes
        return block

    def trace_ids(self) -> list[str]:
        """Buffered trace ids in FIFO (oldest-first) order."""
        return list(self._blocks)

    def blocks(self) -> list[ParamsBlock]:
        """All blocks in FIFO order (oldest first)."""
        return list(self._blocks.values())

    def _evict_until_fits(self) -> None:
        while self._used_bytes > self.capacity_bytes and self._blocks:
            _, block = self._blocks.popitem(last=False)
            self._used_bytes -= block.size_bytes
            self._evicted_blocks += 1
            self._evicted_bytes += block.size_bytes
