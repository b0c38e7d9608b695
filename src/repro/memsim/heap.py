"""A first-fit free-list heap model.

Addresses are byte offsets into a simulated heap segment that grows in
8 KB pages and, like a classic Unix ``brk`` heap, never shrinks — the
segment's high watermark is what the virtual-memory size reports.
Resident-set accounting marks pages on first touch.

``version`` counts the changes a memory meter can see: every
``malloc`` and ``free`` (so a ``realloc`` that moves), and every touch
that adds pages.  A meter re-reads the heap only when it has moved.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

PAGE_SIZE = 8192
_ALIGN = 8


class SimulationError(RuntimeError):
    pass


@dataclass(slots=True)
class _FreeBlock:
    addr: int
    size: int


@dataclass(slots=True)
class HeapModel:
    free_list: list[_FreeBlock] = field(default_factory=list)
    allocations: dict[int, int] = field(default_factory=dict)  # addr→size
    brk: int = 0                 # segment high watermark (bytes)
    live_bytes: int = 0
    touched_pages: set[int] = field(default_factory=set)
    malloc_count: int = 0
    free_count: int = 0
    version: int = 0

    def malloc(self, size: int) -> int:
        size = max(_ALIGN, (size + _ALIGN - 1) // _ALIGN * _ALIGN)
        self.malloc_count += 1
        self.version += 1
        for i, block in enumerate(self.free_list):
            if block.size >= size:
                addr = block.addr
                if block.size > size:
                    self.free_list[i] = _FreeBlock(
                        block.addr + size, block.size - size
                    )
                else:
                    self.free_list.pop(i)
                self.allocations[addr] = size
                self.live_bytes += size
                self._touch(addr, size)
                return addr
        addr = self.brk
        self.brk += size
        self.allocations[addr] = size
        self.live_bytes += size
        self._touch(addr, size)
        return addr

    def free(self, addr: int) -> None:
        size = self.allocations.pop(addr, None)
        if size is None:
            raise SimulationError(f"free of unallocated address {addr}")
        self.free_count += 1
        self.version += 1
        self.live_bytes -= size
        self._insert_free(_FreeBlock(addr, size))

    def realloc(self, addr: int, new_size: int) -> tuple[int, int]:
        """Returns (new_addr, pages_newly_touched_estimate)."""
        old = self.allocations.get(addr)
        if old is None:
            raise SimulationError(f"realloc of unallocated address {addr}")
        if new_size <= old:
            return addr, 0
        before = len(self.touched_pages)
        self.free(addr)
        new_addr = self.malloc(new_size)
        return new_addr, len(self.touched_pages) - before

    def _insert_free(self, block: _FreeBlock) -> None:
        """Insert by address, merging with the neighbours it touches.

        The list is kept sorted and merged, so only the neighbours of
        the new block can be adjacent to it.
        """
        free = self.free_list
        i = bisect_left(free, block.addr, key=attrgetter("addr"))
        if i < len(free) and block.addr + block.size == free[i].addr:
            block = _FreeBlock(block.addr, block.size + free.pop(i).size)
        prev = free[i - 1] if i > 0 else None
        if prev is not None and prev.addr + prev.size == block.addr:
            free[i - 1] = _FreeBlock(prev.addr, prev.size + block.size)
        else:
            free.insert(i, block)

    def _touch(self, addr: int, size: int) -> int:
        first = addr // PAGE_SIZE
        last = (addr + max(size, 1) - 1) // PAGE_SIZE
        touched = self.touched_pages
        if first == last:  # most blocks lie within one page
            if first in touched:
                return 0
            touched.add(first)
            self.version += 1
            return 1
        before = len(touched)
        touched.update(range(first, last + 1))
        added = len(touched) - before
        if added:
            self.version += 1
        return added

    def touch_bytes(self, addr: int, size: int) -> int:
        """Public touch (e.g. writing into an existing allocation)."""
        return self._touch(addr, size)

    # -- accounting -----------------------------------------------------

    @property
    def segment_bytes(self) -> int:
        """Heap segment size: brk rounded up to whole pages."""
        return (self.brk + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE

    @property
    def resident_bytes(self) -> int:
        return len(self.touched_pages) * PAGE_SIZE
