"""Run-time stack model.

The stack segment starts at one page (8 KB) holding the process
environment — the paper measured exactly this on Solaris 7 — and grows
in page units with the high watermark of pushed frames.  mcc-style
codes keep small frames (pointers only); mat2c frames carry the
stack-allocated array groups of §3.2.1.  ``before_change`` is called
before a frame is pushed or popped, the only changes a memory meter
can see.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.memsim.heap import PAGE_SIZE, unmetered

#: the initial environment frame (argv, environ, …)
INITIAL_STACK_BYTES = PAGE_SIZE


@dataclass(slots=True)
class StackModel:
    frames: list[int] = field(default_factory=list)
    depth_bytes: int = INITIAL_STACK_BYTES
    high_watermark: int = INITIAL_STACK_BYTES
    touched_pages: int = 1
    before_change: Callable[[], None] = field(
        default=unmetered, repr=False, compare=False
    )

    def push_frame(self, frame_bytes: int) -> None:
        self.before_change()
        self.frames.append(frame_bytes)
        self.depth_bytes += frame_bytes
        if self.depth_bytes > self.high_watermark:
            self.high_watermark = self.depth_bytes
        pages = (self.depth_bytes + PAGE_SIZE - 1) // PAGE_SIZE
        self.touched_pages = max(self.touched_pages, pages)

    def pop_frame(self) -> None:
        self.before_change()
        self.depth_bytes -= self.frames.pop()

    @property
    def segment_bytes(self) -> int:
        """Stack segment size (grows in pages, never shrinks)."""
        return (
            (self.high_watermark + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        )

    @property
    def current_bytes(self) -> int:
        """Bytes currently in use (frames + environment)."""
        return self.depth_bytes

    @property
    def resident_bytes(self) -> int:
        return self.touched_pages * PAGE_SIZE
