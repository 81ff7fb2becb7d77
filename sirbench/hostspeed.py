"""The host's speed, read from a fixed pure-Python kernel.

On a shared host the speed of plain Python code drifts by tens of
percent, over fractions of a second and over minutes: two sets of runs
of the same code ten minutes apart can differ by 40% in every time the
benchmark measures.  No statistic over a run's own timings removes that,
because a slow minute is slow throughout.

So the benchmark times a fixed kernel throughout its window, every
``SpeedProbe.PERIOD`` on the workload's own loop, and before and after
each set-up.  The kernel uses none of the program's code; it only does
the kinds of work the program does (table lookups, frame copies, struct
packing, small calls), so its time moves with the host and not with the
program.  An interval's *slowdown* is the median kernel time over it
divided by ``REFERENCE_S``; the end-to-end times are divided
by it and the rates multiplied by it.  They then read what the run would
have read on a host where the kernel takes ``REFERENCE_S``, and a change
to the program still moves them in full.
"""

from __future__ import annotations

import asyncio
import bisect
import statistics
import struct
import time
from array import array
from typing import Optional

#: The kernel's time on the quiet reference host (a 2-vCPU Intel Xeon VM
#: at 2.1 GHz, Python 3.11), run between slices of the workload as the
#: probe runs it: the scale of every normalised time.
REFERENCE_S = 800e-6

#: The kernel's working set is sized like the program's hot data (a
#: 4096-entry flow table, frames cut from a 64 KiB buffer at random
#: offsets) because a busy neighbour slows a tight loop more than code
#: with a large working set.  Fitted per slice, in log terms, a tight
#: kernel moved 1.3 to 1.7 times as much as the forwarding workloads'
#: rates did; this one moves 0.9 to 1.3 times as much.
_BUFFER = bytes((i * 131 + 7) & 0xFF for i in range(1 << 16))
_HEADER = struct.Struct(">BBHI")


class _Entry:
    __slots__ = ("port", "hits")

    def __init__(self, port: int) -> None:
        self.port = port
        self.hits = 0

    def hit(self) -> int:
        self.hits += 1
        return self.port


_TABLE = {}
for _i in range(4096):
    _at = _i * 13 % 65000
    _key = _BUFFER[_at:_at + 12] + _i.to_bytes(2, "big")
    _TABLE[_key] = _Entry(_i & 15)
_KEYS = list(_TABLE)


def _kernel() -> int:
    """Table lookups, frame copies, header packing and small calls, at
    pseudo-random places drawn from a fixed linear congruential stream."""
    x = 12345
    total = 0
    kept: list = []
    view = memoryview(_BUFFER)
    for i in range(420):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += _TABLE[_KEYS[x & 4095]].hit()
        at = (x >> 12) % 60000
        frame = bytearray(view[at:at + 64 + (x & 1023)])
        _HEADER.pack_into(frame, 0, 1, 2, i, x)
        total += _HEADER.unpack_from(frame, 0)[2] + len(frame)
        kept.append(bytes(frame[8:40]))
        if len(kept) > 64:
            kept.clear()
    return total


def kernel_s() -> float:
    """One run of the kernel now, in seconds."""
    began = time.perf_counter()
    _kernel()
    return time.perf_counter() - began


def slowdown(*readings: float) -> float:
    """How much slower the host ran than the reference host, from
    kernel readings taken around the interval (1.0: as fast)."""
    return sum(readings) / len(readings) / REFERENCE_S


class SpeedProbe:
    """One kernel run every ``PERIOD`` on the running loop.

    Each reading is a single run, under a millisecond of loop time, so
    the probe takes under 1% of the loop; an interval's slowdown is the
    median of its readings, which drops the runs that were interrupted.
    """

    PERIOD = 0.1

    def __init__(self) -> None:
        self.times = array("d")
        self.readings = array("d")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._handle: Optional[asyncio.TimerHandle] = None

    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._tick()

    def _tick(self) -> None:
        self.times.append(time.perf_counter())
        self.readings.append(kernel_s())
        self._handle = self._loop.call_later(self.PERIOD, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def slowdown(self, start: float, end: float) -> float:
        """The host's slowdown between two ``perf_counter`` instants: the
        median of the readings begun in it, else the nearest ones."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        if lo == hi:
            lo, hi = max(0, lo - 1), lo + 1
        return statistics.median(self.readings[lo:hi]) / REFERENCE_S
