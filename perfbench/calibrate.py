"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes (neighbours contending for the same cores and caches), as slow
as a run or slower.  A fixed kernel, timed in the same process before
and after every operation, slows down with the host; dividing by it
removes the drift and keeps the program's own cost.  The kernel lives
here, outside ``src/``, so no change to the program moves it.

Times are reported in *reference seconds*: measured seconds scaled by
``REFERENCE_KERNEL_S / kernel seconds``, i.e. how long the section
would have taken at the speed the reference host ran the kernel at.
"""

from __future__ import annotations

import heapq
import statistics
from collections import deque
from time import perf_counter
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

#: The kernel's median time on the reference host (2-core Intel Xeon
#: VM, Python 3.11, numpy 2.4, quiet phase), in seconds.
REFERENCE_KERNEL_S = 0.045
#: Kernel runs per sample, at the least.
MIN_REPS = 3
#: Share of an operation's time spent measuring the host's speed after
#: it, so that long operations are matched by a longer sample.
WINDOW_FRAC = 0.3
#: The sample before the first operation, whose length is not known yet.
FIRST_WINDOW_S = 0.5
#: Kernel runs in a fresh process are slower for about half a second;
#: this much of them is run and discarded before the first sample.
WARMUP_S = 0.5
#: What one kernel run returns; anything else means it did not run.
CHECKSUM = 3_507_389


class _Sim:
    """A minimal event loop: a heap of (time, sequence, callback)."""

    def __init__(self) -> None:
        self.heap: List[Tuple[float, int, Callable[[], None]]] = []
        self.now = 0.0
        self.seq = 0

    def at(self, delay: float, callback: Callable[[], None]) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, callback))

    def run(self) -> None:
        while self.heap:
            self.now, _, callback = heapq.heappop(self.heap)
            callback()


class _Node:
    """A node that queues packets and delivers them to its peer later."""

    __slots__ = ("queue", "sent", "peer", "sim")

    def __init__(self, sim: _Sim) -> None:
        self.queue: Deque[Tuple[int, int]] = deque()
        self.sent = 0
        self.peer: Optional[_Node] = None
        self.sim = sim

    def send(self, packet: Tuple[int, int]) -> None:
        self.queue.append(packet)
        self.sim.at(0.001 * (1 + packet[0] % 7), self.deliver)

    def deliver(self) -> None:
        if self.queue:
            seq, flow = self.queue.popleft()
            self.sent += 1
            if self.sent < 750 and self.peer is not None:
                self.peer.send((seq + 1, flow))


def kernel() -> int:
    """A fixed mix of the kinds of work the program does: a discrete-
    event loop of bound-method callbacks over slotted nodes and packet
    queues (the simulator), scalar numpy draws from Python (trace
    generation), and small vectorised draws, sorts and counts.  It keeps
    nothing alive after it returns.

    Of the mixes tried, this one tracked the drift of all three
    workloads best (see README.md, "Reference seconds")."""
    sim = _Sim()
    nodes = [_Node(sim) for _ in range(40)]
    for index, node in enumerate(nodes):
        node.peer = nodes[(index * 7 + 3) % 40]
    for index, node in enumerate(nodes):
        for packet in range(20):
            node.send((index * 20 + packet, index))
    sim.run()
    checksum = sum(node.sent for node in nodes) + sim.seq
    rng = np.random.default_rng(2022)
    for _ in range(3000):
        checksum += int(rng.exponential(100.0)) + int(rng.gamma(4.0, 250.0))
    for _ in range(4):
        keys = rng.zipf(1.3, 10_000) % 4096
        counts = np.bincount(keys, minlength=4096)
        order = np.argsort(rng.random(10_000), kind="stable")
        checksum += int(counts.max()) + int(keys[order[:100]].sum())
    return checksum


_warm = False


def sample(window_s: float = 0.0) -> List[float]:
    """Seconds of each of at least ``MIN_REPS`` kernel runs spanning at
    least ``window_s``, at the host's current speed."""
    global _warm
    if not _warm:  # Start-up costs are not host speed.
        warmup_end = perf_counter() + WARMUP_S
        while perf_counter() < warmup_end:
            kernel()
        _warm = True
    times: List[float] = []
    while len(times) < MIN_REPS or sum(times) < window_s:
        started = perf_counter()
        checksum = kernel()
        times.append(perf_counter() - started)
        if checksum != CHECKSUM:
            raise RuntimeError(f"calibration kernel returned {checksum}, "
                               f"expected {CHECKSUM}")
    return times


def to_reference(seconds: float, *samples: List[float]) -> float:
    """``seconds`` measured between kernel ``samples``, as reference
    seconds: scaled by the median of all their runs, so that the longer
    sample counts for more."""
    kernel_s = statistics.median([t for times in samples for t in times])
    return seconds * REFERENCE_KERNEL_S / kernel_s
