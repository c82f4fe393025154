"""Synthetic backbone traces for the Figure 13 detection experiments.

The paper replays CAIDA anonymised traces from a 10 Gbps ISP backbone
link (>400,000 flows/minute).  CAIDA traces cannot be redistributed, so
we generate the statistical equivalent: flow rates drawn from a Zipf
(discrete power-law) distribution — the canonical model for Internet
flow sizes — with exponentially distributed per-flow packet
inter-arrivals, merged into a single packet stream.  The parameters
(flows per minute, mean packet size, link rate) are chosen to match the
paper's setting; what the detection experiment needs from the trace is
heavy-tailed skew at realistic flow counts, which this preserves.

A trace is a pure function of its six parameters, and a Figure 13 sweep
replays the same few traces through many cache configurations.  Each
trace is therefore built once into read-only arrays and kept in a small
in-process LRU shared by every :class:`SyntheticTrace` with the same
parameters; replays iterate those arrays.
"""

from __future__ import annotations

import heapq
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterator, List, NamedTuple,
                    Optional, Tuple)

import numpy as np

if TYPE_CHECKING:
    from ..core.units import BitsPerSec, Bytes, Seconds, TimeNs

#: Paper setting: a 10 Gbps backbone link.
BACKBONE_RATE_BPS = 10e9
#: Paper setting: >400k flows per minute.
DEFAULT_FLOWS_PER_MINUTE = 400_000

#: Traces kept built at once: the ten trials (ten seeds) of a full
#: Figure 13 sweep, which every configuration replays in turn.  An LRU
#: smaller than the cycle would miss on every lookup.
MEMO_SIZE = 10
#: Flows per first-arrival draw; bounds the draw's temporaries.
_FIRST_ARRIVAL_CHUNK = 1 << 16


@dataclass(frozen=True)
class TracePacket:
    """One packet of a synthetic trace."""

    time_ns: int
    flow: int
    size_bytes: int


class TraceColumns(NamedTuple):
    """A built trace: one read-only int64 array per packet field, in
    time order."""

    time_ns: np.ndarray
    flow: np.ndarray
    size_bytes: np.ndarray


class _Build:
    """One memoised trace: its flow-rate draw, then its packets."""

    __slots__ = ("flow_rates_bps", "columns")

    def __init__(self, flow_rates_bps: np.ndarray) -> None:
        self.flow_rates_bps = flow_rates_bps
        self.columns: Optional[TraceColumns] = None


#: Trace parameters -> build, least recently used first.
_MEMO: "OrderedDict[Tuple[object, ...], _Build]" = OrderedDict()


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


class SyntheticTrace:
    """A Zipf-rate, Poisson-arrival packet trace.

    Traces with equal parameters share one flow-rate draw and one packet
    build (see the module docstring); both are read-only.

    Args:
        duration_s: trace length in seconds.
        flows_per_minute: active flow arrival intensity; the number of
            flows present in the trace scales with duration.
        zipf_alpha: skew of the flow-rate distribution (1.0-1.3 is the
            usual Internet fit; higher = more skewed).
        link_rate_bps: total offered load is capped near this rate.
        mean_packet_bytes: average packet size.
        seed: RNG seed (every trace is deterministic given its seed).
    """

    def __init__(self, duration_s: Seconds = 1.0,
                 flows_per_minute: int = DEFAULT_FLOWS_PER_MINUTE,
                 zipf_alpha: float = 1.1,
                 link_rate_bps: BitsPerSec = BACKBONE_RATE_BPS,
                 mean_packet_bytes: Bytes = 700,
                 seed: int = 1) -> None:
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        self.duration_s = duration_s
        self.flows_per_minute = flows_per_minute
        self.zipf_alpha = zipf_alpha
        self.link_rate_bps = link_rate_bps
        self.mean_packet_bytes = mean_packet_bytes
        self.seed = seed
        # The flow *population* is what pressures the cache: flows/min
        # counts flows active within any minute, and they exist (mostly
        # idle, Poisson-thinned) throughout shorter traces too.  Scaling
        # the population down with short trace durations would leave the
        # cache uncontended and make every detection experiment
        # trivially perfect.
        self.num_flows = max(1, int(flows_per_minute
                                    * max(duration_s, 60.0) / 60.0))
        key = (duration_s, flows_per_minute, zipf_alpha, link_rate_bps,
               mean_packet_bytes, seed)
        build = _MEMO.get(key)
        if build is None:
            build = _Build(self._draw_flow_rates())
            _MEMO[key] = build
            if len(_MEMO) > MEMO_SIZE:
                _MEMO.popitem(last=False)
        else:
            _MEMO.move_to_end(key)
        self._build = build

    def _draw_flow_rates(self) -> np.ndarray:
        """Per-flow average rates, Zipf-shaped, summing to ~80% of link."""
        rng = np.random.default_rng(self.seed)
        ranks = np.arange(1, self.num_flows + 1, dtype=np.float64)
        weights = ranks ** (-self.zipf_alpha)
        rng.shuffle(weights)
        weights /= weights.sum()
        weights *= 0.8 * self.link_rate_bps
        return _read_only(weights)

    @property
    def flow_rates_bps(self) -> np.ndarray:
        """The ground-truth average rate of each flow id (read-only)."""
        return self._build.flow_rates_bps

    def columns(self) -> TraceColumns:
        """The merged packet stream as arrays, built on first use.

        Flows whose expected packet count over the trace is below one
        still get a chance to emit proportional to their rate, so the
        long tail of tiny flows is present (they are what fills the
        cache slots in the Figure 13 experiment).
        """
        build = self._build
        if build.columns is None:
            build.columns = self._merge(build.flow_rates_bps)
        return build.columns

    def _merge(self, rates: np.ndarray) -> TraceColumns:
        rng = np.random.default_rng(self.seed + 1)
        # Each flow's mean packet gap (float ns) and first arrival:
        # elementwise the same float64 operations, and the same draws in
        # the same order, as one max/divide/exponential per flow.
        pkt_per_sec = rates / (8.0 * self.mean_packet_bytes)
        np.maximum(pkt_per_sec, 1e-9, out=pkt_per_sec)
        mean_gap = np.divide(1e9, pkt_per_sec, out=pkt_per_sec)
        heap: List[Tuple[int, int]] = []  # (next_time_ns, flow)
        for start in range(0, self.num_flows, _FIRST_ARRIVAL_CHUNK):
            first = rng.exponential(
                mean_gap[start:start + _FIRST_ARRIVAL_CHUNK])
            early = np.flatnonzero(first < self.duration_s * 1e9)
            heap.extend(zip(first[early].astype(np.int64).tolist(),
                            (early + start).tolist()))
        heapq.heapify(heap)
        horizon_ns = int(self.duration_s * 1e9)
        size_scale = self.mean_packet_bytes / 4.0
        gamma, exponential = rng.gamma, rng.exponential
        heapreplace, heappop = heapq.heapreplace, heapq.heappop
        times, flows, sizes = array("q"), array("q"), array("q")
        # Every queued flow is distinct, so replacing the head yields the
        # same pop order as a pop followed by a push.
        while heap:
            time_ns, flow = heap[0]
            size = int(gamma(4.0, size_scale))
            times.append(time_ns)
            flows.append(flow)
            sizes.append(min(max(size, 64), 1500))
            nxt = time_ns + int(exponential(mean_gap[flow]))
            if nxt < horizon_ns:
                heapreplace(heap, (nxt, flow))
            else:
                heappop(heap)
        return TraceColumns(*(_read_only(np.frombuffer(column,
                                                       dtype=np.int64))
                              for column in (times, flows, sizes)))

    def rows(self) -> Iterator[Tuple[int, int, int]]:
        """``(time_ns, flow, size_bytes)`` per packet, in time order.

        The values are Python ints: a flow id's ``repr`` is what the
        flow cache hashes, and a numpy integer's ``repr`` differs.
        """
        return zip(*(memoryview(column) for column in self.columns()))

    def packets(self) -> Iterator[TracePacket]:
        """The merged packet stream in time order, one packet at a time."""
        for time_ns, flow, size in self.rows():
            yield TracePacket(time_ns=time_ns, flow=flow, size_bytes=size)

    def true_bytes_by_interval(self, interval_ns: TimeNs
                               ) -> List[Dict[int, Bytes]]:
        """Ground-truth per-flow byte counts for each round interval."""
        buckets: List[Dict[int, int]] = []
        for time_ns, flow, size in self.rows():
            index = time_ns // interval_ns
            while len(buckets) <= index:
                buckets.append({})
            bucket = buckets[index]
            bucket[flow] = bucket.get(flow, 0) + size
        return buckets
