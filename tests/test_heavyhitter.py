"""Tests for the passive flow cache, trace generator, and FPR/FNR
evaluation."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.heavyhitter.evaluation import evaluate_detection
from repro.heavyhitter.hashpipe import (CebinaeFlowCache, ExactFlowCache,
                                        select_bottlenecked, stage_hash)
from repro.heavyhitter.traces import MEMO_SIZE, SyntheticTrace


class TestStageHash:
    def test_deterministic(self):
        assert stage_hash(("a", 1), 7) == stage_hash(("a", 1), 7)

    def test_salt_changes_hash(self):
        key = ("flow", 42)
        assert stage_hash(key, 1) != stage_hash(key, 2)

    def test_cache_places_keys_by_stage_hash(self):
        salt, slots = 0x9E3779B1, 64  # Stage 0 of a seed-1 cache.
        keys = [f"flow{index}" for index in range(200)]
        slot = {key: stage_hash(key, salt) % slots for key in keys}
        first = keys[0]
        rival = next(key for key in keys[1:] if slot[key] == slot[first])
        other = next(key for key in keys if slot[key] != slot[first])
        cache = CebinaeFlowCache(stages=1, slots_per_stage=slots, seed=1)
        assert cache.update(first, 100)
        assert not cache.update(rival, 100)
        assert cache.update(other, 100)
        assert cache.lookup(first) == cache.lookup(other) == 100


class TestCacheCounting:
    def test_single_flow_exact(self):
        cache = CebinaeFlowCache(stages=2, slots_per_stage=16)
        cache.update("f1", 1000)
        cache.update("f1", 500)
        assert cache.lookup("f1") == 1500

    def test_lookup_untracked_is_zero(self):
        cache = CebinaeFlowCache()
        assert cache.lookup("nope") == 0

    def test_never_overcounts(self):
        """Counts are at most the true bytes (no collision pollution) —
        the 'never make unfairness worse' invariant."""
        cache = CebinaeFlowCache(stages=1, slots_per_stage=2)
        truth = {}
        for index in range(50):
            key = f"flow{index % 10}"
            cache.update(key, 100)
            truth[key] = truth.get(key, 0) + 100
        for key, counted in cache.snapshot().items():
            assert counted <= truth[key]

    def test_full_stages_spill_to_next(self):
        cache = CebinaeFlowCache(stages=2, slots_per_stage=1)
        # With one slot per stage, at most two flows can be tracked.
        keys = ["a", "b", "c", "d"]
        tracked = sum(1 for key in keys if cache.update(key, 100))
        assert tracked == 2
        assert cache.uncounted_packets == 2
        assert cache.uncounted_bytes == 200

    def test_poll_and_reset_returns_and_clears(self):
        cache = CebinaeFlowCache(stages=2, slots_per_stage=16)
        cache.update("f1", 1000)
        cache.update("f2", 250)
        snapshot = cache.poll_and_reset()
        assert snapshot == {"f1": 1000, "f2": 250}
        assert cache.occupancy == 0
        assert cache.lookup("f1") == 0

    def test_passive_reclaim_after_reset(self):
        """After a reset, a previously crowded-out flow can claim its
        slot again — the passive-management property."""
        cache = CebinaeFlowCache(stages=1, slots_per_stage=1)
        assert cache.update("a", 100)
        assert not cache.update("b", 100)
        cache.poll_and_reset()
        assert cache.update("b", 100)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CebinaeFlowCache(stages=0)
        with pytest.raises(ValueError):
            CebinaeFlowCache(slots_per_stage=0)

    @given(st.lists(st.tuples(st.integers(0, 30),
                              st.integers(64, 1500)),
                    min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_counts_never_exceed_truth(self, updates):
        cache = CebinaeFlowCache(stages=2, slots_per_stage=8)
        truth = {}
        for key, size in updates:
            cache.update(key, size)
            truth[key] = truth.get(key, 0) + size
        for key, counted in cache.snapshot().items():
            assert counted <= truth[key]


class TestExactCache:
    def test_counts_everything(self):
        cache = ExactFlowCache()
        for index in range(100):
            assert cache.update(index, 10)
        assert cache.occupancy == 100
        assert cache.uncounted_packets == 0


class TestSelectBottlenecked:
    def test_empty_input(self):
        top, total = select_bottlenecked({}, 0.01)
        assert top == set() and total == 0

    def test_single_max(self):
        top, total = select_bottlenecked(
            {"a": 1000, "b": 500, "c": 100}, 0.01)
        assert top == {"a"}
        assert total == 1000

    def test_delta_f_groups_near_max(self):
        top, total = select_bottlenecked(
            {"a": 1000, "b": 995, "c": 500}, 0.01)
        assert top == {"a", "b"}
        assert total == 1995

    def test_delta_f_one_selects_all(self):
        counts = {"a": 1000, "b": 1, "c": 500}
        top, total = select_bottlenecked(counts, 1.0)
        assert top == set(counts)
        assert total == 1501

    def test_all_zero_counts(self):
        top, total = select_bottlenecked({"a": 0, "b": 0}, 0.01)
        assert top == set()


class TestSyntheticTrace:
    def test_deterministic_given_seed(self):
        a = list(SyntheticTrace(duration_s=0.01, flows_per_minute=6000,
                                seed=3).packets())
        b = list(SyntheticTrace(duration_s=0.01, flows_per_minute=6000,
                                seed=3).packets())
        assert a == b

    def test_different_seeds_differ(self):
        a = list(SyntheticTrace(duration_s=0.01, flows_per_minute=6000,
                                seed=3).packets())
        b = list(SyntheticTrace(duration_s=0.01, flows_per_minute=6000,
                                seed=4).packets())
        assert a != b

    def test_packets_in_time_order(self):
        trace = SyntheticTrace(duration_s=0.02, flows_per_minute=60_000,
                               seed=1)
        times = [packet.time_ns for packet in trace.packets()]
        assert times == sorted(times)
        assert times[-1] < 0.02 * 1e9

    def test_flow_population_independent_of_short_durations(self):
        """Flows/min sets the *population*; a shorter trace just sees
        fewer of each flow's packets, not fewer flows (otherwise the
        detection experiments would be trivially uncontended)."""
        short = SyntheticTrace(duration_s=0.1, flows_per_minute=60_000)
        longer = SyntheticTrace(duration_s=30, flows_per_minute=60_000)
        assert short.num_flows == longer.num_flows == 60_000

    def test_flow_count_scales_beyond_a_minute(self):
        one = SyntheticTrace(duration_s=60, flows_per_minute=6000)
        two = SyntheticTrace(duration_s=120, flows_per_minute=6000)
        assert two.num_flows == 2 * one.num_flows

    def test_rates_are_heavy_tailed(self):
        trace = SyntheticTrace(duration_s=0.5,
                               flows_per_minute=120_000, seed=1)
        rates = sorted(trace.flow_rates_bps, reverse=True)
        top_share = sum(rates[:len(rates) // 100 or 1]) / sum(rates)
        assert top_share > 0.1  # Top 1% of flows carry >10% of load.

    def test_packet_sizes_bounded(self):
        trace = SyntheticTrace(duration_s=0.01,
                               flows_per_minute=60_000, seed=2)
        for packet in trace.packets():
            assert 64 <= packet.size_bytes <= 1500

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            SyntheticTrace(duration_s=0)


def reference_trace(duration_s, flows_per_minute, seed, zipf_alpha=1.1,
                    link_rate_bps=10e9, mean_packet_bytes=700):
    """The original scalar generator: flow rates, then one packet at a
    time from a heap merge with one exponential draw per flow."""
    num_flows = max(1, int(flows_per_minute * max(duration_s, 60.0)
                           / 60.0))
    weights = np.arange(1, num_flows + 1, dtype=np.float64) \
        ** (-zipf_alpha)
    np.random.default_rng(seed).shuffle(weights)
    weights /= weights.sum()
    rates = weights * (0.8 * link_rate_bps)
    rng = np.random.default_rng(seed + 1)
    heap = []
    packet_interval_ns = np.empty(num_flows)
    for flow in range(num_flows):
        pkt_per_sec = max(rates[flow] / (8.0 * mean_packet_bytes), 1e-9)
        packet_interval_ns[flow] = 1e9 / pkt_per_sec
        first = rng.exponential(packet_interval_ns[flow])
        if first < duration_s * 1e9:
            heap.append((int(first), flow))
    heapq.heapify(heap)
    horizon_ns = int(duration_s * 1e9)
    packets = []
    while heap:
        time_ns, flow = heapq.heappop(heap)
        size = int(rng.gamma(4.0, mean_packet_bytes / 4.0))
        packets.append((time_ns, flow, min(max(size, 64), 1500)))
        nxt = time_ns + int(rng.exponential(packet_interval_ns[flow]))
        if nxt < horizon_ns:
            heapq.heappush(heap, (nxt, flow))
    return rates, packets


class TestTraceBuild:
    # 200k flows spans several first-arrival chunks.
    @pytest.mark.parametrize("flows,seed", [(60_000, 1), (60_000, 2),
                                            (200_000, 3)])
    def test_bit_identical_to_scalar_generator(self, flows, seed):
        rates, packets = reference_trace(0.01, flows, seed)
        trace = SyntheticTrace(duration_s=0.01, flows_per_minute=flows,
                               seed=seed)
        assert np.array_equal(trace.flow_rates_bps, rates)
        columns = trace.columns()
        for index, column in enumerate(columns):
            assert column.dtype == np.int64
            assert column.tolist() == [packet[index]
                                       for packet in packets]
        assert [(p.time_ns, p.flow, p.size_bytes)
                for p in trace.packets()] == packets
        # The flow cache hashes repr(flow): replays must yield ints.
        assert all(type(value) is int for value in next(trace.rows()))

    def test_pinned_detection_result(self):
        result = evaluate_detection(2, 2048, 10, trials=1,
                                    trace_duration_s=0.05,
                                    flows_per_minute=400_000,
                                    zipf_alpha=0.75, seed=1)
        assert (result.true_positives, result.false_positives,
                result.false_negatives, result.intervals,
                result.candidate_flows) == (5, 0, 0, 5, 58143)


def tiny_trace(seed):
    return SyntheticTrace(duration_s=0.001, flows_per_minute=600,
                          seed=seed)


class TestTraceMemo:
    def test_equal_parameters_share_one_build(self):
        first = tiny_trace(101)
        assert tiny_trace(101).columns() is first.columns()
        assert tiny_trace(101).flow_rates_bps is first.flow_rates_bps
        other = tiny_trace(102)
        assert other.columns() is not first.columns()
        assert other.flow_rates_bps is not first.flow_rates_bps

    def test_shared_arrays_are_read_only(self):
        trace = tiny_trace(103)
        for array in (*trace.columns(), trace.flow_rates_bps):
            with pytest.raises(ValueError):
                array[0] = 0
        assert tiny_trace(103).columns().size_bytes[0] >= 64

    def test_lru_evicts_at_fixed_size(self):
        columns = tiny_trace(200).columns()
        for seed in range(201, 200 + MEMO_SIZE):
            tiny_trace(seed)
        # A full memo still holds it, and the hit makes it most recent.
        assert tiny_trace(200).columns() is columns
        for seed in range(300, 300 + MEMO_SIZE - 1):
            tiny_trace(seed)
        assert tiny_trace(200).columns() is columns
        for seed in range(400, 400 + MEMO_SIZE):
            tiny_trace(seed)
        rebuilt = tiny_trace(200).columns()
        assert rebuilt is not columns
        for old, new in zip(columns, rebuilt):
            assert np.array_equal(old, new)


class TestDetectionEvaluation:
    def test_large_cache_has_low_error(self):
        result = evaluate_detection(stages=4, slots_per_stage=4096,
                                    round_interval_ms=50, trials=2,
                                    trace_duration_s=0.1,
                                    flows_per_minute=120_000)
        assert result.false_positive_rate <= 0.01
        assert result.false_negative_rate <= 0.3

    def test_tiny_cache_has_higher_fnr(self):
        small = evaluate_detection(stages=1, slots_per_stage=32,
                                   round_interval_ms=50, trials=2,
                                   trace_duration_s=0.1,
                                   flows_per_minute=120_000)
        big = evaluate_detection(stages=4, slots_per_stage=4096,
                                 round_interval_ms=50, trials=2,
                                 trace_duration_s=0.1,
                                 flows_per_minute=120_000)
        assert small.false_negative_rate >= big.false_negative_rate

    def test_rates_are_probabilities(self):
        result = evaluate_detection(stages=2, slots_per_stage=128,
                                    round_interval_ms=20, trials=1,
                                    trace_duration_s=0.05,
                                    flows_per_minute=120_000)
        assert 0.0 <= result.false_positive_rate <= 1.0
        assert 0.0 <= result.false_negative_rate <= 1.0
        assert result.intervals > 0
