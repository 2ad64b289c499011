"""Tests for the vectorized bank simulator, including a pure-Python FIFO
oracle for fifo_service_times."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import predict_scatter_dxbsp
from repro.errors import PatternError, SimulationError
from repro.simulator import (
    RequestBatch,
    fifo_service_times,
    fifo_service_times_cached,
    simulate_batch,
    simulate_scatter,
    toy_machine,
)
from repro.workloads import broadcast, distinct_random, hotspot, uniform_random


def fifo_reference(arrivals, servers, gap):
    """Obviously-correct per-server FIFO with one start per `gap` cycles."""
    arrivals = np.asarray(arrivals, dtype=np.float64)
    servers = np.asarray(servers)
    order = sorted(range(arrivals.size),
                   key=lambda i: (servers[i], arrivals[i], i))
    free = {}
    start = np.empty(arrivals.size)
    for i in order:
        s = servers[i]
        start[i] = max(arrivals[i], free.get(s, -np.inf))
        free[s] = start[i] + gap
    return start


class TestFifoServiceTimes:
    def test_single_server_serializes(self):
        start = fifo_service_times(np.zeros(5), np.zeros(5, dtype=int), gap=3)
        assert (np.sort(start) == [0, 3, 6, 9, 12]).all()

    def test_zero_gap_passthrough(self):
        arr = np.array([5.0, 1.0, 3.0])
        start = fifo_service_times(arr, np.zeros(3, dtype=int), gap=0)
        assert (start == arr).all()

    def test_idle_gaps_respected(self):
        # Arrivals far apart: no queueing, start == arrival.
        arr = np.array([0.0, 100.0, 200.0])
        start = fifo_service_times(arr, np.zeros(3, dtype=int), gap=6)
        assert (start == arr).all()

    def test_tie_broken_by_input_order(self):
        start = fifo_service_times(np.zeros(3), np.zeros(3, dtype=int), gap=1)
        assert (start == [0, 1, 2]).all()

    def test_servers_independent(self):
        start = fifo_service_times(
            np.zeros(4), np.array([0, 1, 0, 1]), gap=5
        )
        assert (np.sort(start) == [0, 0, 5, 5]).all()

    def test_empty(self):
        assert fifo_service_times(np.zeros(0), np.zeros(0, dtype=int), 3).size == 0

    def test_negative_gap_rejected(self):
        with pytest.raises(SimulationError):
            fifo_service_times(np.zeros(2), np.zeros(2, dtype=int), -1)

    def test_shape_mismatch(self):
        with pytest.raises(PatternError):
            fifo_service_times(np.zeros(2), np.zeros(3, dtype=int), 1)

    @pytest.mark.parametrize("gap", [2.0, 0.0])
    def test_server_ids_checked(self, gap):
        # A negative id must not wrap around to the last seed, and an id
        # past the seed width is a pattern error, as on the batched path.
        arr = np.array([0.0, 0.0, 1.0])
        for ids in ([-1, 0, 0], [3, 0, 0]):
            with pytest.raises(PatternError):
                fifo_service_times(arr, np.array(ids), gap,
                                   init_free=np.array([5.0, 0.0]))
        with pytest.raises(PatternError):
            fifo_service_times(arr, np.array([0, -1, 0]), gap)
        with pytest.raises(PatternError):
            fifo_service_times(arr, np.array([0.0, 1.0, 0.0]), gap)

    def test_cached_server_ids_checked(self):
        arr = np.array([0.0, 0.0, 1.0])
        addr = np.array([4, 4, 5])
        for ids in ([-1, 0, 0], [0, 3, 0]):
            with pytest.raises(PatternError):
                fifo_service_times_cached(arr, np.array(ids), addr, 6.0,
                                          2.0, init_addr=np.array([4, 5]))
            with pytest.raises(PatternError):
                fifo_service_times_cached(arr, np.array(ids), addr, 6.0,
                                          2.0, init_free=np.zeros(2))
        # The narrower of the two seeds bounds the ids.
        with pytest.raises(PatternError):
            fifo_service_times_cached(arr, np.array([0, 2, 0]), addr, 6.0,
                                      2.0, init_free=np.zeros(3),
                                      init_addr=np.array([4, 5]))

    @given(
        n=st.integers(1, 120),
        n_servers=st.integers(1, 8),
        gap=st.sampled_from([1, 2, 6, 14]),
        seed=st.integers(0, 1000),
    )
    def test_matches_reference(self, n, n_servers, gap, seed):
        rng = np.random.default_rng(seed)
        arrivals = rng.integers(0, 50, size=n).astype(np.float64)
        servers = rng.integers(0, n_servers, size=n)
        fast = fifo_service_times(arrivals, servers, gap)
        ref = fifo_reference(arrivals, servers, gap)
        assert np.array_equal(fast, ref)

    @given(
        n=st.integers(1, 100),
        gap=st.sampled_from([1, 3, 7]),
        seed=st.integers(0, 100),
    )
    def test_start_invariants(self, n, gap, seed):
        rng = np.random.default_rng(seed)
        arrivals = rng.integers(0, 30, size=n).astype(np.float64)
        servers = rng.integers(0, 4, size=n)
        start = fifo_service_times(arrivals, servers, gap)
        assert (start >= arrivals).all()
        # Per server: consecutive sorted starts separated by >= gap.
        for s in np.unique(servers):
            mine = np.sort(start[servers == s])
            if mine.size > 1:
                assert (np.diff(mine) >= gap - 1e-9).all()


class TestSimulateScatter:
    def test_empty_pattern_costs_L(self):
        m = toy_machine(L=42)
        assert simulate_scatter(m, []).time == 42

    def test_broadcast_serializes_at_d(self):
        m = toy_machine(p=4, x=4, d=6)
        res = simulate_scatter(m, broadcast(100, 3))
        # All to one bank: d cycles per request, plus pipeline fill.
        assert res.time >= 6 * 100
        assert res.time <= 6 * 100 + 100
        assert res.max_bank_load == 100

    def test_balanced_pattern_near_pipeline_bound(self):
        m = toy_machine(p=4, x=16, d=6)
        addr = distinct_random(8192, 1 << 20, seed=0)
        res = simulate_scatter(m, addr)
        ideal = 8192 / 4
        assert res.time >= ideal
        assert res.time <= 2.2 * ideal  # random imbalance + fill only

    def test_tracks_dxbsp_prediction(self):
        m = toy_machine(p=4, x=4, d=6)
        for k in [1, 64, 512]:
            addr = hotspot(4096, k, 1 << 20, seed=k)
            sim = simulate_scatter(m, addr).time
            pred = predict_scatter_dxbsp(m.params(), addr)
            assert sim == pytest.approx(pred, rel=0.30)
            assert sim >= pred - 1e-9  # prediction is a lower bound here

    def test_latency_shifts_completion(self):
        m = toy_machine()
        addr = uniform_random(500, 1 << 16, seed=1)
        t0 = simulate_scatter(m, addr).time
        t5 = simulate_scatter(m.with_(latency=5), addr).time
        assert t5 == pytest.approx(t0 + 5)

    def test_L_added_once(self):
        m = toy_machine()
        addr = uniform_random(500, 1 << 16, seed=1)
        t0 = simulate_scatter(m, addr).time
        tL = simulate_scatter(m.with_(L=100), addr).time
        assert tL == pytest.approx(t0 + 100)

    def test_bank_loads_sum_to_n(self):
        m = toy_machine()
        res = simulate_scatter(m, uniform_random(1000, 1 << 16, seed=2))
        assert res.bank_loads.sum() == 1000
        assert res.n == 1000

    def test_custom_bank_map_used(self):
        m = toy_machine(p=2, x=2, d=4)
        addr = np.arange(64)
        # Map everything to bank 0: fully serial.
        res = simulate_scatter(m, addr, bank_map=lambda a, b: np.zeros_like(a))
        assert res.time >= 4 * 64

    def test_assignment_modes_close(self):
        m = toy_machine()
        addr = uniform_random(2000, 1 << 16, seed=3)
        t_rr = simulate_scatter(m, addr, assignment="round_robin").time
        t_bl = simulate_scatter(m, addr, assignment="block").time
        assert t_bl == pytest.approx(t_rr, rel=0.2)

    def test_bad_bank_map_rejected(self):
        m = toy_machine()
        with pytest.raises(PatternError):
            simulate_scatter(m, np.arange(10), bank_map=lambda a, b: a + b)

    def test_simulate_batch_bank_alignment_checked(self):
        m = toy_machine()
        batch = RequestBatch.from_addresses(np.arange(8), m)
        with pytest.raises(PatternError):
            simulate_batch(m, batch, np.zeros(4, dtype=np.int64))

    def test_waits_nonnegative(self):
        m = toy_machine()
        res = simulate_scatter(m, hotspot(512, 256, 1 << 16, seed=4))
        assert res.max_wait >= res.mean_wait >= 0

    @given(
        n=st.integers(1, 400),
        k=st.integers(1, 100),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=15)
    def test_lower_bounds_hold(self, n, k, seed):
        k = min(k, n)
        m = toy_machine(p=4, x=4, d=6)
        addr = hotspot(n, k, 1 << 20, seed=seed)
        res = simulate_scatter(m, addr)
        # Fundamental lower bounds of the model.
        assert res.time >= m.d * k        # hot location serializes
        assert res.time >= m.g * (n / m.p)  # pipeline bound
