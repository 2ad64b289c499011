"""Tests for the simulator extensions: combining networks [Ran91] and
cached-DRAM banks [HS93] — effects the paper names as outside the
(d,x)-BSP, built here as extensions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, SimulationError
from repro.simulator import (
    fifo_service_times,
    fifo_service_times_cached,
    simulate_scatter,
    simulate_scatter_cycle,
    toy_machine,
)
from repro.workloads import broadcast, hotspot, uniform_random

from .world_reference import world_run


class TestCombining:
    def test_broadcast_nearly_free(self):
        m = toy_machine(p=4, x=4, d=6)
        addr = broadcast(1000, 3)
        plain = simulate_scatter(m, addr).time
        combined = simulate_scatter(m.with_(combining=True), addr).time
        assert plain >= 6 * 1000
        # One survivor: issue window + single service.
        assert combined <= 1000 / 4 + 6 + 1

    def test_distinct_pattern_unchanged(self):
        m = toy_machine()
        addr = uniform_random(512, 1 << 30, seed=0)  # ~all distinct
        if np.unique(addr).size == addr.size:
            t0 = simulate_scatter(m, addr).time
            t1 = simulate_scatter(m.with_(combining=True), addr).time
            assert t0 == t1

    def test_never_slower(self):
        m = toy_machine()
        for seed in range(3):
            addr = hotspot(600, 100, 1 << 16, seed=seed)
            t0 = simulate_scatter(m, addr).time
            t1 = simulate_scatter(m.with_(combining=True), addr).time
            assert t1 <= t0

    def test_time_at_least_issue_window(self):
        m = toy_machine(p=4, g=2)
        addr = broadcast(400, 1)
        t = simulate_scatter(m.with_(combining=True), addr).time
        assert t >= (400 / 4 - 1) * 2  # all requests still issue

    def test_bank_loads_reflect_survivors(self):
        m = toy_machine(p=4, x=4)
        res = simulate_scatter(m.with_(combining=True), broadcast(50, 2))
        assert res.bank_loads.sum() == 1
        assert res.n == 50


class TestCachedBanks:
    def test_hot_location_services_at_hit_rate(self):
        m = toy_machine(p=4, x=4, d=6).with_(cache_hit_delay=1)
        addr = broadcast(1000, 3)
        t = simulate_scatter(m, addr).time
        # First access d, rest at hit rate 1.
        assert t == pytest.approx(6 + 999 * 1, abs=30)

    def test_distinct_addresses_unaffected(self):
        base = toy_machine(p=2, x=2, d=5)
        addr = np.arange(200)  # round-robin over banks: no repeats at a bank
        t0 = simulate_scatter(base, addr).time
        t1 = simulate_scatter(base.with_(cache_hit_delay=1), addr).time
        # addresses stride-1 over 4 banks: consecutive requests at a bank
        # are different addresses -> all misses -> identical time.
        assert t0 == t1

    def test_invalid_hit_delay(self):
        with pytest.raises(ParameterError):
            toy_machine(d=6).with_(cache_hit_delay=7)
        with pytest.raises(ParameterError):
            toy_machine(d=6).with_(cache_hit_delay=0)

    def test_never_slower_than_uncached(self):
        base = toy_machine(p=4, x=4, d=6)
        for seed in range(3):
            addr = hotspot(500, 120, 1 << 16, seed=seed)
            t_plain = simulate_scatter(base, addr).time
            t_cache = simulate_scatter(
                base.with_(cache_hit_delay=2), addr
            ).time
            assert t_cache <= t_plain

    def test_fifo_cached_validation(self):
        with pytest.raises(SimulationError):
            fifo_service_times_cached(
                np.zeros(2), np.zeros(2, dtype=int), np.zeros(2, dtype=int),
                miss_cost=2.0, hit_cost=3.0,
            )

    def test_fifo_cached_reduces_to_plain_when_costs_equal(self):
        rng = np.random.default_rng(1)
        arr = rng.integers(0, 40, size=80).astype(np.float64)
        srv = rng.integers(0, 4, size=80)
        adr = rng.integers(0, 10, size=80)
        start_plain = fifo_service_times(arr, srv, 6.0)
        start_cached, cost = fifo_service_times_cached(arr, srv, adr, 6.0, 6.0)
        assert np.array_equal(start_plain, start_cached)
        assert (cost == 6.0).all()


class TestExtensionEquivalence:
    """The cycle-accurate event world must agree exactly with the
    vectorized simulator under both extensions."""

    @given(
        n=st.integers(1, 200),
        hot=st.integers(0, 80),
        seed=st.integers(0, 200),
        combining=st.booleans(),
        hit=st.sampled_from([None, 1, 3]),
    )
    @settings(max_examples=30)
    def test_exact_agreement(self, n, hot, seed, combining, hit):
        m = toy_machine(p=4, x=2, d=6).with_(
            combining=combining, cache_hit_delay=hit
        )
        k = min(hot, n)
        addr = (
            hotspot(n, k, 1 << 14, seed=seed)
            if k >= 1
            else uniform_random(n, 1 << 14, seed=seed)
        )
        fast = simulate_scatter(m, addr)
        slow = world_run(m, addr)
        assert fast.time == slow.time
        assert (fast.bank_loads == slow.bank_loads).all()
        assert fast.max_wait == slow.max_wait
        assert fast.mean_wait == slow.mean_wait

    def test_cycle_requires_integer_hit_delay(self):
        m = toy_machine(d=6).with_(cache_hit_delay=1.5)
        with pytest.raises(ParameterError):
            simulate_scatter_cycle(m, [1, 2])
