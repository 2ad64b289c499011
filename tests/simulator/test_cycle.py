"""Tests for the cycle-accurate simulator, including exact equivalence
of the event world with the vectorized simulator under unbounded queues
(the key validation of the segmented-cummax fast path)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, PatternError
from repro.simulator import (
    StreamSimulator,
    simulate_scatter,
    simulate_scatter_cycle,
    simulate_scatter_grid,
    toy_machine,
)
from repro.workloads import broadcast, hotspot, uniform_random

from .world_reference import world_run


class TestBasics:
    def test_empty(self):
        m = toy_machine(L=9)
        assert simulate_scatter_cycle(m, []).time == 9

    def test_single_request(self):
        m = toy_machine(d=6)
        res = simulate_scatter_cycle(m, [3])
        assert res.time == 6  # starts at cycle 0, occupies the bank d cycles

    def test_broadcast(self):
        m = toy_machine(p=2, x=2, d=4)
        res = simulate_scatter_cycle(m, broadcast(20, 1))
        assert res.time >= 4 * 20
        assert res.stalled_cycles == 0  # unbounded queues never stall

    def test_requires_integer_params(self):
        m = toy_machine(d=6.5)
        with pytest.raises(ParameterError):
            simulate_scatter_cycle(m, [1, 2])

    def test_requires_positive_d(self):
        with pytest.raises(ParameterError):
            simulate_scatter_cycle(toy_machine(d=0.5), [1])

    def test_bank_loads(self):
        m = toy_machine(p=2, x=2)
        res = simulate_scatter_cycle(m, np.arange(16))
        assert res.bank_loads.sum() == 16


class TestEquivalenceWithVectorized:
    """With unbounded queues the two simulators must agree exactly —
    this property validates the segmented-cummax vectorization against
    the explicit event loop."""

    @given(
        n=st.integers(1, 250),
        p=st.integers(1, 8),
        x=st.sampled_from([0.5, 1, 2, 4]),
        d=st.sampled_from([1, 2, 6, 14]),
        g=st.sampled_from([1, 2]),
        latency=st.sampled_from([0, 3]),
        hot=st.integers(0, 100),
        seed=st.integers(0, 1000),
        assignment=st.sampled_from(["round_robin", "block"]),
    )
    @settings(max_examples=40)
    def test_exact_agreement(self, n, p, x, d, g, latency, hot, seed, assignment):
        if round(x * p) < 1:
            return
        m = toy_machine(p=p, x=x, d=d, g=g, latency=latency)
        k = min(hot, n)
        addr = (
            hotspot(n, k, 1 << 16, seed=seed)
            if k >= 1
            else uniform_random(n, 1 << 16, seed=seed)
        )
        fast = simulate_scatter(m, addr, assignment=assignment)
        slow = world_run(m, addr, assignment=assignment)
        assert fast.time == slow.time
        assert (fast.bank_loads == slow.bank_loads).all()

    def test_agreement_with_L(self):
        m = toy_machine(L=50)
        addr = uniform_random(300, 1 << 16, seed=9)
        assert simulate_scatter(m, addr).time == world_run(m, addr).time


class TestBoundedQueues:
    def test_capacity_causes_stalls(self):
        m = toy_machine(p=4, x=4, d=6, queue_capacity=1)
        addr = broadcast(64, 5)
        res = simulate_scatter_cycle(m, addr)
        assert res.stalled_cycles > 0

    def test_bounded_never_faster(self):
        m = toy_machine(p=4, x=4, d=6)
        addr = hotspot(256, 64, 1 << 16, seed=3)
        unbounded = simulate_scatter_cycle(m, addr).time
        bounded = simulate_scatter_cycle(
            m.with_(queue_capacity=2), addr
        ).time
        assert bounded >= unbounded

    def test_capacity_one_still_completes(self):
        m = toy_machine(p=2, x=1, d=3, queue_capacity=1)
        addr = uniform_random(100, 1 << 10, seed=4)
        res = simulate_scatter_cycle(m, addr)
        assert res.n == 100
        assert res.bank_loads.sum() == 100

    def test_large_capacity_equals_unbounded(self):
        m = toy_machine(p=4, x=2, d=6)
        addr = hotspot(200, 50, 1 << 16, seed=5)
        t_unb = simulate_scatter_cycle(m, addr).time
        t_cap = simulate_scatter_cycle(
            m.with_(queue_capacity=10_000), addr
        ).time
        assert t_cap == t_unb

    def test_backpressure_ablation_gap_is_modest(self):
        # The model ignores back-pressure; quantify what that gives away
        # on a hot pattern with tight queues (DESIGN.md ablation 1).
        m = toy_machine(p=4, x=4, d=6)
        addr = hotspot(512, 128, 1 << 16, seed=6)
        unbounded = simulate_scatter_cycle(m, addr).time
        tight = simulate_scatter_cycle(m.with_(queue_capacity=4), addr).time
        assert tight / unbounded < 3.0


#: Bank maps that break the one-id-in-[0, n_banks)-per-address contract.
_BAD_MAPS = {
    "negative": lambda a, nb: np.where(a % 3 == 0, -1, a % nb),
    "too_large": lambda a, nb: np.where(a % 3 == 0, nb, a % nb),
    "one_short": lambda a, nb: (a % nb)[:-1],
}


class TestBankMapChecks:
    """Every cycle-level entry point refuses a bad bank map the same
    way, before simulating anything: a ``-1`` would otherwise index the
    last bank in the tick and event engines' per-bank lists."""

    @pytest.mark.parametrize("kind", sorted(_BAD_MAPS))
    def test_bad_map_raises_pattern_error(self, kind):
        bank_map = _BAD_MAPS[kind]
        m = toy_machine(p=4, x=2, d=6)
        addr = uniform_random(64, 1 << 10, seed=1)
        for engine in ("tick", "event", "batch"):
            with pytest.raises(PatternError):
                simulate_scatter_cycle(m, addr, bank_map, engine=engine)
        with pytest.raises(PatternError):
            simulate_scatter_grid(m, [addr, addr], bank_map)
        with pytest.raises(PatternError):
            StreamSimulator(m, bank_map).feed(addr)
