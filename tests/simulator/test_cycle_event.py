"""Event engine vs reference tick loop — exact equivalence.

``engine="event"`` (the projector of :mod:`repro.simulator.cycle_batch`,
stepping the event world only where a queue fills) must be
bit-identical to the retained per-cycle reference loop for *every*
simulator mode: unbounded queues, bounded queues with stall accounting,
combining, and the cache-hit (row buffer) extension.  These properties
are the contract that lets the tick loop stay as executable
documentation while the event engine does all the real work.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.simulator import simulate_scatter, simulate_scatter_cycle, toy_machine
from repro.workloads import broadcast, hotspot, uniform_random

from .world_reference import world_run


def _machines(draw_none_capacity=True):
    """Strategy for machine configs spanning every simulator mode."""
    return st.builds(
        lambda p, x, d, g, latency, L, cap, comb, hit: toy_machine(
            p=p, x=x, d=d, g=g, latency=latency, L=L,
            queue_capacity=cap, combining=comb,
            cache_hit_delay=min(hit, d) if hit is not None else None,
        ),
        p=st.integers(1, 8),
        x=st.sampled_from([0.5, 1, 2, 4]),
        d=st.sampled_from([1, 2, 6, 14]),
        g=st.sampled_from([1, 2]),
        latency=st.sampled_from([0, 3, 7]),
        L=st.sampled_from([0, 25]),
        cap=st.sampled_from(
            [None, 1, 2, 4, 1000] if draw_none_capacity else [None]
        ),
        comb=st.booleans(),
        hit=st.sampled_from([None, 1, 2]),
    ).filter(lambda m: round(m.x * m.p) >= 1)


def _pattern(n, hot, seed):
    k = min(hot, n)
    if k >= 1:
        return hotspot(n, k, 1 << 16, seed=seed)
    return uniform_random(n, 1 << 16, seed=seed)


def _assert_identical(a, b):
    assert a.time == b.time
    assert (a.bank_loads == b.bank_loads).all()
    assert a.max_wait == b.max_wait
    assert a.mean_wait == b.mean_wait
    assert a.stalled_cycles == b.stalled_cycles


class TestEventMatchesTick:
    """Randomized configs across all modes: the event engine must
    reproduce the tick loop's results field for field."""

    @given(
        machine=_machines(),
        n=st.integers(1, 300),
        hot=st.integers(0, 120),
        seed=st.integers(0, 10_000),
        assignment=st.sampled_from(["round_robin", "block"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_agreement(self, machine, n, hot, seed, assignment):
        addr = _pattern(n, hot, seed)
        tick = simulate_scatter_cycle(machine, addr, assignment=assignment,
                                      engine="tick")
        event = simulate_scatter_cycle(machine, addr, assignment=assignment,
                                       engine="event")
        _assert_identical(event, tick)

    def test_broadcast_bounded(self):
        # All-hot traffic against capacity-1 queues: the stall-heaviest
        # corner, where the closed-form stall accrual must track the
        # tick loop's per-cycle count exactly.
        m = toy_machine(p=4, x=4, d=6, queue_capacity=1)
        addr = broadcast(200, 5)
        _assert_identical(
            simulate_scatter_cycle(m, addr, engine="event"),
            simulate_scatter_cycle(m, addr, engine="tick"),
        )

    def test_combining_collapses_duplicates(self):
        m = toy_machine(p=4, x=2, d=6, combining=True)
        addr = broadcast(64, 9)
        _assert_identical(
            simulate_scatter_cycle(m, addr, engine="event"),
            simulate_scatter_cycle(m, addr, engine="tick"),
        )

    def test_cache_hit_runs(self):
        m = toy_machine(p=2, x=2, d=6, cache_hit_delay=1)
        addr = broadcast(128, 3)
        _assert_identical(
            simulate_scatter_cycle(m, addr, engine="event"),
            simulate_scatter_cycle(m, addr, engine="tick"),
        )

    def test_empty(self):
        m = toy_machine(L=7)
        assert simulate_scatter_cycle(m, [], engine="event").time == \
            simulate_scatter_cycle(m, [], engine="tick").time == 7


class TestEventMatchesVectorized:
    """With unbounded queues the event world, run alone, must also
    agree with the vectorized :func:`simulate_scatter`."""

    @given(
        machine=_machines(draw_none_capacity=False),
        n=st.integers(1, 300),
        hot=st.integers(0, 120),
        seed=st.integers(0, 10_000),
        assignment=st.sampled_from(["round_robin", "block"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_unbounded_agreement(self, machine, n, hot, seed, assignment):
        addr = _pattern(n, hot, seed)
        fast = simulate_scatter(machine, addr, assignment=assignment)
        event = world_run(machine, addr, assignment=assignment)
        assert event.time == fast.time
        assert (event.bank_loads == fast.bank_loads).all()


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ParameterError):
            simulate_scatter_cycle(toy_machine(), [1, 2], engine="warp")

    def test_default_is_event(self):
        # The default engine must handle a pattern large enough that the
        # tick loop would be visibly slow — smoke proof it is not the
        # tick path (completes instantly) and still agrees with banksim.
        m = toy_machine(p=8, x=2, d=6)
        addr = hotspot(20_000, 20_000, 1 << 20, seed=1)
        res = simulate_scatter_cycle(m, addr)
        assert res.time == simulate_scatter(m, addr).time


class TestRunawayDiagnostics:
    def test_bounded_queue_bound_scales_with_capacity(self):
        # A capacity-1 machine on all-hot traffic needs far more cycles
        # than the unbounded bound; satellite fix: the default bound
        # grows with the stall budget instead of aborting spuriously.
        m = toy_machine(p=4, x=4, d=14, queue_capacity=1)
        addr = broadcast(300, 2)
        res = simulate_scatter_cycle(m, addr)  # must not raise
        assert res.stalled_cycles > 0

    def test_runaway_error_reports_stalls(self):
        from repro.errors import SimulationError

        m = toy_machine(p=4, x=4, d=6, queue_capacity=1)
        addr = broadcast(200, 5)
        with pytest.raises(SimulationError) as exc:
            simulate_scatter_cycle(m, addr, max_cycles=50)
        msg = str(exc.value)
        assert "stall" in msg and "queue_capacity" in msg

    def test_both_engines_raise_on_max_cycles(self):
        from repro.errors import SimulationError

        m = toy_machine(p=2, x=1, d=6)
        addr = broadcast(500, 4)
        for engine in ("event", "tick"):
            with pytest.raises(SimulationError):
                simulate_scatter_cycle(m, addr, max_cycles=30, engine=engine)
