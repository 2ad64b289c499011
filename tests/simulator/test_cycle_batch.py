"""Projector vs a direct event-world run — exact equivalence.

The vectorized projector in :mod:`repro.simulator.cycle_batch`, which
``engine="batch"`` and ``engine="event"`` both run, must be
bit-identical to the event world of :mod:`repro.simulator.world` fed
every request and run to completion (:func:`.world_reference.world_run`)
for *every* simulator mode: unbounded queues, bounded queues with
backpressure stalls (where the projector steps only the banks that
fill through the world and projects the rest), combining, and the
cache-hit (row buffer) extension.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulator import (
    StreamSimulator,
    simulate_scatter_cycle,
    simulate_scatter_engine,
    toy_machine,
)
from repro.simulator import cycle, cycle_batch
from repro.simulator.machine import CRAY_J90
from repro.simulator.world import EventWorld
from repro.workloads import broadcast, hotspot, uniform_random

from .world_reference import world_run


def _machines():
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
        cap=st.sampled_from([None, 1, 2, 4, 1000]),
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
    if a.telemetry is None or b.telemetry is None:
        assert a.telemetry is None and b.telemetry is None
    else:
        assert (a.telemetry.bank_busy == b.telemetry.bank_busy).all()
        assert (a.telemetry.queue_high_water
                == b.telemetry.queue_high_water).all()
        assert a.telemetry.stall_breakdown == b.telemetry.stall_breakdown


def _both(machine, addr, **kwargs):
    return (
        simulate_scatter_cycle(machine, addr, engine="batch", **kwargs),
        world_run(machine, addr, **kwargs),
    )


class TestBatchMatchesEvent:
    """Randomized configs across all modes: the batch engine must
    reproduce a direct world run's results field for field."""

    @given(
        machine=_machines(),
        n=st.integers(1, 300),
        hot=st.integers(0, 120),
        seed=st.integers(0, 10_000),
        assignment=st.sampled_from(["round_robin", "block"]),
        telemetry=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_agreement(self, machine, n, hot, seed, assignment,
                             telemetry):
        addr = _pattern(n, hot, seed)
        batch, world = _both(machine, addr, assignment=assignment,
                             telemetry=telemetry)
        _assert_identical(batch, world)

    def test_empty(self):
        m = toy_machine(L=7)
        batch, world = _both(m, [])
        _assert_identical(batch, world)
        assert batch.time == 7

    def test_single_bank(self):
        # Everything serializes through one bank: the segmented kernel
        # degenerates to one segment.
        m = toy_machine(p=1, x=1, d=6)
        batch, world = _both(m, uniform_random(200, 1 << 10, seed=3))
        _assert_identical(batch, world)

    def test_capacity_one(self):
        # The tightest possible queue bound: backpressure binds almost
        # immediately, so nearly the whole run is scalar fallback.
        m = toy_machine(p=4, x=4, d=6, queue_capacity=1)
        batch, world = _both(m, broadcast(200, 5), telemetry=True)
        assert batch.stalled_cycles > 0
        _assert_identical(batch, world)

    def test_backpressure_forces_scalar_fallback(self, monkeypatch):
        # The stall certificate must actually fire here — the result
        # must come through the scalar stepper, not the projection.
        calls = {"run": 0}
        orig = EventWorld.run

        def spy(self, *args, **kwargs):
            calls["run"] += 1
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(EventWorld, "run", spy)
        m = toy_machine(p=4, x=2, d=6, queue_capacity=1)
        addr = broadcast(120, 3)
        batch = simulate_scatter_cycle(m, addr, engine="batch")
        assert calls["run"] >= 1  # counted before the reference runs
        assert batch.stalled_cycles > 0
        _assert_identical(batch, world_run(m, addr))

    def test_burst_steps_only_its_banks(self, monkeypatch):
        # A hot burst followed by light traffic on capacity-2 queues:
        # the fallback steps only the banks the certificate found full
        # (the burst's, and any that fill as the set grows), and
        # projects the rest from the issue cycles the world's stall log
        # rebuilds.  The spy proves the world saw part of the row; the
        # comparisons prove the reduced run is exact.
        fed = []
        orig = EventWorld.run

        def spy(self, *args, **kwargs):
            fed.append(self.n_fed)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(EventWorld, "run", spy)
        rng = np.random.default_rng(11)
        n = 120
        addr = np.concatenate([
            np.zeros(n // 2, dtype=np.int64),
            rng.integers(0, 1 << 12, n - n // 2),
        ])
        m = toy_machine(p=3, x=1, d=2, g=2, latency=0, queue_capacity=2)
        batch = simulate_scatter_cycle(m, addr, engine="batch",
                                       telemetry=True)
        assert fed and all(k < n for k in fed)
        assert batch.stalled_cycles > 0
        _assert_identical(batch, world_run(m, addr, telemetry=True))
        _assert_identical(batch, simulate_scatter_cycle(
            m, addr, engine="tick", telemetry=True))

    def test_unbounded_never_goes_scalar(self, monkeypatch):
        # Without a queue bound there is no stall certificate to trip:
        # one projection must settle the whole superstep.
        def boom(*args, **kwargs):
            raise AssertionError("scalar fallback on an unbounded run")

        monkeypatch.setattr(cycle_batch, "_world", boom)
        m = toy_machine(p=8, x=2, d=6, latency=5)
        addr = hotspot(5000, 5000, 1 << 16, seed=2)
        batch = simulate_scatter_cycle(m, addr, engine="batch")
        _assert_identical(batch, world_run(m, addr))

    def test_stall_free_bounded_event_never_runs_the_world(self,
                                                           monkeypatch):
        # The served cold-mix deck's stall-free shape: a uniform
        # 4,096-address row on the capacity-8 J90.  The certificate
        # holds, so engine="event" commits the projection whole.
        m = CRAY_J90.with_(queue_capacity=8)
        addr = uniform_random(4096, 1 << 24, seed=11)
        want = world_run(m, addr, telemetry=True)

        def refuse(*args, **kwargs):
            raise AssertionError("the event world ran")

        monkeypatch.setattr(EventWorld, "run", refuse)
        got = simulate_scatter_cycle(m, addr, engine="event",
                                     telemetry=True)
        assert got.stalled_cycles == 0
        _assert_identical(got, want)


class TestWaitBound:
    """The wait bound clears a bank only where the searchsorted
    certificate finds no stall: a stall needs ``capacity`` queued
    requests, and the last of them waits past the bound."""

    @staticmethod
    def _check(s, proj, issued=None):
        every = np.ones(s.n_banks, dtype=bool)
        exact = cycle_batch._depth_check(s, proj, issued, every)
        got = cycle_batch._full_banks(s, proj, issued)
        waits = [proj.start - proj.arrival]
        if issued is not None:
            waits.append(issued.start - issued.arrival)
        longest = max(float(w.max(initial=0.0)) for w in waits)
        cheapest = min(s.d, s.hit_delay or s.d)
        if longest <= (s.capacity - 1) * cheapest:
            assert exact is None
        assert (got is None) == (exact is None)
        if got is not None:
            assert (got == exact).all()

    @given(
        machine=_machines().filter(lambda m: m.queue_capacity is not None),
        n=st.integers(1, 300),
        hot=st.integers(0, 120),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_one_shot_projection(self, machine, n, hot, seed):
        # Every mode _machines() draws, row buffers and combining
        # included: the projection the fold certifies.
        s = cycle._prepare(machine, _pattern(n, hot, seed), None,
                           "round_robin", None)
        work = cycle_batch._survivors(s.batch.issue, s.banks,
                                      s.batch.addresses, s.survives)
        (proj,) = cycle_batch._project((s,), (work,))
        self._check(s, proj)

    @given(
        machine=_machines().filter(
            lambda m: m.queue_capacity is not None and not m.combining),
        n=st.integers(2, 300),
        hot=st.integers(0, 120),
        seed=st.integers(0, 10_000),
        cut=st.floats(0.1, 0.9),
    )
    @settings(max_examples=80, deadline=None)
    def test_stream_chunk_with_pending(self, machine, n, hot, seed, cut):
        # A stream chunk's projection, checked against the requests
        # still pending from the chunks before it, as _consume does.
        addr = _pattern(n, hot, seed)
        head = max(1, int(n * cut))
        sim = StreamSimulator(machine)
        sim.feed(addr[:head])
        assume(sim._world is None)  # a stalled session has no carry
        s, chunk = sim._s, addr[head:]
        idx = np.arange(head, n, dtype=np.int64)
        issue = (idx // s.p).astype(np.float64) * float(s.g)
        (proj,) = cycle_batch._project(
            (s,), (cycle_batch._Work(issue, chunk % s.n_banks, chunk,
                                     cycle_batch._NONE),),
            sim._floors, sim._last_addr)
        self._check(s, proj, sim._pend)

    def test_stall_free_bounded_rows_skip_the_search(self, monkeypatch):
        # The served deck's stall-free shape, one-shot and as stream
        # chunks: every wait is within the bound, so no row sorts or
        # searches.
        m = CRAY_J90.with_(queue_capacity=8)
        addr = uniform_random(4096, 1 << 24, seed=11)
        want = world_run(m, addr, telemetry=True)

        def refuse(*args, **kwargs):
            raise AssertionError("the searchsorted certificate ran")

        monkeypatch.setattr(cycle_batch, "_depth_check", refuse)
        _assert_identical(
            simulate_scatter_cycle(m, addr, telemetry=True), want)
        sim = StreamSimulator(m, telemetry=True, max_chunk=512)
        _assert_identical(sim.feed(addr).result, want)
        assert sim._world is None


class TestBatchEntryPoint:
    def test_wrapper_matches_engine_selector(self):
        m = toy_machine(p=4, x=2, d=6, combining=True)
        addr = broadcast(64, 9)
        _assert_identical(
            simulate_scatter_engine(m, addr, engine="batch"),
            simulate_scatter_cycle(m, addr, engine="batch"),
        )

    def test_runaway_parity(self):
        # The engine and the world must reject the same budget the same
        # way.
        m = toy_machine(p=2, x=1, d=6)
        addr = broadcast(500, 4)
        with pytest.raises(SimulationError):
            simulate_scatter_cycle(m, addr, max_cycles=30, engine="batch")
        with pytest.raises(SimulationError):
            world_run(m, addr, max_cycles=30)

    def test_runaway_bounded_parity(self):
        m = toy_machine(p=4, x=4, d=6, queue_capacity=1)
        addr = broadcast(200, 5)
        with pytest.raises(SimulationError):
            simulate_scatter_cycle(m, addr, max_cycles=50, engine="batch")
        with pytest.raises(SimulationError):
            world_run(m, addr, max_cycles=50)


class TestBatchOnExperimentGrids:
    """Sanitized smoke grids of the paper's three experiments: batch
    must be bit-identical to a direct world run on every point, with
    the conservation sanitizer enabled."""

    def test_exp1_hotspot_grid(self):
        from repro.experiments.common import j90
        m = j90()
        n, space = 1024, 1 << 20
        for k in (1, 4, 32, 256, n):
            addr = hotspot(n, k, space, seed=1995)
            batch, world = _both(m, addr, sanitize=True, telemetry=True)
            _assert_identical(batch, world)

    def test_exp2_multihot_grid(self):
        from repro.experiments.common import j90
        from repro.workloads.patterns import multi_hotspot
        m = j90()
        n, space = 1024, 1 << 20
        for n_hot, fraction in ((1, 0.25), (4, 0.5), (16, 0.9)):
            addr = multi_hotspot(n, n_hot, fraction, space, seed=1995)
            batch, world = _both(m, addr, sanitize=True, telemetry=True)
            _assert_identical(batch, world)

    def test_exp3_entropy_grid(self):
        from repro.experiments.common import j90
        from repro.workloads.entropy import entropy_family
        m = j90()
        for keys in entropy_family(1024, 10, 4, seed=1995):
            batch, world = _both(m, np.asarray(keys), sanitize=True,
                                 telemetry=True)
            _assert_identical(batch, world)


class TestFifoOrder:
    """``_fifo_order`` is the one place that knows the kernels' service
    order; it must return exactly the permutation of the lexsort it
    replaces."""

    @staticmethod
    def _lexsort(ids, times):
        return np.lexsort((np.arange(ids.size), times, ids))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 300),
        n_ids=st.sampled_from([1, 3, 1024, 1 << 16, 1 << 17]),
        rows=st.integers(1, 80),
        span=st.sampled_from([1, 4, 1000]),
        shape=st.sampled_from(["sorted", "unsorted", "real"]),
        seed=st.integers(0, 10**6),
    )
    def test_matches_lexsort(self, n, n_ids, rows, span, shape, seed):
        rng = np.random.default_rng(seed)
        times = rng.integers(0, span, n).astype(np.float64)  # span 1: all tied
        if shape == "sorted":
            times.sort()
        elif shape == "real":
            times = times / 3.0
        # Lift ids the way a stacked grid does, past 2^16 for wide rows.
        ids = (rng.integers(0, n_ids, n)
               + rng.integers(0, rows, n) * np.int64(n_ids))
        order = cycle_batch._fifo_order(ids, times)
        assert order.dtype == np.intp
        assert np.array_equal(order, self._lexsort(ids, times))

    def test_ids_of_three_digits(self):
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 1 << 40, 500)
        times = rng.integers(0, 3, 500).astype(np.float64)
        assert np.array_equal(cycle_batch._fifo_order(ids, times),
                              self._lexsort(ids, times))
