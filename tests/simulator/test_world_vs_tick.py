"""The shared event world and the shared projector against the
independent tick oracle.

``engine="event"`` and ``engine="batch"``, the grid (of which they are
the one-row call) and every stream chunk project and commit through
:mod:`repro.simulator.cycle_batch`; the one event world of
:mod:`repro.simulator.world` steps only a row whose stall certificate
failed and a bounded stream from its first stalled chunk on.  Comparing
those paths with each other only checks the shared code against
itself, so ``engine="tick"`` is the one independent oracle left: every
check here compares with it, telemetry on, including the per-processor
stall counts the world accrues in closed form for parked processors.
The world is also checked on its own, fed every request and run to
completion, since no engine runs it that way any more.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.mapping.hashing import HASH_FAMILIES
from repro.simulator import (
    StreamSimulator,
    simulate_scatter_cycle,
    simulate_scatter_grid,
    toy_machine,
)
from repro.simulator import cycle_grid
from repro.simulator.machine import CRAY_J90
from repro.simulator.world import EventWorld
from repro.workloads import broadcast, hotspot, uniform_random
from repro.workloads.patterns import zipf_pattern

from .test_cycle_batch import _machines, _pattern
from .world_reference import world_run


def _assert_identical(a, b):
    assert a.time == b.time
    assert a.n == b.n
    assert (a.bank_loads == b.bank_loads).all()
    assert a.max_wait == b.max_wait
    assert a.mean_wait == b.mean_wait
    assert a.stalled_cycles == b.stalled_cycles
    ta, tb = a.telemetry, b.telemetry
    assert (ta.bank_busy == tb.bank_busy).all()
    assert (ta.queue_high_water == tb.queue_high_water).all()
    assert ta.stall_breakdown == tb.stall_breakdown
    assert (ta.proc_stalls == tb.proc_stalls).all()
    assert ta.makespan == tb.makespan


def _tick(machine, addr, bank_map=None, **kwargs):
    return simulate_scatter_cycle(machine, addr, bank_map, engine="tick",
                                  telemetry=True, **kwargs)


def _engine(machine, addr, engine, bank_map=None, **kwargs):
    return simulate_scatter_cycle(machine, addr, bank_map, engine=engine,
                                  telemetry=True, **kwargs)


def _chunks(addr, cuts):
    bounds = [0] + sorted({min(c, addr.size) for c in cuts}) + [addr.size]
    return [addr[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class TestEveryPathMatchesTick:
    @given(
        machine=_machines(),
        n=st.integers(1, 300),
        hot=st.integers(0, 120),
        seed=st.integers(0, 10_000),
        assignment=st.sampled_from(["round_robin", "block"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_world_run_to_completion(self, machine, n, hot, seed,
                                     assignment):
        # The stepper alone, with no projection in front of it: every
        # mode _machines() draws (capacity-1 queues, combining, row
        # buffers) under both assignments.
        addr = _pattern(n, hot, seed)
        _assert_identical(
            world_run(machine, addr, assignment=assignment,
                      telemetry=True),
            _tick(machine, addr, assignment=assignment),
        )

    @given(
        machine=_machines(),
        n=st.integers(1, 300),
        hot=st.integers(0, 120),
        seed=st.integers(0, 10_000),
        assignment=st.sampled_from(["round_robin", "block"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_event_and_batch(self, machine, n, hot, seed, assignment):
        addr = _pattern(n, hot, seed)
        tick = _tick(machine, addr, assignment=assignment)
        for engine in ("event", "batch"):
            _assert_identical(
                _engine(machine, addr, engine, assignment=assignment), tick
            )

    @given(
        machine=_machines().filter(lambda m: not m.combining),
        n=st.integers(1, 200),
        hot=st.integers(0, 80),
        seed=st.integers(0, 10_000),
        cuts=st.lists(st.integers(0, 200), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_stream_fed_in_random_chunks(self, machine, n, hot, seed,
                                         cuts):
        addr = _pattern(n, hot, seed)
        sim = StreamSimulator(machine, telemetry=True)
        fed = 0
        for block in _chunks(addr, cuts):
            fed += block.size
            _assert_identical(sim.feed(block).result,
                              _tick(machine, addr[:fed]))

    @given(
        rows=st.lists(
            st.tuples(_machines(), st.integers(0, 120),
                      st.integers(0, 10_000)),
            min_size=1, max_size=4,
        ),
        n=st.integers(1, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_rows(self, rows, n):
        # One length for every row, so rows without combining stack
        # into one kernel call even across mixed machines; bounded
        # rows whose certificate fails finish through the fallback.
        machines = [m for m, _, _ in rows]
        patterns = [_pattern(n, hot, seed) for _, hot, seed in rows]
        fused = simulate_scatter_grid(machines, patterns, telemetry=True)
        for got, m, addr in zip(fused, machines, patterns):
            _assert_identical(got, _tick(m, addr))


def _three_bursts():
    """Three hot bursts separated by light traffic, on a machine whose
    capacity-2 queues overflow in each burst."""
    rng = np.random.default_rng(2)
    addr = np.concatenate([
        part for k in range(3) for part in (
            np.full(30, 7 + k, dtype=np.int64),
            rng.integers(0, 1 << 12, 90),
        )
    ])
    return toy_machine(p=3, x=2, d=2, g=2, latency=0,
                       queue_capacity=2), addr


@contextlib.contextmanager
def _world_runs():
    """Record each event-world run as ``[n_fed, outcome]``: ``True``
    (completed), ``False`` (paused at its horizon) or ``"raised"``."""
    runs = []
    orig = EventWorld.run

    def spy(self, *args, **kwargs):
        runs.append([self.n_fed, "raised"])
        runs[-1][1] = orig(self, *args, **kwargs)
        return runs[-1][1]

    with mock.patch.object(EventWorld, "run", spy):
        yield runs


class TestWorldSeams:
    def test_batch_steps_only_the_burst_banks(self):
        # Three hot bursts separated by light traffic: the bursts fail
        # the certificate, and the reduced run steps the banks they
        # fill while every other request is projected around them.
        m, addr = _three_bursts()
        with _world_runs() as runs:
            batch = _engine(m, addr, "batch")
        assert runs and all(n_fed < addr.size for n_fed, _ in runs)
        assert batch.stalled_cycles > 0
        _assert_identical(batch, _tick(m, addr))
        _assert_identical(batch, world_run(m, addr, telemetry=True))

    def test_grid_row_takes_the_reduced_run(self, monkeypatch):
        # The same bursts as a grid row stacked with an unbounded row:
        # the bounded row leaves the fused projection for the reduced
        # run; the unbounded row stays committed.
        fell_back = []
        orig = cycle_grid._row_fallback

        def spy(machine, *args):
            fell_back.append(machine)
            return orig(machine, *args)

        monkeypatch.setattr(cycle_grid, "_row_fallback", spy)
        m, addr = _three_bursts()
        machines = [m, m.with_(queue_capacity=None)]
        with _world_runs() as runs:
            fused = simulate_scatter_grid(machines, [addr, addr],
                                          telemetry=True)
        assert fell_back == [m]
        assert runs and all(n_fed < addr.size for n_fed, _ in runs)
        assert fused[0].stalled_cycles > 0
        for got, machine in zip(fused, machines):
            _assert_identical(got, _tick(machine, addr))
            _assert_identical(got, world_run(machine, addr,
                                             telemetry=True))

    def test_grid_maps_each_row_once(self):
        # A row whose certificate fails finishes from the setup the
        # grid already built, so its bank map is not evaluated again.
        calls = [0, 0, 0]

        def counting(row):
            def bank_map(addresses, n_banks):
                calls[row] += 1
                return addresses % n_banks
            return bank_map

        stalling = toy_machine(p=4, x=4, d=6, queue_capacity=1)
        machines = [stalling, toy_machine(p=4, x=4, d=6),
                    toy_machine(p=4, x=4, d=6, queue_capacity=1000)]
        patterns = [broadcast(200, 5), broadcast(200, 5),
                    uniform_random(200, 1 << 16, seed=1)]
        fused = simulate_scatter_grid(
            machines, patterns, [counting(r) for r in range(3)],
            telemetry=True,
        )
        assert calls == [1, 1, 1]
        assert fused[0].stalled_cycles > 0
        for got, m, addr in zip(fused, machines, patterns):
            _assert_identical(got, _tick(m, addr))

    def test_paused_stream_with_parked_processors(self):
        # Capacity-1 queues behind one hot address: at every horizon
        # processors sit parked, so the pause must have counted their
        # stalls, a checkpoint must carry them, and a clone drain must
        # leave the live world where it was.
        m = toy_machine(p=4, x=1, d=6, latency=3, queue_capacity=1)
        addr = broadcast(120, 9)
        sim = StreamSimulator(m, telemetry=True, max_chunk=16)
        sim.feed(addr[:50])
        world = sim._world
        assert world.n_blocked > 0 and world.parked
        t_live = world.t
        _assert_identical(sim.result(), _tick(m, addr[:50]))
        assert world.t == t_live and world.n_blocked > 0

        restored = StreamSimulator(m, telemetry=True, max_chunk=16)
        restored.load_state(sim.state())
        for s in (sim, restored):
            _assert_identical(s.feed(addr[50:]).result, _tick(m, addr))

    def test_capacity_one_broadcast_parks_every_processor(self):
        m = toy_machine(p=8, x=2, d=6, latency=2, queue_capacity=1)
        addr = broadcast(160, 3)
        tick = _tick(m, addr)
        assert (tick.telemetry.proc_stalls > 0).all()
        for engine in ("event", "batch"):
            _assert_identical(_engine(m, addr, engine), tick)
        sim = StreamSimulator(m, telemetry=True)
        sim.feed(addr[:40])
        assert sim._world.n_blocked == m.p
        assert len(sim._world.parked) == 1
        _assert_identical(sim.feed(addr[40:]).result, tick)


#: The served cold-mix deck's bounded J90 shapes at n = 4096.
_COLD_SHAPES = [
    ("uniform", None), ("uniform", "h1"), ("hotspot", None),
    ("zipf", "h1"), ("zipf", "h3"),
]


def _cold_pattern(kind, seed):
    space = 1 << 24
    if kind == "uniform":
        return uniform_random(4096, space, seed=seed)
    if kind == "hotspot":
        return hotspot(4096, 64, space, seed=seed)
    return zipf_pattern(4096, space, 1.2, seed=seed)


class TestColdMixShapes:
    @pytest.mark.parametrize("kind,map_kind", _COLD_SHAPES)
    def test_bounded_j90_4k(self, kind, map_kind):
        m = CRAY_J90.with_(queue_capacity=8)
        addr = _cold_pattern(kind, seed=11)
        bank_map = None if map_kind is None else HASH_FAMILIES[map_kind](7)
        tick = _tick(m, addr, bank_map)
        for engine in ("event", "batch"):
            _assert_identical(_engine(m, addr, engine, bank_map), tick)
        sim = StreamSimulator(m, bank_map, telemetry=True, max_chunk=1000)
        _assert_identical(sim.feed(addr).result, tick)


#: Configs whose max_cycles budget runs out mid-run: unbounded,
#: bounded with every processor parked, bounded with latency and row
#: buffers, and combining.
_RUNAWAY = [
    (dict(p=2, x=1, d=6), broadcast(500, 4), 30),
    (dict(p=4, x=4, d=6, queue_capacity=1), broadcast(200, 5), 50),
    (dict(p=4, x=2, d=6, latency=3, queue_capacity=2, cache_hit_delay=2),
     hotspot(300, 20, 1 << 16, seed=3), 120),
    (dict(p=3, x=1, d=14, queue_capacity=1, combining=True),
     hotspot(200, 40, 1 << 12, seed=4), 200),
]


class TestRunawayParity:
    @pytest.mark.parametrize("config,addr,budget", _RUNAWAY)
    def test_same_diagnostic_on_every_engine(self, config, addr, budget):
        m = toy_machine(**config)
        messages = {}
        for engine in ("tick", "event", "batch"):
            with pytest.raises(SimulationError) as exc:
                simulate_scatter_cycle(m, addr, max_cycles=budget,
                                       engine=engine)
            messages[engine] = str(exc.value)
        assert messages["event"] == messages["tick"]
        assert messages["batch"] == messages["tick"]
        assert f"exceeded {budget} cycles" in messages["tick"]


def _small_bounded(p, n_banks, d, capacity):
    """A machine where reduced runs grow: few banks, small queues,
    ``g = 1`` and no latency."""
    return toy_machine(p=p, x=n_banks / p, d=d, g=1, latency=0,
                       queue_capacity=capacity)


#: Rows whose reduced run starts from the banks the certificate flags
#: and grows its stepped set twice: (p, banks, d, capacity, addresses).
_GROWS_TWICE = [
    (2, 7, 2, 1, [1, 3, 5, 4, 4, 4, 1, 5, 5, 5, 2, 5, 5, 0, 4, 1, 0, 0, 5,
                  1, 2, 4, 5, 1, 4, 1, 4, 3, 6, 2, 6]),
    (4, 5, 4, 2, [2, 2, 0, 3, 4, 3, 2, 1, 1, 2, 2, 0, 3, 1, 3, 2, 3, 4, 3,
                  0, 0, 4, 3, 0, 4, 3, 2, 4]),
]


class TestReducedRun:
    """The fallback steps only the banks that fill: the world is fed
    the stepped banks' requests, every other request is projected from
    the issue cycles its stall log rebuilds, and a bank that then fails
    the certificate joins the stepped set."""

    def test_hotspot_feeds_only_the_hot_bank(self):
        # The served deck's hotspot row: 64 requests to address 0 on
        # the capacity-8 J90.  Only bank 0 fills, so the one reduced
        # run is fed exactly bank 0's load.
        m = CRAY_J90.with_(queue_capacity=8)
        addr = hotspot(4096, 64, 1 << 24, seed=11)
        with _world_runs() as runs:
            got = _engine(m, addr, "event")
        assert [n_fed for n_fed, _ in runs] == [got.bank_loads[0]]
        assert got.stalled_cycles > 0
        _assert_identical(got, _tick(m, addr))

    @pytest.mark.parametrize("p,n_banks,d,capacity,addr", _GROWS_TWICE)
    def test_stepped_set_grows_twice(self, p, n_banks, d, capacity, addr):
        m = _small_bounded(p, n_banks, d, capacity)
        addr = np.asarray(addr)
        with _world_runs() as runs:
            got = _engine(m, addr, "batch")
        fed = [n_fed for n_fed, _ in runs]
        assert len(fed) == 3 and fed == sorted(set(fed))
        assert fed[-1] < addr.size
        _assert_identical(got, _tick(m, addr))

    @given(
        p=st.integers(1, 4),
        n_banks=st.integers(2, 9),
        d=st.integers(1, 3),
        capacity=st.integers(1, 3),
        addr=st.lists(st.integers(0, 11), min_size=8, max_size=64),
        assignment=st.sampled_from(["round_robin", "block"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_growing_rows_match_tick(self, p, n_banks, d, capacity, addr,
                                     assignment):
        m = _small_bounded(p, n_banks, d, capacity)
        addr = np.asarray(addr)
        with _world_runs() as runs:
            got = _engine(m, addr, "batch", assignment=assignment)
        event(f"reduced runs: {len(runs)}")
        _assert_identical(got, _tick(m, addr, assignment=assignment))

    def test_seeded_sweep_grows_twice(self):
        # Hypothesis rarely draws a row that grows twice, so a seeded
        # sweep of the densest shape shows that such rows occur and
        # stay exact.
        rng = np.random.default_rng(2024)
        grew = 0
        for _ in range(300):
            n_banks = int(rng.integers(6, 10))
            m = _small_bounded(int(rng.integers(2, 4)), n_banks, 2, 1)
            addr = rng.integers(0, n_banks, 64)
            with _world_runs() as runs:
                got = _engine(m, addr, "batch")
            grew += len(runs) >= 3
            _assert_identical(got, _tick(m, addr))
        assert grew >= 1

    def test_runaway_in_the_stepped_part(self):
        # A burst to bank 0 behind 400 requests that never share a
        # bank: the reduced world reaches max_cycles before the burst
        # drains, and the full world raises tick's diagnostic.
        self._check_runaway(burst_first=False, outcome=False)

    def test_runaway_in_the_projection_only(self):
        # The burst goes first: the reduced world finishes it well
        # inside max_cycles, but the projected traffic behind it runs
        # past, and the full world raises tick's diagnostic.
        self._check_runaway(burst_first=True, outcome=True)

    def _check_runaway(self, burst_first, outcome):
        m = toy_machine(p=2, x=32, d=6, latency=0, queue_capacity=1)
        k = np.arange(400)
        spread = 64 * k + 1 + k % 63  # never bank 0; a bank every 63rd
        burst = np.zeros(8, dtype=np.int64)
        addr = np.concatenate([burst, spread] if burst_first
                              else [spread, burst])
        with pytest.raises(SimulationError) as want:
            simulate_scatter_cycle(m, addr, max_cycles=150, engine="tick")
        for engine in ("event", "batch"):
            with _world_runs() as runs:
                with pytest.raises(SimulationError) as got:
                    simulate_scatter_cycle(m, addr, max_cycles=150,
                                           engine=engine)
            assert runs == [[burst.size, outcome], [addr.size, "raised"]]
            assert str(got.value) == str(want.value)
