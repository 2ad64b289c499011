"""Bounded-queue streams: certified chunks and the seeded event world.

A bounded-queue stream projects every chunk from its carry and commits
it while the stall certificate holds, counting the pending requests of
earlier chunks toward every queue depth.  At the first chunk whose
certificate fails it builds an event world paused at the last horizon
from that carry (:meth:`~repro.simulator.world.EventWorld.seed`) and
stays in it.  Every prefix must still equal ``engine="tick"``, telemetry
included, and a checkpoint taken on either side of the switch must
resume exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import StreamSimulator, toy_machine
from repro.simulator.machine import CRAY_J90
from repro.simulator.world import EventWorld
from repro.workloads import broadcast, uniform_random

from .test_world_vs_tick import _assert_identical, _chunks, _tick
from .world_reference import world_run


def _bounded_machines():
    return st.builds(
        lambda p, x, d, g, latency, cap, hit: toy_machine(
            p=p, x=x, d=d, g=g, latency=latency, queue_capacity=cap,
            cache_hit_delay=None if hit is None else min(hit, d),
        ),
        p=st.integers(1, 6),
        x=st.integers(1, 6),
        d=st.integers(1, 9),
        g=st.integers(1, 3),
        latency=st.integers(0, 4),
        cap=st.integers(1, 6),
        hit=st.one_of(st.none(), st.integers(1, 9)),
    )


def _late_hot_trace(chunk, hot_chunk, n_hot, k, seed):
    """Cold traffic spread over the banks for ``hot_chunk`` chunks of
    ``chunk`` addresses, then ``n_hot`` requests to ``k`` hot locations."""
    cold = uniform_random(hot_chunk * chunk, 1 << 16, seed=seed)
    hot = uniform_random(n_hot, k, seed=seed + 1)
    return np.concatenate([cold, hot])


class TestSeededWorld:
    @given(
        machine=_bounded_machines(),
        chunk=st.integers(4, 60),
        hot_chunk=st.integers(0, 3),
        n_hot=st.integers(1, 120),
        k=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        cuts=st.lists(st.integers(0, 300), max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_prefix_and_checkpoint_matches_tick(
            self, machine, chunk, hot_chunk, n_hot, k, seed, cuts):
        addr = _late_hot_trace(chunk, hot_chunk, n_hot, k, seed)
        sim = StreamSimulator(machine, telemetry=True, max_chunk=chunk)
        before = after = None
        fed = 0
        for block in _chunks(addr, cuts):
            fed += block.size
            _assert_identical(sim.feed(block).result,
                              _tick(machine, addr[:fed]))
            if sim._world is None:
                before = (fed, sim.state())
            elif after is None:
                after = (fed, sim.state())
        whole = _tick(machine, addr)
        for checkpoint in (before, after):
            if checkpoint is None or checkpoint[0] == addr.size:
                continue
            n, state = checkpoint
            resumed = StreamSimulator(machine, telemetry=True,
                                      max_chunk=chunk)
            resumed.load_state(state)
            _assert_identical(resumed.feed(addr[n:]).result, whole)

    def test_world_seeded_with_queued_and_in_flight_requests(
            self, monkeypatch):
        # Cold traffic that queues on 11 of 16 banks without stalling,
        # then one hot address: the world starts at the horizon with
        # pending requests both waiting in queues and in flight.
        seeds = []
        real_seed = EventWorld.seed

        def spy(self, t, n_fed, next_issue, floors, last_addr, issued):
            seeds.append((t, int((issued.arrival < t).sum()),
                          int(issued.start.size)))
            real_seed(self, t, n_fed, next_issue, floors, last_addr, issued)

        monkeypatch.setattr(EventWorld, "seed", spy)
        m = toy_machine(p=4, x=4, d=6, g=2, latency=3, queue_capacity=2,
                        cache_hit_delay=2)
        i = np.arange(120)
        addr = np.concatenate([i % 11 + 16 * i, broadcast(60, 9)])
        sim = StreamSimulator(m, telemetry=True)
        for lo in range(0, addr.size, 50):
            update = sim.feed(addr[lo:lo + 50])
            _assert_identical(update.result, _tick(m, addr[:lo + 50]))
        assert len(seeds) == 1
        t, queued, pending = seeds[0]
        assert t > 0 and 0 < queued < pending
        assert update.result.stalled_cycles > 0


class TestCertifiedBoundedStream:
    def test_stall_free_stream_never_runs_the_world(self, monkeypatch):
        # The served bounded session's shape: 4,096-address uniform
        # chunks on the capacity-8 J90.  Every chunk certifies, so the
        # event world is never built, let alone run.
        m = CRAY_J90.with_(queue_capacity=8)
        rng = np.random.default_rng(21)
        addr = rng.integers(0, 1 << 24, 8 * 4096)

        def refuse(*args, **kwargs):
            raise AssertionError("the event world ran")

        monkeypatch.setattr(EventWorld, "run", refuse)
        sim = StreamSimulator(m, telemetry=True, max_chunk=4096)
        for lo in range(0, addr.size, 4096):
            update = sim.feed(addr[lo:lo + 4096])
        assert sim._world is None
        assert update.result.stalled_cycles == 0
        monkeypatch.undo()
        _assert_identical(
            update.result,
            world_run(m, addr, telemetry=True),
        )

    def test_pending_set_is_only_the_backlog(self):
        # The carry grows with the requests not yet in service at the
        # horizon, never with the trace: a few dozen on this machine.
        m = CRAY_J90.with_(queue_capacity=8)
        rng = np.random.default_rng(7)
        sim = StreamSimulator(m, telemetry=True, max_chunk=8192)
        most = 0
        for _ in range(40):
            sim.feed(rng.integers(0, 1 << 24, 8192))
            most = max(most, sim._pend.start.size)
        assert sim._world is None
        assert 0 < most < 8192 // 32

