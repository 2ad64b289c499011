"""Streaming simulator vs the one-shot engines — exact prefix equivalence.

The streaming simulator's contract is that after any sequence of feeds,
its prefix result is bit-identical to running a one-shot engine over
the concatenation of everything fed so far — for any chunking, any
pattern family, with telemetry and sanitize on or off, on unbounded and
bounded-queue machines alike — while holding peak memory to the chunk
budget.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.simulator import (
    StreamSimulator,
    simulate_scatter,
    simulate_scatter_cycle,
    simulate_scatter_engine,
    simulate_scatter_stream,
    toy_machine,
)
from repro.workloads import broadcast, hotspot, strided, uniform_random


def _machines():
    """Machine configs spanning every streamable simulator mode."""
    return st.builds(
        lambda p, x, d, g, latency, L, cap, hit: toy_machine(
            p=p, x=x, d=d, g=g, latency=latency, L=L,
            queue_capacity=cap,
            cache_hit_delay=min(hit, d) if hit is not None else None,
        ),
        p=st.integers(1, 8),
        x=st.sampled_from([0.5, 1, 2, 4]),
        d=st.sampled_from([1, 2, 6, 14]),
        g=st.sampled_from([1, 2]),
        latency=st.sampled_from([0, 3, 7]),
        L=st.sampled_from([0, 25]),
        cap=st.sampled_from([None, 1, 2, 4, 1000]),
        hit=st.sampled_from([None, 1, 2]),
    ).filter(lambda m: round(m.x * m.p) >= 1)


def _pattern(family, n, seed):
    if family == "uniform":
        return uniform_random(n, 1 << 16, seed=seed)
    if family == "hotspot":
        return hotspot(n, max(1, n // 3), 1 << 16, seed=seed)
    if family == "broadcast":
        return broadcast(n, 5)
    return strided(n, 3, base=seed % 64)


def _chunks(addr, boundaries):
    """Split an address array at the given sorted cut points."""
    cuts = sorted({min(b, addr.size) for b in boundaries})
    out, lo = [], 0
    for cut in cuts:
        out.append(addr[lo:cut])
        lo = cut
    out.append(addr[lo:])
    return out


def _assert_identical(a, b, proc_stalls=True):
    assert a.time == b.time
    assert a.n == b.n
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
        assert a.telemetry.makespan == b.telemetry.makespan
        if proc_stalls:
            assert (a.telemetry.proc_stalls
                    == b.telemetry.proc_stalls).all()


class TestPrefixBitIdentity:
    """Any chunking of any trace: every prefix matches the one-shot."""

    @given(
        machine=_machines(),
        n=st.integers(1, 200),
        family=st.sampled_from(
            ["uniform", "hotspot", "broadcast", "stride"]
        ),
        seed=st.integers(0, 10_000),
        boundaries=st.lists(st.integers(0, 200), max_size=4),
        telemetry=st.booleans(),
        sanitize=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_matches_one_shot(self, machine, n, family, seed,
                                           boundaries, telemetry, sanitize):
        addr = _pattern(family, n, seed)
        sim = StreamSimulator(machine, telemetry=telemetry,
                              sanitize=sanitize)
        fed = 0
        for block in _chunks(addr, boundaries):
            update = sim.feed(block)
            fed += block.size
            assert update.n == fed
            assert update.conserved
            expected = simulate_scatter_cycle(
                machine, addr[:fed], engine="event", telemetry=telemetry,
                sanitize=sanitize,
            )
            _assert_identical(update.result, expected)

    @given(
        machine=_machines().filter(lambda m: m.queue_capacity is None),
        n=st.integers(1, 200),
        family=st.sampled_from(
            ["uniform", "hotspot", "broadcast", "stride"]
        ),
        seed=st.integers(0, 10_000),
        max_chunk=st.integers(1, 64),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_banksim_unbounded(self, machine, n, family, seed,
                                       max_chunk):
        # The vectorized simulator does not track processors, so its
        # telemetry has proc_stalls=None; compare everything else.
        addr = _pattern(family, n, seed)
        sim = StreamSimulator(machine, telemetry=True,
                              max_chunk=max_chunk)
        result = sim.feed(addr).result
        expected = simulate_scatter(machine, addr, telemetry=True)
        _assert_identical(result, expected, proc_stalls=False)

    def test_tiny_feeds_pause_and_resume_the_event_world(self):
        # One address per feed on a bounded machine with p=4: every
        # chunk is smaller than one issue round, so the event world
        # pauses at the horizon dozens of times mid-flight.
        machine = toy_machine(p=4, x=1, d=6, latency=3, queue_capacity=1)
        addr = broadcast(60, 7)
        sim = StreamSimulator(machine, telemetry=True)
        for i in range(addr.size):
            update = sim.feed(addr[i:i + 1])
            expected = simulate_scatter_cycle(
                machine, addr[:i + 1], engine="event", telemetry=True,
            )
            _assert_identical(update.result, expected)
        assert update.result.stalled_cycles > 0

    def test_deltas_telescope(self):
        machine = toy_machine(p=4, x=2, d=6, latency=2, L=10)
        addr = hotspot(500, 40, 1 << 16, seed=9)
        sim = StreamSimulator(machine, max_chunk=64)
        delta_time = 0.0
        delta_wait = 0
        for block in _chunks(addr, [100, 101, 350]):
            update = sim.feed(block)
            delta_time += update.delta_time
            delta_wait += update.delta_wait
        assert delta_time == update.result.time - machine.L
        assert delta_wait == round(
            update.result.mean_wait * update.result.n
        )

    def test_empty_feeds_and_empty_stream(self):
        machine = toy_machine(p=4, x=2, d=6, L=7)
        sim = StreamSimulator(machine, telemetry=True)
        update = sim.feed([])
        expected = simulate_scatter_cycle(machine, [], engine="event",
                                          telemetry=True)
        _assert_identical(update.result, expected)
        assert update.result.time == 7.0
        # An empty feed between real ones changes nothing.
        first = sim.feed(uniform_random(50, 1 << 12, seed=1)).result
        again = sim.feed([]).result
        _assert_identical(first, again)


class TestStreamGenerator:
    def test_generator_input_and_final_result(self):
        machine = toy_machine(p=4, x=4, d=6, latency=4)
        addr = uniform_random(1000, 1 << 16, seed=3)

        def blocks():
            for lo in range(0, addr.size, 130):
                yield addr[lo:lo + 130]

        updates = list(simulate_scatter_stream(machine, blocks(),
                                               chunk_size=97))
        assert len(updates) == 8
        assert updates[-1].n == 1000
        _assert_identical(
            updates[-1].result,
            simulate_scatter_cycle(machine, addr, engine="event"),
        )

    def test_array_input_chunked(self):
        machine = toy_machine(p=2, x=2, d=2)
        addr = strided(250, 7)
        updates = list(simulate_scatter_stream(machine, addr,
                                               chunk_size=100))
        assert [u.chunk_n for u in updates] == [100, 100, 50]
        assert updates[-1].result.n == 250

    def test_empty_stream_yields_one_update(self):
        machine = toy_machine(L=5)
        updates = list(simulate_scatter_stream(machine, []))
        assert len(updates) == 1
        assert updates[0].n == 0
        assert updates[0].result.time == 5.0

    def test_dispatch_stream_engine(self):
        machine = toy_machine(p=4, x=2, d=6, queue_capacity=2)
        addr = hotspot(300, 20, 1 << 16, seed=5)
        _assert_identical(
            simulate_scatter_engine(machine, addr, engine="stream",
                                    telemetry=True),
            simulate_scatter_engine(machine, addr, engine="event",
                                    telemetry=True),
        )


class TestMemoryBound:
    def test_peak_memory_bounded_by_chunk_budget(self):
        # A trace 80 chunks long must not cost more than a fixed
        # multiple of one chunk: the simulator may hold the seeds, the
        # accumulators and one chunk (plus kernel temporaries), never
        # the trace.
        machine = toy_machine(p=8, x=4, d=6, latency=4)
        chunk = 8192
        n_chunks = 80
        rng = np.random.default_rng(7)

        def blocks(count):
            for _ in range(count):
                yield rng.integers(0, 1 << 20, chunk)

        def peak(count):
            sim = StreamSimulator(machine, max_chunk=chunk)
            stream = blocks(count)
            sim.feed(next(stream))  # warm up allocator pools
            tracemalloc.start()
            try:
                for block in stream:
                    sim.feed(block)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_long = peak(n_chunks)
        trace_bytes = n_chunks * chunk * 8
        assert peak_long < trace_bytes / 4  # nowhere near the trace
        # A fixed multiple of one chunk covers the kernel's sort/cummax
        # temporaries (~a dozen chunk-sized arrays), not the trace.
        assert peak_long < 24 * chunk * 8
        # ... and flat in the trace length, not merely below it.
        assert peak_long < 1.5 * peak(10) + 64 * 1024


class TestRefusals:
    def test_refuses_combining(self):
        with pytest.raises(ParameterError, match="combining"):
            StreamSimulator(toy_machine(combining=True))

    def test_refuses_block_assignment(self):
        with pytest.raises(ParameterError, match="round_robin"):
            StreamSimulator(toy_machine(), assignment="block")

    def test_refuses_sections(self):
        machine = toy_machine(n_sections=4, section_gap=2.0)
        with pytest.raises(ParameterError, match="section"):
            StreamSimulator(machine)

    def test_refuses_fractional_times(self):
        with pytest.raises(ParameterError, match="integer"):
            StreamSimulator(toy_machine(d=2.5))

    def test_refuses_bad_chunk(self):
        with pytest.raises(ParameterError, match="max_chunk"):
            StreamSimulator(toy_machine(), max_chunk=0)

    def test_generator_defers_validation_to_first_next(self):
        gen = simulate_scatter_stream(toy_machine(combining=True), [0, 1])
        with pytest.raises(ParameterError, match="combining"):
            next(gen)


class TestDigestAndCheckpoint:
    def test_digest_is_chunking_invariant(self):
        machine = toy_machine(p=4, x=2, d=6)
        addr = uniform_random(10_000, 1 << 16, seed=11)
        a = StreamSimulator(machine)
        b = StreamSimulator(machine)
        a.feed(addr)
        for block in _chunks(addr, [1, 7000, 8192, 9000]):
            b.feed(block)
        assert a.prefix_digest == b.prefix_digest
        c = StreamSimulator(machine)
        c.feed(addr[:-1])
        assert c.prefix_digest != a.prefix_digest

    @pytest.fixture()
    def _isolated_cache(self, tmp_path, monkeypatch):
        from repro.experiments import runner
        saved = dict(runner._config)
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        runner._config.update(
            {"parallel": None, "cache": None, "cache_dir": tmp_path / "c"}
        )
        yield
        runner._config.clear()
        runner._config.update(saved)

    @pytest.mark.parametrize("cap,hit", [(None, None), (2, 1)])
    def test_checkpoint_roundtrip_bit_identical(self, _isolated_cache,
                                                cap, hit):
        machine = toy_machine(p=4, x=2, d=6, latency=3,
                              queue_capacity=cap, cache_hit_delay=hit)
        addr = hotspot(400, 30, 1 << 16, seed=13)
        sim = StreamSimulator(machine, telemetry=True, max_chunk=64)
        sim.feed(addr[:250])
        digest = sim.save_checkpoint()
        assert digest == sim.prefix_digest

        resumed = StreamSimulator(machine, telemetry=True, max_chunk=64)
        assert resumed.resume_from_checkpoint(digest, 250)
        assert resumed.n == 250
        update = resumed.feed(addr[250:])
        _assert_identical(
            update.result,
            simulate_scatter_cycle(machine, addr, engine="event",
                                   telemetry=True),
        )
        fresh = StreamSimulator(machine, telemetry=True, max_chunk=64)
        fresh.feed(addr)
        assert resumed.prefix_digest == fresh.prefix_digest

    def test_load_state_refuses_version_1(self):
        # Version 2 changed the event world's layout (FIFO in flight,
        # bank wheel, parked processors) and version 3 the accumulator
        # (link_wait): an older checkpoint must be refused, not misread.
        machine = toy_machine(p=4, x=2, d=6, queue_capacity=2)
        sim = StreamSimulator(machine)
        sim.feed(hotspot(100, 10, 1 << 12, seed=1))
        state = sim.state()
        assert state["version"] == 3
        for old in (1, 2):
            state["version"] = old
            with pytest.raises(ParameterError, match="version"):
                StreamSimulator(machine).load_state(state)

    def test_resume_misses_on_unknown_prefix(self, _isolated_cache):
        machine = toy_machine()
        sim = StreamSimulator(machine)
        assert not sim.resume_from_checkpoint("0" * 64, 10)

    def test_resume_requires_matching_config(self, _isolated_cache):
        machine = toy_machine(p=4, x=2, d=6)
        sim = StreamSimulator(machine, telemetry=True)
        sim.feed(uniform_random(100, 1 << 12, seed=2))
        digest = sim.save_checkpoint()
        # A simulator with different telemetry hashes a different key:
        # the probe simply misses (no cross-config state smuggling).
        other = StreamSimulator(machine, telemetry=False)
        assert not other.resume_from_checkpoint(digest, 100)

    def test_checkpoint_disabled_cache_returns_none(self, _isolated_cache,
                                                    monkeypatch):
        from repro.experiments import runner
        runner._config["cache"] = False
        sim = StreamSimulator(toy_machine())
        sim.feed([1, 2, 3])
        assert sim.save_checkpoint() is None
