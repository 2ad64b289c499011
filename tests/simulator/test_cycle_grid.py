"""Grid engine vs per-point engines — exact per-point equivalence.

The fused grid pass in :mod:`repro.simulator.cycle_grid` stacks a whole
parameter sweep into one batched kernel call; its contract is that each
returned result is **bit-identical** to simulating that row alone with
``engine="batch"`` (equivalently ``"event"``) and to a direct run of the
event world (:func:`.world_reference.world_run`).  These tests drive
the contract across mixed machines, mixed patterns, ragged and empty
rows, telemetry/sanitize on and off, and grids where bounded-queue
back-pressure forces *some* points (and only those) through the
per-point event-world fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, SimulationError
from repro.simulator import (
    fifo_service_times,
    fifo_service_times_cached,
    simulate_scatter_cycle,
    simulate_scatter_grid,
    toy_machine,
)
from repro.simulator import cycle_grid
from repro.workloads import broadcast, hotspot, uniform_random
from repro.workloads.patterns import multi_hotspot

from .world_reference import world_run


def _machines():
    """Strategy spanning every simulator mode the grid must fuse."""
    return st.builds(
        lambda p, x, d, latency, cap, comb, hit: toy_machine(
            p=p, x=x, d=d, latency=latency,
            queue_capacity=cap, combining=comb,
            cache_hit_delay=min(hit, d) if hit is not None else None,
        ),
        p=st.integers(1, 8),
        x=st.sampled_from([0.5, 1, 2, 4]),
        d=st.sampled_from([1, 2, 6, 14]),
        latency=st.sampled_from([0, 3, 7]),
        cap=st.sampled_from([None, 1, 4, 1000]),
        comb=st.booleans(),
        hit=st.sampled_from([None, 1, 2]),
    ).filter(lambda m: round(m.x * m.p) >= 1)


def _pattern(kind, n, seed):
    """Four distinct address patterns, selected per grid row."""
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if kind == "hotspot":
        return hotspot(n, max(1, n // 3), 1 << 16, seed=seed)
    if kind == "uniform":
        return uniform_random(n, 1 << 16, seed=seed)
    if kind == "broadcast":
        return broadcast(n, seed % 7)
    return multi_hotspot(n, min(n, 1 + seed % 4), 0.5, 1 << 16, seed=seed)


_PATTERNS = ("hotspot", "uniform", "broadcast", "multi_hotspot")


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


def _assert_grid_matches_per_point(machines, patterns, **kwargs):
    fused = simulate_scatter_grid(machines, patterns, **kwargs)
    assert len(fused) == len(patterns)
    for got, m, addr in zip(fused, machines, patterns):
        _assert_identical(
            got, simulate_scatter_cycle(m, addr, engine="batch", **kwargs))
        _assert_identical(got, world_run(m, addr, **kwargs))


class TestGridMatchesPerPoint:
    """Randomized mixed grids: every fused row must reproduce its
    stand-alone batch engine result and a direct world run field for
    field."""

    @given(
        rows=st.lists(
            st.tuples(
                _machines(),
                st.sampled_from(_PATTERNS),
                st.integers(0, 120),
                st.integers(0, 10_000),
            ),
            min_size=1, max_size=5,
        ),
        telemetry=st.booleans(),
        sanitize=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_agreement(self, rows, telemetry, sanitize):
        machines = [m for m, _, _, _ in rows]
        patterns = [_pattern(kind, n, seed) for _, kind, n, seed in rows]
        _assert_grid_matches_per_point(
            machines, patterns, telemetry=telemetry, sanitize=sanitize,
        )

    def test_all_patterns_all_machines_rectangular(self):
        # The fully fusable shape: one machine, equal-length rows, every
        # pattern kind — a single (rows, n) kernel call end to end.
        machines = [
            toy_machine(p=4, x=2, d=6, latency=3),
            toy_machine(p=2, x=1, d=2, combining=True),
            toy_machine(p=8, x=4, d=14, cache_hit_delay=1),
        ]
        for machine in machines:
            patterns = [
                _pattern(kind, 96, seed)
                for seed, kind in enumerate(_PATTERNS)
            ]
            _assert_grid_matches_per_point(
                [machine] * len(patterns), patterns, telemetry=True,
            )

    def test_ndarray_grid_matches_sequence_form(self):
        m = toy_machine(p=4, x=2, d=6)
        grid = np.stack([hotspot(64, 8, 1 << 12, seed=s) for s in range(5)])
        _assert_identical(
            simulate_scatter_grid(m, grid)[2],
            simulate_scatter_grid(m, list(grid))[2],
        )

    def test_empty_grid_and_empty_rows(self):
        m = toy_machine(L=7)
        assert simulate_scatter_grid(m, []) == []
        patterns = [np.zeros(0, dtype=np.int64), broadcast(32, 3)]
        _assert_grid_matches_per_point([m, m], patterns, telemetry=True)

    def test_mixed_cached_and_uncached_rows(self):
        # One fused group mixing cache-modeled and plain machines: the
        # cached kernel must reduce exactly to the plain one on the
        # hit == miss == d rows.
        machines = [
            toy_machine(p=4, x=2, d=6, cache_hit_delay=1),
            toy_machine(p=4, x=2, d=6),
        ]
        patterns = [hotspot(80, 10, 1 << 12, seed=s) for s in range(2)]
        _assert_grid_matches_per_point(machines, patterns, telemetry=True)


class TestStallFallbackScoping:
    """Bounded-queue back-pressure must demote *only* the stalling rows
    to the per-point event engine — never the whole grid."""

    def test_partial_fallback(self, monkeypatch):
        fell_back = []
        orig = cycle_grid._row_fallback

        def spy(machine, addresses, *args, **kwargs):
            fell_back.append(machine)
            return orig(machine, addresses, *args, **kwargs)

        monkeypatch.setattr(cycle_grid, "_row_fallback", spy)
        stalling = toy_machine(p=4, x=4, d=6, queue_capacity=1)
        free = toy_machine(p=4, x=4, d=6)
        machines = [stalling, free, stalling]
        patterns = [broadcast(200, 5), broadcast(200, 5),
                    uniform_random(200, 1 << 16, seed=1)]
        fused = simulate_scatter_grid(machines, patterns, telemetry=True)
        # Row 0 saturates its capacity-1 queues and must fall back; row
        # 1 runs the same pattern unbounded and must stay fused.
        assert fused[0].stalled_cycles > 0
        assert any(m is stalling for m in fell_back)
        assert all(m is not free for m in fell_back)
        for got, m, addr in zip(fused, machines, patterns):
            _assert_identical(got, world_run(m, addr, telemetry=True))

    def test_certified_bounded_rows_stay_fused(self, monkeypatch):
        # A bounded machine whose queues never fill: the certificate
        # holds, so no row may leave the projection.
        def boom(*args, **kwargs):
            raise AssertionError("fallback on a certified row")

        monkeypatch.setattr(cycle_grid, "_row_fallback", boom)
        m = toy_machine(p=8, x=1, d=2, queue_capacity=1000)
        patterns = [uniform_random(64, 1 << 16, seed=s) for s in range(3)]
        fused = simulate_scatter_grid(m, patterns)
        for got, addr in zip(fused, patterns):
            _assert_identical(
                got, simulate_scatter_cycle(m, addr, engine="batch"))


class TestGridParameters:
    def test_per_row_max_cycles_runaway_parity(self):
        # The same budget must abort the grid exactly as it aborts the
        # stand-alone engines.
        m = toy_machine(p=2, x=1, d=6)
        addr = broadcast(500, 4)
        with pytest.raises(SimulationError):
            simulate_scatter_grid(m, [addr], max_cycles=30)
        ok = uniform_random(16, 1 << 16, seed=0)
        out = simulate_scatter_grid(m, [ok, addr],
                                    max_cycles=[None, 100_000])
        _assert_identical(out[1], world_run(m, addr))

    def test_per_row_length_mismatch(self):
        m = toy_machine()
        with pytest.raises(ParameterError, match="one per grid row"):
            simulate_scatter_grid([m, m, m], [broadcast(8, 0)] * 2)

    def test_rejects_non_grid_addresses(self):
        m = toy_machine()
        with pytest.raises(ParameterError, match="2-D address grid"):
            simulate_scatter_grid(m, broadcast(8, 0))  # 1-D array
        with pytest.raises(ParameterError, match="2-D address grid"):
            simulate_scatter_grid(m, 42)


class TestBatchedKernels:
    """The (rows, n) leading-axis form of the FIFO kernels must equal
    row-by-row 1-D calls bit for bit — the foundation the grid engine
    stands on."""

    @given(
        rows=st.integers(1, 6),
        n=st.integers(1, 80),
        n_srv=st.integers(1, 9),
        gap=st.sampled_from([1.0, 2.0, 6.0]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_plain_kernel_batched(self, rows, n, n_srv, gap, seed):
        rng = np.random.default_rng(seed)
        arrivals = rng.integers(0, 50, (rows, n)).astype(np.float64)
        servers = rng.integers(0, n_srv, (rows, n))
        per_row_gap = rng.choice([gap, gap + 1.0], rows)
        batched = fifo_service_times(arrivals, servers, per_row_gap)
        assert batched.shape == (rows, n)
        for r in range(rows):
            single = fifo_service_times(
                arrivals[r], servers[r], float(per_row_gap[r]))
            assert (batched[r] == single).all()

    @given(
        rows=st.integers(1, 6),
        n=st.integers(1, 80),
        n_srv=st.integers(1, 9),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_cached_kernel_batched(self, rows, n, n_srv, seed):
        rng = np.random.default_rng(seed)
        arrivals = rng.integers(0, 50, (rows, n)).astype(np.float64)
        servers = rng.integers(0, n_srv, (rows, n))
        addresses = rng.integers(0, 8, (rows, n))
        miss = rng.choice([6.0, 14.0], rows)
        hit = rng.choice([1.0, 2.0], rows)
        b_start, b_cost = fifo_service_times_cached(
            arrivals, servers, addresses, miss, hit)
        assert b_start.shape == b_cost.shape == (rows, n)
        for r in range(rows):
            start, cost = fifo_service_times_cached(
                arrivals[r], servers[r], addresses[r],
                float(miss[r]), float(hit[r]))
            assert (b_start[r] == start).all()
            assert (b_cost[r] == cost).all()

    def test_cached_hit_equals_miss_reduces_to_plain(self):
        rng = np.random.default_rng(7)
        arrivals = rng.integers(0, 30, (3, 50)).astype(np.float64)
        servers = rng.integers(0, 4, (3, 50))
        addresses = rng.integers(0, 8, (3, 50))
        start, cost = fifo_service_times_cached(
            arrivals, servers, addresses, 6.0, 6.0)
        assert (start == fifo_service_times(arrivals, servers, 6.0)).all()
        assert (cost == 6.0).all()
