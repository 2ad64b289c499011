"""Batch engine vs event engine — exact equivalence.

The vectorized batch engine in :mod:`repro.simulator.cycle_batch` must
be bit-identical to the event engine for *every* simulator mode:
unbounded queues, bounded queues with backpressure stalls (where it
falls back to exact scalar stepping between quiescent points),
combining, and the cache-hit (row buffer) extension.  These properties
are the contract that lets the batch engine carry the big sweeps while
the scalar engines stay as executable documentation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulator import (
    simulate_scatter_cycle,
    simulate_scatter_engine,
    toy_machine,
)
from repro.simulator import cycle_batch
from repro.workloads import broadcast, hotspot, uniform_random


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
        simulate_scatter_cycle(machine, addr, engine="event", **kwargs),
    )


class TestBatchMatchesEvent:
    """Randomized configs across all modes: the batch engine must
    reproduce the event engine's results field for field."""

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
        batch, event = _both(machine, addr, assignment=assignment,
                             telemetry=telemetry)
        _assert_identical(batch, event)

    def test_empty(self):
        m = toy_machine(L=7)
        batch, event = _both(m, [])
        _assert_identical(batch, event)
        assert batch.time == 7

    def test_single_bank(self):
        # Everything serializes through one bank: the segmented kernel
        # degenerates to one segment.
        m = toy_machine(p=1, x=1, d=6)
        batch, event = _both(m, uniform_random(200, 1 << 10, seed=3))
        _assert_identical(batch, event)

    def test_capacity_one(self):
        # The tightest possible queue bound: backpressure binds almost
        # immediately, so nearly the whole run is scalar fallback.
        m = toy_machine(p=4, x=4, d=6, queue_capacity=1)
        batch, event = _both(m, broadcast(200, 5), telemetry=True)
        assert batch.stalled_cycles > 0
        _assert_identical(batch, event)

    def test_backpressure_forces_scalar_fallback(self, monkeypatch):
        # The stall certificate must actually fire here — the result
        # must come through the scalar stepper, not the projection.
        calls = {"run": 0}
        orig = cycle_batch._Scalar.run

        def spy(self, s, acc, t_stall):
            calls["run"] += 1
            return orig(self, s, acc, t_stall)

        monkeypatch.setattr(cycle_batch._Scalar, "run", spy)
        m = toy_machine(p=4, x=2, d=6, queue_capacity=1)
        batch, event = _both(m, broadcast(120, 3))
        assert calls["run"] >= 1
        assert batch.stalled_cycles > 0
        _assert_identical(batch, event)

    def test_quiescence_reprojection_seam(self, monkeypatch):
        # A bursty bounded-queue run that goes scalar, drains to a
        # quiescent cycle, and hands back to the vectorized projection
        # (seeded with bank floors and the issue schedule).  The spy
        # proves the export seam fires; the comparison proves it is
        # exact across it.
        calls = {"export": 0}
        orig = cycle_batch._Scalar.export

        def spy(self, s):
            calls["export"] += 1
            return orig(self, s)

        monkeypatch.setattr(cycle_batch._Scalar, "export", spy)
        rng = np.random.default_rng(11)
        n = 120
        addr = np.concatenate([
            np.zeros(n // 2, dtype=np.int64),
            rng.integers(0, 1 << 12, n - n // 2),
        ])
        m = toy_machine(p=3, x=1, d=2, g=2, latency=0, queue_capacity=2)
        batch, event = _both(m, addr, telemetry=True)
        assert calls["export"] >= 1
        _assert_identical(batch, event)

    def test_unbounded_never_goes_scalar(self, monkeypatch):
        # Without a queue bound there is no stall certificate to trip:
        # one projection must settle the whole superstep.
        def boom(*args, **kwargs):
            raise AssertionError("scalar fallback on an unbounded run")

        monkeypatch.setattr(cycle_batch, "_Scalar", boom)
        m = toy_machine(p=8, x=2, d=6, latency=5)
        batch = simulate_scatter_cycle(m, hotspot(5000, 5000, 1 << 16,
                                                  seed=2), engine="batch")
        event = simulate_scatter_cycle(m, hotspot(5000, 5000, 1 << 16,
                                                  seed=2), engine="event")
        _assert_identical(batch, event)


class TestBatchEntryPoint:
    def test_wrapper_matches_engine_selector(self):
        m = toy_machine(p=4, x=2, d=6, combining=True)
        addr = broadcast(64, 9)
        _assert_identical(
            simulate_scatter_engine(m, addr, engine="batch"),
            simulate_scatter_cycle(m, addr, engine="batch"),
        )

    def test_runaway_parity(self):
        # Both engines must reject the same budget the same way.
        m = toy_machine(p=2, x=1, d=6)
        addr = broadcast(500, 4)
        for engine in ("batch", "event"):
            with pytest.raises(SimulationError):
                simulate_scatter_cycle(m, addr, max_cycles=30, engine=engine)

    def test_runaway_bounded_parity(self):
        m = toy_machine(p=4, x=4, d=6, queue_capacity=1)
        addr = broadcast(200, 5)
        for engine in ("batch", "event"):
            with pytest.raises(SimulationError):
                simulate_scatter_cycle(m, addr, max_cycles=50, engine=engine)


class TestBatchOnExperimentGrids:
    """Sanitized smoke grids of the paper's three experiments: the
    tentpole acceptance bar — batch must be bit-identical to event on
    every point, with the conservation sanitizer enabled."""

    def test_exp1_hotspot_grid(self):
        from repro.experiments.common import j90
        m = j90()
        n, space = 1024, 1 << 20
        for k in (1, 4, 32, 256, n):
            addr = hotspot(n, k, space, seed=1995)
            batch, event = _both(m, addr, sanitize=True, telemetry=True)
            _assert_identical(batch, event)

    def test_exp2_multihot_grid(self):
        from repro.experiments.common import j90
        from repro.workloads.patterns import multi_hotspot
        m = j90()
        n, space = 1024, 1 << 20
        for n_hot, fraction in ((1, 0.25), (4, 0.5), (16, 0.9)):
            addr = multi_hotspot(n, n_hot, fraction, space, seed=1995)
            batch, event = _both(m, addr, sanitize=True, telemetry=True)
            _assert_identical(batch, event)

    def test_exp3_entropy_grid(self):
        from repro.experiments.common import j90
        from repro.workloads.entropy import entropy_family
        m = j90()
        for keys in entropy_family(1024, 10, 4, seed=1995):
            batch, event = _both(m, np.asarray(keys), sanitize=True,
                                 telemetry=True)
            _assert_identical(batch, event)


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
