"""Perf — the cycle simulator's two steppers and its projector on the
Exp-1 hot-spot scatter.

Times the reference tick loop, the event world stepped alone (fed every
request and run to completion, :func:`_world_run`: the stepper the
projector falls back to) and the vectorized projector
(``engine="batch"``, which ``engine="event"`` also runs) on the
Experiment-1 hot-spot scatter at S = 64K requests on the J90
(contention k = n: every request targets the hot location, so the run
is maximally contention-dominated — the regime where the tick loop
burns ~d*n nearly idle cycles while the world jumps between the
d-spaced serve events and the projector resolves the whole superstep
with one kernel call).  Asserts bit-identical results across all
three, a >= 10x world-over-tick speedup and a >= 10x
projector-over-world speedup, saves the paper-style comparison under
``benchmarks/results/`` and writes machine-readable numbers to
``BENCH_cycle_engine.json`` at the repo root for
``tools/perf_guard.py`` (``event_seconds`` is the world's timing).  A
second case times the stall path: a bounded J90 zipf scatter where
back-pressure binds, so the world parks processors and the projector
takes its reduced run (the world steps only the banks that fill, and
the rest of the row is projected around them), plus a fused grid
whose bounded rows take that fallback from inside the grid.
"""

import json
import pathlib
import time

import numpy as np
from conftest import run_once

from repro.experiments.common import DEFAULT_SEED, DEFAULT_SPACE, j90
from repro.mapping.hashing import HASH_FAMILIES
from repro.simulator import simulate_scatter_cycle, simulate_scatter_grid
from repro.simulator.cycle import _finish, _new_acc, _prepare, _world
from repro.workloads import hotspot
from repro.workloads.patterns import zipf_pattern

BENCH_JSON = pathlib.Path(__file__).parents[1] / "BENCH_cycle_engine.json"

N = 64 * 1024
K = N
EVENT_REPEATS = 3
BATCH_REPEATS = 5


def _world_run(machine, addr, bank_map=None):
    """One scatter stepped through the event world alone: set up, every
    request fed, run to completion, then the shared epilogue."""
    s = _prepare(machine, addr, bank_map, "round_robin", None)
    acc = _new_acc(s)
    _world(s).run(acc, s.max_cycles)
    return _finish(machine, s, "world", acc)


def _best_of(repeats, fn, *args, **kwargs):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_perf_cycle_engine(benchmark, save_result):
    machine = j90()
    addr = hotspot(N, K, DEFAULT_SPACE, seed=DEFAULT_SEED)

    tick_s, tick = _best_of(1, simulate_scatter_cycle, machine, addr,
                            engine="tick")
    event_s, event = _best_of(EVENT_REPEATS, _world_run, machine, addr)
    batch_s, batch = _best_of(BATCH_REPEATS, simulate_scatter_cycle,
                              machine, addr, engine="batch")
    run_once(benchmark, simulate_scatter_cycle, machine, addr,
             engine="batch")

    # The optimizations are only valid if they change nothing but the
    # clock: every engine must agree bit for bit.
    for fast in (event, batch):
        assert fast.time == tick.time
        assert (fast.bank_loads == tick.bank_loads).all()
        assert fast.stalled_cycles == tick.stalled_cycles
        assert fast.mean_wait == tick.mean_wait
        assert fast.max_wait == tick.max_wait
    # Telemetry is opt-in: the timed hot path must not have collected it.
    assert event.telemetry is None and tick.telemetry is None
    assert batch.telemetry is None

    speedup = tick_s / event_s
    assert speedup >= 10.0, (
        f"event world only {speedup:.1f}x faster than tick loop "
        f"({event_s:.3f}s vs {tick_s:.3f}s)"
    )
    batch_speedup = event_s / batch_s
    assert batch_speedup >= 10.0, (
        f"projector only {batch_speedup:.1f}x faster than event world "
        f"({batch_s:.4f}s vs {event_s:.3f}s)"
    )

    lines = [
        "cycle engine performance (Exp 1 hot-spot, "
        f"{machine.name}, n={N}, k={K})",
        "",
        f"{'path':<10} {'seconds':>10} {'sim cycles':>12}",
        f"{'tick':<10} {tick_s:>10.3f} {tick.time:>12.0f}",
        f"{'world':<10} {event_s:>10.3f} {event.time:>12.0f}",
        f"{'batch':<10} {batch_s:>10.4f} {batch.time:>12.0f}",
        "",
        f"world over tick: {speedup:.1f}x, batch over world: "
        f"{batch_speedup:.1f}x (bit-identical results)",
    ]
    save_result("perf_cycle_engine", "\n".join(lines))

    BENCH_JSON.write_text(json.dumps({
        "benchmark": "cycle_engine",
        "machine": machine.name,
        "n": N,
        "k": K,
        "telemetry": "off",
        "tick_seconds": round(tick_s, 6),
        "event_seconds": round(event_s, 6),
        "batch_seconds": round(batch_s, 6),
        "speedup": round(speedup, 2),
        "batch_speedup": round(batch_speedup, 2),
        "sim_cycles": float(event.time),
    }, indent=2) + "\n")


BOUNDED_N = 4096
BOUNDED_REPEATS = 7
GRID_BOUNDED_ROWS = 8


def test_perf_cycle_engine_bounded(benchmark, save_result):
    """The stall path, shaped like the served cold-mix deck's bounded
    entry: J90 with ``queue_capacity=8``, zipf (alpha 1.2) at n = 4096
    through the ``h1`` hash map.  Back-pressure binds for most of the
    run, so the world stepped alone parks processors behind full queues.
    ``batch`` fails its stall certificate and takes the reduced run: the
    world steps only the banks the certificate flagged and the other
    banks are projected from the issue cycles its stall log rebuilds.
    Asserts bit-identity with ``tick``, and that the reduced run beats
    the world stepped alone.

    Then a fused grid of 8 rows, zipf seeds 0-7 through the same map,
    alternating the bounded J90 (even rows) with the unbounded one (odd
    rows): the unbounded rows commit from one stacked projection and
    the bounded rows fail their certificates and finish through the
    batch fallback from inside the grid.  Asserts every row equals its
    stand-alone world run, which involves no projection.  Merges
    ``event_bounded_seconds`` / ``batch_bounded_seconds`` /
    ``grid_bounded_seconds`` into ``BENCH_cycle_engine.json`` for
    ``tools/perf_guard.py``."""
    machine = j90(queue_capacity=8)
    addr = zipf_pattern(BOUNDED_N, 1 << 24, 1.2, seed=DEFAULT_SEED)
    bank_map = HASH_FAMILIES["h1"](7)

    _, tick = _best_of(1, simulate_scatter_cycle, machine, addr, bank_map,
                       engine="tick")
    event_s, event = _best_of(BOUNDED_REPEATS, _world_run, machine, addr,
                              bank_map)
    batch_s, batch = _best_of(BOUNDED_REPEATS, simulate_scatter_cycle,
                              machine, addr, bank_map, engine="batch")
    run_once(benchmark, _world_run, machine, addr, bank_map)

    assert tick.stalled_cycles > 0  # the stall path really ran
    for fast in (event, batch):
        assert fast.time == tick.time
        assert (fast.bank_loads == tick.bank_loads).all()
        assert fast.stalled_cycles == tick.stalled_cycles
        assert fast.mean_wait == tick.mean_wait
        assert fast.max_wait == tick.max_wait
    assert event.telemetry is None and batch.telemetry is None
    assert batch_s < event_s  # stepping part of the row beats all of it

    machines = [machine if r % 2 == 0 else j90()
                for r in range(GRID_BOUNDED_ROWS)]
    patterns = [zipf_pattern(BOUNDED_N, 1 << 24, 1.2, seed=r)
                for r in range(GRID_BOUNDED_ROWS)]
    grid_s, fused = _best_of(BOUNDED_REPEATS, simulate_scatter_grid,
                             machines, patterns, bank_map)
    for got, m, row in zip(fused, machines, patterns):
        alone = _world_run(m, row, bank_map)
        assert got.time == alone.time
        assert (got.bank_loads == alone.bank_loads).all()
        assert got.stalled_cycles == alone.stalled_cycles
        assert got.mean_wait == alone.mean_wait
        assert got.max_wait == alone.max_wait
    assert fused[0].stalled_cycles > 0  # bounded rows really fell back

    save_result("perf_cycle_engine_bounded", "\n".join([
        "cycle engines on the stall path (zipf 1.2, h1 map, "
        f"{machine.name}, queue_capacity=8, n={BOUNDED_N})",
        "",
        f"{'path':<10} {'seconds':>10} {'sim cycles':>12} "
        f"{'stalls':>10}",
        f"{'world':<10} {event_s:>10.4f} {event.time:>12.0f} "
        f"{event.stalled_cycles:>10.0f}",
        f"{'batch':<10} {batch_s:>10.4f} {batch.time:>12.0f} "
        f"{batch.stalled_cycles:>10.0f}",
        f"{'grid x' + str(GRID_BOUNDED_ROWS):<10} {grid_s:>10.4f} "
        f"{'-':>12} {sum(r.stalled_cycles for r in fused):>10.0f}",
        "",
        "world and batch bit-identical to the tick engine; every grid "
        "row (bounded/unbounded alternating) bit-identical to its "
        "stand-alone world run",
    ]))

    data = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.is_file() \
        else {"benchmark": "cycle_engine", "machine": j90().name,
              "n": N, "k": K, "telemetry": "off"}
    data.update({
        "bounded_n": BOUNDED_N,
        "event_bounded_seconds": round(event_s, 6),
        "batch_bounded_seconds": round(batch_s, 6),
        "grid_bounded_rows": GRID_BOUNDED_ROWS,
        "grid_bounded_seconds": round(grid_s, 6),
    })
    BENCH_JSON.write_text(json.dumps(data, indent=2) + "\n")


GRID_POINTS = 64
GRID_N = 256
GRID_REPEATS = 3


def test_perf_grid_fusion(benchmark, save_result):
    """Fused whole-grid evaluation vs. per-point pooled dispatch.

    A 64-point same-``n`` sweep (hot-spot scatter, J90, batch engine)
    submitted through :func:`repro.experiments.runner.run_grid` twice:
    once with grid fusion on (one fused :func:`simulate_scatter_grid`
    task, serial, no pool) and once forced down the legacy path
    (``fuse=False``, four pooled workers evaluating points one by one).
    The sweep uses a small per-point ``n``, the regime grid fusion
    targets: per-task dispatch overhead dominates, so collapsing the
    sweep into one kernel pass wins even against a warm pool.  Asserts
    per-point equality of the two result lists and a >= 5x
    points-per-second win for the fused pass, then merges the grid
    timings into ``BENCH_cycle_engine.json`` next to the engine keys so
    ``tools/perf_guard.py`` gates ``grid_fused_seconds``.
    """
    from repro.experiments import runner
    from repro.serving.service import evaluate_point

    machine = j90()
    points = [
        dict(op="simulate", machine=machine,
             addresses=hotspot(GRID_N, GRID_N, DEFAULT_SPACE, seed=s),
             engine="batch", bank_map_kind="interleave", map_seed=0)
        for s in range(GRID_POINTS)
    ]

    runner.reset_grid_stats()
    fused_s, fused = _best_of(GRID_REPEATS, runner.run_grid,
                              evaluate_point, points,
                              parallel=1, cache=False)
    stats = runner.grid_stats()
    # Evidence the fused path actually ran: every point of every repeat
    # went through the fused grid task, none through per-point calls.
    assert stats.fused_points == GRID_REPEATS * GRID_POINTS
    assert stats.fused_seconds > 0.0
    run_once(benchmark, runner.run_grid, evaluate_point, points,
             parallel=1, cache=False)

    pooled_s, pooled = _best_of(GRID_REPEATS, runner.run_grid,
                                evaluate_point, points, parallel=4,
                                cache=False, fuse=False)

    # Fusion is only a performance lever: both passes must agree on
    # every point.
    assert fused == pooled

    fused_pps = GRID_POINTS / fused_s
    pooled_pps = GRID_POINTS / pooled_s
    grid_speedup = pooled_s / fused_s
    assert grid_speedup >= 5.0, (
        f"fused grid pass only {grid_speedup:.1f}x faster than per-point "
        f"pooled dispatch ({fused_s:.3f}s vs {pooled_s:.3f}s for "
        f"{GRID_POINTS} points)"
    )

    lines = [
        "grid fusion performance (hot-spot sweep, "
        f"{machine.name}, {GRID_POINTS} points, n={GRID_N})",
        "",
        f"{'dispatch':<18} {'seconds':>10} {'points/sec':>12}",
        f"{'fused (1 task)':<18} {fused_s:>10.4f} {fused_pps:>12.0f}",
        f"{'pooled (4 procs)':<18} {pooled_s:>10.3f} {pooled_pps:>12.0f}",
        "",
        f"fused over pooled: {grid_speedup:.1f}x "
        "(bit-identical results)",
    ]
    save_result("perf_grid_fusion", "\n".join(lines))

    # Merge with the engine timings written by test_perf_cycle_engine
    # (pytest runs it first within this file); a standalone run of this
    # test still produces a guard-comparable file.
    data = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.is_file() \
        else {"benchmark": "cycle_engine", "machine": machine.name,
              "n": N, "k": K, "telemetry": "off"}
    data.update({
        "grid_points": GRID_POINTS,
        "grid_n": GRID_N,
        "grid_fused_seconds": round(fused_s, 6),
        "grid_pooled_seconds": round(pooled_s, 6),
        "grid_points_per_sec": round(fused_pps, 1),
        "grid_pooled_points_per_sec": round(pooled_pps, 1),
        "grid_fused_speedup": round(grid_speedup, 2),
    })
    BENCH_JSON.write_text(json.dumps(data, indent=2) + "\n")
