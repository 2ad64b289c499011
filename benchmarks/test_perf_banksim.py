"""Perf — segmented-cummax FIFO kernel and the closed-form scatter path.

Times the two layers the batch cycle engine is built on:

* ``fifo_service_times`` — the vectorized segmented-cummax kernel that
  resolves FIFO bank start times for a whole superstep at once, on a
  uniform-random workload four times the paper's S = 64K;
* ``simulate_scatter`` — the closed-form (d,x)-BSP scatter built on the
  kernel, on the Experiment-1 hot-spot pattern at S = 64K.

Saves the timing table under ``benchmarks/results/`` and writes
machine-readable numbers to ``BENCH_banksim.json`` at the repo root for
``tools/perf_guard.py`` (which gates both timings against the committed
baseline).
"""

import json
import pathlib
import time

import numpy as np
from conftest import run_once

from repro.experiments.common import DEFAULT_SEED, DEFAULT_SPACE, j90
from repro.simulator import simulate_scatter
from repro.simulator import fifo_service_times
from repro.workloads import hotspot

BENCH_JSON = pathlib.Path(__file__).parents[1] / "BENCH_banksim.json"

N = 64 * 1024
KERNEL_N = 4 * N
REPEATS = 3


def _best_of(repeats, fn, *args, **kwargs):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_perf_banksim(benchmark, save_result):
    machine = j90()
    rng = np.random.default_rng(DEFAULT_SEED)
    arrivals = np.sort(rng.integers(0, KERNEL_N // 4, KERNEL_N)).astype(
        np.float64
    )
    servers = rng.integers(0, machine.n_banks, KERNEL_N)

    kernel_s, starts = _best_of(REPEATS, fifo_service_times,
                                arrivals, servers, float(machine.d))

    addr = hotspot(N, N, DEFAULT_SPACE, seed=DEFAULT_SEED)
    scatter_s, scatter = _best_of(REPEATS, simulate_scatter, machine, addr)
    run_once(benchmark, simulate_scatter, machine, addr)

    # Sanity, not perf: no start precedes its arrival, and the scatter's
    # timed hot path must not have collected telemetry.
    assert (starts >= arrivals).all()
    assert scatter.telemetry is None
    per_req_us = kernel_s / KERNEL_N * 1e6

    lines = [
        f"banksim kernel performance ({machine.name})",
        "",
        f"{'layer':<18} {'n':>8} {'seconds':>10}",
        f"{'fifo kernel':<18} {KERNEL_N:>8} {kernel_s:>10.4f}",
        f"{'scatter (hotspot)':<18} {N:>8} {scatter_s:>10.4f}",
        "",
        f"kernel cost: {per_req_us:.3f} us/request",
    ]
    save_result("perf_banksim", "\n".join(lines))

    BENCH_JSON.write_text(json.dumps({
        "benchmark": "banksim",
        "machine": machine.name,
        "n": N,
        "kernel_n": KERNEL_N,
        "telemetry": "off",
        "kernel_seconds": round(kernel_s, 6),
        "banksim_seconds": round(scatter_s, 6),
        "sim_cycles": float(scatter.time),
    }, indent=2) + "\n")
