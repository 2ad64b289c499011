"""Perf — the serving layer on a hot-spot dashboard workload (S1).

Three measurements of the serving tier:

* **Hot-path throughput** — a small set of "dashboard" questions
  (hot-spot predict/compare queries on the J90) asked over and over,
  the workload the two-level cache exists for.  After one warm-up pass
  every answer comes from the in-memory LRU; the service must sustain
  >= 1k requests/second, with p50/p95 latency recorded.
* **Sharded hot path** — the same dashboard workload through a
  :class:`repro.serving.ShardRouter` with a warmed answer cache.  The
  router answers hot questions from its own LRU, keyed by the request
  *digest* — no pattern materialisation, no 8 KB array hash per
  request — and must beat the single-process hot path by >= 5x even
  on a single-core host (the win is per-request work, not
  parallelism).
* **Occupancy vs latency knee** — distinct (uncacheable) requests
  offered at full speed while the latency watermark sweeps from
  sub-millisecond to tens of milliseconds.  Batch occupancy climbs
  with the watermark while p95 latency grows past the knee — the
  serving analogue of the superstep-size trade-off in the (d,x)-BSP
  cost law (docs/serving.md derives the capacity math).

Saves the paper-style table to ``benchmarks/results/perf_serving.txt``
(referenced by the S1 section of EXPERIMENTS.md) and writes
machine-readable numbers to ``BENCH_serving.json`` at the repo root for
``tools/perf_guard.py`` (both ``serving_seconds`` and
``multi_serving_seconds`` are gated).
"""

import json
import pathlib
import time

from conftest import run_once

from repro.serving import PredictionService, ShardRouter, percentile

BENCH_JSON = pathlib.Path(__file__).parents[1] / "BENCH_serving.json"

N = 1024
HOT_QUERIES = 8
HOT_REQUESTS = 4000
WORKERS = 4
MULTI_SPEEDUP_FLOOR = 5.0
KNEE_REQUESTS = 256
KNEE_FLUSH_MS = (0.25, 1.0, 4.0, 16.0)


def _hot_request(i):
    """One of the small rotating set of dashboard questions."""
    return {
        "op": "predict", "machine": "j90",
        "pattern": {"kind": "hotspot", "n": N, "k": 2 ** (i % HOT_QUERIES)},
    }


def _distinct_request(i):
    """A never-repeating request (forces an engine evaluation)."""
    return {
        "op": "predict", "machine": "j90",
        "pattern": {"kind": "hotspot", "n": N, "k": i + 1},
    }


def _serve_hot(service, count):
    responses = service.serve([_hot_request(i) for i in range(count)])
    assert all(r.ok for r in responses)
    return responses


def test_perf_serving(benchmark, save_result):
    # --- hot-path throughput -----------------------------------------
    with PredictionService(batch_size=32, flush_ms=1.0,
                           deadline_ms=None, disk_cache=False) as svc:
        _serve_hot(svc, HOT_QUERIES)               # warm the LRU
        t0 = time.perf_counter()
        responses = _serve_hot(svc, HOT_REQUESTS)
        hot_seconds = time.perf_counter() - t0
        run_once(benchmark, _serve_hot, svc, HOT_QUERIES)
        hot_stats = svc.stats()

    assert all(r.cached for r in responses), "hot path missed the cache"
    rps = HOT_REQUESTS / hot_seconds
    latencies = [r.latency_ms for r in responses]
    p50 = percentile(latencies, 50.0)
    p95 = percentile(latencies, 95.0)
    assert rps >= 1000.0, (
        f"hot-path throughput {rps:.0f} req/s is below the 1k req/s bar "
        f"({hot_seconds:.3f}s for {HOT_REQUESTS} requests)"
    )
    assert hot_stats.evaluations == HOT_QUERIES    # warm-up only

    # --- sharded hot path --------------------------------------------
    with ShardRouter(WORKERS, batch_size=32, flush_ms=1.0,
                     deadline_ms=None, disk_cache=False) as router:
        _serve_hot(router, HOT_QUERIES)            # warm the router's cache
        t0 = time.perf_counter()
        multi_responses = _serve_hot(router, HOT_REQUESTS)
        multi_seconds = time.perf_counter() - t0
        router_stats = router.stats()

    assert all(r.cached for r in multi_responses), \
        "sharded hot path missed the router's cache"
    assert router_stats.hot_hits >= HOT_REQUESTS
    multi_rps = HOT_REQUESTS / multi_seconds
    speedup = multi_rps / rps
    multi_latencies = [r.latency_ms for r in multi_responses]
    multi_p50 = percentile(multi_latencies, 50.0)
    multi_p95 = percentile(multi_latencies, 95.0)
    assert multi_rps >= MULTI_SPEEDUP_FLOOR * rps, (
        f"sharded hot path {multi_rps:.0f} req/s is under "
        f"{MULTI_SPEEDUP_FLOOR}x the single-process {rps:.0f} req/s "
        f"({multi_seconds:.3f}s for {HOT_REQUESTS} requests)"
    )

    # --- occupancy vs latency knee -----------------------------------
    knee_rows = []
    for flush_ms in KNEE_FLUSH_MS:
        with PredictionService(batch_size=64, flush_ms=flush_ms,
                               deadline_ms=None, lru_size=0,
                               disk_cache=False) as svc:
            cold = svc.serve([_distinct_request(i)
                              for i in range(KNEE_REQUESTS)])
            stats = svc.stats()
        assert all(r.ok for r in cold)
        knee_rows.append((
            flush_ms,
            stats.mean_occupancy,
            percentile([r.latency_ms for r in cold], 95.0),
            KNEE_REQUESTS / max(stats.batches, 1),
        ))
    occupancy = max(row[1] for row in knee_rows)
    assert occupancy > 1.0, "batching never grouped a single flush"

    lines = [
        f"serving performance (hot-spot dashboard, Cray J90, n={N})",
        "",
        f"hot path: {HOT_REQUESTS} requests over {HOT_QUERIES} distinct "
        f"questions, LRU warm",
        f"  throughput {rps:>8.0f} req/s   "
        f"p50 {p50:.3f} ms   p95 {p95:.3f} ms",
        "",
        f"sharded hot path: same workload, ShardRouter x{WORKERS}, "
        f"router cache warm",
        f"  throughput {multi_rps:>8.0f} req/s   "
        f"p50 {multi_p50:.3f} ms   p95 {multi_p95:.3f} ms   "
        f"({speedup:.1f}x single-process)",
        "",
        "occupancy vs latency knee "
        f"({KNEE_REQUESTS} distinct requests, batch_size=64, LRU off)",
        f"{'flush_ms':>9} {'occupancy':>10} {'p95_ms':>9}",
    ]
    for flush_ms, occ, knee_p95, _ in knee_rows:
        lines.append(f"{flush_ms:>9.2f} {occ:>10.1f} {knee_p95:>9.2f}")
    lines += [
        "",
        "reading: past the knee the latency watermark buys occupancy "
        "(amortized per-flush cost) at the price of tail latency — the "
        "superstep trade-off, served online.",
    ]
    save_result("perf_serving", "\n".join(lines))

    BENCH_JSON.write_text(json.dumps({
        "benchmark": "serving",
        "machine": "Cray J90",
        "n": N,
        "telemetry": "off",
        "requests": HOT_REQUESTS,
        "serving_seconds": round(hot_seconds, 6),
        "rps": round(rps, 1),
        "p50_ms": round(p50, 4),
        "p95_ms": round(p95, 4),
        "workers": WORKERS,
        "multi_requests": HOT_REQUESTS,
        "multi_serving_seconds": round(multi_seconds, 6),
        "multi_rps": round(multi_rps, 1),
        "speedup": round(speedup, 2),
        "batch_occupancy": round(occupancy, 2),
    }, indent=2) + "\n")
