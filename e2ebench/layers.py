"""Per-layer numbers from a traced run's spans and the server's counters.

Spans come from ``traced_server.py`` (one file per server process);
only spans that start inside the timed phase count.  Self time is a
span minus its child spans; a wait is the part of a request's time in
one layer that its next layer down does not account for.  Counts come
from the server's public surfaces: ``GET /metrics`` and the
``--manifest`` file.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: (pattern kind, n) pairs with their own resolve_pattern metric: the
#: cold-mix deck's patterns and the stream-trace chunks.
RESOLVE_CASES = (
    ("hotspot", 4096), ("hotspot", 16384), ("uniform", 4096),
    ("uniform", 16384), ("uniform", 65536), ("zipf", 4096),
    ("zipf", 16384), ("multi_hotspot", 4096), ("multi_hotspot", 65536),
    ("addresses", 4096),
)

#: Per-layer metric name -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "serving.frontend.self_us": "us",
    "serving.frontend.decode_us_per_kb": "us/KB",
    "serving.frontend.bytes_in_per_req": "B",
    "serving.frontend.bytes_out_per_req": "B",
    "serving.shard.route_digest_us": "us",
    "serving.shard.hot_get_us": "us",
    "serving.shard.hot_hit_ratio": "ratio",
    "serving.shard.forward_wait_ms": "ms",
    "serving.service.admit_us": "us",
    "serving.service.lru_hit_ratio": "ratio",
    "serving.service.batch_wait_ms": "ms",
    "serving.service.occupancy": "count",
    "serving.service.stream_step_ms": "ms",
    "serving.service.stream_wait_ms": "ms",
    "serving.service.shed": "count",
    "serving.service.expired": "count",
    "serving.service.failed": "count",
    "serving.request.validate_us": "us",
    "serving.request.resolve_pattern_ms": "ms",
    **{f"serving.request.resolve_pattern_ms.{kind}.n{n}": "ms"
       for kind, n in RESOLVE_CASES},
    "experiments.runner.run_grid_ms": "ms",
    "experiments.runner.points_per_call": "count",
    "experiments.runner.cache_key_us": "us",
    "experiments.runner.disk_probe_ms": "ms",
    "experiments.runner.disk_store_ms": "ms",
    "experiments.runner.fused_share": "ratio",
    "simulator.banksim.ns_per_addr": "ns",
    "simulator.cycle_batch.ns_per_addr": "ns",
    "simulator.cycle_batch.bounded_ns_per_addr": "ns",
    "simulator.cycle.event_ns_per_addr": "ns",
    "simulator.cycle_grid.ns_per_addr": "ns",
    "simulator.stream.ns_per_addr": "ns",
    "simulator.stream.bounded_ns_per_addr": "ns",
    "core.cost.predict_ns_per_addr": "ns",
    "mapping.hashing.ns_per_addr": "ns",
    "process.router.cpu_us_per_req": "us",
    "process.workers.cpu_us_per_req": "us",
    "process.client.cpu_share": "ratio",
    "trace.throughput_overhead": "ratio",
}

#: (span id, parent id, name, start ns, end ns, request id, attrs, pid)
Span = Tuple[int, int, str, int, int, Optional[str], Optional[dict], int]


def load_spans(spans_dir: Path) -> List[Span]:
    """Every span of every server process."""
    spans: List[Span] = []
    for path in sorted(spans_dir.glob("spans-*.json")):
        pid = int(path.stem.split("-")[1])
        for row in json.loads(path.read_text()):
            spans.append(tuple(row) + (pid,))  # type: ignore[arg-type]
    return spans


def _p50(values: Iterable[float]) -> Optional[float]:
    values = list(values)
    return statistics.median(values) if values else None


def _dur(span: Span) -> int:
    return span[4] - span[3]


def self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, p50 duration and total self time (ms)."""
    child_ns: Dict[Tuple[int, int], int] = defaultdict(int)
    for s in spans:
        if s[1]:
            child_ns[(s[7], s[1])] += _dur(s)
    out: Dict[str, Dict[str, float]] = {}
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
    for name, group in sorted(by_name.items()):
        durs = [_dur(s) for s in group]
        self_ns = sum(max(0, _dur(s) - child_ns.get((s[7], s[0]), 0))
                      for s in group)
        out[name] = {"calls": len(group),
                     "p50_us": statistics.median(durs) / 1e3,
                     "self_ms": self_ns / 1e6}
    return out


def _by_rid(spans: List[Span], name: str) -> Dict[str, List[Span]]:
    """Spans of one name per request id, in start order (ids repeat when
    a lane cycles; joins pair the k-th occurrences)."""
    out: Dict[str, List[Span]] = defaultdict(list)
    for s in sorted((s for s in spans if s[2] == name and s[5]),
                    key=lambda s: s[3]):
        out[s[5]].append(s)  # type: ignore[index]
    return out


def per_layer(spans: List[Span], window: Tuple[float, float],
              client: List[Tuple[str, float]], bytes_io: Tuple[int, int],
              counts: Dict[str, Any], procs: Dict[str, float],
              overhead: float) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metrics; also the names of layers that did not run.

    ``client`` holds (request id, round trip seconds) per timed request
    in send order; ``bytes_io`` is what the server received and sent
    over the timed phase; ``counts`` the /metrics and manifest figures;
    ``procs`` the /proc readings of the untraced run.
    """
    lo, hi = window[0] * 1e9, window[1] * 1e9
    spans = [s for s in spans if lo <= s[3] <= hi]
    named: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        named[s[2]].append(s)
    m: Dict[str, Optional[float]] = {}

    def p50_us(name: str) -> Optional[float]:
        v = _p50(_dur(s) for s in named[name])
        return None if v is None else v / 1e3

    def p50_ms(name: str) -> Optional[float]:
        v = p50_us(name)
        return None if v is None else v / 1e3

    def ns_per_addr(group: List[Span]) -> Optional[float]:
        return _p50(_dur(s) / s[6]["n"] for s in group if s[6]["n"])

    # serving.frontend
    tickets = _by_rid(spans, "serving.backend.ticket")
    seen: Dict[str, int] = defaultdict(int)
    frontend_self = []
    for rid, rtt in client:
        k = seen[rid]
        seen[rid] += 1
        if k < len(tickets.get(rid, ())):
            frontend_self.append(rtt * 1e6 - _dur(tickets[rid][k]) / 1e3)
    m["serving.frontend.self_us"] = _p50(frontend_self)
    decode = named["serving.frontend.decode"]
    kb = sum(s[6]["bytes"] for s in decode) / 1024.0
    m["serving.frontend.decode_us_per_kb"] = \
        sum(_dur(s) for s in decode) / 1e3 / kb if kb else None
    n_req = max(1, len(client))
    m["serving.frontend.bytes_in_per_req"] = bytes_io[0] / n_req
    m["serving.frontend.bytes_out_per_req"] = bytes_io[1] / n_req

    # serving.shard
    m["serving.shard.route_digest_us"] = p50_us("serving.shard.route_digest")
    m["serving.shard.hot_get_us"] = p50_us("serving.shard.hot_get")
    m["serving.shard.hot_hit_ratio"] = counts.get("hot_hit_ratio")
    service_tickets = _by_rid(spans, "serving.service.ticket")
    waits = []
    if named["serving.shard.route_digest"]:
        for rid, group in tickets.items():
            for k, s in enumerate(group):
                if s[6]["sync"]:
                    continue  # answered by the router's hot-tier probe
                inner = service_tickets.get(rid, ())
                worker = _dur(inner[k]) if k < len(inner) else 0
                waits.append((_dur(s) - worker) / 1e6)
    m["serving.shard.forward_wait_ms"] = _p50(waits)

    # serving.service and serving.batcher
    m["serving.service.admit_us"] = p50_us("serving.service.submit")
    m["serving.service.lru_hit_ratio"] = counts.get("lru_hit_ratio")
    m["serving.service.batch_wait_ms"] = p50_ms("serving.batcher.wait")
    m["serving.service.occupancy"] = counts.get("occupancy")
    chunks = [s for s in named["serving.service.ticket"]
              if s[6]["action"] == "chunk"]
    feeds = named["simulator.stream.feed"]
    m["serving.service.stream_step_ms"] = \
        None if not chunks else _p50(_dur(s) for s in chunks) / 1e6
    m["serving.service.stream_wait_ms"] = None if not (chunks and feeds) \
        else (statistics.fmean(_dur(s) for s in chunks)
              - statistics.fmean(_dur(s) for s in feeds)) / 1e6
    for key in ("shed", "expired", "failed"):
        m[f"serving.service.{key}"] = counts.get(key)

    # serving.request and workloads.patterns
    m["serving.request.validate_us"] = p50_us("serving.request.validate")
    resolves = named["serving.request.resolve_pattern"]
    m["serving.request.resolve_pattern_ms"] = \
        p50_ms("serving.request.resolve_pattern")
    for kind, n in RESOLVE_CASES:
        v = _p50(_dur(s) for s in resolves
                 if s[6]["kind"] == kind and s[6]["n"] == n)
        m[f"serving.request.resolve_pattern_ms.{kind}.n{n}"] = \
            None if v is None else v / 1e6

    # experiments.runner
    grids = named["experiments.runner.run_grid"]
    m["experiments.runner.run_grid_ms"] = p50_ms("experiments.runner.run_grid")
    points = sum(s[6]["points"] for s in grids)
    m["experiments.runner.points_per_call"] = \
        points / len(grids) if grids else None
    m["experiments.runner.cache_key_us"] = \
        p50_us("experiments.runner.cache_key")
    m["experiments.runner.disk_probe_ms"] = \
        p50_ms("experiments.runner.disk_probe")
    m["experiments.runner.disk_store_ms"] = \
        p50_ms("experiments.runner.disk_store")
    fused = sum(s[6]["rows"] for s in named["simulator.cycle_grid"])
    m["experiments.runner.fused_share"] = fused / points if points else None

    # simulator engines
    engine = named["simulator.engine"]
    m["simulator.banksim.ns_per_addr"] = ns_per_addr(
        [s for s in engine if s[6]["engine"] == "banksim"])
    m["simulator.cycle_batch.ns_per_addr"] = ns_per_addr(
        [s for s in engine if s[6]["engine"] == "batch"
         and not s[6]["bounded"]])
    m["simulator.cycle_batch.bounded_ns_per_addr"] = ns_per_addr(
        [s for s in engine if s[6]["engine"] == "batch" and s[6]["bounded"]])
    m["simulator.cycle.event_ns_per_addr"] = ns_per_addr(
        [s for s in engine if s[6]["engine"] == "event"])
    m["simulator.cycle_grid.ns_per_addr"] = \
        ns_per_addr(named["simulator.cycle_grid"])
    m["simulator.stream.ns_per_addr"] = ns_per_addr(
        [s for s in feeds if not s[6]["bounded"]])
    m["simulator.stream.bounded_ns_per_addr"] = ns_per_addr(
        [s for s in feeds if s[6]["bounded"]])
    m["core.cost.predict_ns_per_addr"] = ns_per_addr(
        [s for s in spans if s[2].startswith("core.cost.")])
    m["mapping.hashing.ns_per_addr"] = ns_per_addr(named["mapping.hashing"])

    # processes (untraced run) and tracing overhead
    m["process.router.cpu_us_per_req"] = procs.get("router_us_per_req")
    m["process.workers.cpu_us_per_req"] = procs.get("workers_us_per_req")
    m["process.client.cpu_share"] = procs.get("client_share")
    m["trace.throughput_overhead"] = overhead

    absent = [k for k in PER_LAYER if m.get(k) is None]
    return {k: float(m.get(k) or 0.0) for k in PER_LAYER}, absent
