"""Serving metrics: counters, latency percentiles, manifest export.

The service keeps the same discipline as the experiment runner: every
operational question ("how many requests were shed?", "what did
batching buy?", "is the cache carrying the load?") is answered by a
counter in :class:`ServingStats`, and a whole service run exports a
flat, schema-checked manifest — the serving analogue of
:mod:`repro.experiments.manifest`, validated by the same
:func:`~repro.experiments.manifest.validate_manifest` checker against
:data:`SERVING_MANIFEST_SCHEMA`; the sharded router exports the
router variant (:data:`ROUTER_MANIFEST_SCHEMA`).  Each backend's
``manifest()`` returns its own, and :func:`write_serving_manifest` and
:func:`metrics_table` work from it for either backend — the table
renders the human view through :func:`repro.analysis.format_table`,
the same machinery the telemetry reports use.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

from ..analysis.report import format_table
from ..experiments.manifest import validate_manifest
from ..experiments.runner import code_version

__all__ = [
    "ServingStats",
    "RouterStats",
    "SERVING_MANIFEST_SCHEMA",
    "SERVING_SCHEMA_VERSION",
    "ROUTER_MANIFEST_SCHEMA",
    "ROUTER_SCHEMA_VERSION",
    "percentile",
    "serving_manifest",
    "write_serving_manifest",
    "metrics_table",
    "router_manifest",
]

#: Serving manifest format version; bump on incompatible field changes.
#: v2: ``closed`` (shutdown-time 503s) counted separately from ``shed``
#: (load-shedding 429s).  v3: stream-session counters
#: (``streams_opened`` / ``stream_chunks`` / ``streams_closed``) and the
#: session limits (``max_streams`` / ``stream_window``).
SERVING_SCHEMA_VERSION = 3


@dataclasses.dataclass
class ServingStats:
    """Counters accumulated by one :class:`~repro.serving.PredictionService`.

    Attributes
    ----------
    received:
        Requests submitted (every outcome counts here).
    served:
        Requests answered ``ok``.
    shed:
        Requests rejected by admission control (bounded queue full —
        the 429 path).  Shutdown rejections are *not* counted here;
        they are ``closed``.
    closed:
        Requests caught by service shutdown (the 503 path) — submitted
        while or after :meth:`~repro.serving.PredictionService.close`
        drained the queue.  Separate from ``shed`` so a drain never
        reads as load shedding.
    expired:
        Requests whose deadline lapsed while queued (the 504 path).
    failed:
        Requests lost to an admission or evaluation error (the 500
        path).
    invalid:
        Requests rejected at parse/validation (the 400 path).
    lru_hits / disk_hits:
        Work items answered from the in-memory LRU / the on-disk memo
        cache at admission, without occupying a queue slot.
    evaluations:
        Unique work items actually run through an engine (after batch
        deduplication).
    batches:
        Micro-batch flushes executed.
    batched_requests:
        Work items answered by flushes (``batched_requests / batches``
        is the mean batch occupancy; duplicates collapse onto one
        evaluation, so this can exceed ``evaluations``).
    max_batch:
        Largest single flush.
    queue_high_water:
        Deepest the admission queue ever got.
    streams_opened / stream_chunks / streams_closed:
        Stream sessions opened, chunks fed into them, and sessions
        retired by an explicit ``close`` (a session dropped by service
        shutdown or a stream error is opened-but-not-closed).  Shed
        chunks (session window full) and refused opens (``max_streams``
        reached) count under ``shed``.
    """

    received: int = 0
    served: int = 0
    shed: int = 0
    closed: int = 0
    expired: int = 0
    failed: int = 0
    invalid: int = 0
    lru_hits: int = 0
    disk_hits: int = 0
    evaluations: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch: int = 0
    queue_high_water: int = 0
    streams_opened: int = 0
    stream_chunks: int = 0
    streams_closed: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (manifest/JSON export)."""
        return dataclasses.asdict(self)

    @property
    def mean_occupancy(self) -> float:
        """Mean work items answered per flush (0.0 before any flush)."""
        return self.batched_requests / self.batches if self.batches else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of cache-probed work items answered by a cache."""
        probes = self.lru_hits + self.disk_hits + self.batched_requests
        return (self.lru_hits + self.disk_hits) / probes if probes else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (q in [0, 100]);
    0.0 for an empty sequence.  Matches ``numpy.percentile``'s default
    method, kept dependency-light so the metrics path never imports
    numpy for a handful of latencies."""
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


#: Required fields and types of a serving manifest (flat, like
#: :data:`repro.experiments.manifest.MANIFEST_SCHEMA`).
SERVING_MANIFEST_SCHEMA: Dict[str, type] = {
    "schema_version": int,
    "service": str,
    "code_version": str,
    "max_queue": int,
    "batch_size": int,
    "flush_ms": float,
    "deadline_ms": float,
    "lru_size": int,
    "parallel": int,
    "received": int,
    "served": int,
    "shed": int,
    "closed": int,
    "expired": int,
    "failed": int,
    "invalid": int,
    "lru_hits": int,
    "disk_hits": int,
    "evaluations": int,
    "batches": int,
    "batched_requests": int,
    "max_batch": int,
    "queue_high_water": int,
    "streams_opened": int,
    "stream_chunks": int,
    "streams_closed": int,
    "max_streams": int,
    "stream_window": int,
    "mean_occupancy": float,
    "cache_hit_ratio": float,
    "p50_ms": float,
    "p95_ms": float,
    "uptime_seconds": float,
    "created_unix": float,
}


def serving_manifest(service: Any) -> Dict[str, Any]:
    """Flat, schema-checked metrics manifest for one service run.

    ``service`` is a :class:`~repro.serving.PredictionService`; the
    manifest merges its configuration, its :class:`ServingStats`
    counters and the derived latency/occupancy figures, stamped with
    the package code version (same provenance rule as experiment run
    manifests).
    """
    stats = service.stats()
    latencies = service.latencies_ms()
    data: Dict[str, Any] = {
        "schema_version": SERVING_SCHEMA_VERSION,
        "service": "repro.serving.PredictionService",
        "code_version": code_version(),
        "max_queue": int(service.max_queue),
        "batch_size": int(service.batch_size),
        "flush_ms": float(service.flush_ms),
        "deadline_ms": float(service.deadline_ms or 0.0),
        "lru_size": int(service.lru_size),
        "parallel": int(service.parallel),
        "max_streams": int(service.max_streams),
        "stream_window": int(service.stream_window),
        "mean_occupancy": float(stats.mean_occupancy),
        "cache_hit_ratio": float(stats.cache_hit_ratio),
        "p50_ms": percentile(latencies, 50.0),
        "p95_ms": percentile(latencies, 95.0),
        "uptime_seconds": float(service.uptime_seconds()),
        # Provenance timestamp of the manifest itself — never part of a
        # result or a cache key.
        "created_unix": time.time(),
    }
    data.update(stats.as_dict())
    validate_manifest(
        data,
        schema=SERVING_MANIFEST_SCHEMA,
        expected_version=SERVING_SCHEMA_VERSION,
    )
    return data


def write_serving_manifest(
    backend: Any, path: Union[str, Path]
) -> Path:
    """Write a backend's ``manifest()`` to ``path`` as JSON.

    The manifest is schema-checked: the serving or the router variant.
    """
    data = backend.manifest()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n"
    )
    return path


def metrics_table(backend: Any) -> str:
    """Aligned plain-text report of a backend's ``manifest()``.

    One ``metric  value`` row per counter and derived figure, then, for
    the router, one ``routed[i]`` row per shard and a few
    ``shard[i].metric`` rows per collected worker manifest.
    """
    data = backend.manifest()
    rows: List[Any] = [
        (key, data[key]) for key in sorted(data)
        if key not in ("schema_version", "service", "code_version",
                       "created_unix", "shards", "shard_routed")
    ]
    rows.extend(
        (f"routed[{i}]", n)
        for i, n in enumerate(data.get("shard_routed", ()))
    )
    for i, shard in enumerate(data.get("shards", ())):
        rows.extend(
            (f"shard[{i}].{key}", shard[key])
            for key in ("received", "served", "lru_hits", "evaluations",
                        "batches")
            if key in shard
        )
    title = "router metrics" if "shards" in data else "serving metrics"
    return format_table(("metric", "value"), rows, title=title)


# ----------------------------------------------------------------------
# router (sharded multi-worker tier)
# ----------------------------------------------------------------------

#: Router manifest format version; bump on incompatible field changes.
ROUTER_SCHEMA_VERSION = 1


@dataclasses.dataclass
class RouterStats:
    """Counters accumulated by one :class:`~repro.serving.ShardRouter`.

    Attributes
    ----------
    received:
        Requests submitted to the router (every outcome counts here).
    hot_hits:
        Requests the router answered straight from the shared hot tier
        without forwarding to any shard.
    routed:
        Requests forwarded to a shard worker (``shard_routed`` in the
        manifest breaks this down per shard).
    forwarded:
        Pipe messages sent to workers — ``routed / forwarded`` is the
        mean requests-per-message batching the router achieved.
    rebalanced:
        Requests re-routed to a surviving shard after their home
        shard's worker died (in-flight requests are resubmitted, later
        requests remapped).
    closed:
        Requests answered ``closed`` (503) because they arrived during
        or after :meth:`~repro.serving.ShardRouter.close`.
    failed:
        Requests the router itself had to fail (every live shard gone).
    """

    received: int = 0
    hot_hits: int = 0
    routed: int = 0
    forwarded: int = 0
    rebalanced: int = 0
    closed: int = 0
    failed: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (manifest/JSON export)."""
        return dataclasses.asdict(self)


#: Required fields and types of a router manifest.  Flat router-level
#: counters plus two structured fields: ``shard_routed`` (requests per
#: shard, index-aligned with the workers) and ``shards`` (each worker's
#: own schema-checked serving manifest, collected at drain).
ROUTER_MANIFEST_SCHEMA: Dict[str, type] = {
    "schema_version": int,
    "service": str,
    "code_version": str,
    "workers": int,
    "received": int,
    "hot_hits": int,
    "routed": int,
    "forwarded": int,
    "rebalanced": int,
    "closed": int,
    "failed": int,
    "hot_puts": int,
    "shard_routed": list,
    "shards": list,
    "p50_ms": float,
    "p95_ms": float,
    "uptime_seconds": float,
    "created_unix": float,
}


def router_manifest(router: Any) -> Dict[str, Any]:
    """Flat, schema-checked metrics manifest for one router run.

    ``router`` is a :class:`~repro.serving.ShardRouter`.  Worker-side
    serving manifests appear under ``"shards"`` only once the router
    has drained (workers report them as they exit); a live router
    exports its own counters with an empty ``shards`` list.
    """
    stats = router.stats()
    latencies = router.latencies_ms()
    data: Dict[str, Any] = {
        "schema_version": ROUTER_SCHEMA_VERSION,
        "service": "repro.serving.ShardRouter",
        "code_version": code_version(),
        "workers": int(router.workers),
        "hot_puts": int(router.hot_puts()),
        "shard_routed": list(router.shard_routed()),
        "shards": list(router.shard_manifests()),
        "p50_ms": percentile(latencies, 50.0),
        "p95_ms": percentile(latencies, 95.0),
        "uptime_seconds": float(router.uptime_seconds()),
        # Provenance timestamp of the manifest itself — never part of a
        # result or a cache key.
        "created_unix": time.time(),
    }
    data.update(stats.as_dict())
    validate_manifest(
        data,
        schema=ROUTER_MANIFEST_SCHEMA,
        expected_version=ROUTER_SCHEMA_VERSION,
    )
    return data
