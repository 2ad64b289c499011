"""Request serving: a micro-batching prediction/simulation service.

The paper's argument is that ``max(L, g·h_p, d·h_b)`` is cheap enough
to consult *online*; this package is the online front end.  A
:class:`PredictionService` answers "predict this scatter on this
machine", "simulate it with engine X" and "sweep k over these values"
questions — bit-identically to calling the library directly — while
adding the traffic engineering a shared endpoint needs: a bounded
admission queue with deadline/shed backpressure, micro-batching of
compatible requests (grouped by machine + engine + bank mapping,
flushed on size/latency watermarks, duplicates collapsed onto single
engine evaluations), an in-memory LRU in front of the experiment
runner's on-disk memo, and a schema-checked metrics manifest.  The
``stream`` op opens named :class:`~repro.simulator.stream.
StreamSimulator` sessions and feeds them chunk by chunk — unbounded
traces served under a bounded memory footprint, with per-session
windowed backpressure (docs/streaming.md).

Scaling out, :class:`ShardRouter` shards the same service across N
worker processes by canonical request key — shard-local LRU affinity,
duplicate collapse, and a :class:`SharedHotTier` answer cache in the
router, filled from the answers every worker sends back — with
responses bit-identical to one in-process service.  Both keep one :class:`ServingBackend` contract:
``submit`` answers every input with a :class:`Ticket`, ``close``
drains, ``manifest()`` exports the metrics.  :class:`ServingFrontend` is
the network front end for either backend: one ``selectors`` loop
speaking HTTP and NDJSON on the same port.

``python -m repro.serving`` exposes all of it: a line-delimited-JSON
stdio filter by default, ``--http PORT --host ADDR`` for the socket
endpoint, ``--workers N`` for the sharded tier; see docs/serving.md
for the architecture and the capacity math.
"""

from .batcher import MicroBatcher
from .frontend import ServingFrontend
from .metrics import (
    ROUTER_MANIFEST_SCHEMA,
    ROUTER_SCHEMA_VERSION,
    SERVING_MANIFEST_SCHEMA,
    SERVING_SCHEMA_VERSION,
    RouterStats,
    ServingStats,
    metrics_table,
    percentile,
    router_manifest,
    serving_manifest,
    write_serving_manifest,
)
from .request import (
    BANK_MAPS,
    MACHINES,
    OPS,
    PATTERN_KINDS,
    STATUS_CODES,
    STREAM_ACTIONS,
    ServeRequest,
    ServeResponse,
    Ticket,
    request_from_dict,
    resolve_bank_map,
    resolve_machine,
    resolve_pattern,
)
from .service import PredictionService, ServingBackend, evaluate_point
from .shard import ShardRouter, SharedHotTier, route_digest

__all__ = [
    "ServingBackend",
    "PredictionService",
    "Ticket",
    "evaluate_point",
    "ShardRouter",
    "SharedHotTier",
    "route_digest",
    "ServingFrontend",
    "ServeRequest",
    "ServeResponse",
    "request_from_dict",
    "resolve_machine",
    "resolve_pattern",
    "resolve_bank_map",
    "MACHINES",
    "BANK_MAPS",
    "OPS",
    "STREAM_ACTIONS",
    "PATTERN_KINDS",
    "STATUS_CODES",
    "MicroBatcher",
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
