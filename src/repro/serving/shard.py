"""Sharded multi-worker serving: router, worker processes, shared hot tier.

One :class:`~repro.serving.PredictionService` is a single dispatcher
thread in a single process — its cached hot path tops out in the low
thousands of requests per second because every request re-resolves its
pattern and re-hashes it into a cache key.  This module scales the
service *out* without changing what it computes:

* **Sharding by request key** — :class:`ShardRouter` spawns N worker
  processes, each hosting an ordinary (unchanged) ``PredictionService``,
  and routes every request by a canonical digest of its
  result-determining fields (:func:`route_digest`, built on the
  experiment runner's own canonical argument encoder — the same
  machinery as :func:`repro.experiments.runner.cache_key`).  Identical
  requests always land on the same shard, so each shard's in-memory LRU
  stays hot and duplicate requests collapse onto one evaluation instead
  of N.
* **A shared hot tier** — :class:`SharedHotTier` is a fixed-size result
  cache in one ``multiprocessing.shared_memory`` segment (named through
  :func:`repro.experiments.runner.shm_segment_name`, so
  ``clear_cache``'s orphan sweep covers it) sitting *over* the runner's
  on-disk memo: a result any shard has served once is readable by the
  router as one slot lookup plus one small unpickle, with no pipe
  crossing, no disk probe and no re-deserialization per shard.  The
  router probes it once per request; the workers only fill it (a
  request reaches a worker because the router just missed, so a second
  probe there would almost never hit).  Writers serialize on a
  cross-process lock; readers are lock-free behind a per-slot sequence
  counter (torn reads are detected and treated as misses — it is a
  cache, a miss is always correct).
* **Fault tolerance** — a worker that dies takes only its in-flight
  requests on a detour: the router re-routes them (and all later
  requests for that shard) to the surviving shards and counts the
  event in :class:`~repro.serving.metrics.RouterStats.rebalanced`.
* **Stream affinity** — ``op == "stream"`` requests route by session
  identity alone (the ``stream_id``), so every chunk of a stream
  reaches the shard holding its
  :class:`~repro.simulator.stream.StreamSimulator` state, and they
  bypass the hot tier on both sides (a chunk's answer is positional,
  never replayable).  A worker death mid-stream drops the session:
  rerouted chunks are answered ``bad-request`` with a reopen hint, the
  router itself stays up (docs/streaming.md).

Responses are **bit-identical** to a single-process service for any
request mix — every evaluation still happens inside a stock
``PredictionService`` via :func:`~repro.serving.service.evaluate_point`,
and the hot tier only replays payloads such a service produced
(property-tested across worker counts in
``tests/serving/test_router.py``).  Serving metadata (``latency_ms``,
``batch``, ``cached``) reflects each deployment's own timing, exactly
as LRU hits already do in one process.

The shard/drain discipline follows the bounded-buffer style of
bulk-synchronous pseudo-streaming (PAPERS.md, arXiv 1608.07200): the
router never buffers unboundedly (each worker's admission queue is the
bound, and shedding happens there), and :meth:`ShardRouter.close`
drains in order — stop admitting, let every shard flush its open
micro-batches, collect the per-shard manifests, then tear the tier
down.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
import struct
import threading
import time
from multiprocessing import connection, get_all_start_methods, get_context
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ParameterError
from ..experiments import runner
from ..experiments.common import DEFAULT_SEED
from .metrics import RouterStats, router_manifest
from .request import (
    STATUS_CODES,
    ServeRequest,
    ServeResponse,
    Ticket,
    failure_response,
    request_id_of,
)
from .service import PredictionService, ServingBackend

__all__ = [
    "SharedHotTier",
    "ShardRouter",
    "route_digest",
]

#: Payload bytes per hot-tier slot: room for any single-point answer
#: and for sweeps of up to about 90 rows; a bigger payload is simply
#: not cached (the slower tiers still answer it).
_HOT_SLOT_BYTES = 8192

#: Requests per pipe message: bulk submissions are forwarded in chunks
#: of this many, so pipe overhead is amortized without head-of-line
#: blocking a whole burst behind one giant pickle.
_SEND_CHUNK = 256

#: The result-determining request fields and their dataclass defaults —
#: everything :func:`route_digest` covers.  ``request_id`` and
#: ``deadline_ms`` are deliberately absent: they change the envelope,
#: never the answer.
_ROUTE_FIELDS: Tuple[Tuple[str, Any], ...] = (
    ("op", "compare"),
    ("machine", "j90"),
    ("pattern", None),
    ("addresses", None),
    ("engine", "banksim"),
    ("bank_map", "interleave"),
    ("map_seed", DEFAULT_SEED),
    ("sweep", None),
)

#: Version tag of the routing/hot-tier key encoding; bump on any change
#: to ``_ROUTE_FIELDS`` or the payload layout.  v2: stream requests
#: route by session identity alone.  v3: no code-version stamp.
_ROUTE_VERSION = 3

#: What routes a stream request: the session, nothing else.  Every
#: ``open``/``chunk``/``close`` of one session must land on the same
#: shard (the session state lives there), and chunks must route
#: identically whatever payload they carry — so ``action``, ``pattern``
#: and ``addresses`` are all deliberately absent.
_STREAM_ROUTE_FIELDS: Tuple[Tuple[str, Any], ...] = (
    ("op", "compare"),
    ("stream_id", None),
)


def _is_stream(request: Union[ServeRequest, Dict[str, Any]]) -> bool:
    """True for a stream-session request (dict or dataclass form)."""
    if isinstance(request, ServeRequest):
        return request.op == "stream"
    return isinstance(request, dict) and request.get("op") == "stream"


def route_digest(request: Union[ServeRequest, Dict[str, Any]]) -> bytes:
    """16-byte canonical digest of a request's result-determining fields.

    Two requests with the same digest ask the same question (same op,
    machine, pattern/addresses, engine, bank map, seed, sweep), so the
    router sends them to the same shard and the hot tier may answer one
    with the other's result.  Envelope fields (``request_id``,
    ``deadline_ms``) are excluded.  Stream requests digest by session
    identity only (:data:`_STREAM_ROUTE_FIELDS`): a session's chunks
    must all reach the shard holding its state, and their answers are
    never hot-tier material — a chunk's result depends on everything
    fed before it, not on the request alone.  Built on the runner's
    canonical argument encoder.  It depends on the question alone, not
    on the code version: the hot tier lives for one router generation
    (created in :class:`ShardRouter`, unlinked at ``close()``), so no
    entry outlives the code that computed it, and a source edit does
    not reshuffle shards.  The disk memo keeps its own code-version
    stamp.
    """
    spec = _STREAM_ROUTE_FIELDS if _is_stream(request) else _ROUTE_FIELDS
    if isinstance(request, ServeRequest):
        fields = {name: getattr(request, name) for name, _ in spec}
    elif isinstance(request, dict):
        fields = {name: request.get(name, d) for name, d in spec}
    else:
        raise ParameterError(
            f"request must be a dict or ServeRequest, "
            f"got {type(request).__name__}"
        )
    h = hashlib.sha256()
    h.update(f"route{_ROUTE_VERSION}:".encode())
    runner._feed(h, fields)
    return h.digest()[:16]


class SharedHotTier:
    """Cross-process result cache in one shared-memory segment.

    A fixed array of ``slots`` slots, each holding one pickled payload
    of at most ``slot_bytes`` bytes under a 16-byte key (a
    :func:`route_digest`).  Direct-mapped: a key owns exactly one slot
    (``int(key) % slots``) and a colliding insert simply overwrites —
    this is a hot *tier* over the on-disk memo, not a store, so
    eviction-by-collision is free and always correct.

    Concurrency: one cross-process ``Lock`` serializes writers; readers
    take no lock at all.  Each slot carries a sequence counter bumped to
    odd before a write and back to even after it (a seqlock) — a reader
    that sees an odd count or a count change across its copy treats the
    slot as a miss.  Payloads are copied out of the segment *before*
    unpickling, so a torn read can never reach ``pickle``.

    The segment is named by
    :func:`repro.experiments.runner.shm_segment_name`, which keeps it
    inside the package's ``/dev/shm`` namespace: a crashed process tree
    leaves a segment that ``clear_cache`` sweeps like any other orphan.
    """

    #: Per-slot header: sequence counter, payload length, 16-byte key.
    _HDR = struct.Struct("<II16s")

    def __init__(
        self,
        slots: int = 1024,
        slot_bytes: int = 8192,
        *,
        name: Optional[str] = None,
        lock: Optional[Any] = None,
        create: bool = True,
    ) -> None:
        if slots < 1:
            raise ParameterError(f"slots must be >= 1, got {slots}")
        if slot_bytes < 1:
            raise ParameterError(
                f"slot_bytes must be >= 1, got {slot_bytes}"
            )
        from multiprocessing import shared_memory

        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        self._slot_size = self._HDR.size + self.slot_bytes
        self._lock = lock if lock is not None else get_context().Lock()
        if create:
            # Freshly created POSIX shm is zero-filled: every slot reads
            # as (seq=0, length=0) — an empty cache, no init pass needed.
            self._seg = shared_memory.SharedMemory(
                name=name if name is not None
                else runner.shm_segment_name("hot"),
                create=True,
                size=self.slots * self._slot_size,
            )
        else:
            if name is None:
                raise ParameterError("attaching needs the segment name")
            self._seg = shared_memory.SharedMemory(name=name)
        self.name = self._seg.name
        self._owner = bool(create)
        # Per-process observability; aggregated by the router manifest.
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.skipped = 0

    @classmethod
    def attach(cls, name: str, slots: int, slot_bytes: int,
               lock: Any) -> "SharedHotTier":
        """Attach to an existing tier (worker side of the router)."""
        return cls(slots, slot_bytes, name=name, lock=lock, create=False)

    def _offset(self, key: bytes) -> int:
        return (int.from_bytes(key[:8], "big") % self.slots) \
            * self._slot_size

    def get(self, key: bytes) -> Optional[Any]:
        """Payload stored under ``key``, or ``None`` (miss).  Lock-free;
        concurrent writes are detected via the slot seqlock and read as
        misses."""
        off = self._offset(key)
        buf = self._seg.buf
        seq1, length, stored = self._HDR.unpack_from(buf, off)
        if (
            seq1 & 1
            or length == 0
            or length > self.slot_bytes
            or stored != key
        ):
            self.misses += 1
            return None
        start = off + self._HDR.size
        payload = bytes(buf[start:start + length])
        seq2 = struct.unpack_from("<I", buf, off)[0]
        if seq2 != seq1:
            self.misses += 1
            return None
        try:
            value = pickle.loads(payload)
        except Exception:  # reprolint: disable=REPRO111 -- a cache can always answer miss; an undecodable slot must never crash a reader
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: bytes, value: Any) -> bool:
        """Store ``value`` under ``key``; ``False`` when it exceeds the
        slot size (too big to cache — callers fall through to the slower
        tiers, which is always correct)."""
        payload = pickle.dumps(value, protocol=4)
        if len(payload) > self.slot_bytes:
            self.skipped += 1
            return False
        off = self._offset(key)
        buf = self._seg.buf
        with self._lock:
            seq = struct.unpack_from("<I", buf, off)[0]
            begin = ((seq + 1) | 1) & 0xFFFFFFFF   # odd: write in progress
            struct.pack_into("<I", buf, off, begin)
            self._HDR.pack_into(buf, off, begin, len(payload), key)
            start = off + self._HDR.size
            buf[start:start + len(payload)] = payload
            struct.pack_into("<I", buf, off, (begin + 1) & 0xFFFFFFFF)
        self.puts += 1
        return True

    def stats(self) -> Dict[str, int]:
        """This process's tier counters (hits/misses/puts/skipped)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "skipped": self.skipped,
        }

    def close(self) -> None:
        """Detach; the creating side also unlinks the segment.
        Idempotent and best-effort, like every shm teardown here."""
        seg, self._seg = getattr(self, "_seg", None), None
        if seg is None:
            return
        try:
            seg.close()
            if self._owner:
                seg.unlink()
        except (OSError, BufferError):  # reprolint: disable=REPRO112 -- teardown is best-effort; clear_cache sweeps leftovers
            pass


def _payload_of(response: ServeResponse) -> Dict[str, Any]:
    """The hot-tier payload for one ``ok`` response: the answer fields
    only — envelope fields (request id, latency, batch, cache flag) are
    re-stamped per request at replay time."""
    return {
        "status": response.status,
        "op": response.op,
        "engine": response.engine,
        "machine": response.machine,
        "result": response.result,
    }


def _worker_main(
    conn: "connection.Connection",
    shard: int,
    tier_name: Optional[str],
    tier_slots: int,
    tier_lock: Any,
    service_kwargs: Dict[str, Any],
) -> None:
    """One shard worker: a stock :class:`PredictionService` behind a pipe.

    Protocol (parent -> worker): ``("batch", [(seq, digest, request),
    ...])`` messages and one final ``("close",)``.  Worker -> parent:
    ``("done", [(seq, response_dict), ...])`` messages and one final
    ``("bye", manifest)`` carrying the shard's serving manifest plus its
    hot-tier counters.  The worker drains greedily — every message
    already queued on the pipe joins the current round, so compatible
    requests across messages share micro-batches — and answers
    everything it received before honouring ``close``, which is what
    gives the router its in-order drain.  It only ``put``s into the hot
    tier: the router probed it for each of these requests and missed.
    """
    service = PredictionService(**service_kwargs)
    tier = (
        SharedHotTier.attach(tier_name, tier_slots, _HOT_SLOT_BYTES,
                             tier_lock)
        if tier_name is not None else None
    )
    closing = False
    try:
        while not closing:
            try:
                msgs = [conn.recv()]
                while conn.poll():
                    msgs.append(conn.recv())
            except (EOFError, OSError):
                break  # parent died; drain what we have and exit
            entries: List[Tuple[int, bytes, Any]] = []
            for msg in msgs:
                if msg[0] == "close":
                    closing = True
                else:
                    entries.extend(msg[1])
            # Everything is submitted before anything is waited on, so
            # compatible requests share flushes.
            tickets = [
                (seq, digest, service.submit(request))
                for seq, digest, request in entries
            ]
            done = []
            for seq, digest, ticket in tickets:
                response = ticket.result()
                # Stream steps never enter the tier: their digest is the
                # session, not the question, and their answers are
                # positional — replaying one would answer the wrong
                # prefix.
                if tier is not None and response.ok \
                        and response.engine != "stream":
                    tier.put(digest, _payload_of(response))
                done.append((seq, response.to_dict()))
            if done:
                conn.send(("done", done))
    finally:
        service.close()
        manifest = dict(service.manifest(), shard=shard)
        if tier is not None:
            manifest.update(hot_puts=tier.puts, hot_skipped=tier.skipped)
            tier.close()
        try:
            conn.send(("bye", manifest))
            conn.close()
        except (OSError, BrokenPipeError):  # reprolint: disable=REPRO112 -- parent already gone; nothing left to report to
            pass


class ShardRouter(ServingBackend):
    """Front door of the sharded serving tier.

    Spawns ``workers`` processes, each hosting a stock
    :class:`PredictionService` built from ``**service_kwargs`` (the
    same knobs as the single-process service), and routes every request
    by :func:`route_digest` — identical questions always reach the same
    shard.  The router probes a :class:`SharedHotTier` once per request
    before forwarding, and the workers fill it, so a question *any*
    shard has answered is replayed from shared memory without crossing
    a pipe at all.

    It keeps the :class:`~repro.serving.service.ServingBackend`
    contract, so the CLI and the front end drive it and the
    single-process service interchangeably.

    Parameters
    ----------
    workers:
        Shard count (>= 1).  Each worker is one process with one
        dispatcher thread.
    hot_tier_slots:
        Shared hot-tier slots; ``0`` disables the tier entirely (every
        request crosses a pipe).
    service_kwargs:
        Forwarded verbatim to each worker's ``PredictionService``.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        hot_tier_slots: int = 1024,
        **service_kwargs: Any,
    ) -> None:
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        super().__init__(RouterStats())
        self.workers = int(workers)
        # Fork keeps worker start-up cheap (no re-import of the
        # package); fall back to the platform default elsewhere.
        ctx = get_context(
            "fork" if "fork" in get_all_start_methods() else None
        )
        self._tier: Optional[SharedHotTier] = None
        tier_name = None
        tier_lock = None
        if hot_tier_slots > 0:
            tier_lock = ctx.Lock()
            self._tier = SharedHotTier(
                hot_tier_slots, _HOT_SLOT_BYTES, lock=tier_lock
            )
            tier_name = self._tier.name
        self._seq = itertools.count()
        #: seq -> (ticket, digest, request, shard); the rebalance map.
        self._pending: Dict[int, Tuple[Ticket, bytes, Any, int]] = {}
        self._live = [True] * self.workers
        self._shard_routed = [0] * self.workers
        self._manifests: List[Optional[Dict[str, Any]]] = \
            [None] * self.workers
        self._closing = False
        self._conns: List[Any] = []
        self._procs: List[Any] = []
        self._send_locks = [threading.Lock() for _ in range(self.workers)]
        for shard in range(self.workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, shard, tier_name, hot_tier_slots,
                      tier_lock, dict(service_kwargs)),
                name=f"repro-serving-shard-{shard}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        # Readers start only after every fork: forking a multi-threaded
        # process is where the deadlocks live.
        self._readers = [
            threading.Thread(
                target=self._reader_loop, args=(shard,),
                name=f"repro-serving-router-reader-{shard}", daemon=True,
            )
            for shard in range(self.workers)
        ]
        for reader in self._readers:
            reader.start()

    # ------------------------------------------------------------------
    # public API (the ServingBackend contract)
    # ------------------------------------------------------------------

    def submit(self, request: Any) -> Ticket:
        """Route one request; returns a :class:`Ticket` immediately
        (already resolved on a hot-tier hit or a bad request)."""
        return self._submit_many([request])[0]

    def serve(
        self, requests: Sequence[Any], timeout: Optional[float] = None
    ) -> List[ServeResponse]:
        """Submit many requests, then collect responses in submit order.

        Bulk submission is the router's fast path: requests are grouped
        per shard and forwarded in chunked pipe messages, so the pipe
        cost is per chunk, not per request."""
        return [t.result(timeout) for t in self._submit_many(requests)]

    def manifest(self) -> Dict[str, Any]:
        """The router manifest (:func:`~repro.serving.metrics.
        router_manifest`); per-shard manifests join it at drain."""
        return router_manifest(self)

    def live_workers(self) -> int:
        """Shards currently believed alive."""
        with self._lock:
            return sum(self._live)

    def shard_routed(self) -> List[int]:
        """Requests forwarded per shard (index-aligned with workers)."""
        with self._lock:
            return list(self._shard_routed)

    def shard_manifests(self) -> List[Dict[str, Any]]:
        """Per-shard serving manifests (reported by workers at drain;
        empty until then)."""
        with self._lock:
            return [m for m in self._manifests if m is not None]

    def hot_puts(self) -> int:
        """Hot-tier inserts across all workers (known after drain)."""
        with self._lock:
            return sum(
                int(m.get("hot_puts", 0))
                for m in self._manifests if m is not None
            )

    def close(self) -> None:
        """Drain every shard in order, then tear the tier down.

        Stop admitting (new submits answer ``closed``/503) -> send each
        live worker the close sentinel (it answers everything already
        on its pipe, drains its service, reports its manifest) -> join
        readers and processes -> unlink the hot tier.  Idempotent."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
        for shard, conn in enumerate(self._conns):
            if not self._live[shard]:
                continue
            with self._send_locks[shard]:
                try:
                    conn.send(("close",))
                except (OSError, BrokenPipeError):  # reprolint: disable=REPRO112 -- worker already gone; its reader handles the fallout
                    pass
        for reader in self._readers:
            reader.join(timeout=60.0)
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # reprolint: disable=REPRO112 -- already closed by the reader's EOF path
                pass
        # Anything still pending lost its worker mid-drain.
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for ticket, _digest, request, _shard in leftovers:
            self._fail(ticket, request, "closed", "router closed")
        if self._tier is not None:
            self._tier.close()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _fail(
        self, ticket: Ticket, request: Any, status: str, error: str
    ) -> None:
        with self._lock:
            if status == "closed":
                self._stats.closed += 1
            else:
                self._stats.failed += 1
        ticket._resolve(failure_response(request, status, error))

    def _shard_of(self, digest: bytes) -> Optional[int]:
        """Home shard for a digest, remapped past dead workers (caller
        holds the lock).  ``None`` when every shard is gone."""
        base = int.from_bytes(digest[:8], "big") % self.workers
        for step in range(self.workers):
            shard = (base + step) % self.workers
            if self._live[shard]:
                if step:
                    self._stats.rebalanced += 1
                return shard
        return None

    def _submit_many(self, requests: Sequence[Any]) -> List[Ticket]:
        tickets: List[Ticket] = []
        forwards: List[Tuple[Ticket, bytes, Any]] = []
        for request in requests:
            ticket = Ticket(request_id_of(request))
            tickets.append(ticket)
            with self._lock:
                self._stats.received += 1
                closing = self._closing
            if closing:
                self._fail(ticket, request, "closed", "router closed")
                continue
            try:
                digest = route_digest(request)
            except ParameterError as exc:  # not a request at all
                ticket._resolve(
                    failure_response(request, "bad-request", str(exc))
                )
                continue
            if self._tier is not None and not _is_stream(request):
                payload = self._tier.get(digest)
                if payload is not None:
                    latency = (time.monotonic() - ticket.t_submit) * 1000.0
                    with self._lock:
                        self._stats.hot_hits += 1
                        self._latencies.append(latency)
                    # The payload is the answer; the envelope is this
                    # request's own.
                    ticket._resolve(ServeResponse(
                        code=STATUS_CODES[payload["status"]],
                        request_id=ticket.request_id, cached=True,
                        latency_ms=latency, **payload,
                    ))
                    continue
            forwards.append((ticket, digest, request))
        if forwards:
            self._dispatch(forwards)
        return tickets

    def _dispatch(
        self, entries: Sequence[Tuple[Ticket, bytes, Any]]
    ) -> None:
        """Forward entries to their shards in chunked pipe messages."""
        by_shard: Dict[int, List[Tuple[int, bytes, Any]]] = {}
        dead: List[Tuple[Ticket, Any]] = []
        closed: List[Tuple[Ticket, Any]] = []
        with self._lock:
            # Re-check ``_closing`` under the lock: close() may have run
            # to completion (readers joined, leftover sweep done) since
            # the admission check, in which case an entry added to
            # ``_pending`` now would never be resolved — there is no
            # reader left to answer it or notice the dead pipe.  Entries
            # that instead land in ``_pending`` *before* close() sets
            # ``_closing`` are always covered by its leftover sweep.
            if self._closing:
                closed = [(t, req) for t, _digest, req in entries]
            else:
                for ticket, digest, request in entries:
                    shard = self._shard_of(digest)
                    if shard is None:
                        dead.append((ticket, request))
                        continue
                    seq = next(self._seq)
                    self._pending[seq] = (ticket, digest, request, shard)
                    self._stats.routed += 1
                    self._shard_routed[shard] += 1
                    by_shard.setdefault(shard, []).append(
                        (seq, digest, request)
                    )
        for ticket, request in closed:
            self._fail(ticket, request, "closed", "router closed")
        for ticket, request in dead:
            self._fail(ticket, request, "error", "no live shard workers")
        for shard, items in by_shard.items():
            with self._send_locks[shard]:
                for i in range(0, len(items), _SEND_CHUNK):
                    try:
                        self._conns[shard].send(
                            ("batch", items[i:i + _SEND_CHUNK])
                        )
                        with self._lock:
                            self._stats.forwarded += 1
                    except (OSError, BrokenPipeError):
                        # Worker died between routing and sending; its
                        # reader thread notices the EOF and rebalances
                        # everything pending there, including these.
                        break

    # ------------------------------------------------------------------
    # worker responses
    # ------------------------------------------------------------------

    def _reader_loop(self, shard: int) -> None:
        conn = self._conns[shard]
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "done":
                now = time.monotonic()
                for seq, resp_dict in msg[1]:
                    with self._lock:
                        entry = self._pending.pop(seq, None)
                    if entry is None:
                        continue
                    ticket = entry[0]
                    latency = (now - ticket.t_submit) * 1000.0
                    resp_dict = dict(resp_dict, latency_ms=latency)
                    with self._lock:
                        self._latencies.append(latency)
                    ticket._resolve(ServeResponse(**resp_dict))
            elif msg[0] == "bye":
                with self._lock:
                    self._manifests[shard] = msg[1]
        self._on_worker_exit(shard)

    def _on_worker_exit(self, shard: int) -> None:
        """Reader saw EOF: mark the shard dead and, unless this is the
        orderly drain, resubmit its in-flight requests elsewhere."""
        with self._lock:
            self._live[shard] = False
            closing = self._closing
            stranded = [
                (seq, entry) for seq, entry in self._pending.items()
                if entry[3] == shard
            ]
            for seq, _entry in stranded:
                del self._pending[seq]
        if not stranded:
            return
        if closing:
            for _seq, (ticket, _d, request, _s) in stranded:
                self._fail(ticket, request, "closed", "router closed")
            return
        # ``rebalanced`` is counted once per request inside _shard_of
        # (the home shard is dead now, so every resubmission remaps).
        self._dispatch(
            [(ticket, digest, request)
             for _seq, (ticket, digest, request, _s) in stranded]
        )
