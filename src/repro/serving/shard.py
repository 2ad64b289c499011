"""Sharded multi-worker serving: router, worker processes, answer cache.

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
* **The router's answer cache** — every answer crosses the router on
  its way back from a worker, so the router keeps the ok ones in
  :class:`SharedHotTier`, an in-process LRU keyed by the same digest
  and sized like one worker's LRU (``lru_size`` points).  A question
  any shard has answered is replayed there without crossing a pipe,
  resolving a pattern or probing the disk.  The router validates each
  request exactly as a worker would before it probes, so the cache
  never answers a request the service would refuse.
* **Fault tolerance** — a worker that dies takes only its in-flight
  requests on a detour: the router re-routes them (and all later
  requests for that shard) to the surviving shards and counts the
  event in :class:`~repro.serving.metrics.RouterStats.rebalanced`.
* **Stream affinity** — ``op == "stream"`` requests route by session
  identity alone (the ``stream_id``), so every chunk of a stream
  reaches the shard holding its
  :class:`~repro.simulator.stream.StreamSimulator` state, and they
  bypass the answer cache (a chunk's answer is positional, never
  replayable).  A worker death mid-stream drops the session:
  rerouted chunks are answered ``bad-request`` with a reopen hint, the
  router itself stays up (docs/streaming.md).

Responses are **bit-identical** to a single-process service for any
request mix — every evaluation still happens inside a stock
``PredictionService`` via :func:`~repro.serving.service.evaluate_point`,
and the cache only replays answers such a service produced
(property-tested across worker counts in
``tests/serving/test_router.py``).  Serving metadata (``latency_ms``,
``batch``, ``cached``) reflects each deployment's own timing, exactly
as LRU hits already do in one process.

The shard/drain discipline follows the bounded-buffer style of
bulk-synchronous pseudo-streaming (PAPERS.md, arXiv 1608.07200): the
router never buffers unboundedly (each worker's admission queue is the
bound, and shedding happens there), and :meth:`ShardRouter.close`
drains in order — stop admitting, let every shard flush its open
micro-batches, then collect the per-shard manifests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import threading
import time
from multiprocessing import connection, get_all_start_methods, get_context
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ParameterError
from ..experiments import runner
from .metrics import RouterStats, router_manifest
from .request import (
    ServeRequest,
    ServeResponse,
    Ticket,
    failure_response,
    request_from_dict,
    request_id_of,
)
from .service import PredictionService, ServingBackend, _LRU

__all__ = [
    "SharedHotTier",
    "ShardRouter",
    "route_digest",
]

#: Requests per pipe message: bulk submissions are forwarded in chunks
#: of this many, so pipe overhead is amortized without head-of-line
#: blocking a whole burst behind one giant pickle.
_SEND_CHUNK = 256


def _with_defaults(*names: str) -> Tuple[Tuple[str, Any], ...]:
    """``(name, ServeRequest default)`` for each named request field."""
    defaults = {f.name: f.default for f in dataclasses.fields(ServeRequest)}
    return tuple((name, defaults[name]) for name in names)


#: The result-determining request fields and their dataclass defaults —
#: everything :func:`route_digest` covers.  ``request_id`` and
#: ``deadline_ms`` are deliberately absent: they change the envelope,
#: never the answer.
_ROUTE_FIELDS = _with_defaults(
    "op", "machine", "pattern", "addresses", "engine", "bank_map",
    "map_seed", "sweep",
)

#: Version tag of the routing/answer-cache key encoding; bump on any
#: change to ``_ROUTE_FIELDS`` or the encoding.  v2: stream requests
#: route by session identity alone.  v3: no code-version stamp.  v4:
#: integers and floats digest apart.
_ROUTE_VERSION = 4

#: What routes a stream request: the session, nothing else.  Every
#: ``open``/``chunk``/``close`` of one session must land on the same
#: shard (the session state lives there), and chunks must route
#: identically whatever payload they carry — so ``action``, ``pattern``
#: and ``addresses`` are all deliberately absent.
_STREAM_ROUTE_FIELDS = _with_defaults("op", "stream_id")


def _is_stream(request: Union[ServeRequest, Dict[str, Any]]) -> bool:
    """True for a stream-session request (dict or dataclass form)."""
    if isinstance(request, ServeRequest):
        return request.op == "stream"
    return isinstance(request, dict) and request.get("op") == "stream"


def route_digest(request: Union[ServeRequest, Dict[str, Any]]) -> bytes:
    """16-byte canonical digest of a request's result-determining fields.

    Two requests with the same digest ask the same question (same op,
    machine, pattern/addresses, engine, bank map, seed, sweep), so the
    router sends them to the same shard and its answer cache may answer
    one with the other's result.  Envelope fields (``request_id``,
    ``deadline_ms``) are excluded.  Stream requests digest by session
    identity only (:data:`_STREAM_ROUTE_FIELDS`): a session's chunks
    must all reach the shard holding its state, and their answers are
    never cached — a chunk's result depends on everything fed before
    it, not on the request alone.  Built on the runner's canonical
    argument encoder, with integers and floats kept apart: the service
    refuses ``n: 1024.0`` and answers ``n: 1024``.  It depends on the
    question alone, not on the code version: the answer cache lives for
    one router generation, so no entry outlives the code that computed
    it, and a source edit does not reshuffle shards.  The disk memo
    keeps its own code-version stamp.
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
    runner._feed(h, fields, exact=True)
    return h.digest()[:16]


class SharedHotTier(_LRU):
    """The router's in-process answer cache, one over every shard.

    It holds ok responses under their :func:`route_digest`.  It is the
    workers' LRU, weighing a response by its points (a sweep's rows,
    else 1): with a capacity of ``lru_size`` it holds at most as many
    points as one worker's LRU, and an answer heavier than the whole
    capacity is not stored.  It is a subclass so that tracing its
    ``get`` and ``put`` leaves the workers' LRU untraced.  The caller
    provides locking.
    """

    @staticmethod
    def weight_of(value: Any) -> int:
        """A response's points: its sweep rows, else 1."""
        rows = value.result.get("rows")
        return 1 if rows is None else len(rows)


def _worker_main(
    conn: "connection.Connection",
    shard: int,
    service_kwargs: Dict[str, Any],
) -> None:
    """One shard worker: a stock :class:`PredictionService` behind a pipe.

    Protocol (parent -> worker): ``("batch", [(seq, request), ...])``
    messages and one final ``("close",)``.  Worker -> parent:
    ``("done", [(seq, response_dict), ...])`` messages and one final
    ``("bye", manifest)`` carrying the shard's serving manifest.  The
    worker drains greedily — every message already queued on the pipe
    joins the current round, so compatible requests across messages
    share micro-batches — and answers everything it received before
    honouring ``close``, which is what gives the router its in-order
    drain.
    """
    service = PredictionService(**service_kwargs)
    closing = False
    try:
        while not closing:
            try:
                msgs = [conn.recv()]
                while conn.poll():
                    msgs.append(conn.recv())
            except (EOFError, OSError):
                break  # parent died; drain what we have and exit
            entries: List[Tuple[int, Any]] = []
            for msg in msgs:
                if msg[0] == "close":
                    closing = True
                else:
                    entries.extend(msg[1])
            # Everything is submitted before anything is waited on, so
            # compatible requests share flushes.
            tickets = [
                (seq, service.submit(request)) for seq, request in entries
            ]
            done = [
                (seq, ticket.result().to_dict()) for seq, ticket in tickets
            ]
            if done:
                conn.send(("done", done))
    finally:
        service.close()
        manifest = dict(service.manifest(), shard=shard)
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
    shard.  Every answer comes back through the router, which keeps the
    ok ones in its :class:`SharedHotTier` and probes that once per
    valid request before forwarding, so a question *any* shard has
    answered is replayed without crossing a pipe at all.

    It keeps the :class:`~repro.serving.service.ServingBackend`
    contract, so the CLI and the front end drive it and the
    single-process service interchangeably.

    Parameters
    ----------
    workers:
        Shard count (>= 1).  Each worker is one process with one
        dispatcher thread.
    service_kwargs:
        Each worker's ``PredictionService`` settings, checked here
        before any fork.  ``lru_size`` also sizes the router's answer
        cache, in points; ``0`` turns off both.
    """

    def __init__(self, workers: int = 2, **service_kwargs: Any) -> None:
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        settings = PredictionService.checked_settings(**service_kwargs)
        super().__init__(RouterStats())
        self.workers = int(workers)
        # Fork keeps worker start-up cheap (no re-import of the
        # package); fall back to the platform default elsewhere.
        ctx = get_context(
            "fork" if "fork" in get_all_start_methods() else None
        )
        self._tier = SharedHotTier(settings["lru_size"])
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
                args=(child_conn, shard, settings),
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
        (already resolved on a cache hit or a bad request)."""
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

    def close(self) -> None:
        """Drain every shard in order.

        Stop admitting (new submits answer ``closed``/503) -> send each
        live worker the close sentinel (it answers everything already
        on its pipe, drains its service, reports its manifest) -> join
        readers and processes.  Idempotent."""
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
            # Validated as a worker's service would, so the cache never
            # answers a request the service refuses.
            try:
                if isinstance(request, ServeRequest):
                    request.validate()
                    req = request
                else:
                    req = request_from_dict(request)
                digest = route_digest(req)
            except ParameterError as exc:
                with self._lock:
                    self._stats.invalid += 1
                ticket._resolve(
                    failure_response(request, "bad-request", str(exc))
                )
                continue
            except Exception as exc:  # reprolint: disable=REPRO111 -- as in the service, whatever admitting one request raises is that request's 500, never the caller's
                self._fail(ticket, request, "error",
                           f"admission failed: {exc}")
                continue
            if req.op != "stream":
                with self._lock:
                    hit = self._tier.get(digest)
                    if hit is not None:
                        self._stats.hot_hits += 1
                        latency = \
                            (time.monotonic() - ticket.t_submit) * 1000.0
                        self._latencies.append(latency)
                if hit is not None:
                    # The answer is the cached one; the envelope is this
                    # request's own.
                    ticket._resolve(dataclasses.replace(
                        hit, request_id=req.request_id, cached=True,
                        batch=0, latency_ms=latency,
                    ))
                    continue
            # Forwarded as received: the worker validates it again.
            forwards.append((ticket, digest, request))
        if forwards:
            self._dispatch(forwards)
        return tickets

    def _dispatch(
        self, entries: Sequence[Tuple[Ticket, bytes, Any]]
    ) -> None:
        """Forward entries to their shards in chunked pipe messages."""
        by_shard: Dict[int, List[Tuple[int, Any]]] = {}
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
                    by_shard.setdefault(shard, []).append((seq, request))
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
                    ticket, digest = entry[0], entry[1]
                    response = ServeResponse(**dict(
                        resp_dict, latency_ms=(now - ticket.t_submit) * 1000.0
                    ))
                    # Cached before the ticket resolves, so a caller's
                    # next request for the same question hits.
                    with self._lock:
                        self._latencies.append(response.latency_ms)
                        if response.ok and response.engine != "stream" \
                                and self._tier.put(digest, response):
                            self._stats.hot_puts += 1
                    ticket._resolve(response)
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
