"""The prediction service: admission control, micro-batching, caching.

:class:`PredictionService` answers :class:`~repro.serving.request.ServeRequest`
questions with the library's own entry points — the response's numbers
are *bit-identical* to calling :func:`repro.simulator.simulate_scatter`
(or the chosen cycle engine) and
:func:`repro.core.cost.predict_scatter_dxbsp` directly, because that is
literally what :func:`evaluate_point` does.  What the service adds is
the traffic engineering around those calls:

* **Admission control** — a bounded request queue; a request arriving
  when it is full is shed immediately with a 429-style ``overloaded``
  response instead of growing an unbounded backlog.  Per-request
  deadlines turn stale queued work into ``deadline-exceeded`` answers
  rather than wasted evaluations.
* **Micro-batching** — queued work items are grouped by compatibility
  (machine + engine + bank mapping) and flushed together when a group
  hits the size or latency watermark
  (:class:`~repro.serving.batcher.MicroBatcher`).  Within a flush,
  *identical* work items are deduplicated: one engine evaluation
  answers every duplicate request (the hot-spot dashboard poll case),
  and the distinct remainder is evaluated through a single
  :func:`~repro.experiments.runner.run_grid` call — one batched pass
  that inherits the runner's on-disk memo, fault tolerance and
  (optionally) its process pool.  Compatible cycle-engine sweep points
  within that call additionally *fuse*: the runner dispatches them as
  one vectorized :func:`~repro.simulator.cycle_grid.
  simulate_scatter_grid` pass (bit-identical per point) instead of N
  separate engine invocations.
* **Two-level memoization** — an in-memory LRU in front of the
  experiment runner's on-disk memo cache.  Both are probed at
  admission, so a repeated question is answered without ever occupying
  a queue slot; keys are the runner's own
  :func:`~repro.experiments.runner.cache_key` over the fully-resolved
  work item, which makes cached and freshly-evaluated answers
  interchangeable by construction.

* **Stream sessions** — the ``stream`` op opens a named
  :class:`~repro.simulator.stream.StreamSimulator` session, feeds it
  address chunks in order and retires it with a final result that is
  bit-identical to simulating the whole concatenated trace at once.
  Chunks ride the same FIFO queue as batched work (one dispatcher
  thread keeps a session's chunks ordered for free) but bypass the
  batcher and both caches — a chunk answer depends on everything fed
  before it, so it is never a cacheable question.  Backpressure is
  per-session: at most ``stream_window`` chunks may be in flight per
  stream (the queued-memory bound is ``stream_window`` × chunk bytes),
  and at most ``max_streams`` sessions may be open; either limit
  overrunning sheds with ``overloaded`` (429).  See docs/streaming.md.

One dispatcher thread drives the batcher; evaluation happens in that
thread (or in the runner's process pool when ``parallel > 1``).  All
public methods are thread-safe.

:class:`ServingBackend` is the contract this service shares with the
sharded :class:`~repro.serving.shard.ShardRouter`: ``submit`` answers
every input with one :class:`~repro.serving.request.Ticket`, and both
have ``close`` and ``manifest()``.  The front ends drive either one
through it.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._util import as_addresses
from ..core.contention import BankMap, max_location_contention
from ..core.cost import predict_scatter_bsp, predict_scatter_dxbsp
from ..errors import ParameterError
from ..experiments import runner
from ..simulator.dispatch import simulate_scatter_engine
from ..simulator.machine import MachineConfig
from ..simulator.stream import StreamSimulator
from ..simulator.stats import SimResult
from .metrics import ServingStats, serving_manifest
from .batcher import MicroBatcher
from .request import (
    STATUS_CODES,
    ServeRequest,
    ServeResponse,
    Ticket,
    _sweep_points,
    failure_response,
    request_from_dict,
    resolve_bank_map,
    resolve_machine,
    resolve_pattern,
)

__all__ = ["PredictionService", "ServingBackend", "evaluate_point"]

#: Latency ring-buffer length (enough for stable p95 on any bench run
#: without unbounded growth on a long-lived service).
_LATENCY_WINDOW = 4096


def evaluate_point(
    op: str,
    machine: MachineConfig,
    addresses: np.ndarray,
    engine: str,
    bank_map_kind: str,
    map_seed: int,
) -> Dict[str, Any]:
    """Evaluate one fully-resolved work item with the plain library calls.

    This is the *entire* computation behind a served answer — the
    service layers (queueing, batching, caching) only decide when and
    how often it runs, never what it computes, which is what makes
    service responses bit-identical to direct library calls.  Returns a
    flat dict of scalars (JSON-able, picklable, cheap to memoize).

    Module-level on purpose: it is the point function handed to
    :func:`repro.experiments.runner.run_grid`, so it must be picklable
    by reference, and its identity + kwargs are the shared cache key of
    the LRU and the on-disk memo.
    """
    mapping = resolve_bank_map(bank_map_kind, map_seed)
    addr = as_addresses(addresses)
    sim = None
    if op in ("simulate", "compare"):
        sim = simulate_scatter_engine(machine, addr, mapping, engine=engine)
    return _point_answer(op, machine, addr, mapping, sim)


def _point_answer(
    op: str,
    machine: MachineConfig,
    addr: np.ndarray,
    mapping: Optional[BankMap],
    sim: Optional[SimResult],
) -> Dict[str, Any]:
    """One work item's result dict: the predictors' figures for
    ``predict``/``compare``, then ``sim``'s for ``simulate``/``compare``.
    :func:`evaluate_point` and the fused grid pass both build their
    answers here, so the two have the same fields in the same order."""
    out: Dict[str, Any] = {"n": int(addr.size)}
    if op in ("predict", "compare"):
        params = machine.params()
        out["contention"] = int(max_location_contention(addr))
        out["bsp_time"] = float(predict_scatter_bsp(params, addr))
        out["dxbsp_time"] = float(
            predict_scatter_dxbsp(params, addr, mapping)
        )
    if sim is not None:
        out["simulated_time"] = float(sim.time)
        out["max_bank_load"] = int(sim.max_bank_load)
        out["max_wait"] = float(sim.max_wait)
        out["mean_wait"] = float(sim.mean_wait)
        out["stalled_cycles"] = float(sim.stalled_cycles)
    return out


#: Engines whose per-point results the grid-fused pass reproduces
#: bit-identically.  ``banksim`` is deliberately absent: it only agrees
#: with the cycle engines under unbounded queues and no sections, so
#: fusing it would change answers on exactly the machines where the
#: engines differ.
_FUSABLE_ENGINES = frozenset({"tick", "event", "batch"})


class _EvaluatePointFuser:
    """Grid-fusion adapter for :func:`evaluate_point` (the ``grid_fuse``
    protocol of :func:`repro.experiments.runner.run_grid`).

    ``key`` marks the sweep points whose simulations may share one
    fused pass — cycle-engine evaluations of same-size patterns (the
    micro-batcher's bread-and-butter flush: one pattern family swept
    over seeds/machines/mappings).  ``run`` evaluates such a group with
    a single :func:`~repro.simulator.cycle_grid.simulate_scatter_grid`
    call and builds each point's result dict with the helper
    :func:`evaluate_point` uses — the grid pass is bit-identical per
    point — so cached and fused answers stay interchangeable.
    """

    @staticmethod
    def key(point: Dict[str, Any]) -> Optional[Tuple[Any, ...]]:
        """Compatibility key, or ``None`` to keep the point unfused."""
        if point.get("op") not in ("simulate", "compare"):
            return None
        if point.get("engine") not in _FUSABLE_ENGINES:
            return None
        addr = point.get("addresses")
        if not isinstance(addr, np.ndarray):
            return None
        return (point["op"], point["engine"], int(addr.size))

    @staticmethod
    def run(points: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Evaluate one compatible group through the fused grid pass."""
        from ..simulator.cycle_grid import simulate_scatter_grid

        addrs = [as_addresses(p["addresses"]) for p in points]
        mappings = [
            resolve_bank_map(p["bank_map_kind"], p["map_seed"])
            for p in points
        ]
        sims = simulate_scatter_grid(
            [p["machine"] for p in points], addrs, bank_map=mappings
        )
        return [
            _point_answer(p["op"], p["machine"], addr, mapping, sim)
            for p, addr, mapping, sim in zip(points, addrs, mappings, sims)
        ]


#: The runner discovers the adapter on the point function itself, so
#: every run_grid(evaluate_point, ...) caller — the service flush, the
#: experiment sweeps, ad-hoc scripts — gets fusion without plumbing.
evaluate_point.grid_fuse = _EvaluatePointFuser()  # type: ignore[attr-defined]


@dataclasses.dataclass
class _WorkItem:
    """One queued unit of evaluation, bound to its ticket slot."""

    ticket: "_SlotTicket"
    slot: int
    key: str
    group: Tuple[Any, ...]
    point: Dict[str, Any]
    deadline: Optional[float]  # absolute monotonic instant, or None


@dataclasses.dataclass
class _StreamSession:
    """One open stream: its incremental simulator plus the session-local
    admission state.  ``window`` counts chunks admitted but not yet
    answered (the per-stream backpressure bound); ``closing`` flips at
    ``close`` admission so chunks racing a queued close are refused
    up front instead of arriving at a retired session."""

    sim: StreamSimulator
    machine_name: str
    window: int = 0
    closing: bool = False


@dataclasses.dataclass
class _StreamItem:
    """One queued stream step (``chunk`` or ``close``).  Rides the same
    FIFO queue as :class:`_WorkItem` — the single dispatcher thread is
    what keeps a session's steps ordered — but is evaluated immediately
    instead of entering the batcher, and never counts against the
    ``max_queue`` admission bound (its bound is the session window)."""

    ticket: "_SlotTicket"
    stream_id: str
    action: str
    addresses: Optional[np.ndarray]


class _SlotTicket(Ticket):
    """The service's ticket: one value slot per work item of its
    request (a sweep has one per value).  It resolves when the last
    slot fills, or at the first failure."""

    def __init__(self, service: "PredictionService", request: ServeRequest,
                 n_slots: int, sweep_param: Optional[str],
                 sweep_values: Sequence[Any]) -> None:
        super().__init__(request.request_id)
        self._service = service
        self.request = request
        self._values: List[Optional[Dict[str, Any]]] = [None] * n_slots
        self._pending = n_slots
        self._status = "ok"
        self._error = ""
        self._all_cached = True
        self._batch = 0
        self._sweep_param = sweep_param
        self._sweep_values = list(sweep_values)
        #: Set by stream admission: the session's machine name (chunk
        #: and close requests do not carry a machine field themselves).
        self.machine_name: Optional[str] = None

    @property
    def dead(self) -> bool:
        """True once the ticket resolved to a non-ok status (queued
        work items for it are dropped unevaluated at flush time)."""
        return self._status != "ok"

    def _complete(self, slot: int, value: Dict[str, Any],
                  cached: bool, batch: int) -> None:
        finished = False
        with self._lock:
            if self._values[slot] is None and self._pending > 0:
                self._values[slot] = value
                self._pending -= 1
                self._all_cached = self._all_cached and cached
                self._batch = max(self._batch, batch)
                finished = self._pending == 0
        if finished:
            self._service._finalize(self)

    def _fail(self, status: str, error: str) -> None:
        with self._lock:
            if self._status != "ok":
                return
            self._status = status
            self._error = error
            self._pending = 0
        self._service._finalize(self)

    def _build_response(self, latency_ms: float) -> ServeResponse:
        req = self.request
        machine_name = self.machine_name
        if machine_name is None:
            try:
                machine_name = resolve_machine(req.machine).name
            except ParameterError:
                machine_name = str(req.machine)
        result: Optional[Dict[str, Any]] = None
        if self._status == "ok":
            if self._sweep_param is None:
                result = self._values[0]
            else:
                result = {
                    "param": self._sweep_param,
                    "rows": [
                        dict(value=v, **(r or {}))
                        for v, r in zip(self._sweep_values, self._values)
                    ],
                }
        return ServeResponse(
            status=self._status,
            code=STATUS_CODES[self._status],
            op=req.op,
            # A stream session is answered by the incremental simulator,
            # whatever engine= the request carried.
            engine="stream" if req.op == "stream" else req.engine,
            machine=machine_name,
            request_id=req.request_id,
            result=result,
            cached=self._status == "ok" and self._all_cached,
            batch=self._batch,
            latency_ms=latency_ms,
            error=self._error,
        )


class _LRU:
    """Tiny ordered-dict LRU (caller provides locking)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._data: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: str, value: Dict[str, Any]) -> None:
        if self.capacity <= 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


class ServingBackend:
    """The contract both serving backends keep.

    ``submit`` answers every input — a request dict, a
    :class:`~repro.serving.request.ServeRequest` or anything else — with
    one :class:`~repro.serving.request.Ticket`, a bad one with 400;
    ``close`` answers everything in flight and stops; ``manifest()`` is
    the one metrics export, read by ``GET /metrics``, ``--manifest`` and
    ``--metrics``.  :class:`~repro.serving.ServingFrontend` and
    ``python -m repro.serving`` drive a backend through these alone.
    The rest of the surface is written here once: ``call``, ``serve``,
    the context manager, the latency ring, ``uptime_seconds`` and
    ``stats()``.
    """

    def __init__(self, stats: Any) -> None:
        self._lock = threading.Lock()
        self._stats = stats
        self._latencies: "deque[float]" = deque(maxlen=_LATENCY_WINDOW)
        self._t_start = time.monotonic()

    def __enter__(self) -> "ServingBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def submit(self, request: Any) -> Ticket:
        """Admit one request; returns its ticket immediately."""
        raise NotImplementedError

    def close(self) -> None:
        """Answer everything in flight, then stop.  Idempotent."""
        raise NotImplementedError

    def manifest(self) -> Dict[str, Any]:
        """This backend's schema-checked metrics manifest."""
        raise NotImplementedError

    def call(self, request: Any, timeout: Optional[float] = None) \
            -> ServeResponse:
        """Submit one request and block for its response."""
        return self.submit(request).result(timeout)

    def serve(
        self, requests: Sequence[Any], timeout: Optional[float] = None
    ) -> List[ServeResponse]:
        """Submit many requests, then collect responses in submit order
        (submitting everything before waiting is what lets compatible
        requests share micro-batches)."""
        tickets = [self.submit(r) for r in requests]
        return [t.result(timeout) for t in tickets]

    def stats(self) -> Any:
        """Snapshot of the counters (:class:`ServingStats` or
        :class:`~repro.serving.metrics.RouterStats`)."""
        with self._lock:
            return dataclasses.replace(self._stats)

    def latencies_ms(self) -> List[float]:
        """Snapshot of the recent response latencies (ring buffer)."""
        with self._lock:
            return list(self._latencies)

    def uptime_seconds(self) -> float:
        """Seconds since the backend started."""
        return time.monotonic() - self._t_start


class PredictionService(ServingBackend):
    """Micro-batching, cache-backed front end over the simulator stack.

    Parameters
    ----------
    max_queue:
        Admission-queue capacity (work items); a submit that finds it
        full is answered ``overloaded`` (429) immediately —
        backpressure by shedding, never by unbounded buffering.
    batch_size:
        Micro-batch size watermark (flush a group at this many items).
    flush_ms:
        Micro-batch latency watermark, milliseconds (flush a group
        whose oldest item has waited this long).
    deadline_ms:
        Default per-request deadline (overridable per request);
        ``None`` disables deadlines.
    lru_size:
        In-memory result-cache entries (0 disables the LRU).
    disk_cache:
        Use the experiment runner's on-disk memo as the runner is
        configured (``REPRO_CACHE`` / :func:`~repro.experiments.runner.
        configure`): probe it at admission, store flush results in it
        and checkpoint closed streams into it.  ``False`` skips all
        three.
    parallel:
        Worker processes for flush evaluation (forwarded to
        :func:`~repro.experiments.runner.run_grid`; 1 = evaluate in the
        dispatcher thread).
    fuse:
        Forwarded to :func:`~repro.experiments.runner.run_grid`:
        ``None`` (default) routes compatible sweep flushes through the
        fused grid pass (one vectorized evaluation per group of
        same-size cycle-engine points — bit-identical per point);
        ``False`` forces per-point evaluation.
    max_streams:
        Open stream sessions allowed at once; an ``open`` past the
        limit is shed (429).
    stream_window:
        Chunks one stream may have in flight (admitted, not yet
        answered); a chunk past the window is shed (429).  This is the
        streaming memory bound: the service never holds more than
        ``stream_window`` unprocessed chunks per session.

    Use as a context manager (``with PredictionService() as svc:``) or
    call :meth:`close` to drain and stop the dispatcher.
    """

    def __init__(
        self,
        max_queue: int = 1024,
        batch_size: int = 32,
        flush_ms: float = 2.0,
        deadline_ms: Optional[float] = 1000.0,
        lru_size: int = 4096,
        disk_cache: bool = True,
        parallel: int = 1,
        fuse: Optional[bool] = None,
        max_streams: int = 8,
        stream_window: int = 8,
    ) -> None:
        if max_queue < 1:
            raise ParameterError(f"max_queue must be >= 1, got {max_queue}")
        if max_streams < 0:
            raise ParameterError(
                f"max_streams must be >= 0, got {max_streams}"
            )
        if stream_window < 1:
            raise ParameterError(
                f"stream_window must be >= 1, got {stream_window}"
            )
        super().__init__(ServingStats())
        self.max_queue = int(max_queue)
        self.batch_size = int(batch_size)
        self.flush_ms = float(flush_ms)
        self.deadline_ms = deadline_ms
        self.lru_size = int(lru_size)
        self.disk_cache = bool(disk_cache)
        self.parallel = int(parallel)
        self.fuse = fuse
        self.max_streams = int(max_streams)
        self.stream_window = int(stream_window)
        self._streams: Dict[str, _StreamSession] = {}
        # The queue itself is unbounded; admission is bounded by the
        # in-flight counter below, which covers items waiting in open
        # micro-batch buckets too — capacity is only released when an
        # item is actually resolved, so backpressure cannot leak into
        # the batcher.  ``None`` on the queue only wakes the dispatcher
        # (close() posts it).
        self._queue: \
            "queue.Queue[Optional[Union[_WorkItem, _StreamItem]]]" = \
            queue.Queue()
        self._in_flight = 0
        self._batcher = MicroBatcher(
            batch_size=self.batch_size,
            flush_interval=self.flush_ms / 1000.0,
        )
        self._lru = _LRU(self.lru_size)
        self._closing = threading.Event()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serving-dispatch",
            daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drain queued work, flush every open batch, stop the
        dispatcher.  Idempotent; pending tickets resolve before this
        returns."""
        if self._closing.is_set():
            return
        self._closing.set()
        # Wake the dispatcher now rather than when its oldest bucket
        # falls due: it then flushes every bucket and exits.
        self._queue.put(None)
        self._thread.join()
        # A submit racing the shutdown check may have queued after the
        # dispatcher's final drain; resolve those as closed (503), never
        # hang — and never as "overloaded": shutdown is not load
        # shedding, and a client seeing 429 would retry against a
        # service that is going away.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is None:
                continue
            with self._lock:
                self._stats.closed += 1
                if not isinstance(item, _StreamItem):
                    self._in_flight -= 1
            item.ticket._fail("closed", "service closed")
        # Sessions still open lost their service; drop them (their
        # admitted chunks all resolved above or in the drain).
        with self._lock:
            self._streams.clear()

    def submit(self, request: Any) -> Ticket:
        """Admit one request; returns a :class:`Ticket` immediately.

        A dict is parsed/validated first; an invalid request, or
        anything that is not a request at all, is answered
        ``bad-request`` (400), and any other failure while admitting it
        ``error`` (500).  Cache hits resolve the ticket before this
        returns; everything else resolves once its micro-batch flushes
        (or sheds/expires).
        """
        with self._lock:
            self._stats.received += 1
        try:
            if isinstance(request, ServeRequest):
                request.validate()
            else:
                request = request_from_dict(request)
            return self._admit(request)
        except ParameterError as exc:
            with self._lock:
                self._stats.invalid += 1
            return Ticket.answered(
                failure_response(request, "bad-request", str(exc))
            )
        except Exception as exc:  # reprolint: disable=REPRO111 -- whatever admitting one request raises (numpy's MemoryError on a huge pattern) is that request's 500; it must not escape into the caller, a shard worker's loop
            with self._lock:
                self._stats.failed += 1
            return Ticket.answered(
                failure_response(request, "error", f"admission failed: {exc}")
            )

    def manifest(self) -> Dict[str, Any]:
        """The serving manifest (:func:`~repro.serving.metrics.
        serving_manifest`)."""
        return serving_manifest(self)

    def queue_depth(self) -> int:
        """Current admission-queue depth (approximate by nature)."""
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def _admit(self, req: ServeRequest) -> Ticket:
        if req.op == "stream":
            return self._admit_stream(req)
        machine = resolve_machine(req.machine)
        if req.sweep is not None:
            pairs = _sweep_points(req)
            sweep_param: Optional[str] = req.sweep["param"]
            sweep_values = [v for v, _spec in pairs]
            patterns = [
                resolve_pattern(spec, None) for _v, spec in pairs
            ]
        else:
            sweep_param = None
            sweep_values = []
            patterns = [resolve_pattern(req.pattern, req.addresses)]
        # Resolving the bank map here validates kind+seed up front; the
        # map itself is rebuilt inside evaluate_point from the canonical
        # (kind, seed) pair so every cache key stays canonical types.
        resolve_bank_map(req.bank_map, req.map_seed)

        ticket = _SlotTicket(
            self, req, len(patterns), sweep_param, sweep_values
        )
        deadline_ms = req.deadline_ms if req.deadline_ms is not None \
            else self.deadline_ms
        deadline = None if deadline_ms is None \
            else ticket.t_submit + deadline_ms / 1000.0
        group = (machine, req.engine, req.bank_map, req.map_seed, req.op)
        try:
            for slot, addr in enumerate(patterns):
                point = {
                    "op": req.op,
                    "machine": machine,
                    "addresses": addr,
                    "engine": req.engine,
                    "bank_map_kind": req.bank_map,
                    "map_seed": req.map_seed,
                }
                key = runner.cache_key(evaluate_point, point)
                with self._lock:
                    hit = self._lru.get(key)
                    if hit is not None:
                        self._stats.lru_hits += 1
                if hit is not None:
                    ticket._complete(slot, hit, cached=True, batch=0)
                    continue
                if self.disk_cache:
                    found, value = runner.cache_fetch(evaluate_point, point)
                    if found:
                        with self._lock:
                            self._stats.disk_hits += 1
                            self._lru.put(key, value)
                        ticket._complete(slot, value, cached=True, batch=0)
                        continue
                if self._closing.is_set():
                    with self._lock:
                        self._stats.closed += 1
                    ticket._fail("closed", "service is shutting down")
                    break
                item = _WorkItem(ticket, slot, key, group, point, deadline)
                with self._lock:
                    if self._in_flight >= self.max_queue:
                        self._stats.shed += 1
                        admitted = False
                    else:
                        self._in_flight += 1
                        self._stats.queue_high_water = max(
                            self._stats.queue_high_water, self._in_flight
                        )
                        admitted = True
                if not admitted:
                    ticket._fail(
                        "overloaded",
                        f"admission queue full ({self.max_queue} items)",
                    )
                    break
                self._queue.put_nowait(item)
        except Exception as exc:  # reprolint: disable=REPRO111 -- slots already queued wait on this ticket; failing it answers 500 and lets the flush drop them
            with self._lock:
                self._stats.failed += 1
            ticket._fail("error", f"admission failed: {exc}")
        return ticket

    # ------------------------------------------------------------------
    # stream sessions
    # ------------------------------------------------------------------

    def _admit_stream(self, req: ServeRequest) -> Ticket:
        """Admit one stream request.  ``open`` is synchronous — the
        session must exist before the caller's next chunk is admitted —
        while ``chunk``/``close`` ride the FIFO queue, so the single
        dispatcher thread applies them in submit order.  A
        :class:`ParameterError` raised here (bad machine/pattern, a
        machine the streaming simulator refuses) is answered 400 by
        :meth:`submit`."""
        assert req.stream_id is not None
        sid = req.stream_id
        ticket = _SlotTicket(self, req, 1, None, ())
        if self._closing.is_set():
            with self._lock:
                self._stats.closed += 1
            ticket._fail("closed", "service is shutting down")
            return ticket
        if req.action == "open":
            machine = resolve_machine(req.machine)
            mapping = resolve_bank_map(req.bank_map, req.map_seed)
            # The streaming simulator refuses what it cannot chunk
            # exactly (combining, block assignment, sections) — that
            # refusal propagates as this request's 400.
            sim = StreamSimulator(machine, bank_map=mapping)
            session = _StreamSession(sim=sim, machine_name=machine.name)
            with self._lock:
                if sid in self._streams:
                    state = "dup"
                elif len(self._streams) >= self.max_streams:
                    self._stats.shed += 1
                    state = "full"
                else:
                    self._streams[sid] = session
                    self._stats.streams_opened += 1
                    state = "ok"
            if state == "dup":
                ticket._fail(
                    "bad-request", f"stream {sid!r} is already open"
                )
            elif state == "full":
                ticket._fail(
                    "overloaded",
                    f"open stream limit reached ({self.max_streams}); "
                    "close a session or retry later",
                )
            else:
                ticket._complete(0, {
                    "stream_id": sid,
                    "machine": session.machine_name,
                    "n": 0,
                    "stream_window": self.stream_window,
                }, cached=False, batch=0)
            return ticket
        if req.action == "chunk":
            addr = resolve_pattern(req.pattern, req.addresses)
            with self._lock:
                session = self._streams.get(sid)
                unknown = session is None or session.closing
                full = (
                    not unknown
                    and session.window >= self.stream_window  # type: ignore[union-attr]
                )
                if full:
                    self._stats.shed += 1
                if not unknown and not full:
                    assert session is not None
                    session.window += 1
                    self._stats.stream_chunks += 1
                    ticket.machine_name = session.machine_name
            if unknown:
                ticket._fail(
                    "bad-request",
                    f"unknown stream {sid!r} (not open on this worker — "
                    "a restart drops sessions; reopen and refeed)",
                )
            elif full:
                ticket._fail(
                    "overloaded",
                    f"stream {sid!r} window full ({self.stream_window} "
                    "chunks in flight); wait for outstanding chunk "
                    "responses before feeding more",
                )
            else:
                self._queue.put_nowait(
                    _StreamItem(ticket, sid, "chunk", addr)
                )
            return ticket
        # close
        with self._lock:
            session = self._streams.get(sid)
            unknown = session is None or session.closing
            if not unknown:
                assert session is not None
                session.closing = True
                ticket.machine_name = session.machine_name
        if unknown:
            ticket._fail(
                "bad-request",
                f"unknown stream {sid!r} (not open on this worker — "
                "a restart drops sessions; reopen and refeed)",
            )
        else:
            self._queue.put_nowait(_StreamItem(ticket, sid, "close", None))
        return ticket

    def _stream_step(self, item: _StreamItem) -> None:
        """(Dispatcher thread.)  Apply one queued stream step: a chunk
        feeds the session's simulator and answers with the rolling
        prefix result; a close answers with the final result (saving a
        resume checkpoint into the runner memo when the disk cache is
        on) and retires the session.  A step that raises kills its
        session — the carry state is unknown after a failed feed, and a
        desynced stream must refuse further chunks rather than answer
        them wrongly."""
        with self._lock:
            session = self._streams.get(item.stream_id)
        if session is None:
            # The session died (an earlier step failed) after this one
            # was admitted.
            item.ticket._fail(
                "bad-request",
                f"stream {item.stream_id!r} is gone; reopen and refeed",
            )
            return
        try:
            if item.action == "chunk":
                assert item.addresses is not None
                update = session.sim.feed(item.addresses)
                res = update.result
                out = {
                    "stream_id": item.stream_id,
                    "chunk_index": int(update.chunk_index),
                    "chunk_n": int(update.chunk_n),
                    "n": int(update.n),
                    "simulated_time": float(res.time),
                    "delta_time": float(update.delta_time),
                    "max_bank_load": int(res.max_bank_load),
                    "max_wait": float(res.max_wait),
                    "mean_wait": float(res.mean_wait),
                    "stalled_cycles": float(res.stalled_cycles),
                    "prefix_digest": session.sim.prefix_digest,
                }
            else:
                res = session.sim.result()
                checkpoint = None
                if self.disk_cache:
                    checkpoint = session.sim.save_checkpoint()
                out = {
                    "stream_id": item.stream_id,
                    "n": int(session.sim.n),
                    "simulated_time": float(res.time),
                    "max_bank_load": int(res.max_bank_load),
                    "max_wait": float(res.max_wait),
                    "mean_wait": float(res.mean_wait),
                    "stalled_cycles": float(res.stalled_cycles),
                    "prefix_digest": session.sim.prefix_digest,
                    "checkpoint": checkpoint is not None,
                }
                with self._lock:
                    self._streams.pop(item.stream_id, None)
                    self._stats.streams_closed += 1
        except Exception as exc:  # reprolint: disable=REPRO111 -- a failed step must answer 500 and kill only its session, never the shared dispatcher
            with self._lock:
                self._streams.pop(item.stream_id, None)
                self._stats.failed += 1
            item.ticket._fail("error", f"stream step failed: {exc}")
            return
        if item.action == "chunk":
            with self._lock:
                session.window -= 1
        item.ticket._complete(0, out, cached=False, batch=0)

    # ------------------------------------------------------------------
    # dispatch + flush
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            # Sleep until the oldest bucket falls due, or until the next
            # item when nothing is pending: close() wakes it with None.
            wait = self._batcher.seconds_until_due(time.monotonic())
            try:
                item: Optional[Union[_WorkItem, _StreamItem]] = \
                    self._queue.get(
                        timeout=None if wait is None else max(wait, 0.0005)
                    )
            except queue.Empty:
                item = None
            if item is not None:
                now = time.monotonic()
                if isinstance(item, _StreamItem):
                    self._stream_step(item)
                else:
                    self._batcher.add(item.group, item, now)
                # Opportunistic drain: everything already queued joins
                # this batching round without another poll cycle (stream
                # steps are applied in place, keeping session order).
                while True:
                    try:
                        nxt = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if isinstance(nxt, _StreamItem):
                        self._stream_step(nxt)
                    elif nxt is not None:
                        self._batcher.add(nxt.group, nxt, now)
            for items in self._batcher.take_due(time.monotonic()):
                self._flush(items)
            if self._closing.is_set() and self._queue.empty():
                # Shutdown drain: flush every open bucket regardless of
                # watermarks, then re-check for submits that raced in.
                for items in self._batcher.take_all():
                    self._flush(items)
                if self._queue.empty() and self._batcher.pending == 0:
                    return

    def _flush(self, items: Sequence[_WorkItem]) -> None:
        now = time.monotonic()
        with self._lock:
            # Every item in this flush resolves below, one way or
            # another — its admission capacity is released up front.
            self._in_flight -= len(items)
        live: List[_WorkItem] = []
        for it in items:
            if it.deadline is not None and now > it.deadline:
                with self._lock:
                    self._stats.expired += 1
                it.ticket._fail(
                    "deadline-exceeded",
                    "deadline lapsed before evaluation",
                )
            elif not it.ticket.dead:
                live.append(it)
        if not live:
            return
        # Deduplicate identical work items: one evaluation answers every
        # duplicate in the flush (first-seen order kept for determinism).
        takers: "OrderedDict[str, List[_WorkItem]]" = OrderedDict()
        for it in live:
            takers.setdefault(it.key, []).append(it)
        unique = [group[0].point for group in takers.values()]
        try:
            # One batched call evaluates the whole flush: run_grid
            # re-checks the on-disk memo, runs the distinct points
            # (pooled when parallel > 1) and stores the results.
            results = runner.run_grid(
                evaluate_point, unique,
                parallel=self.parallel,
                cache=None if self.disk_cache else False, fuse=self.fuse,
            )
        except Exception as exc:  # reprolint: disable=REPRO111 -- the service must answer 500 and stay up, whatever the evaluation raised
            with self._lock:
                self._stats.failed += len(live)
            for it in live:
                it.ticket._fail("error", f"evaluation failed: {exc}")
            return
        with self._lock:
            self._stats.batches += 1
            self._stats.batched_requests += len(live)
            self._stats.evaluations += len(unique)
            self._stats.max_batch = max(self._stats.max_batch, len(live))
            for key, value in zip(takers, results):
                self._lru.put(key, value)
        for (key, waiting), value in zip(takers.items(), results):
            for it in waiting:
                it.ticket._complete(
                    it.slot, value, cached=False, batch=len(live)
                )

    def _finalize(self, ticket: _SlotTicket) -> None:
        latency_ms = (time.monotonic() - ticket.t_submit) * 1000.0
        response = ticket._build_response(latency_ms)
        with self._lock:
            if response.ok:
                self._stats.served += 1
            self._latencies.append(latency_ms)
        ticket._resolve(response)
