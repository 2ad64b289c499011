"""Cycle-accurate simulator with bounded queues and back-pressure.

Two paths compute the same machine, cycle for cycle:

1. **tick** — the original explicit per-cycle loop, advancing one cycle
   at a time and scanning every bank each cycle.  It is kept as the
   obviously-correct, independent reference: the projector is
   property-tested to produce bit-identical
   :class:`~repro.simulator.stats.SimResult`\\ s against it across
   every mode (unbounded queues, bounded queues with stall accounting,
   combining, and the bank-cache extension).
2. **the projector** (:mod:`repro.simulator.cycle_batch`), which
   ``engine="event"`` (the default) and ``engine="batch"`` both name —
   numpy array stepping: it solves whole stall-free spans with the
   segmented-cummax projector that :mod:`repro.simulator.banksim` also
   runs on, and hands the run to the one pausable event world of
   :mod:`repro.simulator.world` only where queue-full back-pressure
   actually binds (a sound stall certificate decides which, so the
   results stay bit-identical, not approximately close).  The world
   executes only the cycles where something can happen (an issue, an
   arrival, a bank becoming free, a parked processor's retry) and jumps
   over idle spans.

The simulator serves two purposes in the repo:

* **Oracle** — with unbounded queues ``tick`` must produce *exactly* the
  same completion time as the vectorized simulator (property-tested),
  which validates the segmented-cummax vectorization.
* **Back-pressure ablation** — with a finite per-bank queue capacity a
  processor stalls when its target queue is full, which the (d,x)-BSP
  deliberately does not model.  Comparing the two quantifies how much the
  unbounded-queue abstraction gives away (DESIGN.md ablation 1).

All machine times (``g``, ``d``, ``latency``, ``L``) must be non-negative
integers here, and section links are refused; the simulated machine
advances in whole cycles.  That is validation (:func:`_machine_setup`),
not arithmetic: the projector itself takes banksim's real-valued times
and links.

Per-cycle sub-step order (identical in every engine): processors issue
(in processor-id order), in-flight requests arrive at queues, banks start
service.  With ``latency = 0`` a request can therefore be issued and
start service in the same cycle iff its bank is free — matching the
vectorized model's ``start = max(arrival, prev_start + d)``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from numpy.typing import ArrayLike

from ..core.contention import BankMap
from ..errors import ParameterError, PatternError
from .machine import MachineConfig, require_machine
from .request import Assignment, RequestBatch
from .sanitize import sanitize_enabled
from .stats import SimResult
from .world import Acc, EventWorld, proc_rows, runaway_error

__all__ = ["simulate_scatter_cycle"]


def _require_int(name: str, value: float) -> int:
    if value != int(value):
        raise ParameterError(
            f"cycle simulator requires integer {name}, got {value!r}"
        )
    return int(value)


@dataclass
class _Setup:
    """Machine parameters plus the request arrays, shared by all
    engines: real-valued for banksim, whole cycles for the cycle engines
    (:func:`_machine_setup`).  The stream keeps one
    without request arrays that describes the prefix it has consumed."""

    p: int
    n_banks: int
    g: float
    d: float
    latency: float
    L: float
    hit_delay: Optional[float]
    capacity: Optional[int]
    section_gap: float  # 0: no section-link stage
    section_banks: int  # banks behind one section link
    n: int = 0
    max_cycles: float = 0
    telemetry: bool = False
    sanitize: bool = False
    h_p: int = 0  # max requests issued by one processor (sanitizer only)
    n_survivors: int = 0  # requests surviving combining to the banks
    batch: Optional[RequestBatch] = None
    banks: Optional[np.ndarray] = None
    survives: Optional[np.ndarray] = None  # None: no combining


def _new_acc(s: _Setup) -> Acc:
    """Accumulator for one run; the per-bank counters exist only when
    telemetry or the sanitizer reads them (the perf gate in
    ``tools/perf_guard.py`` holds the counter-free hot path to that)."""
    return Acc(s.n_banks, s.p, s.telemetry or s.sanitize)


def _finish(machine: MachineConfig, s: _Setup, engine: str,
            acc: Acc) -> SimResult:
    """Build the engine's :class:`SimResult` and, when sanitizing, check
    the conservation invariants.  Shared verbatim by all engines so the
    bit-identity property covers the epilogue by construction."""
    return acc.result(machine, s.n, s.L, telemetry=s.telemetry,
                      sanitize=s.sanitize, engine=engine, h_p=s.h_p,
                      n_survivors=s.n_survivors)


def _machine_setup(machine: MachineConfig, telemetry: bool = False,
                   sanitize: bool = False) -> _Setup:
    """Validated integer machine parameters of a run with no requests
    yet: the checks every cycle-level entry point shares (the one-shot
    engines through :func:`_prepare`, and the stream)."""
    if machine.n_sections > 1 and machine.section_gap > 0:
        raise ParameterError(
            "the cycle simulator does not model network sections; use "
            "simulate_scatter (or disable section_gap) for sectioned machines"
        )
    g = _require_int("g", machine.g)
    d = _require_int("d", machine.d)
    latency = _require_int("latency", machine.latency)
    L = _require_int("L", machine.L)
    hit_delay = (
        _require_int("cache_hit_delay", machine.cache_hit_delay)
        if machine.cache_hit_delay is not None
        else None
    )
    if d < 1 or g < 1 or (hit_delay is not None and hit_delay < 1):
        raise ParameterError(
            "cycle simulator requires integer g, d, cache_hit_delay >= 1"
        )
    return _Setup(
        p=machine.p, n_banks=machine.n_banks, g=g, d=d, latency=latency,
        L=L, hit_delay=hit_delay, capacity=machine.queue_capacity,
        section_gap=0.0, section_banks=1, telemetry=telemetry,
        sanitize=sanitize,
    )


def _load(s: _Setup, batch: RequestBatch, banks: np.ndarray,
          combining: bool) -> None:
    """Attach one superstep's requests, banks resolved, to ``s``.

    Combining (when enabled): only the first request per distinct
    location (in request order) reaches the memory side; the rest are
    absorbed in the network and complete at issue + latency."""
    s.n = s.n_survivors = batch.n
    s.batch, s.banks = batch, banks
    if combining:
        # The first request of a location is the least index in its run
        # of equal addresses after one (unstable) argsort.
        order = np.argsort(batch.addresses)
        ordered = batch.addresses[order]
        runs = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        keep = np.minimum.reduceat(order, runs) if batch.n else order
        s.survives = np.zeros(batch.n, dtype=bool)
        s.survives[keep] = True
        s.n_survivors = int(keep.size)
    if s.sanitize:
        s.h_p = int(batch.per_processor_counts(s.p).max())


def _max_cycles(s: _Setup, n: int) -> int:
    """Default runaway ceiling for an ``n``-request run.

    Serialization ceiling: every request behind one bank (n*d) and
    behind one issue pipe (n*g), plus transit.  Bounded queues add dead
    time on top: whenever the hot queue drains below capacity the next
    retry still needs an issue attempt plus the network transit to
    land, so charge one (latency + g + 2)-cycle bubble per `capacity`
    requests served."""
    bound = n * s.d + n * s.g + s.latency + 1000
    if s.capacity is not None:
        bound += (n // s.capacity + 1) * (s.latency + s.g + 2)
    return int(bound)


def _bank_ids(bank_map: Optional[BankMap], addresses: np.ndarray,
              n_banks: int) -> np.ndarray:
    """Bank of every address: the default ``address % n_banks``
    interleave, or ``bank_map``'s output checked to hold one id in
    ``[0, n_banks)`` per address."""
    if bank_map is None:
        return (addresses % n_banks).astype(np.int64, copy=False)
    banks = np.asarray(bank_map(addresses, n_banks)).astype(np.int64,
                                                             copy=False)
    if banks.shape != addresses.shape:
        raise PatternError("bank_map must return one bank per address")
    if banks.size and (int(banks.min()) < 0
                       or int(banks.max()) >= n_banks):
        raise PatternError(
            f"bank_map produced banks outside [0, {n_banks})"
        )
    return banks


def _prepare(
    machine: MachineConfig,
    addresses: ArrayLike,
    bank_map: Optional[BankMap],
    assignment: Assignment,
    max_cycles: Optional[int],
    telemetry: bool = False,
    sanitize: bool = False,
) -> _Setup:
    s = _machine_setup(machine, telemetry, sanitize)
    batch = RequestBatch.from_addresses(addresses, machine, assignment)
    if batch.n == 0:
        return s
    _load(s, batch, _bank_ids(bank_map, batch.addresses, s.n_banks),
          machine.combining)
    s.max_cycles = _max_cycles(s, s.n) if max_cycles is None \
        else max_cycles
    return s


def _run_tick(machine: MachineConfig, s: _Setup) -> SimResult:
    """Reference engine: advance one cycle at a time, scanning all banks
    every cycle.  Slow but obviously correct."""
    assert s.batch is not None and s.banks is not None
    n = s.n
    capacity = s.capacity
    proc_reqs = [
        deque(rows) for rows in proc_rows(
            s.p, s.g, s.batch.proc, s.banks, s.batch.addresses, s.survives
        )
    ]
    queues: List[deque] = [deque() for _ in range(s.n_banks)]
    bank_free_at = [0] * s.n_banks  # earliest cycle bank may start a request
    bank_last_addr = [-1] * s.n_banks  # row buffer (cache extension)
    bank_served = [0] * s.n_banks
    next_issue = [0] * s.p
    in_flight: list = []  # heap of (arrival_cycle, seq, bank, addr)
    seq = 0
    completed = 0
    last_finish = 0
    total_wait = 0
    max_wait = 0
    stalled = 0
    busy = [0] * s.n_banks
    q_high = [0] * s.n_banks
    proc_stalls = [0] * s.p

    t = 0
    while completed < n:
        if t > s.max_cycles:
            raise runaway_error(s.max_cycles, n - completed, stalled,
                                capacity)
        # 1. Processors issue, in processor-id order.
        for q in range(s.p):
            if proc_reqs[q] and next_issue[q] <= t:
                bank, req_addr, alive, _ = proc_reqs[q][0]
                if alive and capacity is not None \
                        and len(queues[bank]) >= capacity:
                    stalled += 1
                    proc_stalls[q] += 1
                    continue  # retry next cycle; next_issue unchanged
                proc_reqs[q].popleft()
                if alive:
                    heapq.heappush(
                        in_flight, (t + s.latency, seq, bank, req_addr)
                    )
                else:
                    # Absorbed by the combining network: done on arrival.
                    last_finish = max(last_finish, t + s.latency)
                    completed += 1
                seq += 1
                next_issue[q] = t + s.g
        # 2. Deliver arrivals due this cycle (FIFO by arrival, then issue seq).
        while in_flight and in_flight[0][0] <= t:
            arr, _, bank, req_addr = heapq.heappop(in_flight)
            queues[bank].append((arr, req_addr))
            q_high[bank] = max(q_high[bank], len(queues[bank]))
        # 3. Banks start service.
        for bank in range(s.n_banks):
            if queues[bank] and bank_free_at[bank] <= t:
                arr, req_addr = queues[bank].popleft()
                wait = t - arr
                total_wait += wait
                max_wait = max(max_wait, wait)
                cost = s.d
                if s.hit_delay is not None and bank_last_addr[bank] == req_addr:
                    cost = s.hit_delay
                bank_last_addr[bank] = req_addr
                bank_free_at[bank] = t + cost
                bank_served[bank] += 1
                busy[bank] += cost
                finish = t + cost
                last_finish = max(last_finish, finish)
                completed += 1
        t += 1

    acc = _new_acc(s)
    acc.completed, acc.total_wait, acc.max_wait = completed, total_wait, \
        max_wait
    acc.stalled, acc.last_finish = stalled, last_finish
    acc.fold(bank_served, busy, q_high, proc_stalls)
    return _finish(machine, s, "tick", acc)


def _world(s: _Setup, fed: Optional[np.ndarray] = None) -> EventWorld:
    """An event world for this setup, fed every request, or only the
    surviving requests ``fed`` (indices in request order): each
    processor then issues its first at its scheduled cycle and jumps
    over the rest, ``g`` cycles per request."""
    assert s.batch is not None and s.banks is not None
    world = EventWorld(s.p, s.n_banks, s.g, s.d, s.latency, s.hit_delay,
                       s.capacity)
    if fed is None:
        world.feed(s.batch.proc, s.banks, s.batch.addresses, s.survives)
    else:
        world.feed(s.batch.proc[fed], s.banks[fed], s.batch.addresses[fed],
                   issue=s.batch.issue[fed])
    return world


def simulate_scatter_cycle(
    machine: MachineConfig,
    addresses: ArrayLike,
    bank_map: Optional[BankMap] = None,
    assignment: Assignment = "round_robin",
    max_cycles: Optional[int] = None,
    engine: str = "event",
    telemetry: bool = False,
    sanitize: Optional[bool] = None,
) -> SimResult:
    """Cycle-accurate simulation of one scatter on ``machine``.

    Honors ``machine.queue_capacity``: when a target bank's queue holds
    that many waiting requests, the issuing processor stalls (retries next
    cycle) and the stall is accounted in ``SimResult.stalled_cycles``.
    ``queue_capacity=None`` reproduces the unbounded model exactly.

    Parameters
    ----------
    engine:
        ``"event"`` (default) and ``"batch"`` both run the vectorized
        projector of :mod:`repro.simulator.cycle_batch`, which steps the
        event world only where a queue fills; ``"tick"`` uses the
        retained per-cycle reference loop.  All produce bit-identical
        results (property-tested).
    max_cycles:
        Runaway guard; defaults to a serialization bound that scales
        with the queue capacity (a bounded hot queue legitimately adds
        issue-retry dead time on top of pure service serialization).
    telemetry:
        Collect :class:`SimTelemetry` counters (per-bank busy cycles,
        queue high-water marks, per-processor stall counts).  Off by
        default; all engines produce identical telemetry.
    sanitize:
        Assert the per-superstep conservation invariants of
        :mod:`repro.simulator.sanitize` on the result (``None`` defers
        to the process-wide default / ``REPRO_SANITIZE``).  The checks
        only read engine state, so results are bit-identical either way.
    """
    require_machine(machine, "simulate_scatter_cycle")
    names = ("batch", "event", "tick")
    if engine not in names:
        raise ParameterError(
            f"unknown cycle engine {engine!r}; expected one of "
            f"{list(names)}"
        )
    s = _prepare(machine, addresses, bank_map, assignment, max_cycles,
                 telemetry, sanitize=sanitize_enabled(sanitize))
    if s.n == 0:
        return _finish(machine, s, engine, _new_acc(s))
    if engine == "tick":
        return _run_tick(machine, s)
    # Imported lazily: the batch module imports this one for the shared
    # setup and epilogue.
    from .cycle_batch import run_batch
    return run_batch(machine, s, engine)
