"""Vectorized "batch" engine for the bounded-queue cycle simulator.

The scalar engines in :mod:`repro.simulator.cycle` touch every request
(event) or every cycle (tick) in Python.  This engine instead advances
the machine in *spans* and solves each span with numpy array stepping:

1. **Project.** Ignoring queue bounds, every remaining request's service
   start follows from the segmented cumulative-maximum kernel of
   :mod:`repro.simulator.banksim` (``start[i] = max(arrival[i],
   start[i-1] + d)`` per bank, solved for all banks at once).  The
   kernels accept per-bank seeds (``init_free`` floors, ``init_addr``
   row buffers) so a projection can start from a mid-run machine state.
2. **Certify.** The bounded machine evolves identically to the
   unbounded projection up to the first cycle at which an issuing
   processor finds its target queue full.  The queue depth seen by the
   issue at cycle ``q`` is ``#{arrivals <= q-1} - #{starts <= q-1}``
   over same-bank survivors (issue precedes delivery and service inside
   a cycle), which one lifted ``searchsorted`` evaluates for every
   request at once.  If no projected issue sees depth >= capacity, the
   projection *is* the bounded run — commit it wholesale.  Otherwise
   the earliest offender ``t_stall`` is exact: the first real stall.
3. **Fall back, then re-enter.** When back-pressure binds, the shared
   event world of :mod:`repro.simulator.world` (the ``engine="event"``
   stepper itself) is fed every request and replays the run from cycle
   0 — exact, since nothing was committed — until either completion or
   a *quiescent* cycle ``t >= t_stall`` (all queues empty, nothing in
   flight, nobody blocked).  At quiescence every pending processor's
   next issue lies strictly in the future, so the world exports the
   remaining requests, they re-project from the seeded kernels and the
   loop repeats, resuming the same world if the next certificate fails.
   Each event chunk strictly passes at least one real stall burst, so
   the alternation terminates; in the worst case (back-pressure never
   quiesces) the engine degrades to a single event-world run — i.e. to
   the event engine.

Every committed span is exact and the fallback *is* the event engine's
stepper, so the engine is **bit-identical** to
``engine="event"``/``"tick"`` — property-tested, including telemetry.
Stall-free workloads (the paper's unbounded-queue machines) never leave
step 1 and run at vectorized-``banksim`` speed.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from ..core.contention import BankMap
from .banksim import (
    _queue_high_water,
    fifo_service_times,
    fifo_service_times_cached,
)
from .cycle import _finish, _new_acc, _Setup, _world, simulate_scatter_cycle
from .machine import MachineConfig
from .request import Assignment
from .stats import SimResult
from .world import Acc, runaway_error

__all__ = ["simulate_scatter_batch"]


class _Work(NamedTuple):
    """Remaining requests, in engine issue order (issue cycle, then
    processor id — the order the event world would issue them)."""

    issue: np.ndarray
    proc: np.ndarray
    bank: np.ndarray
    addr: np.ndarray
    alive: np.ndarray


def _first_stall(
    capacity: int,
    n_banks: int,
    issue: np.ndarray,
    arrival: np.ndarray,
    start: np.ndarray,
    banks: np.ndarray,
) -> Optional[int]:
    """Earliest projected issue cycle whose target queue is full, or
    ``None`` if the projection is stall-free (and therefore exact).

    The depth seen by an issue at cycle ``q`` counts same-bank requests
    delivered by ``q-1`` minus those started by ``q-1``: inside a cycle
    processors issue before arrivals are delivered and banks serve, so
    only strictly earlier deliveries/starts occupy the queue.
    """
    n = arrival.size
    order = np.lexsort((arrival, banks))
    s_bank = banks[order]
    s_arr = arrival[order]
    # FIFO start order equals arrival order within a bank, so the same
    # permutation leaves starts nondecreasing per segment.
    s_start = start[order]

    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    np.not_equal(s_bank[1:], s_bank[:-1], out=seg_start[1:])
    seg_id = np.cumsum(seg_start) - 1
    first_of_seg = np.flatnonzero(seg_start)
    seg_of_bank = np.full(n_banks, -1, dtype=np.int64)
    seg_of_bank[s_bank[first_of_seg]] = np.arange(
        first_of_seg.size, dtype=np.int64
    )

    # One global searchsorted answers every per-bank rank query: lift
    # each segment above the previous one's value range (start >= the
    # times queried, so one span covers both sorted arrays).
    span = float(s_start.max()) + 2.0
    lift = seg_id * span
    qseg = seg_of_bank[banks]
    query = (issue - 1.0) + qseg * span
    base = first_of_seg[qseg]
    delivered = np.searchsorted(s_arr + lift, query, side="right") - base
    started = np.searchsorted(s_start + lift, query, side="right") - base
    stalls = delivered - started >= capacity
    if not stalls.any():
        return None
    return int(issue[stalls].min())


def _project(
    s: _Setup,
    work: _Work,
    floors: Optional[np.ndarray],
    last_addr: Optional[np.ndarray],
) -> Tuple[Optional[int], Optional[tuple]]:
    """Solve the unbounded recurrence for the remaining requests.

    Returns ``(t_stall, payload)``: ``t_stall is None`` means the
    stall-free certificate holds (vacuously, for unbounded machines)
    and ``payload = (arrival, start, cost, banks, absorbed_issue)`` is
    exact for the bounded machine; otherwise ``t_stall`` is the first
    real stall cycle and ``payload`` is ``None``.
    """
    alive = work.alive
    if alive.all():
        a_issue, a_bank, a_addr = work.issue, work.bank, work.addr
        absorbed = np.zeros(0, dtype=np.float64)
    else:
        a_issue = work.issue[alive]
        a_bank = work.bank[alive]
        a_addr = work.addr[alive]
        absorbed = work.issue[~alive]
    if a_issue.size == 0:
        empty = np.zeros(0, dtype=np.float64)
        return None, (empty, empty, None, np.zeros(0, dtype=np.int64),
                      absorbed)
    arrival = a_issue + s.latency
    if s.hit_delay is not None:
        start, cost = fifo_service_times_cached(
            arrival, a_bank, a_addr, float(s.d), float(s.hit_delay),
            init_free=floors, init_addr=last_addr,
        )
    else:
        start = fifo_service_times(arrival, a_bank, float(s.d),
                                   init_free=floors)
        cost = None
    if s.capacity is not None:
        t_stall = _first_stall(s.capacity, s.n_banks, a_issue, arrival,
                               start, a_bank)
        if t_stall is not None:
            return t_stall, None
    return None, (arrival, start, cost, a_bank, absorbed)


def _commit(s: _Setup, acc: Acc, payload: tuple) -> None:
    """Fold a certified projection into the accumulators (raising the
    same runaway diagnostic the scalar engines would)."""
    arrival, start, cost, a_bank, absorbed = payload

    # Runaway parity: the scalar engines raise iff they would process a
    # cycle beyond max_cycles, and their last processed cycle is the
    # last service start (survivors) or issue (absorbed requests).
    last_event = int(start.max()) if start.size else 0
    if absorbed.size:
        last_event = max(last_event, int(absorbed.max()))
    if last_event > s.max_cycles:
        done = acc.completed
        if start.size:
            done += int((start <= s.max_cycles).sum())
        if absorbed.size:
            done += int((absorbed <= s.max_cycles).sum())
        raise runaway_error(s.max_cycles, s.n - done, acc.stalled,
                            s.capacity)

    if start.size:
        waits = start - arrival
        acc.total_wait += int(waits.sum())
        w = int(waits.max())
        if w > acc.max_wait:
            acc.max_wait = w
        finish = start + (cost if cost is not None else float(s.d))
        f = int(finish.max())
        if f > acc.last_finish:
            acc.last_finish = f
        acc.bank_served += np.bincount(a_bank, minlength=s.n_banks)
        acc.completed += int(start.size)
        if acc.busy is not None and acc.q_high is not None:
            per_cost = (
                cost if cost is not None
                else np.full(start.size, float(s.d))
            )
            acc.busy += np.bincount(
                a_bank, weights=per_cost, minlength=s.n_banks
            )
            np.maximum(
                acc.q_high,
                _queue_high_water(arrival, start, a_bank, s.n_banks),
                out=acc.q_high,
            )
    if absorbed.size:
        # Combined-away requests complete when their representative's
        # response fans back: issue + latency.
        f = int(absorbed.max()) + s.latency
        if f > acc.last_finish:
            acc.last_finish = f
        acc.completed += int(absorbed.size)


class _Scalar:
    """The batch engine's handle on the shared event world: fed every
    request on the first certificate miss, stepped to quiescence past
    each ``t_stall``, and exported for re-projection."""

    __slots__ = ("world",)

    def __init__(self, s: _Setup) -> None:
        self.world = _world(s)

    def run(self, s: _Setup, acc: Acc, t_stall: int) -> bool:
        """Step until completion (``True``) or until the machine goes
        quiescent at a cycle ``>= t_stall`` (``False``), i.e. safely
        past the span where the projection's certificate failed."""
        return self.world.run(acc, s.max_cycles, t_stall=t_stall)

    def export(self, s: _Setup) -> Tuple[_Work, np.ndarray, np.ndarray]:
        """Remaining requests, bank floors and row-buffer seeds as
        projection inputs (see :meth:`EventWorld.export`)."""
        work, floors, last_addr = self.world.export()
        return _Work(*work), floors, last_addr


def run_batch(machine: MachineConfig, s: _Setup) -> SimResult:
    """Engine body invoked by :func:`~repro.simulator.cycle.
    simulate_scatter_cycle` with ``engine="batch"``."""
    acc = _new_acc(s)
    assert s.batch is not None and s.banks is not None \
        and s.survives is not None
    work = _Work(
        issue=s.batch.issue,
        proc=s.batch.proc,
        bank=s.banks,
        addr=s.batch.addresses,
        alive=s.survives,
    )
    floors: Optional[np.ndarray] = None
    last_addr: Optional[np.ndarray] = None
    scalar: Optional[_Scalar] = None
    while True:
        t_stall, payload = _project(s, work, floors, last_addr)
        if t_stall is None:
            assert payload is not None
            _commit(s, acc, payload)
            break
        if scalar is None:
            scalar = _Scalar(s)
        if scalar.run(s, acc, t_stall):
            break
        work, floors, last_addr = scalar.export(s)
    return _finish(machine, s, "batch", acc)


def simulate_scatter_batch(
    machine: MachineConfig,
    addresses: ArrayLike,
    bank_map: Optional[BankMap] = None,
    assignment: Assignment = "round_robin",
    max_cycles: Optional[int] = None,
    telemetry: bool = False,
    sanitize: Optional[bool] = None,
) -> SimResult:
    """Cycle-accurate simulation of one scatter via the vectorized
    batch engine.

    Sugar for :func:`~repro.simulator.cycle.simulate_scatter_cycle`
    with ``engine="batch"``: honors ``machine.queue_capacity`` (issue
    back-pressure, stall accounting) exactly like the event/tick
    engines — the results are bit-identical by construction and by
    property test — while stall-free spans run vectorized at
    :mod:`~repro.simulator.banksim` speed.  See the module docstring
    for the span/certificate algorithm.
    """
    return simulate_scatter_cycle(
        machine, addresses, bank_map, assignment,
        max_cycles=max_cycles, engine="batch",
        telemetry=telemetry, sanitize=sanitize,
    )
