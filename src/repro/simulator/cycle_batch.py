"""Vectorized "batch" engine: the one place the cycle simulator projects.

The scalar engines in :mod:`repro.simulator.cycle` touch every request
(event) or every cycle (tick) in Python.  This module instead advances
the machine in *spans* and solves each span with numpy array stepping,
for one scatter (``engine="batch"``), for a whole stack of them
(:func:`~repro.simulator.cycle_grid.simulate_scatter_grid`, of which
the batch engine is the one-row call) and for unbounded stream chunks
(:class:`~repro.simulator.stream.StreamSimulator`, one row with carried
seeds):

1. **Project.** Ignoring queue bounds, every remaining request's service
   start follows from the segmented cumulative-maximum kernel of
   :mod:`repro.simulator.banksim` (``start[i] = max(arrival[i],
   start[i-1] + d)`` per bank, solved for all banks at once).  Rows
   with one survivor count stack into a single ``(rows, m)`` kernel
   call; one row keeps the 1-D kernel, and costs every row shares stay
   scalars.  The kernels accept per-bank seeds (``init_free`` floors,
   ``init_addr`` row buffers) so a projection can start from a mid-run
   machine state.
2. **Certify.** The bounded machine evolves identically to the
   unbounded projection up to the first cycle at which an issuing
   processor finds its target queue full.  The queue depth seen by the
   issue at cycle ``q`` is ``#{arrivals <= q-1} - #{starts <= q-1}``
   over same-bank survivors (issue precedes delivery and service inside
   a cycle), which one lifted ``searchsorted`` evaluates for every
   request at once.  If no projected issue sees depth >= capacity, the
   projection *is* the bounded run — :func:`_commit` folds it
   wholesale.  Otherwise the earliest offender ``t_stall`` is exact:
   the first real stall, and only that row leaves the projection.
3. **Fall back, then re-enter.** When back-pressure binds, the shared
   event world of :mod:`repro.simulator.world` (the ``engine="event"``
   stepper itself) is fed every request of the row and replays it from
   cycle 0 — exact, since nothing of it was committed — until either
   completion or a *quiescent* cycle ``t >= t_stall`` (all queues
   empty, nothing in flight, nobody blocked).  At quiescence every
   pending processor's next issue lies strictly in the future, so the
   world exports the remaining requests, they re-project from the
   exported seeds and the loop repeats, resuming the same world if the
   next certificate fails.  Each event chunk strictly passes at least
   one real stall burst, so the alternation terminates; in the worst
   case (back-pressure never quiesces) the row degrades to a single
   event-world run — i.e. to the event engine.

Every committed span is exact and the fallback *is* the event engine's
stepper, so the engine is **bit-identical** to
``engine="event"``/``"tick"`` — property-tested, including telemetry.
Stall-free workloads (the paper's unbounded-queue machines) never leave
step 1 and run at vectorized-``banksim`` speed.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

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

#: Issue cycles of a row without combined-away requests.
_NONE = np.zeros(0, dtype=np.float64)
_NONE.flags.writeable = False


class _Work(NamedTuple):
    """One row's remaining requests as projection input: the survivors'
    issue cycles, banks and addresses, in engine issue order (issue
    cycle, then processor id — the order the event world would issue
    them), plus the issue cycles of requests absorbed by combining."""

    issue: np.ndarray
    bank: np.ndarray
    addr: np.ndarray
    absorbed: np.ndarray


class _Proj(NamedTuple):
    """One row's unbounded projection: the survivors' arrival and start
    cycles, their service costs (``None``: every cost is ``d``) and
    banks, plus the absorbed requests' issue cycles."""

    arrival: np.ndarray
    start: np.ndarray
    cost: Optional[np.ndarray]
    bank: np.ndarray
    absorbed: np.ndarray


def _survivors(issue: np.ndarray, bank: np.ndarray, addr: np.ndarray,
               alive: np.ndarray) -> _Work:
    """Split requests into the survivors that reach a bank and the
    issue cycles of those combining absorbed."""
    if alive.all():
        return _Work(issue, bank, addr, _NONE)
    return _Work(issue[alive], bank[alive], addr[alive], issue[~alive])


def _per_row(values: List[int]) -> Any:
    """A kernel cost: one float when every row agrees (the kernels'
    scalar fast path), else a per-row ``(rows,)`` vector."""
    if len(set(values)) == 1:
        return float(values[0])
    return np.asarray(values, dtype=np.float64)


def _project(
    setups: Sequence[_Setup],
    works: Sequence[_Work],
    floors: Optional[np.ndarray] = None,
    last_addr: Optional[np.ndarray] = None,
) -> List[_Proj]:
    """Solve the unbounded recurrence for a stack of rows that share one
    survivor count, seeded with per-bank ``floors`` and row-buffer
    ``last_addr`` (one row only; ``None``: a cold machine).

    One row runs the 1-D kernels; a stack runs one ``(rows, m)`` call
    with per-row costs.  Mixed stacks run the cached kernel with
    ``hit == miss == d`` on uncached rows: every cost equals ``d``
    there, so the prefix-sum recurrence reduces to the plain ``rank*d``
    one and stays bit-identical to the uncached kernel."""
    one = len(works) == 1
    if one:
        arrival = works[0].issue + float(setups[0].latency)
        bank = works[0].bank
    else:
        arrival = np.stack([w.issue + float(s.latency)
                            for s, w in zip(setups, works)])
        bank = np.stack([w.bank for w in works])
    d = _per_row([s.d for s in setups])
    cost: Optional[np.ndarray] = None
    if all(s.hit_delay is None for s in setups):
        start = fifo_service_times(arrival, bank, d, init_free=floors)
    else:
        hit = _per_row([s.d if s.hit_delay is None else s.hit_delay
                        for s in setups])
        addr = works[0].addr if one else np.stack([w.addr for w in works])
        start, cost = fifo_service_times_cached(
            arrival, bank, addr, d, hit,
            init_free=floors, init_addr=last_addr,
        )
    if one:
        return [_Proj(arrival, start, cost, bank, works[0].absorbed)]
    return [
        _Proj(arrival[i], start[i], None if cost is None else cost[i],
              w.bank, w.absorbed)
        for i, w in enumerate(works)
    ]


def _first_stall(s: _Setup, proj: _Proj) -> Optional[int]:
    """Earliest projected issue cycle whose target queue is full, or
    ``None`` if the projection is stall-free (and therefore exact).

    The depth seen by an issue at cycle ``q`` counts same-bank requests
    delivered by ``q-1`` minus those started by ``q-1``: inside a cycle
    processors issue before arrivals are delivered and banks serve, so
    only strictly earlier deliveries/starts occupy the queue.
    """
    arrival, start, banks = proj.arrival, proj.start, proj.bank
    n = arrival.size
    if s.capacity is None or n == 0:
        return None
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
    seg_of_bank = np.full(s.n_banks, -1, dtype=np.int64)
    seg_of_bank[s_bank[first_of_seg]] = np.arange(
        first_of_seg.size, dtype=np.int64
    )

    # One global searchsorted answers every per-bank rank query: lift
    # each segment above the previous one's value range (start >= the
    # times queried, so one span covers both sorted arrays).  An issue
    # at q arrives at q + latency, so q - 1 = arrival - latency - 1.
    span = float(s_start.max()) + 2.0
    lift = seg_id * span
    qseg = seg_of_bank[banks]
    query = (arrival - float(s.latency + 1)) + qseg * span
    base = first_of_seg[qseg]
    delivered = np.searchsorted(s_arr + lift, query, side="right") - base
    started = np.searchsorted(s_start + lift, query, side="right") - base
    stalls = delivered - started >= s.capacity
    if not stalls.any():
        return None
    return int(arrival[stalls].min()) - s.latency


def _commit(
    s: _Setup,
    acc: Acc,
    proj: _Proj,
    sweep: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Fold a certified projection into the accumulators (raising the
    same runaway diagnostic the event world would) and return the
    survivors' finish cycles.

    The queue high-water marks sweep ``sweep``'s ``(arrival, start,
    bank)`` events when given, else this projection's own: a stream
    chunk adds the events still pending from earlier chunks, because
    its queues are not empty at the seam."""
    arrival, start, cost, bank, absorbed = proj

    # Runaway parity: the event world raises iff it would process a
    # cycle beyond max_cycles, and its last processed cycle is the last
    # service start (survivors) or issue (absorbed requests).
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

    finish = start + (cost if cost is not None else float(s.d))
    if start.size:
        waits = start - arrival
        acc.total_wait += int(waits.sum())
        w = int(waits.max())
        if w > acc.max_wait:
            acc.max_wait = w
        f = int(finish.max())
        if f > acc.last_finish:
            acc.last_finish = f
        acc.bank_served += np.bincount(bank, minlength=s.n_banks)
        acc.completed += int(start.size)
        if acc.busy is not None and acc.q_high is not None:
            per_cost = (
                cost if cost is not None
                else np.full(start.size, float(s.d))
            )
            acc.busy += np.bincount(
                bank, weights=per_cost, minlength=s.n_banks
            )
            np.maximum(
                acc.q_high,
                _queue_high_water(*(sweep or (arrival, start, bank)),
                                  s.n_banks),
                out=acc.q_high,
            )
    if absorbed.size:
        # Combined-away requests complete when their representative's
        # response fans back: issue + latency.
        f = int(absorbed.max()) + s.latency
        if f > acc.last_finish:
            acc.last_finish = f
        acc.completed += int(absorbed.size)
    return finish


def _settle(s: _Setup, acc: Acc, proj: _Proj) -> Optional[int]:
    """Commit one row's projection if its stall certificate holds
    (vacuously, on unbounded machines); otherwise commit nothing and
    return the first stall cycle."""
    t_stall = _first_stall(s, proj)
    if t_stall is None:
        _commit(s, acc, proj)
    return t_stall


class _Scalar:
    """The fallback's handle on the shared event world: fed every
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
        return _survivors(*work), floors, last_addr


def _fold_rows(setups: Sequence[_Setup]) -> List[Tuple[Acc, Optional[int]]]:
    """Project every row, stacking rows with one survivor count into one
    kernel call, and commit each row whose certificate holds.

    Returns each row's accumulator with the cycle its certificate
    failed at (``None``: committed whole; empty rows commit nothing).
    Rows that failed go on through :func:`_fall_back`."""
    accs = [_new_acc(s) for s in setups]
    stalls: List[Optional[int]] = [None] * len(setups)
    works: Dict[int, _Work] = {}
    groups: Dict[int, List[int]] = {}
    for r, s in enumerate(setups):
        if s.n:
            assert s.batch is not None and s.banks is not None \
                and s.survives is not None
            works[r] = _survivors(s.batch.issue, s.banks,
                                  s.batch.addresses, s.survives)
            # Combining absorption and ragged grids just form more
            # (possibly singleton) groups.
            groups.setdefault(s.n_survivors, []).append(r)
    for members in groups.values():
        projs = _project([setups[r] for r in members],
                         [works[r] for r in members])
        for r, proj in zip(members, projs):
            stalls[r] = _settle(setups[r], accs[r], proj)
    return list(zip(accs, stalls))


def _fall_back(s: _Setup, acc: Acc, t_stall: int) -> None:
    """Finish a row whose certificate failed at ``t_stall``: the shared
    event world replays it to quiescence past each failure and the
    remainder re-projects from the exported seeds, until the world
    completes or a certificate holds."""
    scalar = _Scalar(s)
    while not scalar.run(s, acc, t_stall):
        work, floors, last_addr = scalar.export(s)
        (proj,) = _project((s,), (work,), floors, last_addr)
        stall = _settle(s, acc, proj)
        if stall is None:
            return
        t_stall = stall


def run_batch(machine: MachineConfig, s: _Setup) -> SimResult:
    """Engine body invoked by :func:`~repro.simulator.cycle.
    simulate_scatter_cycle` with ``engine="batch"``: the one-row call of
    the grid's project -> certify -> fall back loop."""
    ((acc, t_stall),) = _fold_rows((s,))
    if t_stall is not None:
        _fall_back(s, acc, t_stall)
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
