"""The one pausable event world behind every exact cycle-level engine.

:class:`EventWorld` steps the bounded-queue machine of
:mod:`repro.simulator.cycle` cycle by cycle, but executes only the
cycles where something can happen (an issue, an arrival, a bank
becoming free, a parked processor's retry) and jumps over the rest.
It is *pausable*: requests are fed incrementally, and :meth:`EventWorld.
run` steps to completion, to an exclusive horizon, or to the first
quiescent cycle at or after a given cycle, keeping the machine state on
the instance between calls.  Its three callers:

* ``engine="event"`` feeds every request and runs to completion (a
  one-shot run is a one-chunk stream);
* the batch engine's back-pressure fallback runs it to quiescence and
  exports the remaining requests for vectorized re-projection;
* bounded-queue :class:`~repro.simulator.stream.StreamSimulator` chunks
  run it to the horizon and drain a clone for prefix results.

Per-cycle sub-step order is the tick engine's: processors issue (in
processor-id order), in-flight requests arrive at bank queues, banks
start service.  The event structures and the invariants that make the
jumps exact:

* **Issue heap** — one int key ``cycle * p + q`` per processor that has
  pending requests and is not parked, so pops come out in ``(cycle,
  q)`` order.  Every key lies in ``[t, t + g]``.
* **In flight** — a FIFO deque of ``(arrival, bank, addr)``.  Latency
  is constant and cycles only advance, so push order already is the
  ``(arrival, issue seq)`` delivery order.
* **Bank wheel** — ``d + 1`` slots of banks ready to serve at
  ``slot`` (mod ``d + 1``), plus a small heap of the occupied slots'
  cycles.  A nonempty queue owns exactly one wheel entry (pushed on its
  empty -> nonempty transition at ``max(free_at, t)``, re-pushed at
  ``t + cost`` when a serve leaves it nonempty), so every entry lies in
  ``[t, t + d]`` (``cache_hit_delay <= d``) and is valid when popped.
  Order across banks within one cycle changes no result: each bank owns
  its queue and the aggregates are sums and maxes.
* **Parked processors** — a processor whose target queue is full parks
  under that bank.  The depth it saw can only fall when the bank
  serves, so it is retried exactly on the cycle after each such serve
  and on no other.  Its stall count (one per cycle blocked) is added in
  closed form when it issues, when the world pauses at a horizon, and
  at runaway; it never needs a cycle of its own.

Hot-loop counters live in locals and Python lists and are folded into
the one result accumulator, :class:`Acc`, on exit.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import repeat
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from .machine import MachineConfig
from .sanitize import check_superstep
from .stats import SimResult, SimTelemetry

__all__ = ["Acc", "EventWorld", "proc_rows", "runaway_error"]

#: One request as a processor holds it: (bank, address, survives
#: combining).  Absorbed requests (``False``) never reach a bank.
Row = Tuple[int, int, bool]


def runaway_error(max_cycles: int, outstanding: int, stalled: int,
                  capacity: Optional[int]) -> SimulationError:
    """The diagnostic every cycle engine raises past ``max_cycles``."""
    return SimulationError(
        f"cycle simulator exceeded {max_cycles} cycles with "
        f"{outstanding} requests outstanding and {stalled} issue "
        f"stalls accrued (deadlock or runaway; queue_capacity="
        f"{capacity})"
    )


def proc_rows(p: int, proc: np.ndarray, banks: np.ndarray,
              addresses: np.ndarray,
              alive: Optional[np.ndarray] = None) -> List[List[Row]]:
    """Group requests by processor, in request order, as :data:`Row`\\ s
    (``alive=None``: every request survives)."""
    order = np.argsort(proc, kind="stable")
    flags: Iterable[bool] = (
        repeat(True) if alive is None else alive[order].tolist()
    )
    rows = list(zip(banks[order].tolist(), addresses[order].tolist(),
                    flags))
    ends = np.cumsum(np.bincount(proc, minlength=p)).tolist()
    return [rows[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]


class Acc:
    """Result aggregates of one simulation: sums for loads, waits, busy
    cycles and stalls, maxes for the rest.

    Shared by every engine path (banksim runs, event-world runs,
    committed batch projections, stream chunks) so they fold into one
    type.  Times are whole cycles except on banksim's real-valued
    machines; only banksim's section links add ``link_wait``.  The
    per-bank/per-processor telemetry arrays exist only when telemetry
    or the sanitizer asked for them."""

    __slots__ = ("bank_served", "total_wait", "link_wait", "max_wait",
                 "stalled", "last_finish", "completed", "busy", "q_high",
                 "proc_stalls")

    def __init__(self, n_banks: int, p: int, counters: bool) -> None:
        self.bank_served = np.zeros(n_banks, dtype=np.int64)
        self.total_wait: float = 0
        self.link_wait = 0.0
        self.max_wait: float = 0
        self.stalled = 0
        self.last_finish: float = 0
        self.completed = 0
        self.busy: Optional[np.ndarray] = (
            np.zeros(n_banks, dtype=np.float64) if counters else None
        )
        self.q_high: Optional[np.ndarray] = (
            np.zeros(n_banks, dtype=np.int64) if counters else None
        )
        self.proc_stalls: Optional[np.ndarray] = (
            np.zeros(p, dtype=np.int64) if counters else None
        )

    def clone(self) -> "Acc":
        """Independent copy (arrays copied)."""
        c = Acc.__new__(Acc)
        c.load_state({k: getattr(self, k) for k in Acc.__slots__})
        return c

    def state(self) -> Dict[str, Any]:
        """Aggregates as plain picklable structures (copies)."""
        c = self.clone()
        return {k: getattr(c, k) for k in Acc.__slots__}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state` output (arrays copied)."""
        for k in Acc.__slots__:
            v = state[k]
            setattr(self, k, v.copy() if isinstance(v, np.ndarray) else v)

    def fold(self, served: List[int], busy: List[int], q_high: List[int],
             proc_stalls: List[int]) -> None:
        """Add per-bank/per-processor hot-loop counters (the telemetry
        lists are ignored when this accumulator has no counters)."""
        self.bank_served += np.asarray(served, dtype=np.int64)
        if self.busy is not None and self.q_high is not None \
                and self.proc_stalls is not None:
            self.busy += np.asarray(busy, dtype=np.float64)
            np.maximum(self.q_high, np.asarray(q_high, dtype=np.int64),
                       out=self.q_high)
            self.proc_stalls += np.asarray(proc_stalls, dtype=np.int64)

    def result(self, machine: MachineConfig, n: int, L: float, *,
               telemetry: bool, sanitize: bool, engine: str, h_p: int,
               n_survivors: int) -> SimResult:
        """Freeze into a :class:`SimResult` for ``n`` requests and, when
        sanitizing, check the conservation invariants."""
        tele = None
        if telemetry:
            assert self.busy is not None and self.q_high is not None \
                and self.proc_stalls is not None
            tele = SimTelemetry(
                bank_busy=self.busy.copy(),
                queue_high_water=self.q_high.copy(),
                stall_breakdown={
                    "bank_wait": float(self.total_wait),
                    "link_wait": float(self.link_wait),
                    "issue_backpressure": float(self.stalled),
                },
                proc_stalls=self.proc_stalls.copy(),
                makespan=float(self.last_finish),
            )
        result = SimResult(
            time=float(self.last_finish + L),
            n=n,
            bank_loads=self.bank_served.copy(),
            max_wait=float(self.max_wait),
            mean_wait=float(self.total_wait / n) if n else 0.0,
            stalled_cycles=float(self.stalled),
            machine_name=machine.name,
            telemetry=tele,
        )
        if sanitize:
            check_superstep(
                machine, result, engine=engine, h_p=h_p,
                n_survivors=n_survivors, bank_busy=self.busy,
                queue_high_water=self.q_high,
            )
        return result


class EventWorld:
    """Pausable discrete-event stepper of the bounded-queue machine.

    See the module docstring for the event structures.  ``t`` is always
    the next unprocessed cycle; ``n_fed`` counts every request fed, and
    :meth:`run` treats the world as complete once the accumulator has
    seen that many completions."""

    __slots__ = ("p", "g", "d", "latency", "hit_delay", "capacity",
                 "proc_reqs", "next_issue", "issue_heap", "in_flight",
                 "queues", "free_at", "last_addr", "wheel", "wheel_times",
                 "parked", "blocked_at", "n_blocked", "n_fed", "t")

    def __init__(self, p: int, n_banks: int, g: int, d: int, latency: int,
                 hit_delay: Optional[int], capacity: Optional[int]) -> None:
        self.p = p
        self.g = g
        self.d = d
        self.latency = latency
        self.hit_delay = hit_delay
        self.capacity = capacity
        self.proc_reqs: List[Deque[Row]] = [deque() for _ in range(p)]
        self.next_issue: List[int] = [0] * p
        self.issue_heap: List[int] = []
        self.in_flight: Deque[Tuple[int, int, int]] = deque()
        self.queues: List[Deque[Tuple[int, int, int]]] = [
            deque() for _ in range(n_banks)
        ]
        self.free_at: List[int] = [0] * n_banks
        self.last_addr: List[int] = [-1] * n_banks  # row buffer; -1 = cold
        self.wheel: List[List[int]] = [[] for _ in range(d + 1)]
        self.wheel_times: List[int] = []
        self.parked: Dict[int, List[int]] = {}
        self.blocked_at: List[int] = [-1] * p  # first uncounted stall cycle
        self.n_blocked = 0
        self.n_fed = 0
        self.t = 0

    def feed(self, proc: np.ndarray, banks: np.ndarray,
             addresses: np.ndarray,
             alive: Optional[np.ndarray] = None) -> None:
        """Append requests to the per-processor streams, in request
        order (``alive=None``: no combining).

        A processor gets an issue event only on its empty -> nonempty
        transition.  Its ``next_issue`` is then never before ``t`` when
        the world paused at a horizon (the horizon is the scheduled
        issue cycle of the first unfed request); the clamp only guards
        the key encoding."""
        p = self.p
        for q, rows in enumerate(proc_rows(p, proc, banks, addresses,
                                           alive)):
            if rows:
                dq = self.proc_reqs[q]
                if not dq:
                    heapq.heappush(self.issue_heap,
                                   max(self.next_issue[q], self.t) * p + q)
                dq.extend(rows)
        self.n_fed += int(proc.size)

    def run(self, acc: Acc, max_cycles: int, horizon: Optional[int] = None,
            t_stall: Optional[int] = None) -> bool:
        """Step until every fed request completed (``True``), or pause
        (``False``) before cycle ``horizon`` or after the first
        quiescent cycle ``>= t_stall`` (all queues empty, nothing in
        flight, nobody blocked).  Raises the runaway diagnostic instead
        of processing a cycle past ``max_cycles``."""
        heappush, heappop = heapq.heappush, heapq.heappop
        p, g, d, lat = self.p, self.g, self.d, self.latency
        hit, cap = self.hit_delay, self.capacity
        width = d + 1
        proc_reqs, next_issue = self.proc_reqs, self.next_issue
        issue_heap, in_flight = self.issue_heap, self.in_flight
        queues, free_at, last_addr = self.queues, self.free_at, self.last_addr
        wheel, wheel_times = self.wheel, self.wheel_times
        parked, blocked_at = self.parked, self.blocked_at
        n_fed = self.n_fed
        n_banks = len(queues)
        counters = acc.busy is not None
        served = [0] * n_banks
        busy = [0] * n_banks if counters else []
        q_high = [0] * n_banks if counters else []
        stalls = [0] * p if counters else []
        completed, total_wait, max_wait = (acc.completed, acc.total_wait,
                                           acc.max_wait)
        stalled, last_finish = acc.stalled, acc.last_finish
        n_blocked = self.n_blocked
        t = self.t
        t_end = max_cycles + 1 if horizon is None \
            else min(horizon, max_cycles + 1)
        quiet = False
        while completed < n_fed and t < t_end:
            # 1. Processors issue, in processor-id order (heap keys).
            tp = t * p
            while issue_heap and issue_heap[0] < tp + p:
                q = heappop(issue_heap) - tp
                dq = proc_reqs[q]
                bank, addr, alive = dq[0]
                if alive and cap is not None and len(queues[bank]) >= cap:
                    if blocked_at[q] < 0:
                        blocked_at[q] = t
                        n_blocked += 1
                    parked.setdefault(bank, []).append(q)
                    continue  # next_issue unchanged; retried after a serve
                dq.popleft()
                tb = blocked_at[q]
                if tb >= 0:
                    stalled += t - tb
                    if counters:
                        stalls[q] += t - tb
                    blocked_at[q] = -1
                    n_blocked -= 1
                if alive:
                    in_flight.append((t + lat, bank, addr))
                else:
                    # Absorbed by the combining network: done on arrival.
                    if t + lat > last_finish:
                        last_finish = t + lat
                    completed += 1
                next_issue[q] = t + g
                if dq:
                    heappush(issue_heap, tp + g * p + q)

            # 2. Deliver arrivals due this cycle, in issue order.
            while in_flight and in_flight[0][0] <= t:
                req = in_flight.popleft()
                bank = req[1]
                qu = queues[bank]
                qu.append(req)
                if len(qu) == 1:
                    x = free_at[bank] if free_at[bank] > t else t
                    slot = wheel[x % width]
                    if not slot:
                        heappush(wheel_times, x)
                    slot.append(bank)
                if counters and len(qu) > q_high[bank]:
                    q_high[bank] = len(qu)

            # 3. Banks start service.
            if wheel_times and wheel_times[0] == t:
                heappop(wheel_times)
                slot = wheel[t % width]
                for bank in slot:
                    qu = queues[bank]
                    arr, _, addr = qu.popleft()
                    wait = t - arr
                    total_wait += wait
                    if wait > max_wait:
                        max_wait = wait
                    cost = hit if hit is not None and last_addr[bank] == addr \
                        else d
                    last_addr[bank] = addr
                    x = t + cost
                    free_at[bank] = x
                    served[bank] += 1
                    if counters:
                        busy[bank] += cost
                    if x > last_finish:
                        last_finish = x
                    if qu:
                        nxt = wheel[x % width]
                        if not nxt:
                            heappush(wheel_times, x)
                        nxt.append(bank)
                    if parked and bank in parked:
                        for q in parked.pop(bank):
                            heappush(issue_heap, tp + p + q)
                completed += len(slot)
                slot.clear()

            if completed >= n_fed:
                t += 1
                break
            if t_stall is not None and t >= t_stall and not n_blocked \
                    and not in_flight and not wheel_times:
                # Quiescent: every pending issue lies in the future.
                t += 1
                quiet = True
                break
            # Jump to the next cycle where anything can change.
            t_next = t_end
            if issue_heap and issue_heap[0] // p < t_next:
                t_next = issue_heap[0] // p
            if in_flight and in_flight[0][0] < t_next:
                t_next = in_flight[0][0]
            if wheel_times and wheel_times[0] < t_next:
                t_next = wheel_times[0]
            if t_next <= t:
                raise SimulationError(
                    "event world scheduled a non-advancing event "
                    f"(t={t}, t_next={t_next}); this is a bug"
                )
            t = t_next
        done = completed >= n_fed
        stopped = not done and not quiet  # at the horizon or runaway
        if stopped and n_blocked:
            # Count every parked processor's stalls through cycle t - 1.
            for q in range(p):
                tb = blocked_at[q]
                if tb >= 0:
                    stalled += t - tb
                    if counters:
                        stalls[q] += t - tb
                    blocked_at[q] = t
        acc.completed, acc.total_wait, acc.max_wait = (completed, total_wait,
                                                       max_wait)
        acc.stalled, acc.last_finish = stalled, last_finish
        acc.fold(served, busy, q_high, stalls)
        self.n_blocked = n_blocked
        self.t = t
        if stopped and (horizon is None or t < horizon):
            raise runaway_error(max_cycles, n_fed - completed, stalled, cap)
        return done

    def export(self) -> Tuple[Tuple[np.ndarray, ...], np.ndarray,
                              np.ndarray]:
        """Remaining requests as projection inputs, for a quiescent world.

        Returns ``((issue, bank, addr, alive), floors, last_addr)``:
        processor ``q``'s ``j``-th pending request issues at
        ``next_issue[q] + j*g`` (exact while nobody is blocked; the
        next stall certificate finds the next stall), sorted in issue
        order (cycle, then processor id); banks carry their free-at
        floors and row-buffer seeds (``-1`` = cold)."""
        counts = [len(dq) for dq in self.proc_reqs]
        rows = [r for dq in self.proc_reqs for r in dq]
        bank = np.asarray([r[0] for r in rows], dtype=np.int64)
        addr = np.asarray([r[1] for r in rows], dtype=np.int64)
        alive = np.asarray([r[2] for r in rows], dtype=bool)
        proc = np.repeat(np.arange(self.p, dtype=np.int64), counts)
        first = np.cumsum(counts) - counts
        rank = np.arange(len(rows)) - np.repeat(first, counts)
        issue = (np.repeat(np.asarray(self.next_issue, dtype=np.float64),
                           counts) + rank * float(self.g))
        order = np.lexsort((proc, issue))
        work = (issue[order], bank[order], addr[order], alive[order])
        return (work, np.asarray(self.free_at, dtype=np.float64),
                np.asarray(self.last_addr, dtype=np.int64))

    def state(self) -> Dict[str, Any]:
        """Machine state as plain picklable structures (copies)."""
        return {
            "proc_reqs": [list(dq) for dq in self.proc_reqs],
            "next_issue": list(self.next_issue),
            "issue_heap": list(self.issue_heap),
            "in_flight": list(self.in_flight),
            "queues": [list(dq) for dq in self.queues],
            "free_at": list(self.free_at),
            "last_addr": list(self.last_addr),
            "wheel": [list(slot) for slot in self.wheel],
            "wheel_times": list(self.wheel_times),
            "parked": {b: list(qs) for b, qs in self.parked.items()},
            "blocked_at": list(self.blocked_at),
            "n_blocked": self.n_blocked,
            "n_fed": self.n_fed,
            "t": self.t,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state` output into a world built for the same
        machine (heaps keep their heap order)."""
        self.proc_reqs = [deque(rows) for rows in state["proc_reqs"]]
        self.next_issue = list(state["next_issue"])
        self.issue_heap = list(state["issue_heap"])
        self.in_flight = deque(state["in_flight"])
        self.queues = [deque(reqs) for reqs in state["queues"]]
        self.free_at = list(state["free_at"])
        self.last_addr = list(state["last_addr"])
        self.wheel = [list(slot) for slot in state["wheel"]]
        self.wheel_times = list(state["wheel_times"])
        self.parked = {b: list(qs) for b, qs in state["parked"].items()}
        self.blocked_at = list(state["blocked_at"])
        self.n_blocked = int(state["n_blocked"])
        self.n_fed = int(state["n_fed"])
        self.t = int(state["t"])

    def clone(self) -> "EventWorld":
        """Independent copy that can run on without touching this one."""
        w = EventWorld.__new__(EventWorld)
        w.p, w.g, w.d = self.p, self.g, self.d
        w.latency, w.hit_delay, w.capacity = (self.latency, self.hit_delay,
                                             self.capacity)
        w.load_state(self.state())
        return w
