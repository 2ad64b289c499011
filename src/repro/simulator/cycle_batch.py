"""Vectorized projection: the one arithmetic behind every engine but
``tick``.

The tick loop in :mod:`repro.simulator.cycle` touches every cycle, and
the event world of :mod:`repro.simulator.world` every request, in
Python.  This module instead advances the machine in *spans* and solves
each span with numpy array stepping, for the unbounded-queue simulator
(:mod:`repro.simulator.banksim`), for one scatter (``engine="event"``
or ``"batch"``, two names for this one path), for a whole stack of
them
(:func:`~repro.simulator.cycle_grid.simulate_scatter_grid`, of which
the batch engine is the one-row call) and for stream chunks
(:class:`~repro.simulator.stream.StreamSimulator`, one row with carried
seeds, certified against the pending requests of earlier chunks):

1. **Project.** Ignoring queue bounds, every remaining request's service
   start follows from the FIFO recurrence ``start[i] = max(arrival[i],
   start[i-1] + d)`` per bank.  :func:`fifo_service_times` solves it for
   all banks at once with a segmented cumulative maximum: within one
   bank's arrival-ordered segment ``start[i] = i*d + max_{j <= i}
   (arrival[j] - j*d)``, so one ``np.maximum.accumulate`` over
   per-segment-offset values gives every start time with no
   Python-level loop.  The stages in front of the banks ride on the
   same kernels: combining keeps one request per location, banksim's
   section links (machine ``n_sections`` / ``section_gap``) queue
   requests at a rate-limited link first, and the row buffer
   (:func:`fifo_service_times_cached`) prices each service.  Rows with
   one survivor count stack into a single ``(rows, m)`` kernel call;
   one row keeps the 1-D kernel, and costs every row shares stay
   scalars.  The kernels accept per-bank seeds (``init_free`` floors,
   ``init_addr`` row buffers) so a projection can start from a mid-run
   machine state.
2. **Certify.**  The bounded machine evolves identically to the
   unbounded projection up to the first cycle at which an issuing
   processor finds its target queue full.  A stall needs ``capacity``
   requests queued at one bank, and FIFO service starts them at least
   ``min(d, hit cost)`` cycles apart, so the last of them waits longer
   than ``(capacity - 1) * min(d, hit cost)``: a row whose projected
   waits all stay within that bound is stall-free, with no sort and no
   search.  On the banks with a longer wait, the queue depth seen by
   the issue at cycle ``q`` is ``#{arrivals <= q-1} - #{starts <=
   q-1}`` over same-bank survivors (issue precedes delivery and service
   inside a cycle), which one lifted ``searchsorted`` evaluates for
   every request at once.  If no projected issue sees depth >=
   capacity, the projection *is* the bounded run — :func:`_commit`
   folds it wholesale.  Otherwise the certificate names the banks it
   found full, and only that row leaves the projection.
3. **Reduced run.**  Back-pressure binds only at the banks that fill,
   so the fallback steps only those.  The shared event world of
   :mod:`repro.simulator.world` is fed the requests to a *stepped* set
   of banks, starting with the ones the certificate named; each
   processor issues its first stepped request at its scheduled cycle
   and jumps over its other requests, ``g`` cycles apiece.  The world
   logs every blocked issue, so each request's real issue cycle is its
   scheduled one plus its processor's stalls up to and including it.
   From those issue cycles the other banks' requests (and the requests
   combining absorbed) are projected from a cold machine and certified
   as in step 2.  If the certificate holds, the reduced run *is* the
   real run: the two agree until an unstepped issue would find a full
   queue, and the certificate shows none does.  The world's aggregates
   plus the committed projection are the row's result.  Otherwise the
   banks it found full join the stepped set and the reduced run starts
   again; the set only grows, so this ends, at worst with every bank
   stepped.  A reduced run past ``max_cycles`` hands the row to the
   world fed every request, which raises the runaway diagnostic (or
   finishes the row, if only the reduced run ran away).

Every committed span is exact and a committed reduced run is the real
run, so the projector is **bit-identical** to ``engine="tick"``
and to the world run alone — property-tested, including telemetry.
Stall-free workloads (the paper's unbounded-queue machines) never leave
step 1, and banksim, whose queues are unbounded by definition, is step
1 alone: it projects and commits with no certificate.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import PatternError, SimulationError
from .cycle import _finish, _new_acc, _Setup, _world
from .machine import MachineConfig
from .stats import SimResult
from .world import Acc, Issued, runaway_error

__all__ = ["fifo_service_times", "fifo_service_times_cached"]


def _server_top(servers: np.ndarray, width: Optional[int] = None) -> int:
    """Largest id of a non-empty ``servers`` array, after checking that
    every id is an integer in ``[0, width)`` (``width=None``: the ids
    index no seed, so only the lower bound applies)."""
    if not np.issubdtype(servers.dtype, np.integer):
        raise PatternError("server ids must be integers")
    if int(servers.min()) < 0:
        raise PatternError("server ids must be >= 0")
    top = int(servers.max())
    if width is not None and top >= width:
        raise PatternError("server ids outside the init seed width")
    return top


def _fifo_order(servers: np.ndarray, times: np.ndarray,
                width: Optional[int] = None) -> np.ndarray:
    """FIFO service order: requests by server, then time, then input
    position — exactly the permutation ``np.lexsort((np.arange(n),
    times, servers))`` returns — after :func:`_server_top`'s id checks.

    Computed least-significant key first, as two stable passes: one on
    ``times`` (skipped when they are already nondecreasing, as every
    issue-ordered one-row projection's are) and an LSD radix pass on
    the ids narrowed to ``uint16``, for which numpy's stable sort is a
    counting sort.  Ids of 2^16 or more (a lifted grid of over 64 rows
    of 1,024 banks) take one further pass per 16-bit digit.
    """
    if servers.size == 0:
        return np.zeros(0, dtype=np.intp)
    top = _server_top(servers, width)
    order: Optional[np.ndarray] = None
    if times.size > 1 and not bool((times[1:] >= times[:-1]).all()):
        order = np.argsort(times, kind="stable")
    for shift in range(0, top.bit_length() or 1, 16):
        # astype(uint16) keeps the low 16 bits: one radix digit.
        key = (servers >> shift if shift else servers).astype(np.uint16)
        if order is None:
            order = np.argsort(key, kind="stable")
        else:
            order = order[np.argsort(key[order], kind="stable")]
    assert order is not None
    return order


def _rows_flatten(
    arrivals: np.ndarray,
    servers: np.ndarray,
    init_free: Optional[np.ndarray],
    what: str,
) -> tuple:
    """Validate one batched (rows, n) call and flatten it to a single
    1-D problem by lifting each row's server ids into a disjoint range.

    Returns ``(rows, n, flat_servers, flat_floors, n_srv)``.  Segments
    of different rows can never share a lifted server id, so the 1-D
    segmented-cummax kernel solves every row at once and each row's
    answer is bit-identical to its own per-row call (:func:`_fifo_order`
    breaks ties by flattened position, i.e. row-major input position,
    which preserves each row's internal order).  The ids are checked
    here, before lifting: a negative id or one past the seed width
    would lift into a neighbouring row's range.
    """
    if servers.ndim != 2 or arrivals.shape != servers.shape:
        raise PatternError(
            f"batched {what} requires matching 2-D (rows, n) "
            "arrivals and servers"
        )
    rows, n = arrivals.shape
    if n == 0:
        return rows, n, None, None, 0
    if servers.min() < 0:
        raise PatternError("server ids must be >= 0")
    if init_free is not None:
        floors = np.asarray(init_free, dtype=np.float64)
        if floors.ndim != 2 or floors.shape[0] != rows:
            raise PatternError(
                f"batched {what} requires init seeds of shape "
                "(rows, n_servers)"
            )
        n_srv = floors.shape[1]
        if int(servers.max()) >= n_srv:
            raise PatternError("server ids outside the init seed width")
        flat_floors = floors.ravel()
    else:
        n_srv = int(servers.max()) + 1
        flat_floors = None
    row_lift = np.arange(rows, dtype=np.int64)[:, None] * n_srv
    flat_srv = (np.asarray(servers, dtype=np.int64) + row_lift).ravel()
    return rows, n, flat_srv, flat_floors, n_srv


def _per_request(value: Any, rows: int, n: int, name: str) -> Any:
    """Broadcast a scalar / per-row (rows,) cost to the flattened grid.

    Scalars pass through untouched (the 1-D kernel keeps its scalar
    fast path); a per-row vector expands to one entry per request.
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return value
    if arr.shape != (rows,):
        raise SimulationError(
            f"per-row {name} must have shape ({rows},), got {arr.shape}"
        )
    return np.broadcast_to(arr[:, None], (rows, n)).ravel()


def fifo_service_times(
    arrivals: np.ndarray, servers: np.ndarray, gap: float,
    init_free: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Start times for FIFO service with one start per ``gap`` cycles per
    server.

    Parameters
    ----------
    arrivals:
        float64 arrival time of each request.  May be a batched 2-D
        ``(rows, n)`` array: each row is an independent grid point
        (its own servers, its own seeds) and the whole grid is solved
        in one vectorized pass, bit-identical per row to ``rows``
        separate 1-D calls.
    servers:
        Integer server (bank or section link) id of each request
        (same shape as ``arrivals``).  Ids must be non-negative and,
        with ``init_free``, below its width: a :class:`PatternError`
        otherwise.
    gap:
        Minimum spacing between consecutive service starts at one server.
        ``gap = 0`` means an unlimited server: start == arrival.  In
        batched mode, also accepts a per-row ``(rows,)`` vector; a
        per-request array is honoured as long as the gap is constant
        within each server's segment (which per-row broadcasting
        guarantees).
    init_free:
        Optional per-server floor on the first start (indexed by server
        id): the cycle at which a previously busy server becomes free
        again.  Lets the batch cycle engine re-enter the recurrence from
        a mid-run machine state.  ``None`` means every server starts
        free.  In batched mode: shape ``(rows, n_servers)``, one seed
        row per grid row.

    Returns
    -------
    float64 start times, aligned with the input order (and shape).  Ties
    in arrival time are broken by input position (the global issue
    order), matching the cycle-accurate reference simulator.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    servers = np.asarray(servers)
    if arrivals.ndim == 2:
        rows, n, flat_srv, flat_floors, _ = _rows_flatten(
            arrivals, servers, init_free, "fifo_service_times"
        )
        if rows == 0 or n == 0:
            return np.zeros((rows, n), dtype=np.float64)
        flat = fifo_service_times(
            arrivals.ravel(), flat_srv,
            _per_request(gap, rows, n, "gap"),
            init_free=flat_floors,
        )
        return flat.reshape(rows, n)
    if arrivals.shape != servers.shape or arrivals.ndim != 1:
        raise PatternError("arrivals and servers must be matching 1-D arrays")
    n = arrivals.size
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    gaps = None  # per-request gaps (batched rows); scalar path stays scalar
    if np.ndim(gap) > 0:
        gaps = np.asarray(gap, dtype=np.float64)
        if gaps.shape != arrivals.shape:
            raise SimulationError(
                "per-request gap must align with arrivals"
            )
        gap_max = float(gaps.max())
        if float(gaps.min()) < 0:
            raise SimulationError("service gap must be >= 0")
    else:
        gap_max = float(gap)
        if gap < 0:
            raise SimulationError(f"service gap must be >= 0, got {gap}")
    floors = (None if init_free is None
              else np.asarray(init_free, dtype=np.float64))
    width = None if floors is None else floors.size
    if gap_max == 0:
        # All gaps zero: unlimited servers, start == max(arrival, floor).
        _server_top(servers, width)
        if floors is None:
            return arrivals.copy()
        return np.maximum(arrivals, floors[servers])

    idx = np.arange(n)
    order = _fifo_order(servers, arrivals, width)
    s_arr = arrivals[order]
    s_srv = servers[order]

    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    np.not_equal(s_srv[1:], s_srv[:-1], out=seg_start[1:])
    seg_id = np.cumsum(seg_start) - 1
    first_of_seg = np.flatnonzero(seg_start)
    rank = idx - first_of_seg[seg_id]

    # With per-request gaps the lift term becomes rank * (own segment's
    # gap); constant within a segment, so the recurrence still telescopes
    # to one cummax (and equals the scalar expression when all gaps agree,
    # keeping the two paths bit-identical).
    step = gap if gaps is None else gaps[order]
    adjusted = s_arr - rank * step
    if floors is not None:
        # Seed each segment head with its server's external floor: the
        # first start becomes max(arrival, floor) (rank 0, so adjusted
        # is the start itself) and the cummax propagates the constraint
        # to the rest of the segment.
        adjusted[first_of_seg] = np.maximum(
            adjusted[first_of_seg], floors[s_srv[first_of_seg]]
        )
    # Segmented cumulative max via per-segment offsets: each segment is
    # lifted above the previous one's value range, so the running max never
    # leaks across segments.  Exact for integer-valued times (span and
    # offsets stay far below 2^53).
    span = float(adjusted.max() - adjusted.min()) + gap_max + 1.0
    lifted = adjusted + seg_id * span
    running = np.maximum.accumulate(lifted) - seg_id * span
    start_sorted = running + rank * step

    start = np.empty(n, dtype=np.float64)
    start[order] = start_sorted
    return start


def fifo_service_times_cached(
    arrivals: np.ndarray,
    servers: np.ndarray,
    addresses: np.ndarray,
    miss_cost: float,
    hit_cost: float,
    init_free: Optional[np.ndarray] = None,
    init_addr: Optional[np.ndarray] = None,
) -> tuple:
    """FIFO service with a one-entry bank cache (cached-DRAM extension,
    Hsu & Smith [HS93]).

    A request whose address equals the *immediately previous* request
    serviced by the same server is a row-buffer hit and occupies the
    server for ``hit_cost`` cycles; otherwise ``miss_cost``.  Solved
    vectorized like :func:`fifo_service_times`, with the per-segment gap
    prefix sums replacing ``rank * gap``.

    ``init_free`` floors each server's first start as in
    :func:`fifo_service_times`; ``init_addr`` seeds each server's row
    buffer with the address it last serviced (``-1`` = cold buffer;
    addresses are non-negative), so a mid-run re-entry preserves hits
    across the seam.  Server ids must be non-negative and below the
    width of every seed given (:class:`PatternError` otherwise).

    Batched mode mirrors :func:`fifo_service_times`: 2-D ``(rows, n)``
    arrivals/servers/addresses solve one independent grid point per
    row (bit-identical per row to per-row calls), with ``miss_cost`` /
    ``hit_cost`` optionally per-row ``(rows,)`` vectors and the init
    seeds shaped ``(rows, n_servers)``.

    Returns ``(start, cost)`` aligned with the input order (and shape).
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    servers = np.asarray(servers)
    addresses = np.asarray(addresses)
    if arrivals.ndim == 2:
        if addresses.shape != arrivals.shape:
            raise PatternError(
                "batched fifo_service_times_cached requires matching "
                "2-D (rows, n) addresses"
            )
        rows, n, flat_srv, flat_floors, n_srv = _rows_flatten(
            arrivals, servers, init_free, "fifo_service_times_cached"
        )
        if rows == 0 or n == 0:
            empty = np.zeros((rows, n), dtype=np.float64)
            return empty, empty.copy()
        flat_seeds = None
        if init_addr is not None:
            seeds = np.asarray(init_addr)
            if seeds.shape != (rows, n_srv):
                raise PatternError(
                    "batched init_addr must be shaped (rows, n_servers)"
                )
            flat_seeds = seeds.ravel()
        start, cost = fifo_service_times_cached(
            arrivals.ravel(), flat_srv, addresses.ravel(),
            _per_request(miss_cost, rows, n, "miss_cost"),
            _per_request(hit_cost, rows, n, "hit_cost"),
            init_free=flat_floors, init_addr=flat_seeds,
        )
        return start.reshape(rows, n), cost.reshape(rows, n)
    if not (arrivals.shape == servers.shape == addresses.shape) \
            or arrivals.ndim != 1:
        raise PatternError(
            "arrivals, servers and addresses must be matching 1-D arrays"
        )
    per_req = None  # (hit, miss) per-request costs (batched rows)
    if np.ndim(hit_cost) > 0 or np.ndim(miss_cost) > 0:
        hit_req = np.broadcast_to(
            np.asarray(hit_cost, dtype=np.float64), arrivals.shape
        )
        miss_req = np.broadcast_to(
            np.asarray(miss_cost, dtype=np.float64), arrivals.shape
        )
        if arrivals.size and (
            float(hit_req.min()) <= 0 or float(miss_req.min()) <= 0
            or bool(np.any(hit_req > miss_req))
        ):
            raise SimulationError(
                "need 0 < hit_cost <= miss_cost for every request"
            )
        per_req = (hit_req, miss_req)
        miss_max = float(miss_req.max()) if arrivals.size else 0.0
    else:
        if hit_cost <= 0 or miss_cost <= 0 or hit_cost > miss_cost:
            raise SimulationError(
                f"need 0 < hit_cost <= miss_cost, got {hit_cost}, {miss_cost}"
            )
        miss_max = miss_cost
    n = arrivals.size
    if n == 0:
        empty = np.zeros(0, dtype=np.float64)
        return empty, empty.copy()

    floors = (None if init_free is None
              else np.asarray(init_free, dtype=np.float64))
    seeds = None if init_addr is None else np.asarray(init_addr)
    widths = [a.size for a in (floors, seeds) if a is not None]
    order = _fifo_order(servers, arrivals, min(widths) if widths else None)
    s_arr = arrivals[order]
    s_srv = servers[order]
    s_addr = addresses[order]

    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    np.not_equal(s_srv[1:], s_srv[:-1], out=seg_start[1:])
    seg_id = np.cumsum(seg_start) - 1
    first_of_seg = np.flatnonzero(seg_start)

    # Hit = same address as the previous request in this server's FIFO.
    hit = np.zeros(n, dtype=bool)
    np.equal(s_addr[1:], s_addr[:-1], out=hit[1:])
    hit &= ~seg_start
    if seeds is not None:
        # Segment heads hit iff they match the seeded row buffer.
        hit[first_of_seg] = s_addr[first_of_seg] == seeds[s_srv[first_of_seg]]
    if per_req is None:
        cost = np.where(hit, hit_cost, miss_cost)
    else:
        cost = np.where(hit, per_req[0][order], per_req[1][order])

    # Segment-local prefix sums of the costs of *earlier* requests.
    csum = np.cumsum(cost)
    csum_prev = np.empty(n)
    csum_prev[0] = 0.0
    csum_prev[1:] = csum[:-1]
    base = csum_prev[first_of_seg][seg_id]
    gap_prefix = csum_prev - base

    adjusted = s_arr - gap_prefix
    if floors is not None:
        adjusted[first_of_seg] = np.maximum(
            adjusted[first_of_seg], floors[s_srv[first_of_seg]]
        )
    span = float(adjusted.max() - adjusted.min()) + miss_max + 1.0
    lifted = adjusted + seg_id * span
    running = np.maximum.accumulate(lifted) - seg_id * span
    start_sorted = running + gap_prefix

    start = np.empty(n, dtype=np.float64)
    start[order] = start_sorted
    cost_out = np.empty(n, dtype=np.float64)
    cost_out[order] = cost
    return start, cost_out

def _queue_high_water(
    arrival: np.ndarray,
    start: np.ndarray,
    banks: np.ndarray,
    n_banks: int,
) -> np.ndarray:
    """Per-bank maximum simultaneous queue depth.

    Each request occupies its bank's queue over ``[arrival, start)``.
    Depth is sampled just after arrivals (arrivals sort before departures
    at equal times: they come first in the concatenation, and the order
    breaks ties by position), matching where the cycle engines measure
    their high-water mark — a request that starts the cycle it arrives
    counts.
    """
    n = arrival.size
    times = np.concatenate([arrival, start])
    delta = np.concatenate([
        np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)
    ])
    bankv = np.concatenate([banks, banks])
    order = _fifo_order(bankv, times)
    s_bank = bankv[order]
    # Each bank's deltas sum to zero, so a single global cumsum restarts
    # at zero at every bank boundary — no per-segment offsets needed.
    depth = np.cumsum(delta[order])
    seg_first = np.flatnonzero(
        np.r_[True, s_bank[1:] != s_bank[:-1]]
    )
    high = np.zeros(n_banks, dtype=np.int64)
    high[s_bank[seg_first]] = np.maximum.reduceat(depth, seg_first)
    return high


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
    """One row's unbounded projection: the survivors' bank arrival and
    start cycles, their service costs (``None``: every cost is ``d``)
    and banks, the absorbed requests' issue cycles, and the cycles the
    survivors queued at section links."""

    arrival: np.ndarray
    start: np.ndarray
    cost: Optional[np.ndarray]
    bank: np.ndarray
    absorbed: np.ndarray
    link_wait: float


def _survivors(issue: np.ndarray, bank: np.ndarray, addr: np.ndarray,
               alive: Optional[np.ndarray]) -> _Work:
    """Split requests into the survivors that reach a bank and the
    issue cycles of those combining absorbed (``alive=None``: every
    request survives)."""
    if alive is None or alive.all():
        return _Work(issue, bank, addr, _NONE)
    return _Work(issue[alive], bank[alive], addr[alive], issue[~alive])


def _per_row(values: List[float]) -> Any:
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

    One row runs the 1-D kernels, behind its section links when it has
    them (only banksim rows do: the cycle engines refuse sections); a
    stack runs one ``(rows, m)`` call with per-row costs.  Mixed stacks
    run the cached kernel with ``hit == miss == d`` on uncached rows:
    every cost equals ``d`` there, so the prefix-sum recurrence reduces
    to the plain ``rank*d`` one and stays bit-identical to the uncached
    kernel."""
    one = len(works) == 1
    link_wait = 0.0
    if one:
        s = setups[0]
        arrival = works[0].issue + float(s.latency)
        bank = works[0].bank
        if s.section_gap:
            # Each contiguous group of banks sits behind one link that
            # accepts a request every section_gap cycles: requests queue
            # at their link first, then at their bank.
            link = fifo_service_times(arrival, bank // s.section_banks,
                                      s.section_gap)
            link_wait = float((link - arrival).sum())
            arrival = link + s.section_gap
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
        return [_Proj(arrival, start, cost, bank, works[0].absorbed,
                      link_wait)]
    return [
        _Proj(arrival[i], start[i], None if cost is None else cost[i],
              w.bank, w.absorbed, 0.0)
        for i, w in enumerate(works)
    ]


def _full_banks(s: _Setup, proj: _Proj,
                issued: Optional[Issued] = None) -> Optional[np.ndarray]:
    """Banks whose queue is full at one of the projection's issues, or
    ``None`` if the projection is stall-free (and therefore exact).

    ``issued`` adds requests issued before the projection's own (a
    stream's pending requests): they count toward every depth but are
    not queried, since their own issues were certified already.

    The waits clear most rows in one pass.  A stall needs ``capacity``
    requests queued at its bank, and FIFO service starts them at least
    ``min(d, hit cost)`` cycles apart, so the last of them waits longer
    than ``(capacity - 1) * min(d, hit cost)``.  A bank with no longer
    wait cannot fill; only the others go through :func:`_depth_check`.
    """
    if s.capacity is None or proj.arrival.size == 0:
        return None
    cheap = s.d if s.hit_delay is None else min(s.d, s.hit_delay)
    bound = (s.capacity - 1) * cheap
    hot = np.zeros(s.n_banks, dtype=bool)
    hot[proj.bank[proj.start - proj.arrival > bound]] = True
    if issued is not None:
        hot[issued.bank[issued.start - issued.arrival > bound]] = True
    if not hot.any():
        return None
    return _depth_check(s, proj, issued, hot)


def _depth_check(s: _Setup, proj: _Proj, issued: Optional[Issued],
                 hot: np.ndarray) -> Optional[np.ndarray]:
    """The exact stall certificate, on the banks ``hot`` marks: the
    banks where a projected issue finds its queue full, or ``None``.

    The depth seen by an issue at cycle ``q`` counts same-bank requests
    delivered by ``q-1`` minus those started by ``q-1``: inside a cycle
    processors issue before arrivals are delivered and banks serve, so
    only strictly earlier deliveries/starts occupy the queue.  Requests
    in ``issued`` count toward depths but are not queried.
    """
    assert s.capacity is not None
    keep = hot[proj.bank]
    arrival, start = proj.arrival[keep], proj.start[keep]
    banks = proj.bank[keep]
    if arrival.size == 0:
        return None
    m = 0
    if issued is not None and issued.start.size:
        # Issued requests precede the projection's in request order, so
        # the arrivals stay nondecreasing and every FIFO keeps its order.
        keep = hot[issued.bank]
        m = int(keep.sum())
        arrival = np.concatenate((issued.arrival[keep], arrival))
        start = np.concatenate((issued.start[keep], start))
        banks = np.concatenate((issued.bank[keep], banks))
    order = _fifo_order(banks, arrival)
    s_bank = banks[order]
    s_arr = arrival[order]
    # FIFO start order equals arrival order within a bank, so the same
    # permutation leaves starts nondecreasing per segment.
    s_start = start[order]

    seg_start = np.empty(order.size, dtype=bool)
    seg_start[0] = True
    np.not_equal(s_bank[1:], s_bank[:-1], out=seg_start[1:])
    seg_id = np.cumsum(seg_start) - 1

    # One global searchsorted answers every per-bank rank query: lift
    # each segment above the previous one's value range (start >= the
    # times queried, so one span covers both sorted arrays).  The
    # queries go in segment order too, so both searches walk sorted
    # keys, and each count's offset (its segment's first position)
    # cancels in the difference.  An issue at q arrives at q + latency,
    # so q - 1 = arrival - latency - 1.
    span = float(s_start.max()) + 2.0
    lift = seg_id * span
    ask, ask_lift, ask_bank = s_arr, lift, s_bank
    if m:
        asked = order >= m
        ask, ask_lift, ask_bank = s_arr[asked], lift[asked], s_bank[asked]
    query = (ask - float(s.latency + 1)) + ask_lift
    delivered = np.searchsorted(s_arr + lift, query, side="right")
    started = np.searchsorted(s_start + lift, query, side="right")
    stalls = delivered - started >= s.capacity
    if not stalls.any():
        return None
    return np.unique(ask_bank[stalls])


def _last_event(proj: _Proj) -> float:
    """The last cycle a projection's run processes: its last service
    start (survivors) or issue (absorbed requests)."""
    last = float(proj.start.max()) if proj.start.size else 0.0
    if proj.absorbed.size:
        last = max(last, float(proj.absorbed.max()))
    return last


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
    its queues are not empty at the seam.  Times stay real-valued:
    banksim's machines need not advance in whole cycles."""
    arrival, start, cost, bank, absorbed, link_wait = proj
    finish = start + (cost if cost is not None else float(s.d))
    # Combined-away requests complete when their representative's
    # response fans back: issue + latency.
    last = float(finish.max()) if start.size else 0.0
    if absorbed.size:
        last = max(last, float(absorbed.max()) + s.latency)

    # Runaway parity: the event world raises iff it would process a
    # cycle beyond max_cycles, and its last processed cycle is never
    # later than the last finish.
    if last > s.max_cycles and _last_event(proj) > s.max_cycles:
        done = acc.completed
        if start.size:
            done += int((start <= s.max_cycles).sum())
        if absorbed.size:
            done += int((absorbed <= s.max_cycles).sum())
        raise runaway_error(s.max_cycles, s.n - done, acc.stalled,
                            s.capacity)

    if last > acc.last_finish:
        acc.last_finish = last
    acc.completed += int(start.size) + int(absorbed.size)
    acc.link_wait += link_wait
    if start.size:
        waits = start - arrival
        acc.total_wait += float(waits.sum())
        w = float(waits.max())
        if w > acc.max_wait:
            acc.max_wait = w
        acc.bank_served += np.bincount(bank, minlength=s.n_banks)
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
    return finish


def _settle(s: _Setup, acc: Acc, proj: _Proj) -> Optional[np.ndarray]:
    """Commit one row's projection if its stall certificate holds
    (vacuously, on unbounded machines); otherwise commit nothing and
    return the banks it found full."""
    full = _full_banks(s, proj)
    if full is None:
        _commit(s, acc, proj)
    return full


def _fold_rows(
    setups: Sequence[_Setup],
) -> List[Tuple[Acc, Optional[np.ndarray]]]:
    """Project every row, stacking rows with one survivor count into one
    kernel call, and commit each row whose certificate holds.

    Returns each row's accumulator with the banks its certificate found
    full (``None``: committed whole; empty rows commit nothing).  Rows
    that failed go on through :func:`_fall_back`."""
    accs = [_new_acc(s) for s in setups]
    full: List[Optional[np.ndarray]] = [None] * len(setups)
    works: Dict[int, _Work] = {}
    groups: Dict[int, List[int]] = {}
    for r, s in enumerate(setups):
        if s.n:
            assert s.batch is not None and s.banks is not None
            works[r] = _survivors(s.batch.issue, s.banks,
                                  s.batch.addresses, s.survives)
            # Combining absorption and ragged grids just form more
            # (possibly singleton) groups.
            groups.setdefault(s.n_survivors, []).append(r)
    for members in groups.values():
        projs = _project([setups[r] for r in members],
                         [works[r] for r in members])
        for r, proj in zip(members, projs):
            full[r] = _settle(setups[r], accs[r], proj)
    return list(zip(accs, full))


def _rebuild(s: _Setup, order: np.ndarray, fed: np.ndarray,
             log: List[Tuple[int, int, int]]) -> np.ndarray:
    """Every request's issue cycle in a reduced run: its scheduled cycle
    plus its processor's stalls up to and including it.

    ``order`` lists the requests processor by processor, each in request
    order; ``fed`` marks the requests the world stepped, and ``log``
    holds its blocked issues as ``(processor, rows left, stall)``."""
    assert s.batch is not None
    issue = s.batch.issue
    if not log:
        return issue
    proc, left, stall = np.asarray(log, dtype=np.int64).T
    # The world holds each processor's fed requests in request order,
    # so the logged one is ``left + 1`` from the end of its processor's.
    fed_order = order[fed[order]]
    ends = np.cumsum(np.bincount(s.batch.proc[fed], minlength=s.p))
    delay = np.zeros(s.n, dtype=np.float64)
    delay[fed_order[ends[proc] - 1 - left]] = stall
    # Each processor's running sum of its delays, in request order.
    counts = np.bincount(s.batch.proc, minlength=s.p)
    shift = np.cumsum(delay[order])
    before = np.r_[0.0, shift][np.cumsum(counts) - counts]
    shift -= np.repeat(before, counts)
    out = np.empty(s.n, dtype=np.float64)
    out[order] = issue[order] + shift
    return out


def _fall_back(s: _Setup, banks: np.ndarray) -> Acc:
    """Finish a row whose certificate found ``banks`` full by reduced
    runs (the module docstring's step 3) and return its accumulator."""
    assert s.batch is not None and s.banks is not None
    batch, alive = s.batch, s.survives
    order = np.argsort(batch.proc, kind="stable")
    stepped = np.zeros(s.n_banks, dtype=bool)
    stepped[banks] = True
    while True:
        fed = stepped[s.banks] if alive is None \
            else stepped[s.banks] & alive
        acc = _new_acc(s)
        log: List[Tuple[int, int, int]] = []
        world = _world(s, np.flatnonzero(fed))
        if not world.run(acc, s.max_cycles, horizon=s.max_cycles + 1,
                         log=log):
            break
        issue = _rebuild(s, order, fed, log)
        rest = np.flatnonzero(~fed)
        # Engine issue order: cycle, then processor id.
        rest = rest[np.argsort(
            issue[rest].astype(np.int64) * s.p + batch.proc[rest],
            kind="stable")]
        (proj,) = _project((s,), (_survivors(
            issue[rest], s.banks[rest], batch.addresses[rest],
            None if alive is None else alive[rest]),))
        if _last_event(proj) > s.max_cycles:
            break
        full = _full_banks(s, proj)
        if full is None:
            _commit(s, acc, proj)
            return acc
        stepped[full] = True
    # A run past max_cycles: the full world raises tick's diagnostic,
    # or finishes the row if only a reduced run ran away.
    acc = _new_acc(s)
    _world(s).run(acc, s.max_cycles)
    return acc


def run_batch(machine: MachineConfig, s: _Setup, engine: str) -> SimResult:
    """Engine body invoked by :func:`~repro.simulator.cycle.
    simulate_scatter_cycle` with ``engine="event"`` or ``"batch"``: the
    one-row call of the grid's project -> certify -> fall back loop.
    ``engine`` only names the result for the sanitizer."""
    ((acc, full),) = _fold_rows((s,))
    if full is not None:
        acc = _fall_back(s, full)
    return _finish(machine, s, engine, acc)
