"""Streaming simulation of unbounded address traces.

Every other entry point in :mod:`repro.simulator` needs the whole
address vector in memory at once.  This module simulates the same
machine over a *stream* of address blocks under a hard memory bound,
bit-identical on every prefix to the one-shot engines — the
bulk-synchronous *pseudo-streaming* recipe of arXiv 1608.07200 applied
to the (d,x)-BSP bank model.

How a chunk resumes where the last one stopped
----------------------------------------------

Round-robin dealing gives request ``i`` to processor ``i % p`` with
scheduled issue cycle ``(i // p) * g``, so arrivals are nondecreasing in
global order and each bank serves its requests in exactly that order.
All the state one chunk hands the next is therefore tiny and per-bank:

* ``init_free`` — the cycle each bank becomes free (the FIFO floor the
  segmented-cummax kernel seeds its recurrence with), and
* ``init_addr`` — each bank's row-buffer address under the bank-cache
  extension (``-1`` = cold).

Every chunk projects through the batch engine's own projector and
``_commit`` (:mod:`repro.simulator.cycle_batch`) carrying those seeds —
a one-shot run is a one-chunk stream — and commits when the stall
certificate holds.  It holds *vacuously* when ``queue_capacity is
None``.  On bounded queues it checks the chunk's issues against the
chunk's projection plus the *pending* requests: committed requests whose
service starts at or past the last *horizon* ``(n_fed // p) * g`` (the
scheduled issue cycle of the first request not yet fed).  Earlier
requests started before any of the chunk's issues, so they cancel out
of every queue depth it sees.  Bounded machines keep the pending set as
``(arrival, start, cost, bank, address)``; telemetry keeps it too, for
the queue high-water sweep of events that straddle the seam.

The first chunk whose certificate fails is not committed: the session
moves into the one event world of :mod:`repro.simulator.world` (the
projector's own fallback stepper), seeded from the carry at the last
horizon instead of replayed from cycle 0 (:meth:`EventWorld.seed`), and
stays there.  The world stops at each new horizon (any cycle before it
can only involve fed requests, so processing it early is safe and
exact).  Prefix results for a paused world come from draining a clone,
never the live world.

Memory bound
------------

With telemetry off on an unbounded machine the simulator holds O(chunk
+ n_banks) memory regardless of trace length: the per-bank seeds, the
rolling accumulators, and one chunk of addresses.  Telemetry and
bounded queues add the pending set, and a stalled session the event
world's outstanding requests — both grow only with genuine backlog
(never beyond what the one-shot engine would hold).

Restrictions
------------

Streaming refuses what cannot be chunked exactly: combining (duplicate
groups would split across chunk boundaries), ``block`` assignment (it
needs the total trace length up front), sectioned machines and
non-integer machine times (both inherited from the cycle simulator).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from .._util import as_addresses
from ..core.contention import BankMap
from ..errors import ParameterError, SimulationError
from .cycle import _bank_ids, _finish, _machine_setup, _max_cycles, _new_acc
from .cycle_batch import _NONE, _commit, _full_banks, _Proj, _project, _Work
from .machine import MachineConfig, require_machine
from .request import Assignment
from .sanitize import sanitize_enabled
from .stats import SimResult
from .world import EventWorld, Issued

__all__ = [
    "DEFAULT_CHUNK",
    "StreamUpdate",
    "StreamSimulator",
    "simulate_scatter_stream",
    "stream_checkpoint",
]

#: Default number of addresses consumed per internal chunk (the memory
#: budget knob: peak working-set scales with this, not the trace).
DEFAULT_CHUNK = 65536

#: The rolling prefix digest hashes fixed-size address blocks so it is
#: invariant to how the trace was chunked (8192 int64 addresses).
_DIGEST_BLOCK_BYTES = 8192 * 8

_DIGEST_SEED = hashlib.sha256(b"repro-stream-prefix-v1").digest()

_NO_PENDING = Issued(_NONE, _NONE, _NONE, np.zeros(0, dtype=np.int64),
                     np.zeros(0, dtype=np.int64))


@dataclass(frozen=True)
class StreamUpdate:
    """Incremental result yielded after each fed block.

    Attributes
    ----------
    chunk_index:
        0-based index of the block that produced this update.
    chunk_n:
        Addresses in that block (0 for an empty feed).
    n:
        Total addresses consumed so far.
    result:
        Full :class:`~repro.simulator.stats.SimResult` for the prefix —
        bit-identical to running a one-shot engine on the first ``n``
        addresses.
    delta_time:
        Rolling completion-time increase contributed by this block.
    delta_wait:
        Bank-wait cycles added by this block (exact integer, not the
        rounded ``mean_wait * n`` difference).
    conserved:
        ``True``: the per-prefix conservation invariant (every consumed
        request served by exactly one bank) was checked and held.  A
        violation raises instead of yielding.
    """

    chunk_index: int
    chunk_n: int
    n: int
    result: SimResult
    delta_time: float
    delta_wait: int
    conserved: bool


class StreamSimulator:
    """Incrementally simulate one scatter over a stream of address blocks.

    Feed address blocks of any size with :meth:`feed`; each feed returns
    a :class:`StreamUpdate` whose ``result`` is bit-identical to running
    a one-shot engine over every address consumed so far.  Blocks larger
    than ``max_chunk`` are consumed in ``max_chunk`` pieces, so peak
    working-set memory is bounded by ``max_chunk`` regardless of block
    or trace size.

    Parameters
    ----------
    machine:
        Machine to simulate.  Sections, combining and non-integer times
        are refused (see the module docstring).
    bank_map:
        Optional address -> bank mapping.  Must be stateless and
        elementwise (it is applied per chunk); ``None`` uses the default
        ``address % n_banks`` interleave.
    assignment:
        Only ``"round_robin"`` streams: ``"block"`` assignment needs the
        total trace length up front.
    telemetry:
        Collect :class:`~repro.simulator.stats.SimTelemetry` counters on
        every prefix result.
    sanitize:
        Check the conservation invariants of
        :mod:`repro.simulator.sanitize` on every prefix result (``None``
        defers to the process default / ``REPRO_SANITIZE``).
    max_chunk:
        Memory budget, in addresses, for one internal chunk.
    """

    def __init__(
        self,
        machine: MachineConfig,
        bank_map: Optional[BankMap] = None,
        assignment: Assignment = "round_robin",
        telemetry: bool = False,
        sanitize: Optional[bool] = None,
        max_chunk: int = DEFAULT_CHUNK,
    ) -> None:
        require_machine(machine, "StreamSimulator")
        s = _machine_setup(machine, bool(telemetry),
                           sanitize_enabled(sanitize))
        if machine.combining:
            raise ParameterError(
                "the streaming simulator does not support combining: "
                "duplicate groups would split across chunk boundaries"
            )
        if assignment != "round_robin":
            raise ParameterError(
                "streaming requires assignment='round_robin': block "
                "assignment needs the total trace length up front"
            )
        if max_chunk < 1:
            raise ParameterError(
                f"max_chunk must be >= 1, got {max_chunk!r}"
            )
        self._machine = machine
        self._bank_map = bank_map
        self._max_chunk = int(max_chunk)
        # The one-shot engines' setup for the prefix consumed so far
        # (without its request arrays): see _grow.
        self._s = s
        self._acc = _new_acc(s)
        self._chunk_index = 0
        self._last_time = float(s.L)
        self._last_wait = 0
        # Per-bank carry state for the projection path.
        self._floors = np.zeros(s.n_banks, dtype=np.float64)
        self._last_addr: Optional[np.ndarray] = (
            np.full(s.n_banks, -1, dtype=np.int64)
            if s.hit_delay is not None else None
        )
        # Pending requests: committed, with service starting at or past
        # the last horizon, so they may still share a queue with a
        # future chunk's requests.  Bounded machines keep them for the
        # stall certificate and the seeded world, telemetry for the
        # queue high-water sweep; other machines keep none.
        self._keep_pending = (s.capacity is not None
                              or self._acc.q_high is not None)
        self._pend = _NO_PENDING
        # Every chunk projects from the carry until one fails its stall
        # certificate; the session then moves into an exact pausable
        # event world seeded from the carry and stays there.
        self._world: Optional[EventWorld] = None
        self._digest_chain = _DIGEST_SEED
        self._digest_tail = b""

    @property
    def n(self) -> int:
        """Total addresses consumed so far."""
        return self._s.n

    @property
    def machine(self) -> MachineConfig:
        """The machine being simulated."""
        return self._machine

    @property
    def prefix_digest(self) -> str:
        """Chunking-invariant SHA-256 over every address consumed.

        Two simulators that consumed the same address sequence report
        the same digest no matter how the sequence was split into
        feeds; used as the checkpoint identity."""
        return hashlib.sha256(
            self._digest_chain + self._digest_tail
        ).hexdigest()

    def feed(self, addresses: ArrayLike) -> StreamUpdate:
        """Consume one block of addresses and return the prefix update.

        The block is consumed in ``max_chunk`` pieces; the returned
        :class:`StreamUpdate` carries the full prefix result plus the
        deltas this block contributed.  An empty block is legal and
        returns the unchanged prefix."""
        addr = as_addresses(addresses)
        chunk_n = int(addr.size)
        lo = 0
        while lo < chunk_n:
            self._consume(addr[lo:lo + self._max_chunk])
            lo += self._max_chunk
        self._absorb_digest(addr)
        result, total_wait = self._prefix()
        n = self._s.n
        if result.n != n or int(result.bank_loads.sum()) != n:
            raise SimulationError(
                f"stream conservation violated: consumed {n} "
                f"requests but the prefix result accounts for "
                f"{int(result.bank_loads.sum())} (n={result.n})"
            )
        update = StreamUpdate(
            chunk_index=self._chunk_index,
            chunk_n=chunk_n,
            n=n,
            result=result,
            delta_time=result.time - self._last_time,
            delta_wait=total_wait - self._last_wait,
            conserved=True,
        )
        self._chunk_index += 1
        self._last_time = result.time
        self._last_wait = total_wait
        return update

    def result(self) -> SimResult:
        """One-shot-identical :class:`SimResult` for the current prefix."""
        return self._prefix()[0]

    # -- chunk consumption -------------------------------------------------

    def _grow(self, n: int) -> None:
        """Make the setup describe the ``n``-request prefix, as the
        one-shot engines' setup would (count, runaway ceiling, h_p)."""
        s = self._s
        s.n = s.n_survivors = n
        s.max_cycles = _max_cycles(s, n)
        s.h_p = -(-n // s.p)

    def _consume(self, chunk: np.ndarray) -> None:
        """Fold one <= max_chunk piece into the rolling simulation."""
        s = self._s
        banks = _bank_ids(self._bank_map, chunk, s.n_banks)
        n_prev = s.n
        idx = np.arange(n_prev, n_prev + chunk.size, dtype=np.int64)
        self._grow(n_prev + int(chunk.size))
        if self._world is None:
            issue = (idx // s.p).astype(np.float64) * float(s.g)
            (proj,) = _project((s,), (_Work(issue, banks, chunk, _NONE),),
                               self._floors, self._last_addr)
            if _full_banks(s, proj, self._pend) is None:
                # Certified (vacuously on unbounded queues): the seeded
                # projection is the exact run.
                self._commit_chunk(proj, chunk)
                return
            self._world = self._seed_world(n_prev)
        # Exact event world up to the horizon: the scheduled issue cycle
        # of the first unfed request.
        self._world.feed(idx % s.p, banks, chunk)
        self._world.run(self._acc, s.max_cycles,
                        horizon=(s.n // s.p) * s.g)

    def _commit_chunk(self, proj: _Proj, chunk: np.ndarray) -> None:
        """Commit one certified chunk projection and carry the seeds (and
        the pending requests) on."""
        s = self._s
        events: Optional[Issued] = None
        if self._keep_pending:
            # Queue depths can straddle chunk seams, so the high-water
            # sweep takes the union of this chunk with the pending set.
            cost = proj.cost if proj.cost is not None \
                else np.full(chunk.size, float(s.d))
            events = Issued(*(
                np.concatenate(pair) for pair in zip(
                    self._pend,
                    (proj.arrival, proj.start, cost, proj.bank, chunk))
            ))
        finish = _commit(s, self._acc, proj, None if events is None
                         else (events.arrival, events.start, events.bank))
        if events is not None:
            # Requests that start before the new horizon cancel out of
            # every later depth and can never be part of a later maximum.
            keep = events.start >= float((s.n // s.p) * s.g)
            self._pend = Issued(*(a[keep] for a in events))
        # Carry state: per-bank FIFO order equals array order here, and
        # finishes are nondecreasing per bank, so fancy assignment's
        # last-occurrence-wins leaves each touched bank's free-at floor
        # (and row buffer) at its final served request.
        self._floors[proj.bank] = finish
        if self._last_addr is not None:
            self._last_addr[proj.bank] = chunk

    def _new_world(self) -> EventWorld:
        s = self._s
        return EventWorld(s.p, s.n_banks, s.g, s.d, s.latency, s.hit_delay,
                          s.capacity)

    def _seed_world(self, n_prev: int) -> EventWorld:
        """The event world paused at the last horizon, where the first
        ``n_prev`` requests were committed stall-free: pending requests
        go back into it and out of the accumulator."""
        s = self._s
        world = self._new_world()
        self._acc.withdraw(self._pend)
        world.seed((n_prev // s.p) * s.g, n_prev,
                   [-(-(n_prev - q) // s.p) * s.g for q in range(s.p)],
                   self._floors, self._last_addr, self._pend)
        self._pend = _NO_PENDING
        return world

    # -- prefix results ----------------------------------------------------

    def _prefix(self) -> Tuple[SimResult, int]:
        """Prefix result plus the exact integer total bank wait."""
        s, acc = self._s, self._acc
        if self._world is not None and acc.completed < s.n:
            # Requests are still in flight behind the horizon: drain a
            # clone to completion (exactly the one-shot suffix for the
            # fed prefix).  The live world never runs past the horizon.
            acc = acc.clone()
            self._world.clone().run(acc, s.max_cycles)
        return _finish(self._machine, s, "stream", acc), int(acc.total_wait)

    # -- rolling digest ----------------------------------------------------

    def _absorb_digest(self, addr: np.ndarray) -> None:
        data = self._digest_tail + addr.tobytes()
        chain = self._digest_chain
        nblk = len(data) // _DIGEST_BLOCK_BYTES
        for i in range(nblk):
            block = data[i * _DIGEST_BLOCK_BYTES:(i + 1) * _DIGEST_BLOCK_BYTES]
            chain = hashlib.sha256(chain + block).digest()
        self._digest_chain = chain
        self._digest_tail = data[nblk * _DIGEST_BLOCK_BYTES:]

    # -- checkpointing -----------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """Complete resumable state as plain picklable structures."""
        return {
            "version": 5,
            "queue_capacity": self._s.capacity,
            "n": self._s.n,
            "chunk_index": self._chunk_index,
            "last_time": self._last_time,
            "last_wait": self._last_wait,
            "digest_chain": self._digest_chain,
            "digest_tail": self._digest_tail,
            "acc": self._acc.state(),
            "floors": self._floors.copy(),
            "last_addr": (
                None if self._last_addr is None else self._last_addr.copy()
            ),
            "pend": tuple(a.copy() for a in self._pend),
            "world": None if self._world is None else self._world.state(),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state` output into this *fresh* simulator.

        The simulator must have consumed nothing yet and must have been
        constructed with the same machine/telemetry configuration the
        checkpoint was taken under."""
        if state.get("version") != 5:
            raise ParameterError(
                f"unsupported stream checkpoint version "
                f"{state.get('version')!r}"
            )
        if self._s.n != 0:
            raise ParameterError(
                "load_state requires a fresh StreamSimulator (it has "
                f"already consumed {self._s.n} addresses)"
            )
        acc_state = state["acc"]
        if state["queue_capacity"] != self._s.capacity \
                or (state["last_addr"] is None) != (self._last_addr is None) \
                or (acc_state["busy"] is None) != (self._acc.busy is None):
            raise ParameterError(
                "stream checkpoint was taken under a different "
                "machine/telemetry configuration"
            )
        self._grow(int(state["n"]))
        self._chunk_index = int(state["chunk_index"])
        self._last_time = float(state["last_time"])
        self._last_wait = int(state["last_wait"])
        self._digest_chain = bytes(state["digest_chain"])
        self._digest_tail = bytes(state["digest_tail"])
        self._acc.load_state(acc_state)
        self._floors = state["floors"].copy()
        if state["last_addr"] is not None:
            self._last_addr = state["last_addr"].copy()
        self._pend = Issued(*(a.copy() for a in state["pend"]))
        if state["world"] is not None:
            self._world = self._new_world()
            self._world.load_state(state["world"])

    def _checkpoint_kwargs(
        self, prefix_digest: str, n: int
    ) -> Dict[str, Any]:
        return {
            "machine": self._machine,
            "bank_map": self._bank_map,
            "assignment": "round_robin",
            "telemetry": self._s.telemetry,
            "sanitize_counters": self._acc.busy is not None,
            "prefix_digest": prefix_digest,
            "n": n,
        }

    def save_checkpoint(self) -> Optional[str]:
        """Persist the current state under the experiment runner's memo.

        Keyed by :func:`stream_checkpoint` with the prefix digest, so a
        later session streaming the same trace prefix (under the same
        machine/telemetry configuration) can resume instead of
        recomputing.  Returns the prefix digest, or ``None`` when the
        runner cache is disabled."""
        from ..experiments import runner

        digest = self.prefix_digest
        kwargs = self._checkpoint_kwargs(digest, self._s.n)
        if runner.cache_store(stream_checkpoint, kwargs, self.state()):
            return digest
        return None

    def resume_from_checkpoint(self, prefix_digest: str, n: int) -> bool:
        """Restore a :meth:`save_checkpoint` state into this fresh
        simulator; returns whether the memo held one for that prefix."""
        from ..experiments import runner

        hit, state = runner.cache_fetch(
            stream_checkpoint, self._checkpoint_kwargs(prefix_digest, n)
        )
        if not hit:
            return False
        self.load_state(state)
        return True


def stream_checkpoint(
    machine: MachineConfig,
    bank_map: Optional[BankMap],
    assignment: Assignment,
    telemetry: bool,
    sanitize_counters: bool,
    prefix_digest: str,
    n: int,
) -> Dict[str, Any]:
    """Cache-key carrier for streamed-prefix checkpoints.

    :meth:`StreamSimulator.save_checkpoint` stores simulator state in
    the experiment runner's memo under ``cache_key(stream_checkpoint,
    kwargs)`` — the same keying (code version, canonicalized arguments)
    every memoized experiment uses — so streamed prefixes share the
    runner's cache semantics.  The function itself is never evaluated.
    """
    raise SimulationError(
        "stream_checkpoint is a cache-key carrier and is never called"
    )


def _iter_blocks(
    addresses: Union[ArrayLike, Iterable[ArrayLike]],
    chunk_size: int,
) -> Iterator[np.ndarray]:
    """Normalize a trace (array-like or iterable of blocks) to blocks."""
    if isinstance(addresses, (np.ndarray, list, tuple, range)):
        addr = as_addresses(addresses)
        if addr.size == 0:
            yield addr
            return
        for lo in range(0, int(addr.size), chunk_size):
            yield addr[lo:lo + chunk_size]
        return
    empty = True
    for block in addresses:
        empty = False
        yield as_addresses(block)
    if empty:
        yield np.zeros(0, dtype=np.int64)


def simulate_scatter_stream(
    machine: MachineConfig,
    addresses: Union[ArrayLike, Iterable[ArrayLike]],
    bank_map: Optional[BankMap] = None,
    assignment: Assignment = "round_robin",
    telemetry: bool = False,
    sanitize: Optional[bool] = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> Iterator[StreamUpdate]:
    """Simulate one scatter incrementally, yielding per-chunk updates.

    ``addresses`` may be an address array (consumed in ``chunk_size``
    pieces) or any iterable of address blocks — including a generator
    over a trace that never fits in memory.  Every yielded
    :class:`StreamUpdate` carries the prefix :class:`SimResult`,
    bit-identical to the one-shot engines on the addresses consumed so
    far; the last update is the whole-trace result.  At least one
    update is always yielded (an empty trace yields the empty result).

    This is a generator: argument validation happens on the first
    ``next()``, not at call time.  See :class:`StreamSimulator` for the
    restrictions (no combining, no sections, round-robin only) and the
    memory bound.
    """
    sim = StreamSimulator(
        machine, bank_map, assignment=assignment, telemetry=telemetry,
        sanitize=sanitize, max_chunk=chunk_size,
    )
    for block in _iter_blocks(addresses, chunk_size):
        yield sim.feed(block)
