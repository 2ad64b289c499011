"""Fast vectorized memory-bank simulator (the "measured" side of the
paper's predicted-vs-measured plots).

Mechanism simulated
-------------------
Each of the ``p`` processors issues its requests at a fixed rate (one per
``g`` cycles — vector pipelining hides latency, so issue never waits for
completions).  A request to bank ``b`` arrives ``latency`` cycles later and
joins ``b``'s FIFO queue.  A bank *starts* at most one request every ``d``
cycles (the bank delay).  With unbounded queues the start times within one
bank obey the recurrence::

    start[i] = max(arrival[i], start[i-1] + d)

An optional network stage (machine ``n_sections`` / ``section_gap``) puts a
rate-limited link in front of each contiguous group of banks; requests
queue at the link first, then at the bank.  This reproduces the paper's
network worst case (versions (a)/(b)/(c)) where a pattern confined to one
section runs up to ~2.5x over the bank-only prediction.

The arithmetic is the batch engine's projector
(:mod:`repro.simulator.cycle_batch`), which solves the recurrence for
all banks at once with a segmented cumulative maximum.  banksim runs it
with real-valued machine times, the section links, and no stall
certificate: its queues are unbounded by definition, so every
projection is the run.  The bounded-queue, stalling variant is
:mod:`repro.simulator.cycle`, which agrees with this module exactly when
queues are unbounded.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from numpy.typing import ArrayLike

from ..core.contention import BankMap
from ..errors import PatternError
from .cycle import _bank_ids, _finish, _load, _new_acc, _Setup
from .cycle_batch import _commit, _project, _survivors
from .machine import MachineConfig, require_machine
from .request import Assignment, RequestBatch
from .sanitize import sanitize_enabled
from .stats import SimResult, SimTelemetry

__all__ = [
    "simulate_batch",
    "simulate_scatter",
    "simulate_gather",
    "simulate_scatter_blocked",
]


def _run(machine: MachineConfig, batch: RequestBatch, banks: np.ndarray,
         telemetry: bool, sanitize: bool) -> SimResult:
    """Project and commit one superstep whose bank ids are valid, with
    real-valued times, the section-link stage when the machine has one,
    and unbounded queues: no stall certificate, no runaway ceiling
    (``queue_capacity`` is ignored)."""
    link = machine.n_sections > 1 and machine.section_gap > 0
    s = _Setup(
        p=machine.p, n_banks=machine.n_banks, g=machine.g, d=machine.d,
        latency=machine.latency, L=machine.L,
        hit_delay=machine.cache_hit_delay, capacity=None,
        section_gap=machine.section_gap if link else 0.0,
        section_banks=machine.banks_per_section if link else 1,
        max_cycles=math.inf, telemetry=telemetry, sanitize=sanitize,
    )
    acc = _new_acc(s)
    if batch.n:
        _load(s, batch, banks, machine.combining)
        (proj,) = _project((s,), (_survivors(batch.issue, banks,
                                             batch.addresses, s.survives),))
        _commit(s, acc, proj)
    return _finish(machine, s, "banksim", acc)


def simulate_batch(
    machine: MachineConfig,
    batch: RequestBatch,
    banks: np.ndarray,
    telemetry: bool = False,
    sanitize: Optional[bool] = None,
) -> SimResult:
    """Simulate one batch of requests whose bank assignment is already
    resolved.

    Applies (in order): combining (if the machine combines same-location
    requests in the network), the optional section-link stage, the bank
    stage (with the bank-cache extension when configured), and folds the
    machine's ``L`` into the completion time.  ``queue_capacity`` is
    ignored: queues are unbounded.

    With ``telemetry=True`` the result carries a :class:`SimTelemetry`
    (per-bank busy cycles, queue high-water marks, stall breakdown);
    under combining the counters cover the requests that survive to the
    memory side.

    With ``sanitize=True`` (``None`` defers to :func:`repro.simulator.
    sanitize.sanitize_enabled`) the conservation invariants of
    :func:`~repro.simulator.sanitize.check_superstep` are asserted on
    the result; the check only reads, so the returned result is
    bit-identical either way.
    """
    require_machine(machine, "simulate_batch")
    banks = np.asarray(banks)
    if batch.n:
        if banks.shape != batch.addresses.shape:
            raise PatternError("banks must align with batch addresses")
        if banks.min() < 0 or banks.max() >= machine.n_banks:
            raise PatternError("bank ids outside [0, n_banks)")
    return _run(machine, batch, banks, telemetry, sanitize_enabled(sanitize))


def simulate_scatter(
    machine: MachineConfig,
    addresses: ArrayLike,
    bank_map: Optional[BankMap] = None,
    assignment: Assignment = "round_robin",
    telemetry: bool = False,
    sanitize: Optional[bool] = None,
) -> SimResult:
    """Simulate one scatter (or gather — the model costs them identically)
    of ``addresses`` on ``machine``.

    Parameters
    ----------
    machine:
        Hardware description (see :class:`MachineConfig`).
    addresses:
        int64 memory locations, one per element scattered.
    bank_map:
        Memory-to-bank mapping; defaults to the Cray's low-order
        interleaving ``addr mod n_banks``.
    assignment:
        How elements are dealt over processors (``"round_robin"`` default).
    telemetry:
        Collect :class:`SimTelemetry` counters (off by default; the hot
        path pays nothing for the option).
    sanitize:
        Assert the per-superstep conservation invariants (see
        :mod:`repro.simulator.sanitize`); ``None`` defers to the
        process-wide default / ``REPRO_SANITIZE``.  Read-only: results
        are bit-identical with it on or off.
    """
    require_machine(machine, "simulate_scatter")
    batch = RequestBatch.from_addresses(addresses, machine, assignment)
    banks = _bank_ids(bank_map, batch.addresses, machine.n_banks)
    return _run(machine, batch, banks, telemetry, sanitize_enabled(sanitize))


def simulate_gather(
    machine: MachineConfig,
    addresses: ArrayLike,
    bank_map: Optional[BankMap] = None,
    assignment: Assignment = "round_robin",
    telemetry: bool = False,
    sanitize: Optional[bool] = None,
) -> SimResult:
    """Simulate one gather of ``addresses``.

    The bank mechanism is direction-symmetric — a read request occupies
    its bank for ``d`` cycles exactly like a write — and the paper
    confirms this empirically ("experiments with the gather operation
    give almost identical results"), so this is :func:`simulate_scatter`
    under the read-side name.
    """
    require_machine(machine, "simulate_gather")
    return simulate_scatter(machine, addresses, bank_map, assignment,
                            telemetry=telemetry, sanitize=sanitize)


def simulate_scatter_blocked(
    machine: MachineConfig,
    addresses: ArrayLike,
    superstep_size: int,
    bank_map: Optional[BankMap] = None,
    assignment: Assignment = "round_robin",
    telemetry: bool = False,
    sanitize: Optional[bool] = None,
) -> SimResult:
    """Simulate a long scatter executed in supersteps of at most
    ``superstep_size`` elements, with a barrier (and the machine's ``L``)
    between them — the paper's experimental regime (S = 64K per
    superstep, L negligible).

    Returns one aggregate :class:`SimResult` whose ``time`` is the sum of
    the superstep times and whose per-bank loads cover the whole scatter.
    """
    from .._util import as_addresses
    from ..errors import ParameterError

    require_machine(machine, "simulate_scatter_blocked")
    if superstep_size < 1:
        raise ParameterError(
            f"superstep_size must be >= 1, got {superstep_size}"
        )
    addr = as_addresses(addresses)
    if addr.size == 0:
        return simulate_scatter(machine, addr, bank_map, assignment,
                                telemetry=telemetry, sanitize=sanitize)
    total_time = 0.0
    loads = np.zeros(machine.n_banks, dtype=np.int64)
    max_wait = 0.0
    wait_weighted = 0.0
    tel: Optional[SimTelemetry] = None
    for lo in range(0, addr.size, superstep_size):
        chunk = addr[lo:lo + superstep_size]
        # Sanitize applies per superstep: each chunk is one superstep,
        # so the invariants are checked where they are defined.
        res = simulate_scatter(machine, chunk, bank_map, assignment,
                               telemetry=telemetry, sanitize=sanitize)
        total_time += res.time
        loads += res.bank_loads
        max_wait = max(max_wait, res.max_wait)
        wait_weighted += res.mean_wait * res.n
        step = res.telemetry
        if tel is None:
            tel = step
        elif step is not None:
            # Busy cycles, waits and stalls add across supersteps; the
            # high-water mark is a max (queues drain at each barrier).
            tel = SimTelemetry(
                bank_busy=tel.bank_busy + step.bank_busy,
                queue_high_water=np.maximum(
                    tel.queue_high_water, step.queue_high_water
                ),
                stall_breakdown={
                    k: tel.stall_breakdown[k] + v
                    for k, v in step.stall_breakdown.items()
                },
                proc_stalls=tel.proc_stalls + step.proc_stalls,
                makespan=tel.makespan + step.makespan,
            )
    return SimResult(
        time=total_time,
        n=int(addr.size),
        bank_loads=loads,
        max_wait=max_wait,
        mean_wait=wait_weighted / addr.size,
        stalled_cycles=0.0,
        machine_name=machine.name,
        telemetry=tel,
    )
