"""Multistage (Omega/butterfly) network model — the [ST91]-style
refinement.

The paper's section-link model explains its version-(c) anomaly, but a
real vector-supercomputer network is multistage, and multistage networks
have a subtler failure mode: *internal* link congestion on patterns whose
destinations are perfectly spread (the classic bit-reversal worst case).
This module simulates destination-tag routing through ``lg B`` stages of
2x2 switches in front of the banks, so that effect is reproducible too.

Routing: an Omega network on ``N = n_banks`` ports shuffles between
stages; a request entering at port ``i`` for bank ``b`` occupies, after
stage ``s``, the port whose high bits are ``i``'s remaining low bits and
whose low bits are ``b``'s top ``s+1`` bits::

    port_s(i, b) = ((i << (s+1)) & (N-1)) | (b >> (S-1-s))

Each stage output port is a FIFO link accepting one request per
``link_gap`` cycles; after the last stage the request queues at its bank
as usual.  Every stage reuses the vectorized FIFO solver, so the whole
network is still loop-free Python.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.typing import ArrayLike

from .._util import is_power_of_two
from ..core.contention import BankMap
from ..errors import ParameterError, PatternError
from .cycle_batch import fifo_service_times
from .machine import MachineConfig
from .request import Assignment, RequestBatch
from .stats import SimResult

__all__ = ["omega_ports", "simulate_scatter_butterfly"]


def omega_ports(sources: np.ndarray, banks: np.ndarray, n_banks: int,
                stage: int) -> np.ndarray:
    """Output port occupied after ``stage`` by requests routed
    ``sources -> banks`` under destination-tag routing."""
    if not is_power_of_two(n_banks):
        raise ParameterError(
            f"butterfly needs a power-of-two bank count, got {n_banks}"
        )
    n_stages = int(n_banks).bit_length() - 1
    if not (0 <= stage < max(n_stages, 1)):
        raise ParameterError(f"stage must be in [0, {n_stages}), got {stage}")
    mask = n_banks - 1
    return (((sources << (stage + 1)) & mask)
            | (banks >> (n_stages - 1 - stage)))


def simulate_scatter_butterfly(
    machine: MachineConfig,
    addresses: ArrayLike,
    bank_map: Optional[BankMap] = None,
    assignment: Assignment = "round_robin",
    link_gap: Optional[float] = None,
    switch_latency: float = 1.0,
) -> SimResult:
    """Simulate a scatter through an Omega network and the banks.

    Parameters
    ----------
    machine:
        ``n_banks`` must be a power of two; processors attach to evenly
        spaced network input ports.
    link_gap:
        Cycles per request on each switch output link (defaults to the
        machine's ``g`` — link bandwidth matching processor issue).
    switch_latency:
        Transit cycles added per stage (shifts completion; does not
        change throughput).

    Notes
    -----
    With ``link_gap = 0`` the network is transparent and the result
    matches :func:`~repro.simulator.banksim.simulate_scatter` exactly
    (up to the fixed pipeline latency) — property-tested.
    """
    n_banks = machine.n_banks
    if not is_power_of_two(n_banks):
        raise ParameterError(
            f"butterfly needs a power-of-two bank count, got {n_banks}"
        )
    if machine.p > n_banks:
        raise ParameterError("butterfly assumes p <= n_banks input ports")
    gap = machine.g if link_gap is None else float(link_gap)
    if gap < 0 or switch_latency < 0:
        raise ParameterError("link_gap and switch_latency must be >= 0")

    batch = RequestBatch.from_addresses(addresses, machine, assignment)
    if batch.n == 0:
        return SimResult(
            time=float(machine.L), n=0,
            bank_loads=np.zeros(n_banks, dtype=np.int64),
            machine_name=machine.name,
        )
    if bank_map is None:
        banks = (batch.addresses % n_banks).astype(np.int64)
    else:
        banks = np.asarray(bank_map(batch.addresses, n_banks)).astype(np.int64)
        if banks.min() < 0 or banks.max() >= n_banks:
            raise PatternError("bank ids outside [0, n_banks)")

    # Processors on evenly spaced input ports.
    sources = (batch.proc.astype(np.int64) * (n_banks // machine.p))
    arrival = batch.issue + machine.latency
    n_stages = int(n_banks).bit_length() - 1
    for stage in range(n_stages):
        ports = omega_ports(sources, banks, n_banks, stage)
        if gap > 0:
            start = fifo_service_times(arrival, ports, gap)
            arrival = start + gap + switch_latency
        else:
            arrival = arrival + switch_latency

    start = fifo_service_times(arrival, banks, machine.d)
    finish = start + machine.d
    waits = start - arrival
    return SimResult(
        time=float(finish.max() + machine.L),
        n=batch.n,
        bank_loads=np.bincount(banks, minlength=n_banks).astype(np.int64),
        max_wait=float(waits.max()),
        mean_wait=float(waits.mean()),
        stalled_cycles=0.0,
        machine_name=machine.name,
    )
