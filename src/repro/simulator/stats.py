"""Simulation results and derived statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

__all__ = ["SimResult", "SimTelemetry"]


@dataclass(frozen=True)
class SimTelemetry:
    """Opt-in per-bank counters explaining *where* a pattern's time went.

    Collected only when a simulator entry point is called with
    ``telemetry=True`` (the default leaves :attr:`SimResult.telemetry`
    as ``None`` and costs nothing on the hot path).  Both cycle engines
    and the vectorized bank simulator produce identical telemetry for
    the same unbounded-queue workload: they all fold the same
    accumulator.

    Attributes
    ----------
    bank_busy:
        float64 array: cycles each bank spent servicing requests
        (``d`` per request, or the hit cost under the bank-cache
        extension).
    queue_high_water:
        int64 array: maximum number of requests simultaneously waiting
        in each bank's queue, measured just after arrivals are enqueued
        (a request that starts service the cycle it arrives counts).
    stall_breakdown:
        Cycles lost per cause: ``bank_wait`` (total request-cycles spent
        queued at banks), ``link_wait`` (queued at section links; only
        nonzero on sectioned machines) and ``issue_backpressure``
        (processor issue stalls; only nonzero under bounded queues).
    proc_stalls:
        int64 array: issue stalls accrued by each processor (all zeros
        for the unbounded model, whose issue never stalls).
    makespan:
        Cycle at which the last request finished service (excludes the
        superstep overhead ``L``); the denominator for utilization.
    """

    bank_busy: np.ndarray
    queue_high_water: np.ndarray
    stall_breakdown: Dict[str, float]
    proc_stalls: Optional[np.ndarray] = None
    makespan: float = 0.0

    @property
    def bank_utilization(self) -> np.ndarray:
        """Fraction of the makespan each bank spent busy."""
        if self.makespan <= 0:
            return np.zeros_like(self.bank_busy)
        return self.bank_busy / self.makespan

    @property
    def max_queue_depth(self) -> int:
        """Deepest any bank queue ever got."""
        if self.queue_high_water.size == 0:
            return 0
        return int(self.queue_high_water.max())

    @property
    def total_stalled(self) -> float:
        """Sum of all stall-breakdown buckets."""
        return float(sum(self.stall_breakdown.values()))


@dataclass(frozen=True)
class SimResult:
    """Outcome of simulating one superstep of memory requests.

    Attributes
    ----------
    time:
        Completion time in cycles: the cycle at which the last request
        finishes service, plus the machine's superstep overhead ``L``.
    n:
        Number of requests simulated.
    bank_loads:
        int64 array: requests serviced by each bank.
    max_wait:
        Longest time any request spent queued (start - arrival), cycles.
    mean_wait:
        Total bank queueing time divided by ``n``, cycles: under
        combining, absorbed requests count with zero wait.
    stalled_cycles:
        Total processor stall cycles (only nonzero for the bounded-queue
        cycle simulator; the unbounded model never stalls issue).
    machine_name:
        Name of the machine config that produced this result.
    telemetry:
        Detailed :class:`SimTelemetry` counters, present only when the
        simulation was run with ``telemetry=True``.
    """

    time: float
    n: int
    bank_loads: np.ndarray
    max_wait: float = 0.0
    mean_wait: float = 0.0
    stalled_cycles: float = 0.0
    machine_name: str = ""
    telemetry: Optional[SimTelemetry] = None

    @property
    def max_bank_load(self) -> int:
        """``h_b`` realized by the simulated pattern."""
        return int(self.bank_loads.max()) if self.bank_loads.size else 0

    @property
    def throughput(self) -> float:
        """Requests completed per cycle (0 for an empty batch)."""
        return self.n / self.time if self.time > 0 else 0.0

    @property
    def bank_utilization(self) -> float:
        """Mean fraction of banks' time spent busy, assuming each request
        occupies its bank for the machine's ``d`` cycles is not known here;
        this reports load balance instead: mean load / max load (1.0 =
        perfectly balanced, -> 0 = one bank hot)."""
        if self.bank_loads.size == 0 or self.max_bank_load == 0:
            return 1.0
        return float(self.bank_loads.mean() / self.max_bank_load)

    def slowdown_vs(self, predicted: float) -> float:
        """Measured / predicted time ratio (1.0 = model exact)."""
        if predicted <= 0:
            return float("inf") if self.time > 0 else 1.0
        return self.time / predicted
