"""Grid-fused cycle simulation: many scatters, one vectorized pass.

The batch engine (:mod:`repro.simulator.cycle_batch`) vectorizes *one*
simulation; a parameter sweep still pays one engine invocation — one
kernel call, one Python prologue/epilogue — per grid point.  This module
amortizes that across the whole sweep: compatible points are stacked
into 2-D ``(rows, n)`` arrays and pushed through a *single* call to the
batched segmented-cummax kernels of :mod:`repro.simulator.banksim`
(rows are lifted into disjoint server-id ranges, so one lexsort + one
``np.maximum.accumulate`` solves every point at once).

Exactness is certified exactly like the batch engine, but **scoped per
point**:

1. **Project.** Every row's unbounded start times come from one fused
   kernel call over the stacked grid (per-row ``d`` / ``cache_hit_delay``
   ride along as per-row cost vectors, so the grid may mix machines).
2. **Certify.** Rows on unbounded-queue machines are exact outright.
   For a row with a finite ``queue_capacity`` the batch engine's
   queue-depth stall certificate (:func:`repro.simulator.cycle_batch.
   _first_stall`) runs on that row's slice: if no projected issue sees
   a full queue, the projection *is* that row's bounded run.
3. **Fall back per point.** A row whose certificate fails is re-run
   through ``engine="event"`` on its own — the grid never degrades
   wholesale because one point stalls, and the fallback is the exact
   engine, so every returned result is bit-identical to evaluating its
   point alone with ``engine="batch"`` / ``"event"`` / ``"tick"``
   (property-tested, telemetry included).

Certified rows are committed through the batch engine's own
``Acc``/``_commit``/``_finish`` machinery, so aggregation, runaway
diagnostics and sanitizer coverage are shared verbatim rather than
re-implemented.  A row that exceeds its ``max_cycles`` raises the same
:class:`~repro.errors.SimulationError` the scalar engines would (and
aborts the grid call, as each per-point call would abort its caller).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.contention import BankMap
from ..errors import ParameterError
from .banksim import fifo_service_times, fifo_service_times_cached
from .cycle import _finish, _new_acc, _prepare, _Setup, simulate_scatter_cycle
from .cycle_batch import _commit, _first_stall
from .machine import MachineConfig, require_machine
from .request import Assignment
from .sanitize import sanitize_enabled
from .stats import SimResult

__all__ = ["simulate_scatter_grid"]


def _spread(value: Any, rows: int, name: str) -> List[Any]:
    """Normalize a per-grid parameter: one value broadcasts to every
    row, a list/tuple supplies one value per row."""
    if isinstance(value, (list, tuple)):
        if len(value) != rows:
            raise ParameterError(
                f"{name} must be a single value or one per grid row; "
                f"got {len(value)} values for {rows} rows"
            )
        return list(value)
    return [value] * rows


def _row_fallback(
    machine: MachineConfig,
    addresses: Any,
    bank_map: Optional[BankMap],
    assignment: Assignment,
    max_cycles: Optional[int],
    telemetry: bool,
    sanitize: bool,
) -> SimResult:
    """Evaluate one row alone through the exact event engine (used for
    empty rows and rows whose stall certificate fails)."""
    return simulate_scatter_cycle(
        machine, addresses, bank_map, assignment,
        max_cycles=max_cycles, engine="event",
        telemetry=telemetry, sanitize=sanitize,
    )


def simulate_scatter_grid(
    machine: Union[MachineConfig, Sequence[MachineConfig]],
    addresses: Any,
    bank_map: Union[Optional[BankMap], Sequence[Optional[BankMap]]] = None,
    assignment: Union[Assignment, Sequence[Assignment]] = "round_robin",
    max_cycles: Union[Optional[int], Sequence[Optional[int]]] = None,
    telemetry: bool = False,
    sanitize: Optional[bool] = None,
) -> List[SimResult]:
    """Cycle-accurate simulation of a whole grid of scatters in one
    fused vectorized pass.

    Parameters
    ----------
    machine:
        One :class:`MachineConfig` for every row, or a sequence with
        one machine per row (the grid may mix machines freely — per-row
        ``d``, ``cache_hit_delay``, ``queue_capacity``, ... all ride
        along as per-row kernel costs).
    addresses:
        The grid: a 2-D int array (one pattern per row) or a sequence
        of 1-D address patterns (rows may differ in length).
    bank_map / assignment / max_cycles:
        Single value broadcast to every row, or one value per row.
    telemetry / sanitize:
        As in :func:`~repro.simulator.cycle.simulate_scatter_cycle`;
        applied to every row.

    Returns a list of :class:`SimResult`, one per row in input order,
    each **bit-identical** to simulating that row alone with
    ``engine="batch"`` (equivalently ``"event"`` / ``"tick"``): rows
    whose queue-depth stall certificate holds are committed from the
    fused projection, rows where bounded-queue back-pressure binds fall
    back *individually* to the event engine, and empty rows take the
    engines' shared zero-request path.
    """
    if isinstance(addresses, np.ndarray):
        if addresses.ndim != 2:
            raise ParameterError(
                "simulate_scatter_grid expects a 2-D address grid or a "
                f"sequence of patterns, got a {addresses.ndim}-D array"
            )
        addr_rows: List[Any] = list(addresses)
    elif isinstance(addresses, (list, tuple)):
        addr_rows = list(addresses)
    else:
        raise ParameterError(
            "simulate_scatter_grid expects a 2-D address grid or a "
            f"sequence of patterns, got {type(addresses).__name__}"
        )
    rows = len(addr_rows)
    machines = _spread(machine, rows, "machine")
    maps = _spread(bank_map, rows, "bank_map")
    assigns = _spread(assignment, rows, "assignment")
    budgets = _spread(max_cycles, rows, "max_cycles")
    if rows == 0:
        return []
    do_sanitize = sanitize_enabled(sanitize)

    results: List[Optional[SimResult]] = [None] * rows
    setups: List[Optional[_Setup]] = [None] * rows
    proj: Dict[int, tuple] = {}  # row -> (issue, bank, addr, absorbed)
    groups: Dict[int, List[int]] = {}  # survivor count -> rows
    for r in range(rows):
        require_machine(machines[r], "simulate_scatter_grid")
        s = _prepare(
            machines[r], addr_rows[r], maps[r], assigns[r], budgets[r],
            telemetry, do_sanitize,
        )
        if s.n == 0:
            results[r] = _row_fallback(
                machines[r], addr_rows[r], maps[r], assigns[r],
                budgets[r], telemetry, do_sanitize,
            )
            continue
        setups[r] = s
        assert s.batch is not None and s.banks is not None \
            and s.survives is not None
        alive = s.survives
        if alive.all():
            issue, bank, addr = s.batch.issue, s.banks, s.batch.addresses
            absorbed = np.zeros(0, dtype=np.float64)
        else:
            issue = s.batch.issue[alive]
            bank = s.banks[alive]
            addr = s.batch.addresses[alive]
            absorbed = s.batch.issue[~alive]
        proj[r] = (issue, bank, addr, absorbed)
        # Rectangular fusion groups: rows whose survivor counts match
        # stack into one (rows, m) kernel call.  Combining absorption
        # and ragged grids fall out naturally — equal-m rows fuse, the
        # rest form their own (possibly singleton) groups.
        groups.setdefault(int(issue.size), []).append(r)

    for members in groups.values():
        arr2 = np.stack(
            [proj[r][0] + setups[r].latency for r in members]  # type: ignore[union-attr]
        )
        srv2 = np.stack([proj[r][1] for r in members])
        d_row = np.asarray(
            [float(setups[r].d) for r in members],  # type: ignore[union-attr]
            dtype=np.float64,
        )
        cost2: Optional[np.ndarray]
        if any(setups[r].hit_delay is not None for r in members):  # type: ignore[union-attr]
            # Mixed grids run the cached kernel with hit == miss == d
            # for uncached rows: every cost equals d there, so the
            # prefix-sum recurrence reduces to the plain rank*d one and
            # stays bit-identical to the uncached kernel.
            hit_row = np.asarray(
                [
                    float(
                        setups[r].d if setups[r].hit_delay is None  # type: ignore[union-attr]
                        else setups[r].hit_delay  # type: ignore[union-attr]
                    )
                    for r in members
                ],
                dtype=np.float64,
            )
            addr2 = np.stack([proj[r][2] for r in members])
            start2, cost2 = fifo_service_times_cached(
                arr2, srv2, addr2, d_row, hit_row
            )
        else:
            start2 = fifo_service_times(arr2, srv2, d_row)
            cost2 = None

        for i, r in enumerate(members):
            s = setups[r]
            assert s is not None
            issue, bank, _addr, absorbed = proj[r]
            arrival = arr2[i]
            start = start2[i]
            if s.capacity is not None:
                t_stall = _first_stall(
                    s.capacity, s.n_banks, issue, arrival, start, bank
                )
                if t_stall is not None:
                    # Back-pressure binds for this row only: the
                    # certificate's earliest offender is a real stall,
                    # so this point (and no other) leaves the fused
                    # projection for the exact scalar engine.
                    results[r] = _row_fallback(
                        machines[r], addr_rows[r], maps[r], assigns[r],
                        budgets[r], telemetry, do_sanitize,
                    )
                    continue
            acc = _new_acc(s)
            _commit(
                s, acc,
                (arrival, start,
                 None if cost2 is None else cost2[i], bank, absorbed),
            )
            results[r] = _finish(machines[r], s, "grid", acc)
    return results  # type: ignore[return-value]
