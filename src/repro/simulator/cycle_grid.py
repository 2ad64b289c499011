"""Grid-fused cycle simulation: many scatters, one vectorized pass.

The batch engine (:mod:`repro.simulator.cycle_batch`) vectorizes *one*
simulation; a parameter sweep still pays one engine invocation — one
kernel call, one Python prologue/epilogue — per grid point.  This module
amortizes that across the whole sweep: it prepares every row and hands
the stack to the batch engine's own project -> certify -> fall back
loop, of which ``engine="batch"`` is the one-row call.  Compatible
points are stacked into 2-D ``(rows, n)`` arrays and pushed through a
*single* call to the batched segmented-cummax kernels of
:mod:`repro.simulator.cycle_batch` (rows are lifted into disjoint
server-id ranges, so one two-pass order — a stable pass on arrival,
then a radix pass per 16-bit digit of the lifted ids — and one
``np.maximum.accumulate`` solve every point at once).

Exactness is certified exactly like the batch engine, but **scoped per
point**:

1. **Project.** Rows with one survivor count share one fused kernel
   call (per-row ``d`` / ``cache_hit_delay`` ride along as per-row cost
   vectors, so the grid may mix machines; costs every row shares stay
   scalars).
2. **Certify.** Rows on unbounded-queue machines are exact outright.
   For a row with a finite ``queue_capacity`` the batch engine's
   queue-depth stall certificate runs on that row's slice: if no
   projected issue sees a full queue, the projection *is* that row's
   bounded run.
3. **Fall back per point.** A row whose certificate fails finishes
   through the batch engine's fallback loop on its own, from the setup
   it already built — the grid never degrades wholesale because one
   point stalls, and every returned result is bit-identical to
   evaluating its point alone with ``engine="batch"`` / ``"event"`` /
   ``"tick"`` (property-tested, telemetry included).

Every row commits through the batch engine's own ``Acc``/``_commit``/
``_finish`` machinery, so aggregation, runaway diagnostics and sanitizer
coverage are shared verbatim rather than re-implemented.  A row that
exceeds its ``max_cycles`` raises the same
:class:`~repro.errors.SimulationError` the scalar engines would (and
aborts the grid call, as each per-point call would abort its caller).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Union

import numpy as np

from ..core.contention import BankMap
from ..errors import ParameterError
from .cycle import _finish, _prepare, _Setup
from .cycle_batch import _fall_back, _fold_rows
from .machine import MachineConfig, require_machine
from .request import Assignment
from .sanitize import sanitize_enabled
from .stats import SimResult
from .world import Acc

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


def _row_fallback(machine: MachineConfig, s: _Setup, acc: Acc,
                  t_stall: int) -> SimResult:
    """Finish one row whose stall certificate failed at ``t_stall``
    through the batch engine's fallback loop, from the setup the grid
    already built."""
    _fall_back(s, acc, t_stall)
    return _finish(machine, s, "grid", acc)


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
    fused projection, rows where bounded-queue back-pressure binds
    finish *individually* through the batch engine's fallback loop, and
    empty rows take the engines' shared zero-request path.
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
    do_sanitize = sanitize_enabled(sanitize)
    setups = []
    for r in range(rows):
        require_machine(machines[r], "simulate_scatter_grid")
        setups.append(_prepare(
            machines[r], addr_rows[r], maps[r], assigns[r], budgets[r],
            telemetry, do_sanitize,
        ))
    return [
        _finish(m, s, "grid", acc) if t_stall is None
        else _row_fallback(m, s, acc, t_stall)
        for m, s, (acc, t_stall) in zip(machines, setups,
                                        _fold_rows(setups))
    ]
