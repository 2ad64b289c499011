"""Opt-in runtime sanitizer: conservation invariants checked every
superstep, in every engine.

The paper's prediction ``T = max(L, g*h_p, d*h_b)`` is a *lower bound*
argument: a superstep cannot finish before its slowest processor has
issued (``g*h_p``), its hottest bank has drained (``d*h_b``), or the
barrier overhead has elapsed (``L``).  The simulators are only evidence
for the model while they respect the same conservation laws, so with
``sanitize=True`` every engine (vectorized banksim, cycle tick, cycle
event) re-checks after each simulated superstep:

1. **Request conservation** — every issued request is serviced exactly
   once: ``sum(bank_loads)`` equals the number of requests that survive
   to the memory side (all of them, or one per distinct location under
   a combining network).
2. **Bank work accounting** — per-bank busy cycles never exceed
   ``d * load_b`` (each request occupies its bank for at most ``d``
   cycles) and hence never exceed ``d * h_b``; with the bank-cache
   extension they are also at least ``hit_delay * load_b``.
3. **(d,x)-BSP lower bound** — the simulated completion time is at
   least ``max(L, g*h_p, d*h_b)`` (checked in the exact simulator form
   that also accounts for ``latency`` and the cache extension's reduced
   per-hit cost; the paper's plain form is asserted whenever it applies
   verbatim: no combining, no bank cache, ``d >= g``).
4. **Stall accounting** — the telemetry counters are conserved: issue
   back-pressure equals ``SimResult.stalled_cycles``, total bank wait
   equals ``mean_wait`` times the requests issued, and a bank has a
   nonzero queue high-water mark iff it serviced a request.

The sanitizer only *reads* — results with ``sanitize=True`` are
bit-identical to ``sanitize=False`` (property-tested).  A violation
raises :class:`SanitizerError` naming the invariant and the numbers.

Enabling
--------
Per call: ``simulate_scatter(machine, addr, sanitize=True)``.  Process
wide: :func:`set_sanitize` or the ``REPRO_SANITIZE=1`` environment
variable (inherited by the experiment runner's pool workers, so a whole
``--all`` sweep can run sanitized).
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from ..errors import SimulationError
from .machine import MachineConfig
from .stats import SimResult

__all__ = [
    "SanitizerError",
    "sanitize_enabled",
    "set_sanitize",
    "check_superstep",
]

#: Absolute slack for comparisons between exactly-representable cycle
#: counts (all quantities here are integer-valued float64s well inside
#: 2**53, so this only guards against float noise in derived means).
_TOL = 1e-6


class SanitizerError(SimulationError):
    """A simulator engine violated a conservation invariant."""


_default: Optional[bool] = None


def set_sanitize(enabled: Optional[bool]) -> None:
    """Set the process-wide sanitizer default.

    ``True``/``False`` forces it for every simulate call that does not
    pass an explicit ``sanitize=``; ``None`` restores the environment
    fallback (``REPRO_SANITIZE``).
    """
    global _default
    _default = enabled if enabled is None else bool(enabled)


def sanitize_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the effective sanitize flag for one simulate call."""
    if override is not None:
        return bool(override)
    if _default is not None:
        return _default
    return os.environ.get("REPRO_SANITIZE", "0").lower() not in (
        "", "0", "false", "off",
    )


def _fail(engine: str, invariant: str, detail: str) -> None:
    raise SanitizerError(
        f"sanitize[{engine}]: invariant '{invariant}' violated — {detail}"
    )


def check_superstep(
    machine: MachineConfig,
    result: SimResult,
    *,
    engine: str,
    h_p: int,
    n_survivors: int,
    bank_busy: Optional[np.ndarray] = None,
    queue_high_water: Optional[np.ndarray] = None,
) -> None:
    """Check one superstep's :class:`SimResult` against the conservation
    invariants.

    Parameters
    ----------
    engine:
        The engine's name (``"banksim"``, ``"tick"``, ...), for errors.
    h_p:
        Maximum requests issued by any one processor this superstep.
    n_survivors:
        Requests that survive to the memory side (equals ``result.n``
        except under a combining network).
    bank_busy / queue_high_water:
        Per-bank counters.  The engines collect these whenever the
        sanitizer is on (even with telemetry off — the counters are
        read-only observers, so results stay bit-identical).
    """
    loads = result.bank_loads
    n_banks = machine.n_banks
    d = float(machine.d)
    c_min = float(
        machine.cache_hit_delay if machine.cache_hit_delay is not None
        else machine.d
    )

    # 1. Request conservation: serviced exactly once.
    if loads.shape != (n_banks,):
        _fail(engine, "conservation",
              f"bank_loads shape {loads.shape} != ({n_banks},)")
    if loads.size and int(loads.min()) < 0:
        _fail(engine, "conservation", "negative bank load")
    served = int(loads.sum())
    if served != int(n_survivors):
        _fail(
            engine, "conservation",
            f"{served} requests serviced but {n_survivors} reached the "
            f"memory side (of {result.n} issued) — requests were lost "
            "or double-serviced",
        )

    h_b = int(loads.max()) if loads.size else 0

    # 2. Bank work accounting: busy_b in [c_min, d] cycles per request.
    if bank_busy is not None:
        busy = np.asarray(bank_busy, dtype=np.float64)
        over = busy - d * loads
        if over.size and float(over.max()) > _TOL:
            b = int(np.argmax(over))
            _fail(
                engine, "bank-busy",
                f"bank {b} busy {busy[b]:.0f} cycles > d*load = "
                f"{d * loads[b]:.0f} (d={d:g}, load={int(loads[b])}) — "
                f"and the global bound d*h_b is {d * h_b:.0f}",
            )
        under = c_min * loads - busy
        if under.size and float(under.max()) > _TOL:
            b = int(np.argmax(under))
            _fail(
                engine, "bank-busy",
                f"bank {b} busy {busy[b]:.0f} cycles < minimum "
                f"{c_min * loads[b]:.0f} for {int(loads[b])} requests at "
                f">= {c_min:g} cycles each",
            )

    # 3. (d,x)-BSP lower bound on the superstep time.
    L = float(machine.L)
    g = float(machine.g)
    lat = float(machine.latency)
    time = float(result.time)
    if time < L - _TOL:
        _fail(engine, "lower-bound",
              f"time {time:g} < superstep overhead L={L:g}")
    if result.n > 0:
        issue_bound = L + (h_p - 1) * g + lat
        if time < issue_bound - _TOL:
            _fail(
                engine, "lower-bound",
                f"time {time:g} < issue-side bound L + (h_p-1)*g + "
                f"latency = {issue_bound:g} (h_p={h_p})",
            )
    if h_b > 0:
        bank_bound = L + lat + h_b * c_min
        if time < bank_bound - _TOL:
            _fail(
                engine, "lower-bound",
                f"time {time:g} < bank-side bound L + latency + "
                f"h_b*{c_min:g} = {bank_bound:g} (h_b={h_b})",
            )
    if not machine.combining and machine.cache_hit_delay is None \
            and d >= g:
        paper = max(L, g * h_p, d * h_b)
        if time < paper - _TOL:
            _fail(
                engine, "lower-bound",
                f"time {time:g} < paper bound max(L, g*h_p, d*h_b) = "
                f"{paper:g} (L={L:g}, g*h_p={g * h_p:g}, "
                f"d*h_b={d * h_b:g})",
            )

    # 4. Stall accounting conservation.
    tel = result.telemetry
    if tel is not None:
        back = tel.stall_breakdown.get("issue_backpressure", 0.0)
        if abs(back - result.stalled_cycles) > _TOL:
            _fail(
                engine, "stall-accounting",
                f"issue_backpressure {back:g} != stalled_cycles "
                f"{result.stalled_cycles:g}",
            )
        bank_wait = tel.stall_breakdown.get("bank_wait", 0.0)
        expected_wait = result.mean_wait * result.n
        slack = _TOL * max(1.0, abs(bank_wait))
        if abs(bank_wait - expected_wait) > slack:
            _fail(
                engine, "stall-accounting",
                f"bank_wait {bank_wait:g} != mean_wait * {result.n} = "
                f"{expected_wait:g}",
            )
        total = tel.total_stalled
        parts = sum(tel.stall_breakdown.values())
        if abs(total - parts) > _TOL:
            _fail(engine, "stall-accounting",
                  f"total_stalled {total:g} != sum of breakdown {parts:g}")
        if abs((tel.makespan + L) - time) > _TOL:
            _fail(
                engine, "stall-accounting",
                f"telemetry makespan {tel.makespan:g} + L {L:g} != "
                f"superstep time {time:g}",
            )
    if queue_high_water is not None:
        qhw = np.asarray(queue_high_water)
        mismatch = (qhw >= 1) != (loads >= 1)
        if mismatch.size and bool(mismatch.any()):
            b = int(np.argmax(mismatch))
            _fail(
                engine, "stall-accounting",
                f"bank {b}: queue high-water {int(qhw[b])} inconsistent "
                f"with {int(loads[b])} requests serviced (a serviced "
                "request must have been queued; an unserviced bank "
                "cannot have queued one)",
            )
