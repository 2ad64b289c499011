"""One entry point over every scatter engine, selected by name.

The repository names four bit-identical ways to simulate the same
superstep: the vectorized unbounded-queue engine (``banksim``) and the
cycle simulator's ``tick``, ``event`` and ``batch`` engines, the last
two names for one path (the projector, which steps the event world
only where a bank queue fills).  Callers
that take the engine as *data* — the prediction service
(:mod:`repro.serving`), the analysis comparisons, parametrized tests —
resolve it here instead of each re-implementing the name → function
mapping.  :data:`ENGINES` is the authoritative list of valid names.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..core.contention import BankMap
from ..errors import ParameterError
from .banksim import simulate_scatter
from .cycle import simulate_scatter_cycle
from .machine import MachineConfig
from .stats import SimResult

__all__ = ["ENGINES", "simulate_scatter_engine"]

#: Every engine name accepted by :func:`simulate_scatter_engine`, in the
#: order they were introduced.  All four are property-tested to produce
#: bit-identical results under unbounded queues; ``"event"`` and
#: ``"batch"`` run the same code.
ENGINES = ("banksim", "tick", "event", "batch")


def simulate_scatter_engine(
    machine: MachineConfig,
    addresses: Union[np.ndarray, "list[int]"],
    bank_map: Optional[BankMap] = None,
    assignment: str = "round_robin",
    telemetry: bool = False,
    sanitize: Optional[bool] = None,
    engine: str = "banksim",
) -> SimResult:
    """Simulate one scatter with the engine named by ``engine``.

    ``"banksim"`` routes to :func:`~repro.simulator.banksim.simulate_scatter`
    (vectorized, unbounded queues); ``"tick"``/``"event"``/``"batch"``
    route to :func:`~repro.simulator.cycle.simulate_scatter_cycle`,
    which additionally honours bounded queues
    (``machine.queue_capacity``).  The result is exactly what the named
    engine returns — this wrapper adds dispatch, never arithmetic — so
    it is bit-identical to calling the engine directly.

    ``"stream"`` consumes the addresses in bounded-memory chunks
    through :func:`~repro.simulator.stream.simulate_scatter_stream`
    and returns the final prefix result — bit-identical to the other
    engines, but subject to the streaming restrictions (no combining,
    no ``block`` assignment).  It is deliberately not in
    :data:`ENGINES`: it is a mode over the engines, not a fifth
    arithmetic.
    """
    if engine == "banksim":
        return simulate_scatter(
            machine, addresses, bank_map, assignment=assignment,
            telemetry=telemetry, sanitize=sanitize,
        )
    if engine == "stream":
        from .stream import simulate_scatter_stream
        update = None
        for update in simulate_scatter_stream(
            machine, addresses, bank_map, assignment=assignment,
            telemetry=telemetry, sanitize=sanitize,
        ):
            pass
        assert update is not None  # the generator always yields
        return update.result
    if engine in ENGINES:
        return simulate_scatter_cycle(
            machine, addresses, bank_map, assignment=assignment,
            engine=engine, telemetry=telemetry, sanitize=sanitize,
        )
    raise ParameterError(
        f"unknown engine {engine!r}; choose one of {ENGINES} "
        "(or 'stream' for the chunked bounded-memory mode)"
    )
