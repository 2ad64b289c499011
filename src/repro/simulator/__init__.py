"""Cycle-level memory-bank simulator: the substitute for the paper's Cray
C90/J90 testbed (see DESIGN.md, Substitutions)."""

from .banksim import (
    simulate_batch,
    simulate_gather,
    simulate_scatter,
    simulate_scatter_blocked,
)
from .butterfly import omega_ports, simulate_scatter_butterfly
from .cycle import simulate_scatter_cycle
from .cycle_batch import fifo_service_times, fifo_service_times_cached
from .cycle_grid import simulate_scatter_grid
from .dispatch import ENGINES, simulate_scatter_engine
from .machine import (
    CRAY_C90,
    CRAY_J90,
    CRAY_T90,
    NEC_SX4,
    TABLE1_MACHINES,
    TERA_MTA,
    MachineConfig,
    toy_machine,
)
from .network import predict_scatter_sections, section_loads, section_of_banks
from .request import RequestBatch
from .sanitize import (
    SanitizerError,
    check_superstep,
    sanitize_enabled,
    set_sanitize,
)
from .stats import SimResult, SimTelemetry
from .stream import (
    DEFAULT_CHUNK,
    StreamSimulator,
    StreamUpdate,
    simulate_scatter_stream,
    stream_checkpoint,
)
from .trace import ProgramSimResult, simulate_program

__all__ = [
    "MachineConfig",
    "toy_machine",
    "CRAY_C90",
    "CRAY_J90",
    "CRAY_T90",
    "TERA_MTA",
    "NEC_SX4",
    "TABLE1_MACHINES",
    "RequestBatch",
    "SimResult",
    "SimTelemetry",
    "fifo_service_times",
    "fifo_service_times_cached",
    "simulate_batch",
    "simulate_scatter",
    "simulate_gather",
    "simulate_scatter_blocked",
    "simulate_scatter_cycle",
    "simulate_scatter_grid",
    "DEFAULT_CHUNK",
    "StreamSimulator",
    "StreamUpdate",
    "simulate_scatter_stream",
    "stream_checkpoint",
    "ENGINES",
    "simulate_scatter_engine",
    "SanitizerError",
    "sanitize_enabled",
    "set_sanitize",
    "check_superstep",
    "omega_ports",
    "simulate_scatter_butterfly",
    "section_of_banks",
    "section_loads",
    "predict_scatter_sections",
    "ProgramSimResult",
    "simulate_program",
]
