"""Output check: served answers against direct library calls.

The reference side never goes through ``repro.serving``: machines come
from the simulator's presets, patterns from the generators in
``repro.workloads.patterns``, bank maps from ``repro.mapping.hashing``,
and the numbers from ``repro.core`` and ``simulate_scatter_engine``.
Cycle-engine answers of cold-mix are recomputed on ``engine="event"``,
the reference the parity tests use.  Comparisons are exact: the served
path promises bit-identical answers.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.contention import max_location_contention
from repro.core.cost import predict_scatter_bsp, predict_scatter_dxbsp
from repro.mapping.hashing import HASH_FAMILIES
from repro.simulator.dispatch import simulate_scatter_engine
from repro.simulator.machine import (
    CRAY_C90,
    CRAY_J90,
    CRAY_T90,
    NEC_SX4,
    MachineConfig,
)
from repro.workloads import patterns

_PRESETS = {"j90": CRAY_J90, "c90": CRAY_C90, "t90": CRAY_T90,
            "sx4": NEC_SX4}

_GENERATORS = {
    "hotspot": patterns.hotspot,
    "uniform": patterns.uniform_random,
    "zipf": patterns.zipf_pattern,
    "multi_hotspot": patterns.multi_hotspot,
    "stride": patterns.strided,
}

_SIM_FIELDS = ("simulated_time", "max_bank_load", "max_wait", "mean_wait",
               "stalled_cycles")


def machine_of(spec: Any) -> MachineConfig:
    """A preset name or ``{"base": preset, **overrides}``."""
    if isinstance(spec, str):
        return _PRESETS[spec]
    spec = dict(spec)
    return _PRESETS[spec.pop("base")].with_(**spec)


def _addresses(pattern: Dict[str, Any]) -> np.ndarray:
    spec = dict(pattern)
    return _GENERATORS[spec.pop("kind")](**spec)


def _point(op: str, machine: MachineConfig, addr: np.ndarray, engine: str,
           bank_map: str, map_seed: int) -> Dict[str, Any]:
    mapping = None if bank_map == "interleave" \
        else HASH_FAMILIES[bank_map](map_seed)
    out: Dict[str, Any] = {"n": int(addr.size)}
    if op in ("predict", "compare"):
        params = machine.params()
        out["contention"] = int(max_location_contention(addr))
        out["bsp_time"] = float(predict_scatter_bsp(params, addr))
        out["dxbsp_time"] = float(predict_scatter_dxbsp(params, addr,
                                                        mapping))
    if op in ("simulate", "compare"):
        res = simulate_scatter_engine(machine, addr, mapping, engine=engine)
        out.update(zip(_SIM_FIELDS, (
            float(res.time), int(res.max_bank_load), float(res.max_wait),
            float(res.mean_wait), float(res.stalled_cycles))))
    return out


def reference(req: Dict[str, Any], event_for_cycle: bool) -> Dict[str, Any]:
    """The answer a direct library call gives for request ``req``."""
    engine = req["engine"]
    if event_for_cycle and engine != "banksim":
        engine = "event"
    machine = machine_of(req["machine"])
    args = (req["op"], machine)
    rest = (engine, req["bank_map"], req["map_seed"])
    if "sweep" not in req:
        return _point(*args, _addresses(req["pattern"]), *rest)
    param = req["sweep"]["param"]
    rows = []
    for value in req["sweep"]["values"]:
        pattern = dict(req["pattern"], **{param: value})
        rows.append(dict(value=value,
                         **_point(*args, _addresses(pattern), *rest)))
    return {"param": param, "rows": rows}


def stream_reference(machine_spec: Any, blocks: List[List[int]]) \
        -> Dict[str, Any]:
    """One-shot run of a session's concatenated chunks: ``batch`` on an
    unbounded machine (exact there), ``event`` on a bounded one."""
    machine = machine_of(machine_spec)
    addr = np.concatenate([np.asarray(b, dtype=np.int64) for b in blocks])
    engine = "batch" if machine.queue_capacity is None else "event"
    res = simulate_scatter_engine(machine, addr, None, engine=engine)
    return dict(zip(("n",) + _SIM_FIELDS, (
        int(addr.size), float(res.time), int(res.max_bank_load),
        float(res.max_wait), float(res.mean_wait),
        float(res.stalled_cycles))))


def mismatch(expected: Dict[str, Any], got: Optional[Dict[str, Any]]) \
        -> Optional[str]:
    """``None`` when every expected field is present and equal."""
    if not isinstance(got, dict):
        return f"no result (got {got!r})"
    for key, value in expected.items():
        if got.get(key) != value:
            return f"{key}: expected {value!r}, got {got.get(key)!r}"
    return None


def sample(keys: List[Any], count: int, seed: int) -> List[Any]:
    """A seeded sample of ``count`` keys (all of them when fewer)."""
    if len(keys) <= count:
        return list(keys)
    return random.Random(f"check/{seed}").sample(keys, count)
