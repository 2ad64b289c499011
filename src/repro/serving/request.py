"""Request/response model of the prediction service.

A :class:`ServeRequest` names everything needed to answer one question
about one machine — the operation (``predict`` / ``simulate`` /
``compare``, or the session verb ``stream``), the machine (preset name
or parameter overrides), the access pattern (generator spec or explicit
addresses), the simulator engine and the bank mapping — in plain
JSON-able data, so the same request travels unchanged through the
in-process API, the NDJSON CLI and the HTTP endpoint.  ``stream``
requests additionally carry an ``action`` (``open``/``chunk``/``close``)
and a client-chosen ``stream_id``; a session's chunks are answered with
rolling prefix results, bit-identical to one-shot simulation of the
concatenated trace (docs/streaming.md).  The resolvers in this module turn the specs
into the library's own objects (:class:`MachineConfig`, address arrays,
:class:`BankMap` instances); the service then calls the ordinary
library entry points on them, which is what makes serving answers
bit-identical to direct calls.

A :class:`ServeResponse` carries the answer plus the serving metadata
(status, cache provenance, the flush size the request rode in, queueing
latency).  Statuses follow the HTTP idiom: 200 ok, 400 bad request,
429 shed by admission control, 503 shut down mid-request, 504 deadline
exceeded, 500 evaluation failure.  Every backend answers a submit with
one :class:`Ticket`, and a request that never reached an evaluation is
answered by :func:`failure_response`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._util import as_addresses
from ..core.contention import BankMap
from ..errors import ParameterError
from ..experiments.common import DEFAULT_SEED
from ..mapping.hashing import HASH_FAMILIES, RandomMap
from ..simulator.dispatch import ENGINES
from ..simulator.machine import (
    CRAY_C90,
    CRAY_J90,
    CRAY_T90,
    NEC_SX4,
    TERA_MTA,
    MachineConfig,
    toy_machine,
)
from ..workloads.patterns import (
    broadcast,
    hotspot,
    multi_hotspot,
    strided,
    uniform_random,
    zipf_pattern,
)

__all__ = [
    "ServeRequest",
    "ServeResponse",
    "Ticket",
    "MACHINES",
    "BANK_MAPS",
    "OPS",
    "STREAM_ACTIONS",
    "PATTERN_KINDS",
    "STATUS_CODES",
    "request_from_dict",
    "resolve_machine",
    "resolve_pattern",
    "resolve_bank_map",
]

#: Machine presets addressable by name in a request.
MACHINES: Dict[str, MachineConfig] = {
    "j90": CRAY_J90,
    "c90": CRAY_C90,
    "t90": CRAY_T90,
    "tera": TERA_MTA,
    "sx4": NEC_SX4,
    "toy": toy_machine(),
}

#: Bank-mapping kinds addressable by name (``interleave`` is the
#: identity ``addr mod B`` map the simulator applies when no map is
#: given; the rest are the paper's randomized families).
BANK_MAPS = ("interleave", "random", "h1", "h2", "h3")

#: Operations the service answers.  ``stream`` is the session-oriented
#: one: ``action="open"`` creates a named incremental simulation,
#: ``action="chunk"`` feeds it one block of addresses (answered with the
#: rolling prefix result), ``action="close"`` retires it and returns the
#: final result — bit-identical to simulating the concatenated trace in
#: one shot (see docs/streaming.md).
OPS = ("predict", "simulate", "compare", "stream")

#: Stream-session verbs carried by ``ServeRequest.action``.
STREAM_ACTIONS = ("open", "chunk", "close")

#: Pattern-generator kinds and their spec fields (beyond ``kind``).
PATTERN_KINDS: Dict[str, Tuple[str, ...]] = {
    "hotspot": ("n", "k", "space", "seed", "hot_address"),
    "uniform": ("n", "space", "seed"),
    "broadcast": ("n", "address"),
    "stride": ("n", "stride", "base"),
    "multi_hotspot": ("n", "n_hot", "hot_fraction", "space", "seed"),
    "zipf": ("n", "space", "alpha", "seed"),
}
_GENERATORS: Dict[str, Callable[..., np.ndarray]] = {
    "hotspot": hotspot, "uniform": uniform_random, "broadcast": broadcast,
    "stride": strided, "multi_hotspot": multi_hotspot, "zipf": zipf_pattern,
}

#: status name -> HTTP-style numeric code.  ``overloaded`` (429) is
#: load shedding — retry later and the service will answer; ``closed``
#: (503) is shutdown — the service is going away and a retry must go to
#: another instance.  Conflating them (the pre-fix behaviour) made
#: drain look like overload in every dashboard built on these codes.
STATUS_CODES: Dict[str, int] = {
    "ok": 200,
    "bad-request": 400,
    "overloaded": 429,
    "error": 500,
    "closed": 503,
    "deadline-exceeded": 504,
}

_DEFAULT_SPACE = 1 << 24


@dataclasses.dataclass(frozen=True)
class ServeRequest:
    """One question for the service, in plain JSON-able data.

    Attributes
    ----------
    op:
        ``"predict"`` (analytic BSP + (d,x)-BSP times), ``"simulate"``
        (run the chosen engine) or ``"compare"`` (both, side by side).
    machine:
        Preset name from :data:`MACHINES`, a dict of overrides (optional
        ``"base"`` preset plus :class:`MachineConfig` fields), or an
        actual :class:`MachineConfig` (in-process callers).
    pattern:
        Generator spec, e.g. ``{"kind": "hotspot", "n": 4096,
        "k": 256}`` (fields per :data:`PATTERN_KINDS`; ``seed`` defaults
        to 1995, ``space`` to ``2**24``).  Mutually exclusive with
        ``addresses``.
    addresses:
        Explicit address list, for callers that already hold a pattern.
    engine:
        Simulator engine from :data:`repro.simulator.ENGINES`.
    bank_map:
        Mapping kind from :data:`BANK_MAPS`.
    map_seed:
        Seed for the randomized mapping families.
    sweep:
        ``{"param": <pattern field>, "values": [...]}`` — answer the
        request once per value of that pattern field, batched together.
    deadline_ms:
        Per-request deadline; a request still queued when it lapses is
        answered ``deadline-exceeded`` instead of evaluated.
    request_id:
        Opaque client tag echoed in the response.
    action:
        Stream verb (``op == "stream"`` only): ``"open"`` /
        ``"chunk"`` / ``"close"`` per :data:`STREAM_ACTIONS`.
    stream_id:
        Client-chosen session name (``op == "stream"`` only); every
        request of one session must carry the same id.
    """

    op: str = "compare"
    machine: Union[str, Dict[str, Any], MachineConfig] = "j90"
    pattern: Optional[Dict[str, Any]] = None
    addresses: Optional[Sequence[int]] = None
    engine: str = "banksim"
    bank_map: str = "interleave"
    map_seed: int = DEFAULT_SEED
    sweep: Optional[Dict[str, Any]] = None
    deadline_ms: Optional[float] = None
    request_id: Optional[str] = None
    action: Optional[str] = None
    stream_id: Optional[str] = None

    def validate(self) -> None:
        """Raise :class:`ParameterError` on any out-of-range field."""
        if self.op not in OPS:
            raise ParameterError(
                f"unknown op {self.op!r}; choose one of {OPS}"
            )
        if self.engine not in ENGINES:
            raise ParameterError(
                f"unknown engine {self.engine!r}; choose one of {ENGINES}"
            )
        if self.bank_map not in BANK_MAPS:
            raise ParameterError(
                f"unknown bank_map {self.bank_map!r}; "
                f"choose one of {BANK_MAPS}"
            )
        if self.op == "stream":
            self._validate_stream()
            return
        if self.action is not None or self.stream_id is not None:
            raise ParameterError(
                "action= / stream_id= are stream-session fields; "
                "they need op='stream'"
            )
        if (self.pattern is None) == (self.addresses is None):
            raise ParameterError(
                "exactly one of pattern= / addresses= must be given"
            )
        if self.sweep is not None:
            if self.pattern is None:
                raise ParameterError("sweep= needs a pattern spec to vary")
            if not isinstance(self.sweep, dict) \
                    or "param" not in self.sweep \
                    or "values" not in self.sweep:
                raise ParameterError(
                    "sweep must be {'param': <pattern field>, "
                    "'values': [...]}"
                )
            values = self.sweep["values"]
            if not isinstance(values, (list, tuple)) or not values:
                raise ParameterError("sweep values must be a nonempty list")
        deadline = self.deadline_ms
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            or not math.isfinite(deadline) or deadline <= 0
        ):
            raise ParameterError(
                f"deadline_ms must be a finite number > 0, got {deadline!r}"
            )

    def _validate_stream(self) -> None:
        """Stream-op branch of :meth:`validate`: every action needs a
        session id; ``chunk`` carries exactly one address payload, the
        control verbs carry none; sweeps and deadlines are refused
        (a session is ordered state, not a batchable question)."""
        if self.action not in STREAM_ACTIONS:
            raise ParameterError(
                f"stream action must be one of {STREAM_ACTIONS}, "
                f"got {self.action!r}"
            )
        if not isinstance(self.stream_id, str) or not self.stream_id:
            raise ParameterError(
                "stream requests need a nonempty string stream_id"
            )
        if self.sweep is not None:
            raise ParameterError("stream requests do not take sweep=")
        if self.deadline_ms is not None:
            raise ParameterError(
                "stream requests do not take deadline_ms= (chunks are "
                "ordered session state; expiring one would desync the "
                "stream)"
            )
        if self.action == "chunk":
            if (self.pattern is None) == (self.addresses is None):
                raise ParameterError(
                    "a stream chunk carries exactly one of pattern= / "
                    "addresses="
                )
        elif self.pattern is not None or self.addresses is not None:
            raise ParameterError(
                f"stream {self.action!r} takes neither pattern= nor "
                "addresses="
            )


def request_from_dict(data: Dict[str, Any]) -> ServeRequest:
    """Build and validate a :class:`ServeRequest` from decoded JSON;
    unknown fields raise :class:`ParameterError` (a typoed field must
    not silently fall back to a default)."""
    if not isinstance(data, dict):
        raise ParameterError(
            f"request must be a JSON object, got {type(data).__name__}"
        )
    known = {f.name for f in dataclasses.fields(ServeRequest)}
    unknown = [k for k in sorted(data) if k not in known]
    if unknown:
        raise ParameterError(f"unknown request field(s): {unknown}")
    req = ServeRequest(**data)
    req.validate()
    return req


def resolve_machine(
    spec: Union[str, Dict[str, Any], MachineConfig]
) -> MachineConfig:
    """Turn a request's machine spec into a :class:`MachineConfig`."""
    if isinstance(spec, MachineConfig):
        return spec
    if isinstance(spec, str):
        try:
            return MACHINES[spec]
        except KeyError:
            raise ParameterError(
                f"unknown machine {spec!r}; choose one of "
                f"{tuple(sorted(MACHINES))}"
            ) from None
    if isinstance(spec, dict):
        overrides = dict(spec)
        base = resolve_machine(overrides.pop("base", "j90"))
        if not overrides:
            return base
        try:
            return base.with_(**overrides)
        except TypeError as exc:
            raise ParameterError(f"bad machine override: {exc}") from None
    raise ParameterError(
        f"machine must be a preset name, override dict or MachineConfig, "
        f"got {type(spec).__name__}"
    )


def resolve_pattern(
    pattern: Optional[Dict[str, Any]],
    addresses: Optional[Sequence[int]],
) -> np.ndarray:
    """Materialize a request's access pattern as an int64 address array.

    Explicit addresses and generated patterns alike pass through
    :func:`~repro._util.as_addresses`, so they are refused as the
    library refuses them (non-integral floats, strings, bools, negative
    values; a generated stride that wraps int64 turns negative) with a
    :class:`PatternError`; a generator spec numpy cannot draw from
    raises :class:`ParameterError`.
    """
    if addresses is not None:
        return as_addresses(addresses)
    if not isinstance(pattern, dict) or "kind" not in pattern:
        raise ParameterError("pattern must be a dict with a 'kind' field")
    spec = dict(pattern)
    kind = spec.pop("kind")
    if kind not in PATTERN_KINDS:
        raise ParameterError(
            f"unknown pattern kind {kind!r}; choose one of "
            f"{tuple(sorted(PATTERN_KINDS))}"
        )
    unknown = [k for k in sorted(spec) if k not in PATTERN_KINDS[kind]]
    if unknown:
        raise ParameterError(
            f"pattern kind {kind!r} does not take field(s) {unknown}"
        )
    if "n" not in spec:
        raise ParameterError(f"pattern kind {kind!r} needs 'n'")
    if "seed" in PATTERN_KINDS[kind]:
        spec.setdefault("seed", DEFAULT_SEED)
    if "space" in PATTERN_KINDS[kind]:
        spec.setdefault("space", _DEFAULT_SPACE)
    try:
        addr = _GENERATORS[kind](**spec)
    except ParameterError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # numpy's own refusals: a negative seed, a space or address
        # past int64.
        raise ParameterError(
            f"bad pattern spec for {kind!r}: {exc}"
        ) from None
    return as_addresses(addr)


def resolve_bank_map(kind: str, seed: int) -> Optional[BankMap]:
    """Turn a mapping kind + seed into a :class:`BankMap` (or ``None``
    for the default interleaved map)."""
    if kind == "interleave":
        return None
    if kind == "random":
        return RandomMap(seed)
    try:
        return HASH_FAMILIES[kind](seed)
    except KeyError:
        raise ParameterError(
            f"unknown bank_map {kind!r}; choose one of {BANK_MAPS}"
        ) from None


@dataclasses.dataclass(frozen=True)
class ServeResponse:
    """The service's answer to one :class:`ServeRequest`.

    Attributes
    ----------
    status / code:
        Outcome name and its HTTP-style code (:data:`STATUS_CODES`).
    result:
        For ``status == "ok"``: the evaluation's scalar fields (exactly
        the values the underlying library call returned).  Swept
        requests get ``{"param": ..., "rows": [{"value": v, ...}]}``.
    cached:
        True when every value was served from a cache (in-memory LRU or
        the on-disk memo) without touching an engine.
    batch:
        Largest micro-batch flush this request rode in (0 when served
        entirely from cache at admission).
    latency_ms:
        Submit-to-response wall-clock.
    """

    status: str
    code: int
    op: str
    engine: str
    machine: str
    request_id: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    cached: bool = False
    batch: int = 0
    latency_ms: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        """True for a successfully evaluated request."""
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict view (JSON payload of the CLI/HTTP front ends)."""
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        """One-line JSON rendering (the NDJSON output format)."""
        return json.dumps(self.to_dict(), sort_keys=True)


def _sweep_points(req: ServeRequest) -> List[Tuple[Any, Dict[str, Any]]]:
    """Expand a swept request into ``(value, pattern spec)`` pairs."""
    assert req.sweep is not None and req.pattern is not None
    param = req.sweep["param"]
    kind = req.pattern.get("kind")
    allowed = PATTERN_KINDS.get(kind, ())
    if param not in allowed:
        raise ParameterError(
            f"sweep param {param!r} is not a field of pattern kind "
            f"{kind!r} (fields: {allowed})"
        )
    out = []
    for value in req.sweep["values"]:
        spec = dict(req.pattern)
        spec[param] = value
        out.append((value, spec))
    return out


class Ticket:
    """Handle for one submitted request, as every backend returns it.

    ``result()`` blocks for its :class:`ServeResponse`.  It resolves
    once: the first response wins and later ones are ignored.
    """

    def __init__(self, request_id: Optional[str] = None) -> None:
        self.request_id = request_id
        self.t_submit = time.monotonic()
        self.response: Optional[ServeResponse] = None
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._callbacks: List[Callable[["Ticket"], None]] = []

    @classmethod
    def answered(cls, response: ServeResponse) -> "Ticket":
        """A ticket already resolved to ``response``."""
        ticket = cls(response.request_id)
        ticket._resolve(response)
        return ticket

    def _resolve(self, response: ServeResponse) -> None:
        with self._lock:
            if self.response is not None:
                return
            self.response = response
            callbacks, self._callbacks = self._callbacks, []
        self._event.set()
        for fn in callbacks:
            fn(self)

    def result(self, timeout: Optional[float] = None) -> ServeResponse:
        """Block until the response is ready (raises ``TimeoutError``
        after ``timeout`` seconds)."""
        if not self._event.wait(timeout):
            raise TimeoutError("request still pending")
        assert self.response is not None
        return self.response

    def add_done_callback(self, fn: Callable[["Ticket"], None]) -> None:
        """Run ``fn(ticket)`` once the response is ready.

        Fires immediately when the ticket already resolved; otherwise
        from whichever thread resolves it (a backend's dispatcher or
        reader thread, or a submitter on a cache hit), so callbacks
        must be cheap and must not block.  The non-blocking front end
        (:mod:`repro.serving.frontend`) uses this to pump responses
        back into its event loop without parking a thread per request.
        """
        with self._lock:
            if self.response is None:
                self._callbacks.append(fn)
                return
        fn(self)


def request_id_of(request: Any) -> Optional[str]:
    """The client's ``request_id`` of a request in any form, or ``None``
    when it carries no string one."""
    if isinstance(request, ServeRequest):
        rid = request.request_id
    elif isinstance(request, dict):
        rid = request.get("request_id")
    else:
        rid = None
    return rid if isinstance(rid, str) else None


def failure_response(request: Any, status: str, error: str) -> ServeResponse:
    """The answer to a request that never reached an evaluation.

    ``request`` is whatever was submitted: a dict, a
    :class:`ServeRequest` or anything else.  The answer echoes its
    ``op`` and ``request_id`` when it has them; ``engine`` and
    ``machine`` stay empty because nothing was resolved.
    """
    if isinstance(request, ServeRequest):
        op = request.op
    elif isinstance(request, dict):
        op = str(request.get("op", ""))
    else:
        op = ""
    return ServeResponse(
        status=status, code=STATUS_CODES[status], op=op, engine="",
        machine="", request_id=request_id_of(request), error=error,
    )
