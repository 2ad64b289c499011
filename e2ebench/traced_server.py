"""Run ``python -m repro.serving`` with spans around each layer's calls.

Usage::

    python traced_server.py --spans DIR -- <repro.serving arguments>

Before the server starts, this launcher replaces a set of public
functions and methods, in the modules that call them, with wrappers
that record one span per call: name, start, end, parent span, request
id and a few attributes.  The wrappers call the original and return its
result unchanged.  Spans stay in memory.  Each process, forked shard
workers included, writes its spans to ``DIR/spans-<pid>.json`` when it
exits.  Times are ``time.perf_counter_ns()``, the system-wide monotonic
clock, so the client's timestamps and every process's spans share one
time base.

``evaluate_point`` stays unwrapped: its identity is part of every cache
key, and it carries the ``grid_fuse`` adapter.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

_now = time.perf_counter_ns
_ids = itertools.count(1)
_tls = threading.local()
#: (span id, parent id, name, start ns, end ns, request id, attrs)
SPANS: List[tuple] = []
_OUT: Dict[str, Optional[Path]] = {"dir": None}


def _stack() -> List[int]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def record(name: str, t0: int, t1: int, rid: Optional[str],
           attrs: Dict[str, Any]) -> None:
    """Append one finished top-level span (for spans that no call
    brackets, such as a ticket's wait for its answer)."""
    SPANS.append((next(_ids), 0, name, t0, t1, rid, attrs))


def wrap(name: str, fn: Callable,
         attrs: Optional[Callable[..., Dict[str, Any]]] = None) -> Callable:
    """``fn`` with a span around every call; ``attrs(args, kwargs, out)``
    adds attributes once the call has returned."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = _stack()
        sid = next(_ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = _now()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = _now()
            stack.pop()
        SPANS.append((sid, parent, name, t0, t1, None,
                      attrs(args, kwargs, out) if attrs else None))
        return out

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _rid(request: Any) -> Optional[str]:
    rid = request.get("request_id") if isinstance(request, dict) \
        else getattr(request, "request_id", None)
    return rid if isinstance(rid, str) else None


def _size(arr: Any) -> int:
    return int(getattr(arr, "size", None) or len(arr))


def dump() -> None:
    """Write this process's spans (called once, at process exit)."""
    out = _OUT["dir"]
    if out is None:
        return
    path = out / f"spans-{os.getpid()}.json"
    with open(path, "w") as fh:
        json.dump(SPANS, fh, separators=(",", ":"))


# ----------------------------------------------------------------------
# the wrappers
# ----------------------------------------------------------------------

class _Proxy:
    """The frontend's backend, with ``submit`` and ticket resolution
    timed: one span for the submit call, one from submit to the ticket's
    answer."""

    def __init__(self, backend: Any) -> None:
        self._backend = backend

    def submit(self, request: Any) -> Any:
        rid = _rid(request)
        stack = _stack()
        sid = next(_ids)
        stack.append(sid)
        t0 = _now()
        try:
            ticket = self._backend.submit(request)
        finally:
            t1 = _now()
            stack.pop()
        sync = ticket.response is not None
        SPANS.append((sid, 0, "serving.backend.submit", t0, t1, rid,
                      {"sync": sync}))

        def done(t: Any) -> None:
            record("serving.backend.ticket", t0, _now(), rid,
                   {"sync": sync, "status": t.response.status})

        ticket.add_done_callback(done)
        return ticket

    def __getattr__(self, name: str) -> Any:
        return getattr(self._backend, name)


class _JsonShim:
    """Stand-in for the ``json`` module inside the frontend: decode and
    encode calls are timed, everything else is the real module."""

    JSONDecodeError = json.JSONDecodeError

    def __init__(self) -> None:
        self.loads = wrap("serving.frontend.decode", json.loads,
                          lambda a, k, out: {"bytes": len(a[0])})
        self.dumps = wrap("serving.frontend.encode", json.dumps)

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


def install() -> None:
    """Replace the layer entry points with span-recording wrappers."""
    from repro.experiments import runner
    from repro.mapping import hashing
    from repro.serving import __main__ as cli
    from repro.serving import batcher, frontend, service, shard
    from repro.simulator import cycle_grid, stream

    # serving.frontend: decode/encode, and the backend behind it.
    frontend.json = _JsonShim()  # type: ignore[assignment]
    real_frontend = cli.ServingFrontend

    def make_frontend(backend: Any, *args: Any, **kwargs: Any) -> Any:
        return real_frontend(_Proxy(backend), *args, **kwargs)

    cli.ServingFrontend = make_frontend  # type: ignore[assignment]

    # serving.shard: routing digest and the shared hot tier.
    shard.route_digest = wrap("serving.shard.route_digest",
                              shard.route_digest)
    shard.SharedHotTier.get = wrap(  # type: ignore[method-assign]
        "serving.shard.hot_get", shard.SharedHotTier.get,
        lambda a, k, out: {"hit": out is not None})
    shard.SharedHotTier.put = wrap(  # type: ignore[method-assign]
        "serving.shard.hot_put", shard.SharedHotTier.put)
    real_worker = shard._worker_main

    def worker_main(*args: Any, **kwargs: Any) -> None:
        del SPANS[:]  # the fork copied the router's spans
        try:
            real_worker(*args, **kwargs)
        finally:
            dump()

    shard._worker_main = worker_main  # type: ignore[assignment]

    # serving.service: admission, and each ticket from submit to answer.
    real_submit = service.PredictionService.submit

    def submit(self: Any, request: Any) -> Any:
        rid = _rid(request)
        stack = _stack()
        sid = next(_ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = _now()
        try:
            ticket = real_submit(self, request)
        finally:
            t1 = _now()
            stack.pop()
        op = request.get("op") if isinstance(request, dict) else None
        action = request.get("action") if isinstance(request, dict) \
            else None
        resp = ticket.response
        SPANS.append((sid, parent, "serving.service.submit", t0, t1, rid,
                      {"op": op, "action": action,
                       "cached": resp is not None and resp.cached}))

        def done(t: Any) -> None:
            record("serving.service.ticket", t0, _now(), rid,
                   {"op": op, "action": action, "status": t.response.status})

        ticket.add_done_callback(done)
        return ticket

    service.PredictionService.submit = submit  # type: ignore[method-assign]

    # serving.batcher: how long each work item waited for its flush.
    def timed_take(real: Callable) -> Callable:
        def take(self: Any, *args: Any) -> Any:
            buckets = real(self, *args)
            t1 = _now()
            for items in buckets:
                for item in items:
                    ticket = item.ticket
                    record("serving.batcher.wait",
                           int(ticket.t_submit * 1e9), t1,
                           ticket.request.request_id, {"flush": len(items)})
            return buckets
        return take

    batcher.MicroBatcher.take_due = timed_take(  # type: ignore[method-assign]
        batcher.MicroBatcher.take_due)
    batcher.MicroBatcher.take_all = timed_take(  # type: ignore[method-assign]
        batcher.MicroBatcher.take_all)

    # serving.request and workloads.patterns.
    service.request_from_dict = wrap("serving.request.validate",
                                     service.request_from_dict)
    service.resolve_pattern = wrap(
        "serving.request.resolve_pattern", service.resolve_pattern,
        lambda a, k, out: {
            "kind": a[0]["kind"] if isinstance(a[0], dict) else "addresses",
            "n": _size(out),
        })

    # experiments.runner: the grid, its keys and the disk memo.  The
    # memo's write path is wrapped where both run_grid and cache_store
    # reach it.
    runner.run_grid = wrap("experiments.runner.run_grid", runner.run_grid,
                           lambda a, k, out: {"points": len(a[1])})
    runner.cache_key = wrap("experiments.runner.cache_key",
                            runner.cache_key)
    runner.cache_fetch = wrap("experiments.runner.disk_probe",
                              runner.cache_fetch,
                              lambda a, k, out: {"hit": bool(out[0])})
    runner._cache_store = wrap("experiments.runner.disk_store",
                               runner._cache_store)

    # simulator engines.
    service.simulate_scatter_engine = wrap(
        "simulator.engine", service.simulate_scatter_engine,
        lambda a, k, out: {
            "engine": k.get("engine", "banksim"), "n": _size(a[1]),
            "bounded": a[0].queue_capacity is not None,
        })
    cycle_grid.simulate_scatter_grid = wrap(
        "simulator.cycle_grid", cycle_grid.simulate_scatter_grid,
        lambda a, k, out: {
            "rows": len(a[1]), "n": sum(_size(x) for x in a[1]),
            "bounded": sum(m.queue_capacity is not None for m in a[0]),
        })
    stream.StreamSimulator.feed = wrap(  # type: ignore[method-assign]
        "simulator.stream.feed", stream.StreamSimulator.feed,
        lambda a, k, out: {
            "n": int(out.chunk_n),
            "bounded": a[0].machine.queue_capacity is not None,
        })

    # core.cost predictors (and the contention count next to them), as
    # the service calls them; ``at`` is the position of the addresses.
    for fn_name, at in (("predict_scatter_bsp", 1),
                        ("predict_scatter_dxbsp", 1),
                        ("max_location_contention", 0)):
        setattr(service, fn_name, wrap(
            f"core.cost.{fn_name}", getattr(service, fn_name),
            lambda a, k, out, at=at: {"n": _size(a[at])}))

    # mapping.hashing: every evaluation of a bank map a request can name
    # (h1/h2/h3 are polynomial hashes, "random" the random map).
    for cls in (hashing.PolynomialHashMap, hashing.RandomMap):
        cls.__call__ = wrap(  # type: ignore[method-assign]
            "mapping.hashing", cls.__call__,
            lambda a, k, out: {"n": _size(out)})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True,
                        help="directory for the per-process span files")
    parser.add_argument("serving_args", nargs=argparse.REMAINDER,
                        help="arguments for python -m repro.serving "
                        "(after --)")
    args = parser.parse_args(argv)
    serving_args = [a for a in args.serving_args if a != "--"]
    _OUT["dir"] = Path(args.spans)
    _OUT["dir"].mkdir(parents=True, exist_ok=True)
    install()
    from repro.serving.__main__ import main as serve

    try:
        return serve(serving_args)
    finally:
        dump()


if __name__ == "__main__":
    sys.exit(main())
