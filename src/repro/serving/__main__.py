"""Command-line front end for the prediction serving tier.

Line-delimited JSON (the default): one request object per stdin line,
one response object per stdout line, in submit order, each written as
soon as it and every earlier answer are in::

    echo '{"op": "compare", "machine": "j90", \
           "pattern": {"kind": "hotspot", "n": 65536, "k": 4096}}' \
        | python -m repro.serving

Streaming a trace too large to send at once (``op": "stream"``; see
docs/streaming.md): ``action": "open"`` names a session, each
``"chunk"`` line feeds it one block of addresses and is answered with
the rolling prefix result, ``"close"`` returns the final result —
bit-identical to simulating the concatenated trace in one shot.  The
filter paces its input like a socket client that waits for answers: it
owes at most as many answers as one socket connection may, and holds a
chunk while its session has ``stream_window`` chunks unanswered, so a
piped trace is never shed.

Network mode (a single-threaded ``selectors`` loop speaking HTTP *and*
NDJSON on the same port, per connection)::

    python -m repro.serving --http 8123 --host 0.0.0.0
    # POST /            a request object (or a list of them) as JSON
    # GET  /metrics     the schema-checked metrics manifest
    # GET  /healthz     liveness probe
    # ...or just pipe NDJSON lines over the socket.

``--workers N`` (N > 1) puts a :class:`repro.serving.ShardRouter` in
front: N worker processes each hosting a
:class:`~repro.serving.PredictionService`, sharded by request key,
with the router caching the answers they send back — same responses,
multiplied hot-path throughput.  Service knobs (``--batch-size``, ``--flush-ms``,
``--max-queue``, ``--deadline-ms``, ``--lru``, ``--parallel``,
``--no-disk-cache``) map one-to-one onto the per-worker services;
``--metrics`` prints the backend's metrics table to stderr on exit and
``--manifest PATH`` writes its JSON manifest (the router variant when
``--workers`` > 1).
"""

from __future__ import annotations

import argparse
import queue
import sys
import threading
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .frontend import _MAX_INFLIGHT, ServingFrontend, decode_line, safe_submit
from .metrics import metrics_table, write_serving_manifest
from .request import Ticket
from .service import PredictionService, ServingBackend
from .shard import ShardRouter


def _build_backend(args: argparse.Namespace) -> ServingBackend:
    service_kwargs = dict(
        max_queue=args.max_queue,
        batch_size=args.batch_size,
        flush_ms=args.flush_ms,
        deadline_ms=args.deadline_ms,
        lru_size=args.lru,
        disk_cache=not args.no_disk_cache,
        parallel=args.parallel,
        max_streams=args.max_streams,
        stream_window=args.stream_window,
    )
    if args.workers > 1:
        return ShardRouter(args.workers, **service_kwargs)
    return PredictionService(**service_kwargs)


def _run_ndjson(backend: ServingBackend, stream_in: Any,
                stream_out: Any) -> int:
    """Serve line-delimited JSON on stdio.

    A writer thread prints the answers in submit order, each as soon as
    it and every earlier one are in.  Reading pauses while
    ``_MAX_INFLIGHT`` answers are owed, and a stream chunk waits while
    its session has as many chunks unanswered as the ``stream_window``
    its ``open`` answer reported, so the filter never sheds its own
    input.  Returns 1 when stdout went away, else 0.
    """
    owed: "queue.Queue[Optional[Ticket]]" = queue.Queue()
    room = threading.Semaphore(_MAX_INFLIGHT)
    broken: List[OSError] = []

    def write_answers() -> None:
        while True:
            ticket = owed.get()
            if ticket is None:
                return
            line = ticket.result().to_json()
            if not broken:
                try:
                    print(line, file=stream_out, flush=True)
                except OSError as exc:  # stdout closed: keep draining
                    broken.append(exc)
            room.release()

    writer = threading.Thread(target=write_answers,
                              name="repro-serving-stdout", daemon=True)
    writer.start()
    #: stream_id -> (its open's ticket, its chunks not known answered)
    sessions: Dict[str, Tuple[Ticket, "deque[Ticket]"]] = {}
    for line in stream_in:
        if not line.strip():
            continue
        request = decode_line(line)
        sid = request.get("stream_id")
        if request.get("op") != "stream" or not isinstance(sid, str):
            sid = None
        action = request.get("action")
        if action == "chunk" and sid in sessions:
            opened, chunks = sessions[sid]
            answer = opened.result()
            window = answer.result["stream_window"] if answer.ok else 1
            while len(chunks) >= window:
                chunks.popleft().result()
        room.acquire()
        ticket = safe_submit(backend, request)
        owed.put(ticket)
        if sid is None:
            continue
        if action == "open":
            sessions[sid] = (ticket, deque())
        elif action == "chunk" and sid in sessions:
            sessions[sid][1].append(ticket)
        elif action == "close":
            sessions.pop(sid, None)
    owed.put(None)
    writer.join()
    return 1 if broken else 0


def _run_frontend(backend: ServingBackend, host: str, port: int) -> int:
    """Serve HTTP+NDJSON on a socket until interrupted; the frontend's
    shutdown drains the backend before the last byte is written."""
    frontend = ServingFrontend(backend, host=host, port=port)
    bound_host, bound_port = frontend.address
    print(f"serving on http://{bound_host}:{bound_port} "
          "(POST / | GET /metrics | GET /healthz | raw NDJSON lines; "
          "Ctrl-C stops)",
          file=sys.stderr)
    frontend.serve_forever()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Micro-batching prediction/simulation service: "
        "line-delimited JSON on stdin/stdout, or an HTTP+NDJSON "
        "socket endpoint, optionally sharded across worker processes.",
    )
    parser.add_argument("--http", type=int, default=None, metavar="PORT",
                        help="serve HTTP+NDJSON on HOST:PORT instead of "
                        "NDJSON on stdio (0 picks a free port)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address for --http "
                        "(default 127.0.0.1; 0.0.0.0 for all interfaces)")
    parser.add_argument("--workers", type=int, default=1,
                        help="shard the service across N worker "
                        "processes (1 = in-process service)")
    parser.add_argument("--max-queue", type=int, default=1024,
                        help="admission queue capacity (work items)")
    parser.add_argument("--batch-size", type=int, default=32,
                        help="micro-batch size watermark")
    parser.add_argument("--flush-ms", type=float, default=2.0,
                        help="micro-batch latency watermark (ms)")
    parser.add_argument("--deadline-ms", type=float, default=1000.0,
                        help="default per-request deadline (ms)")
    parser.add_argument("--lru", type=int, default=4096,
                        help="in-memory answer cache size in points: the "
                        "service's LRU, and with --workers > 1 each "
                        "worker's and the router's (0 disables them)")
    parser.add_argument("--parallel", type=int, default=1,
                        help="worker processes per flush (run_grid pool)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="skip the on-disk memo cache")
    parser.add_argument("--max-streams", type=int, default=8,
                        help="open stream sessions allowed at once "
                        "(op='stream'; 0 disables streaming)")
    parser.add_argument("--stream-window", type=int, default=8,
                        help="in-flight chunks allowed per stream "
                        "session before shedding (429)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics table to stderr on exit")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="write the metrics manifest JSON")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")

    backend = _build_backend(args)
    try:
        if args.http is not None:
            status = _run_frontend(backend, args.host, args.http)
        else:
            status = _run_ndjson(backend, sys.stdin, sys.stdout)
    finally:
        backend.close()
        if args.metrics:
            print(metrics_table(backend), file=sys.stderr)
        if args.manifest:
            write_serving_manifest(backend, args.manifest)
    return status


if __name__ == "__main__":
    sys.exit(main())
