"""Selector-based network front end for the serving tier.

One thread, one ``selectors.DefaultSelector``, any number of
connections: :class:`ServingFrontend` replaces the previous
thread-per-connection ``ThreadingHTTPServer`` with a readiness loop
that never blocks on a socket.  Request evaluation stays fully
asynchronous — each accepted request is ``submit()``-ed to the backend
(any :class:`~repro.serving.ServingBackend`: the in-process service or
the sharded router) and its completion callback hands the encoded
response back to the event loop through a self-pipe, so a slow
evaluation never stalls another connection's reads or writes.

The NDJSON intake is two functions shared with the stdio filter of
``python -m repro.serving``: :func:`decode_line` turns one line into a
request, and :func:`safe_submit` submits it so that nothing the backend
raises can escape.

Both wire protocols of ``python -m repro.serving`` are spoken on the
same port, distinguished by the first line a connection sends:

* **HTTP** (first line starts with a method token): ``POST /`` with a
  request object or a list of them, ``GET /metrics`` for the
  schema-checked manifest, ``GET /healthz`` for liveness.  One request
  per connection (``Connection: close``), matching the one-shot
  what-if usage the CLI documents.
* **NDJSON** (anything else): one request object per line, one
  response object per line, *in submit order per connection* — the
  same contract as the stdio filter, now multiplexed across clients.
  A peer may half-close after its last line; buffered lines are still
  answered before the connection closes.

Shutdown is ordered, fixing the old front end's drop-on-exit: stop
accepting, take one final read pass over every connection (lines
already buffered are submitted, not lost), drain the backend
(``backend.close()`` answers every in-flight ticket), flush what the
drain produced, then close.  The close-during-flush race is
property-tested in ``tests/serving/test_frontend.py``.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
from collections import deque
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..errors import ParameterError
from .request import Ticket, failure_response

__all__ = ["ServingFrontend", "decode_line", "safe_submit"]

#: First-line prefixes that mark a connection as HTTP, not NDJSON.
_HTTP_METHODS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ",
                 b"OPTIONS ", b"PATCH ")

#: Per-read chunk size.
_RECV_BYTES = 65536

#: Hard cap on a connection's input buffer; a peer that exceeds it is
#: dropped (backpressure for the single-threaded loop).
_MAX_BUFFER = 16 * 1024 * 1024

#: Per-connection read gate: once this many responses are owed, the
#: loop stops reading the connection until the backend catches up, so a
#: fast writer's bytes back up in the kernel socket buffer (and block
#: the client) instead of accumulating on this process's heap.  This is
#: what lets a multi-gigabyte streamed NDJSON trace pass through the
#: frontend under a bounded memory footprint — see docs/streaming.md.
#: The stdio filter keeps the same bound.
_MAX_INFLIGHT = 256


def decode_line(raw: Union[bytes, str]) -> Dict[str, Any]:
    """Decode one NDJSON request line.

    A line that is not JSON, or is JSON but not an object, becomes a
    request whose ``op`` names the problem: the backend answers it 400
    in its place in the response order, like any other bad request.
    """
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        return {"op": f"<unparsable: {exc}>"}
    if not isinstance(data, dict):
        return {"op": f"<unparsable: not an object: {type(data).__name__}>"}
    return data


def safe_submit(backend: Any, request: Any) -> Ticket:
    """``backend.submit`` that cannot raise.

    A backend *answers* a bad request with a 400 ticket, but a request
    engineered to blow up inside it (e.g. a numeric the key hasher
    chokes on) must cost only that request a 400/500 — never unwind the
    caller's loop: the socket loop shared by every connection, or the
    stdio filter.
    """
    try:
        return backend.submit(request)
    except ParameterError as exc:
        status, error = "bad-request", str(exc)
    except Exception as exc:  # reprolint: disable=REPRO111 -- any submit-time exception must be contained to this request
        status, error = "error", f"{type(exc).__name__}: {exc}"
    return Ticket.answered(failure_response(request, status, error))


class _Conn:
    """Per-connection state: buffers, protocol mode, in-order pending."""

    __slots__ = ("sock", "inbuf", "outbuf", "mode", "pending",
                 "http_head", "closing", "inflight")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        #: ``None`` until the first line arrives, then "http"/"ndjson".
        self.mode: Optional[str] = None
        #: NDJSON tickets in submit order (head answered first).
        self.pending: "deque[Ticket]" = deque()
        #: Parsed HTTP request line + headers, once complete.
        self.http_head: Optional[Tuple[str, str, Dict[str, str]]] = None
        #: No more reads; close once ``outbuf`` and ``inflight`` drain.
        self.closing = False
        #: Responses promised but not yet queued for writing — the
        #: connection may not close while this is non-zero.
        self.inflight = 0


class ServingFrontend:
    """Single-threaded NDJSON/HTTP network front end.

    Parameters
    ----------
    backend:
        A :class:`~repro.serving.ServingBackend` (anything with
        ``submit`` / ``close`` and ticket ``add_done_callback``).  The
        frontend's shutdown *drains* the backend (``backend.close()``)
        but does not own it — callers can still read its metrics
        afterwards.
    host / port:
        Bind address; ``port=0`` picks a free port, discoverable via
        :attr:`address` before the loop starts (used by the tests).
    metrics:
        Zero-arg callable for ``GET /metrics``; defaults to the
        backend's ``manifest``.
    """

    def __init__(
        self,
        backend: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metrics: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self.backend = backend
        self._metrics = metrics if metrics is not None \
            else backend.manifest
        self._listener = socket.create_server(
            (host, port), reuse_port=False
        )
        self._listener.setblocking(False)
        self.address: Tuple[str, int] = \
            self._listener.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._selector.register(
            self._listener, selectors.EVENT_READ, "listener"
        )
        # Self-pipe: completion callbacks (arbitrary threads) and
        # shutdown() wake the selector loop with one byte.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(
            self._wake_r, selectors.EVENT_READ, "wake"
        )
        self._conns: Dict[socket.socket, _Conn] = {}
        #: (conn, payload) pairs queued by completion callbacks.
        self._completed: "deque[Tuple[_Conn, bytes]]" = deque()
        self._lock = threading.Lock()
        self._shutdown = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the readiness loop until :meth:`shutdown` (any thread)
        or ``KeyboardInterrupt``; both take the orderly-drain exit."""
        try:
            while True:
                with self._lock:
                    if self._shutdown:
                        break
                for key, events in self._selector.select(timeout=1.0):
                    if key.data == "listener":
                        self._accept()
                    elif key.data == "wake":
                        self._drain_wake()
                    else:
                        conn = self._conns.get(key.fileobj)  # type: ignore[call-overload]
                        if conn is None:
                            continue
                        try:
                            if events & selectors.EVENT_READ:
                                self._on_readable(conn)
                            if events & selectors.EVENT_WRITE:
                                self._on_writable(conn)
                        except Exception:  # reprolint: disable=REPRO111 -- a protocol bug on one connection must not take the shared loop (and every other connection) down
                            self._close_conn(conn)
                self._flush_completed()
        except KeyboardInterrupt:  # reprolint: disable=REPRO112 -- Ctrl-C is the documented stop; the drain below answers everything in flight
            pass
        finally:
            self._drain_and_close()

    def shutdown(self) -> None:
        """Request an orderly drain-and-exit; safe from any thread.
        Returns immediately — :meth:`serve_forever` unwinds."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        self._wake()

    def _drain_and_close(self) -> None:
        """The ordered shutdown: stop accepting -> final read pass ->
        drain the backend -> flush -> close."""
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):  # reprolint: disable=REPRO112 -- already unregistered; shutdown is idempotent
            pass
        self._listener.close()
        # Final read pass: lines a client wrote before we stopped are
        # part of this serve, not casualties of it.
        for conn in list(self._conns.values()):
            self._on_readable(conn, final=True)
        # Drain: backend.close() blocks until every queued work item
        # has an answer; completion callbacks fire into _completed.
        self.backend.close()
        self._flush_completed()
        # Flush: blocking writes now — the loop is over, and every
        # buffered byte is an answered request.
        for conn in list(self._conns.values()):
            try:
                conn.sock.setblocking(True)
                if conn.outbuf:
                    conn.sock.sendall(bytes(conn.outbuf))
                    conn.outbuf.clear()
            except OSError:  # reprolint: disable=REPRO112 -- peer gone mid-drain; its responses have nowhere to go
                pass
            self._close_conn(conn, unregister=False)
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()

    # ------------------------------------------------------------------
    # selector plumbing
    # ------------------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except (BlockingIOError, OSError):  # reprolint: disable=REPRO112 -- pipe full means a wake-up is already pending; closed means the loop already exited
            pass

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):  # reprolint: disable=REPRO112 -- drained, or already closed by shutdown
            pass

    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        conn = _Conn(sock)
        self._conns[sock] = conn
        self._selector.register(sock, selectors.EVENT_READ, "conn")

    def _interest(self, conn: _Conn) -> None:
        """(Loop thread.)  Point the selector at what the connection
        needs now; close it once nothing remains — no reads coming, no
        bytes to write, no responses still owed.  Reads pause while the
        connection is owed ``_MAX_INFLIGHT`` responses (backpressure);
        the completion wake-up re-arms them through
        :meth:`_flush_completed`."""
        if conn.sock not in self._conns:
            return
        with self._lock:
            gated = conn.inflight >= _MAX_INFLIGHT
        events = 0
        if not conn.closing and not gated:
            events |= selectors.EVENT_READ
        if conn.outbuf:
            events |= selectors.EVENT_WRITE
        if not events:
            with self._lock:
                owed = conn.inflight
                if owed == 0 and self._completed:
                    # A completion callback may have queued this
                    # connection's last payload between our caller and
                    # here; claim it now or closing would drop it.
                    kept: "deque[Tuple[_Conn, bytes]]" = deque()
                    for other, payload in self._completed:
                        if other is conn:
                            conn.outbuf += payload
                        else:
                            kept.append((other, payload))
                    self._completed = kept
            if conn.outbuf:
                self._interest(conn)
                return
            if owed == 0:
                self._close_conn(conn)
            else:
                # Waiting purely on backend completions: drop selector
                # interest entirely (a half-closed socket would spin
                # the loop otherwise); the completion wake re-arms us.
                try:
                    self._selector.unregister(conn.sock)
                except (KeyError, ValueError):  # reprolint: disable=REPRO112 -- already unregistered
                    pass
            return
        try:
            self._selector.modify(conn.sock, events, "conn")
        except (KeyError, ValueError):  # reprolint: disable=REPRO112 -- interest was dropped while waiting; re-arm
            try:
                self._selector.register(conn.sock, events, "conn")
            except (KeyError, ValueError):  # reprolint: disable=REPRO112 -- selector already closed (drain path)
                pass

    def _close_conn(self, conn: _Conn, unregister: bool = True) -> None:
        self._conns.pop(conn.sock, None)
        if unregister:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):  # reprolint: disable=REPRO112 -- never registered or already gone
                pass
        try:
            conn.sock.close()
        except OSError:  # reprolint: disable=REPRO112 -- close is best-effort
            pass

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _on_readable(self, conn: _Conn, final: bool = False) -> None:
        while True:
            try:
                chunk = conn.sock.recv(_RECV_BYTES)
            except BlockingIOError:
                break
            except OSError:
                self._close_conn(conn)
                return
            if not chunk:
                # Peer half-closed: finish what's buffered, answer
                # what's owed, then close.
                conn.closing = True
                break
            conn.inbuf.extend(chunk)
            if len(conn.inbuf) > _MAX_BUFFER:
                self._close_conn(conn)
                return
            if final:
                break  # one pass; the loop is exiting
        self._parse(conn)
        if not final:
            self._interest(conn)

    def _parse(self, conn: _Conn) -> None:
        if conn.mode is None and (b"\n" in conn.inbuf or conn.closing):
            first = bytes(conn.inbuf.split(b"\n", 1)[0])
            conn.mode = (
                "http"
                if first.startswith(_HTTP_METHODS) else "ndjson"
            )
        if conn.mode == "http":
            self._parse_http(conn)
        elif conn.mode == "ndjson":
            self._parse_ndjson(conn)

    # -- NDJSON --------------------------------------------------------

    def _submit_ndjson(self, conn: _Conn, raw: bytes) -> None:
        request = decode_line(raw)
        with self._lock:
            conn.inflight += 1
        ticket = safe_submit(self.backend, request)
        conn.pending.append(ticket)
        ticket.add_done_callback(lambda _t, c=conn: self._ndjson_done(c))

    def _parse_ndjson(self, conn: _Conn) -> None:
        # One split per read pass: a burst of N buffered lines costs
        # O(buffer), not the O(buffer * N) of re-copying per line.
        if b"\n" in conn.inbuf:
            *lines, tail = bytes(conn.inbuf).split(b"\n")
            conn.inbuf = bytearray(tail)
            for line in lines:
                if line.strip():
                    self._submit_ndjson(conn, line.strip())
        # EOF with a trailing unterminated line: treat it as a line.
        if conn.closing and conn.inbuf.strip():
            leftover = bytes(conn.inbuf).strip()
            conn.inbuf = bytearray()
            self._submit_ndjson(conn, leftover)

    def _ndjson_done(self, conn: _Conn) -> None:
        """Completion callback (any thread): queue writable head
        responses for the loop and wake it.  Responses leave in submit
        order — only the head of the pending deque may be written."""
        payload = bytearray()
        with self._lock:
            while conn.pending and conn.pending[0].response is not None:
                ticket = conn.pending.popleft()
                conn.inflight -= 1
                payload += json.dumps(
                    ticket.response.to_dict(), sort_keys=True
                ).encode() + b"\n"
            if payload:
                self._completed.append((conn, bytes(payload)))
        if payload:
            self._wake()

    # -- HTTP ----------------------------------------------------------

    def _parse_http(self, conn: _Conn) -> None:
        if conn.http_head is None:
            if b"\r\n\r\n" in conn.inbuf:
                head, _, rest = bytes(conn.inbuf).partition(b"\r\n\r\n")
            elif b"\n\n" in conn.inbuf:
                head, _, rest = bytes(conn.inbuf).partition(b"\n\n")
            else:
                return  # headers not complete yet
            conn.inbuf = bytearray(rest)
            lines = head.decode("latin-1").splitlines()
            parts = lines[0].split()
            if len(parts) < 2:
                self._http_reply(conn, 400,
                                 {"error": "malformed request line"})
                return
            headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            conn.http_head = (parts[0], parts[1], headers)
        method, path, headers = conn.http_head
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._http_reply(conn, 400, {"error": "bad Content-Length"})
            return
        if len(conn.inbuf) < length:
            return  # body not complete yet
        body = bytes(conn.inbuf[:length])
        conn.inbuf = bytearray(conn.inbuf[length:])
        self._http_dispatch(conn, method, path, body)

    def _http_dispatch(self, conn: _Conn, method: str, path: str,
                       body: bytes) -> None:
        if method == "GET":
            if path == "/healthz":
                self._http_reply(conn, 200, {"status": "ok"})
            elif path == "/metrics":
                self._http_reply(conn, 200, self._metrics())
            else:
                self._http_reply(
                    conn, 404, {"error": f"unknown path {path!r}"}
                )
            return
        if method != "POST":
            self._http_reply(
                conn, 405, {"error": f"method {method} not allowed"}
            )
            return
        try:
            data = json.loads(body or b"null")
        except json.JSONDecodeError as exc:
            self._http_reply(conn, 400,
                             {"error": f"bad JSON body: {exc}"})
            return
        if isinstance(data, list):
            if not data:
                self._http_reply(conn, 200, [])
                return
            with self._lock:
                conn.inflight += 1
            tickets = [safe_submit(self.backend, item) for item in data]
            state = {"left": len(tickets)}

            def _one_done(_t: Any) -> None:
                with self._lock:
                    state["left"] -= 1
                    done = state["left"] == 0
                if done:
                    responses = [t.response for t in tickets]
                    worst = max((r.code for r in responses), default=200)
                    self._http_complete(
                        conn, worst, [r.to_dict() for r in responses]
                    )

            for ticket in tickets:
                ticket.add_done_callback(_one_done)
        else:
            with self._lock:
                conn.inflight += 1
            ticket = safe_submit(self.backend, data)
            ticket.add_done_callback(
                lambda t, c=conn: self._http_complete(
                    c, t.response.code, t.response.to_dict()
                )
            )

    def _http_encode(self, code: int, payload: Any) -> bytes:
        body = json.dumps(payload, sort_keys=True).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 429: "Too Many Requests",
                  500: "Internal Server Error",
                  503: "Service Unavailable",
                  504: "Gateway Timeout"}.get(code, "Status")
        head = (
            f"HTTP/1.1 {code} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        return head + body

    def _http_reply(self, conn: _Conn, code: int, payload: Any) -> None:
        """Immediate (loop-thread) HTTP response."""
        conn.outbuf += self._http_encode(code, payload)
        conn.closing = True
        self._interest(conn)

    def _http_complete(self, conn: _Conn, code: int,
                       payload: Any) -> None:
        """Completion callback (any thread): queue the full HTTP
        response for the loop and wake it."""
        conn.closing = True
        with self._lock:
            conn.inflight -= 1
            self._completed.append(
                (conn, self._http_encode(code, payload))
            )
        self._wake()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _flush_completed(self) -> None:
        """Move callback-queued payloads into their connections'
        output buffers (loop thread only)."""
        while True:
            with self._lock:
                if not self._completed:
                    return
                conn, payload = self._completed.popleft()
            if conn.sock not in self._conns:
                continue  # connection died before its answer arrived
            conn.outbuf += payload
            self._on_writable(conn)

    def _on_writable(self, conn: _Conn) -> None:
        while conn.outbuf:
            try:
                sent = conn.sock.send(bytes(conn.outbuf))
            except BlockingIOError:
                break
            except OSError:
                self._close_conn(conn)
                return
            if sent <= 0:
                break
            del conn.outbuf[:sent]
        self._interest(conn)
