"""Selector-frontend tests: both wire protocols on one port, in-order
NDJSON streaming, half-close handling, the write path (answers leave
when ready, batched per loop pass) and the ordered shutdown — in
particular the close-during-flush race: requests already parked in the
micro-batcher when ``shutdown()`` is called must still be answered and
written before the socket closes.
"""

import dataclasses
import json
import queue
import socket
import statistics
import sys
import threading
import time

import pytest

from repro.serving import (
    PredictionService,
    ServeResponse,
    ServingFrontend,
    ShardRouter,
    Ticket,
)

N = 1024


def _request(i, **extra):
    return {"op": "predict", "machine": "toy", "request_id": f"r{i}",
            "pattern": {"kind": "hotspot", "n": N, "k": 2 ** (i % 8 + 1)},
            **extra}


def _recv_all(sock, timeout=60.0):
    sock.settimeout(timeout)
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


def _http_roundtrip(address, raw):
    with socket.create_connection(address) as sock:
        sock.sendall(raw)
        return _recv_all(sock)


@pytest.fixture()
def frontend():
    """A running frontend over an in-process service; the test body
    gets (frontend, service, thread) and shutdown is checked on exit."""
    service = PredictionService(flush_ms=1.0, deadline_ms=None,
                                disk_cache=False)
    fe = ServingFrontend(service)
    thread = threading.Thread(target=fe.serve_forever, daemon=True)
    thread.start()
    yield fe, service, thread
    fe.shutdown()
    thread.join(timeout=60)
    assert not thread.is_alive()


class TestProtocols:
    def test_http_and_ndjson_share_the_port(self, frontend):
        fe, _service, _thread = frontend
        body = json.dumps(_request(3)).encode()
        raw = (b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
               % (len(body), body))
        resp = _http_roundtrip(fe.address, raw)
        head, _, payload = resp.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert json.loads(payload)["status"] == "ok"

        with socket.create_connection(fe.address) as sock:
            sock.sendall(json.dumps(_request(4)).encode() + b"\n")
            sock.shutdown(socket.SHUT_WR)
            lines = _recv_all(sock).splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["request_id"] == "r4"

    def test_ndjson_streams_in_submit_order(self, frontend):
        fe, _service, _thread = frontend
        with socket.create_connection(fe.address) as sock:
            payload = b"".join(
                json.dumps(_request(i)).encode() + b"\n" for i in range(6)
            )
            # an unparsable line still gets its (400) response, in order
            payload += b"this is not json\n"
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            lines = _recv_all(sock).splitlines()
        responses = [json.loads(line) for line in lines]
        assert [r["request_id"] for r in responses[:6]] == \
            [f"r{i}" for i in range(6)]
        assert all(r["status"] == "ok" for r in responses[:6])
        assert responses[6]["status"] == "bad-request"

    def test_ndjson_connection_can_stay_open(self, frontend):
        fe, _service, _thread = frontend
        with socket.create_connection(fe.address) as sock:
            sock.settimeout(60)
            with sock.makefile("rb") as reader:
                for i in range(3):
                    sock.sendall(json.dumps(_request(i)).encode() + b"\n")
                    resp = json.loads(reader.readline())
                    assert resp["request_id"] == f"r{i}"
                    assert resp["status"] == "ok"

    def test_http_list_answers_worst_code(self, frontend):
        fe, _service, _thread = frontend
        body = json.dumps([_request(0), {"op": "nope"}]).encode()
        raw = (b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
               % (len(body), body))
        resp = _http_roundtrip(fe.address, raw)
        head, _, payload = resp.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert [r["status"] for r in json.loads(payload)] == \
            ["ok", "bad-request"]

    def test_http_get_endpoints(self, frontend):
        fe, _service, _thread = frontend
        resp = _http_roundtrip(fe.address, b"GET /healthz HTTP/1.1\r\n\r\n")
        assert json.loads(resp.partition(b"\r\n\r\n")[2]) == {"status": "ok"}
        resp = _http_roundtrip(fe.address, b"GET /metrics HTTP/1.1\r\n\r\n")
        metrics = json.loads(resp.partition(b"\r\n\r\n")[2])
        assert metrics["service"] == "repro.serving.PredictionService"
        resp = _http_roundtrip(fe.address, b"GET /nowhere HTTP/1.1\r\n\r\n")
        assert resp.startswith(b"HTTP/1.1 404")
        resp = _http_roundtrip(fe.address, b"PUT / HTTP/1.1\r\n\r\n")
        assert resp.startswith(b"HTTP/1.1 405")

    def test_http_bad_body_answers_400(self, frontend):
        fe, _service, _thread = frontend
        raw = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json"
        resp = _http_roundtrip(fe.address, raw)
        assert resp.startswith(b"HTTP/1.1 400")

    def test_http_negative_content_length_answers_400(self, frontend):
        fe, _service, _thread = frontend
        body = json.dumps(_request(0)).encode()
        raw = b"POST / HTTP/1.1\r\nContent-Length: -3\r\n\r\n" + body
        resp = _http_roundtrip(fe.address, raw)
        head, _, payload = resp.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert json.loads(payload) == {"error": "bad Content-Length"}

    def test_huge_numeric_request_cannot_kill_the_loop(self, frontend):
        """Regression: ``map_seed=10**400`` used to raise OverflowError
        inside the key hasher, unwind serve_forever, and drop every
        connection.  It must cost exactly one response line, and the
        server must keep answering afterwards."""
        fe, _service, _thread = frontend
        hostile = dict(_request(0), map_seed=10 ** 400)
        with socket.create_connection(fe.address) as sock:
            sock.settimeout(60)
            with sock.makefile("rb") as reader:
                sock.sendall(json.dumps(hostile).encode() + b"\n")
                first = json.loads(reader.readline())
                sock.sendall(json.dumps(_request(1)).encode() + b"\n")
                second = json.loads(reader.readline())
        # The hostile request gets *an* answer (any status) ...
        assert "status" in first
        # ... and the loop survived to serve the next request.
        assert second["request_id"] == "r1"
        assert second["status"] == "ok"

    def test_submit_exception_contained_to_request(self):
        """A backend that raises out of submit() (instead of answering,
        its normal contract) yields a 500-status response for that
        request; the loop and later connections keep working."""

        class _BoobyTrap:
            def submit(self, data):
                raise RuntimeError("kaboom")

            def close(self):
                pass

        fe = ServingFrontend(_BoobyTrap(), metrics=lambda: {})
        thread = threading.Thread(target=fe.serve_forever, daemon=True)
        thread.start()
        try:
            for i in range(2):  # second connection proves the loop lives
                with socket.create_connection(fe.address) as sock:
                    sock.sendall(json.dumps(_request(i)).encode() + b"\n")
                    sock.shutdown(socket.SHUT_WR)
                    lines = _recv_all(sock).splitlines()
                resp = json.loads(lines[0])
                assert resp["status"] == "error"
                assert resp["code"] == 500
                assert "kaboom" in resp["error"]
                assert resp["request_id"] == f"r{i}"
            raw = (b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
            assert _http_roundtrip(fe.address, raw).startswith(
                b"HTTP/1.1 500"
            )
        finally:
            fe.shutdown()
            thread.join(timeout=60)
        assert not thread.is_alive()

    def test_router_backend_serves_router_metrics(self):
        router = ShardRouter(2, flush_ms=1.0, deadline_ms=None,
                             disk_cache=False)
        fe = ServingFrontend(router)
        thread = threading.Thread(target=fe.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(fe.address) as sock:
                sock.sendall(json.dumps(_request(1)).encode() + b"\n")
                sock.shutdown(socket.SHUT_WR)
                lines = _recv_all(sock).splitlines()
            assert json.loads(lines[0])["status"] == "ok"
            resp = _http_roundtrip(fe.address,
                                   b"GET /metrics HTTP/1.1\r\n\r\n")
            metrics = json.loads(resp.partition(b"\r\n\r\n")[2])
            assert metrics["service"] == "repro.serving.ShardRouter"
            assert metrics["workers"] == 2
        finally:
            fe.shutdown()
            thread.join(timeout=60)
        assert not thread.is_alive()


class TestShutdown:
    def test_close_during_flush_answers_everything(self):
        """THE race the rewrite exists for: requests parked in the
        micro-batcher (flush watermark not reached) when shutdown is
        requested are still evaluated, written, and only then does the
        connection close."""
        service = PredictionService(flush_ms=60_000.0, batch_size=100,
                                    deadline_ms=None, disk_cache=False)
        fe = ServingFrontend(service)
        thread = threading.Thread(target=fe.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(fe.address) as sock:
                sock.sendall(b"".join(
                    json.dumps(_request(i)).encode() + b"\n"
                    for i in range(4)
                ))
                # wait until all four are parked in an open batch
                deadline = time.monotonic() + 30
                while service._batcher.pending < 4:
                    assert time.monotonic() < deadline, \
                        "requests never reached the batcher"
                    time.sleep(0.005)
                fe.shutdown()
                lines = _recv_all(sock).splitlines()
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive()
        responses = [json.loads(line) for line in lines]
        assert [r["request_id"] for r in responses] == \
            [f"r{i}" for i in range(4)]
        assert all(r["status"] == "ok" for r in responses)
        assert service.stats().served == 4

    def test_shutdown_stops_accepting(self, frontend):
        fe, _service, thread = frontend
        fe.shutdown()
        thread.join(timeout=60)
        assert not thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(fe.address, timeout=5)

    def test_shutdown_is_idempotent(self, frontend):
        fe, _service, _thread = frontend
        fe.shutdown()
        fe.shutdown()


def _answer(request):
    return ServeResponse(status="ok", code=200, op=request.get("op", ""),
                         engine="", machine="",
                         request_id=request.get("request_id"))


class _Staggered:
    """A backend that answers each pair of requests about 2 ms apart:
    the first at submit, the second from a timer."""

    def __init__(self):
        self.submitted = 0

    def submit(self, request):
        self.submitted += 1
        if self.submitted % 2:
            return Ticket.answered(_answer(request))
        ticket = Ticket(request.get("request_id"))
        timer = threading.Timer(0.002, ticket._resolve, (_answer(request),))
        timer.daemon = True
        timer.start()
        return ticket

    def close(self):
        pass


class _Gated:
    """A backend that holds each ticket for the test to resolve; a
    request with op ``gate`` blocks the loop thread inside ``submit``
    until the test releases it, then is answered at once."""

    def __init__(self):
        self.tickets = []
        self.blocked = threading.Event()
        self.release = threading.Event()

    def submit(self, request):
        if request.get("op") == "gate":
            self.blocked.set()
            assert self.release.wait(60)
            return Ticket.answered(_answer(request))
        ticket = Ticket(request.get("request_id"))
        self.tickets.append((ticket, _answer(request)))
        return ticket

    def close(self):
        for ticket, response in self.tickets:
            ticket._resolve(response)


class _Resolver:
    """A backend that answers from ``threads`` threads of its own, each
    answer padded to about ``pad`` bytes; one thread answers in submit
    order."""

    def __init__(self, pad, threads=1):
        self.pad = "x" * pad
        self.submitted = 0
        self._queue = queue.Queue()
        for _ in range(threads):
            threading.Thread(target=self._run, daemon=True).start()

    def _run(self):
        while True:
            ticket, response = self._queue.get()
            ticket._resolve(response)

    def submit(self, request):
        self.submitted += 1
        ticket = Ticket(request.get("request_id"))
        response = dataclasses.replace(_answer(request),
                                       result={"pad": self.pad})
        self._queue.put((ticket, response))
        return ticket

    def close(self):
        pass


class _Unhurried:
    """A selector whose ``select`` ignores its timeout: the loop then
    wakes only for an event, so a lost wake hangs it instead of costing
    one poll interval."""

    def __init__(self, selector):
        self._selector = selector

    def select(self, timeout=None):
        return self._selector.select(None)

    def __getattr__(self, name):
        return getattr(self._selector, name)


@pytest.fixture()
def serve():
    """Start a frontend over a given backend; shut each down on exit."""
    running = []

    def start(backend, unhurried=False):
        fe = ServingFrontend(backend, metrics=lambda: {})
        if unhurried:
            fe._selector = _Unhurried(fe._selector)
        thread = threading.Thread(target=fe.serve_forever, daemon=True)
        thread.start()
        running.append((fe, thread))
        return fe

    yield start
    for fe, thread in running:
        fe.shutdown()
        thread.join(timeout=60)
        assert not thread.is_alive()


@pytest.fixture()
def sends(monkeypatch):
    """Every ``socket.send`` in this process, logged before it runs:
    [socket, bytes offered, bytes taken (-1 until it returns, and when
    the buffer was full)]."""
    log = []
    real = socket.socket.send

    def send(sock, data, *args):
        entry = [sock, len(data), -1]
        log.append(entry)
        entry[2] = real(sock, data, *args)
        return entry[2]

    monkeypatch.setattr(socket.socket, "send", send)
    return log


def _median_round_ms(address, rounds=20):
    """Median of ``rounds`` stop-and-wait rounds: send two pipelined
    lines, read both answers."""
    times = []
    with socket.create_connection(address) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(60)
        with sock.makefile("rb") as reader:
            for r in range(rounds):
                ids = [f"r{2 * r}", f"r{2 * r + 1}"]
                t0 = time.perf_counter()
                sock.sendall(b"".join(
                    json.dumps(_request(i % 2, request_id=rid)).encode()
                    + b"\n" for i, rid in enumerate(ids)))
                got = [json.loads(reader.readline())["request_id"]
                       for _ in ids]
                times.append(time.perf_counter() - t0)
                assert got == ids
    return statistics.median(times) * 1000.0


class TestWritePath:
    def test_accepted_sockets_turn_nagle_off(self, frontend):
        fe, _service, _thread = frontend
        with socket.create_connection(fe.address) as sock:
            sock.settimeout(60)
            with sock.makefile("rb") as reader:
                sock.sendall(json.dumps(_request(0)).encode() + b"\n")
                assert json.loads(reader.readline())["status"] == "ok"
            conns = list(fe._conns)
            assert len(conns) == 1
            assert conns[0].getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY)

    def test_pipelined_pair_is_not_held(self, frontend):
        """Two lines answered at once from the LRU: a send behind an
        unacknowledged one would wait out the peer's delayed ACK."""
        fe, _service, _thread = frontend
        assert _median_round_ms(fe.address) < 20.0

    def test_answers_ready_apart_are_not_held(self, serve):
        """Answers resolving 2 ms apart leave in two sends; only Nagle
        off keeps the second from waiting for the first's ACK."""
        fe = serve(_Staggered())
        assert _median_round_ms(fe.address) < 20.0

    def test_one_send_and_one_wake_per_loop_pass(self, serve, sends):
        backend = _Gated()
        fe = serve(backend)
        with socket.create_connection(fe.address) as sock:
            sock.settimeout(60)
            sock.sendall(b"".join(
                json.dumps(_request(i, op=op)).encode() + b"\n"
                for i, op in enumerate(["predict", "predict", "gate"])))
            # The loop is inside the gate's submit: answers completed
            # now wait for one flush at the end of this loop pass.
            assert backend.blocked.wait(60)
            for ticket, response in backend.tickets:
                ticket._resolve(response)
            backend.release.set()
            with sock.makefile("rb") as reader:
                lines = [reader.readline() for _ in range(3)]
            assert [json.loads(line)["request_id"] for line in lines] \
                == ["r0", "r1", "r2"]
            answers = [entry for entry in sends
                       if entry[0] is not fe._wake_w]
            wakes = [entry for entry in sends if entry[0] is fe._wake_w]
        # One send offered all three answers; one completion woke the
        # loop.
        assert [offered for _sock, offered, _taken in answers] \
            == [sum(map(len, lines))]
        assert len(wakes) == 1

    def test_slow_reader_gets_every_answer_once_in_order(self, serve,
                                                         sends):
        """Answers of 16 KB to 500 pipelined lines overrun the socket
        buffers of a reader that reads nothing until all are owed, so
        coalesced buffers go out in parts."""
        backend = _Resolver(pad=16_000)
        fe = serve(backend)
        count = 500
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(fe.address)
            sock.settimeout(60)
            sock.sendall(b"".join(json.dumps(_request(i)).encode() + b"\n"
                                  for i in range(count)))
            sock.shutdown(socket.SHUT_WR)
            deadline = time.monotonic() + 60
            while backend.submitted < count:
                assert time.monotonic() < deadline, "requests not all owed"
                time.sleep(0.01)
            lines = _recv_all(sock).splitlines()
        assert [json.loads(line)["request_id"] for line in lines] == \
            [f"r{i}" for i in range(count)]
        assert any(sent < offered for sock, offered, sent in sends
                   if sock is not fe._wake_w)

    def test_racing_completions_lose_no_wake(self, serve):
        """Stress: four resolver threads on a short switch interval race
        each other and the loop for the completion queue.  The loop
        waits for events with no timeout here, so an answer queued
        without a wake the loop sees hangs the client."""
        fe = serve(_Resolver(pad=0, threads=4), unhurried=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with socket.create_connection(fe.address) as sock:
                sock.settimeout(10)
                with sock.makefile("rb") as reader:
                    for r in range(500):
                        ids = [f"r{8 * r + i}" for i in range(8)]
                        sock.sendall(b"".join(
                            json.dumps(_request(0, request_id=rid)).encode()
                            + b"\n" for rid in ids))
                        assert [json.loads(reader.readline())["request_id"]
                                for _ in ids] == ids
        finally:
            sys.setswitchinterval(interval)
