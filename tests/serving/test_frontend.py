"""Selector-frontend tests: both wire protocols on one port, in-order
NDJSON streaming, half-close handling, and the ordered shutdown — in
particular the close-during-flush race: requests already parked in the
micro-batcher when ``shutdown()`` is called must still be answered and
written before the socket closes.
"""

import json
import socket
import threading
import time

import pytest

from repro.serving import PredictionService, ServingFrontend, ShardRouter

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
