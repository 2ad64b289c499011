"""Stream-session serving tests: open/chunk/close through the
in-process service, the sharded router and the network frontend.

The load-bearing properties: (1) a streamed trace is answered
bit-identically to one-shot simulation of the concatenated addresses —
every chunk response is the exact prefix result; (2) backpressure is
deterministic — a session past its in-flight window sheds with 429
instead of buffering; (3) a worker death mid-stream drops only that
session — rerouted chunks are answered 400 with a reopen hint and the
router keeps serving.
"""

import io
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.serving import (
    PredictionService,
    ServingFrontend,
    ShardRouter,
    route_digest,
    serving_manifest,
)
from repro.serving.__main__ import _run_ndjson
from repro.simulator import (
    CRAY_J90,
    StreamSimulator,
    simulate_scatter,
    simulate_scatter_engine,
    toy_machine,
)

TOY = toy_machine()


def _kwargs(**extra):
    return dict(flush_ms=1.0, deadline_ms=None, disk_cache=False, **extra)


def _open(sid, machine="toy"):
    return {"op": "stream", "action": "open", "stream_id": sid,
            "machine": machine}


def _chunk(sid, addresses):
    return {"op": "stream", "action": "chunk", "stream_id": sid,
            "addresses": list(map(int, addresses))}


def _close(sid):
    return {"op": "stream", "action": "close", "stream_id": sid}


def _trace(n=6000, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 16, size=n, dtype=np.int64)


class TestStreamSessions:
    def test_chunks_answer_exact_prefix_results(self):
        trace = _trace()
        bounds = [0, 1000, 1500, 4096, 6000]
        with PredictionService(**_kwargs()) as svc:
            assert svc.call(_open("s", "toy"), timeout=60).ok
            for lo, hi in zip(bounds, bounds[1:]):
                resp = svc.call(_chunk("s", trace[lo:hi]), timeout=60)
                assert resp.ok and resp.engine == "stream"
                one = simulate_scatter_engine(
                    TOY, trace[:hi], engine="event"
                )
                assert resp.result["n"] == hi
                assert resp.result["simulated_time"] == float(one.time)
                assert resp.result["mean_wait"] == float(one.mean_wait)
                assert resp.result["max_wait"] == float(one.max_wait)
                assert resp.result["max_bank_load"] == \
                    int(one.max_bank_load)
            fin = svc.call(_close("s"), timeout=60)
        one = simulate_scatter_engine(TOY, trace, engine="event")
        assert fin.ok and fin.result["n"] == trace.size
        assert fin.result["simulated_time"] == float(one.time)
        assert fin.result["stalled_cycles"] == float(one.stalled_cycles)
        assert fin.machine == TOY.name
        # The digest is the chunking-invariant prefix identity.
        sim = StreamSimulator(TOY)
        sim.feed(trace)
        assert fin.result["prefix_digest"] == sim.prefix_digest

    def test_stream_answers_are_never_cached(self):
        # The same chunk payload fed twice must advance the stream, not
        # replay the first answer from the LRU or memo.
        addrs = list(range(512))
        with PredictionService(**_kwargs()) as svc:
            assert svc.call(_open("twice"), timeout=60).ok
            first = svc.call(_chunk("twice", addrs), timeout=60)
            second = svc.call(_chunk("twice", addrs), timeout=60)
        assert first.result["n"] == 512 and second.result["n"] == 1024
        assert not first.cached and not second.cached

    def test_session_errors_answer_400(self):
        with PredictionService(**_kwargs(max_streams=1)) as svc:
            assert svc.call(_open("a"), timeout=60).ok
            dup = svc.call(_open("a"), timeout=60)
            assert dup.code == 400 and "already open" in dup.error
            full = svc.call(_open("b"), timeout=60)
            assert full.code == 429
            unknown = svc.call(_chunk("nope", [1, 2]), timeout=60)
            assert unknown.code == 400 and "reopen" in unknown.error
            assert svc.call(_close("a"), timeout=60).ok
            late = svc.call(_chunk("a", [1, 2]), timeout=60)
            assert late.code == 400
            # capacity released: a fresh open (same id) succeeds
            assert svc.call(_open("a"), timeout=60).ok

    def test_request_validation(self):
        with PredictionService(**_kwargs()) as svc:
            bad = [
                {"op": "stream", "action": "pour", "stream_id": "x"},
                {"op": "stream", "action": "open"},  # no stream_id
                {"op": "stream", "action": "open", "stream_id": "x",
                 "addresses": [1]},
                {"op": "stream", "action": "chunk", "stream_id": "x"},
                {"op": "stream", "action": "chunk", "stream_id": "x",
                 "addresses": [1], "deadline_ms": 50},
                {"op": "stream", "action": "chunk", "stream_id": "x",
                 "pattern": {"kind": "uniform", "n": 8},
                 "sweep": {"param": "n", "values": [8, 16]}},
                {"op": "predict", "stream_id": "x",
                 "pattern": {"kind": "uniform", "n": 8}},
            ]
            for req in bad:
                resp = svc.call(req, timeout=60)
                assert resp.code == 400, req

    def test_window_overrun_sheds_deterministically(self, monkeypatch):
        """Backpressure under a slow consumer: with the dispatcher
        parked inside a feed, the window fills and the next chunk is
        shed with 429 — deterministically, no timing involved."""
        entered = threading.Event()
        release = threading.Event()
        orig = StreamSimulator.feed

        def gated(self, addresses):
            entered.set()
            assert release.wait(60)
            return orig(self, addresses)

        monkeypatch.setattr(StreamSimulator, "feed", gated)
        with PredictionService(**_kwargs(stream_window=2)) as svc:
            assert svc.call(_open("w"), timeout=60).ok
            t1 = svc.submit(_chunk("w", [1, 2, 3]))
            assert entered.wait(60)           # dispatcher inside feed
            t2 = svc.submit(_chunk("w", [4, 5, 6]))
            shed = svc.call(_chunk("w", [7, 8, 9]), timeout=60)
            assert shed.status == "overloaded" and shed.code == 429
            assert "window full" in shed.error
            release.set()
            assert t1.result(60).ok and t2.result(60).ok
            # window drained: chunks are admitted again
            assert svc.call(_chunk("w", [10]), timeout=60).ok
            assert svc.stats().shed == 1

    def test_stdio_filter_paces_chunks_to_the_window(self, monkeypatch):
        """The stdio filter holds a chunk while its session has
        ``stream_window`` chunks unanswered: a trace piped in faster
        than the dispatcher feeds it is paced, never shed."""
        orig = StreamSimulator.feed

        def slow(self, addresses):
            time.sleep(0.02)
            return orig(self, addresses)

        monkeypatch.setattr(StreamSimulator, "feed", slow)
        chunks = [_trace(64, seed=s) for s in range(8)]
        lines = [_open("p", "j90")] + [_chunk("p", c) for c in chunks] \
            + [_close("p")]
        out = io.StringIO()
        with PredictionService(disk_cache=False, stream_window=2) as svc:
            _run_ndjson(svc, io.StringIO(
                "\n".join(json.dumps(line) for line in lines)
            ), out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["status"] for r in responses] == ["ok"] * 10
        one = simulate_scatter(CRAY_J90, np.concatenate(chunks))
        assert responses[-1]["result"]["simulated_time"] == float(one.time)

    def test_failed_step_kills_only_its_session(self, monkeypatch):
        boom = RuntimeError("carry state lost")

        def exploding(self, addresses):
            raise boom

        with PredictionService(**_kwargs()) as svc:
            assert svc.call(_open("dead"), timeout=60).ok
            assert svc.call(_open("alive"), timeout=60).ok
            monkeypatch.setattr(StreamSimulator, "feed", exploding)
            failed = svc.call(_chunk("dead", [1]), timeout=60)
            assert failed.code == 500 and "carry state lost" in failed.error
            monkeypatch.undo()
            gone = svc.call(_chunk("dead", [1]), timeout=60)
            assert gone.code == 400
            # the other session and the batched path still work
            assert svc.call(_chunk("alive", [1, 2]), timeout=60).ok
            assert svc.call({"op": "predict", "machine": "toy",
                             "addresses": [1, 2, 3]}, timeout=60).ok

    def test_close_checkpoints_into_runner_memo(self):
        trace = _trace(3000)
        with PredictionService(flush_ms=1.0, deadline_ms=None) as svc:
            assert svc.call(_open("ck"), timeout=60).ok
            svc.call(_chunk("ck", trace), timeout=60)
            fin = svc.call(_close("ck"), timeout=60)
        assert fin.ok and fin.result["checkpoint"] is True
        resumed = StreamSimulator(TOY)
        assert resumed.resume_from_checkpoint(
            fin.result["prefix_digest"], fin.result["n"]
        )
        assert resumed.n == trace.size
        assert resumed.result().time == fin.result["simulated_time"]

    def test_manifest_counts_sessions(self):
        with PredictionService(**_kwargs()) as svc:
            svc.call(_open("m1"), timeout=60)
            svc.call(_chunk("m1", [1, 2]), timeout=60)
            svc.call(_chunk("m1", [3, 4]), timeout=60)
            svc.call(_close("m1"), timeout=60)
            svc.call(_open("m2"), timeout=60)  # left open
            data = serving_manifest(svc)
            svc.close()
        assert data["streams_opened"] == 2
        assert data["stream_chunks"] == 2
        assert data["streams_closed"] == 1
        assert data["max_streams"] == 8
        assert data["stream_window"] == 8


class TestStreamRouting:
    def test_session_affinity_digest(self):
        # Every step of one session routes identically, whatever
        # payload or action it carries.
        digests = {
            route_digest(req) for req in (
                _open("affine", "j90"),
                _chunk("affine", [1, 2, 3]),
                _chunk("affine", list(range(100))),
                {"op": "stream", "action": "chunk", "stream_id": "affine",
                 "pattern": {"kind": "uniform", "n": 64}},
                _close("affine"),
            )
        }
        assert len(digests) == 1
        assert route_digest(_open("other")) not in digests

    def test_streamed_trace_matches_one_shot_through_router(self):
        trace = _trace(8000, seed=3)
        with ShardRouter(2, **_kwargs()) as router:
            assert router.call(_open("rt", "j90"), timeout=120).ok
            for lo in range(0, trace.size, 2000):
                resp = router.call(
                    _chunk("rt", trace[lo:lo + 2000]), timeout=120
                )
                assert resp.ok and resp.result["n"] == lo + 2000
            fin = router.call(_close("rt"), timeout=120)
            assert router.stats().hot_hits == 0
        one = simulate_scatter_engine(CRAY_J90, trace, engine="event")
        assert fin.result["simulated_time"] == float(one.time)
        assert fin.result["mean_wait"] == float(one.mean_wait)

    def test_worker_death_mid_stream_answers_reopen(self):
        with ShardRouter(2, lru_size=0, **_kwargs()) as router:
            opened = router.call(_open("doomed"), timeout=120)
            assert opened.ok
            assert router.call(_chunk("doomed", [1, 2, 3]),
                               timeout=120).ok
            home = int.from_bytes(
                route_digest(_open("doomed"))[:8], "big"
            ) % 2
            victim = router._procs[home]
            victim.terminate()
            victim.join(timeout=30)
            deadline = time.monotonic() + 30
            while router.live_workers() > 1:
                assert time.monotonic() < deadline, "EOF never noticed"
                time.sleep(0.02)
            # The rerouted chunk reaches the survivor, which has no such
            # session: a 400 telling the client to reopen — not a hang,
            # not a wrong answer.
            lost = router.call(_chunk("doomed", [4, 5, 6]), timeout=120)
            assert lost.code == 400 and "reopen" in lost.error
            # The router still serves: reopen + refeed on the survivor,
            # and ordinary requests keep working.
            assert router.call(_open("doomed"), timeout=120).ok
            assert router.call(_chunk("doomed", [1, 2, 3]),
                               timeout=120).ok
            assert router.call({"op": "predict", "machine": "toy",
                                "addresses": [1, 2, 3]}, timeout=120).ok


class TestStreamFrontend:
    def test_ndjson_stream_session_over_socket(self):
        trace = _trace(4000, seed=9)
        service = PredictionService(**_kwargs())
        fe = ServingFrontend(service)
        thread = threading.Thread(target=fe.serve_forever, daemon=True)
        thread.start()
        try:
            lines = [_open("wire", "toy")]
            lines += [_chunk("wire", trace[lo:lo + 1000])
                      for lo in range(0, 4000, 1000)]
            lines.append(_close("wire"))
            payload = b"".join(
                json.dumps(line).encode() + b"\n" for line in lines
            )
            with socket.create_connection(fe.address) as sock:
                sock.sendall(payload)
                sock.shutdown(socket.SHUT_WR)
                sock.settimeout(60)
                data = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            responses = [json.loads(l) for l in data.splitlines()]
            assert [r["status"] for r in responses] == ["ok"] * 6
            # in submit order: open, rolling prefixes, final
            assert responses[0]["result"]["n"] == 0
            assert [r["result"]["n"] for r in responses[1:5]] == \
                [1000, 2000, 3000, 4000]
            one = simulate_scatter_engine(TOY, trace, engine="event")
            assert responses[5]["result"]["simulated_time"] == \
                float(one.time)
        finally:
            fe.shutdown()
            thread.join(timeout=60)
            assert not thread.is_alive()
