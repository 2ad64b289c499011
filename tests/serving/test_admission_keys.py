"""Admission details: each served point is keyed once, and a mistyped
deadline or a pattern the library refuses is the client's 400 on both
backends."""

import pytest

from repro.errors import ParameterError, PatternError
from repro.experiments import runner
from repro.serving import PredictionService, ShardRouter
from repro.serving.service import evaluate_point
from repro.simulator import simulate_scatter, toy_machine

N = 1024

BASE = {"op": "predict", "machine": "toy",
        "pattern": {"kind": "hotspot", "n": N, "k": 16}}


def _memo_names(cache_dir):
    if not cache_dir.is_dir():
        return set()
    return {p.name for p in cache_dir.rglob("*.pkl")}


class TestKeyedOnce:
    @pytest.mark.parametrize("request_, points", [
        (BASE, 1),
        ({**BASE, "sweep": {"param": "k", "values": [2, 4, 8, 16]}}, 4),
    ], ids=["point", "sweep"])
    def test_one_cache_key_per_cold_point(self, isolated_cache,
                                          monkeypatch, request_, points):
        # Admission keys each point for the LRU; the disk probe and the
        # flush's run_grid reuse that key instead of hashing again.
        keys = []
        real_key = runner.cache_key

        def counting(fn, kwargs):
            key = real_key(fn, kwargs)
            keys.append(key)
            return key

        monkeypatch.setattr(runner, "cache_key", counting)
        with PredictionService(disk_cache=True, flush_ms=1.0,
                               deadline_ms=None) as svc:
            assert svc.call(request_, timeout=120).ok
        assert len(keys) == points
        # The memo holds one entry per point, under that same key.
        assert _memo_names(isolated_cache) == {f"{k}.pkl" for k in keys}
        monkeypatch.setattr(runner, "cache_key", real_key)
        for key in keys:
            hit, _ = runner.cache_fetch(evaluate_point, {}, key)
            assert hit

    def test_run_grid_refuses_a_key_count_mismatch(self):
        with pytest.raises(ParameterError, match="keys"):
            runner.run_grid(evaluate_point, [{}, {}], keys=["a"])


class TestMistypedDeadline:
    @pytest.mark.parametrize("deadline", ["5", True, float("nan")],
                             ids=["string", "bool", "nan"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_answers_400(self, deadline, workers):
        request = {**BASE, "deadline_ms": deadline}
        kwargs = dict(flush_ms=1.0, deadline_ms=None, disk_cache=False)
        backend = (PredictionService(**kwargs) if workers == 1
                   else ShardRouter(workers, **kwargs))
        with backend:
            resp = backend.call(request, timeout=120)
            assert backend.call(BASE, timeout=120).ok
        assert resp.code == 400 and resp.status == "bad-request"
        assert "deadline_ms" in resp.error


def _backend(workers):
    kwargs = dict(flush_ms=1.0, deadline_ms=None, disk_cache=False)
    return (PredictionService(**kwargs) if workers == 1
            else ShardRouter(workers, **kwargs))


class TestExplicitAddresses:
    @pytest.mark.parametrize("addresses", [[1.5, 2.7], ["3", "4"],
                                           [True, False]],
                             ids=["fraction", "string", "bool"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_refused_as_the_library_refuses_them(self, addresses, workers):
        with pytest.raises(PatternError):
            simulate_scatter(toy_machine(), addresses)
        stream = {"op": "stream", "stream_id": "s"}
        with _backend(workers) as backend:
            one_shot = backend.call({"op": "simulate", "machine": "toy",
                                     "addresses": addresses}, timeout=120)
            assert backend.call({**stream, "action": "open",
                                 "machine": "toy"}, timeout=120).ok
            chunk = backend.call({**stream, "action": "chunk",
                                  "addresses": addresses}, timeout=120)
            # The refused chunk left the session as it was.
            assert backend.call({**stream, "action": "chunk",
                                 "addresses": [1, 2]}, timeout=120).ok
            closed = backend.call({**stream, "action": "close"},
                                  timeout=120)
        for resp in (one_shot, chunk):
            assert resp.code == 400 and resp.status == "bad-request"
            assert "addresses must be integers" in resp.error
        assert closed.ok and closed.result["n"] == 2


class TestPatternInputErrors:
    """A pattern the client got wrong is a 400, not the server's 500."""

    @pytest.mark.parametrize("spec", [
        {"addresses": [-1]},
        {"addresses": [2 ** 70]},
        {"pattern": {"kind": "broadcast", "n": 16, "address": 2 ** 70}},
        {"pattern": {"kind": "uniform", "n": 16, "seed": -1}},
        {"pattern": {"kind": "uniform", "n": 16, "space": 2 ** 70}},
        # base + i * stride wraps int64 to negative addresses.
        {"pattern": {"kind": "stride", "n": 4096, "stride": 2 ** 62}},
    ], ids=["negative", "huge-address", "huge-broadcast", "negative-seed",
            "huge-space", "wrapping-stride"])
    def test_answers_400(self, spec):
        with _backend(1) as svc:
            resp = svc.call({"op": "simulate", "machine": "toy", **spec},
                            timeout=120)
            assert svc.call(BASE, timeout=120).ok
        assert resp.code == 400 and resp.status == "bad-request"
        assert resp.error
        stats = svc.stats()
        assert (stats.invalid, stats.failed) == (1, 0)
