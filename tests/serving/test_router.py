"""Sharded router tests: bit-identity across shard counts, the router's
answer cache, request-key routing, worker-death rebalance, drain
semantics.

The load-bearing property is the first one: a :class:`ShardRouter` with
any worker count answers a mixed request stream *byte-identically* to
one in-process :class:`PredictionService` (volatile serving metadata —
``latency_ms``, ``batch``, ``cached`` — excluded, exactly as the
single-process bit-identity tests already treat LRU hits), and leaves
the same entries in the on-disk memo cache.
"""

import dataclasses
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ParameterError
from repro.serving import (
    PredictionService,
    Ticket,
    ServeRequest,
    ServeResponse,
    ShardRouter,
    SharedHotTier,
    route_digest,
    shard,
)
from repro.serving.metrics import router_manifest

N = 1024

#: A deliberately mixed stream: every op, patterns and explicit
#: addresses, a sweep, duplicates, and an invalid request.
REQUESTS = [
    {"op": "predict", "machine": "toy",
     "pattern": {"kind": "hotspot", "n": N, "k": 16}},
    {"op": "compare", "machine": "toy",
     "pattern": {"kind": "uniform", "n": N}},
    {"op": "simulate", "machine": "toy", "engine": "event",
     "pattern": {"kind": "stride", "n": N, "stride": 8}},
    {"op": "predict", "machine": "j90",
     "pattern": {"kind": "zipf", "n": N, "alpha": 1.5}},
    {"op": "predict", "machine": "toy",
     "addresses": list(range(64)) * 4, "request_id": "explicit"},
    {"op": "predict", "machine": "toy",
     "pattern": {"kind": "hotspot", "n": N, "k": 16},
     "request_id": "duplicate-of-first"},
    {"op": "compare", "machine": "toy",
     "pattern": {"kind": "hotspot", "n": N, "k": 4},
     "sweep": {"param": "k", "values": [4, 16]}},
    {"op": "transmogrify"},                       # answers 400
]

#: Serving metadata that legitimately differs between deployments.
VOLATILE = ("latency_ms", "batch", "cached")


def _canon(responses):
    out = []
    for resp in responses:
        d = resp.to_dict()
        for key in VOLATILE:
            d.pop(key)
        out.append(json.dumps(d, sort_keys=True))
    return out


def _service_kwargs():
    return dict(flush_ms=1.0, deadline_ms=None, disk_cache=False)


def _memo_names(cache_dir):
    if not cache_dir.is_dir():
        return set()
    return {p.name for p in cache_dir.rglob("*.pkl")}


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_router_matches_single_service(self, workers):
        with PredictionService(**_service_kwargs()) as svc:
            expected = _canon(svc.serve(REQUESTS, timeout=120))
        with ShardRouter(workers, **_service_kwargs()) as router:
            got = _canon(router.serve(REQUESTS, timeout=120))
        assert got == expected

    def test_hot_tier_replays_are_identical(self):
        """Second pass over the same stream is answered from the shared
        tier (router-side) yet byte-identical to the cold pass."""
        with ShardRouter(2, **_service_kwargs()) as router:
            cold = router.serve(REQUESTS, timeout=120)
            warm = router.serve(REQUESTS, timeout=120)
            stats = router.stats()
        assert _canon(warm) == _canon(cold)
        # every ok response of the second pass came from the hot tier
        ok = sum(1 for r in cold if r.ok)
        assert stats.hot_hits >= ok
        assert all(r.cached for r in warm if r.ok)

    def test_memo_cache_behavior_matches(self, tmp_path, monkeypatch):
        """Sharded and single-process serving leave the same set of
        on-disk memo entries for the same stream."""
        single_dir = tmp_path / "single"
        sharded_dir = tmp_path / "sharded"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(single_dir))
        with PredictionService(flush_ms=1.0, deadline_ms=None) as svc:
            svc.serve(REQUESTS, timeout=120)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(sharded_dir))
        with ShardRouter(2, flush_ms=1.0, deadline_ms=None) as router:
            router.serve(REQUESTS, timeout=120)
        assert _memo_names(single_dir) == _memo_names(sharded_dir)
        assert _memo_names(single_dir)   # the streams did hit the memo


class TestRouteDigest:
    BASE = {"op": "predict", "machine": "toy",
            "pattern": {"kind": "hotspot", "n": N, "k": 16}}

    def test_dict_and_dataclass_agree(self):
        req = ServeRequest(op="predict", machine="toy",
                           pattern={"kind": "hotspot", "n": N, "k": 16})
        assert route_digest(self.BASE) == route_digest(req)

    def test_envelope_fields_are_ignored(self):
        assert route_digest(self.BASE) == route_digest(
            {**self.BASE, "request_id": "r1", "deadline_ms": 5.0}
        )

    def test_result_fields_change_the_digest(self):
        base = route_digest(self.BASE)
        assert base != route_digest({**self.BASE, "machine": "j90"})
        assert base != route_digest(
            {**self.BASE, "pattern": {"kind": "hotspot", "n": N, "k": 4}}
        )
        assert base != route_digest({**self.BASE, "op": "compare"})
        # the service refuses n=1024.0 and answers n=1024
        assert base != route_digest(
            {**self.BASE, "pattern": {"kind": "hotspot", "n": float(N),
                                      "k": 16}}
        )

    def test_omitted_fields_digest_as_the_dataclass_defaults(self):
        defaults = {
            f.name: f.default for f in dataclasses.fields(ServeRequest)
        }
        stream = {"op": "stream", "action": "open", "stream_id": "s"}
        for base, spec in ((self.BASE, shard._ROUTE_FIELDS),
                           (stream, shard._STREAM_ROUTE_FIELDS)):
            for name, _ in spec:
                omitted = {k: v for k, v in base.items() if k != name}
                assert route_digest(omitted) == route_digest(
                    {**omitted, name: defaults[name]}
                ), name

    def test_rejects_other_types(self):
        with pytest.raises(ParameterError):
            route_digest(["not", "a", "request"])

    def test_ignores_the_code_version(self, monkeypatch):
        # Routing keys the question alone: a source edit must not
        # reshuffle shards.
        from repro.experiments import runner
        base = route_digest(self.BASE)
        monkeypatch.setattr(runner, "_code_version", "0" * 16)
        assert route_digest(self.BASE) == base


class TestRouterValidates:
    """The router answers what one service answers, even to a request
    that differs from a cached question only where the service
    validates it."""

    BASE = TestRouteDigest.BASE

    @pytest.mark.parametrize("change", [
        {"pattern": {"kind": "hotspot", "n": float(N), "k": 16}},
        {"pattern": {"kind": "hotspot", "n": N, "k": 16.0}},
        {"typo_field": 1},
        {"deadline_ms": -5},
        {"action": "open"},
        {"request_id": 123},
    ], ids=["float-n", "float-k", "unknown-field", "negative-deadline",
            "action-on-predict", "int-request-id"])
    def test_variant_of_cached_question(self, change):
        variant = {**self.BASE, **change}
        with PredictionService(**_service_kwargs()) as svc:
            assert svc.call(self.BASE, timeout=120).ok
            expected = svc.call(variant, timeout=120)
        with ShardRouter(2, **_service_kwargs()) as router:
            assert router.call(self.BASE, timeout=120).ok
            got = router.call(variant, timeout=120)
            # a call right after a cold call returns is a router hit
            assert router.call(self.BASE, timeout=120).cached
        assert _canon([got]) == _canon([expected])


def _answer(rows=None):
    """An ok response as the router caches it: one point, or a sweep of
    ``rows`` rows."""
    result = {"v": 1.5} if rows is None else {
        "param": "k", "rows": [{"value": i} for i in range(rows)]
    }
    return ServeResponse(status="ok", code=200, op="predict",
                         engine="banksim", machine="toy", result=result)


class TestSharedHotTier:
    def test_put_get_round_trip(self):
        tier = SharedHotTier(8)
        key = route_digest(TestRouteDigest.BASE)
        answer = _answer()
        assert tier.get(key) is None
        assert tier.put(key, answer)
        assert tier.get(key) is answer

    def test_oversize_payload_is_skipped(self):
        """An answer weighs its points, a sweep its rows; one heavier
        than the whole capacity is not stored."""
        tier = SharedHotTier(4)
        assert tier.put(b"p" * 16, _answer())
        assert tier.put(b"s" * 16, _answer(rows=3))
        assert tier.weight == 4
        assert not tier.put(b"x" * 16, _answer(rows=5))
        assert tier.get(b"x" * 16) is None
        # a 2-row sweep evicts the oldest answers until it fits
        assert tier.put(b"t" * 16, _answer(rows=2))
        assert tier.get(b"p" * 16) is None and tier.get(b"s" * 16) is None
        assert tier.weight == 2

    def test_evicts_least_recently_used(self):
        tier = SharedHotTier(2)
        tier.put(b"a" * 16, _answer())
        tier.put(b"b" * 16, _answer())
        assert tier.get(b"a" * 16) is not None    # now the most recent
        tier.put(b"c" * 16, _answer())
        assert tier.get(b"b" * 16) is None
        assert tier.get(b"a" * 16) is not None
        assert tier.get(b"c" * 16) is not None


class TestRouterLifecycle:
    def test_bad_worker_count_rejected(self):
        with pytest.raises(ParameterError):
            ShardRouter(0)

    @pytest.mark.parametrize("kwargs", [
        {"lru": 5}, {"hot_tier_slots": 0}, {"max_queue": 0},
        {"batch_size": 0}, {"flush_ms": -1.0}, {"max_streams": -1},
        {"stream_window": 0},
    ], ids=lambda kw: next(iter(kw)))
    def test_bad_service_settings_rejected_before_fork(self, kwargs,
                                                       monkeypatch):
        """A setting every worker's service would die of is refused in
        the caller, before anything forks."""
        def no_fork(*args):
            raise AssertionError("forked before checking the settings")

        monkeypatch.setattr(shard, "get_context", no_fork)
        with pytest.raises(ParameterError):
            ShardRouter(2, **kwargs)

    def test_non_object_request_answers_400(self):
        """Anything that is not a request is answered, not raised: the
        router refuses it itself, like a bad request."""
        with ShardRouter(2, **_service_kwargs()) as router:
            for junk in (7, [1, 2]):
                resp = router.submit(junk).result(timeout=30)
                assert resp.status == "bad-request" and resp.code == 400
                assert resp.error
            assert router.call(REQUESTS[0], timeout=120).ok

    def test_poison_request_kills_no_worker(self):
        """A request whose admission raises (numpy's MemoryError on a
        10**12-address pattern) answers its own 500 inside the worker;
        neither its home shard nor the survivor it would be resubmitted
        to dies."""
        poison = {"op": "predict", "machine": "j90",
                  "pattern": {"kind": "uniform", "n": 10 ** 12}}
        with ShardRouter(2, **_service_kwargs()) as router:
            resp = router.call(poison, timeout=120)
            assert resp.status == "error" and resp.code == 500
            assert router.live_workers() == 2
            assert router.call(REQUESTS[0], timeout=120).ok

    def test_submit_after_close_answers_closed_503(self):
        router = ShardRouter(2, **_service_kwargs())
        router.close()
        resp = router.call(REQUESTS[0], timeout=30)
        assert resp.status == "closed" and resp.code == 503
        assert router.stats().closed == 1
        router.close()   # idempotent

    def test_close_collects_shard_manifests(self):
        router = ShardRouter(2, **_service_kwargs())
        try:
            responses = router.serve(REQUESTS, timeout=120)
        finally:
            router.close()
        assert sum(1 for r in responses if r.ok) >= 6
        manifest = router_manifest(router)
        assert manifest["workers"] == 2
        assert len(manifest["shards"]) == 2
        assert sum(manifest["shard_routed"]) == manifest["routed"]
        # all forwarded work is accounted for by some shard
        assert sum(s["received"] for s in manifest["shards"]) \
            == manifest["routed"]

    def test_worker_death_rebalances_to_survivor(self):
        # caches off: the replay must actually exercise the re-route,
        # not be answered from the router's cache
        router = ShardRouter(2, lru_size=0, **_service_kwargs())
        try:
            first = router.serve(REQUESTS[:4], timeout=120)
            assert all(r.ok for r in first)
            # Kill a shard that answered some of them, whichever way
            # the digests fell.
            victim = router._procs[
                next(i for i, n in enumerate(router.shard_routed()) if n)
            ]
            victim.terminate()
            victim.join(timeout=30)
            deadline = time.monotonic() + 30
            while router.live_workers() > 1:
                assert time.monotonic() < deadline, "EOF never noticed"
                time.sleep(0.02)
            # every request — including ones whose home shard died —
            # is still answered correctly by the survivor
            replay = router.serve(REQUESTS[:4], timeout=120)
            assert _canon(replay) == _canon(first)
            assert router.stats().rebalanced > 0
        finally:
            router.close()

    def test_dispatch_racing_close_still_resolves(self):
        """Regression: a submission that passed the admission check just
        before close() ran to completion used to land in ``_pending``
        with every reader already joined — nobody left to resolve it,
        so ``result()`` hung forever.  ``_dispatch`` now re-checks
        ``_closing`` under the lock and fails such tickets as closed."""
        router = ShardRouter(2, **_service_kwargs())
        router.close()
        request = dict(REQUESTS[0])
        ticket = Ticket(None)
        router._dispatch([(ticket, route_digest(request), request)])
        resp = ticket.result(timeout=30)
        assert resp.status == "closed" and resp.code == 503
        assert not router._pending

    def test_stranded_requests_count_rebalanced_once(self):
        """Regression: a stranded in-flight request used to bump
        ``rebalanced`` twice — once in bulk at worker exit, then again
        when its resubmission remapped past the dead home shard."""
        router = ShardRouter(2, lru_size=0, **_service_kwargs())
        try:
            request = next(
                req for req in (
                    {"op": "predict", "machine": "toy",
                     "pattern": {"kind": "hotspot", "n": N, "k": k}}
                    for k in range(2, 130)
                )
                if int.from_bytes(route_digest(req)[:8], "big") % 2 == 0
            )
            victim = router._procs[0]
            victim.terminate()
            victim.join(timeout=30)
            deadline = time.monotonic() + 30
            while router.live_workers() > 1:
                assert time.monotonic() < deadline, "EOF never noticed"
                time.sleep(0.02)
            # Plant one in-flight entry homed on the dead shard, then
            # replay the reader's exit path deterministically.
            ticket = Ticket(None)
            with router._lock:
                seq = next(router._seq)
                router._pending[seq] = \
                    (ticket, route_digest(request), request, 0)
            before = router.stats().rebalanced
            router._on_worker_exit(0)
            assert ticket.result(timeout=60).ok
            assert router.stats().rebalanced - before == 1
        finally:
            router.close()

    def test_duplicate_requests_share_one_shard(self):
        with ShardRouter(4, lru_size=0, **_service_kwargs()) as router:
            dup = REQUESTS[0]
            router.serve([dict(dup) for _ in range(12)], timeout=120)
            routed = router.shard_routed()
        assert sum(1 for n in routed if n) == 1   # one home shard
        assert sum(routed) == 12

    def test_concurrent_callers_keep_the_cache_consistent(self):
        """Callers probe while reader threads fill and evict: every
        answer stays right, and the cache weighs exactly its entries."""
        questions = [
            {"op": "predict", "machine": "toy",
             "pattern": {"kind": "hotspot", "n": N, "k": k}}
            for k in (2, 4, 8, 16, 32, 64)
        ]
        with PredictionService(**_service_kwargs()) as svc:
            expected = _canon(svc.serve(questions, timeout=120))

        with ShardRouter(4, lru_size=4, **_service_kwargs()) as router:
            def caller(i):
                return _canon([
                    router.call(questions[(i + j) % 6], timeout=120)
                    for j in range(60)
                ])

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(4) as pool:
                    got = list(pool.map(caller, range(4)))
            finally:
                sys.setswitchinterval(interval)
            tier = router._tier
            with router._lock:
                weights = [w for _value, w in tier._data.values()]
            stats = router.stats()
        for i, answers in enumerate(got):
            assert answers == [expected[(i + j) % 6] for j in range(60)]
        assert tier.weight == sum(weights) <= 4
        assert stats.hot_hits + stats.routed == stats.received == 240
        assert stats.hot_hits and stats.hot_puts
