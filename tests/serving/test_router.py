"""Sharded router tests: bit-identity across shard counts, the shared
hot tier, request-key routing, worker-death rebalance, drain semantics.

The load-bearing property is the first one: a :class:`ShardRouter` with
any worker count answers a mixed request stream *byte-identically* to
one in-process :class:`PredictionService` (volatile serving metadata —
``latency_ms``, ``batch``, ``cached`` — excluded, exactly as the
single-process bit-identity tests already treat LRU hits), and leaves
the same entries in the on-disk memo cache.
"""

import json
import time

import pytest

from repro.errors import ParameterError
from repro.serving import (
    PredictionService,
    Ticket,
    ServeRequest,
    ShardRouter,
    SharedHotTier,
    route_digest,
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

    def test_rejects_other_types(self):
        with pytest.raises(ParameterError):
            route_digest(["not", "a", "request"])


class TestSharedHotTier:
    def test_put_get_round_trip(self):
        tier = SharedHotTier(slots=8, slot_bytes=512)
        try:
            key = route_digest(TestRouteDigest.BASE)
            payload = {"status": "ok", "op": "predict", "engine": "x",
                       "machine": "toy", "result": {"v": 1.5}}
            assert tier.get(key) is None
            assert tier.put(key, payload)
            assert tier.get(key) == payload
            assert tier.stats()["hits"] == 1
            assert tier.stats()["misses"] == 1
        finally:
            tier.close()

    def test_oversize_payload_is_skipped(self):
        tier = SharedHotTier(slots=4, slot_bytes=64)
        try:
            key = b"k" * 16
            assert not tier.put(key, {"blob": "x" * 1024})
            assert tier.get(key) is None
            assert tier.stats()["skipped"] == 1
        finally:
            tier.close()

    def test_collision_overwrites(self):
        tier = SharedHotTier(slots=1, slot_bytes=512)
        try:
            tier.put(b"a" * 16, {"v": 1})
            tier.put(b"b" * 16, {"v": 2})     # same (only) slot
            assert tier.get(b"a" * 16) is None
            assert tier.get(b"b" * 16) == {"v": 2}
        finally:
            tier.close()

    def test_attach_sees_creator_writes(self):
        import multiprocessing

        lock = multiprocessing.get_context().Lock()
        tier = SharedHotTier(slots=8, slot_bytes=256, lock=lock)
        try:
            tier.put(b"c" * 16, {"v": 3})
            other = SharedHotTier.attach(tier.name, 8, 256, lock)
            assert other.get(b"c" * 16) == {"v": 3}
            other.close()
        finally:
            tier.close()

    def test_bad_geometry_rejected(self):
        with pytest.raises(ParameterError):
            SharedHotTier(slots=0)
        with pytest.raises(ParameterError):
            SharedHotTier(slot_bytes=0)


class TestRouterLifecycle:
    def test_bad_worker_count_rejected(self):
        with pytest.raises(ParameterError):
            ShardRouter(0)

    def test_non_object_request_answers_400(self):
        """Anything that is not a request is answered, not raised: the
        router refuses it itself, like a bad request."""
        with ShardRouter(2, **_service_kwargs()) as router:
            for junk in (7, [1, 2]):
                resp = router.submit(junk).result(timeout=30)
                assert resp.status == "bad-request" and resp.code == 400
                assert resp.error
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
        # hot tier off: the replay must actually exercise the re-route,
        # not be answered from shared memory
        router = ShardRouter(2, hot_tier_slots=0, **_service_kwargs())
        try:
            first = router.serve(REQUESTS[:4], timeout=120)
            assert all(r.ok for r in first)
            victim = router._procs[0]
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
        router = ShardRouter(2, hot_tier_slots=0, **_service_kwargs())
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
        with ShardRouter(4, hot_tier_slots=0, **_service_kwargs()) \
                as router:
            dup = REQUESTS[0]
            router.serve([dict(dup) for _ in range(12)], timeout=120)
            routed = router.shard_routed()
        assert sum(1 for n in routed if n) == 1   # one home shard
        assert sum(routed) == 12
