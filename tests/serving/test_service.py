"""PredictionService behaviour: admission control, shedding, deadlines,
failure answering, metrics counters and the manifest export.
"""

import json
import time

import pytest

from repro.errors import ParameterError
from repro.serving import (
    SERVING_MANIFEST_SCHEMA,
    SERVING_SCHEMA_VERSION,
    PredictionService,
    ServingStats,
    metrics_table,
    percentile,
    serving_manifest,
    write_serving_manifest,
)

N = 1024

PREDICT = {"op": "predict", "machine": "toy",
           "pattern": {"kind": "hotspot", "n": N, "k": 32}}


def _distinct(i):
    return {"op": "predict", "machine": "toy",
            "pattern": {"kind": "hotspot", "n": N, "k": 2 ** (i % 10 + 1)}}


class TestAdmission:
    def test_full_queue_sheds_with_429(self):
        # flush_ms is huge, so admitted items hold their capacity in the
        # open bucket — the third distinct request must be shed.
        svc = PredictionService(max_queue=2, batch_size=100,
                                flush_ms=60_000.0, deadline_ms=None,
                                disk_cache=False)
        try:
            tickets = [svc.submit(_distinct(i)) for i in range(3)]
            shed = tickets[2].result(timeout=5.0)
            assert shed.status == "overloaded" and shed.code == 429
            assert "queue full" in shed.error
        finally:
            svc.close()
        # close() drained the open bucket: the admitted two still got
        # real answers.
        assert tickets[0].result(5.0).ok
        assert tickets[1].result(5.0).ok
        stats = svc.stats()
        assert stats.shed == 1
        assert stats.queue_high_water == 2

    def test_deadline_expiry_answers_504(self):
        with PredictionService(batch_size=100, flush_ms=50.0,
                               disk_cache=False) as svc:
            resp = svc.call({**_distinct(0), "deadline_ms": 0.001})
        assert resp.status == "deadline-exceeded" and resp.code == 504
        assert svc.stats().expired == 1

    def test_invalid_requests_answer_400(self):
        bad = [
            {"op": "transmogrify", "pattern": {"kind": "uniform", "n": N}},
            {"op": "predict"},                                   # no pattern
            {"op": "predict", "pattern": {"kind": "uniform", "n": N},
             "addresses": [1, 2, 3]},                            # both
            {"op": "predict", "pattern": {"kind": "uniform", "n": N},
             "frobnicate": 1},                                   # unknown field
            {"op": "predict", "machine": "cray-3",
             "pattern": {"kind": "uniform", "n": N}},            # bad machine
            {"op": "predict", "engine": "quantum",
             "pattern": {"kind": "uniform", "n": N}},            # bad engine
            {"op": "predict", "pattern": {"kind": "uniform", "n": N},
             "sweep": {"param": "k", "values": []}},             # empty sweep
            [1, 2],                                              # not an object
        ]
        with PredictionService(disk_cache=False) as svc:
            responses = svc.serve(bad)
        assert all(r.status == "bad-request" and r.code == 400
                   for r in responses)
        assert all(r.error for r in responses)
        assert svc.stats().invalid == len(bad)

    def test_evaluation_failure_answers_500(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr("repro.experiments.runner.run_grid", boom)
        with PredictionService(flush_ms=1.0, disk_cache=False) as svc:
            resp = svc.call(_distinct(0))
        assert resp.status == "error" and resp.code == 500
        assert "engine exploded" in resp.error
        assert svc.stats().failed == 1

    def test_submit_after_close_answers_closed_503(self):
        svc = PredictionService(disk_cache=False)
        svc.close()
        resp = svc.submit(_distinct(0)).result(timeout=5.0)
        # Shutdown is its own status (503), not load shedding (429):
        # a drained service was never "overloaded".
        assert resp.status == "closed" and resp.code == 503
        svc.close()  # idempotent
        stats = svc.stats()
        assert stats.closed == 1 and stats.shed == 0

    def test_disk_cache_follows_the_runner_switch(
        self, isolated_cache, monkeypatch
    ):
        """``disk_cache=True`` uses the runner's memo as the runner is
        configured: with ``REPRO_CACHE=0`` the flush stores nothing."""
        monkeypatch.setenv("REPRO_CACHE", "0")
        with PredictionService(disk_cache=True, flush_ms=1.0) as svc:
            assert svc.call(PREDICT).ok
        assert not isolated_cache.exists() or \
            not any(isolated_cache.iterdir())

    def test_bad_max_queue_rejected(self):
        with pytest.raises(ParameterError):
            PredictionService(max_queue=0)


class TestResponses:
    def test_request_id_echoed(self):
        with PredictionService(disk_cache=False, flush_ms=1.0) as svc:
            resp = svc.call({**PREDICT, "request_id": "abc-123"})
        assert resp.ok and resp.request_id == "abc-123"

    def test_latency_recorded(self):
        with PredictionService(disk_cache=False, flush_ms=1.0) as svc:
            resp = svc.call(PREDICT)
            lat = svc.latencies_ms()
        assert resp.latency_ms > 0.0
        assert len(lat) == 1 and lat[0] == resp.latency_ms

    def test_machine_override_dict(self):
        with PredictionService(disk_cache=False, flush_ms=1.0) as svc:
            resp = svc.call({
                "op": "predict",
                "machine": {"base": "toy", "d": 12.0},
                "pattern": {"kind": "uniform", "n": N},
            })
        assert resp.ok


class TestMetrics:
    def test_counters_add_up(self):
        reqs = [_distinct(i) for i in range(4)] + [dict(PREDICT), dict(PREDICT)]
        with PredictionService(disk_cache=False, flush_ms=1.0) as svc:
            responses = svc.serve(reqs)
            stats = svc.stats()
        assert all(r.ok for r in responses)
        assert stats.received == len(reqs)
        # Every request resolved one way: served from a flush, or from
        # the LRU after the first PREDICT evaluation landed.
        assert stats.served == len(reqs)
        assert stats.batched_requests + stats.lru_hits == len(reqs)
        assert stats.evaluations <= stats.batched_requests
        assert 0.0 <= stats.cache_hit_ratio <= 1.0

    def test_serving_stats_derived_figures(self):
        stats = ServingStats(batches=2, batched_requests=10,
                             lru_hits=5, disk_hits=5)
        assert stats.mean_occupancy == 5.0
        assert stats.cache_hit_ratio == 0.5
        assert ServingStats().mean_occupancy == 0.0
        assert ServingStats().cache_hit_ratio == 0.0
        assert ServingStats().as_dict()["received"] == 0

    def test_manifest_schema_checked(self):
        with PredictionService(disk_cache=False, flush_ms=1.0) as svc:
            svc.call(PREDICT)
            data = serving_manifest(svc)
        assert set(data) == set(SERVING_MANIFEST_SCHEMA)
        assert data["schema_version"] == SERVING_SCHEMA_VERSION
        assert data["received"] == 1 and data["served"] == 1
        assert data["p95_ms"] >= data["p50_ms"] >= 0.0
        assert data["uptime_seconds"] > 0.0

    def test_manifest_rejects_drift(self):
        data = {"schema_version": SERVING_SCHEMA_VERSION}
        from repro.experiments.manifest import validate_manifest
        with pytest.raises(ParameterError, match="missing field"):
            validate_manifest(data, schema=SERVING_MANIFEST_SCHEMA,
                              expected_version=SERVING_SCHEMA_VERSION)

    def test_write_manifest_round_trips(self, tmp_path):
        with PredictionService(disk_cache=False, flush_ms=1.0) as svc:
            svc.call(PREDICT)
            path = write_serving_manifest(svc, tmp_path / "m" / "serve.json")
        data = json.loads(path.read_text())
        assert data["served"] == 1
        assert data["service"] == "repro.serving.PredictionService"

    def test_metrics_table_renders(self):
        with PredictionService(disk_cache=False, flush_ms=1.0) as svc:
            svc.call(PREDICT)
            table = metrics_table(svc)
        assert "serving metrics" in table
        assert "served" in table and "mean_occupancy" in table


class TestPercentile:
    def test_matches_numpy_default_method(self):
        import numpy as np

        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for q in (0.0, 25.0, 50.0, 90.0, 95.0, 100.0):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_edge_cases(self):
        assert percentile([], 95.0) == 0.0
        assert percentile([7.0], 50.0) == 7.0
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


def test_uptime_and_queue_depth():
    with PredictionService(disk_cache=False) as svc:
        time.sleep(0.01)
        assert svc.uptime_seconds() > 0.0
        assert svc.queue_depth() == 0
