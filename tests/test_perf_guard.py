"""Opt-in perf-regression gate (``-m perf_guard``).

Deselected by default (see ``addopts`` in pyproject.toml) because it
depends on ``BENCH_cycle_engine.json``, which only exists after running
``pytest benchmarks/test_perf_cycle_engine.py``.  Run explicitly with::

    python -m pytest -m perf_guard tests/test_perf_guard.py
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "perf_guard", ROOT / "tools" / "perf_guard.py"
)
perf_guard = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_guard)


@pytest.mark.perf_guard
class TestPerfGuard:
    def test_current_run_within_budget(self, capsys):
        if not perf_guard.CURRENT.is_file():
            pytest.skip("no BENCH_cycle_engine.json — run the benchmark "
                        "first")
        assert perf_guard.main([]) == 0
        assert "perf_guard" in capsys.readouterr().out

    def test_compare_flags_regression(self):
        base = {"benchmark": "cycle_engine", "machine": "Cray J90",
                "n": 65536, "k": 65536, "telemetry": "off",
                "event_seconds": 0.1}
        slow = dict(base, event_seconds=0.35)
        with pytest.raises(SystemExit, match="PERF REGRESSION"):
            perf_guard.compare(slow, base, max_ratio=2.0)
        assert perf_guard.compare(
            dict(base, event_seconds=0.15), base, max_ratio=2.0
        ).startswith("ok")

    def test_compare_skips_changed_workload(self):
        base = {"benchmark": "cycle_engine", "machine": "Cray J90",
                "n": 65536, "k": 65536, "telemetry": "off",
                "event_seconds": 0.1}
        other = dict(base, n=1024, event_seconds=99.0)
        assert "workload changed" in perf_guard.compare(other, base, 2.0)

    def test_compare_rejects_telemetry_on(self):
        # The gated hot path must keep the opt-in counters off.
        base = {"benchmark": "cycle_engine", "machine": "Cray J90",
                "n": 65536, "k": 65536, "telemetry": "off",
                "event_seconds": 0.1}
        hot = dict(base, telemetry="on")
        with pytest.raises(SystemExit, match="telemetry"):
            perf_guard.compare(hot, base, 2.0)
        # Pre-telemetry baselines (no field) still compare cleanly.
        legacy = {k: v for k, v in base.items() if k != "telemetry"}
        assert perf_guard.compare(legacy, legacy, 2.0).startswith("ok")

    def test_compare_gates_every_requested_key(self):
        # One slow timing fails the run even if the others are fine.
        base = {"benchmark": "cycle_engine", "machine": "Cray J90",
                "n": 65536, "k": 65536, "telemetry": "off",
                "event_seconds": 0.1, "batch_seconds": 0.005}
        slow_batch = dict(base, batch_seconds=0.05)
        with pytest.raises(SystemExit, match="batch_seconds"):
            perf_guard.compare(slow_batch, base, 2.0,
                               keys=("event_seconds", "batch_seconds"))
        ok = perf_guard.compare(base, base, 2.0,
                                keys=("event_seconds", "batch_seconds"))
        assert "event_seconds" in ok and "batch_seconds" in ok

    def test_compare_skips_key_missing_from_baseline(self):
        # A baseline seeded before a timing existed gates what it has.
        base = {"benchmark": "cycle_engine", "machine": "Cray J90",
                "n": 65536, "k": 65536, "telemetry": "off",
                "event_seconds": 0.1}
        current = dict(base, batch_seconds=99.0)
        verdict = perf_guard.compare(current, base, 2.0,
                                     keys=("event_seconds", "batch_seconds"))
        assert verdict.startswith("ok")
        assert "baseline lacks batch_seconds" in verdict

    def test_benches_cover_every_gated_file(self):
        names = [cur.name for cur, _base, _keys in perf_guard.BENCHES]
        assert "BENCH_cycle_engine.json" in names
        assert "BENCH_banksim.json" in names
        assert "BENCH_serving.json" in names

    def test_serving_bench_gates_hot_path(self):
        keys = {cur.name: keys for cur, _base, keys in perf_guard.BENCHES}
        assert "serving_seconds" in keys["BENCH_serving.json"]

    def test_cycle_bench_gates_fused_grid_pass(self):
        keys = {cur.name: keys for cur, _base, keys in perf_guard.BENCHES}
        assert "grid_fused_seconds" in keys["BENCH_cycle_engine.json"]

    def test_compare_skips_key_missing_from_current(self):
        # A partial benchmark re-run rewrites the file without every
        # gated key; the guard gates what is present.
        base = {"benchmark": "cycle_engine", "machine": "Cray J90",
                "n": 65536, "k": 65536, "telemetry": "off",
                "event_seconds": 0.1, "grid_fused_seconds": 0.01}
        current = {k: v for k, v in base.items()
                   if k != "grid_fused_seconds"}
        verdict = perf_guard.compare(
            current, base, 2.0,
            keys=("event_seconds", "grid_fused_seconds"))
        assert verdict.startswith("ok")
        assert "current run lacks grid_fused_seconds" in verdict

    def test_changed_bounded_n_skips_only_bounded_keys(self):
        # The bounded timings measure another workload now; the
        # unbounded 64K timing did not change and stays gated.
        keys = ("event_seconds", "event_bounded_seconds",
                "batch_bounded_seconds", "grid_bounded_seconds")
        base = {"benchmark": "cycle_engine", "machine": "Cray J90",
                "n": 65536, "k": 65536, "telemetry": "off",
                "bounded_n": 4096, "grid_bounded_rows": 8,
                "event_seconds": 0.1, "event_bounded_seconds": 0.01,
                "batch_bounded_seconds": 0.01, "grid_bounded_seconds": 0.04}
        bigger = dict(base, bounded_n=65536, event_bounded_seconds=1.0,
                      batch_bounded_seconds=1.0, grid_bounded_seconds=4.0)
        verdict = perf_guard.compare(bigger, base, 2.0, keys=keys)
        for key in keys[1:]:
            assert f"{key}: workload changed (bounded_n" in verdict
        assert "event_seconds: 0.100s -> 0.100s" in verdict
        with pytest.raises(SystemExit, match="event_seconds"):
            perf_guard.compare(dict(bigger, event_seconds=0.35), base, 2.0,
                               keys=keys)

    def test_changed_grid_n_skips_only_grid_fused(self):
        keys = ("event_seconds", "batch_bounded_seconds",
                "grid_fused_seconds")
        base = {"benchmark": "cycle_engine", "machine": "Cray J90",
                "n": 65536, "k": 65536, "telemetry": "off",
                "bounded_n": 4096, "grid_points": 64, "grid_n": 256,
                "event_seconds": 0.1, "batch_bounded_seconds": 0.01,
                "grid_fused_seconds": 0.005}
        other = dict(base, grid_n=4096, grid_fused_seconds=0.5)
        verdict = perf_guard.compare(other, base, 2.0, keys=keys)
        assert "grid_fused_seconds: workload changed (grid_n" in verdict
        assert "event_seconds: 0.100s" in verdict
        assert "batch_bounded_seconds: 0.010s" in verdict
        with pytest.raises(SystemExit, match="batch_bounded_seconds"):
            perf_guard.compare(dict(other, batch_bounded_seconds=0.05),
                               base, 2.0, keys=keys)

    def test_every_gated_key_names_its_workload(self):
        for _cur, _base, keys in perf_guard.BENCHES:
            for key in keys:
                assert key in perf_guard.WORKLOAD_KEYS

    def test_cycle_bench_gates_grid_fallback_path(self):
        keys = {cur.name: keys for cur, _base, keys in perf_guard.BENCHES}
        assert "grid_bounded_seconds" in keys["BENCH_cycle_engine.json"]
