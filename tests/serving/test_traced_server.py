"""The names ``e2ebench/traced_server.py`` wraps still bind.

The end-to-end bench gets its per-layer spans by replacing module-level
names in ``repro.serving`` before the server starts.  A refactor that
renames or bypasses one of them leaves the bench running but silently
drops that layer's metrics, so this runs the traced server as a stdio
filter and checks that each layer still records its spans in the
process it belongs to.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

LINES = [
    json.dumps({"op": "predict", "machine": "toy",
                "pattern": {"kind": "hotspot", "n": 1024, "k": 16}}),
    json.dumps({"op": "compare", "machine": "toy",
                "pattern": {"kind": "uniform", "n": 1024}}),
]


def _span_names(path):
    return {span[2] for span in json.loads(path.read_text())}


def test_traced_server_records_every_hooked_layer(tmp_path):
    spans = tmp_path / "spans"
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "e2ebench" / "traced_server.py"),
         "--spans", str(spans), "--", "--workers", "2", "--flush-ms", "1",
         "--no-disk-cache"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    out, err = proc.communicate("\n".join(LINES) + "\n", timeout=240)
    assert proc.returncode == 0, err
    assert [json.loads(line)["status"] for line in out.splitlines()] \
        == ["ok", "ok"]
    router_file = spans / f"spans-{proc.pid}.json"
    router = _span_names(router_file)
    assert {"serving.shard.route_digest", "serving.shard.hot_get",
            "serving.shard.hot_put"} <= router
    # The router validates through its own import, so the validate span
    # stays the workers' own.
    assert "serving.request.validate" not in router
    workers = [_span_names(p) for p in spans.glob("spans-*.json")
               if p != router_file]
    assert len(workers) == 2
    assert any("serving.service.submit" in names for names in workers)
    # Tracing the router's cache leaves the workers' LRU untraced.
    assert not any("serving.shard.hot_get" in names for names in workers)
