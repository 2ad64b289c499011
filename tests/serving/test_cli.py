"""CLI front-end tests: the NDJSON filter (in-process and as a real
subprocess) and the HTTP endpoint (the selector frontend, in-process
on an ephemeral port).
"""

import io
import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.serving import PredictionService, ServingFrontend
from repro.serving.__main__ import _run_ndjson, main

ROOT = Path(__file__).resolve().parents[2]

N = 1024

LINES = [
    json.dumps({"op": "predict", "machine": "toy",
                "pattern": {"kind": "hotspot", "n": N, "k": 16},
                "request_id": "first"}),
    "",                                     # blank lines are skipped
    "this is not json",                     # must answer 400, not crash
    "[1, 2]",                               # JSON, but not an object
    "7",
    json.dumps({"op": "simulate", "machine": "toy", "engine": "event",
                "pattern": {"kind": "uniform", "n": N},
                "request_id": "last"}),
]


def test_ndjson_in_process():
    out = io.StringIO()
    with PredictionService(disk_cache=False, flush_ms=1.0) as svc:
        status = _run_ndjson(svc, io.StringIO("\n".join(LINES)), out)
    assert status == 0
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(responses) == 5              # blank line produced nothing
    assert responses[0]["status"] == "ok"
    assert responses[0]["request_id"] == "first"
    assert [r["status"] for r in responses[1:4]] == ["bad-request"] * 3
    assert responses[4]["status"] == "ok"
    assert responses[4]["request_id"] == "last"
    assert responses[4]["result"]["simulated_time"] > 0


def test_ndjson_subprocess(tmp_path, isolated_cache):
    manifest_path = tmp_path / "serve-manifest.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serving", "--no-disk-cache",
         "--flush-ms", "1", "--manifest", str(manifest_path), "--metrics"],
        input="\n".join(LINES) + "\n",
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    responses = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["status"] for r in responses] == \
        ["ok", "bad-request", "bad-request", "bad-request", "ok"]
    assert "serving metrics" in proc.stderr
    manifest = json.loads(manifest_path.read_text())
    assert manifest["received"] == 5
    assert manifest["served"] == 2 and manifest["invalid"] == 3


def test_ndjson_subprocess_sharded(tmp_path, isolated_cache):
    """--workers 2 serves the same stdio contract through the router
    and writes the router-variant manifest on exit."""
    manifest_path = tmp_path / "router-manifest.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serving", "--workers", "2",
         "--no-disk-cache", "--flush-ms", "1",
         "--manifest", str(manifest_path), "--metrics"],
        input="\n".join(LINES) + "\n",
        capture_output=True, text=True, timeout=240, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    responses = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["status"] for r in responses] == \
        ["ok", "bad-request", "bad-request", "bad-request", "ok"]
    assert "router metrics" in proc.stderr
    manifest = json.loads(manifest_path.read_text())
    assert manifest["service"] == "repro.serving.ShardRouter"
    assert manifest["workers"] == 2
    assert manifest["received"] == 5
    assert len(manifest["shards"]) == 2
    # every request was answered exactly once: the router refused the
    # three bad lines itself, a shard or the router's cache the rest
    assert manifest["invalid"] == 3
    assert sum(s["received"] for s in manifest["shards"]) \
        + manifest["hot_hits"] + manifest["invalid"] == 5


@pytest.fixture()
def http_server():
    svc = PredictionService(disk_cache=False, flush_ms=1.0)
    frontend = ServingFrontend(svc)
    thread = threading.Thread(target=frontend.serve_forever, daemon=True)
    thread.start()
    host, port = frontend.address
    try:
        yield f"http://{host}:{port}"
    finally:
        frontend.shutdown()   # drains svc via backend.close()
        thread.join(timeout=60)
        assert not thread.is_alive()


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        # Error responses still carry the JSON payload.
        return exc.code, json.loads(exc.read())


def test_http_endpoints(http_server):
    status, body = _post(http_server, {
        "op": "predict", "machine": "toy",
        "pattern": {"kind": "hotspot", "n": N, "k": 8},
    })
    assert status == 200 and body["status"] == "ok"
    assert body["result"]["dxbsp_time"] > 0

    status, body = _post(http_server, [
        {"op": "predict", "machine": "toy",
         "pattern": {"kind": "uniform", "n": N}},
        {"op": "nope"},
    ])
    # a list answers with the worst member's code
    assert status == 400
    assert [r["status"] for r in body] == ["ok", "bad-request"]

    with urllib.request.urlopen(http_server + "/healthz", timeout=30) as resp:
        assert json.loads(resp.read()) == {"status": "ok"}
    with urllib.request.urlopen(http_server + "/metrics", timeout=30) as resp:
        metrics = json.loads(resp.read())
    assert metrics["received"] == 3


def test_http_error_paths(http_server):
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        urllib.request.urlopen(http_server + "/nowhere", timeout=30)
    assert exc_info.value.code == 404

    req = urllib.request.Request(
        http_server, data=b"{not json", method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        urllib.request.urlopen(req, timeout=30)
    assert exc_info.value.code == 400


def test_main_rejects_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--warp-speed"])
    assert exc_info.value.code == 2
