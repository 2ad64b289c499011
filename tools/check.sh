#!/bin/sh
# Repo gate: static analysis + strict typing + tier-1 tests.
#
#   sh tools/check.sh
#
# Runs, in order: reprolint (always), ruff and mypy (when installed —
# both are optional in the reproduction image), the docs-freshness
# check (docs/api.md must match the live public surface), the tier-1
# pytest suite, the examples smoke run (every examples/*.py must
# execute cleanly), the router and streaming-session smoke runs
# through the NDJSON CLI, then the opt-in perf-regression gate (which
# compares the telemetry-off bench JSONs for the cycle engines, the
# fused whole-grid pass, the bank kernel and the serving hot path
# against their committed baselines, when present).  Exits nonzero on
# the first failure.

set -e
cd "$(dirname "$0")/.."

LINT_PATHS="src tests benchmarks tools"

echo "== reprolint =="
python -m tools.reprolint $LINT_PATHS

echo "== ruff =="
if command -v ruff >/dev/null 2>&1; then
    ruff check $LINT_PATHS
else
    echo "ruff not installed; skipping (config in pyproject.toml)"
fi

echo "== mypy =="
if python -c "import mypy" >/dev/null 2>&1; then
    python -m mypy src/repro/simulator src/repro/mapping \
        src/repro/experiments/runner.py src/repro/experiments/manifest.py
else
    echo "mypy not installed; skipping (config in pyproject.toml)"
fi

echo "== docs freshness =="
PYTHONPATH=src python tools/gen_api_docs.py --check

echo "== pytest (tier 1) =="
# The examples smoke tests run as their own step below.  The slowest
# tests are listed so one that sleeps out a timeout shows in every run.
PYTHONPATH=src python -m pytest -x -q --durations=15 --ignore=tests/test_examples.py

echo "== examples smoke =="
PYTHONPATH=src python -m pytest -x -q tests/test_examples.py

echo "== router smoke =="
# A predict, and a simulate whose capacity-8 queues fill (zipf 1.2
# through h1), so a worker runs the projector's reduced run.
printf '%s\n' \
    '{"op": "predict", "machine": "j90", "pattern": {"kind": "hotspot", "n": 1024, "k": 16}}' \
    '{"op": "simulate", "engine": "event", "machine": {"base": "j90", "queue_capacity": 8}, "bank_map": "h1", "pattern": {"kind": "zipf", "n": 4096, "alpha": 1.2}}' \
    | PYTHONPATH=src python -m repro.serving --workers 2 --flush-ms 1 \
    | grep -c '"status": "ok"' | grep -qx 2
echo "router smoke: ok"

echo "== streaming smoke =="
# Eight chunks against a window of two: the stdio filter must pace the
# session (hold a chunk until the window has room), never shed it.
chunk='{"op": "stream", "action": "chunk", "stream_id": "smoke", "pattern": {"kind": "uniform", "n": 4096}}'
printf '%s\n' \
    '{"op": "stream", "action": "open", "stream_id": "smoke", "machine": "j90"}' \
    "$chunk" "$chunk" "$chunk" "$chunk" "$chunk" "$chunk" "$chunk" "$chunk" \
    '{"op": "stream", "action": "close", "stream_id": "smoke"}' \
    | PYTHONPATH=src python -m repro.serving --flush-ms 1 --stream-window 2 \
    | grep -c '"status": "ok"' | grep -qx 10
# A bounded-queue session: the uniform chunks certify and commit on the
# projector, then 64 requests to one hot address per chunk fill a
# capacity-8 queue, so the session moves into the seeded event world.
uniform='{"op": "stream", "action": "chunk", "stream_id": "bounded", "pattern": {"kind": "uniform", "n": 4096}}'
hot='{"op": "stream", "action": "chunk", "stream_id": "bounded", "pattern": {"kind": "hotspot", "n": 4096, "k": 64}}'
printf '%s\n' \
    '{"op": "stream", "action": "open", "stream_id": "bounded", "machine": {"base": "j90", "queue_capacity": 8}}' \
    "$uniform" "$uniform" "$hot" "$hot" \
    '{"op": "stream", "action": "close", "stream_id": "bounded"}' \
    | PYTHONPATH=src python -m repro.serving --flush-ms 1 \
    | grep -c '"status": "ok"' | grep -qx 6
echo "streaming smoke: ok"

echo "== perf guard =="
if [ -f BENCH_cycle_engine.json ]; then
    PYTHONPATH=src python -m pytest -m perf_guard tests/test_perf_guard.py -q
else
    echo "no BENCH_cycle_engine.json; skipping (run pytest benchmarks/ first)"
fi

echo "check.sh: all gates passed"
