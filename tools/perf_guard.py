#!/usr/bin/env python
"""Guard against simulator performance regressions.

Compares the freshly generated bench files at the repo root against the
previous accepted runs stored next to them as ``*.prev.json``:

* ``BENCH_cycle_engine.json`` (written by
  ``pytest benchmarks/test_perf_cycle_engine.py``) — gates the event
  world stepped alone (``event_seconds``, ``event_bounded_seconds``)
  and the batch projector, which ``engine="event"`` also runs
  (``batch_seconds``, ``batch_bounded_seconds``), on the unbounded
  hot-spot scatter and on the bounded stall path, plus the fused
  whole-grid pass (``grid_fused_seconds``) and a fused grid whose
  bounded rows fall back (``grid_bounded_seconds``);
* ``BENCH_banksim.json`` (written by
  ``pytest benchmarks/test_perf_banksim.py``) — gates the segmented
  FIFO kernel and the closed-form scatter path;
* ``BENCH_serving.json`` (written by
  ``pytest benchmarks/test_perf_serving.py``) — gates the prediction
  service's cached hot path;
* ``BENCH_stream.json`` (written by
  ``pytest benchmarks/test_perf_stream.py``) — gates the chunked
  streaming simulator's sustained throughput.

Exits nonzero if any gated timing slowed down by more than the allowed
factor (default 2x) on the same workload.  Each timing is compared only
when the workload keys it depends on (:data:`WORKLOAD_KEYS`) match the
baseline's; a timing whose workload changed is skipped on its own.

Usage::

    python tools/perf_guard.py             # compare, exit 1 on regression
    python tools/perf_guard.py --update    # accept current runs as baseline
    python tools/perf_guard.py --max-ratio 1.5

Also runnable through pytest as an opt-in marker::

    python -m pytest -m perf_guard tests/test_perf_guard.py

First run (no baseline yet) passes and seeds the baseline.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
from typing import Dict, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
CURRENT = ROOT / "BENCH_cycle_engine.json"
BASELINE = ROOT / "BENCH_cycle_engine.prev.json"

#: Every gated benchmark: (current file, baseline file, timing keys).
BENCHES: Tuple[Tuple[pathlib.Path, pathlib.Path, Tuple[str, ...]], ...] = (
    (CURRENT, BASELINE,
     ("event_seconds", "batch_seconds", "event_bounded_seconds",
      "batch_bounded_seconds", "grid_bounded_seconds",
      "grid_fused_seconds")),
    (ROOT / "BENCH_banksim.json", ROOT / "BENCH_banksim.prev.json",
     ("kernel_seconds", "banksim_seconds")),
    (ROOT / "BENCH_serving.json", ROOT / "BENCH_serving.prev.json",
     ("serving_seconds", "multi_serving_seconds")),
    (ROOT / "BENCH_stream.json", ROOT / "BENCH_stream.prev.json",
     ("stream_seconds",)),
)

#: Keys every timing of a file depends on.
_COMMON_KEYS = ("benchmark", "machine", "telemetry")

#: Each gated timing -> the workload keys it depends on besides
#: ``_COMMON_KEYS``: two runs' timings compare only when these match.
WORKLOAD_KEYS: Dict[str, Tuple[str, ...]] = {
    "event_seconds": ("n", "k"),
    "batch_seconds": ("n", "k"),
    "event_bounded_seconds": ("bounded_n",),
    "batch_bounded_seconds": ("bounded_n",),
    "grid_bounded_seconds": ("bounded_n", "grid_bounded_rows"),
    "grid_fused_seconds": ("grid_points", "grid_n"),
    "kernel_seconds": ("kernel_n",),
    "banksim_seconds": ("n",),
    "serving_seconds": ("n", "requests"),
    "multi_serving_seconds": ("n", "multi_requests", "workers"),
    "stream_seconds": ("n", "chunk", "chunks"),
}


def compare(
    current: dict,
    baseline: dict,
    max_ratio: float,
    keys: Sequence[str] = ("event_seconds",),
) -> str:
    """Return a human-readable verdict; raise SystemExit(1) on regression."""
    # Telemetry counters are strictly opt-in: the guarded hot path must
    # have been benchmarked with them off, otherwise the 2x gate would
    # quietly start tolerating always-on accounting overhead.
    if current.get("telemetry", "off") != "off":
        raise SystemExit(
            "PERF GUARD: benchmark ran with telemetry "
            f"{current.get('telemetry')!r}; the gated hot path must keep "
            "telemetry off (it is an opt-in diagnostic)"
        )
    verdicts = []
    for key in keys:
        changed = [w for w in _COMMON_KEYS + WORKLOAD_KEYS[key]
                   if current.get(w) != baseline.get(w)]
        if changed:
            w = changed[0]
            verdicts.append(
                f"{key}: workload changed ({w}: {baseline.get(w)!r} -> "
                f"{current.get(w)!r}); skipped")
            continue
        if key not in current:
            # A partial re-run (e.g. only the engine benchmark, not the
            # grid-fusion case) rewrites the file without every gated
            # key; gate what is present instead of crashing.
            verdicts.append(f"current run lacks {key}; skipped")
            continue
        if key not in baseline:
            # A baseline predating this timing (e.g. seeded before the
            # batch engine existed) gates the keys it has; --update
            # brings the new key under guard.
            verdicts.append(f"baseline lacks {key}; skipped")
            continue
        now = float(current[key])
        then = float(baseline[key])
        if then <= 0:
            verdicts.append(f"{key}: baseline has no timing; skipped")
            continue
        ratio = now / then
        verdict = (f"{key}: {then:.3f}s -> {now:.3f}s "
                   f"({ratio:.2f}x, limit {max_ratio:.2f}x)")
        if ratio > max_ratio:
            raise SystemExit(f"PERF REGRESSION: {verdict}")
        verdicts.append(verdict)
    return "ok: " + "; ".join(verdicts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail if any gated timing grew by more than "
                             "this factor (default 2.0)")
    parser.add_argument("--update", action="store_true",
                        help="accept the current runs as the new baselines")
    args = parser.parse_args(argv)

    status = 0
    for current_path, baseline_path, keys in BENCHES:
        if not current_path.is_file():
            print(f"perf_guard: {current_path.name} not found — run "
                  "`pytest benchmarks/` first", file=sys.stderr)
            status = 2
            continue
        if not baseline_path.is_file():
            shutil.copy(current_path, baseline_path)
            print(f"perf_guard: seeded baseline {baseline_path.name} "
                  "from current run")
            continue
        current = json.loads(current_path.read_text())
        baseline = json.loads(baseline_path.read_text())
        print(f"perf_guard [{current_path.name}]:",
              compare(current, baseline, args.max_ratio, keys))
        if args.update:
            shutil.copy(current_path, baseline_path)
            print(f"perf_guard: baseline {baseline_path.name} updated")
    return status


if __name__ == "__main__":
    sys.exit(main())
