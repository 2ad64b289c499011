"""End-to-end benchmark of ``python -m repro.serving`` over a real socket.

Run from the repository root::

    python3 e2ebench/run.py --workload hot-dashboard --seed 1 \\
        --seconds 20 --trace 0

One run starts the server (``--http 0``, default flags except
``--workers`` and ``--manifest``, a fresh private ``REPRO_CACHE_DIR``)
several times to time set-up, drives the last one with a closed-loop
client for ``--seconds``, stops it with SIGINT, checks every answer it
decodes against direct library calls, and prints every end-to-end
metric by name with its unit and sample count.  ``--trace 1`` adds a
second, traced server (``traced_server.py``) and prints the per-layer
metrics instead.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every shipped workload, one after the other::

    for w in hot-dashboard cold-mix stream-trace; do
        python3 e2ebench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

Workloads, metrics and the layer map are described in ``layers.json``
next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Answers per block of the latency_p99_ms estimate.
P99_BLOCK = 1000

#: Cold-mix answers re-derived by the output check (seeded sample).
COLD_CHECKS = 32
COLD_SWEEP_CHECKS = 4

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Phase:
    """One server's life: set-ups, warm-up answers, the timed phase."""

    setup_s: List[float] = field(default_factory=list)
    warm: List[Any] = field(default_factory=list)
    lanes: List[Any] = field(default_factory=list)
    t_start: float = 0.0
    t_last: float = 0.0
    cpu: Dict[str, float] = field(default_factory=dict)
    client_cpu: float = 0.0
    peak_rss_mb: float = 0.0
    metrics: Tuple[Dict[str, Any], Dict[str, Any]] = ({}, {})
    manifest: Dict[str, Any] = field(default_factory=dict)
    workers: int = 0


def _measure(root: Path, run_dir: Path, plan: Any, seconds: int,
             setups: int, servers: List[Any],
             spans_dir: Optional[Path] = None) -> Phase:
    from client import Client
    from server import Server

    phase = Phase()
    traced = spans_dir is not None
    srv = None
    for k in range(setups):
        srv = Server(root, run_dir, plan.workers,
                     f"{'traced' if traced else 'plain'}{k}",
                     traced=traced, spans_dir=spans_dir)
        servers.append(srv)
        t0 = time.perf_counter()
        srv.start()
        warm, _ = Client("127.0.0.1", srv.port, plan.warmup).run(None)
        phase.setup_s.append(time.perf_counter() - t0)
        phase.warm.append(warm)
        if k < setups - 1:
            srv.stop()
    assert srv is not None
    before = srv.get("/metrics")
    cpu0 = srv.cpu()
    client0 = time.process_time()
    phase.t_start = time.perf_counter()
    phase.lanes, phase.t_last = Client("127.0.0.1", srv.port, plan.lanes) \
        .run(phase.t_start + seconds)
    phase.client_cpu = time.process_time() - client0
    cpu1 = srv.cpu()
    phase.cpu = {key: cpu1[key] - cpu0[key] for key in cpu0}
    phase.workers = len(srv.workers())
    phase.peak_rss_mb = srv.peak_rss_mb()
    phase.metrics = (before, srv.get("/metrics"))
    phase.manifest = srv.stop() or {}
    return phase


# ----------------------------------------------------------------------
# decoding and the output check
# ----------------------------------------------------------------------

def _decode(lanes: List[Any], runs: List[Any]) -> List[Tuple[Any, Any, Any]]:
    """(step, sample, decoded body or None) for every request sent."""
    out = []
    for lane, run in zip(lanes, runs):
        for sample in run.samples:
            body = None
            if sample.response is not None:
                raw = sample.response
                if lane.protocol == "http":
                    raw = raw.split(b"\r\n\r\n", 1)[-1]
                try:
                    body = json.loads(raw)
                except ValueError:
                    body = None
            out.append((lane.steps[sample.step], sample, body))
    return out


def _references(plan: Any, answered: List[Tuple[Any, Any, Any]],
                seed: int) -> Dict[Any, Dict[str, Any]]:
    """Expected results for the answers the check covers, by step key."""
    import verify

    if plan.workload == "hot-dashboard":
        return {q: verify.reference(req, event_for_cycle=False)
                for q, req in plan.questions.items()}
    if plan.workload == "cold-mix":
        keys = [step.key for step, _, body in answered if body is not None]
        lines = [k for k in keys if not k.startswith(("s", "ws"))]
        sweeps = [k for k in keys if k.startswith("s")]
        chosen = verify.sample(lines, COLD_CHECKS, seed) \
            + verify.sample(sweeps, COLD_SWEEP_CHECKS, seed)
        return {k: verify.reference(plan.questions[k], event_for_cycle=True)
                for k in chosen}
    return {(sid, "close"): verify.stream_reference(machine, blocks)
            for sid, (machine, blocks) in plan.sessions.items()}


def _corrupt(body: Dict[str, Any]) -> None:
    """The self-test's one wrong answer."""
    result = body["result"]
    target = result["rows"][0] if "rows" in result else result
    target["n"] += 1


def _check(plan: Any, answered: List[Tuple[Any, Any, Any]],
           refs: Dict[Any, Dict[str, Any]], corrupt: bool) \
        -> Tuple[int, int, List[str]]:
    """Counts (failed, checked) over ``answered`` plus failure notes."""
    import verify

    failed = checked = 0
    notes: List[str] = []
    for step, sample, body in answered:
        why = None
        if body is None:
            why = "no answer" if sample.response is None else "undecodable"
        elif body.get("status") != "ok":
            why = f"status {body.get('status')}: {body.get('error')}"
        elif body.get("request_id") != step.request_id:
            why = f"answer for {body.get('request_id')!r}"
        elif step.key in refs:
            if corrupt:
                _corrupt(body)
                corrupt = False
            checked += 1
            why = verify.mismatch(refs[step.key], body["result"])
        elif isinstance(step.key, tuple) and step.key[1] == "chunk":
            i = step.key[2]
            why = verify.mismatch(
                {"chunk_index": i, "n": (i + 1) * len(
                    plan.sessions[step.key[0]][1][i])},
                body["result"])
        if why is not None:
            failed += 1
            if len(notes) < 5:
                notes.append(f"{step.request_id}: {why}")
    return failed, checked, notes


def _payloads(answered: List[Tuple[Any, Any, Any]]) -> List[List[Any]]:
    by_lane: Dict[int, List[Any]] = {}
    for _step, sample, body in answered:
        by_lane.setdefault(sample.lane, []).append(
            None if body is None else (body.get("status"), body.get("result")))
    return [by_lane[k] for k in sorted(by_lane)]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def _timed(phase: Phase, answered: List[Tuple[Any, Any, Any]]) \
        -> Dict[str, Any]:
    """Throughput and latency of the timed phase's ok answers.

    ``latency_p99_ms`` is the median, over consecutive blocks of at
    least ``P99_BLOCK`` answers, of each block's 99th percentile: every
    block keeps ten samples beyond its percentile, and a burst of host
    noise moves one block instead of the whole figure.
    """
    import numpy as np

    samples = [(step, s, body) for step, s, body in answered
               if step.sample]
    ok = sorted(((step, s) for step, s, body in samples
                 if body is not None and body.get("status") == "ok"),
                key=lambda pair: pair[1].t_recv)
    lat = np.array([(s.t_recv - s.t_send) * 1e3 for _, s in ok])
    elapsed = phase.t_last - phase.t_start
    # Consecutive blocks of at least P99_BLOCK answers that cover them all.
    blocks = np.array_split(lat, max(1, lat.size // P99_BLOCK)) \
        if lat.size else [lat]
    return {
        "requests": len(samples),
        "ok": len(ok),
        "elapsed_s": elapsed,
        "throughput_rps": len(ok) / elapsed if elapsed > 0 else 0.0,
        "latency_p50_ms": float(np.percentile(lat, 50)) if lat.size else 0.0,
        "latency_p99_ms": float(np.median(
            [np.percentile(b, 99) for b in blocks])) if lat.size else 0.0,
        "p99_blocks": len(blocks) if lat.size >= P99_BLOCK else 0,
        "p99_whole_run": float(np.percentile(lat, 99)) if lat.size else 0.0,
        "client": [(step.request_id, s.t_recv - s.t_send) for step, s in ok],
    }


def _counts(phase: Phase) -> Dict[str, Any]:
    """Server counters from /metrics (router, timed phase) and the
    --manifest (services, whole server life)."""
    before, after = phase.metrics
    man = phase.manifest
    shards = man.get("shards") if "shards" in man else [man]
    total = {k: sum(int(s.get(k, 0)) for s in shards)
             for k in ("lru_hits", "disk_hits", "batched_requests",
                       "batches", "shed", "expired", "failed")}
    probes = total["lru_hits"] + total["disk_hits"] + total["batched_requests"]
    out: Dict[str, Any] = {
        "lru_hit_ratio": total["lru_hits"] / probes if probes else None,
        "occupancy": total["batched_requests"] / total["batches"]
        if total["batches"] else None,
        "shed": total["shed"],
        "expired": total["expired"],
        "failed": total["failed"] + int(man.get("failed", 0)
                                        if "shards" in man else 0),
    }
    if "hot_hits" in after:
        received = after["received"] - before["received"]
        out["hot_hit_ratio"] = \
            (after["hot_hits"] - before["hot_hits"]) / received \
            if received else None
    return out


def _fmt(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<48} {value:>14.6g} {unit:<6} {note}"


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the served simulator.")
    parser.add_argument("--workload", required=True,
                        choices=("hot-dashboard", "cold-mix", "stream-trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", choices=("none", "corrupt"),
                        default="none",
                        help="'corrupt' alters one answer before the "
                        "check; the run must then fail")
    args = parser.parse_args(argv)
    # A shell may start this driver with SIGINT ignored, and an ignored
    # signal stays ignored across exec: the server could then never be
    # stopped by SIGINT.  Handling it here resets it to the default in
    # every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    root = Path.cwd()
    if not (root / "src" / "repro" / "serving" / "__main__.py").is_file():
        print("e2ebench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import plan as plans

    plan = plans.build(args.workload, args.seed, args.seconds)
    run_dir = root / ".e2ebench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        return _run(args, root, plan, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args: argparse.Namespace, root: Path, plan: Any,
         run_dir: Path) -> int:
    """Measure, check and report one run; returns the exit status."""
    import layers
    from server import shm_segments

    shm_before = shm_segments()
    servers: List[Any] = []
    try:
        # A traced run reports no set-up time, so it sets up once.
        plain = _measure(root, run_dir, plan, args.seconds,
                         1 if args.trace else SETUPS, servers)
        traced = None
        if args.trace:
            traced = _measure(root, run_dir, plan, args.seconds, 1, servers,
                              spans_dir=run_dir / "spans")
    except BaseException:
        for srv in servers:
            srv.kill()
        # A killed router cannot unlink its hot tier.
        for name in shm_segments() - shm_before:
            Path("/dev/shm", name).unlink(missing_ok=True)
        raise

    notes: List[str] = []
    leaked = sorted(shm_segments() - shm_before)
    for name in leaked:
        Path("/dev/shm", name).unlink(missing_ok=True)
    if leaked:
        notes.append(f"shared-memory segments outlived the run: {leaked}")

    # Decode and check only now, after every timed phase has ended.
    phases = [plain] + ([traced] if traced is not None else [])
    attempted = failed = checked = 0
    answered_by_phase = []
    refs: Optional[Dict[Any, Dict[str, Any]]] = None
    corrupt = args.self_test == "corrupt"
    for phase in phases:
        warm = [item for runs in phase.warm
                for item in _decode(plan.warmup, runs)]
        timed = _decode(plan.lanes, phase.lanes)
        answered_by_phase.append(timed)
        if refs is None:
            refs = _references(plan, timed, args.seed)
        f, c, why = _check(plan, warm + timed, refs, corrupt)
        corrupt = False
        attempted += len(warm) + len(timed)
        failed += f
        checked += c
        notes += why
    mismatched = 0
    if traced is not None:
        a, b = (_payloads(t) for t in answered_by_phase)
        for lane_a, lane_b in zip(a, b):
            mismatched += sum(x != y for x, y in zip(lane_a, lane_b)
                              if x is not None and y is not None)
        if mismatched:
            notes.append(f"{mismatched} traced answers differ from untraced")

    stats = _timed(plain, answered_by_phase[0])
    e2e = {
        "setup_s": statistics.median(plain.setup_s),
        "throughput_rps": stats["throughput_rps"],
        "latency_p50_ms": stats["latency_p50_ms"],
        "latency_p99_ms": stats["latency_p99_ms"],
        "peak_rss_mb": plain.peak_rss_mb,
    }
    correct = failed == 0 and not leaked and mismatched == 0
    n = stats["ok"]
    print(f"e2ebench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"workers={plan.workers}")
    print(_fmt("setup_s", e2e["setup_s"], "s",
               "median of " + ", ".join(f"{s:.3f}" for s in plain.setup_s)))
    print(_fmt("throughput_rps", e2e["throughput_rps"], "1/s",
               f"n={n} ok in {stats['elapsed_s']:.3f} s"))
    print(_fmt("latency_p50_ms", e2e["latency_p50_ms"], "ms", f"n={n}"))
    print(_fmt("latency_p99_ms", e2e["latency_p99_ms"], "ms",
               f"n={n}, median of {stats['p99_blocks']} blocks of "
               f">={P99_BLOCK}; whole run {stats['p99_whole_run']:.4g} ms"
               if stats["p99_blocks"] else
               f"n={n}: fewer than {P99_BLOCK} answers, whole run"))
    print(_fmt("peak_rss_mb", e2e["peak_rss_mb"], "MB",
               f"server + {plain.workers} workers"))
    print(_fmt("failed_share", failed / max(1, attempted), "ratio",
               f"{failed}/{attempted}; {checked} answers re-derived"))
    for note in notes:
        print(f"  ! {note}")

    metrics: Dict[str, Dict[str, Any]]
    if traced is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in e2e.items()}
    else:
        tstats = _timed(traced, answered_by_phase[1])
        overhead = 1.0 - tstats["throughput_rps"] / stats["throughput_rps"] \
            if stats["throughput_rps"] else 0.0
        elapsed = stats["elapsed_s"] or 1.0
        procs = {
            "router_us_per_req": plain.cpu["router"] / max(1, n) * 1e6,
            "workers_us_per_req": plain.cpu["workers"] / max(1, n) * 1e6
            if plain.workers else None,
            "client_share": plain.client_cpu / elapsed,
        }
        window = (traced.t_start, traced.t_last)
        lane_bytes = (sum(r.bytes_out for r in traced.lanes),
                      sum(r.bytes_in for r in traced.lanes))
        spans = layers.load_spans(run_dir / "spans")
        values, absent = layers.per_layer(
            spans, window, tstats["client"], lane_bytes, _counts(traced),
            procs, overhead)
        print(f"  traced run: {tstats['throughput_rps']:.6g} 1/s "
              f"(n={tstats['ok']}), tracing overhead {overhead:.2%}")
        for name, value in values.items():
            print(_fmt(name, value, layers.PER_LAYER[name],
                       "layer did not run" if name in absent else ""))
        print("  self time by span (timed phase of the traced run):")
        lo, hi = window[0] * 1e9, window[1] * 1e9
        table = layers.self_times([s for s in spans if lo <= s[3] <= hi])
        for name, row in table.items():
            print(f"    {name:<40} calls={row['calls']:<8} "
                  f"p50={row['p50_us']:.1f}us self={row['self_ms']:.1f}ms")
        metrics = {k: {"value": v, "unit": layers.PER_LAYER[k]}
                   for k, v in values.items()}

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
