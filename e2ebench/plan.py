"""Seeded request plans for the three end-to-end workloads.

A plan is everything the client sends, built before any timing starts:
the worker count, the warm-up lines, the timed lanes (one per
connection) and what the output check needs to recompute answers.  The
program under test only ever sees the generated request lines; the
seed stays on this side.

Lane steps are pre-encoded request lines.  A lane either cycles its
steps (hot-dashboard: a fixed popularity sequence), runs them once
(cold-mix: every question distinct, so a replay would hit a cache), or
cycles whole rounds (stream-trace: the timed phase may only stop where
a round ends, so the bounded session's share of chunks stays fixed).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: The hot working set: about twice the shared hot tier's 1024 slots and
#: below the per-worker LRU's 4096 entries.
HOT_QUESTIONS = 2048

#: Zipf exponent of the hot-dashboard popularity law.
HOT_ZIPF_S = 1.0

#: Length of the hot-dashboard popularity sequence (cycled when a run
#: outlasts it; request ids repeat per cycle, joins count occurrences).
HOT_SEQUENCE = 60000

#: Requests in flight per connection (closed loop).
WINDOW = {"hot-dashboard": 2, "cold-mix": 16, "stream-trace": 8}

#: Cold-mix lines built per second of timed phase; about four times the
#: measured rate, so the lane does not run dry before its deadline.
COLD_LINES_PER_SECOND = 500

#: Stream-trace round: one long session on the J90, then a short one on
#: a bounded-queue J90.  The bounded share of chunks is fixed at
#: STREAM_BOUNDED_CHUNKS / (STREAM_LONG_CHUNKS + STREAM_BOUNDED_CHUNKS).
STREAM_CHUNK = 4096
STREAM_LONG_CHUNKS = 512
STREAM_BOUNDED_CHUNKS = 16
#: Distinct address blocks a session cycles through.
STREAM_BLOCKS = 64

BOUNDED_J90: Dict[str, Any] = {"base": "j90", "queue_capacity": 8}

_SPACE = 1 << 24


@dataclass
class Step:
    """One request line of a lane.

    ``sample`` marks a request whose latency and status are measured
    (stream control verbs are not samples); ``barrier`` makes the lane
    wait for every outstanding answer before sending the next line;
    ``stop_ok`` marks where a timed phase may end.
    """

    line: bytes
    request_id: str
    key: Any
    sample: bool = True
    barrier: bool = False
    stop_ok: bool = True


@dataclass
class Lane:
    """One connection's script."""

    protocol: str  # "ndjson" or "http"
    steps: List[Step]
    window: int
    cycle: bool


@dataclass
class Plan:
    """A workload instance: workers, warm-up, timed lanes, check data."""

    workload: str
    workers: int
    warmup: List[Lane]
    lanes: List[Lane]
    #: key -> request dict; the output check recomputes answers by key.
    questions: Dict[Any, Dict[str, Any]] = field(default_factory=dict)
    #: Stream sessions: stream key -> (machine spec, address blocks).
    sessions: Dict[str, Tuple[Any, List[List[int]]]] = \
        field(default_factory=dict)


def _encode(req: Dict[str, Any]) -> bytes:
    return json.dumps(req, sort_keys=True, separators=(",", ":")).encode()


def _http(req: Dict[str, Any]) -> bytes:
    body = _encode(req)
    head = (
        "POST / HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode("latin-1")
    return head + body


def _pattern(rng: random.Random, kind: str, n: int, seed: int) \
        -> Dict[str, Any]:
    if kind == "hotspot":
        return {"kind": kind, "n": n, "k": n // rng.choice((16, 64, 256)),
                "space": _SPACE, "seed": seed}
    if kind == "uniform":
        return {"kind": kind, "n": n, "space": _SPACE, "seed": seed}
    if kind == "zipf":
        return {"kind": kind, "n": n, "alpha": rng.choice((1.1, 1.3)),
                "space": _SPACE, "seed": seed}
    if kind == "multi_hotspot":
        return {"kind": kind, "n": n, "n_hot": rng.choice((4, 16)),
                "hot_fraction": 0.25, "space": _SPACE, "seed": seed}
    if kind == "stride":
        # No seed field: the base address makes the question distinct.
        return {"kind": kind, "n": n, "stride": rng.choice((2, 8, 64)),
                "base": seed}
    raise ValueError(kind)


def _request(op: str, machine: Any, engine: str, bank_map: str,
             pattern: Dict[str, Any], rid: str) -> Dict[str, Any]:
    return {"op": op, "machine": machine, "engine": engine,
            "bank_map": bank_map, "map_seed": 7, "pattern": pattern,
            "request_id": rid}


# ----------------------------------------------------------------------
# hot-dashboard
# ----------------------------------------------------------------------

def _hot_plan(seed: int, seconds: int) -> Plan:
    rng = random.Random(f"hot-dashboard/{seed}")
    plan = Plan("hot-dashboard", workers=2, warmup=[], lanes=[])
    kinds = ("hotspot", "uniform", "zipf", "multi_hotspot", "stride")
    for q in range(HOT_QUESTIONS):
        plan.questions[q] = _request(
            op=("predict", "compare", "simulate")[q % 3],
            machine=rng.choice(("j90", "c90", "t90", "sx4")),
            engine=rng.choice(("banksim", "batch")),
            bank_map=rng.choice(("interleave", "h1", "h3")),
            pattern=_pattern(rng, kinds[q % len(kinds)],
                             rng.choice((1024, 2048, 4096)),
                             seed * 100003 + q),
            rid="",
        )
    # Zipf popularity over a seeded ranking of the questions.
    ranking = list(range(HOT_QUESTIONS))
    rng.shuffle(ranking)
    weights = [1.0 / (r + 1) ** HOT_ZIPF_S for r in range(HOT_QUESTIONS)]
    draws = rng.choices(ranking, weights=weights, k=HOT_SEQUENCE)

    def line(q: int, rid: str) -> Step:
        req = dict(plan.questions[q], request_id=rid)
        return Step(_encode(req) + b"\n", rid, q)

    for lane_no in range(2):
        plan.warmup.append(Lane("ndjson", [
            line(q, f"w{q}")
            for q in range(lane_no, HOT_QUESTIONS, 2)
        ], window=64, cycle=False))
        plan.lanes.append(Lane("ndjson", [
            line(q, f"t{lane_no}.{i}")
            for i, q in enumerate(draws[lane_no::2])
        ], window=WINDOW["hot-dashboard"], cycle=True))
    return plan


# ----------------------------------------------------------------------
# cold-mix
# ----------------------------------------------------------------------

#: One deck of NDJSON questions: (op, machine, engine, bank_map,
#: pattern spec without its seed).  Every deck of 20 lines holds each
#: entry once, in a seeded order, and only pattern seeds vary with the
#: benchmark seed, so the cost mix per deck is the same whatever the seed.
_COLD_DECK: Tuple[Tuple[str, Any, str, str, Dict[str, Any]], ...] = (
    ("predict", "j90", "banksim", "interleave",
     {"kind": "uniform", "n": 65536}),
    ("predict", "c90", "banksim", "h3", {"kind": "uniform", "n": 16384}),
    ("predict", "t90", "banksim", "h1",
     {"kind": "zipf", "n": 4096, "alpha": 1.2}),
    ("predict", "j90", "banksim", "h1",
     {"kind": "multi_hotspot", "n": 65536, "n_hot": 8,
      "hot_fraction": 0.25}),
    ("compare", "j90", "banksim", "interleave",
     {"kind": "zipf", "n": 16384, "alpha": 1.2}),
    ("compare", "c90", "banksim", "h1",
     {"kind": "hotspot", "n": 4096, "k": 64}),
    ("compare", "j90", "batch", "h3", {"kind": "uniform", "n": 16384}),
    ("simulate", "sx4", "banksim", "interleave",
     {"kind": "uniform", "n": 65536}),
    ("simulate", "j90", "batch", "interleave",
     {"kind": "hotspot", "n": 16384, "k": 256}),
    ("simulate", "c90", "batch", "h1",
     {"kind": "multi_hotspot", "n": 65536, "n_hot": 8,
      "hot_fraction": 0.25}),
    ("simulate", "j90", "batch", "h3",
     {"kind": "multi_hotspot", "n": 4096, "n_hot": 16,
      "hot_fraction": 0.25}),
    ("simulate", BOUNDED_J90, "batch", "interleave",
     {"kind": "uniform", "n": 16384}),
    ("simulate", BOUNDED_J90, "batch", "interleave",
     {"kind": "hotspot", "n": 4096, "k": 64}),
    ("simulate", BOUNDED_J90, "batch", "h1",
     {"kind": "zipf", "n": 4096, "alpha": 1.2}),
    ("compare", BOUNDED_J90, "batch", "interleave",
     {"kind": "uniform", "n": 4096}),
    ("simulate", BOUNDED_J90, "event", "interleave",
     {"kind": "uniform", "n": 4096}),
    ("simulate", "j90", "event", "h1", {"kind": "hotspot", "n": 4096, "k": 64}),
    ("simulate", BOUNDED_J90, "event", "h3",
     {"kind": "zipf", "n": 4096, "alpha": 1.2}),
    ("simulate", "j90", "event", "interleave",
     {"kind": "multi_hotspot", "n": 4096, "n_hot": 8,
      "hot_fraction": 0.25}),
    ("compare", BOUNDED_J90, "event", "h1", {"kind": "uniform", "n": 4096}),
)

#: One-shot HTTP k-sweeps: (machine, n), cycled.  Same-size cycle-engine
#: points fuse into one grid pass.  The bounded-queue machine stays on
#: the NDJSON lane (where flushes fuse it with other 4K batch points): a
#: bounded sweep falls back point by point, and as 1 in 4 sweeps its
#: ~100 ms answers made latency_p99_ms swing from run to run.
_SWEEP_DECK: Tuple[Tuple[Any, int], ...] = (
    ("j90", 4096), ("c90", 4096), ("t90", 4096), ("sx4", 4096),
)
_SWEEP_KS = [16, 64, 256, 1024]


def _cold_requests(rng: random.Random, count: int, base_seed: int,
                   prefix: str) -> List[Tuple[str, Dict[str, Any]]]:
    out: List[Tuple[str, Dict[str, Any]]] = []
    deck = list(_COLD_DECK)
    while len(out) < count:
        rng.shuffle(deck)
        for op, machine, engine, bank_map, spec in deck:
            rid = f"{prefix}{len(out)}"
            pattern = dict(spec, space=_SPACE, seed=base_seed + len(out))
            out.append((rid, _request(op, machine, engine, bank_map,
                                      pattern, rid)))
    return out[:count]


def _sweeps(count: int, base_seed: int, prefix: str) \
        -> List[Tuple[str, Dict[str, Any]]]:
    out = []
    for i in range(count):
        machine, n = _SWEEP_DECK[i % len(_SWEEP_DECK)]
        rid = f"{prefix}{i}"
        out.append((rid, {
            "op": "simulate", "machine": machine, "engine": "batch",
            "bank_map": "interleave", "map_seed": 7,
            "pattern": {"kind": "hotspot", "n": n, "space": _SPACE,
                        "seed": base_seed + i},
            "sweep": {"param": "k", "values": _SWEEP_KS},
            "request_id": rid,
        }))
    return out


def _cold_plan(seed: int, seconds: int) -> Plan:
    rng = random.Random(f"cold-mix/{seed}")
    plan = Plan("cold-mix", workers=2, warmup=[], lanes=[])
    # Pattern seeds: disjoint ranges for warm-up, NDJSON and HTTP lines,
    # and per benchmark seed, so no question repeats within a run.
    base = 1_000_000 * (seed % 1000 + 1)
    warm = _cold_requests(rng, len(_COLD_DECK), base + 900_000, "w")
    warm += _sweeps(len(_SWEEP_DECK), base + 950_000, "ws")
    ndjson = _cold_requests(rng, COLD_LINES_PER_SECOND * seconds, base, "t")
    http = _sweeps(COLD_LINES_PER_SECOND * seconds // 10, base + 500_000,
                   "s")
    plan.warmup.append(Lane("ndjson", [
        Step(_encode(req) + b"\n", rid, rid) for rid, req in warm
    ], window=8, cycle=False))
    plan.lanes.append(Lane("ndjson", [
        Step(_encode(req) + b"\n", rid, rid) for rid, req in ndjson
    ], window=WINDOW["cold-mix"], cycle=False))
    plan.lanes.append(Lane("http", [
        Step(_http(req), rid, rid) for rid, req in http
    ], window=1, cycle=False))
    for rid, req in warm + ndjson + http:
        plan.questions[rid] = req
    return plan


# ----------------------------------------------------------------------
# stream-trace
# ----------------------------------------------------------------------

def _blocks(rng: random.Random, count: int, bounded: bool) \
        -> List[List[int]]:
    blocks = []
    for _ in range(count):
        if bounded:
            blocks.append([rng.randrange(_SPACE) for _ in range(STREAM_CHUNK)])
        else:
            # Mostly uniform traffic with a hot address mixed in.
            hot = rng.randrange(_SPACE)
            blocks.append([
                hot if rng.random() < 0.02 else rng.randrange(_SPACE)
                for _ in range(STREAM_CHUNK)
            ])
    return blocks


def _session(sid: str, machine: Any, blocks: List[List[int]],
             chunks: int, prefix: str, last: bool) -> List[Step]:
    encoded = [json.dumps(b, separators=(",", ":")).encode()
               for b in blocks]
    steps = [Step(
        _encode({"op": "stream", "action": "open", "stream_id": sid,
                 "machine": machine, "request_id": f"{prefix}o"}) + b"\n",
        f"{prefix}o", (sid, "open"), sample=False, stop_ok=False,
    )]
    for i in range(chunks):
        rid = f"{prefix}{i}"
        head = _encode({"op": "stream", "action": "chunk",
                        "stream_id": sid, "request_id": rid})
        # Splice the pre-encoded block in as the addresses field.
        line = head[:-1] + b',"addresses":' + encoded[i % len(encoded)] \
            + b"}\n"
        steps.append(Step(line, rid, (sid, "chunk", i), stop_ok=False))
    # The close is answered only after the session is retired, so a
    # barrier after it lets the next round reuse the stream id.
    steps.append(Step(
        _encode({"op": "stream", "action": "close", "stream_id": sid,
                 "request_id": f"{prefix}c"}) + b"\n",
        f"{prefix}c", (sid, "close"), sample=False, barrier=True,
        stop_ok=last,
    ))
    return steps


def _stream_plan(seed: int, seconds: int) -> Plan:
    rng = random.Random(f"stream-trace/{seed}")
    plan = Plan("stream-trace", workers=1, warmup=[], lanes=[])
    long_blocks = _blocks(rng, STREAM_BLOCKS, bounded=False)
    bounded_blocks = _blocks(rng, STREAM_BLOCKS // 4, bounded=True)
    plan.sessions["long"] = ("j90", [
        long_blocks[i % len(long_blocks)] for i in range(STREAM_LONG_CHUNKS)
    ])
    plan.sessions["bounded"] = (BOUNDED_J90, [
        bounded_blocks[i % len(bounded_blocks)]
        for i in range(STREAM_BOUNDED_CHUNKS)
    ])
    plan.sessions["warm-long"] = ("j90", long_blocks[:4])
    plan.sessions["warm-bounded"] = (BOUNDED_J90, bounded_blocks[:2])
    plan.warmup.append(Lane("ndjson", (
        _session("warm-long", "j90", long_blocks, 4, "wl", last=False)
        + _session("warm-bounded", BOUNDED_J90, bounded_blocks, 2, "wb",
                   last=True)
    ), window=WINDOW["stream-trace"], cycle=False))
    plan.lanes.append(Lane("ndjson", (
        _session("long", "j90", long_blocks, STREAM_LONG_CHUNKS, "l",
                 last=False)
        + _session("bounded", BOUNDED_J90, bounded_blocks,
                   STREAM_BOUNDED_CHUNKS, "b", last=True)
    ), window=WINDOW["stream-trace"], cycle=True))
    return plan


WORKLOADS = {
    "hot-dashboard": _hot_plan,
    "cold-mix": _cold_plan,
    "stream-trace": _stream_plan,
}


def build(workload: str, seed: int, seconds: int) -> Plan:
    """The seeded plan of ``workload`` for a timed phase of ``seconds``."""
    return WORKLOADS[workload](seed, seconds)
