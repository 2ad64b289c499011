"""Perf — one microbench per engine layer, at three sizes.

Times each layer of the projector on its own, at n = 1K, 64K and 1M
addresses, so a regression names its layer and the scaling shows:

* ``fifo_kernel`` — :func:`~repro.simulator.fifo_service_times` on
  issue-ordered arrivals (nondecreasing, as every one-row projection
  gets them) over a J90's banks;
* ``fifo_kernel_shuffled`` — the same arrivals in random order (the
  shape block assignment and section-link output hand the kernel);
* ``certificate`` — the bounded stall certificate
  (``cycle_batch._full_banks``) on a J90 with ``queue_capacity=8``
  over a uniform scatter's projection (every wait is within the wait
  bound, so it never sorts or searches);
* ``commit`` — ``cycle_batch._commit`` of that certified projection
  into a fresh accumulator;
* ``world`` — the event world the projector falls back to, built for
  the same bounded scatter, fed every request and run to completion
  (the scatter never stalls, so a projected run never gets here; this
  times the stepper alone);
* ``fallback`` — ``cycle_batch._fall_back``, the reduced run, on the
  served cold-mix deck's stalling shape: a zipf (alpha 1.2) scatter
  through the ``h1`` hash map on the same bounded J90, started from
  the banks its failed certificate flags;
* ``distinct_random`` — the sparse-space distinct-address draw behind
  ``hotspot`` and ``multi_hotspot``, in the serving layer's default
  address space;
* ``stream_bounded`` — the chunk carry: a
  :class:`~repro.simulator.StreamSimulator` on the same bounded J90 fed
  the uniform scatter in ``STREAM_CHUNK``-address chunks, each chunk
  projected from the carried seeds and certified against the pending
  requests (stall-free at every size, so the event world never runs);
* ``frontend`` — the socket write path: one stop-and-wait round over
  loopback (send ``window`` pipelined ``predict`` lines, read their
  answers) against a :class:`~repro.serving.ServingFrontend` over an
  in-process :class:`~repro.serving.PredictionService` answering from
  its LRU, keyed by the window (1, 2 and 8) where the other layers are
  keyed by n.  A round pays no evaluation, so an answer held behind an
  unacknowledged one (Nagle against the client's delayed ACK, about
  40 ms) shows here as a layer of its own.

Each timing is the median of ``REPEATS`` runs, reported with its
quartiles.  Writes ``BENCH_layers.json`` at the repo root.  The file has
no committed baseline and ``tools/perf_guard.py`` does not gate it.
"""

import json
import pathlib
import socket
import threading
import time

import numpy as np

from repro.experiments.common import DEFAULT_SEED, DEFAULT_SPACE, j90
from repro.mapping.hashing import HASH_FAMILIES
from repro.serving import PredictionService, ServingFrontend
from repro.simulator import StreamSimulator, fifo_service_times
from repro.simulator import simulate_scatter_cycle
from repro.simulator.cycle import _new_acc, _prepare, _world
from repro.simulator.cycle_batch import (_commit, _fall_back, _full_banks,
                                         _project, _survivors)
from repro.workloads import distinct_random, uniform_random
from repro.workloads.patterns import zipf_pattern

BENCH_JSON = pathlib.Path(__file__).parents[1] / "BENCH_layers.json"

SIZES = (1 << 10, 1 << 16, 1 << 20)
REPEATS = 7
CAPACITY = 8
STREAM_CHUNK = 4096
WINDOWS = (1, 2, 8)


def _spread(fn, *args):
    """Median and quartiles, in seconds, of ``REPEATS`` calls."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return {"median_s": round(float(med), 7), "q1_s": round(float(q1), 7),
            "q3_s": round(float(q3), 7)}


def _kernel_inputs(machine, n, rng):
    arrivals = (np.arange(n) // machine.p).astype(np.float64)
    banks = rng.integers(0, machine.n_banks, n)
    return arrivals, banks


def _certificate_inputs(machine, addr, bank_map=None):
    s = _prepare(machine.with_(queue_capacity=CAPACITY), addr, bank_map,
                 "round_robin", None)
    work = _survivors(s.batch.issue, s.banks, s.batch.addresses, None)
    (proj,) = _project((s,), (work,))
    return s, proj


def _commit_fresh(s, proj):
    """Fold ``proj`` into a new accumulator, as a committed row does."""
    return _commit(s, _new_acc(s), proj)


def _world_run(s):
    """Build the event world for ``s``, feed it every request and run
    it to completion."""
    _world(s).run(_new_acc(s), s.max_cycles)


def _stream_bounded(machine, addr):
    """Feed ``addr`` in ``STREAM_CHUNK`` pieces; the last prefix result."""
    sim = StreamSimulator(machine)
    for lo in range(0, addr.size, STREAM_CHUNK):
        update = sim.feed(addr[lo:lo + STREAM_CHUNK])
    return update.result


def _frontend_rounds():
    """One stop-and-wait round's spread per window in ``WINDOWS``."""
    service = PredictionService(flush_ms=1.0, deadline_ms=None,
                                disk_cache=False)
    fe = ServingFrontend(service)
    thread = threading.Thread(target=fe.serve_forever, daemon=True)
    thread.start()
    out = {}
    try:
        with socket.create_connection(fe.address) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(60)
            reader = sock.makefile("rb")
            for window in WINDOWS:
                lines = b"".join(json.dumps({
                    "op": "predict", "machine": "j90",
                    "pattern": {"kind": "hotspot", "n": 1024,
                                "k": 2 ** (i + 1)},
                }).encode() + b"\n" for i in range(window))

                def round_trip():
                    sock.sendall(lines)
                    return [reader.readline() for _ in range(window)]

                round_trip()  # fills the LRU
                # Sanity, not perf: the timed rounds are LRU answers.
                assert all(json.loads(line)["cached"]
                           for line in round_trip())
                out[window] = _spread(round_trip)
            reader.close()
    finally:
        fe.shutdown()
        thread.join(timeout=60)
    assert not thread.is_alive()
    return out


def test_perf_layers():
    machine = j90()
    d = float(machine.d)
    rng = np.random.default_rng(DEFAULT_SEED)
    bounded = machine.with_(queue_capacity=CAPACITY)
    h1 = HASH_FAMILIES["h1"](7)
    layers = {name: {} for name in ("fifo_kernel", "fifo_kernel_shuffled",
                                    "certificate", "commit", "world",
                                    "fallback", "distinct_random",
                                    "stream_bounded")}
    for n in SIZES:
        arrivals, banks = _kernel_inputs(machine, n, rng)
        shuffled = rng.permutation(arrivals)
        addr = uniform_random(n, DEFAULT_SPACE, seed=DEFAULT_SEED)
        s, proj = _certificate_inputs(machine, addr)
        # Sanity, not perf: the projection is well formed and
        # certified, so committing it is the bounded run.
        assert (proj.start >= proj.arrival).all()
        assert _full_banks(s, proj) is None
        zs, zproj = _certificate_inputs(
            machine, zipf_pattern(n, 1 << 24, 1.2, seed=DEFAULT_SEED), h1)
        full = _full_banks(zs, zproj)
        assert full is not None  # the zipf row stalls and falls back

        layers["fifo_kernel"][n] = _spread(
            fifo_service_times, arrivals, banks, d)
        layers["fifo_kernel_shuffled"][n] = _spread(
            fifo_service_times, shuffled, banks, d)
        layers["certificate"][n] = _spread(_full_banks, s, proj)
        layers["commit"][n] = _spread(_commit_fresh, s, proj)
        layers["world"][n] = _spread(_world_run, s)
        layers["fallback"][n] = _spread(_fall_back, zs, full)
        layers["distinct_random"][n] = _spread(
            distinct_random, n, DEFAULT_SPACE, DEFAULT_SEED)

        if n <= 1 << 16:
            # Sanity: the chunked stream ends on the one-shot answer.
            got = _stream_bounded(bounded, addr)
            want = simulate_scatter_cycle(bounded, addr, engine="batch")
            assert (got.time, got.max_wait, got.mean_wait,
                    got.stalled_cycles) == (want.time, want.max_wait,
                                            want.mean_wait,
                                            want.stalled_cycles)
            assert (got.bank_loads == want.bank_loads).all()
        layers["stream_bounded"][n] = _spread(_stream_bounded, bounded, addr)
    layers["frontend"] = _frontend_rounds()

    BENCH_JSON.write_text(json.dumps({
        "benchmark": "layers",
        "machine": machine.name,
        "queue_capacity": CAPACITY,
        "stream_chunk": STREAM_CHUNK,
        "frontend_windows": list(WINDOWS),
        "space": DEFAULT_SPACE,
        "repeats": REPEATS,
        "telemetry": "off",
        "layers": {name: {str(n): t for n, t in by_n.items()}
                   for name, by_n in layers.items()},
    }, indent=2) + "\n")
