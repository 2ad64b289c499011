"""Perf — one microbench per engine layer, at three sizes.

Times each layer of the projector on its own, at n = 1K, 64K and 1M
addresses, so a regression names its layer and the scaling shows:

* ``fifo_kernel`` — :func:`~repro.simulator.fifo_service_times` on
  issue-ordered arrivals (nondecreasing, as every one-row projection
  gets them) over a J90's banks;
* ``fifo_kernel_shuffled`` — the same arrivals in random order (the
  shape block assignment and section-link output hand the kernel);
* ``certificate`` — the bounded stall certificate
  (``cycle_batch._first_stall``) on a J90 with ``queue_capacity=8``
  over a uniform scatter's projection;
* ``distinct_random`` — the sparse-space distinct-address draw behind
  ``hotspot`` and ``multi_hotspot``, in the serving layer's default
  address space.

Each timing is the median of ``REPEATS`` runs, reported with its
quartiles.  Writes ``BENCH_layers.json`` at the repo root.  The file has
no committed baseline and ``tools/perf_guard.py`` does not gate it.
"""

import json
import pathlib
import time

import numpy as np

from repro.experiments.common import DEFAULT_SEED, DEFAULT_SPACE, j90
from repro.simulator import fifo_service_times
from repro.simulator.cycle import _prepare
from repro.simulator.cycle_batch import _first_stall, _project, _survivors
from repro.workloads import distinct_random, uniform_random

BENCH_JSON = pathlib.Path(__file__).parents[1] / "BENCH_layers.json"

SIZES = (1 << 10, 1 << 16, 1 << 20)
REPEATS = 7
CAPACITY = 8


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


def _certificate_inputs(machine, n):
    s = _prepare(machine.with_(queue_capacity=CAPACITY),
                 uniform_random(n, DEFAULT_SPACE, seed=DEFAULT_SEED),
                 None, "round_robin", None)
    work = _survivors(s.batch.issue, s.banks, s.batch.addresses, None)
    (proj,) = _project((s,), (work,))
    return s, proj


def test_perf_layers():
    machine = j90()
    d = float(machine.d)
    rng = np.random.default_rng(DEFAULT_SEED)
    layers = {name: {} for name in ("fifo_kernel", "fifo_kernel_shuffled",
                                    "certificate", "distinct_random")}
    for n in SIZES:
        arrivals, banks = _kernel_inputs(machine, n, rng)
        shuffled = rng.permutation(arrivals)
        s, proj = _certificate_inputs(machine, n)
        # Sanity, not perf: the projection is well formed and the
        # certificate answers (a stall cycle or None).
        assert (proj.start >= proj.arrival).all()
        stall = _first_stall(s, proj)
        assert stall is None or stall >= 0

        layers["fifo_kernel"][n] = _spread(
            fifo_service_times, arrivals, banks, d)
        layers["fifo_kernel_shuffled"][n] = _spread(
            fifo_service_times, shuffled, banks, d)
        layers["certificate"][n] = _spread(_first_stall, s, proj)
        layers["distinct_random"][n] = _spread(
            distinct_random, n, DEFAULT_SPACE, DEFAULT_SEED)

    BENCH_JSON.write_text(json.dumps({
        "benchmark": "layers",
        "machine": machine.name,
        "queue_capacity": CAPACITY,
        "space": DEFAULT_SPACE,
        "repeats": REPEATS,
        "telemetry": "off",
        "layers": {name: {str(n): t for n, t in by_n.items()}
                   for name, by_n in layers.items()},
    }, indent=2) + "\n")
