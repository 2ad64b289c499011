"""A direct run of the event world: the reference for projector paths.

``engine="event"`` and ``engine="batch"`` both run the projector of
:mod:`repro.simulator.cycle_batch`, which steps the event world only
after a stall certificate fails.  A test that checks a projector path
against anything but ``tick`` compares with :func:`world_run` instead:
the world of :mod:`repro.simulator.world` fed every request and run to
completion, with no projection and no certificate.
"""

from repro.simulator import cycle
from repro.simulator.sanitize import sanitize_enabled


def world_run(machine, addresses, bank_map=None, assignment="round_robin",
              max_cycles=None, telemetry=False, sanitize=None):
    """One scatter stepped through the event world alone, from the
    setup and into the epilogue every cycle engine shares."""
    s = cycle._prepare(machine, addresses, bank_map, assignment,
                       max_cycles, telemetry, sanitize_enabled(sanitize))
    acc = cycle._new_acc(s)
    if s.n:
        cycle._world(s).run(acc, s.max_cycles)
    return cycle._finish(machine, s, "world", acc)
