"""Module-map contention vs expansion (paper Section 4 figure).

"[The figure compares] the time that includes the effect of multiple
memory locations being mapped to the same bank to the time that excludes
the effect, when using random mapping.  This is given as a function of
expansion and is for a worst-case reference pattern."

The worst-case pattern for module-map contention is ``n`` *distinct*
locations (location contention 1): every slowdown is then attributable to
distinct locations colliding on a bank.  The ratio exceeds 1 at moderate
expansion (balls-in-bins imbalance against a busy memory system) and
decays back toward 1 as banks multiply — high expansion buys the
randomized mapping for free, the paper's argument for the C90's x = 64.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from typing import List

from .._util import sorted_unique
from ..analysis.report import Series
from ..core.params import DXBSPParams
from ..mapping.hashing import RandomMap, linear_hash
from ..mapping.module_map import module_map_ratio
from ..simulator.machine import MachineConfig
from .common import DEFAULT_SEED, j90
from .runner import run_grid

__all__ = ["run", "main"]

_FAMILIES = {"h1": linear_hash, "random": RandomMap}


def _point(
    params: DXBSPParams, x: float, n: int, family: str,
    addresses: List[np.ndarray], map_seeds: List[int],
):
    """One expansion value: mean/max module-map ratio over the trials.

    The trial draws come from one sequential generator shared across the
    whole sweep (matching :func:`repro.mapping.ratio_vs_expansion`), so
    the parent pre-draws them and ships each point its slice.
    """
    factory = _FAMILIES[family]
    p = params.with_(x=float(x))
    ratios = np.array([
        module_map_ratio(p, addr, factory(map_seed))
        for addr, map_seed in zip(addresses, map_seeds)
    ])
    return float(ratios.mean()), float(ratios.max())


def _trial_draws(rng: np.random.Generator, n: int, n_points: int,
                 trials: int):
    """Replicate ``ratio_vs_expansion``'s draw order: per expansion, per
    trial, one distinct-address pattern then one mapping seed."""
    per_point = []
    for _ in range(n_points):
        addresses, map_seeds = [], []
        for _ in range(trials):
            draw = rng.integers(0, np.int64(1) << 60, size=2 * n + 16)
            addresses.append(sorted_unique(draw)[:n])
            map_seeds.append(int(rng.integers(0, 2**31)))
        per_point.append((addresses, map_seeds))
    return per_point


def run(
    machine: Optional[MachineConfig] = None,
    n: int = 16 * 1024,
    expansions: Optional[Sequence[float]] = None,
    trials: int = 3,
    seed: int = DEFAULT_SEED,
) -> Series:
    """Mean module-map ratio vs expansion for the linear hash family and
    an idealized full-random mapping."""
    machine = machine or j90()
    xs = list(expansions) if expansions is not None else [1, 2, 4, 8, 16, 32, 64, 128]
    base = machine.params()
    points = []
    for family, family_seed in (("h1", seed), ("random", seed + 1)):
        draws = _trial_draws(
            np.random.default_rng(family_seed), n, len(xs), trials
        )
        points.extend(
            dict(params=base, x=float(x), n=n, family=family,
                 addresses=addresses, map_seeds=map_seeds)
            for x, (addresses, map_seeds) in zip(xs, draws)
        )
    rows = run_grid(_point, points)
    hashed, random_map = rows[:len(xs)], rows[len(xs):]
    series = Series(
        name=f"fig_modulemap ({machine.name}, n={n} distinct locations)",
        x_label="expansion x",
        x=np.asarray(xs, dtype=np.float64),
    )
    series.add("ratio_h1", np.array([r[0] for r in hashed]))
    series.add("ratio_random", np.array([r[0] for r in random_map]))
    series.add("ratio_h1_max", np.array([r[1] for r in hashed]))
    return series


def main() -> str:
    """Render and print the module-map ratio sweep."""
    out = run().format()
    print(out)
    return out


if __name__ == "__main__":
    main()
