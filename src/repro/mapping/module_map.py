"""Module-map contention: the cost of distinct locations sharing a bank.

Randomly mapping memory locations to banks removes adversarial layouts but
introduces *module-map contention*: several distinct, concurrently
requested locations can collide on one bank.  The paper quantifies how
this overhead decays with the expansion factor ``x`` (more banks = more
bins = better balance), for a worst-case reference pattern of ``n``
distinct locations.

The headline quantity is the **module-map ratio**::

    ratio = T_with_module_map / T_ideal

where ``T_ideal`` charges each bank only ``max(k, ceil(n / b))`` requests
(location contention plus perfectly balanced residue) and
``T_with_module_map`` charges the actual maximum bank load under the
mapping.  ``ratio -> 1`` as ``x`` grows: expansion buys back the loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .._util import as_addresses, as_rng, sorted_unique
from ..core.contention import BankMap, bank_loads, max_location_contention
from ..core.cost import per_processor_load
from ..core.params import DXBSPParams
from ..errors import ParameterError

__all__ = [
    "ideal_scatter_time",
    "module_map_time",
    "module_map_ratio",
    "ratio_vs_expansion",
    "ExpansionRatioResult",
]


def ideal_scatter_time(params: DXBSPParams, n: int, k: int) -> float:
    """(d,x)-BSP time for a scatter of ``n`` requests with location
    contention ``k``, *excluding* module-map effects: each bank is charged
    the unavoidable ``max(k, ceil(n / b))``."""
    if n < 0 or k < 0 or k > max(n, 0):
        raise ParameterError(f"need 0 <= k <= n, got n={n}, k={k}")
    h_p = per_processor_load(n, params.p)
    h_b = max(k, per_processor_load(n, params.n_banks))
    return float(max(params.L, params.g * h_p, params.d * h_b))


def module_map_time(
    params: DXBSPParams, addresses: ArrayLike, bank_map: Optional[BankMap] = None
) -> float:
    """(d,x)-BSP time for the scatter, *including* module-map contention:
    banks are charged their actual load under ``bank_map``."""
    addr = as_addresses(addresses)
    h_p = per_processor_load(addr.size, params.p)
    loads = bank_loads(addr, params.n_banks, bank_map)
    h_b = int(loads.max()) if loads.size else 0
    return float(max(params.L, params.g * h_p, params.d * h_b))


def module_map_ratio(
    params: DXBSPParams, addresses: ArrayLike, bank_map: Optional[BankMap] = None
) -> float:
    """Ratio of the with-module-map time to the ideal time (>= 1)."""
    addr = as_addresses(addresses)
    k = max_location_contention(addr)
    ideal = ideal_scatter_time(params, int(addr.size), k)
    actual = module_map_time(params, addr, bank_map)
    return actual / ideal if ideal > 0 else 1.0


@dataclass(frozen=True)
class ExpansionRatioResult:
    """Result of :func:`ratio_vs_expansion`.

    Attributes
    ----------
    expansions:
        The swept expansion factors.
    mean_ratio / max_ratio:
        Per-expansion mean and max module-map ratio over the random trials.
    """

    expansions: np.ndarray
    mean_ratio: np.ndarray
    max_ratio: np.ndarray

    def rows(self) -> list:
        """(x, mean, max) tuples for table printing."""
        return [
            (float(x), float(m), float(M))
            for x, m, M in zip(self.expansions, self.mean_ratio, self.max_ratio)
        ]


def ratio_vs_expansion(
    base: DXBSPParams,
    n: int,
    expansions: Sequence[float],
    mapping_factory: Callable[[int], BankMap],
    trials: int = 5,
    seed: Any = None,
) -> ExpansionRatioResult:
    """Sweep the module-map ratio over expansion factors.

    The worst-case reference pattern of the paper's Section 4 figure is
    used: ``n`` *distinct* locations (location contention 1), so all
    observed slowdown is module-map contention.

    Parameters
    ----------
    base:
        Machine parameters; only ``x`` is varied.
    n:
        Requests per trial (all-distinct addresses).
    expansions:
        Values of ``x`` to sweep.
    mapping_factory:
        Called as ``mapping_factory(seed_int)`` to draw a fresh random
        mapping per trial (e.g. ``repro.mapping.linear_hash``).
    trials:
        Independent mapping draws per expansion.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    rng = as_rng(seed)
    # Distinct addresses, randomly spread over a large space so the hash
    # families see generic inputs rather than [0, n).
    xs = np.asarray(list(expansions), dtype=np.float64)
    mean_r = np.empty_like(xs)
    max_r = np.empty_like(xs)
    for i, x in enumerate(xs):
        params = base.with_(x=float(x))
        ratios = np.empty(trials)
        for t in range(trials):
            # Distinct-by-construction: sample with slack and deduplicate.
            draw = rng.integers(0, np.int64(1) << 60, size=2 * n + 16)
            addr = sorted_unique(draw)[:n]
            mapping = mapping_factory(int(rng.integers(0, 2**31)))
            ratios[t] = module_map_ratio(params, addr, mapping)
        mean_r[i] = ratios.mean()
        max_r[i] = ratios.max()
    return ExpansionRatioResult(xs, mean_r, max_r)
