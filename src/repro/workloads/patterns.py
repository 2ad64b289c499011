"""Synthetic access-pattern generators for the paper's experiments.

All generators return int64 address vectors suitable for the cost
predictors and simulators.  Addresses live in a caller-chosen space
``[0, space)``; under the default interleaved bank map, ``space`` should
comfortably exceed the bank count so the background traffic spreads.
"""

from __future__ import annotations

import numpy as np

from .._util import as_rng, sorted_unique
from ..errors import ParameterError
from ..simulator.machine import MachineConfig

__all__ = [
    "uniform_random",
    "distinct_random",
    "hotspot",
    "multi_hotspot",
    "broadcast",
    "strided",
    "section_confined",
    "zipf_pattern",
]


def uniform_random(n: int, space: int, seed=None) -> np.ndarray:
    """``n`` addresses drawn uniformly (with replacement) from
    ``[0, space)`` — the generic irregular scatter."""
    if n < 0 or space < 1:
        raise ParameterError(f"need n >= 0 and space >= 1, got n={n}, space={space}")
    rng = as_rng(seed)
    return rng.integers(0, space, size=n, dtype=np.int64)


def distinct_random(n: int, space: int, seed=None) -> np.ndarray:
    """``n`` *distinct* addresses from ``[0, space)`` in random order —
    location contention exactly 1 (permutation-like traffic)."""
    if n < 0 or space < n:
        raise ParameterError(f"need space >= n >= 0, got n={n}, space={space}")
    rng = as_rng(seed)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if space <= 4 * n:
        return rng.permutation(space).astype(np.int64)[:n]
    # Sparse space: oversample and deduplicate, then top up deterministically.
    draw = sorted_unique(rng.integers(0, space, size=2 * n + 16, dtype=np.int64))
    if draw.size < n:  # astronomically unlikely; fall back to dense prefix
        extra = np.setdiff1d(np.arange(n, dtype=np.int64), draw, assume_unique=False)
        draw = np.concatenate([draw, extra])
    out = draw[:n]
    rng.shuffle(out)
    return out


def hotspot(n: int, k: int, space: int, seed=None, hot_address: int = 0) -> np.ndarray:
    """Experiment-1 family: exactly ``k`` requests to one hot location,
    the other ``n - k`` requests to distinct background locations.

    The pattern's location contention is exactly ``k`` (for ``k >= 1``),
    making it the natural sweep variable for the Figure-1 knee.
    """
    if not (0 <= k <= n):
        raise ParameterError(f"need 0 <= k <= n, got k={k}, n={n}")
    if space < n + 1:
        raise ParameterError(f"space must exceed n, got space={space}, n={n}")
    if hot_address < 0 or hot_address >= space:
        raise ParameterError("hot_address outside [0, space)")
    rng = as_rng(seed)
    background = distinct_random(n - k, space - 1, rng)
    # Shift background off the hot address without changing distinctness.
    background = np.where(background >= hot_address, background + 1, background)
    out = np.concatenate(
        [np.full(k, hot_address, dtype=np.int64), background]
    )
    rng.shuffle(out)
    return out


def multi_hotspot(
    n: int,
    n_hot: int,
    hot_fraction: float,
    space: int,
    seed=None,
) -> np.ndarray:
    """Experiment-2 family: ``n_hot`` hot locations jointly receive a
    fraction ``hot_fraction`` of the ``n`` requests (uniformly among the
    hot set); the rest of the traffic is uniform background."""
    if n_hot < 0 or n_hot > space:
        raise ParameterError(f"need 0 <= n_hot <= space, got {n_hot}")
    if not (0.0 <= hot_fraction <= 1.0):
        raise ParameterError(f"hot_fraction must be in [0,1], got {hot_fraction}")
    if n_hot == 0 and hot_fraction > 0:
        raise ParameterError("hot_fraction > 0 requires n_hot >= 1")
    rng = as_rng(seed)
    n_hot_reqs = int(round(n * hot_fraction))
    hot_locs = distinct_random(n_hot, space, rng) if n_hot else np.zeros(0, np.int64)
    hot_part = (
        hot_locs[rng.integers(0, n_hot, size=n_hot_reqs)]
        if n_hot_reqs
        else np.zeros(0, np.int64)
    )
    cold_part = uniform_random(n - n_hot_reqs, space, rng)
    out = np.concatenate([hot_part, cold_part])
    rng.shuffle(out)
    return out


def broadcast(n: int, address: int = 0) -> np.ndarray:
    """All ``n`` requests to one location — maximum contention ``k = n``."""
    if n < 0 or address < 0:
        raise ParameterError("need n >= 0 and address >= 0")
    return np.full(n, address, dtype=np.int64)


def strided(n: int, stride: int, base: int = 0) -> np.ndarray:
    """Constant-stride pattern ``base + i * stride`` — the classical
    vector-machine access shape (power-of-two strides collide under
    interleaving)."""
    if n < 0 or stride < 1 or base < 0:
        raise ParameterError("need n >= 0, stride >= 1, base >= 0")
    return base + stride * np.arange(n, dtype=np.int64)


def zipf_pattern(n: int, space: int, alpha: float = 1.2, seed=None) -> np.ndarray:
    """Zipf-skewed addresses: rank-``r`` location drawn with probability
    proportional to ``r^-alpha``, randomly assigned to locations in
    ``[0, space)``.

    Pointer-based and graph workloads (the paper's "irregular
    applications") commonly exhibit this popularity skew — a contention
    profile between uniform scatter and a hot spot, with a heavy tail of
    moderately popular locations rather than one dominant address.
    """
    if n < 0 or space < 1:
        raise ParameterError(f"need n >= 0 and space >= 1, got n={n}, space={space}")
    if alpha <= 1.0:
        raise ParameterError(f"alpha must be > 1, got {alpha}")
    rng = as_rng(seed)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    ranks = rng.zipf(alpha, size=n).astype(np.int64)
    ranks = np.minimum(ranks - 1, space - 1)  # ranks start at 1; clip tail
    # Scramble rank -> location so the hot ranks don't sit at address 0;
    # the affine map must be bijective, so pick a stride coprime to space.
    import math

    offset = int(rng.integers(0, space))
    stride = 2 * int(rng.integers(0, space // 2 + 1)) + 1
    while math.gcd(stride, space) != 1:
        stride += 2
    return (offset + ranks * stride) % space


def section_confined(
    machine: MachineConfig, n: int, section: int, seed=None, rows: int = 1 << 16
) -> np.ndarray:
    """Addresses whose banks (under low-order interleaving) all live in
    one network ``section`` of ``machine`` — the paper's version-(c)
    worst case.  Banks within the section are chosen uniformly, so the
    pattern is bank-balanced *within* the section yet saturates that
    section's link."""
    if not (0 <= section < machine.n_sections):
        raise ParameterError(
            f"section must be in [0, {machine.n_sections}), got {section}"
        )
    if n < 0 or rows < 1:
        raise ParameterError("need n >= 0 and rows >= 1")
    rng = as_rng(seed)
    bps = machine.banks_per_section
    banks = section * bps + rng.integers(0, bps, size=n, dtype=np.int64)
    row = rng.integers(0, rows, size=n, dtype=np.int64)
    return banks + machine.n_banks * row
