"""Contention statistics of memory access patterns.

Terminology (paper, Section 2):

*location contention* ``k`` — the maximum number of requests, within one
superstep, destined to a single memory **location**.  Requests to the same
location are serviced serially by the bank holding it, so a superstep costs
at least ``d * k`` on the (d,x)-BSP.

*bank contention* ``h_b`` — the maximum number of requests destined to a
single memory **bank** under a given memory-to-bank mapping.  It includes
both location contention and *module-map contention* (distinct locations
that happen to share a bank); always ``h_b >= ceil(k)``.

*processor load* ``h_p`` — the maximum number of requests issued by one
processor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .._util import as_addresses
from ..errors import ParameterError, PatternError

__all__ = [
    "location_contention",
    "max_location_contention",
    "bank_loads",
    "max_bank_load",
    "contention_histogram",
    "empirical_entropy",
    "normalized_entropy",
    "PatternStats",
]

BankMap = Callable[[np.ndarray, int], np.ndarray]


def _interleaved(addresses: np.ndarray, n_banks: int) -> np.ndarray:
    """Default bank map: low-order interleaving (``addr mod n_banks``)."""
    return addresses % n_banks


def _runs(addr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A nonempty address array sorted, and the boundaries of its runs
    of equal values (every run's first position, then the size): one
    sort and an adjacent-difference mask instead of ``np.unique(addr,
    return_counts=True)``."""
    n = addr.size
    ordered = np.sort(addr)
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(ordered[1:], ordered[:-1], out=edge[1:n])
    return ordered, np.flatnonzero(edge)


def location_contention(addresses) -> Tuple[np.ndarray, np.ndarray]:
    """Per-location request counts.

    Returns
    -------
    (locations, counts):
        ``locations`` is the sorted array of distinct addresses touched and
        ``counts[i]`` the number of requests to ``locations[i]``.
    """
    addr = as_addresses(addresses)
    if addr.size == 0:
        return addr, np.zeros(0, dtype=np.int64)
    ordered, bounds = _runs(addr)
    return ordered[bounds[:-1]], np.diff(bounds).astype(np.int64)


def max_location_contention(addresses) -> int:
    """The paper's ``k``: the maximum contention at any single location.

    Zero for an empty pattern.
    """
    addr = as_addresses(addresses)
    if addr.size == 0:
        return 0
    return int(np.diff(_runs(addr)[1]).max())


def bank_loads(addresses, n_banks: int, bank_map: Optional[BankMap] = None) -> np.ndarray:
    """Number of requests landing on each bank under ``bank_map``.

    Parameters
    ----------
    addresses:
        1-D integer address vector.
    n_banks:
        Number of banks (>= 1).
    bank_map:
        Callable ``(addresses, n_banks) -> banks``.  Defaults to low-order
        interleaving, the hardware layout of the Cray machines studied in
        the paper.

    Returns
    -------
    int64 array of length ``n_banks``.
    """
    if n_banks < 1:
        raise ParameterError(f"n_banks must be >= 1, got {n_banks}")
    addr = as_addresses(addresses)
    if addr.size == 0:
        return np.zeros(n_banks, dtype=np.int64)
    banks = np.asarray((bank_map or _interleaved)(addr, n_banks))
    if banks.shape != addr.shape:
        raise PatternError(
            f"bank_map returned shape {banks.shape}, expected {addr.shape}"
        )
    if banks.min() < 0 or banks.max() >= n_banks:
        raise PatternError("bank_map produced bank ids outside [0, n_banks)")
    return np.bincount(banks, minlength=n_banks).astype(np.int64)


def max_bank_load(addresses, n_banks: int, bank_map: Optional[BankMap] = None) -> int:
    """The paper's ``h_b``: maximum requests at any one bank."""
    loads = bank_loads(addresses, n_banks, bank_map)
    return int(loads.max()) if loads.size else 0


def contention_histogram(addresses) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of location-contention values.

    Returns ``(values, n_locations)`` where ``n_locations[i]`` locations are
    each touched exactly ``values[i]`` times.  Useful for characterizing
    entropy-family patterns (Experiment 3).
    """
    _, counts = location_contention(addresses)
    if counts.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    values, freq = np.unique(counts, return_counts=True)
    return values.astype(np.int64), freq.astype(np.int64)


def empirical_entropy(addresses, base: float = 2.0) -> float:
    """Shannon entropy of the empirical address distribution, in ``base``
    units (bits by default).

    This is the statistic Thearling and Smith use to grade their
    iterated-AND key families: high entropy ~ uniform scatter, low entropy
    ~ hot-spot concentration.
    """
    addr = as_addresses(addresses)
    if addr.size == 0:
        return 0.0
    _, counts = np.unique(addr, return_counts=True)
    probs = counts / addr.size
    return float(-(probs * (np.log(probs) / np.log(base))).sum())


def normalized_entropy(addresses) -> float:
    """Entropy divided by ``log2(n)`` — 1.0 for a permutation-like pattern
    of all-distinct addresses, approaching 0 for a single hot location."""
    addr = as_addresses(addresses)
    if addr.size <= 1:
        return 1.0
    h = empirical_entropy(addr)
    return float(h / np.log2(addr.size))


@dataclass(frozen=True)
class PatternStats:
    """Summary statistics of one superstep's access pattern.

    Attributes
    ----------
    n:
        Total number of requests.
    n_distinct:
        Number of distinct locations touched.
    max_location_contention:
        ``k`` — maximum requests to one location.
    mean_location_contention:
        ``n / n_distinct`` (0 for an empty pattern).
    entropy_bits:
        Shannon entropy of the empirical address distribution.
    max_bank_load:
        ``h_b`` under the mapping supplied to :meth:`from_addresses`, or
        ``None`` if no bank count was given.
    n_banks:
        Bank count used for ``max_bank_load`` (``None`` if not computed).
    """

    n: int
    n_distinct: int
    max_location_contention: int
    mean_location_contention: float
    entropy_bits: float
    max_bank_load: Optional[int] = None
    n_banks: Optional[int] = None

    @staticmethod
    def from_addresses(
        addresses,
        n_banks: Optional[int] = None,
        bank_map: Optional[BankMap] = None,
    ) -> "PatternStats":
        """Compute all statistics of an address vector in one pass."""
        addr = as_addresses(addresses)
        if addr.size == 0:
            return PatternStats(0, 0, 0, 0.0, 0.0,
                                0 if n_banks else None, n_banks)
        _, counts = np.unique(addr, return_counts=True)
        probs = counts / addr.size
        entropy = float(-(probs * np.log2(probs)).sum())
        hb = None
        if n_banks is not None:
            hb = max_bank_load(addr, n_banks, bank_map)
        return PatternStats(
            n=int(addr.size),
            n_distinct=int(counts.size),
            max_location_contention=int(counts.max()),
            mean_location_contention=float(addr.size / counts.size),
            entropy_bits=entropy,
            max_bank_load=hb,
            n_banks=n_banks,
        )
