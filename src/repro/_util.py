"""Internal helpers shared across :mod:`repro` subpackages."""

from __future__ import annotations

from typing import Any

import numpy as np

from .errors import ParameterError, PatternError

__all__ = [
    "as_rng",
    "as_addresses",
    "check_positive",
    "check_nonnegative",
    "is_power_of_two",
    "next_power_of_two",
    "sorted_unique",
]


def as_rng(seed: Any = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), ``None`` (fresh
    nondeterministic generator) or anything acceptable to
    :func:`numpy.random.default_rng`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_addresses(addresses: Any, *, allow_empty: bool = True) -> np.ndarray:
    """Validate and coerce an address vector to a 1-D int64 array.

    Addresses are word indices into the simulated shared memory; they must
    be non-negative integers.

    Raises
    ------
    PatternError
        If the input is not integral, not 1-D, contains negative values,
        or is empty while ``allow_empty`` is false.
    """
    arr = np.asarray(addresses)
    if arr.ndim != 1:
        raise PatternError(f"address vector must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        if not allow_empty:
            raise PatternError("address vector must be non-empty")
        return arr.astype(np.int64)
    if not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise PatternError(f"addresses must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0:
        raise PatternError("addresses must be non-negative")
    return arr


def check_positive(name: str, value: float) -> None:
    """Raise :class:`ParameterError` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ParameterError(f"{name} must be > 0, got {value!r}")


def check_nonnegative(name: str, value: float) -> None:
    """Raise :class:`ParameterError` unless ``value`` is >= 0."""
    if not value >= 0:
        raise ParameterError(f"{name} must be >= 0, got {value!r}")


def is_power_of_two(n: int) -> bool:
    """Return True iff ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= ``n`` (with ``next_power_of_two(0) == 1``)."""
    if n <= 1:
        return 1
    return 1 << (int(n - 1).bit_length())


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array in ascending order — what
    ``np.unique(values)`` returns, by one sort and an adjacent-difference
    mask.  numpy 2.x answers a flagless ``np.unique`` on integers with a
    hash table and then sorts the (here nearly as large) result, which
    costs several times the sort alone."""
    out = np.sort(values)
    if out.size > 1:
        out = out[np.r_[True, out[1:] != out[:-1]]]
    return out
