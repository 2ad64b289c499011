"""Tests for repro._util helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import (
    as_addresses,
    as_rng,
    check_nonnegative,
    check_positive,
    is_power_of_two,
    next_power_of_two,
    sorted_unique,
)
from repro.errors import ParameterError, PatternError


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = as_rng(7).integers(0, 1 << 30, size=10)
        b = as_rng(7).integers(0, 1 << 30, size=10)
        assert (a == b).all()

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g


class TestAsAddresses:
    def test_basic_coercion(self):
        out = as_addresses([1, 2, 3])
        assert out.dtype == np.int64
        assert (out == [1, 2, 3]).all()

    def test_preserves_int32(self):
        out = as_addresses(np.array([5, 6], dtype=np.int32))
        assert out.dtype == np.int64

    def test_integral_floats_accepted(self):
        out = as_addresses(np.array([1.0, 2.0]))
        assert out.dtype == np.int64 and (out == [1, 2]).all()

    def test_fractional_floats_rejected(self):
        with pytest.raises(PatternError):
            as_addresses(np.array([1.5]))

    def test_negative_rejected(self):
        with pytest.raises(PatternError):
            as_addresses([-1])

    def test_2d_rejected(self):
        with pytest.raises(PatternError):
            as_addresses(np.zeros((2, 2), dtype=np.int64))

    def test_empty_allowed_by_default(self):
        assert as_addresses([]).size == 0

    def test_empty_rejected_when_disallowed(self):
        with pytest.raises(PatternError):
            as_addresses([], allow_empty=False)


class TestChecks:
    def test_check_positive_passes(self):
        check_positive("x", 0.1)

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_check_positive_rejects(self, bad):
        with pytest.raises(ParameterError):
            check_positive("x", bad)

    def test_check_nonnegative_passes_zero(self):
        check_nonnegative("x", 0)

    def test_check_nonnegative_rejects(self):
        with pytest.raises(ParameterError):
            check_nonnegative("x", -1e-9)


class TestPowersOfTwo:
    @pytest.mark.parametrize("n,expect", [(1, True), (2, True), (1024, True),
                                          (0, False), (3, False), (-4, False)])
    def test_is_power_of_two(self, n, expect):
        assert is_power_of_two(n) is expect

    @pytest.mark.parametrize("n,expect", [(0, 1), (1, 1), (2, 2), (3, 4),
                                          (1023, 1024), (1024, 1024)])
    def test_next_power_of_two(self, n, expect):
        assert next_power_of_two(n) == expect

    @given(st.integers(min_value=1, max_value=1 << 40))
    def test_next_power_of_two_properties(self, n):
        p = next_power_of_two(n)
        assert is_power_of_two(p)
        assert p >= n
        assert p < 2 * n or n == 1


class TestSortedUnique:
    @given(st.lists(st.integers(-5, 40), max_size=60))
    def test_matches_np_unique(self, values):
        arr = np.asarray(values, dtype=np.int64)
        out = sorted_unique(arr)
        assert out.dtype == arr.dtype
        assert np.array_equal(out, np.unique(arr))
