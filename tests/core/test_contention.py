"""Tests for contention statistics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    PatternStats,
    bank_loads,
    contention_histogram,
    empirical_entropy,
    location_contention,
    max_bank_load,
    max_location_contention,
    normalized_entropy,
)
from repro.errors import ParameterError, PatternError
from repro.workloads import hotspot, uniform_random
from repro.workloads.patterns import zipf_pattern

addresses = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(0, 300),
    elements=st.integers(0, 1000),
)


class TestLocationContention:
    def test_empty(self):
        locs, counts = location_contention([])
        assert locs.size == 0 and counts.size == 0
        assert max_location_contention([]) == 0

    def test_all_distinct(self):
        assert max_location_contention([3, 1, 2]) == 1

    def test_hotspot(self):
        assert max_location_contention([5, 5, 5, 1, 2]) == 3

    def test_counts_sum_to_n(self):
        _, counts = location_contention([1, 1, 2, 3, 3, 3])
        assert counts.sum() == 6

    @given(addresses)
    def test_counts_invariants(self, addr):
        locs, counts = location_contention(addr)
        assert counts.sum() == addr.size
        assert locs.size == np.unique(addr).size
        if addr.size:
            assert counts.min() >= 1
            assert max_location_contention(addr) == counts.max()

    @pytest.mark.parametrize("addr", [
        uniform_random(4096, 1 << 24, seed=3),
        uniform_random(65536, 1 << 12, seed=4),
        hotspot(4096, 1024, 1 << 24, seed=5),
        zipf_pattern(4096, 1 << 24, 1.2, seed=6),
        np.zeros(0, dtype=np.int64),
        np.asarray([7]),
        np.full(300, 9),
    ], ids=["uniform", "uniform-dense", "hotspot", "zipf", "n0", "n1",
            "all-equal"])
    def test_equals_np_unique(self, addr):
        # Counted by one sort and run lengths; the answer must be the
        # one np.unique(return_counts=True) gives.
        locs, counts = location_contention(addr)
        want_locs, want_counts = np.unique(addr, return_counts=True)
        assert locs.dtype == np.int64 and counts.dtype == np.int64
        assert (locs == want_locs).all() and (counts == want_counts).all()
        assert max_location_contention(addr) == (
            int(want_counts.max()) if addr.size else 0)


class TestBankLoads:
    def test_interleaved_default(self):
        loads = bank_loads([0, 4, 8, 1], n_banks=4)
        assert (loads == [3, 1, 0, 0]).all()

    def test_loads_sum(self):
        loads = bank_loads(np.arange(100), n_banks=7)
        assert loads.sum() == 100

    def test_empty(self):
        assert (bank_loads([], 5) == 0).all()

    def test_custom_map(self):
        loads = bank_loads([10, 20, 30], 4, bank_map=lambda a, b: np.zeros_like(a))
        assert loads[0] == 3

    def test_invalid_n_banks(self):
        with pytest.raises(ParameterError):
            bank_loads([1], 0)

    def test_bad_map_shape(self):
        with pytest.raises(PatternError):
            bank_loads([1, 2], 4, bank_map=lambda a, b: np.zeros(1, dtype=np.int64))

    def test_bad_map_range(self):
        with pytest.raises(PatternError):
            bank_loads([1, 2], 4, bank_map=lambda a, b: a + 100)

    @given(addresses, st.integers(1, 64))
    def test_max_bank_load_at_least_contention(self, addr, b):
        # Requests to one location necessarily share a bank.
        assert max_bank_load(addr, b) >= max_location_contention(addr)


class TestHistogramAndEntropy:
    def test_histogram(self):
        values, freq = contention_histogram([1, 1, 2, 3, 3, 3])
        assert (values == [1, 2, 3]).all()
        assert (freq == [1, 1, 1]).all()

    def test_histogram_empty(self):
        v, f = contention_histogram([])
        assert v.size == 0 and f.size == 0

    def test_uniform_entropy(self):
        assert empirical_entropy(np.arange(256)) == pytest.approx(8.0)

    def test_single_location_entropy(self):
        assert empirical_entropy([7] * 100) == 0.0

    def test_normalized_extremes(self):
        assert normalized_entropy(np.arange(1024)) == pytest.approx(1.0)
        assert normalized_entropy([0] * 1024) == 0.0
        assert normalized_entropy([]) == 1.0

    @given(addresses)
    def test_entropy_bounds(self, addr):
        h = empirical_entropy(addr)
        assert h >= 0.0
        if addr.size:
            assert h <= np.log2(addr.size) + 1e-9


class TestPatternStats:
    def test_empty(self):
        s = PatternStats.from_addresses([])
        assert s.n == 0 and s.n_distinct == 0 and s.max_location_contention == 0

    def test_basic(self):
        s = PatternStats.from_addresses([1, 1, 1, 2], n_banks=4)
        assert s.n == 4
        assert s.n_distinct == 2
        assert s.max_location_contention == 3
        assert s.mean_location_contention == 2.0
        assert s.max_bank_load == 3
        assert s.n_banks == 4

    def test_without_banks(self):
        s = PatternStats.from_addresses([1, 2, 3])
        assert s.max_bank_load is None and s.n_banks is None

    @given(addresses)
    def test_consistency(self, addr):
        s = PatternStats.from_addresses(addr, n_banks=8)
        assert s.max_location_contention == max_location_contention(addr)
        assert s.max_bank_load == max_bank_load(addr, 8)
        if s.n:
            assert 1 <= s.max_location_contention <= s.n
            assert s.mean_location_contention * s.n_distinct == pytest.approx(s.n)
