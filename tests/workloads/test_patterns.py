"""Tests for the synthetic pattern generators."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import max_location_contention
from repro.errors import ParameterError
from repro.simulator import toy_machine
from repro.workloads import (
    broadcast,
    distinct_random,
    hotspot,
    multi_hotspot,
    section_confined,
    strided,
    uniform_random,
)


class TestUniformRandom:
    def test_range(self):
        addr = uniform_random(1000, 64, seed=0)
        assert addr.min() >= 0 and addr.max() < 64

    def test_deterministic(self):
        assert (uniform_random(100, 1 << 20, seed=5)
                == uniform_random(100, 1 << 20, seed=5)).all()

    def test_empty(self):
        assert uniform_random(0, 10, seed=0).size == 0

    def test_invalid(self):
        with pytest.raises(ParameterError):
            uniform_random(-1, 10)
        with pytest.raises(ParameterError):
            uniform_random(1, 0)


class TestDistinctRandom:
    @given(n=st.integers(0, 500), factor=st.sampled_from([1, 2, 100]))
    @settings(max_examples=20)
    def test_all_distinct(self, n, factor):
        addr = distinct_random(n, max(n, 1) * factor, seed=0)
        assert np.unique(addr).size == n

    def test_dense_space(self):
        addr = distinct_random(100, 100, seed=1)
        assert (np.sort(addr) == np.arange(100)).all()

    def test_sparse_space(self):
        addr = distinct_random(100, 1 << 40, seed=2)
        assert np.unique(addr).size == 100

    def test_space_too_small(self):
        with pytest.raises(ParameterError):
            distinct_random(10, 5)

    def test_shuffled(self):
        addr = distinct_random(1000, 1000, seed=3)
        assert (addr != np.arange(1000)).any()


class TestHotspot:
    @given(n=st.integers(1, 400), k_frac=st.floats(0, 1),
           seed=st.integers(0, 100))
    @settings(max_examples=25)
    def test_exact_contention(self, n, k_frac, seed):
        k = max(1, int(k_frac * n))
        addr = hotspot(n, k, 1 << 20, seed=seed)
        assert addr.size == n
        assert max_location_contention(addr) == k

    def test_hot_address_respected(self):
        addr = hotspot(100, 50, 1 << 10, seed=0, hot_address=77)
        values, counts = np.unique(addr, return_counts=True)
        assert counts.max() == 50
        assert values[np.argmax(counts)] == 77

    def test_k_zero(self):
        addr = hotspot(50, 0, 1 << 10, seed=0)
        assert max_location_contention(addr) == 1

    def test_background_avoids_hot_address(self):
        addr = hotspot(200, 3, 1 << 10, seed=1, hot_address=5)
        assert (addr == 5).sum() == 3

    @pytest.mark.parametrize("kwargs", [
        dict(n=10, k=11, space=100),
        dict(n=10, k=-1, space=100),
        dict(n=10, k=5, space=10),
        dict(n=10, k=5, space=100, hot_address=100),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            hotspot(kwargs.pop("n"), kwargs.pop("k"), kwargs.pop("space"),
                    **kwargs)


class TestMultiHotspot:
    def test_hot_fraction_respected(self):
        addr = multi_hotspot(10_000, 4, 0.5, 1 << 24, seed=0)
        _, counts = np.unique(addr, return_counts=True)
        hot_total = np.sort(counts)[-4:].sum()
        assert hot_total >= 0.45 * 10_000

    def test_zero_fraction_is_uniform(self):
        addr = multi_hotspot(1000, 4, 0.0, 1 << 24, seed=1)
        assert max_location_contention(addr) <= 4

    def test_full_fraction(self):
        addr = multi_hotspot(1000, 2, 1.0, 1 << 24, seed=2)
        assert np.unique(addr).size <= 2

    def test_invalid(self):
        with pytest.raises(ParameterError):
            multi_hotspot(10, 0, 0.5, 100)
        with pytest.raises(ParameterError):
            multi_hotspot(10, 1, 1.5, 100)


class TestBroadcastStrided:
    def test_broadcast(self):
        addr = broadcast(10, 3)
        assert (addr == 3).all()
        assert max_location_contention(addr) == 10

    def test_strided(self):
        addr = strided(5, 4, base=2)
        assert (addr == [2, 6, 10, 14, 18]).all()

    def test_strided_contention_free(self):
        assert max_location_contention(strided(100, 3)) == 1

    def test_invalid(self):
        with pytest.raises(ParameterError):
            broadcast(-1)
        with pytest.raises(ParameterError):
            strided(5, 0)


class TestSectionConfined:
    def test_banks_in_section(self):
        m = toy_machine(p=4, x=8).with_(n_sections=4)
        addr = section_confined(m, 500, 2, seed=0)
        banks = addr % m.n_banks
        bps = m.banks_per_section
        assert (banks // bps == 2).all()

    def test_spreads_within_section(self):
        m = toy_machine(p=4, x=8).with_(n_sections=4)
        addr = section_confined(m, 2000, 0, seed=1)
        banks = np.unique(addr % m.n_banks)
        assert banks.size == m.banks_per_section

    def test_invalid_section(self):
        m = toy_machine().with_(n_sections=2)
        with pytest.raises(ParameterError):
            section_confined(m, 10, 2)


#: Digests of fixed-seed patterns.  Every memo key and served answer
#: depends on seed -> pattern, so a generator change that moves any of
#: these must be deliberate (and must re-key every cache).
_GOLDEN = [
    pytest.param(lambda: hotspot(4096, 16, 1 << 24, seed=7),
                 "699df5693b3b2c01", id="hotspot-4096"),
    pytest.param(lambda: hotspot(16384, 1024, 1 << 24, seed=8),
                 "2d91605885c279f2", id="hotspot-16384"),
    pytest.param(lambda: hotspot(1000, 10, 2048, seed=9),
                 "c45fbef94dc4d0f2", id="hotspot-dense"),
    pytest.param(lambda: distinct_random(5000, 1 << 40, seed=3),
                 "dba6d512f0997722", id="distinct-sparse"),
    pytest.param(lambda: distinct_random(1000, 3000, seed=4),
                 "8a61bd0bbb1b3eed", id="distinct-dense"),
    pytest.param(lambda: multi_hotspot(4096, 16, 0.5, 1 << 24, seed=5),
                 "05698a29af59f0a4", id="multi_hotspot-4096"),
    pytest.param(lambda: multi_hotspot(65536, 8, 0.25, 1 << 24, seed=6),
                 "a09b8e4a3072d0ee", id="multi_hotspot-65536"),
]


@pytest.mark.parametrize("make, digest", _GOLDEN)
def test_fixed_seed_patterns_keep_their_digests(make, digest):
    got = hashlib.sha256(np.asarray(make(), dtype="<i8").tobytes())
    assert got.hexdigest()[:16] == digest
