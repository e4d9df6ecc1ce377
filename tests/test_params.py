import numpy as np
import pytest

from multivqc.errors import ConfigError
from multivqc.params import ParamStore


class TestParamStore:
    def test_offsets_follow_counts(self):
        store = ParamStore((4, 6, 2))
        assert store.total == 12
        assert store.offsets == (0, 4, 10)

    def test_zero_initialized_by_default(self):
        store = ParamStore((3, 3))
        assert np.array_equal(store.values, np.zeros(6))

    def test_slice_for_views_each_block(self):
        store = ParamStore((2, 3), values=np.arange(5.0))
        assert np.array_equal(store.slice_for(0), [0.0, 1.0])
        assert np.array_equal(store.slice_for(1), [2.0, 3.0, 4.0])

    def test_flat_index(self):
        # Parameter p of circuit v sits at flat index offsets[v] + p.
        store = ParamStore((2, 3))
        store.values[store.offsets[1] + 2] = 5.0
        store.slice_for(0)[1] = 7.0
        assert store.slice_for(1)[2] == 5.0
        assert store.values[store.offsets[0] + 1] == 7.0

    def test_flat_index_rejects_out_of_range(self):
        store = ParamStore((2, 3))
        with pytest.raises(ConfigError):
            store.slice_for(2)
        with pytest.raises(ConfigError):
            store.slice_for(-1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ParamStore((2, 2), values=np.zeros(3))

    def test_random_init_in_angle_range(self):
        rng = np.random.default_rng(5)
        store = ParamStore.random_init((40, 40), rng)
        assert np.all(store.values >= 0.0)
        assert np.all(store.values < 2.0 * np.pi)

    def test_random_init_seeded_reproducible(self):
        a = ParamStore.random_init((8,), np.random.default_rng(123))
        b = ParamStore.random_init((8,), np.random.default_rng(123))
        assert np.array_equal(a.values, b.values)
