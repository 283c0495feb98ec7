"""Tests for the RNG plumbing."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng


class TestEnsureRng:
    def test_from_int_is_reproducible(self):
        a = ensure_rng(42).integers(0, 1000, size=10)
        b = ensure_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_from_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_passthrough_generator(self):
        rng = np.random.default_rng(7)
        assert ensure_rng(rng) is rng

    def test_from_seed_sequence(self):
        rng = ensure_rng(np.random.SeedSequence(5))
        assert isinstance(rng, np.random.Generator)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")

