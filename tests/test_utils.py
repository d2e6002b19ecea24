"""Tests for the shared utilities (rng, validation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import derive_seed, ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive_int,
    check_probability_matrix,
)


class TestRng:
    def test_ensure_rng_from_int_is_deterministic(self):
        a = ensure_rng(7).integers(0, 1000, size=5)
        b = ensure_rng(7).integers(0, 1000, size=5)
        np.testing.assert_array_equal(a, b)

    def test_ensure_rng_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_spawn_rngs_independent_streams(self):
        streams = spawn_rngs(3, 4)
        assert len(streams) == 4
        draws = [stream.integers(0, 10**6) for stream in streams]
        assert len(set(draws)) > 1

    def test_spawn_rngs_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_derive_seed_deterministic(self):
        assert derive_seed(5, "a", 1) == derive_seed(5, "a", 1)
        assert derive_seed(5, "a", 1) != derive_seed(5, "b", 1)


class TestValidation:
    def test_check_positive_int(self):
        assert check_positive_int(3, "x") == 3
        with pytest.raises(ValueError):
            check_positive_int(0, "x")
        with pytest.raises(TypeError):
            check_positive_int(2.5, "x")
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-1.0, "x")
        with pytest.raises(ValueError):
            check_non_negative(float("nan"), "x")

    def test_check_fraction(self):
        assert check_fraction(0.5, "x") == 0.5
        assert check_fraction(1.0, "x") == 1.0
        with pytest.raises(ValueError):
            check_fraction(1.0, "x", inclusive=False)
        with pytest.raises(ValueError):
            check_fraction(-0.1, "x")

    def test_check_probability_matrix(self):
        matrix = check_probability_matrix([[0.1, 0.2]], "m")
        assert matrix.shape == (1, 2)
        with pytest.raises(ValueError):
            check_probability_matrix(np.array([0.1, 0.2]), "m")
        with pytest.raises(ValueError):
            check_probability_matrix(np.array([[-0.1]]), "m")
        with pytest.raises(ValueError):
            check_probability_matrix(np.array([[np.inf]]), "m")
