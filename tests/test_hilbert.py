import math

import numpy as np
import pytest

from splitrate.hilbert import (
    Vec,
    basis_rows,
    basis_vector,
    inner,
    norm,
    random_basis_map,
    zeros,
)


def test_inner_orthogonal_units():
    assert inner(Vec([1.0, 0.0]), Vec([0.0, 1.0])) == 0.0
    assert inner(Vec([1.0, 0.0]), Vec([1.0, 0.0])) == 1.0


def test_inner_hand_arithmetic():
    assert inner(Vec([2.0, 3.0]), Vec([4.0, 5.0])) == 23.0


def test_inner_symmetric_bilinear():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x, y, z = (Vec(rng.uniform(-5, 5, 6)) for _ in range(3))
        a = rng.uniform(-3, 3)
        assert inner(x, y) == pytest.approx(inner(y, x), abs=0)
        assert inner(Vec(a * x.coeffs + y.coeffs), z) == pytest.approx(
            a * inner(x, z) + inner(y, z), rel=1e-12, abs=1e-12
        )


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        inner(Vec([1.0, 2.0]), Vec([1.0, 2.0, 3.0]))


def test_norm_examples():
    assert norm(Vec([0.0, 0.0, 0.0])) == 0.0
    assert norm(Vec([3.0, 4.0])) == 5.0
    for i in range(4):
        assert norm(basis_vector(4, i)) == 1.0


def test_norm_is_sqrt_of_inner():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = Vec(rng.uniform(-10, 10, 8))
        assert norm(x) == math.sqrt(inner(x, x))


def test_vec_rejects_bad_input():
    with pytest.raises(ValueError):
        Vec([])
    with pytest.raises(ValueError):
        Vec([1.0, float("nan")])
    with pytest.raises(ValueError):
        Vec([float("inf"), 0.0])
    with pytest.raises(ValueError):
        Vec([[1.0, 2.0], [3.0, 4.0]])


def test_vec_is_immutable():
    v = Vec([1.0, 2.0])
    with pytest.raises(ValueError):
        v.coeffs[0] = 7.0


def test_zeros_and_basis_vector():
    assert np.array_equal(zeros(3).coeffs, [0.0, 0.0, 0.0])
    assert np.array_equal(basis_vector(3, 1).coeffs, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        basis_vector(3, 3)


def test_random_basis_map_deterministic():
    a = random_basis_map(6, 42)
    b = random_basis_map(6, 42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, random_basis_map(6, 43))


def test_random_basis_map_is_orthogonal_and_read_only():
    q = random_basis_map(8, 5)
    assert q.shape == (8, 8)
    assert np.max(np.abs(q.T @ q - np.eye(8))) <= 1e-12
    x = np.random.default_rng(3).uniform(-10.0, 10.0, 8)
    assert abs(np.linalg.norm(q @ x) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)
    with pytest.raises(ValueError):
        q[0, 0] = 1.0


def test_basis_rows_are_basis_vectors():
    rows = basis_rows(4, [2, 0, 2, 3])
    assert rows.shape == (4, 4)
    for row, i in zip(rows, [2, 0, 2, 3]):
        assert np.array_equal(row, basis_vector(4, i).coeffs)
    assert basis_rows(3, []).shape == (0, 3)
    for bad in ([4], [-1]):
        with pytest.raises(ValueError, match="out of range"):
            basis_rows(4, bad)
