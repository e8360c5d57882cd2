import numpy as np
import pytest

from splitrate.hilbert import Vec, basis_rows, random_basis_map


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
        assert np.array_equal(row, np.eye(4)[i])
    assert basis_rows(3, []).shape == (0, 3)
    for bad in ([4], [-1]):
        with pytest.raises(ValueError, match="out of range"):
            basis_rows(4, bad)
