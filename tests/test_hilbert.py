import math

import numpy as np
import pytest

from splitrate.hilbert import (
    BasisMap,
    Vec,
    basis_vector,
    change_basis,
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
        assert inner(a * x + y, z) == pytest.approx(a * inner(x, z) + inner(y, z), rel=1e-12, abs=1e-12)


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


def test_vec_arithmetic():
    x, y = Vec([1.0, 2.0]), Vec([3.0, -1.0])
    assert np.array_equal((x + y).coeffs, [4.0, 1.0])
    assert np.array_equal((x - y).coeffs, [-2.0, 3.0])
    assert np.array_equal((2.0 * x).coeffs, [2.0, 4.0])
    assert np.array_equal((-x).coeffs, [-1.0, -2.0])
    with pytest.raises(ValueError):
        x + Vec([1.0, 2.0, 3.0])


def test_basis_map_identity():
    q = BasisMap(np.eye(3))
    x = Vec([1.0, 2.0, 3.0])
    assert np.array_equal(change_basis(x, q).coeffs, x.coeffs)


def test_basis_map_rotation():
    # 90 degree rotation sends e_0 to e_1
    q = BasisMap(np.array([[0.0, -1.0], [1.0, 0.0]]))
    out = change_basis(Vec([1.0, 0.0]), q)
    assert np.allclose(out.coeffs, [0.0, 1.0], atol=1e-15)


def test_basis_map_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="not orthogonal"):
        BasisMap(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        BasisMap(np.ones((2, 3)))


def test_change_basis_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        change_basis(Vec([1.0, 2.0, 3.0]), BasisMap(np.eye(2)))


def test_zeros_and_basis_vector():
    assert np.array_equal(zeros(3).coeffs, [0.0, 0.0, 0.0])
    assert np.array_equal(basis_vector(3, 1).coeffs, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        basis_vector(3, 3)


def test_random_basis_map_deterministic():
    a = random_basis_map(6, 42)
    b = random_basis_map(6, 42)
    assert np.array_equal(a.matrix, b.matrix)
