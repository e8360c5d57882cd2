import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitrate.acceptance import conjugate_oracle
from splitrate.functions import (
    CompositeProblem,
    DiagOperator,
    DiagQuadratic,
    GFunction,
    dual_function,
)
from splitrate.hilbert import basis_rows
from splitrate.rates import dual_rate_constants
from splitrate.worstcase import PAIRINGS, make_dual_instance, make_primal_instance


@pytest.fixture
def two_band():
    """dim 4 with weights [1, 1, 4, 4]."""
    return make_primal_instance(1.0, 4.0, 4, {0, 1}).f


# -- two-band layout ----------------------------------------------------------


def test_spectrum_weight_layout():
    assert np.array_equal(make_primal_instance(2.0, 5.0, 4, {1, 3}).f.weights, [5.0, 2.0, 5.0, 2.0])
    # the crossed pairing puts theta on the beta band {0, 2}
    crossed = make_dual_instance(2.0, 5.0, 1.0, 3.0, 4, {1, 3}, pairing="crossed")
    assert np.array_equal(crossed.f.weights, [5.0, 2.0, 5.0, 2.0])
    assert np.array_equal(crossed.a.weights, [1.0, 3.0, 1.0, 3.0])


def test_spectrum_requires_both_bands():
    dual = lambda sigma, beta, dim, idx_sigma: make_dual_instance(sigma, beta, 1.0, 2.0, dim, idx_sigma)
    for make in (make_primal_instance, dual):
        with pytest.raises(ValueError, match="idx_sigma must be non-empty"):
            make(1.0, 2.0, 3, frozenset())
        with pytest.raises(ValueError, match="proper subset: the beta band must be non-empty"):
            make(1.0, 2.0, 3, {0, 1, 2})


def test_spectrum_requires_valid_levels():
    with pytest.raises(ValueError, match="dim must be a positive integer, got 0"):
        make_primal_instance(1.0, 2.0, 0, {0})
    for sigma, beta in ((4.0, 1.0), (0.0, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match=r"need 0 < sigma <= beta"):
            make_primal_instance(sigma, beta, 2, {0})
    with pytest.raises(ValueError, match=r"idx_sigma indices must lie in \[0, 2\)"):
        make_primal_instance(1.0, 2.0, 2, {5})


def test_spectrum_equal_levels_allowed():
    assert np.array_equal(make_primal_instance(3.0, 3.0, 2, {0}).f.weights, [3.0, 3.0])


# each index input kind, as a factory (a generator is read once), on dim 10
INDEX_DIM = 10
INDEX_INPUTS = {
    "set": lambda: {1, 4, 7},
    "tuple": lambda: (1, 4, 7),
    "range": lambda: range(2, 9, 3),
    "descending range": lambda: range(9, -1, -4),
    "list with repeats": lambda: [7, 1, 4, 4, 1],
    "int32 array": lambda: np.array([0, 9, 3], dtype=np.int32),
    "int64 array": lambda: np.array([5, 6], dtype=np.int64),
    "rng.choice": lambda: np.random.default_rng(8).choice(INDEX_DIM, size=4, replace=False),
    "generator": lambda: (i for i in (3, 2, 3)),
}


def _two_levels(indices, low: float, high: float) -> np.ndarray:
    """The reference layout: ``low`` on ``indices`` and ``high`` elsewhere."""
    return np.where(np.isin(np.arange(INDEX_DIM), list(indices)), low, high)


@pytest.mark.parametrize("kind", INDEX_INPUTS)
def test_every_index_input_lays_out_the_bands_bitwise(kind):
    make = INDEX_INPUTS[kind]
    sigma, beta, theta, zeta = 0.3, 7.1, 1.7, 2.9
    weights = _two_levels(make(), sigma, beta)
    assert np.array_equal(make_primal_instance(sigma, beta, INDEX_DIM, make()).f.weights, weights)
    for pairing, gains in (("aligned", (theta, zeta)), ("crossed", (zeta, theta))):
        dual = make_dual_instance(sigma, beta, theta, zeta, INDEX_DIM, make(), pairing)
        assert np.array_equal(dual.f.weights, weights)
        assert np.array_equal(dual.a.weights, _two_levels(make(), *gains))


@pytest.mark.parametrize(
    "indices, message",
    [
        (set(), "idx_sigma must be non-empty"),
        (range(8, -1, 2), "idx_sigma must be non-empty"),
        (iter(()), "idx_sigma must be non-empty"),
        ([3, 10], "idx_sigma indices must lie in [0, 10)"),
        (range(5, 11), "idx_sigma indices must lie in [0, 10)"),
        (np.array([10], dtype=np.int32), "idx_sigma indices must lie in [0, 10)"),
        ([2**70], "idx_sigma indices must lie in [0, 10)"),
        ((0, -1), "idx_sigma indices must lie in [0, 10)"),
        (range(-1, 3), "idx_sigma indices must lie in [0, 10)"),
        (np.array([-2, 4]), "idx_sigma indices must lie in [0, 10)"),
        (range(10), "idx_sigma must be a proper subset: the beta band must be non-empty"),
        ([*range(10), 0], "idx_sigma must be a proper subset: the beta band must be non-empty"),
    ],
)
def test_every_rejected_index_input_keeps_its_message(indices, message):
    makers = (
        lambda idx: make_primal_instance(1.0, 2.0, INDEX_DIM, idx),
        lambda idx: make_dual_instance(1.0, 2.0, 1.0, 3.0, INDEX_DIM, idx, "aligned"),
        lambda idx: make_dual_instance(1.0, 2.0, 1.0, 3.0, INDEX_DIM, idx, "crossed"),
    )
    for make in makers:
        with pytest.raises(ValueError, match=re.escape(message)):
            make(indices)


@pytest.mark.parametrize("kind", ["primal", "crossed"])
def test_building_an_instance_takes_a_few_rows(kind):
    # one float row is 8 * dim bytes: an instance holds one weight row (two
    # with its gains) and its build peaks at no more than four, with no
    # Python int per index
    dim = 2**18
    if kind == "primal":
        build = lambda: make_primal_instance(1.0, 10.0, dim, range(dim // 2))
    else:
        build = lambda: make_dual_instance(1.0, 10.0, 1.0, 3.0, dim, range(dim // 2), pairing="crossed")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        problem = build()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert problem.dim == dim
    assert peak <= 4 * 8 * dim


def test_large_instances_keep_their_weights_uncopied():
    # the weights and gains of a crossed dim-1e6 build, and the dual
    # curvatures, are made once and kept as they are: each build peaks at
    # the float rows it keeps plus boolean temporaries of one byte per
    # coordinate (the sigma-band mask and the checks' comparisons), where
    # one copy of a row would add eight
    dim = 10**6

    def traced(build):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = build()
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        return kept, held, peak

    problem, held, peak = traced(lambda: make_dual_instance(1.0, 10.0, 1.0, 3.0, dim, range(dim // 2), "crossed"))
    assert 2 * 8 * dim <= held < 2 * 8 * dim + (1 << 16)
    assert peak <= held + 4 * dim, (held, peak)
    quad, held, peak = traced(lambda: dual_function(problem))
    assert 8 * dim <= held < 8 * dim + (1 << 16)
    assert peak <= held + 2 * dim, (held, peak)
    assert quad.weights.tobytes() == (problem.a.weights**2 / problem.f.weights).tobytes()


def test_adopted_weights_are_checked_and_made_read_only():
    for bad in (np.array([1.0, -1.0]), np.array([1.0, np.inf]), np.empty(0), np.ones((2, 2))):
        with pytest.raises(ValueError):
            DiagQuadratic._adopt(bad)
    with pytest.raises(ValueError, match="theta or zeta"):
        DiagOperator._adopt(np.array([1.0, 2.0]), 1.0, 3.0)
    with pytest.raises(ValueError, match="theta <= zeta"):
        DiagOperator._adopt(np.array([1.0, 3.0]), 3.0, 1.0)
    gains = np.array([1.0, 3.0])
    op = DiagOperator._adopt(gains, 1.0, 3.0)
    assert op.weights is gains and not gains.flags.writeable
    assert (op.theta, op.zeta, op.dim) == (1.0, 3.0, 2)
    quad = DiagQuadratic._adopt(np.array([2.0, 5.0]))
    assert (quad.sigma, quad.beta) == (2.0, 5.0) and not quad.weights.flags.writeable


# -- DiagQuadratic evaluation -------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=40))
def test_extreme_curvatures_are_the_weight_extremes(weights):
    q = DiagQuadratic(weights)
    for _ in range(2):
        assert q.sigma == q.weights.min() and q.beta == q.weights.max()
        assert type(q.sigma) is float and type(q.beta) is float
    assert not q.weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        q.weights[0] = 2.0 * q.beta


def test_grad_f_matches_central_differences(two_band):
    f = lambda x: 0.5 * np.dot(two_band.weights, x**2)
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(20):
        x = rng.uniform(-5, 5, 4)
        g = two_band.weights * x
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (f(xp) - f(xm)) / (2 * h)
            assert abs(g[i] - fd) <= 1e-6


def test_diag_quadratic_rejects_bad_weights():
    with pytest.raises(ValueError):
        DiagQuadratic(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DiagQuadratic(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        DiagQuadratic(np.array([]))


# -- curvature envelope -------------------------------------------------------


def test_certificates_hold_for_spectrum_instances():
    # sigma and beta are the extreme weights, so the instance's own sigma and
    # beta are its best strong-convexity and smoothness constants
    rng = np.random.default_rng(6)
    for _ in range(5):
        dim = int(rng.integers(2, 9))
        sigma = 10.0 ** rng.uniform(-1, 1)
        beta = sigma * 10.0 ** rng.uniform(0, 1.5)
        n_sigma = int(rng.integers(1, dim))
        idx_sigma = rng.choice(dim, n_sigma, replace=False)
        f = make_primal_instance(sigma, beta, dim, idx_sigma).f
        assert f.sigma == sigma and f.beta == beta
        assert np.array_equal(f.weights, np.where(np.isin(np.arange(dim), idx_sigma), sigma, beta))


# -- DiagOperator -------------------------------------------------------------


def test_operator_basis_action():
    op = DiagOperator(np.array([1.0, 1.0, 2.0, 2.0]), theta=1.0, zeta=2.0)
    low, high = op.weights * basis_rows(4, [0, 3])
    assert np.array_equal(low, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(high, [0.0, 0.0, 0.0, 2.0])


def test_operator_rejects_bad_gains():
    with pytest.raises(ValueError):
        DiagOperator(np.array([0.0, 1.0, 1.0]), theta=0.0, zeta=1.0)
    with pytest.raises(ValueError):
        DiagOperator(np.array([2.0, 1.0, 1.0]), theta=2.0, zeta=1.0)
    with pytest.raises(ValueError):
        DiagOperator(np.array([1.0, 1.5]), theta=1.0, zeta=2.0)


def test_composite_problem_dimension_check(two_band):
    op = DiagOperator(np.array([1.0, 2.0, 2.0]), theta=1.0, zeta=2.0)
    with pytest.raises(ValueError, match="dimension"):
        CompositeProblem(f=two_band, g=GFunction.ZERO_INDICATOR, a=op)


# -- dual construction --------------------------------------------------------


def test_dual_function_weights_exact():
    p = make_dual_instance(1.0, 4.0, 1.0, 2.0, 2, {0}, pairing="aligned")
    assert np.array_equal(dual_function(p).weights, [1.0, 1.0])
    p = make_dual_instance(1.0, 4.0, 1.0, 8.0, 2, {0}, pairing="aligned")
    assert np.array_equal(dual_function(p).weights, [1.0, 16.0])
    iso = CompositeProblem(
        f=DiagQuadratic(np.ones(2)),
        g=GFunction.ZERO_INDICATOR,
        a=DiagOperator(np.ones(2), theta=1.0, zeta=1.0),
    )
    assert np.array_equal(dual_function(iso).weights, [1.0, 1.0])


def test_dual_function_weight_formula_random():
    rng = np.random.default_rng(8)
    for _ in range(20):
        lam = rng.uniform(0.5, 5.0, 5)
        theta, zeta = 0.7, 2.3
        gains = np.where(rng.uniform(size=5) < 0.5, theta, zeta)
        gains[0], gains[1] = theta, zeta
        p = CompositeProblem(
            f=DiagQuadratic(lam),
            g=GFunction.ZERO_INDICATOR,
            a=DiagOperator(gains, theta=theta, zeta=zeta),
        )
        expected = gains**2 / lam
        assert np.max(np.abs(dual_function(p).weights - expected)) <= 1e-14 * np.max(expected)


def test_dual_function_requires_indicator_and_operator(two_band):
    with pytest.raises(ValueError, match="indicator"):
        dual_function(CompositeProblem(f=two_band, g=GFunction.ZERO, a=None))
    with pytest.raises(ValueError, match="coupling"):
        dual_function(CompositeProblem(f=two_band, g=GFunction.ZERO_INDICATOR, a=None))


def test_dual_function_matches_numeric_conjugate():
    p = make_dual_instance(1.0, 7.0, 0.8, 2.5, 5, {0, 2}, pairing="crossed")
    d = dual_function(p)
    rng = np.random.default_rng(9)
    for _ in range(100):
        mu = rng.uniform(-3, 3, 5)
        assert abs(0.5 * np.dot(d.weights, mu**2) - conjugate_oracle(p, mu)) <= 1e-8


@st.composite
def oracle_cases(draw):
    """A dual instance from the whole family and one point mu in [-3, 3]^dim:
    sigma <= beta up to condition 1e8, theta < zeta, dim 2..64, a random band
    split and either pairing."""
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    beta = sigma * 10.0 ** draw(st.floats(0.0, 8.0))
    theta = 10.0 ** draw(st.floats(-3.0, 3.0))
    zeta = theta * 10.0 ** draw(st.floats(0.01, 4.0))
    dim = draw(st.integers(2, 64))
    n_sigma = draw(st.integers(1, dim - 1))
    idx_sigma = draw(st.permutations(range(dim)))[:n_sigma]
    pairing = draw(st.sampled_from(PAIRINGS))
    mu = draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim))
    return make_dual_instance(sigma, beta, theta, zeta, dim, idx_sigma, pairing), np.array(mu)


@settings(deadline=None, max_examples=100)
@given(oracle_cases())
def test_numeric_conjugate_matches_dual_over_the_family(case):
    p, mu = case
    value = 0.5 * np.dot(dual_function(p).weights, mu**2)
    assert abs(value - conjugate_oracle(p, mu)) <= 1e-8 * max(1.0, abs(value))


def _scalar_conjugate(p, mu):
    """The conjugate oracle for one point, in Python floats: nonlinear
    conjugate gradients from the origin with the oracle's secant step, probe
    scale and three stop tests, one ``np.dot`` per inner product."""
    amu = p.a.weights * mu
    w = p.f.weights
    jac = lambda x: w * x + amu
    x = np.zeros(amu.size)
    g = jac(x)
    gg = float(np.dot(g, g))
    stop = 1e-10**2 * gg
    d = -g
    for _ in range(50):
        if gg <= stop:
            break
        s = max(1.0, math.sqrt(float(np.dot(x, x)) / float(np.dot(d, d))))
        curv = float(np.dot(jac(x + s * d) - g, d)) / s
        if not curv > 0.0:
            break
        x = x - (float(np.dot(g, d)) / curv) * d
        g = jac(x)
        gg, gg_old = float(np.dot(g, g)), gg
        d = -g + (gg / gg_old) * d
    return -(0.5 * float(np.dot(w, x**2)) + float(np.dot(amu, x)))


@settings(deadline=None, max_examples=100)
@given(oracle_cases(), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_batched_conjugate_oracle_equals_its_one_row_calls_bitwise(case, rows, seed):
    # many points in one call: each row is its own one-row call, and that is
    # the oracle's loop written out in Python floats
    p, mu = case
    many = np.vstack([mu, np.random.default_rng(seed).uniform(-3.0, 3.0, (rows - 1, p.dim))])
    values = conjugate_oracle(p, many)
    assert values.shape == (rows,)
    one_row = np.array([conjugate_oracle(p, row) for row in many])
    assert values.tobytes() == one_row.tobytes()
    assert one_row.tobytes() == np.array([_scalar_conjugate(p, row) for row in many]).tobytes()


def test_conjugate_oracle_stops_where_the_probe_shows_no_curvature():
    # at mu = 2**-537 along a curvature-1/2 coordinate, <g, g> = 2**-1074 is
    # the smallest subnormal, but the probe's curvature <w d, d> = 2**-1075
    # rounds to 0: the row stops at the origin rather than divide by it,
    # while a row of normal scale in the same call runs as it does alone
    assert (2.0**-537) ** 2 > 0.0 and 0.5 * 2.0**-537 * 2.0**-537 == 0.0
    p = CompositeProblem(DiagQuadratic([0.5, 2.0]), GFunction.ZERO_INDICATOR, DiagOperator([1.0, 3.0], 1.0, 3.0))
    mu = np.array([[2.0**-537, 0.0], [1.0, -1.0]])
    values = conjugate_oracle(p, mu)
    assert values[0] == 0.0
    assert values[1] == conjugate_oracle(p, mu[1]) == pytest.approx(0.5 * np.dot(dual_function(p).weights, mu[1] ** 2))
    assert values.tobytes() == np.array([_scalar_conjugate(p, row) for row in mu]).tobytes()


def test_conjugate_oracle_needs_a_coupling(two_band):
    with pytest.raises(ValueError, match="coupling"):
        conjugate_oracle(CompositeProblem(f=two_band, g=GFunction.ZERO_INDICATOR), np.ones(4))


@pytest.mark.parametrize("shape", [(), (3,), (5,), (2, 3), (2, 5), (1, 2, 4)])
def test_conjugate_oracle_names_the_dimension(shape):
    p = make_dual_instance(1.0, 4.0, 1.0, 2.0, 4, {0, 1})
    with pytest.raises(ValueError, match="dimension 4"):
        conjugate_oracle(p, np.ones(shape))


def test_dual_envelope_constants_bound_dual_weights():
    # dual curvatures always sit within [theta^2/beta, zeta^2/sigma]
    for pairing in ("aligned", "crossed"):
        p = make_dual_instance(1.0, 10.0, 1.0, 3.0, 8, range(4), pairing=pairing)
        weights = dual_function(p).weights
        constants = dual_rate_constants(1.0, 10.0, 1.0, 3.0)
        assert constants.sigma_hat <= weights.min()
        assert weights.max() <= constants.beta_hat
