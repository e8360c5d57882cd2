"""End-to-end gate: every verification criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion. ``splitrate verify`` runs the same
battery from the command line.
"""

import numpy as np
import pytest

from splitrate import acceptance

#: each property sub-check also runs here on a stream of its own, apart from
#: the one stream the battery shares between them
PROPERTY_SEEDS = {
    "psi-monotonicity": 16,
    "psi-reciprocal": 17,
    "prox-diag": 13,
    "prox-g": 14,
    "prox-oracle": 12,
    "coupling-operator": 7,
    "coefficient-norm": 2,
    "isometry": 3,
}


@pytest.mark.parametrize("check", acceptance.ALL_CHECKS, ids=lambda c: c.__name__.removeprefix("check_"))
def test_criterion(check):
    result = check()
    print(result.line())
    assert result.passed, result.detail


def test_contraction_bound_grid_detail_is_unchanged():
    passed, detail = acceptance._contraction_bound_grid()
    assert passed
    assert detail == "11200 runs over 224 feasible grid points, max(empirical - bound) = 1.110e-16 <= 1e-9"


@pytest.mark.parametrize("name", acceptance._PROPERTY_CHECKS)
def test_property_check(name):
    passed, note = acceptance._PROPERTY_CHECKS[name](np.random.default_rng(PROPERTY_SEEDS[name]))
    assert passed, note
