"""End-to-end gate: every verification criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion. ``splitrate verify`` runs the same
battery from the command line.
"""

import pytest

from splitrate import acceptance


@pytest.mark.parametrize("check", acceptance.ALL_CHECKS, ids=lambda c: c.__name__.removeprefix("check_"))
def test_criterion(check):
    result = check()
    print(result.line())
    assert result.passed, result.detail


def test_contraction_bound_grid_detail_is_unchanged():
    passed, detail = acceptance._contraction_bound_grid()
    assert passed
    assert detail == "11200 runs over 224 feasible grid points, max(empirical - bound) = 1.110e-16 <= 1e-9"
