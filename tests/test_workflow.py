"""The CI workflow, read as text: after the install and the numpy pin it runs
tier-1 and the stages of ``tests/ci.py``, among them every stage that
CHANGES.md maps an old workflow step to; the console script it installs is
``splitrate.cli:main``; and every Python file parses as Python 3.10, the
oldest version of its matrix."""

import ast
import re
from pathlib import Path

from splitrate import cli

ROOT = Path(__file__).parents[1]


def test_the_workflow_runs_tier_1_and_the_ci_stages():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert re.findall(r"^[\s-]*run:[ \t]*(.*)$", workflow, re.M) == [
        'python -m pip install -e ".[test]"',
        'python -m pip install "numpy==${{ matrix.numpy }}"',
        "python -m pytest -q --continue-on-collection-errors --durations=10",
        "python -m pytest -q tests/ci.py --durations=0",
    ]


def test_ci_defines_every_stage_that_changes_maps_a_step_to():
    mapped = set(re.findall(r"tests/ci\.py::(\w+)", (ROOT / "CHANGES.md").read_text(encoding="utf-8")))
    tree = ast.parse((ROOT / "tests" / "ci.py").read_text(encoding="utf-8"))
    stages = {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    assert mapped and mapped <= stages, mapped - stages


def test_the_console_script_is_the_command_line_main():
    # the stages run ``python -m splitrate``, which needs no install; this
    # keeps the installed ``splitrate`` command checked
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert pyproject.split("[project.scripts]\n")[1].split("\n\n")[0] == 'splitrate = "splitrate.cli:main"'
    assert callable(cli.main)


def test_every_python_file_parses_as_python_3_10():
    for path in sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
