"""The README's code and key list, run and read against the package."""

import re
from pathlib import Path

from splitrate import cli

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_tour_runs():
    block = re.search(r"## Library tour\s+```python\n(.*?)```", README, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md (Library tour)", "exec"), namespace)
    assert namespace["admm_runs"].steps[0] == namespace["dual_runs"].steps[0] == 50


def test_readme_lists_every_config_key():
    listed = re.search(r"can hold\s+any of `([^`]*)`", README).group(1).split()
    assert listed == list(cli._CONFIG_KEYS)
