import pytest

import golden
from splitrate import cli, splitting


@pytest.mark.parametrize("entry", [e for e in golden.ENTRIES if e.size == "small"], ids=lambda e: e.name)
def test_pinned_output(monkeypatch, entry):
    # rows longer than a column block are walked in passes of 4 steps and of 1,
    # by one process and by two; shorter rows take neither setting
    dim = int(getattr(cli.build_parser().parse_args(entry.command.split()), "K", None) or 0)
    monkeypatch.setattr(splitting, "RUN_ELEMENTS", splitting.COLUMN_BLOCK)
    for pass_steps, workers in [(4, 1), (4, 2), (1, 1), (1, 2)][: 4 if dim > splitting.COLUMN_BLOCK else 1]:
        monkeypatch.setattr(splitting, "PASS_STEPS", pass_steps)
        monkeypatch.setattr(splitting, "WORKERS", workers)
        assert golden.mismatch(entry) is None, (pass_steps, workers)


def test_a_wrong_digest_is_reported_with_both_digests():
    entry = golden.ENTRIES[0]
    assert golden.mismatch(entry._replace(sha256="0" * 64)) == f"{entry.name}: expected {'0' * 64}, got {entry.sha256}"


def test_a_planted_defect_fails_the_default_sweeps(monkeypatch):
    # a divergence guard that trips at twice the starting distance, not 10x
    monkeypatch.setattr(splitting, "DIVERGENCE_FACTOR", 2.0)
    entries = {entry.name: entry for entry in golden.ENTRIES}
    assert all(golden.mismatch(entries[f"sweep-{s}-{m}"]) for s in ("worst", "random-seed7") for m in splitting.MODES)


def test_names_are_unique_and_large_entries_parse():
    names = [entry.name for entry in golden.ENTRIES]
    assert len(set(names)) == len(names)
    for entry in (e for e in golden.ENTRIES if e.size == "large"):
        assert cli._config_from_args(cli.build_parser().parse_args(entry.command.split())).dim == 10**6, entry.name
