import itertools

import pytest

import golden
from splitrate import cli, splitting


@pytest.mark.parametrize("entry", [e for e in golden.ENTRIES if e.size == "small"], ids=lambda e: e.name)
def test_pinned_output(monkeypatch, entry):
    # rows longer than a column block are walked under every pass policy, by
    # one process and by two; shorter rows take neither setting
    dim = int(getattr(cli.build_parser().parse_args(entry.command.split()), "K", None) or 0)
    monkeypatch.setattr(splitting, "RUN_ELEMENTS", splitting.COLUMN_BLOCK)
    runs = list(itertools.product(golden.POLICIES.items(), (1, 2)))
    for (policy, settings), workers in runs if dim > splitting.COLUMN_BLOCK else runs[:1]:
        with monkeypatch.context() as patch:
            for name, value in {**settings, "WORKERS": workers}.items():
                patch.setattr(splitting, name, value)
            assert golden.mismatch(entry) is None, (policy, workers)


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
