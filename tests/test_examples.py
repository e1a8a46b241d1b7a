"""Smoke tests: every shipped example must run cleanly and print its
key conclusions (examples are documentation; broken documentation is a
bug)."""

import os
import runpy
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def run_example(name, capsys):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    sys.path.insert(0, os.path.dirname(path))
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.path.pop(0)
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    # copied from SwissProt in txn 1, moved to its qualified name in txn 2
    assert "Hist (transactions that copied it): [2, 1]" in out
    assert "SwissProt/O95477/PTM/kind" in out  # Own reaches the source
    assert "MyDB after curation:" in out


def test_paper_walkthrough(capsys):
    out = run_example("paper_walkthrough.py", capsys)
    assert "(16 records)" in out  # Figure 5(a)
    assert "(13 records)" in out  # Figure 5(b)
    assert "(10 records)" in out  # Figure 5(c)
    assert "(7 records)" in out   # Figure 5(d)
    assert "S2/b3/y" in out


def test_bulk_citations(capsys):
    out = run_example("bulk_citations.py", capsys)
    assert "bulk copy imported 20 citations in one transaction" in out
    assert "Approximate records stored:      2" in out
    assert "True" in out


def test_lost_source_recovery(capsys):
    out = run_example("lost_source_recovery.py", capsys)
    assert "Recovered" in out
    assert "Conflicts" in out
    assert "CRP-beta" in out or "CRP" in out


def test_filesystem_curation(capsys):
    out = run_example("filesystem_curation.py", capsys)
    assert "curator_note content:" in out
    assert "localization of O00000 copied in txn: [1]" in out
    assert "version 2 has curator_note: True" in out


def _curated_dirs(root):
    return [name for name in os.listdir(root) if name.startswith("curated_fsdb_")]


def test_filesystem_curation_removes_its_directory(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    run_example("filesystem_curation.py", capsys)
    assert _curated_dirs(tmp_path) == []


def test_filesystem_curation_removes_its_directory_on_error(capsys, monkeypatch, tmp_path):
    import repro

    def broken_archive():
        raise RuntimeError("archive unavailable")

    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    monkeypatch.setattr(repro, "VersionArchive", broken_archive)
    with pytest.raises(RuntimeError, match="archive unavailable"):
        run_example("filesystem_curation.py", capsys)
    assert _curated_dirs(tmp_path) == []
