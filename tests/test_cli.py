"""Tests for the command-line interface."""

import json

import pytest

import repro.cli
from repro.cli import main
from repro.core.provenance import ProvTable


@pytest.fixture
def session_files(tmp_path):
    target = tmp_path / "t.json"
    target.write_text(json.dumps({"c1": {"x": 1, "y": 3}, "c5": {"x": 9, "y": 7}}))
    s1 = tmp_path / "s1.json"
    s1.write_text(json.dumps({"a1": {"x": 1, "y": 2}, "a2": {"x": 3},
                              "a3": {"x": 7, "y": 5}}))
    s2 = tmp_path / "s2.json"
    s2.write_text(json.dumps({"b1": {"x": 1, "y": 2}, "b2": {"x": 4},
                              "b3": {"x": 7, "y": 6}}))
    script = tmp_path / "fig3.cpdb"
    script.write_text(
        """
        (1) delete c5 from T;
        (2) copy S1/a1/y into T/c1/y;
        (3) insert {c2 : {}} into T;
        (4) copy S1/a2 into T/c2;
        (5) insert {y : {}} into T/c2;
        (6) copy S2/b3/y into T/c2/y;
        (7) copy S1/a3 into T/c3;
        (8) insert {c4 : {}} into T;
        (9) copy S2/b2 into T/c4;
        (10) insert {y : 12} into T/c4;
        """
    )
    return target, s1, s2, script


class TestApply:
    def _run(self, session_files, capsys, *extra):
        target, s1, s2, script = session_files
        code = main([
            "apply", str(script),
            "--target", str(target),
            "--source", f"S1={s1}",
            "--source", f"S2={s2}",
            *extra,
        ])
        captured = capsys.readouterr()
        return code, captured.out

    def test_apply_naive(self, session_files, capsys):
        code, out = self._run(session_files, capsys, "--method", "N")
        assert code == 0
        assert "Applied 10 operations" in out
        assert "16 records" in out  # Figure 5(a)
        assert "c4:" in out and "y: 12" in out

    @pytest.mark.parametrize("method", ["N", "H", "T", "HT"])
    def test_apply_leaves_no_transaction_open(self, session_files, capsys, monkeypatch, method):
        tables = []

        def recorded_table():
            tables.append(ProvTable())
            return tables[-1]

        monkeypatch.setattr(repro.cli, "ProvTable", recorded_table)
        code, _out = self._run(session_files, capsys, "--method", method)
        assert code == 0
        [table] = tables
        assert not table.db.in_transaction

    def test_apply_ht_single_transaction(self, session_files, capsys):
        code, out = self._run(
            session_files, capsys, "--method", "HT", "--commit-every", "10"
        )
        assert code == 0
        assert "7 records" in out  # Figure 5(d)

    def test_apply_with_queries(self, session_files, capsys):
        code, out = self._run(
            session_files, capsys,
            "--method", "N",
            "--query", "hist=T/c2/y",
            "--query", "src=T/c4/y",
            "--query", "mod=T/c2",
        )
        assert code == 0
        assert "hist(T/c2/y) = [6]" in out
        assert "src(T/c4/y) = 10" in out
        assert "mod(T/c2) = [3, 4, 5, 6]" in out

    def test_bad_source_spec(self, session_files, capsys):
        target, _s1, _s2, script = session_files
        code = main(["apply", str(script), "--target", str(target),
                     "--source", "nonsense"])
        assert code == 2

    def test_bad_query_kind(self, session_files, capsys):
        target, s1, s2, script = session_files
        with pytest.raises(SystemExit):
            main(["apply", str(script), "--target", str(target),
                  "--source", f"S1={s1}", "--source", f"S2={s2}",
                  "--query", "bogus=T/c2"])


class TestWalkthrough:
    def test_walkthrough_prints_all_tables(self, capsys):
        assert main(["walkthrough"]) == 0
        out = capsys.readouterr().out
        assert "[16 records]" in out
        assert "[13 records]" in out
        assert "[10 records]" in out
        assert "[7 records]" in out
        assert "Figure 4" in out


class TestFigures:
    def test_unknown_figure_rejected(self, capsys):
        assert main(["figures", "99"]) == 2

    def test_table1(self, capsys):
        assert main(["figures", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Summary of experiments" in out
        assert "14000" in out

    def test_figure12(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "20")
        assert main(["figures", "12"]) == 0
        out = capsys.readouterr().out
        assert "transaction length" in out.lower()


class TestRecover:
    def _make_crashed_db(self, tmp_path):
        from repro.storage import Column, ColumnType, Database, TableSchema
        from repro.storage.snapshot import checkpoint

        wal_dir = str(tmp_path / "store")
        db = Database("db", wal_dir=wal_dir)
        db.create_table(
            TableSchema(
                "t",
                [Column("id", ColumnType.INT, nullable=False)],
                primary_key=("id",),
            )
        )
        db.insert_many("t", [(i,) for i in range(4)])
        snap = str(tmp_path / "db.snap")
        checkpoint(db, snap)
        db.insert("t", (99,))  # committed after the checkpoint
        db.crash()
        return snap, wal_dir

    def test_recover_reports_and_counts(self, tmp_path, capsys):
        snap, wal_dir = self._make_crashed_db(tmp_path)
        code = main(["recover", snap, "--wal-dir", wal_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 txn(s) replayed" in out
        assert "t: 5 row(s)" in out

    def test_recover_json(self, tmp_path, capsys):
        snap, wal_dir = self._make_crashed_db(tmp_path)
        code = main(["recover", snap, "--wal-dir", wal_dir, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["report"]["txns_replayed"] == 1
        assert payload["report"]["mode"] == "strict"
        assert payload["tables"] == {"t": 5}

    def test_recover_corrupt_snapshot_fails_cleanly(self, tmp_path, capsys):
        snap, wal_dir = self._make_crashed_db(tmp_path)
        with open(snap, "r+b") as handle:
            handle.seek(25)
            byte = handle.read(1)
            handle.seek(25)
            handle.write(bytes([byte[0] ^ 0x10]))
        code = main(["recover", snap, "--wal-dir", wal_dir])
        err = capsys.readouterr().err
        assert code == 1
        assert "recovery failed" in err
        assert "mismatch" in err
