"""The storage kernel / query layer boundary.

The paper's provenance path reaches the engine only through the storage
kernel (``errors``, ``types``, ``codec``, ``schema``, ``index``,
``table``, ``wal``, ``db``, ``snapshot``).  The query layer (``expr``,
``plan``, ``query``, ``sql``, ``mvcc``, ``server``, ``client``) sits
above it, and imports run one way only.  This gate imports every
paper-path package in a fresh interpreter, drives a WAL-backed
``Database`` through its whole kernel surface, and then checks that no
query-layer module (nor ``asyncio``, which the server pulls in) was
loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

QUERY_LAYER = [
    "repro.storage.expr",
    "repro.storage.plan",
    "repro.storage.query",
    "repro.storage.sql",
    "repro.storage.mvcc",
    "repro.storage.server",
    "repro.storage.client",
    "repro.workloads.concurrent",
    "asyncio",
]

_PROBE = r"""
import importlib
import json
import pkgutil
import sys
import tempfile

import repro
import repro.core

for info in pkgutil.walk_packages(repro.core.__path__, "repro.core."):
    importlib.import_module(info.name)
for name in ("repro.wrappers", "repro.xmldb", "repro.workloads.runner",
             "repro.bench", "repro.cli"):
    importlib.import_module(name)

from repro.storage.db import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.types import ColumnType

with tempfile.TemporaryDirectory() as wal_dir:
    db = Database("kernel", wal_dir=wal_dir)
    table = db.create_table(TableSchema(
        "t",
        [Column("k", ColumnType.INT, nullable=False), Column("v", ColumnType.TEXT)],
        primary_key=("k",),
    ))
    db.insert_many("t", [(k, f"v{k}") for k in range(6)])
    db.begin()
    db.insert("t", (6, "v6"))
    db.commit()
    db.begin()
    db.insert("t", (7, "rolled back"))
    db.rollback()
    rowid = lambda k: table.lookup_pk((k,))[0]
    db.delete_rowids("t", [rowid(0), rowid(1)])
    db.update_rowids("t", [rowid(2), rowid(3)], {"v": "w"})
    before = sorted(row for _rowid, row in table.scan())
    db.crash()
    report = db.recover()
    after = sorted(row for _rowid, row in table.scan())

print(json.dumps({
    "same_rows": before == after,
    "rows": after,
    "txns_replayed": report.txns_replayed,
    "loaded": sorted(name for name in QUERY_LAYER if name in sys.modules),
}))
"""


def test_paper_path_loads_no_query_layer_module():
    env = dict(os.environ, PYTHONPATH=SRC)
    code = f"QUERY_LAYER = {QUERY_LAYER!r}\n" + _PROBE
    out = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["loaded"] == []
    assert result["same_rows"]
    assert result["rows"] == [
        [2, "w"], [3, "w"], [4, "v4"], [5, "v5"], [6, "v6"],
    ]
    # insert_many, the explicit commit, and the two rowid statements
    assert result["txns_replayed"] == 4
