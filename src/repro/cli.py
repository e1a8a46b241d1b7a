"""Command-line interface.

::

    python -m repro walkthrough
        Replay the paper's Figures 3-5 worked example and print the four
        provenance tables.

    python -m repro figures [7 8 9 10 11 12 13 table1 | all]
        Run the corresponding experiments and print each figure
        (honours REPRO_SCALE / REPRO_FULL_SCALE).

    python -m repro apply SCRIPT --target tree.json \
           --source S1=s1.json [--method HT] [--commit-every N] \
           [--query src=T/a/b] [--query hist=T/a] [--query mod=T]
        Apply a copy-paste update script (the paper's concrete syntax)
        to a JSON tree with provenance tracking; print the final tree,
        the provenance table, and any requested queries.

    python -m repro recover --wal-dir DIR [--name db] \
           [--mode strict|tolerant] [--json]
        Rebuild a database from its WAL — the newest checkpoint image,
        whose catalog creates the tables, and the frames after it — and
        print the recovery report (transactions replayed/dropped,
        torn-tail and quarantined bytes, corruption site if any) and
        the recovered per-table row counts.  ``--mode strict`` (the
        default) fails on the first corrupt frame or image;
        ``tolerant`` replays the longest clean committed prefix.  A
        failure exits with code 1 and a one-line typed message.

Trees are JSON objects: nested objects are interior nodes, scalars are
leaf values (exactly :meth:`repro.core.tree.Tree.from_dict`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from .core.editor import CurationEditor
from .core.provenance import ProvTable
from .core.queries import ProvenanceQueries
from .core.stores import STORE_METHODS, make_store
from .core.tree import Tree
from .core.updates import parse_script
from .wrappers.memory import MemorySourceDB, MemoryTargetDB

__all__ = ["main"]


def _load_tree(path: str) -> Tree:
    with open(path, "r", encoding="utf-8") as handle:
        return Tree.from_dict(json.load(handle))


def _cmd_walkthrough(_args: argparse.Namespace) -> int:
    """Replay Figures 3-5 (self-contained; mirrors
    examples/paper_walkthrough.py)."""
    script = """
    (1) delete c5 from T;          (2) copy S1/a1/y into T/c1/y;
    (3) insert {c2 : {}} into T;   (4) copy S1/a2 into T/c2;
    (5) insert {y : {}} into T/c2; (6) copy S2/b3/y into T/c2/y;
    (7) copy S1/a3 into T/c3;      (8) insert {c4 : {}} into T;
    (9) copy S2/b2 into T/c4;      (10) insert {y : 12} into T/c4;
    """
    updates = parse_script(script)

    def fresh(method):
        store = make_store(method, ProvTable(), first_tid=121)
        return CurationEditor(
            target=MemoryTargetDB("T", Tree.from_dict(
                {"c1": {"x": 1, "y": 3}, "c5": {"x": 9, "y": 7}})),
            sources=[
                MemorySourceDB("S1", Tree.from_dict(
                    {"a1": {"x": 1, "y": 2}, "a2": {"x": 3}, "a3": {"x": 7, "y": 5}})),
                MemorySourceDB("S2", Tree.from_dict(
                    {"b1": {"x": 1, "y": 2}, "b2": {"x": 4}, "b3": {"x": 7, "y": 6}})),
            ],
            store=store,
        )

    configs = [
        ("Figure 5(a): naive", "N", None),
        ("Figure 5(b): transactional (one transaction)", "T", len(updates)),
        ("Figure 5(c): hierarchical", "H", None),
        ("Figure 5(d): hierarchical-transactional", "HT", len(updates)),
    ]
    first = True
    for title, method, commit_every in configs:
        editor = fresh(method)
        editor.run_script(updates, commit_every=commit_every)
        if first:
            print("Figure 4: resulting target database T'")
            print(editor.target_tree().render())
            print()
            first = False
        print(title)
        for record in editor.store.records():
            src = f" <- {record.src}" if record.src is not None else ""
            print(f"  ({record.tid}, {record.op}, {record.loc}{src})")
        print(f"  [{editor.store.row_count} records]")
        print()
    return 0


_FIGURES = ("table1", "7", "8", "9", "10", "11", "12", "13")


def _cmd_figures(args: argparse.Namespace) -> int:
    from .bench import (
        experiment1,
        experiment2,
        experiment3,
        experiment4,
        experiment5,
        render_fig7,
        render_fig8,
        render_fig9,
        render_fig10,
        render_fig11,
        render_fig12,
        render_fig13,
        render_table1,
    )

    wanted = list(args.which) or ["all"]
    if "all" in wanted:
        wanted = list(_FIGURES)
    unknown = [w for w in wanted if w not in _FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; "
              f"choose from {', '.join(_FIGURES)} or 'all'", file=sys.stderr)
        return 2

    exp2 = None
    if "table1" in wanted:
        print(render_table1(), end="\n\n")
    if "7" in wanted:
        print(render_fig7(experiment1()), end="\n\n")
    if {"8", "9", "10"} & set(wanted):
        exp2 = experiment2()
    if "8" in wanted:
        print(render_fig8(exp2), end="\n\n")
    if "9" in wanted:
        print(render_fig9(exp2), end="\n\n")
    if "10" in wanted:
        print(render_fig10(exp2), end="\n\n")
    if "11" in wanted:
        print(render_fig11(experiment3()), end="\n\n")
    if "12" in wanted:
        print(render_fig12(experiment4()), end="\n\n")
    if "13" in wanted:
        print(render_fig13(experiment5()), end="\n\n")
    return 0


def _parse_query_args(pairs: Sequence[str]) -> List[tuple]:
    queries = []
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--query expects kind=LOCATION, got {pair!r}")
        kind, loc = pair.split("=", 1)
        if kind not in ("src", "hist", "mod"):
            raise SystemExit(f"query kind must be src/hist/mod, got {kind!r}")
        queries.append((kind, loc))
    return queries


def _cmd_apply(args: argparse.Namespace) -> int:
    with open(args.script, "r", encoding="utf-8") as handle:
        updates = parse_script(handle.read())

    target_name = args.target_name
    target_tree = _load_tree(args.target) if args.target else Tree.empty()
    sources = []
    for spec in args.source:
        if "=" not in spec:
            print(f"--source expects NAME=tree.json, got {spec!r}", file=sys.stderr)
            return 2
        name, path = spec.split("=", 1)
        sources.append(MemorySourceDB(name, _load_tree(path)))

    store = make_store(args.method, ProvTable())
    editor = CurationEditor(
        target=MemoryTargetDB(target_name, target_tree),
        sources=sources,
        store=store,
    )
    editor.run_script(updates, commit_every=args.commit_every)
    if args.commit_every is None:
        editor.commit()

    print(f"Applied {len(updates)} operations "
          f"({store.method} provenance, {store.row_count} records).")
    print()
    print(f"Final {target_name}:")
    print(editor.target_tree().render() or "  (empty)")
    print()
    print("Provenance table:")
    print(f"  {'Tid':>4}  {'Op':2}  Loc -> Src")
    for record in store.records():
        src = f" <- {record.src}" if record.src is not None else ""
        print(f"  {record.tid:>4}  {record.op:2}  {record.loc}{src}")

    queries = _parse_query_args(args.query)
    if queries:
        print()
        engine = ProvenanceQueries(store, target_name=target_name)
        for kind, loc in queries:
            if kind == "src":
                answer = engine.get_src(loc)
            elif kind == "hist":
                answer = engine.get_hist(loc)
            else:
                answer = sorted(engine.get_mod(loc))
            print(f"{kind}({loc}) = {answer}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from .storage.db import Database
    from .storage.errors import StorageError

    try:
        db = Database(args.name, wal_dir=args.wal_dir)
        try:
            report = db.recover(mode=args.mode)
        finally:
            db.close()
    except (StorageError, OSError) as exc:
        print(f"recovery failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    tables = {name: table.row_count for name, table in sorted(db.tables.items())}
    if args.json:
        print(json.dumps({"report": report.as_dict(), "tables": tables}, indent=2))
        return 0
    print(report.summary())
    for name, rows in tables.items():
        print(f"  {name}: {rows} row(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CPDB reproduction: copy-paste provenance for curated databases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("walkthrough", help="replay the paper's Figures 3-5 example")

    figures = sub.add_parser("figures", help="run experiments and print figures")
    figures.add_argument("which", nargs="*", default=["all"],
                         help="table1, 7-13, or 'all'")

    apply_cmd = sub.add_parser("apply", help="apply an update script with tracking")
    apply_cmd.add_argument("script", help="update script file (Figure 3 syntax)")
    apply_cmd.add_argument("--target", help="initial target tree (JSON)", default=None)
    apply_cmd.add_argument("--target-name", default="T")
    apply_cmd.add_argument("--source", action="append", default=[],
                           metavar="NAME=tree.json")
    apply_cmd.add_argument("--method", default="HT",
                           choices=sorted(set(STORE_METHODS)),
                           help="provenance storage strategy")
    apply_cmd.add_argument("--commit-every", type=int, default=None)
    apply_cmd.add_argument("--query", action="append", default=[],
                           metavar="src|hist|mod=LOCATION")

    recover_cmd = sub.add_parser(
        "recover", help="rebuild a database from its WAL and report"
    )
    recover_cmd.add_argument("--wal-dir", required=True,
                             help="directory holding the database's WAL")
    recover_cmd.add_argument("--name", default="db",
                             help="database name (names the WAL file)")
    recover_cmd.add_argument("--mode", default="strict",
                             choices=("strict", "tolerant"),
                             help="fail on corruption, or replay the clean prefix")
    recover_cmd.add_argument("--json", action="store_true",
                             help="machine-readable report")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "walkthrough":
        return _cmd_walkthrough(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "apply":
        return _cmd_apply(args)
    if args.command == "recover":
        return _cmd_recover(args)
    raise SystemExit(2)  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
