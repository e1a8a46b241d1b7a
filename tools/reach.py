#!/usr/bin/env python3
"""Reachability audit: which functions under ``src/repro`` does each kind
of run reach?

A stdlib ``sys.setprofile`` hook (and ``threading.setprofile`` for
threads) records every Python function entered while the tool runs,
in two phases:

1. the paper artifacts — both perfbench workloads for one second each,
   ``repro walkthrough``, ``repro figures all`` at ``REPRO_SCALE=10``,
   and every script in ``examples/``;
2. then, unless ``--paper-only``, the ``tests/`` and ``benchmarks/``
   suites through ``pytest.main``.

Every function defined in ``src/repro`` (methods and nested functions
included; lambdas and comprehensions belong to their enclosing
function) falls in exactly one class:

``paper``      entered by a paper artifact;
``tests``      entered only by the test or benchmark suites;
``unreached``  entered by nothing that ran.

A function's lines are its own: from its ``def`` (or first decorator)
to its last line, minus the functions nested in it, so every line that
lies inside some function counts once.

Usage::

    python tools/reach.py                   # the summary table
    python tools/reach.py --list unreached  # plus every function in a class
    python tools/reach.py --paper-only      # skip the suites: minutes, not tens

The suites' pass/fail is ignored: the hook slows every Python call, so
the micro-benchmarks' speed gates may fail under it; only what was
entered is read.  Work done in a subprocess (a test that starts a fresh
interpreter) is invisible to the hook.  The benchmark suites write
their result files to a temporary directory, not the repository root.
The tool runs with ``PYTHONHASHSEED=0`` (it re-executes itself to get
it), the hash seed perfbench pins, so perfbench runs in this process.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HASH_SEED = "0"  # perfbench/run.py re-executes itself under any other
CLASSES = ("paper", "tests", "unreached")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

Site = Tuple[str, int]  # (real path, first line) — a code object's identity


class Function(NamedTuple):
    path: str
    qualname: str
    first: int
    lines: int


def _collect(node: ast.AST, prefix: str, path: str, out: List[Function]) -> int:
    """Append every function under ``node`` to ``out``; return the line
    span of the functions directly under it (for the enclosing
    function's own-line count)."""
    covered = 0
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FUNCTIONS):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            span = child.end_lineno - first + 1
            name = prefix + child.name
            inner = _collect(child, name + ".<locals>.", path, out)
            out.append(Function(path, name, first, span - inner))
            covered += span
        elif isinstance(child, ast.ClassDef):
            covered += _collect(child, prefix + child.name + ".", path, out)
        else:
            covered += _collect(child, prefix, path, out)
    return covered


def source_functions() -> List[Function]:
    out: List[Function] = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        _collect(tree, "", os.path.realpath(path), out)
    return out


class Recorder:
    """The profile hook: the set of code objects entered so far."""

    def __init__(self) -> None:
        self.codes: Set[object] = set()

    def hook(self, frame, event, _arg) -> None:
        if event == "call":
            self.codes.add(frame.f_code)

    @contextlib.contextmanager
    def recording(self) -> Iterator[None]:
        threading.setprofile(self.hook)
        sys.setprofile(self.hook)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    def take(self) -> Set[Site]:
        """The sites entered since the last call, and reset."""
        sites = {
            (os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in self.codes
        }
        self.codes = set()
        return sites


def paper_artifacts() -> Iterator[Tuple[str, Callable[[], object]]]:
    perfbench = runpy.run_path(str(ROOT / "perfbench" / "run.py"), run_name="perfbench")
    for workload in ("session-real-naive", "query-ht"):
        yield f"perfbench {workload} --seconds 1", (
            lambda w=workload: perfbench["main"](["--workload", w, "--seconds", "1"])
        )
    from repro.cli import main as cli

    yield "repro walkthrough", lambda: cli(["walkthrough"])
    yield "REPRO_SCALE=10 repro figures all", lambda: cli(["figures", "all"])
    for script in sorted((ROOT / "examples").glob("*.py")):
        yield f"examples/{script.name}", (
            lambda s=script: runpy.run_path(str(s), run_name="__main__")
        )


def run_suites(out_dir: str) -> int:
    import pytest

    os.environ["REPRO_BENCH_OUT"] = os.path.join(out_dir, "BENCH_micro.json")
    os.environ["REPRO_BENCH_OUT_CONCURRENCY"] = os.path.join(
        out_dir, "BENCH_concurrency.json"
    )
    with contextlib.redirect_stdout(io.StringIO()):
        return int(
            pytest.main(
                [str(ROOT / "tests"), str(ROOT / "benchmarks"), "-q", "-p", "no:cacheprovider"]
            )
        )


def classify(
    functions: List[Function], paper: Set[Site], suites: Set[Site]
) -> Dict[str, List[Function]]:
    classes: Dict[str, List[Function]] = {name: [] for name in CLASSES}
    for function in functions:
        site = (function.path, function.first)
        if site in paper:
            classes["paper"].append(function)
        elif site in suites:
            classes["tests"].append(function)
        else:
            classes["unreached"].append(function)
    return classes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--paper-only", action="store_true", help="skip tests/ and benchmarks/")
    parser.add_argument("--list", choices=CLASSES, action="append", default=[])
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    os.environ["REPRO_SCALE"] = "10"
    sys.path.insert(0, str(SRC))
    functions = source_functions()
    recorder = Recorder()

    for label, run in paper_artifacts():
        print(f"running {label}", file=sys.stderr)
        with recorder.recording(), contextlib.redirect_stdout(io.StringIO()):
            run()
    paper = recorder.take()
    suites: Set[Site] = set()
    if not args.paper_only:
        print("running tests/ and benchmarks/ (pass/fail ignored)", file=sys.stderr)
        with tempfile.TemporaryDirectory() as out_dir, recorder.recording():
            status = run_suites(out_dir)
        print(f"pytest exit status {status}", file=sys.stderr)
        suites = recorder.take()

    classes = classify(functions, paper, suites)
    total_lines = sum(function.lines for function in functions)
    print(f"{'class':<10} {'functions':>9} {'lines':>7} {'share':>6}")
    for name in CLASSES:
        members = classes[name]
        lines = sum(function.lines for function in members)
        print(f"{name:<10} {len(members):>9} {lines:>7} {lines / total_lines:>6.1%}")
    print(f"{'total':<10} {len(functions):>9} {total_lines:>7}")
    for name in args.list:
        print(f"\n{name}:")
        for function in sorted(classes[name]):
            relative = os.path.relpath(function.path, ROOT)
            print(f"  {relative}:{function.first} {function.qualname} ({function.lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
