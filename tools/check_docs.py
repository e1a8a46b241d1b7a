#!/usr/bin/env python3
"""Fail on broken intra-repo links, missing required sections, and
stale ``Database`` method references.

Scans the given markdown files (default: README.md and everything under
docs/) for inline links, keeps the relative ones (external URLs and
pure in-page anchors are skipped), strips any ``#fragment``, and checks
that each target exists relative to the linking file.  It also asserts
that the load-bearing documents still carry their **required
sections** (exact heading text, any heading level) — the sections CI
and the README link into by anchor, so a rename or deletion fails the
docs job instead of silently 404ing the anchor.  Finally, every
inline-code reference of the form ```Database.<name>``` must name an
attribute of a :class:`repro.storage.db.Database` (class or instance
attribute), so a method that moves
off the storage kernel cannot stay documented on it.  Exit status 1
lists every problem.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# inline markdown links: [text](target); images share the syntax
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# `Database.<name>` at the start of an inline code span (arguments,
# subscripts and attribute chains may follow the name)
_DATABASE_REF_RE = re.compile(r"`Database\.([A-Za-z_][A-Za-z0-9_]*)")

REPO_ROOT = Path(__file__).resolve().parent.parent
# the docs job runs without PYTHONPATH; the attribute check imports the
# package from the checkout
sys.path.insert(0, str(REPO_ROOT / "src"))
DEFAULT_FILES = ["README.md", *sorted(str(p) for p in (REPO_ROOT / "docs").glob("*.md"))]

#: headings (exact text, any ``#`` level) that must exist — anchors the
#: README, CI comments, and CHANGES.md point into
REQUIRED_SECTIONS: dict[str, list[str]] = {
    "README.md": [
        "Index internals",
        "The XML view: interval-encoded axes",
        "Running the tests",
        "Benchmarks",
    ],
    "docs/ARCHITECTURE.md": [
        "The index lifecycle",
        "Hierarchy encoding & XPath acceleration",
        "Planner statistics",
        "Join planning & histograms",
        "Durability & failure model",
        "Concurrency & MVCC",
        "Storage kernel and query layer",
    ],
}


def missing_sections(markdown_path: Path) -> list[str]:
    try:
        rel = str(markdown_path.relative_to(REPO_ROOT))
    except ValueError:
        rel = markdown_path.name
    required = REQUIRED_SECTIONS.get(rel)
    if not required:
        return []
    headings = {
        line.lstrip("#").strip()
        for line in markdown_path.read_text(encoding="utf-8").splitlines()
        if line.startswith("#")
    }
    return [
        f"{rel}: missing required section {title!r}"
        for title in required
        if title not in headings
    ]


def broken_links(markdown_path: Path) -> list[str]:
    out = []
    text = markdown_path.read_text(encoding="utf-8")
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:
            continue
        resolved = (markdown_path.parent / path_part).resolve()
        if not resolved.exists():
            try:
                shown = markdown_path.relative_to(REPO_ROOT)
            except ValueError:
                shown = markdown_path
            out.append(f"{shown}: broken link {target!r}")
    return out


def stale_database_refs(markdown_path: Path) -> list[str]:
    from repro.storage.db import Database

    db = Database()  # in memory: instance attributes count too
    try:
        shown = markdown_path.relative_to(REPO_ROOT)
    except ValueError:
        shown = markdown_path
    text = markdown_path.read_text(encoding="utf-8")
    return [
        f"{shown}: `Database.{name}` is not an attribute of repro.storage.db.Database"
        for name in sorted(set(_DATABASE_REF_RE.findall(text)))
        if not hasattr(db, name)
    ]


def main(argv: list[str]) -> int:
    files = argv[1:] or DEFAULT_FILES
    problems: list[str] = []
    for name in files:
        path = (REPO_ROOT / name).resolve() if not Path(name).is_absolute() else Path(name)
        if not path.exists():
            problems.append(f"missing markdown file: {name}")
            continue
        problems.extend(broken_links(path))
        problems.extend(missing_sections(path))
        problems.extend(stale_database_refs(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(
            f"ok: {len(files)} file(s), no broken intra-repo links, "
            "all required sections present, no stale Database references"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
