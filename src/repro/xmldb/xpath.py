"""A small XPath-subset evaluator over keyed trees.

Supports the fragments the reproduction needs:

* child steps: ``a/b/c``;
* single-level wildcard: ``a/*/c`` (the paper's approximate-provenance
  patterns, Section 6);
* descendant-or-self: ``a//c``;
* leaf-equality predicates: ``a[b=3]/c`` (elements whose leaf child
  ``b`` holds 3);
* keyed-instance matching: a step label ``interaction`` matches the
  keyed edges ``interaction{1}``, ``interaction{2}``, ... produced by
  the fully-keyed views (the paper's ``Citation{3}`` addressing).

Evaluation returns the set of matching :class:`Path` locations, which is
what approximate provenance manipulates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..core.paths import Path
from ..core.tree import Tree

__all__ = ["XPath", "XPathError", "base_label"]

_KEYED_RE = re.compile(r"^(?P<base>.+)\{[^{}]*\}$")


def base_label(label: str) -> str:
    """``interaction{3}`` -> ``interaction``; plain labels unchanged."""
    match = _KEYED_RE.match(label)
    return match.group("base") if match else label


class XPathError(ValueError):
    """Malformed XPath expression."""


@dataclass(frozen=True)
class _Step:
    label: Optional[str]  # None means wildcard '*'
    descendant: bool = False  # preceded by '//'
    predicate: Optional[Tuple[str, object]] = None  # (child label, value)


_PRED_RE = re.compile(r"^(?P<name>[^\[\]]+)(?:\[(?P<child>[^=\]]+)=(?P<value>[^\]]+)\])?$")


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("'") and text.endswith("'"):
        return text[1:-1]
    if text.startswith('"') and text.endswith('"'):
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


class XPath:
    """A compiled path expression.

    >>> xp = XPath("proteins/*/name")
    >>> [str(p) for p in xp.evaluate(Tree.from_dict(
    ...     {"proteins": {"P1": {"name": "ABC1"}, "P2": {"name": "CRP"}}}))]
    ['proteins/P1/name', 'proteins/P2/name']
    """

    def __init__(self, expression: str) -> None:
        self.expression = expression
        self.steps = self._parse(expression)

    @staticmethod
    def _parse(expression: str) -> List[_Step]:
        if not expression or expression == "/":
            return []
        text = expression.strip().lstrip("/")
        steps: List[_Step] = []
        descendant = expression.startswith("//")
        # split on '/', recognizing '//' as a descendant marker
        parts = text.split("/")
        index = 0
        while index < len(parts):
            part = parts[index]
            if part == "":
                # the gap from '//': next step is a descendant step
                descendant = True
                index += 1
                continue
            match = _PRED_RE.match(part)
            if match is None:
                raise XPathError(f"bad step {part!r} in {expression!r}")
            name = match.group("name").strip()
            predicate = None
            if match.group("child") is not None:
                predicate = (
                    match.group("child").strip(),
                    _parse_value(match.group("value")),
                )
            steps.append(
                _Step(
                    label=None if name == "*" else name,
                    descendant=descendant,
                    predicate=predicate,
                )
            )
            descendant = False
            index += 1
        return steps

    # ------------------------------------------------------------------
    def evaluate(self, tree: Tree) -> List[Path]:
        """All locations in ``tree`` matching this expression, sorted."""
        current: List[Tuple[Path, Tree]] = [(Path(), tree)]
        for step in self.steps:
            successors: List[Tuple[Path, Tree]] = []
            for path, node in current:
                candidates: Iterator[Tuple[Path, Tree]]
                if step.descendant:
                    candidates = (
                        (path.join(sub), descendant)
                        for sub, descendant in node.nodes()
                        if not sub.is_root
                    )
                else:
                    candidates = (
                        (path.child(label), child)
                        for label, child in sorted(node.children.items())
                    )
                for cand_path, cand_node in candidates:
                    if not _label_matches(step, cand_path.last):
                        continue
                    if step.predicate is not None:
                        child_label, wanted = step.predicate
                        if not cand_node.has_child(child_label):
                            continue
                        if cand_node.child(child_label).value != wanted:
                            continue
                    successors.append((cand_path, cand_node))
            current = successors
        paths = sorted({path for path, _node in current}, key=Path.sort_key)
        return paths

    def evaluate_store(self, db) -> List[Path]:
        """Evaluate against an :class:`~repro.xmldb.store.XMLDatabase`
        through the interval encoding (:mod:`repro.xmldb.axes`): every
        step — child or descendant, labelled or wildcard — is compiled
        to an index range/multi-range predicate instead of the
        level-by-level walk :meth:`evaluate` performs on value trees."""
        from .axes import evaluate_xpath

        return evaluate_xpath(db, self)

    def matches(self, path: "Path | str") -> bool:
        """Structural match of a concrete path against the pattern
        (ignoring predicates — used by approximate provenance, where a
        pattern *over*-approximates a set of links)."""
        return _match_steps(self.steps, Path.of(path).labels)

    def __repr__(self) -> str:
        return f"XPath({self.expression!r})"


def _match_steps(steps: Sequence[_Step], labels: Tuple[str, ...]) -> bool:
    if not steps:
        return not labels
    step, rest = steps[0], steps[1:]
    if step.descendant:
        # '//x' may skip any number of levels
        for skip in range(len(labels)):
            if _label_matches(step, labels[skip]) and _match_steps(rest, labels[skip + 1:]):
                return True
        return False
    if not labels:
        return False
    return _label_matches(step, labels[0]) and _match_steps(rest, labels[1:])


def _label_matches(step: _Step, label: str) -> bool:
    if step.label is None or step.label == label:
        return True
    return step.label == base_label(label)
