"""Path algebra for addressing data elements in edge-labeled trees.

The paper (Section 2) assumes every database can be viewed as a tree whose
edges are labeled such that a given sequence of labels occurs on at most one
path from the root.  A *path* ``p`` in ``Sigma*`` therefore addresses at most
one data element.  Examples from the paper::

    DB/R/tid/F                     -- a field in a relational database
    SwissProt/Release{20}/Q01780   -- an entry in a versioned flat file
    T/c2/y                         -- a node in the target tree

This module implements that path algebra: parsing from / rendering to the
``a/b/c`` concrete syntax, concatenation, prefix tests, parents and suffixes.
Paths are immutable and hashable so they can key provenance tables.

Paths are *interned*: :meth:`Path.parse` keeps a text -> path cache and a
labels -> path cache, so the same text always yields the same object and
the provenance hot paths (``ProvRecord.from_row``, ancestor walks) stop
re-tokenizing strings.  Interning is purely an optimization — equality
and hashing are still structural.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

__all__ = ["Label", "Path", "PathError", "ROOT"]

Label = str

#: Bound on each intern cache; on overflow the caches are wiped (the
#: working set re-warms immediately, and bounded beats unbounded growth
#: across long benchmark runs).
_INTERN_LIMIT = 1 << 16

_interned_by_text: Dict[str, "Path"] = {}
_interned_by_labels: Dict[Tuple[Label, ...], "Path"] = {}


class PathError(ValueError):
    """Raised for malformed path syntax or invalid path operations."""


def _check_label(label: Label) -> Label:
    if not isinstance(label, str):
        raise PathError(f"label must be a string, got {type(label).__name__}")
    if not label:
        raise PathError("empty label is not allowed in a path")
    if "/" in label:
        raise PathError(f"label may not contain '/': {label!r}")
    return label


class Path:
    """An immutable sequence of edge labels addressing a tree node.

    The empty path addresses the root of the tree it is resolved against.

    >>> p = Path.parse("T/c2/y")
    >>> p.labels
    ('T', 'c2', 'y')
    >>> str(p.parent)
    'T/c2'
    >>> Path.parse("T/c2") <= p
    True
    """

    # ``_chain`` is left unset until the first :meth:`probe_chain` call,
    # so construction (on the editor's write path) pays nothing for it
    __slots__ = ("_labels", "_hash", "_str", "_chain")

    def __init__(self, labels: Iterable[Label] = ()) -> None:
        labels = tuple(_check_label(label) for label in labels)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_hash", hash(labels))
        object.__setattr__(self, "_str", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Path is immutable")

    def __reduce__(self):
        # unpickle to the interned path; the cached chain never travels
        return (Path._intern, (self._labels,))

    def __copy__(self) -> "Path":
        return self

    def __deepcopy__(self, memo) -> "Path":
        return self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "Path":
        """Parse the ``a/b/c`` concrete syntax.  ``""`` parses to the root.

        Results are interned: the same text returns the same object.
        """
        if not isinstance(text, str):
            raise PathError(f"cannot parse {type(text).__name__} as a path")
        cached = _interned_by_text.get(text)
        if cached is not None:
            return cached
        stripped = text.strip("/")
        if not stripped:
            path = ROOT
        else:
            path = cls._intern(tuple(stripped.split("/")))
        if len(_interned_by_text) >= _INTERN_LIMIT:
            _interned_by_text.clear()
        _interned_by_text[text] = path
        return path

    @classmethod
    def _intern(cls, labels: Tuple[Label, ...]) -> "Path":
        """The canonical path for ``labels`` (validating on first sight)."""
        path = _interned_by_labels.get(labels)
        if path is None:
            path = cls(labels)
            if len(_interned_by_labels) >= _INTERN_LIMIT:
                _interned_by_labels.clear()
                # keep the one root object that ``parse("")`` returns
                _interned_by_labels[()] = ROOT
            _interned_by_labels[labels] = path
        return path

    @classmethod
    def of(cls, value: "Path | str | Iterable[Label]") -> "Path":
        """Coerce a value into a :class:`Path` (identity on paths)."""
        if isinstance(value, Path):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        return cls(value)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def labels(self) -> Tuple[Label, ...]:
        return self._labels

    @property
    def is_root(self) -> bool:
        return not self._labels

    @property
    def parent(self) -> "Path":
        """The path with the last label removed.

        >>> str(Path.parse("a/b").parent)
        'a'
        """
        if self.is_root:
            raise PathError("the root path has no parent")
        return Path._intern(self._labels[:-1])

    @property
    def last(self) -> Label:
        """The final edge label of the path."""
        if self.is_root:
            raise PathError("the root path has no last label")
        return self._labels[-1]

    @property
    def head(self) -> Label:
        """The first edge label of the path."""
        if self.is_root:
            raise PathError("the root path has no head label")
        return self._labels[0]

    @property
    def tail(self) -> "Path":
        """The path with the first label removed."""
        if self.is_root:
            raise PathError("the root path has no tail")
        return Path._intern(self._labels[1:])

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def child(self, label: Label) -> "Path":
        """Extend the path by one label (written ``p/a`` in the paper)."""
        return Path._intern(self._labels + (_check_label(label),))

    def join(self, other: "Path | str") -> "Path":
        """Concatenate two paths."""
        other = Path.of(other)
        return Path._intern(self._labels + other._labels)

    def __truediv__(self, other: "Path | str | Label") -> "Path":
        if isinstance(other, Path):
            return self.join(other)
        if isinstance(other, str) and "/" in other:
            return self.join(Path.parse(other))
        return self.child(other)

    def is_prefix_of(self, other: "Path | str") -> bool:
        """``p <= q`` in the paper: every node under ``p`` extends ``p``."""
        other = Path.of(other)
        n = len(self._labels)
        return other._labels[:n] == self._labels

    def is_strict_prefix_of(self, other: "Path | str") -> bool:
        other = Path.of(other)
        return self != other and self.is_prefix_of(other)

    def __le__(self, other: "Path | str") -> bool:
        return self.is_prefix_of(other)

    def __lt__(self, other: "Path | str") -> bool:
        return self.is_strict_prefix_of(other)

    def relative_to(self, prefix: "Path | str") -> "Path":
        """The suffix of this path after ``prefix``.

        >>> str(Path.parse("a/b/c").relative_to("a"))
        'b/c'
        """
        prefix = Path.of(prefix)
        if not prefix.is_prefix_of(self):
            raise PathError(f"{prefix} is not a prefix of {self}")
        return Path._intern(self._labels[len(prefix._labels):])

    def rebase(self, old_prefix: "Path | str", new_prefix: "Path | str") -> "Path":
        """Replace ``old_prefix`` with ``new_prefix``.

        Used for hierarchical provenance inference: a node at ``p/a`` whose
        ancestor ``p`` was copied from ``q`` came from ``q/a``.
        """
        return Path.of(new_prefix).join(self.relative_to(old_prefix))

    def ancestors(self, include_self: bool = False) -> Iterator["Path"]:
        """Yield ancestors from the *longest* (closest) to the root.

        Hierarchical provenance inference wants the closest ancestor with an
        explicit record, hence the longest-first order.
        """
        start = len(self._labels) if include_self else len(self._labels) - 1
        for n in range(start, -1, -1):
            yield Path._intern(self._labels[:n])

    def probe_chain(self) -> Tuple["Path", ...]:
        """``(self, parent, ..., top-level)`` — every location whose
        explicit record could cover ``self`` under hierarchical
        inference (never the database root; ``ROOT``'s chain is
        ``(ROOT,)``).  Closest-first, so callers can stop at the first
        hit; the whole chain is fetched in one presorted multi-range
        pass over the ``(loc, tid)`` index
        (:meth:`repro.core.provenance.ProvTable.records_at_locs`).
        Built once per path object and cached: later calls return the
        same tuple."""
        try:
            return self._chain
        except AttributeError:
            labels = self._labels
            chain = (self,) + tuple(
                Path._intern(labels[:n]) for n in range(len(labels) - 1, 0, -1)
            )
            object.__setattr__(self, "_chain", chain)
            return chain

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[Label]:
        return iter(self._labels)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Path._intern(self._labels[index])
        return self._labels[index]

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, Path):
            return self._labels == other._labels
        if isinstance(other, str):
            return self._labels == Path.parse(other)._labels
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        rendered = self._str
        if rendered is None:
            rendered = "/".join(self._labels)
            object.__setattr__(self, "_str", rendered)
        return rendered

    def __repr__(self) -> str:
        return f"Path({str(self)!r})"

    def sort_key(self) -> Tuple[Label, ...]:
        """A total order usable for deterministic output (root first)."""
        return self._labels


#: The empty path, addressing the root.
ROOT = Path()
_interned_by_labels[()] = ROOT
