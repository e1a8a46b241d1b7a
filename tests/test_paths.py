"""Unit and property tests for the path algebra."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.paths import _INTERN_LIMIT, Path, PathError, ROOT
from repro.core.provenance import ProvRecord
from repro.core.queries import TraceStep

labels = st.text(alphabet="abcxyz123", min_size=1, max_size=4)
paths = st.lists(labels, min_size=0, max_size=6).map(Path)


class TestConstruction:
    def test_parse_and_str_roundtrip(self):
        p = Path.parse("T/c2/y")
        assert p.labels == ("T", "c2", "y")
        assert str(p) == "T/c2/y"

    def test_parse_root(self):
        assert Path.parse("") == ROOT
        assert Path.parse("/") == ROOT
        assert ROOT.is_root

    def test_parse_strips_slashes(self):
        assert Path.parse("/a/b/") == Path(["a", "b"])

    def test_of_identity(self):
        p = Path.parse("a/b")
        assert Path.of(p) is p
        assert Path.of("a/b") == p
        assert Path.of(["a", "b"]) == p

    def test_rejects_empty_label(self):
        with pytest.raises(PathError):
            Path([""])

    def test_rejects_slash_in_label(self):
        with pytest.raises(PathError):
            Path(["a/b"])

    def test_rejects_non_string(self):
        with pytest.raises(PathError):
            Path([3])

    def test_immutable(self):
        p = Path.parse("a")
        with pytest.raises(AttributeError):
            p._labels = ()


class TestAccessors:
    def test_parent_and_last(self):
        p = Path.parse("a/b/c")
        assert p.parent == Path.parse("a/b")
        assert p.last == "c"
        assert p.head == "a"
        assert p.tail == Path.parse("b/c")

    def test_root_has_no_parent(self):
        with pytest.raises(PathError):
            _ = ROOT.parent
        with pytest.raises(PathError):
            _ = ROOT.last
        with pytest.raises(PathError):
            _ = ROOT.head

    def test_indexing_and_slicing(self):
        p = Path.parse("a/b/c")
        assert p[0] == "a"
        assert p[1:] == Path.parse("b/c")
        assert len(p) == 3
        assert list(p) == ["a", "b", "c"]


class TestAlgebra:
    def test_child_and_div(self):
        assert Path.parse("a") / "b" == Path.parse("a/b")
        assert Path.parse("a") / Path.parse("b/c") == Path.parse("a/b/c")
        assert Path.parse("a") / "b/c" == Path.parse("a/b/c")

    def test_prefix(self):
        assert Path.parse("a/b") <= Path.parse("a/b/c")
        assert Path.parse("a/b") <= Path.parse("a/b")
        assert not Path.parse("a/b") < Path.parse("a/b")
        assert not Path.parse("a/c") <= Path.parse("a/b/c")
        assert ROOT <= Path.parse("anything")

    def test_prefix_is_label_wise_not_textual(self):
        # "a/bc" is NOT under "a/b" even though the string starts with it
        assert not Path.parse("a/b").is_prefix_of(Path.parse("a/bc"))

    def test_relative_to(self):
        assert Path.parse("a/b/c").relative_to("a") == Path.parse("b/c")
        with pytest.raises(PathError):
            Path.parse("a/b").relative_to("x")

    def test_rebase(self):
        p = Path.parse("T/c2/x")
        assert p.rebase("T/c2", "S1/a2") == Path.parse("S1/a2/x")

    def test_ancestors_longest_first(self):
        p = Path.parse("a/b/c")
        assert list(p.ancestors()) == [
            Path.parse("a/b"), Path.parse("a"), ROOT,
        ]
        assert list(p.ancestors(include_self=True))[0] == p

    def test_probe_chain_stops_above_the_root(self):
        assert ROOT.probe_chain() == (ROOT,)
        assert Path.parse("a").probe_chain() == (Path.parse("a"),)
        assert Path.parse("a/b/c").probe_chain() == (
            Path.parse("a/b/c"), Path.parse("a/b"), Path.parse("a"),
        )

    def test_equality_with_strings(self):
        assert Path.parse("a/b") == "a/b"
        assert not Path.parse("a/b") == "a/c"


class TestProperties:
    @given(paths)
    def test_parse_str_roundtrip(self, p):
        assert Path.parse(str(p)) == p

    @given(paths, paths)
    def test_join_then_relative(self, p, q):
        assert p.join(q).relative_to(p) == q

    @given(paths, paths)
    def test_prefix_iff_join(self, p, q):
        assert p.is_prefix_of(p.join(q))

    @given(paths)
    def test_hashable_consistent(self, p):
        assert hash(p) == hash(Path(p.labels))

    @given(paths, paths, paths)
    def test_rebase_roundtrip(self, base, new_base, suffix):
        p = base.join(suffix)
        assert p.rebase(base, new_base) == new_base.join(suffix)

    @given(paths)
    def test_ancestors_are_prefixes(self, p):
        for ancestor in p.ancestors():
            assert ancestor < p or (ancestor.is_root and p.is_root)

    @given(paths)
    def test_probe_chain_is_the_non_root_ancestor_chain(self, p):
        chain = p.probe_chain()
        assert isinstance(chain, tuple)
        assert chain == (p,) + tuple(a for a in p.ancestors() if len(a) >= 1)
        assert p.probe_chain() is chain


class TestCopying:
    """Paths are immutable, so a copy is the path itself and an unpickled
    path is the interned one."""

    def test_pickle_returns_the_interned_path(self):
        for p in (Path.parse("T/c2/y"), Path(["built", "directly"])):
            chain = p.probe_chain()
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                q = pickle.loads(pickle.dumps(p, protocol))
                assert q is Path._intern(p.labels)
                assert q.probe_chain() == chain
        assert pickle.loads(pickle.dumps(ROOT)) is ROOT

    def test_root_stays_interned_when_the_cache_overflows(self):
        for n in range(_INTERN_LIMIT + 1):
            Path._intern((f"overflow{n}",))
        assert Path.parse("overflow/x").parent.parent is ROOT
        assert pickle.loads(pickle.dumps(ROOT)) is ROOT

    def test_copy_and_deepcopy_are_identity(self):
        p = Path.parse("a/b")
        assert copy.copy(p) is p
        assert copy.deepcopy(p) is p
        assert copy.deepcopy([p, {"k": p}]) == [p, {"k": p}]

    def test_records_and_trace_steps_copy_and_convert(self):
        record = ProvRecord(3, "C", Path.parse("T/x"), Path.parse("S/y"))
        step = TraceStep(3, Path.parse("T/x"), record)
        assert dataclasses.asdict(record) == {
            "tid": 3, "op": "C", "loc": Path.parse("T/x"), "src": Path.parse("S/y"),
        }
        assert dataclasses.asdict(step)["record"]["src"] == Path.parse("S/y")
        assert copy.deepcopy(step) == step
        assert pickle.loads(pickle.dumps(step)) == step
        assert pickle.loads(pickle.dumps(record)) == record
