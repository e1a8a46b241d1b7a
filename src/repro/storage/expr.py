"""Scalar expressions over rows: the predicate/projection language.

Expressions evaluate against an *environment* mapping column names to
values (qualified names like ``p.loc`` are plain keys).  The planner
inspects predicate structure to choose index access paths, so the AST is
deliberately small and analyzable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .errors import UnknownColumnError

__all__ = [
    "Expr",
    "Col",
    "Const",
    "Cmp",
    "And",
    "Or",
    "Not",
    "IsNull",
    "InList",
    "PrefixMatch",
    "compile_expr",
    "conjuncts",
    "column_bound",
]

Env = Dict[str, Any]


class Expr:
    """Base class; subclasses are frozen dataclasses."""

    def eval(self, env: Env) -> Any:
        raise NotImplementedError

    def columns(self) -> FrozenSet[str]:
        """The set of column names this expression references."""
        raise NotImplementedError


@dataclass(frozen=True)
class Col(Expr):
    name: str

    def eval(self, env: Env) -> Any:
        try:
            return env[self.name]
        except KeyError:
            raise UnknownColumnError(f"unbound column {self.name!r}") from None

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.name})


@dataclass(frozen=True)
class Const(Expr):
    value: Any

    def eval(self, env: Env) -> Any:
        return self.value

    def columns(self) -> FrozenSet[str]:
        return frozenset()


_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Cmp(Expr):
    """Binary comparison.  NULL compares to nothing (SQL-ish semantics):
    any comparison involving NULL evaluates to False."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def eval(self, env: Env) -> bool:
        left = self.left.eval(env)
        right = self.right.eval(env)
        if left is None or right is None:
            return False
        return _OPS[self.op](left, right)

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class And(Expr):
    parts: Tuple[Expr, ...]

    def __init__(self, *parts: Expr) -> None:
        flattened: List[Expr] = []
        for part in parts:
            if isinstance(part, And):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        object.__setattr__(self, "parts", tuple(flattened))

    def eval(self, env: Env) -> bool:
        return all(part.eval(env) for part in self.parts)

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for part in self.parts:
            result |= part.columns()
        return result


@dataclass(frozen=True)
class Or(Expr):
    parts: Tuple[Expr, ...]

    def __init__(self, *parts: Expr) -> None:
        object.__setattr__(self, "parts", tuple(parts))

    def eval(self, env: Env) -> bool:
        return any(part.eval(env) for part in self.parts)

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for part in self.parts:
            result |= part.columns()
        return result


@dataclass(frozen=True)
class Not(Expr):
    inner: Expr

    def eval(self, env: Env) -> bool:
        return not self.inner.eval(env)

    def columns(self) -> FrozenSet[str]:
        return self.inner.columns()


@dataclass(frozen=True)
class IsNull(Expr):
    inner: Expr
    negated: bool = False

    def eval(self, env: Env) -> bool:
        result = self.inner.eval(env) is None
        return not result if self.negated else result

    def columns(self) -> FrozenSet[str]:
        return self.inner.columns()


@dataclass(frozen=True)
class InList(Expr):
    inner: Expr
    options: Tuple[Any, ...]

    def eval(self, env: Env) -> bool:
        return self.inner.eval(env) in self.options

    def columns(self) -> FrozenSet[str]:
        return self.inner.columns()


@dataclass(frozen=True)
class PrefixMatch(Expr):
    """``col LIKE 'prefix%'`` — the descendant-of access pattern on paths."""

    column: Col
    prefix: str

    def eval(self, env: Env) -> bool:
        value = self.column.eval(env)
        return isinstance(value, str) and value.startswith(self.prefix)

    def columns(self) -> FrozenSet[str]:
        return self.column.columns()


def compile_expr(expr: Expr) -> "Callable[[Env], Any]":
    """Specialize an expression into a closure evaluated per row.

    Interpreted evaluation pays an ``isinstance``-free but virtual-call-
    heavy tree walk *per row*; a plan's residual filters run that walk
    millions of times.  Compiling flattens the tree once — at plan (or
    plan-cache) time — into nested closures with the operator functions,
    column names, and constants already bound, so the per-row cost is a
    few dict lookups and one call chain.

    Semantics are exactly ``expr.eval``'s: NULL comparisons are False,
    ``IN`` uses Python membership (``NULL IN (NULL,)`` is True), unbound
    columns raise :class:`UnknownColumnError`.  The differential harness
    holds compiled and interpreted evaluation to the same answers.
    """
    if isinstance(expr, Const):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Col):
        name = expr.name

        def col_fn(env: Env) -> Any:
            try:
                return env[name]
            except KeyError:
                raise UnknownColumnError(f"unbound column {name!r}") from None

        return col_fn
    if isinstance(expr, Cmp):
        op = _OPS[expr.op]
        # the hot shape: column vs constant — skip the operand closures
        if isinstance(expr.left, Col) and isinstance(expr.right, Const):
            name, value = expr.left.name, expr.right.value

            def cmp_col_const(env: Env) -> bool:
                try:
                    left = env[name]
                except KeyError:
                    raise UnknownColumnError(f"unbound column {name!r}") from None
                if left is None or value is None:
                    return False
                return op(left, value)

            return cmp_col_const
        left_fn = compile_expr(expr.left)
        right_fn = compile_expr(expr.right)

        def cmp_fn(env: Env) -> bool:
            left = left_fn(env)
            right = right_fn(env)
            if left is None or right is None:
                return False
            return op(left, right)

        return cmp_fn
    if isinstance(expr, And):
        part_fns = [compile_expr(part) for part in expr.parts]
        # unrolled small arities: the common residual shapes, with no
        # per-row generator allocation
        if len(part_fns) == 2:
            first, second = part_fns
            return lambda env: bool(first(env) and second(env))
        if len(part_fns) == 3:
            first, second, third = part_fns
            return lambda env: bool(first(env) and second(env) and third(env))
        return lambda env: all(fn(env) for fn in part_fns)
    if isinstance(expr, Or):
        part_fns = [compile_expr(part) for part in expr.parts]
        return lambda env: any(fn(env) for fn in part_fns)
    if isinstance(expr, Not):
        inner_fn = compile_expr(expr.inner)
        return lambda env: not inner_fn(env)
    if isinstance(expr, IsNull):
        inner_fn = compile_expr(expr.inner)
        if expr.negated:
            return lambda env: inner_fn(env) is not None
        return lambda env: inner_fn(env) is None
    if isinstance(expr, InList):
        inner_fn = compile_expr(expr.inner)
        options = expr.options
        return lambda env: inner_fn(env) in options
    if isinstance(expr, PrefixMatch):
        name = expr.column.name
        prefix = expr.prefix

        def prefix_fn(env: Env) -> bool:
            try:
                value = env[name]
            except KeyError:
                raise UnknownColumnError(f"unbound column {name!r}") from None
            return isinstance(value, str) and value.startswith(prefix)

        return prefix_fn
    # unknown subclass (user extension): interpreted evaluation still works
    return expr.eval


_FLIPPED_OPS = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def column_bound(expr: Expr) -> Optional[Tuple[str, str, Any]]:
    """Normalize a column-vs-constant comparison to ``(column, op, value)``.

    Both orientations are recognized (``k < 5`` and ``5 > k`` mean the
    same bound); anything that is not a ``Col``/``Const`` comparison with
    one of ``= < <= > >=`` returns ``None``.  This is the single shape
    the planner's interval analysis consumes.
    """
    if not isinstance(expr, Cmp) or expr.op not in _FLIPPED_OPS:
        return None
    if isinstance(expr.left, Col) and isinstance(expr.right, Const):
        return (expr.left.name, expr.op, expr.right.value)
    if isinstance(expr.left, Const) and isinstance(expr.right, Col):
        return (expr.right.name, _FLIPPED_OPS[expr.op], expr.left.value)
    return None


def conjuncts(expr: Optional[Expr]) -> Iterator[Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return
    if isinstance(expr, And):
        for part in expr.parts:
            yield from conjuncts(part)
    else:
        yield expr
