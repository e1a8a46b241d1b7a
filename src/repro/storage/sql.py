"""A small SQL subset over the embedded engine.

Supported statements::

    CREATE TABLE t (col TYPE [NOT NULL] [DEFAULT lit] ..., PRIMARY KEY (a, b))
    CREATE [UNIQUE] [ORDERED] INDEX name ON t (a, b)
    DROP TABLE t
    INSERT INTO t [(cols)] VALUES (lits), (lits), ...
    SELECT [DISTINCT] cols|*|aggs FROM t [alias]
        [JOIN t2 [alias] ON a.x = b.x [AND a.y = b.y | AND a.y < b.y]...]...
        [WHERE predicate] [GROUP BY cols] [HAVING predicate]
        [ORDER BY col [ASC|DESC], ...] [LIMIT n [OFFSET m]]
    DELETE FROM t [WHERE predicate]
    UPDATE t SET col = lit, ... [WHERE predicate]

Predicates support ``= != < <= > >= AND OR NOT IS [NOT] NULL``,
``[NOT] IN (...)`` (the planner maps an IN list on an ordered index
onto one multi-range union scan), ``[NOT] BETWEEN lo AND hi``
(desugared to a ``>=``/``<=`` pair the planner merges onto ordered
indexes), and ``[NOT] LIKE 'prefix%'`` (prefix patterns only — the
shape provenance queries need).  This is intentionally a subset: enough
to use the engine the way CPDB used MySQL, with readable tests.

``QueryEngine.prepare(sql)`` parses a statement once with ``?``
placeholders in literal positions and returns a
:class:`PreparedStatement` whose ``execute(params)`` binds values and
runs through the plan cache — no re-parse, no statistics re-sampling.
A bare ``?`` passed to :func:`execute_sql` is rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from .errors import SQLError
from .expr import (
    And,
    Cmp,
    Col,
    Const,
    Expr,
    InList,
    IsNull,
    Not,
    Or,
    PrefixMatch,
)
from .query import JoinSpec, Query, QueryEngine, TableRef
from .schema import Column, IndexSpec, TableSchema
from .types import ColumnType

if TYPE_CHECKING:  # pragma: no cover - import cycle with mvcc.py
    from .mvcc import MVCCTransaction

__all__ = ["execute_sql", "parse_statement", "PreparedStatement", "SQLError"]

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>'(?:[^']|'')*')
      | (?P<number>-?\d+\.\d+|-?\d+)
      | (?P<op><=|>=|!=|<>|=|<|>|\(|\)|,|\*|\.|\?)
      | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "create", "table", "index", "unique", "ordered", "on", "drop",
    "insert", "into", "values", "select", "distinct", "from", "join",
    "where", "group", "order", "by", "asc", "desc", "limit", "offset",
    "having", "delete",
    "update", "set", "and", "or", "not", "is", "null", "in", "like", "between",
    "primary", "key", "default", "as", "count", "sum", "avg", "min", "max",
    "true", "false",
}


@dataclass
class _Token:
    kind: str  # "string" | "number" | "op" | "word"
    text: str


@dataclass(frozen=True)
class _Param:
    """Positional ``?`` placeholder sentinel, substituted at bind time."""

    index: int


def _tokenize(sql: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    text = sql.strip().rstrip(";")
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None or match.end() == position:
            raise SQLError(f"cannot tokenize SQL at: {text[position:position+20]!r}")
        position = match.end()
        for kind in ("string", "number", "op", "word"):
            value = match.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value))
                break
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token], allow_params: bool = False) -> None:
        self._tokens = tokens
        self._position = 0
        self._allow_params = allow_params
        self.param_count = 0

    # ---- token utilities -------------------------------------------
    def peek(self) -> Optional[_Token]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise SQLError("unexpected end of statement")
        self._position += 1
        return token

    def accept_word(self, *words: str) -> Optional[str]:
        token = self.peek()
        if token is not None and token.kind == "word" and token.text.lower() in words:
            self._position += 1
            return token.text.lower()
        return None

    def expect_word(self, word: str) -> None:
        if self.accept_word(word) is None:
            raise SQLError(f"expected {word.upper()!r} near {self._context()}")

    def accept_op(self, op: str) -> bool:
        token = self.peek()
        if token is not None and token.kind == "op" and token.text == op:
            self._position += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise SQLError(f"expected {op!r} near {self._context()}")

    def identifier(self) -> str:
        token = self.next()
        if token.kind != "word" or token.text.lower() in _KEYWORDS - {
            "count", "sum", "avg", "min", "max", "key", "index", "table",
        }:
            raise SQLError(f"expected identifier, got {token.text!r}")
        return token.text

    def at_end(self) -> bool:
        return self._position >= len(self._tokens)

    def _context(self) -> str:
        token = self.peek()
        return repr(token.text) if token else "<end>"

    # ---- literals ---------------------------------------------------
    def literal(self) -> Any:
        token = self.next()
        if token.kind == "op" and token.text == "?":
            if not self._allow_params:
                raise SQLError(
                    'placeholders ("?") are only valid in prepared statements'
                )
            param = _Param(self.param_count)
            self.param_count += 1
            return param
        if token.kind == "string":
            return token.text[1:-1].replace("''", "'")
        if token.kind == "number":
            return float(token.text) if "." in token.text else int(token.text)
        if token.kind == "word":
            lowered = token.text.lower()
            if lowered == "null":
                return None
            if lowered == "true":
                return True
            if lowered == "false":
                return False
        raise SQLError(f"expected a literal, got {token.text!r}")

    # ---- column references -----------------------------------------
    def column_ref(self) -> str:
        first = self.identifier()
        if self.accept_op("."):
            second = self.identifier()
            return f"{first}.{second}"
        return first

    # ---- predicates (precedence: OR < AND < NOT < atom) -------------
    def predicate(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        parts = [left]
        while self.accept_word("or"):
            parts.append(self._and_expr())
        return parts[0] if len(parts) == 1 else Or(*parts)

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        parts = [left]
        while self.accept_word("and"):
            parts.append(self._not_expr())
        return parts[0] if len(parts) == 1 else And(*parts)

    def _not_expr(self) -> Expr:
        if self.accept_word("not"):
            return Not(self._not_expr())
        return self._atom_expr()

    def _atom_expr(self) -> Expr:
        if self.accept_op("("):
            inner = self.predicate()
            self.expect_op(")")
            return inner
        column = Col(self.column_ref())
        if self.accept_word("is"):
            negated = self.accept_word("not") is not None
            self.expect_word("null")
            return IsNull(column, negated=negated)
        if self.accept_word("not"):
            # the negated atom forms: col NOT IN / NOT BETWEEN / NOT LIKE
            if self.accept_word("in"):
                return Not(self._in_list(column))
            if self.accept_word("between"):
                return Not(self._between(column))
            if self.accept_word("like"):
                return Not(self._like(column))
            raise SQLError(f"expected IN, BETWEEN, or LIKE near {self._context()}")
        if self.accept_word("in"):
            return self._in_list(column)
        if self.accept_word("between"):
            return self._between(column)
        if self.accept_word("like"):
            return self._like(column)
        token = self.next()
        if token.kind != "op" or token.text not in ("=", "!=", "<>", "<", "<=", ">", ">="):
            raise SQLError(f"expected comparison operator, got {token.text!r}")
        op = "!=" if token.text == "<>" else token.text
        # right side: literal or column
        right_token = self.peek()
        if right_token is not None and right_token.kind == "word" and (
            right_token.text.lower() not in _KEYWORDS
        ):
            return Cmp(op, column, Col(self.column_ref()))
        return Cmp(op, column, Const(self.literal()))

    def _in_list(self, column: Col) -> Expr:
        self.expect_op("(")
        options = [self.literal()]
        while self.accept_op(","):
            options.append(self.literal())
        self.expect_op(")")
        return InList(column, tuple(options))

    def _between(self, column: Col) -> Expr:
        # desugar to the BETWEEN-shaped conjunct pair the planner's
        # interval analysis merges back into one index range
        low = self.literal()
        self.expect_word("and")
        high = self.literal()
        return And(Cmp(">=", column, Const(low)), Cmp("<=", column, Const(high)))

    def _like(self, column: Col) -> Expr:
        pattern = self.literal()
        if isinstance(pattern, _Param):
            # pattern shape can only be validated once a value is bound
            return PrefixMatch(column, pattern)  # type: ignore[arg-type]
        return PrefixMatch(column, _like_prefix(pattern))


def _like_prefix(pattern: Any) -> str:
    if not isinstance(pattern, str) or not pattern.endswith("%") or "%" in pattern[:-1]:
        raise SQLError("LIKE supports only 'prefix%' patterns")
    return pattern[:-1]


# ----------------------------------------------------------------------
# Statement objects
# ----------------------------------------------------------------------


@dataclass
class CreateTableStmt:
    schema: TableSchema


@dataclass
class CreateIndexStmt:
    table: str
    spec: IndexSpec


@dataclass
class DropTableStmt:
    table: str


@dataclass
class InsertStmt:
    table: str
    columns: Optional[List[str]]
    rows: List[List[Any]]


@dataclass
class SelectStmt:
    query: Query


@dataclass
class DeleteStmt:
    table: str
    where: Optional[Expr]


@dataclass
class UpdateStmt:
    table: str
    changes: Dict[str, Any]
    where: Optional[Expr]


Statement = Any


def parse_statement(sql: str) -> Statement:
    return _parse_with(_Parser(_tokenize(sql)))


def _parse_with(parser: _Parser) -> Statement:
    word = parser.accept_word("create", "drop", "insert", "select", "delete", "update")
    if word == "create":
        return _parse_create(parser)
    if word == "drop":
        parser.expect_word("table")
        name = parser.identifier()
        return DropTableStmt(name)
    if word == "insert":
        return _parse_insert(parser)
    if word == "select":
        return SelectStmt(_parse_select(parser))
    if word == "delete":
        parser.expect_word("from")
        table = parser.identifier()
        where = parser.predicate() if parser.accept_word("where") else None
        return DeleteStmt(table, where)
    if word == "update":
        return _parse_update(parser)
    raise SQLError(f"unsupported statement near {parser._context()}")


def _parse_create(parser: _Parser) -> Statement:
    unique = parser.accept_word("unique") is not None
    ordered = parser.accept_word("ordered") is not None
    if parser.accept_word("table"):
        if unique or ordered:
            raise SQLError("UNIQUE/ORDERED apply to indexes, not tables")
        return _parse_create_table(parser)
    parser.expect_word("index")
    name = parser.identifier()
    parser.expect_word("on")
    table = parser.identifier()
    parser.expect_op("(")
    columns = [parser.identifier()]
    while parser.accept_op(","):
        columns.append(parser.identifier())
    parser.expect_op(")")
    return CreateIndexStmt(table, IndexSpec(name, tuple(columns), unique=unique, ordered=ordered))


def _parse_create_table(parser: _Parser) -> CreateTableStmt:
    name = parser.identifier()
    parser.expect_op("(")
    columns: List[Column] = []
    primary_key: Tuple[str, ...] = ()
    while True:
        if parser.accept_word("primary"):
            parser.expect_word("key")
            parser.expect_op("(")
            keys = [parser.identifier()]
            while parser.accept_op(","):
                keys.append(parser.identifier())
            parser.expect_op(")")
            primary_key = tuple(keys)
        else:
            column_name = parser.identifier()
            type_word = parser.next()
            if type_word.kind != "word":
                raise SQLError(f"expected a type after column {column_name!r}")
            column_type = ColumnType.parse(type_word.text)
            nullable = True
            default = None
            while True:
                if parser.accept_word("not"):
                    parser.expect_word("null")
                    nullable = False
                elif parser.accept_word("null"):
                    nullable = True
                elif parser.accept_word("default"):
                    default = parser.literal()
                    if isinstance(default, _Param):
                        raise SQLError("placeholders are not allowed in DDL statements")
                else:
                    break
            columns.append(Column(column_name, column_type, nullable=nullable, default=default))
        if parser.accept_op(")"):
            break
        parser.expect_op(",")
    return CreateTableStmt(TableSchema(name, columns, primary_key=primary_key))


def _parse_insert(parser: _Parser) -> InsertStmt:
    parser.expect_word("into")
    table = parser.identifier()
    columns: Optional[List[str]] = None
    if parser.accept_op("("):
        columns = [parser.identifier()]
        while parser.accept_op(","):
            columns.append(parser.identifier())
        parser.expect_op(")")
    parser.expect_word("values")
    rows: List[List[Any]] = []
    while True:
        parser.expect_op("(")
        row = [parser.literal()]
        while parser.accept_op(","):
            row.append(parser.literal())
        parser.expect_op(")")
        rows.append(row)
        if not parser.accept_op(","):
            break
    return InsertStmt(table, columns, rows)


_AGG_WORDS = ("count", "sum", "avg", "min", "max")


def _parse_select(parser: _Parser) -> Query:
    distinct = parser.accept_word("distinct") is not None
    outputs: Optional[List[Tuple[str, Expr]]] = None
    aggregates: List[Tuple[str, str, Optional[Expr]]] = []
    star = False
    if parser.accept_op("*"):
        star = True
    else:
        outputs = []
        while True:
            agg = parser.accept_word(*_AGG_WORDS)
            if agg is not None:
                parser.expect_op("(")
                inner: Optional[Expr]
                if parser.accept_op("*"):
                    inner = None
                else:
                    inner = Col(parser.column_ref())
                parser.expect_op(")")
                out_name = f"{agg}"
                if parser.accept_word("as"):
                    out_name = parser.identifier()
                aggregates.append((out_name, agg, inner))
            else:
                ref = parser.column_ref()
                out_name = ref.split(".")[-1]
                if parser.accept_word("as"):
                    out_name = parser.identifier()
                outputs.append((out_name, Col(ref)))
            if not parser.accept_op(","):
                break
    parser.expect_word("from")
    table = TableRef(parser.identifier(), _maybe_alias(parser))
    joins: List[JoinSpec] = []
    while parser.accept_word("join"):
        join_table = TableRef(parser.identifier(), _maybe_alias(parser))
        parser.expect_word("on")
        joins.append(_parse_join_on(parser, join_table))
    where = parser.predicate() if parser.accept_word("where") else None
    group_by: List[Tuple[str, Expr]] = []
    if parser.accept_word("group"):
        parser.expect_word("by")
        while True:
            ref = parser.column_ref()
            group_by.append((ref.split(".")[-1], Col(ref)))
            if not parser.accept_op(","):
                break
    having: Optional[Expr] = None
    if parser.accept_word("having"):
        # HAVING predicates reference aggregate *output* names (e.g. the
        # alias given with AS); they run over the grouped rows
        having = parser.predicate()
    order_by: List[Tuple[Expr, bool]] = []
    if parser.accept_word("order"):
        parser.expect_word("by")
        while True:
            expr = Col(parser.column_ref())
            descending = False
            if parser.accept_word("desc"):
                descending = True
            else:
                parser.accept_word("asc")
            order_by.append((expr, descending))
            if not parser.accept_op(","):
                break
    limit: Optional[int] = None
    offset = 0
    if parser.accept_word("limit"):
        value = parser.literal()
        if not isinstance(value, int):
            raise SQLError("LIMIT requires an integer")
        limit = value
    if parser.accept_word("offset"):
        value = parser.literal()
        if not isinstance(value, int):
            raise SQLError("OFFSET requires an integer")
        offset = value
    if not parser.at_end():
        raise SQLError(f"trailing tokens near {parser._context()}")
    if star:
        outputs = None
    if aggregates and outputs:
        # plain columns alongside aggregates become GROUP BY keys if listed
        group_by = group_by or outputs
        outputs = None
    return Query(
        table=table,
        joins=joins,
        where=where,
        outputs=outputs,
        group_by=group_by,
        aggregates=aggregates,
        order_by=order_by,
        limit=limit,
        offset=offset,
        having=having,
        distinct=distinct,
    )


_ON_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")


def _parse_join_on(parser: _Parser, join_table: TableRef) -> JoinSpec:
    """The ON clause: AND-ed comparison conjuncts.

    Column-equality conjuncts (``a.x = b.x``, in either operand order —
    the planner normalizes sides by binding) become the join's equality
    pairs; any other comparison (non-equi operators, or a literal
    operand) stays a join residual evaluated over the joined row.  At
    least one conjunct is required.
    """
    pairs: List[Tuple[Col, Col]] = []
    residuals: List[Expr] = []
    while True:
        left = Col(parser.column_ref())
        token = parser.next()
        if token.kind != "op" or token.text not in _ON_OPS:
            raise SQLError(f"expected a comparison in ON, got {token.text!r}")
        op = "!=" if token.text == "<>" else token.text
        right_token = parser.peek()
        right: Expr
        if (
            right_token is not None
            and right_token.kind == "word"
            and right_token.text.lower() not in _KEYWORDS
        ):
            right = Col(parser.column_ref())
        else:
            right = Const(parser.literal())
        if op == "=" and isinstance(right, Col):
            pairs.append((left, right))
        else:
            residuals.append(Cmp(op, left, right))
        if not parser.accept_word("and"):
            break
    residual: Optional[Expr]
    if not residuals:
        residual = None
    elif len(residuals) == 1:
        residual = residuals[0]
    else:
        residual = And(*residuals)
    if pairs:
        return JoinSpec(
            join_table, pairs[0][0], pairs[0][1], tuple(pairs[1:]), residual
        )
    return JoinSpec(join_table, None, None, (), residual)


def _maybe_alias(parser: _Parser) -> Optional[str]:
    token = parser.peek()
    if (
        token is not None
        and token.kind == "word"
        and token.text.lower() not in _KEYWORDS
    ):
        parser._position += 1
        return token.text
    return None


def _parse_update(parser: _Parser) -> UpdateStmt:
    table = parser.identifier()
    parser.expect_word("set")
    changes: Dict[str, Any] = {}
    while True:
        column = parser.identifier()
        parser.expect_op("=")
        changes[column] = parser.literal()
        if not parser.accept_op(","):
            break
    where = parser.predicate() if parser.accept_word("where") else None
    return UpdateStmt(table, changes, where)


# ----------------------------------------------------------------------
# Prepared statements
# ----------------------------------------------------------------------


def _bind_value(value: Any, params: Tuple[Any, ...]) -> Any:
    if isinstance(value, _Param):
        return params[value.index]
    return value


def _bind_expr(expr: Expr, params: Tuple[Any, ...]) -> Expr:
    """Rebuild an expression with ``?`` placeholders replaced by values."""
    if isinstance(expr, Const):
        if isinstance(expr.value, _Param):
            return Const(params[expr.value.index])
        return expr
    if isinstance(expr, Cmp):
        return Cmp(expr.op, _bind_expr(expr.left, params), _bind_expr(expr.right, params))
    if isinstance(expr, And):
        return And(*(_bind_expr(part, params) for part in expr.parts))
    if isinstance(expr, Or):
        return Or(*(_bind_expr(part, params) for part in expr.parts))
    if isinstance(expr, Not):
        return Not(_bind_expr(expr.inner, params))
    if isinstance(expr, IsNull):
        return IsNull(_bind_expr(expr.inner, params), negated=expr.negated)
    if isinstance(expr, InList):
        return InList(
            _bind_expr(expr.inner, params),
            tuple(_bind_value(option, params) for option in expr.options),
        )
    if isinstance(expr, PrefixMatch):
        if isinstance(expr.prefix, _Param):
            # the parser deferred pattern validation to bind time
            return PrefixMatch(expr.column, _like_prefix(params[expr.prefix.index]))
        return expr
    return expr


def _bind_opt(expr: Optional[Expr], params: Tuple[Any, ...]) -> Optional[Expr]:
    return None if expr is None else _bind_expr(expr, params)


def _bind_statement(statement: Statement, params: Tuple[Any, ...]) -> Statement:
    if isinstance(statement, SelectStmt):
        query = statement.query
        joins = [
            replace(join, residual=_bind_opt(join.residual, params))
            for join in query.joins
        ]
        return SelectStmt(
            replace(
                query,
                joins=joins,
                where=_bind_opt(query.where, params),
                having=_bind_opt(query.having, params),
            )
        )
    if isinstance(statement, InsertStmt):
        rows = [[_bind_value(value, params) for value in row] for row in statement.rows]
        return InsertStmt(statement.table, statement.columns, rows)
    if isinstance(statement, DeleteStmt):
        return DeleteStmt(statement.table, _bind_opt(statement.where, params))
    if isinstance(statement, UpdateStmt):
        changes = {
            column: _bind_value(value, params)
            for column, value in statement.changes.items()
        }
        return UpdateStmt(statement.table, changes, _bind_opt(statement.where, params))
    return statement


class PreparedStatement:
    """A statement parsed once and executed many times with bound values.

    ``?`` placeholders mark literal positions (predicates, IN lists,
    BETWEEN bounds, LIKE patterns, INSERT values, UPDATE assignments).
    Each :meth:`execute` substitutes the bound values and runs through
    the engine's plan cache: the query *shape* is stable across
    executions, so repeated runs reuse the cached planner-statistics
    snapshot (or the whole plan, when values repeat) instead of
    re-parsing and re-sampling.
    """

    def __init__(self, engine: QueryEngine, sql: str) -> None:
        parser = _Parser(_tokenize(sql), allow_params=True)
        statement = _parse_with(parser)
        if isinstance(statement, (CreateTableStmt, CreateIndexStmt, DropTableStmt)):
            if parser.param_count:
                raise SQLError("placeholders are not allowed in DDL statements")
        self._engine = engine
        self._statement = statement
        self.sql = sql
        self.param_count = parser.param_count

    def execute(self, params: Sequence[Any] = ()) -> List[Dict[str, Any]]:
        if len(params) != self.param_count:
            raise SQLError(
                f"statement takes {self.param_count} parameter(s), got {len(params)}"
            )
        bound = _bind_statement(self._statement, tuple(params))
        return _run_statement(self._engine, bound)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def execute_sql(engine: QueryEngine, sql: str) -> List[Dict[str, Any]]:
    """Parse and execute one statement.  SELECT returns rows as dicts;
    DML returns ``[{"affected": n}]``; DDL returns ``[]``."""
    return _run_statement(engine, parse_statement(sql))


def _run_statement(
    target: "QueryEngine | MVCCTransaction", statement: Statement
) -> List[Dict[str, Any]]:
    """Execute a parsed statement against a :class:`QueryEngine` or an
    ``MVCCTransaction`` (which rejects DDL before calling this); both
    supply ``insert_many`` / ``delete_where`` / ``update_where`` /
    ``execute``."""
    if isinstance(statement, CreateTableStmt):
        target.create_table(statement.schema)
        return []
    if isinstance(statement, CreateIndexStmt):
        target.table(statement.table).create_index(statement.spec)
        return []
    if isinstance(statement, DropTableStmt):
        target.drop_table(statement.table)
        return []
    if isinstance(statement, InsertStmt):
        # one insert_many call: a multi-row INSERT is one atomic
        # statement, so a failing row leaves none of its rows behind
        columns = statement.columns
        rows = statement.rows
        if columns is not None:
            rows = [dict(zip(columns, row)) for row in rows]
        target.insert_many(statement.table, rows)
        return [{"affected": len(statement.rows)}]
    if isinstance(statement, SelectStmt):
        return target.execute(statement.query)
    if isinstance(statement, DeleteStmt):
        return [{"affected": target.delete_where(statement.table, statement.where)}]
    if isinstance(statement, UpdateStmt):
        return [{"affected": target.update_where(statement.table, statement.changes, statement.where)}]
    raise SQLError(f"unhandled statement type {type(statement).__name__}")
