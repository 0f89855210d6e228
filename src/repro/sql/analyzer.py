"""Semantic analysis of parsed queries.

The analyzer resolves table aliases against the statement's FROM clause
and extracts the facts the tuning pipeline needs:

- **join conditions** -- equality predicates between columns of two
  different tables (from WHERE conjuncts and JOIN..ON clauses).  These
  feed the workload compressor (paper §3.2).
- **filter predicates** -- single-table restrictions with a coarse
  selectivity estimate, used by the simulator's planner and by the lazy
  index mapper (paper §5.1).
- **referenced columns per table** -- used to decide which hypothetical
  indexes could be relevant for a query.
- **aggregate calls, group-by keys and order-by keys** -- used by the
  cost model.

Subqueries are analyzed recursively and their facts merged into the
parent's :class:`QueryInfo` (the paper treats the workload as a flat set
of operators per query).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SQLError
from repro.sql import ast
from repro.sql.parser import parse_select

_AGGREGATES = frozenset({"sum", "avg", "count", "min", "max"})

# Coarse default selectivities per predicate shape, in the spirit of the
# classical System-R defaults.  The simulator refines them with catalog
# statistics when available.
_DEFAULT_SELECTIVITY = {
    "=": 0.05,
    "<": 0.33,
    ">": 0.33,
    "<=": 0.33,
    ">=": 0.33,
    "<>": 0.9,
    "like": 0.15,
    "between": 0.25,
    "in": 0.2,
    "isnull": 0.05,
}


@dataclass(frozen=True, slots=True)
class JoinCondition:
    """An equi-join predicate between two table columns.

    Columns are stored fully qualified as ``table.column`` using *base
    table* names (aliases resolved), with the lexicographically smaller
    side first so that symmetric conditions compare equal.
    """

    left: str
    right: str

    @staticmethod
    def make(left: str, right: str) -> "JoinCondition":
        if right < left:
            left, right = right, left
        return JoinCondition(left=left, right=right)

    @property
    def columns(self) -> tuple[str, str]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True, slots=True)
class FilterPredicate:
    """A single-table restriction on one column."""

    table: str
    column: str
    op: str
    selectivity: float

    @property
    def qualified_column(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(slots=True)
class QueryInfo:
    """All analyzer facts about one query."""

    tables: set[str] = field(default_factory=set)
    join_conditions: set[JoinCondition] = field(default_factory=set)
    filters: list[FilterPredicate] = field(default_factory=list)
    columns_by_table: dict[str, set[str]] = field(default_factory=dict)
    group_by_columns: set[str] = field(default_factory=set)
    order_by_columns: set[str] = field(default_factory=set)
    aggregates: list[str] = field(default_factory=list)
    has_subquery: bool = False

    @property
    def referenced_columns(self) -> set[str]:
        """All ``table.column`` strings referenced anywhere in the query."""
        return {
            f"{table}.{column}"
            for table, columns in self.columns_by_table.items()
            for column in columns
        }

    @property
    def predicate_columns(self) -> set[str]:
        """``table.column`` strings of the filters and join conditions."""
        columns = {predicate.qualified_column for predicate in self.filters}
        for condition in self.join_conditions:
            columns.update(condition.columns)
        return columns

    def filter_selectivity(self, table: str) -> float:
        """Combined (independence-assumption) selectivity of all filters on a table."""
        product = 1.0
        for predicate in self.filters:
            if predicate.table == table:
                product *= predicate.selectivity
        return product


class _Scope:
    """Alias resolution for one SELECT level."""

    def __init__(self, parent: "_Scope | None" = None) -> None:
        self.alias_to_table: dict[str, str] = {}
        self.parent = parent

    def add(self, ref: ast.TableRef) -> None:
        self.alias_to_table[ref.name] = ref.table
        # The bare table name also resolves to itself unless shadowed.
        self.alias_to_table.setdefault(ref.table, ref.table)

    def resolve(self, qualifier: str) -> str | None:
        scope: _Scope | None = self
        while scope is not None:
            if qualifier in scope.alias_to_table:
                return scope.alias_to_table[qualifier]
            scope = scope.parent
        return None


class Analyzer:
    """Walks a parsed statement and accumulates a :class:`QueryInfo`.

    An optional ``column_owner`` mapping (column name -> table name) lets
    the analyzer resolve unqualified column references; the workload
    schemas provide it since benchmark columns are prefixed uniquely
    (``l_orderkey`` belongs to ``lineitem``).
    """

    def __init__(self, column_owner: dict[str, str] | None = None) -> None:
        self._column_owner = column_owner or {}
        self._info = QueryInfo()

    def analyze(self, stmt: ast.SelectStmt) -> QueryInfo:
        self._collect(stmt, _Scope())
        return self._info

    # -- statement traversal -------------------------------------------------

    def _collect(self, stmt: ast.SelectStmt, parent: _Scope) -> None:
        scope = _Scope(parent)
        for source in stmt.from_clause:
            self._register_source(source, scope)

        for source in stmt.from_clause:
            self._collect_join_tree(source, scope)

        if stmt.where is not None:
            self._collect_predicate(stmt.where, scope)
        if stmt.having is not None:
            self._collect_expr(stmt.having, scope)

        for item in stmt.items:
            self._collect_expr(item.expr, scope)
        for key in stmt.group_by:
            self._collect_expr(key, scope)
            if (resolved := self._resolve_column(key, scope)) is not None:
                self._info.group_by_columns.add(resolved)
        for order in stmt.order_by:
            self._collect_expr(order.expr, scope)
            if (resolved := self._resolve_column(order.expr, scope)) is not None:
                self._info.order_by_columns.add(resolved)

    def _register_source(self, source: ast.Node, scope: _Scope) -> None:
        if isinstance(source, ast.TableRef):
            scope.add(source)
            self._info.tables.add(source.table)
            self._info.columns_by_table.setdefault(source.table, set())
        elif isinstance(source, ast.Join):
            self._register_source(source.left, scope)
            self._register_source(source.right, scope)
        else:  # pragma: no cover - parser only emits the above
            raise SQLError(f"unsupported FROM item: {type(source).__name__}")

    def _collect_join_tree(self, source: ast.Node, scope: _Scope) -> None:
        if isinstance(source, ast.Join):
            self._collect_join_tree(source.left, scope)
            self._collect_join_tree(source.right, scope)
            if source.condition is not None:
                self._collect_predicate(source.condition, scope)

    # -- predicate extraction --------------------------------------------------

    def _collect_predicate(self, expr: ast.Node, scope: _Scope) -> None:
        """Split a boolean expression into conjuncts and classify each."""
        if isinstance(expr, ast.BinaryOp) and expr.op == "and":
            self._collect_predicate(expr.left, scope)
            self._collect_predicate(expr.right, scope)
            return
        self._classify_conjunct(expr, scope)

    def _classify_conjunct(self, expr: ast.Node, scope: _Scope) -> None:
        if isinstance(expr, ast.BinaryOp) and expr.op in _DEFAULT_SELECTIVITY:
            left = self._resolve_column(expr.left, scope)
            right = self._resolve_column(expr.right, scope)
            if expr.op == "=" and left is not None and right is not None:
                left_table = left.rsplit(".", 1)[0]
                right_table = right.rsplit(".", 1)[0]
                if left_table != right_table:
                    self._info.join_conditions.add(JoinCondition.make(left, right))
                    self._collect_expr(expr.left, scope)
                    self._collect_expr(expr.right, scope)
                    return
            for side, other in ((left, expr.right), (right, expr.left)):
                if side is not None and not isinstance(other, ast.ColumnRef):
                    table, column = side.rsplit(".", 1)
                    self._info.filters.append(
                        FilterPredicate(
                            table=table,
                            column=column,
                            op=expr.op,
                            selectivity=_DEFAULT_SELECTIVITY[expr.op],
                        )
                    )
            self._collect_expr(expr.left, scope)
            self._collect_expr(expr.right, scope)
            return

        if isinstance(expr, ast.Between):
            self._add_filter_for(expr.expr, "between", scope)
            self._collect_expr(expr, scope)
            return
        if isinstance(expr, (ast.InList, ast.InSubquery)):
            self._add_filter_for(expr.expr, "in", scope)
            self._collect_expr(expr, scope)
            return
        if isinstance(expr, ast.IsNull):
            self._add_filter_for(expr.expr, "isnull", scope)
            self._collect_expr(expr, scope)
            return
        if isinstance(expr, ast.BinaryOp) and expr.op == "or":
            # OR conjuncts contribute column references but no precise
            # selectivity; approximate with a LIKE-level default per side.
            self._collect_expr(expr, scope)
            return
        if isinstance(expr, ast.UnaryOp) and expr.op == "not":
            self._collect_predicate(expr.operand, scope)
            return
        self._collect_expr(expr, scope)

    def _add_filter_for(self, expr: ast.Node, op: str, scope: _Scope) -> None:
        resolved = self._resolve_column(expr, scope)
        if resolved is not None:
            table, column = resolved.rsplit(".", 1)
            self._info.filters.append(
                FilterPredicate(
                    table=table,
                    column=column,
                    op=op,
                    selectivity=_DEFAULT_SELECTIVITY[op],
                )
            )

    # -- expression traversal ---------------------------------------------------

    def _collect_expr(self, expr: ast.Node, scope: _Scope) -> None:
        if isinstance(expr, ast.ColumnRef):
            self._record_column(expr, scope)
            return
        if isinstance(expr, ast.FuncCall):
            if expr.name in _AGGREGATES:
                self._info.aggregates.append(expr.name)
            for arg in expr.args:
                self._collect_expr(arg, scope)
            return
        if isinstance(expr, (ast.Exists, ast.InSubquery, ast.ScalarSubquery)):
            self._info.has_subquery = True
            if isinstance(expr, ast.InSubquery):
                self._collect_expr(expr.expr, scope)
                self._record_semijoin(expr, scope)
            self._collect(expr.subquery, scope)
            return
        if isinstance(expr, ast.BinaryOp):
            self._collect_expr(expr.left, scope)
            self._collect_expr(expr.right, scope)
            return
        if isinstance(expr, ast.UnaryOp):
            self._collect_expr(expr.operand, scope)
            return
        if isinstance(expr, ast.Between):
            self._collect_expr(expr.expr, scope)
            self._collect_expr(expr.low, scope)
            self._collect_expr(expr.high, scope)
            return
        if isinstance(expr, ast.InList):
            self._collect_expr(expr.expr, scope)
            for item in expr.items:
                self._collect_expr(item, scope)
            return
        if isinstance(expr, ast.IsNull):
            self._collect_expr(expr.expr, scope)
            return
        if isinstance(expr, ast.CaseExpr):
            for cond, value in expr.branches:
                self._collect_expr(cond, scope)
                self._collect_expr(value, scope)
            if expr.default is not None:
                self._collect_expr(expr.default, scope)
            return
        # Literals and Star carry no column references.

    def _record_semijoin(self, expr: ast.InSubquery, scope: _Scope) -> None:
        """Register ``outer_col IN (SELECT inner_col ...)`` as a semi-join.

        A real optimizer turns this shape into a (semi) join; recording
        it keeps the flattened join graph connected, which matters both
        for the compressor and for avoiding phantom cross products in
        the simulated planner.
        """
        subquery = expr.subquery
        if len(subquery.items) != 1:
            return
        inner_expr = subquery.items[0].expr
        if not isinstance(inner_expr, ast.ColumnRef):
            return
        child = _Scope(scope)
        for source in subquery.from_clause:
            self._register_scope_only(source, child)
        outer = self._resolve_column(expr.expr, scope)
        inner = self._resolve_column(inner_expr, child)
        if outer is None or inner is None:
            return
        outer_table = outer.rsplit(".", 1)[0]
        inner_table = inner.rsplit(".", 1)[0]
        if outer_table != inner_table:
            self._info.join_conditions.add(JoinCondition.make(outer, inner))

    def _register_scope_only(self, source: ast.Node, scope: _Scope) -> None:
        """Register FROM aliases without touching collected facts."""
        if isinstance(source, ast.TableRef):
            scope.add(source)
        elif isinstance(source, ast.Join):
            self._register_scope_only(source.left, scope)
            self._register_scope_only(source.right, scope)

    def _record_column(self, ref: ast.ColumnRef, scope: _Scope) -> None:
        resolved = self._resolve_column(ref, scope)
        if resolved is None:
            return
        table, column = resolved.rsplit(".", 1)
        self._info.columns_by_table.setdefault(table, set()).add(column)

    def _resolve_column(self, expr: ast.Node, scope: _Scope) -> str | None:
        """Return ``table.column`` for a column reference, else None."""
        if not isinstance(expr, ast.ColumnRef):
            return None
        if expr.table is not None:
            table = scope.resolve(expr.table)
            if table is None:
                # Unknown qualifier: keep as-is so obviously broken SQL
                # still analyzes (the engine will reject it at execution).
                table = expr.table
            return f"{table}.{expr.column}"
        owner = self._column_owner.get(expr.column)
        if owner is not None:
            return f"{owner}.{expr.column}"
        return None


def analyze(
    query: str | ast.SelectStmt,
    column_owner: dict[str, str] | None = None,
) -> QueryInfo:
    """Analyze SQL text or a parsed statement."""
    stmt = parse_select(query) if isinstance(query, str) else query
    return Analyzer(column_owner).analyze(stmt)
