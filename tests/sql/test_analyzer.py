"""Analyzer unit tests: join extraction, filters, alias resolution."""

import pytest

from repro.sql.analyzer import JoinCondition, analyze


def joins(sql, owner=None):
    return sorted(str(c) for c in analyze(sql, owner).join_conditions)


class TestJoinConditionObject:
    def test_make_normalizes_order(self):
        a = JoinCondition.make("t2.y", "t1.x")
        b = JoinCondition.make("t1.x", "t2.y")
        assert a == b
        assert a.left == "t1.x"

    def test_str_rendering(self):
        assert str(JoinCondition.make("a.x", "b.y")) == "a.x = b.y"

    def test_columns_property(self):
        assert JoinCondition.make("a.x", "b.y").columns == ("a.x", "b.y")


class TestJoinExtraction:
    def test_where_equality_between_tables(self):
        assert joins("SELECT 1 FROM a, b WHERE a.x = b.y") == ["a.x = b.y"]

    def test_on_clause(self):
        assert joins("SELECT 1 FROM a JOIN b ON a.x = b.y") == ["a.x = b.y"]

    def test_alias_resolution(self):
        sql = "SELECT 1 FROM lineitem l, orders o WHERE l.k = o.k2"
        assert joins(sql) == ["lineitem.k = orders.k2"]

    def test_self_join_via_aliases_not_a_join_condition(self):
        # Both sides resolve to the same base table.
        sql = "SELECT 1 FROM t a, t b WHERE a.x = b.x"
        assert joins(sql) == []

    def test_same_condition_not_duplicated(self):
        sql = "SELECT 1 FROM a, b WHERE a.x = b.y AND b.y = a.x"
        assert joins(sql) == ["a.x = b.y"]

    def test_equality_with_constant_is_filter_not_join(self):
        info = analyze("SELECT 1 FROM a WHERE a.x = 5")
        assert not info.join_conditions
        assert info.filters[0].op == "="

    def test_transitive_conditions_kept_separately(self):
        sql = "SELECT 1 FROM a, b, c WHERE a.x = b.x AND b.x = c.x"
        assert len(joins(sql)) == 2

    def test_in_subquery_becomes_semijoin(self):
        sql = "SELECT 1 FROM a WHERE a.x IN (SELECT b.y FROM b)"
        assert joins(sql) == ["a.x = b.y"]

    def test_correlated_subquery_join(self):
        sql = (
            "SELECT 1 FROM part WHERE part.p < "
            "(SELECT avg(l.q) FROM lineitem l WHERE l.pk = part.pk2)"
        )
        assert joins(sql) == ["lineitem.pk = part.pk2"]


class TestFilters:
    def test_filter_ops_and_selectivities(self):
        info = analyze(
            "SELECT 1 FROM t WHERE t.a = 1 AND t.b > 2 AND t.c BETWEEN 1 AND 9 "
            "AND t.d IN (1, 2) AND t.e LIKE 'x%' AND t.f IS NULL"
        )
        ops = {f.column: f.op for f in info.filters}
        assert ops == {"a": "=", "b": ">", "c": "between", "d": "in",
                       "e": "like", "f": "isnull"}
        for predicate in info.filters:
            assert 0.0 < predicate.selectivity <= 1.0

    def test_filter_selectivity_combines_multiplicatively(self):
        info = analyze("SELECT 1 FROM t WHERE t.a > 1 AND t.b > 2")
        expected = info.filters[0].selectivity * info.filters[1].selectivity
        assert info.filter_selectivity("t") == pytest.approx(expected)

    def test_filter_selectivity_for_untouched_table_is_one(self):
        info = analyze("SELECT 1 FROM t WHERE t.a > 1")
        assert info.filter_selectivity("other") == 1.0

    def test_reversed_comparison_still_filters(self):
        info = analyze("SELECT 1 FROM t WHERE 5 < t.a")
        assert info.filters[0].column == "a"

    def test_qualified_column_property(self):
        info = analyze("SELECT 1 FROM t WHERE t.a = 1")
        assert info.filters[0].qualified_column == "t.a"


class TestColumnCollection:
    def test_columns_by_table(self):
        info = analyze("SELECT a.x, b.y FROM a, b WHERE a.z = b.w")
        assert info.columns_by_table["a"] == {"x", "z"}
        assert info.columns_by_table["b"] == {"y", "w"}

    def test_unqualified_column_resolved_via_owner_map(self):
        info = analyze(
            "SELECT x FROM a WHERE y = 1", column_owner={"x": "a", "y": "a"}
        )
        assert info.columns_by_table["a"] == {"x", "y"}

    def test_unqualified_without_owner_is_dropped(self):
        info = analyze("SELECT mystery FROM a")
        assert info.columns_by_table["a"] == set()

    def test_referenced_columns_qualified(self):
        info = analyze("SELECT a.x FROM a")
        assert info.referenced_columns == {"a.x"}

    def test_predicate_columns_are_filters_and_join_sides(self):
        info = analyze(
            "SELECT a.v FROM a, b WHERE a.z = b.w AND a.x > 3 GROUP BY a.v"
        )
        assert info.predicate_columns == {"a.z", "b.w", "a.x"}


class TestAggregatesAndKeys:
    def test_aggregates_recorded(self):
        info = analyze("SELECT sum(t.x), avg(t.y), count(*) FROM t")
        assert sorted(info.aggregates) == ["avg", "count", "sum"]

    def test_non_aggregate_function_not_recorded(self):
        info = analyze("SELECT upper(t.x) FROM t")
        assert info.aggregates == []

    def test_group_by_columns(self):
        info = analyze("SELECT t.x FROM t GROUP BY t.x, t.y")
        assert info.group_by_columns == {"t.x", "t.y"}

    def test_order_by_columns(self):
        info = analyze("SELECT t.x FROM t ORDER BY t.x DESC")
        assert info.order_by_columns == {"t.x"}

    def test_order_by_alias_not_a_column(self):
        info = analyze("SELECT sum(t.x) AS s FROM t ORDER BY s")
        assert info.order_by_columns == set()


class TestSubqueryMerging:
    def test_subquery_tables_merged(self):
        info = analyze(
            "SELECT 1 FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.x = a.y)"
        )
        assert info.tables == {"a", "b"}
        assert info.has_subquery

    def test_no_subquery_flag(self):
        assert not analyze("SELECT 1 FROM a").has_subquery

    def test_subquery_filters_merged(self):
        info = analyze(
            "SELECT 1 FROM a WHERE EXISTS "
            "(SELECT 1 FROM b WHERE b.x = a.y AND b.z > 3)"
        )
        assert any(f.table == "b" and f.column == "z" for f in info.filters)

    def test_tpch_q20_style_nesting_connects_all_tables(self, tpch):
        q20 = tpch.query("q20")
        tables = q20.info.tables
        assert {"supplier", "nation", "partsupp", "part", "lineitem"} <= tables
        # Every table must be reachable through join conditions (no
        # phantom cross products).
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(tables)
        for condition in q20.info.join_conditions:
            left = condition.left.rsplit(".", 1)[0]
            right = condition.right.rsplit(".", 1)[0]
            graph.add_edge(left, right)
        assert nx.is_connected(graph)


class TestWorkloadsAnalyzeCleanly:
    def test_all_tpch_queries_have_tables(self, tpch):
        for query in tpch.queries:
            assert query.info.tables, query.name

    def test_all_job_queries_have_joins(self, job):
        for query in job.queries:
            assert query.info.join_conditions, query.name
