"""Bitmask index relevance vs. the per-query column scan it replaced.

``ConfigurationEvaluator.query_index_map`` encodes each configuration's
index list once as ``column -> bitmask`` and answers every call with
one lookup per query.  :func:`reference_query_index_map` is the scan it
replaced -- every query x config index x indexed column -- kept here as
the executable specification.  The encoding must return equal maps, in
the same key order, with every index set iterating in the same order
(the frozensets are built by walking the index list in config order,
exactly as the scan did), on the paper's workloads with configurations
sampled from the simulated LLM and on hand-built edge cases.
"""

import pytest

from repro.core.config import Configuration
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.tuner import LambdaTune, LambdaTuneOptions
from repro.db.indexes import Index
from repro.db.registry import create_engine
from repro.llm.mock import SimulatedLLM
from repro.workloads.registry import load_workload

WORKLOADS = ("tpch-sf1", "job", "tpcds-sf1", "synthetic:queries=200,scale=1")


def reference_query_index_map(queries, config):
    """The per-query loop: an index is relevant when one of its columns
    is a predicate column (filter or join condition) of the query."""
    result = {}
    for query in queries:
        predicate_columns = {
            predicate.qualified_column for predicate in query.info.filters
        }
        for condition in query.info.join_conditions:
            predicate_columns.update(condition.columns)
        result[query.name] = frozenset(
            index
            for index in config.indexes
            if any(
                column in predicate_columns
                for column in index.qualified_columns()
            )
        )
    return result


def assert_same_map(actual, expected):
    assert list(actual) == list(expected)
    for name, indexes in expected.items():
        assert actual[name] == indexes
        assert list(actual[name]) == list(indexes)


@pytest.fixture(scope="module", params=WORKLOADS)
def sampled(request):
    """A workload, an engine over it and its LLM-sampled configurations."""
    workload = load_workload(request.param)
    engine = create_engine("postgres", workload.catalog)
    queries = list(workload.queries)
    configs = []
    for seed in (0, 1):
        tuner = LambdaTune(engine, SimulatedLLM(), LambdaTuneOptions(seed=seed))
        configs.extend(
            tuner.sample_configurations(tuner.generate_prompt(queries))
        )
    assert any(config.indexes for config in configs)
    return engine, queries, configs


class TestSampledConfigurations:
    @pytest.mark.parametrize("enable_caches", [True, False])
    def test_maps_equal_reference(self, sampled, enable_caches):
        engine, queries, configs = sampled
        evaluator = ConfigurationEvaluator(engine, enable_caches=enable_caches)
        for config in configs:
            assert_same_map(
                evaluator.query_index_map(queries, config),
                reference_query_index_map(queries, config),
            )

    def test_shrinking_pending_subsets(self, sampled):
        """Selection re-asks for ever smaller pending sets of one config:
        every subset answers from the same encoding, correctly."""
        engine, queries, configs = sampled
        evaluator = ConfigurationEvaluator(engine)
        config = max(configs, key=lambda candidate: len(candidate.indexes))
        pending = list(queries)
        while pending:
            assert_same_map(
                evaluator.query_index_map(pending, config),
                reference_query_index_map(pending, config),
            )
            pending = pending[1::2] if len(pending) > 1 else []
        assert len(evaluator._relevance_cache) == 1


class TestEdgeCases:
    def check(self, engine, queries, config):
        for enable_caches in (True, False):
            evaluator = ConfigurationEvaluator(engine, enable_caches=enable_caches)
            actual = evaluator.query_index_map(queries, config)
            assert_same_map(actual, reference_query_index_map(queries, config))
        return actual

    def test_empty_index_list(self, pg_engine, tiny_workload):
        queries = list(tiny_workload.queries)
        mapping = self.check(pg_engine, queries, Configuration("empty"))
        assert all(indexes == frozenset() for indexes in mapping.values())

    def test_predicate_column_not_leading(self, pg_engine, tiny_workload):
        """A multi-column index is relevant through any of its columns,
        not only the leading one."""
        index = Index("users", ("age", "country"))
        mapping = self.check(
            pg_engine, list(tiny_workload.queries), Configuration("c", indexes=[index])
        )
        assert mapping["by_country"] == frozenset({index})
        assert mapping["kind_filter"] == frozenset()

    def test_index_on_untouched_column(self, pg_engine, tiny_workload):
        untouched = Index("users", ("age",))
        used = Index("users", ("country",))
        mapping = self.check(
            pg_engine,
            list(tiny_workload.queries),
            Configuration("c", indexes=[untouched, used]),
        )
        assert all(untouched not in indexes for indexes in mapping.values())
        assert mapping["by_country"] == frozenset({used})

    def test_duplicate_and_overlapping_indexes(self, pg_engine, tiny_workload):
        indexes = [
            Index("events", ("user_id2",)),
            Index("events", ("kind", "user_id2")),
            Index("events", ("user_id2",)),
            Index("users", ("user_id", "country")),
        ]
        self.check(
            pg_engine, list(tiny_workload.queries), Configuration("c", indexes=indexes)
        )

    def test_shrinking_pending_subsets_of_one_config(self, pg_engine, tiny_workload):
        config = Configuration(
            "c",
            indexes=[Index("users", ("country",)), Index("events", ("user_id2",))],
        )
        evaluator = ConfigurationEvaluator(pg_engine)
        queries = list(tiny_workload.queries)
        for pending in (queries, queries[1:], queries[2:], []):
            assert_same_map(
                evaluator.query_index_map(pending, config),
                reference_query_index_map(pending, config),
            )
