"""Bitmask DP core vs. executable specification and oracle.

The production scheduler (:func:`compute_order_dp`) is a bitmask
rewrite of the original dict/frozenset Algorithm 4, kept as
:func:`compute_order_dp_reference`.  These tests pin the rewrite to the
specification:

- for n <= 8 the bitmask order achieves exactly the brute-force-optimal
  Equation-1 cost,
- for randomized instances up to the paper's cap (n = 13, beyond
  brute-force reach) the bitmask order is *identical* to the reference
  order -- both use the same canonical summation order and tie-break,
  so equality is exact, not approximate,
- the numpy layer-at-once kernel and the pure-python scalar core
  agree bit-for-bit on parent pointers, for every input size the
  kernel serves, index universes up to 63 bits (summed by the per-mask
  cost table alone, or by the table plus bit-by-bit accumulation of the
  bits above it) and instances full of equal
  costs, where the ``_EPS`` tie-break decides.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import (
    MAX_DP_INPUT,
    _VECTOR_MAX_INDEX_BITS,
    _VECTOR_MIN_QUERIES,
    _dp_parents_layered,
    _dp_parents_scalar,
    _encode_bitmasks,
    brute_force_order,
    compute_order_dp,
    compute_order_dp_reference,
    expected_cost,
)


def _random_instance(rng: random.Random, n_queries: int):
    n_indexes = rng.randint(1, 2 * n_queries)
    index_names = [f"i{k}" for k in range(n_indexes)]
    costs = {name: rng.uniform(0.05, 30.0) for name in index_names}
    index_map = {
        f"q{q}": frozenset(
            rng.sample(index_names, rng.randint(0, min(5, n_indexes)))
        )
        for q in range(n_queries)
    }
    return list(index_map), index_map, costs


@st.composite
def bitmask_instance(draw, max_queries=8):
    n_queries = draw(st.integers(min_value=1, max_value=max_queries))
    n_indexes = draw(st.integers(min_value=1, max_value=6))
    index_names = [f"i{k}" for k in range(n_indexes)]
    costs = {
        name: draw(st.floats(0.05, 25.0, allow_nan=False))
        for name in index_names
    }
    index_map = {
        f"q{q}": frozenset(
            draw(st.sets(st.sampled_from(index_names), max_size=n_indexes))
        )
        for q in range(n_queries)
    }
    return list(index_map), index_map, costs


class TestBitmaskMatchesOracle:
    @settings(max_examples=80, deadline=None)
    @given(bitmask_instance(max_queries=6))
    def test_cost_equals_brute_force_small(self, instance):
        queries, index_map, costs = instance
        dp = compute_order_dp(queries, index_map, costs)
        oracle = brute_force_order(queries, index_map, costs)
        assert expected_cost(dp, index_map, costs) == pytest.approx(
            expected_cost(oracle, index_map, costs)
        )

    def test_cost_equals_brute_force_randomized_n8(self):
        rng = random.Random(1234)
        for _ in range(15):
            queries, index_map, costs = _random_instance(rng, 8)
            dp = compute_order_dp(queries, index_map, costs)
            oracle = brute_force_order(queries, index_map, costs)
            assert expected_cost(dp, index_map, costs) == pytest.approx(
                expected_cost(oracle, index_map, costs)
            )


class TestBitmaskMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(bitmask_instance(max_queries=8))
    def test_order_identical_to_reference(self, instance):
        queries, index_map, costs = instance
        assert compute_order_dp(
            queries, index_map, costs
        ) == compute_order_dp_reference(queries, index_map, costs)

    @pytest.mark.parametrize("n_queries", [9, 11, MAX_DP_INPUT])
    def test_order_identical_to_reference_large(self, n_queries):
        """Beyond brute-force reach, the rewrite must *be* the spec."""
        rng = random.Random(42 + n_queries)
        for _ in range(5):
            queries, index_map, costs = _random_instance(rng, n_queries)
            assert compute_order_dp(
                queries, index_map, costs
            ) == compute_order_dp_reference(queries, index_map, costs)


def _wide_instance(rng: random.Random, n_queries: int, n_indexes: int):
    """An instance whose index universe has exactly ``n_indexes`` bits."""
    index_names = [f"i{k}" for k in range(n_indexes)]
    costs = {name: rng.uniform(0.05, 30.0) for name in index_names}
    sets = [set() for _ in range(n_queries)]
    for name in index_names:  # every index is needed by some query
        sets[rng.randrange(n_queries)].add(name)
    for needed in sets:
        needed.update(rng.sample(index_names, rng.randint(0, min(4, n_indexes))))
    index_map = {f"q{q}": frozenset(sets[q]) for q in range(n_queries)}
    return list(index_map), index_map, costs


def _tied_instance(rng: random.Random, n_queries: int):
    """Few indexes with few distinct costs: many exact and near ties.

    Costs like 0.1/0.2/0.3 sum to values that differ only in the last
    ulp depending on summation order, so candidates land within
    ``_EPS`` of each other as well as exactly equal.
    """
    index_names = [f"i{k}" for k in range(rng.randint(2, 5))]
    palette = (0.1, 0.2, 0.3, 1.0)
    costs = {name: rng.choice(palette) for name in index_names}
    index_map = {
        f"q{q}": frozenset(rng.sample(index_names, rng.randint(0, 2)))
        for q in range(n_queries)
    }
    return list(index_map), index_map, costs


def _assert_kernel_matches(queries, index_map, costs):
    n_queries = len(queries)
    qmasks, bit_costs = _encode_bitmasks(queries, index_map, costs)
    assert len(bit_costs) <= _VECTOR_MAX_INDEX_BITS
    assert _dp_parents_layered(
        n_queries, qmasks, bit_costs
    ) == _dp_parents_scalar(n_queries, qmasks, bit_costs)


class TestScalarVectorizedAgreement:
    """The layer kernel is pinned to the scalar core and the spec."""

    @pytest.mark.parametrize("n_queries", [9, 10, 11, 12, 13])
    def test_parents_bit_identical(self, n_queries):
        rng = random.Random(7 * n_queries)
        for _ in range(4):
            _assert_kernel_matches(*_random_instance(rng, n_queries))

    @pytest.mark.parametrize(
        "n_indexes", [1, 11, 12, 15, 16, 17, 32, 40, _VECTOR_MAX_INDEX_BITS]
    )
    def test_wide_index_universes(self, n_indexes):
        """The cost table covers the lowest ``log2(n * 2^n)`` bits (11 at
        8 queries, 14 at 11, 16 at 13); wider universes add the bits
        above it one by one."""
        rng = random.Random(1000 + n_indexes)
        for n_queries in (_VECTOR_MIN_QUERIES, 11, MAX_DP_INPUT):
            queries, index_map, costs = _wide_instance(rng, n_queries, n_indexes)
            qmasks, bit_costs = _encode_bitmasks(queries, index_map, costs)
            assert len(bit_costs) == n_indexes
            _assert_kernel_matches(queries, index_map, costs)

    def test_wide_universe_order_matches_reference(self):
        rng = random.Random(63)
        queries, index_map, costs = _wide_instance(
            rng, MAX_DP_INPUT, _VECTOR_MAX_INDEX_BITS
        )
        assert compute_order_dp(
            queries, index_map, costs
        ) == compute_order_dp_reference(queries, index_map, costs)

    @pytest.mark.parametrize("n_queries", [9, 10, 11, 12, 13])
    def test_equal_costs_break_ties_identically(self, n_queries):
        rng = random.Random(31 * n_queries)
        for _ in range(6):
            queries, index_map, costs = _tied_instance(rng, n_queries)
            _assert_kernel_matches(queries, index_map, costs)
            assert compute_order_dp(
                queries, index_map, costs
            ) == compute_order_dp_reference(queries, index_map, costs)

    def test_all_equal_orders_pick_the_first_candidate(self):
        """Every order costs the same: each DP step keeps the lowest
        query bit (the first strict improvement), so the order is the
        input reversed -- in the kernel, the scalar core and the spec."""
        queries = [f"q{q}" for q in range(MAX_DP_INPUT)]
        index_map = {query: frozenset({"shared"}) for query in queries}
        costs = {"shared": 0.3}
        expected = queries[::-1]
        assert compute_order_dp(queries, index_map, costs) == expected
        assert compute_order_dp_reference(queries, index_map, costs) == expected
        _assert_kernel_matches(queries, index_map, costs)

    def test_bits_above_the_cost_table_add_in_ascending_order(self):
        """At 8 queries the cost table covers bits 0..10, so q0's indexes
        i11..i13 are added one by one.  Their ascending sum is one ulp
        (more than ``_EPS`` at this magnitude) above the descending sum,
        and q1's single index costs exactly the ascending sum: q0 and
        q1 tie only if the kernel adds the high bits in canonical
        order, and the tie decides the parent of ``{q0, q1}``."""
        a, b, c = 68643.368, 80985.102, 18447.363
        assert ((a + b) + c) - ((c + b) + a) > 1e-12
        costs = {f"i{k:02d}": 1.0 + k for k in range(10)}
        costs.update({"i10": (a + b) + c, "i11": a, "i12": b, "i13": c})
        index_map = {
            "q0": frozenset({"i11", "i12", "i13"}),
            "q1": frozenset({"i10"}),
        }
        for k in range(10):
            query = f"q{2 + k % 6}"
            index_map[query] = index_map.get(query, frozenset()) | {f"i{k:02d}"}
        queries = list(index_map)
        assert len(queries) == _VECTOR_MIN_QUERIES
        _assert_kernel_matches(queries, index_map, costs)
        assert compute_order_dp(
            queries, index_map, costs
        ) == compute_order_dp_reference(queries, index_map, costs)

    def test_layer_kernel_serves_production_sizes(self, monkeypatch):
        """compute_order_dp routes inputs of _VECTOR_MIN_QUERIES+ queries
        through the layer kernel and smaller ones through the scalar core."""
        import repro.core.scheduler as scheduler

        calls = []
        real = scheduler._dp_parents_layered
        monkeypatch.setattr(
            scheduler,
            "_dp_parents_layered",
            lambda *args: calls.append(args[0]) or real(*args),
        )
        rng = random.Random(5)
        for n_queries in (_VECTOR_MIN_QUERIES - 1, _VECTOR_MIN_QUERIES):
            compute_order_dp(*_random_instance(rng, n_queries))
        assert calls == [_VECTOR_MIN_QUERIES]
