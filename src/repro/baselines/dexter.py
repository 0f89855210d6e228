"""Dexter: an automatic indexer driven by hypothetical indexes.

Following the open-source tool (github.com/ankane/dexter), Dexter
collects candidate indexes from the columns referenced in query
predicates, creates them *hypothetically*, re-plans the workload, and
keeps every index whose hypothetical presence reduces a query's
estimated cost by more than a threshold (the tool's default is 50%
for a query, relaxed here to a workload-level gain test with greedy
forward selection).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.engine import DatabaseEngine
from repro.db.indexes import Index
from repro.workloads.base import Workload

#: Minimum relative workload-cost improvement to keep adding indexes.
_MIN_GAIN = 0.01


@dataclass(slots=True)
class AdvisorResult:
    """Recommended indexes plus the advisor's cost accounting."""

    indexes: list[Index]
    initial_cost: float
    final_cost: float

    @property
    def improvement(self) -> float:
        if self.initial_cost <= 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost


def candidate_indexes(workload: Workload) -> list[Index]:
    """Single-column candidates from join and filter columns."""
    columns: set[str] = set()
    for query in workload.queries:
        columns.update(query.info.predicate_columns)
    candidates = []
    for qualified in sorted(columns):
        table, column = qualified.rsplit(".", 1)
        candidates.append(Index(table, (column,)))
    return candidates


def _affected_queries(
    workload: Workload, candidates: list[Index]
) -> dict[tuple, set[str]]:
    """Map each candidate index to the queries its column could touch."""
    affected: dict[tuple, set[str]] = {}
    for candidate in candidates:
        column = candidate.qualified_columns()[0]
        names: set[str] = set()
        for query in workload.queries:
            if column in query.info.predicate_columns:
                names.add(query.name)
        affected[candidate.key] = names
    return affected


class DexterAdvisor:
    """Greedy hypothetical-index selection."""

    name = "dexter"

    def __init__(self, *, max_indexes: int = 16) -> None:
        self.max_indexes = max_indexes

    def recommend(
        self, workload: Workload, engine: DatabaseEngine
    ) -> AdvisorResult:
        """Choose indexes that reduce re-planned workload cost.

        Greedy forward selection; adding a candidate only re-plans the
        queries whose predicates reference the candidate's column, so
        each round costs O(candidates x affected-queries) plannings.
        """
        candidates = candidate_indexes(workload)
        affected = _affected_queries(workload, candidates)
        chosen: list[Index] = []

        def query_cost(query, indexes: list[Index]) -> float:
            with engine.hypothetical_indexes(indexes):
                return engine.explain(query).actual_cost

        costs = {
            query.name: query_cost(query, []) for query in workload.queries
        }
        initial_cost = sum(costs.values())
        current_cost = initial_cost
        queries_by_name = {query.name: query for query in workload.queries}

        while len(chosen) < self.max_indexes:
            best_candidate: Index | None = None
            best_delta = 0.0
            best_new_costs: dict[str, float] = {}
            for candidate in candidates:
                if any(candidate.key == index.key for index in chosen):
                    continue
                new_costs = {
                    name: query_cost(queries_by_name[name], chosen + [candidate])
                    for name in affected.get(candidate.key, ())
                }
                delta = sum(
                    costs[name] - cost for name, cost in new_costs.items()
                )
                if delta > best_delta:
                    best_delta = delta
                    best_candidate = candidate
                    best_new_costs = new_costs
            if (
                best_candidate is None
                or best_delta / max(initial_cost, 1e-9) < _MIN_GAIN
            ):
                break
            chosen.append(best_candidate)
            costs.update(best_new_costs)
            current_cost -= best_delta

        return AdvisorResult(
            indexes=chosen, initial_cost=initial_cost, final_cost=current_cost
        )
