"""Outside-in span tracer for the benchmark.

The tracer wraps public functions of the tuning stack from the outside:
it swaps a module or class attribute for a timing wrapper and puts the
original back on exit.  Nothing under ``src/`` knows it exists.

Each wrapped call records a span: name, start and end (``perf_counter_ns``),
its own id, the id of the span that was open when it started, the id of
the tune it belongs to, and its self time.  A call with no open span is a root and opens
a new tune id.  Spans stay in memory; the benchmark writes them out once, when
the run ends.

Self time of a span is its duration minus the time its direct children
cover.  Calls nest strictly within one thread, so the children's
durations add up without overlap.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

#: (module, attribute path, span name).  The attribute path is either a
#: module-level function or ``Class.method``.  Module-level functions are
#: wrapped in the namespace their caller looks them up in.
TARGETS = (
    ("repro.core.tuner", "LambdaTune.tune", "tune"),
    ("repro.core.prompt.template", "PromptGenerator.generate", "core.prompt.generate"),
    ("repro.core.prompt.compression", "select_snippets", "core.prompt.ilp"),
    ("repro.llm.client", "LLMClient.complete_with_retry", "llm.complete"),
    ("repro.core.tuner", "parse_config_script", "core.config.parse"),
    ("repro.core.selector", "ConfigurationSelector.select", "core.selector.select"),
    ("repro.core.evaluator", "ConfigurationEvaluator.evaluate", "core.evaluator.evaluate"),
    ("repro.core.evaluator", "ConfigurationEvaluator.plan_order", "core.evaluator.plan_order"),
    ("repro.core.evaluator", "ConfigurationEvaluator.query_index_map", "core.evaluator.relevance"),
    ("repro.core.evaluator", "cluster_queries", "core.clustering.kmeans"),
    ("repro.core.evaluator", "compute_order_dp", "core.scheduler.dp"),
    ("repro.db.engine", "DatabaseEngine.execute_many", "db.engine.execute_many"),
    ("repro.db.engine", "DatabaseEngine.create_index", "db.engine.create_index"),
    ("repro.db.engine", "DatabaseEngine.apply_config", "db.engine.apply_config"),
    ("repro.session.journal", "TuningJournal.append", "session.journal.append"),
    ("repro.cache.store", "ArtifactCache.fetch", "cache.fetch"),
    ("repro.cache.store", "ArtifactCache.store", "cache.store"),
    ("repro.core.batch", "run_job", "core.batch.run_job"),
    ("repro.service.server", "run_job", "core.batch.run_job"),
)

SPAN_FIELDS = ("tune", "span", "parent", "name", "start_ns", "end_ns", "self_ns")

_ABSENT = object()


class _Open:
    """A span still running: what its end needs to record it."""

    __slots__ = ("span_id", "tune", "start", "child_ns")

    def __init__(self, span_id, tune, start):
        self.span_id = span_id
        self.tune = tune
        self.start = start
        self.child_ns = 0


class Tracer:
    """Records spans around the calls listed in :data:`TARGETS`.

    Use as a context manager: entering installs every wrapper, leaving
    restores every original, also when the body raised.  Recorded spans
    survive leaving, so one tracer can be entered many times.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_span = 0
        self._next_tune = 0
        #: Finished spans, as :data:`SPAN_FIELDS` tuples.
        self.spans: list[tuple] = []
        #: (tune, counter name) -> amount, recorded at the span boundaries.
        self.counters: dict[tuple[int, str], int] = {}

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module_name, path, name in TARGETS:
                owner, attr = _resolve(module_name, path)
                original = vars(owner).get(attr, _ABSENT)
                current = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, current))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, function):
        tracer = self
        counts_execute = name == "db.engine.execute_many"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next_span
                tracer._next_span += 1
                if stack:
                    parent, tune = stack[-1].span_id, stack[-1].tune
                else:
                    parent, tune = -1, tracer._next_tune
                    tracer._next_tune += 1
            span = _Open(span_id, tune, time.perf_counter_ns())
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - span.start
                if stack:
                    stack[-1].child_ns += duration
                record = (
                    span.tune, span_id, parent, name, span.start, end,
                    duration - span.child_ns,
                )
                with tracer._lock:
                    tracer.spans.append(record)
            if counts_execute:
                # execute_many(queries, timeout) returns the completed
                # prefix's times: attempted vs completed queries.
                queries = args[1] if len(args) > 1 else kwargs["queries"]
                tracer.count(span.tune, "db.engine.queries_attempted", len(queries))
                tracer.count(span.tune, "db.engine.queries_completed", len(result.times))
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def count(self, tune: int, name: str, amount: int) -> None:
        with self._lock:
            key = (tune, name)
            self.counters[key] = self.counters.get(key, 0) + amount

    def reset(self) -> None:
        """Drop everything recorded so far (the wrappers stay installed)."""
        with self._lock:
            self.spans = []
            self.counters = {}
            self._next_tune = 0


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a ``TARGETS`` entry."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def wrapped_targets() -> list[str]:
    """Targets that currently hold a tracer wrapper (should be none)."""
    leaked = []
    for module_name, path, _ in TARGETS:
        owner, attr = _resolve(module_name, path)
        if getattr(getattr(owner, attr), "__wrapped_by_perfbench__", False):
            leaked.append(f"{module_name}.{path}")
    return leaked
