"""The benchmark's workloads, driven through the program's public API.

``tpch`` and ``sf100`` call :meth:`LambdaTune.tune` back to back in one
process, each call on a fresh engine over the workload's shared catalog,
with serial selection and no artifact cache.  ``service`` runs a
:class:`TuningServer` with two process workers and a cold on-disk cache,
fed by two closed-loop client threads.

Seeds.  The benchmark seed is folded into one of ``SEED_CLASSES``
classes, ``base = seed % SEED_CLASSES``; tune ``i`` of a run uses LLM
seed ``base + i % cycle``.  The committed oracle holds a digest for
every (case, LLM seed) this can produce, so every tune of every run is
checked, whatever seed the benchmark is given.  A service run stops at
``cycle`` jobs, so no two of its jobs share a seed (a repeated job would
be served from the warm cache and make the workload cheaper on a faster
host).

Host speed.  While a timed phase runs, the benchmark times a short fixed
loop about twice a second (``env.speed_probe``).  If the loop's median
speed in the last third of the phase differs from the first third by
more than ``SWITCH_RATIO``, the host changed speed state mid-run; the
phase is discarded and measured once more, so a reported figure comes
from one host state wherever the host allows it.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import env

SEED_CLASSES = 16


@dataclass(frozen=True)
class LibraryWorkload:
    #: ``repro.workloads.registry.load_workload`` spec.
    spec: str
    system: str
    #: LLM seeds of a run: ``base .. base + cycle - 1``, reused cyclically.
    cycle: int
    #: Deterministic metrics cover the first ``fixed`` tunes, and every
    #: timed phase runs at least that many.
    fixed: int
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int
    #: ``tune_s.tail`` is the percentile with ten samples beyond it in a
    #: run of ``tail_of`` tunes, the same percentile in every run whatever
    #: the host's speed; every timed phase runs at least that many.
    tail_of: int


TPCH = LibraryWorkload(
    "tpch-sf1", "postgres", cycle=256, fixed=64, setups=9, tail_of=100,
)
SF100 = LibraryWorkload(
    "synthetic:queries=2000,scale=100", "postgres",
    cycle=32, fixed=16, setups=5, tail_of=21,
)


@dataclass(frozen=True)
class ServiceWorkload:
    """Job ``j`` runs ``MIX[j % 3]`` for tenant ``(j // 3) % 3`` with LLM
    seed ``base + j``; a run serves at most ``cycle`` jobs.  ``fixed``,
    ``setups`` and ``tail_of`` as above."""

    cycle: int
    fixed: int
    setups: int
    tail_of: int


SERVICE = ServiceWorkload(cycle=1024, fixed=60, setups=7, tail_of=100)
SERVICE_MIX = (
    ("tpch-sf1", "postgres"),
    ("job", "mysql"),
    ("tpcds-sf1", "columnar"),
)
SERVICE_TENANTS = 3
SERVICE_WORKERS = 2
SERVICE_CLIENTS = 2
#: The request each service set-up waits for: a tiny job that makes the
#: pool fork its workers and serve once.
PING = ("synthetic:queries=8,scale=1", "postgres")
JOB_TIMEOUT_S = 30.0
#: Speed-probe medians of the first and last third of a timed phase that
#: differ by more than this mean the host switched state mid-run.  On a
#: steady host they agree within about 25%; the host's states differ by
#: up to 2x.
SWITCH_RATIO = 1.35
PROBE_EVERY_S = 0.5


def fold(seed: int) -> int:
    return seed % SEED_CLASSES


def tune_once(workload, system: str, seed: int):
    """One library tune exactly as the benchmark and its oracle run it."""
    from repro.core.tuner import LambdaTune, LambdaTuneOptions
    from repro.db.registry import create_engine
    from repro.llm.mock import SimulatedLLM

    engine = create_engine(system, workload.catalog)
    tuner = LambdaTune(engine, SimulatedLLM(), LambdaTuneOptions(seed=seed))
    return tuner.tune(list(workload.queries), workload_name=workload.name)


def oracle_cases():
    """(spec, system, LLM seeds) for every tune any run can make."""
    cases = []
    for wl in (TPCH, SF100):
        seeds = range(SEED_CLASSES + wl.cycle - 1)
        cases.append((wl.spec, wl.system, list(seeds)))
    for pair, (spec, system) in enumerate(SERVICE_MIX):
        seeds = {
            base + j
            for base in range(SEED_CLASSES)
            for j in range(pair, SERVICE.cycle, len(SERVICE_MIX))
        }
        cases.append((spec, system, sorted(seeds)))
    cases.append((*PING, list(range(SEED_CLASSES))))
    return cases


# -- statistics ----------------------------------------------------------------


def tail(values: list[float], tail_of: int) -> tuple[float, float]:
    """(value, percentile) of the nearest-rank percentile ``1 - 10/tail_of``.

    A run of exactly ``tail_of`` tunes has ten samples beyond it, a longer
    run more; the percentile is the same in every run.  Never below the
    median.
    """
    q = max(0.5, 1.0 - 10.0 / tail_of)
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1], 100.0 * q


def timing_metrics(walls: list[float], elapsed: float, tail_of: int) -> dict:
    value, pct = tail(walls, tail_of)
    return {
        "tunes_per_s": len(walls) / elapsed,
        "tune_s.p50": statistics.median(walls),
        "tune_s.tail": value,
        "_tail_percentile": pct,
        "_samples": len(walls),
    }


def quality_metrics(groups: list[list]) -> dict:
    """Deterministic metrics: the geometric mean over ``groups`` of each
    group's median.

    A group holds the first ``fixed`` results of one (workload, system)
    pair, so a change on any pair moves the figure, however different
    the pairs' scales.  Failed tunes are left out (the run is already
    marked incorrect).
    """
    medians = {"best_time_s": [], "tuning_cost_s": []}
    for results in groups:
        done = [r for r in results if not isinstance(r, BaseException)]
        if done:
            medians["best_time_s"].append(statistics.median(r.best_time for r in done))
            medians["tuning_cost_s"].append(
                statistics.median(r.tuning_seconds for r in done)
            )
    return {
        name: statistics.geometric_mean(values) if values else 0.0
        for name, values in medians.items()
    }


def state_switch(probes: list[float]) -> dict:
    """Compare the speed probes of a timed phase's first and last third."""
    third = len(probes) // 3
    if third < 3:
        return {"probes": len(probes), "ratio": 1.0, "switched": False}
    first = statistics.median(probes[:third])
    last = statistics.median(probes[-third:])
    ratio = max(first, last) / min(first, last)
    return {"probes": len(probes), "first_s": first, "last_s": last,
            "ratio": ratio, "switched": ratio > SWITCH_RATIO}


def peak_rss_mb() -> float:
    """Peak RSS so far of this process plus its largest live child, in MB.

    Read once the first ``fixed`` tunes are done, so it measures a fixed
    amount of work: the service keeps every job's result, and a whole
    run's peak would grow with however many jobs the host's speed
    allowed.
    """
    children = [0]
    for pid in env.children():
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                children += [int(line.split()[1]) for line in handle
                             if line.startswith("VmHWM:")]
        except OSError:
            continue  # exited while we looked
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + max(children)) / 1024.0


# -- per-layer metrics ----------------------------------------------------------

#: per-layer metric -> span name; value is self seconds per tune.
SELF_SECONDS = {
    "core.scheduler.dp_s": "core.scheduler.dp",
    "core.prompt.ilp_s": "core.prompt.ilp",
    "core.prompt.generate_s": "core.prompt.generate",
    "core.clustering.kmeans_s": "core.clustering.kmeans",
    "core.evaluator.relevance_s": "core.evaluator.relevance",
    "core.evaluator.evaluate_self_s": "core.evaluator.evaluate",
    "core.evaluator.plan_order_self_s": "core.evaluator.plan_order",
    "core.selector.select_s": "core.selector.select",
    "db.engine.execute_many_s": "db.engine.execute_many",
    "db.engine.create_index_s": "db.engine.create_index",
    "llm.complete_s": "llm.complete",
    "core.config.parse_s": "core.config.parse",
    "session.journal.append_s": "session.journal.append",
    "cache.fetch_s": "cache.fetch",
    "cache.store_s": "cache.store",
    "core.batch.run_job_s": "core.batch.run_job",
    "trace.untraced_s": "tune",
}
#: per-layer metric -> span name; value is calls per tune.
CALLS = {
    "core.scheduler.dp_calls": "core.scheduler.dp",
    "core.evaluator.relevance_calls": "core.evaluator.relevance",
    "db.engine.index_builds": "db.engine.create_index",
    "db.engine.apply_config_calls": "db.engine.apply_config",
    "session.journal.appends": "session.journal.append",
}
#: Counts that repeat exactly for a given seed (checked run to run).
EXACT = (*CALLS, "db.engine.queries_attempted", "cache.stores")


def layer_metrics(traces: list[dict], window: int) -> dict:
    """Per-layer metrics from per-tune trace records.

    ``traces`` holds one record per tune, in seed order: ``spans``
    (tracer tuples), ``counters`` (name -> amount) and ``cache`` (the
    CacheStats delta, or ``None``).  Times are averaged over every tune;
    counts over the first ``window`` tunes, so they repeat exactly.
    """
    n = len(traces)
    self_ns: dict[str, int] = {}
    for record in traces:
        for span in record["spans"]:
            self_ns[span[3]] = self_ns.get(span[3], 0) + span[6]
    metrics = {
        metric: self_ns.get(name, 0) / 1e9 / n
        for metric, name in SELF_SECONDS.items()
    }
    counted = traces[:window]
    for metric, name in CALLS.items():
        calls = sum(1 for r in counted for span in r["spans"] if span[3] == name)
        metrics[metric] = calls / len(counted)

    def total(records, key):
        return sum(r["counters"].get(key, 0) for r in records)

    metrics["db.engine.queries_attempted"] = (
        total(counted, "db.engine.queries_attempted") / len(counted)
    )
    attempted = total(traces, "db.engine.queries_attempted")
    metrics["db.engine.completion_ratio"] = (
        total(traces, "db.engine.queries_completed") / attempted if attempted else 0.0
    )
    caches = [r["cache"] for r in traces if r["cache"] is not None]
    hits = sum(c["memory_hits"] + c["disk_hits"] for c in caches)
    lookups = hits + sum(c["misses"] for c in caches)
    metrics["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["cache.stores"] = (
        sum(r["cache"]["stores"] for r in counted if r["cache"] is not None)
        / len(counted)
    )
    return metrics


def split_by_tune(spans: list, counters: dict) -> list[dict]:
    """Group one tracer's spans and counters into per-tune records."""
    tunes = 1 + max(span[0] for span in spans)
    records = [{"spans": [], "counters": {}, "cache": None} for _ in range(tunes)]
    for span in spans:
        records[span[0]]["spans"].append(span)
    for (tune, name), amount in counters.items():
        records[tune]["counters"][name] = amount
    return records


# -- library workloads (tpch, sf100) ------------------------------------------


def _tune_loop(workload, wl: LibraryWorkload, base: int, seconds: float, checker):
    """Back-to-back tunes for ``seconds`` (and at least ``max(fixed, tail_of)``).

    Returns (per-tune wall seconds, the first ``fixed`` results, peak RSS
    after them, speed probes).  Each result is checked against the oracle
    as soon as it is timed, so a run holds only the results its
    deterministic metrics need.  Probes run between tunes, outside the
    timed walls.
    """
    gc.collect()
    minimum = max(wl.fixed, wl.tail_of)
    walls, kept, probes = [], [], []
    rss = 0.0
    deadline = time.perf_counter() + seconds
    next_probe = 0.0
    with env.rotating_cores() as next_core:
        while len(walls) < minimum or time.perf_counter() < deadline:
            seed = base + len(walls) % wl.cycle
            next_core()
            if time.perf_counter() >= next_probe:
                probes.append(env.speed_probe())
                next_probe = time.perf_counter() + PROBE_EVERY_S
            t0 = time.perf_counter()
            try:
                result = tune_once(workload, wl.system, seed)
            except Exception as error:  # counted as a failed operation
                result = error
            walls.append(time.perf_counter() - t0)
            checker.check(wl.spec, wl.system, seed, result)
            if len(kept) < wl.fixed:
                kept.append(result)
                if len(kept) == wl.fixed:
                    rss = peak_rss_mb()
    return walls, kept, rss, probes


def _paired_loop(workload, wl: LibraryWorkload, base: int, seconds: float,
                 checker, tracer):
    """Each seed twice, untraced and traced, alternating which runs first.

    Pairing (on one core per pair) cancels both host drift and the warmer
    process the second run of a seed meets.  Returns (untraced walls,
    traced walls).
    """
    gc.collect()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    with env.rotating_cores() as next_core:
        while len(traced) < wl.fixed or time.perf_counter() < deadline:
            seed = base + len(traced) % wl.cycle
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            next_core()
            for with_trace in order:
                with tracer if with_trace else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    try:
                        result = tune_once(workload, wl.system, seed)
                    except Exception as error:  # counted as a failed operation
                        result = error
                    wall = time.perf_counter() - t0
                (traced if with_trace else plain).append(wall)
                checker.check(wl.spec, wl.system, seed, result)
    return plain, traced


def preload() -> None:
    """Import every module a set-up uses, so set-up time excludes imports.

    Besides the public modules, this imports what the program imports
    lazily: the vectorized planner and catalog statistics on the first
    tune, the shared-memory and pool modules when a server starts its
    process pool.
    """
    import multiprocessing.popen_fork  # noqa: F401
    import multiprocessing.resource_tracker  # noqa: F401
    import multiprocessing.shared_memory  # noqa: F401
    import multiprocessing.synchronize  # noqa: F401

    import repro.core.tuner  # noqa: F401
    import repro.db.catalog_stats  # noqa: F401
    import repro.db.planner_vec  # noqa: F401
    import repro.db.registry  # noqa: F401
    import repro.db.shared_stats  # noqa: F401
    import repro.llm.mock  # noqa: F401
    import repro.service  # noqa: F401
    import repro.workloads.registry  # noqa: F401


def setup_library(wl: LibraryWorkload, base: int, checker):
    """Build the workload and run the cold warm-up tune: (seconds, workload)."""
    from repro.workloads.registry import load_workload

    gc.collect()
    t0 = time.perf_counter()
    workload = load_workload(wl.spec)
    warm = tune_once(workload, wl.system, base)
    seconds = time.perf_counter() - t0
    checker.check(wl.spec, wl.system, base, warm)
    return seconds, workload


def run_library(wl: LibraryWorkload, seed: int, seconds: float, trace: bool,
                checker) -> dict:
    """One run; ``_setup_s`` is this interpreter's own set-up sample."""
    from tracer import Tracer

    base = fold(seed)
    own, workload = setup_library(wl, base, checker)

    if not trace:
        switches, rss = [], []
        for _ in range(2):
            walls, kept, peak, probes = _tune_loop(workload, wl, base, seconds, checker)
            rss.append(peak)
            switches.append(state_switch(probes))
            if not switches[-1]["switched"]:
                break
        metrics = timing_metrics(walls, sum(walls), wl.tail_of)
        metrics["_setup_s"] = own
        metrics["_host_state"] = switches
        metrics.update(quality_metrics([kept]))
        # The first attempt's reading: peak RSS is a high-water mark, so a
        # second attempt's would include the whole first one.
        metrics["peak_rss_mb"] = rss[0]
        return metrics

    tracer = Tracer()
    plain, traced = _paired_loop(workload, wl, base, seconds, checker, tracer)
    traces = split_by_tune(tracer.spans, tracer.counters)
    metrics = layer_metrics(traces, wl.fixed)
    metrics["service.dispatch_s"] = 0.0
    metrics["trace.overhead"] = (
        (len(plain) / sum(plain)) / (len(traced) / sum(traced)) - 1.0
    )
    metrics["_spans"] = tracer.spans
    metrics["_counters"] = [[t, n, a] for (t, n), a in tracer.counters.items()]
    return metrics


# -- service workload --------------------------------------------------------------


class _ServiceRun:
    """One server's life: set-up, closed-loop clients, teardown."""

    def __init__(self, svc: ServiceWorkload, tmp: Path, label: str,
                 resolver: dict, base: int) -> None:
        self.svc = svc
        self.root = tmp / f"{label}-root"
        self.cache = tmp / f"{label}-cache"
        #: spec -> Workload; the server resolves them by workload name.
        self.resolver = resolver
        self.base = base
        self.server = None
        #: Peak RSS (process + largest pool child) after the first
        #: ``fixed`` jobs.
        self.rss_mb = 0.0

    def start(self, checker) -> float:
        """Start the server and serve one ping job; returns seconds taken."""
        from repro.service import TuningServer

        t0 = time.perf_counter()
        self.server = TuningServer(
            self.root, workers=SERVICE_WORKERS, executor="process",
            cache_dir=self.cache,
            workload_resolver={wl.name: wl for wl in self.resolver.values()},
        ).start()
        spec, system = PING
        result = self._serve("ping", spec, system, "tenant-0", self.base)
        elapsed = time.perf_counter() - t0
        checker.check(spec, system, self.base, result)
        return elapsed

    def _serve(self, job_id, spec, system, tenant, seed):
        from repro.core.tuner import LambdaTuneOptions
        from repro.service import JobSpec

        workload = self.resolver[spec]
        try:
            self.server.submit(JobSpec(
                job_id=job_id, workload="@" + workload.name, tenant=tenant,
                system=system, options=LambdaTuneOptions(seed=seed),
            ))
            return self.server.result(job_id, timeout=JOB_TIMEOUT_S)
        except Exception as error:  # counted as a failed operation
            return error

    def clients(self, seconds: float) -> tuple[list, float, list]:
        """Closed loop: each client submits, waits, submits the next.

        Returns (rows, elapsed seconds, speed probes).  The loop stops at
        the deadline (once ``max(fixed, tail_of)`` jobs are done) or at
        ``cycle`` jobs, whichever comes first.
        """
        lock = threading.Lock()
        rows: list[tuple] = []
        probes: list[float] = []
        next_job = [0]
        fixed_done = [0]
        minimum = max(self.svc.fixed, self.svc.tail_of)
        start = time.perf_counter()
        deadline = start + seconds
        running = threading.Event()
        running.set()

        def client() -> None:
            while True:
                with lock:
                    j = next_job[0]
                    if j >= self.svc.cycle or (
                        j >= minimum and time.perf_counter() >= deadline
                    ):
                        return
                    next_job[0] += 1
                spec, system = SERVICE_MIX[j % len(SERVICE_MIX)]
                tenant = f"tenant-{(j // len(SERVICE_MIX)) % SERVICE_TENANTS}"
                seed = self.base + j
                t0 = time.perf_counter()
                result = self._serve(f"job-{j:05d}", spec, system, tenant, seed)
                t1 = time.perf_counter()
                with lock:
                    rows.append((j, spec, system, seed, t0, t1, result))
                    if j < self.svc.fixed:
                        fixed_done[0] += 1
                        if fixed_done[0] == self.svc.fixed:
                            self.rss_mb = peak_rss_mb()

        def probe() -> None:
            while running.is_set():
                probes.append(env.speed_probe())
                time.sleep(PROBE_EVERY_S)

        prober = threading.Thread(target=probe)
        prober.start()
        try:
            threads = [threading.Thread(target=client) for _ in range(SERVICE_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            running.clear()
            prober.join()
        rows.sort()
        return rows, max(row[5] for row in rows) - start, probes

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.root, ignore_errors=True)
        shutil.rmtree(self.cache, ignore_errors=True)


def _install_handoff(tracer, spans_dir: Path):
    """Make each pool child write its job's spans for the parent to read.

    Wraps the server's ``run_job`` outside the tracer's own wrapper.  The
    children are forked after this runs, so they inherit both.  Returns
    the function that removes the wrapper.
    """
    import repro.service.server as server_module
    from repro.cache import active_cache

    traced = server_module.run_job

    def handoff(job, *, journal_factory=None):
        tracer.reset()
        cache = active_cache()
        before = cache.stats.snapshot() if cache is not None else None
        result = traced(job, journal_factory=journal_factory)
        delta = None
        if cache is not None:
            after = cache.stats.snapshot()
            delta = {k: after[k] - before[k] for k in after}
        record = {
            "spans": tracer.spans,
            "counters": {name: n for (_, name), n in tracer.counters.items()},
            "cache": delta,
        }
        path = spans_dir / (Path(job.journal_path).stem + ".json")
        path.write_text(json.dumps(record))
        return result

    server_module.run_job = handoff
    return lambda: setattr(server_module, "run_job", traced)


def service_resolver() -> dict:
    from repro.workloads.registry import load_workload

    return {spec: load_workload(spec) for spec, _ in (*SERVICE_MIX, PING)}


def setup_service(svc: ServiceWorkload, seed: int, checker, tmp: Path) -> float:
    """Start a server, serve the ping, stop: the set-up seconds."""
    run = _ServiceRun(svc, tmp, "probe", service_resolver(), fold(seed))
    try:
        return run.start(checker)
    finally:
        run.stop()


def run_service(svc: ServiceWorkload, seed: int, seconds: float, trace: bool,
                checker, tmp: Path) -> dict:
    """One run; ``_setup_s`` is this interpreter's own set-up sample."""
    from tracer import Tracer

    base = fold(seed)
    resolver = service_resolver()
    if not trace:
        setups, switches, rss = [], [], []
        for attempt in range(2):
            live = _ServiceRun(svc, tmp, f"live{attempt}", resolver, base)
            try:
                setups.append(live.start(checker))
                rows, elapsed, probes = live.clients(seconds)
            finally:
                live.stop()
            rss.append(live.rss_mb)
            metrics = _service_checks(rows, checker, elapsed, svc)
            switches.append(state_switch(probes))
            if not switches[-1]["switched"]:
                break
        metrics["_setup_s"] = setups[0]
        metrics["_host_state"] = switches
        metrics["peak_rss_mb"] = rss[0]  # first attempt, as in run_library
        return metrics

    half = seconds / 2.0
    plain = _ServiceRun(svc, tmp, "plain", resolver, base)
    try:
        plain.start(checker)
        plain_rows, plain_elapsed, _ = plain.clients(half)
    finally:
        plain.stop()
    _service_checks(plain_rows, checker, plain_elapsed, svc)

    spans_dir = tmp / "spans"
    spans_dir.mkdir()
    traced = _ServiceRun(svc, tmp, "traced", resolver, base)
    with Tracer() as tracer:
        remove_handoff = _install_handoff(tracer, spans_dir)
        try:
            traced.start(checker)
            rows, elapsed, _ = traced.clients(half)
        finally:
            traced.stop()
            remove_handoff()
    _service_checks(rows, checker, elapsed, svc)

    traces, dispatch, spans, counters = [], [], [], []
    for j, spec, system, s, t0, t1, result in rows:
        path = spans_dir / f"job-{j:05d}.json"
        if not path.exists():
            continue  # the job failed; already counted by the checker
        record = json.loads(path.read_text())
        traces.append(record)
        root = next(span for span in record["spans"] if span[2] == -1)
        dispatch.append((t1 - t0) - (root[5] - root[4]) / 1e9)
        spans.extend([j, *span[1:]] for span in record["spans"])
        counters.extend([j, n, a] for n, a in record["counters"].items())
    metrics = layer_metrics(traces, svc.fixed)
    metrics["service.dispatch_s"] = statistics.mean(dispatch)
    metrics["trace.overhead"] = (
        (len(plain_rows) / plain_elapsed) / (len(rows) / elapsed) - 1.0
    )
    metrics["_spans"] = spans
    metrics["_counters"] = counters
    return metrics


def _service_checks(rows, checker, elapsed, svc: ServiceWorkload) -> dict:
    for j, spec, system, seed, t0, t1, result in rows:
        checker.check(spec, system, seed, result)
    walls = [t1 - t0 for *_, t0, t1, _ in rows]
    metrics = timing_metrics(walls, elapsed, svc.tail_of)
    metrics.update(quality_metrics([
        [row[6] for row in rows[:svc.fixed] if (row[1], row[2]) == pair]
        for pair in SERVICE_MIX
    ]))
    return metrics
