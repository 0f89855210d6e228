"""Benchmark entry point.

    python3 perfbench/run.py --workload tpch|sf100|service --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Host facts, raw samples and the span dump of a traced
run go to ``.perfbench_out/`` in the checkout; temporary service roots
and caches live in ``.perfbench_tmp/`` and are deleted before exit.
See ``perfbench/METRICS.md`` for what every metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402  (must pin state before repro/numpy load)

PROBE_TIMEOUT_S = 60
#: Exact per-seed values; a later run that disagrees is a bug, not noise.
DETERMINISTIC = ("best_time_s", "tuning_cost_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tpch", "sf100", "service"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="measure one set-up in this interpreter and exit")
    return parser.parse_args(argv)


def code_digest() -> str:
    """Digest of the program's and the benchmark's sources.

    Part of the drift key, so only runs of the same code are compared: a
    change that legitimately moves a count starts a new baseline.
    """
    digest = hashlib.sha256()
    for root in (env.SRC, Path(__file__).resolve().parent):
        for path in sorted(root.rglob("*")):
            if path.is_file() and path.suffix in (".py", ".json"):
                digest.update(os.fsencode(path.relative_to(env.ROOT)))
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def flag_drift(out_dir: Path, key: str, exact: dict) -> list[str]:
    """Compare exact values with the first run of the same key."""
    path = out_dir / "first_runs.json"
    first = json.loads(path.read_text()) if path.exists() else {}
    if key not in first:
        first[key] = exact
        path.write_text(json.dumps(first, indent=1, sort_keys=True))
        return []
    return [
        f"{name}: {value!r} != first run's {first[key].get(name)!r}"
        for name, value in exact.items()
        if first[key].get(name) != value
    ]


def setup_probe(workload: str, seed: int) -> dict:
    """One set-up in this (fresh) interpreter, as the probe's result line."""
    import workloads
    from oracle import Checker

    workloads.preload()
    checker = Checker()
    with scratch_dir() as tmp:
        if workload == "service":
            seconds = workloads.setup_service(workloads.SERVICE, seed, checker, tmp)
        else:
            seconds, _ = workloads.setup_library(library(workload), workloads.fold(seed), checker)
    return {"setup_s": seconds, "attempted": checker.attempted,
            "failed": checker.failed, "failures": checker.failures}


def probe_setups(workload: str, seed: int, count: int, checker) -> list[float]:
    """Set-up samples from ``count`` fresh interpreters, one after another.

    Library probes take the usable cores in turn (see
    ``env.rotating_cores``); service probes use every core, as the
    server's pool does.
    """
    cores = env.usable_cores()
    samples = []
    for k in range(count):
        pin = None
        if workload != "service":
            pin = functools.partial(os.sched_setaffinity, 0, {cores[k % len(cores)]})
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            preexec_fn=pin,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        line = json.loads(proc.stdout.splitlines()[-1])
        checker.attempted += line["attempted"]
        checker.failed += line["failed"]
        checker.failures.extend(line["failures"])
        samples.append(line["setup_s"])
    return samples


@contextlib.contextmanager
def scratch_dir():
    """A per-process temporary directory inside the checkout."""
    tmp = env.ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def library(workload: str):
    import workloads

    return workloads.TPCH if workload == "tpch" else workloads.SF100


def run(workload: str, seed: int, seconds: float, trace: bool,
        definition=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, report).

    ``definition`` overrides the workload's sizes (the smoke test runs
    a few tunes; its runs are not recorded as first runs).
    """
    import workloads
    from oracle import Checker
    from tracer import SPAN_FIELDS

    smoke = definition is not None
    out_dir = env.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    run_id = f"{workload}-seed{seed}-trace{int(trace)}"
    report = {"run_id": run_id,
              "args": {"workload": workload, "seed": seed,
                       "seconds": seconds, "trace": int(trace)}}
    checker = Checker()
    report["host"] = env.host_facts()
    workloads.preload()
    if workload == "service":
        definition = definition or workloads.SERVICE
    else:
        definition = definition or library(workload)
    with scratch_dir() as tmp:
        if workload == "service":
            raw = workloads.run_service(
                definition, seed, seconds, trace, checker, tmp
            )
        else:
            raw = workloads.run_library(
                definition, seed, seconds, trace, checker
            )
    if not trace:
        # The other set-up samples come from fresh interpreters, after the
        # timed phase so they cannot disturb it or the memory figures.
        setups = [raw["_setup_s"], *probe_setups(
            workload, seed, definition.setups - 1, checker
        )]
        report["setup_samples_s"] = setups
        raw["setup_s"] = statistics.median(setups)
    else:
        report["trace_file"] = os.fspath(out_dir / f"{run_id}.trace.json")
        Path(report["trace_file"]).write_text(json.dumps({
            "span_fields": SPAN_FIELDS,
            "spans": raw["_spans"],
            "counters": raw["_counters"],
        }))
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in declared
    }
    exact_names = workloads.EXACT if trace else DETERMINISTIC
    # Service counts depend on which concurrent job filled the cache first.
    informational = trace and workload == "service"
    drift = [] if smoke else flag_drift(
        out_dir, f"{workload}/seed{seed}/trace{int(trace)}/code-{code_digest()}",
        {name: raw[name] for name in exact_names},
    )
    correct = checker.failed == 0 and (informational or not drift)
    report.update(
        metrics=metrics, samples=raw.get("_samples"),
        tail_percentile=raw.get("_tail_percentile"),
        host_state=raw.get("_host_state"),
        failures=checker.failures, drift=drift, drift_is_failure=not informational,
    )
    (out_dir / f"{run_id}.json").write_text(json.dumps(report, indent=1))
    line = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    return line, report


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.pin_process_state()
    except env.MissingProgram as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    env.adopt_orphans()
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload, args.seed)))
            return 0
        line, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        env.stop_children()
    for failure in report["failures"]:
        print(f"perfbench: {failure}", file=sys.stderr)
    for drift in report["drift"]:
        print(f"perfbench: drift: {drift}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
