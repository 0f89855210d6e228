"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for a few tunes, untraced and traced, and checks:

- every metric named in ``BENCHMARK.json`` is reported, with its unit;
- no tracer wrapper survives a run, nor a traced block that raised;
- no process a run started outlives ``env.stop_children``;
- the oracle rejects a result whose committed digest is wrong.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")
    print(f"smoke: ok: {message}", flush=True)


def small(workload: str):
    import workloads

    if workload == "service":
        return dataclasses.replace(workloads.SERVICE, fixed=6, setups=2, tail_of=6)
    wl = workloads.TPCH if workload == "tpch" else workloads.SF100
    return dataclasses.replace(wl, fixed=3, setups=2, tail_of=3)


def main() -> int:
    env.pin_process_state()
    env.adopt_orphans()
    import run
    import workloads
    from oracle import ORACLE_PATH, Checker, case_key
    from tracer import Tracer, wrapped_targets

    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in spec["workloads"]:
        workload = name["name"]
        for trace in (0, 1):
            line, _ = run.run(workload, 0, 0.5, bool(trace), definition=small(workload))
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(got == declared[trace],
                  f"{workload} trace={trace}: metrics and units match BENCHMARK.json")
            check(line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
                  f"{workload} trace={trace}: {line['attempted']} operations, all correct")
            check(not wrapped_targets(), f"{workload} trace={trace}: no wrapper left")
            env.stop_children()
            check(not env.children(), f"{workload} trace={trace}: no process left")

    try:
        with Tracer():
            check(len(wrapped_targets()) > 0, "tracer installs its wrappers")
            raise KeyError("boom")
    except KeyError:
        pass
    check(not wrapped_targets(), "tracer restores every target after an exception")

    from repro.workloads.registry import load_workload

    wl = workloads.TPCH
    result = workloads.tune_once(load_workload(wl.spec), wl.system, 0)
    oracle = json.loads(ORACLE_PATH.read_text())
    table = oracle["digests"][case_key(wl.spec, wl.system)]
    check(Checker().check(wl.spec, wl.system, 0, result), "committed digest matches")
    table["0"] = "0" * len(table["0"])
    with tempfile.TemporaryDirectory(dir=env.ROOT) as tmp:
        wrong = Path(tmp) / "oracle.json"
        wrong.write_text(json.dumps(oracle))
        checker = Checker(wrong)
        checker.check(wl.spec, wl.system, 0, result)
    check(checker.failed == 1 and checker.attempted == 1,
          "a wrong committed digest counts as a failed operation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
