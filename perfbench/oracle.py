"""Committed correctness oracle: ``TuningResult.fingerprint()`` digests.

``oracle.json`` maps ``case -> LLM seed -> digest`` for every tune the
benchmark can run.  A case names a workload spec and a system; the
digest is the SHA-256 of the fingerprint rendered as canonical JSON
(floats are already ``repr`` strings inside the fingerprint, so two
digests agree iff the results are bit-identical).

Regenerate it (only when a change is meant to alter results, and say so)
with::

    python3 perfbench/oracle.py --write

which tunes every case through the library, exactly as the benchmark's
workloads do, and rewrites ``perfbench/oracle.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ORACLE_PATH = Path(__file__).with_name("oracle.json")
DIGEST_CHARS = 20


def digest(result) -> str:
    """Canonical digest of one :class:`TuningResult`."""
    text = json.dumps(result.fingerprint(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_CHARS]


def case_key(spec: str, system: str) -> str:
    return f"{spec}/{system}"


class Checker:
    """Counts attempted and failed operations against the oracle.

    An operation fails when it raised, fell back to the default
    configuration, or produced a digest other than the committed one
    (a seed missing from the oracle is a failure too).
    """

    def __init__(self, path: Path = ORACLE_PATH) -> None:
        with open(path, encoding="utf-8") as handle:
            self._digests = json.load(handle)["digests"]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, spec: str, system: str, seed: int, result) -> bool:
        """Record one operation; ``result`` is a TuningResult or an error."""
        self.attempted += 1
        label = f"{case_key(spec, system)} seed={seed}"
        if isinstance(result, BaseException):
            problem = f"raised {type(result).__name__}: {result}"
        elif result.extras.get("fallback"):
            problem = "fell back to the default configuration"
        else:
            want = self._digests.get(case_key(spec, system), {}).get(str(seed))
            got = digest(result)
            if want is None:
                problem = f"no committed digest (got {got})"
            elif got != want:
                problem = f"digest {got} != committed {want}"
            else:
                return True
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {problem}")
        return False


def _write() -> None:
    """Tune every case the benchmark can run and rewrite the oracle."""
    import workloads as wl
    from repro.core.batch import BatchJob, run_job
    from repro.core.tuner import LambdaTuneOptions
    from repro.workloads.registry import load_workload

    digests: dict[str, dict[str, str]] = {}
    for spec, system, seeds in wl.oracle_cases():
        workload = load_workload(spec)
        table = digests.setdefault(case_key(spec, system), {})
        for seed in seeds:
            result = wl.tune_once(workload, system, seed)
            if result.extras.get("fallback"):
                raise SystemExit(f"{spec}/{system} seed {seed} fell back")
            table[str(seed)] = digest(result)
        # A served job must fingerprint like the library tune it wraps.
        probe = run_job(
            BatchJob(workload=workload, system=system,
                     options=LambdaTuneOptions(seed=seeds[0]))
        )
        if digest(probe) != table[str(seeds[0])]:
            raise SystemExit(f"{spec}/{system}: run_job disagrees with tune()")
        print(f"{spec}/{system}: {len(seeds)} seeds", file=sys.stderr, flush=True)
    payload = {
        "about": "sha256(canonical JSON of TuningResult.fingerprint())"
                 f"[:{DIGEST_CHARS}], keyed by 'spec/system' and LLM seed",
        "digests": digests,
    }
    ORACLE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python3 perfbench/oracle.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import env

    env.pin_process_state()
    _write()
