"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs the harness on small command lists, both in process and as child
processes, and checks that
- a corrupted reference value is reported as a failure (fail_frac > 0) and
  gives a non-zero exit status;
- a command that fails (bad arguments, invalid config) is counted as a
  failed operation and does not crash the harness.
Exits 0 when every case behaves so.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import sys

import check
import run
import workloads

COUNT = ("count", "--n", "845", "--k", "2", "--s", "5", "--theta", "0.85")
MOMENTS = ("moments", "--lo", "11", "--hi", "20", "--k", "2", "--t", "2")


def _run_with(workload_name: str, ops: list, refs: dict) -> tuple:
    """(exit status, final JSON) of one untraced run over ``ops``."""
    original = workloads.WORKLOADS[workload_name]
    workloads.WORKLOADS[workload_name] = dataclasses.replace(original, ops=lambda seed: ops)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = run.run_one(workload_name, 0, 0, False, refs)
    finally:
        workloads.WORKLOADS[workload_name] = original
    return status, json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    refs = check.load_refs(0)
    good = [workloads.Op("count", COUNT, "quickstart-count"),
            workloads.Op("moments", MOMENTS, "quickstart-moments")]
    corrupted = copy.deepcopy(refs)
    corrupted["quickstart-count"]["json"]["R"] += 1
    failing = good + [
        workloads.Op("bad-flag", ("count", "--no-such-flag"), "quickstart-count"),
        workloads.Op("invalid", ("count", "--n", "1", "--k", "2", "--s", "5"), "quickstart-count"),
    ]
    cases = []
    for name in ("sweep", "quickstart"):
        mode = "in process" if workloads.WORKLOADS[name].in_process else "child process"
        cases += [
            (f"clean reference, {mode}", name, good, refs, 0, 0),
            (f"corrupted reference, {mode}", name, good, corrupted, 1, 1),
            (f"failing commands, {mode}", name, failing, refs, 1, 2),
        ]
    ok = True
    for label, name, ops, case_refs, want_exit, want_failed in cases:
        status, result = _run_with(name, ops, case_refs)
        passed = ((status != 0) == bool(want_exit) and result["failed"] == want_failed
                  and result["attempted"] == len(ops) and result["correct"] == (want_failed == 0))
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {label}: exit {status}, "
              f"fail_frac {result['failed']}/{result['attempted']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
