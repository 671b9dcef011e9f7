"""Child-process entry points of the benchmark.

    python3 perfbench/child.py setup <workload>
        Time one set-up in a fresh interpreter: import `kglab.cli` and run
        the workload's warm-up; print {"setup_s": seconds}.

    python3 perfbench/child.py trace <kglab arguments...>
        Run one kglab command with the per-layer wrappers installed and
        print {"status", "stdout", "spans"}; the exit status is kglab's.
"""

import sys
import time

STARTED = time.perf_counter()  # ends the interpreter start-up span

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

from workloads import SPAWNED_ENV, WORKLOADS, import_kglab, set_up  # noqa: E402


def _setup(name: str) -> int:
    start = time.perf_counter()
    set_up(WORKLOADS[name])
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def _trace(argv: list) -> int:
    start = time.perf_counter()
    cli = import_kglab()
    imported = time.perf_counter()
    from tracer import Tracer

    tracer = Tracer()
    tracer.record("python.startup", float(os.environ[SPAWNED_ENV]), STARTED)
    tracer.record("cli.import", start, imported)
    tracer.install()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        status = tracer.wrap("cli.main", cli.main)(argv)
    tracer.uninstall()
    print(json.dumps({"status": status, "stdout": captured.getvalue(),
                      "spans": tracer.finish()}))
    return status


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit(_setup(*rest) if mode == "setup" else _trace(rest))
