"""The three benchmark workloads and the two ways of running a kglab command.

Every workload drives kglab through its command-line entry points, never
through per-target library calls, so internal reroutes of `compare`,
`vaughan-check` or `moments` show up without editing the benchmark:

- `sweep` and `spectral` call `kglab.cli.run` in this process, warm;
- `quickstart` starts one fresh `python -m kglab.cli` child per command,
  one after another, and reads each child's resources with `wait4`.

The benchmark seed picks one of `VARIANTS` input variants.  A variant sets
the `--seed` of the randomized commands and shifts the sweep range by whole
admissible steps, so every variant does the same amount of work and has
its own stored reference outputs.  Seed 0 gives the README commands
verbatim.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

# Pinned for the benchmark process and every child it starts.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Carries the parent's perf_counter at spawn, so a traced child can time its
# own interpreter start-up (CLOCK_MONOTONIC is shared by all processes).
SPAWNED_ENV = "PERFBENCH_SPAWNED"

VARIANTS = 4
CHILD_TIMEOUT_S = 120.0

# Admissible n for k=2, s=5 are n = 5 mod 24; 100013 is the first one in
# the sweep range, and every shift below is a multiple of 24.
SWEEP_SHIFT = 120
SWEEP_OPTS = "--k 2 --s 5 --theta 0.9 --qmax 1000"


def variant(seed: int) -> int:
    return seed % VARIANTS


def kglab_seed(seed: int) -> int:
    """The `--seed` passed to randomized commands; 7 is the README's."""
    return 7 + variant(seed)


@dataclass(frozen=True)
class Op:
    """One timed kglab command.

    ``ref`` names its stored reference; ``row_key`` is set when each CSV row
    counts as its own operation (keyed by that column), as for `compare`.
    """

    name: str
    argv: tuple
    ref: str
    row_key: str = None


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    warmup: tuple  # argv tuples run during set-up (in-process workloads only)
    ops: object  # seed -> list of Op


def _argv(line: str) -> tuple:
    return tuple(line.split())


def _sweep_ops(seed: int) -> list:
    start = 100000 + SWEEP_SHIFT * variant(seed)
    return [Op("compare", _argv(f"compare --range {start}:{start + 12000} {SWEEP_OPTS}"),
               ref="sweep-compare", row_key="n")]


def _spectral_ops(seed: int) -> list:
    s = kglab_seed(seed)
    return [
        Op("weyl-scan", _argv(f"weyl-scan --n 500000000 --theta 0.85 --samples 5000 --seed {s}"),
           ref="weyl-scan"),
        Op("vaughan-check", _argv(f"vaughan-check --n 500000000 --theta 0.85 --alphas 100 --seed {s}"),
           ref="spectral-vaughan-check"),
        Op("moments", _argv("moments --lo 500 --hi 1000 --t 2"), ref="moments-500-1000"),
    ]


# The README quick-start, verbatim apart from the seed of the randomized commands.
QUICKSTART = (
    "count --n 845 --k 2 --s 5 --theta 0.85",
    "predict --n 838349 --k 2 --s 5 --theta 0.85 --qmax 10000",
    "compare --range 100013:101000:24 --k 2 --s 5 --theta 0.9 --qmax 1000",
    "dissect --n 845 --k 2 --s 5 --theta 0.85 --delta 0.3",
    "weyl-scan --n 500000000 --k 2 --s 5 --theta 0.85 --samples 5000 --seed {seed}",
    "moments --lo 11 --hi 20 --k 2 --t 2",
    "singular-series --n 29 --k 2 --s 5 --qmax 10000",
    "sieve-check --samples 100000 --seed {seed}",
    "vaughan-check --n 500000000 --k 2 --s 5 --theta 0.85 --alphas 100",
)

# Refs shared with another workload's identical report.
_QUICKSTART_REFS = {"weyl-scan": "weyl-scan"}


def _quickstart_ops(seed: int) -> list:
    ops = []
    for line in QUICKSTART:
        argv = _argv(line.format(seed=kglab_seed(seed)))
        ops.append(Op(argv[0], argv, ref=_QUICKSTART_REFS.get(argv[0], "quickstart-" + argv[0])))
    return ops


WORKLOADS = {
    "sweep": Workload(
        "sweep", True,
        warmup=(_argv(f"compare --range 100013:100014 {SWEEP_OPTS}"),),
        ops=_sweep_ops,
    ),
    "spectral": Workload(
        "spectral", True,
        warmup=(
            _argv("weyl-scan --n 845 --theta 0.85 --samples 1000"),
            _argv("vaughan-check --n 1000000 --theta 0.85 --alphas 2"),
            _argv("moments --lo 11 --hi 20 --t 2"),
        ),
        ops=_spectral_ops,
    ),
    "quickstart": Workload("quickstart", False, warmup=(), ops=_quickstart_ops),
}


def import_kglab():
    """Import `kglab.cli` from this checkout's sources, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kglab.cli

    if not Path(kglab.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"kglab imported from {kglab.cli.__file__}, not {SRC}")
    return kglab.cli


def set_up(workload: Workload):
    """Import kglab and run the workload's warm-up commands in this process."""
    cli = import_kglab()
    for argv in workload.warmup:
        res = run_in_process(argv)
        if res.status != 0:
            raise RuntimeError(f"warm-up {' '.join(argv)} failed: {res.error}")
    return cli


@dataclass
class OpResult:
    status: int
    text: str
    error: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float = 0.0


def _cpu_now() -> float:
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def run_in_process(argv) -> OpResult:
    """One command through `kglab.cli.run`; any exception is a failed result."""
    import kglab.cli as cli  # looked up per call so installed trace wrappers are hit

    t0, c0 = time.perf_counter(), _cpu_now()
    try:
        config = cli.config_from_args(cli.build_parser().parse_args(list(argv)))
        status, text = cli.run(config)
        error = "" if status == 0 else text.strip()
    except SystemExit as exc:  # argparse rejects the arguments
        status, text, error = exc.code if isinstance(exc.code, int) else 2, "", "argument error"
    except Exception:
        status, text, error = 1, "", traceback.format_exc(limit=3)
    return OpResult(status, text, error, time.perf_counter() - t0, _cpu_now() - c0)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list) -> OpResult:
    """Run one child to completion and read its own rusage with `wait4`."""
    env = child_env()
    t0 = time.perf_counter()
    env[SPAWNED_ENV] = repr(t0)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err_chunks = []
    reader = threading.Thread(target=lambda: err_chunks.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, wstatus, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    stderr = b"".join(err_chunks).decode(errors="replace").strip()
    status = proc.returncode
    return OpResult(
        status, out.decode(errors="replace"),
        "" if status == 0 else (stderr or f"exit status {status}"),
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
    )


def cli_command(argv) -> list:
    return [sys.executable, "-m", "kglab.cli", *argv]


def child_command(mode: str, *args) -> list:
    return [sys.executable, str(CHILD), mode, *args]
