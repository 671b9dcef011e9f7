"""Shared grids for the counting and moment tests, a recorder of a count's
combine steps, and the CLI runner."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import kglab.representations as representations
from kglab.intervals import build_interval, primes_in_interval
from kglab.representations import _count_recursive

SRC = str(Path(__file__).resolve().parents[1] / "src")

# 20 fixed moment windows (k, lo, hi): every window holds at most 200
# integers and keeps the exact sampling count affordable.
MOMENT_GRID = [
    (2, 11, 20),
    (2, 1, 50),
    (2, 100, 250),
    (2, 300, 440),
    (2, 500, 560),
    (2, 901, 1000),
    (2, 2, 3),
    (2, 7, 7),
    (2, 50, 249),
    (2, 640, 700),
    (3, 5, 10),
    (3, 2, 21),
    (3, 30, 60),
    (3, 80, 110),
    (3, 40, 41),
    (3, 100, 120),
    (3, 11, 20),
    (3, 60, 79),
    (3, 90, 99),
    (3, 115, 120),
]


def build_case_grid(max_cases: int = 50):
    """Deterministic (n, k, s, theta) grid with 1..12 primes per window.

    Sized so the plain recursive count stays affordable next to the
    meet-in-the-middle path.
    """
    cases = []
    specs = [
        (2, 3, 0.85, range(200, 4000, 37)),
        (2, 4, 0.85, range(300, 5000, 41)),
        (2, 5, 0.85, range(600, 9000, 43)),
        (2, 6, 0.85, range(900, 9000, 47)),
        (3, 3, 0.85, range(600, 30000, 53)),
        (3, 5, 0.85, range(4000, 90000, 61)),
    ]
    per_spec = max(1, max_cases // len(specs) + 1)
    for k, s, theta, ns in specs:
        taken = 0
        for n in ns:
            if n < s * 2**k:
                continue
            interval = build_interval(n, k, s, theta)
            count = len(primes_in_interval(interval))
            limit = 8 if s >= 6 else 12
            if 1 <= count <= limit:
                cases.append((n, k, s, theta))
                taken += 1
            if taken >= per_spec or len(cases) >= max_cases:
                break
        if len(cases) >= max_cases:
            break
    return cases[:max_cases]


def count_exhaustive(n: int, k: int, s: int, theta: float) -> int:
    """The count of `count_exact` by the plain recursive enumeration."""
    return _count_recursive(n, k, s, primes_in_interval(build_interval(n, k, s, theta)))


def record_combine_steps(monkeypatch):
    """The (left, right) sizes of each `_combine` step, in order: a count's
    half-table steps, then, when it builds its second table, one of its
    merged half-sums by its primes."""
    steps, real = [], representations._combine
    monkeypatch.setattr(representations, "_combine",
                        lambda a, b: steps.append((len(a[0]), len(b[0]))) or real(a, b))
    return steps


@pytest.fixture(scope="session")
def case_grid():
    return build_case_grid(50)


def run_kglab(argv, seconds=10.0):
    """Run `python -W error -m kglab.cli argv` in a fresh process, within
    ``seconds``, and check that it ends in one of the three allowed ways:
    exit 0 with nothing on stderr, or exit 1 or 2 with exactly one stderr
    line and no traceback or warning.  With -W error, a warning becomes an
    exception, so it fails here too.  Returns the completed process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "kglab.cli", *argv],
                          capture_output=True, text=True, timeout=max(seconds, 10.0), env=env)
    assert time.perf_counter() - started < seconds, argv
    if proc.returncode == 0:
        assert proc.stderr == "", proc.stderr
    else:
        assert proc.returncode in (1, 2), proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
    return proc
