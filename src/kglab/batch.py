"""Count-vs-prediction sweep over many targets at once.

For every target n, `sweep` gives the count of `count_exact` and the
prediction of `predict_main_term` with the density-convolution integral,
or the error either would raise, with the count's error first.  Work is
shared across targets: targets that induce the same integer window share
one sieve and one set of half-sum tables, and each series term is read
from one table of that term over all residues mod q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import KglabError
from .intervals import build_interval
from .representations import _count_mitm, _interval_for_count, _window_primes
from .singular import (
    DEFAULT_QMAX,
    _check_series_args,
    _series_values,
    singular_integral,
)

SWEEP_BLOCK = 2048  # targets per pass; bounds the term matrix and window lists


@dataclass(frozen=True)
class SweepRow:
    """One target's count and prediction, or the error met first."""

    n: int
    count: float = None
    prediction: float = None
    error: str = ""


def sweep(ns, k: int, s: int, theta: float, qmax: int = DEFAULT_QMAX) -> list:
    """A `SweepRow` per target of ``ns``, in order."""
    rows = []
    for start in range(0, len(ns), SWEEP_BLOCK):
        rows.extend(_sweep_block(list(ns[start:start + SWEEP_BLOCK]), k, s, theta, qmax))
    return rows


def _sweep_block(ns: list, k: int, s: int, theta: float, qmax: int) -> list:
    size = len(ns)
    windows = [None] * size
    errors = [None] * size       # the count's error, else the prediction's
    counts = [None] * size
    predictions = [None] * size
    for i, n in enumerate(ns):
        try:
            windows[i] = build_interval(n, k, s, theta)
        except KglabError as exc:
            # Counting also admits s = 1, which the prediction rejects.
            try:
                windows[i] = _interval_for_count(n, k, s, theta)
            except KglabError as count_exc:
                errors[i] = count_exc
                continue
            errors[i] = exc

    groups = {}
    for i, window in enumerate(windows):
        if window is not None:
            groups.setdefault((window.lo, window.hi), []).append(i)
    for members in groups.values():
        try:
            primes = _window_primes(windows[members[0]])
            values = _count_mitm([ns[i] for i in members], k, s, primes)
        except KglabError as exc:
            for i in members:
                errors[i] = exc
            continue
        for i, value in zip(members, values):
            counts[i] = float(value)

    live = [i for i in range(size) if counts[i] is not None and errors[i] is None]
    try:
        _check_series_args(k, s, qmax)
    except KglabError as exc:
        for i in live:
            errors[i] = exc
        live = []
    series, series_errors = _series_values([ns[i] for i in live], k, s, qmax) if live else ([], [])
    for i, value, error in zip(live, series, series_errors):
        if error is not None:
            errors[i] = error
            continue
        integral = singular_integral(ns[i], windows[i], k, s, method="density-convolution")
        predictions[i] = float(value * integral.value * math.log(windows[i].x) ** (-s))

    return [
        SweepRow(n=n, count=count, prediction=prediction) if error is None
        else SweepRow(n=n, error=str(error))
        for n, count, prediction, error in zip(ns, counts, predictions, errors)
    ]
