"""Count-vs-prediction sweep over many targets at once.

For every target n, `sweep` gives the count of `count_exact` and the
prediction of `predict_main_term` with the density-convolution integral,
or the error either would raise, with the count's error first.  Work is
shared across every target of a call: targets that induce the same
integer window share one sieve and one count of `_count_mitm`, and every
target reads its series terms from one shared term table
(`singular._term_table`).

The window-group counts and the per-target convolution integrals run in
two halves, one on the calling thread and one on a helper thread
(`_in_two_halves`).  Their numpy work (sorting, `searchsorted`, matmul and
FFT) releases the GIL, so the halves overlap on a second core.  Each
target's arithmetic is the same on either thread, so the rows are the
ones a single thread gives, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import KglabError
from .intervals import build_interval
from .representations import _count_mitm, _window_primes
from .singular import (
    DEFAULT_QMAX,
    _check_series_args,
    _integrals_by_convolution,
    _series_values,
)


@dataclass(frozen=True)
class SweepRow:
    """One target's count and prediction, or the error met first."""

    n: int
    count: int = None
    prediction: float = None
    error: str = ""


def sweep(ns, k: int, s: int, theta: float, qmax: int = DEFAULT_QMAX) -> list:
    """A `SweepRow` per target of ``ns``, in order.  The targets are grouped
    by their integer window once, so each shared window is sieved and
    counted once per call."""
    # errors: the count's error, else the prediction's
    windows, errors, counts, predictions = ([None] * len(ns) for _ in range(4))
    by_window = {}
    for i, n in enumerate(ns):
        try:
            windows[i] = build_interval(n, k, s, theta)
        except KglabError as exc:
            errors[i] = exc
        else:
            by_window.setdefault((windows[i].lo, windows[i].hi), []).append(i)
    groups = list(by_window.values())

    def count_groups(part):
        results = []  # each group's counts, or the error that stopped them
        for members in part:
            try:
                primes = _window_primes(windows[members[0]])
                results.append(_count_mitm([ns[i] for i in members], k, s, primes).tolist())
            except KglabError as exc:
                results.append(exc)
        return results

    for members, values in zip(groups, _in_two_halves(count_groups, groups)):
        if isinstance(values, KglabError):
            for i in members:
                errors[i] = values
            continue
        for i, value in zip(members, values):
            counts[i] = value

    live = [i for i, count in enumerate(counts) if count is not None]
    series = []
    if live:
        try:
            _check_series_args(k, s, qmax)
            series = _series_values([ns[i] for i in live], k, s, qmax)
        except KglabError as exc:
            for i in live:
                errors[i] = exc
    kept = list(zip(live, series))

    def integrals(part):
        # one call per half, so each half fills its own FFT buffers
        return _integrals_by_convolution([ns[i] for i, _ in part], [windows[i] for i, _ in part], s)

    for (i, value), integral in zip(kept, _in_two_halves(integrals, kept)):
        predictions[i] = float(value * integral * math.log(windows[i].x) ** (-s))

    return [
        SweepRow(n=n, count=count, prediction=prediction) if error is None
        else SweepRow(n=n, error=str(error))
        for n, count, prediction, error in zip(ns, counts, predictions, errors)
    ]


def _in_two_halves(fn, items: list) -> list:
    """``fn(items)`` as ``fn(items[0::2])`` on this thread and
    ``fn(items[1::2])`` on a helper thread, interleaved back into order.

    ``fn`` maps a list to a list of the same length.  The helper's
    exception is raised here, and the helper is joined even when this
    thread's half raises.  It runs under numpy's default error state,
    since context variables (`np.errstate`) do not pass to new threads.
    """
    # Imported here, so that commands that never sweep do not load it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as helper:
        odd = helper.submit(fn, items[1::2])
        even = fn(items[0::2])
        odd = odd.result()
    merged = [None] * len(items)
    merged[0::2] = even
    merged[1::2] = odd
    return merged
