"""The target-batched sweep against the per-target oracles."""

import json
import math
import threading
from collections import Counter

import numpy as np
import pytest

from kglab import (
    KglabError,
    admissible_in_range,
    build_interval,
    count_exact,
    predict_main_term,
    primes_in_interval,
    singular_integral,
    singular_series,
    sweep,
)
import kglab.batch as batch
import kglab.representations as representations
from kglab.cli import main
from kglab.singular import _series_values
from conftest import count_exhaustive, record_combine_steps


def per_n_row(n, k, s, theta, qmax):
    """(count, prediction, error) as the per-target functions give them."""
    try:
        count = count_exact(n, k, s, theta).count
        prediction = predict_main_term(
            n, k, s, theta, qmax=qmax, integral_method="density-convolution"
        ).prediction
    except KglabError as exc:
        return None, None, str(exc)
    return count, prediction, ""


def unit_series_size(n, k, s, theta):
    """The prediction's size with the series set to 1: the scale of its
    rounding noise when the series itself cancels to noise."""
    interval = build_interval(n, k, s, theta)
    integral = singular_integral(n, interval, s, method="density-convolution")
    return integral.value * math.log(interval.x) ** (-s)


def assert_rows_match(rows, ns, k, s, theta, qmax):
    assert [row.n for row in rows] == list(ns)
    for row in rows:
        count, prediction, error = per_n_row(row.n, k, s, theta, qmax)
        assert row.error == error, row.n
        assert row.count == count, row.n
        if prediction is None:
            assert row.prediction is None
            continue
        scale = max(abs(prediction), unit_series_size(row.n, k, s, theta))
        assert abs(row.prediction - prediction) <= 1e-12 * scale, row.n


def test_counts_and_predictions_match_per_target_path():
    ns = range(100013, 103000, 24)
    rows = sweep(ns, 2, 5, 0.9, qmax=1000)
    windows = {(w.lo, w.hi) for w in (build_interval(n, 2, 5, 0.9) for n in ns)}
    assert len(windows) < len(ns) // 4  # targets really do share windows
    for row in rows:
        assert row.count == count_exact(row.n, 2, 5, 0.9).count
        expected = predict_main_term(
            row.n, 2, 5, 0.9, qmax=1000, integral_method="density-convolution"
        ).prediction
        assert abs(row.prediction - expected) <= 1e-12 * abs(expected)


def test_series_values_match_per_target_series():
    ns = list(range(100013, 103000, 24)) + [29, 10**30 + 5]
    values = _series_values(ns, 2, 5, 1000)
    for n, value in zip(ns, values):
        expected = singular_series(n, 2, 5, 1000).value
        assert abs(value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("spec", [
    # n below s * 2^k, then admissible and inadmissible targets
    (range(1, 200, 3), 2, 5, 0.9, 1000),
    # counts work, the series rejects s < 3
    (range(100, 400, 7), 2, 2, 0.9, 1000),
    # s = 1: counts work, the series rejects s < 3
    (range(10, 200, 11), 2, 1, 0.9, 1000),
    # a truncation above the series cap
    (range(100013, 100300, 24), 2, 5, 0.9, 200_000),
    # obstructed (inadmissible) and admissible targets, cubes
    (range(10, 3000, 37), 3, 4, 0.8, 300),
])
def test_rows_and_errors_match_per_target_path(spec):
    ns, k, s, theta, qmax = spec
    assert_rows_match(sweep(ns, k, s, theta, qmax), ns, k, s, theta, qmax)


def test_a_window_group_count_error_reaches_each_of_its_rows(monkeypatch):
    # The 125 targets fall into five windows of 33 or 34 primes; at a cap
    # of 33, each row of a 34-prime window carries that window's error and
    # the rows of the others still count.
    ns = admissible_in_range(100013, 103000, 2, 5)
    primes = {n: len(primes_in_interval(build_interval(n, 2, 5, 0.9))) for n in ns}
    assert len(ns) == 125 and sorted(set(primes.values())) == [33, 34]
    monkeypatch.setattr(representations, "PRIME_COUNT_CAP", 33)
    rows = sweep(ns, 2, 5, 0.9, qmax=1000)
    for row in rows:
        refused = row.error == "primes to count: 34 exceeds the cap 33"
        assert refused == (primes[row.n] == 34) and refused == (row.count is None), row.n
    assert_rows_match(rows, ns, 2, 5, 0.9, 1000)


def test_each_shared_window_is_counted_once(monkeypatch):
    # 2,100 consecutive admissible targets of criterion 8's range; targets
    # 2,047 and 2,048 share a window, which one count must cover.
    ns = admissible_in_range(100000, 200001, 2, 5)[:2100]
    window = {n: (w.lo, w.hi) for n in ns for w in [build_interval(n, 2, 5, 0.9)]}
    assert window[ns[2047]] == window[ns[2048]]
    calls = []
    count = batch._count_mitm

    def recorded(targets, *args):
        calls.append(window[targets[0]])
        return count(targets, *args)

    monkeypatch.setattr(batch, "_count_mitm", recorded)
    # The test is about grouping, so the integrals are skipped.
    monkeypatch.setattr(batch, "_integrals_by_convolution",
                        lambda targets, windows, s: np.zeros(len(targets)))
    sweep(ns, 2, 5, 0.9, 100)
    assert sorted(calls) == sorted(set(window.values()))


def test_sweep_rows_do_not_move_with_the_odd_count_meet(monkeypatch):
    # A slice of the sweep workload's range (k = 2, s = 5, theta = 0.9):
    # every window's count builds its second table, one step of its
    # half-sums by its primes, and on the last-slot probe, without those
    # steps, the rows are the same.
    ns = admissible_in_range(100013, 102413, 2, 5)
    plan, asked = representations._count_plan, []
    steps = record_combine_steps(monkeypatch)
    monkeypatch.setattr(representations, "_count_plan",
                        lambda *sizes: asked.append(sizes) or plan(*sizes))
    rows = sweep(ns, 2, 5, 0.9, 1000)
    assert len(ns) == 100 and len(asked) >= 3
    built, windows = Counter(steps), Counter((half, primes) for _, primes, half in asked)
    steps.clear()
    monkeypatch.setattr(representations, "_count_plan", lambda *sizes: False)
    assert sweep(ns, 2, 5, 0.9, 1000) == rows
    assert built - Counter(steps) == windows


@pytest.mark.parametrize("argv", [
    ["--range", "1:200:3", "--k", "2", "--s", "5", "--qmax", "1000"],
    ["--range", "100:400:7", "--k", "2", "--s", "2", "--qmax", "1000"],
    ["--range", "100000:100400:7", "--k", "2", "--s", "5", "--qmax", "1000"],
    # one target at the default truncation
    ["--range", "838349:838350", "--k", "2", "--s", "5", "--qmax", "10000"],
])
def test_compare_rows_match_per_target_path(argv, tmp_path):
    path = tmp_path / "compare.json"
    status = main(["compare", *argv, "--theta", "0.9", "--include-inadmissible",
                   "--format", "json", "--out", str(path)])
    assert status == 0
    k, s, qmax = int(argv[3]), int(argv[5]), int(argv[7])
    for row in json.loads(path.read_text())["result"]:
        count, prediction, error = per_n_row(row["n"], k, s, 0.9, qmax)
        assert row["error"] == error
        if error:
            assert row["R"] == row["prediction"] == ""
            continue
        assert row["R"] == count
        scale = max(abs(prediction), unit_series_size(row["n"], k, s, 0.9))
        assert abs(row["prediction"] - prediction) <= 1e-12 * scale


def test_counts_identical_across_window_groups():
    # Targets sharing a window are counted together; each must still get
    # its own count, equal to the exhaustive enumeration.
    ns = list(range(605, 2000, 12))
    rows = sweep(ns, 2, 5, 0.85, qmax=100)
    exhaustive = [count_exhaustive(n, 2, 5, 0.85) for n in ns]
    assert [row.count for row in rows] == exhaustive
    assert np.count_nonzero(exhaustive) > 40


def test_convolution_pad_covers_the_whole_support(monkeypatch):
    # The FFT length must hold the linear convolution, s (G - 1) + 1 points:
    # a shorter one wraps the top of the support onto the bottom.  Checked
    # on a small grid against repeated np.convolve, at both support edges.
    from kglab.singular import _integrals_by_convolution

    interval = build_interval(10**5, 2, 5, 0.9)
    k, s, cells = 2, 5, 64
    monkeypatch.setattr("kglab.singular.GRID_CELLS", cells)
    lo_t, hi_t = (interval.x - interval.y) ** k, (interval.x + interval.y) ** k
    h = (hi_t - lo_t) / cells
    density = (1.0 / k) * (lo_t + (np.arange(cells) + 0.5) * h) ** (1.0 / k - 1.0)
    conv = density
    for _ in range(s - 1):
        conv = np.convolve(conv, density)
    conv = conv * h ** (s - 1)
    edge = (s / 2.0 + 0.5) * h
    for n in (math.ceil(s * lo_t + edge), 10**5, math.floor(s * hi_t - edge)):
        pos = (n - s * lo_t) / h - s / 2.0
        i = int(math.floor(pos))
        expected = (1.0 - (pos - i)) * conv[i] + (pos - i) * conv[i + 1]
        got = _integrals_by_convolution([n], [interval], s)[0]
        # FFT rounding is relative to the largest value, not to this one
        assert abs(got - expected) <= 1e-12 * conv.max(), n


def window_groups(ns, k, s, theta, interval=build_interval):
    """The targets of each shared integer window, in order of first use."""
    groups = {}
    for n in ns:
        window = interval(n, k, s, theta)
        groups.setdefault((window.lo, window.hi), []).append(n)
    return list(groups.values())


def test_two_halves_give_the_serial_rows(monkeypatch):
    # One target is given the window of 100 n, so n lies off its convolution
    # grid and its integral is exactly 0.0.
    ns = list(range(100013, 102324, 24))
    far = ns[4]

    def interval(n, k, s, theta):
        return build_interval(100 * n if n == far else n, k, s, theta)

    monkeypatch.setattr(batch, "build_interval", interval)
    groups = window_groups(ns, 2, 5, 0.9, interval)
    assert len(ns) % 2 == 1 and len(groups) % 2 == 1

    splits = []
    real = batch._in_two_halves

    def recording(fn, items):
        splits.append(len(items))
        return real(fn, items)

    monkeypatch.setattr(batch, "_in_two_halves", recording)
    threaded = sweep(ns, 2, 5, 0.9, qmax=1000)
    assert splits == [len(groups), len(ns)]  # the counts, then the integrals
    monkeypatch.setattr(batch, "_in_two_halves", lambda fn, items: fn(items))
    serial = sweep(ns, 2, 5, 0.9, qmax=1000)
    assert threaded == serial  # bit for bit, not to a tolerance
    assert [row.error for row in serial] == [""] * len(ns)
    assert threaded[4].count == 0.0 and threaded[4].prediction == 0.0
    assert all(row.prediction > 0.0 for row in threaded if row.n != far)


@pytest.mark.parametrize("name", ["_count_mitm", "_integrals_by_convolution"])
@pytest.mark.parametrize("half", [1, 0])  # the helper's half, then the caller's
def test_errors_cross_the_thread_boundary(name, half, monkeypatch, capsys):
    ns = list(range(100013, 100420, 24))  # two window groups
    if name == "_count_mitm":
        bad = window_groups(ns, 2, 5, 0.9)[half][0]  # the half holding that group
    else:
        bad = ns[half]
    real = getattr(batch, name)
    raised_on = []

    def failing(targets, *args):
        if bad in targets:
            raised_on.append(threading.current_thread())
            raise OverflowError("synthetic overflow")
        return real(targets, *args)

    monkeypatch.setattr(batch, name, failing)
    threads = threading.active_count()
    with pytest.raises(OverflowError, match="synthetic overflow"):
        sweep(ns, 2, 5, 0.9, qmax=1000)
    assert main(["compare", "--range", "100013:100420:24", "--theta", "0.9",
                 "--qmax", "1000"]) == 1
    assert capsys.readouterr().err == "computation error: synthetic overflow\n"
    assert threading.active_count() == threads
    main_thread = threading.main_thread()
    assert raised_on and all((thread is not main_thread) == (half == 1) for thread in raised_on)
