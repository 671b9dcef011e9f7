"""The target-batched sweep against the per-target oracles."""

import json
import math

import numpy as np
import pytest

from kglab import (
    KglabError,
    build_interval,
    count_exact,
    predict_main_term,
    singular_integral,
    singular_series,
    sweep,
)
from kglab.cli import main
from kglab.singular import _series_values


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
    integral = singular_integral(n, interval, k, s, method="density-convolution")
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
    values, errors = _series_values(ns, 2, 5, 1000)
    assert errors == [None] * len(ns)
    for n, value in zip(ns, values):
        expected = singular_series(n, 2, 5, 1000).value
        assert abs(value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("spec", [
    # n below s * 2^k, then admissible and inadmissible targets
    (range(1, 200, 3), 2, 5, 0.9, 1000),
    # counts work, the series rejects s < 3
    (range(100, 400, 7), 2, 2, 0.9, 1000),
    # counts work, the prediction's window rejects s < 2
    (range(10, 200, 11), 2, 1, 0.9, 1000),
    # a truncation above the series cap
    (range(100013, 100300, 24), 2, 5, 0.9, 200_000),
    # obstructed (inadmissible) and admissible targets, cubes
    (range(10, 3000, 37), 3, 4, 0.8, 300),
])
def test_rows_and_errors_match_per_target_path(spec):
    ns, k, s, theta, qmax = spec
    assert_rows_match(sweep(ns, k, s, theta, qmax), ns, k, s, theta, qmax)


def test_blocks_of_targets_join_up(monkeypatch):
    # Block edges split windows shared by neighbouring targets.
    monkeypatch.setattr("kglab.batch.SWEEP_BLOCK", 7)
    ns = range(845, 1200, 3)
    assert_rows_match(sweep(ns, 2, 5, 0.85, 100), ns, 2, 5, 0.85, 100)


@pytest.mark.parametrize("argv", [
    ["--range", "1:200:3", "--k", "2", "--s", "5", "--qmax", "1000"],
    ["--range", "100:400:7", "--k", "2", "--s", "2", "--qmax", "1000"],
    ["--range", "100000:100400:7", "--k", "2", "--s", "5", "--qmax", "1000"],
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
    exhaustive = [count_exact(n, 2, 5, 0.85, method="exhaustive").count for n in ns]
    assert [row.count for row in rows] == exhaustive
    assert np.count_nonzero(exhaustive) > 40


def test_convolution_pad_covers_the_whole_support():
    # The FFT length must hold the linear convolution, s (G - 1) + 1 points:
    # a shorter one wraps the top of the support onto the bottom.  Checked
    # on a small grid against repeated np.convolve, at both support edges.
    from kglab.singular import _integral_by_convolution

    interval = build_interval(10**5, 2, 5, 0.9)
    k, s, cells = 2, 5, 64
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
        got = _integral_by_convolution(n, interval, s, cells)
        # FFT rounding is relative to the largest value, not to this one
        assert abs(got - expected) <= 1e-12 * conv.max(), n
