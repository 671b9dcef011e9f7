import json
import math
import os
import re
import stat
import threading
import time
import tracemalloc
from dataclasses import is_dataclass

import pytest

from kglab import (
    build_dissection,
    build_interval,
    count_exact,
    default_delta,
    prime_indicator,
    singular_series,
    von_mangoldt_weight,
    weighted_exp_sum,
    weyl_scan,
)
from kglab.arcs import ARC_COUNT_CAP
from kglab.batch import SweepRow
from kglab import cli, exp_sums
from kglab.cli import ALPHA_CAP, COMPARE_RANGE_CAP, build_parser, main
from kglab.exp_sums import MOMENT_SAMPLE_CAP, SCAN_SAMPLE_CAP
from kglab.intervals import SIEVE_LIMIT_CAP, euler_phi
from kglab.representations import SIEVE_SAMPLE_CAP
from kglab.singular import PAD_CAP, QMAX_CAP
from conftest import run_kglab
from golden.record import readme_commands, subparsers


def run_cli(argv, tmp_path, name="out.json"):
    path = tmp_path / name
    status = main(argv + ["--out", str(path)])
    return status, path.read_text() if path.exists() else ""


def assert_cap_error(err: str, what: str, cap: int, used: str = r"\d+"):
    """``err`` is the one line of the cap ``cap`` on ``what``; both
    ``what`` and ``used`` are regular expressions."""
    assert re.fullmatch(rf"computation error: {what}: {used} exceeds the cap {cap}\n", err), err


def drop_timestamp(text):
    data = json.loads(text)
    data.pop("timestamp", None)
    return json.dumps(data, sort_keys=True)


class TestSubcommands:
    def test_count_matches_library(self, tmp_path):
        status, text = run_cli(
            ["count", "--n", "845", "--k", "2", "--s", "5", "--theta", "0.85"],
            tmp_path,
        )
        assert status == 0
        payload = json.loads(text)
        assert payload["schema"] == 1
        assert payload["version"]
        assert payload["config"]["n"] == 845
        assert payload["result"]["R"] == count_exact(845, 2, 5, 0.85).count

    def test_predict(self, tmp_path):
        status, text = run_cli(
            ["predict", "--n", "845", "--k", "2", "--s", "5",
             "--theta", "0.85", "--qmax", "500"],
            tmp_path,
        )
        assert status == 0
        payload = json.loads(text)["result"]
        assert payload["prediction"] > 0
        assert payload["admissible"] is True
        assert not payload["obstructed"]
        assert payload["series"]["p_local"][0]["p"] == 2

    def test_singular_series_payload(self, tmp_path):
        status, text = run_cli(
            ["singular-series", "--n", "29", "--k", "2", "--s", "5",
             "--qmax", "1000"],
            tmp_path,
        )
        assert status == 0
        result = json.loads(text)["result"]
        est = singular_series(29, 2, 5, 1000)
        assert result["value"] == pytest.approx(est.value, rel=1e-12)
        assert result["obstructed"] is False
        assert {"n", "k", "s", "qmax", "value", "p_local", "method",
                "obstructed"} <= set(result)

    def test_singular_series_small_flag(self, tmp_path):
        # A series in (1e-6, 0.05) is flagged small, and is not obstructed.
        status, text = run_cli(
            ["singular-series", "--n", "48", "--k", "3", "--s", "6", "--qmax", "100"],
            tmp_path,
        )
        assert status == 0
        result = json.loads(text)["result"]
        assert (result["value"], result["flag"], result["obstructed"]) == (
            0.0343153816382108, "small", False)

    def test_compare_rows_cover_admissible_range(self, tmp_path):
        status, text = run_cli(
            ["compare", "--range", "100013:100300:24", "--k", "2", "--s", "5",
             "--theta", "0.9", "--qmax", "200", "--format", "csv"],
            tmp_path,
            name="out.csv",
        )
        assert status == 0
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert header.split(",")[:5] == ["n", "R", "prediction", "ratio", "admissible"]
        expected_rows = len([n for n in range(100013, 100300, 24)])
        assert len(rows) == expected_rows
        assert all(row.split(",")[4] == "True" for row in rows)

    def test_dissect_slim_width_scale(self, tmp_path):
        argv = ["dissect", "--n", "6655", "--k", "3", "--s", "5",
                "--theta", "0.85", "--delta", "0.3"]
        _, wide = run_cli(argv, tmp_path, name="wide.json")
        _, slim = run_cli(argv + ["--slim"], tmp_path, name="slim.json")
        q_wide = json.loads(wide)["result"]["Q"]
        q_slim = json.loads(slim)["result"]["Q"]
        # Slim arcs are narrower by x/y for cubes.
        assert q_slim > q_wide

    def test_dissect_arc_dump(self, tmp_path):
        status, text = run_cli(
            ["dissect", "--n", "845", "--k", "2", "--s", "5",
             "--theta", "0.85", "--delta", "0.3"],
            tmp_path,
        )
        assert status == 0
        result = json.loads(text)["result"]
        assert result["arcs"]
        for arc in result["arcs"]:
            assert set(arc) == {"q", "a", "center", "half_width"}

    def test_weyl_scan_csv(self, tmp_path):
        status, text = run_cli(
            ["weyl-scan", "--n", "845", "--k", "2", "--s", "5", "--theta", "0.85",
             "--delta", "0.3", "--samples", "1000", "--seed", "5"],
            tmp_path,
            name="scan.csv",
        )
        assert status == 0
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "alpha,class,q,a,abs_f,ratio"
        assert len(lines) == 1001

    def test_moments(self, tmp_path):
        status, text = run_cli(
            ["moments", "--lo", "11", "--hi", "20", "--k", "2", "--t", "2"],
            tmp_path,
        )
        assert status == 0
        result = json.loads(text)["result"]
        assert result["nyquist"] == 190
        assert result["enumeration"] == 190
        assert result["agree"] is True

    def test_moments_of_a_window_past_2_53(self, tmp_path):
        # It exited 2 with "need 0 < y <= x, got x=9007199254740992.0, y=0.0".
        status, text = run_cli(["moments", "--lo", str(2**53 + 1), "--hi", str(2**53 + 1),
                                "--k", "2", "--t", "1"], tmp_path)
        assert status == 0
        result = json.loads(text)["result"]
        assert (result["nyquist"], result["enumeration"], result["agree"]) == (1, 1, True)

    def test_a_window_without_primes_counts_zero(self, tmp_path):
        # The window of n = 3380 and of n = 3365 at theta = 0.2 is 25..27,
        # with no prime: R is 0, and the compare row stays admissible.
        status, text = run_cli(["count", "--n", "3380", "--k", "2", "--s", "5",
                                "--theta", "0.2"], tmp_path)
        assert status == 0
        result = json.loads(text)["result"]
        assert (result["R"], result["prime_count"]) == (0, 0)
        status, text = run_cli(["compare", "--range", "3365:3366", "--k", "2", "--s", "5",
                                "--theta", "0.2", "--qmax", "100", "--format", "json"], tmp_path)
        assert status == 0
        [row] = json.loads(text)["result"]
        assert (row["n"], row["R"], row["admissible"]) == (3365, 0, True)

    def test_moments_whose_routes_disagree_exit_1(self, monkeypatch, capsys):
        exact = exp_sums.moment_enumeration
        monkeypatch.setattr(exp_sums, "moment_enumeration", lambda *args: exact(*args) + 1)
        assert main(["moments", "--lo", "11", "--hi", "20", "--k", "2", "--t", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "computation error: the moment routes disagree: Nyquist 190, enumeration 191\n")

    def test_sieve_check(self, tmp_path):
        status, text = run_cli(
            ["sieve-check", "--samples", "100000", "--seed", "7"], tmp_path
        )
        assert status == 0
        result = json.loads(text)["result"]
        assert result["violations"] == 0

    def test_vaughan_check(self, tmp_path):
        status, text = run_cli(
            ["vaughan-check", "--n", "3200000", "--k", "2", "--s", "5",
             "--theta", "0.85", "--alphas", "10", "--seed", "1"],
            tmp_path,
        )
        assert status == 0
        result = json.loads(text)["result"]
        assert result["max_rel_residual"] < 1e-8


class TestContracts:
    def test_invalid_config_exits_2(self, tmp_path, capsys):
        assert main(["count", "--n", "19", "--k", "2", "--s", "5"]) == 2
        assert main(["count", "--n", "845", "--k", "1", "--s", "5"]) == 2

    @pytest.mark.parametrize("argv", [
        ["vaughan-check", "--n", "500000000", "--theta", "0.85", "--alphas", "-1"],
        ["vaughan-check", "--n", "500000000", "--theta", "0.85", "--alphas", "0"],
        ["sieve-check", "--samples", "-5"],
        ["sieve-check", "--samples", "0"],
    ])
    def test_no_frequencies_or_samples_exit_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid config: need --")
        assert err.count("\n") == 1

    def test_csv_of_a_json_only_subcommand_exits_2_before_computing(self, capsys):
        # The decomposition at this n takes about a second.
        started = time.perf_counter()
        assert main(["vaughan-check", "--n", "20000000000000", "--alphas", "2",
                     "--format", "csv"]) == 2
        assert time.perf_counter() - started < 0.1
        err = capsys.readouterr().err
        assert err.startswith("invalid config: argument --format: invalid choice: 'csv'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["compare", "--range", "845:1000:24", "--qmax", "100"],
        ["dissect", "--n", "845", "--delta", "0.3"],
        ["weyl-scan", "--n", "500000000", "--samples", "1000"],
    ])
    def test_only_the_form_asked_for_is_built(self, argv, monkeypatch, capsys):
        seen, made = [], []
        plain = cli._plain

        def recording(obj):
            seen.append(obj)
            made.append(plain(obj))
            return made[-1]

        monkeypatch.setattr(cli, "_plain", recording)
        assert main(argv + ["--format", "csv"]) == 0
        # The CSV form takes only its config line through _plain.
        assert not any(isinstance(obj, (list, tuple)) or is_dataclass(obj) for obj in seen)
        assert [obj for obj in seen if isinstance(obj, dict)] == [seen[0]]
        assert "subcommand" in seen[0]
        seen.clear()
        made.clear()
        assert main(argv + ["--format", "json"]) == 0
        # The JSON form takes no payload through _plain a second time.
        containers = {id(obj) for obj in made if isinstance(obj, (dict, list))}
        assert not any(id(obj) in containers for obj in seen)

    def test_computation_error_exits_1(self, capsys):
        # Valid config, but the truncation exceeds the series cap at runtime.
        assert main(["singular-series", "--n", "29", "--k", "2", "--s", "5",
                     "--qmax", "200000"]) == 1
        assert_cap_error(capsys.readouterr().err, "series truncation qmax", QMAX_CAP, "200000")

    @pytest.mark.parametrize("argv", [
        ["count", "--n", str(10**400), "--k", "2", "--s", "5", "--theta", "1.0"],
        ["moments", "--lo", str(10**400), "--hi", str(10**400), "--t", "1"],
        ["dissect", "--n", str(10**700), "--k", "2", "--s", "5", "--theta", "0.85"],
    ])
    def test_huge_integers_exit_1_without_traceback(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("computation error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("error", [
        FloatingPointError("overflow encountered in multiply"),
        MemoryError("Unable to allocate 8.00 EiB for an array"),
        MemoryError(),
    ])
    def test_numeric_and_memory_errors_exit_1(self, error, monkeypatch, capsys):
        def failing(config):
            raise error

        monkeypatch.setattr(cli, "_run_count", failing)
        assert main(["count", "--n", "845", "--k", "2", "--s", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("computation error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_arc_family_above_the_cap_exits_1_quickly(self, capsys):
        # About 280 bytes per arc at a 280 MB budget.
        assert ARC_COUNT_CAP <= 1_000_000
        # The first denominator threshold whose family holds more arcs than
        # the cap, reached through dissect's --delta.
        q_cap, arcs = 0, 0
        while arcs <= ARC_COUNT_CAP:
            q_cap += 1
            arcs += euler_phi(q_cap)
        n = 5 * 10**12
        y = build_interval(n, 2, 5, 0.85).y
        delta = math.log(q_cap + 0.5) / math.log(y)
        assert math.floor(y**delta) == q_cap
        started = time.perf_counter()
        status = main(["dissect", "--n", str(n), "--k", "2", "--s", "5",
                       "--theta", "0.85", "--delta", repr(delta)])
        assert time.perf_counter() - started < 10.0
        assert status == 1
        assert_cap_error(capsys.readouterr().err, rf"dissection arcs up to q={q_cap}",
                         ARC_COUNT_CAP, str(arcs))

    def test_compare_range_above_the_cap_exits_1_quickly(self, tmp_path, monkeypatch, capsys):
        # About 2,330 bytes per JSON row at a 280 MB budget; the
        # criterion-8 range [1e5, 2e5) must fit.
        assert len(range(100000, 200000)) <= COMPARE_RANGE_CAP <= 125_000
        for stop in (10**12, 10**400):
            started = time.perf_counter()
            assert main(["compare", "--range", f"100000:{stop}", "--theta", "0.9",
                         "--qmax", "1000"]) == 1
            assert time.perf_counter() - started < 5.0
            assert_cap_error(capsys.readouterr().err, "compare range targets",
                             COMPARE_RANGE_CAP, str(stop - 100000))

        # The cap counts every target the range walks, admissible or not.
        monkeypatch.setattr("kglab.batch.sweep",
                            lambda ns, *args: [SweepRow(n=n, error="skipped") for n in ns])
        step = 7
        stop = 1 + step * COMPARE_RANGE_CAP
        assert main(["compare", "--range", f"1:{stop}:{step}",
                     "--out", str(tmp_path / "capped.csv")]) == 0
        assert main(["compare", "--range", f"1:{stop + 1}:{step}"]) == 1
        assert_cap_error(capsys.readouterr().err, "compare range targets",
                         COMPARE_RANGE_CAP, str(COMPARE_RANGE_CAP + 1))

    @pytest.mark.parametrize("argv,what,cap", [
        # sqrt(hi) = 10^8 small primes to sieve a window of about 80 integers
        (["count", "--n", str(5 * 10**32), "--k", "2", "--s", "5", "--theta", "0.1"],
         re.escape("sieve limit sqrt(hi)"), SIEVE_LIMIT_CAP),
        # a convolution pad of 163,840,000 samples at s = 10^4
        (["predict", "--n", str(10201 * 10**4), "--k", "2", "--s", str(10**4),
          "--theta", "0.1", "--qmax", "100"], "convolution pad at s=10000", PAD_CAP),
        (["compare", "--range", f"{10201 * 10**4}:{10201 * 10**4 + 1}", "--k", "2",
          "--s", str(10**4), "--theta", "0.1", "--qmax", "100"],
         "convolution pad at s=10000", PAD_CAP),
    ], ids=["sieve", "pad-predict", "pad-compare"])
    def test_sieve_and_pad_caps_exit_1_quickly(self, argv, what, cap, capsys):
        started = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - started < 1.0
        assert_cap_error(capsys.readouterr().err, what, cap)

    def test_moments_cap_exits_before_building_the_weight(self, capsys):
        # Past the Nyquist sample cap; the window's unit weight alone
        # would take 400 MB.
        tracemalloc.start()
        try:
            status = main(["moments", "--lo", "1", "--hi", "50000000", "--t", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 1
        assert_cap_error(capsys.readouterr().err, "moment sample points", MOMENT_SAMPLE_CAP)
        assert peak < 10 * 2**20

    def test_moments_cap_bounds_the_padded_length(self, capsys):
        # 34,999,056 sample points, under the cap, pad to 16,384 * 2,187;
        # the table between the passes would take 280 MB.
        tracemalloc.start()
        try:
            status = main(["moments", "--lo", "1", "--hi", "5916", "--t", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 1
        assert_cap_error(capsys.readouterr().err, "moment sample points", MOMENT_SAMPLE_CAP,
                         used="35831808")
        assert peak < 10 * 2**20

    def test_out_to_missing_directory_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        status = main(["moments", "--lo", "11", "--hi", "20", "--k", "2", "--t", "2",
                       "--out", str(target)])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("computation error: ") and str(target) in err
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_leaves_existing_out_unchanged(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "report.json"
        target.write_text("previous\n")
        assert main(["singular-series", "--n", "29", "--k", "2", "--s", "5",
                     "--qmax", "200000", "--out", str(target)]) == 1
        assert main(["count", "--n", "19", "--k", "2", "--s", "5", "--out", str(target)]) == 2

        def failing_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("kglab.cli.os.replace", failing_replace)
        assert main(["moments", "--lo", "11", "--hi", "20", "--k", "2", "--t", "2",
                     "--out", str(target)]) == 1
        assert capsys.readouterr().err.endswith("No space left on device\n")
        assert target.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [target]  # no temporary file left

    def test_out_writes_the_stdout_bytes(self, tmp_path, capsys):
        argv = ["dissect", "--n", "845", "--k", "2", "--s", "5", "--theta", "0.85",
                "--delta", "0.3", "--format", "csv"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / "arcs.csv"
        target.write_text("an older, longer report\n" * 100)
        assert main(argv + ["--out", str(target)]) == 0
        assert target.read_bytes() == stdout.encode()
        mask = os.umask(0)
        os.umask(mask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~mask

    def test_out_to_a_fifo_writes_in_place(self, tmp_path, capsys):
        argv = ["moments", "--lo", "11", "--hi", "20", "--k", "2", "--t", "2"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        status = main(argv + ["--out", str(fifo)])
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert status == 0
        assert [drop_timestamp(text) for text in received] == [drop_timestamp(stdout)]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_out_through_a_symlink_keeps_the_link(self, tmp_path, capsys):
        argv = ["dissect", "--n", "845", "--k", "2", "--s", "5", "--theta", "0.85",
                "--delta", "0.3", "--format", "csv"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / "real.csv"
        target.write_text("an older report\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(argv + ["--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == stdout.encode()
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err == (
            "invalid config: the following arguments are required: subcommand\n")

    def test_unknown_flag_exits_2(self, capsys):
        # --n is given, so the flag is the only error.
        assert main(["count", "--n", "845", "--frequency", "3"]) == 2
        assert capsys.readouterr().err == (
            "invalid config: unrecognized arguments: --frequency 3\n")

    @pytest.mark.parametrize("argv", [
        ["count", "--n", "abc"],
        ["compare"],
        ["bogus"],
        ["singular-series"],
        ["count"],
        # count and predict take the window of --n alone.
        ["count", "--n", "845", "--lo", "1", "--hi", "3"],
        ["predict", "--n", "845", "--lo", "1", "--hi", "3"],
        # moments takes the integer window of --lo and --hi alone.
        ["moments", "--n", "845", "--t", "2"],
    ])
    def test_argument_errors_take_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid config: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, unused", [
        # Options a runner never read: they were parsed, echoed into the
        # report's config and ignored.
        (["sieve-check", "--samples", "1000", "--seed", "1", "--k", "7"], "--k 7"),
        (["sieve-check", "--samples", "1000", "--s", "5"], "--s 5"),
        (["sieve-check", "--samples", "1000", "--theta", "0.5"], "--theta 0.5"),
        (["singular-series", "--n", "29", "--theta", "0.5"], "--theta 0.5"),
        (["vaughan-check", "--n", "500000000", "--alphas", "2", "--samples", "1000"], "--samples 1000"),
        # One window form per subcommand, and no option that no caller sets.
        (["dissect", "--n", "845", "--lo", "1", "--hi", "30"], "--lo 1 --hi 30"),
        (["weyl-scan", "--n", "845", "--slim"], "--slim"),
        (["vaughan-check", "--n", "1000000", "--x-cut", "5"], "--x-cut 5"),
        (["compare", "--range", "845:900", "--anomaly-threshold", "2"], "--anomaly-threshold 2"),
    ])
    def test_options_no_runner_reads_are_refused(self, argv, unused):
        proc = run_kglab(argv)
        assert proc.returncode == 2
        assert proc.stderr == f"invalid config: unrecognized arguments: {unused}\n"

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["count", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_deterministic_reports(self, tmp_path):
        argv = ["weyl-scan", "--n", "845", "--k", "2", "--s", "5",
                "--theta", "0.85", "--delta", "0.3", "--samples", "1000",
                "--seed", "5", "--format", "json"]
        _, first = run_cli(argv, tmp_path, name="a.json")
        _, second = run_cli(argv, tmp_path, name="b.json")
        assert drop_timestamp(first) == drop_timestamp(second)

    def test_deterministic_csv(self, tmp_path):
        argv = ["compare", "--range", "845:1000:24", "--k", "2", "--s", "5",
                "--theta", "0.85", "--qmax", "100"]
        _, first = run_cli(argv, tmp_path, name="a.csv")
        _, second = run_cli(argv, tmp_path, name="b.csv")
        assert first == second

    def test_config_and_version_embedded_in_csv(self, tmp_path):
        _, text = run_cli(
            ["compare", "--range", "845:900:24", "--k", "2", "--s", "5",
             "--theta", "0.85", "--qmax", "100"],
            tmp_path,
            name="c.csv",
        )
        assert text.startswith("# version:")
        assert "# config:" in text

    def test_stdout_when_no_out(self, capsys):
        status = main(["moments", "--lo", "2", "--hi", "3", "--k", "2", "--t", "1"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["nyquist"] == 2

    def test_anomaly_marking(self, tmp_path):
        # n = 29 is admissible with a positive prediction but has no
        # representation from its tiny window; the row is marked, not failed.
        status, text = run_cli(
            ["compare", "--range", "29:30:24", "--k", "2", "--s", "5",
             "--theta", "0.85", "--qmax", "100", "--format", "json"],
            tmp_path,
        )
        assert status == 0
        rows = json.loads(text)["result"]
        assert len(rows) == 1
        assert rows[0]["R"] == 0.0
        assert rows[0]["prediction"] > 1.0
        assert rows[0]["anomaly"] is True

    def test_row_failure_recorded_and_run_continues(self, tmp_path, monkeypatch):
        import kglab.batch as batch_mod

        real = batch_mod.build_interval

        def flaky(n, k, s, theta):
            if n == 100037:
                from kglab.errors import CapExceeded

                raise CapExceeded("synthetic failure")
            return real(n, k, s, theta)

        monkeypatch.setattr(batch_mod, "build_interval", flaky)
        status, text = run_cli(
            ["compare", "--range", "100013:100062:24", "--k", "2", "--s", "5",
             "--theta", "0.9", "--qmax", "100", "--format", "json"],
            tmp_path,
        )
        assert status == 0
        rows = json.loads(text)["result"]
        assert len(rows) == 3
        assert rows[1]["error"].startswith("synthetic")
        assert rows[0]["error"] == "" and rows[2]["error"] == ""


SERIES_KEYS = {"n", "k", "s", "qmax", "value", "value_direct", "p_local",
               "method", "flag", "obstructed"}


class TestPayloadKeys:
    """The exact key set of each JSON `result`; renaming or dropping a
    report field must show up here."""

    def result(self, argv, tmp_path):
        status, text = run_cli(argv + ["--format", "json"], tmp_path)
        assert status == 0
        return json.loads(text)["result"]

    def test_count(self, tmp_path):
        result = self.result(
            ["count", "--n", "845", "--k", "2", "--s", "5", "--theta", "0.85"],
            tmp_path)
        assert set(result) == {"n", "k", "s", "theta", "R", "method", "prime_count"}

    def test_predict(self, tmp_path):
        result = self.result(
            ["predict", "--n", "845", "--k", "2", "--s", "5", "--theta", "0.85",
             "--qmax", "200"], tmp_path)
        assert set(result) == {"n", "k", "s", "theta", "qmax", "series", "integral",
                               "log_x", "prediction", "normalized_constant",
                               "admissible", "obstructed"}
        assert set(result["series"]) == SERIES_KEYS
        assert set(result["integral"]) == {"value", "method", "alt_value",
                                           "flagged", "grid_cells"}
        assert result["series"]["p_local"]
        for entry in result["series"]["p_local"]:
            assert set(entry) == {"p", "sigma"}

    def test_singular_series(self, tmp_path):
        result = self.result(
            ["singular-series", "--n", "29", "--k", "2", "--s", "5", "--qmax", "200"],
            tmp_path)
        assert set(result) == SERIES_KEYS

    def test_dissect(self, tmp_path):
        result = self.result(
            ["dissect", "--n", "845", "--k", "2", "--s", "5", "--theta", "0.85",
             "--delta", "0.3"], tmp_path)
        assert set(result) == {"P", "Q", "delta", "arcs"}
        assert result["arcs"]
        for arc in result["arcs"]:
            assert set(arc) == {"q", "a", "center", "half_width"}

    def test_weyl_scan(self, tmp_path):
        result = self.result(
            ["weyl-scan", "--n", "845", "--k", "2", "--s", "5", "--theta", "0.85",
             "--delta", "0.3", "--samples", "1000", "--seed", "5"], tmp_path)
        assert set(result) == {"k", "samples", "seed", "rho", "sup_minor",
                               "argmax_minor", "ratio_sup", "minor_inhabited",
                               "peak", "rows"}
        assert len(result["rows"]) == 1000
        for row in result["rows"]:
            assert set(row) == {"alpha", "class", "q", "a", "abs_f", "ratio"}

    def test_compare(self, tmp_path):
        result = self.result(
            ["compare", "--range", "845:1000:24", "--k", "2", "--s", "5",
             "--theta", "0.85", "--qmax", "100"], tmp_path)
        assert result
        for row in result:
            assert set(row) == {"n", "R", "prediction", "ratio", "admissible",
                                "anomaly", "error"}


@pytest.mark.parametrize("weight_fn", [prime_indicator, von_mangoldt_weight])
def test_weyl_scan_peak_is_phase_sum_at_zero(weight_fn):
    interval = build_interval(500_000_000, 2, 5, 0.85)
    dissection = build_dissection(interval, default_delta(2, 0.85))
    weight = weight_fn(interval)
    report = weyl_scan(interval, dissection, 1000, weight, seed=7)
    assert report.peak == abs(weighted_exp_sum(0.0, weight, interval))
    assert report.peak >= report.sup_minor


@pytest.mark.parametrize("argv,status,expected", [
    # Three primes (97, 101, 103) in 10^9 slots: the 3^(5 * 10^8) probed
    # tuples alone pass int64, so the count is refused before any table.
    (["count", "--n", str(10**13), "--k", "2", "--s", str(10**9), "--theta", "0.35"], 1,
     "computation error: bits of the count bound: 792481251 exceeds the cap 63\n"),
    # One prime (101) in 10^9 slots, and one integer (5) in 10^9 slots.
    (["count", "--n", "10201000000000", "--k", "2", "--s", str(10**9), "--theta", "0.1"], 0,
     '"R": 1,'),
    (["moments", "--lo", "5", "--hi", "5", "--t", str(10**9)], 0, '"enumeration": 1,'),
    # 123,643 primes past the count cap: the cap waits on the sieve of a
    # window of 4.0 million integers near 10^14, with primes up to 10^7.
    (["count", "--n", "50000000000000000000000000021", "--k", "2", "--s", "5",
      "--theta", "0.45"], 1,
     "computation error: primes to count: 123643 exceeds the cap 50000\n"),
])
def test_huge_folds_finish_quickly(argv, status, expected):
    proc = run_kglab(argv)
    assert proc.returncode == status
    if status:
        assert proc.stderr == expected
    else:
        assert expected in proc.stdout


@pytest.mark.parametrize("argv,step", [
    (["moments", "--lo", "1", "--hi", "10", "--t", "400"], r"40000 \* 10\^800"),
    (["moments", "--lo", "1", "--hi", "2", "--t", "2000"], r"\d+ \* 2\^4000"),
], ids=["w10-t400", "w2-t2000"])
def test_moments_past_the_double_range_exit_1(argv, step):
    proc = run_kglab(argv)
    assert proc.returncode == 1
    assert re.fullmatch(rf"computation error: moment transform: {step} exceeds the double "
                        r"range\n", proc.stderr), proc.stderr


HUGE = str(10**30)
WINDOW = ["--n", "500000000", "--theta", "0.85"]


@pytest.mark.parametrize("argv,status,start", [
    # A negative seed is an invalid config, not a numpy traceback.
    (["weyl-scan", *WINDOW, "--seed", "-1"], 2, "invalid config: need --seed >= 0, got -1"),
    (["vaughan-check", *WINDOW, "--seed", "-1"], 2, "invalid config: need --seed >= 0, got -1"),
    (["sieve-check", "--seed", "-1"], 2, "invalid config: need --seed >= 0, got -1"),
    # Sample and frequency counts past the memory budget exit 1 before any
    # draw: 10^11 samples would ask numpy for 745 GiB or 3.6 TiB.
    (["weyl-scan", *WINDOW, "--samples", HUGE], 1,
     f"computation error: weyl-scan samples: {HUGE} exceeds the cap {SCAN_SAMPLE_CAP}\n"),
    (["weyl-scan", *WINDOW, "--samples", str(10**11)], 1,
     f"computation error: weyl-scan samples: 100000000000 exceeds the cap {SCAN_SAMPLE_CAP}\n"),
    (["sieve-check", "--samples", HUGE], 1,
     f"computation error: sieve-check samples: {HUGE} exceeds the cap {SIEVE_SAMPLE_CAP}\n"),
    (["sieve-check", "--samples", str(10**11)], 1,
     f"computation error: sieve-check samples: 100000000000 exceeds the cap {SIEVE_SAMPLE_CAP}\n"),
    (["vaughan-check", *WINDOW, "--alphas", HUGE], 1,
     f"computation error: vaughan-check frequencies: {HUGE} exceeds the cap {ALPHA_CAP}\n"),
    (["vaughan-check", *WINDOW, "--alphas", str(10**11)], 1,
     f"computation error: vaughan-check frequencies: 100000000000 exceeds the cap {ALPHA_CAP}\n"),
    # Decomposition tables past the budget: a Moebius table of 10^164
    # entries, and of 1.7e8 at n = 5e20 (with a beta table as long).
    (["vaughan-check", "--n", str(10**400)], 1, "computation error: decomposition table entries: "),
    (["vaughan-check", "--n", str(5 * 10**20)], 1,
     "computation error: decomposition table entries: 345451807 exceeds the cap 10000000\n"),
    # Computed integers past Python's 4,300-digit print limit are worded by
    # their bit length: 64 (10^300)^64 + 1 sample points, and s * 2^64 with
    # s of 4,300 nines.
    (["moments", "--lo", "2", "--hi", str(10**300), "--k", "64", "--t", "1"], 1,
     "computation error: moment sample points: a 63782-bit integer exceeds the cap "
     f"{MOMENT_SAMPLE_CAP}\n"),
    # Past the double range the integer window itself is refused, by its hi.
    (["moments", "--lo", "2", "--hi", str(10**400), "--k", "64", "--t", "1"], 1,
     "computation error: integer window: x = (4 lo + 4 hi - 1)/8 exceeds the double range "
     f"at hi={10**400}\n"),
    (["count", "--n", "5", "--k", "64", "--s", "9" * 4300], 2,
     "invalid config: need n >= s * 2^k = a 14349-bit integer, got n=5\n"),
    # An integer window takes the k range of every other window.
    (["moments", "--lo", "1", "--hi", "30", "--k", "65", "--t", "1"], 2,
     "invalid config: need 2 <= k <= 64, got k=65\n"),
    # Overflows past the double range name their step: the convolution's
    # grid scale h^(s-1) at n = 10^100 (the quadrature gives 6.88e110
    # there), and the quadrature's s-th power at n = 10^200.
    (["predict", "--n", str(10**100 + 13), "--k", "2", "--s", "5", "--theta", "0.85",
      "--qmax", "100"], 1,
     "computation error: the density convolution overflows at s=5; use fourier-quadrature\n"),
    (["predict", "--n", str(10**200 + 13), "--k", "2", "--s", "5", "--theta", "0.85",
      "--qmax", "100", "--integral-method", "fourier-quadrature"], 1,
     "computation error: the quadrature's s-th power of the phase integral overflows at s=5\n"),
], ids=["seed-weyl", "seed-vaughan", "seed-sieve", "samples-weyl", "samples-weyl-1e11",
        "samples-sieve", "samples-sieve-1e11", "alphas", "alphas-1e11", "vaughan-1e400",
        "vaughan-5e20", "moments-4300-digits", "moments-hi-1e400", "count-4300-digits", "integer-window-k65",
        "convolution-scale-1e100", "quadrature-power-1e200"])
def test_inputs_past_the_contract_exit_quickly(argv, status, start):
    proc = run_kglab(argv, seconds=1.0)
    assert proc.returncode == status
    assert proc.stderr.startswith(start)


@pytest.mark.parametrize("s", [10**3, 10**5, 10**7])
def test_series_at_huge_s_is_the_local_factor(s):
    # n = 10201 s is s mod 24, and n - s = 10200 s is 0 mod 8 and mod 3, so
    # the local factor is (1 + 1 + 2 + 4)(1 + 2) = 24, and every other
    # term underflows.  The terms at 2, 3, 4 and 8 are Ramanujan sums, exact
    # at any s: at s = 10^7 the complex s-th powers they replaced left an
    # imaginary residue of 5.6e-10 at q = 2, and the run exited 1.
    proc = run_kglab(["singular-series", "--n", str(10201 * s), "--k", "2", "--s", str(s),
                      "--qmax", "100"], seconds=2.0)
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["value"] == result["value_direct"] == 24.0


def test_count_settles_an_exact_tie():
    # x = (50000 / 5)^(1/2) = 100 and y = x^(1/2) = 10, so both ends of the
    # window (90, 110] are integers that no precision separates; it exited
    # 1 with "cannot resolve window boundary".  Its primes are 97 to 109.
    proc = run_kglab(["count", "--n", "50000", "--k", "2", "--s", "5", "--theta", "0.5"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["prime_count"] == 5


def test_no_report_holds_a_non_finite_number():
    # At n near 10^700, x = (n/s)^(1/2) is past the double range: log_x is
    # inf and the normalized constant NaN, and neither is a JSON number.
    proc = run_kglab(["predict", "--n", str(10**700 + 13), "--k", "2", "--s", "5",
                      "--theta", "0.85", "--qmax", "100"])
    assert proc.returncode == 1
    assert proc.stderr == ("computation error: the report holds NaN or Infinity, "
                           "which JSON cannot hold\n")


OVERFLOW = ["--k", "2", "--s", "200", "--theta", "0.1", "--qmax", "100"]


@pytest.mark.parametrize("argv", [
    ["predict", "--n", "2040200", *OVERFLOW, "--integral-method", "density-convolution"],
    ["predict", "--n", "2040200", *OVERFLOW],
    # compare printed a prediction of 0 in these rows; like the pad cap,
    # the overflow now stops the run.
    ["compare", "--range", "2040200:2040400:1", *OVERFLOW],
], ids=["density-convolution", "both", "compare"])
def test_convolution_overflow_exits_1(argv):
    # The convolution's s-th power overflows at s = 200 (it gave 0.0 after
    # numpy warnings).  One convolution at this pad of 3,276,800 samples
    # takes about 0.5 s, so the bound is looser than for the caps.
    proc = run_kglab(argv, seconds=2.0)
    assert proc.returncode == 1
    assert proc.stderr == ("computation error: the density convolution overflows at s=200; "
                           "use fourier-quadrature\n")


def test_readme_quick_start_parses():
    parser = build_parser()
    seen = {parser.parse_args(argv).subcommand for argv in readme_commands()}
    assert seen == set(subparsers())


def registered_dests(name: str) -> set:
    """The dests that subcommand ``name`` registers in `build_parser`."""
    return {action.dest for action in subparsers()[name]._actions}


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_a_report_echoes_the_options_its_subcommand_takes(argv, tmp_path):
    status, text = run_cli(argv + ["--format", "json"], tmp_path)
    assert status == 0
    unset = {dest for dest, value in vars(build_parser().parse_args(argv)).items()
             if value is None}
    expected = {"subcommand", "fmt"} | (registered_dests(argv[0]) - {"help", "out"} - unset)
    assert set(json.loads(text)["config"]) == expected


def test_a_count_report_echoes_its_window_alone(tmp_path):
    status, text = run_cli(["count", "--n", "845", "--k", "2", "--s", "5", "--theta", "0.85"],
                           tmp_path)
    assert status == 0
    assert sorted(json.loads(text)["config"]) == ["fmt", "k", "n", "s", "subcommand", "theta"]


def test_a_moments_report_echoes_its_integer_window_alone(tmp_path):
    status, text = run_cli(["moments", "--lo", "11", "--hi", "20", "--k", "2", "--t", "2"],
                           tmp_path)
    assert status == 0
    assert sorted(json.loads(text)["config"]) == ["fmt", "hi", "k", "lo", "subcommand", "t"]
