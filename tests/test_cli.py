import json
import math
import os
import shlex
import time
from pathlib import Path

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
from kglab.cli import _RUNNERS, build_parser, main
from kglab.intervals import euler_phi

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(argv, tmp_path, name="out.json"):
    path = tmp_path / name
    status = main(argv + ["--out", str(path)])
    return status, path.read_text() if path.exists() else ""


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
        assert result["enumeration"] == 190.0
        assert result["agree"] is True

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

    def test_computation_error_exits_1(self, capsys):
        # Valid config, but the truncation exceeds the series cap at runtime.
        assert main(["singular-series", "--n", "29", "--k", "2", "--s", "5",
                     "--qmax", "200000"]) == 1

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

        monkeypatch.setitem(_RUNNERS, "count", failing)
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
        err = capsys.readouterr().err
        assert err.startswith("computation error: ") and "cap" in err
        assert err.count("\n") == 1

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

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--frequency", "3"])
        assert exc.value.code == 2

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


def test_readme_quick_start_parses():
    text = README.read_text()
    block = text.split("## Quick start", 1)[1].split("```")[1]
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("kglab ")]
    parser = build_parser()
    seen = {parser.parse_args(argv[1:]).subcommand for argv in commands}
    assert seen == set(_RUNNERS)
