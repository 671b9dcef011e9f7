import json

import pytest

from kglab import count_exact, singular_series
from kglab.cli import main


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
    ])
    def test_huge_integers_exit_1_without_traceback(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("computation error: ")
        assert err.count("\n") == 1

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
        import kglab.cli as cli_mod

        real = cli_mod.count_exact

        def flaky(n, k, s, theta):
            if n == 100037:
                from kglab.errors import CapExceeded

                raise CapExceeded("synthetic failure")
            return real(n, k, s, theta)

        monkeypatch.setattr(cli_mod, "count_exact", flaky)
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
