import csv
import hashlib
import json
import time

import numpy as np
import pytest

from jittervan import cli
from jittervan.ensemble import EnsembleConfig, resolve_shape, simulate
from jittervan.errors import NumericalError
from jittervan.jitter import from_name
from jittervan.moments import MOMENT_CAP


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMoments:
    def test_writes_json_with_unit_first_moment(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, stdout, _ = run(
            [
                "moments", "--p-max", "3", "--beta", "0.55", "--d", "2",
                "--jitter", "uniform", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert stdout.count("p=") == 3
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["results"][0]["p"] == 1
        assert payload["results"][0]["value"] == 1.0
        assert len(payload["results"]) == 3

    def test_invalid_beta_exits_2(self, capsys):
        code, _, stderr = run(["moments", "--p-max", "2", "--beta", "1.5"], capsys)
        assert code == 2
        assert "error" in stderr

    def test_unknown_flag_exits_2(self, capsys):
        # the analytic moments draw nothing, so they take no sampling flags
        for flag in ("--bogus", "--seed", "--points", "--replicates"):
            with pytest.raises(SystemExit) as info:
                cli.main(["moments", "--p-max", "2", "--beta", "0.5", flag, "7"])
            assert info.value.code == 2

    def test_p_max_below_one_exits_2(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        for p_max in ("0", "-1"):
            code, stdout, stderr = run(
                ["moments", "--p-max", p_max, "--beta", "0.5", "--out", str(out)], capsys
            )
            assert code == 2 and "--p-max" in stderr
            assert stdout == "" and not out.exists()

    def test_p_max_above_cap_exits_2_before_any_moment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "moment", lambda *_, **__: pytest.fail("moment called"))
        out = tmp_path / "m.json"
        code, stdout, stderr = run(
            [
                "moments", "--p-max", str(MOMENT_CAP + 1), "--beta", "0.55", "--d", "2",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 2 and "--p-max" in stderr
        assert stdout == "" and not out.exists()

    def test_reproducible_output(self, tmp_path, capsys):
        digests = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code, _, _ = run(
                [
                    "moments", "--p-max", "2", "--beta", "0.4", "--out", str(out),
                ],
                capsys,
            )
            assert code == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]


class TestMp:
    def test_values_and_support(self, tmp_path, capsys):
        out = tmp_path / "mp.json"
        code, stdout, _ = run(
            ["mp", "--p-max", "3", "--beta", "0.55", "--out", str(out)], capsys
        )
        assert code == 0
        payload = json.loads(out.read_text())
        values = {row["p"]: row["value"] for row in payload["results"]}
        assert values[1] == pytest.approx(1.0)
        assert values[2] == pytest.approx(1.55)
        assert "support" in payload

    def test_p_max_below_one_exits_2(self, tmp_path, capsys):
        out = tmp_path / "mp.json"
        code, stdout, stderr = run(
            ["mp", "--p-max", "0", "--beta", "0.55", "--out", str(out)], capsys
        )
        assert code == 2 and "--p-max" in stderr
        assert stdout == "" and not out.exists()


class TestSimulate:
    def test_histogram_csv(self, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        eigs = tmp_path / "eigs.csv"
        code, stdout, _ = run(
            [
                "simulate", "--beta", "0.55", "--d", "3", "--budget", "1000",
                "--trials", "5", "--bins", "25", "--seed", "42",
                "--out", str(out), "--eigs-out", str(eigs),
            ],
            capsys,
        )
        assert code == 0
        assert "beta_actual" in stdout
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 25
        assert set(rows[0]) == {"bin_left", "bin_right", "density"}
        mass = sum(
            (float(r["bin_right"]) - float(r["bin_left"])) * float(r["density"])
            for r in rows
        )
        assert mass == pytest.approx(1.0, abs=1e-9)
        with open(eigs) as handle:
            eig_rows = list(csv.DictReader(handle))
        assert len(eig_rows) == 5 * 729
        assert set(eig_rows[0]) == {"trial", "eigenvalue"}

    def test_eigenvalue_csv_matches_simulate(self, tmp_path, capsys):
        eigs = tmp_path / "eigs.csv"
        code, _, _ = run(
            [
                "simulate", "--beta", "0.6", "--d", "1", "--budget", "60",
                "--trials", "3", "--seed", "5", "--eigs-out", str(eigs),
            ],
            capsys,
        )
        assert code == 0
        M, rho, _ = resolve_shape(0.6, 1, 60)
        config = EnsembleConfig(d=1, M=M, rho=rho, dist=from_name("uniform"))
        expected = simulate(config, 3, 5).eigenvalues
        with open(eigs) as handle:
            reader = csv.reader(handle)
            assert next(reader) == ["trial", "eigenvalue"]
            rows = list(reader)
        assert len(rows) == 3 * config.n_rows
        trials = [int(trial) for trial, _ in rows]
        assert trials == [t for t in range(3) for _ in range(config.n_rows)]
        values = np.array([float(value) for _, value in rows])
        assert np.array_equal(values, expected.ravel())

    def test_bins_below_one_exits_2_before_any_trial(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "simulate", lambda *_, **__: pytest.fail("simulate called"))
        out = tmp_path / "h.csv"
        for extra in ([], ["--out", str(out)]):
            code, stdout, stderr = run(
                ["simulate", "--beta", "0.5", "--bins", "0", "--trials", "30", *extra],
                capsys,
            )
            assert code == 2 and "--bins" in stderr
            assert stdout == "" and not out.exists()

    def test_infeasible_budget_exits_2(self, capsys):
        code, _, stderr = run(
            ["simulate", "--beta", "0.5", "--d", "2", "--budget", "4"], capsys
        )
        assert code == 2

    def test_huge_budget_exits_3_at_once(self, capsys):
        # a 1e9-row grid resolves in integers and is refused by the cell budget
        start = time.perf_counter()
        code, _, stderr = run(["simulate", "--beta", "0.5", "--budget", "1000000000"], capsys)
        assert code == 3 and "cell budget" in stderr
        assert time.perf_counter() - start < 2

    def test_bit_identical_reruns(self, tmp_path, capsys):
        digests = []
        for name in ("h1.csv", "h2.csv"):
            out = tmp_path / name
            code, _, _ = run(
                [
                    "simulate", "--beta", "0.6", "--d", "1", "--budget", "60",
                    "--trials", "3", "--bins", "12", "--seed", "5",
                    "--out", str(out),
                ],
                capsys,
            )
            assert code == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]


class TestMse:
    def test_curve_csv_and_negative_grid(self, tmp_path, capsys):
        out = tmp_path / "mse.csv"
        code, stdout, _ = run(
            [
                "mse", "--beta", "0.729", "--d", "1,2", "--snr-db", "-10:30:20",
                "--jitter", "uniform", "--trials", "4", "--budget", "300",
                "--seed", "1", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert {r["source"] for r in rows} == {"empirical", "mp", "equally_spaced"}
        assert {r["snr_db"] for r in rows} == {"-10.0", "10.0", "30.0"}
        # ideal placement never does worse than a jittered spectrum
        for db in ("-10.0", "10.0", "30.0"):
            eq = [float(r["mse"]) for r in rows if r["source"] == "equally_spaced" and r["snr_db"] == db][0]
            for r in rows:
                if r["source"] == "empirical" and r["snr_db"] == db:
                    assert eq <= float(r["mse"]) + 3 * float(r["std_err"]) + 5e-3

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "mse.json"
        code, _, _ = run(
            [
                "mse", "--beta", "0.5", "--d", "1", "--snr-db", "0:20:10",
                "--trials", "3", "--budget", "100", "--format", "json",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "mse" and payload["beta_target"] == 0.5
        sources = {point["source"] for point in payload["points"]}
        assert sources == {"empirical", "mp", "equally_spaced"}

    @pytest.mark.parametrize("grid", ["0:inf:1", "0:4000:1000", "-10:30:1e-300"])
    def test_unusable_snr_grid_exits_2_at_once(self, grid, capsys):
        start = time.perf_counter()
        try:
            code = cli.main(["mse", "--beta", "0.5", f"--snr-db={grid}", "--trials", "2"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2 and "error" in capsys.readouterr().err
        assert time.perf_counter() - start < 2


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, stdout, _ = run(["verify", "--suite", "all"], capsys)
        assert code == 0
        assert "checks passed" in stdout
        assert "FAIL" not in stdout

    def test_single_suite_with_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, _, _ = run(
            ["verify", "--suite", "partitions", "--report", str(report)], capsys
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["kind"] == "verify"
        assert all(check["passed"] for check in payload["checks"])

    def test_failures_exit_3(self, capsys, monkeypatch):
        from jittervan import verify as verify_mod

        monkeypatch.setitem(
            cli.SUITES, "partitions", lambda seed: [verify_mod.Check("forced", False, "")]
        )
        code, stdout, _ = run(["verify", "--suite", "partitions"], capsys)
        assert code == 3
        assert "FAIL" in stdout

    def test_growing_residual_reads_fail(self, capsys, monkeypatch):
        # a distinct-label sum off by r^4 breaks the residual order: the
        # scan reports it as a failed check, not as an escaping exception
        from jittervan import oracle

        exact = oracle.distinct_label_sum
        monkeypatch.setattr(
            oracle, "distinct_label_sum", lambda inst: exact(inst) + inst.r**4
        )
        code, stdout, _ = run(["verify", "--suite", "phase_sums"], capsys)
        assert code == 3
        [line] = [row for row in stdout.splitlines() if "residual_order" in row]
        assert "FAIL" in line


class TestErrorMapping:
    def test_numerical_error_exits_3(self, capsys, monkeypatch):
        def boom(args):
            raise NumericalError("forced")

        monkeypatch.setattr(cli, "_cmd_mp", boom)
        code, _, stderr = run(["mp", "--beta", "0.5"], capsys)
        assert code == 3
        assert "numerical error" in stderr
