"""Command-line surface: CSV schemas, exit codes, config merging."""

import csv
import io

import pytest
from click.testing import CliRunner

from fedamp.accountant import Scheme, calibrate_sigma
from fedamp.cli import (
    CALIBRATE_HEADER,
    CURVE_HEADER,
    METRICS_HEADER,
    VERIFY_HEADER,
    main,
)
from fedamp.simulator import SimConfig, Task, run_training

runner = CliRunner()


def rows_of(output: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(output)))


def header_of(output: str) -> tuple:
    return tuple(next(csv.reader(io.StringIO(output))))


class TestCurve:
    def test_sigma_sweep_three_schemes(self):
        result = runner.invoke(main, [
            "curve", "--scheme", "lb", "--scheme", "main", "--scheme", "ub",
            "--sweep", "sigma", "--from", "0.5", "--to", "2", "--points", "10",
            "--p", "0.1", "--q", "0.1", "--d", "1", "--C", "1", "--eps", "0.1",
        ])
        assert result.exit_code == 0
        assert header_of(result.stdout) == CURVE_HEADER
        rows = rows_of(result.stdout)
        assert len(rows) == 30
        # scheme-major blocks in the order requested
        assert [r["scheme"] for r in rows] == ["lb"] * 10 + ["main"] * 10 + ["ub"] * 10
        lb, mn, ub = rows[:10], rows[10:20], rows[20:]
        for a, b, c in zip(lb, mn, ub):
            assert a["sigma"] == b["sigma"] == c["sigma"]
            assert float(b["delta"]) <= float(c["delta"]) + 1e-12
            assert a["z_star"] == "" and c["z_star"] == ""
            assert b["z_star"] != ""
        for block in (lb, mn, ub):
            deltas = [float(r["delta"]) for r in block]
            assert deltas == sorted(deltas, reverse=True)

    def test_q_sweep_with_fixed_product(self):
        result = runner.invoke(main, [
            "curve", "--scheme", "main", "--sweep", "q-fixed-pq",
            "--from", "0.01", "--to", "1.0", "--points", "4",
            "--pq", "1e-3", "--d", "10", "--C", "1",
            "--sigma", "1", "--delta", "1e-6",
        ])
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        assert [r["error"] for r in rows] == [""] * 4
        for row in rows:
            assert float(row["p"]) * float(row["q"]) == pytest.approx(1e-3)
        eps_path = [float(r["eps"]) for r in rows]
        assert eps_path == sorted(eps_path)

    def test_failed_points_become_rows_and_warning(self):
        result = runner.invoke(main, [
            "curve", "--scheme", "main", "--sweep", "sigma",
            "--from", "-1", "--to", "1", "--points", "2",
            "--p", "0.1", "--q", "0.1", "--d", "1", "--C", "1", "--eps", "0.1",
        ])
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        assert rows[0]["error"] != "" and rows[0]["delta"] == ""
        assert rows[1]["error"] == "" and rows[1]["delta"] != ""
        assert "warning: 1 of 2 grid points failed" in result.stderr

    def test_d_sweep_to_infinity_gives_error_rows(self):
        result = runner.invoke(main, [
            "curve", "--scheme", "ub", "--sweep", "d", "--from", "1", "--to", "inf",
            "--points", "3", "--p", "0.1", "--q", "0.1", "--C", "1", "--sigma", "1",
            "--delta", "1e-6",
        ])
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        assert [r["d"] for r in rows] == ["nan", "inf", "inf"]
        assert all("d must be a nonnegative integer" in r["error"] for r in rows)
        assert "warning: 3 of 3 grid points failed" in result.stderr

    @pytest.mark.parametrize("top", ["1e154", "1e308"])
    def test_main_d_sweep_past_exact_counts_gives_error_row(self, top):
        # Main's lattice counts up to d + 1 must be exact doubles; past
        # 2**53 the row fails closed before any binomial weight is computed
        result = runner.invoke(main, [
            "curve", "--scheme", "main", "--sweep", "d", "--from", "1", "--to", top,
            "--points", "2", "--p", "0.1", "--q", "0.1", "--C", "1", "--sigma", "1",
            "--eps", "0.5",
        ])
        assert result.exit_code == 0
        first, last = rows_of(result.stdout)
        assert first["error"] == "" and first["delta"] != ""
        assert float(last["d"]) == float(top) and last["delta"] == ""
        assert last["error"].startswith("d must be below 2**53")
        assert "warning: 1 of 2 grid points failed" in result.stderr

    def test_scheme_required(self):
        result = runner.invoke(main, [
            "curve", "--sweep", "sigma", "--from", "1", "--to", "2",
            "--points", "2", "--p", "0.1", "--q", "0.1", "--d", "1",
            "--C", "1", "--eps", "0.1",
        ])
        assert result.exit_code == 2

    def test_both_targets_rejected(self):
        result = runner.invoke(main, [
            "curve", "--scheme", "main", "--sweep", "sigma",
            "--from", "1", "--to", "2", "--points", "2",
            "--p", "0.1", "--q", "0.1", "--d", "1", "--C", "1",
            "--eps", "0.1", "--delta", "1e-6",
        ])
        assert result.exit_code == 2

    def test_swept_flag_rejected(self):
        result = runner.invoke(main, [
            "curve", "--scheme", "main", "--sweep", "sigma",
            "--from", "1", "--to", "2", "--points", "2", "--sigma", "1.0",
            "--p", "0.1", "--q", "0.1", "--d", "1", "--C", "1", "--eps", "0.1",
        ])
        assert result.exit_code == 2

    def test_out_file(self, tmp_path):
        out = tmp_path / "curve.csv"
        result = runner.invoke(main, [
            "curve", "--scheme", "main", "--sweep", "sigma",
            "--from", "1", "--to", "2", "--points", "2",
            "--p", "0.1", "--q", "0.1", "--d", "1", "--C", "1", "--eps", "0.1",
            "--out", str(out),
        ])
        assert result.exit_code == 0
        assert result.stdout == ""
        assert header_of(out.read_text()) == CURVE_HEADER

    def test_config_file_fills_gaps_and_flags_win(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# shared grid settings\n"
            "scheme main\n"
            "sweep sigma\n"
            "from 1\n"
            "to 2\n"
            "points = 2\n"
            "p 0.1\n"
            "q 0.1\n"
            "d 1\n"
            "C 1\n"
            "eps 0.5\n"
        )
        from_file = runner.invoke(main, ["curve", "--config", str(cfg)])
        assert from_file.exit_code == 0
        assert float(rows_of(from_file.stdout)[0]["eps"]) == 0.5

        overridden = runner.invoke(
            main, ["curve", "--config", str(cfg), "--eps", "0.1"]
        )
        assert overridden.exit_code == 0
        assert float(rows_of(overridden.stdout)[0]["eps"]) == 0.1


    def test_certified_column(self):
        result = runner.invoke(main, [
            "curve", "--scheme", "main", "--scheme", "ub", "--scheme", "ols",
            "--scheme", "lb", "--sweep", "sigma", "--from", "-1", "--to", "1",
            "--points", "2", "--p", "0.1", "--q", "0.1", "--d", "1", "--C", "1",
            "--eps", "0.1",
        ])
        # the sigma=-1 rows failed and certify nothing
        assert [(r["scheme"], r["certified"]) for r in rows_of(result.stdout)] == [
            ("main", ""), ("main", "false"), ("ub", ""), ("ub", "true"),
            ("ols", ""), ("ols", "true"), ("lb", ""), ("lb", "false"),
        ]


class TestCalibrate:
    def test_reference_point(self):
        result = runner.invoke(main, [
            "calibrate", "--scheme", "ub", "--p", "0.1", "--q", "0.001",
            "--d", "1000", "--C", "1", "--eps", "0.015", "--delta", "1e-6",
        ])
        assert result.exit_code == 0
        assert header_of(result.stdout) == CALIBRATE_HEADER
        row = rows_of(result.stdout)[0]
        assert row["scheme"] == "ub"
        assert float(row["sigma"]) == pytest.approx(0.8738670372456214, rel=1e-9, abs=0.0)

    def test_matches_library_call(self):
        result = runner.invoke(main, [
            "calibrate", "--scheme", "ols", "--p", "0.5", "--q", "0.5",
            "--d", "8", "--C", "1", "--eps", "0.5", "--delta", "1e-5",
        ])
        expected = calibrate_sigma(
            Scheme.ONLY_LOCAL, p=0.5, q=0.5, d=8, C=1.0,
            eps_target=0.5, delta_target=1e-5,
        )
        assert float(rows_of(result.stdout)[0]["sigma"]) == expected

    @pytest.mark.parametrize("scheme, certified", [("main", "false"), ("ols", "true")])
    def test_certified_column(self, scheme, certified):
        result = runner.invoke(main, [
            "calibrate", "--scheme", scheme, "--p", "0.5", "--q", "0.5",
            "--d", "8", "--C", "1", "--eps", "0.5", "--delta", "1e-5",
        ])
        assert rows_of(result.stdout)[0]["certified"] == certified

    def test_missing_parameter(self):
        result = runner.invoke(main, [
            "calibrate", "--scheme", "main", "--p", "0.1", "--q", "0.1",
            "--d", "1", "--C", "1", "--delta", "1e-6",
        ])
        assert result.exit_code == 2

    def test_unreachable_target_exits_3(self):
        result = runner.invoke(main, [
            "calibrate", "--scheme", "ols", "--p", "0.1", "--q", "0.1",
            "--d", "1", "--C", "1", "--eps", "0.015", "--delta", "1e-300",
            "--sigma-cap", "10",
        ])
        assert result.exit_code == 3
        assert "calibration failed" in result.stderr
        assert result.stdout == ""


class TestVerify:
    def test_clean_grid(self):
        result = runner.invoke(main, [
            "verify", "--sweep", "sigma", "--from", "1", "--to", "2",
            "--points", "2", "--p", "0.1", "--q", "0.1", "--d", "1",
            "--C", "1", "--eps", "0.015",
        ])
        assert result.exit_code == 0
        assert header_of(result.stdout) == VERIFY_HEADER
        rows = rows_of(result.stdout)
        assert len(rows) == 2
        for row in rows:
            assert row["single_crossing_ok"] == "true"
            assert row["ordering_ok"] == "true"
            assert float(row["abs_diff"]) <= 1e-10
        assert "verify: 2 points" in result.stderr

    def test_ordering_violation_flagged(self):
        # at this point the lower-bound reduction exceeds the amplified
        # bound, so the ordering column goes false and the exit is nonzero
        result = runner.invoke(main, [
            "verify", "--sweep", "sigma", "--from", "0.5", "--to", "0.5",
            "--points", "1", "--p", "0.1", "--q", "0.1", "--d", "1",
            "--C", "1", "--eps", "0.015",
        ])
        assert result.exit_code == 4
        row = rows_of(result.stdout)[0]
        assert row["ordering_ok"] == "false"
        assert row["single_crossing_ok"] == "true"
        assert "1 failing" in result.stderr

    def test_ajc_spot_check(self):
        result = runner.invoke(main, [
            "verify", "--sweep", "sigma", "--from", "1", "--to", "1",
            "--points", "1", "--p", "0.1", "--q", "0.1", "--d", "1",
            "--C", "1", "--eps", "0.015", "--ajc",
        ])
        assert result.exit_code == 0
        assert "ajc: 50 triples" in result.stderr
        assert "(ok)" in result.stderr


class TestSimulate:
    BASE = [
        "simulate", "--task", "linear_regression", "--N", "10", "--d", "3",
        "--p", "0.5", "--q", "0.5", "--C", "1", "--T", "3", "--eta", "0.1",
        "--m", "2", "--seed", "0",
    ]

    def test_metrics_csv(self):
        result = runner.invoke(main, self.BASE + ["--sigma", "1.0"])
        assert result.exit_code == 0
        assert header_of(result.stdout) == METRICS_HEADER
        rows = rows_of(result.stdout)
        assert [r["iteration"] for r in rows] == ["0", "1", "2"]
        assert all(r["sigma"] == "1" for r in rows)
        assert all(r["eps_round"] == "" for r in rows)

    def test_deterministic(self):
        first = runner.invoke(main, self.BASE + ["--sigma", "1.0"])
        second = runner.invoke(main, self.BASE + ["--sigma", "1.0"])
        assert first.stdout == second.stdout

    def test_loss_cells_round_trip(self):
        result = runner.invoke(main, self.BASE + ["--sigma", "0.3"])
        config = SimConfig(
            N=10, d=3, p=0.5, q=0.5, C=1.0, sigma=0.3, T=3, eta=0.1, m=2, seed=0
        )
        rows = run_training(config, Task.LINEAR_REGRESSION)
        # 17 significant digits reproduce the double exactly
        assert [float(r["loss"]) for r in rows_of(result.stdout)] == [r.loss for r in rows]

    def test_calibrated_sigma_matches_calibrate_command(self):
        result = runner.invoke(main, self.BASE + [
            "--eps", "0.5", "--delta", "1e-5", "--scheme", "ub",
        ])
        assert result.exit_code == 0
        rows = rows_of(result.stdout)
        calibrated = rows_of(runner.invoke(main, [
            "calibrate", "--scheme", "ub", "--p", "0.5", "--q", "0.5", "--d", "3",
            "--C", "1", "--eps", "0.5", "--delta", "1e-5",
        ]).stdout)[0]
        assert {r["sigma"] for r in rows} == {calibrated["sigma"]}
        assert rows[0]["eps_round"] == "0.5"
        assert rows[0]["delta_round"] == "1.0000000000000001e-05"

    def test_default_scheme_is_ub(self):
        targets = ["--eps", "0.5", "--delta", "1e-5"]
        default = rows_of(runner.invoke(main, self.BASE + targets).stdout)
        named = rows_of(runner.invoke(main, self.BASE + targets + ["--scheme", "ub"]).stdout)
        fixed = rows_of(runner.invoke(main, self.BASE + ["--sigma", "1.0"]).stdout)
        assert default == named
        assert {r["certified"] for r in default} == {"true"}
        assert {r["certified"] for r in fixed} == {""}

    def test_main_calibration_is_uncertified(self):
        result = runner.invoke(main, self.BASE + [
            "--eps", "0.5", "--delta", "1e-5", "--scheme", "main",
        ])
        expected = calibrate_sigma(
            Scheme.MAIN, p=0.5, q=0.5, d=3, C=1.0, eps_target=0.5, delta_target=1e-5,
        )
        rows = rows_of(result.stdout)
        assert {float(r["sigma"]) for r in rows} == {expected}
        assert {r["certified"] for r in rows} == {"false"}

    def test_sigma_conflicts_with_targets(self):
        # a set sigma was not calibrated to the targets, so they must not
        # appear in the rows as if certified
        for targets in (["--eps", "0.5"], ["--delta", "1e-5"], ["--eps", "0.5", "--delta", "1e-5"]):
            result = runner.invoke(main, self.BASE + ["--sigma", "1"] + targets)
            assert result.exit_code == 2, targets

    def test_sigma_conflicts_with_scheme(self, tmp_path):
        # --scheme only picks the calibrating scheme, so beside a set sigma
        # it would be dropped; a manifest key for it is ignored, like the
        # other keys a run does not read
        result = runner.invoke(main, self.BASE + ["--sigma", "1", "--scheme", "main"])
        assert result.exit_code == 2
        assert "--sigma conflicts with --scheme" in result.stderr
        assert result.stdout == ""
        fixed = runner.invoke(main, self.BASE + ["--sigma", "1"])
        cfg = write_manifest(tmp_path, [], "scheme main\n")
        from_file = runner.invoke(main, ["simulate", "--config", cfg] + self.BASE[1:] + ["--sigma", "1"])
        assert (from_file.exit_code, from_file.stdout) == (0, fixed.stdout)

    def test_needs_noise_specification(self):
        result = runner.invoke(main, self.BASE)
        assert result.exit_code == 2

    def test_divergence_exit_code(self):
        args = [
            "simulate", "--task", "linear_regression", "--N", "10", "--d", "3",
            "--p", "1.0", "--q", "1.0", "--C", "1", "--T", "3",
            "--eta", "1e160", "--m", "2", "--seed", "0", "--sigma", "0",
        ]
        result = runner.invoke(main, args)
        assert result.exit_code == 5
        assert "simulation diverged" in result.stderr


class TestDomainErrors:
    """A value outside its domain exits 2 with the reason, no traceback."""

    CALIBRATE = ["calibrate", "--scheme", "ub", "--p", "0.1", "--q", "0.1",
                 "--d", "30", "--C", "1", "--eps", "0.015", "--delta", "1e-6"]
    SIMULATE = TestSimulate.BASE
    GRID = ["--sweep", "sigma", "--from", "1", "--to", "2", "--points", "2",
            "--p", "0.1", "--q", "0.1", "--d", "1", "--C", "1"]
    CURVE = ["curve", "--scheme", "main", "--scheme", "ub"] + GRID
    VERIFY = ["verify"] + GRID
    # `sweep` requires the coordinates that a sweep does not supply
    NO_P = ["--sweep", "sigma", "--from", "1", "--to", "2", "--points", "2",
            "--q", "0.1", "--d", "3", "--C", "1", "--eps", "0.1"]

    @pytest.mark.parametrize("args, reason", [
        (CALIBRATE + ["--p", "2"], "p must lie in (0, 1]"),
        (CALIBRATE + ["--delta", "2"], "delta_target must lie in (0, 1)"),
        (SIMULATE + ["--N", "0", "--sigma", "1"], "N must be a positive integer"),
        (SIMULATE + ["--N", "0", "--eps", "0.5", "--delta", "1e-5"], "N must be a positive integer"),
        (SIMULATE + ["--eps", "-1", "--delta", "1e-5"], "eps_target must be positive"),
        (CURVE + ["--eps", "0.1", "--delta", "1e-6"], "sigma sweep needs exactly one of eps/delta fixed"),
        (VERIFY + ["--eps", "0.1", "--delta", "1e-6"], "sigma sweep needs exactly one of eps/delta fixed"),
        (CALIBRATE + ["--eps", "800"], "overflows (e^eps - 1)/rate"),
        (CALIBRATE + ["--eps", "800", "--scheme", "main"], "overflows (e^eps - 1)/rate"),
        (CALIBRATE + ["--eps", "800", "--scheme", "lb"], "overflows (e^eps - 1)/rate"),
        (SIMULATE + ["--eps", "800", "--delta", "1e-6"], "overflows (e^eps - 1)/rate"),
        (CALIBRATE + ["--scheme", "main", "--sigma-cap", "1e200"], "sigma**2 overflows"),
        (CALIBRATE + ["--sigma-cap", "1e-4"], "sigma bracket [0.001, 0.0001] is empty"),
        (SIMULATE + ["--sigma", "1", "--scheme", "ub"], "--sigma conflicts with --scheme"),
        (["curve", "--scheme", "ub"] + NO_P, "sigma sweep needs p fixed"),
        (["verify"] + NO_P, "sigma sweep needs p fixed"),
    ], ids=["calibrate-p", "calibrate-delta", "simulate-N", "simulate-N-calibrated", "simulate-eps",
            "curve-targets", "verify-targets", "calibrate-eps-ub", "calibrate-eps-main",
            "calibrate-eps-lb", "simulate-eps-overflow", "calibrate-sigma-cap",
            "calibrate-sigma-cap-below-floor", "simulate-sigma-scheme", "curve-no-p",
            "verify-no-p"])
    def test_usage_error(self, args, reason):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert reason in result.stderr
        assert result.stdout == ""
        # the usage line names the failing command, as for click's own errors
        usage, _, error = result.stderr.partition("\nError: ")
        assert usage.startswith(f"Usage: main {args[0]} [OPTIONS]\n")
        assert reason in error

    def test_main_calibration_past_exact_counts(self):
        # refused before numpy is asked for a lattice of 1e23 counts
        args = ["calibrate", "--scheme", "main", "--p", "0.1", "--q", "0.1",
                "--d", "100000000000000000000000", "--C", "1", "--eps", "0.5",
                "--delta", "1e-6"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("Usage: main calibrate [OPTIONS]\n")
        assert "Error: d must be below 2**53 for exact lattice counts, got 1e+23" in result.stderr


class TestOutFile:
    """--out FILE receives exactly what stdout would."""

    @pytest.mark.parametrize("args", [
        TestDomainErrors.CALIBRATE,
        TestDomainErrors.CURVE + ["--eps", "0.1"],
        TestDomainErrors.VERIFY + ["--eps", "0.015"],
        TestSimulate.BASE + ["--sigma", "1.0"],
        TestSimulate.BASE + ["--eps", "0.5", "--delta", "1e-5"],
    ], ids=["calibrate", "curve", "verify-sweep", "simulate", "simulate-calibrated"])
    def test_out_file_equals_stdout(self, tmp_path, args):
        to_stdout = runner.invoke(main, args)
        out = tmp_path / "out.csv"
        to_file = runner.invoke(main, args + ["--out", str(out)])
        assert to_stdout.exit_code == to_file.exit_code == 0
        assert to_file.stdout == ""
        assert to_file.stderr == to_stdout.stderr
        assert out.read_bytes() == to_stdout.stdout_bytes


def write_manifest(tmp_path, flags, extra=""):
    """A manifest holding every `--key value` pair of flags, plus extra lines."""
    pairs = zip(flags[::2], flags[1::2])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k[2:]} {v}\n" for k, v in pairs) + extra)
    return str(cfg)


class TestManifest:
    """--config: a manifest fills the value flags a command reads; flags win."""

    CALIBRATE = [
        "--scheme", "ub", "--p", "0.1", "--q", "0.1", "--d", "30", "--C", "1",
        "--eps", "0.015", "--delta", "1e-6", "--sigma-cap", "100",
    ]
    VERIFY_SWEEP = [
        "--sweep", "sigma", "--from", "1", "--to", "2", "--points", "2",
        "--p", "0.1", "--q", "0.1", "--d", "1", "--C", "1", "--eps", "0.015",
    ]

    @pytest.mark.parametrize("command, flags", [
        ("calibrate", CALIBRATE),
        ("simulate", TestSimulate.BASE[1:] + ["--eps", "0.5", "--delta", "1e-5", "--scheme", "lb"]),
        ("verify", VERIFY_SWEEP),
    ])
    def test_manifest_only_run_matches_flags(self, tmp_path, command, flags):
        from_flags = runner.invoke(main, [command] + flags)
        from_file = runner.invoke(main, [command, "--config", write_manifest(tmp_path, flags)])
        assert from_flags.exit_code == 0
        assert (from_file.exit_code, from_file.stdout, from_file.stderr) == (
            0, from_flags.stdout, from_flags.stderr
        )

    def test_flag_overrides_manifest(self, tmp_path):
        cfg = write_manifest(tmp_path, self.CALIBRATE)
        overridden = runner.invoke(main, ["calibrate", "--config", cfg, "--eps", "0.5", "--scheme", "ols"])
        # a repeated single-value flag takes its last value
        flags = self.CALIBRATE + ["--eps", "0.5", "--scheme", "ols"]
        assert overridden.exit_code == 0
        assert overridden.stdout == runner.invoke(main, ["calibrate"] + flags).stdout
        assert rows_of(overridden.stdout)[0]["scheme"] == "ols"

    def test_unread_keys_ignored(self, tmp_path):
        out = tmp_path / "never.csv"
        cfg = write_manifest(tmp_path, self.CALIBRATE, f"out {out}\najc true\npq 1e-3\n")
        result = runner.invoke(main, ["calibrate", "--config", cfg])
        assert result.exit_code == 0
        assert result.stdout == runner.invoke(main, ["calibrate"] + self.CALIBRATE).stdout
        assert not out.exists()

        cfg = write_manifest(tmp_path, self.VERIFY_SWEEP, f"out {out}\najc true\n")
        result = runner.invoke(main, ["verify", "--config", cfg])
        assert result.exit_code == 0
        assert "ajc:" not in result.stderr
        assert header_of(result.stdout) == VERIFY_HEADER
        assert not out.exists()

    def test_swept_key_ignored_but_swept_flag_rejected(self, tmp_path):
        cfg = write_manifest(tmp_path, self.VERIFY_SWEEP, "sigma 7\n")
        from_file = runner.invoke(main, ["verify", "--config", cfg])
        assert from_file.exit_code == 0
        assert [r["sigma"] for r in rows_of(from_file.stdout)] == ["1", "2"]
        flagged = runner.invoke(main, ["verify", "--config", cfg, "--sigma", "7"])
        assert flagged.exit_code == 2

    SIMULATE_TARGETS = ["--eps", "0.5", "--delta", "1e-5"]

    @pytest.mark.parametrize("keys, typed", [
        ("sigma 1\n", SIMULATE_TARGETS),
        ("sigma 1\ndelta 1e-5\n", SIMULATE_TARGETS[:2]),
    ], ids=["typed-targets", "typed-eps-manifest-delta"])
    def test_typed_targets_outrank_manifest_sigma(self, tmp_path, keys, typed):
        from_flags = runner.invoke(main, TestSimulate.BASE + self.SIMULATE_TARGETS)
        cfg = write_manifest(tmp_path, [], keys)
        from_file = runner.invoke(main, ["simulate", "--config", cfg] + TestSimulate.BASE[1:] + typed)
        assert from_flags.exit_code == 0
        assert (from_file.exit_code, from_file.stdout) == (0, from_flags.stdout)

    def test_typed_sigma_outranks_manifest_targets(self, tmp_path):
        from_flags = runner.invoke(main, TestSimulate.BASE + ["--sigma", "1"])
        cfg = write_manifest(tmp_path, self.SIMULATE_TARGETS)
        typed = TestSimulate.BASE[1:] + ["--sigma", "1"]
        from_file = runner.invoke(main, ["simulate", "--config", cfg] + typed)
        assert from_flags.exit_code == 0
        assert (from_file.exit_code, from_file.stdout) == (0, from_flags.stdout)

    @pytest.mark.parametrize("targets", [SIMULATE_TARGETS, SIMULATE_TARGETS[:2], SIMULATE_TARGETS[2:]],
                             ids=["eps-delta", "eps", "delta"])
    def test_manifest_sigma_and_targets_conflict(self, tmp_path, targets):
        # with no typed flag to settle it, a manifest holding both is a usage error
        cfg = write_manifest(tmp_path, TestSimulate.BASE[1:] + ["--sigma", "1"] + targets)
        result = runner.invoke(main, ["simulate", "--config", cfg])
        assert result.exit_code == 2
        assert "--sigma conflicts with --eps/--delta calibration" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("schemes", ["main,ub", "main ub", "main, ub"])
    def test_scheme_list(self, tmp_path, schemes):
        flags = self.VERIFY_SWEEP[:-2] + ["--eps", "0.5"]
        cfg = write_manifest(tmp_path, flags, f"scheme {schemes}\n")
        result = runner.invoke(main, ["curve", "--config", cfg])
        assert result.exit_code == 0
        assert [r["scheme"] for r in rows_of(result.stdout)] == ["main", "main", "ub", "ub"]


class TestUsageBeforeOutput:
    """A bad flag set exits 2 before any CSV is written or --out is opened."""

    SWEEP = ["verify", "--sweep", "sigma", "--from", "1", "--to", "2", "--points", "2",
             "--p", "0.1", "--q", "0.1", "--C", "1"]

    @pytest.mark.parametrize("extra", [
        ["--d", "1", "--eps", "0.1", "--delta", "1e-6"],
        ["--d", "1"],
        ["--eps", "0.1"],
    ])
    def test_verify_sweep_writes_nothing(self, tmp_path, extra):
        result = runner.invoke(main, self.SWEEP + extra)
        assert result.exit_code == 2
        assert result.stdout == ""
        out = tmp_path / "verify.csv"
        result = runner.invoke(main, self.SWEEP + extra + ["--out", str(out)])
        assert result.exit_code == 2
        assert not out.exists()
