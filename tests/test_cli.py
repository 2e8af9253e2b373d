"""Tests for the command-line interface: exit codes, outputs, overrides."""

import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from kellypool import SWEEP_IDS, WITHDRAWAL_PERIODS, cli, reports
from kellypool.cli import main

# JSON text nested too deeply for the parser: json.loads raises RecursionError.
DEEPLY_NESTED = "[" * 200_000 + "]" * 200_000


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuote:
    def test_reference_quote(self, capsys):
        code, out, _ = run_cli(
            capsys, "quote", "--q", "0.4", "--amount", "800", "--liquidity", "1800", "--premium", "0"
        )
        assert code == 0
        assert "f: 0.4444" in out
        assert "b: 0.3789" in out
        assert "premium: 303.16" in out

    def test_small_share_small_premium(self, capsys):
        code, out, _ = run_cli(
            capsys, "quote", "--q", "0.05", "--amount", "100", "--liquidity", "10000"
        )
        assert code == 0
        assert "premium: 0.26" in out

    def test_unpriceable_invoice_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "quote", "--q", "0.6", "--amount", "700", "--liquidity", "300"
        )
        assert code == 2
        assert err == (
            "error: q(f+1) = 2.000000 >= 1: no positive premium exists "
            "(reduce q or the demanded share of the pool)\n"
        )

    def test_bad_share_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "quote", "--q", "1.2", "--amount", "100", "--liquidity", "1000"
        )
        assert code == 2
        assert err == "error: q must lie strictly inside (0, 1), got 1.2\n"

    def test_empty_pool_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "quote", "--q", "0.2", "--amount", "100", "--liquidity", "0"
        )
        assert code == 2
        assert err == "error: pool volume must be positive to quote\n"

    @pytest.mark.parametrize("flag", ["--q", "--amount", "--liquidity", "--premium"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input_exits_2(self, capsys, flag, value):
        values = {"--q": "0.2", "--amount": "100", "--liquidity": "1000", "--premium": "0"}
        values[flag] = value
        code, out, err = run_cli(capsys, "quote", *(f"{k}={v}" for k, v in values.items()))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} must be a finite number")

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--q", "0.4", "--amount", "1e30", "--liquidity", "1e31"], "--amount is 1e+30"),
            (["--q", "0.4", "--amount", "1e308", "--liquidity", "1e308", "--premium", "1e308"],
             "--amount is 1e+308"),
            # inputs inside the envelope, a premium of 2.25e27 euros outside it
            (["--q", "0.5", "--amount", "1e12", "--liquidity", "1000000000000.0002"],
             "the quoted premium is 2.2518e+27"),
        ],
        ids=["amount", "all_inputs", "premium"],
    )
    def test_money_beyond_the_envelope_exits_2(self, capsys, argv, named):
        code, out, err = run_cli(capsys, "quote", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {named} euros, not below 2**53 cents")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--liquidity=-500", "--premium", "1000"], "--liquidity"),
            # a reserve sum of 1e7 euros from a negative premium reserve
            (["--liquidity", "1e13", "--premium=-9.99999e12"], "--premium"),
        ],
        ids=["liquidity", "premium"],
    )
    def test_negative_reserve_exits_2(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "quote", "--q", "0.4", "--amount", "100", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} must not be negative")


class TestSimulate:
    def test_preset_run_writes_bundle(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "5.1", "--sims", "3", "--seed", "42",
            "--withdraw-period", "30", "--out", str(tmp_path),
        )
        assert code == 0
        cell = tmp_path / "5.1_p30"
        for name in (
            "metrics.json", "metrics.csv", "config.json",
            "timeseries_no_withdrawal.csv", "timeseries_withdrawal.csv",
            "runs_no_withdrawal.csv", "runs_withdrawal.csv",
        ):
            assert (cell / name).exists()
        assert "pct_accepted" in out
        record = json.loads((cell / "metrics.json").read_text())
        assert record["config"]["seed"] == 42
        assert record["config"]["n_simulations"] == 3

    def test_unknown_scenario_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--scenario", "nope", "--out", str(tmp_path))
        assert code == 2
        assert "unknown scenario" in err

    def test_needs_exactly_one_source(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--out", str(tmp_path))
        assert code == 2
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_invoices": 5, "n_simulations": 2}))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", "5.3", "--config", str(config_path),
            "--out", str(tmp_path),
        )
        assert code == 2

    def test_config_file_with_override(self, capsys, tmp_path):
        config_path = tmp_path / "my.json"
        config_path.write_text(
            json.dumps({"scenario_id": "mine", "n_invoices": 10, "n_simulations": 2, "seed": 1})
        )
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "4",
            "--out", str(tmp_path),
        )
        assert code == 0
        snapshot = json.loads((tmp_path / "mine_p30" / "config.json").read_text())
        assert snapshot["config"]["n_simulations"] == 4
        assert snapshot["config"]["n_invoices"] == 10

    def test_custom_max_entry_days_is_kept(self, capsys, tmp_path):
        config_path = tmp_path / "short.json"
        config_path.write_text(
            json.dumps({"scenario_id": "short", "max_entry_days": 100, "n_simulations": 2})
        )
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(config_path), "--out", str(tmp_path),
        )
        assert code == 0
        horizon_row = next(line for line in out.splitlines() if line.startswith("horizon_days"))
        assert horizon_row.split()[1:3] == ["250", "250"]
        cell = tmp_path / "short_p30"
        snapshot = json.loads((cell / "config.json").read_text())
        record = json.loads((cell / "metrics.json").read_text())
        for config in (snapshot["config"], record["config"]):
            assert (config["max_entry_days"], config["horizon_days"]) == (100, 250)
        for name in ("no_withdrawal", "withdrawal"):
            assert record["metrics"][name]["horizon_days"] == 250
            assert record["metrics"][name]["avg_accepted"] <= 100

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exits_2(self, capsys, tmp_path, source):
        if source == "flag":
            argv = ["--scenario", "2.3", "--seed", "-1"]
        else:
            config_path = tmp_path / "seeded.json"
            config_path.write_text(json.dumps({"seed": -5, "n_simulations": 1}))
            argv = ["--config", str(config_path)]
        code, _, err = run_cli(capsys, "simulate", *argv, "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: seed must be non-negative")

    @pytest.mark.parametrize("scenario_id", ["../escaped", "a/b", "", "bad\ud800id"])
    def test_scenario_id_that_is_no_directory_name_exits_2(self, capsys, tmp_path, scenario_id):
        config_path = tmp_path / "named.json"
        config_path.write_text(json.dumps({"scenario_id": scenario_id, "n_simulations": 1}))
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", str(config_path), "--out", str(out))
        assert code == 2
        assert err.startswith("error: scenario_id must")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["named.json"]

    @pytest.mark.parametrize("sims, policy", [("1", "with"), ("2", "both")])
    def test_max_entry_days_sets_the_invoice_count(self, capsys, tmp_path, sims, policy):
        # one simulation of one policy runs the scalar loop, the rest run lanes
        config_path = tmp_path / "short.json"
        config_path.write_text(json.dumps({"scenario_id": "short", "max_entry_days": 100}))
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", sims,
            "--policy", policy, "--out", str(tmp_path),
        )
        assert code == 0
        record = json.loads((tmp_path / "short_p30" / "metrics.json").read_text())
        for name in record["policies"]:
            metrics = record["metrics"][name]
            assert metrics["total_invoices"] == 100
            assert metrics["pct_accepted"] == metrics["avg_accepted"]
        if sims == "2":
            assert record["metrics"]["no_withdrawal"]["pct_accepted"] == 31.5

    def test_bad_config_file_exits_2(self, capsys, tmp_path):
        config_path = tmp_path / "bad.json"
        for content, message in (
            (json.dumps({"n_invoices": 5, "bogus_field": 1}).encode(), "unknown config fields"),
            (b'{"scenario_id": "caf\xe9"}', "UTF-8"),
            (DEEPLY_NESTED.encode(), "not valid UTF-8 JSON"),
        ):
            config_path.write_bytes(content)
            code, _, err = run_cli(
                capsys, "simulate", "--config", str(config_path), "--out", str(tmp_path)
            )
            assert code == 2
            assert message in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_simulations", "3"),
            ("q_range", 5),
            ("seed", "x"),
            ("n_invoices", 2.5),
            ("withdrawal_enabled", "no"),
            ("initial_collateral", True),
            ("initial_collateral", float("inf")),
            ("amount_range", [100, float("inf")]),
            ("delay_range_days", [30, 60, 90]),
        ],
    )
    def test_wrongly_typed_config_field_exits_2(self, capsys, tmp_path, field, value):
        config_path = tmp_path / "typed.json"
        config_path.write_text(json.dumps({"n_invoices": 5, "n_simulations": 1, field: value}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(config_path), "--out", str(tmp_path))
        assert code == 2
        assert field in err

    @pytest.mark.parametrize(
        "config",
        [
            # a repayment ring of 2**40 days (64 TiB) used to be allocated mid-run
            {"delay_range_days": [30, 1099511627776], "n_simulations": 2, "n_invoices": 5},
            # initial funds that overflow to inf used to fail the ledger guard with nan
            {"initial_collateral": 1e308, "initial_premium": 1e308},
            # premiums that used to carry the pool past 2**53 cents
            {"initial_collateral": 1e9, "n_invoices": 5, "q_range": [0.999999, 0.999999],
             "amount_range": [1000.0, 1000.0], "delay_range_days": [1, 1], "n_simulations": 1},
        ],
    )
    def test_config_outside_envelope_exits_2(self, capsys, tmp_path, config):
        config_path = tmp_path / "huge.json"
        config_path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "simulate", "--config", str(config_path), "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ")

    def test_collateral_below_a_cent_exits_2(self, capsys, tmp_path):
        # below a cent the ratios to the collateral overflow the report rounding
        config_path = tmp_path / "tiny.json"
        config_path.write_text(json.dumps(
            {"initial_collateral": 1e-9, "initial_premium": 5e13, "n_simulations": 2, "n_invoices": 10}
        ))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config_path), "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: initial_collateral") and "Traceback" not in err

    def test_zero_euro_invoices_exit_2(self, capsys, tmp_path):
        # 5e-324 x 0.01 underflows to a fixed amount of 0.0 euros, which the
        # scalar loop refused mid-run and the lanes accepted
        config_path = tmp_path / "zero.json"
        config_path.write_text(json.dumps(
            {"initial_collateral": 0.01, "amount_range": None, "amount_fraction_of_initial": 5e-324,
             "n_invoices": 5}
        ))
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "1", "--policy", "without",
            "--out", str(tmp_path),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: amount_fraction_of_initial") and "Traceback" not in err

    def test_builds_one_metrics_record(self, capsys, tmp_path, monkeypatch):
        calls = Counter()
        for module in (reports, cli):
            monkeypatch.setattr(module, "metrics_record", counting(calls, module, "metrics_record"))
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "5.1", "--sims", "2", "--out", str(tmp_path)
        )
        assert code == 0 and "amm_profit_pct" in out
        assert calls == {"metrics_record": 1}

    @pytest.mark.parametrize(
        "config, policy",
        [
            (
                {"initial_collateral": 1e9, "amount_range": None,
                 "amount_fraction_of_initial": 0.1, "n_simulations": 4},
                "both",
            ),
            ({"initial_collateral": 1e12, "n_simulations": 20}, "both"),
            # one batch of one simulation runs the scalar loop
            ({"initial_collateral": 1e10, "n_simulations": 1}, "with"),
        ],
    )
    def test_large_pool_passes_the_ledger_guard(self, capsys, tmp_path, config, policy):
        config_path = tmp_path / "large.json"
        config_path.write_text(json.dumps(config))
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(config_path), "--policy", policy,
            "--out", str(tmp_path),
        )
        assert (code, err) == (0, "")

    def test_single_policy_run(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", "5.3", "--sims", "2", "--policy", "without",
            "--out", str(tmp_path),
        )
        assert code == 0
        cell = tmp_path / "5.3_p30"
        assert (cell / "timeseries_no_withdrawal.csv").exists()
        assert not (cell / "timeseries_withdrawal.csv").exists()
        record = json.loads((cell / "metrics.json").read_text())
        assert record["policies"] == ["no_withdrawal"]

    def test_unwritable_output_exits_3(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", "5.3", "--sims", "1",
            "--out", str(blocker / "sub"),
        )
        assert code == 3
        assert "I/O error" in err

    def test_bad_period_rejected_by_parser(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--scenario", "5.3", "--withdraw-period", "7"])
        assert excinfo.value.code == 2
        # every cell writes one file set; there is no --format to choose it,
        # and no --verbose to print timings
        for command in (["simulate", "--scenario", "5.3"], ["sweep"]):
            for flag in (["--format", "json"], ["--verbose"]):
                with pytest.raises(SystemExit) as excinfo:
                    main([*command, *flag, "--out", str(tmp_path)])
                assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "seed, sims, policy", [("19", "2", "both"), ("2", "1", "without"), ("2", "2", "without")]
    )
    def test_large_pool_keeps_its_books(self, capsys, tmp_path, seed, sims, policy):
        # 2e10 euros, where the payout's rounding alone exceeds the 1e-6
        # conservation guard; one simulation runs the scalar loop, two the lanes
        config_path = tmp_path / "large.json"
        config_path.write_text(json.dumps({
            "scenario_id": "large", "initial_collateral": 2e10, "n_invoices": 60,
            "amount_range": None, "amount_fraction_of_initial": 1.0, "q_range": [0.3, 0.45],
            "delay_range_days": [20, 40], "lp_contribution_probability": 1.0,
            "lp_cap_fraction": 0.01, "nonpayment_probability": 0.5,
        }))
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(config_path), "--seed", seed, "--sims", sims,
            "--policy", policy, "--out", str(tmp_path / "out"),
        )
        assert (code, err) == (0, "")


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    code = main(["sweep", "--sims", "2", "--out", str(out), "--seed", "3"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def sims1_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep_sims1")
    assert main(["sweep", "--sims", "1", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def sweep_seed4_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep_seed4")
    assert main(["sweep", "--sims", "2", "--out", str(out), "--seed", "4"]) == 0
    return out


def counting(calls: Counter, module, name: str):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return counted


@pytest.fixture(scope="module")
def spied_sweep(tmp_path_factory):
    """A ``sweep --sims 2`` that counts the report encoders' calls and keeps
    each cell's result and the record the diff report got, by cell name."""
    out = tmp_path_factory.mktemp("spied_sweep")
    calls, cells, diffed = Counter(), {}, {}
    export_bundle, diff_row = cli.export_bundle, cli.diff_row_from_metrics_record

    def exporting(cell, directory, *rest):
        cells[Path(directory).name] = cell
        return export_bundle(cell, directory, *rest)

    def diffing(record):
        diffed[f"{record['scenario_id']}_p{record['config']['withdrawal_period_days']}"] = record
        return diff_row(record)

    with pytest.MonkeyPatch.context() as patch:
        for name in ("metrics_record", "_timeseries_text", "_rounded_metric_rows"):
            patch.setattr(reports, name, counting(calls, reports, name))
        patch.setattr(cli, "metrics_record", counting(calls, cli, "metrics_record"))
        patch.setattr(cli, "export_bundle", exporting)
        patch.setattr(cli, "diff_row_from_metrics_record", diffing)
        assert main(["sweep", "--sims", "2", "--out", str(out), "--seed", "6"]) == 0
    return out, calls, cells, diffed


class TestSweepBuildsEachResultOnce:
    def test_each_record_and_batch_text_is_built_once(self, spied_sweep):
        # 75 cells of 100 distinct batches: a preset's three period cells
        # share their no-withdrawal batch, and each record feeds both the
        # cell's files and the diff report
        _, calls, _, _ = spied_sweep
        assert calls == {"metrics_record": 75, "_timeseries_text": 100,
                         "_rounded_metric_rows": 75 + 100}

    def test_diff_report_gets_the_written_record(self, spied_sweep):
        out, _, cells, diffed = spied_sweep
        assert len(cells) == 75 and diffed.keys() == cells.keys()
        for name, cell in cells.items():
            assert diffed[name] == reports.metrics_record(cell)
            assert diffed[name] == json.loads((out / name / "metrics.json").read_text(encoding="utf-8"))

    def test_period_cells_hold_the_same_no_withdrawal_bytes(self, spied_sweep):
        out = spied_sweep[0]
        for scenario_id in SWEEP_IDS:
            for kind in ("timeseries", "runs"):
                texts = {(out / f"{scenario_id}_p{period}" / f"{kind}_no_withdrawal.csv").read_bytes()
                         for period in WITHDRAWAL_PERIODS}
                assert len(texts) == 1, (scenario_id, kind)


class TestSweep:
    def test_covers_grid(self, sweep_dir, capsys):
        cells = [p for p in sweep_dir.iterdir() if p.is_dir()]
        assert len(cells) == 75  # 25 scenarios x 3 periods
        for period in (1, 30, 90):
            assert (sweep_dir / f"2.3_p{period}" / "metrics.json").exists()

    def test_diff_report_written(self, sweep_dir, capsys):
        lines = (sweep_dir / "diff_report.csv").read_text().splitlines()
        assert lines[1].startswith("scenario_id,withdrawal_period_days")
        assert len(lines) == 2 + 75

    @pytest.mark.parametrize("scenario_id,period", [("3.1", 1), ("3.2", 90)])
    def test_short_horizon_cell_equals_simulate(
        self, sweep_seed4_dir, capsys, tmp_path, scenario_id, period
    ):
        # the sweep steps these 590- and 620-day batches beside 650-day ones
        code = main(["simulate", "--scenario", scenario_id, "--withdraw-period", str(period),
                     "--sims", "2", "--seed", "4", "--out", str(tmp_path)])
        assert code == 0
        swept = sweep_seed4_dir / f"{scenario_id}_p{period}"
        alone = tmp_path / swept.name
        names = sorted(path.name for path in swept.iterdir())
        assert names == sorted(path.name for path in alone.iterdir())
        for name in names:
            assert (swept / name).read_bytes() == (alone / name).read_bytes(), name

    def test_rerun_skips_completed_cells(self, sweep_dir, capsys):
        code = main(["sweep", "--sims", "2", "--out", str(sweep_dir), "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("skipping") == 75

    def test_resume_completes_missing_cells(self, sweep_dir, capsys, tmp_path):
        # wipe one cell and resume: only that cell is recomputed
        import shutil

        target = sweep_dir / "4.1_p90"
        shutil.rmtree(target)
        code = main(["sweep", "--sims", "2", "--out", str(sweep_dir), "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("skipping") == 74
        assert (target / "metrics.json").exists()

    def test_changed_config_is_recomputed(self, capsys, tmp_path):
        assert main(["sweep", "--sims", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--sims", "3", "--out", str(tmp_path)]) == 0
        assert "skipping" not in capsys.readouterr().out
        record = json.loads((tmp_path / "2.3_p30" / "metrics.json").read_text())
        assert record["config"]["n_simulations"] == 3
        assert record["metrics"]["withdrawal"]["n_simulations"] == 3

    def test_changed_policy_is_recomputed(self, capsys, tmp_path):
        assert main(["sweep", "--sims", "1", "--policy", "with", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--sims", "1", "--out", str(tmp_path)]) == 0
        assert "skipping" not in capsys.readouterr().out
        assert (tmp_path / "2.3_p30" / "timeseries_no_withdrawal.csv").exists()

    def test_all_skip_rerun_writes_the_same_diff_report(self, capsys, tmp_path):
        assert main(["sweep", "--sims", "1", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "diff_report.csv").read_bytes()
        assert len(report.splitlines()) == 2 + 75
        capsys.readouterr()
        (tmp_path / "diff_report.csv").unlink()
        assert main(["sweep", "--sims", "1", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.count("skipping") == 75
        assert (tmp_path / "diff_report.csv").read_bytes() == report

    def test_period_is_not_a_sweep_flag(self, capsys, tmp_path):
        # the sweep iterates all withdrawal periods itself
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--withdraw-period", "30", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_policy_change_leaves_only_the_new_file_set(self, capsys, tmp_path):
        assert main(["sweep", "--sims", "1", "--out", str(tmp_path)]) == 0
        assert main(["sweep", "--sims", "2", "--policy", "with", "--out", str(tmp_path)]) == 0
        cell = tmp_path / "2.3_p30"
        assert sorted(p.name for p in cell.iterdir()) == [
            "config.json", "metrics.csv", "metrics.json",
            "runs_withdrawal.csv", "timeseries_withdrawal.csv",
        ]

    def test_sweep_without_paired_cells_removes_the_diff_report(self, capsys, tmp_path):
        # the paired run's report would list no-withdrawal profits the cells no longer hold
        assert main(["sweep", "--sims", "1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "diff_report.csv").exists()
        assert main(["sweep", "--sims", "1", "--policy", "with", "--out", str(tmp_path)]) == 0
        assert not (tmp_path / "diff_report.csv").exists()

    @pytest.mark.parametrize(
        "name", ["metrics.csv", "timeseries_withdrawal.csv", "runs_no_withdrawal.csv"]
    )
    def test_missing_file_is_rewritten(self, sweep_dir, capsys, name):
        path = sweep_dir / "1.2_p1" / name
        expected = path.read_bytes()
        path.unlink()
        code = main(["sweep", "--sims", "2", "--out", str(sweep_dir), "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("skipping") == 74
        assert path.read_bytes() == expected

    def test_interrupted_rewrite_is_recomputed(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "sweep"
        assert main(["sweep", "--sims", "1", "--out", str(out)]) == 0
        atomic_write = reports._atomic_write

        def failing_write(path, text):
            if path.parent.name == "2.3_p30" and path.name.startswith("runs_"):
                raise OSError("disk full")
            return atomic_write(path, text)

        monkeypatch.setattr(reports, "_atomic_write", failing_write)
        assert main(["sweep", "--sims", "2", "--out", str(out)]) == 3
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["sweep", "--sims", "2", "--out", str(out)]) == 0
        assert "2.3_p30: already complete" not in capsys.readouterr().out
        alone = tmp_path / "alone"
        assert main(["simulate", "--scenario", "2.3", "--sims", "2", "--out", str(alone)]) == 0
        cell = out / "2.3_p30"
        names = sorted(p.name for p in cell.iterdir())
        assert names == sorted(p.name for p in (alone / "2.3_p30").iterdir())
        for name in names:
            assert (cell / name).read_bytes() == (alone / "2.3_p30" / name).read_bytes(), name

    def test_cells_of_another_results_version_are_recomputed(
        self, sims1_dir, capsys, tmp_path, monkeypatch
    ):
        out = tmp_path / "sweep"
        shutil.copytree(sims1_dir, out)
        monkeypatch.setattr(reports, "RESULTS_VERSION", reports.RESULTS_VERSION + 1)
        capsys.readouterr()
        assert main(["sweep", "--sims", "1", "--out", str(out)]) == 0
        assert "skipping" not in capsys.readouterr().out
        cells = [cell for cell in out.iterdir() if cell.is_dir()]
        assert len(cells) == 75
        for cell in cells:
            record = json.loads((cell / "config.json").read_text(encoding="utf-8"))
            assert record["results_version"] == reports.RESULTS_VERSION

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "foreign", "non_utf8", "deeply_nested", "deeply_nested_config",
         "nan_profit", "infinite_difference"],
    )
    def test_damaged_metrics_record_is_recomputed(self, sims1_dir, capsys, tmp_path, damage):
        out = tmp_path / "sweep"
        shutil.copytree(sims1_dir, out)
        path = out / "2.3_p30" / "metrics.json"
        if damage.startswith("deeply_nested"):
            damaged = path.with_name("config.json") if damage.endswith("config") else path
            damaged.write_text(DEEPLY_NESTED, encoding="utf-8")
        elif damage == "truncated":
            path.write_text('{"trunc', encoding="utf-8")
        elif damage == "foreign":
            assert main(["simulate", "--scenario", "2.3", "--sims", "1", "--seed", "5",
                         "--out", str(tmp_path / "seed5")]) == 0
            shutil.copy(tmp_path / "seed5" / "2.3_p30" / "metrics.json", path)
        elif damage in ("nan_profit", "infinite_difference"):
            # json writes and reads these as NaN and Infinity
            record = json.loads(path.read_text(encoding="utf-8"))
            column = "withdrawal" if damage == "nan_profit" else "difference_pct"
            record["metrics"][column]["amm_profit"] = float("nan" if damage == "nan_profit" else "inf")
            path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        else:
            path.write_bytes(path.read_bytes() + b"\xff")
        capsys.readouterr()
        assert main(["sweep", "--sims", "1", "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert shown.count("skipping") == 74
        assert "2.3_p30: already complete" not in shown
        names = sorted(p.name for p in (sims1_dir / "2.3_p30").iterdir())
        assert sorted(p.name for p in path.parent.iterdir()) == names
        for name in ["diff_report.csv", *(f"2.3_p30/{name}" for name in names)]:
            assert (out / name).read_bytes() == (sims1_dir / name).read_bytes(), name
