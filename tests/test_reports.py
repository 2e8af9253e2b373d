"""Tests for metric/time-series exports and the policy-difference report."""

import json
import os
import stat
from decimal import InvalidOperation
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellypool import (
    CellResult,
    ScenarioConfig,
    compare_withdrawal,
    export_bundle,
    format_summary,
    metrics_record,
    round_fraction,
    round_money,
    run_batch,
    scenario_preset,
)
from kellypool import engine, reports
from kellypool.engine import BatchResult, DailySeries
from kellypool.reports import (
    _FRACTION_SCALE,
    _MONEY_SCALE,
    METRIC_FIELDS,
    MONEY_FIELDS,
    TIMESERIES_HEADER,
    _cell_texts,
    _money_texts,
    _rounded,
    _timeseries_text,
    complete_cell_record,
    diff_report_rows,
    write_diff_rows,
)


@pytest.fixture(scope="module")
def paired_cell():
    config = scenario_preset("5.3", n_simulations=4, seed=31, withdrawal_period_days=30)
    return compare_withdrawal(config)


@pytest.fixture(scope="module")
def single_cell():
    config = scenario_preset("5.3", n_simulations=3, seed=8)
    batch = run_batch(config.replace(withdrawal_enabled=False))
    return CellResult(no_withdrawal=batch)


def read_metrics_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    rows = {}
    for line in lines[2:]:
        cells = line.split(",")
        rows[cells[0]] = {
            header[i]: (None if cells[i] == "" else float(cells[i]))
            for i in range(1, len(header))
        }
    return rows


class TestRounding:
    def test_half_up_at_cents(self):
        assert round_money(303.155) == 303.16
        assert round_money(2.675) == 2.68
        assert round_money(-1.005) == -1.01

    def test_fraction_at_four_decimals(self):
        assert round_fraction(0.44444444) == 0.4444
        assert round_fraction(0.37895) == 0.379

    def test_numpy_floats_round_as_python_floats(self):
        assert round_money(np.float64(2.675)) == 2.68
        assert round_fraction(np.float64(0.37895)) == 0.379
        batch = run_batch(scenario_preset("2.3", n_simulations=2))
        assert round_money(batch.metrics.amm_profit) == round_money(float(batch.metrics.amm_profit))


# Values whose decimal repr sits on or next to a rounding half, for both scales.
TIE_CASES = (
    [0.005, -0.005, 2.675, -1.005, 303.155, 123456.785, -0.0, -0.001, 1e-9, 2**50 / 100,
     2**50 / 10_000, 0.37895, -0.00005, 1e8 + 0.005, 0.0, 1e-300, 5e-324]
    + [k / 1_000 for k in range(-3_000, 3_001)]  # exactly 3 decimals
    + [k / 100_000 for k in range(-3_000, 3_001)]  # exactly 5 decimals
)
SCALES = [(_MONEY_SCALE, round_money), (_FRACTION_SCALE, round_fraction)]


def _outcome(compute):
    """What ``compute`` returns, or the error it raises (Decimal refuses above 28 digits)."""
    try:
        return compute()
    except InvalidOperation:
        return "InvalidOperation"


class TestWholeArrayRounding:
    def test_tie_cases(self):
        # one column mixes values rounded in whole-array form and by the reference
        for scale, reference in SCALES:
            expected = [repr(reference(x)) for x in TIE_CASES]
            assert list(map(repr, _rounded(TIE_CASES, scale))) == expected
        money = [repr(round_money(x)) for x in TIE_CASES]
        assert _money_texts(np.array(TIE_CASES)[:, None])[0] == money

    def test_scale_per_column(self):
        table = np.array([[2.675, 0.37895], [-0.001, -0.00005]])
        scales = np.array([_MONEY_SCALE, _FRACTION_SCALE])
        assert _rounded(table, scales) == [[2.68, 0.379], [-0.0, -0.0001]]

    @settings(max_examples=500)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_float(self, x):
        for scale, reference in SCALES:
            expected = _outcome(lambda: repr(reference(x)))
            assert _outcome(lambda: repr(_rounded([x], scale)[0])) == expected
        expected = _outcome(lambda: repr(round_money(x)))
        assert _outcome(lambda: _money_texts([[x]])[0][0]) == expected

    @given(st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=1, max_size=40))
    def test_any_column(self, values):
        for scale, reference in SCALES:
            expected = [repr(reference(x)) for x in values]
            assert list(map(repr, _rounded(values, scale))) == expected
        money = [repr(round_money(x)) for x in values]
        assert _money_texts(np.array(values)[:, None])[0] == money


class TestMetricsExports:
    def test_json_structure_paired(self, paired_cell):
        record = json.loads(_cell_texts(paired_cell)["metrics.json"])
        assert record == metrics_record(paired_cell)
        assert record["scenario_id"] == "5.3"
        assert record["policies"] == ["no_withdrawal", "withdrawal"]
        assert set(record["metrics"]) == {"no_withdrawal", "withdrawal", "difference_pct"}
        for name in METRIC_FIELDS:
            assert name in record["metrics"]["no_withdrawal"]
        assert isinstance(record["loss"]["withdrawal"], bool)
        assert record["config"]["seed"] == 31

    def test_single_policy_omits_difference(self, single_cell):
        record = json.loads(_cell_texts(single_cell)["metrics.json"])
        assert record["policies"] == ["no_withdrawal"]
        assert "difference_pct" not in record["metrics"]
        assert "withdrawal" not in record["metrics"]

    def test_round_trip_at_reporting_precision(self, paired_cell):
        record = json.loads(_cell_texts(paired_cell)["metrics.json"])
        metrics = paired_cell.withdrawal.metrics
        for name in METRIC_FIELDS:
            stored = record["metrics"]["withdrawal"][name]
            truth = getattr(metrics, name)
            tolerance = 0.005 if name in MONEY_FIELDS else 5e-5
            assert stored == pytest.approx(truth, abs=tolerance)

    def test_csv_matches_json(self, paired_cell):
        texts = _cell_texts(paired_cell)
        json_record = json.loads(texts["metrics.json"])
        rows = read_metrics_csv(texts["metrics.csv"])
        for name in METRIC_FIELDS:
            for column in ("no_withdrawal", "withdrawal", "difference_pct"):
                assert rows[name][column] == pytest.approx(
                    json_record["metrics"][column][name] or 0.0
                ) or (rows[name][column] is None and json_record["metrics"][column][name] is None)

    def test_difference_recomputable_from_columns(self, paired_cell):
        rows = read_metrics_csv(_cell_texts(paired_cell)["metrics.csv"])
        for name, cells in rows.items():
            without, with_, stored = (
                cells["no_withdrawal"], cells["withdrawal"], cells["difference_pct"]
            )
            if stored is None or without == 0:
                continue
            assert 100.0 * (with_ - without) / abs(without) == pytest.approx(stored, abs=0.01)


class TestTimeseriesExport:
    def test_header_and_shape(self, paired_cell):
        text = _timeseries_text(paired_cell.withdrawal)
        lines = text.splitlines()
        assert lines[0] == TIMESERIES_HEADER == "day,liquidity,premium,volume,withdrawn"
        assert len(lines) == 1 + 650
        assert text.endswith("\n")

    def test_day_zero_row_is_initial_state(self, paired_cell):
        day0 = _timeseries_text(paired_cell.no_withdrawal).splitlines()[1].split(",")
        assert day0 == ["0", "10000.0", "0.0", "10000.0", "0.0"]

    def test_withdrawn_column_non_decreasing(self, paired_cell):
        lines = _timeseries_text(paired_cell.withdrawal).splitlines()
        withdrawn = [float(line.split(",")[4]) for line in lines[1:]]
        assert all(b >= a for a, b in zip(withdrawn, withdrawn[1:]))
        assert withdrawn[-1] > 0.0

    def test_negative_value_rounding_to_zero_writes_minus_zero(self):
        batch = _stub_batch(0.0)
        series = DailySeries(
            np.array([[-0.001, 0.0, -0.001, 0.0], [0.0] * 4, [1.005, 0.0, 1.005, 0.0]])
        )
        batch = BatchResult(batch.config, batch.metrics, series, batch.per_run)
        lines = _timeseries_text(batch).splitlines()
        assert lines[1:] == ["0,-0.0,0.0,-0.0,0.0", "1,0.0,0.0,0.0,0.0", "2,1.01,0.0,1.01,0.0"]

    def test_volume_is_liquidity_plus_premium(self, paired_cell):
        for line in _timeseries_text(paired_cell.withdrawal).splitlines()[1:]:
            _, liq, prem, vol, _ = (float(x) for x in line.split(","))
            assert vol == pytest.approx(liq + prem, abs=0.02)


class TestRunsExport:
    def test_one_row_per_simulation(self, paired_cell):
        lines = _cell_texts(paired_cell)["runs_withdrawal.csv"].splitlines()
        assert lines[0].split(",")[:2] == ["sim_index", "n_simulations"]
        assert len(lines) == 1 + 4


def runs_rows(cell, policy="withdrawal"):
    lines = _cell_texts(cell)[f"runs_{policy}.csv"].splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


class TestIntegerFields:
    """A run's empty sum is written as the integer 0; a mean is always a float."""

    @pytest.fixture(scope="class")
    def empty_cell(self):
        return compare_withdrawal(ScenarioConfig(n_invoices=0, n_simulations=2))

    def test_runs_that_accept_nothing_write_int_zero(self, empty_cell):
        for policy in empty_cell.policies:
            rows = runs_rows(empty_cell, policy)
            assert len(rows) == 2
            for row in rows:
                assert (row["total_collateral_covered"], row["avg_loss"]) == ("0", "0")
                assert (row["avg_accepted"], row["collateral_covered_x_ic"]) == ("0.0", "0.0")
                assert (row["n_simulations"], row["total_invoices"]) == ("1", "0")

    def test_runs_paid_in_full_write_int_zero_loss(self):
        batch = run_batch(scenario_preset("baseline", n_simulations=3))
        rows = runs_rows(CellResult(no_withdrawal=batch), "no_withdrawal")
        assert all(row["avg_loss"] == "0" for row in rows)
        assert all("." in row["total_collateral_covered"] for row in rows)

    def test_runs_with_unpaid_invoices_write_float_loss(self):
        batch = run_batch(scenario_preset("2.3", n_simulations=3))
        assert (batch.per_run.avg_accepted > batch.per_run.avg_paid).all()
        rows = runs_rows(CellResult(no_withdrawal=batch), "no_withdrawal")
        for row, loss in zip(rows, batch.per_run.avg_loss):
            assert row["avg_loss"] == repr(round_money(float(loss)))
            assert "." in row["avg_loss"]

    def test_metrics_json_writes_counts_as_int_and_means_as_float(self, empty_cell):
        text = _cell_texts(empty_cell)["metrics.json"]
        assert '"total_collateral_covered": 0.0,' in text
        record = json.loads(text)["metrics"]["withdrawal"]
        assert [type(record[name]) for name in METRIC_FIELDS[:3]] == [int] * 3
        assert all(type(record[name]) is float for name in METRIC_FIELDS[3:])
        metrics = _cell_texts(empty_cell)["metrics.csv"]
        assert "\nn_simulations,2,2,0.0\n" in metrics
        assert "\ntotal_collateral_covered,0.0,0.0,0.0\n" in metrics


@pytest.fixture
def umask_022():
    previous = os.umask(0o022)
    yield
    os.umask(previous)


class TestExportBundle:
    def test_writes_full_file_set(self, paired_cell, tmp_path, umask_022):
        written = export_bundle(paired_cell, tmp_path / "cell")
        assert [p.name for p in written] == [
            "metrics.json",
            "metrics.csv",
            "timeseries_no_withdrawal.csv",
            "runs_no_withdrawal.csv",
            "timeseries_withdrawal.csv",
            "runs_withdrawal.csv",
            "config.json",
        ]
        texts = _cell_texts(paired_cell)
        assert [p.read_text(encoding="utf-8") for p in written] == list(texts.values())
        # nothing beside the file set, and each file as open() would make it
        assert sorted(p.name for p in (tmp_path / "cell").iterdir()) == sorted(
            p.name for p in written
        )
        report = write_diff_rows(diff_report_rows([paired_cell]), tmp_path / "diff.csv")
        assert {stat.S_IMODE(p.stat().st_mode) for p in [*written, report]} == {0o644}

    def test_write_does_not_follow_a_planted_symlink(self, paired_cell, tmp_path):
        cell, target = tmp_path / "cell", tmp_path / "elsewhere.txt"
        target.write_text("untouched")
        cell.mkdir()
        (cell / "metrics.json.tmp").symlink_to(target)
        with pytest.raises(OSError):
            export_bundle(paired_cell, cell)
        assert target.read_text() == "untouched"

    def test_collateral_of_one_cent_exports_finite_metrics(self, tmp_path):
        # the floor of the envelope: the *_x_ic ratios divide by the collateral
        config = ScenarioConfig(initial_collateral=0.01, initial_premium=5e13,
                                n_simulations=2, n_invoices=10)
        export_bundle(compare_withdrawal(config), tmp_path / "cell")

        def non_finite(name):
            raise AssertionError(f"metrics.json holds {name}")

        json.loads((tmp_path / "cell" / "metrics.json").read_text(), parse_constant=non_finite)

    def test_config_snapshot_reproduces_batch(self, paired_cell, tmp_path):
        export_bundle(paired_cell, tmp_path / "cell")
        snapshot = json.loads((tmp_path / "cell" / "config.json").read_text())
        config = ScenarioConfig.from_dict(snapshot["config"])
        rerun = run_batch(config.replace(withdrawal_enabled=False))
        assert rerun.metrics == paired_cell.no_withdrawal.metrics

    def test_config_written_last_and_other_policy_removed(
        self, paired_cell, single_cell, tmp_path, monkeypatch
    ):
        cell = tmp_path / "cell"
        export_bundle(paired_cell, cell)
        original, written = reports._atomic_write, []

        def record_write(path, text):
            # config.json is gone while every other file of the set is rewritten
            written.append((Path(path).name, (cell / "config.json").exists()))
            return original(path, text)

        monkeypatch.setattr(reports, "_atomic_write", record_write)
        export_bundle(single_cell, cell)
        assert written == [
            ("metrics.json", False),
            ("metrics.csv", False),
            ("timeseries_no_withdrawal.csv", False),
            ("runs_no_withdrawal.csv", False),
            ("config.json", False),
        ]
        assert sorted(p.name for p in cell.iterdir()) == [
            "config.json", "metrics.csv", "metrics.json",
            "runs_no_withdrawal.csv", "timeseries_no_withdrawal.csv",
        ]

    def test_cell_is_complete(self, paired_cell, tmp_path):
        cell = tmp_path / "cell"
        policies, config = paired_cell.policies, paired_cell.config
        assert complete_cell_record(cell, policies, config) is None
        export_bundle(paired_cell, cell)
        assert complete_cell_record(cell, policies, config) == metrics_record(paired_cell)
        assert complete_cell_record(cell, policies, config.replace(seed=config.seed + 1)) is None
        assert complete_cell_record(cell, ("withdrawal",), config) is None
        (cell / "runs_no_withdrawal.csv").unlink()
        assert complete_cell_record(cell, policies, config) is None

    @pytest.mark.parametrize(
        "damage",
        [
            lambda record: record.update(scenario_id="other"),
            lambda record: record.update(policies=["withdrawal"]),
            lambda record: record["config"].update(seed=0),
            lambda record: record["metrics"].pop("difference_pct"),
            lambda record: record["metrics"]["withdrawal"].update(amm_profit="12.5"),
            lambda record: record["metrics"]["difference_pct"].update(amm_profit=True),
            lambda record: record["metrics"]["no_withdrawal"].pop("amm_profit"),
            lambda record: record["metrics"].update(withdrawal=[1.0]),
        ],
        ids=["scenario_id", "policies", "config", "no_difference", "text_profit",
             "bool_difference", "no_profit", "list_column"],
    )
    def test_metrics_record_that_does_not_match_is_incomplete(
        self, paired_cell, tmp_path, damage
    ):
        cell = tmp_path / "cell"
        export_bundle(paired_cell, cell)
        record = metrics_record(paired_cell)
        damage(record)
        (cell / "metrics.json").write_text(json.dumps(record), encoding="utf-8")
        assert complete_cell_record(cell, paired_cell.policies, paired_cell.config) is None


def _stub_batch(profit, scenario_id="stub", period=30):
    config = ScenarioConfig(
        scenario_id=scenario_id, n_simulations=1, withdrawal_period_days=period
    )
    # n_simulations, horizon_days, total_invoices, then 13 zeros up to final_volume
    row = (1, 3, 0, *[0.0] * 13, profit + 10_000.0, profit, profit / 100.0)
    per_run = np.rec.fromrecords([row], dtype=engine._RUN_DTYPE)
    series = DailySeries(np.zeros((3, 4)))
    return BatchResult(config=config, metrics=per_run[0], mean_series=series, per_run=per_run)


class TestDiffReport:
    def test_identical_bundles_give_zero_difference(self, tmp_path):
        cell = CellResult(no_withdrawal=_stub_batch(100.0), withdrawal=_stub_batch(100.0))
        path = write_diff_rows(diff_report_rows([cell]), tmp_path / "diff.csv")
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[0] == "scenario_id"
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert float(row["difference_pct"]) == 0.0
        assert row["sign_change"] == "False"

    def test_sign_flip_flagged(self, tmp_path):
        cell = CellResult(no_withdrawal=_stub_batch(-500.0), withdrawal=_stub_batch(2_000.0))
        path = write_diff_rows(diff_report_rows([cell]), tmp_path / "diff.csv")
        row_cells = path.read_text().splitlines()[2].split(",")
        header = path.read_text().splitlines()[1].split(",")
        row = dict(zip(header, row_cells))
        assert row["sign_change"] == "True"
        assert row["loss_no_withdrawal"] == "True"
        assert row["loss_withdrawal"] == "False"
        assert float(row["difference_pct"]) == pytest.approx(500.0)

    def test_zero_base_follows_the_metrics_record(self):
        cell = compare_withdrawal(ScenarioConfig(n_invoices=0, n_simulations=2))
        assert metrics_record(cell)["metrics"]["difference_pct"]["amm_profit"] == 0.0
        (row,) = diff_report_rows([cell])
        assert (row["profit_no_withdrawal"], row["profit_withdrawal"]) == (0.0, 0.0)
        assert row["difference_pct"] == 0.0

    def test_zero_base_alone_leaves_the_difference_undefined(self):
        cell = CellResult(no_withdrawal=_stub_batch(0.0), withdrawal=_stub_batch(50.0))
        assert metrics_record(cell)["metrics"]["difference_pct"]["amm_profit"] is None
        (row,) = diff_report_rows([cell])
        assert row["difference_pct"] is None

    def test_loss_flags_read_the_rounded_profit(self):
        # a mean profit of -0.001 euros reports as -0.0, which is no loss
        config = ScenarioConfig(scenario_id="dust", amount_range=(0.001, 0.001),
                                nonpayment_probability=1.0, n_invoices=1, n_simulations=1)
        cell = compare_withdrawal(config)
        record = metrics_record(cell)
        (row,) = diff_report_rows([cell])
        assert record["metrics"]["no_withdrawal"]["amm_profit"] == 0.0
        flags = {"no_withdrawal": row["loss_no_withdrawal"], "withdrawal": row["loss_withdrawal"]}
        assert record["loss"] == flags == {"no_withdrawal": False, "withdrawal": False}

    def test_single_policy_bundles_skipped(self, single_cell, tmp_path):
        with pytest.raises(ValueError):
            write_diff_rows(diff_report_rows([single_cell]), tmp_path / "diff.csv")


class TestFormatSummary:
    def test_contains_columns_and_fields(self, paired_cell):
        text = format_summary(metrics_record(paired_cell))
        assert "no_withdrawal" in text and "withdrawal" in text
        for name in ("pct_accepted", "amm_profit_pct", "final_volume"):
            assert name in text

    def test_bundle_requires_a_policy(self):
        with pytest.raises(ValueError):
            CellResult()
