"""Report bundles: metric tables, time-series exports, and policy diffs.

File conventions: metrics are written as canonical JSON and as a flat
CSV; time series as CSV with the header ``day,liquidity,premium,volume,
withdrawn``.  Money fields are rounded half-up to 2 decimals, every
other numeric field to 4 decimals, always UTF-8 and newline-terminated.
The policy-difference column follows ``100 * (withdrawal -
no_withdrawal) / |no_withdrawal|`` computed from the rounded columns,
and is left empty when the no-withdrawal value is zero.  All files are
written atomically (temp file plus rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, fields
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterator

from .engine import BatchResult, SimulationMetrics, WithdrawalComparison, profit_difference_pct
from .scenarios import ScenarioConfig

DIFFERENCE_CONVENTION = "100 * (withdrawal - no_withdrawal) / |no_withdrawal|"
TIMESERIES_HEADER = "day,liquidity,premium,volume,withdrawn"

# Euro-denominated metric fields; everything else rounds at 4 decimals.
MONEY_FIELDS = frozenset(
    {
        "avg_loss",
        "total_collateral_covered",
        "total_premium_withdrawn",
        "remaining_premium",
        "final_volume",
        "amm_profit",
    }
)
METRIC_FIELDS = tuple(f.name for f in fields(SimulationMetrics))


def round_money(value: float) -> float:
    """Round euros half-up to cents, for reporting only."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def round_fraction(value: float) -> float:
    """Round dimensionless values half-up to 4 decimals, for reporting only."""
    return float(Decimal(repr(value)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


def _rounded_metrics(metrics: SimulationMetrics) -> dict:
    out = {}
    for name in METRIC_FIELDS:
        value = getattr(metrics, name)
        if isinstance(value, int):
            out[name] = value
        elif name in MONEY_FIELDS:
            out[name] = round_money(value)
        else:
            out[name] = round_fraction(value)
    return out


def _difference_column(without: dict, with_: dict) -> dict:
    diff = {}
    for name in METRIC_FIELDS:
        base, other = without[name], with_[name]
        if base == 0:
            diff[name] = 0.0 if other == 0 else None
        else:
            diff[name] = round_fraction(100.0 * (other - base) / abs(base))
    return diff


@dataclass(frozen=True)
class ReportBundle:
    """Everything needed to report one scenario cell and re-run it."""

    scenario_id: str
    config: ScenarioConfig
    no_withdrawal: BatchResult | None = None
    withdrawal: BatchResult | None = None

    def __post_init__(self) -> None:
        if self.no_withdrawal is None and self.withdrawal is None:
            raise ValueError("a report bundle needs at least one policy result")

    @classmethod
    def from_comparison(cls, comparison: WithdrawalComparison) -> "ReportBundle":
        return cls(
            scenario_id=comparison.scenario_id,
            config=comparison.withdrawal.config,
            no_withdrawal=comparison.no_withdrawal,
            withdrawal=comparison.withdrawal,
        )

    @property
    def policies(self) -> tuple[str, ...]:
        names = []
        if self.no_withdrawal is not None:
            names.append("no_withdrawal")
        if self.withdrawal is not None:
            names.append("withdrawal")
        return tuple(names)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", newline="", dir=path.parent, delete=False
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except OSError:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def metrics_record(bundle: ReportBundle) -> dict:
    """Metrics for every policy ran, plus the difference column when paired."""
    record = {
        "scenario_id": bundle.scenario_id,
        "difference_convention": DIFFERENCE_CONVENTION,
        "config": bundle.config.to_dict(),
        "policies": list(bundle.policies),
        "metrics": {},
        "loss": {},
    }
    for name in bundle.policies:
        result: BatchResult = getattr(bundle, name)
        record["metrics"][name] = _rounded_metrics(result.metrics)
        record["loss"][name] = result.metrics.amm_profit < 0.0
    if len(bundle.policies) == 2:
        record["metrics"]["difference_pct"] = _difference_column(
            record["metrics"]["no_withdrawal"], record["metrics"]["withdrawal"]
        )
    return record


def _metric_rows(record: dict) -> Iterator[tuple[str, list]]:
    """The metric grid of a metrics record: each metric with its value per policy column."""
    for name in METRIC_FIELDS:
        yield name, [column[name] for column in record["metrics"].values()]


def write_metrics_json(bundle: ReportBundle, path: str | Path) -> Path:
    path = Path(path)
    _atomic_write(path, json.dumps(metrics_record(bundle), indent=2) + "\n")
    return path


def write_metrics_csv(bundle: ReportBundle, path: str | Path) -> Path:
    record = metrics_record(bundle)
    lines = [f"# difference_pct = {DIFFERENCE_CONVENTION}", "metric," + ",".join(record["metrics"])]
    for name, values in _metric_rows(record):
        lines.append(f"{name}," + ",".join("" if v is None else repr(v) for v in values))
    path = Path(path)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def write_timeseries_csv(bundle_result: BatchResult, path: str | Path) -> Path:
    """One row per day of the (mean) trajectory; the premium column is the reserve."""
    series = bundle_result.mean_series
    lines = [TIMESERIES_HEADER]
    for day in range(len(series)):
        lines.append(
            f"{day},{round_money(float(series.liquidity[day]))},"
            f"{round_money(float(series.premium_reserve[day]))},"
            f"{round_money(float(series.volume[day]))},"
            f"{round_money(float(series.cumulative_withdrawn[day]))}"
        )
    path = Path(path)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def write_runs_csv(bundle_result: BatchResult, path: str | Path) -> Path:
    """Per-simulation metrics table for dispersion analysis."""
    lines = ["sim_index," + ",".join(METRIC_FIELDS)]
    for index, metrics in enumerate(bundle_result.per_run):
        rounded = _rounded_metrics(metrics)
        lines.append(f"{index}," + ",".join(repr(rounded[name]) for name in METRIC_FIELDS))
    path = Path(path)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def config_record(policies: tuple[str, ...], config: ScenarioConfig) -> dict:
    """Contents of ``config.json``; a sweep resumes a cell only on an equal record."""
    return {"policies": list(policies), "config": config.to_dict()}


def write_config_json(bundle: ReportBundle, path: str | Path) -> Path:
    """Snapshot sufficient to re-run the bundle bit-identically."""
    record = config_record(bundle.policies, bundle.config)
    path = Path(path)
    _atomic_write(path, json.dumps(record, indent=2) + "\n")
    return path


def export_bundle(bundle: ReportBundle, directory: str | Path, csv: bool = True) -> list[Path]:
    """Write the file set for one scenario cell into ``directory``.

    ``metrics.json``, the record that resume and the diff report read, is
    always written; ``csv`` adds ``metrics.csv``.
    """
    directory = Path(directory)
    written = [
        write_config_json(bundle, directory / "config.json"),
        write_metrics_json(bundle, directory / "metrics.json"),
    ]
    if csv:
        written.append(write_metrics_csv(bundle, directory / "metrics.csv"))
    for name in bundle.policies:
        result: BatchResult = getattr(bundle, name)
        written.append(write_timeseries_csv(result, directory / f"timeseries_{name}.csv"))
        written.append(write_runs_csv(result, directory / f"runs_{name}.csv"))
    return written


def diff_report_rows(bundles: list[ReportBundle]) -> list[dict]:
    """Diff-report rows of the paired bundles; single-policy bundles are skipped."""
    rows = (diff_row_from_metrics_record(metrics_record(bundle)) for bundle in bundles)
    return [row for row in rows if row is not None]


def diff_row_from_metrics_record(record: dict) -> dict | None:
    """Per scenario and period: absolute profits, difference, and flags.

    Built from a metrics record, in memory or read back from
    ``metrics.json``; None unless the record is paired.
    """
    metrics = record.get("metrics", {})
    if "no_withdrawal" not in metrics or "withdrawal" not in metrics:
        return None
    without = metrics["no_withdrawal"]["amm_profit"]
    with_ = metrics["withdrawal"]["amm_profit"]
    diff = profit_difference_pct(without, with_)
    return {
        "scenario_id": record["scenario_id"],
        "withdrawal_period_days": record["config"]["withdrawal_period_days"],
        "profit_no_withdrawal": without,
        "profit_withdrawal": with_,
        "difference_pct": None if diff is None else round_fraction(diff),
        "sign_change": (without < 0) != (with_ < 0),
        "loss_no_withdrawal": without < 0,
        "loss_withdrawal": with_ < 0,
    }


def write_diff_rows(rows: list[dict], path: str | Path) -> Path:
    """Cross-scenario comparison of profit with and without withdrawal."""
    if not rows:
        raise ValueError("diff report needs at least one paired bundle")
    columns = list(rows[0])
    lines = [f"# difference_pct = {DIFFERENCE_CONVENTION}", ",".join(columns)]
    for row in rows:
        cells = ["" if row[c] is None else str(row[c]) for c in columns]
        lines.append(",".join(cells))
    path = Path(path)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def format_summary(bundle: ReportBundle) -> str:
    """Fixed-width metric table for terminal output."""
    record = metrics_record(bundle)
    columns = list(record["metrics"])
    header = ["metric".ljust(28)] + [c.rjust(16) for c in columns]
    lines = [" ".join(header), "-" * (28 + 17 * len(columns))]
    for name, values in _metric_rows(record):
        cells = [("" if v is None else f"{v:,}").rjust(16) for v in values]
        lines.append(" ".join([name.ljust(28)] + cells))
    return "\n".join(lines)
