"""Values an operation reports, for the output check.

``read_report`` reads the report files back for the comparison with a
recorded reference.  It compares values, not bytes: each field is looked
up by name, so a later change may add fields, columns or files without
failing it.  Per-run tables and daily time series are long, so the
reference keeps a digest of their rounded values per cell and policy; the
aggregate metrics and the policy-difference rows are kept value by value.

``result_digest`` fingerprints an in-memory batch result, so repetitions
of an operation can be compared without exporting each one.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

# SimulationMetrics fields as reported at the commit the references were recorded from.
METRIC_FIELDS = (
    "n_simulations", "horizon_days", "total_invoices", "avg_accepted", "pct_accepted",
    "avg_paid", "pct_paid_of_accepted", "avg_unpaid", "pct_unpaid_of_accepted", "avg_loss",
    "total_collateral_covered", "collateral_covered_x_ic", "total_premium_withdrawn",
    "premium_withdrawn_x_ic", "remaining_premium", "remaining_premium_x_ic", "final_volume",
    "amm_profit", "amm_profit_pct",
)
SERIES_COLUMNS = ("liquidity", "premium", "volume", "withdrawn")
# The same four series as attributes of an in-memory ``DailySeries``.
SERIES_FIELDS = ("liquidity", "premium_reserve", "volume", "cumulative_withdrawn")
DIFF_COLUMNS = (
    "profit_no_withdrawal", "profit_withdrawal", "difference_pct",
    "sign_change", "loss_no_withdrawal", "loss_withdrawal",
)


def _value(text: str):
    if text == "":
        return None
    if text in ("True", "False"):
        return text == "True"
    return float(text)


def _csv_rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _columns_digest(path: Path, columns: tuple[str, ...]) -> str:
    rows = _csv_rows(path)
    table = {name: [_value(row[name]) for row in rows] for name in columns}
    return hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()[:20]


def read_report(directory: Path) -> dict:
    """Rounded report values of every cell bundle and diff report under ``directory``."""
    cells = {}
    for cell_dir in sorted(path for path in directory.iterdir() if path.is_dir()):
        record = json.loads((cell_dir / "metrics.json").read_text(encoding="utf-8"))
        cells[cell_dir.name] = {
            "metrics": {
                column: [values[name] for name in METRIC_FIELDS]
                for column, values in record["metrics"].items()
            },
            "runs": {
                policy: _columns_digest(cell_dir / f"runs_{policy}.csv", METRIC_FIELDS)
                for policy in record["policies"]
            },
            "series": {
                policy: _columns_digest(cell_dir / f"timeseries_{policy}.csv", SERIES_COLUMNS)
                for policy in record["policies"]
            },
        }
    diff = {}
    diff_path = directory / "diff_report.csv"
    if diff_path.exists():
        for row in _csv_rows(diff_path):
            cell = f"{row['scenario_id']}_p{row['withdrawal_period_days']}"
            diff[cell] = [_value(row[name]) for name in DIFF_COLUMNS]
    return {"cells": cells, "diff": diff}


def result_digest(result) -> str:
    """Digest of the unrounded metrics, per-run metrics and mean daily series of a
    ``BatchResult``, or of both batches of a ``WithdrawalComparison``."""
    if hasattr(result, "withdrawal"):
        batches = (result.no_withdrawal, result.withdrawal)
    else:
        batches = (result,)
    digest = hashlib.sha256()
    for batch in batches:
        for metrics in (batch.metrics, *batch.per_run):
            digest.update(repr([getattr(metrics, name) for name in METRIC_FIELDS]).encode())
        for name in SERIES_FIELDS:
            digest.update(np.asarray(getattr(batch.mean_series, name), dtype=np.float64).tobytes())
    return digest.hexdigest()


def mismatches(expected, actual, path: str = "") -> list[str]:
    """Every place where ``actual`` lacks or differs from a value in ``expected``.

    Keys present only in ``actual`` are ignored.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path or '/'}: expected a mapping, got {actual!r}"]
        found = []
        for key, value in expected.items():
            if key not in actual:
                found.append(f"{path}/{key}: missing")
            else:
                found.extend(mismatches(value, actual[key], f"{path}/{key}"))
        return found
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected {len(expected)} values, got {actual!r}"]
        found = []
        for index, (want, got) in enumerate(zip(expected, actual)):
            found.extend(mismatches(want, got, f"{path}[{index}]"))
        return found
    return [] if expected == actual else [f"{path}: expected {expected!r}, got {actual!r}"]
