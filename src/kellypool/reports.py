"""Report bundles: metric tables, time-series exports, and policy diffs.

File conventions: metrics are written as canonical JSON and as a flat
CSV; time series as CSV with the header ``day,liquidity,premium,volume,
withdrawn``.  Money fields are rounded half-up to 2 decimals, every
other numeric field to 4 decimals, always UTF-8 and newline-terminated.
Rounding is half-up on the decimal ``repr`` of a value: ``round_money``
and ``round_fraction`` do it one value at a time through ``Decimal`` and
are the reference.  The exporters round whole arrays at once to the
same floats (``_rounded``).  ``_rounded_metric_rows`` rounds the mean
records and each per-run table, writing the counts and a run's empty
sums as ints; the money time series is written from ints (``_money_texts``).
The policy-difference column is ``difference_pct`` of the rounded
columns, from no withdrawal to withdrawal, rounded at 4 decimals; it is
left empty where that is None.  The metrics record (``metrics_record``)
is the one source of every number a cell reports.
A cell's file set is one table of file name to text (``_cell_texts``),
which ``export_bundle`` writes into the cell directory.  Every file is
written atomically (``<name>.tmp`` plus rename), and ``config.json`` last,
so ``complete_cell_record`` can tell a cell that holds its full file
set and hand back its metrics record.
"""

from __future__ import annotations

import json
import os
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterator

import numpy as np

from .engine import COUNT_FIELDS, METRIC_FIELDS, POLICIES, BatchResult, CellResult
from .scenarios import ScenarioConfig, _is_number

# Recorded in each cell's ``config.json``, so a resumed sweep recomputes
# the cells an earlier build wrote.  Raise it with every change that moves
# a report byte of an existing file.
RESULTS_VERSION = 1

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


def round_money(value: float) -> float:
    """Round euros half-up to cents, for reporting only."""
    return float(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def round_fraction(value: float) -> float:
    """Round dimensionless values half-up to 4 decimals, for reporting only."""
    return float(Decimal(repr(float(value))).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


_MONEY_SCALE = 100
_FRACTION_SCALE = 10_000
# The cents of c / 100 as ``repr`` writes them: ".0", ".01", ..., ".99".
_CENTS = (".0", *(f".{c:02d}".rstrip("0") for c in range(1, _MONEY_SCALE)))


def _half_up(values, scale):
    """Half-up rounding of a whole array at once, on the decimal ``repr``.

    ``scale`` (100 for money, 10,000 for fractions) is one scale or one
    per column.  With ``s = |x| * scale``, the rounded value is
    ``k / scale`` with ``k = floor(s)`` plus one when the fraction of
    ``s`` is at least one half, and the sign of ``x``, so a negative
    value that rounds to zero gives -0.0 as ``Decimal`` does.  ``repr(x)``
    and the binary value of ``x`` differ by at most about one ulp of
    ``s``, so they can round apart only when ``s`` lies within a few ulp
    of a half.  Those values, the ones at 2**50 and above and the
    non-finite ones are marked ``unsure``: the reference rounds them.

    Returns ``x``, the scale of each value, ``k`` and ``unsure``.
    """
    x = np.array(values, dtype=np.float64)
    scale = np.broadcast_to(scale, x.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        s = np.abs(x) * scale
        whole = np.floor(s)
        fraction = s - whole
        k = whole + (fraction >= 0.5)
        unsure = ~(s < 2.0**50) | (np.abs(fraction - 0.5) <= 16 * np.spacing(s))
    return x, scale, k, unsure


def _rounded(values, scale) -> list:
    """``round_money`` or ``round_fraction`` of every value, as nested lists of floats."""
    x, scale, k, unsure = _half_up(values, scale)
    rounded = np.copysign(k / scale, x)
    for index in zip(*np.nonzero(unsure)):
        reference = round_money if scale[index] == _MONEY_SCALE else round_fraction
        rounded[index] = reference(float(x[index]))
    return rounded.tolist()


def _money_texts(table) -> list[list[str]]:
    """``repr`` of every ``round_money`` value of a 2-D table, column by column.

    Written from ``k``: below 2**50 / 100, ``repr(k / 100)`` is the
    decimal ``k / 100`` with its trailing zeros stripped and at least one
    decimal place kept, because neighbouring doubles there lie much
    closer together than one cent.
    """
    x, _, k, unsure = _half_up(table, _MONEY_SCALE)
    whole, cents = np.divmod(np.where(unsure, 0.0, k).astype(np.int64), _MONEY_SCALE)
    columns = [
        [f"{w}{_CENTS[c]}" for w, c in zip(whole_column, cents_column)]
        for whole_column, cents_column in zip(whole.T.tolist(), cents.T.tolist())
    ]
    for i, j in zip(*np.nonzero(np.signbit(x) & ~unsure)):
        columns[j][i] = "-" + columns[j][i]
    for i, j in zip(*np.nonzero(unsure)):
        columns[j][i] = repr(round_money(float(x[i, j])))
    return columns


_METRIC_SCALES = np.array(
    [_MONEY_SCALE if name in MONEY_FIELDS else _FRACTION_SCALE for name in METRIC_FIELDS]
)
_ACCEPTED, _PAID, _LOSS, _COVERED = map(
    METRIC_FIELDS.index, ("avg_accepted", "avg_paid", "avg_loss", "total_collateral_covered")
)


def _rounded_metric_rows(records: np.ndarray, per_run: bool = False) -> list[list]:
    """The rows of a table of metrics records (``engine._RUN_DTYPE``), rounded for reporting.

    The counts are ints; other values round at 2 decimals for money, 4 else.
    In rows of single runs (``per_run``) an empty sum is the int 0, too:
    ``total_collateral_covered`` where nothing was accepted, and
    ``avg_loss`` where everything accepted was paid back.
    """
    table = records.view(np.float64).reshape(len(records), -1)
    rows = _rounded(table, _METRIC_SCALES)
    for row, values in zip(rows, table.tolist()):
        row[: len(COUNT_FIELDS)] = map(int, values[: len(COUNT_FIELDS)])
        if per_run and values[_ACCEPTED] == 0:
            row[_COVERED] = 0
        if per_run and values[_ACCEPTED] == values[_PAID]:
            row[_LOSS] = 0
    return rows


def difference_pct(base: float, value: float) -> float | None:
    """``100 * (value - base) / |base|``: 0.0 when both are zero, None when only the base is."""
    if base == 0:
        return 0.0 if value == 0 else None
    return 100.0 * (value - base) / abs(base)


def _difference_column(without: dict, with_: dict) -> dict:
    changes = [difference_pct(without[name], with_[name]) for name in METRIC_FIELDS]
    rounded = iter(_rounded([c for c in changes if c is not None], _FRACTION_SCALE))
    return {name: None if c is None else next(rounded) for name, c in zip(METRIC_FIELDS, changes)}


class ReportBundle(CellResult):
    """``CellResult`` under the old name and arguments that ``benchmarks/workloads.py``
    calls; it goes once that script builds ``CellResult`` directly."""

    def __init__(self, scenario_id=None, config=None, no_withdrawal=None, withdrawal=None):
        super().__init__(no_withdrawal, withdrawal)

    @staticmethod
    def from_comparison(comparison: CellResult) -> CellResult:
        return comparison


def _atomic_write(path: Path, text: str) -> Path:
    """Write ``text`` through ``<name>.tmp`` beside ``path``, made as ``open`` would, then rename."""
    temp = path.with_name(path.name + ".tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(temp, path)
    except OSError:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    return path


def _csv_text(header_lines: list[str], rows) -> str:
    """CSV lines after ``header_lines``: None as an empty field, any other value as its ``str``."""
    lines = list(header_lines)
    for row in rows:
        lines.append(",".join("" if value is None else str(value) for value in row))
    return "\n".join(lines) + "\n"


def metrics_record(cell: CellResult) -> dict:
    """Metrics for every policy ran, plus the difference column when paired.  A policy's
    ``loss`` flag is its rounded profit below zero, as in its diff row: -0.0 is no loss."""
    record = {
        "scenario_id": cell.scenario_id,
        "difference_convention": DIFFERENCE_CONVENTION,
        "config": cell.config.to_dict(),
        "policies": list(cell.policies),
        "metrics": {},
        "loss": {},
    }
    means = np.array([getattr(cell, name).metrics for name in cell.policies])
    for name, row in zip(cell.policies, _rounded_metric_rows(means)):
        metrics = record["metrics"][name] = dict(zip(METRIC_FIELDS, row))
        record["loss"][name] = metrics["amm_profit"] < 0
    if len(cell.policies) == 2:
        record["metrics"]["difference_pct"] = _difference_column(
            record["metrics"]["no_withdrawal"], record["metrics"]["withdrawal"]
        )
    return record


def _metric_rows(record: dict) -> Iterator[tuple[str, list]]:
    """The metric grid of a metrics record: each metric with its value per policy column."""
    for name in METRIC_FIELDS:
        yield name, [column[name] for column in record["metrics"].values()]


def _timeseries_text(batch: BatchResult) -> str:
    """One row per day of the (mean) trajectory; the premium column is the reserve."""
    columns = _money_texts(batch.mean_series.table)
    lines = [TIMESERIES_HEADER]
    lines.extend(map(",".join, zip(map(str, range(len(batch.mean_series))), *columns)))
    return "\n".join(lines) + "\n"


def config_record(policies: tuple[str, ...], config: ScenarioConfig) -> dict:
    """Contents of ``config.json``; a cell is complete only on an equal record."""
    return {
        "results_version": RESULTS_VERSION, "policies": list(policies), "config": config.to_dict()
    }


def _cell_texts(
    cell: CellResult, record: dict | None = None, encoded: dict | None = None
) -> dict[str, str]:
    """A cell's files by name, in write order, each with its text; ``config.json`` last.

    ``encoded`` holds each policy's last batch, by its mean series, and texts.
    """
    record = metrics_record(cell) if record is None else record
    encoded = {} if encoded is None else encoded
    grid = ([name, *values] for name, values in _metric_rows(record))
    texts = {
        "metrics.json": json.dumps(record, indent=2) + "\n",
        "metrics.csv": _csv_text(
            [f"# difference_pct = {DIFFERENCE_CONVENTION}", "metric," + ",".join(record["metrics"])],
            grid,
        ),
    }
    for name in cell.policies:
        batch: BatchResult = getattr(cell, name)
        if encoded.get(name, (None,))[0] is not batch.mean_series:
            rows = _rounded_metric_rows(batch.per_run, per_run=True)
            encoded[name] = batch.mean_series, (
                _timeseries_text(batch),
                _csv_text(["sim_index," + ",".join(METRIC_FIELDS)],
                          ([i, *row] for i, row in enumerate(rows))),
            )
        texts[f"timeseries_{name}.csv"], texts[f"runs_{name}.csv"] = encoded[name][1]
    texts["config.json"] = json.dumps(config_record(cell.policies, cell.config), indent=2) + "\n"
    return texts


def _cell_files(policies: tuple[str, ...]) -> set[str]:
    """A cell's files besides ``config.json`` when it ran these policies."""
    return {"metrics.json", "metrics.csv",
            *(f"{kind}_{name}.csv" for name in policies for kind in ("timeseries", "runs"))}


def export_bundle(
    cell: CellResult, directory: str | Path, record: dict | None = None, encoded: dict | None = None
) -> list[Path]:
    """Write the file set of one scenario cell into ``directory``; return the paths in write order.

    ``metrics.json`` is the record the diff report reads, ``metrics.csv``
    holds the same metric grid, and each policy adds its
    ``timeseries_<policy>.csv`` and ``runs_<policy>.csv``; those of a
    policy not run are removed.  ``config.json`` (enough to re-run the
    cell bit-identically) commits the set: removed first and written
    last, it only stands beside a complete file set of the run it records.
    A caller that needs the cell's ``metrics_record`` too passes it as
    ``record``.  One that writes several cells passes one ``encoded`` dict
    to each, so cells in a row that hold one batch (a preset's period
    cells share their no-withdrawal batch) encode its texts once.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.json").unlink(missing_ok=True)
    for stale in _cell_files(POLICIES) - _cell_files(cell.policies):
        (directory / stale).unlink(missing_ok=True)
    texts = _cell_texts(cell, record, encoded)
    return [_atomic_write(directory / name, text) for name, text in texts.items()]


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _holds_diff_values(record, expected: dict) -> bool:
    """Whether ``record`` has the entries of ``expected`` and each value a diff row reads."""
    if not isinstance(record, dict) or any(record.get(k) != v for k, v in expected.items()):
        return False
    policies = expected["policies"]
    columns = policies + ["difference_pct"] * (len(policies) == 2)
    metrics = record.get("metrics")
    if not isinstance(metrics, dict) or list(metrics) != columns:
        return False
    try:
        profits = {name: column["amm_profit"] for name, column in metrics.items()}
    except (KeyError, TypeError):
        return False
    return all(
        _is_number(value) or (value is None and name == "difference_pct")
        for name, value in profits.items()
    )


def complete_cell_record(
    directory: Path, policies: tuple[str, ...], config: ScenarioConfig
) -> dict | None:
    """The metrics record of ``directory`` when it holds the full file set of exactly this run.

    The cell is complete when ``config.json`` equals ``config_record(policies,
    config)``, results version included, ``metrics.json`` is a UTF-8 JSON
    metrics record of the same scenario, policies and config that holds
    every value ``diff_row_from_metrics_record`` reads, each number finite,
    and every other file of the set exists.  Otherwise None, and the cell
    is to be computed again.
    """
    expected = config_record(policies, config)
    try:
        if _read_json(directory / "config.json") != expected:
            return None
        record = _read_json(directory / "metrics.json")
    except (OSError, ValueError, RecursionError):
        return None
    header = {"scenario_id": config.scenario_id, "policies": expected["policies"],
              "config": expected["config"]}
    if not _holds_diff_values(record, header):
        return None
    if not all((directory / name).is_file() for name in _cell_files(policies)):
        return None
    return record


def diff_report_rows(cells: list[CellResult]) -> list[dict]:
    """Diff-report rows of the paired cells; single-policy cells are skipped."""
    rows = (diff_row_from_metrics_record(metrics_record(cell)) for cell in cells)
    return [row for row in rows if row is not None]


def diff_row_from_metrics_record(record: dict) -> dict | None:
    """Per scenario and period: absolute profits, difference, and flags.

    Built from a metrics record, of a ``CellResult`` or of a complete cell's
    ``metrics.json``; None unless the record is paired.
    """
    metrics = record["metrics"]
    if "difference_pct" not in metrics:
        return None
    without = metrics["no_withdrawal"]["amm_profit"]
    with_ = metrics["withdrawal"]["amm_profit"]
    return {
        "scenario_id": record["scenario_id"],
        "withdrawal_period_days": record["config"]["withdrawal_period_days"],
        "profit_no_withdrawal": without,
        "profit_withdrawal": with_,
        "difference_pct": metrics["difference_pct"]["amm_profit"],
        "sign_change": (without < 0) != (with_ < 0),
        "loss_no_withdrawal": without < 0,
        "loss_withdrawal": with_ < 0,
    }


def write_diff_rows(rows: list[dict], path: str | Path) -> Path:
    """Cross-scenario comparison of profit with and without withdrawal, into an existing directory."""
    if not rows:
        raise ValueError("diff report needs at least one paired cell")
    columns = list(rows[0])
    header = [f"# difference_pct = {DIFFERENCE_CONVENTION}", ",".join(columns)]
    return _atomic_write(Path(path), _csv_text(header, ([row[c] for c in columns] for row in rows)))


def format_summary(record: dict) -> str:
    """Fixed-width metric table of a metrics record, for terminal output."""
    columns = list(record["metrics"])
    header = ["metric".ljust(28)] + [c.rjust(16) for c in columns]
    lines = [" ".join(header), "-" * (28 + 17 * len(columns))]
    for name, values in _metric_rows(record):
        cells = [("" if v is None else f"{v:,}").rjust(16) for v in values]
        lines.append(" ".join([name.ljust(28)] + cells))
    return "\n".join(lines)
