"""Command-line front door.

Three subcommands:

  quote     price a single invoice against a described pool
  simulate  run one scenario batch (paired withdrawal policies by default)
  sweep     run every preset under withdrawal periods 1/30/90 days and
            write the combined policy-difference report

Exit codes: 0 on success, 2 on configuration errors, 3 on I/O errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Iterator

from .engine import POLICIES, CellResult, run_batches
from .pool import NonPositiveDenominatorError, PoolState, ZeroVolumeError, quote_premium
from .reports import (
    complete_cell_record,
    diff_row_from_metrics_record,
    export_bundle,
    format_summary,
    metrics_record,
    round_money,
    write_diff_rows,
)
from .scenarios import (
    _MAX_MONEY,
    PRESET_IDS,
    SWEEP_IDS,
    WITHDRAWAL_PERIODS,
    ConfigError,
    ScenarioConfig,
    scenario_preset,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kellypool",
        description="Kelly-priced liquidity pool simulator for invoice collateralization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quote = sub.add_parser("quote", help="price one invoice against a described pool")
    quote.add_argument("--q", type=float, required=True,
                       help="non-collateralized share of the invoice, in (0, 1)")
    quote.add_argument("--amount", type=float, required=True,
                       help="demanded collateral in euros")
    quote.add_argument("--liquidity", type=float, required=True,
                       help="pool liquidity reserve in euros")
    quote.add_argument("--premium", type=float, default=0.0,
                       help="pool premium reserve in euros (default 0)")
    quote.set_defaults(func=cmd_quote)

    for name, help_text in (
        ("simulate", "run one scenario batch and write its report bundle"),
        ("sweep", "run all presets under every withdrawal period"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        if name == "simulate":
            cmd.add_argument("--scenario", metavar="ID",
                             help=f"preset id, one of: {', '.join(PRESET_IDS)}")
            cmd.add_argument("--config", metavar="PATH",
                             help="JSON scenario config file (alternative to --scenario)")
        cmd.add_argument("--seed", type=int, help="override the batch seed")
        cmd.add_argument("--sims", type=int, help="override the number of simulations")
        if name == "simulate":
            cmd.add_argument("--withdraw-period", type=int, choices=WITHDRAWAL_PERIODS,
                             help="days between premium withdrawals (default 30)")
        cmd.add_argument("--withdraw-fraction", type=float,
                         help="share of the premium reserve withdrawn each period (default 0.5)")
        cmd.add_argument("--policy", choices=("both", "with", "without"), default="both",
                         help="run withdrawal and/or no-withdrawal batches (default both)")
        cmd.add_argument("--out", default="results", help="output directory (default results/)")
        cmd.set_defaults(func=cmd_simulate if name == "simulate" else cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


def _check_money(name: str, value: float) -> None:
    if not abs(value) < _MAX_MONEY:
        raise ConfigError(f"{name} is {value:.6g} euros, not below 2**53 cents ({_MAX_MONEY:.6g})")


def cmd_quote(args: argparse.Namespace) -> int:
    for flag in ("q", "amount", "liquidity", "premium"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise ConfigError(f"--{flag} must be a finite number, got {value}")
        if flag != "q":
            _check_money(f"--{flag}", value)
        if flag in ("liquidity", "premium") and value < 0:
            raise ConfigError(f"--{flag} must not be negative, got {value}")
    pool = PoolState(liquidity=args.liquidity, premium_reserve=args.premium)
    try:
        quote = quote_premium(args.q, args.amount, pool)
    except NonPositiveDenominatorError as exc:
        print(f"error: {exc} (reduce q or the demanded share of the pool)", file=sys.stderr)
        return 2
    except (ZeroVolumeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _check_money("the quoted premium", quote.premium)
    print(f"f: {quote.f:.4f}")
    print(f"b: {quote.b:.4f}")
    print(f"premium: {round_money(quote.premium):.2f}")
    return 0


def _resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    if (args.scenario is None) == (args.config is None):
        raise ConfigError("give exactly one scenario source: --scenario or --config")
    if args.scenario is not None:
        config = scenario_preset(args.scenario)
    else:
        config = ScenarioConfig.from_json_file(args.config)
    return _apply_overrides(config, args)


def _apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.sims is not None:
        overrides["n_simulations"] = args.sims
    if getattr(args, "withdraw_period", None) is not None:
        overrides["withdrawal_period_days"] = args.withdraw_period
    if getattr(args, "withdraw_fraction", None) is not None:
        overrides["withdrawal_fraction"] = args.withdraw_fraction
    return config.replace(**overrides) if overrides else config


_POLICY_NAMES = {"both": POLICIES, "without": POLICIES[:1], "with": POLICIES[1:]}


def _cells(
    out_dir: Path, configs: list[ScenarioConfig], policy: str
) -> dict[Path, dict[str, ScenarioConfig]]:
    """Each cell's directory with its batch config per policy name, in bundle order."""
    return {
        out_dir / f"{config.scenario_id}_p{config.withdrawal_period_days}": {
            name: config.replace(withdrawal_enabled=name == "withdrawal")
            for name in _POLICY_NAMES[policy]
        }
        for config in configs
    }


def _export_cells(
    cells: dict[Path, dict[str, ScenarioConfig]]
) -> Iterator[tuple[Path, CellResult]]:
    """Run all cells in one ``run_batches``; yield each written cell's directory and result."""
    batches = iter(run_batches([batch for cell in cells.values() for batch in cell.values()]))
    for cell_dir, batch_configs in cells.items():
        cell = CellResult(**{name: next(batches) for name in batch_configs})
        export_bundle(cell, cell_dir)
        yield cell_dir, cell


def cmd_simulate(args: argparse.Namespace) -> int:
    cells = _cells(Path(args.out), [_resolve_config(args)], args.policy)
    for cell_dir, cell in _export_cells(cells):
        print(format_summary(cell))
        print(f"\nreport bundle written to {cell_dir}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    configs = [
        _apply_overrides(scenario_preset(scenario_id, withdrawal_period_days=period), args)
        for scenario_id in SWEEP_IDS
        for period in WITHDRAWAL_PERIODS
    ]
    cells = _cells(Path(args.out), configs, args.policy)
    records, pending = {}, {}
    for cell_dir, batch_configs in cells.items():
        # the config CellResult records: that of the cell's last policy
        record = complete_cell_record(cell_dir, tuple(batch_configs), [*batch_configs.values()][-1])
        if record is None:
            pending[cell_dir] = batch_configs
        else:
            records[cell_dir] = record
            print(f"{cell_dir.name}: already complete, skipping")

    for cell_dir, cell in _export_cells(pending):
        records[cell_dir] = metrics_record(cell)
        profits = {name: getattr(cell, name).metrics.amm_profit_pct for name in cell.policies}
        shown = ", ".join(f"{name} profit {value:.2f}%" for name, value in profits.items())
        print(f"{cell_dir.name}: {shown}")

    rows = [diff_row_from_metrics_record(records[cell_dir]) for cell_dir in cells]
    rows = [row for row in rows if row is not None]
    report_path = Path(args.out) / "diff_report.csv"
    if rows:
        write_diff_rows(rows, report_path)
        print(f"policy difference report written to {report_path}")
    else:  # no cell holds both policies, so an earlier report would be stale
        report_path.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
