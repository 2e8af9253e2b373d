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
import json
import sys
import time
from pathlib import Path

from .engine import BatchResult, run_batches
from .pool import NonPositiveDenominatorError, PoolState, ZeroVolumeError, quote_premium
from .reports import (
    ReportBundle,
    config_record,
    diff_row_from_metrics_record,
    export_bundle,
    format_summary,
    round_money,
    write_diff_rows,
)
from .scenarios import (
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
        cmd.add_argument("--format", choices=("json", "csv", "both"), default="both",
                         help="metrics file format (default both); metrics.json, "
                              "which resume and the diff report read, is always written")
        cmd.add_argument("--verbose", action="store_true",
                         help="print simulation and per-cell export timing")
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


def cmd_quote(args: argparse.Namespace) -> int:
    pool = PoolState(liquidity=args.liquidity, premium_reserve=args.premium)
    try:
        quote = quote_premium(args.q, args.amount, pool)
    except NonPositiveDenominatorError as exc:
        print(f"error: {exc} (reduce q or the demanded share of the pool)", file=sys.stderr)
        return 2
    except (ZeroVolumeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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


def _formats(args: argparse.Namespace) -> tuple[str, ...]:
    # metrics.json is the machine record that resume and the diff report read
    return ("json",) if args.format == "json" else ("json", "csv")


_POLICY_NAMES = {
    "both": ("no_withdrawal", "withdrawal"),
    "without": ("no_withdrawal",),
    "with": ("withdrawal",),
}


def _policy_configs(config: ScenarioConfig, policy: str) -> list[ScenarioConfig]:
    """One batch config per policy name of ``policy``, in bundle order."""
    return [
        config.replace(withdrawal_enabled=name == "withdrawal") for name in _POLICY_NAMES[policy]
    ]


def _bundle(config: ScenarioConfig, policy: str, batches: list[BatchResult]) -> ReportBundle:
    results = dict(zip(_POLICY_NAMES[policy], batches))
    return ReportBundle(scenario_id=config.scenario_id, config=batches[-1].config, **results)


def _run_cell(config: ScenarioConfig, policy: str) -> ReportBundle:
    return _bundle(config, policy, run_batches(_policy_configs(config, policy)))


def _cell_name(config: ScenarioConfig) -> str:
    return f"{config.scenario_id}_p{config.withdrawal_period_days}"


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    bundle = _run_cell(config, args.policy)
    cell_dir = Path(args.out) / _cell_name(config)
    export_bundle(bundle, cell_dir, _formats(args))
    print(format_summary(bundle))
    print(f"\nreport bundle written to {cell_dir}")
    return 0


def _is_complete(cell_dir: Path, config: ScenarioConfig, policy: str) -> bool:
    """True when the cell holds a machine record of exactly this config and these policies."""
    try:
        stored = json.loads((cell_dir / "config.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    expected = config_record(_POLICY_NAMES[policy], _policy_configs(config, policy)[-1])
    return stored == expected and (cell_dir / "metrics.json").is_file()


def cmd_sweep(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    cells = [
        _apply_overrides(scenario_preset(scenario_id, withdrawal_period_days=period), args)
        for scenario_id in SWEEP_IDS
        for period in WITHDRAWAL_PERIODS
    ]
    pending = []
    for config in cells:
        if _is_complete(out_dir / _cell_name(config), config, args.policy):
            print(f"{_cell_name(config)}: already complete, skipping")
        else:
            pending.append(config)

    started = time.perf_counter()
    batches = iter(run_batches(
        [batch for config in pending for batch in _policy_configs(config, args.policy)]
    ))
    if args.verbose and pending:
        print(f"simulated {len(pending)} cells [{time.perf_counter() - started:.1f}s]")
    for config in pending:
        started = time.perf_counter()
        bundle = _bundle(config, args.policy, [next(batches) for _ in _POLICY_NAMES[args.policy]])
        export_bundle(bundle, out_dir / _cell_name(config), _formats(args))
        note = f" [{time.perf_counter() - started:.1f}s]" if args.verbose else ""
        profits = {
            name: getattr(bundle, name).metrics.amm_profit_pct for name in bundle.policies
        }
        shown = ", ".join(f"{name} profit {value:.2f}%" for name, value in profits.items())
        print(f"{_cell_name(config)}: {shown}{note}")

    rows = []
    for config in cells:
        metrics_path = out_dir / _cell_name(config) / "metrics.json"
        if not metrics_path.exists():
            continue
        record = json.loads(metrics_path.read_text(encoding="utf-8"))
        row = diff_row_from_metrics_record(record)
        if row is not None:
            rows.append(row)
    if rows:
        report_path = write_diff_rows(rows, out_dir / "diff_report.csv")
        print(f"policy difference report written to {report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
