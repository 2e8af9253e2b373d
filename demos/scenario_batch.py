"""Run one scenario batch and read its averaged metrics and trajectory.

Uses the 5.1 preset (every invoice 45% uncovered) with a reduced
simulation count so the demo finishes in about a second; bump
N_SIMULATIONS to 100 for table-grade averages.
"""

from kellypool import compare_withdrawal, format_summary, metrics_record, scenario_preset

N_SIMULATIONS = 30


def main():
    config = scenario_preset(
        "5.1", n_simulations=N_SIMULATIONS, seed=7, withdrawal_period_days=30
    )
    comparison = compare_withdrawal(config)
    record = metrics_record(comparison)

    print(f"scenario {config.scenario_id}: {N_SIMULATIONS} simulations, "
          f"{config.horizon_days}-day horizon, withdrawal every "
          f"{config.withdrawal_period_days} days\n")
    print(format_summary(record))

    series = comparison.withdrawal.mean_series
    print("\nmean trajectory every 100 days (withdrawal policy):")
    print(f"  {'day':>4} {'liquidity':>12} {'premium':>10} {'withdrawn':>11}")
    for day in range(0, len(series), 100):
        print(f"  {day:>4} {series.liquidity[day]:>12,.2f} "
              f"{series.premium_reserve[day]:>10,.2f} {series.cumulative_withdrawn[day]:>11,.2f}")

    diff = record["metrics"]["difference_pct"]["amm_profit"]
    print(f"\nprofit difference, withdrawal vs none: {diff:+.2f}%")


if __name__ == "__main__":
    main()
