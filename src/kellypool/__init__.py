"""Kelly-priced liquidity pool for invoice collateralization.

A pool lends the missing collateral of partly collateralized invoices
against a premium priced by solving the Kelly bet-sizing identity for
the odds term.  The package provides the exact pool ledger, the premium
quoting math, seedable scenario generation, a daily-resolution batch
simulator, withdrawal-policy comparisons, and CSV/JSON reporting.
"""

from .engine import (
    BatchResult,
    CellResult,
    DailySeries,
    SimulationResult,
    compare_withdrawal,
    run_batch,
    run_batches,
    run_day,
    run_simulation,
)
from .pool import (
    Invoice,
    LedgerError,
    NonPositiveDenominatorError,
    PoolState,
    PremiumQuote,
    QuoteError,
    Rejection,
    RejectionReason,
    ZeroVolumeError,
    accept_invoice,
    compute_b,
    compute_f,
    conservation_residual,
    finalize_losses,
    lp_deposit,
    quote_premium,
    repay_invoice,
    withdraw_premium,
)
from .reports import (
    export_bundle,
    format_summary,
    metrics_record,
    round_fraction,
    round_money,
)
from .scenarios import (
    PRESET_IDS,
    SWEEP_IDS,
    WITHDRAWAL_PERIODS,
    ConfigError,
    ScenarioConfig,
    generate_stream,
    lp_contribution_schedule,
    scenario_preset,
    simulation_rng,
)

__version__ = "0.1.0"
