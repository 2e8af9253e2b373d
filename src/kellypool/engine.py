"""Daily event loop, batch runner, and withdrawal-policy comparison.

One simulation walks the pool through ``horizon_days`` days.  Within a
day the order of events is fixed: collateral repayments due today land
first, then any liquidity-provider deposit, then the day's invoice
arrives and is either collateralized or discarded for good, and finally
the periodic premium withdrawal (on every day that is a whole multiple
of the withdrawal period, day 0 excluded) takes its share of the
premium reserve.  Quotes therefore see the volume enlarged by the same
day's repayments but not yet reduced by the same day's withdrawal.

A batch runs ``n_simulations`` independent simulations whose random
streams derive from ``(seed, simulation_index)`` and averages every
metric and every day of the time series arithmetically.

``run_simulation`` is the scalar loop over one simulation's ledger.
``run_batches`` is the batch entry point: it steps many simulations
("lanes") through the days at once as numpy arrays, with the same float
operations in the same order, so every lane ends bit-identical to the
scalar loop.  Batches that differ only in their withdrawal settings
share one decoded stream per simulation, and series sums are reduced in
simulation order, so a batch's result does not depend on which other
batches ran beside it.  A pass steps batches of different horizons to
the longest one; a lane gets no events past its own horizon, so its
state stays as it ended there and its series is cut there.  Each pass
runs one range of consecutive simulations, at most the pass budget of
lanes; a batch whose lanes exceed it runs in several ranges, each
carrying the series sums of the ones before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .pool import (
    Invoice,
    LedgerError,
    PoolState,
    PremiumQuote,
    Rejection,
    accept_invoice,
    conservation_residual,
    finalize_losses,
    lp_deposit,
    repay_invoice,
    sum_in_order,
    two_sum,
    withdraw_premium,
)
from .scenarios import (
    ScenarioConfig,
    decode_streams,
    generate_stream,
    lp_contribution_schedule,
    simulation_rng,
    stream_words,
)

# Internal ledger guard; the reporting-grade tolerance is asserted in tests.
_CONSERVATION_GUARD = 1e-6

# Most lanes one pass steps at once.  A pass holds its invoice tables
# (20 bytes per arriving invoice and stream column), so its memory grows
# with its lane count; more, smaller passes cost more per-day array calls.
_LANE_BUDGET = 2048

# Most raw generator words (8 bytes each) decoded at once: a pass decodes
# each stream in chunks of this many words, or of one simulation if that
# takes more, so decoding adds a bounded chunk to the pass's tables.
_DECODE_WORDS = 2**16


@dataclass(frozen=True)
class DailySeries:
    """Per-day pool trajectories over one run (or averaged over a batch).

    ``table`` has one row per day, recorded at the start of the day, so
    row 0 is the untouched initial state.  Its columns are those of
    ``timeseries_<policy>.csv``: liquidity, premium reserve, volume and
    cumulative withdrawn, each also readable by name.  A batch's mean
    series from ``run_batches`` may be a strided view of its pass's series
    sums, divided in place.
    """

    table: np.ndarray

    liquidity = property(lambda self: self.table[:, 0])
    premium_reserve = property(lambda self: self.table[:, 1])
    volume = property(lambda self: self.table[:, 2])
    cumulative_withdrawn = property(lambda self: self.table[:, 3])

    def __len__(self) -> int:
        return len(self.table)

    @staticmethod
    def mean(series: Sequence["DailySeries"]) -> "DailySeries":
        """Day-wise arithmetic mean across runs, reduced in given order."""
        return DailySeries(np.stack([s.table for s in series]).mean(axis=0))


@dataclass(frozen=True)
class SimulationMetrics:
    """A batch's mean metrics: the arithmetic mean over its runs.

    ``x_ic`` fields express the amount as a multiple of the initial
    collateral.  Profit counts everything the pool ends with or paid
    out to liquidity providers beyond the initial collateral:
    ``amm_profit = final_volume + total_premium_withdrawn - initial``.
    """

    n_simulations: int
    horizon_days: int
    total_invoices: int
    avg_accepted: float
    pct_accepted: float
    avg_paid: float
    pct_paid_of_accepted: float
    avg_unpaid: float
    pct_unpaid_of_accepted: float
    avg_loss: float
    total_collateral_covered: float
    collateral_covered_x_ic: float
    total_premium_withdrawn: float
    premium_withdrawn_x_ic: float
    remaining_premium: float
    remaining_premium_x_ic: float
    final_volume: float
    amm_profit: float
    amm_profit_pct: float


METRIC_FIELDS = tuple(f.name for f in fields(SimulationMetrics))
COUNT_FIELDS = METRIC_FIELDS[:3]  # whole numbers: a run count, a day count, an invoice count
# A table of runs: one float64 column per metric field, in field order.
_RUN_DTYPE = np.dtype([(name, np.float64) for name in METRIC_FIELDS])


@dataclass(frozen=True)
class SimulationResult:
    """One run: its metrics as a record of ``BatchResult.per_run``'s columns."""

    metrics: np.record
    series: DailySeries
    invoices: list[Invoice]


@dataclass(frozen=True)
class BatchResult:
    """A batch's mean metrics and mean daily series, and the metrics of its runs.

    ``per_run`` is a read-only record table with one row per simulation,
    in simulation order, and one float64 column per ``SimulationMetrics``
    field: ``per_run.avg_loss`` is a column, ``per_run[k].amm_profit`` one
    run's value and ``per_run.view(np.float64).reshape(len(per_run), -1)``
    the 2-D table.
    """

    config: ScenarioConfig
    metrics: SimulationMetrics
    mean_series: DailySeries
    per_run: np.recarray


def run_day(
    pool: PoolState,
    day: int,
    due_repayments: Sequence[Invoice],
    today_invoice: Invoice | None,
    config: ScenarioConfig,
    lp_amount: float = 0.0,
) -> PremiumQuote | Rejection | None:
    """Apply one day's events in fixed order and advance the day counter.

    Returns the arrival outcome: the quote on acceptance, the rejection
    otherwise, or None when no invoice arrived today.
    """
    if pool.day != day:
        raise LedgerError(f"pool is at day {pool.day}, asked to run day {day}")
    for invoice in due_repayments:
        repay_invoice(pool, invoice)
    if lp_amount > 0.0:
        lp_deposit(pool, lp_amount)
    outcome = None
    if today_invoice is not None:
        outcome = accept_invoice(pool, today_invoice)
    if (
        config.withdrawal_enabled
        and day > 0
        and day % config.withdrawal_period_days == 0
    ):
        withdraw_premium(pool, config.withdrawal_fraction)
    pool.day += 1
    return outcome


def run_simulation(config: ScenarioConfig, sim_index: int = 0) -> SimulationResult:
    """Run one full simulation; everything derives from (seed, sim_index)."""
    rng = simulation_rng(config.seed, sim_index)
    invoices = generate_stream(config, rng)
    horizon = config.horizon_days
    deposits = lp_contribution_schedule(config, rng)

    pool = PoolState(
        liquidity=config.initial_collateral, premium_reserve=config.initial_premium
    )
    due: dict[int, list[Invoice]] = {}
    series = np.empty((horizon, 4))

    for day in range(horizon):
        series[day] = pool.liquidity, pool.premium_reserve, pool.volume, pool.cumulative_withdrawn

        arriving = invoices[day] if day < config.n_arrivals else None
        outcome = run_day(pool, day, due.pop(day, ()), arriving, config, float(deposits[day]))
        if isinstance(outcome, PremiumQuote) and not arriving.defaults and arriving.due_day < horizon:
            due.setdefault(arriving.due_day, []).append(arriving)

        residual = conservation_residual(
            pool, config.initial_collateral, config.initial_premium
        )
        if abs(residual) > _CONSERVATION_GUARD:
            raise LedgerError(f"conservation violated on day {day}: residual {residual}")

    finalize_losses(pool, invoices)
    metrics = _run_metrics(pool, invoices, config)[0]
    return SimulationResult(metrics=metrics, series=DailySeries(series), invoices=invoices)


def _run_metrics(
    pool: PoolState, invoices: Sequence[Invoice], config: ScenarioConfig
) -> np.recarray:
    return _summary(
        config.initial_collateral, config.horizon_days, config.n_arrivals,
        n_accepted=sum(1 for inv in invoices if inv.accepted),
        n_paid=sum(1 for inv in invoices if inv.repaid),
        covered=sum_in_order(inv.demanded_collateral for inv in invoices if inv.accepted),
        loss=pool.loss_total,
        volume=pool.volume,
        withdrawn=pool.cumulative_withdrawn,
        premium=pool.premium_reserve,
    )


def _summary(
    initial, horizon, n_arrivals, n_accepted, n_paid, covered, loss, volume, withdrawn, premium
) -> np.recarray:
    """The metrics of runs from their end states, as a table with one row per run.

    Each argument holds one value per run, or is a scalar for a single
    run, which gives a one-row table.  The float operations are those
    of Python floats, in the same order, so the lanes and the scalar loop
    give the same rows bit for bit.
    """
    accepted = np.asarray(n_accepted, dtype=np.float64)
    paid = np.asarray(n_paid, dtype=np.float64)
    unpaid = accepted - paid
    profit = volume + withdrawn - initial
    columns = (
        1, horizon, n_arrivals, accepted, _percent(accepted, n_arrivals),
        paid, _percent(paid, accepted), unpaid, _percent(unpaid, accepted),
        loss, covered, covered / initial, withdrawn, withdrawn / initial,
        premium, premium / initial, volume, profit, 100.0 * profit / initial,
    )
    runs = np.empty(accepted.size, _RUN_DTYPE).view(np.recarray)
    for name, column in zip(METRIC_FIELDS, columns):
        runs[name] = column
    return runs


def _percent(part: np.ndarray, whole) -> np.ndarray:
    """``100 * part / whole``, and 0.0 where ``whole`` is 0."""
    return np.divide(100.0 * part, whole, out=np.zeros(part.shape), where=np.not_equal(whole, 0))


def _mean_metrics(per_run: np.recarray) -> SimulationMetrics:
    """Column-wise arithmetic mean of a table of runs, the counts as ints.

    ``math.fsum`` sums each column exactly, so the mean does not depend on
    the order of the runs; the constant counts come back exact.
    """
    n = len(per_run)
    _, horizon, n_arrivals, *means = (math.fsum(column) / n for column in zip(*per_run.tolist()))
    return SimulationMetrics(n, int(horizon), int(n_arrivals), *means)


def run_batch(config: ScenarioConfig) -> BatchResult:
    """Run the configured number of simulations and average them."""
    return run_batches([config])[0]


def run_batches(configs: Sequence[ScenarioConfig]) -> list[BatchResult]:
    """Run many batches; each result equals that batch run alone, bit for bit.

    Configs that differ only in ``scenario_id`` or in withdrawal settings
    share one decoded stream per simulation, and the no-withdrawal batch
    is simulated once whatever its withdrawal period.  Lanes run in the
    passes of ``_plan_passes``: one range of simulations each, at most
    ``_LANE_BUDGET`` lanes, mixing streams and horizons.  A batch of one
    simulation that has a pass to itself runs ``run_simulation``.  Each
    ``BatchResult`` keeps its own config; the configs of one group share
    its ``metrics``, ``mean_series`` and ``per_run`` objects.  A group's
    per-run table joins its passes' tables in simulation order.  Its mean
    series is its last pass's series sums divided by the run count in
    place (the same IEEE division as a fresh quotient), so its table is a
    view that keeps that pass's sums of every group alive.
    """
    requests: dict[tuple, list[int]] = {}
    for index, config in enumerate(configs):
        requests.setdefault(_lane_key(config), []).append(index)
    # the first config requested under a key stands for its group
    groups = {key: configs[indices[0]] for key, indices in requests.items()}
    per_run: dict[tuple, list[np.recarray]] = {key: [] for key in groups}
    sums: dict[tuple, np.ndarray] = {}
    for streams, sims in _plan_passes(groups):
        keys = [key for stream in streams for key in stream]
        if len(keys) == 1 and groups[keys[0]].n_simulations == 1:
            result = run_simulation(groups[keys[0]], 0)
            outputs = [(np.asarray(result.metrics).reshape(1), result.series.table)]
        else:
            carried = [sums[key] for key in keys] if sims.start else None
            outputs = _run_lanes([[groups[k] for k in stream] for stream in streams], sims, carried)
        for key, (runs, series_sums) in zip(keys, outputs):
            per_run[key].append(runs)
            sums[key] = series_sums
    results: list[BatchResult | None] = [None] * len(configs)
    for key, indices in requests.items():
        runs = np.concatenate(per_run[key]).view(np.recarray)
        runs.flags.writeable = False  # every config of the group shares it
        metrics = _mean_metrics(runs)
        mean_series = DailySeries(np.divide(sums[key], len(runs), out=sums[key]))
        for index in indices:
            results[index] = BatchResult(configs[index], metrics, mean_series, runs)
    return results


# Fields that set a simulation's stream and ledger apart from its
# withdrawal policy; ``scenario_id`` only names the batch.
_STREAM_FIELDS = tuple(
    f.name for f in fields(ScenarioConfig)
    if f.name not in ("scenario_id", "withdrawal_enabled", "withdrawal_period_days",
                      "withdrawal_fraction")
)


def _lane_key(config: ScenarioConfig) -> tuple[tuple, tuple[int, float] | None]:
    """(stream fields, withdrawal policy): equal keys give equal batches."""
    policy = None
    if config.withdrawal_enabled:
        policy = (config.withdrawal_period_days, config.withdrawal_fraction)
    return tuple(getattr(config, name) for name in _STREAM_FIELDS), policy


def _plan_passes(groups: dict[tuple, ScenarioConfig]) -> list[tuple[list[list[tuple]], range]]:
    """Batch groups in passes: (streams of lane keys, simulations).

    A stream's groups form units of at most ``_LANE_BUDGET`` groups, so
    each unit decodes its stream once per pass.  A unit's simulations are
    cut into consecutive ranges of at most ``_LANE_BUDGET // len(unit)``;
    units of the same range fill passes up to the budget in horizon
    order, so the lanes of a pass end close together.  Passes run in order
    of their first simulation, so each group's ranges run in simulation
    order, each carrying the series sums of the ones before it.
    """
    streams: dict[tuple, list[tuple]] = {}
    for key in groups:
        streams.setdefault(key[0], []).append(key)
    by_range: dict[range, list[list[tuple]]] = {}
    for keys in sorted(streams.values(), key=lambda keys: groups[keys[0]].horizon_days):
        n_sims = groups[keys[0]].n_simulations
        for first in range(0, len(keys), _LANE_BUDGET):
            unit = keys[first:first + _LANE_BUDGET]
            step = _LANE_BUDGET // len(unit)
            for start in range(0, n_sims, step):
                by_range.setdefault(range(start, min(start + step, n_sims)), []).append(unit)
    passes = []
    for sims, units in by_range.items():
        current: list[list[tuple]] = []
        for unit in units:
            if current and len(sims) * (sum(map(len, current)) + len(unit)) > _LANE_BUDGET:
                passes.append((current, sims))
                current = []
            current.append(unit)
        if current:
            passes.append((current, sims))
    return sorted(passes, key=lambda plan: plan[1].start)


# Rows of the lane ledger.  The order makes every set of accumulators
# that one event updates a contiguous slice.
_LP, _LIQ, _OUT, _COLLECTED, _PREM, _WITHDRAWN = range(6)
_HELD_ROWS = [_LIQ, _PREM, _OUT, _WITHDRAWN]
_ENTERED_ROWS = [_LP, _COLLECTED]


def _two_sum(value: np.ndarray, carry: np.ndarray, delta: np.ndarray) -> None:
    """``value += delta`` in place, adding the rounding error to ``carry``.

    ``carry`` receives the same errors as the carry of ``pool._add``.
    Adding a zero delta leaves both unchanged, so lanes without the event
    pass 0.0.
    """
    total, error = two_sum(value, delta)
    carry += error
    value[...] = total


def _run_lanes(
    units: list[list[ScenarioConfig]], sims: range, carried: list[np.ndarray] | None
) -> list[tuple[np.recarray, np.ndarray]]:
    """Step the given simulations of the given batch groups through the days at once.

    Each unit holds the groups of one stream, decoded once from its first
    config.  Lane ``k * n_groups + g`` is the k-th simulation of group
    ``g``, counting across units, so a group's lanes in simulation order
    are one column of a ``(n_sims, n_groups)`` view.  Each day repeats
    ``run_simulation``'s float operations in its order, per lane, and
    checks the conservation identity of every lane.  The pass runs to its
    longest horizon; a lane whose horizon comes earlier gets no events
    from that day on, so its state stays as it ended.  ``carried`` holds
    each group's series sums over the simulations before ``sims`` (zero
    past its horizon), as this function returns them with each group's
    per-run table, both cut at the group's horizon.
    """
    stream_configs = [unit[0] for unit in units]
    group_configs = [config for unit in units for config in unit]
    n_sims = len(sims)
    horizon = max(config.horizon_days for config in stream_configs)
    n_groups = len(group_configs)
    n_lanes = n_sims * n_groups

    q_table, amount_table, due_table, deposit_table, depth = _invoice_tables(
        stream_configs, sims, horizon
    )
    group_unit = np.repeat(np.arange(len(units)), [len(unit) for unit in units])
    lane_column = (group_unit[None, :] * n_sims + np.arange(n_sims)[:, None]).ravel()
    if carried is not None:
        padded = np.zeros((horizon, 4, n_groups))
        for group, group_sums in enumerate(carried):
            padded[: len(group_sums), :, group] = group_sums
        carried = padded

    def per_lane(values, dtype=np.float64) -> np.ndarray:
        return np.tile(np.asarray(values, dtype=dtype), n_sims)

    initial_funds = np.stack([
        per_lane([c.initial_collateral for c in group_configs]),
        per_lane([c.initial_premium for c in group_configs]),
    ])
    entered_initially = initial_funds[0] + initial_funds[1]
    period = per_lane([c.withdrawal_period_days for c in group_configs], np.int64)
    fraction = per_lane([c.withdrawal_fraction if c.withdrawal_enabled else 0.0 for c in group_configs])
    periods = {c.withdrawal_period_days for c in group_configs if c.withdrawal_enabled}
    lane_horizon = per_lane([c.horizon_days for c in group_configs], np.int64)

    ledger = np.zeros((6, n_lanes))
    ledger[_LIQ] = initial_funds[0]
    ledger[_PREM] = initial_funds[1]
    carry = np.zeros((6, n_lanes))
    liquidity, premium = ledger[_LIQ], ledger[_PREM]
    n_accepted = np.zeros(n_lanes, dtype=np.int64)
    n_paid = np.zeros(n_lanes, dtype=np.int64)
    covered = np.zeros(n_lanes)
    loss = np.zeros(n_lanes)

    # repayments due, by day modulo ring_days, in acceptance order; a slot
    # holds one due day, so no lane fills more than ``depth`` places of it
    ring_days = max(c.delay_range_days[1] for c in stream_configs) + 1
    due_amounts = np.zeros((ring_days, depth, n_lanes))
    due_count = np.zeros((ring_days, n_lanes), dtype=np.int64)

    # day-start snapshots in DailySeries column order, summed per group in
    # simulation order (np.add.accumulate is sequential; np.sum is not)
    snapshot = np.empty((4, n_sims, n_groups))
    snapshot_lanes = snapshot.reshape(4, n_lanes)
    running = np.empty_like(snapshot)
    series_sums = np.empty((horizon, 4, n_groups))
    pair = np.empty((2, n_lanes))
    quad = np.empty((4, n_lanes))

    def lane_name(lane: int) -> str:
        # called on a violation, so ``day`` is the day being checked
        return (f"on day {day} in simulation {sims[lane // n_groups]} of batch "
                f"{group_configs[lane % n_groups].scenario_id!r}")

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for day in range(horizon):
            snapshot_lanes[0] = liquidity
            snapshot_lanes[1] = premium
            np.add(liquidity, premium, out=snapshot_lanes[2])
            snapshot_lanes[3] = ledger[_WITHDRAWN]
            if carried is not None:
                snapshot[:, 0] += carried[day]
            np.add.accumulate(snapshot, axis=1, out=running)
            series_sums[day] = running[:, -1]

            slot = day % ring_days
            for k in range(int(due_count[slot].max())):
                amount = due_amounts[slot, k]
                pair[0] = amount
                np.negative(amount, out=pair[1])
                _two_sum(ledger[_LIQ:_OUT + 1], carry[_LIQ:_OUT + 1], pair)
            due_amounts[slot] = 0.0
            due_count[slot] = 0

            if deposit_table is not None:
                pair[:] = deposit_table[day][lane_column]
                _two_sum(ledger[_LP:_LIQ + 1], carry[_LP:_LIQ + 1], pair)

            if day < len(amount_table):
                q = q_table[day][lane_column]
                demanded = amount_table[day][lane_column]
                volume = liquidity + premium
                f = demanded / volume
                denominator = 1.0 - q * (f + 1.0)
                accepted = (denominator > 0.0) & (demanded <= volume)
                if accepted.any():
                    lent = np.where(accepted, demanded, 0.0)
                    fee = np.where(accepted, q * q / denominator * demanded, 0.0)
                    from_liquidity = np.minimum(liquidity, lent)
                    # accept_invoice's updates; premium takes the fee before the payout
                    np.negative(from_liquidity, out=quad[0])
                    quad[1] = lent
                    quad[2] = fee
                    quad[3] = fee
                    _two_sum(ledger[_LIQ:_PREM + 1], carry[_LIQ:_PREM + 1], quad)
                    # -(lent - from_liquidity), bit for bit: IEEE subtraction is sign-symmetric
                    payout, error = two_sum(from_liquidity, -lent)
                    _two_sum(ledger[_PREM:_PREM + 1], carry[_PREM:_PREM + 1], payout[None])
                    carry[_PREM] += error
                    negative = premium < 0.0
                    if negative.any():
                        # the scalar ledger parks this dust in the carry too
                        carry[_PREM] += np.where(negative, premium, 0.0)
                        premium[negative] = 0.0

                    n_accepted += accepted
                    covered += lent
                    due_today = due_table[day][lane_column]
                    repays = accepted & (due_today >= 0)
                    n_paid += repays
                    # finalize_losses sums the never-returned invoices in invoice order
                    loss += np.where(accepted ^ repays, demanded, 0.0)
                    lanes = np.flatnonzero(repays)
                    if lanes.size:
                        slots = due_today[lanes] % ring_days
                        position = due_count[slots, lanes]
                        due_amounts[slots, position, lanes] = demanded[lanes]
                        due_count[slots, lanes] += 1

            if day > 0 and any(day % p == 0 for p in periods):
                # a lane off its period, with withdrawal off or past its horizon adds 0.0
                today = np.where((day % period == 0) & (day < lane_horizon), fraction, 0.0)
                withdrawn = today * premium
                np.negative(withdrawn, out=pair[0])
                pair[1] = withdrawn
                _two_sum(ledger[_PREM:_WITHDRAWN + 1], carry[_PREM:_WITHDRAWN + 1], pair)

            _check_conservation(ledger, carry, initial_funds, entered_initially, lane_name)

    runs = _summary(
        initial_funds[0], lane_horizon, per_lane([c.n_arrivals for c in group_configs]),
        n_accepted, n_paid, covered, loss, liquidity + premium, ledger[_WITHDRAWN], premium,
    )
    return [
        (runs[group::n_groups], series_sums[: config.horizon_days, :, group])
        for group, config in enumerate(group_configs)
    ]


# The float residual below adds 14 terms in 12 float additions; each
# rounds by at most half an ulp of a partial sum no larger than the money
# entered, so 8 eps of that money bounds its error with room to spare.
_FLOAT_RESIDUAL_ERROR = 8 * 2.0**-52


def _check_conservation(
    ledger: np.ndarray, carry: np.ndarray, initial_funds: np.ndarray,
    entered_initially: np.ndarray, lane_name,
) -> None:
    """Raise ``LedgerError`` when a lane's conservation residual exceeds the guard.

    A float sum of each lane's terms comes first.  It can be off by up to
    ``_FLOAT_RESIDUAL_ERROR`` times the money entered, which premiums can
    grow past any bound a config sets, so every lane whose float residual
    lies within that much of the guard is rechecked exactly.  The error
    names the worst lane through ``lane_name``.
    """
    exact = ledger + carry
    held = ((exact[_LIQ] + exact[_PREM]) + exact[_OUT]) + exact[_WITHDRAWN]
    entered = (entered_initially + exact[_LP]) + exact[_COLLECTED]
    residual = np.abs(held - entered)
    threshold = _CONSERVATION_GUARD - _FLOAT_RESIDUAL_ERROR * entered.max()
    if residual.max() <= threshold:
        return
    lanes = np.flatnonzero(~(residual <= threshold))
    exact = _exact_residuals(ledger, carry, initial_funds, lanes)
    worst = int(np.argmax(exact))
    if not exact[worst] <= _CONSERVATION_GUARD:
        raise LedgerError(
            f"conservation violated {lane_name(int(lanes[worst]))}: residual {exact[worst]}"
        )


def _exact_residuals(
    ledger: np.ndarray, carry: np.ndarray, initial_funds: np.ndarray, lanes: np.ndarray
) -> np.ndarray:
    """|conservation residual| of the given lanes, summed exactly as ``conservation_residual`` does."""
    terms = np.concatenate([
        ledger[_HELD_ROWS], carry[_HELD_ROWS],
        -ledger[_ENTERED_ROWS], -carry[_ENTERED_ROWS], -initial_funds,
    ])
    return np.abs([math.fsum(column) for column in terms[:, lanes].T.tolist()])


def _invoice_tables(stream_configs: list[ScenarioConfig], sims: range, horizon: int):
    """Decoded streams as tables with one row per day and one column per
    stream, and the repayment ring's depth.

    Column ``u * len(sims) + k`` is simulation ``sims[k]`` of
    ``stream_configs[u]``.  Row i holds invoice i, arriving on day i, of
    each stream that has it among its ``n_arrivals``, else a NaN amount,
    which no lane accepts.  ``due`` holds the day an invoice comes back, or
    -1 when it defaults or would come back past its stream's horizon; the
    depth is the most invoices that one column has due on one day.
    Deposits are zero past a stream's horizon, up to ``horizon``; the
    deposit table is None when no stream has deposits.  Each stream is
    decoded in chunks of consecutive simulations of at most
    ``_DECODE_WORDS`` raw words (or one simulation), copied in one by one.
    """
    n_sims = len(sims)
    n_rows = max(config.n_arrivals for config in stream_configs)
    n_columns = n_sims * len(stream_configs)
    q = np.zeros((n_rows, n_columns))
    amount = np.full((n_rows, n_columns), np.nan)
    due = np.full((n_rows, n_columns), -1, dtype=np.int32)
    deposits = None
    depth = 0
    for unit, config in enumerate(stream_configs):
        n = config.n_arrivals
        step = max(1, _DECODE_WORDS // stream_words(config))
        for start in range(0, n_sims, step):
            stream = decode_streams(config, sims[start:start + step])
            width = len(stream.q)
            columns = slice(unit * n_sims + start, unit * n_sims + start + width)
            q[:n, columns] = stream.q[:, :n].T
            amount[:n, columns] = stream.amount[:, :n].T
            due_day = np.arange(n)[:, None] + stream.delay[:, :n].T
            due_day[stream.defaults[:, :n].T | (due_day >= config.horizon_days)] = -1
            due[:n, columns] = due_day
            # one key per (due day, column) of each invoice that can repay,
            # in int64: due_day * width can pass 2**31
            keys = (due_day * width + np.arange(width))[due_day >= 0]
            depth = max(depth, int(np.unique(keys, return_counts=True)[1].max(initial=0)))
            if stream.deposits is not None:
                if deposits is None:
                    deposits = np.zeros((horizon, n_columns))
                deposits[: config.horizon_days, columns] = stream.deposits.T
    return q, amount, due, deposits, depth


POLICIES = ("no_withdrawal", "withdrawal")  # a cell's premium policies, in column order


def difference_pct(base: float, value: float) -> float | None:
    """``100 * (value - base) / |base|``: 0.0 when both are zero, None when only the base is."""
    if base == 0:
        return 0.0 if value == 0 else None
    return 100.0 * (value - base) / abs(base)


@dataclass(frozen=True)
class CellResult:
    """One scenario cell: its batch under each premium policy that ran, on one seed.

    The cell records its last policy's config: the withdrawal batch's if that ran.
    """

    no_withdrawal: BatchResult | None = None
    withdrawal: BatchResult | None = None

    def __post_init__(self) -> None:
        if self.no_withdrawal is None and self.withdrawal is None:
            raise ValueError("a cell needs at least one policy result")

    @property
    def policies(self) -> tuple[str, ...]:
        return tuple(name for name in POLICIES if getattr(self, name) is not None)

    @property
    def config(self) -> ScenarioConfig:
        return getattr(self, self.policies[-1]).config

    @property
    def scenario_id(self) -> str:
        return self.config.scenario_id

    @property
    def profit_difference_pct(self) -> float | None:
        """``difference_pct`` of the policies' profits; None when a policy did not run."""
        if len(self.policies) < 2:
            return None
        without, with_ = self.no_withdrawal.metrics.amm_profit, self.withdrawal.metrics.amm_profit
        return difference_pct(without, with_)


def compare_withdrawal(config: ScenarioConfig) -> CellResult:
    """Run the batch twice with identical seeds, withdrawal off then on."""
    no_withdrawal, withdrawal = run_batches(
        [config.replace(withdrawal_enabled=False), config.replace(withdrawal_enabled=True)]
    )
    return CellResult(no_withdrawal=no_withdrawal, withdrawal=withdrawal)
