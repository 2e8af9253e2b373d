"""Tests for the daily loop, single runs, batches, and policy comparison."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kellypool import (
    PRESET_IDS,
    SWEEP_IDS,
    WITHDRAWAL_PERIODS,
    CellResult,
    ConfigError,
    Invoice,
    LedgerError,
    PoolState,
    PremiumQuote,
    ScenarioConfig,
    compare_withdrawal,
    compute_b,
    conservation_residual,
    metrics_record,
    round_fraction,
    run_batch,
    run_batches,
    run_day,
    run_simulation,
    scenario_preset,
)
from kellypool import engine
from kellypool.engine import (
    BatchResult,
    DailySeries,
    _mean_metrics,
    _run_metrics,
)
from kellypool.scenarios import (
    generate_stream,
    lp_contribution_schedule,
    simulation_rng,
    stream_words,
)


def quiet_config(**kwargs):
    kwargs.setdefault("n_invoices", 0)
    kwargs.setdefault("withdrawal_enabled", True)
    return ScenarioConfig(**kwargs)


class TestRunDay:
    def test_quiet_day_only_advances_clock(self):
        pool = PoolState(day=5, liquidity=1_000.0, premium_reserve=20.0)
        outcome = run_day(pool, 5, (), None, quiet_config(withdrawal_enabled=False))
        assert outcome is None
        assert pool.day == 6
        assert (pool.liquidity, pool.premium_reserve) == (1_000.0, 20.0)

    def test_withdrawal_on_period_boundary(self):
        pool = PoolState(day=30, liquidity=10.0, premium_reserve=200.0)
        run_day(pool, 30, (), None, quiet_config(withdrawal_period_days=30))
        assert pool.premium_reserve == 100.0
        assert pool.cumulative_withdrawn == 100.0

    def test_no_withdrawal_off_boundary(self):
        pool = PoolState(day=31, premium_reserve=200.0)
        run_day(pool, 31, (), None, quiet_config(withdrawal_period_days=30))
        assert pool.cumulative_withdrawn == 0.0

    def test_no_withdrawal_on_day_zero(self):
        pool = PoolState(day=0, premium_reserve=200.0)
        run_day(pool, 0, (), None, quiet_config(withdrawal_period_days=30))
        assert pool.cumulative_withdrawn == 0.0

    def test_repayment_lands_before_arrival(self):
        # acceptance only works if the repayment enlarges the volume first
        pool = PoolState(day=10, liquidity=500.0)
        lent = Invoice(id=0, q=0.3, demanded_collateral=400.0, arrival_day=3,
                       accepted=True, acceptance_day=3, payment_delay_days=7)
        pool.outstanding_lent = 400.0
        arriving = Invoice(id=1, q=0.2, demanded_collateral=800.0, arrival_day=10)
        outcome = run_day(pool, 10, (lent,), arriving, quiet_config(withdrawal_enabled=False))
        assert isinstance(outcome, PremiumQuote)
        assert arriving.accepted

    def test_deposit_lands_before_arrival(self):
        pool = PoolState(day=0, liquidity=100.0)
        arriving = Invoice(id=1, q=0.2, demanded_collateral=800.0, arrival_day=0)
        outcome = run_day(pool, 0, (), arriving, quiet_config(withdrawal_enabled=False),
                          lp_amount=900.0)
        assert isinstance(outcome, PremiumQuote)
        assert pool.cumulative_lp_deposits == 900.0

    def test_same_day_premium_joins_withdrawal(self):
        # an invoice accepted on a withdrawal day contributes to that withdrawal
        pool = PoolState(day=30, liquidity=10_000.0)
        arriving = Invoice(id=1, q=0.2, demanded_collateral=1_000.0, arrival_day=30)
        outcome = run_day(pool, 30, (), arriving, quiet_config(withdrawal_period_days=30))
        assert pool.cumulative_withdrawn == pytest.approx(outcome.premium / 2.0)

    def test_day_mismatch_is_a_bug(self):
        with pytest.raises(LedgerError):
            run_day(PoolState(day=4), 5, (), None, quiet_config())


class TestRunSimulation:
    def test_default_run_emits_650_days(self):
        result = run_simulation(scenario_preset("baseline", n_simulations=1), 0)
        assert len(result.series) == 650
        series = result.series
        assert (series.liquidity[0], series.premium_reserve[0]) == (10_000.0, 0.0)
        assert series.volume[0] == 10_000.0
        assert result.metrics.horizon_days == 650
        assert result.metrics.total_invoices == 500

    def test_single_invoice_run_matches_hand_quote(self):
        config = ScenarioConfig(n_invoices=1, delay_range_days=(30, 30), seed=7)
        result = run_simulation(config, 0)
        invoice = result.invoices[0]
        assert invoice.accepted and invoice.repaid
        f = invoice.demanded_collateral / 10_000.0
        expected_premium = invoice.demanded_collateral * compute_b(invoice.q, f)
        assert invoice.premium_paid == pytest.approx(expected_premium, rel=1e-12)
        assert result.metrics.final_volume == pytest.approx(10_000.0 + expected_premium, rel=1e-12)
        assert result.metrics.pct_paid_of_accepted == 100.0
        assert len(result.series) == 1 + 30 + 30

    def test_seeded_premium_reserve_is_not_profit(self):
        # no defaults and no LP deposits: the pool earns exactly the premiums paid
        config = ScenarioConfig(initial_premium=5000.0, n_invoices=100, n_simulations=2)
        runs = [run_simulation(config, k) for k in range(2)]
        earned = [sum(inv.premium_paid for inv in run.invoices) for run in runs]
        assert [run.metrics.amm_profit for run in runs] == pytest.approx(earned, rel=1e-9)
        assert run_batch(config).per_run.amm_profit.tolist() == pytest.approx(earned, rel=1e-9)

    def test_all_genuine_invoices_repaid_within_horizon(self):
        result = run_simulation(scenario_preset("baseline"), 3)
        accepted = [inv for inv in result.invoices if inv.accepted]
        assert accepted and all(inv.repaid for inv in accepted)
        assert result.metrics.pct_paid_of_accepted == 100.0
        assert result.metrics.avg_loss == 0.0

    def test_losses_booked_for_bogus_invoices(self):
        result = run_simulation(scenario_preset("hack-q10-h100", n_simulations=1), 0)
        metrics = result.metrics
        assert metrics.avg_unpaid == metrics.avg_accepted > 0
        assert metrics.pct_unpaid_of_accepted == 100.0
        assert metrics.avg_loss == pytest.approx(
            sum(i.demanded_collateral for i in result.invoices if i.accepted), rel=1e-12
        )
        assert metrics.amm_profit_pct < -90.0

    def test_metrics_identities(self):
        metrics = run_simulation(scenario_preset("2.3"), 1).metrics
        assert metrics.avg_accepted == metrics.avg_paid + metrics.avg_unpaid
        assert metrics.amm_profit == pytest.approx(
            metrics.final_volume + metrics.total_premium_withdrawn - 10_000.0, abs=1e-9
        )
        assert metrics.amm_profit_pct == pytest.approx(metrics.amm_profit / 100.0, rel=1e-12)
        assert metrics.collateral_covered_x_ic == pytest.approx(
            metrics.total_collateral_covered / 10_000.0, rel=1e-12
        )

    def test_deterministic_per_index(self):
        config = scenario_preset("2.2", seed=11)
        first = run_simulation(config, 5)
        second = run_simulation(config, 5)
        assert first.metrics == second.metrics
        assert np.array_equal(first.series.volume, second.series.volume)

    def test_arrivals_stop_at_entry_window(self):
        config = ScenarioConfig(n_invoices=40, seed=2)
        result = run_simulation(config, 0)
        assert max(inv.arrival_day for inv in result.invoices) == 39
        assert len(result.series) == 40 + 120 + 30

    @pytest.mark.parametrize(
        "scenario_id,enabled",
        [("baseline", False), ("1.4", False), ("2.3", True), ("hack-q49-h100", True), ("hack-q49-h100", False)],
    )
    def test_conservation_at_every_day(self, scenario_id, enabled):
        config = scenario_preset(
            scenario_id, withdrawal_enabled=enabled, withdrawal_period_days=30
        )
        for sim_index in range(3):
            rng = simulation_rng(config.seed, sim_index)
            invoices = generate_stream(config, rng)
            deposits = lp_contribution_schedule(config, rng)
            pool = PoolState(liquidity=config.initial_collateral)
            due = {}
            for day in range(config.horizon_days):
                arriving = invoices[day] if day < config.n_arrivals else None
                run_day(pool, day, due.pop(day, ()), arriving, config, float(deposits[day]))
                if (arriving is not None and arriving.accepted and not arriving.defaults
                        and arriving.due_day < config.horizon_days):
                    due.setdefault(arriving.due_day, []).append(arriving)
                assert abs(conservation_residual(pool, config.initial_collateral)) <= 1e-9
                assert pool.liquidity >= 0.0 and pool.premium_reserve >= 0.0

    def test_withdrawal_disabled_means_none_withdrawn(self):
        metrics = run_simulation(scenario_preset("5.1"), 2).metrics
        assert metrics.total_premium_withdrawn == 0.0


class TestRunBatch:
    def test_batch_of_one_equals_single_run(self):
        config = scenario_preset("3.1", n_simulations=1, seed=13)
        batch = run_batch(config)
        single = run_simulation(config, 0)
        assert batch.metrics.dtype == batch.per_run.dtype == single.metrics.dtype
        assert batch.metrics.n_simulations == len(batch.per_run)
        assert batch.per_run.tobytes() == single.metrics.tobytes()
        assert batch.metrics.tobytes() == single.metrics.tobytes()
        assert np.array_equal(batch.mean_series.volume, single.series.volume)

    def test_mean_is_arithmetic(self):
        config = scenario_preset("baseline", n_simulations=4, seed=3)
        batch = run_batch(config)
        assert len(batch.per_run) == 4
        expected = sum(m.pct_accepted for m in batch.per_run) / 4
        assert batch.metrics.pct_accepted == pytest.approx(expected, rel=1e-14)
        assert batch.metrics.n_simulations == 4

    def test_mean_is_order_independent(self):
        config = scenario_preset("baseline", n_simulations=6, seed=3)
        per_run = run_batch(config).per_run
        assert _mean_metrics(per_run).tobytes() == _mean_metrics(per_run[::-1]).tobytes()

    def test_mean_sums_columns_without_row_lists(self):
        # 20,000 rows as lists of Python floats take 13.7 MiB; one column at a time, 0.6
        n = 20_000
        rng = np.random.default_rng(7)
        scales = 10.0 ** rng.integers(-8, 9, (n, 1))  # sums that need fsum's exactness
        values = rng.standard_normal((n, len(engine.METRIC_FIELDS))) * scales
        per_run = values.view(engine._RUN_DTYPE).reshape(n).view(np.recarray)
        tracemalloc.start()
        try:
            mean = _mean_metrics(per_run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20
        _, *means = (math.fsum(column) / n for column in zip(*per_run.tolist()))
        expected = np.rec.fromrecords([(n, *means)], dtype=engine._RUN_DTYPE)[0]
        assert mean.tobytes() == expected.tobytes()

    def test_batch_deterministic(self):
        config = scenario_preset("2.1", n_simulations=5, seed=21)
        first = run_batch(config)
        second = run_batch(config)
        assert first.metrics == second.metrics
        assert np.array_equal(first.mean_series.premium_reserve, second.mean_series.premium_reserve)

    def test_grouping_invariance(self):
        # a batch's result must not depend on the batches run beside it:
        # mixed horizons, shared streams, and a one-lane pass
        a = scenario_preset("3.1", n_simulations=3, seed=8, withdrawal_enabled=True,
                            withdrawal_period_days=1)
        b = scenario_preset("2.3", n_simulations=3, seed=8)
        c = b.replace(withdrawal_enabled=True, withdrawal_period_days=90, scenario_id="other")
        d = scenario_preset("1.3", n_simulations=1, seed=2, withdrawal_enabled=True)
        # same horizon and pass as b, but arrivals stop ten days earlier
        e = scenario_preset("4.2", n_simulations=3, seed=8, max_entry_days=490,
                            additional_days=40)
        configs = [a, b, c, d, e, b]
        together = run_batches(configs)
        for config, result in zip(configs, together):
            assert result.config == config
            assert_same_batch(result, run_batch(config))

    def test_mean_series_day_zero_is_initial_state(self):
        batch = run_batch(scenario_preset("baseline", n_simulations=3, seed=1))
        assert batch.mean_series.liquidity[0] == 10_000.0
        assert batch.mean_series.premium_reserve[0] == 0.0


class TestCompareWithdrawal:
    def test_paired_runs_share_streams(self):
        config = scenario_preset("baseline", n_simulations=3, seed=17, withdrawal_period_days=30)
        comparison = compare_withdrawal(config)
        assert comparison.no_withdrawal.metrics.total_premium_withdrawn == 0.0
        assert comparison.withdrawal.metrics.total_premium_withdrawn > 0.0
        assert comparison.policies == ("no_withdrawal", "withdrawal")
        assert comparison.scenario_id == "baseline"
        assert comparison.config == config.replace(withdrawal_enabled=True)
        # same seed: both policies price the same invoice streams
        assert comparison.no_withdrawal.config.seed == comparison.withdrawal.config.seed

    def test_custom_max_entry_days_reaches_both_batches(self):
        config = ScenarioConfig(max_entry_days=100, n_simulations=2)
        comparison = compare_withdrawal(config)
        for batch in (comparison.no_withdrawal, comparison.withdrawal):
            assert (batch.config.max_entry_days, batch.config.horizon_days) == (100, 250)
            assert batch.metrics.horizon_days == 250
            assert batch.metrics.avg_accepted <= 100

    def test_no_invoices_gives_zero_difference(self):
        config = ScenarioConfig(n_invoices=0, n_simulations=2)
        comparison = compare_withdrawal(config)
        assert comparison.no_withdrawal.metrics.amm_profit == 0.0
        assert comparison.withdrawal.metrics.amm_profit == 0.0
        assert metrics_record(comparison)["metrics"]["difference_pct"]["amm_profit"] == 0.0

    def test_cell_records_its_last_policy(self):
        config = ScenarioConfig(n_invoices=50, n_simulations=1)
        without, with_ = run_batches([config, config.replace(withdrawal_enabled=True)])
        single = CellResult(no_withdrawal=without)
        assert (single.policies, single.config) == (("no_withdrawal",), without.config)
        assert "difference_pct" not in metrics_record(single)["metrics"]
        assert CellResult(without, with_).config is with_.config
        with pytest.raises(ValueError):
            CellResult()

    def test_difference_formula(self):
        config = scenario_preset("5.2", n_simulations=3, seed=5, withdrawal_period_days=30)
        metrics = metrics_record(compare_withdrawal(config))["metrics"]
        without = metrics["no_withdrawal"]["amm_profit"]
        with_ = metrics["withdrawal"]["amm_profit"]
        assert metrics["difference_pct"]["amm_profit"] == round_fraction(
            100.0 * (with_ - without) / abs(without)
        )


def test_profit_counts_premiums_and_lp_deposits():
    # criterion 3's reference row counts LP deposits as profit: preset 1.1
    # reads 867.42% with them at seed 0, and 703.20% without, below its band
    config = scenario_preset("1.1", n_simulations=2)
    per_run = run_batch(config).per_run
    for k, run in enumerate(per_run):
        premiums = sum(inv.premium_paid for inv in run_simulation(config, k).invoices)
        rng = simulation_rng(config.seed, k)
        generate_stream(config, rng)
        deposits = lp_contribution_schedule(config, rng).sum()
        assert deposits > 0.0
        assert run.amm_profit == pytest.approx(premiums + deposits - run.avg_loss, rel=1e-9)


def assert_same_batch(result, reference) -> None:
    assert result.metrics.dtype == reference.metrics.dtype
    assert result.metrics.tobytes() == reference.metrics.tobytes()
    assert result.per_run.dtype == reference.per_run.dtype
    assert result.per_run.tobytes() == reference.per_run.tobytes()
    for f in dataclasses.fields(DailySeries):
        assert getattr(result.mean_series, f.name).tobytes() == (
            getattr(reference.mean_series, f.name).tobytes()
        ), f.name


def scalar_batch(config):
    """The batch as the scalar loop computes it, one simulation at a time."""
    runs = [run_simulation(config, k) for k in range(config.n_simulations)]
    per_run = np.array([run.metrics for run in runs]).view(np.recarray)
    return BatchResult(
        config, _mean_metrics(per_run), DailySeries.mean([run.series for run in runs]), per_run
    )


@pytest.mark.parametrize("scenario_id", PRESET_IDS)
def test_lanes_equal_scalar_loop(scenario_id):
    """Every policy of every preset, lane by lane against ``run_simulation``."""
    for seed in (0, 5, 9173):
        base = scenario_preset(scenario_id, seed=seed, n_simulations=2)
        configs = [base] + [
            base.replace(withdrawal_enabled=True, withdrawal_period_days=period)
            for period in (1, 30, 90)
        ]
        for config, result in zip(configs, run_batches(configs)):
            assert_same_batch(result, scalar_batch(config))


def test_mean_series_are_views_of_their_pass_sums():
    # each group's series sums become its mean in place: the configs of one
    # group share one mean series, and two groups of one pass hold views of
    # one array (interleaved columns, so np.shares_memory finds no common element)
    base = scenario_preset("2.3", n_simulations=3, seed=2)
    configs = [base, base.replace(withdrawal_period_days=90), base.replace(withdrawal_enabled=True)]
    without, without_p90, with_ = results = run_batches(configs)
    assert without.mean_series is without_p90.mean_series
    assert without.per_run is without_p90.per_run
    assert not without.per_run.flags.writeable
    assert without.metrics is without_p90.metrics  # shared, so read-only as well
    with pytest.raises(ValueError, match="read-only"):
        without.metrics.amm_profit = 0.0
    tables = without.mean_series.table, with_.mean_series.table
    assert tables[0].base is not None and tables[0].base is tables[1].base
    assert np.may_share_memory(*tables)
    for config, result in zip(configs, results):
        assert_same_batch(result, scalar_batch(config))


def sweep_batch_configs(n_simulations):
    """The batch configs of the 75-cell sweep, both policies, in the CLI's order."""
    return [
        scenario_preset(scenario_id, n_simulations=n_simulations, withdrawal_period_days=period)
        .replace(withdrawal_enabled=enabled)
        for scenario_id in SWEEP_IDS
        for period in WITHDRAWAL_PERIODS
        for enabled in (False, True)
    ]


@pytest.mark.parametrize("n_simulations,n_passes", [(2, 1), (100, 5), (600, 30)])
def test_sweep_horizons_share_passes(n_simulations, n_passes):
    configs = sweep_batch_configs(n_simulations)
    groups = {}
    for config in configs:
        groups.setdefault(engine._lane_key(config), config)
    assert (len(configs), len(groups)) == (150, 100)
    passes = [
        ([key for stream in streams for key in stream], sims)
        for streams, sims in engine._plan_passes(groups)
    ]
    assert len(passes) == n_passes
    assert all(len(keys) * len(sims) <= engine._LANE_BUDGET for keys, sims in passes)
    # every simulation of every group runs exactly once, in simulation order
    planned = [(key, sim) for keys, sims in passes for key in keys for sim in sims]
    assert [sims.start for _, sims in passes] == sorted(sims.start for _, sims in passes)
    assert len(planned) == len(set(planned))
    assert set(planned) == {(key, sim) for key in groups for sim in range(n_simulations)}


def large_batches():
    base = scenario_preset("2.3", n_simulations=10, seed=6)
    return [base, base.replace(withdrawal_enabled=True, withdrawal_period_days=1),
            scenario_preset("3.2", n_simulations=10, seed=6)]


def many_policies():
    base = scenario_preset("2.3", n_simulations=2, n_invoices=40, seed=6)
    return [base] + [
        base.replace(withdrawal_enabled=True, withdrawal_period_days=period,
                     withdrawal_fraction=fraction)
        for period in (1, 30) for fraction in (0.25, 0.5)
    ]


@pytest.mark.parametrize("make_configs", [large_batches, many_policies])
def test_lane_budget_bounds_every_pass(monkeypatch, make_configs):
    # a batch of more lanes than the budget runs in passes of consecutive
    # simulations, carrying the series sums from one pass to the next; a
    # stream with more policies than the budget is decoded once per pass
    monkeypatch.setattr(engine, "_LANE_BUDGET", 4)
    stepped = []
    original = engine._run_lanes

    def counting(units, sims, carried):
        stepped.append(sum(map(len, units)) * len(sims))
        return original(units, sims, carried)

    monkeypatch.setattr(engine, "_run_lanes", counting)
    configs = make_configs()
    for config, result in zip(configs, run_batches(configs)):
        assert_same_batch(result, scalar_batch(config))
    assert max(stepped) <= 4
    assert sum(stepped) == sum(config.n_simulations for config in configs)


def test_stream_tails_of_different_horizons_share_a_continued_pass(monkeypatch):
    # each stream's 3 simulations x 2 policies exceed the budget of 4 lanes,
    # so simulations 0-1 run per stream and both streams' simulation 2 runs
    # in one pass, whose carried sums are padded to the longer horizon
    monkeypatch.setattr(engine, "_LANE_BUDGET", 4)
    passes = []
    original = engine._run_lanes

    def recording(units, sims, carried):
        passes.append(([unit[0].horizon_days for unit in units], sims))
        return original(units, sims, carried)

    monkeypatch.setattr(engine, "_run_lanes", recording)
    configs = [
        config
        for base in (scenario_preset("3.1", n_simulations=3, n_invoices=30),
                     scenario_preset("1.3", n_simulations=3, n_invoices=45))
        for config in (base, base.replace(withdrawal_enabled=True, withdrawal_period_days=1))
    ]
    for config, result in zip(configs, run_batches(configs)):
        assert_same_batch(result, scalar_batch(config))
    assert any(sims.start > 0 and len(set(horizons)) > 1 for horizons, sims in passes)


@pytest.mark.parametrize(
    "stream_configs, n_sims, per_chunk",
    [
        ([scenario_preset("2.3")], 100, 30),
        ([scenario_preset("1.2")], 100, 30),  # uniform LP deposits
        ([scenario_preset("hack-q49-h50")], 100, 30),  # partial hack
        ([scenario_preset("1.2", lp_contribution_mode="fixed")], 100, 30),
        # two streams of different horizons in one pass
        ([scenario_preset("3.1"), scenario_preset("1.3")], 10, 3),
        # simulations 4 and 18 draw delays near the top of a 98,719-day span
        # (see test_scenarios) and land in different chunks
        ([ScenarioConfig(n_invoices=400, delay_range_days=(1, 98_719), seed=69)], 20, 7),
        # entry windows that end before the stream, at different days
        ([scenario_preset("2.3", max_entry_days=300),
          scenario_preset("hack-q49-h50", n_invoices=200, max_entry_days=150)], 10, 3),
    ],
)
def test_chunked_decode_gives_the_same_tables(monkeypatch, stream_configs, n_sims, per_chunk):
    horizon = max(config.horizon_days for config in stream_configs)
    words = max(stream_words(config) for config in stream_configs)

    def tables(decode_words):
        monkeypatch.setattr(engine, "_DECODE_WORDS", decode_words)
        return engine._invoice_tables(stream_configs, range(n_sims), horizon)

    *whole, depth = tables(n_sims * words)  # one chunk per stream
    assert depth > 0
    # one simulation per chunk, an uneven split, and the default budget
    for decode_words in (1, per_chunk * words, engine._DECODE_WORDS):
        *chunked, chunked_depth = tables(decode_words)
        assert chunked_depth == depth
        for table, reference in zip(chunked, whole):
            assert (table is None) == (reference is None)
            if table is not None:
                assert table.dtype == reference.dtype
                assert table.tobytes() == reference.tobytes()


def test_single_simulation_chunks_equal_scalar_loop(monkeypatch):
    monkeypatch.setattr(engine, "_DECODE_WORDS", 1)
    config = scenario_preset("2.3", n_simulations=10)
    assert_same_batch(run_batch(config), scalar_batch(config))


@pytest.mark.parametrize(
    "scenario_id, bound_mib, n_invoices",
    [("2.3", 4, 500), ("1.2", 5, 500), ("2.3", 12.5, 5000)],
    ids=["2.3-4", "1.2-5", "2.3-12.5-5000"],
)
def test_paired_batch_memory_is_bounded(scenario_id, bound_mib, n_invoices):
    # decoding a whole pass at once peaked at 5.5 and 8.2 MiB at 500 invoices;
    # a separate repays mask and an int64 due table took 13.95 MiB at 5,000
    config = scenario_preset(scenario_id, n_simulations=100, n_invoices=n_invoices)
    tracemalloc.start()
    try:
        compare_withdrawal(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


def test_streams_of_different_arrival_windows_share_a_pass(monkeypatch):
    # one window ends before its stream does, the other after; rows past
    # the shorter window hold invoices of the longer one only
    passes = []
    original = engine._run_lanes

    def recording(units, sims, carried):
        passes.append([unit[0].n_arrivals for unit in units])
        return original(units, sims, carried)

    monkeypatch.setattr(engine, "_run_lanes", recording)
    base = scenario_preset("hack-q49-h50", n_simulations=3, nonpayment_probability=0.2, seed=4)
    short = base.replace(n_invoices=40, max_entry_days=25)
    long = base.replace(n_invoices=30, max_entry_days=45)
    configs = [short, short.replace(withdrawal_enabled=True, withdrawal_period_days=1), long]
    for config, result in zip(configs, run_batches(configs)):
        assert_same_batch(result, scalar_batch(config))
    assert passes == [[25, 30]]
    # a one-simulation batch takes the scalar loop, so check its lane too
    monkeypatch.setattr(engine, "_run_lanes", original)
    for config in (short, long):
        ((lane_runs, lane_sums),) = engine._run_lanes([[config]], range(1), None)
        reference = run_simulation(config, 0)
        assert lane_runs.tobytes() == reference.metrics.tobytes()
        assert lane_sums.tobytes() == reference.series.table.tobytes()


def test_flagged_invoices_never_repay_on_long_horizons():
    # with over ~99,850 invoices the horizon passes the old never-paid
    # sentinel delay of 100,000 days, which then came due like any other
    config = ScenarioConfig(n_invoices=100_010, nonpayment_probability=0.5, seed=1)
    result = run_simulation(config, 0)
    flagged = [inv for inv in result.invoices if inv.defaults and inv.accepted]
    assert flagged
    assert not any(inv.repaid for inv in flagged)
    assert result.metrics.avg_unpaid == len(flagged)


def test_covered_collateral_is_summed_left_to_right():
    invoices = [
        Invoice(id=i, q=0.1, demanded_collateral=amount, arrival_day=i, accepted=True,
                repaid=True)
        for i, amount in enumerate([1e16, 1.0, -1e16])
    ]
    metrics = _run_metrics(PoolState(liquidity=1.0), invoices, ScenarioConfig(n_invoices=3))
    assert metrics.total_collateral_covered == 0.0


def test_lane_guard_checks_every_lane(monkeypatch):
    original = engine._two_sum

    def drifting(value, carry, delta):
        original(value, carry, delta)
        value[..., -1] += 1e-3  # the last lane's ledger loses balance

    monkeypatch.setattr(engine, "_two_sum", drifting)
    config = scenario_preset("2.3", n_simulations=3, n_invoices=20)
    with pytest.raises(LedgerError, match="simulation 2 of batch"):
        run_batch(config)


def test_lane_guard_rechecks_what_the_float_sum_cannot_resolve():
    # 1e11 euros: the float sum rounds at 1.5e-5, so 2e-6 of carry reads as 0
    ledger, carry = np.zeros((6, 1)), np.zeros((6, 1))
    ledger[engine._LIQ] = 1e11
    carry[engine._LIQ] = 2e-6
    initial_funds = np.array([[1e11], [0.0]])
    assert (ledger + carry)[engine._LIQ] == ledger[engine._LIQ]
    with pytest.raises(LedgerError, match=r"in lane 0: residual 2e-06$"):
        engine._check_conservation(
            ledger, carry, initial_funds, initial_funds.sum(axis=0), lambda lane: f"in lane {lane}"
        )
    pool = PoolState(liquidity=1e11)
    pool._carry["liquidity"] = 2e-6
    assert conservation_residual(pool, 1e11) == 2e-6
    # within the guard, the same ledger passes
    carry[engine._LIQ] = 5e-7
    engine._check_conservation(ledger, carry, initial_funds, initial_funds.sum(axis=0), str)


# A preset-free config whose payouts reach into the premium reserve of a
# 2e10-euro pool: each payout's rounding approaches the 1e-6 guard.
LARGE_POOL = dict(
    scenario_id="large", n_simulations=1, initial_collateral=2e10, n_invoices=60,
    amount_range=None, amount_fraction_of_initial=1.0, q_range=(0.3, 0.45),
    delay_range_days=(20, 40), lp_contribution_probability=1.0, lp_cap_fraction=0.01,
    nonpayment_probability=0.5,
)


def test_premium_reserve_dust_is_parked_by_both_engines():
    # the payout of the one invoice rounds the premium reserve below zero;
    # both ledgers move that dust into the carry and report an empty reserve
    config = ScenarioConfig(
        initial_collateral=1.0, initial_premium=1.2e-16, amount_range=(1 + 2**-52,) * 2,
        q_range=(1e-10,) * 2, n_invoices=1, delay_range_days=(1, 1), additional_days=0,
        n_simulations=3,
    )
    result = run_batch(config)
    assert_same_batch(result, scalar_batch(config))
    assert result.per_run.remaining_premium.tolist() == [0.0] * 3


def test_large_pool_gets_one_verdict_from_both_engines():
    for seed in range(50):
        config = ScenarioConfig(seed=seed, **LARGE_POOL)
        ((lane_runs, _),) = engine._run_lanes([[config]], range(1), None)
        assert lane_runs.tobytes() == run_simulation(config, 0).metrics.tobytes()


@st.composite
def edge_config(draw, n_simulations):
    """A config from the edges of the envelope: pool size, premiums, delays, entry window."""
    pool = draw(st.sampled_from([1.0, 1e3, 1e6, 1e9, 1e10, 1e11]))
    n_invoices = draw(st.integers(0, 30))
    q_high = draw(st.sampled_from([0.3, 0.49, 0.499999]))
    fraction = draw(st.sampled_from([1e-3, 0.1, 1.0]))
    delay_low = draw(st.integers(1, 40))
    amounts = (
        {"amount_range": None, "amount_fraction_of_initial": fraction}
        if draw(st.booleans())
        else {"amount_range": (pool * fraction / 2, pool * fraction)}
    )
    try:
        return ScenarioConfig(
            scenario_id="edge",
            n_simulations=n_simulations,
            initial_collateral=pool,
            initial_premium=pool * draw(st.sampled_from([0.0, 1e-3, 0.5])),
            n_invoices=n_invoices,
            max_entry_days=draw(st.integers(0, 2 * n_invoices + 1)),
            q_range=(q_high * draw(st.sampled_from([0.5, 0.99, 1.0])), q_high),
            delay_range_days=(delay_low, delay_low + draw(st.sampled_from([0, 3, 60, 5_000]))),
            additional_days=draw(st.integers(0, 30)),
            lp_contribution_probability=draw(st.sampled_from([0.0, 0.5, 1.0])),
            lp_cap_fraction=draw(st.sampled_from([0.0, 1e-3, 0.01])),
            lp_contribution_mode=draw(st.sampled_from(["uniform", "fixed"])),
            nonpayment_probability=draw(st.sampled_from([0.0, 0.5])),
            hack_probability=draw(st.sampled_from([0.0, 0.3])),
            hack_q=draw(st.sampled_from([None, 0.49])),
            withdrawal_enabled=draw(st.booleans()),
            withdrawal_period_days=draw(st.sampled_from(WITHDRAWAL_PERIODS)),
            seed=draw(st.integers(0, 2**32)),
            **amounts,
        )
    except ConfigError:
        assume(False)


@st.composite
def edge_configs(draw):
    """One to four configs of one simulation count, so that horizons mix in one pass."""
    n_simulations = draw(st.integers(1, 3))
    return draw(st.lists(edge_config(n_simulations), min_size=1, max_size=4))


@settings(derandomize=True, max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edge_configs())
def test_lanes_equal_scalar_loop_at_the_envelope_edges(configs):
    for config, result in zip(configs, run_batches(configs)):
        assert_same_batch(result, scalar_batch(config))
