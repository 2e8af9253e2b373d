"""Tests for scenario configuration, presets, and invoice generation."""

import json

import numpy as np
import pytest

from kellypool import (
    PRESET_IDS,
    SWEEP_IDS,
    ConfigError,
    ScenarioConfig,
    generate_invoice,
    generate_stream,
    lp_contribution_schedule,
    scenario_preset,
    simulation_rng,
)
from kellypool import scenarios
from kellypool.scenarios import decode_streams


class TestScenarioConfig:
    def test_defaults(self):
        config = ScenarioConfig()
        assert config.n_simulations == 100
        assert config.initial_collateral == 10_000.0
        assert config.n_invoices == 500
        assert config.q_range == (0.05, 0.49)
        assert config.amount_range == (100.0, 2_000.0)
        assert config.delay_range_days == (30, 120)
        assert config.lp_contribution_probability == 0.0
        assert config.nonpayment_probability == 0.0
        assert config.hack_probability == 0.0
        assert config.max_entry_days == 500
        assert config.horizon_days == 500 + 120 + 30 == 650

    def test_horizon_follows_delay_range(self):
        config = ScenarioConfig(delay_range_days=(30, 60))
        assert config.horizon_days == 500 + 60 + 30

    def test_explicit_horizon_must_match(self):
        assert ScenarioConfig(horizon_days=650).horizon_days == 650
        with pytest.raises(ConfigError):
            ScenarioConfig(horizon_days=600)

    def test_max_entry_defaults_to_invoice_count(self):
        assert ScenarioConfig(n_invoices=42).max_entry_days == 42

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"q_range": (0.0, 0.4)},
            {"q_range": (0.5, 0.4)},
            {"q_range": (0.1, 1.0)},
            {"amount_range": None},
            {"amount_fraction_of_initial": 0.1},
            {"amount_range": (-5.0, 10.0)},
            {"delay_range_days": (0, 30)},
            {"delay_range_days": (60, 30)},
            {"nonpayment_probability": 1.5},
            {"hack_probability": -0.1},
            {"withdrawal_fraction": 2.0},
            {"withdrawal_period_days": 7},
            {"hack_q": 1.2},
            {"lp_contribution_mode": "sometimes"},
            {"n_simulations": 0},
            {"initial_collateral": 0.0},
            {"initial_collateral": 0.0, "amount_range": None, "amount_fraction_of_initial": 0.1},
            {"delay_range_days": (30, 2**40)},
            {"n_invoices": 5, "additional_days": 200_000},
            {"n_invoices": 10**9, "max_entry_days": 10},
            {"initial_collateral": 1e308, "initial_premium": 1e308},
            {"initial_collateral": 1e14},
            {"amount_range": (100.0, 2e11)},
            {"amount_range": None, "amount_fraction_of_initial": 1e10},
            {"lp_contribution_probability": 0.5, "lp_cap_fraction": 1.0,
             "initial_collateral": 2e11},
            {"seed": -1},
            {"scenario_id": "../escaped"},
            {"scenario_id": "a/b"},
            {"scenario_id": ""},
            {"scenario_id": "bad\ud800id"},
            # premiums grow without bound from q = 1/2 on
            {"initial_collateral": 1e9, "n_invoices": 5, "q_range": (0.999999, 0.999999),
             "amount_range": (1000.0, 1000.0), "delay_range_days": (1, 1)},
            {"hack_q": 0.5},
            # below it, premiums of up to 12.005x the amount pass the envelope
            {"initial_collateral": 1e12, "amount_range": None, "amount_fraction_of_initial": 1.0,
             "n_invoices": 10, "q_range": (0.49, 0.49)},
            # below a cent the *_x_ic ratios overflow the means and the report rounding
            {"initial_collateral": 1e-9, "initial_premium": 5e13, "n_simulations": 2, "n_invoices": 10},
            {"initial_collateral": 0.001},
            # a fixed amount that underflows to 0.0 euros
            {"initial_collateral": 0.01, "amount_range": None, "amount_fraction_of_initial": 5e-324},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kwargs)

    def test_envelope_admits_long_and_large_runs(self):
        # one simulation over 50,000 invoices: a horizon of 50,150 days
        assert scenario_preset("1.2", n_invoices=50_000).horizon_days == 50_150
        assert ScenarioConfig(initial_collateral=1e12).initial_collateral == 1e12
        for scenario_id in PRESET_IDS:
            scenario_preset(scenario_id)

    def test_replace_recomputes_derived_fields(self):
        config = ScenarioConfig().replace(delay_range_days=(30, 60))
        assert config.horizon_days == 590
        # a default max_entry_days follows n_invoices
        config = ScenarioConfig().replace(n_invoices=42)
        assert (config.max_entry_days, config.horizon_days) == (42, 192)
        assert ScenarioConfig().replace(n_invoices=42, max_entry_days=7).max_entry_days == 7

    def test_replace_keeps_a_custom_max_entry_days(self):
        config = ScenarioConfig(max_entry_days=100).replace(withdrawal_enabled=True)
        assert (config.max_entry_days, config.horizon_days) == (100, 250)
        config = config.replace(n_invoices=50, delay_range_days=(30, 60))
        assert (config.max_entry_days, config.horizon_days) == (100, 190)

    def test_round_trips_through_dict(self):
        config = scenario_preset("3.2", seed=99)
        assert ScenarioConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"n_invoices": 10, "colour": "blue"})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"n_invoices": 25, "seed": 7, "scenario_id": "mini"}))
        config = ScenarioConfig.from_json_file(path)
        assert config.n_invoices == 25 and config.seed == 7
        assert config.horizon_days == 25 + 120 + 30

    def test_int_accepted_for_float_fields(self):
        config = ScenarioConfig.from_dict(
            {"initial_collateral": 5000, "amount_range": [100, 2000], "withdrawal_fraction": 1}
        )
        assert config.initial_collateral == 5000.0
        assert config.amount_range == (100, 2000)
        assert config.withdrawal_fraction == 1.0

    def test_from_json_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json_file(path)


class TestPresets:
    def test_catalog_is_complete(self):
        expected = (
            {"baseline"}
            | {f"{g}.{i}" for g, n in [(1, 4), (2, 3), (3, 3), (4, 3), (5, 3)] for i in range(1, n + 1)}
            | {f"hack-q{q}-h{h}" for q in (49, 30, 10) for h in (10, 50, 100)}
        )
        assert set(PRESET_IDS) == expected
        assert len(PRESET_IDS) == 26
        assert set(SWEEP_IDS) == expected - {"baseline"}
        assert len(SWEEP_IDS) == 25

    def test_baseline_is_all_defaults(self):
        assert scenario_preset("baseline") == ScenarioConfig(scenario_id="baseline")

    def test_lp_scenarios(self):
        for scenario_id, cap in [("1.1", 0.01), ("1.2", 0.05), ("1.3", 0.10), ("1.4", 0.25)]:
            config = scenario_preset(scenario_id)
            assert config.lp_contribution_probability == 0.5
            assert config.lp_cap_fraction == cap

    def test_nonpayment_scenarios(self):
        assert scenario_preset("2.1").nonpayment_probability == 0.02
        assert scenario_preset("2.2").nonpayment_probability == 0.05
        assert scenario_preset("2.3").nonpayment_probability == 0.20

    def test_delay_scenarios(self):
        assert scenario_preset("3.1").delay_range_days == (30, 60)
        assert scenario_preset("3.2").delay_range_days == (60, 90)
        assert scenario_preset("3.3").delay_range_days == (90, 120)

    def test_fixed_amount_scenarios(self):
        for scenario_id, fraction in [("4.1", 0.01), ("4.2", 0.10), ("4.3", 0.25)]:
            config = scenario_preset(scenario_id)
            assert config.amount_range is None
            assert config.amount_fraction_of_initial == fraction

    def test_fixed_share_scenarios(self):
        assert scenario_preset("5.1").q_range == (0.45, 0.45)
        assert scenario_preset("5.2").q_range == (0.25, 0.25)
        assert scenario_preset("5.3").q_range == (0.10, 0.10)

    def test_hack_grid(self):
        config = scenario_preset("hack-q49-h100")
        assert config.hack_q == 0.49 and config.hack_probability == 1.0
        config = scenario_preset("hack-q10-h50")
        assert config.hack_q == 0.10 and config.hack_probability == 0.50

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            scenario_preset("nope")

    def test_overrides_apply(self):
        config = scenario_preset("2.3", seed=123, n_simulations=5)
        assert config.seed == 123 and config.n_simulations == 5
        assert config.nonpayment_probability == 0.20


class TestGenerateInvoice:
    def test_fields_within_ranges(self):
        config = ScenarioConfig()
        rng = simulation_rng(1, 0)
        for day in range(200):
            invoice = generate_invoice(day, config, rng)
            assert 0.05 <= invoice.q <= 0.49
            assert 100.0 <= invoice.demanded_collateral <= 2_000.0
            assert 30 <= invoice.payment_delay_days <= 120
            assert invoice.arrival_day == day and invoice.id == day
            assert not invoice.bogus and not invoice.accepted and not invoice.repaid

    def test_hack_invoices_are_bogus_with_fixed_share(self):
        config = ScenarioConfig(hack_probability=1.0, hack_q=0.49)
        rng = simulation_rng(1, 0)
        invoice = generate_invoice(0, config, rng)
        assert invoice.bogus and invoice.defaults
        assert invoice.q == 0.49
        assert 30 <= invoice.payment_delay_days <= 120

    def test_nonpayment_defaults_without_bogus_flag(self):
        config = ScenarioConfig(nonpayment_probability=1.0)
        invoice = generate_invoice(0, config, simulation_rng(1, 0))
        assert not invoice.bogus
        assert invoice.defaults
        assert 30 <= invoice.payment_delay_days <= 120

    def test_flags_leave_the_draws_in_place(self):
        # the delay is drawn whatever the flags, so flipping the
        # non-payment probability between 0 and 1 moves no other draw
        paid = generate_stream(ScenarioConfig(n_invoices=30), simulation_rng(4, 0))
        unpaid = generate_stream(
            ScenarioConfig(n_invoices=30, nonpayment_probability=1.0), simulation_rng(4, 0)
        )
        assert [(i.q, i.demanded_collateral, i.payment_delay_days) for i in paid] == [
            (i.q, i.demanded_collateral, i.payment_delay_days) for i in unpaid
        ]
        assert not any(i.defaults for i in paid) and all(i.defaults for i in unpaid)

    def test_fixed_amount_mode(self):
        config = scenario_preset("4.2")
        invoice = generate_invoice(0, config, simulation_rng(1, 0))
        assert invoice.demanded_collateral == 1_000.0

    def test_negative_day_rejected(self):
        with pytest.raises(ValueError):
            generate_invoice(-1, ScenarioConfig(), simulation_rng(1, 0))


class TestGenerateStream:
    def test_one_arrival_per_day(self):
        config = ScenarioConfig(n_invoices=50)
        stream = generate_stream(config, simulation_rng(3, 0))
        assert len(stream) == 50
        assert [inv.arrival_day for inv in stream] == list(range(50))

    def test_empty_stream(self):
        assert generate_stream(ScenarioConfig(n_invoices=0), simulation_rng(3, 0)) == []

    def test_same_seed_same_stream(self):
        config = scenario_preset("2.2", seed=42)
        first = generate_stream(config, simulation_rng(config.seed, 4))
        second = generate_stream(config, simulation_rng(config.seed, 4))
        assert first == second

    def test_different_sim_index_different_stream(self):
        config = ScenarioConfig(seed=42)
        first = generate_stream(config, simulation_rng(42, 0))
        second = generate_stream(config, simulation_rng(42, 1))
        assert first != second

    def test_distribution_sanity(self):
        config = ScenarioConfig(n_invoices=10_000)
        stream = generate_stream(config, simulation_rng(0, 0))
        qs = np.array([inv.q for inv in stream])
        amounts = np.array([inv.demanded_collateral for inv in stream])
        assert 0.05 <= qs.min() and qs.max() <= 0.49
        assert 100.0 <= amounts.min() and amounts.max() <= 2_000.0
        assert abs(qs.mean() - 0.27) <= 0.02

    @pytest.mark.parametrize("hack_probability", [0.1, 0.5])
    def test_bogus_rate_tracks_probability(self, hack_probability):
        config = ScenarioConfig(
            n_invoices=10_000, hack_probability=hack_probability, hack_q=0.3
        )
        stream = generate_stream(config, simulation_rng(0, 0))
        rate = sum(inv.bogus for inv in stream) / len(stream)
        assert abs(rate - hack_probability) <= 0.02

    def test_payable_invoices_all_repayable(self):
        config = ScenarioConfig(n_invoices=1_000)
        stream = generate_stream(config, simulation_rng(5, 0))
        assert all(inv.payment_delay_days <= 120 for inv in stream)


class TestLpSchedule:
    def test_disabled_draws_nothing(self):
        config = ScenarioConfig()
        rng = simulation_rng(1, 0)
        before = rng.bit_generator.state
        schedule = lp_contribution_schedule(config, rng)
        assert np.all(schedule == 0.0)
        assert rng.bit_generator.state == before

    def test_uniform_mode_bounded_by_cap(self):
        config = scenario_preset("1.4")  # cap 25% of 10,000
        schedule = lp_contribution_schedule(config, simulation_rng(1, 0))
        assert schedule.max() <= 2_500.0
        assert schedule.min() >= 0.0
        active = (schedule > 0).mean()
        assert 0.4 <= active <= 0.6

    def test_fixed_mode_deposits_cap_exactly(self):
        config = scenario_preset("1.2", lp_contribution_mode="fixed")
        schedule = lp_contribution_schedule(config, simulation_rng(1, 0))
        contributing = schedule[schedule > 0]
        assert np.all(contributing == 500.0)

    def test_deterministic(self):
        config = scenario_preset("1.1", seed=9)
        first = lp_contribution_schedule(config, simulation_rng(9, 2))
        second = lp_contribution_schedule(config, simulation_rng(9, 2))
        assert np.array_equal(first, second)


def reference_streams(config, sim_indices, with_deposits=True):
    """``generate_stream`` plus the LP schedule, drawn from one generator per simulation.

    ``with_deposits=False`` skips the schedule, whose zero array would be
    as long as the horizon.
    """
    out = []
    for sim_index in sim_indices:
        rng = simulation_rng(config.seed, sim_index)
        invoices = generate_stream(config, rng)
        deposits = None
        if with_deposits:
            deposits = lp_contribution_schedule(config, rng)
        out.append((invoices, deposits))
    return out


def assert_decoded_equal(decoded, reference):
    for row, (invoices, deposits) in enumerate(reference):
        assert decoded.q[row].tolist() == [inv.q for inv in invoices]
        assert decoded.amount[row].tolist() == [inv.demanded_collateral for inv in invoices]
        assert decoded.defaults[row].tolist() == [inv.defaults for inv in invoices]
        assert decoded.delay[row].tolist() == [inv.payment_delay_days for inv in invoices]
        if deposits is None:
            continue
        if decoded.deposits is None:
            assert not deposits.any()
        else:
            assert decoded.deposits[row].tobytes() == deposits.tobytes()


class TestDecodeStreams:
    @pytest.mark.parametrize("scenario_id", PRESET_IDS)
    def test_equals_generator_bit_for_bit(self, scenario_id):
        sims = [0, 1, 6, 41]
        for seed in (0, 5, 9173):
            config = scenario_preset(scenario_id, seed=seed)
            assert_decoded_equal(decode_streams(config, sims), reference_streams(config, sims))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_invoices": 0},
            {"n_invoices": 7, "delay_range_days": (30, 30)},  # numpy draws no delay
            {"n_invoices": 9, "hack_probability": 0.5, "hack_q": 0.3, "nonpayment_probability": 0.5},
            {"n_invoices": 11, "lp_contribution_probability": 0.3, "lp_cap_fraction": 0.2,
             "lp_contribution_mode": "fixed"},
            {"n_invoices": 5, "delay_range_days": (1, 199_965)},  # widest span the envelope admits
        ],
    )
    def test_layout_corners(self, overrides):
        config = ScenarioConfig(seed=3, **overrides)
        sims = [0, 2]
        reference = reference_streams(config, sims, with_deposits=config.horizon_days < 10_000)
        assert_decoded_equal(decode_streams(config, sims), reference)

    def test_wide_delay_range_falls_back_to_the_generator(self, monkeypatch):
        # Lemire's method rejects 98,482 of every 2**32 draws for this span,
        # which at seed 69 hits simulations 4 and 18
        config = ScenarioConfig(n_invoices=400, delay_range_days=(1, 98_719), seed=69)
        calls = []
        original = scenarios.generate_stream
        monkeypatch.setattr(
            scenarios, "generate_stream",
            lambda cfg, rng: calls.append(1) or original(cfg, rng),
        )
        sims = list(range(20))
        decoded = decode_streams(config, sims)
        assert len(calls) == 2
        monkeypatch.undo()
        for row, sim_index in enumerate(sims):
            invoices = generate_stream(config, simulation_rng(config.seed, sim_index))
            assert decoded.delay[row].tolist() == [inv.payment_delay_days for inv in invoices]
            assert decoded.q[row].tolist() == [inv.q for inv in invoices]
