"""Unit tests for the pool ledger and premium quoting."""

import math

import pytest

from kellypool import (
    Invoice,
    LedgerError,
    NonPositiveDenominatorError,
    PoolState,
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

# Reference quote for q=0.4 demanding 800 from an 1,800-euro pool.
REF_B = 0.16 / (1.0 - 0.4 * (800.0 / 1800.0 + 1.0))
REF_PREMIUM = 800.0 * REF_B


def make_invoice(q=0.4, amount=800.0, day=0, delay=30, **kwargs):
    return Invoice(
        id=kwargs.pop("id", 1),
        q=q,
        demanded_collateral=amount,
        arrival_day=day,
        payment_delay_days=delay,
        **kwargs,
    )


class TestPoolVolume:
    def test_liquidity_plus_premium(self):
        assert PoolState(liquidity=1800.0).volume == 1800.0
        assert PoolState(liquidity=1000.0, premium_reserve=303.16).volume == pytest.approx(1303.16)

    def test_empty_pool(self):
        assert PoolState().volume == 0.0

    def test_volume_property_matches(self):
        pool = PoolState(liquidity=12.5, premium_reserve=7.5)
        assert pool.volume == pool.liquidity + pool.premium_reserve == 20.0


class TestComputeF:
    def test_reference_ratio(self):
        assert compute_f(800.0, 1800.0) == pytest.approx(0.444444444444, rel=1e-12)

    def test_zero_demand(self):
        assert compute_f(0.0, 1800.0) == 0.0

    def test_full_pool_demand(self):
        assert compute_f(1800.0, 1800.0) == 1.0

    def test_zero_volume_rejected(self):
        with pytest.raises(ZeroVolumeError):
            compute_f(100.0, 0.0)


class TestComputeB:
    def test_reference_rate(self):
        b = compute_b(0.4, 800.0 / 1800.0)
        assert b == pytest.approx(REF_B, rel=1e-14)
        assert abs(b - 0.3789) < 0.0005

    def test_vanishing_q_vanishing_rate(self):
        assert compute_b(1e-9, 0.7) == pytest.approx(0.0, abs=1e-15)

    def test_hand_checked_value(self):
        # 0.2^2 / (1 - 0.2 * 1.02) = 0.04 / 0.796
        assert compute_b(0.2, 0.02) == pytest.approx(0.04 / 0.796, rel=1e-14)

    def test_non_positive_denominator(self):
        # q(f+1) = 0.6 * 1.7 = 1.02
        with pytest.raises(NonPositiveDenominatorError):
            compute_b(0.6, 0.7)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5])
    def test_q_outside_open_interval(self, q):
        with pytest.raises(ValueError):
            compute_b(q, 0.5)

    def test_negative_f(self):
        with pytest.raises(ValueError):
            compute_b(0.3, -0.01)


class TestQuotePremium:
    def test_reference_quote(self):
        quote = quote_premium(0.4, 800.0, PoolState(liquidity=1800.0))
        assert quote.f == pytest.approx(800.0 / 1800.0, rel=1e-14)
        assert quote.b == pytest.approx(REF_B, rel=1e-14)
        assert quote.premium == pytest.approx(303.16, abs=0.01)

    def test_zero_demand_rejected(self):
        with pytest.raises(ValueError):
            quote_premium(0.4, 0.0, PoolState(liquidity=1800.0))

    def test_hand_checked_quote(self):
        quote = quote_premium(0.2, 200.0, PoolState(liquidity=10_000.0))
        assert quote.premium == pytest.approx(200.0 * 0.04 / 0.796, rel=1e-12)
        assert quote.premium == pytest.approx(10.0503, abs=1e-4)

    def test_pure_no_pool_mutation(self):
        pool = PoolState(liquidity=1800.0)
        quote_premium(0.4, 800.0, pool)
        assert pool == PoolState(liquidity=1800.0)

    def test_premium_over_demand_equals_b(self):
        quote = quote_premium(0.37, 1234.5, PoolState(liquidity=5000.0, premium_reserve=42.0))
        assert quote.premium / 1234.5 == pytest.approx(quote.b, rel=1e-12)


class TestAcceptInvoice:
    def test_reference_acceptance(self):
        pool = PoolState(liquidity=1800.0)
        invoice = make_invoice()
        quote = accept_invoice(pool, invoice)
        assert quote.premium == pytest.approx(REF_PREMIUM, rel=1e-14)
        assert pool.liquidity == pytest.approx(1000.0)
        assert pool.premium_reserve == pytest.approx(303.16, abs=0.005)
        assert pool.outstanding_lent == pytest.approx(800.0)
        assert pool.cumulative_premium_collected == pytest.approx(quote.premium)
        assert invoice.accepted and invoice.acceptance_day == 0
        assert invoice.premium_paid == quote.premium
        assert invoice.due_day == 30

    def test_empty_pool_rejects(self):
        pool = PoolState()
        outcome = accept_invoice(pool, make_invoice())
        assert outcome == Rejection(RejectionReason.INSUFFICIENT_FUNDS)
        assert pool == PoolState()

    def test_insufficient_funds_rejects_unchanged(self):
        pool = PoolState(liquidity=100.0, premium_reserve=50.0)
        outcome = accept_invoice(pool, make_invoice(q=0.3, amount=400.0))
        assert outcome == Rejection(RejectionReason.INSUFFICIENT_FUNDS)
        assert (pool.liquidity, pool.premium_reserve) == (100.0, 50.0)

    def test_unquotable_premium_with_funds(self):
        # q 0.6, f 0.7: denominator non-positive although funds would suffice
        pool = PoolState(liquidity=1000.0)
        outcome = accept_invoice(pool, make_invoice(q=0.6, amount=700.0))
        assert outcome == Rejection(RejectionReason.UNQUOTABLE_PREMIUM)
        assert pool.liquidity == 1000.0

    def test_payout_spills_into_premium_reserve(self):
        pool = PoolState(liquidity=500.0, premium_reserve=400.0)
        invoice = make_invoice(q=0.2, amount=700.0)
        quote = accept_invoice(pool, invoice)
        assert pool.liquidity == 0.0
        assert pool.premium_reserve == pytest.approx(400.0 + quote.premium - 200.0)
        assert conservation_residual(pool, 500.0, 400.0) == pytest.approx(0.0, abs=1e-12)

    def test_double_accept_is_a_bug(self):
        pool = PoolState(liquidity=1800.0)
        invoice = make_invoice()
        accept_invoice(pool, invoice)
        pool.day = 0
        with pytest.raises(LedgerError):
            accept_invoice(pool, invoice)

    def test_wrong_day_is_a_bug(self):
        pool = PoolState(liquidity=1800.0, day=3)
        with pytest.raises(LedgerError):
            accept_invoice(pool, make_invoice(day=7))

    def test_exact_volume_fit_is_accepted(self):
        pool = PoolState(liquidity=900.0, premium_reserve=100.0)
        outcome = accept_invoice(pool, make_invoice(q=0.2, amount=1000.0))
        assert not isinstance(outcome, Rejection)
        assert pool.liquidity == 0.0
        assert pool.premium_reserve >= 0.0


class TestRepayInvoice:
    def test_reference_repayment(self):
        pool = PoolState(liquidity=1800.0)
        invoice = make_invoice()
        accept_invoice(pool, invoice)
        pool.day = 30
        repay_invoice(pool, invoice)
        assert pool.liquidity == pytest.approx(1800.0)
        assert pool.premium_reserve == pytest.approx(REF_PREMIUM)
        assert pool.volume == pytest.approx(2103.16, abs=0.005)
        assert pool.outstanding_lent == pytest.approx(0.0)
        assert invoice.repaid

    def test_double_repay_is_a_bug(self):
        pool = PoolState(liquidity=1800.0)
        invoice = make_invoice()
        accept_invoice(pool, invoice)
        repay_invoice(pool, invoice)
        with pytest.raises(LedgerError):
            repay_invoice(pool, invoice)

    def test_repayment_credits_liquidity_only(self):
        pool = PoolState(premium_reserve=50.0, outstanding_lent=800.0)
        invoice = make_invoice(accepted=True, acceptance_day=0)
        repay_invoice(pool, invoice)
        assert pool.liquidity == 800.0
        assert pool.premium_reserve == 50.0

    def test_bogus_never_repays(self):
        pool = PoolState()
        invoice = make_invoice(bogus=True, accepted=True, acceptance_day=0)
        with pytest.raises(LedgerError):
            repay_invoice(pool, invoice)

    def test_unaccepted_repay_is_a_bug(self):
        with pytest.raises(LedgerError):
            repay_invoice(PoolState(), make_invoice())


class TestLpDeposit:
    def test_credits_liquidity(self):
        pool = PoolState(liquidity=1000.0, premium_reserve=10.0)
        lp_deposit(pool, 100.0)
        assert pool.liquidity == 1100.0
        assert pool.cumulative_lp_deposits == 100.0

    def test_zero_deposit_is_identity(self):
        pool = PoolState(liquidity=1000.0)
        lp_deposit(pool, 0.0)
        assert pool.liquidity == 1000.0 and pool.cumulative_lp_deposits == 0.0

    def test_large_deposit_into_empty_pool(self):
        pool = PoolState()
        lp_deposit(pool, 2500.0)
        assert pool.liquidity == 2500.0

    def test_negative_deposit_rejected(self):
        with pytest.raises(ValueError):
            lp_deposit(PoolState(), -1.0)


class TestWithdrawPremium:
    def test_half_of_reserve(self):
        pool = PoolState(liquidity=5.0, premium_reserve=200.0)
        withdrawn = withdraw_premium(pool, 0.5)
        assert withdrawn == 100.0
        assert pool.premium_reserve == 100.0
        assert pool.cumulative_withdrawn == 100.0

    def test_zero_fraction_is_identity(self):
        pool = PoolState(premium_reserve=200.0)
        assert withdraw_premium(pool, 0.0) == 0.0
        assert pool.premium_reserve == 200.0

    def test_empty_reserve(self):
        pool = PoolState(liquidity=100.0)
        assert withdraw_premium(pool, 0.5) == 0.0

    @pytest.mark.parametrize("fraction", [-0.1, 1.1])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(ValueError):
            withdraw_premium(PoolState(), fraction)


class TestFinalizeLosses:
    def test_no_unpaid_invoices(self):
        pool = PoolState()
        assert finalize_losses(pool, [make_invoice(accepted=True, repaid=True)]) == 0.0
        assert pool.loss_total == 0.0

    def test_one_unpaid(self):
        pool = PoolState()
        assert finalize_losses(pool, [make_invoice(accepted=True, acceptance_day=0)]) == 800.0

    def test_sums_unpaid_only(self):
        invoices = [
            make_invoice(id=1, amount=100.0, accepted=True, acceptance_day=0),
            make_invoice(id=2, amount=200.0, accepted=True, acceptance_day=1),
            make_invoice(id=3, amount=300.0, accepted=True, acceptance_day=2),
            make_invoice(id=4, amount=999.0, accepted=True, acceptance_day=3, repaid=True),
            make_invoice(id=5, amount=777.0),  # never accepted
        ]
        assert finalize_losses(PoolState(), invoices) == 600.0

    def test_sums_left_to_right(self):
        # compensated summation (sum() from Python 3.12 on) would give 1.0
        invoices = [
            make_invoice(id=i, amount=amount, accepted=True, acceptance_day=0)
            for i, amount in enumerate([1e16, 1.0, -1e16])
        ]
        assert finalize_losses(PoolState(), invoices) == 0.0


class TestConservation:
    def test_scripted_sequence_balances(self):
        pool = PoolState(liquidity=10_000.0)
        first = make_invoice(id=1, q=0.3, amount=4_000.0)
        accept_invoice(pool, first)
        lp_deposit(pool, 1_234.56)
        withdraw_premium(pool, 0.25)
        pool.day = 30
        repay_invoice(pool, first)
        second = make_invoice(id=2, q=0.45, amount=9_000.0, day=30)
        accept_invoice(pool, second)
        finalize_losses(pool, [first, second])
        assert abs(conservation_residual(pool, 10_000.0)) < 1e-9
        assert pool.outstanding_lent >= pool.loss_total

    def test_worked_sequence_is_exact(self):
        pool = PoolState(liquidity=1800.0)
        invoice = make_invoice()
        accept_invoice(pool, invoice)
        repay_invoice(pool, invoice)
        assert conservation_residual(pool, 1800.0) == 0.0

    def test_accept_reject_keeps_balance(self):
        pool = PoolState(liquidity=100.0)
        accept_invoice(pool, make_invoice(q=0.2, amount=5_000.0))
        assert conservation_residual(pool, 100.0) == 0.0

    def test_residual_is_summed_exactly(self):
        # a float sum rounds 1e16 + 1.0 back to 1e16, and 1e12 + 1e-5 to 1e12
        pool = PoolState(liquidity=1e16, premium_reserve=1.0)
        assert conservation_residual(pool, 1e16) == 1.0
        pool = PoolState(liquidity=1e12)
        pool._carry["liquidity"] = 1e-5
        assert conservation_residual(pool, 1e12) == 1e-5


def test_premium_quote_is_frozen():
    quote = quote_premium(0.4, 800.0, PoolState(liquidity=1800.0))
    with pytest.raises(AttributeError):
        quote.premium = 0.0


def test_never_paid_sentinel_pushes_due_day_out():
    invoice = make_invoice(delay=100_000)
    invoice.accepted = True
    invoice.acceptance_day = 499
    assert invoice.due_day == 100_499
    assert math.isfinite(invoice.due_day)
