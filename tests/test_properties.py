"""Property tests: rate monotonicity, quote consistency, ledger conservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellypool import (
    Invoice,
    PoolState,
    Rejection,
    RejectionReason,
    accept_invoice,
    compute_b,
    conservation_residual,
    lp_deposit,
    quote_premium,
    repay_invoice,
    withdraw_premium,
)

q_values = st.floats(min_value=0.05, max_value=0.49)
f_values = st.floats(min_value=0.0, max_value=1.0)


@given(q=q_values, f=f_values)
def test_rate_positive_and_finite(q, f):
    b = compute_b(q, f)
    assert 0.0 < b < float("inf")


@given(q=q_values, f_low=f_values, f_high=f_values)
def test_rate_increases_with_demanded_share(q, f_low, f_high):
    if f_low > f_high:
        f_low, f_high = f_high, f_low
    if f_high - f_low < 1e-9:  # below float resolution of the denominator
        return
    assert compute_b(q, f_low) < compute_b(q, f_high)


@given(
    f=f_values,
    q_low=st.floats(min_value=0.001, max_value=0.499),
    q_high=st.floats(min_value=0.001, max_value=0.499),
)
def test_rate_increases_with_uncovered_share(f, q_low, q_high):
    if q_low > q_high:
        q_low, q_high = q_high, q_low
    if q_high - q_low < 1e-9:  # below float resolution of the denominator
        return
    assert compute_b(q_low, f) < compute_b(q_high, f)


@given(
    q=q_values,
    demanded=st.floats(min_value=0.01, max_value=5_000.0),
    liquidity=st.floats(min_value=1.0, max_value=100_000.0),
    premium=st.floats(min_value=0.0, max_value=50_000.0),
)
def test_quote_consistency(q, demanded, liquidity, premium):
    pool = PoolState(liquidity=liquidity, premium_reserve=premium)
    if demanded > pool.volume:
        return  # f > 1 can hit the rate singularity for q near 0.49
    quote = quote_premium(q, demanded, pool)
    assert quote.premium / demanded == pytest.approx(quote.b, rel=1e-12)


@given(
    liquidity=st.floats(min_value=0.0, max_value=50_000.0),
    premium=st.floats(min_value=0.0, max_value=10_000.0),
    q=q_values,
    demanded=st.floats(min_value=0.01, max_value=60_001.0),
)
def test_accept_rejects_rather_than_overdraw(liquidity, premium, q, demanded):
    pool = PoolState(liquidity=liquidity, premium_reserve=premium)
    invoice = Invoice(id=0, q=q, demanded_collateral=demanded, arrival_day=0)
    outcome = accept_invoice(pool, invoice)
    # the lanes' mask, computed as engine._run_lanes does
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        volume = np.float64(liquidity) + np.float64(premium)
        f = np.float64(demanded) / volume
        accepted = (1.0 - q * (f + 1.0) > 0.0) & (demanded <= volume)
    assert pool.liquidity >= 0.0
    assert pool.premium_reserve >= 0.0
    assert isinstance(outcome, Rejection) != accepted
    if isinstance(outcome, Rejection):
        assert (pool.liquidity, pool.premium_reserve) == (liquidity, premium)
        assert (outcome.reason is RejectionReason.INSUFFICIENT_FUNDS) == (demanded > volume)
    else:
        assert demanded <= liquidity + premium


operation = st.sampled_from(["accept", "repay", "deposit", "withdraw"])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_ops=st.integers(min_value=1, max_value=120),
)
def test_conservation_over_random_operation_sequences(seed, n_ops):
    """The ledger balances to 1e-9 after every operation, whatever the order."""
    rng = np.random.default_rng(seed)
    initial = float(rng.uniform(0.0, 20_000.0))
    pool = PoolState(liquidity=initial)
    open_invoices = []
    next_id = 0
    for _ in range(n_ops):
        op = rng.choice(["accept", "accept", "repay", "deposit", "withdraw"])
        if op == "accept":
            invoice = Invoice(
                id=next_id,
                q=float(rng.uniform(0.05, 0.49)),
                demanded_collateral=float(rng.uniform(1.0, 10_000.0)),
                arrival_day=pool.day,
            )
            next_id += 1
            outcome = accept_invoice(pool, invoice)
            if not isinstance(outcome, Rejection):
                open_invoices.append(invoice)
        elif op == "repay" and open_invoices:
            repay_invoice(pool, open_invoices.pop(int(rng.integers(len(open_invoices)))))
        elif op == "deposit":
            lp_deposit(pool, float(rng.uniform(0.0, 5_000.0)))
        elif op == "withdraw":
            withdraw_premium(pool, float(rng.uniform(0.0, 1.0)))
        assert abs(conservation_residual(pool, initial)) <= 1e-9
        assert pool.liquidity >= 0.0
        assert pool.premium_reserve >= 0.0
        assert pool.outstanding_lent >= -1e-9
