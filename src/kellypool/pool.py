"""Liquidity pool ledger and premium quoting for partly collateralized invoices.

The pool holds two euro reserves:

  * a liquidity reserve that lends the missing collateral of accepted
    invoices, and
  * a premium reserve fed by the fee every accepted invoice pays in.

An invoice with non-collateralized share ``q`` asking the pool to cover
``Q`` euros is priced by solving the Kelly bet-sizing identity for the
odds term instead of the bet size.  With ``f`` the share of the pool
volume the invoice demands,

    f = Q / (liquidity + premium_reserve)
    b = q^2 / (1 - q * (f + 1))
    premium = b * Q

``b`` is the ratio of the pool's potential profit (the premium) to its
potential loss (the lent collateral).  The denominator must stay
positive; once ``q * (f + 1) >= 1`` there is no positive premium that
compensates the risk and the invoice has to be rejected.  Keeping
``q <= 0.49`` guarantees a positive denominator for every invoice that
fits inside the pool volume (``f <= 1``).

All amounts are plain floats carrying full precision; rounding to cents
happens only at reporting boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclasses_field
from enum import Enum
from typing import Iterable


class QuoteError(Exception):
    """A premium cannot be priced for this invoice against this pool."""


class ZeroVolumeError(QuoteError):
    """The pool holds no funds, so the demanded share f is undefined."""


class NonPositiveDenominatorError(QuoteError):
    """1 - q(f+1) <= 0: the rate equation has no positive solution."""


class LedgerError(Exception):
    """Internal bookkeeping was violated; indicates a simulator bug."""


class RejectionReason(Enum):
    INSUFFICIENT_FUNDS = "insufficient_funds"
    UNQUOTABLE_PREMIUM = "unquotable_premium"


@dataclass(frozen=True)
class Rejection:
    """Outcome of an invoice the pool turned away."""

    reason: RejectionReason


@dataclass(frozen=True)
class PremiumQuote:
    """Priced terms for one invoice against one pool state."""

    f: float        # share of the pool volume the invoice demands
    b: float        # premium rate: potential profit over potential loss
    premium: float  # euro fee, b * demanded collateral


@dataclass
class Invoice:
    """One funding request: lend ``demanded_collateral`` against share ``q``."""

    id: int
    q: float                    # non-collateralized share of the face value
    demanded_collateral: float  # euros the pool is asked to lend
    arrival_day: int
    payment_delay_days: int = 0
    bogus: bool = False         # injected attack invoice, never repays
    defaults: bool = False      # never repays: bogus or flagged non-payment
    accepted: bool = False
    acceptance_day: int | None = None
    premium_paid: float = 0.0
    repaid: bool = False

    @property
    def due_day(self) -> int | None:
        """Day the lent collateral comes back, once accepted."""
        if self.acceptance_day is None:
            return None
        return self.acceptance_day + self.payment_delay_days


@dataclass
class PoolState:
    """The pool ledger.

    ``liquidity`` and ``premium_reserve`` are the live reserves; the
    cumulative fields only ever grow and exist so that the conservation
    identity can be checked at any time (see ``conservation_residual``).
    """

    day: int = 0
    liquidity: float = 0.0
    premium_reserve: float = 0.0
    cumulative_premium_collected: float = 0.0
    cumulative_withdrawn: float = 0.0
    cumulative_lp_deposits: float = 0.0
    outstanding_lent: float = 0.0
    loss_total: float = 0.0
    # sub-ulp rounding carry per accumulator, folded in only when the
    # conservation identity is evaluated, so long operation sequences
    # cannot drift it (compare=False: ledgers agreeing in euros are equal)
    _carry: dict = dataclasses_field(default_factory=dict, repr=False, compare=False)

    @property
    def volume(self) -> float:
        """Total funds available to collateralize: liquidity plus premium."""
        return self.liquidity + self.premium_reserve


def two_sum(a, b):
    """``a + b`` as rounded, and the exact error of that rounding.

    Branch-free TwoSum on floats or numpy arrays alike, so the scalar
    ledger and the lanes book the same errors.
    """
    total = a + b
    back = total - a
    return total, (a - (total - back)) + (b - back)


def _book(pool: PoolState, name: str, error: float) -> None:
    """Add a rounding error to the carry of accumulator ``name``."""
    if error != 0.0:
        pool._carry[name] = pool._carry.get(name, 0.0) + error


def _add(pool: PoolState, name: str, delta: float) -> None:
    """Accumulate, booking the rounding error in the carry."""
    total, error = two_sum(getattr(pool, name), delta)
    _book(pool, name, error)
    setattr(pool, name, total)


def compute_f(demanded_collateral: float, volume: float) -> float:
    """Share of the pool volume a single invoice demands."""
    if volume <= 0.0:
        raise ZeroVolumeError("pool volume must be positive to quote")
    return demanded_collateral / volume


def compute_b(q: float, f: float) -> float:
    """Premium rate b = q^2 / (1 - q(f+1)).

    Strictly increasing in both q and f: invoices that are less
    collateralized, or that demand a larger share of the pool, pay a
    higher rate.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie strictly inside (0, 1), got {q}")
    if f < 0.0:
        raise ValueError(f"f must be non-negative, got {f}")
    denominator = 1.0 - q * (f + 1.0)
    if denominator <= 0.0:
        raise NonPositiveDenominatorError(
            f"q(f+1) = {q * (f + 1.0):.6f} >= 1: no positive premium exists"
        )
    return q * q / denominator


def quote_premium(q: float, demanded_collateral: float, pool: PoolState) -> PremiumQuote:
    """Price an invoice against the current pool state. Pure: pool unchanged."""
    if demanded_collateral <= 0.0:
        raise ValueError("demanded collateral must be positive")
    f = compute_f(demanded_collateral, pool.volume)
    b = compute_b(q, f)
    return PremiumQuote(f=f, b=b, premium=b * demanded_collateral)


def accept_invoice(pool: PoolState, invoice: Invoice) -> PremiumQuote | Rejection:
    """Try to collateralize an invoice arriving today.

    On acceptance the premium is collected into the premium reserve and
    the demanded collateral is paid out liquidity-first, with the
    premium reserve covering any remainder.  The invoice must fit inside
    the pool volume as it stood before the premium came in; otherwise
    the pool is left untouched and a Rejection is returned.
    """
    if invoice.accepted:
        raise LedgerError(f"invoice {invoice.id} was already accepted")
    if invoice.arrival_day != pool.day:
        raise LedgerError(
            f"invoice {invoice.id} arrives on day {invoice.arrival_day}, "
            f"pool is at day {pool.day}"
        )
    demanded = invoice.demanded_collateral
    volume = pool.volume
    try:
        quote = quote_premium(invoice.q, demanded, pool)
    except NonPositiveDenominatorError:
        if demanded > volume:
            return Rejection(RejectionReason.INSUFFICIENT_FUNDS)
        return Rejection(RejectionReason.UNQUOTABLE_PREMIUM)
    except ZeroVolumeError:
        return Rejection(RejectionReason.INSUFFICIENT_FUNDS)
    if demanded > volume:
        return Rejection(RejectionReason.INSUFFICIENT_FUNDS)

    from_liquidity = min(pool.liquidity, demanded)
    from_premium, error = two_sum(demanded, -from_liquidity)
    _add(pool, "cumulative_premium_collected", quote.premium)
    _add(pool, "premium_reserve", quote.premium)
    _add(pool, "premium_reserve", -from_premium)
    # the reserve pays demanded - from_liquidity exactly, from_premium as rounded
    _book(pool, "premium_reserve", -error)
    _add(pool, "liquidity", -from_liquidity)
    _add(pool, "outstanding_lent", demanded)
    if pool.premium_reserve < 0.0:
        # float corner when the payout empties the reserve; park the dust
        # in the carry so the conservation identity stays exact
        _book(pool, "premium_reserve", pool.premium_reserve)
        pool.premium_reserve = 0.0
    invoice.accepted = True
    invoice.acceptance_day = pool.day
    invoice.premium_paid = quote.premium
    return quote


def repay_invoice(pool: PoolState, invoice: Invoice) -> None:
    """Return lent collateral to the liquidity reserve.

    Repayments always credit liquidity, never the premium reserve, even
    when part of the payout originally came from premium.
    """
    if not invoice.accepted:
        raise LedgerError(f"invoice {invoice.id} was never accepted")
    if invoice.repaid:
        raise LedgerError(f"invoice {invoice.id} was already repaid")
    if invoice.bogus or invoice.defaults:
        raise LedgerError(f"invoice {invoice.id} defaults and never repays")
    _add(pool, "liquidity", invoice.demanded_collateral)
    _add(pool, "outstanding_lent", -invoice.demanded_collateral)
    invoice.repaid = True


def lp_deposit(pool: PoolState, amount: float) -> None:
    """Credit a liquidity-provider contribution to the liquidity reserve."""
    if amount < 0.0:
        raise ValueError("deposit amount must be non-negative")
    _add(pool, "liquidity", amount)
    _add(pool, "cumulative_lp_deposits", amount)


def withdraw_premium(pool: PoolState, fraction: float) -> float:
    """Withdraw ``fraction`` of the current premium reserve; returns euros taken."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"withdrawal fraction must lie in [0, 1], got {fraction}")
    withdrawn = fraction * pool.premium_reserve
    _add(pool, "premium_reserve", -withdrawn)
    _add(pool, "cumulative_withdrawn", withdrawn)
    return withdrawn


def sum_in_order(values: Iterable[float]) -> float:
    """Plain left-to-right float sum, from 0.0.

    ``sum()`` compensates float rounding from Python 3.12 on, which would
    make report bytes depend on the interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def finalize_losses(pool: PoolState, invoices: Iterable[Invoice]) -> float:
    """Book unreturned collateral as losses at the end of a run."""
    pool.loss_total = sum_in_order(
        inv.demanded_collateral for inv in invoices if inv.accepted and not inv.repaid
    )
    return pool.loss_total


def conservation_residual(
    pool: PoolState, initial_liquidity: float, initial_premium: float = 0.0
) -> float:
    """How far the ledger is from balancing; zero for a correct ledger.

    Every euro in the pool is either still in a reserve, lent out, or
    withdrawn, and every euro entered as initial funds, an LP deposit,
    or collected premium.  Each accumulator counts with its carry, and
    the terms are summed exactly (``math.fsum``): a float sum rounds at
    the ulp of the largest term, which exceeds the engine's 1e-6 guard
    on pools from about 1e9 euros.
    """
    carry = pool._carry.get
    return math.fsum((
        pool.liquidity, carry("liquidity", 0.0),
        pool.premium_reserve, carry("premium_reserve", 0.0),
        pool.outstanding_lent, carry("outstanding_lent", 0.0),
        pool.cumulative_withdrawn, carry("cumulative_withdrawn", 0.0),
        -initial_liquidity, -initial_premium,
        -pool.cumulative_lp_deposits, -carry("cumulative_lp_deposits", 0.0),
        -pool.cumulative_premium_collected, -carry("cumulative_premium_collected", 0.0),
    ))
