"""Scenario configuration, preset catalog, and stochastic invoice generation.

A scenario is fully described by a ``ScenarioConfig``.  The catalog in
``scenario_preset`` starts from the default parameter set (10,000 euros
of initial collateral, 500 invoices of 100-2,000 euros with a
non-collateralized share of 5-49% and payment delays of 30-120 days)
and applies one family of deltas per scenario group:

  1.x  liquidity providers deposit on half of all days, capped at
       1/5/10/25% of the initial collateral per contribution
  2.x  2/5/20% of invoices never repay
  3.x  payment delays shortened or stretched to 30-60/60-90/90-120 days
  4.x  every invoice demands a fixed 1/10/25% of the initial collateral
  5.x  the non-collateralized share is fixed at 45/25/10%
  hack-q{49,30,10}-h{10,50,100}  bogus never-repaying invoices with a
       fixed non-collateralized share are injected at 10/50/100%

A stream is defined on raw 64-bit words: each simulation reads its own
PCG64 seeded by ``SeedSequence(seed, spawn_key=(simulation_index,))``
(``simulation_rng``), whose words numpy keeps stable across versions
(NEP 19), so every run is reproducible from ``(seed, simulation_index)``
alone.  ``_double``, ``_uniform`` and ``_delay`` turn words into values.
``generate_stream`` reads one word at a time and is the reference;
``decode_streams`` reads the same words for many simulations at once.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pool import Invoice


class ConfigError(ValueError):
    """A scenario configuration is inconsistent or unknown."""


WITHDRAWAL_PERIODS = (1, 30, 90)

# The envelope of a config that simulates.  Invoice count and horizon size
# the per-day tables and the repayment ring; the cap is about four times
# the 50,150 days of a 50,000-invoice run.  Every euro that can enter the
# pool, premiums included, must stay below 2**53 cents, where float64
# still resolves a cent.
_MAX_DAYS = 200_000
_MAX_MONEY = 2.0**53 / 100

# A scenario ID names its cell directory, so it must be one plain path component.
_SCENARIO_ID = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# A rule is (accepts, description): whether a value has the field's type and
# lies in its range, and the words that name such values.  An int passes as a float.
_INT = (_is_int, "an integer")
_NUMBER = (_is_number, "a finite number")
_POSITIVE = ((lambda v: _is_number(v) and v > 0.0), "a positive finite number")
_SHARE = ((lambda v: _is_number(v) and 0.0 <= v <= 1.0), "a number in [0, 1]")
_OPEN_SHARE = ((lambda v: _is_number(v) and 0.0 < v < 1.0), "a number inside (0, 1)")


def _at_least(low, kind=_INT):
    is_kind, name = kind
    bound = "non-negative" if low == 0 else f"at least {low}"
    return (lambda v: is_kind(v) and v >= low), f"{bound} ({name})"


def _one_of(choices, is_kind):
    return (lambda v: is_kind(v) and v in choices), f"one of {choices}"


def _pair(rule):
    """Tuples of two values that pass ``rule``, the first no larger."""
    accepts, description = rule
    return (
        lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(accepts, v)) and v[0] <= v[1]
    ), f"an ordered pair, each {description}"


def _or_none(rule):
    accepts, description = rule
    return (lambda v: v is None or accepts(v)), f"{description}, or None"


# One rule per constructor field of ScenarioConfig, in field order.
_FIELD_RULES = {
    "scenario_id": (
        lambda v: isinstance(v, str) and _SCENARIO_ID.fullmatch(v) is not None,
        "a string of ASCII letters, digits, '.', '_' or '-' that does not start with '.'",
    ),
    "n_simulations": _at_least(1),
    "initial_collateral": _at_least(0.01, _NUMBER),  # a cent: the *_x_ic ratios divide by it
    "initial_premium": _at_least(0, _NUMBER),
    "n_invoices": _at_least(0),
    "q_range": _pair(_OPEN_SHARE),
    "amount_range": _or_none(_pair(_POSITIVE)),
    "amount_fraction_of_initial": _or_none(_NUMBER),
    "delay_range_days": _pair(_at_least(1)),
    "lp_contribution_probability": _SHARE,
    "lp_cap_fraction": _SHARE,
    "lp_contribution_mode": _one_of(("uniform", "fixed"), lambda v: isinstance(v, str)),
    "nonpayment_probability": _SHARE,
    "hack_probability": _SHARE,
    "hack_q": _or_none(_OPEN_SHARE),
    "max_entry_days": _or_none(_at_least(0)),
    "additional_days": _at_least(0),
    "withdrawal_enabled": ((lambda v: isinstance(v, bool)), "true or false"),
    "withdrawal_period_days": _one_of(WITHDRAWAL_PERIODS, _is_int),
    "withdrawal_fraction": _SHARE,
    "seed": _at_least(0),
}
_PAIR_FIELDS = ("q_range", "amount_range", "delay_range_days")  # tuples, lists in JSON


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete parameter set for one scenario batch.

    Exactly one of ``amount_range`` and ``amount_fraction_of_initial``
    must be set; the latter makes every invoice demand that fixed share
    of the initial collateral.  ``max_entry_days`` defaults to the
    number of invoices; ``n_arrivals``, the smaller of the two, arrive one
    a day from day 0.  ``horizon_days`` is derived as ``max_entry_days +
    max delay + additional_days`` so that every genuine invoice can repay
    before the run ends.  A config outside the envelope (``_MAX_DAYS``,
    ``_MAX_MONEY`` with premiums, ``q < 1/2``) is rejected.
    """

    scenario_id: str = "custom"
    n_simulations: int = 100
    initial_collateral: float = 10_000.0
    initial_premium: float = 0.0
    n_invoices: int = 500
    q_range: tuple[float, float] = (0.05, 0.49)
    amount_range: tuple[float, float] | None = (100.0, 2_000.0)
    amount_fraction_of_initial: float | None = None
    delay_range_days: tuple[int, int] = (30, 120)
    lp_contribution_probability: float = 0.0
    lp_cap_fraction: float = 0.0        # per-contribution cap, share of initial collateral
    lp_contribution_mode: str = "uniform"  # "uniform" in [0, cap] or "fixed" at cap
    nonpayment_probability: float = 0.0
    hack_probability: float = 0.0
    hack_q: float | None = None
    max_entry_days: int | None = None
    additional_days: int = 30
    horizon_days: int = dataclasses.field(default=None, init=False)
    withdrawal_enabled: bool = False
    withdrawal_period_days: int = 30
    withdrawal_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name, (accepts, description) in _FIELD_RULES.items():
            value = getattr(self, name)
            if not accepts(value):
                raise ConfigError(f"{name} must be {description}, got {value!r}")
        if (self.amount_range is None) == (self.amount_fraction_of_initial is None):
            raise ConfigError("set exactly one of amount_range and amount_fraction_of_initial")
        if self.amount_range is None and not self.amount_fraction_of_initial * self.initial_collateral > 0.0:
            raise ConfigError("amount_fraction_of_initial x initial_collateral must be a positive amount")
        if self.max_entry_days is None:
            object.__setattr__(self, "max_entry_days", self.n_invoices)
        object.__setattr__(
            self, "horizon_days", self.max_entry_days + self.delay_range_days[1] + self.additional_days
        )
        if max(self.n_invoices, self.horizon_days) > _MAX_DAYS:
            raise ConfigError(
                f"n_invoices and horizon_days must be at most {_MAX_DAYS:,}, "
                f"got {self.n_invoices:,} and {self.horizon_days:,}"
            )
        # An accepted invoice demands at most the volume (f <= 1), so its
        # premium factor q^2 / (1 - q(f + 1)) is at most q^2 / (1 - 2q) for
        # q < 1/2; from q = 1/2 on it has no bound.
        q_max = max(self.q_range[1], self.hack_q or 0.0)
        if q_max >= 0.5:
            raise ConfigError(
                f"the largest non-collateralized share (q_range and hack_q) must stay "
                f"below 0.5, where premiums have no bound; got {q_max}"
            )
        if self.amount_range is not None:
            largest_amount = self.amount_range[1]
        else:
            largest_amount = self.amount_fraction_of_initial * self.initial_collateral
        money = (
            self.initial_collateral
            + self.initial_premium
            + self.n_invoices * largest_amount * (1.0 + q_max**2 / (1.0 - 2.0 * q_max))
            + self.horizon_days * self.lp_cap_fraction * self.initial_collateral
        )
        if not money < _MAX_MONEY:
            raise ConfigError(
                f"initial funds, n_invoices x the largest amount and its largest premium, "
                f"and horizon_days x the LP cap add up to {money:.6g} euros; they must stay "
                f"below 2**53 cents ({_MAX_MONEY:.6g} euros)"
            )

    n_arrivals = property(lambda self: min(self.n_invoices, self.max_entry_days))

    def replace(self, **changes) -> "ScenarioConfig":
        """Copy with fields changed; ``horizon_days`` is derived again.

        ``max_entry_days`` follows a new ``n_invoices`` only while it still
        holds its default, the old ``n_invoices``; a custom value is kept.
        """
        if "n_invoices" in changes and self.max_entry_days == self.n_invoices:
            changes.setdefault("max_entry_days", None)
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        for key in _PAIR_FIELDS:
            if out[key] is not None:
                out[key] = list(out[key])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """The config of a ``to_dict`` record; its ``horizon_days`` must be the derived one."""
        kwargs = dict(data)
        horizon_days = kwargs.pop("horizon_days", None)
        unknown = set(kwargs) - set(_FIELD_RULES)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for key in _PAIR_FIELDS:
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(kwargs[key])
        config = cls(**kwargs)
        if horizon_days is not None and not (_is_int(horizon_days) and horizon_days == config.horizon_days):
            raise ConfigError(
                f"horizon_days must equal max_entry_days + max delay + additional_days "
                f"= {config.horizon_days}, got {horizon_days!r}"
            )
        return config

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ScenarioConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        # JSONDecodeError or UnicodeDecodeError; RecursionError on deeply nested text
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config file must hold a JSON object")
        return cls.from_dict(data)


# --- Preset catalog ---------------------------------------------------------

_PRESET_DELTAS: dict[str, dict] = {
    "baseline": {},
    # growing LP contributions, half of all days
    "1.1": {"lp_contribution_probability": 0.5, "lp_cap_fraction": 0.01},
    "1.2": {"lp_contribution_probability": 0.5, "lp_cap_fraction": 0.05},
    "1.3": {"lp_contribution_probability": 0.5, "lp_cap_fraction": 0.10},
    "1.4": {"lp_contribution_probability": 0.5, "lp_cap_fraction": 0.25},
    # rising non-payment rates
    "2.1": {"nonpayment_probability": 0.02},
    "2.2": {"nonpayment_probability": 0.05},
    "2.3": {"nonpayment_probability": 0.20},
    # shorter or longer payment delays
    "3.1": {"delay_range_days": (30, 60)},
    "3.2": {"delay_range_days": (60, 90)},
    "3.3": {"delay_range_days": (90, 120)},
    # fixed demanded collateral as a share of the initial collateral
    "4.1": {"amount_range": None, "amount_fraction_of_initial": 0.01},
    "4.2": {"amount_range": None, "amount_fraction_of_initial": 0.10},
    "4.3": {"amount_range": None, "amount_fraction_of_initial": 0.25},
    # fixed non-collateralized share
    "5.1": {"q_range": (0.45, 0.45)},
    "5.2": {"q_range": (0.25, 0.25)},
    "5.3": {"q_range": (0.10, 0.10)},
}
for _hack_q in (0.49, 0.30, 0.10):
    for _hack_p in (0.10, 0.50, 1.00):
        _PRESET_DELTAS[f"hack-q{round(_hack_q * 100)}-h{round(_hack_p * 100)}"] = {
            "hack_q": _hack_q,
            "hack_probability": _hack_p,
        }

PRESET_IDS: tuple[str, ...] = tuple(_PRESET_DELTAS)

# The result-table grid: every preset except the plain baseline.
SWEEP_IDS: tuple[str, ...] = tuple(sid for sid in PRESET_IDS if sid != "baseline")


def scenario_preset(scenario_id: str, **overrides) -> ScenarioConfig:
    """Build the named preset, optionally overriding individual fields."""
    try:
        deltas = _PRESET_DELTAS[scenario_id]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {scenario_id!r}; known presets: {', '.join(PRESET_IDS)}"
        ) from None
    return ScenarioConfig(scenario_id=scenario_id, **deltas).replace(**overrides)


# --- Invoice generation on raw words -----------------------------------------

_UINT32_MAX = 0xFFFF_FFFF


def simulation_rng(seed: int, sim_index: int) -> np.random.PCG64:
    """The raw word stream of one simulation of a batch."""
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(sim_index,)))


def _double(word):
    """The unit double in [0, 1) of a raw word (or an array of them): its top 53 bits."""
    return (word >> 11) * 2.0**-53


def _uniform(lo: float, hi: float, unit):
    """A draw uniform in [lo, hi) from a unit double."""
    return lo + (hi - lo) * unit


def _delay(lo: int, hi: int, half):
    """A delay in [lo, hi] from a 32-bit half word (or a uint64 array of them):
    Lemire's multiply-shift, with no rejection, so the bias is at most (hi - lo + 1) / 2**32."""
    return lo + (half * (hi - lo + 1) >> 32)


def _draw_layout(config: ScenarioConfig) -> tuple[int, bool, float]:
    """Per invoice, words read before the bogus flag and whether a delay is read
    (none for an empty range); and the LP deposit cap, 0.0 when deposits read nothing."""
    lead = (config.hack_q is None) + (config.amount_fraction_of_initial is None)
    cap = config.lp_cap_fraction * config.initial_collateral
    return (lead, config.delay_range_days[1] > config.delay_range_days[0],
            cap if config.lp_contribution_probability > 0.0 else 0.0)


def generate_stream(config: ScenarioConfig, words: np.random.PCG64) -> list[Invoice]:
    """The invoices that arrive, one a day from day 0, read one word at a time.

    Only the first ``n_arrivals`` are drawn.  Per invoice the words are, in
    order: q (unless ``hack_q`` fixes it), the amount (unless it is a fixed
    fraction), the bogus flag, the non-payment flag (not read for a bogus
    invoice) and the delay.  The delays of invoices 2i and 2i+1 are the low
    and high halves of one word, read right after invoice 2i's flags.  Bogus
    and flagged-unpaid invoices are marked ``defaults`` and never repay.
    """
    _, draws_delay, _ = _draw_layout(config)
    d_lo, d_hi = config.delay_range_days
    invoices = []
    pending = None  # the high half of the last delay word, for the next invoice
    for day in range(config.n_arrivals):
        q = config.hack_q
        if q is None:
            q = _uniform(*config.q_range, _double(words.random_raw()))
        if config.amount_fraction_of_initial is not None:
            amount = config.amount_fraction_of_initial * config.initial_collateral
        else:
            amount = _uniform(*config.amount_range, _double(words.random_raw()))
        bogus = _double(words.random_raw()) < config.hack_probability
        unpaid = not bogus and _double(words.random_raw()) < config.nonpayment_probability
        delay = d_lo
        if draws_delay:
            if pending is None:
                word = words.random_raw()
                half, pending = word & _UINT32_MAX, word >> 32
            else:
                half, pending = pending, None
            delay = _delay(d_lo, d_hi, half)
        invoices.append(Invoice(id=day, q=q, demanded_collateral=amount, arrival_day=day,
                                payment_delay_days=delay, bogus=bogus, defaults=bogus or unpaid))
    return invoices


def lp_contribution_schedule(config: ScenarioConfig, words: np.random.PCG64) -> np.ndarray:
    """Per-day liquidity-provider deposits over the config's whole horizon.

    One word per day decides whether that day contributes; in uniform mode
    one more word per day, read after all of those, sets an amount uniform
    in [0, cap), and in fixed mode the amount is the cap.  Returns zeros
    without reading a word when contributions are disabled.
    """
    _, _, cap = _draw_layout(config)
    horizon_days = config.horizon_days
    if not cap:
        return np.zeros(horizon_days)
    occurs = _double(words.random_raw(horizon_days)) < config.lp_contribution_probability
    if config.lp_contribution_mode != "fixed":
        cap = _uniform(0.0, cap, _double(words.random_raw(horizon_days)))
    return np.where(occurs, cap, 0.0)


# --- Vectorised decoding of many streams at once ----------------------------

@dataclass(frozen=True)
class StreamArrays:
    """Invoice streams and LP deposit schedules of several simulations.

    Row ``r`` belongs to the r-th requested simulation index.  Invoice
    fields have one column per arriving invoice; ``deposits`` has one
    column per day of the horizon and is None without LP deposits.
    """

    q: np.ndarray
    amount: np.ndarray
    defaults: np.ndarray
    delay: np.ndarray
    deposits: np.ndarray | None


def _words_before(index, per_invoice: int, draws_delay: bool):
    """Raw words before invoice ``index``: ``per_invoice`` each, and one delay word a pair."""
    return index * per_invoice + draws_delay * ((index + 1) // 2)


def stream_words(config: ScenarioConfig) -> int:
    """Raw PCG64 words ``decode_streams`` reads per simulation of ``config``."""
    lead, draws_delay, cap = _draw_layout(config)
    lp_words = 1 if config.lp_contribution_mode == "fixed" else 2
    return (
        _words_before(config.n_arrivals, lead + 2, draws_delay)
        + (config.horizon_days * lp_words if cap else 0)
        + 1  # a non-payment flag index past a trailing bogus invoice stays in bounds
    )


def decode_streams(config: ScenarioConfig, sim_indices) -> StreamArrays:
    """What ``generate_stream`` and ``lp_contribution_schedule`` read, for many
    simulations at once and equal bit for bit.

    Each simulation's words are read in one ``random_raw`` call and
    decoded as arrays by the same value rules (``_double``, ``_uniform``,
    ``_delay``); the LP schedule's words follow the last arriving invoice.
    """
    sims = list(sim_indices)
    n_sims, n, horizon = len(sims), config.n_arrivals, config.horizon_days
    d_lo, d_hi = config.delay_range_days
    draws_q = config.hack_q is None
    lead, draws_delay, cap = _draw_layout(config)
    p_hack = config.hack_probability

    n_words = stream_words(config)
    raw = np.empty((n_sims, n_words), dtype=np.uint64)
    for row, sim_index in enumerate(sims):
        raw[row] = simulation_rng(config.seed, sim_index).random_raw(n_words)
    rows = np.arange(n_sims)[:, None]

    def unit(index: np.ndarray) -> np.ndarray:
        """The unit doubles of the words at ``index`` of each row."""
        return _double(raw[rows[:, 0] if index.ndim == 1 else rows, index])

    if 0.0 < p_hack < 1.0:
        # the non-payment word is skipped for bogus invoices, so each
        # invoice's position depends on the flags of the ones before it
        starts = np.empty((n_sims, n), dtype=np.int64)
        bogus = np.empty((n_sims, n), dtype=bool)
        offset = np.zeros(n_sims, dtype=np.int64)
        for i in range(n):
            starts[:, i] = offset
            flag = unit(offset + lead) < p_hack
            bogus[:, i] = flag
            offset += lead + 2 + (draws_delay and i % 2 == 0) - flag
        end = offset
    else:
        # a unit double < 0 never holds and one < 1 always does
        always_bogus = p_hack >= 1.0
        per_invoice = lead + 2 - always_bogus
        starts = np.broadcast_to(_words_before(np.arange(n), per_invoice, draws_delay), (n_sims, n))
        bogus = np.full((n_sims, n), always_bogus)
        end = np.full(n_sims, _words_before(n, per_invoice, draws_delay))

    if draws_q:
        q = _uniform(*config.q_range, unit(starts))
    else:
        q = np.full((n_sims, n), config.hack_q)
    if config.amount_fraction_of_initial is None:
        amount = _uniform(*config.amount_range, unit(starts + draws_q))
    else:
        amount = np.full((n_sims, n), config.amount_fraction_of_initial * config.initial_collateral)
    defaults = bogus | (unit(starts + lead + 1) < config.nonpayment_probability)

    if draws_delay:
        pair_words = raw[rows, starts[:, 0::2] + lead + 2 - bogus[:, 0::2]]
        halves = np.stack([pair_words & np.uint64(_UINT32_MAX), pair_words >> np.uint64(32)], axis=2)
        delay = _delay(d_lo, d_hi, halves.reshape(n_sims, -1)[:, :n]).astype(np.int64)
    else:
        delay = np.full((n_sims, n), d_lo, dtype=np.int64)

    deposits = None
    if cap:
        days = end[:, None] + np.arange(horizon)
        occurs = unit(days) < config.lp_contribution_probability
        amounts = (cap if config.lp_contribution_mode == "fixed"
                   else _uniform(0.0, cap, unit(days + horizon)))
        deposits = np.where(occurs, amounts, 0.0)

    return StreamArrays(q=q, amount=amount, defaults=defaults, delay=delay, deposits=deposits)
