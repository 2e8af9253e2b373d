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

Generation is driven by an explicit numpy ``Generator``; batches derive
one independent stream per simulation index (see ``engine``), so every
run is reproducible from ``(seed, simulation_index)`` alone.
``generate_stream`` draws one invoice at a time and is the reference;
``decode_streams`` produces the same streams for many simulations at
once by decoding the generator's raw 64-bit output.
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


# Checks per field annotation; an int passes as a float.
_TYPE_CHECKS = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "tuple[int, int]": (
        lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_is_int, v)),
        "a pair of integers",
    ),
    "tuple[float, float]": (
        lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_is_number, v)),
        "a pair of finite numbers",
    ),
}


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
    horizon_days: int | None = None
    withdrawal_enabled: bool = False
    withdrawal_period_days: int = 30
    withdrawal_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name, optional, check, expected in _FIELD_CHECKS:
            value = getattr(self, name)
            if not (check(value) or optional and value is None):
                raise ConfigError(f"{name} must be {expected}, got {value!r}")
        if not _SCENARIO_ID.fullmatch(self.scenario_id):
            raise ConfigError(
                f"scenario_id must be ASCII letters, digits, '.', '_' or '-' and not start "
                f"with '.', got {self.scenario_id!r}"
            )
        if self.n_simulations < 1:
            raise ConfigError("n_simulations must be at least 1")
        if not self.initial_collateral >= 0.01:  # the *_x_ic ratios divide by it
            raise ConfigError(f"initial_collateral must be at least 0.01 (a cent), got {self.initial_collateral}")
        if self.initial_premium < 0:
            raise ConfigError("initial_premium must be non-negative")
        if self.n_invoices < 0:
            raise ConfigError("n_invoices must be non-negative")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        lo, hi = self.q_range
        if not (0.0 < lo <= hi < 1.0):
            raise ConfigError(f"q_range must lie inside (0, 1) and be ordered, got {self.q_range}")
        if (self.amount_range is None) == (self.amount_fraction_of_initial is None):
            raise ConfigError("set exactly one of amount_range and amount_fraction_of_initial")
        if self.amount_range is not None:
            a_lo, a_hi = self.amount_range
            if not (0.0 < a_lo <= a_hi):
                raise ConfigError(f"amount_range must be positive and ordered, got {self.amount_range}")
        elif not self.amount_fraction_of_initial * self.initial_collateral > 0.0:
            raise ConfigError("amount_fraction_of_initial x initial_collateral must be a positive amount")
        d_lo, d_hi = self.delay_range_days
        if not (0 < d_lo <= d_hi):
            raise ConfigError(f"delay_range_days must be positive and ordered, got {self.delay_range_days}")
        for name in ("lp_contribution_probability", "nonpayment_probability",
                     "hack_probability", "withdrawal_fraction", "lp_cap_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        if self.lp_contribution_mode not in ("uniform", "fixed"):
            raise ConfigError(f"lp_contribution_mode must be 'uniform' or 'fixed', got {self.lp_contribution_mode!r}")
        if self.hack_q is not None and not (0.0 < self.hack_q < 1.0):
            raise ConfigError(f"hack_q must lie inside (0, 1), got {self.hack_q}")
        if self.withdrawal_period_days not in WITHDRAWAL_PERIODS:
            raise ConfigError(
                f"withdrawal_period_days must be one of {WITHDRAWAL_PERIODS}, got {self.withdrawal_period_days}"
            )
        if self.max_entry_days is None:
            object.__setattr__(self, "max_entry_days", self.n_invoices)
        elif self.max_entry_days < 0:
            raise ConfigError("max_entry_days must be non-negative")
        if self.additional_days < 0:
            raise ConfigError("additional_days must be non-negative")
        derived = self.max_entry_days + self.delay_range_days[1] + self.additional_days
        if self.horizon_days is None:
            object.__setattr__(self, "horizon_days", derived)
        elif self.horizon_days != derived:
            raise ConfigError(
                f"horizon_days must equal max_entry_days + max delay + additional_days "
                f"= {derived}, got {self.horizon_days}"
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
        """Copy with fields changed; ``horizon_days`` is derived again unless given.

        ``max_entry_days`` follows a new ``n_invoices`` only while it still
        holds its default, the old ``n_invoices``; a custom value is kept.
        """
        changes.setdefault("horizon_days", None)
        if "n_invoices" in changes and self.max_entry_days == self.n_invoices:
            changes.setdefault("max_entry_days", None)
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        for key in ("q_range", "amount_range", "delay_range_days"):
            if out[key] is not None:
                out[key] = list(out[key])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(data)
        for key in ("q_range", "amount_range", "delay_range_days"):
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

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


# Per field: its name, whether it may be None, and the check of its annotated type.
_FIELD_CHECKS = tuple(
    (f.name, f.type.endswith(" | None"), *_TYPE_CHECKS[f.type.removesuffix(" | None")])
    for f in dataclasses.fields(ScenarioConfig)
)


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


# --- Invoice generation -----------------------------------------------------

def generate_invoice(day: int, config: ScenarioConfig, rng: np.random.Generator) -> Invoice:
    """Draw one invoice arriving on ``day``.

    Draw order per invoice is fixed: non-collateralized share (unless
    ``hack_q`` fixes it), demanded amount (unless it is a fixed fraction),
    bogus flag, non-payment flag, payment delay.  The non-payment uniform
    is drawn only for invoices that are not bogus.  The delay is always
    drawn, so the layout does not depend on the flags; bogus and
    flagged-unpaid invoices are marked ``defaults`` and never repay.
    """
    if day < 0:
        raise ValueError("day must be non-negative")
    if config.hack_q is not None:
        q = config.hack_q
    else:
        q = float(rng.uniform(*config.q_range))
    if config.amount_fraction_of_initial is not None:
        amount = config.amount_fraction_of_initial * config.initial_collateral
    else:
        amount = float(rng.uniform(*config.amount_range))
    bogus = bool(rng.random() < config.hack_probability)
    unpaid = (not bogus) and bool(rng.random() < config.nonpayment_probability)
    d_lo, d_hi = config.delay_range_days
    delay = int(rng.integers(d_lo, d_hi, endpoint=True))
    return Invoice(
        id=day,
        q=q,
        demanded_collateral=amount,
        arrival_day=day,
        payment_delay_days=delay,
        bogus=bogus,
        defaults=bogus or unpaid,
    )


def generate_stream(config: ScenarioConfig, rng: np.random.Generator) -> list[Invoice]:
    """Generate the full invoice stream, one arrival per day from day 0."""
    return [generate_invoice(day, config, rng) for day in range(config.n_invoices)]


def lp_contribution_schedule(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-day liquidity-provider deposits over the config's whole horizon.

    Each day contributes with the configured probability; the amount is
    uniform in [0, cap] or exactly the cap in fixed mode.  Returns zeros
    without consuming randomness when contributions are disabled.
    """
    _, _, cap = _draw_layout(config)
    horizon_days = config.horizon_days
    if not cap:
        return np.zeros(horizon_days)
    occurs = rng.random(horizon_days) < config.lp_contribution_probability
    if config.lp_contribution_mode == "fixed":
        amounts = np.full(horizon_days, cap)
    else:
        amounts = rng.uniform(0.0, cap, horizon_days)
    return np.where(occurs, amounts, 0.0)


def simulation_rng(seed: int, sim_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one simulation of a batch."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(sim_index,)))


# --- Vectorised decoding of many streams at once ----------------------------

_UINT32_MAX = 0xFFFF_FFFF


@dataclass(frozen=True)
class StreamArrays:
    """Invoice streams and LP deposit schedules of several simulations.

    Row ``r`` belongs to the r-th requested simulation index.  Invoice
    fields have one column per invoice; ``deposits`` has one column per
    day of the horizon and is None when the config has no LP deposits.
    """

    q: np.ndarray
    amount: np.ndarray
    defaults: np.ndarray
    delay: np.ndarray
    deposits: np.ndarray | None


def _uniform(lo: float, hi: float, unit: np.ndarray) -> np.ndarray:
    """``Generator.uniform`` applied to already drawn unit doubles."""
    return lo + (hi - lo) * unit


def _draw_layout(config: ScenarioConfig) -> tuple[int, bool, float]:
    """Per invoice, doubles drawn before the bogus flag and whether a delay is drawn
    (none for an empty range); and the LP deposit cap, 0.0 when deposits draw nothing."""
    lead = (config.hack_q is None) + (config.amount_fraction_of_initial is None)
    cap = config.lp_cap_fraction * config.initial_collateral
    return (lead, config.delay_range_days[1] > config.delay_range_days[0],
            cap if config.lp_contribution_probability > 0.0 else 0.0)


def _words_before(index, per_invoice: int, draws_delay: bool):
    """Raw words before invoice ``index``: ``per_invoice`` each, and one delay word a pair."""
    return index * per_invoice + draws_delay * ((index + 1) // 2)


def stream_words(config: ScenarioConfig) -> int:
    """Raw PCG64 words ``decode_streams`` reads per simulation of ``config``."""
    lead, draws_delay, cap = _draw_layout(config)
    lp_words = 1 if config.lp_contribution_mode == "fixed" else 2
    return (
        _words_before(config.n_invoices, lead + 2, draws_delay)
        + (config.horizon_days * lp_words if cap else 0)
        + 1  # a non-payment flag index past a trailing bogus invoice stays in bounds
    )


def decode_streams(config: ScenarioConfig, sim_indices) -> StreamArrays:
    """What ``generate_stream`` and ``lp_contribution_schedule`` draw, for many
    simulations at once and equal bit for bit.

    Each simulation's generator output is read as raw PCG64 words
    (``random_raw``) and decoded the way numpy's ``Generator`` consumes
    them: a double is ``(word >> 11) * 2**-53`` and ``uniform(lo, hi)`` is
    ``lo + (hi - lo) * double``.  Per invoice the draws follow
    ``generate_invoice``.  Integer delays come from numpy's buffered
    32-bit draws: the delays of invoices 2i and 2i+1 are the low and high
    halves of one word, drawn right after invoice 2i's flags, each mapped
    into range by Lemire's multiply-shift (D. Lemire, "Fast Random Integer
    Generation in an Interval", 2019).  The LP schedule's draws follow
    the stream.  A stream in which Lemire's method would reject a draw
    (and draw again) is generated by ``generate_stream`` instead.  The
    config envelope keeps the delay span far below 32 bits.
    """
    sims = list(sim_indices)
    n_sims, n, horizon = len(sims), config.n_invoices, config.horizon_days
    d_lo, d_hi = config.delay_range_days
    span = d_hi - d_lo
    draws_q = config.hack_q is None
    lead, draws_delay, cap = _draw_layout(config)
    p_hack = config.hack_probability

    n_words = stream_words(config)
    raw = np.empty((n_sims, n_words), dtype=np.uint64)
    for row, sim_index in enumerate(sims):
        seed_seq = np.random.SeedSequence(config.seed, spawn_key=(sim_index,))
        raw[row] = np.random.PCG64(seed_seq).random_raw(n_words)
    rows = np.arange(n_sims)[:, None]

    def unit(index: np.ndarray) -> np.ndarray:
        """The doubles ``Generator.random`` makes of the words at ``index`` of each row."""
        return (raw[rows[:, 0] if index.ndim == 1 else rows, index] >> 11) * 2.0**-53

    if 0.0 < p_hack < 1.0:
        # the non-payment draw is skipped for bogus invoices, so each
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
        # random() < 0 never holds and random() < 1 always does
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

    rejected = np.zeros(n_sims, dtype=bool)
    if draws_delay:
        pair_words = raw[rows, starts[:, 0::2] + lead + 2 - bogus[:, 0::2]]
        halves = np.stack([pair_words & _UINT32_MAX, pair_words >> 32], axis=2)
        scaled = halves.reshape(n_sims, -1)[:, :n] * np.uint64(span + 1)
        threshold = (2**32 - (span + 1)) % (span + 1)
        rejected = ((scaled & _UINT32_MAX) < threshold).any(axis=1)
        delay = d_lo + (scaled >> 32).astype(np.int64)
    else:
        delay = np.full((n_sims, n), d_lo, dtype=np.int64)

    deposits = None
    if cap:
        days = end[:, None] + np.arange(horizon)
        occurs = unit(days) < config.lp_contribution_probability
        amounts = (cap if config.lp_contribution_mode == "fixed"
                   else _uniform(0.0, cap, unit(days + horizon)))
        deposits = np.where(occurs, amounts, 0.0)

    streams = StreamArrays(q=q, amount=amount, defaults=defaults, delay=delay, deposits=deposits)
    for row in np.flatnonzero(rejected):
        _fill_from_generator(streams, row, config, sims[row])
    return streams


def _fill_from_generator(
    streams: StreamArrays, row: int, config: ScenarioConfig, sim_index: int
) -> None:
    """Overwrite one row with the reference generator's draws."""
    rng = simulation_rng(config.seed, sim_index)
    invoices = generate_stream(config, rng)
    streams.q[row] = [inv.q for inv in invoices]
    streams.amount[row] = [inv.demanded_collateral for inv in invoices]
    streams.defaults[row] = [inv.defaults for inv in invoices]
    streams.delay[row] = [inv.payment_delay_days for inv in invoices]
    if streams.deposits is not None:
        streams.deposits[row] = lp_contribution_schedule(config, rng)
