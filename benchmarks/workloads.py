"""The three benchmark workloads, driven through kellypool's public API.

Each workload builds its inputs from a seed (``setup``) and runs one timed
operation (``run``).  Untimed, ``export`` leaves the operation's report
files in its directory for the reference check, and ``fingerprint`` gives
what two repetitions of the operation must agree on.  Import this module
only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import outputs
from kellypool import cli, engine, reports, scenarios

# Simulations per batch in the sweep: small, so each run times several sweeps.
SWEEP_SIMS = 2
# Invoices in the single long simulation: a horizon of about 50,000 days.
LONG_INVOICES = 50_000


class OperationFailed(RuntimeError):
    """The program reported a failure without raising."""


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Any]
    run: Callable[[Any, Path], Any]
    export: Callable[[Any, Any, Path], None]
    fingerprint: Callable[[Any, Path], Any]
    sim_days: Callable[[Any], int]


def _cell_name(config: scenarios.ScenarioConfig) -> str:
    return f"{config.scenario_id}_p{config.withdrawal_period_days}"


# --- batch: one paired withdrawal-off/on batch, the paper's unit of result ---

def _batch_setup(seed: int) -> scenarios.ScenarioConfig:
    return scenarios.scenario_preset("2.3", seed=seed, withdrawal_period_days=30)


def _batch_run(config, out_dir: Path):
    return engine.compare_withdrawal(config)


def _batch_export(config, comparison, out_dir: Path) -> None:
    bundle = reports.ReportBundle.from_comparison(comparison)
    reports.export_bundle(bundle, out_dir / _cell_name(config))
    reports.write_diff_rows(reports.diff_report_rows([bundle]), out_dir / "diff_report.csv")


# --- sweep: the 75-cell CLI sweep with few simulations per batch ---

def sweep_argv(seed: int) -> list[str]:
    """Sweep arguments without ``--out``; no ``--jobs``, so the CLI default applies."""
    return ["sweep", "--sims", str(SWEEP_SIMS), "--seed", str(seed)]


def sweep_jobs(seed: int) -> int:
    """Worker processes the sweep runs with: the CLI default, as no ``--jobs`` is given."""
    args = cli.build_parser().parse_args(sweep_argv(seed) + ["--out", "unused"])
    return getattr(args, "jobs", 1)


def _sweep_setup(seed: int) -> dict:
    configs = [
        scenarios.scenario_preset(
            scenario_id, seed=seed, n_simulations=SWEEP_SIMS, withdrawal_period_days=period
        )
        for scenario_id in scenarios.SWEEP_IDS
        for period in scenarios.WITHDRAWAL_PERIODS
    ]
    return {"argv": sweep_argv(seed), "configs": configs}


def _sweep_run(inputs: dict, out_dir: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(inputs["argv"] + ["--out", str(out_dir)])
    if code != 0:
        raise OperationFailed(f"kellypool sweep exited with code {code}")
    return code


def _sweep_export(inputs, code, out_dir: Path) -> None:
    """The sweep wrote its report files itself."""


def _sweep_fingerprint(code, out_dir: Path) -> dict:
    return outputs.read_report(out_dir)


def _result_fingerprint(result, out_dir: Path) -> str:
    return outputs.result_digest(result)


# --- single-long: one simulation over a long stream, withdrawing daily ---

def _long_setup(seed: int) -> scenarios.ScenarioConfig:
    return scenarios.scenario_preset(
        "1.2", seed=seed, n_simulations=1, n_invoices=LONG_INVOICES,
        withdrawal_enabled=True, withdrawal_period_days=1,
    )


def _long_run(config, out_dir: Path):
    return engine.run_batch(config)


def _long_export(config, batch, out_dir: Path) -> None:
    bundle = reports.ReportBundle(scenario_id=config.scenario_id, config=batch.config, withdrawal=batch)
    reports.export_bundle(bundle, out_dir / _cell_name(config))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "batch",
            _batch_setup, _batch_run, _batch_export, _result_fingerprint,
            lambda config: 2 * config.n_simulations * config.horizon_days,
        ),
        Workload(
            "sweep",
            _sweep_setup, _sweep_run, _sweep_export, _sweep_fingerprint,
            lambda inputs: sum(2 * c.n_simulations * c.horizon_days for c in inputs["configs"]),
        ),
        Workload(
            "single-long",
            _long_setup, _long_run, _long_export, _result_fingerprint,
            lambda config: config.horizon_days,
        ),
    )
}
