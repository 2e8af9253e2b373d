"""The benchmark's calls into the program still run and report the recorded values.

``benchmarks/run.py`` drives kellypool through ``benchmarks/workloads.py``;
a refactor that drops or reshapes a function those scripts call breaks
the benchmark without failing any other test.
"""

import sys
from pathlib import Path

import pytest

from kellypool import CellResult, reports, run_batch, scenario_preset

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def run():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import run

        run.load_program()
        yield run
    finally:
        sys.path.remove(str(BENCHMARKS))


@pytest.mark.parametrize("name", ["batch", "sweep"])
def test_gated_workloads_match_their_references(run, name, tmp_path, monkeypatch):
    import workloads

    monkeypatch.setattr(run, "TMP", tmp_path)
    tally = run.Tally()
    run.check_references(workloads.WORKLOADS[name], tally)
    assert (tally.attempted, tally.failed) == (2, 0)


def test_report_bundle_adapter_builds_the_cell():
    batch = run_batch(scenario_preset("5.3", n_simulations=1, withdrawal_enabled=True))
    cell = reports.ReportBundle(scenario_id="5.3", config=batch.config, withdrawal=batch)
    assert isinstance(cell, CellResult)
    assert vars(cell) == vars(CellResult(withdrawal=batch))
    comparison = CellResult(no_withdrawal=batch, withdrawal=batch)
    assert reports.ReportBundle.from_comparison(comparison) is comparison


def test_tracer_finds_every_symbol_it_reads(run):
    """The per-layer metrics read spans of these symbols; only ``cli._run_cell`` is gone."""
    import tracing

    with tracing.Tracer() as tracer:
        assert tracer.absent == {"cli._run_cell"}
