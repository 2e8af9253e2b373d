"""Self-test of the benchmark's output check and tracer.

    python3 benchmarks/selftest.py

Checks that a perturbed reference value makes the output check count the
operation as failed; that every span's self time plus its children's
durations equals its duration; that tracing restores the original
functions, can be installed again, reports a missing symbol as absent
and layers run in worker processes as not seen; and that counts repeat
exactly.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import copy
import json
import sys

import numpy as np

import run

workloads = run.load_program()
import tracing  # noqa: E402  (needs kellypool on the path)
from kellypool import engine, scenarios  # noqa: E402

SMALL = scenarios.scenario_preset("1.2", seed=5, n_simulations=3, n_invoices=60)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_perturbed_reference_fails() -> None:
    batch = workloads.WORKLOADS["batch"]
    references = {
        seed: json.loads(run.reference_path("batch", seed).read_text(encoding="utf-8"))
        for seed in run.REFERENCE_SEEDS
    }
    perturbed = copy.deepcopy(references)
    perturbed[run.REFERENCE_SEEDS[0]]["cells"]["2.3_p30"]["metrics"]["withdrawal"][3] += 0.01
    tally = run.Tally()
    run.check_references(batch, tally, perturbed)
    expect((tally.attempted, tally.failed) == (2, 1),
           f"one perturbed value should fail one of two operations, got {vars(tally)}")


def _traced_symbols() -> list:
    found = []
    for module_name, attribute, _ in tracing.TRACED:
        owner = sys.modules[module_name]
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        found.append(owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf))
    return found


def _check_span_tree(spans: dict) -> None:
    duration = spans["end"] - spans["start"]
    own = tracing.self_times(spans)
    parent = spans["parent"]
    expect(int((parent < 0).sum()) == 1 and parent[0] == -1, "exactly one root span, recorded first")
    expect(bool((parent < np.arange(len(parent))).all()), "every parent opens before its children")
    for index in range(len(duration)):
        children = np.flatnonzero(parent == index)
        total = own[index] + duration[children].sum()
        expect(abs(total - duration[index]) <= 1e-9,
               f"span {index}: self {own[index]} + children {duration[children].sum()} != {duration[index]}")
        expect(bool((spans["start"][children] >= spans["start"][index]).all()
                    and (spans["end"][children] <= spans["end"][index]).all()),
               f"span {index}: a child lies outside its parent")


def check_tracing() -> None:
    originals = _traced_symbols()
    removed = tuple(
        (module, "conservation_residual_removed", name) if name == "engine.conservation_residual"
        else (module, attribute, name)
        for module, attribute, name in tracing.TRACED
    )
    counts = []
    for _ in range(2):
        with tracing.Tracer(removed) as tracer:
            tracer.begin()
            engine.compare_withdrawal(SMALL)
            tracer.end()
            _check_span_tree(tracer.spans())
            summary = tracer.summary()
        expect(tracer.absent == {"engine.conservation_residual"}, f"absent: {tracer.absent}")
        values, status, unsteady = tracing.layer_metrics(tracer, [summary, summary], [1.0], [1.0])
        expect(values["engine.guard_s"] == tracing.MISSING
               and status["engine.guard_s"].startswith("absent"), "a removed symbol reads as absent")
        expect(values["scenarios.streams"] == 6 and values["engine.sim_days"] == 6 * SMALL.horizon_days,
               f"counts: {values}")
        expect(not unsteady, f"identical summaries counted differently: {unsteady}")
        counts.append({k: values[k] for k, spec in tracing.LAYER_METRICS.items() if spec[2]})
        expect(all(a is b for a, b in zip(_traced_symbols(), originals)), "originals restored")
    expect(counts[0] == counts[1], f"counts differ between two traced runs: {counts}")

    with tracing.Tracer() as tracer:
        tracer.begin()
        engine.compare_withdrawal(SMALL, jobs=2)
        tracer.end()
        summary = tracer.summary()
    values, status, _ = tracing.layer_metrics(tracer, [summary], [1.0], [1.0])
    expect(summary["calls"]["engine.run_batch"] == 2, "batches run in this process are seen")
    expect(values["engine.sim_days"] == tracing.MISSING
           and status["engine.sim_days"].startswith("not seen"),
           "simulations run in worker processes read as not seen")


def main() -> int:
    run.TMP.mkdir(exist_ok=True)
    failures = 0
    for check in (check_perturbed_reference_fails, check_tracing):
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"PASS {check.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
