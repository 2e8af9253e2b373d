"""kellypool benchmark: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload batch --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: the median wall time
per operation, simulated days per second, set-up time, peak memory and
the share of operations that passed every check.  With ``--trace 1`` it
alternates untraced and traced operations and prints the per-layer
metrics instead.  Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, preceded by a
``run_record`` line that says where and how the numbers were taken.

Every run first checks the workload's report values at two fixed seeds
against references recorded in ``reference/``, then repeats the timed
operation on the inputs built from ``--seed`` and checks that every
repetition reports the same values as the first.  Untraced runs measure
set-up time and peak memory in fresh processes (``--probe``), the first of
which also makes the reference check.  ``--record-reference`` rewrites the
reference files from the program as it stands.  The program is imported
from ``src/`` of the checkout holding this file, never from an installed
copy.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
REFERENCE_DIR = HERE / "reference"

# The default scenario seed and one held out from everything else.
REFERENCE_SEEDS = (0, 9173)
MIN_OPS = 3            # untraced operations per run, at least
MIN_TRACED_OPS = 3     # traced operations per traced run, at least
MAX_FAILURES = 3       # stop repeating a failing operation after this many
LOOP_LIMIT = 3.0       # stop repeating after this many times --seconds of wall time
SETUP_PROBES = 5       # fresh processes timing set-up; the median is reported

# The keys of workloads.WORKLOADS, named here because a probe must start its
# clock before that module (and with it kellypool) is imported.
WORKLOAD_NAMES = ("batch", "sweep", "single-long")
END_TO_END_UNITS = {
    "op_wall_s": "s",
    "sim_days_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def load_program():
    """Import the workloads, and through them kellypool, from this checkout's ``src``."""
    if not (SRC / "kellypool" / "__init__.py").is_file():
        raise ImportError(f"kellypool sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import kellypool
    import workloads

    if Path(kellypool.__file__).resolve().parent != SRC / "kellypool":
        raise ImportError(f"kellypool was imported from {kellypool.__file__}, not from {SRC}")
    return workloads


class Tally:
    """Operations attempted and failed, with the reason for each failure on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)


def run_op(workload, inputs, tracer=None, export=False):
    """Run one operation in a fresh directory.

    Returns its wall time, what it reported (the report values read back from
    its exported files with ``export``, else its fingerprint) and, with a
    tracer, the trace summary.
    """
    import outputs

    out_dir = Path(tempfile.mkdtemp(dir=TMP))
    try:
        gc.collect()
        if tracer is not None:
            tracer.begin()
        started = perf_counter()
        try:
            result = workload.run(inputs, out_dir)
        finally:
            wall = perf_counter() - started
            if tracer is not None:
                tracer.end()
        summary = tracer.summary() if tracer is not None else None
        if export:
            workload.export(inputs, result, out_dir)
            return wall, outputs.read_report(out_dir), summary
        return wall, workload.fingerprint(result, out_dir), summary
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def reference_path(workload_name: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload_name}-seed{seed}.json"


def check_references(workload, tally: Tally, references: dict | None = None) -> None:
    """Run the operation at each reference seed and compare its report values."""
    import outputs

    for seed in REFERENCE_SEEDS:
        tally.attempted += 1
        try:
            if references is None:
                reference = json.loads(reference_path(workload.name, seed).read_text(encoding="utf-8"))
            else:
                reference = references[seed]
            _, report, _ = run_op(workload, workload.setup(seed), export=True)
        except Exception:
            traceback.print_exc()
            tally.fail(f"{workload.name} at reference seed {seed} raised")
            continue
        found = outputs.mismatches(reference, report)
        if found:
            tally.fail(f"{workload.name} at seed {seed} differs from its reference: {found[:5]}")


def repeat_ops(workload, inputs, seconds: float, tally: Tally, tracer=None):
    """Repeat the operation until ``seconds`` of it were timed.

    With a tracer, one untraced operation is followed by two traced ones.
    Returns the untraced and traced wall times and the traced summaries.
    """
    import outputs

    plain, traced, summaries = [], [], []
    first = None
    total = 0.0
    index = 0
    deadline = perf_counter() + LOOP_LIMIT * seconds
    while tally.failed < MAX_FAILURES and perf_counter() < deadline:
        enough_traced = tracer is None or len(traced) >= MIN_TRACED_OPS
        if total >= seconds and len(plain) >= (MIN_OPS if tracer is None else 2) and enough_traced:
            break
        use_tracer = tracer is not None and index % 3 != 0
        index += 1
        tally.attempted += 1
        try:
            wall, report, summary = run_op(workload, inputs, tracer if use_tracer else None)
        except Exception:
            traceback.print_exc()
            tally.fail(f"{workload.name} operation {index} raised")
            continue
        total += wall
        (traced if use_tracer else plain).append(wall)
        if summary is not None:
            summaries.append(summary)
        if first is None:
            first = report
        elif report != first:
            found = outputs.mismatches(first, report) or ["fingerprints differ"]
            tally.fail(f"{workload.name} operation {index} differs from the first: {found[:5]}")
    return plain, traced, summaries


# --- fresh-process probes for set-up time and peak memory ---

def _tree_rss_kb(pid: int) -> int:
    """Resident memory of a process and all its descendants, in KiB."""
    total, pending = 0, [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as children:
                    pending.extend(int(child) for child in children.read().split())
        except (OSError, ValueError):
            continue  # the process ended while it was being read
    return total


class TreeRssSampler:
    """Peak of ``_tree_rss_kb`` for this process, sampled every 10 ms in a thread."""

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(0.01):
            self.peak_kb = max(self.peak_kb, _tree_rss_kb(os.getpid()))

    def __enter__(self) -> "TreeRssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def probe(workload_name: str, seed: int, check: bool) -> int:
    """In a fresh process: time imports and config construction; with ``check``,
    then run the reference check and report the peak memory of this process tree."""
    started = perf_counter()
    workload = load_program().WORKLOADS[workload_name]
    workload.setup(seed)
    result = {"setup_s": perf_counter() - started}
    if check:
        tally = Tally()
        with TreeRssSampler() as sampler:
            check_references(workload, tally)
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(peak_rss_mb=max(sampler.peak_kb, own_kb) / 1024,
                      attempted=tally.attempted, failed=tally.failed)
    print(json.dumps(result))
    return 0


def run_probes(workload_name: str, seed: int, tally: Tally) -> tuple[float, float]:
    """Median set-up time over ``SETUP_PROBES`` fresh processes, the first of which
    also runs the reference check; returns it with that process's peak memory."""
    results = []
    for check in [True] + [False] * (SETUP_PROBES - 1):
        command = [sys.executable, str(Path(__file__).resolve()), "--probe",
                   "--workload", workload_name, "--seed", str(seed)]
        proc = subprocess.run(command + (["--check"] if check else []), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"probe exited with code {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    tally.attempted += results[0]["attempted"]
    tally.failed += results[0]["failed"]
    return statistics.median(r["setup_s"] for r in results), results[0]["peak_rss_mb"]


# --- run record ---

def _git_rev() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _high_percentile(walls: list[float]) -> dict | None:
    import tracing

    for p in (99.9, 99, 95, 90, 75):
        value = tracing.percentile(walls, p)
        if value is not None:
            return {"percentile": p, "value": value}
    return None


def run_record(args, workloads, **extra) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": len(os.sched_getaffinity(0)),
        "sweep_jobs": workloads.sweep_jobs(args.seed),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(),
        "reference_seeds": list(REFERENCE_SEEDS),
        **extra,
    }


def benchmark(args) -> int:
    workloads = load_program()
    import tracing

    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        check_references(workload, tally)
    else:
        setup_s, peak_rss_mb = run_probes(workload.name, args.seed, tally)
    inputs = workload.setup(args.seed)

    if args.trace:
        with tracing.Tracer() as tracer:
            plain, traced, summaries = repeat_ops(workload, inputs, args.seconds, tally, tracer)
        if not plain or not traced:
            print("error: no operation completed", file=sys.stderr)
            return 1
        metrics, status, unsteady = tracing.layer_metrics(tracer, summaries, traced, plain)
        if unsteady:
            tally.fail(f"traced operations of identical input counted differently: {unsteady}")
        units = tracing.UNITS
        record = run_record(args, workloads, ops=len(plain), traced_ops=len(traced),
                            layer_status=status)
    else:
        plain, _, _ = repeat_ops(workload, inputs, args.seconds, tally)
        if not plain:
            print("error: no operation completed", file=sys.stderr)
            return 1
        metrics = {
            "op_wall_s": statistics.median(plain),
            "sim_days_per_s": workload.sim_days(inputs) * len(plain) / sum(plain),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - tally.failed / tally.attempted,
        }
        units = END_TO_END_UNITS
        record = run_record(args, workloads, ops=len(plain), setup_probes=SETUP_PROBES,
                            op_wall_high=_high_percentile(plain), op_walls=plain)

    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def record_references(names: list[str]) -> int:
    workloads = load_program()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = workloads.WORKLOADS[name]
        for seed in REFERENCE_SEEDS:
            _, report, _ = run_op(workload, workload.setup(seed), export=True)
            path = reference_path(name, seed)
            path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the reference report values (of --workload, or of all)")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    TMP.mkdir(exist_ok=True)
    try:
        if args.record_reference:
            return record_references([args.workload] if args.workload else WORKLOAD_NAMES)
        if args.probe:
            return probe(args.workload, args.seed, args.check)
        return benchmark(args)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
