"""Repeat the benchmark over seeds and report how steady it is.

    python3 benchmarks/verify.py --seeds 1-10 --sets 2
    python3 benchmarks/verify.py --workloads batch --seeds 1-3 --trace 1

Runs the command in BENCHMARK.json once per workload and seed, one run at
a time, for each of ``--sets`` sets.  For every end-to-end metric it
prints the median and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  With two sets it also checks that no median of the second set is
worse than the first by more than the metric's bound.  With ``--trace 1``
it checks instead that every per-layer count is identical between the
sets.  Exits 1 when a run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    command = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["run_record"]
    result["elapsed_s"] = time.monotonic() - started
    return result


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", type=Path, help="append every result as a JSON line here")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    metrics = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]

    values = {}  # (set, workload, metric) -> per-seed values
    ok = True
    for set_index in range(args.sets):
        for seed in seeds:
            for workload in workloads:
                result = run_once(workload, seed, args.trace)
                if args.log:
                    with args.log.open("a", encoding="utf-8") as log:
                        log.write(json.dumps({"set": set_index, "seed": seed, **result}) + "\n")
                if not result["correct"]:
                    print(f"set {set_index} {workload} seed {seed}: incorrect, "
                          f"{result['failed']} of {result['attempted']} failed")
                    ok = False
                for metric in metrics:
                    value = result["metrics"][metric["name"]]["value"]
                    values.setdefault((set_index, workload, metric["name"]), []).append(value)
                print(f"set {set_index} {workload} seed {seed} ({result['elapsed_s']:.0f} s): " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics
                    if not args.trace or m["unit"] != "s"), flush=True)

    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            if args.trace:
                if metric["unit"] in ("s", "us") or name == "trace.overhead_frac":
                    continue
                sets = [values[(s, workload, name)] for s in range(args.sets)]
                same = all(each == sets[0] for each in sets)
                ok &= same
                print(f"{workload:12} {name:36} {'identical' if same else 'DIFFERS'} {sets[0]}")
                continue
            line = f"{workload:12} {name:16}"
            for set_index in range(args.sets):
                series = values[(set_index, workload, name)]
                median = statistics.median(series)
                line += f"  median {median:.6g} spread {spread(series):.4f}"
                if "bound" in metric and name != "setup_s" and spread(series) > metric["bound"]:
                    line += " (ABOVE BOUND)"
                    ok = False
            if args.sets == 2:
                first, second = (statistics.median(values[(s, workload, name)]) for s in (0, 1))
                change = worse_by(first, second, metric["better"])
                line += f"  second worse by {change:+.4f} of bound {metric['bound']}"
                if change > metric["bound"]:
                    line += " (OVER)"
                    ok = False
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
