"""Pinned SHA-256 digests of every report file the byte-identity gate writes.

The gate is ``sweep --sims 2`` at seeds 0 and 1, the full sweep at seed 0
and ``simulate --scenario 2.3`` with each ``--policy``.  ``digests`` hashes
each file of one run's output directory, grouped by cell directory; the
run's own files, such as ``diff_report.csv``, are grouped under ".".
``data/report_digests.json`` holds them per run, and
``test_acceptance.test_report_bytes_match_pinned_digests`` compares.

A change that moves report bytes on purpose regenerates the file with

    python tests/report_digests.py --write

Without ``--write`` the script runs the gate and lists each file that moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

DIGESTS = Path(__file__).parent / "data" / "report_digests.json"
FULL_SWEEP = "sweep-seed0"
# Each run of the gate: its name and its CLI arguments without ``--out``.
# The full sweep is the one the acceptance suite's ``sweep`` fixture runs.
RUNS = {
    "sweep-sims2-seed0": ["sweep", "--sims", "2", "--seed", "0"],
    "sweep-sims2-seed1": ["sweep", "--sims", "2", "--seed", "1"],
    FULL_SWEEP: ["sweep"],
    "simulate-2.3-both": ["simulate", "--scenario", "2.3", "--policy", "both"],
    "simulate-2.3-with": ["simulate", "--scenario", "2.3", "--policy", "with"],
    "simulate-2.3-without": ["simulate", "--scenario", "2.3", "--policy", "without"],
}


def digests(directory: Path) -> dict[str, dict[str, str]]:
    """SHA-256 of each file under ``directory``, keyed by cell directory, then file name."""
    cells: dict[str, dict[str, str]] = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        cell = path.parent.relative_to(directory).as_posix()
        cells.setdefault(cell, {})[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return cells


def run_gate(out_root: Path, done: dict[str, Path] | None = None) -> dict:
    """Digests of every run of the gate; runs already written are named in ``done``."""
    from kellypool.cli import main

    done = done or {}
    result = {}
    for name, argv in RUNS.items():
        out = done.get(name)
        if out is None:
            out = out_root / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited with code {code}")
        result[name] = digests(out)
    return result


def moved(expected: dict, actual: dict) -> list[str]:
    """One line per cell whose files differ, naming each changed, missing or new file."""
    lines = []
    for run in sorted(expected.keys() | actual.keys()):
        want_run, got_run = expected.get(run, {}), actual.get(run, {})
        for cell in sorted(want_run.keys() | got_run.keys()):
            want, got = want_run.get(cell, {}), got_run.get(cell, {})
            files = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
            if files:
                lines.append(f"{run}/{cell}: {', '.join(files)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"regenerate {DIGESTS.name} instead of comparing with it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        actual = run_gate(Path(scratch))
    if args.write:
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        DIGESTS.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {DIGESTS}")
        return 0
    lines = moved(json.loads(DIGESTS.read_text(encoding="utf-8")), actual)
    print("\n".join(lines) if lines else "every report file matches its pinned digest")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
