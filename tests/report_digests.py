"""Pinned SHA-256 digests of every report file the byte-identity gate writes.

The gate is ``sweep --sims 2`` at seeds 0 and 1, the full sweep at seed 0
and ``simulate --scenario 2.3`` with each ``--policy``.  ``digests`` hashes
each file of one run's output directory, grouped by cell directory; the
run's own files, such as ``diff_report.csv``, are grouped under ".".
``data/report_digests.json`` holds them per run, beside the
``reports.RESULTS_VERSION`` they were written at, and
``test_acceptance.test_report_bytes_match_pinned_digests`` compares.

A change that moves report bytes on purpose regenerates the file with

    python tests/report_digests.py --write

It refuses to overwrite the digest of a file the gate already wrote
unless ``RESULTS_VERSION`` differs from the stored version (a missing one
reads as 0), so a change that moves results must raise it.  New files
need no raise.  Without ``--write`` the script runs the gate and lists
each file that moved.
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
# The entry of the digests file that holds the results version; every other one is a run.
VERSION_KEY = "results_version"
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


def _files(runs: dict) -> dict[tuple[str, str, str], str]:
    """The digest of each (run, cell, file name) of a digests file or of ``run_gate``."""
    return {
        (run, cell, name): digest
        for run, cells in runs.items() if run != VERSION_KEY
        for cell, files in cells.items()
        for name, digest in files.items()
    }


def moved(expected: dict, actual: dict) -> list[str]:
    """One line per cell whose files differ, naming each changed, missing or new file."""
    want, got = _files(expected), _files(actual)
    cells: dict[str, list[str]] = {}
    for run, cell, name in sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k)):
        cells.setdefault(f"{run}/{cell}", []).append(name)
    return [f"{cell}: {', '.join(names)}" for cell, names in cells.items()]


def overwritten(stored: dict, actual: dict, version: int) -> list[str]:
    """Each file whose stored digest ``actual`` changes while the results version stays."""
    if stored.get(VERSION_KEY, 0) != version:
        return []
    want, got = _files(stored), _files(actual)
    return ["/".join(k) for k in sorted(want.keys() & got.keys()) if want[k] != got[k]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"regenerate {DIGESTS.name} instead of comparing with it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        actual = run_gate(Path(scratch))
    if args.write:
        from kellypool.reports import RESULTS_VERSION

        stored = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        changed = overwritten(stored, actual, RESULTS_VERSION)
        if changed:
            print(f"refusing to overwrite {len(changed)} digests at results version "
                  f"{RESULTS_VERSION}; raise kellypool.reports.RESULTS_VERSION first:")
            print("\n".join(changed))
            return 1
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        pinned = {VERSION_KEY: RESULTS_VERSION, **actual}
        DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {DIGESTS}")
        return 0
    lines = moved(json.loads(DIGESTS.read_text(encoding="utf-8")), actual)
    print("\n".join(lines) if lines else "every report file matches its pinned digest")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
