"""Span tracing of kellypool's layers from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in the
module namespace where its caller looks it up (``engine.accept_invoice``,
not ``pool.accept_invoice``), and ``uninstall`` puts the originals back.
A wrapper records one span per call: name, start, end and the span that
was open when it was called.  Spans are kept in flat arrays for one
operation at a time and summarised when the operation ends.

A traced symbol that the program no longer has is reported as absent.
Worker processes forked while tracing stop recording, so layers that run
only in workers are reported as not seen.  Either way the layer metrics
that need them read ``MISSING``.
"""

from __future__ import annotations

import importlib
import math
import os
import statistics
from array import array
from time import perf_counter

import numpy as np

# Value of a layer metric whose spans were absent or not seen, or whose
# sample is too small; no time, count or ratio below can be negative.
MISSING = -1.0

# (module, attribute in that module, span name).  The span name says which
# layer the function belongs to; the module is where its caller finds it.
TRACED = (
    ("kellypool.engine", "generate_stream", "scenarios.generate_stream"),
    ("kellypool.engine", "lp_contribution_schedule", "scenarios.lp_contribution_schedule"),
    ("kellypool.engine", "run_batch", "engine.run_batch"),
    ("kellypool.engine", "run_simulation", "engine.run_simulation"),
    ("kellypool.engine", "conservation_residual", "engine.conservation_residual"),
    ("kellypool.engine", "_mean_metrics", "engine._mean_metrics"),
    ("kellypool.engine", "DailySeries.mean", "engine.DailySeries.mean"),
    ("kellypool.engine", "accept_invoice", "pool.accept_invoice"),
    ("kellypool.engine", "repay_invoice", "pool.repay_invoice"),
    ("kellypool.engine", "lp_deposit", "pool.lp_deposit"),
    ("kellypool.engine", "withdraw_premium", "pool.withdraw_premium"),
    ("kellypool.cli", "main", "cli.main"),
    ("kellypool.cli", "_run_cell", "cli._run_cell"),
    ("kellypool.cli", "export_bundle", "reports.export_bundle"),
    ("kellypool.cli", "diff_row_from_metrics_record", "reports.diff_row_from_metrics_record"),
    ("kellypool.cli", "write_diff_rows", "reports.write_diff_rows"),
)
ROOT_SPAN = "bench.op"


def _count_invoices(tracer, args, result):
    tracer.counters["invoices"] += len(result)


def _count_sim_days(tracer, args, result):
    tracer.counters["sim_days"] += args[0].horizon_days


def _count_outcome(tracer, args, result):
    reason = getattr(result, "reason", None)
    key = "accepted" if reason is None else f"rejected.{reason.value}"
    tracer.counters[key] = tracer.counters.get(key, 0) + 1


def _keep_paths(tracer, args, result):
    tracer.paths.extend(result if isinstance(result, list) else [result])


# Counts taken from a traced call's arguments or result.
HOOKS = {
    "scenarios.generate_stream": _count_invoices,
    "engine.run_simulation": _count_sim_days,
    "pool.accept_invoice": _count_outcome,
    "reports.export_bundle": _keep_paths,
    "reports.write_diff_rows": _keep_paths,
}


class Tracer:
    def __init__(self, traced=TRACED):
        self.traced = traced
        self.names = [ROOT_SPAN] + [name for _, _, name in traced]
        self.absent: set[str] = set()
        self.recording = False
        self._installed: list[tuple[object, str, object]] = []
        self._codes = array("H")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self.paths: list = []
        self._reset()
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.recording = False

    def _reset(self) -> None:
        for column in (self._codes, self._parents, self._starts, self._ends):
            del column[:]
        del self._stack[1:]
        self.counters = {"invoices": 0, "sim_days": 0, "accepted": 0}
        self.paths = []

    # --- installing wrappers ---

    def install(self) -> "Tracer":
        if self._installed:
            raise RuntimeError("tracer is already installed")
        try:
            for code, (module_name, attribute, name) in enumerate(self.traced, start=1):
                self._wrap(code, module_name, attribute, name)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _wrap(self, code: int, module_name: str, attribute: str, name: str) -> None:
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        except (ImportError, AttributeError, KeyError):
            self.absent.add(name)
            return
        is_static = isinstance(raw, staticmethod)
        function = raw.__func__ if is_static else raw
        if getattr(function, "__traced_by__", None) is not None:
            raise RuntimeError(f"{module_name}.{attribute} is already traced")
        wrapper = self._wrapper(code, function, HOOKS.get(name))
        setattr(owner, leaf, staticmethod(wrapper) if is_static else wrapper)
        self._installed.append((owner, leaf, raw))

    def _wrapper(self, code: int, function, hook):
        tracer = self
        codes, parents, starts, ends, stack = (
            self._codes, self._parents, self._starts, self._ends, self._stack,
        )

        def traced(*args, **kwargs):
            if not tracer.recording:
                return function(*args, **kwargs)
            index = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__traced_by__ = self
        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", "traced")
        return traced

    def uninstall(self) -> None:
        self.recording = False
        while self._installed:
            owner, leaf, raw = self._installed.pop()
            setattr(owner, leaf, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- one operation ---

    def begin(self) -> None:
        """Start recording one operation under a root span."""
        self._reset()
        self._codes.append(0)
        self._parents.append(-1)
        self._ends.append(0.0)
        self._stack.append(0)
        self.recording = True
        self._starts.append(perf_counter())

    def end(self) -> None:
        self._ends[0] = perf_counter()
        self.recording = False
        if self._stack != [-1, 0]:
            raise RuntimeError("spans left open at the end of an operation")
        self._stack.pop()

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded operation's spans as columns: name code, parent index, start, end."""
        return {
            "code": np.frombuffer(self._codes, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self._parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self._starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self._ends, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus counters and per-simulation times."""
        spans = self.spans()
        duration = spans["end"] - spans["start"]
        own = self_times(spans)
        size = len(self.names)
        calls = np.bincount(spans["code"], minlength=size)
        total = np.bincount(spans["code"], weights=duration, minlength=size)
        own_total = np.bincount(spans["code"], weights=own, minlength=size)
        sim_code = self.names.index("engine.run_simulation")
        files = [os.path.getsize(path) for path in self.paths]
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "total": {n: float(total[i]) for i, n in enumerate(self.names)},
            "self": {n: float(own_total[i]) for i, n in enumerate(self.names)},
            "counters": dict(self.counters, files=len(files), bytes=sum(files)),
            "sim_s": duration[spans["code"] == sim_code].tolist(),
        }


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = spans["end"] - spans["start"]
    children = np.zeros_like(duration)
    has_parent = spans["parent"] >= 0
    np.add.at(children, spans["parent"][has_parent], duration[has_parent])
    return duration - children


# --- layer metrics ---

GEN = ("scenarios.generate_stream", "scenarios.lp_contribution_schedule")
SIM = ("engine.run_simulation",)
GUARD = ("engine.conservation_residual",)
REDUCE = ("engine._mean_metrics", "engine.DailySeries.mean")
LEDGER = ("pool.accept_invoice", "pool.repay_invoice", "pool.lp_deposit", "pool.withdraw_premium")
ACCEPT = ("pool.accept_invoice",)
EXPORT = ("reports.export_bundle",)
DIFF = ("reports.diff_row_from_metrics_record", "reports.write_diff_rows")
CELL = ("cli._run_cell",)
SWEEP = ("cli.main",) + CELL + EXPORT + DIFF


def _total(op, names):
    return sum(op["total"][n] for n in names)


def _sweep_cells() -> int:
    scenarios = importlib.import_module("kellypool.scenarios")
    return len(scenarios.SWEEP_IDS) * len(scenarios.WITHDRAWAL_PERIODS)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else MISSING


# name -> (unit, spans it needs, is a count, value for one operation's summary)
LAYER_METRICS = {
    "scenarios.gen_s": ("s", GEN, False, lambda op: _total(op, GEN)),
    "scenarios.us_per_invoice": (
        "us", GEN, False, lambda op: _ratio(1e6 * _total(op, GEN), op["counters"]["invoices"])),
    "scenarios.streams": ("count", GEN, True, lambda op: op["calls"][GEN[0]]),
    "scenarios.invoices": ("count", GEN, True, lambda op: op["counters"]["invoices"]),
    "engine.self_s": ("s", SIM, False, lambda op: op["self"][SIM[0]]),
    "engine.sim_days": ("count", SIM, True, lambda op: op["counters"]["sim_days"]),
    "engine.guard_s": ("s", GUARD, False, lambda op: _total(op, GUARD)),
    "engine.guard_checks_per_sim_day": (
        "ratio", GUARD + SIM, True,
        lambda op: _ratio(op["calls"][GUARD[0]], op["counters"]["sim_days"])),
    "engine.reduce_s": ("s", REDUCE, False, lambda op: _total(op, REDUCE)),
    "pool.ledger_s": ("s", LEDGER, False, lambda op: _total(op, LEDGER)),
    "pool.ledger_calls": ("count", LEDGER, True, lambda op: sum(op["calls"][n] for n in LEDGER)),
    "pool.accept_ratio": (
        "ratio", ACCEPT, True, lambda op: _ratio(op["counters"]["accepted"], op["calls"][ACCEPT[0]])),
    "pool.rejected.insufficient_funds": (
        "count", ACCEPT, True, lambda op: op["counters"].get("rejected.insufficient_funds", 0)),
    "pool.rejected.unquotable_premium": (
        "count", ACCEPT, True, lambda op: op["counters"].get("rejected.unquotable_premium", 0)),
    "reports.export_s": ("s", EXPORT, False, lambda op: _total(op, EXPORT)),
    "reports.files": ("count", EXPORT, True, lambda op: op["counters"]["files"]),
    "reports.bytes": ("B", EXPORT, True, lambda op: op["counters"]["bytes"]),
    "reports.diff_s": ("s", DIFF, False, lambda op: _total(op, DIFF)),
    "cli.cells": ("count", CELL, True, lambda op: op["calls"][CELL[0]]),
    "cli.cells_skipped": ("count", CELL, True, lambda op: _sweep_cells() - op["calls"][CELL[0]]),
    "cli.cell_s": ("s", CELL, False, lambda op: _total(op, CELL)),
    "cli.orchestration_s": (
        "s", SWEEP, False,
        lambda op: op["total"]["cli.main"] - _total(op, CELL + EXPORT + DIFF)),
}
SIM_P50, SIM_P99 = "engine.sim_s_p50", "engine.sim_s_p99"
OVERHEAD = "trace.overhead_frac"
UNITS = {name: spec[0] for name, spec in LAYER_METRICS.items()}
UNITS.update({SIM_P50: "s", SIM_P99: "s", OVERHEAD: "ratio"})


def percentile(values: list[float], p: float) -> float | None:
    """Nearest-rank p-th percentile; None unless at least ten samples lie above it."""
    ordered = sorted(values)
    rank = max(math.ceil(p / 100 * len(ordered)) - 1, 0)
    if len(ordered) - rank - 1 < 10:
        return None
    return ordered[rank]


def layer_metrics(tracer: Tracer, ops: list[dict], traced_wall: list[float],
                  plain_wall: list[float]) -> tuple[dict, dict, list[str]]:
    """Per-layer values (median over traced operations), why any is ``MISSING``,
    and every count that differed between operations of identical input."""
    values, status, unsteady = {}, {}, []

    def seen(metric: str, names: tuple[str, ...]) -> bool:
        values[metric] = MISSING
        absent = [n for n in names if n in tracer.absent]
        if absent:
            status[metric] = f"absent: {', '.join(absent)}"
            return False
        if not any(op["calls"][n] for op in ops for n in names):
            status[metric] = "not seen in the benchmark process"
            return False
        return True

    for metric, (unit, needs, is_count, compute) in LAYER_METRICS.items():
        if seen(metric, needs):
            per_op = [compute(op) for op in ops]
            if is_count and len(set(per_op)) > 1:
                unsteady.append(f"{metric}: {per_op}")
            values[metric] = float(statistics.median(per_op))
    sim_s = [t for op in ops for t in op["sim_s"]]
    if seen(SIM_P50, SIM):
        values[SIM_P50] = statistics.median(sim_s)
    if seen(SIM_P99, SIM):
        p99 = percentile(sim_s, 99)
        if p99 is None:
            status[SIM_P99] = f"{len(sim_s)} simulations are too few for a p99"
        else:
            values[SIM_P99] = p99
    values[OVERHEAD] = statistics.median(traced_wall) / statistics.median(plain_wall) - 1.0
    return values, status, unsteady
