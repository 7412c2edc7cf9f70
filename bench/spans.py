"""Spans recorded around the benchmark's calls into ehsched, and their roll-up.

A span is ``(id, name, start, end, parent, op)``: the public function called
(``<module>.<function>``, or ``op`` / ``solve`` for the benchmark's own
phases), its ``perf_counter`` interval, the span that was open when it began,
and the id of the operation it belongs to.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

#: The layers' public functions the benchmark times, as ``<module>.<function>``.
#: ``cli.solve`` and ``cli.verify`` are ``ehsched.cli.main`` split by command.
FUNCTIONS = (
    "curves.from_packet_arrivals",
    "curves.min_energy_from_battery",
    "curves.dying_battery_scenario",
    "curves.integrate_rate",
    "curves.check_feasible",
    "curves.energy_curve",
    "rate.throughput",
    "string_solver.taut_string",
    "string_solver.optimality_certificate",
    "broadcast.solve_broadcast",
    "leakage.solve_n_packet",
    "leakage.simulate",
    "leakage.compare_ST_NT",
    "oracle.dp_throughput",
    "oracle.dp_leakage_throughput",
    "oracle.random_feasible_schedule",
    "cli.solve",
    "cli.verify",
)

#: Work counts taken from the inputs and outputs of the calls, with units.
COUNTS = {
    "curves.breakpoints_in": "count",
    "string_solver.vertices": "count",
    "string_solver.contacts_upper": "count",
    "string_solver.contacts_lower": "count",
    "leakage.blocks": "count",
    "leakage.segments": "count",
    "oracle.dp_cells": "cells-computed",
    "cli.bytes_written": "bytes",
    "string_solver.certificate_checks": "count",
    "oracle.gap_checks": "count",
}

#: Ratio name -> (count of successes, count of attempts it is taken over).
RATIOS = {
    "string_solver.certificate_ok_ratio": (
        "string_solver.certificate_ok",
        "string_solver.certificate_checks",
    ),
    "oracle.gap_ok_ratio": ("oracle.gap_ok", "oracle.gap_checks"),
}


class Tracer:
    """Records spans and counts when enabled; passes calls straight through
    when not, so the untraced run pays one extra Python call per layer call."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.counts: Counter[str] = Counter()
        self.op: int | None = None
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append((sid, name, 0.0, 0.0, parent, self.op))
        self._open.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.op)

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(seconds) for _, seconds in points]
    return statistics.linear_regression(xs, ys).slope


def layer_metrics(
    tracer: Tracer, ops: dict[int, tuple[str, int | None]], cycles: int
) -> dict[str, tuple[float, str]]:
    """Per-layer busy time, calls and scaling exponent, plus the counts.

    Busy time, calls and counts are per cycle (one pass over the workload's
    operations).  The exponent of a function is the log-log slope of its
    median call time against instance size, fitted per operation family over
    the sizes that family runs; the largest slope over the families is
    reported, and 0.0 when no family runs the function at two sizes or more.
    """
    busy: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    by_size: dict[str, dict[str, dict[int, list[float]]]] = defaultdict(
        lambda: defaultdict(lambda: defaultdict(list))
    )
    for _, name, start, end, _, op in tracer.spans:
        busy[name] += end - start
        calls[name] += 1
        family, size = ops[op]
        if size is not None:
            by_size[name][family][size].append(end - start)

    metrics: dict[str, tuple[float, str]] = {}
    for name in FUNCTIONS:
        slopes = [
            loglog_slope(
                [(size, statistics.median(ts)) for size, ts in sorted(sizes.items())]
            )
            for sizes in by_size[name].values()
            if len(sizes) >= 2
        ]
        metrics[f"{name}.busy_s"] = (busy[name] / cycles, "s")
        metrics[f"{name}.calls"] = (calls[name] / cycles, "count")
        metrics[f"{name}.exponent"] = (max(slopes, default=0.0), "slope")
    for name, unit in COUNTS.items():
        metrics[name] = (tracer.counts[name] / cycles, unit)
    for name, (ok, base) in RATIOS.items():
        attempts = tracer.counts[base]
        metrics[name] = (tracer.counts[ok] / attempts if attempts else 0.0, "ratio")
    metrics["trace.spans"] = (len(tracer.spans) / cycles, "count")
    return metrics
