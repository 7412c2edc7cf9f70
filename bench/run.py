#!/usr/bin/env python3
"""Closed-loop benchmark of ehsched: time to a certified schedule.

    python3 bench/run.py --workload corridor-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One caller in one thread runs the operations of a workload back to back, in
the whole number of cycles that takes nearest to ``--seconds``; each
operation starts only after the previous one has finished.  The library is
imported from ``src/`` next to this directory and driven only through its
public functions.

Timings are kept in units of a reference: a fixed piece of pure-Python
work with objects, timed between the operations all through the run.  On a
shared host the speed of the whole machine changes by half or more within
minutes; dividing each operation's time by the reference timed around it
leaves the program's own cost.  The seconds are printed too.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs untraced for half the time, replays the same number of
cycles with a span around every layer call, writes the spans to
``bench/out/``, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit and sample count, and the provenance.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("corridor-ladder", "certify-sweep", "cli-reports")
SETUP_REPEATS = 5

#: The reference is timed before an op once this many seconds have passed
#: since it was last timed; an op's unit is the median of the reference
#: samples nearest to it, this many on each side.
REF_EVERY_S = 0.03
REF_NEIGHBOURS = 3

#: End-to-end metrics and their units, as BENCHMARK.json lists them.
END_TO_END = {
    "op_ref_p50": "ref",
    "op_ref_p90": "ref",
    "solve_ref_p50": "ref",
    "solve_ref_p90": "ref",
    "ops_per_ref": "1/ref",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Attempt:
    seq: int  #: position in the run: cycle * ops per cycle + op index
    op: int  #: index of the op in its cycle
    wall_s: float  #: the whole attempt, checks included
    op_s: float | None = None  #: None when the attempt failed
    solve_s: float | None = None


@dataclass
class Loop:
    """Outcome of running whole cycles of a workload."""

    cycles: int = 0
    wall_s: float = 0.0
    attempts: list[Attempt] = field(default_factory=list)
    ref: list[tuple[int, float]] = field(default_factory=list)  #: (seq, seconds)
    failures: list[tuple[str, str]] = field(default_factory=list)  #: (kind, message)

    @property
    def done(self) -> list[Attempt]:
        return [a for a in self.attempts if a.op_s is not None]

    @property
    def attempted(self) -> int:
        return len(self.attempts)

    def units(self) -> list[float]:
        """The reference time around each attempt, in seconds."""
        seqs = [seq for seq, _ in self.ref]
        units = []
        for attempt in self.attempts:
            k = bisect_left(seqs, attempt.seq)
            near = self.ref[max(0, k - REF_NEIGHBOURS):k + REF_NEIGHBOURS]
            units.append(statistics.median(s for _, s in near))
        return units

    def in_ref(self) -> list[tuple[Attempt, float]]:
        return list(zip(self.attempts, self.units()))


def run_cycles(ops, tracer, seconds=None, cycles=None) -> Loop:
    """Run whole cycles of ``ops`` until ``cycles`` are done, or for the whole
    number of cycles (at least one) that comes nearest to ``seconds``.  The
    reference is timed between ops and left out of the loop's wall time."""
    from workloads import CheckFailed, OpFailed

    loop = Loop()
    start = perf_counter()
    ref_s, last_ref = 0.0, None
    while True:
        for i, op in enumerate(ops):
            seq = loop.cycles * len(ops) + i
            if last_ref is None or perf_counter() - last_ref >= REF_EVERY_S:
                sample = reference_s()
                loop.ref.append((seq, sample))
                ref_s += sample
                last_ref = perf_counter()
            tracer.op = seq
            attempt = Attempt(seq, i, 0.0)
            op_start = perf_counter()
            try:
                with tracer.span("op"):
                    op_s, solve_s = op.run(tracer)
            except CheckFailed as exc:
                loop.failures.append(("wrong", f"{op.label}: {exc}"))
            except OpFailed as exc:
                loop.failures.append(("refused", f"{op.label}: {exc}"))
            except Exception as exc:  # count it against the op and keep going
                loop.failures.append(("raised", f"{op.label}: {exc!r}\n{traceback.format_exc()}"))
            else:
                attempt.op_s = perf_counter() - op_start if op_s is None else op_s
                attempt.solve_s = solve_s
            attempt.wall_s = perf_counter() - op_start
            loop.attempts.append(attempt)
        loop.cycles += 1
        loop.wall_s = perf_counter() - start - ref_s
        if loop.cycles == cycles or (
            cycles is None and loop.wall_s * (1 + 0.5 / loop.cycles) >= seconds
        ):
            return loop


class _Point:
    __slots__ = ("t", "e")

    def __init__(self, t: float, e: float) -> None:
        self.t = t
        self.e = e


def reference_s() -> float:
    """Time of a fixed piece of work like the library's: make a thousand
    small objects holding floats, index them in a dict, and take their lower
    convex hull.  Measured on a shared host, this kind of work (object
    allocation and pointer chasing, not arithmetic alone) slows down by the
    same share as the library's operations when the host slows down."""
    start = perf_counter()
    rng = random.Random(5)  # the same points every time
    points, t = [], 0.0
    for _ in range(1000):
        t += rng.random()
        points.append(_Point(t, 0.5 * t + rng.random()))
    # the dict and the hull are only work to time; neither is used after
    index = {round(p.t, 3): (i, p.e) for i, p in enumerate(points)}
    hull: list[_Point] = []
    for p in points:
        while len(hull) >= 2 and (
            (hull[-1].e - hull[-2].e) * (p.t - hull[-1].t)
            >= (p.e - hull[-1].e) * (hull[-1].t - hull[-2].t)
        ):
            hull.pop()
        hull.append(p)
    return perf_counter() - start


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def import_seconds() -> float:
    """Median time to import ehsched (and NumPy) in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import ehsched; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import ehsched
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=60,
        )
        commit = done.stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "ehsched").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ehsched": ehsched.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Set up, run and check one workload; return the run record."""
    import workloads
    from spans import Tracer, layer_metrics

    sizes = workloads.FULL if sizes is None else sizes
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"provenance": provenance(workload, seed, seconds, trace)}
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        build_s = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            ops = workloads.build(workload, seed, sizes, Path(workdir))
            build_s.append(perf_counter() - start)
        setup_s = import_seconds() + statistics.median(build_s)

        # untimed first: the smallest op of each family, so that lazy imports
        # and first calls fall outside the timed loop
        smallest = {}
        for op in ops:
            if op.family not in smallest or (op.size or 0) < (smallest[op.family].size or 0):
                smallest[op.family] = op
        run_cycles(list(smallest.values()), Tracer(False), cycles=1)
        if not trace:
            loop = run_cycles(ops, Tracer(False), seconds=seconds)
            loops = [loop]
            metrics = end_to_end(loop, setup_s)
        else:
            untraced = run_cycles(ops, Tracer(False), seconds=seconds / 2)
            tracer = Tracer(True)
            loop = run_cycles(ops, tracer, cycles=untraced.cycles)
            loops = [untraced, loop]
            families = {i: (op.family, op.size) for i, op in enumerate(ops)}
            op_ids = {
                c * len(ops) + i: families[i]
                for c in range(loop.cycles) for i in range(len(ops))
            }
            metrics = {
                name: {"value": value, "unit": unit, "samples": loop.cycles}
                for name, (value, unit) in layer_metrics(tracer, op_ids, loop.cycles).items()
            }
            metrics["trace.overhead_frac"] = {
                "value": total_ref(loop) / total_ref(untraced) - 1.0,
                "unit": "fraction",
                "samples": loop.cycles,
            }
            spans_path = OUT / f"{workload}-seed{seed}.spans.jsonl"
            tracer.write(spans_path, {"provenance": record["provenance"], "ops": {
                str(op_id): list(family) for op_id, family in op_ids.items()
            }})
            record["spans"] = os.path.relpath(spans_path, ROOT)

    failures = [f for lp in loops for f in lp.failures]
    record.update(
        {
            "cycles": loop.cycles,
            "ops_per_cycle": len(ops),
            "wall_s": loop.wall_s,
            "ref_s": statistics.median(s for _, s in loop.ref),
            "correct": not any(kind == "wrong" for kind, _ in failures),
            "attempted": sum(lp.attempted for lp in loops),
            "failed": len(failures),
            "failures": [f"{kind}: {message}" for kind, message in failures],
            "metrics": metrics,
            "seconds": seconds_metrics(loop) if not trace else {},
            # every timing of the (first) timed loop, for a closer look
            "ops": [op.label for op in ops],
            "attempts": [dataclasses.astuple(a) for a in loops[0].attempts],
            "ref": loops[0].ref,
        }
    )
    return record


def total_ref(loop: Loop) -> float:
    """The loop's time in reference units, failed attempts and checks included."""
    return sum(a.wall_s / unit for a, unit in loop.in_ref())


def end_to_end(loop: Loop, setup_s: float) -> dict:
    """Percentiles over every successful attempt of the run, each in units of
    the reference timed around it."""
    done = [(a, unit) for a, unit in loop.in_ref() if a.op_s is not None]
    if not done:
        raise SystemExit(f"no operation succeeded: {loop.failures[0][1]}")
    op_ref = [a.op_s / unit for a, unit in done]
    solve_ref = [a.solve_s / unit for a, unit in done]
    n = len(done)
    values = {
        "op_ref_p50": (statistics.median(op_ref), n),
        "op_ref_p90": (p90(op_ref), n),
        "solve_ref_p50": (statistics.median(solve_ref), n),
        "solve_ref_p90": (p90(solve_ref), n),
        "ops_per_ref": (n / total_ref(loop), n),
        "ok_frac": (n / loop.attempted, loop.attempted),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "setup_s": (setup_s, SETUP_REPEATS),
    }
    return {
        name: {"value": value, "unit": END_TO_END[name], "samples": samples}
        for name, (value, samples) in values.items()
    }


def seconds_metrics(loop: Loop) -> dict:
    """The same timings in seconds, as the host ran them."""
    done = loop.done
    op_s = [a.op_s for a in done]
    solve_s = [a.solve_s for a in done]
    return {
        "op_s_p50": statistics.median(op_s),
        "op_s_p90": p90(op_s),
        "solve_s_p50": statistics.median(solve_s),
        "solve_s_p90": p90(solve_s),
        "ops_per_s": len(done) / loop.wall_s,
    }


def print_record(record: dict) -> None:
    prov = record["provenance"]
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(
        f"{prov['workload']}: {record['attempted']} ops attempted, "
        f"{record['failed']} failed, {record['cycles']} cycles of "
        f"{record['ops_per_cycle']} ops in {record['wall_s']:.2f} s; "
        f"1 ref = {record['ref_s'] * 1e3:.4f} ms (median)"
    )
    for name, m in record["metrics"].items():
        print(f"  {name:44s} {m['value']:<14.6g} {m['unit']:<14s} n={m['samples']}")
    if not prov["trace"]:
        failed_frac = record["failed"] / record["attempted"]
        print(f"  {'failed_frac':44s} {failed_frac:<14.6g} {'fraction':<14s} "
              f"n={record['attempted']}")
        for name, value in record["seconds"].items():
            unit = "1/s" if name == "ops_per_s" else "s"
            print(f"  {name:44s} {value:<14.6g} {unit:<14s} (host seconds, unbounded)")
    for line, times in Counter(f.splitlines()[0] for f in record["failures"]).items():
        print(f"  failure ({times}x) {line}", file=sys.stderr)


def result_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in record["metrics"].items()
            },
        }
    )


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload} exited {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ehsched" / "__init__.py").is_file():
        print(f"error: the ehsched sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import ehsched

    if Path(ehsched.__file__).resolve().parent != SRC / "ehsched":
        print(f"error: imported ehsched from {ehsched.__file__}, not {SRC}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print_record(record)
    print(f"record {os.path.relpath(OUT / name, ROOT)}")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
