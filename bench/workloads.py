"""Seeded instances and operations for the three benchmark workloads.

``build(workload, seed, sizes, workdir)`` turns a seed into the list of
operations one cycle of the workload runs.  Each operation owns plain Python
inputs (packet lists, battery amounts, scenario files) and hands only those
to ehsched, so no library object is shared between operations or cycles.
Running an operation returns ``(op_s, solve_s)``: ``op_s`` is set only where
the operation is a CLI command, whose report checks are not part of the
command; otherwise the caller times the whole operation.  A wrong output
raises :class:`CheckFailed`; a command that refuses raises :class:`OpFailed`.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import jsonschema

from ehsched import (
    BatterySchedule,
    BroadcastProblem,
    GridSpec,
    LeakageProblem,
    awgn_rate,
    check_feasible,
    compare_ST_NT,
    dp_leakage_throughput,
    dp_throughput,
    dying_battery_scenario,
    from_packet_arrivals,
    integrate_rate,
    merge_times,
    min_energy_from_battery,
    optimality_certificate,
    random_feasible_schedule,
    simulate,
    solar_harvest_rate,
    solve_broadcast,
    solve_n_packet,
    taut_string,
    throughput,
    zero_curve,
)
from ehsched.cli import (
    DEMO_SCENARIOS,
    DOMINANCE_SWEEPS,
    LEAKAGE_GAP_TOLERANCE,
    P2P_GAP_TOLERANCE,
    REPORT_SCHEMA,
)
from ehsched.cli import main as cli_main
from spans import Tracer

RATE = awgn_rate(1.0)

#: Relative agreement required where two computations should give one number.
SAME = 1e-9

#: Deadline of the solar day, as in the CLI's solar demo.
SOLAR_DAY = 18.0

#: Grid for the leakage DP on small deadline-bound instances.  At the CLI's
#: 400x400 default its quantization gap reaches about 1% on these instances;
#: it roughly halves each time the grid doubles.
LEAKAGE_GRID = 800


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


class OpFailed(Exception):
    """The program refused the operation (a CLI command exited non-zero)."""


@dataclass(frozen=True)
class Sizes:
    """Instance sizes; ``FULL`` is the benchmark, ``TINY`` its self-test."""

    ladder: tuple[int, ...]  #: corridor-ladder sizes (packets or pieces)
    certify_trains: tuple[int, ...]  #: capped trains checked by the certificate
    corridors: int  #: small random corridors per certify-sweep cycle
    leakage: int  #: small leakage problems per certify-sweep cycle
    certify_solar: int  #: pieces of the certified solar day
    cli_solar: tuple[int, ...]  #: --resolution of the solar solve commands
    cli_trains: tuple[int, ...]  #: packets in each capped and each leakage train the CLI solves
    cli_p2p: int  #: small generated p2p scenarios verified per cycle


def _geometric(low: int, high: int, steps_per_doubling: int) -> tuple[int, ...]:
    """Sizes from ``low`` to ``high`` in equal ratios.  Fine steps give every
    workload a spread of op costs rather than a few clusters, so percentiles
    move smoothly with the work instead of jumping between clusters."""
    sizes, k = [], 0
    while round(low * 2 ** (k / steps_per_doubling)) <= high:
        sizes.append(round(low * 2 ** (k / steps_per_doubling)))
        k += 1
    return tuple(sizes)


FULL = Sizes(
    ladder=_geometric(256, 4096, 4),
    certify_trains=_geometric(64, 512, 48),
    corridors=192,
    leakage=24,
    certify_solar=1024,
    cli_solar=_geometric(1024, 8192, 1),
    cli_trains=_geometric(724, 1448, 6),
    cli_p2p=64,
)
TINY = Sizes(
    ladder=(8, 16),
    certify_trains=(8, 16),
    corridors=2,
    leakage=1,
    certify_solar=64,
    cli_solar=(64, 128),
    cli_trains=(16,),
    cli_p2p=1,
)

#: For work that is timed but not traced.
UNTRACED = Tracer(False)

#: Checks reports against the CLI's schema; built once, not per report.
REPORT_VALIDATOR = jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)


@dataclass(frozen=True)
class Op:
    family: str
    size: int | None  #: position on a size ladder; None off the ladders
    run: Callable  #: (tracer) -> (op_s | None, solve_s)

    @property
    def label(self) -> str:
        return self.family if self.size is None else f"{self.family}/{self.size}"


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SAME * max(1.0, abs(a), abs(b))


# --------------------------------------------------------------------------
# raw inputs


def _train(rng, n, trend=0.0):
    """``n`` packets 0.3-2 time units apart; energies drift up by ``trend``."""
    t, packets = 0.0, []
    for i in range(n):
        packets.append((t, rng.uniform(0.3, 3.0) * (1.0 + trend * i / n)))
        t += rng.uniform(0.3, 2.0)
    return packets, packets[-1][0] + rng.uniform(0.5, 2.0)


def _capacity(rng, packets):
    """A battery just above the largest packet, so it overflows often."""
    return max(e for _, e in packets) + rng.uniform(0.1, 1.0)


def _dying_bank(rng, n):
    amounts = [rng.uniform(0.5, 3.0) for _ in range(n)]
    times, t = [], 0.0
    for _ in range(n):
        t += rng.uniform(0.5, 2.0)
        times.append(t)
    return amounts, times


def _leakage_train(rng, n):
    """A packet train whose leak keeps the battery emptying between
    arrivals (many schedule segments) and whose rising energies split it
    into more blocks as it grows."""
    packets, deadline = _train(rng, n, trend=0.5)
    return tuple(packets), rng.uniform(0.9, 1.0), deadline


def _small_corridor(rng):
    """Mirror of the test suite's random corridors: plain packets, capped
    packets, or a dying-battery bank, a few pieces each."""
    style = rng.choice(("packets", "packets", "capped", "dying"))
    if style == "dying":
        return ("dying",) + _dying_bank(rng, rng.randint(1, 3))
    t = 0.0 if rng.random() < 0.7 else rng.uniform(0.3, 1.5)
    packets = []
    for _ in range(rng.randint(1, 6)):
        packets.append((t, rng.uniform(0.3, 3.0)))
        t += rng.uniform(0.3, 2.0)
    horizon = packets[-1][0] + rng.uniform(0.5, 2.0)
    capacity = None
    if style == "capped":
        total = sum(e for _, e in packets)
        capacity = max(rng.uniform(0.4, 0.9) * total, max(e for _, e in packets) + 0.1)
    return ("packets", packets, horizon, capacity)


def _small_leakage(rng):
    """2-5 packets whose overall energy rate exceeds p* + epsilon (p* is at
    most e - 1 for epsilon <= 1), so the deadline binds."""
    epsilon = rng.uniform(0.2, 1.0)
    durations = [rng.uniform(0.5, 2.0) for _ in range(rng.randint(2, 5))]
    deadline = sum(durations)
    weights = [rng.uniform(0.2, 1.0) for _ in durations]
    total = (epsilon + rng.uniform(2.0, 3.0)) * deadline
    t, packets = 0.0, []
    for w, d in zip(weights, durations):
        packets.append((t, total * w / sum(weights)))
        t += d
    return tuple(packets), epsilon, deadline


# --------------------------------------------------------------------------
# corridor builders: (tracer) -> (harvested, minimum)


def _packets_corridor(packets, horizon, capacity):
    def build(tr):
        harvested = tr.call(
            "curves.from_packet_arrivals", from_packet_arrivals, packets, horizon
        )
        if capacity is None:
            return harvested, zero_curve(horizon)
        battery = BatterySchedule.constant(capacity, horizon)
        minimum = tr.call(
            "curves.min_energy_from_battery", min_energy_from_battery, harvested, battery
        )
        return harvested, minimum

    return build


def _dying_corridor(amounts, times):
    def build(tr):
        return tr.call(
            "curves.dying_battery_scenario", dying_battery_scenario, amounts, times
        )

    return build


def _solar_corridor(deadline, resolution):
    def build(tr):
        harvested = tr.call(
            "curves.integrate_rate",
            integrate_rate,
            solar_harvest_rate,
            deadline,
            resolution,
        )
        return harvested, zero_curve(deadline)

    return build


def _corridor(spec):
    if spec[0] == "dying":
        return _dying_corridor(*spec[1:])
    return _packets_corridor(*spec[1:])


# --------------------------------------------------------------------------
# checks


def _solve(tr, fn):
    """Run ``fn(tr)``, the solve part of an op, in a ``solve`` span; return
    its result and wall time."""
    start = perf_counter()
    with tr.span("solve"):
        result = fn(tr)
    return result, perf_counter() - start


def _string(tr, build):
    """Corridor, taut string and its data."""
    harvested, minimum = build(tr)
    solution = tr.call("string_solver.taut_string", taut_string, harvested, minimum)
    data = tr.call("rate.throughput", throughput, solution.schedule, RATE)
    tr.count("curves.breakpoints_in", len(harvested.breakpoints) + len(minimum.breakpoints))
    tr.count("string_solver.vertices", len(solution.vertices))
    tr.count("string_solver.contacts_upper", sum(c.kind == "upper" for c in solution.contacts))
    tr.count("string_solver.contacts_lower", sum(c.kind == "lower" for c in solution.contacts))
    return harvested, minimum, solution, data


def _check_path(tr, schedule, minimum, harvested):
    """Feasible in the corridor and pinned at H(T-) at the end."""
    report = tr.call("curves.check_feasible", check_feasible, schedule, minimum, harvested)
    _require(
        report.feasible,
        f"schedule leaves the corridor: overdraw {report.max_overdraw:.3g} at "
        f"t={report.overdraw_time}, shortfall {report.max_shortfall:.3g} at "
        f"t={report.shortfall_time}",
    )
    horizon = harvested.horizon
    spent = tr.call("curves.energy_curve", schedule.energy_curve, horizon).eval(horizon)
    end = harvested.eval_left(horizon)
    _require(_close(spent, end), f"path ends at {spent!r}, not at H(T-) = {end!r}")


def _certify(tr, solution, minimum, harvested):
    tr.count("string_solver.certificate_checks")
    report = tr.call(
        "string_solver.optimality_certificate",
        optimality_certificate,
        solution,
        minimum,
        harvested,
    )
    _require(report.ok, f"optimality certificate failed: {report.failures[:2]}")
    tr.count("string_solver.certificate_ok")


def _p2p_oracle(tr, harvested, minimum, solution, data, sweep_seed):
    """DP within the one-sided 0.5% gap, then a 64-schedule dominance sweep."""
    max_power = max(p for _, _, p in solution.schedule.segments)
    # the power cap `ehsched verify` derives from the solution
    grid = GridSpec(400, 400, 4.0 * max(max_power, 0.25) + 1.0)
    pieces = len(merge_times(harvested, minimum)) - 1
    tr.count("oracle.gap_checks")
    tr.count("oracle.dp_cells", pieces * grid.energy_levels)
    oracle = tr.call("oracle.dp_throughput", dp_throughput, harvested, minimum, RATE, grid)
    gap = (data - oracle) / max(data, 1e-12)
    _require(
        -1e-9 <= gap <= P2P_GAP_TOLERANCE,
        f"DP gap {gap:.3%} outside [0, {P2P_GAP_TOLERANCE:.1%}]",
    )
    tr.count("oracle.gap_ok")
    for k in range(DOMINANCE_SWEEPS):
        rival = tr.call(
            "oracle.random_feasible_schedule",
            random_feasible_schedule,
            harvested,
            minimum,
            seed=sweep_seed + k,
        )
        rival_data = tr.call("rate.throughput", throughput, rival, RATE)
        _require(
            rival_data <= data + SAME * max(1.0, data),
            f"random feasible schedule {sweep_seed + k} sends {rival_data!r} > {data!r}",
        )


def _check_leakage(tr, problem, solution):
    """Exact replay: never short of energy, and every joule accounted for."""
    trace = tr.call("leakage.simulate", simulate, solution.schedule, problem)
    _require(
        trace.infeasible_at is None,
        f"schedule draws from an empty battery at t={trace.infeasible_at}",
    )
    horizon = trace.transmitted.horizon
    spent = trace.transmitted.eval(horizon) + trace.leaked.eval(horizon)
    _require(
        _close(spent, problem.total_energy),
        f"transmitted + leaked = {spent!r}, harvested {problem.total_energy!r}",
    )
    comparison = tr.call("leakage.compare_ST_NT", compare_ST_NT, problem)
    # equal in exact arithmetic whenever every block runs at p*
    _require(
        comparison.d_st >= comparison.d_nt - SAME * max(1.0, comparison.d_st),
        f"upfront data {comparison.d_st!r} < staggered {comparison.d_nt!r}",
    )
    _require(
        _close(comparison.d_nt, solution.total_data),
        f"compare_ST_NT staggered data {comparison.d_nt!r} != solve_n_packet "
        f"{solution.total_data!r}",
    )


# --------------------------------------------------------------------------
# operations


def _p2p_op(build, certify=False, sweep_seed=None):
    def run(tr):
        (harvested, minimum, solution, data), solve_s = _solve(
            tr, lambda tr: _string(tr, build)
        )
        _check_path(tr, solution.schedule, minimum, harvested)
        if certify:
            _certify(tr, solution, minimum, harvested)
        if sweep_seed is not None:
            _p2p_oracle(tr, harvested, minimum, solution, data, sweep_seed)
        return None, solve_s

    return run


def _broadcast(packets, horizon, noise1, noise2, mu1, mu2):
    def solve(tr):
        harvested = tr.call(
            "curves.from_packet_arrivals", from_packet_arrivals, packets, horizon
        )
        tr.count("curves.breakpoints_in", len(harvested.breakpoints))
        problem = BroadcastProblem(noise1, noise2, mu1, mu2, harvested)
        return harvested, tr.call("broadcast.solve_broadcast", solve_broadcast, problem)

    return solve


def _leakage(packets, epsilon, deadline):
    def solve(tr):
        problem = LeakageProblem(packets, epsilon, deadline, RATE)
        solution = tr.call("leakage.solve_n_packet", solve_n_packet, problem)
        tr.count("leakage.blocks", len(solution.block_boundaries) - 1)
        tr.count("leakage.segments", len(solution.schedule.segments))
        return problem, solution

    return solve


def _broadcast_op(packets, horizon, noise2, mu2):
    def run(tr):
        (harvested, solution), solve_s = _solve(
            tr, _broadcast(packets, horizon, 1.0, noise2, 1.0, mu2)
        )
        _check_path(tr, solution.total_schedule, zero_curve(horizon), harvested)
        for total, user1, user2 in zip(
            solution.total_schedule.segments,
            solution.user1_schedule.segments,
            solution.user2_schedule.segments,
        ):
            _require(
                _close(user1[2] + user2[2], total[2]),
                f"user powers {user1[2]!r} + {user2[2]!r} != total {total[2]!r}",
            )
        _require(
            _close(solution.weighted_sum, solution.user1_data + mu2 * solution.user2_data),
            "weighted sum does not match the per-user data",
        )
        return None, solve_s

    return run


def _leakage_op(packets, epsilon, deadline, oracle_grid=None):
    def run(tr):
        (problem, solution), solve_s = _solve(tr, _leakage(packets, epsilon, deadline))
        _check_leakage(tr, problem, solution)
        if oracle_grid is not None:
            max_power = max(p for _, _, p in solution.schedule.segments)
            grid = GridSpec(oracle_grid, oracle_grid, 4.0 * max(max_power, 0.25) + 1.0)
            tr.count("oracle.gap_checks")
            oracle = tr.call(
                "oracle.dp_leakage_throughput", dp_leakage_throughput, problem, grid
            )
            # the leak quantization can put the DP on either side
            gap = (solution.total_data - oracle) / solution.total_data
            _require(
                abs(gap) <= LEAKAGE_GAP_TOLERANCE,
                f"leakage DP gap {gap:.3%} beyond {LEAKAGE_GAP_TOLERANCE:.0%}",
            )
            tr.count("oracle.gap_ok")
        return None, solve_s

    return run


def _corridor_ladder(rng, sizes):
    ops = []
    for n in sizes.ladder:
        packets, horizon = _train(rng, n)
        ops.append(Op("train", n, _p2p_op(_packets_corridor(packets, horizon, None))))
        packets, horizon = _train(rng, n)
        capacity = _capacity(rng, packets)
        ops.append(Op("capped", n, _p2p_op(_packets_corridor(packets, horizon, capacity))))
        ops.append(Op("dying", n, _p2p_op(_dying_corridor(*_dying_bank(rng, n)))))
        packets, horizon = _train(rng, n)
        noise2 = rng.uniform(2.0, 4.0)
        mu2 = rng.uniform(1.1, 0.9 * noise2)  # shared regime: a real power split
        ops.append(Op("broadcast", n, _broadcast_op(packets, horizon, noise2, mu2)))
        ops.append(Op("leakage", n, _leakage_op(*_leakage_train(rng, n))))
        ops.append(Op("solar", n, _p2p_op(_solar_corridor(SOLAR_DAY, n))))
    return ops


def _certify_sweep(rng, sizes):
    ops = []
    for _ in range(sizes.corridors):
        build = _corridor(_small_corridor(rng))
        sweep_seed = rng.randrange(2**31)
        ops.append(Op("corridor", None, _p2p_op(build, certify=True, sweep_seed=sweep_seed)))
    for _ in range(sizes.leakage):
        ops.append(Op("leakage", None, _leakage_op(*_small_leakage(rng), LEAKAGE_GRID)))
    for n in sizes.certify_trains:
        packets, horizon = _train(rng, n)
        build = _packets_corridor(packets, horizon, _capacity(rng, packets))
        ops.append(Op("capped", n, _p2p_op(build, certify=True)))
    solar = _solar_corridor(SOLAR_DAY, sizes.certify_solar)
    ops.append(Op("solar", None, _p2p_op(solar, certify=True)))
    return ops


# --------------------------------------------------------------------------
# the CLI workload


def _packets_json(packets):
    return [{"t": t, "e": e} for t, e in packets]


def _p2p_scenario(spec):
    """Scenario file for a small corridor, and the corridor it describes."""
    if spec[0] == "dying":
        amounts, times = spec[1:]
        scenario = {
            "mode": "p2p",
            "deadline": times[-1],
            "harvest": {"packets": [{"t": 0.0, "e": sum(amounts)}]},
            "battery": {"dying": {"b": amounts, "t": times}},
        }
    else:
        packets, horizon, capacity = spec[1:]
        scenario = {
            "mode": "p2p",
            "deadline": horizon,
            "harvest": {"packets": _packets_json(packets)},
            "battery": "none" if capacity is None else {"constant": capacity},
        }
    return scenario, _corridor(spec)


def _string_data(build):
    return lambda tr: _string(tr, build)[3]


def _broadcast_data(packets, horizon, spec):
    solve = _broadcast(packets, horizon, spec["n1"], spec["n2"], spec["mu1"], spec["mu2"])
    return lambda tr: solve(tr)[1].weighted_sum


def _leakage_data(packets, epsilon, deadline):
    solve = _leakage(packets, epsilon, deadline)
    return lambda tr: solve(tr)[1].total_data


def _cli_op(argv, stem, out_dir, direct):
    """Run one ``ehsched`` command in-process, then check its report against
    the schema and its ``total_data`` against a direct library solve."""
    command = argv[0]
    argv = argv + ["--out", str(out_dir)]

    def run(tr):
        out, err = io.StringIO(), io.StringIO()
        if command == "verify":
            tr.count("oracle.gap_checks")
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = tr.call(f"cli.{command}", cli_main, argv)
        op_s = perf_counter() - start
        if code != 0:
            raise OpFailed(f"ehsched {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        files = [out_dir / f"{stem}.{suffix}" for suffix in ("report.json", "schedule.csv", "plot.svg")]
        tr.count("cli.bytes_written", sum(f.stat().st_size for f in files))
        report = json.loads(files[0].read_text())
        try:
            REPORT_VALIDATOR.validate(report)
        except jsonschema.ValidationError as exc:
            raise CheckFailed(f"{stem} report: {exc.message}") from None
        expected, first_s = _solve(tr, direct)
        # solved again, untraced: the first solve follows the command and pays
        # for caches it left cold, a cost that varies with the host's load
        _, again_s = _solve(UNTRACED, direct)
        solve_s = min(first_s, again_s)
        _require(
            _close(report["total_data"], expected),
            f"{stem}: report total_data {report['total_data']!r}, library {expected!r}",
        )
        if command == "verify":
            verification = report["verification"]
            _require(
                verification["ok"] and abs(verification["relative_gap"]) <= verification["tolerance"],
                f"{stem}: verification {verification}",
            )
            tr.count("oracle.gap_ok")
        return op_s, solve_s

    return run


def _cli_reports(rng, sizes, workdir: Path):
    ops = []

    def add(family, size, scenario, stem, command, direct, extra=()):
        out_dir = workdir / f"out{len(ops)}"
        if scenario is None:
            token = stem  # a built-in demo
        else:
            token = str(workdir / f"{stem}.json")
            Path(token).write_text(json.dumps(scenario))
        run = _cli_op([command, token, *extra], stem, out_dir, direct)
        ops.append(Op(family, size, run))

    solar = {"mode": "p2p", "deadline": SOLAR_DAY, "harvest": {"named": "solar"}}
    for resolution in sizes.cli_solar:
        add(
            "solar", resolution, solar, f"solar-{resolution}", "solve",
            _string_data(_solar_corridor(SOLAR_DAY, resolution)),
            ["--resolution", str(resolution), "--format", "json,csv,svg"],
        )
    for i, n in enumerate(sizes.cli_trains):
        packets, horizon = _train(rng, n)
        capacity = _capacity(rng, packets)
        scenario = {
            "mode": "p2p",
            "deadline": horizon,
            "harvest": {"packets": _packets_json(packets)},
            "battery": {"constant": capacity},
        }
        direct = _string_data(_packets_corridor(packets, horizon, capacity))
        add("capped", n, scenario, f"capped-{i}", "solve", direct)
        packets, epsilon, deadline = _leakage_train(rng, n)
        scenario = {
            "mode": "leakage",
            "deadline": deadline,
            "harvest": {"packets": _packets_json(packets)},
            "epsilon": epsilon,
        }
        add("leakage", n, scenario, f"leakage-{i}", "solve",
            _leakage_data(packets, epsilon, deadline))

    demo = DEMO_SCENARIOS["dying-battery"]["battery"]["dying"]
    add("demo", None, None, "dying-battery", "verify", _string_data(_dying_corridor(demo["b"], demo["t"])))
    demo = DEMO_SCENARIOS["broadcast"]
    packets = [(p["t"], p["e"]) for p in demo["harvest"]["packets"]]
    add("demo", None, None, "broadcast", "verify",
        _broadcast_data(packets, demo["deadline"], demo["broadcast"]))
    demo = DEMO_SCENARIOS["leakage-counterexample"]
    packets = tuple((p["t"], p["e"]) for p in demo["harvest"]["packets"])
    add("demo", None, None, "leakage-counterexample", "verify",
        _leakage_data(packets, demo["epsilon"], demo["deadline"]))
    for i in range(sizes.cli_p2p):
        scenario, build = _p2p_scenario(_small_corridor(rng))
        add("p2p", None, scenario, f"p2p-{i}", "verify", _string_data(build))
    # the README's default grid: 1024 solar pieces exceed its 400 time slots,
    # so this command exits 1 at the seed
    add("demo", None, None, "solar", "verify", _string_data(_solar_corridor(SOLAR_DAY, 1024)))
    return ops


def build(workload: str, seed: int, sizes: Sizes, workdir: Path) -> list[Op]:
    """The operations of one cycle of ``workload``, from ``seed`` alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corridor-ladder":
        ops = _corridor_ladder(rng, sizes)
    elif workload == "certify-sweep":
        ops = _certify_sweep(rng, sizes)
    elif workload == "cli-reports":
        ops = _cli_reports(rng, sizes, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # Spread each kind of op over the whole cycle, so that a percentile is
    # not taken from one stretch of it while the host's speed drifts.
    rng.shuffle(ops)
    return ops
