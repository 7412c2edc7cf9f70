"""Throughput-optimal transmit schedules for energy-harvesting transmitters.

Energy arrives over time (packets, a sampled profile, or a built-in solar
model) and must be spent by a deadline through a strictly concave rate
function.  The optimal cumulative-energy curve is the taut string threaded
between the harvested ceiling and a minimum-spend floor (finite or dying
batteries).  Extensions cover two-receiver broadcast (via a composite rate)
and leaky batteries (block decomposition around the efficiency-optimal
power).  Dual bounds certify it all; the DPs in :mod:`ehsched.oracle` cross-check.
"""

from .broadcast import (
    BroadcastProblem,
    BroadcastSolution,
    composite_rate,
    power_threshold,
    solve_broadcast,
    split_power,
)
from .curves import (
    DEFAULT_TOL,
    BatterySchedule,
    CumulativeCurve,
    FeasibilityReport,
    InfeasibleError,
    PiecewiseCurve,
    PowerSchedule,
    check_feasible,
    dying_battery_scenario,
    from_packet_arrivals,
    integrate_rate,
    merge_times,
    min_energy_from_battery,
    solar_harvest_rate,
    zero_curve,
)
from .leakage import (
    UNBOUNDED,
    LeakageProblem,
    LeakageSolution,
    LeakageTrace,
    ThroughputComparison,
    compare_ST_NT,
    drain_bound,
    p_star,
    simulate,
    solve_n_packet,
    sufficient_condition_holds,
)
from .oracle import (
    GridInfeasibleError,
    GridSpec,
    dp_leakage_throughput,
    dp_throughput,
    random_feasible_schedule,
)
from .rate import RateFunction, awgn_rate, throughput
from .string_solver import (
    CertificateReport,
    Contact,
    StringSolution,
    dual_bound,
    optimality_certificate,
    taut_string,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # curves
    "DEFAULT_TOL",
    "BatterySchedule",
    "CumulativeCurve",
    "FeasibilityReport",
    "InfeasibleError",
    "PiecewiseCurve",
    "PowerSchedule",
    "check_feasible",
    "dying_battery_scenario",
    "from_packet_arrivals",
    "integrate_rate",
    "merge_times",
    "min_energy_from_battery",
    "solar_harvest_rate",
    "zero_curve",
    # rate
    "RateFunction",
    "awgn_rate",
    "throughput",
    # string solver
    "CertificateReport",
    "Contact",
    "StringSolution",
    "dual_bound",
    "optimality_certificate",
    "taut_string",
    # broadcast
    "BroadcastProblem",
    "BroadcastSolution",
    "composite_rate",
    "power_threshold",
    "solve_broadcast",
    "split_power",
    # leakage
    "UNBOUNDED",
    "LeakageProblem",
    "LeakageSolution",
    "LeakageTrace",
    "ThroughputComparison",
    "compare_ST_NT",
    "drain_bound",
    "p_star",
    "simulate",
    "solve_n_packet",
    "sufficient_condition_holds",
    # oracle
    "GridInfeasibleError",
    "GridSpec",
    "dp_leakage_throughput",
    "dp_throughput",
    "random_feasible_schedule",
]
