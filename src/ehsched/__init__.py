"""Throughput-optimal transmit schedules for energy-harvesting transmitters.

Energy arrives over time (packets, a sampled profile, or a built-in solar
model) and must be spent by a deadline through a strictly concave rate
function.  The optimal cumulative-energy curve is the taut string threaded
between the harvested ceiling and a minimum-spend floor (finite or dying
batteries).  Extensions cover two-receiver broadcast (via a composite rate)
and leaky batteries (block decomposition around the efficiency-optimal
power).  Dual bounds certify it all; the DPs in :mod:`ehsched.oracle` cross-check.

Each public name is declared once, in its module's ``__all__``.
"""

from . import broadcast, curves, leakage, oracle, rate, string_solver
from .broadcast import *  # noqa: F403
from .curves import *  # noqa: F403
from .leakage import *  # noqa: F403
from .oracle import *  # noqa: F403
from .rate import *  # noqa: F403
from .string_solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *curves.__all__,
    *rate.__all__,
    *string_solver.__all__,
    *broadcast.__all__,
    *leakage.__all__,
    *oracle.__all__,
]
