"""Two-receiver downlink scheduling via reduction to a single-user problem.

One transmitter sends superposed signals to two receivers over Gaussian
channels with different noise levels.  The cleaner receiver decodes and
removes the weaker receiver's signal first, so for a total power ``p`` split
as ``p1 + p2`` the achievable rates are::

    r1 = 1/2 log2(1 + p1 / noise1)              (cleaner channel)
    r2 = 1/2 log2(1 + p2 / (p1 + noise2))       (noisier channel)

Maximizing a weighted sum of delivered data decouples: the best split of any
total power ``p`` depends only on the weights and noises (a threshold rule),
and plugging that split back in yields a single strictly concave "composite"
rate of total power.  The energy-schedule geometry is therefore exactly the
single-user taut string, and the per-user schedules follow by splitting each
constant-power segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import CumulativeCurve, PowerSchedule
from .rate import _LN2, RateFunction
from .string_solver import StringSolution, taut_string

__all__ = [
    "BroadcastProblem",
    "BroadcastSolution",
    "power_threshold",
    "composite_rate",
    "split_power",
    "solve_broadcast",
]


def _check_weights(mu1: float, mu2: float, noise1: float, noise2: float) -> None:
    named = (("mu1", mu1), ("mu2", mu2), ("noise1", noise1), ("noise2", noise2))
    for name, value in named:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not (noise2 > noise1 > 0.0):
        raise ValueError(
            f"noise powers must satisfy noise2 > noise1 > 0, got "
            f"noise1={noise1!r}, noise2={noise2!r}"
        )
    if mu1 < 0.0 or mu2 < 0.0 or (mu1 == 0.0 and mu2 == 0.0):
        raise ValueError("weights must be non-negative and not both zero")


def power_threshold(mu1: float, mu2: float, noise1: float, noise2: float) -> float:
    """Optimal power-split threshold ``p_th`` for the weighted objective.

    User 1 (the cleaner receiver) takes the first ``p_th`` units of power and
    user 2 the rest.  With the weight ratio ``mu2 / mu1``: at or below 1 the
    cleaner receiver is worth more per unit power at every level, so
    ``p_th = inf``; above ``noise2 / noise1`` the noisier receiver always
    wins, so ``p_th = 0``; in between, ``p_th`` is the crossover power
    ``(noise2 - ratio * noise1) / (ratio - 1)``, clamped at 0 against rounding.
    """
    _check_weights(mu1, mu2, noise1, noise2)
    if mu2 == 0.0 or (mu1 > 0.0 and mu2 / mu1 <= 1.0):
        return math.inf
    if mu1 == 0.0 or mu2 / mu1 > noise2 / noise1:
        return 0.0
    ratio = mu2 / mu1
    return max((noise2 - ratio * noise1) / (ratio - 1.0), 0.0)


def composite_rate(
    mu1: float, mu2: float, noise1: float, noise2: float
) -> RateFunction:
    """Weighted data per unit time as a function of total power, with the
    power split optimally between the receivers at ``power_threshold``.

    Where one receiver takes all the power (``p_th`` is 0 or inf) this is that
    receiver's rate scaled by its weight.  The result is strictly concave and
    differentiable, including at the crossover power.
    """
    p_th = power_threshold(mu1, mu2, noise1, noise2)

    def value(power):
        p = np.asarray(power, dtype=float)
        p1 = np.minimum(p, p_th)
        p2 = np.maximum(p - p_th, 0.0)
        out = 0.5 * mu1 * np.log2(1.0 + p1 / noise1) + 0.5 * mu2 * np.log2(
            1.0 + p2 / (p_th + noise2)
        )
        return float(out) if np.ndim(power) == 0 else out

    def deriv(power):
        p = np.asarray(power, dtype=float)
        out = np.where(
            p < p_th,
            mu1 / (2.0 * _LN2 * (noise1 + p)),
            mu2 / (2.0 * _LN2 * (noise2 + p)),
        )
        return float(out) if np.ndim(power) == 0 else out

    return RateFunction(value=value, deriv_fn=deriv)


def split_power(power: float, threshold: float) -> tuple[float, float]:
    """Give user 1 the first ``threshold`` units of a total power and user 2
    the rest."""
    if power < 0.0:
        raise ValueError(f"power must be non-negative, got {power!r}")
    p1 = min(power, threshold)
    return p1, power - p1


@dataclass(frozen=True)
class BroadcastProblem:
    """Weighted two-receiver instance over a harvest/floor corridor."""

    noise1: float
    noise2: float
    mu1: float
    mu2: float
    harvested: CumulativeCurve
    minimum: CumulativeCurve | None = None

    def __post_init__(self) -> None:
        _check_weights(self.mu1, self.mu2, self.noise1, self.noise2)


@dataclass(frozen=True)
class BroadcastSolution:
    """Per-user schedules and data for a solved broadcast instance.

    ``user1_data`` and ``user2_data`` are unweighted bits; ``weighted_sum``
    is ``mu1 * user1_data + mu2 * user2_data``, the maximized objective, and
    ``rate`` the composite rate of total power the schedule is optimal under.
    """

    total_schedule: PowerSchedule
    user1_schedule: PowerSchedule
    user2_schedule: PowerSchedule
    user1_data: float
    user2_data: float
    weighted_sum: float
    string: StringSolution
    rate: RateFunction


def solve_broadcast(problem: BroadcastProblem) -> BroadcastSolution:
    """Maximize the weighted delivered data over both receivers.

    The cumulative total-energy curve of the optimum never depends on the
    (strictly concave) rate, so the taut string on the corridor gives the
    total schedule; each segment's power is then split by the threshold rule
    and the per-user data follow from the single-user rate formulas.
    """
    weights = (problem.mu1, problem.mu2, problem.noise1, problem.noise2)
    threshold = power_threshold(*weights)
    effective = composite_rate(*weights)
    string = taut_string(problem.harvested, problem.minimum)

    schedule = string.schedule
    starts, ends = schedule.starts, schedule.ends
    user1_powers = []
    user2_powers = []
    data1 = 0.0
    data2 = 0.0
    for t0, t1, power in zip(starts, ends, schedule.powers):
        p1, p2 = split_power(power, threshold)
        user1_powers.append(p1)
        user2_powers.append(p2)
        dt = t1 - t0
        data1 += dt * 0.5 * math.log2(1.0 + p1 / problem.noise1)
        data2 += dt * 0.5 * math.log2(1.0 + p2 / (p1 + problem.noise2))
    return BroadcastSolution(
        total_schedule=schedule,
        # split from a validated schedule, on its times: only the powers
        # need a check
        user1_schedule=PowerSchedule._derived(starts, ends, tuple(user1_powers)),
        user2_schedule=PowerSchedule._derived(starts, ends, tuple(user2_powers)),
        user1_data=data1,
        user2_data=data2,
        weighted_sum=problem.mu1 * data1 + problem.mu2 * data2,
        string=string,
        rate=effective,
    )
