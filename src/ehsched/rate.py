"""Concave rate laws mapping transmit power to data rate."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .curves import PowerSchedule

__all__ = ["RateFunction", "awgn_rate", "throughput"]

_LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class RateFunction:
    """A strictly concave, strictly increasing rate law with r(0) = 0.

    ``value`` and ``deriv_fn`` accept scalars or numpy arrays of non-negative
    powers.
    """

    value: Callable[[Any], Any]
    deriv_fn: Callable[[Any], Any]

    def __call__(self, power):
        return self.value(power)

    def deriv(self, power):
        return self.deriv_fn(power)


def awgn_rate(noise: float = 1.0) -> RateFunction:
    """Gaussian-channel rate: r(p) = 0.5 * log2(1 + p / noise)."""
    noise = float(noise)
    if not 0.0 < noise < math.inf:
        raise ValueError(f"noise power must be positive and finite, got {noise}")

    # A non-negative float takes the same operations in the same order
    # without the array: Python's float arithmetic rounds as NumPy's does,
    # and the denominators are positive, so the bits are the same.

    def value(p):
        if type(p) is float and p >= 0.0:
            return float(0.5 * np.log2(1.0 + p / noise))
        out = 0.5 * np.log2(1.0 + np.asarray(p, dtype=float) / noise)
        return float(out) if np.ndim(out) == 0 else out

    def deriv(p):
        if type(p) is float and p >= 0.0:
            return 1.0 / (2.0 * _LN2 * (noise + p))
        out = 1.0 / (2.0 * _LN2 * (noise + np.asarray(p, dtype=float)))
        return float(out) if np.ndim(out) == 0 else out

    return RateFunction(value, deriv)


def throughput(schedule: PowerSchedule, rate: RateFunction) -> float:
    """Total data sent by a piecewise-constant schedule: sum of dt * r(p).

    The rate is evaluated once on the array of segment powers (NumPy's array
    loop gives the same bits as one call per power), and the sum runs left
    to right.
    """
    rates = np.asarray(rate(np.array(schedule.powers)), dtype=float).tolist()
    return sum((t1 - t0) * r for t0, t1, r in zip(schedule.starts, schedule.ends, rates))
