"""The Harrell-Davis quantile estimator.

A sample quantile is one order statistic, so it moves with the noise of
the one or two jobs that happen to sit at its rank.  The Harrell-Davis
estimate of the same quantile is a weighted mean of all order
statistics, with the weights of a Beta distribution centred on that
rank, and varies much less from run to run on a noisy machine (Harrell
and Davis, Biometrika 69(3), 1982).
"""

from __future__ import annotations

import math
from typing import Sequence


def _continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's continued fraction for the incomplete beta function."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-14:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _continued_fraction(a, b, x) / a
    return 1.0 - front * _continued_fraction(b, a, 1.0 - x) / b


def harrell_davis(values: Sequence[float], p: float) -> float:
    """Estimate of the ``p``-quantile of the distribution ``values`` came from."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return math.fsum((cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered))
