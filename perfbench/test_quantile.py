"""The Harrell-Davis estimator and the beta function behind it.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_quantile.py
"""

import random

import pytest

from quantile import beta_cdf, harrell_davis


@pytest.mark.parametrize("x", [0.1, 0.4, 0.75, 0.99])
def test_beta_cdf_matches_closed_form(x):
    # I_x(2, 3) = 1 - (1 - x)^4 - 4 x (1 - x)^3
    assert beta_cdf(2, 3, x) == pytest.approx(1 - (1 - x) ** 4 - 4 * x * (1 - x) ** 3, abs=1e-12)


def test_weights_sum_to_one_and_symmetric_median():
    assert harrell_davis([7.0] * 50, 0.9) == pytest.approx(7.0)
    assert harrell_davis([5.0, 1.0, 3.0], 0.5) == pytest.approx(3.0)


def test_estimates_the_quantile_and_rises_with_p():
    rng = random.Random(1)
    sample = [rng.random() for _ in range(2000)]
    estimates = [harrell_davis(sample, p) for p in (0.1, 0.5, 0.9, 0.995)]
    assert estimates == sorted(estimates)
    assert estimates[:3] == pytest.approx([0.1, 0.5, 0.9], abs=0.03)
