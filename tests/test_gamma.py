"""The cephes Gamma port: every bit of scipy.special.gamma on its domain.

The kernels, the step bounds and the manufactured source all divide by
Gamma(2-alpha), Gamma(3-alpha) or Gamma(4+alpha)/Gamma(4); a last-bit
difference would move every CSV the program writes.
"""

import math

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma

from tfch._gamma import gamma


def _bits_differ(x) -> int:
    """How many of the arguments x give other bits than scipy's Gamma."""
    got = np.array([gamma(v) for v in x])
    return int(np.count_nonzero(got.view(np.int64)
                                != scipy_gamma(x).view(np.int64)))


def test_bitwise_scipy_on_1e5_arguments_in_1_to_5():
    x = np.random.default_rng(0).uniform(1.0, 5.0, 100_000)
    x = np.concatenate([x, [1.0, 2.0, 3.0, 4.0, 5.0],
                        np.nextafter([2.0, 3.0, 4.0, 5.0], 0.0),
                        np.nextafter([1.0, 2.0, 3.0, 4.0], 6.0)])
    assert _bits_differ(x) == 0


def test_bitwise_scipy_at_the_schemes_arguments():
    alpha = np.linspace(0.0, 1.0, 20_001)[1:-1]
    for x in (2.0 - alpha, 3.0 - alpha, 4.0 + alpha, np.array([4.0])):
        assert _bits_differ(x) == 0


def test_bitwise_scipy_up_to_33():
    x = np.random.default_rng(1).uniform(5.0, 33.0, 10_000)
    assert _bits_differ(np.append(x, np.arange(6.0, 34.0))) == 0


def test_returns_numpy_float64():
    # numpy scalar rules: overflow and division by zero warn, not raise
    for x in (1.0, 2.0, 2.5, 4, np.float64(3.3)):
        assert type(gamma(x)) is np.float64


@pytest.mark.parametrize("x", [0.5, np.nextafter(1.0, 0.0),
                               np.nextafter(33.0, 34.0), 40.0, -1.5,
                               math.inf, math.nan])
def test_outside_1_to_33_is_refused(x):
    with pytest.raises(ValueError):
        gamma(x)
