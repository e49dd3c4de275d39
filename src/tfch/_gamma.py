"""Gamma function on [1, 33], bitwise equal to cephes' Gamma.

The scheme needs only Gamma(2-alpha), Gamma(3-alpha), Gamma(4+alpha) and
Gamma(4) for alpha in (0, 1). This is the branch of cephes' Gamma
(S. L. Moshier, Methods and Programs for Mathematical Functions, 1989) that
covers those arguments: shift x into [2, 3) by the recurrence
Gamma(x+1) = x Gamma(x), then take a (6, 7) rational approximation in x - 2.
Every operation is one float64 operation in cephes' order, so the result has
the bits of scipy.special.gamma, which is that cephes routine; math.gamma
differs from it in the last bit on most arguments and would move every
kernel. Outside [1, 33] cephes takes other branches (Stirling's series, the
reflection formula), which are not ported: ValueError there.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gamma"]

_P = (1.60119522476751861407E-4, 1.19135147006586384913E-3,
      1.04213797561761569935E-2, 4.76367800457137231464E-2,
      2.07448227648435975150E-1, 4.94214826801497100753E-1,
      9.99999999999999996796E-1)
_Q = (-2.31581873324120129819E-5, 5.39605580493303397842E-4,
      -4.45641913851797240494E-3, 1.18139785222060435552E-2,
      3.58236398605498653373E-2, -2.34591795718243348568E-1,
      7.14304917030273074085E-2, 1.00000000000000000320E0)


def _polevl(x: float, coef) -> float:
    """coef[0] x^k + ... + coef[k] by Horner's rule, one rounding per step."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def gamma(x) -> np.float64:
    """Gamma(x) for a real x in [1, 33], as an np.float64 (ValueError
    otherwise), so that overflow and division by it keep numpy's rules."""
    x = float(x)
    if not 1.0 <= x <= 33.0:
        raise ValueError("gamma is implemented on [1, 33] only, got %r" % x)
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        z /= x
        x += 1.0
    if x == 2.0:
        return np.float64(z)
    x -= 2.0
    return np.float64(z * _polevl(x, _P) / _polevl(x, _Q))
