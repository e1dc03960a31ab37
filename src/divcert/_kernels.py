"""Coefficient kernels.

These two passes dominate the runtime of every polynomial expansion: a dense
q-binomial quotient is built by repeatedly multiplying and exactly dividing
by binomials 1 - q^t, always with t >= 1.

Coefficient lists are plain ``list[int]`` (arbitrary precision), constant
term first, and may carry trailing zeros; callers normalize.
"""

from __future__ import annotations

import operator
from itertools import accumulate


def mul_one_minus_qt(c: list, t: int) -> list:
    """Multiply the coefficient list c by (1 - q**t), t >= 1, subtracting
    c shifted by t in one slice pass."""
    out = c + [0] * t
    out[t:] = map(operator.sub, out[t:], c)
    return out


def div_one_minus_qt(c: list, t: int) -> list:
    """Exactly divide the coefficient list c by (1 - q**t), t >= 1.

    The quotient q satisfies q[i] = c[i] + q[i - t], so within each residue
    class mod t it is the running sum of c; a class with one member is
    already its own sum.  Raises ValueError if the division leaves a
    remainder, that is if the top t running sums are not all zero.
    """
    n = len(c)
    if n == 0:
        return []
    if n < t:
        raise ValueError("not divisible by 1 - q^t")
    q = c[:]
    for r in range(min(t, n - t)):
        q[r::t] = accumulate(c[r::t])
    if any(q[n - t:]):
        raise ValueError("not divisible by 1 - q^t")
    return q[: n - t]
