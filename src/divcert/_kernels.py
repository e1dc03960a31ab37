"""Coefficient kernels.

These two passes dominate the runtime of every polynomial expansion: a dense
q-binomial quotient is built by repeatedly multiplying and exactly dividing
by binomials 1 - q^t.

Coefficient lists are plain ``list[int]`` (arbitrary precision), constant
term first, and may carry trailing zeros; callers normalize.
"""

from __future__ import annotations


def mul_one_minus_qt(c: list, t: int) -> list:
    """Multiply the coefficient list c by (1 - q**t)."""
    n = len(c)
    out = c + [0] * t
    for i in range(n):
        out[i + t] -= c[i]
    return out


def div_one_minus_qt(c: list, t: int) -> list:
    """Exactly divide the coefficient list c by (1 - q**t).

    Raises ValueError if the division leaves a remainder.
    """
    n = len(c)
    if n == 0:
        return []
    if n < t:
        raise ValueError("not divisible by 1 - q^t")
    q = c[:]
    for i in range(t, n):
        q[i] += q[i - t]
    for i in range(n - t, n):
        if q[i] != 0:
            raise ValueError("not divisible by 1 - q^t")
    return q[: n - t]
