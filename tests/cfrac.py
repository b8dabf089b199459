"""Continued fractions with exact integer convergents: the exponent tests' oracle.

The expansion runs the Euclidean algorithm on the exact rational value of the
input double (every float is a dyadic rational), so partial quotients and
convergents are exact integers and the classical convergent identities hold
with no rounding. The expansion stops at the requested depth, when the
convergent denominator passes q_cap, when the remainder is exactly zero, or
when the remaining tail drops below 1e-15 (the double no longer resolves it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from nodalab.errors import ValidationError


@dataclass(frozen=True)
class ContinuedFractionExpansion:
    """Expansion x = [0; a_1, a_2, ...] with exact convergents p_m/q_m."""

    x: float
    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    exact: bool

    @property
    def depth(self) -> int:
        return len(self.quotients)

    def value(self, m: int | None = None) -> float:
        """The m-th convergent as a float (defaults to the last)."""
        if not self.convergents:
            return 0.0
        p, q = self.convergents[-1 if m is None else m]
        return p / q


def continued_fraction(
    x: float, depth: int = 30, q_cap: int | None = None
) -> ContinuedFractionExpansion:
    """Expand x in [0, 1) as a simple continued fraction.

    Quotients come from exact integer Euclid on the float's rational value;
    they match the mathematical expansion of x until the denominator squared
    reaches the double's precision.
    """
    if not (0.0 <= x < 1.0) or math.isnan(x):
        raise ValidationError(f"x={x!r} must lie in [0, 1)")
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    num, den = x.as_integer_ratio()
    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    exact = num == 0
    while num != 0 and len(quotients) < depth:
        a, r = divmod(den, num)
        pn = a * p + p_prev
        qn = a * q + q_prev
        if q_cap is not None and qn > q_cap:
            break
        quotients.append(int(a))
        convergents.append((int(pn), int(qn)))
        p_prev, p = p, pn
        q_prev, q = q, qn
        num, den = r, num
        if num == 0:
            exact = True
            break
        if num * 10**15 < den:  # remainder below 1e-15, exact integer test
            break
    return ContinuedFractionExpansion(x, tuple(quotients), tuple(convergents), exact)
