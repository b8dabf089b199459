"""Continued fraction expansions: golden values and exact invariants."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalab.errors import ValidationError

from cfrac import continued_fraction

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def best_rational(x: float, q_max: int) -> tuple[int, int]:
    """Exhaustive minimizer of |x - p/q| over 1 <= q <= q_max, exact arithmetic."""
    xf = Fraction(x)
    best = None
    best_err = None
    for q in range(1, q_max + 1):
        p = round(x * q)
        err = abs(xf - Fraction(p, q))
        if best_err is None or err < best_err:
            best, best_err = (p, q), err
    return best


def test_golden_ratio_all_ones_fibonacci():
    cf = continued_fraction(GOLDEN, depth=30)
    assert cf.quotients == (1,) * 30
    fib = [1, 1]
    while len(fib) < 32:
        fib.append(fib[-1] + fib[-2])
    assert cf.convergents == tuple((fib[k], fib[k + 1]) for k in range(30))
    assert not cf.exact


def test_pi_fractional_part_convergents():
    x = math.pi - 3.0
    cf = continued_fraction(x, depth=10)
    assert cf.quotients[:4] == (7, 15, 1, 292)
    assert (1, 7) in cf.convergents
    assert (16, 113) in cf.convergents
    # each is the best rational approximation up to its own denominator
    assert best_rational(x, 7) == (1, 7)
    assert best_rational(x, 120) == (16, 113)


def test_dyadic_rational_terminates():
    cf = continued_fraction(0.375, depth=30)
    assert cf.quotients == (2, 1, 2)
    assert cf.convergents == ((1, 2), (1, 3), (3, 8))
    assert cf.exact
    assert cf.value() == 0.375


def test_zero_is_empty_and_exact():
    cf = continued_fraction(0.0)
    assert cf.quotients == ()
    assert cf.convergents == ()
    assert cf.exact
    assert cf.value() == 0.0


@pytest.mark.parametrize("bad", [1.0, -0.25, 1.5, math.nan, math.inf])
def test_domain_errors(bad):
    with pytest.raises(ValidationError):
        continued_fraction(bad)


def test_depth_error():
    with pytest.raises(ValidationError):
        continued_fraction(0.5, depth=0)


def test_q_cap_truncates():
    cf = continued_fraction(math.pi - 3.0, depth=30, q_cap=120)
    assert cf.convergents == ((1, 7), (15, 106), (16, 113))
    assert all(q <= 120 for _, q in cf.convergents)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False))
def test_convergent_invariants(x):
    cf = continued_fraction(x, depth=40)
    xf = Fraction(x)
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    for a, (pn, qn) in zip(cf.quotients, cf.convergents):
        assert a >= 1
        assert pn == a * p + p_prev
        assert qn == a * q + q_prev
        assert qn > q or (q == 1 and qn == 1)
        assert math.gcd(pn, qn) == 1
        assert abs(xf - Fraction(pn, qn)) < Fraction(1, qn * qn)
        p_prev, p = p, pn
        q_prev, q = q, qn
    if cf.exact and cf.convergents:
        assert cf.value() == x
