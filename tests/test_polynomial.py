"""Exact polynomial arithmetic."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from tentomo.polynomial import (Polynomial, PolynomialSizeError,
                                linear_combination, random_homogeneous,
                                random_polynomial)
from tentomo.rng import SplitMix64


def test_add_mul_exact():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y


def test_zero_terms_dropped():
    x = Polynomial.variable(2, 0)
    assert (x - x).is_zero()
    assert not (x - x).terms


def test_diff_and_eval():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x**3 * y + Fraction(1, 2) * y**2
    assert p.diff(0) == 3 * x**2 * y
    assert p.diff(1) == x**3 + y
    assert p.eval((Fraction(2), Fraction(3))) == 24 + Fraction(9, 2)


def test_eval_many_matches_eval():
    rng = SplitMix64(1)
    p = random_polynomial(3, 3, rng)
    pts = np.array([[0.3, -1.2, 0.5], [1.0, 0.0, 2.0]])
    got = p.to_float().eval_many(pts)
    for row, pt in zip(got, pts):
        assert row == pytest.approx(float(p.eval(tuple(pt))), rel=1e-12)


def test_random_coefficients_are_ints_of_the_same_draws():
    p = random_polynomial(3, 2, SplitMix64(9))
    assert all(type(c) is int for c in p.terms.values())
    ref = SplitMix64(9)
    want = {}
    for exps in itertools.product(range(3), repeat=3):
        if sum(exps) <= 2:
            c = ref.rational(-3, 3)
            if c:
                want[exps] = c
    assert p.terms == want


def test_integer_form_arithmetic_matches_fraction_arithmetic():
    rng = SplitMix64(5)
    a = random_polynomial(2, 3, rng) * Fraction(1, 6)
    b = random_polynomial(2, 2, rng) * Fraction(3, 4) + Fraction(1, 10)
    product = {}
    for (e1, c1), (e2, c2) in itertools.product(a.terms.items(), b.terms.items()):
        e = (e1[0] + e2[0], e1[1] + e2[1])
        product[e] = product.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
    assert (a * b).terms == {e: c for e, c in product.items() if c}
    combo = {}
    for p, c in ((a, 2), (b, -3)):
        for e, v in p.terms.items():
            combo[e] = combo.get(e, Fraction(0)) + Fraction(v) * c * Fraction(5, 7)
    assert linear_combination(2, [(a, 2), (b, -3)], Fraction(5, 7)).terms == \
        {e: c for e, c in combo.items() if c}
    floats = linear_combination(2, [(a.to_float(), 2), (b.to_float(), -3)],
                                Fraction(5, 7))
    for e, c in combo.items():
        assert floats.terms.get(e, 0.0) == pytest.approx(float(c), rel=1e-12)


def test_homogeneous_generator():
    rng = SplitMix64(2)
    p = random_homogeneous(3, 4, rng)
    assert p.is_homogeneous()
    assert p.degree() == 4


def test_power():
    x = Polynomial.variable(1, 0)
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert (x + 1) ** 0 == Polynomial.constant(1, 1)


def test_size_guardrail():
    import tentomo.polynomial as mod
    old = mod.TERM_LIMIT
    mod.TERM_LIMIT = 10
    try:
        dense = random_polynomial(2, 3, SplitMix64(3), lo=1, hi=3)
        with pytest.raises(PolynomialSizeError):
            _ = dense * dense * dense
    finally:
        mod.TERM_LIMIT = old


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)
