"""Exact polynomial arithmetic."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from tentomo.polynomial import (INT64_LIMIT, CoreStack, Polynomial, PolynomialSizeError,
                                linear_combination, quadric_derivative,
                                random_homogeneous, random_polynomial, tree_multisets)
from tentomo.rng import SplitMix64


def float_copy(p):
    """p with every coefficient as a float."""
    return Polynomial(p.n, {e: float(c) for e, c in p.terms.items()})


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
    got = float_copy(p).eval_many(pts)
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
    floats = linear_combination(2, [(float_copy(a), 2), (float_copy(b), -3)],
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


def product_rule_oracle(p, axis, c0, sigma, e):
    """Q * d_axis p + 2 sigma e x_axis p with Q = c0 + sigma |x|^2, built
    from generic products and a linear combination."""
    n = p.n
    q = Polynomial.constant(n, c0)
    for i in range(n):
        q = q + sigma * Polynomial.variable(n, i) ** 2
    return linear_combination(n, ((q * p.diff(axis), 1),
                                  (Polynomial.variable(n, axis) * p, 2 * sigma * e)))


def _with_fractions(p):
    return Polynomial(p.n, {e: Fraction(c, 1 + i % 5)
                            for i, (e, c) in enumerate(p.terms.items())})


def _from_polys_term_by_term(n, polys):
    """The reference stacking: an object array filled one term at a time,
    its bound measured."""
    forms = [p._integer_form() for p in polys]
    den = math.lcm(*(d for _, d in forms))
    side = max([0] + [p.degree() for p in polys]) + 1
    arr = np.zeros((len(polys),) + (side,) * n, dtype=object)
    for r, (terms, d) in enumerate(forms):
        for e, c in terms.items():
            arr[(r,) + e] = c * (den // d)
    return CoreStack(n, arr, den)


class TestFromPolys:
    @pytest.mark.parametrize("case", ["int", "fraction", "zero", "big"])
    def test_matches_the_term_by_term_fill(self, case):
        rng = SplitMix64(80)
        rows = [random_polynomial(3, d, rng) for d in (3, 1, 0)] + [Polynomial.zero(3)]
        if case == "fraction":
            rows = [_with_fractions(p) for p in rows]
        elif case == "zero":
            rows = [Polynomial.zero(3)] * 3
        elif case == "big":
            rows[1] = Polynomial(3, {(1, 0, 0): INT64_LIMIT, (0, 2, 0): Fraction(-5, 3)})
        got, want = CoreStack.from_polys(3, rows), _from_polys_term_by_term(3, rows)
        assert got.arr.dtype == want.arr.dtype == (object if case == "big" else np.int64)
        assert got.arr.shape == want.arr.shape and np.array_equal(got.arr, want.arr)
        assert (got.den, got.bound) == (want.den, want.bound)
        if case == "big":
            assert all(type(c) is int for c in got.arr.ravel())
        assert got.polys() == rows

    def test_float_coefficients_are_rejected(self):
        with pytest.raises(TypeError):
            CoreStack.from_polys(2, [Polynomial(2, {(1, 0): 0.5})])


class TestQuadricDerivative:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("exact", ["int", "fraction"])
    def test_bump_cores_match_product_rule(self, n, exact):
        rng = SplitMix64(30 + n)
        for degree in range(8):
            core = random_polynomial(n, degree, rng)
            if exact == "fraction":
                core = _with_fractions(core)
            for rho in (1, Fraction(3, 2)):
                for e in range(1, 6):
                    for axis in range(n):
                        want = product_rule_oracle(core, axis, rho * rho, -1, e)
                        assert quadric_derivative(core, axis, rho * rho, -1, e) == want

    @pytest.mark.parametrize("n", [2, 3])
    def test_homogeneous_rational_matches_quotient_rule(self, n):
        # the stacked kernel with the quotient-rule parameters of
        # p / |xi|^{2r}: (c0, sigma, e) = (0, 1, -r)
        rng = SplitMix64(50 + n)
        for degree in range(8):
            for pow2r in range(4):
                numerator = random_homogeneous(n, degree, rng)
                if (degree + pow2r) % 2:
                    numerator = _with_fractions(numerator)
                # level 0 of a one-block stack: one block per axis
                stack = CoreStack.from_polys(n, [numerator])
                got = stack.quadric_level(0, 0, 1, -pow2r).polys()
                assert got == [product_rule_oracle(numerator, axis, 0, 1, -pow2r)
                               for axis in range(n)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacked_kernel_matches_one_core_at_a_time(self, n):
        # CoreStack.quadric_level at level 0, one block of rows of mixed
        # degree and denominator, against quadric_derivative row by row and
        # axis by axis; sigma = 0 is d/dx_axis
        rng = SplitMix64(60 + n)
        for degree in range(7):
            rows = [random_polynomial(n, d, rng) for d in (degree, degree // 2, 0)]
            rows[1] = _with_fractions(rows[1])
            stack = CoreStack.from_polys(n, rows + [Polynomial.zero(n)])
            assert stack.polys() == rows + [Polynomial.zero(n)]
            for c0, sigma, e in ((1, -1, 3), (Fraction(9, 4), -1, 2), (0, 1, -2), (1, 0, 0)):
                want = [quadric_derivative(p, axis, c0, sigma, e) if sigma else p.diff(axis)
                        for axis in range(n) for p in rows + [Polynomial.zero(n)]]
                assert stack.quadric_level(0, c0, sigma, e).polys() == want

    def test_float_core_matches_product_rule(self):
        core = float_copy(_with_fractions(random_polynomial(3, 5, SplitMix64(7))))
        for axis in range(3):
            got = quadric_derivative(core, axis, 2.25, -1, 3)
            want = product_rule_oracle(core, axis, 2.25, -1, 3)
            assert set(got.terms) == set(want.terms)
            for exps, c in want.terms.items():
                assert got.terms[exps] == pytest.approx(c, rel=1e-14)


def chain_oracle(p, order, params):
    """``quadric_derivative`` along the axes of ``order`` in turn, step j
    with (c0, sigma, e) = params(j); d/dx_axis when sigma = 0."""
    for j, axis in enumerate(order):
        c0, sigma, e = params(j)
        p = quadric_derivative(p, axis, c0, sigma, e) if sigma else p.diff(axis)
    return p


class TestQuadricLevel:
    @pytest.mark.parametrize("n", [2, 3])
    def test_tree_multisets_are_every_sorted_multiset_once(self, n):
        for j in range(5):
            keys = tree_multisets(n, j)
            assert sorted(keys) == list(itertools.combinations_with_replacement(range(n), j))
            # the multisets over axes 0..a are a prefix: what a level step reads
            for a in range(n):
                assert all(max(key, default=0) <= a for key in keys[:math.comb(a + j, j)])

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", ["quotient", "bump", "polynomial"])
    def test_levels_match_dict_chains_in_every_axis_order(self, n, kind):
        # blocks of rows of mixed degree and denominator, one per multiset:
        # every ordering of a multiset's axes chains to the block's numerators
        rng = SplitMix64(80 + n)
        params = {"quotient": lambda j: (0, 1, -(2 + j)),
                  "bump": lambda j: (Fraction(9, 4), -1, 6 - j),
                  "polynomial": lambda j: (1, 0, 0)}[kind]
        rows = [random_homogeneous(n, 3, rng), _with_fractions(random_polynomial(n, 2, rng)),
                Polynomial.zero(n), Polynomial.constant(n, Fraction(-2, 3))]
        level = CoreStack.from_polys(n, rows)
        for j in range(5):
            got = level.polys()
            assert len(got) == len(tree_multisets(n, j)) * len(rows)
            for b, key in enumerate(tree_multisets(n, j)):
                for order in set(itertools.permutations(key)):
                    want = [chain_oracle(p, order, params) for p in rows]
                    assert got[b * len(rows):(b + 1) * len(rows)] == want
            level = level.quadric_level(j, *params(j))
            assert level.bound >= np.abs(level.arr).max()

    def test_a_row_does_not_depend_on_the_rest_of_its_level(self):
        rng = SplitMix64(90)
        rows = [random_polynomial(3, 4, rng) for _ in range(3)]
        alone = [CoreStack.from_polys(3, [p]) for p in rows]
        level = CoreStack.from_polys(3, rows)
        for j in range(3):
            alone = [s.quadric_level(j, 1, -1, 5 - j) for s in alone]
            level = level.quadric_level(j, 1, -1, 5 - j)
            got = level.polys()
            for r, s in enumerate(alone):
                assert got[r::len(rows)] == s.polys()

    def test_bound_crossing_int64_at_the_second_level_gives_python_ints(self):
        # the carried a-priori bound is below INT64_LIMIT after one step and
        # above it after two; the second level's entries pass 2^63
        big = 2**62 // 100
        p = Polynomial(2, {(1, 0): big, (0, 1): -big})
        params = lambda j: (1, -1, 10 - j)  # noqa: E731
        first = CoreStack.from_polys(2, [p]).quadric_level(0, *params(0))
        second = first.quadric_level(1, *params(1))
        # ((|c0| + n |sigma|)(side - 1) + |2 sigma e|) times the input's bound
        assert first.bound == (3 * 1 + 20) * big and second.bound == (3 * 2 + 18) * first.bound
        assert first.bound < INT64_LIMIT <= second.bound
        assert first.arr.dtype == np.int64 and second.arr.dtype == object
        assert all(type(c) is int for c in second.arr.ravel())
        polys = second.polys()
        assert max(abs(c) for q in polys for c in q.terms.values()) > 2**63
        for b, key in enumerate(tree_multisets(2, 2)):
            for order in set(itertools.permutations(key)):
                assert polys[b] == chain_oracle(p, order, params)
