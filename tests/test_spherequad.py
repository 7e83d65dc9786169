"""Exact sphere integration, the c-constants, and the IBP identity."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from tentomo.polynomial import Polynomial, quadric_derivative, random_homogeneous
from tentomo import spherequad as sq
from tentomo.rng import SplitMix64
from tentomo.spherequad import (HomogeneousRational, PiRational,
                                build_rule, c_constant,
                                integrate_core_over_ball, metric_power_weight,
                                monomial_sphere_integral, verify_ibp)

import dense_oracle as dense


def pi_rat(num, den=1, pow_=1):
    return PiRational(Fraction(num, den), pow_)


def derivative(g, multiset):
    """d_multiset g, read from the derivative tree of ``verify_ibp``."""
    keys, tree = sq._derivative_tree(g, len(multiset))
    return HomogeneousRational(tree.polys()[keys.index(multiset)],
                               g.pow2r + len(multiset))


def ibp_residual_oracle(g, idx):
    """LHS - RHS of the IBP identity at one ordered index, on the dict path:
    d^s g by chained ``quadric_derivative``, the moments int_S xi^e g by
    ``polynomial_sphere_integral``, one weight polynomial per l."""
    s = len(idx)
    numerator, pow2r = g.numerator, g.pow2r
    for axis in idx:
        numerator = quadric_derivative(numerator, axis, 0, 1, -pow2r)
        pow2r += 1
    lhs = sq.polynomial_sphere_integral(numerator)
    rhs = PiRational(0)
    for l in range(s // 2 + 1):
        weight = metric_power_weight(g.n, idx, l)
        integral = sum((sq.polynomial_sphere_integral(
            Polynomial.monomial(g.n, e) * g.numerator) * w for e, w in weight.terms.items()),
            PiRational(0))
        rhs = rhs + integral * c_constant(l, s, g.n)
    return lhs - rhs


@pytest.mark.parametrize("value,number,equal", [
    (PiRational(0), 0, True), (PiRational(0, 2), Fraction(0), True),
    (PiRational(1), 1, True), (PiRational(Fraction(1, 2)), Fraction(1, 2), True),
    (PiRational(Fraction(1, 2)), 0.5, True), (PiRational(1), 2, False),
    (PiRational(1, 1), 1, False), (pi_rat(2), 2, False), (PiRational(1), math.nan, False)])
def test_equality_with_a_plain_number(value, number, equal):
    # a number is PiRational(number), pi power 0: a nonzero pi power never
    # equals one, and zero is zero whatever the power
    assert (value == number) is equal and (number == value) is equal


class TestMonomialIntegrals:
    @pytest.mark.parametrize("n,exps,want", [
        (2, (0, 0), pi_rat(2)),          # circle measure
        (2, (1, 0), PiRational(0)),      # odd symmetry
        (2, (2, 0), pi_rat(1)),
        (2, (4, 0), pi_rat(3, 4)),
        (3, (0, 0, 0), pi_rat(4)),
        (3, (0, 0, 2), pi_rat(4, 3)),    # Gamma formula
        (3, (0, 0, 6), pi_rat(4, 7)),
    ])
    def test_frozen_values(self, n, exps, want):
        assert monomial_sphere_integral(n, exps) == want

    def test_against_high_order_quadrature(self):
        # numerical cross-check of the Gamma formula
        rule = build_rule(3, 12)
        for exps in ((2, 2, 0), (4, 0, 2), (0, 0, 8)):
            exact = float(monomial_sphere_integral(3, exps))
            num = rule.weights @ np.prod(rule.nodes ** exps, axis=1)
            assert num == pytest.approx(exact, abs=1e-10)

    def test_general_dimension_power_of_pi(self):
        v4 = monomial_sphere_integral(4, (0, 0, 0, 0))
        assert v4.pi_pow == 2 and v4.coef == 2  # 2 pi^2
        v5 = monomial_sphere_integral(5, (2, 0, 0, 0, 0))
        assert v5.pi_pow == 2


class TestHomogeneousRational:
    def test_derivative_lowers_degree(self):
        rng = SplitMix64(1)
        g = HomogeneousRational(random_homogeneous(2, 3, rng), 1)
        assert g.degree == 1
        dg = derivative(g, (0,))
        assert dg.degree == 0
        assert dg.pow2r == 2

    def test_derivative_matches_finite_differences(self):
        rng = SplitMix64(2)
        g = HomogeneousRational(random_homogeneous(2, 4, rng), 1)
        dg = derivative(g, (1,))
        xi = (0.7, -0.4)
        h = 1e-6

        def value(q, x):
            # p(xi)/|xi|^{2r}
            return q.numerator.eval(x) / sum(c * c for c in x) ** q.pow2r
        fd = (value(g, (xi[0], xi[1] + h)) - value(g, (xi[0], xi[1] - h))) / (2 * h)
        assert float(value(dg, xi)) == pytest.approx(fd, rel=1e-8)

    def test_restriction_examples(self):
        xy = Polynomial.monomial(2, (1, 1), Fraction(1))
        g = HomogeneousRational(xy, 1)
        # on the sphere g is its numerator
        assert sq.polynomial_sphere_integral(g.numerator) == PiRational(0)
        x2 = Polynomial.monomial(2, (2, 0), Fraction(1))
        assert sq.polynomial_sphere_integral(HomogeneousRational(x2, 1).numerator) == pi_rat(1)
        assert float(sq.polynomial_sphere_integral(g.numerator)) == 0.0

    def test_frozen_sphere_example(self):
        # n=2: the integral of xi_1^2 over S^1 is pi
        g = HomogeneousRational(Polynomial.monomial(2, (2, 0), Fraction(1)), 0)
        assert sq.polynomial_sphere_integral(g.numerator) == pi_rat(1)

    def test_inhomogeneous_rejected(self):
        p = Polynomial(2, {(1, 0): Fraction(1), (0, 0): Fraction(1)})
        with pytest.raises(ValueError):
            HomogeneousRational(p, 0)


class TestConstants:
    def test_c01_is_n_minus_1(self):
        for n in (2, 3, 4):
            assert c_constant(0, 1, n) == n - 1

    def test_c0m_product_form(self):
        for n in (2, 3):
            for m in (1, 2, 3, 4):
                want = 1
                for p in range(m):
                    want *= n - 1 + 2 * p
                assert c_constant(0, m, n) == want

    def test_frozen_c12_n3(self):
        assert c_constant(1, 2, 3) == -2

    def test_l_range_error(self):
        with pytest.raises(ValueError):
            c_constant(2, 2, 2)


class TestIBP:
    def test_s1_constant_g(self):
        g = HomogeneousRational(Polynomial.constant(2, Fraction(1)), 0)
        assert verify_ibp(g, 1)[(0,)].is_zero()

    def test_s1_rational_example(self):
        xy = Polynomial.monomial(2, (1, 1), Fraction(1))
        g = HomogeneousRational(xy, 1)
        # wrong homogeneity degree: needs s-1 = 0, xy/|xi|^2 has degree 0 -> ok
        assert verify_ibp(g, 1)[(0,)].is_zero()

    def test_s2_random_all_pairs(self):
        rng = SplitMix64(3)
        g = HomogeneousRational(random_homogeneous(2, 1, rng), 0)
        residuals = verify_ibp(g, 2)
        assert list(residuals) == [(0, 0), (0, 1), (1, 1)]
        assert all(r.is_zero() for r in residuals.values())

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_exact_zero_random_corpus(self, n, s):
        rng = SplitMix64(40 + 10 * n + s)
        for trial in range(4):
            child = rng.split(f"t{trial}")
            r = child.randint(0, 2)
            g = HomogeneousRational(
                random_homogeneous(n, s - 1 + 2 * r, child), r)
            residuals = verify_ibp(g, s)
            assert list(residuals) == list(
                itertools.combinations_with_replacement(range(n), s))
            assert all(r.is_zero() for r in residuals.values())

    def test_one_level_step_per_level(self, monkeypatch):
        # the derivative tree is one quadric level step per level, never
        # one quadric derivative per (level, axis)
        from tentomo.polynomial import CoreStack
        levels, real = [], CoreStack.quadric_level

        def counted(self, j, *params):
            levels.append(j)
            return real(self, j, *params)
        monkeypatch.setattr(CoreStack, "quadric_level", counted)
        g = HomogeneousRational(random_homogeneous(3, 5, SplitMix64(95)), 1)
        assert all(r.is_zero() for r in verify_ibp(g, 4).values())
        assert levels == [0, 1, 2, 3]

    def test_numerator_is_stacked_once(self, monkeypatch):
        # the derivative tree and the moment shift read one numerator stack
        from tentomo.polynomial import CoreStack
        built, real = [], CoreStack.from_polys.__func__

        def counted(cls, n, polys):
            built.append(len(polys))
            return real(cls, n, polys)
        monkeypatch.setattr(CoreStack, "from_polys", classmethod(counted))
        g = HomogeneousRational(random_homogeneous(3, 5, SplitMix64(96)), 1)
        assert all(r.is_zero() for r in verify_ibp(g, 4).values())
        assert built == [1]

    def test_residual_depends_only_on_the_index_multiset(self, tilted_sphere):
        # the premise of evaluating one index per multiset, on the per-index
        # oracle; tilted (see the fixture), so orderings are compared on
        # nonzero values
        n, s = 3, 4
        rng = SplitMix64(94)
        for trial in range(3):
            r = 1 + trial % 2
            numerator = random_homogeneous(n, s - 1 + 2 * r, rng)
            if trial == 2:
                numerator = Polynomial(n, {e: Fraction(c, 7) for e, c in numerator.terms.items()})
            g = HomogeneousRational(numerator, r)
            nonzero = False
            for multiset in itertools.combinations_with_replacement(range(n), s):
                want = ibp_residual_oracle(g, multiset)
                nonzero = nonzero or not want.is_zero()
                for order in set(itertools.permutations(multiset)):
                    assert ibp_residual_oracle(g, order) == want
            assert nonzero

    @pytest.mark.parametrize("n", [2, 3])
    def test_multiset_vector_matches_per_index_oracle(self, n, tilted_sphere):
        # the stacked derivative tree, the monomial table and the weight
        # matrix against the per-index dict formula, tilted so that the
        # residuals compared are nonzero; int and Fraction numerators
        rng = SplitMix64(120 + n)
        for s in (1, 2, 3, 4):
            for r in range(3):
                numerator = random_homogeneous(n, s - 1 + 2 * r, rng)
                if r == 1:
                    numerator = Polynomial(n, {e: Fraction(c, 5)
                                               for e, c in numerator.terms.items()})
                g = HomogeneousRational(numerator, r)
                got = verify_ibp(g, s)
                assert all(got[idx] == ibp_residual_oracle(g, idx) for idx in got)
                assert not all(v.is_zero() for v in got.values())

    def test_degree_mismatch_rejected(self):
        g = HomogeneousRational(Polynomial.constant(2, Fraction(1)), 0)
        with pytest.raises(ValueError):
            verify_ibp(g, 2)

    def test_metric_weight_matches_the_dense_oracle(self):
        # i^l j^l (xi^(.s)) via the permutation formula agrees with the
        # tensor-algebra route at rational points on the sphere
        for xi in ([Fraction(3, 5), Fraction(4, 5)],
                   [Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)]):
            n = len(xi)
            for s in range(1, 5):
                for l in range(s // 2 + 1):
                    t = dense.metric_pair(dense.power(xi, s), n, l)
                    for idx in itertools.product(range(n), repeat=s):
                        w = metric_power_weight(n, idx, l)
                        assert w.eval(xi) == t[idx]

    @pytest.mark.parametrize("xis", [
        ([Fraction(3, 5), Fraction(4, 5)], [Fraction(-5, 13), Fraction(12, 13)]),
        ([Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)],
         [Fraction(2, 3), Fraction(-1, 3), Fraction(2, 3)])])
    def test_ibp_weight_rows_are_the_metric_operator_route(self, xis):
        # the one table of sum_l c_{l,s} i^l j^l xi^(.s) that verify_ibp and
        # the key identities read: row I at a rational unit xi equals the
        # dense oracle's component I exactly
        for xi in xis:
            n = len(xi)
            for s in range(6):
                multisets, exps, matrix, den, _ = sq._ibp_weights(n, s)
                assert multisets == tuple(itertools.combinations_with_replacement(range(n), s))
                pairs = [dense.metric_pair(dense.power(xi, s), n, l) for l in range(s // 2 + 1)]
                want = [sum((c_constant(l, s, n) * pair[idx] for l, pair in enumerate(pairs)),
                            Fraction(0))
                        for idx in multisets]
                got = [sum(Fraction(w, den) * Polynomial.monomial(n, e).eval(xi)
                           for e, w in zip(exps, row)) for row in matrix.tolist()]
                assert got == want

    @pytest.mark.parametrize("n", [2, 3])
    def test_derivative_order_does_not_matter(self, n):
        # the premise of the derivative tree, one row per sorted multiset:
        # the quotient rule chained along any ordering of an axis multiset
        # ends at the same exact numerator, and the tree holds it
        rng = SplitMix64(70 + n)
        g = HomogeneousRational(random_homogeneous(n, 5, rng), 1)
        for s in range(1, 5):
            keys, tree = sq._derivative_tree(g, s)
            assert sorted(keys) == list(itertools.combinations_with_replacement(range(n), s))
            for multiset in keys:
                results = set()
                for order in set(itertools.permutations(multiset)):
                    numerator = g.numerator
                    for step, axis in enumerate(order):
                        numerator = quadric_derivative(numerator, axis, 0, 1, -1 - step)
                    results.add(numerator)
                assert len(results) == 1
                assert tree.polys()[keys.index(multiset)] == results.pop()


class TestRules:
    def test_weights_sum_to_measure(self):
        assert build_rule(2, 6).weights.sum() == pytest.approx(2 * np.pi, abs=1e-12)
        assert build_rule(3, 6).weights.sum() == pytest.approx(4 * np.pi, abs=1e-12)

    def test_exactness_n2(self):
        rule = build_rule(2, 4)
        got = rule.weights @ rule.nodes[:, 0] ** 4
        assert got == pytest.approx(float(monomial_sphere_integral(2, (4, 0))),
                                    abs=1e-12)

    def test_exactness_n3(self):
        rule = build_rule(3, 6)
        got = rule.weights @ rule.nodes[:, 2] ** 6
        assert got == pytest.approx(float(monomial_sphere_integral(3, (0, 0, 6))),
                                    abs=1e-10)

    def test_all_monomials_up_to_degree(self):
        for n, deg in ((2, 5), (3, 4)):
            rule = build_rule(n, deg)
            for exps in itertools.product(range(deg + 1), repeat=n):
                if sum(exps) > deg:
                    continue
                want = float(monomial_sphere_integral(n, exps))
                got = rule.weights @ np.prod(rule.nodes ** exps, axis=1)
                assert got == pytest.approx(want, abs=1e-10)

    def test_convergence_on_smooth_nonpolynomial(self):
        # n=2: int exp(xi_1) = 2 pi I_0(1); n=3: 4 pi sinh(1)
        targets = {2: 2 * np.pi * scipy.special.iv(0, 1.0),
                   3: 4 * np.pi * np.sinh(1.0)}
        for n in (2, 3):
            errs = []
            for deg in (4, 8, 16, 32):
                rule = build_rule(n, deg)
                errs.append(abs(rule.weights @ np.exp(rule.nodes[:, 0]) - targets[n]))
            assert errs[-1] < 1e-10
            for a, b in zip(errs, errs[1:]):
                assert b <= a + 1e-15

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            build_rule(4, 4)


def ball_monomial_integral(n, exponents, rho=Fraction(1)):
    """int_{|x|<=rho} x^alpha dx = sphere(alpha) * rho^{|a|+n} / (|a|+n)."""
    exps = tuple(exponents)
    s = monomial_sphere_integral(n, exps)
    return s * (Fraction(rho) ** (sum(exps) + n) / (sum(exps) + n))


def test_ball_bump_integral_cross_check():
    # closed-form radial factor vs expanding the bump polynomial
    core = Polynomial.monomial(2, (2, 0), Fraction(1))
    got = integrate_core_over_ball(core, 2, Fraction(1))
    bump = Polynomial(2, {(0, 0): Fraction(1), (2, 0): Fraction(-1),
                          (0, 2): Fraction(-1)})
    expanded = core * bump * bump
    total = PiRational(0)
    for exps, c in expanded.terms.items():
        total = total + ball_monomial_integral(2, exps) * c
    assert (got - total).is_zero()
