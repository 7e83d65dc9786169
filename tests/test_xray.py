"""Ray, momentum and transverse transforms: kernel properties, homogeneity
laws, analytic derivatives against finite differences, and the iterated John
relation."""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from tentomo.polyfield import (PolyBumpField, inner_derivative,
                               random_bump_field)
from tentomo.polynomial import Polynomial
from tentomo.rng import SplitMix64
from tentomo.symtensor import canonical_indices, multiplicity
from tentomo.xray import (Line, TransformExpr, TransverseRay, _chord_midpoints,
                          _iterated_john, chord_integrals, homogeneity_check,
                          john_apply, momentum_scale_residual,
                          momentum_shift_residual, momentum_transform,
                          ray_transform, trt_pointwise_recover,
                          verify_john_relation, write_transform_csv)

RNG = SplitMix64(77)


def random_line(rng, n=2, spread=1.8):
    return Line(rng.point_in_ball(n, spread), rng.direction(n))


def random_lines(rng, count):
    """(X, Xi) of ``count`` random lines, line t drawn from rng.split(f"l{t}")."""
    lines = [random_line(rng.split(f"l{t}")) for t in range(count)]
    return np.array([line.x for line in lines]), np.array([line.xi for line in lines])


def transverse(f, ray):
    """int <f(x + t omega), y^(.m)> dt on one ray, as ``ucp.trt`` evaluates it."""
    return float(TransformExpr.momentum(f, 0).eval_lines([ray.x], [ray.omega], [ray.y])[0])


class TestRayTransform:
    def test_line_missing_support_is_zero(self):
        f = random_bump_field(2, 1, RNG.split("miss"), power=3, degree=2)
        assert ray_transform(f, Line([3.0, 0.0], [0.0, 1.0])) == 0.0

    def test_frozen_radial_chord(self):
        # m=0, core 1, s=1, rho=1, line through origin: int (1-t^2) dt = 4/3
        f = PolyBumpField(2, 0, Fraction(1), 1,
                          {(): Polynomial.constant(2, Fraction(1))})
        got = ray_transform(f, Line([0.0, 0.0], [1.0, 0.0]))
        assert got == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_potential_fields_integrate_to_zero(self):
        rng = SplitMix64(10)
        v = random_bump_field(2, 1, rng, power=4, degree=2)
        f = inner_derivative(v)
        for t in range(50):
            child = rng.split(f"l{t}")
            assert abs(ray_transform(f, random_line(child))) < 1e-12

    def test_tangency_guard(self):
        f = random_bump_field(2, 0, RNG.split("tan"), power=2, degree=1)
        # line at distance exactly rho (tangent): treated as a miss
        assert ray_transform(f, Line([1.0, -5.0], [0.0, 1.0])) == 0.0
        assert not _chord_midpoints(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 1.0)[4][0]

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            Line([0.0, 0.0], [0.0, 0.0])


def quad_pairing(f, k, x, xi, y):
    """int t^k sum_I mult(I) y^I f_I(x + t xi) dt by scipy's adaptive
    quadrature of the pointwise field values, over a chord solved here."""
    rho = float(f.rho)
    a, b, c = xi @ xi, 2.0 * (x @ xi), x @ x - rho * rho
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return 0.0
    t0, t1 = (-b - math.sqrt(disc)) / (2.0 * a), (-b + math.sqrt(disc)) / (2.0 * a)

    def integrand(t):
        values = f.value(x + t * xi)
        return t**k * sum(multiplicity(idx) * math.prod(y[i] for i in idx) * values[idx]
                          for idx in canonical_indices(f.n, f.m))

    return quad(integrand, t0, t1, epsabs=1e-14, epsrel=1e-13, limit=200)[0]


class TestChordOracle:
    """Transforms against adaptive quadrature of the field along the chord,
    on lines that cross, miss or nearly touch the support."""

    @staticmethod
    def lines(n, rng):
        out = []
        for t in range(4):
            child = rng.split(f"line{t}")
            scale = (0.6, 1.0, 1.7, 2.3)[t]
            out.append((np.asarray(child.point_in_ball(n, 1.2)),
                        scale * np.asarray(child.direction(n))))
        u = np.asarray(rng.split("u").direction(n))
        v = np.asarray(rng.split("v").direction(n))
        v = v - (v @ u) * u
        v = v / np.linalg.norm(v)
        out.append(((1.0 + 1e-3) * v, 1.3 * u))       # misses the unit ball
        out.append(((1.0 - 1e-9) * v, 0.8 * u))       # within 1e-9 of tangency
        return out

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_momentum_transform(self, n, m):
        rng = SplitMix64(90 + 10 * n + m)
        f = random_bump_field(n, m, rng.split("f"), power=m + 2, degree=2)
        for x, xi in self.lines(n, rng):
            for k in (0, 1, 2):
                got = momentum_transform(f, Line(x, xi), k)
                want = quad_pairing(f, k, x, xi, xi)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_transverse_transform(self, n, m):
        rng = SplitMix64(130 + 10 * n + m)
        f = random_bump_field(n, m, rng.split("f"), power=m + 2, degree=2)
        for t, (x, xi) in enumerate(self.lines(n, rng)):
            omega = xi / np.linalg.norm(xi)
            x = x - (x @ omega) * omega
            y = np.asarray(rng.split(f"y{t}").point_in_ball(n, 1.5))
            y = y - (y @ omega) * omega
            got = transverse(f, TransverseRay(omega, x, y))
            want = quad_pairing(f, 0, x, omega, y)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def gauss_legendre_chord_integrals(atoms, rho, X, Xi):
    """int t^tpow q(x + t xi) B(x + t xi)^e dt by Gauss-Legendre on the
    chord, for (q, e, tpow) atoms, B = rho^2 - |x|^2.  The integrand is a
    polynomial of degree deg q + 2e + tpow in t, so order
    (deg q + 2e + tpow)//2 + 1 is exact up to roundoff; the chord comes from
    the quadratic's discriminant."""
    rho = float(rho)
    a = np.einsum("ij,ij->i", Xi, Xi)
    b = 2.0 * np.einsum("ij,ij->i", X, Xi)
    disc = b * b - 4.0 * a * (np.einsum("ij,ij->i", X, X) - rho * rho)
    half = np.sqrt(np.maximum(disc, 0.0)) / (2.0 * a)
    hit = (disc > 0.0) & (half * np.sqrt(a) > 1e-14)
    mid, half = -b[hit] / (2.0 * a[hit]), half[hit]
    out = np.zeros((len(X), len(atoms)))
    for col, (core, power, tpow) in enumerate(atoms):
        order = (max(core.degree(), 0) + 2 * power + tpow) // 2 + 1
        nodes, weights = np.polynomial.legendre.leggauss(order)
        ts = mid[:, None] + half[:, None] * nodes
        pts = X[hit][:, None, :] + ts[..., None] * Xi[hit][:, None, :]
        b = rho * rho - (pts * pts).sum(axis=-1)
        bump = np.where(b > 0, np.maximum(b, 0.0) ** power, 0.0)
        out[hit, col] = half * ((core.eval_many(pts) * bump * ts**tpow) @ weights)
    return out


class TestClosedFormKernel:
    """``chord_integrals`` (midpoint moments) against the Gauss-Legendre
    oracle, on derivative atoms up to order 3 with t powers 0..3."""

    @staticmethod
    def lines(n, rng):
        X, Xi = [], []
        for t in range(24):
            child = rng.split(f"line{t}")
            X.append(child.point_in_ball(n, 1.8))
            Xi.append((0.3, 0.7, 1.0, 2.5)[t % 4] * np.asarray(child.direction(n)))
        u = np.asarray(rng.split("u").direction(n))
        v = np.asarray(rng.split("v").direction(n))
        v = v - (v @ u) * u
        v = v / np.linalg.norm(v)
        for base, scale in ((1.0 + 1e-3, 1.3), (1.0 - 1e-9, 0.8), (1.0 - 1e-9, 3.1)):
            X.append(base * v + 0.4 * u)           # misses, or within 1e-9 of tangency
            Xi.append(scale * u)
        return np.asarray(X, dtype=float), np.asarray(Xi, dtype=float)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_gauss_legendre(self, n):
        rng = SplitMix64(300 + n)
        f = random_bump_field(n, 1, rng.split("f"), power=4, degree=2)
        atoms = [(f.derivative_core(idx, dm), f.power - order, tpow)
                 for idx in canonical_indices(n, 1)
                 for order in range(4)
                 for dm in canonical_indices(n, order)
                 for tpow in range(4)]
        X, Xi = self.lines(n, rng)
        got = chord_integrals(atoms, f.rho, X, Xi)
        want = gauss_legendre_chord_integrals(atoms, f.rho, X, Xi)
        assert np.all(got[-3] == 0.0) and np.all(want[-3] == 0.0)
        assert np.all(want[-2:] != 0.0)
        scale = np.abs(want).max(axis=0)
        assert np.all(scale > 0.0)
        # The closed form sums monomial coefficients in u against the
        # moments; with base points out to 1.8, |xi| down to 0.3 and three
        # derivatives that sum cancels by up to ~10^3, so the two kernels
        # agree to a few 1e-13 of each atom's largest value, not to 1e-14.
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


class TestHomogeneity:
    def test_scaling_and_shift(self):
        f = random_bump_field(2, 1, SplitMix64(11), power=4, degree=2)
        rs, rsh = homogeneity_check(f, [0.1, 0.2], [1.0, 0.5], 2.0, 0.7)
        assert abs(rs) < 1e-12 and abs(rsh) < 1e-12

    def test_orientation_reversal_m0(self):
        f = random_bump_field(2, 0, SplitMix64(12), power=3, degree=2)
        line = random_line(SplitMix64(13))
        rev = Line(line.x, -line.xi)
        assert ray_transform(f, line) == pytest.approx(
            ray_transform(f, rev), abs=1e-13)

    def test_trivial_scale(self):
        f = random_bump_field(2, 2, SplitMix64(14), power=4, degree=2)
        rs, rsh = homogeneity_check(f, [0.3, -0.1], [0.8, 0.6], 1.0, 1.3)
        assert rs == 0.0 and abs(rsh) < 1e-12

    def test_momentum_scale_law(self):
        f = random_bump_field(2, 1, SplitMix64(15), power=4, degree=2)
        assert abs(momentum_scale_residual(f, [0.1, -0.2], [0.8, 0.6], 1, 3.0)) < 1e-12

    def test_momentum_shift_law(self):
        f = random_bump_field(2, 2, SplitMix64(16), power=6, degree=2)
        for s in (0.4, -1.1):
            assert abs(momentum_shift_residual(f, [0.1, 0.0], [1.0, -0.3], 2, s)) < 1e-12

    def test_momentum_k0_is_ray(self):
        f = random_bump_field(2, 1, SplitMix64(17), power=3, degree=2)
        line = random_line(SplitMix64(18))
        assert momentum_transform(f, line, 0) == ray_transform(f, line)

    def test_data_equivalence_reconstruction(self):
        # \{J^l at a bundle point\}_{l<=k} reconstructs J^k at shifted bases
        f = random_bump_field(2, 2, SplitMix64(19), power=6, degree=2)
        rng = SplitMix64(20)
        xi = np.asarray(rng.direction(2))
        x = np.asarray(rng.point_in_ball(2, 1.2))
        x = x - (x @ xi) * xi   # bundle point
        k = 2
        base = [momentum_transform(f, Line(x, xi), l) for l in range(k + 1)]
        for s in (0.7, -0.4):
            direct = momentum_transform(f, Line(x + s * xi, xi), k)
            recon = sum(math.comb(k, l) * (-s) ** (k - l) * base[l]
                        for l in range(k + 1))
            assert direct == pytest.approx(recon, abs=1e-12)


class TestTransformDerivative:
    def test_zero_orders_is_momentum(self):
        f = random_bump_field(2, 1, SplitMix64(21), power=4, degree=2)
        line = random_line(SplitMix64(22))
        assert TransformExpr.momentum(f, 1).eval(line.x, line.xi) == \
            pytest.approx(momentum_transform(f, line, 1), abs=1e-14)

    def test_x_derivative_commutes_with_component_derivative(self):
        # m=0: d/dx_i J^0 f = J^0 (d f / d x_i)
        f = random_bump_field(2, 0, SplitMix64(23), power=4, degree=2)
        line = random_line(SplitMix64(24))
        lhs = TransformExpr.momentum(f, 0).dx(0).eval(line.x, line.xi)
        df = PolyBumpField(2, 0, f.rho, f.power - 1,
                           {(): f.derivative_core((), (0,))})
        assert lhs == pytest.approx(ray_transform(df, line), abs=1e-13)

    def test_against_central_finite_differences(self):
        f = random_bump_field(2, 2, SplitMix64(25), power=6, degree=2)
        rng = SplitMix64(26)
        h = 1e-3
        for t in range(20):
            child = rng.split(f"cfg{t}")
            line = random_line(child, spread=1.2)
            x, xi = line.x, line.xi
            an = TransformExpr.momentum(f, 1).dx(0).dxi(1).eval(x, xi)

            def jk(xx, xxi):
                return momentum_transform(f, Line(xx, xxi), 1)

            def mixed(h):
                return (jk(x + [h, 0], xi + [0, h]) - jk(x + [h, 0], xi - [0, h])
                        - jk(x - [h, 0], xi + [0, h]) + jk(x - [h, 0], xi - [0, h])) \
                    / (4 * h * h)

            # Richardson: cancels the O(h^2) truncation error of the central
            # difference, so h can be large enough for roundoff not to matter
            fd = (4 * mixed(h) - mixed(2 * h)) / 3
            assert an == pytest.approx(fd, rel=1e-6, abs=1e-7)

    def test_budget_error(self):
        f = random_bump_field(2, 1, SplitMix64(27), power=2, degree=2)
        line = random_line(SplitMix64(28))
        with pytest.raises(Exception):
            TransformExpr.momentum(f, 0).dx(0).dx(0).dxi(0).eval(line.x, line.xi)

    def test_float_contraction_oracle_matches_the_transverse_pairing(self):
        # the ucp.trt oracle: f contracted against y^(.m) in float
        # coefficients, integrated along each line by the chord kernel
        f = random_bump_field(3, 2, SplitMix64(29), power=3, degree=2)
        y = np.array([0.3, -1.1, 0.7])
        contracted = sum((f.core(idx) * (multiplicity(idx) * math.prod(y[list(idx)]))
                          for idx in canonical_indices(3, 2)), Polynomial.zero(3))
        X, Xi = random_lines(SplitMix64(30), 8)
        X, Xi = np.c_[X, np.zeros(8)], np.c_[Xi, 0.5 * np.ones(8)]
        got = chord_integrals([(contracted, f.power, 0)], f.rho, X, Xi)[:, 0]
        want = TransformExpr.momentum(f, 0).eval_lines(X, Xi, np.tile(y, (8, 1)))
        assert np.any(want != 0.0)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_support_mismatch_rejected(self):
        f = random_bump_field(2, 0, SplitMix64(31), power=2, degree=1)
        g = random_bump_field(2, 0, SplitMix64(32), rho=Fraction(3, 2), power=2, degree=1)
        with pytest.raises(ValueError, match="support mismatch"):
            (TransformExpr.momentum(f) + TransformExpr.momentum(g)).eval([0.1, 0.2], [1.0, 0.0])


class TestJohn:
    def test_ultrahyperbolic_m0(self):
        f = random_bump_field(2, 0, SplitMix64(29), power=4, degree=2)
        rng = SplitMix64(30)
        worst = 0.0
        for t in range(100):
            child = rng.split(f"cfg{t}")
            line = random_line(child)
            worst = max(worst, abs(john_apply(f, line, 0, (0, 1))))
        assert worst < 1e-10

    def test_antisymmetry_and_diagonal(self):
        f = random_bump_field(2, 1, SplitMix64(31), power=4, degree=2)
        line = random_line(SplitMix64(32))
        assert john_apply(f, line, 0, (0, 1)) == pytest.approx(
            -john_apply(f, line, 0, (1, 0)), abs=1e-13)
        assert john_apply(f, line, 0, (0, 0)) == 0.0

    def test_relation_m1(self):
        f = random_bump_field(2, 1, SplitMix64(33), power=4, degree=2)
        assert np.all(verify_john_relation(f, *random_lines(SplitMix64(34), 20)) < 1e-10)

    def test_relation_m2(self):
        f = random_bump_field(2, 2, SplitMix64(35), power=6, degree=2)
        assert np.all(verify_john_relation(f, *random_lines(SplitMix64(36), 10)) < 1e-9)

    def test_relation_trivial_on_potentials(self):
        v = random_bump_field(2, 0, SplitMix64(37), power=5, degree=2)
        f = inner_derivative(v)
        line = random_line(SplitMix64(38))
        assert verify_john_relation(f, [line.x], [line.xi])[0] < 1e-12

    def test_iterate_equals_nested_apply(self):
        f = random_bump_field(2, 2, SplitMix64(39), power=6, degree=2)
        line = random_line(SplitMix64(40))
        got = _iterated_john(f, [(0, 1), (0, 1)]).eval(line.x, line.xi)
        assert np.isfinite(got)

    def test_m0_rejected_by_relation(self):
        f = random_bump_field(2, 0, SplitMix64(41), power=4, degree=2)
        with pytest.raises(ValueError):
            verify_john_relation(f, *random_lines(SplitMix64(42), 1))


class TestTransverse:
    def test_m0_matches_ray_independent_of_y(self):
        f = random_bump_field(3, 0, SplitMix64(43), power=3, degree=2)
        omega = np.array([1.0, 0.0, 0.0])
        ray = TransverseRay(omega, [0.0, 0.2, -0.1], [0.0, 3.0, 4.0])
        want = ray_transform(f, Line(ray.x, omega))
        assert transverse(f, ray) == pytest.approx(want, abs=1e-13)

    def test_zero_y(self):
        f = random_bump_field(3, 2, SplitMix64(44), power=4, degree=2)
        ray = TransverseRay([0.0, 0.0, 1.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert transverse(f, ray) == 0.0

    def test_componentwise_scalar_oracle(self):
        # single nonzero component: pairing reduces to a scalar transform
        core = Polynomial.monomial(3, (1, 0, 1), Fraction(2))
        f = PolyBumpField(3, 2, Fraction(1), 3, {(0, 1): core})
        omega = np.array([0.0, 0.0, 1.0])
        y = np.array([0.5, -1.2, 0.0])
        ray = TransverseRay(omega, [0.2, 0.1, 0.0], y)
        scalar = PolyBumpField(3, 0, Fraction(1), 3, {(): core})
        want = 2 * y[0] * y[1] * ray_transform(scalar, Line(ray.x, omega))
        assert transverse(f, ray) == pytest.approx(want, abs=1e-13)

    def test_constraint_violation(self):
        with pytest.raises(ValueError):
            TransverseRay([0.0, 0.0, 1.0], [0.0, 0.0, 0.5], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            TransverseRay([0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


class TestPointwiseRecovery:
    def test_zero_samples_give_zero_tensor(self):
        etas = [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]
        from tentomo.symtensor import canonical_indices
        samples = {c: 0.0 for c in canonical_indices(3, 2)}
        rec = trt_pointwise_recover(etas, samples, 2)
        assert rec.max_abs() == 0

    def test_standard_basis_recovers_components(self):
        rng = SplitMix64(45)
        f = random_bump_field(3, 2, rng, power=3, degree=2)
        x = (0.2, -0.3, 0.1)
        fx = f.value(x)
        etas = [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]
        # with basis vectors the pairing is just the dense component
        from tentomo.symtensor import canonical_indices
        samples = {combo: fx.get(combo) for combo in canonical_indices(3, 2)}
        rec = trt_pointwise_recover(etas, samples, 2)
        assert (rec - fx).max_abs() < 1e-12

    def test_random_directions_recover(self):
        rng = SplitMix64(46)
        f = random_bump_field(3, 2, rng, power=3, degree=2)
        x = (0.1, 0.25, -0.2)
        fx = f.value(x)
        etas = [list(rng.split(f"e{t}").direction(3)) for t in range(3)]
        import itertools as it
        from tentomo.symtensor import canonical_indices
        samples = {}
        for combo in canonical_indices(3, 2):
            val = 0.0
            for dense in it.product(range(3), repeat=2):
                w = fx.get(dense)
                if w:
                    val += w * etas[combo[0]][dense[0]] * etas[combo[1]][dense[1]]
            samples[combo] = val
        rec = trt_pointwise_recover(etas, samples, 2)
        assert (rec - fx).max_abs() < 1e-10

    def test_singular_system_rejected(self):
        etas = [[1.0, 0, 0], [1.0, 0, 0], [0, 0, 1.0]]
        from tentomo.symtensor import canonical_indices
        samples = {c: 0.0 for c in canonical_indices(3, 2)}
        with pytest.raises(ValueError):
            trt_pointwise_recover(etas, samples, 2)


class TestLineCSV:
    def test_round_trip_with_values(self, tmp_path):
        rng = SplitMix64(47)
        f = random_bump_field(2, 1, rng, power=3, degree=2)
        X, Xi = random_lines(rng, 5)
        values = np.array([ray_transform(f, Line(x, xi)) for x, xi in zip(X, Xi)])
        path = tmp_path / "lines.csv"
        write_transform_csv(path, X, Xi, values[:, None], ["value"])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x_1", "x_2", "xi_1", "xi_2", "value"]
        # repr round-trips floats exactly
        back = np.array([[float(v) for v in row] for row in rows[1:]])
        assert np.array_equal(back, np.hstack([X, Xi, values[:, None]]))
