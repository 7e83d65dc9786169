"""Integration over the unit sphere: exact for homogeneous rational functions,
numerical rules for smooth integrands.

All sphere integrals of monomials in integer dimensions reduce to rational
multiples of an integer power of pi, via the classical Gamma-function formula

    int_{S^{n-1}} xi^alpha dS = 0                     unless every alpha_i is even,
                              = 2 prod Gamma((alpha_i+1)/2) / Gamma((|alpha|+n)/2)

so identity residuals on this path are exact rationals, not tolerances.
"""

from __future__ import annotations

import collections
import itertools
import math
import numbers
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .polynomial import CoreStack, Polynomial, exact_array, exact_matmul, tree_multisets


class PiRational:
    """Exact scalar of the form (rational) * pi^power."""

    __slots__ = ("coef", "pi_pow")

    def __init__(self, coef, pi_pow=0):
        self.coef = Fraction(coef)
        self.pi_pow = pi_pow if coef != 0 else 0

    def is_zero(self):
        return self.coef == 0

    def _check(self, other):
        if not isinstance(other, PiRational):
            other = PiRational(other, 0)
        if self.coef != 0 and other.coef != 0 and self.pi_pow != other.pi_pow:
            raise ValueError("incompatible powers of pi")
        return other

    def __add__(self, other):
        other = self._check(other)
        pow_ = self.pi_pow if self.coef != 0 else other.pi_pow
        return PiRational(self.coef + other.coef, pow_)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, PiRational):
            return PiRational(self.coef * other.coef, self.pi_pow + other.pi_pow)
        return PiRational(self.coef * Fraction(other), self.pi_pow)

    __rmul__ = __mul__

    def __neg__(self):
        return PiRational(-self.coef, self.pi_pow)

    def __eq__(self, other):
        """Equal values; a plain number is compared as ``PiRational(other)``,
        with pi power 0."""
        if not isinstance(other, PiRational):
            if not isinstance(other, numbers.Real) or not math.isfinite(other):
                return NotImplemented
            other = PiRational(other)
        return self.coef == other.coef and \
            (self.coef == 0 or self.pi_pow == other.pi_pow)

    def __float__(self):
        return float(self.coef) * math.pi ** self.pi_pow

    def __repr__(self):
        if self.pi_pow == 0:
            return f"{self.coef}"
        return f"{self.coef}*pi^{self.pi_pow}"


@lru_cache(maxsize=None)
def _gamma_half(two_z):
    """Gamma(two_z/2) as (Fraction, number of sqrt(pi) factors in {0,1})."""
    if two_z <= 0:
        raise ValueError("Gamma argument must be positive here")
    if two_z % 2 == 0:
        return Fraction(math.factorial(two_z // 2 - 1)), 0
    k = (two_z - 1) // 2  # Gamma(k + 1/2)
    return Fraction(math.factorial(2 * k), 4**k * math.factorial(k)), 1


@lru_cache(maxsize=None)
def _monomial_sphere_exact(n, exps):
    if any(e % 2 for e in exps):
        return PiRational(0)
    num = Fraction(2)
    sqrt_pis = 0
    for e in exps:
        c, s = _gamma_half(e + 1)
        num *= c
        sqrt_pis += s
    dc, ds = _gamma_half(sum(exps) + n)
    num /= dc
    sqrt_pis -= ds
    if sqrt_pis % 2:
        raise AssertionError("sphere integral should be a rational times pi^k")
    return PiRational(num, sqrt_pis // 2)


def monomial_sphere_integral(n, exponents):
    """int_{S^{n-1}} xi^alpha dS as an exact ``PiRational``."""
    exps = tuple(int(e) for e in exponents)
    if len(exps) != n or any(e < 0 for e in exps):
        raise ValueError("need n nonnegative exponents")
    return _monomial_sphere_exact(n, tuple(sorted(exps)))


def polynomial_sphere_integral(poly: Polynomial):
    """Sphere integral of the restriction of a polynomial.

    Every nonzero monomial integral in dimension n carries the same power of
    pi, so the rational parts are summed in one ``Fraction``.
    """
    total = Fraction(0)
    pi_pow = None
    for exps, c in poly.terms.items():
        val = _monomial_sphere_exact(poly.n, tuple(sorted(exps)))
        if val.coef == 0:
            continue
        if pi_pow is None:
            pi_pow = val.pi_pow
        elif val.pi_pow != pi_pow:
            raise ValueError("incompatible powers of pi")
        total += val.coef * Fraction(c)
    return PiRational(total, pi_pow or 0)


def bump_ball_monomial_integral(n, exponents, power, rho=Fraction(1)):
    """int_{|x|<=rho} x^alpha (rho^2-|x|^2)^power dx, exact.

    Radial factor in closed form: with z = (|alpha|+n)/2,
    int_0^rho r^{|a|+n-1} (rho^2-r^2)^e dr = rho^{|a|+n+2e} e! / (2 z(z+1)..(z+e)).
    """
    exps = tuple(exponents)
    s = monomial_sphere_integral(n, exps)
    if s.is_zero():
        return PiRational(0)
    a = sum(exps)
    two_z = a + n
    denom = Fraction(1)
    for t in range(power + 1):
        denom *= Fraction(two_z + 2 * t, 2)
    radial = Fraction(rho) ** (a + n + 2 * power) * \
        Fraction(math.factorial(power)) / (2 * denom)
    return s * radial


def integrate_core_over_ball(core: Polynomial, power, rho=Fraction(1)):
    """Exact integral of core(x)*(rho^2-|x|^2)^power over the support ball."""
    total = PiRational(0)
    for exps, c in core.terms.items():
        total = total + bump_ball_monomial_integral(core.n, exps, power, rho) * Fraction(c)
    return total


# ---------------------------------------------------------------------------
# homogeneous rational functions p(xi)/|xi|^{2r}
# ---------------------------------------------------------------------------

class HomogeneousRational:
    """xi -> p(xi)/|xi|^{2r}.

    The homogeneity degree is deg(p) - 2r; the restriction to the unit sphere
    is the restriction of the numerator.  ``verify_ibp`` differentiates it
    by the quotient rule, as a stack of numerators.
    """

    def __init__(self, numerator: Polynomial, pow2r: int = 0):
        if not numerator.is_homogeneous():
            raise ValueError("numerator must be homogeneous")
        if pow2r < 0:
            raise ValueError("pow2r must be nonnegative")
        self.n = numerator.n
        self.numerator = numerator
        self.pow2r = pow2r

    @property
    def degree(self):
        """Homogeneity degree; the zero function reports degree None."""
        if self.numerator.is_zero():
            return None
        return self.numerator.degree() - 2 * self.pow2r

    @cached_property
    def stack(self) -> CoreStack:
        """The numerator as a one-row ``CoreStack``, built on first use."""
        return CoreStack.from_polys(self.n, [self.numerator])


# ---------------------------------------------------------------------------
# the constants c_{l,s} and the sphere integration-by-parts identity
# ---------------------------------------------------------------------------

def c_constant(l, s, n) -> Fraction:
    """prod_{w=0}^{s-l-1} (n-1+2w) * (-1)^l s! / (2^l l! (s-2l)!)."""
    if not 0 <= 2 * l <= s:
        raise ValueError("need 0 <= l <= s/2")
    prod = 1
    for w in range(s - l):
        prod *= n - 1 + 2 * w
    return Fraction(prod * (-1) ** l * math.factorial(s),
                    2**l * math.factorial(l) * math.factorial(s - 2 * l))


def metric_power_weight(n, idx, l) -> Polynomial:
    """Component of i^l j^l (xi^(.s)) restricted to the sphere, as a polynomial.

    Equals sigma(i_1..i_s)[delta_{i1 i2}..delta_{i_{2l-1} i_{2l}}
    xi_{i_{2l+1}}..xi_{i_s}]; the dropped |xi|^{2l} factor is 1 on the sphere.
    Counted instead of permuted: with c_v copies of axis v in the index, a
    permutation whose l leading pairs hold d_v pairs of v leaves the monomial
    xi^e, e_v = c_v - 2 d_v.  Of the s! permutations,
    prod(c_v!) * l!/prod(d_v!) * (s-2l)!/prod(e_v!) do so: distinct pair
    sequences times distinct tails times the reorderings of equal values.
    """
    s = len(idx)
    if 2 * l > s:
        raise ValueError("too many metric factors")
    counts = [list(idx).count(v) for v in range(n)]
    fixed = math.prod(math.factorial(c) for c in counts) \
        * math.factorial(l) * math.factorial(s - 2 * l)
    terms = {}
    for pairs in itertools.product(*(range(c // 2 + 1) for c in counts)):
        if sum(pairs) != l:
            continue
        exps = tuple(c - 2 * d for c, d in zip(counts, pairs))
        ways = fixed // math.prod(math.factorial(d) for d in pairs) \
            // math.prod(math.factorial(e) for e in exps)
        terms[exps] = Fraction(ways, math.factorial(s))
    return Polynomial(n, terms)


@lru_cache(maxsize=None)
def _sphere_table(n, side):
    """Sphere integrals of the monomials xi^a with every a_i < side, for
    ``CoreStack`` rows of that side: (flat positions of the nonzero ones,
    their integer numerators, one denominator, the one power of pi that
    every nonzero integral in dimension n carries)."""
    grid = list(itertools.product(range(0, side, 2), repeat=n))
    values = [_monomial_sphere_exact(n, tuple(sorted(e))) for e in grid]
    den = math.lcm(*(v.coef.denominator for v in values))
    nums = exact_array([v.coef.numerator * (den // v.coef.denominator) for v in values])
    return np.ravel_multi_index(np.array(grid).T, (side,) * n), nums, den, values[0].pi_pow


@lru_cache(maxsize=None)
def _ibp_weights(n, s):
    """The right-hand side of the IBP identity as one integer matrix: row I
    holds sum_l c_{l,s} (i^l j^l xi^(.s))_I on the sphere, as coefficients
    of the monomials xi^e of ``exps``, over one denominator.  The key
    identities of ``normalops`` read the same rows.  Returns (index
    multisets, exps, matrix, denominator, largest absolute row sum)."""
    multisets = tuple(itertools.combinations_with_replacement(range(n), s))
    rows = []
    for idx in multisets:
        row = collections.defaultdict(Fraction)
        for l in range(s // 2 + 1):
            c = c_constant(l, s, n)
            for e, w in metric_power_weight(n, idx, l).terms.items():
                row[e] += c * w
        rows.append(row)
    exps = sorted({e for row in rows for e in row})
    den = math.lcm(*(w.denominator for row in rows for w in row.values()))
    matrix = [[int(row.get(e, 0) * den) for e in exps] for row in rows]
    return multisets, exps, exact_array(matrix), den, max(sum(map(abs, r)) for r in matrix)


def _derivative_tree(g: HomogeneousRational, s):
    """(multisets, stack): row I of the stack is the numerator of d_I g over
    |xi|^{2(r+s)}, for every multiset I of ``tree_multisets(n, s)``; level
    j+1 is the quotient-rule level step (0, 1, -(r + j)) of level j."""
    tree = g.stack
    for j in range(s):
        tree = tree.quadric_level(j, 0, 1, -(g.pow2r + j))
    return tree_multisets(g.n, s), tree


def _sphere_integrals(stack):
    """(integer numerators, denominator, power of pi) of the sphere integral
    of every row: one integer dot product with the monomial table."""
    pos, nums, den, pi_pow = _sphere_table(stack.n, stack.side)
    flat = stack.arr.reshape(len(stack.arr), -1)[:, pos]
    bound = int(np.abs(flat).max(initial=0)) * sum(map(abs, nums.tolist()))
    return exact_matmul(flat, nums, bound), stack.den * den, pi_pow


def verify_ibp(g: HomogeneousRational, s) -> dict:
    """LHS - RHS of the sphere integration-by-parts identity, exactly, for
    every sorted index multiset I of length s: {I: PiRational}.

    LHS = int_S d^s g / d xi_{i_1}..d xi_{i_s};
    RHS = sum_l c_{l,s} int_S (i^l j^l xi^(.s))_I g.
    Requires g positive homogeneous of degree s-1.  The residual depends on
    an index only through its multiset.  The left-hand sides come from the
    derivative tree; the right-hand sides are the cached weight matrix of
    (n, s) times the moment vector int_S xi^e g, which is the sphere
    integral of the numerator's rows shifted by every xi^e.
    """
    multisets, exps, weights, wden, rowsum = _ibp_weights(g.n, s)
    if g.degree is None:
        return {idx: PiRational(0) for idx in multisets}
    if g.degree != s - 1:
        raise ValueError(f"need homogeneity degree {s - 1}, got {g.degree}")
    keys, tree = _derivative_tree(g, s)
    lhs, lhs_den, pi_pow = _sphere_integrals(tree)
    lhs = dict(zip(keys, lhs.tolist()))
    p = g.stack
    shifted = np.zeros((len(exps),) + (p.side + s,) * g.n, dtype=p.arr.dtype)
    for r, e in enumerate(exps):
        shifted[(r,) + tuple(slice(a, a + p.side) for a in e)] = p.arr[0]
    moments, mden, _ = _sphere_integrals(CoreStack(g.n, shifted, p.den))
    rhs = exact_matmul(weights, moments, rowsum * int(np.abs(moments).max(initial=0))).tolist()
    den = wden * mden
    return {idx: PiRational(Fraction(lhs[idx] * den - r * lhs_den, lhs_den * den), pi_pow)
            for idx, r in zip(multisets, rhs)}


# ---------------------------------------------------------------------------
# numerical quadrature rules
# ---------------------------------------------------------------------------

class SphereRule:
    """Nodes and positive weights integrating polynomials on S^{n-1}."""

    def __init__(self, n, degree, nodes, weights):
        self.n = n
        self.degree = degree
        self.nodes = np.asarray(nodes, dtype=float)
        self.weights = np.asarray(weights, dtype=float)

    def __len__(self):
        return len(self.weights)


def build_rule(n, degree) -> SphereRule:
    """n=2: equispaced angles; n=3: Gauss-Legendre polar x equispaced azimuth."""
    if n == 2:
        count = max(degree + 1, 4)
        angles = 2 * np.pi * np.arange(count) / count
        nodes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        weights = np.full(count, 2 * np.pi / count)
        return SphereRule(2, degree, nodes, weights)
    if n == 3:
        npolar = max((degree + 2) // 2, 2)
        naz = max(degree + 1, 4)
        z, wz = np.polynomial.legendre.leggauss(npolar)
        phi = 2 * np.pi * np.arange(naz) / naz
        nodes = []
        weights = []
        for zi, wi in zip(z, wz):
            st = np.sqrt(1.0 - zi * zi)
            for ph in phi:
                nodes.append((st * np.cos(ph), st * np.sin(ph), zi))
                weights.append(wi * 2 * np.pi / naz)
        return SphereRule(3, degree, np.array(nodes), np.array(weights))
    raise ValueError("numerical rules support n in {2, 3} only")
