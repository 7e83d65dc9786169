"""Exact multivariate polynomial arithmetic.

Polynomials are stored as ``{exponent tuple: coefficient}`` with zero
coefficients dropped.  Coefficients are whatever scalar type the caller puts
in (``int`` or ``fractions.Fraction`` for exact identity checks, ``float``
for quadrature paths); all operations are coefficient-type agnostic.  Exact
products and linear combinations run on ``int`` numerators over one common
denominator and reduce each result coefficient once, instead of paying the
gcd normalization of every ``Fraction`` operation.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

#: Guardrail for runaway symbolic growth; operations raise beyond this.
TERM_LIMIT = 10**6


class PolynomialSizeError(RuntimeError):
    """Raised when a result would exceed TERM_LIMIT terms."""


class Polynomial:
    """Polynomial in ``n`` variables; immutable by convention."""

    __slots__ = ("n", "terms", "_compiled", "_integer")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        self._compiled = None
        self._integer = None
        if terms:
            for exps, c in terms.items():
                if c == 0:
                    continue
                self.terms[tuple(exps)] = c
        if len(self.terms) > TERM_LIMIT:
            raise PolynomialSizeError(f"{len(self.terms)} terms exceeds limit")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n, i):
        exps = [0] * n
        exps[i] = 1
        return cls(n, {tuple(exps): 1})

    @classmethod
    def monomial(cls, n, exps, c=1):
        return cls(n, {tuple(exps): c})

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError("variable-count mismatch")
            return other
        return Polynomial.constant(self.n, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Polynomial(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return Polynomial.zero(self.n)
            return Polynomial(self.n, {e: c * other for e, c in self.terms.items()})
        if other.n != self.n:
            raise ValueError("variable-count mismatch")
        t1, t2, den = self.terms, other.terms, 1
        forms = self._integer_form(), other._integer_form()
        if None not in forms:
            (t1, d1), (t2, d2) = forms
            den = d1 * d2
        terms = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                e = tuple(map(operator.add, e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
            if len(terms) > TERM_LIMIT:
                raise PolynomialSizeError(f"{len(terms)} terms exceeds limit")
        return Polynomial(self.n, _over(terms, 1, den))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.n == other.n and self.terms == other.terms
        return self.terms == self._coerce(other).terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- calculus -----------------------------------------------------

    def diff(self, i):
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            terms[tuple(e2)] = c * e[i]
        return Polynomial(self.n, terms)

    def eval(self, point):
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, p in zip(point, e):
                if p:
                    v = v * x**p
            total = total + v
        return total

    # -- conversions --------------------------------------------------

    def _integer_form(self):
        """``(int terms, d)`` with ``self == terms / d``, or None when a
        coefficient is neither ``int`` nor ``Fraction``; computed once."""
        if self._integer is None:
            types = {type(c) for c in self.terms.values()}
            if types <= {int}:
                self._integer = (self.terms, 1)
            elif types <= {int, Fraction}:
                d = math.lcm(*(c.denominator for c in self.terms.values()))
                self._integer = ({e: c.numerator * (d // c.denominator)
                                  for e, c in self.terms.items()}, d)
            else:
                self._integer = False
        return self._integer or None

    def map_coeff(self, func):
        return Polynomial(self.n, {e: func(c) for e, c in self.terms.items()})

    def to_float(self):
        return self.map_coeff(float)

    def compiled(self):
        """(exponents, coefficients) arrays for vectorized evaluation."""
        if self._compiled is None:
            if self.terms:
                items = sorted(self.terms.items())
                exps = np.array([e for e, _ in items], dtype=np.int64)
                coeffs = np.array([float(c) for _, c in items])
            else:
                exps = np.zeros((0, self.n), dtype=np.int64)
                coeffs = np.zeros(0)
            self._compiled = (exps, coeffs)
        return self._compiled

    def eval_many(self, points):
        """Evaluate at ``points`` of shape (..., n), in float."""
        exps, coeffs = self.compiled()
        pts = np.asarray(points, dtype=float)
        if coeffs.size == 0:
            return np.zeros(pts.shape[:-1])
        maxdeg = int(exps.max(initial=0))
        # axis-wise power tables: powers[ax][d] = pts[..., ax]**d
        powers = [np.ones((maxdeg + 1,) + pts.shape[:-1]) for _ in range(self.n)]
        for ax in range(self.n):
            col = pts[..., ax]
            for d in range(1, maxdeg + 1):
                powers[ax][d] = powers[ax][d - 1] * col
        out = np.zeros(pts.shape[:-1])
        for (e, c) in zip(exps, coeffs):
            term = np.full(pts.shape[:-1], c)
            for ax in range(self.n):
                if e[ax]:
                    term = term * powers[ax][e[ax]]
            out += term
        return out

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(f"x{i}^{p}" for i, p in enumerate(e) if p) or "1"
            bits.append(f"{self.terms[e]}*{mono}")
        return " + ".join(bits)


def _over(terms, num, den):
    """terms * num / den with each coefficient reduced once; ``int`` terms
    stay ``int`` when num / den is 1."""
    if num == den:
        return terms
    return {e: Fraction(v * num, den) for e, v in terms.items()}


def linear_combination(n, pairs, scale=1) -> Polynomial:
    """scale * sum(c * p) over ``(p, c)`` pairs with ``int`` weights c.

    With exact coefficients throughout, the sum runs on the ``int``
    numerators of each p over one common denominator, and each result
    coefficient is reduced once; otherwise it is summed as it is.
    """
    pairs = [(p, c) for p, c in pairs if p.terms]
    forms = [p._integer_form() for p, _ in pairs]
    exact = None not in forms and type(scale) in (int, Fraction)
    if not exact:
        forms = [(p.terms, 1) for p, _ in pairs]
    den = math.lcm(*(d for _, d in forms))
    terms = {}
    for (t, d), (_, c) in zip(forms, pairs):
        c *= den // d
        for e, v in t.items():
            terms[e] = terms.get(e, 0) + v * c
    if not exact:
        return Polynomial(n, terms) * scale
    scale = Fraction(scale, den)
    return Polynomial(n, _over(terms, scale.numerator, scale.denominator))


def quadric_derivative(p, axis, c0, sigma, e) -> Polynomial:
    """Q d_axis p + 2 sigma e x_axis p, the numerator of d_axis (p Q^e) over
    Q^{e-1} for the quadric Q = c0 + sigma |x|^2, in one pass over p's terms:
    a term c x^a, k = a_axis, adds 2 sigma e c at a + 1_axis, and c0 k c at
    a - 1_axis and sigma k c at each a - 1_axis + 2_i.  The sums run on
    ``int`` numerators over one denominator when p and c0 are exact.
    """
    form = p._integer_form()
    exact = form is not None and type(c0) in (int, Fraction)
    (t, d), num, den = (form, c0.numerator, c0.denominator) if exact else \
        ((p.terms, 1), c0, 1)
    scale = sigma * den
    terms = {}
    get = terms.get
    for exps, c in t.items():
        k = exps[axis]
        up = exps[:axis] + (k + 1,) + exps[axis + 1:]
        terms[up] = get(up, 0) + 2 * e * scale * c
        if k:
            down = exps[:axis] + (k - 1,) + exps[axis + 1:]
            if num:
                terms[down] = get(down, 0) + num * k * c
            for i in range(p.n):
                side = down[:i] + (down[i] + 2,) + down[i + 1:]
                terms[side] = get(side, 0) + scale * k * c
    return Polynomial(p.n, _over(terms, 1, d * den) if exact else terms)


def random_polynomial(n, degree, rng, lo=-3, hi=3):
    """Dense random polynomial with ``int`` coefficients in [lo, hi]."""
    terms = {}
    for exps in itertools.product(range(degree + 1), repeat=n):
        if sum(exps) <= degree:
            c = rng.randint(lo, hi)
            if c:
                terms[exps] = c
    return Polynomial(n, terms)


def random_homogeneous(n, degree, rng, lo=-3, hi=3):
    """Random homogeneous polynomial of exact total degree, ``int``
    coefficients in [lo, hi]."""
    terms = {}
    for exps in itertools.product(range(degree + 1), repeat=n):
        if sum(exps) == degree:
            c = rng.randint(lo, hi)
            if c:
                terms[exps] = c
    if not terms:
        # keep the degree well-defined for downstream homogeneity checks
        e = [0] * n
        e[0] = degree
        terms[tuple(e)] = 1
    return Polynomial(n, terms)
