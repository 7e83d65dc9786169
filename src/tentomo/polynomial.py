"""Exact multivariate polynomial arithmetic.

Polynomials are stored as ``{exponent tuple: coefficient}`` with zero
coefficients dropped.  Coefficients are whatever scalar type the caller puts
in (``int`` or ``fractions.Fraction`` for exact identity checks, ``float``
for quadrature paths); all operations are coefficient-type agnostic.  Exact
products and linear combinations run on ``int`` numerators over one common
denominator and reduce each result coefficient once, instead of paying the
gcd normalization of every ``Fraction`` operation.

``CoreStack`` is the exact engine of the operator paths: many cores stacked
as rows of one dense integer array over one common ``int`` denominator.  Its
kernels (the quadric derivative of every row for one derivative-tree level,
a compiled stencil as one integer matrix product, the exact-zero test) run
in int64 while a proven bound on every entry and partial sum stays below
``INT64_LIMIT`` = 2^62, and on ``object`` arrays of Python ints above it, so
no kernel can overflow.
The dict ``Polynomial`` stays the general type (float cores, the transforms'
cores, sphere integrals), and ``quadric_derivative`` and
``linear_combination`` stay as the independent oracles of those kernels.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

#: Guardrail for runaway symbolic growth; operations raise beyond this.
TERM_LIMIT = 10**6

#: CoreStack arithmetic runs in int64 while its proven bound is below this.
INT64_LIMIT = 2**62


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


def _dtype(bound, *arrays):
    """int64 for integers bounded by ``bound`` below INT64_LIMIT, unless an
    array already holds Python ints; ``object`` (Python ints) otherwise."""
    small = bound < INT64_LIMIT and all(a.dtype != object for a in arrays)
    return np.int64 if small else object


def exact_array(values):
    """Integers as an int64 array when every |value| is below INT64_LIMIT,
    and as an array of Python ints otherwise."""
    arr = np.array(values, dtype=object)
    return arr.astype(_dtype(int(np.abs(arr).max(initial=0))))


def exact_matmul(left, right, bound):
    """left @ right of integer arrays; ``bound`` bounds |every partial sum|,
    and the product runs in the ``_dtype`` of that bound."""
    dtype = _dtype(bound, left, right)
    return left.astype(dtype, copy=False) @ right.astype(dtype, copy=False)


@functools.lru_cache(maxsize=None)
def _window(n, width, axis=0, by=0):
    """Index of every row's cube [0, width)^n, moved by ``by`` along ``axis``."""
    return (slice(None),) + tuple(slice(by * (j == axis), by * (j == axis) + width)
                                  for j in range(n))


@functools.lru_cache(maxsize=None)
def _exponents(n, side, axis):
    """1, .., side - 1 along ``axis`` of a stack's array, for broadcasting."""
    return np.arange(1, side).reshape((-1,) + (1,) * (n - 1 - axis))


@functools.lru_cache(maxsize=None)
def tree_multisets(n, j):
    """The sorted axis multisets of length j in derivative-tree order: for
    a = 0, .., n - 1, those of length j - 1 over axes 0..a (a prefix, of
    C(a + j - 1, j - 1) of them), each extended by a."""
    if not j:
        return ((),)
    return tuple(key + (a,) for a in range(n) for key in tree_multisets(n, j - 1)
                 if key[-1:] <= (a,))


class CoreStack:
    """Exact polynomial cores in ``n`` variables, stacked as rows.

    ``arr[r, a_0, .., a_{n-1}] / den`` is the coefficient of x^a in row r.
    Every axis has the same length, the side, and every row has total degree
    below it.  ``bound`` bounds every |entry|, measured unless given (a
    quadric level step carries ((|c0| + n |sigma|)(side - 1) + |2 sigma e|)
    times its input's); ``arr`` is int64 below INT64_LIMIT, Python ints above.
    """

    __slots__ = ("n", "arr", "den", "bound")

    def __init__(self, n, arr, den=1, bound=None):
        self.n, self.den = n, den
        self.bound = int(np.abs(arr).max(initial=0)) if bound is None else bound
        self.arr = arr.astype(_dtype(self.bound), copy=False)

    @classmethod
    def from_polys(cls, n, polys):
        """Rows of exact (``int`` or ``Fraction``) polynomials."""
        forms = [p._integer_form() for p in polys]
        if None in forms:
            raise TypeError("stacked cores need int or Fraction coefficients")
        den = math.lcm(*(d for _, d in forms))
        side = max([0] + [p.degree() for p in polys]) + 1
        rows = [r for r, (terms, _) in enumerate(forms) for _ in terms]
        exps = [e for terms, _ in forms for e in terms]
        coeffs = [c * (den // d) for terms, d in forms for c in terms.values()]
        bound = max(map(abs, coeffs), default=0)
        arr = np.zeros((len(polys),) + (side,) * n, dtype=_dtype(bound))
        if coeffs:
            arr[(rows, *zip(*exps))] = np.array(coeffs, dtype=arr.dtype)
        return cls(n, arr, den, bound)

    @classmethod
    def vstack(cls, n, stacks):
        """The rows of every stack in turn, over one denominator and side."""
        den = math.lcm(*(s.den for s in stacks))
        side = max(s.side for s in stacks)
        dtype = _dtype(max(s.bound * (den // s.den) for s in stacks))
        parts = []
        for s in stacks:
            part = s.arr.astype(dtype) * (den // s.den) if s.den != den else s.arr
            if s.side < side:
                part, inner = np.zeros((len(part),) + (side,) * n, dtype), part
                part[_window(n, s.side)] = inner
            parts.append(part)
        return cls(n, np.concatenate(parts), den)

    @property
    def side(self):
        return self.arr.shape[1]

    def is_zero(self):
        return not self.arr.any()

    def max_abs(self) -> Fraction:
        """Largest |coefficient| of any row."""
        return Fraction(int(np.abs(self.arr).max(initial=0)), self.den)

    def __sub__(self, other):
        a, b = CoreStack.vstack(self.n, [self, other]).arr.reshape(
            (2, len(self.arr)) + (max(self.side, other.side),) * self.n)
        return CoreStack(self.n, a - b, math.lcm(self.den, other.den))

    def scale(self, c):
        c = Fraction(c)
        dtype = _dtype(self.bound * max(abs(c.numerator), 1))
        return CoreStack(self.n, self.arr.astype(dtype) * c.numerator,
                         self.den * c.denominator)

    def polys(self):
        """Every row as a ``Polynomial``, in one pass over the nonzero entries."""
        rows, *exps = np.nonzero(self.arr)
        coeffs = self.arr[(rows, *exps)].tolist()
        if self.den != 1:
            coeffs = [Fraction(c, self.den) for c in coeffs]
        terms = [{} for _ in range(len(self.arr))]
        for r, e, c in zip(rows.tolist(), zip(*(ix.tolist() for ix in exps)), coeffs):
            terms[r][e] = c
        return [Polynomial(self.n, t) for t in terms]

    def quadric_level(self, j, c0, sigma, e) -> "CoreStack":
        """One level of a derivative tree: the rows come in equal blocks, one
        per multiset I of ``tree_multisets(n, j)``, and block I + (a,) of
        the result, for every a at or above I's last axis, is
        Q d_a p + 2 sigma e x_a p, Q = c0 + sigma |x|^2 (c0 an ``int`` or
        ``Fraction``), of every row p of block I: ``quadric_derivative`` by
        shifted slices and an index multiply.  The side grows by one, or
        shrinks by one when sigma = 0.  The result is stacked under the
        a-priori bound."""
        rows = len(self.arr) // math.comb(self.n + j - 1, j)
        # axis a differentiates the first comb(a + j, j) blocks, those whose
        # last axis is at most a
        moves = [(a, math.comb(a + j, j) * rows) for a in range(self.n)]
        num, s, two_se = c0.numerator, sigma * c0.denominator, 2 * sigma * e * c0.denominator
        side, n = self.side, self.n
        bound = ((abs(num) + n * abs(s)) * (side - 1) + abs(two_se)) * self.bound
        dtype = _dtype(max(bound, self.bound, abs(num), abs(s), abs(two_se)))
        arr = self.arr.astype(dtype, copy=False)
        starts = list(itertools.accumulate((count for _, count in moves), initial=0))
        out = np.zeros((starts[-1],) + (side + 1 if sigma else max(side - 1, 1),) * n, dtype)
        # d_axis p has degree below side - 1, so side - 1 covers every axis
        dp = np.concatenate([arr[:count][_window(n, side - 1, axis, 1)]
                             * _exponents(n, side, axis) for axis, count in moves])
        if num:
            out[_window(n, side - 1)] += num * dp
        if s:
            dp = s * dp
            for i in range(n):
                out[_window(n, side - 1, i, 2)] += dp
        if two_se:
            for (axis, count), start in zip(moves, starts):
                out[start:start + count][_window(n, side, axis, 1)] += two_se * arr[:count]
        return CoreStack(n, out, self.den * c0.denominator, bound)

    def combine(self, matrix, denom, rowsum) -> "CoreStack":
        """Rows sum_j matrix[i, j] row_j / denom: a compiled stencil as one
        integer matrix product over the columns some row uses; ``rowsum``
        is the largest absolute row sum of ``matrix``."""
        flat = self.arr.reshape(len(self.arr), -1)
        live = flat.any(axis=0)
        prod = exact_matmul(matrix, flat[:, live], rowsum * self.bound)
        out = np.zeros((len(matrix), flat.shape[1]), prod.dtype)
        out[:, live] = prod
        return CoreStack(self.n, out.reshape((len(matrix),) + self.arr.shape[1:]),
                         self.den * denom)


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
