"""Ray, momentum and transverse ray transforms on polynomial bump fields.

The transforms restrict a field to a line, so for polynomial-bump inputs the
integrand along the chord through the support ball integrates in closed
form: centred at the chord's midpoint, it is a sum of rational moments
int_{-1}^{1} u^j (1 - u^2)^e du, and float roundoff is the only error.

One kernel, ``chord_integrals``, computes every such integral, for a set of
atoms (terms, bump power, t power) on one support ball and an array of lines
at once, the terms being a row of ``CoreStack.float_terms``.  It drops the
lines that miss the support, restricts each atom's polynomial to the remaining
chords and sums its coefficients against the moments.  No atom's value
depends on the other lines or atoms of its call, so
``eval_exprs`` makes one kernel call for the atoms of every expression on a
line set, and each expression is a reduction of that output, bitwise as if
alone.  ``normalops`` compiles its sinogram from the same helpers.

Mixed (x, xi)-derivatives of transforms are computed analytically by
differentiating under the integral sign, never by nested numerical
differentiation.  ``TransformExpr`` implements that calculus: a transform is
a linear combination of atoms

    xi^beta * int t^p h(x + t xi) dt,

where h is a mixed partial of a field component; d/dx_i maps an atom to one
with h differentiated, d/dxi_i additionally raises the t power, and the
xi-monomial prefactor follows the product rule.  No prefactor depends on x:
the identities checked here never need one, so d/dx_i only relabels atoms.
An atom names (field, component row, sorted axis multiset, t power), and
``eval_exprs`` reads its terms from the field's exact derivative level of
that many axes, the level the W/R stencils read.  Coefficients are exact
(``int`` or ``Fraction``) until ``eval_exprs`` takes each one to float.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .polyfield import BudgetError, PolyBumpField, operator_R
from .spherequad import bump_ball_monomial_integral
from .symtensor import canonical_indices, multiplicity, sym_dim, sym_power_span_rank

#: Lines closer to tangency than this (physical half-chord) count as misses.
TANGENCY_TOL = 1e-14


class Line:
    """Oriented line t -> x + t*xi; xi need not be unit, must be nonzero."""

    __slots__ = ("x", "xi")

    def __init__(self, x, xi):
        self.x = np.asarray(x, dtype=float)
        self.xi = np.asarray(xi, dtype=float)
        if float(self.xi @ self.xi) == 0.0:
            raise ValueError("direction must be nonzero")

    def __repr__(self):
        return f"Line(x={self.x.tolist()}, xi={self.xi.tolist()})"


def _rowdot(A, B):
    """Row-wise dot products of A (L, n) with the rows of B, or with B itself
    when it is one vector.  Each row is computed as the 1-D ``a @ b`` is, so
    a line's value does not depend on which other lines share its batch."""
    return (A[:, None, :] @ B[..., :, None])[:, 0, 0]


def _chord_midpoints(X, Xi, rho):
    """(tc, Y, H, h, hit) per line: the chord through |z| <= rho is centred
    at Y = x + tc*xi, the point of the line nearest the origin, and has
    half-chord h = sqrt(H)/|xi| in t, H = rho^2 - |Y|^2.  A line misses
    unless the physical half-chord sqrt(H) exceeds ``TANGENCY_TOL``."""
    a = _rowdot(Xi, Xi)
    tc = -_rowdot(X, Xi) / a
    Y = X + tc[:, None] * Xi
    H = rho * rho - _rowdot(Y, Y)
    root = np.sqrt(np.maximum(H, 0.0))
    return tc, Y, H, root / np.sqrt(a), root > TANGENCY_TOL


def chord_integrals(atoms, rho, X, Xi):
    """Exact int t^tpow q(x + t xi) B(x + t xi)^e dt over the support chord.

    ``atoms`` is a sequence of (terms of q, bump power e, tpow) triples on
    the ball of radius ``rho``, B = rho^2 - |x|^2; X and Xi hold one line per
    row, shape (L, n).  Returns (L, atoms).
    On the chord t = tc + h*u, u in [-1, 1], with half-chord h = sqrt(H)/|xi|,
    the bump factor is B = H (1 - u^2), so an atom t^p q B^e integrates to
    h H^e sum_j M(2j, e) c_2j for c_b = [u^b] (tc + h u)^p q(Y + h u xi).
    No value depends on its batch: dot products go line by line (``_rowdot``),
    and each atom sums its moments only up to its own degree deg q + p.
    """
    X = np.asarray(X, dtype=float)
    Xi = np.asarray(Xi, dtype=float)
    out = np.zeros((len(X), len(atoms)))
    tc, Y, H, h, hit = _chord_midpoints(X, Xi, float(rho))
    tc, Y, Xi, H, h = tc[hit], Y[hit], Xi[hit], H[hit], h[hit]
    n = X.shape[1]
    # the variables are (x_1 .. x_n, t) = (Y + u h xi, tc + u h): one u per line
    forms = [[(h * Xi[:, a])[:, None]] for a in range(n)] + [[h[:, None]]]
    offsets = [Y[:, a:a + 1] for a in range(n)] + [tc[:, None]]
    top = max((_degree(exps) + tpow for (exps, _), _, tpow in atoms), default=0)
    monos = {(0,) * (n + 1): np.zeros((len(tc), top + 1))}
    monos[(0,) * (n + 1)][:, 0] = 1.0
    for col, ((exps, coeffs), power, tpow) in enumerate(atoms):
        deg = _degree(exps) + tpow
        c = np.zeros((len(tc), top + 1))
        for ex, v in zip(exps.tolist(), coeffs.tolist()):
            c += v * _monomial_table(monos, tuple(ex) + (tpow,), forms, offsets)
        moments = np.array([_chord_moment(b, power) for b in range(0, deg + 1, 2)])
        out[hit, col] = _rowdot(c[:, :deg + 1:2], moments) * h * _int_power(H, power)
    return out


def _degree(exps):
    """Total degree of terms of exponents ``exps``, 0 for none."""
    return int(exps.sum(axis=1).max(initial=0))


@lru_cache(maxsize=None)
def _chord_moment(j, e):
    """M(j, e) = int_{-1}^{1} u^j (1 - u^2)^e du, exact before rounding."""
    return float(bump_ball_monomial_integral(1, (j,), e))


def _shifted(poly, axis, by):
    """Dense polynomial coefficients times var_axis^by; degrees past the
    array's end are dropped."""
    lead = (slice(None),) * axis
    out = np.zeros(poly.shape)
    out[lead + (slice(by, None),)] = poly[lead + (slice(0, poly.shape[axis] - by),)]
    return out


def _monomial_table(monos, exps, forms, offsets=None):
    """x^exps as dense polynomials (rows, degrees per variable), built on the
    memo ``monos`` that starts at x^0.  x_a = sum_v forms[a][v] var_v (plus
    offsets[a]), each form and offset holding one value per row."""
    got = monos.get(exps)
    if got is None:
        a = len(exps) - 1
        while not exps[a]:
            a -= 1
        base = _monomial_table(monos, exps[:a] + (exps[a] - 1,) + exps[a + 1:], forms, offsets)
        got = 0.0 if offsets is None else offsets[a] * base
        for v, form in enumerate(forms[a]):
            got = got + form * _shifted(base, 1 + v, 1)
        monos[exps] = got
    return got


def _int_power(base, e, spare=None):
    """base**e for an int e >= 0 by repeated squaring.

    At most e - 1 products, each rounded once, so it stays within a few ulp
    of libm's pow, which numpy's ``**`` calls per element for most integer
    exponents and which costs far more.  The products are computed in the
    array ``base`` (overwritten) and ``spare``, of base's shape, and the one
    that holds the power is returned; without ``spare``, in a copy of base
    and a new array.
    """
    if spare is None:
        base = np.array(base)
        spare = np.empty_like(base)
    if not e:
        spare.fill(1.0)
        return spare
    acc = None
    while True:
        if e & 1:
            acc = base if acc is None else np.multiply(acc, base, out=acc)
        e >>= 1
        if not e:
            return acc
        base = np.multiply(base, base, out=spare if acc is base else base)


def _xi_monomial_exps(idx, n):
    return tuple(idx.count(a) for a in range(n))


def _monomials(V, exps):
    """prod_a V[:, a]**exps[a] for each row of V."""
    out = np.ones(len(V))
    for a, e in enumerate(exps):
        if e:
            out = out * V[:, a]**e
    return out


# ---------------------------------------------------------------------------
# the transforms
# ---------------------------------------------------------------------------

def momentum_transform(f: PolyBumpField, line: Line, k: int = 0) -> float:
    """J_m^k f(x, xi) = int t^k <f(x + t xi), xi^(.m)> dt, exact quadrature."""
    if k < 0:
        raise ValueError("momentum order must be nonnegative")
    return TransformExpr.momentum(f, k).eval(line.x, line.xi)


def ray_transform(f: PolyBumpField, line: Line) -> float:
    """J_m f(x, xi); lines missing the support integrate to zero."""
    return momentum_transform(f, line, 0)


def homogeneity_check(f, x, xi, r, s_shift):
    """Residuals of the two J_m homogeneity laws (scaling, base shift)."""
    if r == 0:
        raise ValueError("scale factor must be nonzero")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    base = ray_transform(f, Line(x, xi))
    scaled = ray_transform(f, Line(x, r * xi))
    shifted = ray_transform(f, Line(x + s_shift * xi, xi))
    res_scale = scaled - (r**f.m / abs(r)) * base
    res_shift = shifted - base
    return res_scale, res_shift


def momentum_shift_residual(f, x, xi, k, s):
    """Residual of J^k(x + s xi, xi) = sum_l C(k,l) (-s)^{k-l} J^l(x, xi)."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    lhs = momentum_transform(f, Line(x + s * xi, xi), k)
    rhs = sum(math.comb(k, l) * (-s) ** (k - l) * momentum_transform(f, Line(x, xi), l)
              for l in range(k + 1))
    return lhs - rhs


def momentum_scale_residual(f, x, xi, k, r):
    """Residual of J^k(x, r xi) = r^{m-k}/|r| J^k(x, xi)."""
    lhs = momentum_transform(f, Line(x, np.asarray(xi, float) * r), k)
    rhs = (r ** (f.m - k) / abs(r)) * momentum_transform(f, Line(x, xi), k)
    return lhs - rhs


def trt_pointwise_recover(eta_rows, samples, n, m):
    """Solve <f, eta_{c1} (.) ... (.) eta_{cm}> = samples[p, c] for the
    symmetric f of each point p.

    ``eta_rows`` is the eta-product matrix of ``symtensor.sym_power_rows``,
    one row per canonical c; the pairing weights its column I by
    multiplicity(I).  ``samples`` is (points, C(n+m-1, m)), columns in
    canonical order; returns the recovered canonical coordinates, same
    shape.  The system, its rank guard and its solve serve every point at
    once; dependent etas, whose products do not span S^m, raise ValueError.
    """
    if sym_power_span_rank(eta_rows) < sym_dim(n, m):
        raise ValueError("singular recovery system: directions are dependent")
    mult = [multiplicity(col) for col in canonical_indices(n, m)]
    return np.linalg.solve(eta_rows * mult, np.asarray(samples, dtype=float).T).T


# ---------------------------------------------------------------------------
# analytic transform derivatives
# ---------------------------------------------------------------------------

class TransformExpr:
    """Linear combination of xi^b * (momentum transform atoms).

    ``terms`` maps (xi exponents, base, axes, t power) to an ``int`` or
    ``Fraction`` coefficient.
    The base (field, component row) and the sorted axis multiset name the
    atom's core: row ``row`` of the field's derivative level |axes|, in the
    block of ``axes``.  Fields hash by identity.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = terms if terms is not None else {}

    @classmethod
    def momentum(cls, f: PolyBumpField, k: int = 0) -> "TransformExpr":
        """The atom expansion of J_m^k f."""
        expr = cls(f.n)
        for row, idx in enumerate(f.rows()):
            if f.stack.arr[row].any():
                expr._add(multiplicity(idx), _xi_monomial_exps(idx, f.n), (f, row), (), k)
        return expr

    def _add(self, coeff, xiexp, base, dmulti, tpow):
        key = (xiexp, base, dmulti, tpow)
        c = self.terms.get(key, 0) + coeff
        if c == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = c

    def __add__(self, other):
        out = TransformExpr(self.n, dict(self.terms))
        for key, c in other.terms.items():
            out._add(c, *key)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        """c times the expression, for an ``int`` or ``Fraction`` c."""
        if not isinstance(c, (int, Fraction)):
            raise TypeError("exact arithmetic needs an int or Fraction scale")
        if c == 0:
            return TransformExpr(self.n)
        return TransformExpr(self.n, {k: v * c for k, v in self.terms.items()})

    def dx(self, i) -> "TransformExpr":
        return self.dx_multi((i,))

    def dx_multi(self, axes) -> "TransformExpr":
        """d/dx along each axis of the tuple ``axes``: every atom's axis
        multiset gains ``axes`` and keeps its coefficient; distinct atoms
        stay distinct."""
        return TransformExpr(self.n, {(xie, base, tuple(sorted(dm + axes)), tp): c
                                      for (xie, base, dm, tp), c in self.terms.items()})

    def dxi(self, i) -> "TransformExpr":
        out = TransformExpr(self.n)
        for (xie, base, dm, tp), c in self.terms.items():
            if xie[i]:
                lowered = list(xie)
                lowered[i] -= 1
                out._add(c * xie[i], tuple(lowered), base, dm, tp)
            out._add(c, xie, base, tuple(sorted(dm + (i,))), tp + 1)
        return out

    def mul_prefactor(self, weight_terms) -> "TransformExpr":
        """Multiply by a polynomial in xi: {xi exponents: exact coeff}."""
        out = TransformExpr(self.n)
        for (xie, base, dm, tp), c in self.terms.items():
            for wxi, wc in weight_terms.items():
                out._add(c * wc, tuple(a + b for a, b in zip(xie, wxi)), base, dm, tp)
        return out

    def eval_lines(self, X, Xi, Y=None):
        """Values on the lines (X[l], Xi[l]); see ``eval_exprs``."""
        return eval_exprs([self], X, Xi, Y)[:, 0]

    def eval(self, x, xi):
        return float(self.eval_lines([x], [xi])[0])


def eval_exprs(exprs, X, Xi, Y=None):
    """Values of ``TransformExpr``s on the lines (X[l], Xi[l]), shape
    (L, len(exprs)), from one kernel call for the atoms of them all; column i
    is bitwise ``exprs[i].eval_lines(X, Xi, Y)``; coefficients become floats
    here, once per term per call.  The xi-monomial prefactors
    are taken at Y[l] when Y is given: on the atom expansion of J_m this
    gives the transverse pairing with y."""
    X = np.asarray(X, dtype=float)
    Xi = np.asarray(Xi, dtype=float)
    Y = Xi if Y is None else np.asarray(Y, dtype=float)
    out = np.zeros((len(X), len(exprs)))
    cols = {}
    for expr in exprs:
        for (_xie, base, dm, tp) in expr.terms:
            cols.setdefault((base, dm, tp), len(cols))
    if not cols:
        return out
    atoms, rhos = [], set()
    for (f, row), dm, tp in cols:
        atoms.append((*f.atom(row, dm), tp))
        rhos.add(f.rho)
    if len(rhos) > 1:
        raise ValueError("support mismatch")
    jv = chord_integrals(atoms, rhos.pop(), X, Xi)
    for i, expr in enumerate(exprs):
        for (xie, base, dm, tp), c in expr.terms.items():
            out[:, i] += float(c) * _monomials(Y, xie) * jv[:, cols[base, dm, tp]]
    return out


def john_operator(expr: TransformExpr, i, j) -> TransformExpr:
    """J_ij = d^2/dx_i dxi_j - d^2/dx_j dxi_i on a transform expression."""
    return expr.dx(i).dxi(j) - expr.dx(j).dxi(i)


def john_apply(f: PolyBumpField, line: Line, k, pair) -> float:
    """One John operator applied to J_m^k f, evaluated at the line."""
    i, j = pair
    if 2 > f.power:
        raise BudgetError("smoothness budget exhausted")
    return john_operator(TransformExpr.momentum(f, k), i, j).eval(line.x, line.xi)


def _iterated_john(f: PolyBumpField, pairs) -> TransformExpr:
    """J_{i1 j1} ... J_{im jm} applied to the atom expansion of J_m f."""
    if 2 * len(pairs) > f.power:
        raise BudgetError("smoothness budget exhausted")
    expr = TransformExpr.momentum(f, 0)
    for (i, j) in pairs:
        expr = john_operator(expr, i, j)
    return expr


def verify_john_relation(f: PolyBumpField, X, Xi):
    """Per-line max residual of the iterated-John identity over R-image
    components, on the lines (X[l], Xi[l]) of the (L, n) arrays X and Xi.

    Checks (-2)^m m! J_0((Rf)_{i1 j1 .. im jm}) = J_{i1 j1}..J_{im jm}(J_m f)
    componentwise; both sides of every component are exact chord quadrature,
    all in one kernel call over all lines.  m >= 1 only (the m=0 display
    degenerates; the classical ultrahyperbolic identity is checked separately
    by ``john_apply`` on scalar transforms).
    """
    m = f.m
    if m < 1:
        raise ValueError("the iterated relation needs m >= 1")
    rf = operator_R(f)
    keys = list(rf.canonical_keys())
    vals = eval_exprs([TransformExpr.momentum(rf.component_field(key), 0) for key in keys]
                      + [_iterated_john(f, key[0]) for key in keys], X, Xi)
    lhs = (-2.0) ** m * math.factorial(m) * vals[:, :len(keys)]
    return np.max(np.abs(lhs - vals[:, len(keys):]), axis=1)


# ---------------------------------------------------------------------------
# line-set CSV output
# ---------------------------------------------------------------------------

def write_transform_csv(path, X, Xi, values, value_names):
    """One row per line (X[l], Xi[l]): its coordinates, then one column per
    transform value; ``values`` has shape (L, len(value_names))."""
    n = X.shape[1]
    header = [f"x_{i + 1}" for i in range(n)] + [f"xi_{i + 1}" for i in range(n)]
    header += list(value_names)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.hstack([X, Xi, values]).tolist():
            writer.writerow([repr(v) for v in row])
