"""Normal operators of the ray and momentum ray transforms, the
solenoidal-potential decomposition, and verification of the central
identities relating them.  The suites that turn these into report rows,
the UCP ones included, are in ``tentomo.suites``.

Three numerical paths coexist, each with its own error source and tolerance:

* angular quadrature (sphere rule x closed-form chord integrals) -- error is
  the sphere rule's, decreasing with rule degree;
* grid convolution with the sampled real-space kernel (n=2) -- error is
  kernel discretization, ~1e-3 at N=128.  ``normal_convolution`` assembles
  it in frequency space: one real FFT per field component and per kernel,
  the sum over field components taken on the spectra, and one inverse FFT
  per output term.  Only the box of E cells per axis that holds the field's
  nonzero samples is transformed, against the N + E - 1 kernel offsets that
  its N outputs read, at the smallest period 2^a 3^b >= N + E - 1 (at most
  2N).  That is exact by overlap-save: each kept output reads kernel
  indices 0 .. N + E - 2, all within one period, so nothing wraps onto them.
  The margin L/4 that ``GridTensorField.sample`` enforces gives E ~ N/2, and
  periods 192 and 384 for N = 128 and 256;
* exact Fourier symbol (n=2) -- the normal operator as a multiplier, exact up
  to roundoff; this is the path on which N(potential) = 0 holds to machine
  precision.

The spectral operators (d, delta, the solenoidal split and the symbol) run
on half spectra.  Grid fields are real and each multiplier M is Hermitian,
M(-w) = conj M(w) on the frequency lattice (factors i w_a times even real
functions of w; an even N's Nyquist frequency is zeroed, as that bin is its
own negative).  So M fhat is the
spectrum of a real field: ``rfftn`` keeps the last axis's bins 0 .. N//2, the
rest being their conjugates, and ``irfftn`` gives, up to roundoff, the
``.real`` of a complex ``ifftn`` of the full spectrum.  Complex ``fftn`` is
kept only in ``helmholtz_decompose_oracle``, an independent route.

Spatial derivatives of normal operators are never taken by differencing
quadrature output; they are moved onto the field inside the line integral via
``TransformExpr``, whose atoms read the field's exact derivative levels.

Angular sums come in two forms, each reducing with w <x,xi>^p xi^I per point
over the (point, rule node) pairs:

* foot-point lines, the normal operators N_m^k and delta^r N_m^k:
  ``_foot_point_sum`` backprojects a compiled sinogram.  On the line through
  the foot point x - <x,xi>xi, J_m^k f is a per-node polynomial in the
  coordinates s of x on xi^perp times (rho^2 - |s|^2)^(e+1/2), built with
  the chord kernel's helpers; each pair costs one Horner step and one power;
* base-point lines, any ``TransformExpr`` (the key identities, N_0 and the
  xi-moment integrals): ``_angular_sum`` runs that chord kernel itself.

Both take a stack of sphere rules and return one result per rule, so a
convergence case runs all its rule degrees through one sinogram per (field,
order) and one chord-kernel call per expression.  They go through the
(point, node) pairs of all the rules in blocks of at most ``LINE_BLOCK`` =
2^14, and every point adds each rule's nodes in rule order onto that rule's
running total.  A line's chord value and a node's sinogram row do not depend
on the other lines or nodes of their batch, so neither a point's value nor a
rule's depends on the batch or the stack it comes in: each rule's sums are
bitwise those of a one-rule call.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .polyfield import (PolyBumpField, _pair_rows, _position_splits, generalized_R,
                        pair_alternations)
from .spherequad import SphereRule, c_constant
from .symtensor import (SymTensor, canonical_indices, i_metric, j_metric,
                        multiplicity, sym_dim)
from .xray import (TANGENCY_TOL, TransformExpr, dot_power_terms, _chord_moment,
                   _int_power, _monomial_table, _monomials, _rowdot, _shifted,
                   _xi_monomial_exps)


# ---------------------------------------------------------------------------
# grid tensor fields and spectral calculus
# ---------------------------------------------------------------------------

def _omega(N, L):
    """Angular frequencies for spectral derivatives; Nyquist bin zeroed so
    that odd-order derivative multipliers keep real fields real."""
    om = 2.0 * np.pi * np.fft.fftfreq(N, d=L / N)
    if N % 2 == 0:
        om[N // 2] = 0.0
    return om


class GridTensorField:
    """Symmetric tensor field sampled on a uniform periodic grid.

    ``comps`` has shape (C(n+m-1, m), N, ..., N); axis coordinates are
    -L/2 + (L/N)*index.
    """

    def __init__(self, n, m, N, L, comps):
        self.n = n
        self.m = m
        self.N = N
        self.L = float(L)
        self.comps = np.asarray(comps, dtype=float)
        if self.comps.shape != (sym_dim(n, m),) + (N,) * n:
            raise ValueError("component array has wrong shape")

    @classmethod
    def sample(cls, field: PolyBumpField, N, L, enforce_margin=True):
        """Sample a bump field; its support must sit well inside the box.

        Cores are evaluated only where rho^2 - |x|^2 > 0, as
        q(x) * (rho^2 - |x|^2)^power: bit for bit the whole-mesh values.
        """
        if enforce_margin and float(field.rho) > L / 4 + 1e-12:
            raise ValueError("support must leave a margin of at least L/4")
        axes = [np.arange(N) * (L / N) - L / 2 for _ in range(field.n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        b = float(field.rho) ** 2 - (mesh * mesh).sum(axis=-1)
        inside = b > 0
        pts, bump = mesh[inside], b[inside] ** field.power
        comps = np.zeros((sym_dim(field.n, field.m),) + (N,) * field.n)
        for pos, idx in enumerate(canonical_indices(field.n, field.m)):
            comps[pos][inside] = field.core(idx).eval_many(pts) * bump
        return cls(field.n, field.m, N, L, comps)

    @property
    def h(self):
        return self.L / self.N

    def axis_coords(self):
        return np.arange(self.N) * self.h - self.L / 2

    def index_list(self):
        return list(canonical_indices(self.n, self.m))

    def norm_l2(self):
        """Multiplicity-weighted discrete L2 norm."""
        total = 0.0
        for pos, idx in enumerate(self.index_list()):
            total += multiplicity(idx) * float((self.comps[pos] ** 2).sum())
        return math.sqrt(total) * self.h ** (self.n / 2)

    def __sub__(self, other):
        return GridTensorField(self.n, self.m, self.N, self.L,
                               self.comps - other.comps)

    def __add__(self, other):
        return GridTensorField(self.n, self.m, self.N, self.L,
                               self.comps + other.comps)

    def rfft(self):
        """Half spectra of the components: ``rfftn`` over the grid axes, the
        last axis keeping the frequencies 0 .. N//2."""
        return np.fft.rfftn(self.comps, axes=tuple(range(1, self.n + 1)))


def _irfft(spec, N, n):
    """Real fields from half spectra over the last n axes (the inverse of
    ``GridTensorField.rfft``)."""
    return np.fft.irfftn(spec, s=(N,) * n, axes=tuple(range(spec.ndim - n, spec.ndim)))


class FrequencySymbol:
    """Canonical-coordinate matrices of y-multiplication maps on S^m.

    ``imul_coeffs[r, c, a]`` gives the matrix of i_y = (y (.) .) as
    sum_a y_a * imul_coeffs[..a]; ``jcon_coeffs`` likewise for the dual
    contraction j_y.  For y != 0 the Gram of i_y is positive definite.
    """

    def __init__(self, n, m):
        if m < 1:
            raise ValueError("need rank >= 1")
        self.n = n
        self.m = m
        rows = list(canonical_indices(n, m))
        cols = list(canonical_indices(n, m - 1))
        imul = np.zeros((len(rows), len(cols), n))
        for r, idx in enumerate(rows):
            for p in range(m):
                rest = tuple(sorted(idx[:p] + idx[p + 1:]))
                imul[r, cols.index(rest), idx[p]] += 1.0 / m
        jcon = np.zeros((len(cols), len(rows), n))
        for c, jdx in enumerate(cols):
            for a in range(n):
                jcon[c, rows.index(tuple(sorted(jdx + (a,)))), a] += 1.0
        self.imul_coeffs = imul
        self.jcon_coeffs = jcon

def _omega_mesh(N, L, n):
    """Half-spectrum frequencies, shape (N, ..., N, N//2 + 1, n): the last
    axis holds the ``rfftn`` bins 0 .. N//2, Nyquist zeroed as in ``_omega``."""
    om = _omega(N, L)
    oms = [om] * (n - 1) + [om[:N // 2 + 1]]
    return np.stack(np.meshgrid(*oms, indexing="ij"), axis=-1)


def d_field(v: GridTensorField) -> GridTensorField:
    """Spectral symmetrized derivative, rank m -> m+1."""
    sym = FrequencySymbol(v.n, v.m + 1)
    w = _omega_mesh(v.N, v.L, v.n)
    a = np.einsum("rca,...a->...rc", sym.imul_coeffs, w)
    dv = 1j * np.einsum("...rc,c...->r...", a, v.rfft())
    return GridTensorField(v.n, v.m + 1, v.N, v.L, _irfft(dv, v.N, v.n))


def delta_field(f: GridTensorField) -> GridTensorField:
    """Spectral divergence, rank m -> m-1."""
    if f.m < 1:
        raise ValueError("divergence needs rank >= 1")
    sym = FrequencySymbol(f.n, f.m)
    w = _omega_mesh(f.N, f.L, f.n)
    a = np.einsum("rca,...a->...rc", sym.jcon_coeffs, w)
    df = 1j * np.einsum("...rc,c...->r...", a, f.rfft())
    return GridTensorField(f.n, f.m - 1, f.N, f.L, _irfft(df, f.N, f.n))


def solenoidal_decompose(f: GridTensorField):
    """Per-frequency least-squares split f = sf + d v with delta sf = 0.

    The zero frequency (and the zeroed Nyquist bins) carry no potential
    part; constants are divergence-free, so they belong to sf.
    """
    if f.m < 1:
        raise ValueError("decomposition needs rank >= 1")
    sym = FrequencySymbol(f.n, f.m)
    w = _omega_mesh(f.N, f.L, f.n).reshape(-1, f.n)
    spec = f.rfft()
    fhat = spec.reshape(len(spec), -1).T  # (P, dim_m)
    a = np.einsum("rca,pa->prc", sym.imul_coeffs, w)
    jm = np.einsum("rca,pa->prc", sym.jcon_coeffs, w)
    gram = jm @ a
    rhs = np.einsum("prc,pc->pr", jm, fhat)
    dead = (w == 0).all(axis=1)
    eye = np.eye(gram.shape[1])
    gram[dead] = eye
    rhs[dead] = 0.0
    wvec = _solve_spd(gram, rhs)   # what = i * vhat
    vhat = -1j * wvec
    dvhat = np.einsum("prc,pc->pr", a, wvec)
    shat = fhat - dvhat
    sf = _irfft(shat.T.reshape(spec.shape), f.N, f.n)
    vv = _irfft(vhat.T.reshape((-1,) + spec.shape[1:]), f.N, f.n)
    return (GridTensorField(f.n, f.m, f.N, f.L, sf),
            GridTensorField(f.n, f.m - 1, f.N, f.L, vv))


def _solve_spd(a, b):
    """x with a[p] x[p] = b[p] for every p, overwriting a and b: Gaussian
    elimination vectorised over p, without pivoting, as every a[p] is
    symmetric positive definite.  One unknown is the division b / a."""
    d = a.shape[-1]
    for j in range(d):
        for r in range(j + 1, d):
            f = a[:, r, j] / a[:, j, j]
            a[:, r, j + 1:] -= f[:, None] * a[:, j, j + 1:]
            b[:, r] -= f * b[:, j]
    for j in range(d - 1, -1, -1):
        for c in range(j + 1, d):
            b[:, j] -= a[:, j, c] * b[:, c]
        b[:, j] /= a[:, j, j]
    return b


def helmholtz_decompose_oracle(f: GridTensorField):
    """Independent classical route for m=1: scalar Poisson solve for the
    potential, v = Laplace^{-1} div f, then sf = f - grad v.  It runs on the
    full complex spectrum, the one ``fftn`` of the package."""
    if f.m != 1:
        raise ValueError("oracle is for vector fields")
    w = np.stack(np.meshgrid(*[_omega(f.N, f.L)] * f.n, indexing="ij"), axis=-1)
    fhat = np.fft.fftn(f.comps, axes=tuple(range(1, f.n + 1)))
    div = 1j * sum(w[..., a] * fhat[a] for a in range(f.n))
    norm2 = (w ** 2).sum(axis=-1)
    inv = np.zeros_like(norm2)
    np.divide(1.0, norm2, out=inv, where=norm2 > 0)
    vhat = -div * inv          # v solves Laplace v = div f
    grad = np.stack([1j * w[..., a] * vhat for a in range(f.n)])
    sf = np.stack([np.fft.ifftn(fhat[a] - grad[a]).real for a in range(f.n)])
    vv = np.fft.ifftn(vhat).real[None, ...]
    return (GridTensorField(f.n, 1, f.N, f.L, sf),
            GridTensorField(f.n, 0, f.N, f.L, vv))


# ---------------------------------------------------------------------------
# angular-quadrature normal operators
# ---------------------------------------------------------------------------

#: Lines per kernel call, and points per chunk of ``_foot_point_sum``: a
#: (point, node) block of 2^14 doubles is 128 kB and stays in cache, and the
#: grids walk their points in chunks of one node by 2^14 points.
LINE_BLOCK = 1 << 14


def _stacked_nodes(rules):
    """The nodes and weights of a stack of sphere rules, concatenated in
    stack order, and the bounds of each rule's nodes in them."""
    bounds = np.cumsum([0] + [len(rule) for rule in rules])
    return (np.concatenate([rule.nodes for rule in rules]),
            np.concatenate([rule.weights for rule in rules]), bounds)


def _angular_sum(expr: TransformExpr, pts, p, rank, rules):
    """sum over rule nodes of w <x,xi>^p xi^I expr(x, xi) per point x, for
    each rule of the stack ``rules``.

    The line through x in direction xi is taken at the base point x itself,
    and ``expr`` goes through the chord kernel of ``xray``, so any
    ``TransformExpr`` works here.  Foot-point lines take the closed form of
    ``_foot_point_sum`` instead.  I runs over the canonical indices of
    S^rank; returns an array (rules, points, dim S^rank).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    nodes, weights, bounds = _stacked_nodes(rules)
    owner = np.repeat(np.arange(len(rules)), np.diff(bounds)) * len(pts)
    out_exps = [_xi_monomial_exps(idx, expr.n) for idx in canonical_indices(expr.n, rank)]
    out = np.zeros((len(rules) * len(pts), len(out_exps)))
    count = len(pts) * len(nodes)
    for start in range(0, count, LINE_BLOCK):
        node, pt = np.divmod(np.arange(start, min(start + LINE_BLOCK, count)), len(pts))
        x, xi = pts[pt], nodes[node]
        vals = weights[node] * expr.eval_lines(x, xi) * _rowdot(x, xi)**p
        # bincount adds in input order, so with the running totals first each
        # (rule, point) adds its nodes in rule order, whatever the block
        bins = np.concatenate([np.arange(len(out)), owner[node] + pt])
        for c, e in enumerate(out_exps):
            out[:, c] = np.bincount(bins, np.concatenate([out[:, c], vals * _monomials(xi, e)]),
                                    minlength=len(out))
    return out.reshape(len(rules), len(pts), len(out_exps))


def _perp_basis(nodes):
    """Orthonormal bases of the hyperplanes xi^perp, shape (nodes, n-1, n).

    Rows 1..n-1 of the Householder reflection that maps xi to -+e_0; for
    n = 2 this is +-(-xi_2, xi_1).
    """
    n = nodes.shape[1]
    v = nodes.copy()
    v[:, 0] += np.where(nodes[:, 0] >= 0.0, 1.0, -1.0)
    refl = np.eye(n) - 2.0 * v[:, :, None] * v[:, None, :] / _rowdot(v, v)[:, None, None]
    return refl[:, 1:, :]


def _foot_sinogram(f: PolyBumpField, k, nodes):
    """Per-node polynomials R_xi with J_m^k f(x - <x,xi>xi, xi) =
    R_xi(s) (rho^2 - |s|^2)^(e + 1/2) on the chord, s = E_xi x.

    With y the foot point and t along the unit node xi, B = H - t^2 for
    H = rho^2 - |y|^2 = rho^2 - |s|^2, so for c_b(s) = [t^b] Q_xi(s, t),
    Q_xi = sum_I mult(I) xi^I q_I(E_xi^T s + t xi), the chord integral is
    sum_{b+k even} M(b+k, e) c_b(s) H^((b+k)/2) H^(e+1/2).  Everything is
    array arithmetic over all nodes at once.  Returns (E, R) with R of
    shape (nodes, D+k+1, ..., D+k+1), one axis per coordinate of s.
    """
    n, e = f.n, f.power
    nodes = np.asarray(nodes, dtype=float)
    basis = _perp_basis(nodes)
    degree = max((core.degree() for core in f.cores.values()), default=0)
    top = degree + k
    # the variables are (s_1 .. s_{n-1}, t); x_a = sum_j E[j, a] s_j + xi_a t
    col = (-1,) + (1,) * n
    forms = [[v.reshape(col) for v in (*basis[:, :, a].T, nodes[:, a])] for a in range(n)]
    q = np.zeros((len(nodes),) + (top + 1,) * (n - 1) + (degree + 1,))
    monos = {(0,) * n: np.zeros_like(q)}
    monos[(0,) * n][(slice(None),) + (0,) * n] = 1.0
    coeffs = {}
    for idx, core in f.cores.items():
        pairing = multiplicity(idx) * _monomials(nodes, _xi_monomial_exps(idx, n))
        for exps, c in core.terms.items():
            coeffs[exps] = coeffs.get(exps, 0.0) + float(c) * pairing
    for exps in sorted(coeffs):
        q += coeffs[exps].reshape(col) * _monomial_table(monos, exps, forms)
    r = np.zeros(q.shape[:-1])
    for j in range(top // 2, -1, -1):
        r = float(f.rho)**2 * r - sum(_shifted(r, v, 2) for v in range(1, n))
        b = 2 * j - k
        if 0 <= b <= degree:
            r += _chord_moment(2 * j, e) * q[..., b]
    return basis, r


def _horner(coeffs, s):
    """Per-node polynomials at s: coeffs (nodes, degrees per s axis) and s a
    list of (nodes, points) arrays, one per s coordinate."""
    if coeffs.ndim == 1:
        return coeffs[:, None]
    acc = _horner(coeffs[..., -1], s[:-1])
    for d in range(coeffs.shape[-1] - 2, -1, -1):
        acc = acc * s[-1]
        acc += _horner(coeffs[..., d], s[:-1])
    return acc


def _node_dots(vecs, x):
    """(nodes, points) array of <vecs[i], x[:, j]>, summed term by term, so
    that no entry depends on the block it is computed in."""
    out = vecs[:, 0, None] * x[0]
    for a in range(1, len(x)):
        out += vecs[:, a, None] * x[a]
    return out


def _foot_point_sum(f: PolyBumpField, k, pts, p, rank, rules):
    """sum over rule nodes of w <x,xi>^p xi^I J_m^k f(x - <x,xi>xi, xi) per x,
    for each rule of the stack ``rules``; returns (rules, points, dim S^rank).

    The backprojection of a compiled sinogram: ``_foot_sinogram`` gives one
    polynomial R_xi per node of every rule, and each (point, node) pair then
    costs one evaluation of R_xi at s = E_xi x and one power of
    H = rho^2 - |s|^2.  Lines whose half-chord sqrt(H) is not above
    ``TANGENCY_TOL`` miss, as in the chord kernel.  Points go through in
    chunks of at most ``LINE_BLOCK``, their pairs as (nodes, points) blocks of
    at most ``LINE_BLOCK`` entries, and each point adds each rule's nodes one
    by one in rule order onto that rule's running total, (((0 + v_0) + v_1)
    + ...), whatever its chunk and block.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    nodes, weights, bounds = _stacked_nodes(rules)
    basis, r = _foot_sinogram(f, k, nodes)
    rho2 = float(f.rho)**2
    out_exps = [_xi_monomial_exps(idx, f.n) for idx in canonical_indices(f.n, rank)]
    node_w = np.stack([weights * _monomials(nodes, e) for e in out_exps], axis=1)
    out = np.zeros((len(rules), len(out_exps), len(pts)))
    pb = max(1, min(len(pts), LINE_BLOCK))
    nb = max(1, LINE_BLOCK // pb)
    for p0 in range(0, len(pts), pb):
        x = pts[p0:p0 + pb].T
        totals = list(out[:, :, p0:p0 + pb])
        for n0 in range(0, len(nodes), nb):
            sl = slice(n0, n0 + nb)
            s = [_node_dots(basis[sl, j], x) for j in range(f.n - 1)]
            h = s[0] * s[0]
            for c in s[1:]:
                h += c * c
            np.subtract(rho2, h, out=h)
            root = np.maximum(h, 0.0)
            np.sqrt(root, out=root)
            root *= root > TANGENCY_TOL   # a line that misses adds +-0
            vals = _horner(r[sl], s) * _int_power(h, f.power)
            vals *= root
            if p:
                vals *= _int_power(_node_dots(nodes[sl], x), p)
            rows = node_w[sl, :, None] * vals[:, None, :]
            # each rule's nodes in this block, onto that rule's totals
            for j, total in enumerate(totals):
                for row in rows[max(bounds[j] - n0, 0):max(bounds[j + 1] - n0, 0)]:
                    total += row
    return out.transpose(0, 2, 1)


def normal_momentum_on_points(f: PolyBumpField, pts, k, rule: SphereRule):
    """Vectorized (N_m^k f) on an array of points; returns (P, dim S^m)."""
    return _foot_point_sum(f, k, pts, k, f.m, [rule])[0]


# ---------------------------------------------------------------------------
# convolution-form normal operators on grids
# ---------------------------------------------------------------------------

#: Cells within this Chebyshev radius of the origin hold cell averages of the
#: kernel, taken by a SUBSAMPLES x SUBSAMPLES Gauss-Legendre rule (the origin
#: cell by an exact radial integral).
AVERAGE_RADIUS = 6
SUBSAMPLES = 10
#: Gauss-Legendre nodes per pi/4 arc of the origin cell's angular integral.
ORIGIN_ARC_NODES = 24


@lru_cache(maxsize=None)
def _leggauss(q):
    return np.polynomial.legendre.leggauss(q)


def _origin_cell_average(alpha, beta, h):
    """Average over the h-cell at 0 of x^alpha/|x|^beta (n = 2).

    Integrating r exactly leaves int_0^2pi cos^a0 sin^a1 r_edge^gamma/gamma,
    with r_edge = (h/2)/max(|cos|, |sin|) and gamma = |alpha| - beta + 2 >= 1
    for the kernels here.  Between multiples of pi/4 the integrand is
    analytic, so Gauss-Legendre on each of the eight arcs converges to
    roundoff.
    """
    if any(a % 2 for a in alpha):
        return 0.0
    gamma = sum(alpha) - beta + 2
    if gamma <= 0:
        raise ValueError("kernel not cell-integrable")
    u, w = _leggauss(ORIGIN_ARC_NODES)
    theta = (np.arange(8)[:, None] + (u + 1) / 2) * (math.pi / 4)
    c, s = np.cos(theta), np.sin(theta)
    edge = (h / 2) / np.maximum(np.abs(c), np.abs(s))
    vals = c**alpha[0] * s**alpha[1] * edge**gamma / gamma
    return float((vals * w).sum()) * (math.pi / 8) / h**2


def _fft_period(need, cap):
    """The smallest 2^a 3^b >= need, or ``cap`` where that is smaller."""
    bits = range(cap.bit_length())
    return min([cap] + [2**a * 3**b for a in bits for b in bits if 2**a * 3**b >= need])


def _kernel_family(offsets, h, degree, beta):
    """Sampled kernels x^alpha/|x|^beta (n = 2) for every alpha of the given
    degree, at the cell offsets ``offsets[0]`` x ``offsets[1]`` (increasing
    integer ranges that hold 0); row a of the result is alpha = (a, degree - a).

    Cells within ``AVERAGE_RADIUS`` (Chebyshev) of the origin hold cell
    averages: the origin cell's from ``_origin_cell_average``, the others' from
    a tensor Gauss-Legendre rule over the near cells among the offsets.  Every
    alpha shares |x|^beta and the sub-cell nodes.
    """
    def values(x, y):
        rpow = _int_power(np.sqrt(np.add.outer(x * x, y * y)), beta)
        return np.stack([np.multiply.outer(_int_power(x, a), _int_power(y, degree - a)) / rpow
                         for a in range(degree + 1)])

    with np.errstate(divide="ignore", invalid="ignore"):
        vals = values(offsets[0] * h, offsets[1] * h)
    u, w = _leggauss(SUBSAMPLES)
    cells = [np.arange(max(o[0], -AVERAGE_RADIUS), min(o[-1], AVERAGE_RADIUS) + 1)
             for o in offsets]
    # node i of cell c sits at sub[c * SUBSAMPLES + i]; the half-weights
    # integrate to h per axis, so the weighted sum is already the cell average
    sub = [(c[:, None] * h + 0.5 * h * u).ravel() for c in cells]
    near = values(*sub).reshape(degree + 1, len(cells[0]), SUBSAMPLES, len(cells[1]), SUBSAMPLES)
    box = tuple(slice(c[0] - o[0], c[-1] + 1 - o[0]) for c, o in zip(cells, offsets))
    vals[(slice(None),) + box] = np.einsum("i,daibj,j->dab", 0.5 * w, near, 0.5 * w)
    origin = tuple(-o[0] for o in offsets)
    for a in range(degree + 1):
        vals[(a,) + origin] = _origin_cell_average((a, degree - a), beta, h)
    return vals


def normal_convolution(f: GridTensorField, k=0):
    """(N_m^k f) by discrete convolution with the tensor-valued kernel.

    Implements the closed convolution form: for each l <= k the kernel is
    (x^(.2m+2k-l)) / |x|^{2m+2k-2l+n-1} with the x^(.2k-l) contraction applied
    pointwise after convolving, weighted by 2 C(k,l) (-1)^l.  The products
    are assembled in frequency space: each field component and each kernel of
    the degree 2m+2k-l family is transformed once, and each (l, x^(.2k-l)
    component, output component) takes one inverse transform of its sum over
    field components.

    Only the box of E = E_0 x E_1 cells holding every nonzero sample is
    transformed (overlap-save).  Per axis, with the box at rows lo .. lo+E-1,
    output q reads input lo + i at the offset d = q - lo - i, which runs over
    the N + E - 1 values -(lo+E-1) .. N-1-lo; kernel index j holds offset
    j - (lo+E-1) and the rest of the period is zero.  At period P >= N + E - 1
    the cyclic sum at o = q + E - 1 reads kernel indices o - i in
    0 .. N + E - 2, all inside one period, so nothing wraps onto the kept
    window and it is the linear convolution exactly.  P is the smallest
    2^a 3^b >= N + E - 1, capped at 2N (a field filling the box, E = N).
    """
    if f.n != 2:
        raise ValueError("convolution path implemented for n=2")
    n, m, N = f.n, f.m, f.N
    h = f.h
    if f.comps.shape[1] < 16:
        raise ValueError("grid too coarse for kernel resolution")
    idx_list = list(canonical_indices(n, m))
    out = np.zeros((len(idx_list),) + (N,) * n)
    nonzero = (f.comps != 0).any(axis=0)
    if not nonzero.any():
        return GridTensorField(n, m, N, f.L, out)
    rows = [np.flatnonzero(nonzero.any(axis=1 - ax)) for ax in range(n)]
    lo = [r[0] for r in rows]
    ext = [r[-1] + 1 - r[0] for r in rows]
    shape = tuple(_fft_period(N + e - 1, 2 * N) for e in ext)
    offsets = [np.arange(N + e - 1) - (a + e - 1) for a, e in zip(lo, ext)]
    keep = tuple(slice(e - 1, e - 1 + N) for e in ext)
    box = (slice(None),) + tuple(slice(a, a + e) for a, e in zip(lo, ext))
    field_hat = np.fft.rfft2(f.comps[box], s=shape)
    coords = f.axis_coords()
    for l in range(k + 1):
        beta = 2 * m + 2 * k - 2 * l + n - 1
        coeff = 2.0 * math.comb(k, l) * (-1) ** l
        kernel_hat = np.fft.rfft2(_kernel_family(offsets, h, 2 * m + 2 * k - l, beta), s=shape)
        for p_idx in canonical_indices(n, 2 * k - l):
            p_exps = _xi_monomial_exps(p_idx, n)
            xpref = np.multiply.outer(_int_power(coords, p_exps[0]),
                                      _int_power(coords, p_exps[1]))
            for c, i_idx in enumerate(idx_list):
                acc = 0.0
                for jpos, j_idx in enumerate(idx_list):
                    a0 = _xi_monomial_exps(p_idx + i_idx + j_idx, n)[0]
                    acc = acc + multiplicity(j_idx) * field_hat[jpos] * kernel_hat[a0]
                conv = np.fft.irfft2(acc, s=shape)[keep]
                out[c] += (coeff * multiplicity(p_idx) * h**n) * xpref * conv
    return GridTensorField(n, m, N, f.L, out)


def normal_symbol(f: GridTensorField):
    """N_m f (k=0) as an exact Fourier multiplier, n=2 only.

    The symbol is (4 pi / |w|) xi_w^(.m) <., xi_w^(.m)> with xi_w the unit
    vector orthogonal to w; it annihilates potential fields exactly, so this
    is the precision path for N_m f = N_m sf checks.  The zero bin (mean) is
    set to zero; comparisons must use the same convention on both operands.
    """
    if f.n != 2:
        raise ValueError("symbol path implemented for n=2")
    n, m, N = f.n, f.m, f.N
    w = _omega_mesh(N, f.L, n)
    norm = np.sqrt((w**2).sum(axis=-1))
    inv = np.zeros_like(norm)
    np.divide(1.0, norm, out=inv, where=norm > 0)
    xi = np.stack([-w[..., 1] * inv, w[..., 0] * inv], axis=-1)
    idx_list = list(canonical_indices(n, m))
    monos = [xi[..., 0] ** e[0] * xi[..., 1] ** e[1]
             for e in (_xi_monomial_exps(idx, n) for idx in idx_list)]
    pairing = sum(multiplicity(idx) * fhat * mono
                  for idx, fhat, mono in zip(idx_list, f.rfft(), monos))
    scale = 4.0 * np.pi * inv
    out = _irfft(np.stack([scale * mono * pairing for mono in monos]), N, n)
    return GridTensorField(n, m, N, f.L, out)


# ---------------------------------------------------------------------------
# identity verification: scalar normal operator and i^l j^l matrices
# ---------------------------------------------------------------------------

def n0_scalar(g: PolyBumpField, pts, rules):
    """N_0 g(x) = int_S J_0 g(x, xi) dS for a scalar field, at each point
    of the (P, n) array ``pts`` and by each rule of the stack ``rules``;
    returns shape (rules, P)."""
    return _angular_sum(TransformExpr.momentum(g, 0), pts, 0, 0, rules)[..., 0]


@lru_cache(maxsize=None)
def _iljl_matrix(n, m, l):
    """Matrix of i^l j^l on S^m in canonical coordinates (exact, as floats)."""
    rows = list(canonical_indices(n, m))
    mat = np.zeros((len(rows), len(rows)))
    for col, jdx in enumerate(rows):
        basis = SymTensor(n, m, {jdx: Fraction(1)})
        t = i_metric(j_metric(basis, l), l)
        for r, idx in enumerate(rows):
            mat[r, col] = float(t.get(idx))
    return mat


def verify_momentum_moment_identity(f: PolyBumpField, pts, k, rules):
    """Residual tensors of the momentum-data reduction identity at each point
    of the (P, n) array ``pts``, by each rule of the stack ``rules``; returns
    (rules, P, dim S^(m-k)) in canonical order.

    LHS integrates xi^(.(m-k)) J^k f at the base point; RHS combines
    x-contracted divergences delta^r N^r f (foot-point path, one sinogram per
    r for all points and rules), so the two sides are quadratures of
    genuinely different integrands.
    """
    if not 0 <= k <= f.m:
        raise ValueError("k out of range")
    n, rank = f.n, f.m - k
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    lhs = _angular_sum(TransformExpr.momentum(f, k), pts, 0, rank, rules)
    rhs = np.zeros_like(lhs)
    for r in range(k + 1):
        coeff = (-1.0) ** (k - r) * math.comb(k, r) / math.factorial(r)
        div = _foot_point_sum(f, r, pts, 0, f.m - r, rules) * float(math.factorial(r))
        cols = {idx: c for c, idx in enumerate(canonical_indices(n, f.m - r))}
        for c, idx in enumerate(canonical_indices(n, rank)):
            # j_contract(x^(.(k-r)), .) on every point: the tail runs over all
            # ordered index tuples, its weight the product of x's components
            total = np.zeros(lhs.shape[:2])
            for tail in itertools.product(range(n), repeat=k - r):
                weight = np.ones(len(pts))
                for i in sorted(tail):
                    weight = weight * pts[:, i]
                total = total + div[..., cols[tuple(sorted(idx + tail))]] * weight
            rhs[..., c] += total * coeff
    return lhs - rhs


def _delta_np_expr(f, p, comp_idx):
    """Expression for (delta^p N^p_m f)_{comp} before sphere integration.

    Base-point form: p! sum_l C(p,l) <x,xi>^{p-l} xi^{comp} J^l f(x, xi).
    """
    n = f.n
    expr = None
    xiexp = _xi_monomial_exps(comp_idx, n)
    for l in range(p + 1):
        pref = {}
        for (wx, wxi), wc in dot_power_terms(n, p - l).items():
            pref[(wx, tuple(a + b for a, b in zip(wxi, xiexp)))] = float(wc)
        term = TransformExpr.momentum(f, l).mul_prefactor(pref)
        term = term.scale(math.comb(p, l))
        expr = term if expr is None else expr + term
    return expr.scale(math.factorial(p))


def _g_tensor_exprs(f, k, r):
    """Expressions for the components of the auxiliary tensor G_{m-r}."""
    n, m = f.n, f.m
    rank = m - r
    inner = {}
    for kidx in canonical_indices(n, rank):
        e = None
        for p in range(r + 1):
            coeff = (-1.0) ** (r - p) * math.comb(r, p) / math.factorial(p)
            for aidx in canonical_indices(n, r - p):
                sub = _delta_np_expr(f, p, tuple(sorted(kidx + aidx)))
                pref = {(_xi_monomial_exps(aidx, n), (0,) * n):
                        coeff * multiplicity(aidx)}
                term = sub.mul_prefactor(pref)
                e = term if e is None else e + term
        inner[kidx] = e
    idx_list = list(canonical_indices(n, rank))
    gexprs = {}
    for kidx in canonical_indices(n, rank):
        e = None
        for l in range(rank // 2 + 1):
            bmat = _iljl_matrix(n, rank, l)
            cl = float(c_constant(l, rank, n))
            row = idx_list.index(kidx)
            for ci, cidx in enumerate(idx_list):
                w = bmat[row, ci]
                if w == 0.0:
                    continue
                term = inner[cidx].scale(cl * w)
                e = term if e is None else e + term
        gexprs[kidx] = e
    return gexprs


def momentum_key_rhs_exprs(f: PolyBumpField, k):
    """One TransformExpr per output component of the momentum key identity."""
    n, m = f.n, f.m
    gexprs = {r: _g_tensor_exprs(f, k, r) for r in range(k + 1)}
    out = {}
    for key in _pair_rows(n, m - k, (k,)):
        pairs, (fixed,) = key
        total = None
        for r in range(k + 1):
            coeff = (-1.0) ** r * math.comb(k, r)
            for (der_i, rest_i), wgt in _position_splits(fixed, (r, k - r)):
                acc = None
                for comp_ax, der_ax, sign in pair_alternations(pairs):
                    gkey = tuple(sorted(comp_ax + tuple(rest_i)))
                    term = gexprs[r][gkey].dx_multi(tuple(sorted(der_ax)))
                    term = term.scale(sign / 2.0 ** (m - k))
                    acc = term if acc is None else acc + term
                term = acc.dx_multi(tuple(sorted(der_i))).scale(coeff * float(wgt))
                total = term if total is None else total + term
        out[key] = total
    return out


def verify_momentum_key_identity(f: PolyBumpField, pts, k, rules):
    """Residuals of the momentum key identity at each point of the (P, n)
    array ``pts``, by each rule of the stack ``rules``: {component key:
    (rules, P) array}."""
    m = f.m
    if not 0 <= k <= m:
        raise ValueError("k out of range")
    rkf = generalized_R(f, k)
    residuals = {}
    for key, expr in momentum_key_rhs_exprs(f, k).items():
        lhs = math.factorial(m) * n0_scalar(rkf.component_field(key), pts, rules)
        residuals[key] = lhs - _angular_sum(expr, pts, 0, 0, rules)[..., 0]
    return residuals
