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
  per distinct such sum, which depends only on l and on how many axis-0
  indices the output term's x-prefactor and component hold together.  Only
  the box of E cells per axis that holds the field's
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
kept only in ``helmholtz_decompose_oracle``, an independent route.  The
multipliers of d and delta are i_w and j_w, applied by ``_apply_sym`` with
one multiply-add of a spectrum per nonzero (axis, row, column) entry of the
exact per-axis tables of ``symtensor.sym_maps``, never as dense
per-frequency matrices; the split applies j_w to f and i_w to its solution
the same way, and assembles its Gram j_w i_w entry by entry from the exact
products j_{e_a} i_{e_b} times w_a w_b.  All of them read one cached,
read-only frequency mesh per (N, L, n) and the field's cached ``spectrum``.
The j_x contractions of the moment identity read the same tables.  The key
identities weight J^r f by the rows of the sphere IBP weight
sum_l c_{l,s} i^l j^l xi^(.s), read from ``spherequad._ibp_weights``, the
table that ``verify_ibp`` reads.

Spatial derivatives of normal operators are never taken by differencing
quadrature output; they are moved onto the field inside the line integral via
``TransformExpr``, whose atoms read the field's exact derivative levels.

Angular sums come in two forms, each reducing with w xi^I per point over the
(point, rule node) pairs:

* foot-point lines, the normal operators N_m^k and delta^r N_m^k:
  ``_foot_point_sum`` backprojects a compiled sinogram, with the extra
  weight <x,xi>^p.  On the line through the foot point x - <x,xi>xi,
  J_m^k f is a per-node polynomial in the coordinates s of x on xi^perp
  times (rho^2 - |s|^2)^(e+1/2), built with the chord kernel's helpers;
  each pair costs one Horner evaluation and one power, and a line that
  misses is set to +0 by one masked store, every step written into buffers
  allocated once per call;
* base-point lines, any ``TransformExpr`` (the key identities, N_0 and the
  xi-moment integrals): ``_angular_sum`` runs that chord kernel itself.

Both take a stack of sphere rules and return one result per rule, so a
convergence case runs all its rule degrees through one sinogram per (field,
order), and through one chord-kernel call per block of lines for all the
expressions of an identity (``xray.eval_exprs``).  They go through the
(point, node) pairs of all the rules in blocks of at most ``LINE_BLOCK`` =
2^14, and every point adds each rule's nodes in rule order onto that rule's
running total.  A line's chord value and a node's sinogram row do not depend
on the other lines or nodes of their batch, so neither a point's value nor a
rule's depends on the batch or the stack it comes in: each rule's sums are
bitwise those of a one-rule call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .polyfield import (PolyBumpField, _pair_rows, _position_splits, generalized_R,
                        pair_alternations)
from .spherequad import SphereRule, _ibp_weights
from .symtensor import canonical_indices, multiplicity, sym_dim, sym_maps
from .xray import (TANGENCY_TOL, TransformExpr, eval_exprs, _chord_moment, _int_power,
                   _monomial_table, _monomials, _rowdot, _shifted, _xi_monomial_exps)


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
    -L/2 + (L/N)*index.  The array is made read-only at construction (not
    copied), so the cached ``spectrum`` always describes the samples.
    """

    def __init__(self, n, m, N, L, comps):
        self.n = n
        self.m = m
        self.N = N
        self.L = float(L)
        self.comps = np.asarray(comps, dtype=float)
        self.comps.flags.writeable = False
        if self.comps.shape != (sym_dim(n, m),) + (N,) * n:
            raise ValueError("component array has wrong shape")

    @classmethod
    def sample(cls, field: PolyBumpField, N, L):
        """Sample a bump field, by ``PolyBumpField.values`` on the mesh; its
        support must sit well inside the box."""
        if float(field.rho) > L / 4 + 1e-12:
            raise ValueError("support must leave a margin of at least L/4")
        axes = [np.arange(N) * (L / N) - L / 2 for _ in range(field.n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        return cls(field.n, field.m, N, L, field.values(mesh))

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

    def _combine(self, other, op):
        """``op`` of the component arrays of two fields that share n, m, N
        and L."""
        if (self.n, self.m, self.N, self.L) != (other.n, other.m, other.N, other.L):
            raise ValueError("fields differ in dimension, rank, grid size or box")
        return GridTensorField(self.n, self.m, self.N, self.L, op(self.comps, other.comps))

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __add__(self, other):
        return self._combine(other, np.add)

    @cached_property
    def spectrum(self):
        """Half spectra of the components, taken once and read-only: ``rfftn``
        over the grid axes, the last axis keeping the frequencies 0 .. N//2."""
        spec = np.fft.rfftn(self.comps, axes=tuple(range(1, self.n + 1)))
        spec.flags.writeable = False
        return spec


def _irfft(spec, N, n):
    """Real fields from half spectra over the last n axes (the inverse of
    ``GridTensorField.spectrum``)."""
    return np.fft.irfftn(spec, s=(N,) * n, axes=tuple(range(spec.ndim - n, spec.ndim)))


@lru_cache(maxsize=None)
def _omega_mesh(N, L, n):
    """Half-spectrum frequencies, shape (N, ..., N, N//2 + 1, n): the last
    axis holds the ``rfftn`` bins 0 .. N//2, Nyquist zeroed as in ``_omega``.
    Cached and read-only: every spectral operator shares one mesh per grid."""
    om = _omega(N, L)
    oms = [om] * (n - 1) + [om[:N // 2 + 1]]
    mesh = np.stack(np.meshgrid(*oms, indexing="ij"), axis=-1)
    mesh.flags.writeable = False
    return mesh


def _apply_sym(table, w, spec):
    """sum_a w_a T_a applied to a stack of spectra ``spec`` (components
    first), T_a the exact per-axis ``sym_maps`` table ``table[a]``: one
    multiply-add per nonzero (a, r, c) entry, taken row by row in column
    order.  Each (r, c) is nonzero for one axis at most, so the entry
    T_a[r, c] w_a of i_w or j_w is rounded once, as in the dense matrix."""
    out = np.zeros((table.shape[1],) + spec.shape[1:], dtype=spec.dtype)
    for r, c, a in zip(*np.nonzero(table.transpose(1, 2, 0))):
        out[r] += float(table[a, r, c]) * w[..., a] * spec[c]
    return out


def d_field(v: GridTensorField) -> GridTensorField:
    """Spectral symmetrized derivative, rank m -> m+1: the multiplier 1j i_w."""
    w = _omega_mesh(v.N, v.L, v.n)
    dv = 1j * _apply_sym(sym_maps(v.n, v.m + 1)[0], w, v.spectrum)
    return GridTensorField(v.n, v.m + 1, v.N, v.L, _irfft(dv, v.N, v.n))


def delta_field(f: GridTensorField) -> GridTensorField:
    """Spectral divergence, rank m -> m-1: the multiplier 1j j_w."""
    if f.m < 1:
        raise ValueError("divergence needs rank >= 1")
    w = _omega_mesh(f.N, f.L, f.n)
    df = 1j * _apply_sym(sym_maps(f.n, f.m)[1], w, f.spectrum)
    return GridTensorField(f.n, f.m - 1, f.N, f.L, _irfft(df, f.N, f.n))


@lru_cache(maxsize=None)
def _gram_terms(n, m):
    """The Gram j_w i_w on S^(m-1) as a quadratic form in w: entries
    (r, c, a, b, coefficient) with a <= b, the coefficient the exact sum of
    (j_{e_a} i_{e_b})[r, c] over both orders of the pair (a, b)."""
    imul, jcon = sym_maps(n, m)
    terms = []
    for a in range(n):
        for b in range(a, n):
            prod = jcon[a].dot(imul[b])
            if b > a:
                prod = prod + jcon[b].dot(imul[a])
            terms += [(r, c, a, b, float(prod[r, c])) for r, c in zip(*np.nonzero(prod))]
    return tuple(sorted(terms))


def _split_system(f: GridTensorField, w):
    """The per-bin normal equations of the split, components first: the
    Gram matrices j_w i_w, shape (d, d, *bins), and the right-hand sides
    j_w fhat, shape (d, *bins), d = dim S^(m-1).  Bins with w = 0 (the zero
    frequency and the zeroed Nyquist bins) get the identity and zero."""
    d = sym_dim(f.n, f.m - 1)
    rhs = _apply_sym(sym_maps(f.n, f.m)[1], w, f.spectrum)
    gram = np.zeros((d, d) + w.shape[:-1])
    for r, c, a, b, coef in _gram_terms(f.n, f.m):
        gram[r, c] += coef * (w[..., a] * w[..., b])
    dead = np.logical_and.reduce([w[..., a] == 0 for a in range(f.n)])
    gram[:, :, dead] = np.eye(d)[:, :, None]
    rhs[:, dead] = 0.0
    return gram, rhs


def _bins_first(a, k):
    """View of a components-first array with k leading component axes as
    (P, components), P the number of bins."""
    flat = a.reshape(a.shape[:k] + (-1,))
    return flat.transpose((k,) + tuple(range(k)))


def solenoidal_decompose(f: GridTensorField):
    """Per-frequency least-squares split f = sf + d v with delta sf = 0.

    The zero frequency (and the zeroed Nyquist bins) carry no potential
    part; constants are divergence-free, so they belong to sf.
    """
    sf, ivhat = _solenoidal_split(f)
    return sf, GridTensorField(f.n, f.m - 1, f.N, f.L, _irfft(-1j * ivhat, f.N, f.n))


def solenoidal_part(f: GridTensorField) -> GridTensorField:
    """sf of ``solenoidal_decompose(f)``, bitwise, without transforming v."""
    return _solenoidal_split(f)[0]


def _solenoidal_split(f: GridTensorField):
    """sf of the split, and i vhat, the half spectra of v times i."""
    if f.m < 1:
        raise ValueError("decomposition needs rank >= 1")
    w = _omega_mesh(f.N, f.L, f.n)
    gram, rhs = _split_system(f, w)
    _solve_spd(_bins_first(gram, 2), _bins_first(rhs, 1))  # rhs := i * vhat
    shat = f.spectrum - _apply_sym(sym_maps(f.n, f.m)[0], w, rhs)
    return GridTensorField(f.n, f.m, f.N, f.L, _irfft(shat, f.N, f.n)), rhs


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


def _angular_sum(exprs, pts, rank, rules):
    """sum over rule nodes of w xi^I e(x, xi) per point x, for each
    expression e of the list ``exprs`` and each rule of the stack ``rules``.

    The line through x in direction xi is taken at the base point x itself,
    and each block of lines is one ``xray.eval_exprs`` call for all the
    expressions, so any ``TransformExpr`` works here, each bitwise as alone.
    Foot-point lines take the closed form of ``_foot_point_sum`` instead.
    I runs over the canonical indices of S^rank; returns an array
    (exprs, rules, points, dim S^rank).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    nodes, weights, bounds = _stacked_nodes(rules)
    owner = np.repeat(np.arange(len(rules)), np.diff(bounds)) * len(pts)
    out_exps = [_xi_monomial_exps(idx, exprs[0].n) for idx in canonical_indices(exprs[0].n, rank)]
    out = np.zeros((len(exprs), len(out_exps), len(rules) * len(pts)))
    count = len(pts) * len(nodes)
    for start in range(0, count, LINE_BLOCK):
        node, pt = np.divmod(np.arange(start, min(start + LINE_BLOCK, count)), len(pts))
        x, xi = pts[pt], nodes[node]
        vals = weights[node, None] * eval_exprs(exprs, x, xi)
        terms = vals.T[:, None, :] * np.array([_monomials(xi, e) for e in out_exps])
        # bincount adds in input order, so with the running totals first each
        # (expression, component, rule, point) adds its nodes in rule order
        bins = np.arange(out.size // out.shape[2])[:, None] * out.shape[2] + owner[node] + pt
        out = np.bincount(np.concatenate([np.arange(out.size), bins.ravel()]),
                          np.concatenate([out.ravel(), terms.ravel()]),
                          minlength=out.size).reshape(out.shape)
    return out.reshape(len(exprs), len(out_exps), len(rules), len(pts)).transpose(0, 2, 3, 1)


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
        exps, cs = core.compiled()
        for ex, c in zip(map(tuple, exps.tolist()), cs.tolist()):
            coeffs[ex] = coeffs.get(ex, 0.0) + c * pairing
    for exps in sorted(coeffs):
        q += coeffs[exps].reshape(col) * _monomial_table(monos, exps, forms)
    r = np.zeros(q.shape[:-1])
    for j in range(top // 2, -1, -1):
        r = float(f.rho)**2 * r - sum(_shifted(r, v, 2) for v in range(1, n))
        b = 2 * j - k
        if 0 <= b <= degree:
            r += _chord_moment(2 * j, e) * q[..., b]
    return basis, r


def _horner(coeffs, s, levels):
    """Per-node polynomials at s: coeffs (nodes, degrees per s axis) and s a
    list of (nodes, points) arrays, one per s coordinate.  A constant comes
    back as a (nodes, 1) view of ``coeffs``; otherwise level i of the
    recursion writes into ``levels[i]``, a (nodes, points) buffer, by one
    product and then steps in place."""
    if coeffs.ndim == 1:
        return coeffs[:, None]
    top = coeffs.shape[-1] - 1
    acc = _horner(coeffs[..., top], s[:-1], levels[1:])
    if top:
        acc = np.multiply(acc, s[-1], out=levels[0])
    for d in range(top - 1, -1, -1):
        acc += _horner(coeffs[..., d], s[:-1], levels[1:])
        if d:
            acc *= s[-1]
    return acc


def _node_dots(vecs, x, out, scratch):
    """<vecs[i], x[:, j]> into the (nodes, points) array ``out``, summed term
    by term through ``scratch``, so that no entry depends on the block it is
    computed in."""
    np.multiply(vecs[:, 0, None], x[0], out=out)
    for a in range(1, len(x)):
        out += np.multiply(vecs[:, a, None], x[a], out=scratch)
    return out


def _foot_point_sum(f: PolyBumpField, k, pts, p, rank, rules):
    """sum over rule nodes of w <x,xi>^p xi^I J_m^k f(x - <x,xi>xi, xi) per x,
    for each rule of the stack ``rules``; returns (rules, points, dim S^rank).

    The backprojection of a compiled sinogram: ``_foot_sinogram`` gives one
    polynomial R_xi per node of every rule, and each (point, node) pair then
    costs one evaluation of R_xi at s = E_xi x and one power of
    H = rho^2 - |s|^2.  Lines whose half-chord sqrt(H) is not above
    ``TANGENCY_TOL`` miss, as in the chord kernel: after the products, one
    masked store sets their values to +0.0, and a miss adds +0.  That is
    exact: every total starts at +0.0, and a sum of doubles is -0.0 only when
    both terms are, so no total is ever -0.0 and adding +0 leaves it as it
    is, bit for bit.  Points go through in contiguous (n, points) chunks of
    at most ``LINE_BLOCK``, their pairs as (nodes, points) blocks of at most
    ``LINE_BLOCK`` entries, and each point adds each rule's nodes one by one
    in rule order onto that rule's running total, (((0 + v_0) + v_1) + ...),
    whatever its chunk and block.  Every intermediate of a block is written
    into buffers allocated once per call, the leading entries of each taken
    as a contiguous block-shaped view.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != f.n:
        raise ValueError(f"points of shape {pts.shape} need a last axis of size n = {f.n}")
    nodes, weights, bounds = _stacked_nodes(rules)
    basis, r = _foot_sinogram(f, k, nodes)
    rho2 = float(f.rho)**2
    out_exps = [_xi_monomial_exps(idx, f.n) for idx in canonical_indices(f.n, rank)]
    node_w = np.stack([weights * _monomials(nodes, e) for e in out_exps], axis=1)
    out = np.zeros((len(rules), len(out_exps), len(pts)))
    pb = max(1, min(len(pts), LINE_BLOCK))
    nb = max(1, min(LINE_BLOCK // pb, len(nodes)))
    # n - 1 coordinates s, n - 1 Horner levels, H, the root, a spare for the
    # powers and a product scratch; then the miss mask and the weighted rows
    bufs = np.empty((2 * f.n + 2, nb * pb))
    miss_buf = np.empty(nb * pb, dtype=bool)
    rows_buf = np.empty(nb * len(out_exps) * pb)
    for p0 in range(0, len(pts), pb):
        x = np.ascontiguousarray(pts[p0:p0 + pb].T)
        totals = list(out[:, :, p0:p0 + pb])
        for n0 in range(0, len(nodes), nb):
            sl = slice(n0, n0 + nb)
            shape = (len(nodes[sl]), x.shape[1])
            *s, h, root, pw, tmp = bufs[:, :shape[0] * shape[1]].reshape((len(bufs),) + shape)
            s, levels = s[:f.n - 1], s[f.n - 1:]
            for j, sj in enumerate(s):
                _node_dots(basis[sl, j], x, sj, tmp)
            np.multiply(s[0], s[0], out=h)
            for c in s[1:]:
                h += np.multiply(c, c, out=tmp)
            np.subtract(rho2, h, out=h)
            np.maximum(h, 0.0, out=root)
            np.sqrt(root, out=root)
            miss = np.less_equal(root, TANGENCY_TOL, out=miss_buf[:h.size].reshape(shape))
            vals = np.multiply(_horner(r[sl], s, levels), _int_power(h, f.power, pw),
                               out=levels[0])
            vals *= root
            if p:
                vals *= _int_power(_node_dots(nodes[sl], x, h, tmp), p, pw)
            np.copyto(vals, 0.0, where=miss)
            rows = np.multiply(node_w[sl, :, None], vals[:, None, :],
                               out=rows_buf[:h.size * len(out_exps)].reshape(
                                   shape[0], len(out_exps), shape[1]))
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
    alpha shares |x|^beta and the sub-cell nodes, and the rows are written
    into one preallocated array.
    """
    def values(x, y):
        r = np.add.outer(x * x, y * y)
        rpow = _int_power(np.sqrt(r, out=r), beta, np.empty_like(r))
        out = np.empty((degree + 1,) + rpow.shape)
        for a in range(degree + 1):
            np.multiply.outer(_int_power(x, a), _int_power(y, degree - a), out=out[a])
            out[a] /= rpow
        return out

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
    the degree 2m+2k-l family is transformed once.  The term of output
    component i and x^(.2k-l) component p convolves field component j with
    the kernel row holding t + (axis-0 count of j) zeros, t the axis-0 count
    of p + i, so its sum over j depends on (l, t) alone: each of the
    2k - l + m + 1 values of t per l takes one inverse transform, shared by
    every (p, i) with that count.  Each output still adds its p terms in
    canonical order, which runs t down for a fixed i.

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
    zeros = [idx.count(0) for idx in idx_list]
    for l in range(k + 1):
        beta = 2 * m + 2 * k - 2 * l + n - 1
        coeff = 2.0 * math.comb(k, l) * (-1) ** l
        kernel_hat = np.fft.rfft2(_kernel_family(offsets, h, 2 * m + 2 * k - l, beta), s=shape)
        # the weighted x-prefactor of the x^(.2k-l) component with a zeros
        weighted = {}
        for p_idx in canonical_indices(n, 2 * k - l):
            a, b = _xi_monomial_exps(p_idx, n)
            weighted[a] = ((coeff * multiplicity(p_idx) * h**n)
                           * np.multiply.outer(_int_power(coords, a), _int_power(coords, b)))
        for t in range(2 * k - l + m, -1, -1):
            acc = 0.0
            for jpos, j_idx in enumerate(idx_list):
                acc = acc + multiplicity(j_idx) * field_hat[jpos] * kernel_hat[t + zeros[jpos]]
            conv = np.fft.irfft2(acc, s=shape)[keep]
            for c in range(len(idx_list)):
                if t - zeros[c] in weighted:
                    out[c] += weighted[t - zeros[c]] * conv
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
                  for idx, fhat, mono in zip(idx_list, f.spectrum, monos))
    scale = 4.0 * np.pi * inv
    out = _irfft(np.stack([scale * mono * pairing for mono in monos]), N, n)
    return GridTensorField(n, m, N, f.L, out)


# ---------------------------------------------------------------------------
# identity verification: scalar normal operator, moment and key identities
# ---------------------------------------------------------------------------

def n0_scalar(g: PolyBumpField, pts, rules):
    """N_0 g(x) = int_S J_0 g(x, xi) dS for a scalar field, at each point
    of the (P, n) array ``pts`` and by each rule of the stack ``rules``;
    returns shape (rules, P)."""
    return _angular_sum([TransformExpr.momentum(g, 0)], pts, 0, rules)[0, ..., 0]


def verify_momentum_moment_identity(f: PolyBumpField, pts, k, rules):
    """Residual tensors of the momentum-data reduction identity at each point
    of the (P, n) array ``pts``, by each rule of the stack ``rules``; returns
    (rules, P, dim S^(m-k)) in canonical order.

    LHS integrates xi^(.(m-k)) J^k f at the base point; RHS combines
    x-contracted divergences j_x^(k-r) delta^r N^r f (foot-point path, one
    sinogram per r for all points and rules), so the two sides are
    quadratures of genuinely different integrands.  Each j_x contracts one
    slot through the ``sym_maps`` table, for every point at once.
    """
    if not 0 <= k <= f.m:
        raise ValueError("k out of range")
    n, rank = f.n, f.m - k
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    lhs = _angular_sum([TransformExpr.momentum(f, k)], pts, rank, rules)[0]
    rhs = np.zeros_like(lhs)
    for r in range(k + 1):
        div = _foot_point_sum(f, r, pts, 0, f.m - r, rules)
        for p in range(f.m - r, rank, -1):
            jcon = sym_maps(n, p)[1].astype(float)
            div = sum(pts[:, a, None] * (div @ jcon[a].T) for a in range(n))
        rhs += div * ((-1) ** (k - r) * math.comb(k, r))
    return lhs - rhs


def _g_tensor_exprs(f, r):
    """Integrands of the components of the auxiliary tensor G_{m-r}, times
    a denominator d: for each canonical index I of S^(m-r), J^r f times the
    integer xi-polynomial in row I of ``spherequad._ibp_weights(n, m - r)``,
    d sum_l c_{l,m-r} (i^l j^l xi^(.(m-r)))_I.  Returns ({I: expression}, d).

    The paper's sum_p (-1)^(r-p) C(r,p)/p! j_x^(r-p) delta^p N^p f integrates
    this: delta^p N^p f integrates p! sum_l C(p,l) <x,xi>^(p-l) xi^(.(m-p))
    J^l f, so the coefficient of J^l f is sum_{p=l}^{r} (-1)^(r-p) C(r,p)
    C(p,l) = C(r,l) (1 - 1)^(r-l), which is 1 at l = r and 0 otherwise.  The
    weight rows drop the factor |xi|^(2l) of i^l j^l xi^(.(m-r)).  That is
    exact here: the builders take only x-derivatives of these expressions,
    and ``_angular_sum`` evaluates them on unit rule nodes.
    """
    multisets, exps, matrix, den, _ = _ibp_weights(f.n, f.m - r)
    jr = TransformExpr.momentum(f, r)
    return {idx: jr.mul_prefactor({e: w for e, w in zip(exps, row) if w})
            for idx, row in zip(multisets, matrix.tolist())}, den


def momentum_key_rhs_exprs(f: PolyBumpField, k):
    """One TransformExpr per output component of the momentum key identity:
    2^(k-m) sum_r (-1)^r C(k, r) times the average of the pair-alternated
    x-derivatives of G_{m-r} over the C(k, r) splits of the fixed indices,
    that is (-1)^r times their sum, summed in integers over one denominator."""
    n, m = f.n, f.m
    gexprs = [_g_tensor_exprs(f, r) for r in range(k + 1)]
    den = math.lcm(*(d for _, d in gexprs))
    out = {}
    for key in _pair_rows(n, m - k, (k,)):
        pairs, (fixed,) = key
        total = TransformExpr(n)
        for r, (g, d) in enumerate(gexprs):
            for (der_i, rest_i), _ in _position_splits(fixed, (r, k - r)):
                for comp_ax, der_ax, sign in pair_alternations(pairs):
                    mult = (-1) ** r * sign * (den // d)
                    axes = der_ax + der_i
                    for (xie, base, dm, tp), c in g[tuple(sorted(comp_ax + rest_i))].terms.items():
                        total._add(mult * c, xie, base, tuple(sorted(dm + axes)), tp)
        out[key] = TransformExpr(n, {t: Fraction(c, 2 ** (m - k) * den)
                                     for t, c in total.terms.items()})
    return out


def verify_momentum_key_identity(f: PolyBumpField, pts, k, rules):
    """Residuals of the momentum key identity at each point of the (P, n)
    array ``pts``, by each rule of the stack ``rules``: {component key:
    (rules, P) array}.  Both sides of every component, m! N_0((R^k f)_key)
    and its right-hand side, go through one ``_angular_sum`` call."""
    m = f.m
    if not 0 <= k <= m:
        raise ValueError("k out of range")
    rkf = generalized_R(f, k)
    rhs = momentum_key_rhs_exprs(f, k)
    lhs = [TransformExpr.momentum(rkf.component_field(key), 0) for key in rhs]
    sums = _angular_sum(lhs + list(rhs.values()), pts, 0, rules)[..., 0]
    return {key: math.factorial(m) * sums[i] - sums[len(lhs) + i] for i, key in enumerate(rhs)}
