"""Exact compactly supported polynomial tensor fields and differential operators.

A field component is ``q(x) * (rho^2 - |x|^2)^power`` inside the ball of
radius rho and identically zero outside; ``q`` is an exact polynomial.  Such
a component is C^{power-1} on all of R^n, and one derivative trades one unit
of ``power`` for one extra polynomial degree.  For a quadric
Q = c0 + sigma |x|^2, here B = rho^2 - |x|^2,

    D_i [q * Q^e] = (Q * D_i q + 2 sigma e x_i q) * Q^{e-1},

and ``CoreStack.quadric_level`` forms that numerator for a level of a
derivative tree of cores, here and in the quotient rule of
``spherequad.verify_ibp`` (Q = |xi|^2); ``polynomial.quadric_derivative``
forms it for one dict core, and ``PolyBumpField.derivative_core`` folds it
over an axis multiset as the independent oracle.

Keeping the bump factor symbolic means every operator here (symmetrized
derivative, divergence, the order-m curvature-type operators W
and R, their generalizations and the conversions between them) is computed
in exact rational arithmetic on small polynomial cores.  A field stores its
cores once, as one ``CoreStack`` with one row per canonical component, in
int64 under the stack's proven bound and in Python ints above it; cores
given as a dict (``int`` or ``Fraction`` coefficients) are stacked at
construction.  It keeps derivative levels, level j the j-fold partials of
all components, and every operator is a stencil compiled once per
(operator, n, m, k) into one integer matrix over the levels it reads,
applied as one matrix product.  The levels are the one derivative engine:
the transforms read them too, each level materialised as ``Polynomial``
cores once by ``level_cores``, and the dict views (``cores``, ``comps``,
``core``, ``component_core``) are the nonzero rows of level 0.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from .polynomial import (CoreStack, Polynomial, exact_array, linear_combination,
                         quadric_derivative, random_polynomial, tree_multisets)
from .spherequad import PiRational, integrate_core_over_ball
from .symtensor import SymTensor, canonical_indices, multiplicity


class BudgetError(ValueError):
    """Smoothness budget exhausted: not enough bump power for a derivative."""


class _StackedField:
    """Rows of exact cores at one bump power, stored once as the
    ``CoreStack`` ``stack`` whose row r is the component ``rows()[r]``.
    A dict of ``int`` or ``Fraction`` cores (absent keys are zero) is
    stacked at construction; float coefficients raise ``TypeError``."""

    def __init__(self, n, rho, power, cores, stack):
        self.n = n
        self.rho = rho
        self.power = power
        if stack is None:
            cores, zero = cores or {}, Polynomial.zero(n)
            if not set(cores) <= set(self.rows()):
                raise ValueError("cores keyed by non-canonical components")
            stack = CoreStack.from_polys(n, [cores.get(key, zero) for key in self.rows()])
        self.stack = stack
        self._levels = [stack]
        self._level_polys = {}

    @functools.cached_property
    def cores(self):
        """The nonzero rows of ``level_cores(0)``, by component key."""
        return {key: p for key, p in zip(self.rows(), self.level_cores(0)) if p.terms}

    def is_zero(self):
        return self.stack.is_zero()

    def derivative_level(self, j) -> CoreStack:
        """Cores of the j-fold mixed partials of every row, one block per axis
        multiset of ``tree_multisets``: a ``quadric_level`` step of level
        j - 1, kept."""
        _require_budget(self, j)
        levels = self._levels
        while len(levels) <= j:
            i = len(levels) - 1
            levels.append(levels[i].quadric_level(i, self.rho * self.rho, -1, self.power - i))
        return levels[j]

    def level_cores(self, j):
        """The rows of ``derivative_level(j)`` as ``Polynomial`` cores, built
        once: row r of the block of multiset I is at I's position in
        ``tree_multisets`` times len(rows()), plus r."""
        got = self._level_polys.get(j)
        if got is None:
            got = self._level_polys[j] = self.derivative_level(j).polys()
        return got


@functools.lru_cache(maxsize=None)
def _field_rows(n, m):
    return tuple(canonical_indices(n, m))


class PolyBumpField(_StackedField):
    """Symmetric rank-m tensor field with shared bump factor.

    ``cores`` maps index tuples to polynomial cores; absent keys are zero.
    All components share (rho, power), so differential operators act
    uniformly.  ``stack`` holds one row per canonical index in
    ``canonical_indices`` order.
    """

    def __init__(self, n, m, rho, power, cores=None, stack=None):
        self.m = m
        super().__init__(n, rho, power, cores and
                         {tuple(sorted(idx)): p for idx, p in cores.items()}, stack)
        self._dcores = {}

    def rows(self):
        return _field_rows(self.n, self.m)

    # -- access ---------------------------------------------------------

    def core(self, idx) -> Polynomial:
        return self.cores.get(tuple(sorted(idx)), Polynomial.zero(self.n))

    def derivative_core(self, idx, axes) -> Polynomial:
        """Core of the |axes|-fold mixed partial of component idx, on the
        dict path: the independent oracle of ``level_cores``, a memoised
        fold of ``quadric_derivative`` over the sorted axes."""
        key, axes = tuple(sorted(idx)), tuple(sorted(axes))
        if not axes:
            return self.core(key)
        got = self._dcores.get((key, axes))
        if got is None:
            _require_budget(self, len(axes))
            got = self._dcores[key, axes] = quadric_derivative(
                self.derivative_core(key, axes[:-1]), axes[-1], self.rho * self.rho, -1,
                self.power - len(axes) + 1)
        return got

    def value(self, x) -> SymTensor:
        """The field at the point x: 0 outside the support ball."""
        r2, rho2 = sum(c * c for c in x), self.rho * self.rho
        out = SymTensor(self.n, self.m)
        for idx, core in self.cores.items():
            out[idx] = 0.0 if r2 > rho2 else core.eval(x) * (rho2 - r2) ** self.power
        return out

    # -- serialization ----------------------------------------------------

    def to_json_dict(self):
        comps = []
        for idx in sorted(self.cores):
            terms = []
            for exps in sorted(self.cores[idx].terms):
                c = Fraction(self.cores[idx].terms[exps])
                terms.append({"exps": list(exps), "num": c.numerator,
                              "den": c.denominator})
            comps.append({"index": list(idx), "terms": terms})
        rho = Fraction(self.rho)
        return {"n": self.n, "m": self.m, "rho": {"num": rho.numerator, "den": rho.denominator},
                "s": self.power, "components": comps}


def random_bump_field(n, m, rng, rho=1, power=4, degree=2, label="field"):
    """Random field with small integer polynomial cores."""
    child = rng.split(label)
    cores = {}
    for idx in canonical_indices(n, m):
        cores[idx] = random_polynomial(n, degree, child)
    return PolyBumpField(n, m, rho, power, cores)


def _require_budget(f, need):
    if f.power < need:
        raise BudgetError(f"need {need} derivatives, bump power is {f.power}")


# ---------------------------------------------------------------------------
# pair-structured fields (images of W, R and their generalizations)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _pair_rows(n, npairs, blocks):
    pair_universe = [(a, b) for a in range(n) for b in range(a + 1, n)]
    block_choices = [list(canonical_indices(n, size)) for size in blocks]
    return tuple((tuple(pairs), tuple(blocks))
                 for pairs in itertools.combinations_with_replacement(pair_universe, npairs)
                 for blocks in itertools.product(*block_choices))


def canonical_key(npairs, blocks, idx):
    """(key, sign) of a full index tuple in the layout of ``npairs`` skew
    pairs then symmetric ``blocks``, or None if the component is forced zero."""
    idx = tuple(idx)
    if len(idx) != 2 * npairs + sum(blocks):
        raise ValueError("index length mismatch")
    sign = 1
    pairs = []
    for t in range(npairs):
        a, b = idx[2 * t], idx[2 * t + 1]
        if a == b:
            return None
        if a > b:
            a, b = b, a
            sign = -sign
        pairs.append((a, b))
    pairs.sort()
    pos = 2 * npairs
    keys = []
    for size in blocks:
        keys.append(tuple(sorted(idx[pos:pos + size])))
        pos += size
    return (tuple(pairs), tuple(keys)), sign


class PairSymTensorField(_StackedField):
    """Tensor field with ``npairs`` skew pairs then symmetric blocks.

    Slot layout: (a_1 b_1 a_2 b_2 ... a_P b_P | block_1 | block_2 ...).
    Components are skew within each pair, symmetric under exchanging whole
    pairs, and symmetric within each block; only canonical representatives
    are stored, as the rows of ``stack`` in ``canonical_keys`` order, and
    ``comps`` maps their keys to the nonzero cores.  Values are polynomial
    cores at a shared bump power.
    """

    def __init__(self, n, npairs, blocks, rho, power, comps=None, stack=None):
        self.npairs = npairs
        self.blocks = tuple(blocks)
        super().__init__(n, rho, power, comps, stack)

    @property
    def comps(self):
        return self.cores

    def component_core(self, idx) -> Polynomial:
        got = canonical_key(self.npairs, self.blocks, idx)
        if got is None:
            return Polynomial.zero(self.n)
        key, sign = got
        p = self.comps.get(key, Polynomial.zero(self.n))
        return p if sign == 1 else -p

    def component_field(self, key) -> PolyBumpField:
        """The component of canonical key ``key`` as a scalar field: its row
        of ``stack``."""
        r = self.rows().index(key)
        return PolyBumpField(self.n, 0, self.rho, self.power, stack=CoreStack(
            self.n, self.stack.arr[r:r + 1], self.stack.den, self.stack.bound))

    def canonical_keys(self):
        return _pair_rows(self.n, self.npairs, self.blocks)

    rows = canonical_keys

    def key_to_index(self, key):
        pairs, blocks = key
        idx = []
        for a, b in pairs:
            idx.extend((a, b))
        for blk in blocks:
            idx.extend(blk)
        return tuple(idx)

    def __sub__(self, other):
        if (self.n, self.npairs, self.blocks, self.rho, self.power) != \
                (other.n, other.npairs, other.blocks, other.rho, other.power):
            raise ValueError("structure or bump power mismatch")
        return PairSymTensorField(self.n, self.npairs, self.blocks, self.rho, self.power,
                                  stack=self.stack - other.stack)


# ---------------------------------------------------------------------------
# compiled stencils
# ---------------------------------------------------------------------------

#: Compiled stencils: ``(out_rows, columns, lengths, matrix, denom, rowsum)``.
Stencil = collections.namedtuple("Stencil", "out_rows columns lengths matrix denom rowsum")

#: (term generator, n, m, k) -> Stencil; filled on first use.
_STENCILS = {}


def _stencil(terms, n, m, k) -> Stencil:
    """The stencil of one whole-field operator at (n, m, k), compiled once.

    ``terms(n, m, k)`` returns ``(out_rows, in_rows, triples)``: the row
    keys of output and input, and ``(out row, (in row, source), weight)``
    triples with ``Fraction`` weights, a source being the sorted axis tuple
    of the input derivative read, () for the input itself.  The columns of
    the integer matrix run over the rows of the field's derivative levels of
    the ``lengths`` some source has, stacked in turn: by length, then by
    ``tree_multisets``, then by ``in_rows``.  An output row is
    ``matrix @ atoms / denom``, and ``rowsum`` the largest absolute row sum.
    Every order comes from the canonical key lists, none from a set or a
    dict, so the matrix does not depend on the hash seed.
    """
    got = _STENCILS.get((terms, n, m, k))
    if got is None:
        out_rows, in_rows, triples = terms(n, m, k)
        triples = list(triples)
        lengths = sorted({len(src) for _, (_, src), _ in triples})
        sources = [src for j in lengths for src in tree_multisets(n, j)]
        out_pos = {key: i for i, key in enumerate(out_rows)}
        col_pos = {(row, src): j * len(in_rows) + r for j, src in enumerate(sources)
                   for r, row in enumerate(in_rows)}
        denom = math.lcm(*{w.denominator for _, _, w in triples})
        matrix = np.zeros((len(out_rows), len(col_pos)), dtype=object)
        for key, atom, w in triples:
            matrix[out_pos[key], col_pos[atom]] += w.numerator * (denom // w.denominator)
        got = Stencil(tuple(out_rows), tuple(col_pos), lengths, exact_array(matrix), denom,
                      int(np.abs(matrix).sum(axis=1).max(initial=0)))
        _STENCILS[(terms, n, m, k)] = got
    return got


def _apply(stencil: Stencil, field: _StackedField, scale=1) -> CoreStack:
    """scale times the stencil's output rows, over the derivative levels of
    ``field`` that it reads."""
    atoms = CoreStack.vstack(field.n, [field.derivative_level(j) for j in stencil.lengths])
    out = atoms.combine(stencil.matrix, stencil.denom, stencil.rowsum)
    return out if scale == 1 else out.scale(scale)


def _d_terms(n, m, k):
    """Symmetrized derivative d: rank m -> m + 1."""
    out = _field_rows(n, m + 1)
    return out, _field_rows(n, m), (
        (idx, (idx[:p] + idx[p + 1:], (idx[p],)), Fraction(1, m + 1))
        for idx in out for p in range(m + 1))


def _div_terms(n, m, k):
    """Divergence: one derivative contracted against the last slot."""
    out = _field_rows(n, m - 1)
    return out, _field_rows(n, m), (
        (idx, (tuple(sorted(idx + (a,))), (a,)), Fraction(1))
        for idx in out for a in range(n))


def _w_terms(n, m, k):
    """W^k: the symmetrized alternating sum over the m-k derivative slots."""
    mk = m - k
    out = _pair_rows(n, 0, (mk, m))

    def triples():
        for key in out:
            p_group, qi_group = key[1]
            for l in range(mk + 1):
                sign = (-1) ** l * math.comb(mk, l)
                for (p_comp, p_der), wp in _position_splits(p_group, (mk - l, l)):
                    wp *= sign
                    for (q_comp, q_der, i_fixed), wq in _position_splits(
                            qi_group, (l, mk - l, k)):
                        yield key, (tuple(sorted(p_comp + q_comp + i_fixed)),
                                    tuple(sorted(p_der + q_der))), wp * wq
    return out, _field_rows(n, m), triples()


def _r_terms(n, m, k):
    """R^k: pairwise alternation of the m-k derivative slots."""
    out = _pair_rows(n, m - k, (k,))
    return out, _field_rows(n, m), (
        (key, (tuple(sorted(comp + key[1][0])), tuple(sorted(der))),
         Fraction(sign, 2 ** (m - k)))
        for key in out for comp, der, sign in pair_alternations(key[0]))


def _lower_r_terms(n, m, k):
    """R^{k-1} from R^k: atoms are (R^k key, one derivative axis)."""
    out = _pair_rows(n, m - k + 1, (k - 1,))

    def triples():
        for key in out:
            pairs, (fixed,) = key
            old_flat = tuple(x for pq in pairs[:-1] for x in pq)
            for (a,), (b,), sign in pair_alternations(pairs[-1:]):
                got = canonical_key(m - k, (k,), old_flat + (a,) + fixed)
                if got is not None:
                    yield key, (got[0], (b,)), Fraction(sign * got[1], 2)
    return out, _pair_rows(n, m - k, (k,)), triples()


def _r_to_w_terms(n, m, k):
    """W^k from R^k: 2^(m-k) times the average over both symmetrizations."""
    mk = m - k
    count = math.factorial(mk) * math.factorial(m)
    out = _pair_rows(n, 0, (mk, m))

    def triples():
        for key in out:
            p_group, qi_group = key[1]
            for p_perm in itertools.permutations(p_group):
                for qi_perm in itertools.permutations(qi_group):
                    flat = [x for t in range(mk) for x in (p_perm[t], qi_perm[t])]
                    got = canonical_key(mk, (k,), flat + list(qi_perm[mk:]))
                    if got is not None:
                        yield key, (got[0], ()), Fraction(2 ** mk * got[1], count)
    return out, _pair_rows(n, mk, (k,)), triples()


def _w_to_r_terms(n, m, k):
    """R^k from W^k without the constant: pairwise alternation over 2^(m-k)."""
    mk = m - k
    out = _pair_rows(n, mk, (k,))
    return out, _pair_rows(n, 0, (mk, m)), (
        (key, (canonical_key(0, (mk, m), p_part + q_part + key[1][0])[0], ()),
         Fraction(sign, 2 ** mk))
        for key in out for p_part, q_part, sign in pair_alternations(key[0]))


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------

def inner_derivative(f: PolyBumpField) -> PolyBumpField:
    """Symmetrized derivative d: rank m -> m+1, bump power - 1."""
    return PolyBumpField(f.n, f.m + 1, f.rho, f.power - 1,
                         stack=_apply(_stencil(_d_terms, f.n, f.m, 0), f))


def divergence(f: PolyBumpField) -> PolyBumpField:
    """Divergence: contract one derivative against the last slot."""
    if f.m == 0:
        raise ValueError("divergence undefined for rank 0")
    return PolyBumpField(f.n, f.m - 1, f.rho, f.power - 1,
                         stack=_apply(_stencil(_div_terms, f.n, f.m, 0), f))


def potential_field(v: PolyBumpField, order: int = 1) -> PolyBumpField:
    """d^order v."""
    f = v
    for _ in range(order):
        f = inner_derivative(f)
    return f


# ---------------------------------------------------------------------------
# the order-m operators W and R
# ---------------------------------------------------------------------------

def _position_splits(values, sizes):
    """Average of a function of multiset splits under full symmetrization.

    Yields ((group_0, group_1, ...), weight): all ways to assign the slot
    positions of ``values`` to role groups of the given sizes, each with
    weight 1/multinomial.  Symmetrizing a summand that depends only on which
    values land in which role reduces to exactly this average.
    """
    total = math.factorial(len(values))
    for s in sizes:
        total //= math.factorial(s)
    weight = Fraction(1, total)

    def rec(remaining_positions, size_list):
        if not size_list:
            yield ()
            return
        for combo in itertools.combinations(remaining_positions, size_list[0]):
            rest = tuple(p for p in remaining_positions if p not in combo)
            for tail in rec(rest, size_list[1:]):
                yield (tuple(values[p] for p in combo),) + tail

    for groups in rec(tuple(range(len(values))), list(sizes)):
        yield groups, weight


def saint_venant_W_component(f: PolyBumpField, i_group, j_group) -> Polynomial:
    """One component of W f from the defining alternating-sum formula, on
    the dict derivative cores."""
    m = f.m
    terms = [(f.derivative_core(i_comp + j_comp, tuple(sorted(i_der + j_der))),
              (-1) ** p * math.comb(m, p) * wi * wj)
             for p in range(m + 1)
             for (i_comp, i_der), wi in _position_splits(i_group, (m - p, p))
             for (j_comp, j_der), wj in _position_splits(j_group, (p, m - p))]
    den = math.lcm(*(w.denominator for _, w in terms))
    return linear_combination(f.n, ((core, int(w * den)) for core, w in terms),
                              Fraction(1, den))


def saint_venant_W(f: PolyBumpField) -> PairSymTensorField:
    """W f: order-m operator, output symmetric in each of two m-index groups."""
    return generalized_W(f, 0)


def pair_alternations(pairs):
    """(first, second, sign) for each way to swap a subset of the (a, b) pairs.

    ``first`` and ``second`` collect each pair's leading and trailing index,
    ``sign`` is (-1)^swaps; swap patterns run in ``itertools.product`` order.
    """
    pairs = tuple(pairs)
    for flips in itertools.product((0, 1), repeat=len(pairs)):
        ordered = [(b, a) if flip else (a, b) for flip, (a, b) in zip(flips, pairs)]
        yield (tuple(a for a, _ in ordered), tuple(b for _, b in ordered),
               (-1) ** sum(flips))


def operator_R_component(f: PolyBumpField, pairs_idx, fixed=()) -> Polynomial:
    """alpha-alternated m-fold derivative; ``fixed`` are spectator indices."""
    return linear_combination(f.n, (
        (f.derivative_core(comp + tuple(fixed), tuple(sorted(der))), sign)
        for comp, der, sign in pair_alternations(zip(pairs_idx[0::2], pairs_idx[1::2]))),
        Fraction(1, 2 ** (len(pairs_idx) // 2)))


def operator_R(f: PolyBumpField) -> PairSymTensorField:
    """R f: pairwise-alternated form of the Saint-Venant operator."""
    return generalized_R(f, 0)


def generalized_W(f: PolyBumpField, k: int) -> PairSymTensorField:
    """Order-(m-k) generalization; k=0 is W, k=m the identity embedding."""
    m = f.m
    if not 0 <= k <= m:
        raise ValueError("k out of range")
    return PairSymTensorField(f.n, 0, (m - k, m), f.rho, f.power - (m - k),
                              stack=_apply(_stencil(_w_terms, f.n, m, k), f))


def generalized_W_component(f: PolyBumpField, k, p_group, qi_group) -> Polynomial:
    """One component of W^k f; qi_group holds the m-k q's and the k i's.

    The compiled stencil row on the dict derivative cores, summed by
    ``linear_combination``.  The component is symmetric within each group,
    so any ordering reads the stencil row of the sorted groups.
    """
    st = _stencil(_w_terms, f.n, f.m, k)
    key = ((), (tuple(sorted(p_group)), tuple(sorted(qi_group))))
    row = st.matrix[st.out_rows.index(key)]
    return linear_combination(f.n, ((f.derivative_core(*st.columns[j]), int(row[j]))
                                    for j in np.flatnonzero(row)), Fraction(1, st.denom))


def generalized_R(f: PolyBumpField, k: int) -> PairSymTensorField:
    """R^k f: R applied to each rank-(m-k) slice with k indices held fixed."""
    m = f.m
    if not 0 <= k <= m:
        raise ValueError("k out of range")
    return PairSymTensorField(f.n, m - k, (k,), f.rho, f.power - (m - k),
                              stack=_apply(_stencil(_r_terms, f.n, m, k), f))


def lower_generalized_R(rkf: PairSymTensorField) -> PairSymTensorField:
    """Recover R^{k-1} f from R^k f by one more derivative and alternation.

    The extra pair (c, q) is built by alternating a derivative in q against a
    previously fixed index c; pair-exchange symmetry lets it be listed last.
    """
    k = rkf.blocks[0]
    if k == 0:
        raise ValueError("already at k=0")
    stack = _apply(_stencil(_lower_r_terms, rkf.n, rkf.npairs + k, k), rkf)
    return PairSymTensorField(rkf.n, rkf.npairs + 1, (k - 1,), rkf.rho, rkf.power - 1,
                              stack=stack)


# ---------------------------------------------------------------------------
# W <-> R conversions
# ---------------------------------------------------------------------------

def r_to_w(rf: PairSymTensorField, m: int) -> PairSymTensorField:
    """2^m sigma sigma applied to an R image, producing the W image."""
    return generalized_r_to_w(rf, m, 0)


def w_to_r(wf: PairSymTensorField, m: int) -> PairSymTensorField:
    """(1/(m+1)) alpha...alpha applied to a W image, producing the R image."""
    return generalized_w_to_r(wf, m, 0)


def generalized_r_to_w(rkf: PairSymTensorField, m: int, k: int) -> PairSymTensorField:
    """W^k from R^k: 2^{m-k} with both partial symmetrizations."""
    mk = m - k
    if rkf.npairs != mk or rkf.blocks != (k,):
        raise ValueError("input does not have R^k structure")
    return PairSymTensorField(rkf.n, 0, (mk, m), rkf.rho, rkf.power,
                              stack=_apply(_stencil(_r_to_w_terms, rkf.n, m, k), rkf))


def generalized_w_to_r(wkf: PairSymTensorField, m: int, k: int) -> PairSymTensorField:
    """R^k from W^k: (k+1)/(m+1) times the pairwise alternation, which is
    1/(m+1) at k = 0 and the identity at k = m."""
    mk = m - k
    if wkf.npairs != 0 or wkf.blocks != (mk, m):
        raise ValueError("input does not have W^k structure")
    stack = _apply(_stencil(_w_to_r_terms, wkf.n, m, k), wkf, Fraction(k + 1, m + 1))
    return PairSymTensorField(wkf.n, mk, (k,), wkf.rho, wkf.power, stack=stack)


def field_l2_inner(f: PolyBumpField, g: PolyBumpField):
    """Exact L2 pairing of two fields over the common support ball.

    Uses the closed-form integral of monomial-times-bump over the ball, so
    duality identities verify to exact rational (times pi) equality.
    """
    if (f.n, f.m, f.rho) != (g.n, g.m, g.rho):
        raise ValueError("fields must share rank and support")
    total = PiRational(0)
    for idx in canonical_indices(f.n, f.m):
        a = f.core(idx)
        b = g.core(idx)
        if a.is_zero() or b.is_zero():
            continue
        total = total + integrate_core_over_ball(
            a * b, f.power + g.power, f.rho) * multiplicity(idx)
    return total
