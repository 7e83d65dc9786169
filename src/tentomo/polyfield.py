"""Exact compactly supported polynomial tensor fields and differential operators.

A field component is ``q(x) * (rho^2 - |x|^2)^power`` inside the ball of
radius rho and identically zero outside; ``q`` is an exact polynomial.  Such
a component is C^{power-1} on all of R^n, and one derivative trades one unit
of ``power`` for one extra polynomial degree.  For a quadric
Q = c0 + sigma |x|^2, here B = rho^2 - |x|^2,

    D_i [q * Q^e] = (Q * D_i q + 2 sigma e x_i q) * Q^{e-1},

and ``polynomial.quadric_derivative`` forms that numerator, here and in the
quotient rule of ``spherequad.HomogeneousRational`` (Q = |xi|^2).

Keeping the bump factor symbolic means every operator here (symmetrized
derivative, divergence, the order-m curvature-type operators W and R and
their generalizations) is computed in exact rational arithmetic on small
polynomial cores.  ``rho=None`` selects unrestricted polynomial mode (global
polynomial fields, differential operators only).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from fractions import Fraction

from .polynomial import Polynomial, linear_combination, quadric_derivative
from .symtensor import SymTensor, canonical_indices, multiplicity


class BudgetError(ValueError):
    """Smoothness budget exhausted: not enough bump power for a derivative."""


def bump_core_diff(core: Polynomial, axis: int, rho, power: int) -> Polynomial:
    """Core of d/dx_axis applied to core*B^power, at power-1: the quadric
    derivative with c0 = rho^2, sigma = -1, or d/dx_axis when rho is None."""
    return core.diff(axis) if rho is None else \
        quadric_derivative(core, axis, rho * rho, -1, power)


@functools.lru_cache(maxsize=None)
def _bump_base(n, rho):
    """B = rho^2 - |x|^2."""
    return rho * rho - sum((Polynomial.variable(n, i) ** 2 for i in range(n)),
                           Polynomial.zero(n))


class BumpPoly:
    """Scalar field q(x)*(rho^2-|x|^2)^power on the ball, zero outside."""

    __slots__ = ("n", "core", "rho", "power", "_dcache")

    def __init__(self, n, core, rho, power):
        self.n = n
        self.core = core
        self.rho = rho
        self.power = 0 if rho is None else power
        self._dcache = {}

    def is_zero(self):
        return self.core.is_zero()

    def diff(self, axis) -> "BumpPoly":
        got = self._dcache.get(axis)
        if got is not None:
            return got
        _require_budget(self, 1)
        out = BumpPoly(self.n, bump_core_diff(self.core, axis, self.rho, self.power),
                       self.rho, self.power - 1)
        self._dcache[axis] = out
        return out

    def diff_multi(self, axes) -> "BumpPoly":
        """Iterated derivative along a sorted axis tuple; instances shared."""
        if not axes:
            return self
        return self.diff_multi(axes[:-1]).diff(axes[-1])

    def align_power(self, power) -> Polynomial:
        """Core re-expressed at a lower bump power (multiplying in B)."""
        if power > self.power:
            raise ValueError("can only lower the bump power")
        if power == self.power:
            return self.core
        return self.core * _bump_base(self.n, self.rho) ** (self.power - power)

    def __add__(self, other):
        if self.rho != other.rho:
            raise ValueError("support mismatch")
        e = min(self.power, other.power)
        return BumpPoly(self.n, self.align_power(e) + other.align_power(e), self.rho, e)

    def __sub__(self, other):
        return self + BumpPoly(other.n, -other.core, other.rho, other.power)

    def __mul__(self, other):
        if isinstance(other, BumpPoly):
            if self.rho != other.rho:
                raise ValueError("support mismatch")
            return BumpPoly(self.n, self.core * other.core, self.rho,
                            self.power + other.power)
        return BumpPoly(self.n, self.core * other, self.rho, self.power)

    __rmul__ = __mul__

    def value(self, x):
        if self.rho is not None:
            r2 = sum(c * c for c in x)
            if r2 > self.rho * self.rho:
                return 0.0
            return self.core.eval(x) * (self.rho * self.rho - r2) ** self.power
        return self.core.eval(x)

    def eval_many(self, points):
        """Vectorized float evaluation at points of shape (..., n)."""
        import numpy as np
        pts = np.asarray(points, dtype=float)
        vals = self.core.eval_many(pts)
        if self.rho is not None:
            r2 = (pts * pts).sum(axis=-1)
            b = float(self.rho) ** 2 - r2
            vals = np.where(b > 0, vals * np.maximum(b, 0.0) ** self.power, 0.0)
        return vals


class PolyBumpField:
    """Symmetric rank-m tensor field with shared bump factor.

    ``cores`` maps canonical index tuples to polynomial cores; absent keys
    are zero.  All components share (rho, power), so differential operators
    act uniformly.
    """

    def __init__(self, n, m, rho, power, cores=None):
        self.n = n
        self.m = m
        self.rho = rho
        self.power = 0 if rho is None else power
        self.cores = {}
        self._bumps = {}
        self._deriv = {}
        if cores:
            for idx, p in cores.items():
                if not p.is_zero():
                    self.cores[tuple(sorted(idx))] = p

    # -- access ---------------------------------------------------------

    def core(self, idx) -> Polynomial:
        return self.cores.get(tuple(sorted(idx)), Polynomial.zero(self.n))

    def component(self, idx) -> BumpPoly:
        key = tuple(sorted(idx))
        bp = self._bumps.get(key)
        if bp is None:
            bp = BumpPoly(self.n, self.core(key), self.rho, self.power)
            self._bumps[key] = bp
        return bp

    def derivative_core(self, idx, axes) -> Polynomial:
        """Core of the |axes|-fold mixed partial of component idx."""
        key = (tuple(sorted(idx)), tuple(sorted(axes)))
        got = self._deriv.get(key)
        if got is None:
            got = self.component(key[0]).diff_multi(key[1]).core
            self._deriv[key] = got
        return got

    def is_zero(self):
        return all(p.is_zero() for p in self.cores.values())

    def value(self, x) -> SymTensor:
        out = SymTensor(self.n, self.m)
        for idx in self.cores:
            out[idx] = self.component(idx).value(x)
        return out

    def map_cores(self, func) -> "PolyBumpField":
        return PolyBumpField(self.n, self.m, self.rho, self.power,
                             {i: func(p) for i, p in self.cores.items()})

    def __add__(self, other):
        if (self.n, self.m, self.rho) != (other.n, other.m, other.rho):
            raise ValueError("field shape/support mismatch")
        e = min(self.power, other.power)
        cores = {}
        for idx in set(self.cores) | set(other.cores):
            a = BumpPoly(self.n, self.core(idx), self.rho, self.power).align_power(e)
            b = BumpPoly(self.n, other.core(idx), other.rho, other.power).align_power(e)
            cores[idx] = a + b
        return PolyBumpField(self.n, self.m, self.rho, e, cores)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "PolyBumpField":
        return self.map_cores(lambda p: p * c)

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
        rho = None if self.rho is None else {
            "num": Fraction(self.rho).numerator, "den": Fraction(self.rho).denominator}
        return {"n": self.n, "m": self.m, "rho": rho, "s": self.power,
                "components": comps}

    @classmethod
    def from_json_dict(cls, doc) -> "PolyBumpField":
        rho = doc["rho"]
        if isinstance(rho, dict):
            rho = Fraction(rho["num"], rho["den"])
        elif rho is not None:
            rho = Fraction(rho)
        cores = {}
        for comp in doc["components"]:
            terms = {tuple(t["exps"]): Fraction(t["num"], t["den"])
                     for t in comp["terms"]}
            cores[tuple(comp["index"])] = Polynomial(doc["n"], terms)
        return cls(doc["n"], doc["m"], rho, doc["s"], cores)


def random_bump_field(n, m, rng, rho=1, power=4, degree=2, label="field"):
    """Random field with small integer polynomial cores."""
    from .polynomial import random_polynomial
    child = rng.split(label)
    cores = {}
    for idx in canonical_indices(n, m):
        cores[idx] = random_polynomial(n, degree, child)
    return PolyBumpField(n, m, rho, power, cores)


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------

def inner_derivative(f: PolyBumpField) -> PolyBumpField:
    """Symmetrized derivative d: rank m -> m+1, bump power - 1."""
    _require_budget(f, 1)
    m1 = f.m + 1
    cores = {}
    for idx in canonical_indices(f.n, m1):
        cores[idx] = linear_combination(
            f.n, ((f.derivative_core(idx[:p] + idx[p + 1:], (idx[p],)), 1)
                  for p in range(m1)), Fraction(1, m1))
    return PolyBumpField(f.n, m1, f.rho, f.power - 1 if f.rho is not None else 0, cores)


def divergence(f: PolyBumpField) -> PolyBumpField:
    """Divergence: contract one derivative against the last slot."""
    if f.m == 0:
        raise ValueError("divergence undefined for rank 0")
    _require_budget(f, 1)
    cores = {}
    for idx in canonical_indices(f.n, f.m - 1):
        cores[idx] = linear_combination(
            f.n, ((f.derivative_core(idx + (a,), (a,)), 1) for a in range(f.n)))
    return PolyBumpField(f.n, f.m - 1, f.rho, f.power - 1 if f.rho is not None else 0, cores)


def laplacian_power(f: PolyBumpField, times: int = 1) -> PolyBumpField:
    """Componentwise Laplacian iterated ``times`` times."""
    _require_budget(f, 2 * times)
    out = f
    for _ in range(times):
        cores = {}
        for idx in canonical_indices(out.n, out.m):
            cores[idx] = linear_combination(
                out.n, ((out.derivative_core(idx, (a, a)), 1) for a in range(out.n)))
        out = PolyBumpField(out.n, out.m, out.rho,
                            out.power - 2 if out.rho is not None else 0, cores)
    return out


def potential_field(v: PolyBumpField, order: int = 1) -> PolyBumpField:
    """d^order v."""
    f = v
    for _ in range(order):
        f = inner_derivative(f)
    return f


def _require_budget(f, need):
    if f.rho is not None and f.power < need:
        raise BudgetError(f"need {need} derivatives, bump power is {f.power}")


# ---------------------------------------------------------------------------
# pair-structured fields (images of W, R and their generalizations)
# ---------------------------------------------------------------------------

class PairSymTensorField:
    """Tensor field with ``npairs`` skew pairs then symmetric blocks.

    Slot layout: (a_1 b_1 a_2 b_2 ... a_P b_P | block_1 | block_2 ...).
    Components are skew within each pair, symmetric under exchanging whole
    pairs, and symmetric within each block; only canonical representatives
    are stored.  Values are polynomial cores at a shared bump power.
    """

    def __init__(self, n, npairs, blocks, rho, power, comps=None):
        self.n = n
        self.npairs = npairs
        self.blocks = tuple(blocks)
        self.rho = rho
        self.power = 0 if rho is None else power
        self.comps = {}
        if comps:
            for key, p in comps.items():
                if not p.is_zero():
                    self.comps[key] = p

    @property
    def nslots(self):
        return 2 * self.npairs + sum(self.blocks)

    def canonicalize(self, idx):
        """(key, sign) for a full index tuple, or None if forced zero."""
        idx = tuple(idx)
        if len(idx) != self.nslots:
            raise ValueError("index length mismatch")
        sign = 1
        pairs = []
        for t in range(self.npairs):
            a, b = idx[2 * t], idx[2 * t + 1]
            if a == b:
                return None
            if a > b:
                a, b = b, a
                sign = -sign
            pairs.append((a, b))
        pairs.sort()
        pos = 2 * self.npairs
        blocks = []
        for size in self.blocks:
            blocks.append(tuple(sorted(idx[pos:pos + size])))
            pos += size
        return (tuple(pairs), tuple(blocks)), sign

    def component_core(self, idx) -> Polynomial:
        got = self.canonicalize(idx)
        if got is None:
            return Polynomial.zero(self.n)
        key, sign = got
        p = self.comps.get(key)
        if p is None:
            return Polynomial.zero(self.n)
        return p if sign == 1 else -p

    def component(self, idx) -> BumpPoly:
        return BumpPoly(self.n, self.component_core(idx), self.rho, self.power)

    def canonical_keys(self):
        pair_universe = [(a, b) for a in range(self.n) for b in range(a + 1, self.n)]
        pair_choices = itertools.combinations_with_replacement(pair_universe, self.npairs)
        block_choices = [list(canonical_indices(self.n, size)) for size in self.blocks]
        for pairs in pair_choices:
            for blocks in itertools.product(*block_choices):
                yield (tuple(pairs), tuple(blocks))

    def key_to_index(self, key):
        pairs, blocks = key
        idx = []
        for a, b in pairs:
            idx.extend((a, b))
        for blk in blocks:
            idx.extend(blk)
        return tuple(idx)

    def is_zero(self):
        return all(p.is_zero() for p in self.comps.values())

    def __sub__(self, other):
        if (self.n, self.npairs, self.blocks, self.rho) != \
                (other.n, other.npairs, other.blocks, other.rho):
            raise ValueError("structure mismatch")
        e = min(self.power, other.power)
        comps = {}
        for key in set(self.comps) | set(other.comps):
            a = BumpPoly(self.n, self.comps.get(key, Polynomial.zero(self.n)),
                         self.rho, self.power).align_power(e)
            b = BumpPoly(self.n, other.comps.get(key, Polynomial.zero(self.n)),
                         other.rho, other.power).align_power(e)
            comps[key] = a - b
        return PairSymTensorField(self.n, self.npairs, self.blocks, self.rho, e, comps)

    def scale(self, c):
        return PairSymTensorField(self.n, self.npairs, self.blocks, self.rho,
                                  self.power, {k: p * c for k, p in self.comps.items()})


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
    """One component of W f from the defining alternating-sum formula."""
    m = f.m
    total = Polynomial.zero(f.n)
    for p in range(m + 1):
        sign = (-1) ** p * math.comb(m, p)
        acc = Polynomial.zero(f.n)
        for (i_comp, i_der), wi in _position_splits(i_group, (m - p, p)):
            for (j_comp, j_der), wj in _position_splits(j_group, (p, m - p)):
                term = f.derivative_core(i_comp + j_comp, tuple(sorted(i_der + j_der)))
                acc = acc + term * (wi * wj)
        total = total + acc * sign
    return total


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
    npairs = len(pairs_idx) // 2
    total = Polynomial.zero(f.n)
    for comp, der, sign in pair_alternations(zip(pairs_idx[0::2], pairs_idx[1::2])):
        term = f.derivative_core(comp + tuple(fixed), tuple(sorted(der)))
        total = total + term * Fraction(sign, 2 ** npairs)
    return total


def operator_R(f: PolyBumpField) -> PairSymTensorField:
    """R f: pairwise-alternated form of the Saint-Venant operator."""
    return generalized_R(f, 0)


# ---------------------------------------------------------------------------
# compiled stencils
# ---------------------------------------------------------------------------

#: (term generator, n, m, k) -> compiled stencil; filled on first use.
_STENCILS = {}


def _stencil(terms, n, m, k):
    """The stencil of one whole-field operator at (n, m, k), compiled once.

    ``terms(n, m, k)`` yields ``(output key, atom, weight)`` with
    ``Fraction`` weights; an atom is whatever the operator reads, such as a
    (component, sorted derivative axes) pair of a field or a canonical key
    of a pair-structured field.  The stencil is ``(rows, denom)``: ``rows``
    maps each output key to its merged atoms ``((atom, numerator), ...)``
    with ``int`` numerators, and ``denom`` is one ``int`` shared by every
    row, so an output component is ``sum(numerator * core(atom)) / denom``.
    """
    got = _STENCILS.get((terms, n, m, k))
    if got is None:
        rows = collections.defaultdict(collections.Counter)
        for key, atom, weight in terms(n, m, k):
            rows[key][atom] += weight
        denom = math.lcm(*(w.denominator for row in rows.values() for w in row.values()))
        got = ({key: tuple((atom, int(w * denom)) for atom, w in row.items() if w)
                for key, row in rows.items()}, denom)
        _STENCILS[(terms, n, m, k)] = got
    return got


def _apply_stencil(stencil, n, atom_core, scale=1):
    """{output key: component} of a stencil applied to atom_core."""
    rows, denom = stencil
    scale = scale * Fraction(1, denom)
    return {key: linear_combination(n, ((atom_core(atom), c) for atom, c in atoms),
                                    scale)
            for key, atoms in rows.items()}


def _w_terms(n, m, k):
    """W^k: the symmetrized alternating sum over the m-k derivative slots."""
    mk = m - k
    for key in PairSymTensorField(n, 0, (mk, m), None, 0).canonical_keys():
        p_group, qi_group = key[1]
        for l in range(mk + 1):
            sign = (-1) ** l * math.comb(mk, l)
            for (p_comp, p_der), wp in _position_splits(p_group, (mk - l, l)):
                for (q_comp, q_der, i_fixed), wq in _position_splits(
                        qi_group, (l, mk - l, k)):
                    yield key, (tuple(sorted(p_comp + q_comp + i_fixed)),
                                tuple(sorted(p_der + q_der))), sign * wp * wq


def _r_terms(n, m, k):
    """R^k: pairwise alternation of the m-k derivative slots."""
    for key in PairSymTensorField(n, m - k, (k,), None, 0).canonical_keys():
        pairs, (fixed,) = key
        for comp, der, sign in pair_alternations(pairs):
            yield key, (tuple(sorted(comp + fixed)), tuple(sorted(der))), \
                Fraction(sign, 2 ** (m - k))


def _lower_r_terms(n, m, k):
    """R^{k-1} from R^k: atoms are (R^k key, derivative axis)."""
    src = PairSymTensorField(n, m - k, (k,), None, 0)
    for key in PairSymTensorField(n, m - k + 1, (k - 1,), None, 0).canonical_keys():
        pairs, (fixed,) = key
        old_flat = tuple(x for pq in pairs[:-1] for x in pq)
        for (a,), (b,), sign in pair_alternations(pairs[-1:]):
            got = src.canonicalize(old_flat + (a,) + fixed)
            if got is not None:
                yield key, (got[0], b), Fraction(sign * got[1], 2)


def _r_to_w_terms(n, m, k):
    """W^k from R^k: 2^(m-k) times the average over both symmetrizations."""
    mk = m - k
    src = PairSymTensorField(n, mk, (k,), None, 0)
    count = math.factorial(mk) * math.factorial(m)
    for key in PairSymTensorField(n, 0, (mk, m), None, 0).canonical_keys():
        p_group, qi_group = key[1]
        for p_perm in itertools.permutations(p_group):
            for qi_perm in itertools.permutations(qi_group):
                flat = [x for t in range(mk) for x in (p_perm[t], qi_perm[t])]
                got = src.canonicalize(flat + list(qi_perm[mk:]))
                if got is not None:
                    yield key, got[0], Fraction(2 ** mk * got[1], count)


def _w_to_r_terms(n, m, k):
    """R^k from W^k without the constant: pairwise alternation over 2^(m-k)."""
    mk = m - k
    src = PairSymTensorField(n, 0, (mk, m), None, 0)
    for key in PairSymTensorField(n, mk, (k,), None, 0).canonical_keys():
        pairs, (fixed,) = key
        for p_part, q_part, sign in pair_alternations(pairs):
            yield key, src.canonicalize(p_part + q_part + fixed)[0], \
                Fraction(sign, 2 ** mk)


def generalized_W(f: PolyBumpField, k: int) -> PairSymTensorField:
    """Order-(m-k) generalization; k=0 is W, k=m the identity embedding."""
    m = f.m
    if not 0 <= k <= m:
        raise ValueError("k out of range")
    _require_budget(f, m - k)
    comps = _apply_stencil(_stencil(_w_terms, f.n, m, k), f.n,
                           lambda atom: f.derivative_core(*atom))
    return PairSymTensorField(f.n, 0, (m - k, m), f.rho,
                              f.power - (m - k) if f.rho is not None else 0, comps)


def generalized_W_component(f: PolyBumpField, k, p_group, qi_group) -> Polynomial:
    """One component of W^k f; qi_group holds the m-k q's and the k i's.

    The component is symmetric within each group, so any ordering reads the
    stencil row of the sorted groups.
    """
    rows, denom = _stencil(_w_terms, f.n, f.m, k)
    atoms = rows.get(((), (tuple(sorted(p_group)), tuple(sorted(qi_group)))), ())
    return linear_combination(f.n, ((f.derivative_core(*atom), c) for atom, c in atoms),
                              Fraction(1, denom))


def generalized_R(f: PolyBumpField, k: int) -> PairSymTensorField:
    """R^k f: R applied to each rank-(m-k) slice with k indices held fixed."""
    m = f.m
    if not 0 <= k <= m:
        raise ValueError("k out of range")
    _require_budget(f, m - k)
    comps = _apply_stencil(_stencil(_r_terms, f.n, m, k), f.n,
                           lambda atom: f.derivative_core(*atom))
    return PairSymTensorField(f.n, m - k, (k,), f.rho,
                              f.power - (m - k) if f.rho is not None else 0, comps)


def lower_generalized_R(rkf: PairSymTensorField) -> PairSymTensorField:
    """Recover R^{k-1} f from R^k f by one more derivative and alternation.

    The extra pair (c, q) is built by alternating a derivative in q against a
    previously fixed index c; pair-exchange symmetry lets it be listed last.
    """
    k = rkf.blocks[0]
    if k == 0:
        raise ValueError("already at k=0")
    _require_budget(rkf, 1)

    @functools.lru_cache(maxsize=None)
    def atom_core(atom):
        key, axis = atom
        return bump_core_diff(rkf.comps.get(key, Polynomial.zero(rkf.n)), axis,
                              rkf.rho, rkf.power)

    comps = _apply_stencil(_stencil(_lower_r_terms, rkf.n, rkf.npairs + k, k),
                           rkf.n, atom_core)
    return PairSymTensorField(rkf.n, rkf.npairs + 1, (k - 1,), rkf.rho,
                              rkf.power - 1 if rkf.rho is not None else 0, comps)


# ---------------------------------------------------------------------------
# W <-> R conversions
# ---------------------------------------------------------------------------

def r_to_w(rf: PairSymTensorField, m: int) -> PairSymTensorField:
    """2^m sigma sigma applied to an R image, producing the W image."""
    return generalized_r_to_w(rf, m, 0)


def w_to_r(wf: PairSymTensorField, m: int, constant=None) -> PairSymTensorField:
    """(1/(m+1)) alpha...alpha applied to a W image, producing the R image."""
    return generalized_w_to_r(wf, m, 0, constant)


def _key_atom(field: PairSymTensorField):
    zero = Polynomial.zero(field.n)
    return lambda key: field.comps.get(key, zero)


def generalized_r_to_w(rkf: PairSymTensorField, m: int, k: int) -> PairSymTensorField:
    """W^k from R^k: 2^{m-k} with both partial symmetrizations."""
    mk = m - k
    if rkf.npairs != mk or rkf.blocks != (k,):
        raise ValueError("input does not have R^k structure")
    comps = _apply_stencil(_stencil(_r_to_w_terms, rkf.n, m, k), rkf.n, _key_atom(rkf))
    return PairSymTensorField(rkf.n, 0, (mk, m), rkf.rho, rkf.power, comps)


def generalized_w_to_r(wkf: PairSymTensorField, m: int, k: int,
                       constant=None) -> PairSymTensorField:
    """R^k from W^k via pairwise alternation.

    ``constant`` defaults to binom(m,k)/(m-k+1); pass the empirically solved
    value when the default fails the exact round trip (see
    ``solve_w_to_r_constant``).
    """
    mk = m - k
    if wkf.npairs != 0 or wkf.blocks != (mk, m):
        raise ValueError("input does not have W^k structure")
    if constant is None:
        constant = Fraction(math.comb(m, k), mk + 1)
    comps = _apply_stencil(_stencil(_w_to_r_terms, wkf.n, m, k), wkf.n, _key_atom(wkf),
                           constant)
    return PairSymTensorField(wkf.n, mk, (k,), wkf.rho, wkf.power, comps)


def solve_w_to_r_constant(n, m, k, rng, trials=3):
    """Scalar c with R^k f = c * (alpha...alpha W^k f), solved exactly.

    Returns the verified rational constant, or None when no single scalar
    works (which would falsify the equivalence, not just the constant).
    """
    ratio = None
    for t in range(trials):
        f = random_bump_field(n, m, rng, power=m - k + 1, degree=2,
                              label=f"wr-const-{t}")
        lhs = generalized_R(f, k)
        alt = generalized_w_to_r(generalized_W(f, k), m, k, constant=Fraction(1))
        for key in lhs.canonical_keys():
            lp = lhs.comps.get(key, Polynomial.zero(n))
            rp = alt.comps.get(key, Polynomial.zero(n))
            if rp.is_zero():
                if not lp.is_zero():
                    return None
                continue
            exps = next(iter(rp.terms))
            cand = Fraction(lp.terms.get(exps, Fraction(0))) / Fraction(rp.terms[exps])
            if ratio is None:
                ratio = cand
            if not (rp * ratio - lp).is_zero():
                return None
    return ratio


def field_l2_inner(f: PolyBumpField, g: PolyBumpField):
    """Exact L2 pairing of two fields over the common support ball.

    Uses the closed-form integral of monomial-times-bump over the ball, so
    duality identities verify to exact rational (times pi) equality.
    """
    if (f.n, f.m, f.rho) != (g.n, g.m, g.rho) or f.rho is None:
        raise ValueError("fields must share rank and compact support")
    from .spherequad import PiRational, integrate_core_over_ball
    total = PiRational(0)
    for idx in canonical_indices(f.n, f.m):
        a = f.core(idx)
        b = g.core(idx)
        if a.is_zero() or b.is_zero():
            continue
        total = total + integrate_core_over_ball(
            a * b, f.power + g.power, f.rho) * multiplicity(idx)
    return total
