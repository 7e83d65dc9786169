"""Finite-dimensional symmetric tensor algebra.

Rank-m tensors over R^n are tiny here (n <= 6, m <= 4 in practice).
Symmetric tensors are stored compressed: one scalar per non-decreasing index
tuple, of which there are C(n+m-1, m).

``SymTensor``, ``DenseTensor`` and their dict operators hold exact ``int``
and ``Fraction`` entries, loop over index tuples and divide exactly; float
tensor values are canonical arrays (``PolyBumpField.values``).  The algebra
suite checks the dict operators, and tests compare the tables against them.
``sym_maps(n, m)`` holds the exact canonical-coordinate matrices of i_{e_a}
and j_{e_a} for each axis a, and every i_y = sum_a y_a i_{e_a} or j_y matrix
of the package is built from it: the grid symbols, the moment identity's j_x
and the eta-product matrix of ``sym_power_rows``.  The metric pair of the IBP
identity and the key identities, sum_l c_{l,s} i^l j^l xi^(.s), is one exact
table, ``spherequad._ibp_weights``; tests compare it with ``i_metric`` and
``j_metric``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np


def sym_dim(n, m):
    """dim S^m(R^n) = C(n+m-1, m)."""
    return math.comb(n + m - 1, m)


def canonical_indices(n, m):
    """All non-decreasing index tuples of length m over {0..n-1}."""
    return itertools.combinations_with_replacement(range(n), m)


def multiplicity(idx):
    """Number of distinct permutations of the tuple: m!/prod(counts!)."""
    m = len(idx)
    denom = 1
    for c in Counter(idx).values():
        denom *= math.factorial(c)
    return math.factorial(m) // denom


class DenseTensor:
    """Full n^m array of scalars, stored sparsely as a dict."""

    def __init__(self, n, m, entries=None):
        self.n = n
        self.m = m
        self.entries = {}
        if entries:
            for idx, v in entries.items():
                if v != 0:
                    self.entries[tuple(idx)] = v

    @classmethod
    def from_function(cls, n, m, func):
        entries = {}
        for idx in itertools.product(range(n), repeat=m):
            v = func(idx)
            if v != 0:
                entries[idx] = v
        return cls(n, m, entries)

    def __getitem__(self, idx):
        return self.entries.get(tuple(idx), 0)

    def __setitem__(self, idx, v):
        if v == 0:
            self.entries.pop(tuple(idx), None)
        else:
            self.entries[tuple(idx)] = v


class SymTensor:
    """Symmetric tensor, one stored scalar per canonical index tuple."""

    def __init__(self, n, m, data=None):
        self.n = n
        self.m = m
        self.data = {}
        if data:
            for idx, v in data.items():
                self.data[tuple(sorted(idx))] = v

    @classmethod
    def from_vector(cls, n, vec):
        """Rank-1 tensor from a vector."""
        return cls(n, 1, {(i,): v for i, v in enumerate(vec) if v != 0})

    def get(self, idx):
        return self.data.get(tuple(sorted(idx)), 0)

    __getitem__ = get

    def set(self, idx, v):
        key = tuple(sorted(idx))
        if v == 0:
            self.data.pop(key, None)
        else:
            self.data[key] = v

    __setitem__ = set

    def to_dense(self):
        out = DenseTensor(self.n, self.m)
        for idx in itertools.product(range(self.n), repeat=self.m):
            v = self.get(idx)
            if v != 0:
                out[idx] = v
        return out

    def __mul__(self, scalar):
        return SymTensor(self.n, self.m,
                         {i: v * scalar for i, v in self.data.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SymTensor) or (self.n, self.m) != (other.n, other.m):
            return NotImplemented
        for idx in canonical_indices(self.n, self.m):
            if self.get(idx) != other.get(idx):
                return False
        return True

    def __repr__(self):
        return f"SymTensor(n={self.n}, m={self.m}, {self.data})"


def metric_tensor(n):
    """Euclidean metric delta_ij as a rank-2 SymTensor."""
    return SymTensor(n, 2, {(i, i): Fraction(1) for i in range(n)})


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def symmetrize(t: DenseTensor) -> SymTensor:
    """Average of t over all permutations of its m slots."""
    m = t.m
    fact = math.factorial(m)
    out = SymTensor(t.n, t.m)
    for idx in canonical_indices(t.n, t.m):
        total = 0
        for perm in itertools.permutations(idx):
            total = total + t[perm]
        out[idx] = Fraction(total, fact)
    return out


def sym_product(u: SymTensor, v: SymTensor) -> SymTensor:
    """Symmetrized tensor product u (.) v of rank m+k: entry I is the sum over
    the size-m sub-multisets J of I of prod_a C(c_a, j_a) u_J v_{I-J} / C(m+k, m),
    c_a and j_a counting axis a in I and J: the average over I's orderings."""
    if u.n != v.n:
        raise ValueError("dimension mismatch")
    m, k = u.m, v.m
    out = SymTensor(u.n, m + k)
    for idx in canonical_indices(u.n, m + k):
        total = 0
        for first, ways in Counter(itertools.combinations(idx, m)).items():
            rest = list(idx)
            for a in first:
                rest.remove(a)
            total = total + ways * u.get(first) * v.get(rest)
        out[idx] = Fraction(total, math.comb(m + k, m))
    return out


def sym_power(vec, m, n=None):
    """xi^(.m): dense entries are plain products of the components."""
    if n is None:
        n = len(vec)
    out = SymTensor(n, m)
    if m == 0:
        out[()] = 1
        return out
    for idx in canonical_indices(n, m):
        v = 1
        for i in idx:
            v = v * vec[i]
        out[idx] = v
    return out


def i_mul(u: SymTensor, f: SymTensor) -> SymTensor:
    """Symmetric multiplication by u; equals sym_product(u, f)."""
    return sym_product(u, f)


def j_contract(u: SymTensor, g: SymTensor) -> SymTensor:
    """Contract the trailing rank(u) slots of g against u (full summation)."""
    if u.n != g.n:
        raise ValueError("dimension mismatch")
    k, mk = u.m, g.m
    if mk < k:
        raise ValueError("rank(g) must be at least rank(u)")
    m = mk - k
    out = SymTensor(g.n, m)
    for idx in canonical_indices(g.n, m):
        total = 0
        for tail in itertools.product(range(g.n), repeat=k):
            uv = u.get(tail)
            if uv != 0:
                total = total + g.get(idx + tail) * uv
        out[idx] = total
    return out


def inner(u: SymTensor, v: SymTensor):
    """Full contraction over all n^m dense tuples (multiplicity-weighted)."""
    if (u.n, u.m) != (v.n, v.m):
        raise ValueError("shape mismatch")
    total = 0
    for idx in canonical_indices(u.n, u.m):
        uv = u.get(idx)
        vv = v.get(idx)
        if uv != 0 and vv != 0:
            total = total + multiplicity(idx) * uv * vv
    return total


def i_metric(f: SymTensor, times: int = 1) -> SymTensor:
    """i^times f: repeated symmetric multiplication by the metric."""
    g = metric_tensor(f.n)
    for _ in range(times):
        f = sym_product(g, f)
    return f


def j_metric(g: SymTensor, times: int = 1) -> SymTensor:
    """j^times g: repeated trace over the trailing slot pair."""
    met = metric_tensor(g.n)
    for _ in range(times):
        g = j_contract(met, g)
    return g


@lru_cache(maxsize=None)
def sym_maps(n, m):
    """Canonical-coordinate matrices of i_{e_a}: S^(m-1) -> S^m and
    j_{e_a}: S^m -> S^(m-1) for every axis a, m >= 1.

    Returns (imul, jcon), read-only object arrays of shape
    (n, dim S^m, dim S^(m-1)) and (n, dim S^(m-1), dim S^m):
    (e_a (.) u)_I = (c_a(I)/m) u_{I-a}, c_a(I) counting a in I, as a
    ``Fraction``, and (j_{e_a} g)_J = g_{J+a}, an ``int``.  Each (row,
    column) pair is nonzero for at most one axis, so i_y = sum_a y_a imul[a]
    in floats rounds each entry once.
    """
    if m < 1:
        raise ValueError("need rank >= 1")
    rows = {idx: r for r, idx in enumerate(canonical_indices(n, m))}
    cols = list(canonical_indices(n, m - 1))
    imul = np.zeros((n, len(rows), len(cols)), dtype=object)
    jcon = np.zeros((n, len(cols), len(rows)), dtype=object)
    for c, idx in enumerate(cols):
        for a in range(n):
            r = rows[tuple(sorted(idx + (a,)))]
            imul[a, r, c] = Fraction(idx.count(a) + 1, m)
            jcon[a, c, r] = 1
    imul.flags.writeable = jcon.flags.writeable = False
    return imul, jcon


def sym_power_rows(vectors, m):
    """The eta-product matrix of n vectors in R^n: row c, for each canonical
    c = (c1 <= .. <= cm), holds v_{c1} (.) ... (.) v_{cm} in canonical
    coordinates, built as i_{v_{c1}} ... i_{v_{cm}}(1) from the ``sym_maps``
    tables in floats."""
    n = len(vectors)
    if any(len(v) != n for v in vectors):
        raise ValueError("need exactly n vectors of dimension n")
    vecs = np.asarray(vectors, dtype=float)
    rows = {(): np.ones(1)}
    for p in range(1, m + 1):
        i_vec = np.einsum("ta,arc->trc", vecs, sym_maps(n, p)[0].astype(float))
        rows = {c: i_vec[c[0]] @ rows[c[1:]] for c in canonical_indices(n, p)}
    return np.array(list(rows.values()))


def sym_power_span_rank(rows) -> int:
    """Rank of an eta-product matrix of ``sym_power_rows``: C(n+m-1, m)
    exactly when the n vectors are linearly independent, smaller otherwise."""
    return int(np.linalg.matrix_rank(rows))
