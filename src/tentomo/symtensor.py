"""Finite-dimensional symmetric tensor algebra.

Rank-m tensors over R^n are tiny here (n <= 6, m <= 4 in practice).
Symmetric tensors are stored compressed: one scalar per non-decreasing index
tuple, of which there are C(n+m-1, m).

Tensor values are canonical arrays, exact (``int``, ``Fraction``) or float
(``PolyBumpField.values``).  ``sym_maps(n, m)`` holds the exact
canonical-coordinate matrices of i_{e_a} and j_{e_a} for each axis a, and
every i_y = sum_a y_a i_{e_a} or j_y matrix of the package is built from it:
the grid symbols, the moment identity's j_x and the eta-product matrix of
``sym_power_rows``.  The algebra suite certifies the tables for every input:
i and j are adjoint under the multiplicity-weighted pairing, and
m j_{e_a} i_{e_b} - (m-1) i_{e_b} j_{e_a} = delta_ab on S^(m-1).  The metric
pair of the IBP identity and the key identities, sum_l c_{l,s} i^l j^l
xi^(.s), is one exact table, ``spherequad._ibp_weights``.  Tests compare the
tables with a dense-array oracle that shares no code with this module.
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
