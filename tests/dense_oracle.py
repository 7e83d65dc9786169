"""Dense oracle for the symmetric-tensor tables.

A rank-m tensor over R^n is its full n^m ``object`` ndarray, so exact entries
stay exact.  Symmetrization averages ``np.transpose`` over every slot
permutation, i_u g is symmetrize(u (x) g), a contraction is ``tensordot``
over trailing slots and the pairing is ``(U * V).sum()``.  Nothing here reads
canonical keys or the multiplicity formula, so it is independent of the
``tentomo.symtensor`` code that tests compare against it.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np


def symmetrize(t):
    perms = list(itertools.permutations(range(t.ndim)))
    return np.asarray(sum(np.transpose(t, p) for p in perms) * Fraction(1, len(perms)))


def sym_product(u, v):
    return symmetrize(np.multiply.outer(u, v))


def contract(g, u):
    """j_u g: the trailing rank(u) slots of g contracted against u."""
    return np.asarray(np.tensordot(g, u, axes=u.ndim))


def power(xi, m):
    """xi (x) ... (x) xi, m factors; symmetric, so xi^(.m) too."""
    return functools.reduce(np.multiply.outer, [np.asarray(xi, dtype=object)] * m,
                            np.array(1, dtype=object))


def metric_pair(t, n, times):
    """i^times j^times t: traces over trailing slot pairs, then symmetric
    products with the metric delta."""
    delta = np.eye(n, dtype=object)
    for _ in range(times):
        t = contract(t, delta)
    for _ in range(times):
        t = sym_product(delta, t)
    return t


def pairing(u, v):
    return (u * v).sum()


def canonical(t, n):
    """The entries at the non-decreasing index tuples, in lexicographic order."""
    return [t[idx] for idx in itertools.combinations_with_replacement(range(n), t.ndim)]


def random_tensor(n, m, rng):
    """A dense tensor of rationals in [-5, 5], symmetric or not."""
    entries = [Fraction(rng.randint(-5, 5)) for _ in range(n**m)]
    return np.array(entries, dtype=object).reshape((n,) * m)
