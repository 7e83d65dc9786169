"""The symmetric-tensor tables against the dense-array oracle."""

import functools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from tentomo import suites
from tentomo.rng import SplitMix64
from tentomo.symtensor import (canonical_indices, multiplicity, sym_dim, sym_maps,
                               sym_power_rows, sym_power_span_rank)

import dense_oracle as dense


def random_sym(n, m, rng):
    return dense.symmetrize(dense.random_tensor(n, m, rng))


class TestMultiIndex:
    """A multi-index names a symmetric entry through its sorted form."""

    @pytest.mark.parametrize("idx,mult", [((0, 1), 2), ((0, 0), 1),
                                          ((0, 1, 1), 3), ((0, 1, 2), 6)])
    def test_multiplicity(self, idx, mult):
        assert multiplicity(idx) == mult
        # m!/prod(counts!) computed directly
        denom = 1
        for c in Counter(idx).values():
            denom *= math.factorial(c)
        assert mult == math.factorial(len(idx)) // denom

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3)])
    def test_multiplicity_weights_the_canonical_pairing(self, n, m):
        # the full n^m contraction equals the canonical sum weighted by
        # multiplicity, the pairing that every canonical array assumes
        rng = SplitMix64(20 + 10 * n + m)
        u, v = random_sym(n, m, rng), random_sym(n, m, rng)
        assert dense.pairing(u, v) == sum(multiplicity(idx) * u[idx] * v[idx]
                                          for idx in canonical_indices(n, m))

    def test_storage_size(self):
        for n in range(1, 5):
            for m in range(0, 5):
                assert sym_dim(n, m) == math.comb(n + m - 1, m)
                assert len(list(canonical_indices(n, m))) == sym_dim(n, m)
                assert all(list(idx) == sorted(idx) for idx in canonical_indices(n, m))


class TestDenseOracle:
    """The oracle's own laws, which the table tests lean on."""

    def test_two_slot_example(self):
        t = np.zeros((2, 2), dtype=object)
        t[0, 1] = Fraction(1)
        assert dense.symmetrize(t)[0, 1] == dense.symmetrize(t)[1, 0] == Fraction(1, 2)

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 3)])
    def test_symmetrize_is_the_orthogonal_projection(self, n, m):
        rng = SplitMix64(30 + n)
        t, u = dense.random_tensor(n, m, rng), random_sym(n, m, rng)
        s = dense.symmetrize(t)
        assert (dense.symmetrize(s) == s).all()
        assert dense.pairing(s, u) == dense.pairing(t, u)


def random_vector(n, rng):
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]


def canonical(t, n):
    """The canonical-coordinate vector of a dense tensor, as an object array."""
    return np.array(dense.canonical(t, n), dtype=object)


def along(table, y):
    """sum_a y_a table[a]: i_y or j_y from the per-axis tables."""
    return sum(c * t for c, t in zip(y, table))


TABLE_SHAPES = [(n, m) for n in (2, 3) for m in range(1, 5)]


class TestSymMaps:
    """The i_{e_a}/j_{e_a} tables against the dense oracle."""

    @pytest.mark.parametrize("n,m", TABLE_SHAPES)
    def test_i_y_is_the_symmetric_product(self, n, m):
        rng = SplitMix64(60 + 10 * n + m)
        imul, _ = sym_maps(n, m)
        for _ in range(3):
            y, u = random_vector(n, rng), random_sym(n, m - 1, rng)
            want = canonical(dense.sym_product(np.array(y, dtype=object), u), n)
            assert list(along(imul, y) @ canonical(u, n)) == list(want)

    @pytest.mark.parametrize("n,m", TABLE_SHAPES)
    def test_j_y_is_the_contraction(self, n, m):
        rng = SplitMix64(70 + 10 * n + m)
        _, jcon = sym_maps(n, m)
        for _ in range(3):
            y, g = random_vector(n, rng), random_sym(n, m, rng)
            want = canonical(dense.contract(g, np.array(y, dtype=object)), n)
            assert list(along(jcon, y) @ canonical(g, n)) == list(want)

    @pytest.mark.parametrize("n,m", TABLE_SHAPES)
    def test_j_y_is_dual_to_i_y(self, n, m):
        # <i_y v, g> = <v, j_y g> with multiplicity-weighted inner products
        rng = SplitMix64(80 + 10 * n + m)
        imul, jcon = sym_maps(n, m)
        w_hi = np.array([multiplicity(i) for i in canonical_indices(n, m)])
        w_lo = np.array([multiplicity(i) for i in canonical_indices(n, m - 1)])
        y = random_vector(n, rng)
        v = canonical(random_sym(n, m - 1, rng), n)
        g = canonical(random_sym(n, m, rng), n)
        assert (along(imul, y) @ v * w_hi) @ g == (v * w_lo) @ (along(jcon, y) @ g)

    @pytest.mark.parametrize("n,m", TABLE_SHAPES)
    def test_gram_positive_definite(self, n, m):
        # j_y i_y on S^(m-1) in floats, for y != 0
        rng = SplitMix64(90 + 10 * n + m)
        imul, jcon = (t.astype(float) for t in sym_maps(n, m))
        for _ in range(10):
            y = [rng.uniform() - 0.5 for _ in range(n)]
            if max(map(abs, y)) < 1e-3:
                continue
            assert np.linalg.eigvalsh(along(jcon, y) @ along(imul, y)).min() > 0

    def test_entries_are_exact_and_read_only(self):
        imul, jcon = sym_maps(3, 3)
        assert {type(x) for x in imul.flat} == {int, Fraction}
        assert {type(x) for x in jcon.flat} == {int}
        assert imul[0, 0, 0] == 1 and imul[0, 1, 1] == Fraction(2, 3)
        with pytest.raises(ValueError):
            imul[0, 0, 0] = 0
        with pytest.raises(ValueError):
            sym_maps(3, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_each_entry_belongs_to_one_axis(self, n, m):
        # the premise on which ``normalops._apply_sym`` rounds each entry of
        # i_w and j_w once: a (row, column) is nonzero for at most one axis
        for table in sym_maps(n, m):
            assert ((table != 0).sum(axis=0) <= 1).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_certificates_read_zero(self, n, m):
        # the exact residuals of the ``identities.algebra`` table rows, also
        # beyond the (n, m) that the suite covers
        assert suites._sym_maps_residuals(n, m) == (0, 0)


class TestSpanRank:
    def test_rows_are_the_eta_products(self):
        rng = SplitMix64(15)
        for n in (2, 3):
            vecs = [random_vector(n, rng) for _ in range(n)]
            for m in range(4):
                rows = sym_power_rows(vecs, m)
                for row, combo in zip(rows, canonical_indices(n, m)):
                    want = functools.reduce(
                        dense.sym_product, (np.array(vecs[c], dtype=object) for c in combo),
                        np.array(1, dtype=object))
                    assert row == pytest.approx([float(x) for x in canonical(want, n)],
                                                rel=1e-14, abs=1e-14)

    def test_standard_basis_n2_m2(self):
        assert sym_power_span_rank(sym_power_rows([[1, 0], [0, 1]], 2)) == 3

    def test_random_invertible_triple_n3_m2(self):
        rng = SplitMix64(14)
        while True:
            vecs = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            det = (vecs[0][0] * (vecs[1][1] * vecs[2][2] - vecs[1][2] * vecs[2][1])
                   - vecs[0][1] * (vecs[1][0] * vecs[2][2] - vecs[1][2] * vecs[2][0])
                   + vecs[0][2] * (vecs[1][0] * vecs[2][1] - vecs[1][1] * vecs[2][0]))
            if det != 0:
                break
        assert sym_power_span_rank(sym_power_rows(vecs, 2)) == 6

    def test_dependent_pair_gives_rank_one(self):
        assert sym_power_span_rank(sym_power_rows([[1, 1], [2, 2]], 2)) == 1

    def test_full_rank_small_cases(self):
        for n in (2, 3):
            for m in (1, 2, 3):
                basis = [[Fraction(int(i == j)) for j in range(n)]
                         for i in range(n)]
                assert sym_power_span_rank(sym_power_rows(basis, m)) == sym_dim(n, m)
