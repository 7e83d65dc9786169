"""Symmetric tensor algebra against brute-force permutation oracles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from tentomo.rng import SplitMix64
from tentomo.symtensor import (DenseTensor, SymTensor, canonical_indices,
                               i_mul, inner, j_contract, j_metric,
                               metric_tensor, multiplicity, sym_dim, sym_maps,
                               sym_power, sym_power_rows, sym_power_span_rank,
                               sym_product, symmetrize)


def random_dense(n, m, rng):
    return DenseTensor.from_function(n, m, lambda idx: rng.rational(-5, 5))


def random_sym(n, m, rng):
    out = SymTensor(n, m)
    for idx in canonical_indices(n, m):
        out[idx] = rng.rational(-5, 5)
    return out


def brute_symmetrize(t):
    """Independent oracle: average over all slot permutations, dense."""
    out = DenseTensor(t.n, t.m)
    fact = math.factorial(t.m)
    for idx in itertools.product(range(t.n), repeat=t.m):
        total = Fraction(0)
        for perm in itertools.permutations(range(t.m)):
            total += Fraction(t[tuple(idx[p] for p in perm)])
        out[idx] = total / fact
    return out


class TestMultiIndex:
    """A multi-index names a symmetric entry through its sorted form."""

    def test_canonicalization_idempotent(self):
        t = SymTensor(3, 3, {(2, 0, 1): Fraction(5)})
        assert list(t.data) == [(0, 1, 2)]
        assert SymTensor(3, 3, t.data).data == t.data
        assert all(list(idx) == sorted(idx) for idx in canonical_indices(3, 3))

    def test_equal_sorted_forms_are_equal(self):
        t = random_sym(3, 3, SplitMix64(3))
        for idx in itertools.product(range(3), repeat=3):
            assert t[idx] == t[tuple(sorted(idx))]
        u = SymTensor(3, 2)
        u[(2, 0)] = Fraction(1)
        assert u == SymTensor(3, 2, {(0, 2): Fraction(1)})

    @pytest.mark.parametrize("idx,mult", [((0, 1), 2), ((0, 0), 1),
                                          ((0, 1, 1), 3), ((0, 1, 2), 6)])
    def test_multiplicity(self, idx, mult):
        assert multiplicity(idx) == mult
        # m!/prod(counts!) computed directly
        from collections import Counter
        denom = 1
        for c in Counter(idx).values():
            denom *= math.factorial(c)
        assert mult == math.factorial(len(idx)) // denom


class TestSymmetrize:
    def test_two_slot_example(self):
        t = DenseTensor(2, 2, {(0, 1): Fraction(1)})
        assert symmetrize(t).get((0, 1)) == Fraction(1, 2)

    def test_idempotent_on_symmetric_input(self):
        rng = SplitMix64(1)
        s = random_sym(2, 3, rng)
        assert symmetrize(s.to_dense()) == s

    def test_matches_brute_force_n3_m3(self):
        rng = SplitMix64(2)
        t = random_dense(3, 3, rng)
        oracle = brute_symmetrize(t)
        got = symmetrize(t)
        for idx in itertools.product(range(3), repeat=3):
            assert got.get(idx) == oracle[idx]

    def test_projection_property(self):
        # <sigma t, u> = <t, u> for symmetric u, via dense contraction
        rng = SplitMix64(3)
        t = random_dense(2, 3, rng)
        u = random_sym(2, 3, rng)
        lhs = inner(symmetrize(t), u)
        rhs = sum(t[idx] * u.get(idx)
                  for idx in itertools.product(range(2), repeat=3))
        assert lhs == rhs

    def test_storage_size(self):
        for n in range(1, 5):
            for m in range(0, 5):
                assert sym_dim(n, m) == math.comb(n + m - 1, m)
                assert len(list(canonical_indices(n, m))) == sym_dim(n, m)


class TestSymProduct:
    def test_basis_example(self):
        e1 = SymTensor.from_vector(2, [Fraction(1), Fraction(0)])
        e2 = SymTensor.from_vector(2, [Fraction(0), Fraction(1)])
        assert sym_product(e1, e2).get((0, 1)) == Fraction(1, 2)

    def test_commutative(self):
        rng = SplitMix64(11)
        u, v = random_sym(2, 1, rng), random_sym(2, 2, rng)
        assert sym_product(u, v) == sym_product(v, u)

    def test_power_of_vector_dense_entries_are_products(self):
        # oracle: expand tensor product then symmetrize by brute force
        xi = SymTensor.from_vector(2, [Fraction(1), Fraction(2)])
        cube = sym_product(sym_product(xi, xi), xi)
        assert cube.get((0, 0, 1)) == 2
        assert cube == sym_power([Fraction(1), Fraction(2)], 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sym_product(random_sym(2, 1, SplitMix64(1)),
                        random_sym(3, 1, SplitMix64(1)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sub_multiset_splits_match_the_permutation_average(self, n):
        # oracle: the definition, u(I_1..I_m) v(I_m+1..I_m+k) averaged over
        # all (m+k)! orderings of every canonical index I
        rng = SplitMix64(12 + n)
        for m, k in itertools.product(range(5), repeat=2):
            if m + k > 4:
                continue
            u, v = random_sym(n, m, rng), random_sym(n, k, rng)
            want = SymTensor(n, m + k)
            for idx in canonical_indices(n, m + k):
                want[idx] = sum((u.get(p[:m]) * v.get(p[m:])
                                 for p in itertools.permutations(idx)),
                                Fraction(0)) / math.factorial(m + k)
            got = sym_product(u, v)
            assert got == want
            assert all(type(x) is Fraction for x in got.data.values())


class TestMetricOperators:
    def test_i_on_scalar_gives_metric(self):
        c = SymTensor(2, 0, {(): Fraction(3)})
        out = i_mul(metric_tensor(2), c)
        assert out == metric_tensor(2) * Fraction(3)

    def test_i_metric_twice_matches_brute_sigma(self):
        # sigma(delta x delta) in n=3 via dense expansion
        g = metric_tensor(3)
        got = i_mul(g, g)
        dense = DenseTensor.from_function(
            3, 4, lambda idx: Fraction(int(idx[0] == idx[1] and idx[2] == idx[3])))
        assert got == symmetrize(dense)

    def test_j_of_vector_square_is_norm(self):
        xi = SymTensor.from_vector(2, [Fraction(3), Fraction(4)])
        assert j_metric(sym_product(xi, xi)).get(()) == 25

    def test_j_rank_error(self):
        with pytest.raises(ValueError):
            j_contract(random_sym(2, 3, SplitMix64(1)),
                       random_sym(2, 1, SplitMix64(1)))

    def test_contraction_of_orthogonal_powers(self):
        x = sym_power([Fraction(1), Fraction(0)], 2)
        xi = sym_power([Fraction(0), Fraction(1)], 2)
        assert j_contract(x, xi).get(()) == 0

    @given(hyp.integers(0, 2**60))
    @settings(max_examples=25, deadline=None)
    def test_ij_duality(self, seed):
        rng = SplitMix64(seed)
        u = random_sym(2, 1, rng)
        f = random_sym(2, 2, rng)
        g = random_sym(2, 3, rng)
        assert inner(i_mul(u, f), g) == inner(f, j_contract(u, g))


class TestInner:
    def test_positive_definite(self):
        rng = SplitMix64(12)
        u = random_sym(3, 2, rng)
        assert inner(u, u) >= 0
        assert inner(SymTensor(3, 2), SymTensor(3, 2)) == 0

    def test_frozen_half(self):
        e1 = SymTensor.from_vector(2, [Fraction(1), Fraction(0)])
        e2 = SymTensor.from_vector(2, [Fraction(0), Fraction(1)])
        p = sym_product(e1, e2)
        assert inner(p, p) == Fraction(1, 2)

    def test_pairing_with_vector_power_is_multilinear_eval(self):
        rng = SplitMix64(13)
        f = random_sym(2, 3, rng)
        xi = [Fraction(2), Fraction(-1)]
        want = Fraction(0)
        for idx in itertools.product(range(2), repeat=3):
            term = Fraction(f.get(idx))
            for i in idx:
                term *= xi[i]
            want += term
        assert inner(f, sym_power(xi, 3)) == want


def random_vector(n, rng):
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]


def canonical(t):
    """The canonical-coordinate vector of a ``SymTensor``."""
    return [t.get(idx) for idx in canonical_indices(t.n, t.m)]


def along(table, y):
    """sum_a y_a table[a]: i_y or j_y from the per-axis tables."""
    return sum(c * t for c, t in zip(y, table))


TABLE_SHAPES = [(n, m) for n in (2, 3) for m in range(1, 5)]


class TestSymMaps:
    """The i_{e_a}/j_{e_a} tables against the dict operators."""

    @pytest.mark.parametrize("n,m", TABLE_SHAPES)
    def test_i_y_is_sym_product(self, n, m):
        rng = SplitMix64(60 + 10 * n + m)
        imul, _ = sym_maps(n, m)
        for _ in range(3):
            y, u = random_vector(n, rng), random_sym(n, m - 1, rng)
            want = canonical(sym_product(SymTensor.from_vector(n, y), u))
            got = along(imul, y) @ np.array(canonical(u), dtype=object)
            assert list(got) == want

    @pytest.mark.parametrize("n,m", TABLE_SHAPES)
    def test_j_y_is_j_contract(self, n, m):
        rng = SplitMix64(70 + 10 * n + m)
        _, jcon = sym_maps(n, m)
        for _ in range(3):
            y, g = random_vector(n, rng), random_sym(n, m, rng)
            want = canonical(j_contract(SymTensor.from_vector(n, y), g))
            got = along(jcon, y) @ np.array(canonical(g), dtype=object)
            assert list(got) == want

    @pytest.mark.parametrize("n,m", TABLE_SHAPES)
    def test_j_y_is_dual_to_i_y(self, n, m):
        # <i_y v, g> = <v, j_y g> with multiplicity-weighted inner products
        rng = SplitMix64(80 + 10 * n + m)
        imul, jcon = sym_maps(n, m)
        w_hi = np.array([multiplicity(i) for i in canonical_indices(n, m)])
        w_lo = np.array([multiplicity(i) for i in canonical_indices(n, m - 1)])
        y = random_vector(n, rng)
        v = np.array(canonical(random_sym(n, m - 1, rng)), dtype=object)
        g = np.array(canonical(random_sym(n, m, rng)), dtype=object)
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


class TestSpanRank:
    def test_rows_are_the_eta_products(self):
        rng = SplitMix64(15)
        for n in (2, 3):
            vecs = [random_vector(n, rng) for _ in range(n)]
            for m in range(4):
                rows = sym_power_rows(vecs, m)
                for row, combo in zip(rows, canonical_indices(n, m)):
                    want = SymTensor(n, 0, {(): Fraction(1)})
                    for c in combo:
                        want = sym_product(want, SymTensor.from_vector(n, vecs[c]))
                    assert row == pytest.approx([float(x) for x in canonical(want)],
                                                rel=1e-14, abs=1e-14)

    def test_standard_basis_n2_m2(self):
        assert sym_power_span_rank(sym_power_rows([[1, 0], [0, 1]], 2)) == 3

    def test_random_invertible_triple_n3_m2(self):
        rng = SplitMix64(14)
        while True:
            vecs = [[rng.rational(-4, 4) for _ in range(3)] for _ in range(3)]
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
