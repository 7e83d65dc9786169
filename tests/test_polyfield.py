"""Exact polynomial bump fields and the W/R operator family.

Everything here runs in rational arithmetic; assertions are exact equality.
"""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from tentomo.polyfield import (BudgetError, PairSymTensorField, PolyBumpField,
                               divergence, field_l2_inner,
                               generalized_R, generalized_W,
                               generalized_W_component, inner_derivative,
                               lower_generalized_R,
                               operator_R, operator_R_component,
                               pair_alternations, potential_field, r_to_w,
                               random_bump_field,
                               saint_venant_W, saint_venant_W_component,
                               w_to_r)
from tentomo.polynomial import Polynomial, linear_combination, quadric_derivative, tree_multisets
from tentomo.rng import SplitMix64
from tentomo.spherequad import HomogeneousRational
from tentomo.symtensor import canonical_indices

import dense_oracle as dense

ONE = Fraction(1)


def scalar_bump(n=2, power=2, core=None):
    core = core if core is not None else Polynomial.constant(n, ONE)
    return PolyBumpField(n, 0, ONE, power, {(): core})


class TestBumpField:
    def test_derivative_frozen_example(self):
        # d/dx_i of (1-|x|^2)^2 = -4 x_i (1-|x|^2) on the ball
        f = scalar_bump(power=2)
        df = inner_derivative(f)
        for i in range(2):
            want = Polynomial.variable(2, i) * Fraction(-4)
            assert df.core((i,)) == want
        assert df.power == 1

    def test_gradient_of_scalar(self):
        rng = SplitMix64(1)
        f = random_bump_field(2, 0, rng, power=3, degree=2)
        df = inner_derivative(f)
        for i in range(2):
            assert df.core((i,)) == quadric_derivative(f.core(()), i, ONE, -1, 3)

    def test_budget_error(self):
        f = scalar_bump(power=1)
        with pytest.raises(BudgetError):
            inner_derivative(inner_derivative(f))

    def test_values_against_the_cores(self, monkeypatch):
        # q(x) (rho^2 - |x|^2)^power by Polynomial.eval inside the support;
        # exactly 0 on the support sphere and outside, where an odd power of
        # a negative bump would not vanish
        rho = Fraction(3, 2)
        f = random_bump_field(3, 2, SplitMix64(6), rho=rho, power=3, degree=2)
        rng = SplitMix64(7)
        inside = [rng.split(f"p{t}").point_in_ball(3, 1.4) for t in range(6)]
        sphere = [[1.5, 0.0, 0.0], [0.0, -1.5, 0.0], [0.0, 0.0, 1.5]]
        outside = [[2.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, -3.0, 0.5]]
        got = f.values(np.reshape(inside + sphere + outside, (4, 3, 3)))
        assert got.shape == (6, 4, 3)
        got = got.reshape(6, 12)
        for pos, idx in enumerate(canonical_indices(3, 2)):
            want = [f.core(idx).eval(x) * (2.25 - sum(c * c for c in x)) ** 3 for x in inside]
            assert got[pos, :6] == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert np.all(got[pos, :6] != 0.0)
        assert not got[:, 6:].any()
        # no point inside: no core is evaluated
        monkeypatch.setattr(Polynomial, "eval_many", None)
        assert not f.values(outside).any()

    def test_derivative_core_of_no_axes_is_the_core(self):
        f = random_bump_field(2, 2, SplitMix64(5), power=2, degree=2)
        for idx in canonical_indices(2, 2):
            assert f.derivative_core(idx, ()) == f.core(idx)

    def test_laplacian_against_symbolic_oracle(self):
        f = scalar_bump(power=3)
        lap = divergence(inner_derivative(f))   # delta d is the Laplacian at m = 0
        # oracle: differentiate core*B^e symbolically twice per axis
        core = f.core(())
        total = Polynomial.zero(2)
        for a in range(2):
            once = quadric_derivative(core, a, ONE, -1, 3)
            total = total + quadric_derivative(once, a, ONE, -1, 2)
        assert lap.core(()) == total
        assert lap.power == 1


class TestCoreStore:
    def test_float_cores_are_rejected(self):
        core = Polynomial(2, {(1, 0): 0.5})
        with pytest.raises(TypeError):
            PolyBumpField(2, 1, ONE, 2, {(0,): core})
        with pytest.raises(TypeError):
            PairSymTensorField(2, 1, (0,), ONE, 2, {(((0, 1),), ((),)): core})

    def test_non_exact_support_radius_is_rejected(self):
        # a float rho would only fail later, inside the exact derivative levels
        core = Polynomial.constant(2, 1)
        with pytest.raises(TypeError):
            PolyBumpField(2, 1, 1.5, 4, {(0,): core})
        with pytest.raises(TypeError):
            PairSymTensorField(2, 1, (0,), 1.5, 2, {(((0, 1),), ((),)): core})

    def test_non_canonical_keys_are_rejected(self):
        with pytest.raises(ValueError):
            PolyBumpField(2, 1, ONE, 2, {(0, 1): Polynomial.constant(2, 1)})
        with pytest.raises(ValueError):
            PairSymTensorField(2, 1, (0,), ONE, 2, {(((1, 0),), ((),)): Polynomial.constant(2, 1)})

    def test_component_field_slices_its_row(self, monkeypatch):
        from tentomo.polynomial import CoreStack
        rf = generalized_R(random_bump_field(3, 2, SplitMix64(33), power=4, degree=2), 1)

        def no_stacking(*args, **kwargs):
            raise AssertionError("from_polys was called")
        monkeypatch.setattr(CoreStack, "from_polys", no_stacking)
        assert rf.comps
        for key in rf.canonical_keys():
            scalar = rf.component_field(key)
            assert scalar.core(()) == rf.comps.get(key, Polynomial.zero(3))
            assert scalar.power == rf.power and scalar.rho == rf.rho


class TestPairAlternations:
    """The (first, second, sign) enumerator behind R's alternations."""

    def test_definition_example(self):
        assert list(pair_alternations([(0, 1)])) == [((0,), (1,), 1), ((1,), (0,), -1)]

    def test_swap_patterns_in_product_order(self):
        assert list(pair_alternations([(0, 1), (2, 3)])) == [
            ((0, 2), (1, 3), 1), ((0, 3), (1, 2), -1),
            ((1, 2), (0, 3), -1), ((1, 3), (0, 2), 1)]

    def test_no_pairs_is_one_plain_pattern(self):
        assert list(pair_alternations([])) == [((), (), 1)]

    def test_kills_symmetric_part(self):
        rng = SplitMix64(8)
        s = dense.symmetrize(dense.random_tensor(2, 4, rng))
        for a, b, c, d in itertools.product(range(2), repeat=4):
            assert sum(sign * s[first + second] for first, second, sign
                       in pair_alternations([(a, b), (c, d)])) == 0

    def test_idempotent_on_same_pair(self):
        rng = SplitMix64(9)
        t = dense.random_tensor(3, 2, rng)

        def alternate(u):
            out = np.empty((3, 3), dtype=object)
            for idx in itertools.product(range(3), repeat=2):
                out[idx] = sum(sign * Fraction(u[first + second])
                               for first, second, sign in pair_alternations([idx])) / 2
            return out
        once = alternate(t)
        twice = alternate(once)
        for idx in itertools.product(range(3), repeat=2):
            assert once[idx] == twice[idx]
        assert once[(0, 1)] == (Fraction(t[(0, 1)]) - Fraction(t[(1, 0)])) / 2


class TestDivergence:
    def test_rotational_field_is_divergence_free(self):
        # f = (x2 b, -x1 b) with radial b
        b = Polynomial.constant(2, ONE)
        f = PolyBumpField(2, 1, ONE, 3, {
            (0,): Polynomial.variable(2, 1) * b,
            (1,): Polynomial.variable(2, 0) * Fraction(-1) * b})
        assert divergence(f).is_zero()

    def test_divergence_of_gradient_is_laplacian(self):
        rng = SplitMix64(2)
        v = random_bump_field(2, 0, rng, power=4, degree=2)
        lhs = divergence(inner_derivative(v))
        rhs = linear_combination(2, ((v.derivative_core((), (a, a)), 1) for a in range(2)))
        assert lhs.core(()) == rhs

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            divergence(scalar_bump())

    def test_duality_with_inner_derivative(self):
        # <df, g> = -<f, delta g> with exact ball integration
        rng = SplitMix64(3)
        f = random_bump_field(2, 1, rng, power=3, degree=2, label="f")
        g = random_bump_field(2, 2, rng, power=3, degree=2, label="g")
        lhs = field_l2_inner(inner_derivative(f), g)
        rhs = field_l2_inner(f, divergence(g))
        assert (lhs + rhs).is_zero()


class TestSaintVenant:
    def test_m1_components(self):
        # (Wf)_{ij} = d_j f_i - d_i f_j for m=1
        rng = SplitMix64(4)
        f = random_bump_field(2, 1, rng, power=2, degree=2)
        w = saint_venant_W(f)
        want = quadric_derivative(f.core((0,)), 1, ONE, -1, 2) \
            - quadric_derivative(f.core((1,)), 0, ONE, -1, 2)
        assert w.component_core((0, 1)) == want

    def test_r_m1_single_component(self):
        p = Polynomial.variable(2, 0) ** 2
        f = PolyBumpField(2, 1, ONE, 2, {(0,): p})
        r = operator_R(f)
        want = quadric_derivative(p, 1, ONE, -1, 2) * Fraction(1, 2)
        assert r.component_core((0, 1)) == want

    def test_potential_fields_in_kernel(self):
        rng = SplitMix64(5)
        for (n, m) in [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3)]:
            v = random_bump_field(n, m - 1, rng, power=m + 2, degree=2,
                                  label=f"{n}{m}")
            f = inner_derivative(v)
            assert saint_venant_W(f).is_zero()
            assert operator_R(f).is_zero()

    def test_w_component_against_raw_permutation_oracle(self):
        # raw double sigma over all permutation pairs, m=2, n=2
        rng = SplitMix64(6)
        f = random_bump_field(2, 2, rng, power=3, degree=2)
        m = 2
        for i_group in itertools.product(range(2), repeat=m):
            for j_group in itertools.product(range(2), repeat=m):
                total = Polynomial.zero(2)
                for pi in itertools.permutations(range(m)):
                    for tau in itertools.permutations(range(m)):
                        ig = [i_group[p] for p in pi]
                        jg = [j_group[p] for p in tau]
                        for p in range(m + 1):
                            comp = tuple(ig[:m - p]) + tuple(jg[:p])
                            der = tuple(jg[p:]) + tuple(ig[m - p:])
                            term = f.derivative_core(comp, tuple(sorted(der)))
                            total = total + term * Fraction(
                                (-1) ** p * math.comb(m, p),
                                math.factorial(m) ** 2)
                got = generalized_W_component(f, 0, i_group, j_group)
                assert got == total

    def test_raw_sv_component_matches_generalized_at_k0(self):
        # the defining formula against the compiled W stencil, on every
        # ordering of the first group and a reversed ordering of the second
        from tentomo.polyfield import saint_venant_W_component
        for n, m in [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
            rng = SplitMix64(66 + 10 * n + m)
            f = random_bump_field(n, m, rng, power=m + 1, degree=2)
            for i_group in itertools.product(range(n), repeat=m):
                for j_group in itertools.combinations_with_replacement(range(n), m):
                    assert saint_venant_W_component(f, i_group, j_group) == \
                        generalized_W_component(f, 0, i_group, j_group[::-1])

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (3, 3)])
    def test_generalized_r_matches_raw_component(self, n, m):
        # the compiled R^k stencils against the alternating-sum formula
        rng = SplitMix64(30 + 10 * n + m)
        f = random_bump_field(n, m, rng, power=m + 1, degree=2)
        for k in range(m + 1):
            rk = generalized_R(f, k)
            for key in rk.canonical_keys():
                flat = rk.key_to_index(key)
                assert rk.component_core(flat) == operator_R_component(
                    f, flat[:2 * (m - k)], flat[2 * (m - k):])

    def test_r_pair_symmetries(self):
        rng = SplitMix64(7)
        f = random_bump_field(2, 2, rng, power=3, degree=2)
        # skew within a pair, symmetric under pair exchange, via raw formula
        a = operator_R_component(f, (0, 1, 0, 1))
        assert operator_R_component(f, (1, 0, 0, 1)) == -a
        assert operator_R_component(f, (0, 1, 1, 0)) == -a
        assert operator_R_component(f, (1, 0, 1, 0)) == a
        assert operator_R_component(f, (0, 0, 0, 1)).is_zero()


class TestEquivalences:
    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_round_trips_exact(self, n, m):
        rng = SplitMix64(100 + 10 * n + m)
        f = random_bump_field(n, m, rng, power=m + 1, degree=2)
        r = operator_R(f)
        w = saint_venant_W(f)
        assert (r_to_w(r) - w).is_zero()
        assert (w_to_r(w) - r).is_zero()

    def test_generalized_k0_and_km(self):
        rng = SplitMix64(8)
        f = random_bump_field(2, 2, rng, power=3, degree=2)
        w0 = generalized_W(f, 0)
        w = saint_venant_W(f)
        for key in w.canonical_keys():
            assert w0.comps.get(key, Polynomial.zero(2)) == \
                w.comps.get(key, Polynomial.zero(2))
        wm = generalized_W(f, 2)
        for key in wm.canonical_keys():
            _pairs, (pg, qig) = key
            assert wm.component_core(wm.key_to_index(key)) == f.core(qig)
        rm = generalized_R(f, 2)
        for key in rm.canonical_keys():
            _pairs, (fixed,) = key
            assert rm.component_core(rm.key_to_index(key)) == f.core(fixed)

    def test_generalized_r_is_sliced_r(self):
        rng = SplitMix64(9)
        f = random_bump_field(2, 2, rng, power=3, degree=2)
        rk = generalized_R(f, 1)
        for i_fixed in range(2):
            # slice field f^i as a rank-1 field
            slice_f = PolyBumpField(2, 1, f.rho, f.power, {
                (a,): f.core((a, i_fixed)) for a in range(2)})
            rs = operator_R(slice_f)
            for pair in ((0, 1),):
                got = rk.component_core(pair + (i_fixed,))
                assert got == rs.component_core(pair)

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_generalized_round_trips_exact(self, n, m):
        # R^k f = (k+1)/(m+1) alpha...alpha W^k f for every 0 <= k <= m
        rng = SplitMix64(10 + 10 * n + m)
        f = random_bump_field(n, m, rng, power=m + 1, degree=2)
        for k in range(m + 1):
            rk = generalized_R(f, k)
            wk = generalized_W(f, k)
            assert (r_to_w(rk) - wk).is_zero()
            assert (w_to_r(wk) - rk).is_zero()

    @pytest.mark.parametrize("convert,npairs,blocks", [
        (r_to_w, 0, (1, 2)),      # a W^1 image at m = 2
        (w_to_r, 1, (1,)),        # an R^1 image at m = 2
        (w_to_r, 0, (3, 2)),      # m - k = 3 above m = 2
        (w_to_r, 0, (2,)),        # R^2 at m = 2, one block
        (r_to_w, 0, (1, 1, 1))])
    def test_conversions_reject_other_layouts(self, convert, npairs, blocks):
        field = PairSymTensorField(2, npairs, blocks, 1, 2)
        with pytest.raises(ValueError, match=re.escape(f"blocks {blocks} is not the layout")):
            convert(field)

    def test_recover_lower_generalized_R(self):
        rng = SplitMix64(12)
        f = random_bump_field(2, 2, rng, power=3, degree=2)
        r1 = generalized_R(f, 1)
        r0 = generalized_R(f, 0)
        got = lower_generalized_R(r1)
        assert (got - r0).is_zero()

    def test_generalized_potentials_in_kernel(self):
        rng = SplitMix64(13)
        v = random_bump_field(2, 0, rng, power=5, degree=2)
        f = potential_field(v, order=2)   # rank 2, kernel of R^1
        assert generalized_R(f, 1).is_zero()
        assert generalized_W(f, 1).is_zero()


class TestSerialization:
    def test_round_trip(self):
        # the document decoded as a reader of the format does
        rng = SplitMix64(14)
        f = random_bump_field(2, 2, rng, power=3, degree=2)
        doc = f.to_json_dict()
        assert (doc["n"], doc["m"], doc["s"]) == (f.n, f.m, f.power)
        assert Fraction(doc["rho"]["num"], doc["rho"]["den"]) == f.rho
        cores = {tuple(c["index"]): Polynomial(2, {tuple(t["exps"]): Fraction(t["num"], t["den"])
                                                   for t in c["terms"]})
                 for c in doc["components"]}
        for idx in canonical_indices(2, 2):
            assert cores.get(idx, Polynomial.zero(2)) == f.core(idx)

    def test_deterministic_ordering(self):
        rng = SplitMix64(15)
        f = random_bump_field(2, 1, rng, power=2, degree=2)
        import json
        assert json.dumps(f.to_json_dict()) == json.dumps(f.to_json_dict())
        comp = f.to_json_dict()["components"][0]
        exps = [tuple(t["exps"]) for t in comp["terms"]]
        assert exps == sorted(exps)


# ---------------------------------------------------------------------------
# the stacked operators against the dict path
# ---------------------------------------------------------------------------

def dict_stencil(terms, n, m, k, atom_core, scale=1):
    """{output key: core} of a term generator, summed on the dict path: the
    enumerated weights merged per atom, then one ``linear_combination`` of
    dict cores per output component."""
    out_rows, _in_rows, triples = terms(n, m, k)
    rows = {key: {} for key in out_rows}
    for key, atom, weight in triples:
        rows[key][atom] = rows[key].get(atom, 0) + weight
    return {key: linear_combination(n, ((atom_core(atom) * w, 1) for atom, w in atoms.items()),
                                    scale)
            for key, atoms in rows.items()}


def comps_of(field):
    """Every canonical component, zero ones included, as dict cores."""
    return {key: field.comps.get(key, Polynomial.zero(field.n)) for key in field.rows()}


def oracle_fields(n, m, seed, power=None):
    """Fields at rho 1 and 3/2, with int and with Fraction cores."""
    rng = SplitMix64(seed)
    for rho in (1, Fraction(3, 2)):
        for kind in ("int", "fraction"):
            f = random_bump_field(n, m, rng, rho=rho, power=power or m + 2, degree=2,
                                  label=f"{rho}-{kind}")
            if kind == "fraction":
                f = PolyBumpField(n, m, rho, f.power, {
                    idx: Polynomial(n, {e: Fraction(c, 1 + (i + sum(idx)) % 4)
                                        for i, (e, c) in enumerate(p.terms.items())})
                    for idx, p in f.cores.items()})
            yield f


@pytest.mark.parametrize("n", [2, 3])
def test_every_stencil_reads_the_one_level_of_its_order(n):
    # d, the divergence and R^k -> R^(k-1) have order 1, W^k and R^k order
    # m - k, and the W^k <-> R^k conversions order 0
    from tentomo.polyfield import (_d_terms, _div_terms, _lower_r_terms, _r_terms,
                                   _r_to_w_terms, _stencil, _w_terms, _w_to_r_terms)
    for m in range(4):
        assert _stencil(_d_terms, n, m, 0).level == 1
        if m:
            assert _stencil(_div_terms, n, m, 0).level == 1
        for k in range(m + 1):
            assert _stencil(_w_terms, n, m, k).level == m - k
            assert _stencil(_r_terms, n, m, k).level == m - k
            assert _stencil(_r_to_w_terms, n, m, k).level == 0
            assert _stencil(_w_to_r_terms, n, m, k).level == 0
            if k:
                assert _stencil(_lower_r_terms, n, m, k).level == 1


class TestStackAgainstDictOracles:
    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_w_and_r_family(self, n, m):
        from tentomo.polyfield import _lower_r_terms, _r_to_w_terms, _w_to_r_terms
        for f in oracle_fields(n, m, 200 + 10 * n + m):
            for k in range(m + 1):
                wk, rk = generalized_W(f, k), generalized_R(f, k)
                for key in wk.rows():
                    p_group, qi_group = key[1]
                    assert wk.component_core(wk.key_to_index(key)) == \
                        generalized_W_component(f, k, p_group, qi_group)
                for key in rk.rows():
                    flat = rk.key_to_index(key)
                    assert rk.component_core(flat) == operator_R_component(
                        f, flat[:2 * (m - k)], flat[2 * (m - k):])
                w_in, r_in = comps_of(wk), comps_of(rk)
                assert comps_of(r_to_w(rk)) == dict_stencil(
                    _r_to_w_terms, n, m, k, lambda atom: r_in[atom[0]])
                const = Fraction(k + 1, m + 1)
                assert comps_of(w_to_r(wk)) == dict_stencil(
                    _w_to_r_terms, n, m, k, lambda atom: w_in[atom[0]], const)
                if k:
                    assert comps_of(lower_generalized_R(rk)) == dict_stencil(
                        _lower_r_terms, n, m, k, lambda atom: quadric_derivative(
                            r_in[atom[0]], atom[1][0], rk.rho * rk.rho, -1, rk.power))
            w = saint_venant_W(f)
            for key in w.rows():
                i_group, j_group = key[1]
                assert w.component_core(w.key_to_index(key)) == \
                    saint_venant_W_component(f, i_group, j_group)
            assert comps_of(r_to_w(operator_R(f))) == comps_of(saint_venant_W(f))
            assert comps_of(w_to_r(saint_venant_W(f))) == comps_of(operator_R(f))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_level_cores_match_the_dict_oracle(self, n, m):
        # the core a TransformExpr atom (component r, multiset I) reads is row
        # r of the block of I in level |I|, at every level up to the power
        for f in oracle_fields(n, m, 400 + 10 * n + m):
            rows = f.rows()
            for j in range(f.power + 1):
                cores = f.level_cores(j)
                assert len(cores) == len(tree_multisets(n, j)) * len(rows)
                for block, axes in enumerate(tree_multisets(n, j)):
                    for r, idx in enumerate(rows):
                        assert cores[block * len(rows) + r] == f.derivative_core(idx, axes)

    @pytest.mark.parametrize("n", [2, 3])
    def test_d_divergence_laplacian(self, n):
        for m in (0, 1, 2, 3):
            for f in oracle_fields(n, m, 300 + 10 * n + m, power=4):
                df = inner_derivative(f)
                for idx in canonical_indices(n, m + 1):
                    assert df.core(idx) == linear_combination(n, (
                        (f.derivative_core(idx[:p] + idx[p + 1:], (idx[p],)), 1)
                        for p in range(m + 1)), Fraction(1, m + 1))
                if m:
                    div = divergence(f)
                    for idx in canonical_indices(n, m - 1):
                        assert div.core(idx) == linear_combination(n, (
                            (f.derivative_core(idx + (a,), (a,)), 1) for a in range(n)))
                # the componentwise Laplacian is (m + 1) delta d f - m d delta f
                ddf = divergence(df)
                dd = inner_derivative(div) if m else None
                for idx in canonical_indices(n, m):
                    lap = ddf.core(idx) * (m + 1) - (dd.core(idx) * m if m else 0)
                    assert lap == linear_combination(n, (
                        (f.derivative_core(idx, (a, a)), 1) for a in range(n)))

    def test_operators_share_one_level_step_per_level(self, monkeypatch):
        # the derivative levels of a field are built once, one level step
        # each, and every operator reads them: no quadric derivative per
        # sorted axis tuple
        from tentomo.polynomial import CoreStack
        levels, real = [], CoreStack.quadric_level

        def counted(self, j, *params):
            levels.append(j)
            return real(self, j, *params)
        monkeypatch.setattr(CoreStack, "quadric_level", counted)
        f = random_bump_field(3, 3, SplitMix64(41), power=5, degree=2)
        for k in range(4):
            generalized_W(f, k), generalized_R(f, k)
        inner_derivative(f), divergence(f)
        assert levels == [0, 1, 2]

    def test_python_int_fallback_gives_identical_components(self, monkeypatch):
        # a low int64 limit sends most kernels to Python ints (and some
        # stacks back to int64 when their measured bound is small again)
        from tentomo import polynomial
        from tentomo import spherequad as sq
        from tentomo.polynomial import random_homogeneous

        def everything(f):
            out = []
            for k in range(f.m + 1):
                wk, rk = generalized_W(f, k), generalized_R(f, k)
                out += [comps_of(wk), comps_of(rk), comps_of(r_to_w(rk)), comps_of(w_to_r(wk))]
                if k:
                    out.append(comps_of(lower_generalized_R(rk)))
            out.append(inner_derivative(f).cores)
            return out

        fields = list(oracle_fields(3, 3, 17))
        g = HomogeneousRational(random_homogeneous(3, 7, SplitMix64(18)), 2)
        want = [everything(f) for f in fields], sq.verify_ibp(g, 4)
        dtypes = set()
        real = polynomial.CoreStack.__init__

        def spy(self, *args, **kwargs):
            real(self, *args, **kwargs)
            dtypes.add(self.arr.dtype)
        monkeypatch.setattr(polynomial, "INT64_LIMIT", 1000)
        monkeypatch.setattr(polynomial.CoreStack, "__init__", spy)
        fields = list(oracle_fields(3, 3, 17))
        assert ([everything(f) for f in fields], sq.verify_ibp(g, 4)) == want
        assert dtypes == {np.dtype(object), np.dtype(np.int64)}
