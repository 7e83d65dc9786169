"""The mutation table: each report row listed here, with a fault injected by
monkeypatch where the suite looks the name up.  The row must PASS on a run
and FAIL on the same run with the fault, so it cannot pass vacuously
against that fault."""

from fractions import Fraction

import numpy as np
import pytest

from tentomo import normalops as no
from tentomo import polyfield as pf
from tentomo import spherequad as sq
from tentomo import suites
from tentomo import symtensor as st
from tentomo import xray as xr
from tentomo.cli import run_suite
from tentomo.rng import SplitMix64


def scale_largest_eta_product(monkeypatch):
    """The largest entry of the eta-product matrix scaled by 1 + 1e-6.  The
    recovery solves against the matrix, while ``suites._eta_pairings``
    contracts f with the etas directly, so the recovered f moves."""
    real = st.sym_power_rows

    def wrong(vectors, m):
        rows = real(vectors, m).copy()
        rows[np.unravel_index(np.abs(rows).argmax(), rows.shape)] *= 1 + 1e-6
        return rows

    monkeypatch.setattr(st, "sym_power_rows", wrong)


def scale_oracle_y(monkeypatch):
    """y scaled by 1 + 1e-6 inside the scalar oracle of the transverse data."""
    real = suites._transverse_oracle
    monkeypatch.setattr(suites, "_transverse_oracle",
                        lambda f, X, Om, Y: real(f, X, Om, Y * (1 + 1e-6)))


def mutate_sym_maps(monkeypatch, i_entry=None, j_entry=None, where=st):
    """Entry [0, 0, 0] of the i-table and j-table that ``sym_maps`` returns,
    an exact 1 in both, mapped by ``i_entry`` and ``j_entry`` where given.
    Only lookups in the module ``where`` see it: ``normalops`` holds its own
    name for ``symtensor.sym_maps``, so the default reaches ``suites`` and
    ``symtensor`` but not the normal operators or the moment identity."""
    real = st.sym_maps

    def wrong(n, m):
        tables = [t.copy() for t in real(n, m)]
        for table, change in zip(tables, (i_entry, j_entry)):
            if change:
                table[0, 0, 0] = change(table[0, 0, 0])
        return tuple(tables)

    monkeypatch.setattr(where, "sym_maps", wrong)


def scale_an_i_entry(monkeypatch):
    """One i-table entry times 1.001, a float that an integer cast truncates."""
    mutate_sym_maps(monkeypatch, i_entry=lambda x: x * 1.001)


def set_a_j_entry(monkeypatch):
    """One j-table entry set to 1001/1000."""
    mutate_sym_maps(monkeypatch, j_entry=lambda x: Fraction(1001, 1000))


def set_a_j_entry_of_the_moment_identity(monkeypatch):
    """One j-table entry set to 1001/1000 where ``normalops`` reads it: the
    j_x contractions of the moment identity's right-hand side."""
    mutate_sym_maps(monkeypatch, j_entry=lambda x: Fraction(1001, 1000), where=no)


def scale_c_constants(monkeypatch):
    """Every c_{l,s} times 1 + 1/1000, l = 0 included: at m = 1 the key
    identities read only c_{0,0} and c_{0,1}.  The table
    ``spherequad._ibp_weights`` caches the constants, so callers clear it
    before and after."""
    real = sq.c_constant
    monkeypatch.setattr(sq, "c_constant", lambda l, s, n: real(l, s, n) * Fraction(1001, 1000))


def scale_w_to_r(monkeypatch):
    """``w_to_r``'s output times 3/2: at (m, k) = (2, 1) that turns its
    constant (k+1)/(m+1) into the customary binom(m, k)/(m-k+1)."""
    real = pf.w_to_r

    def wrong(wkf):
        out = real(wkf)
        return pf.PairSymTensorField(out.n, out.npairs, out.blocks, out.rho, out.power,
                                     stack=out.stack.scale(Fraction(3, 2)))

    monkeypatch.setattr(pf, "w_to_r", wrong)


def skip_the_split_solve(monkeypatch):
    """The split's per-bin Gram solve left out: the right-hand sides j_w fhat
    stand in for i vhat."""
    monkeypatch.setattr(no, "_solve_spd", lambda a, b: b)


def nonpotential_field(monkeypatch):
    """``potential_field`` returns a random field of the rank and bump power
    of d^order v, drawn from a stream of its own, so that the suite's own
    draws do not move."""
    def wrong(v, order=1):
        return pf.random_bump_field(v.n, v.m + order, SplitMix64(order), power=v.power - order,
                                    degree=suites.UCP_CORE_DEGREE, label="nonpotential")

    monkeypatch.setattr(pf, "potential_field", wrong)


def zero_normal_operator(monkeypatch):
    """``normal_momentum_on_points`` returns zeros of its shape."""
    real = no.normal_momentum_on_points
    monkeypatch.setattr(no, "normal_momentum_on_points",
                        lambda *args: np.zeros_like(real(*args)))


def zero_top_order_data(monkeypatch):
    """The last column of every ``xray.eval_exprs`` result zeroed: in
    ucp.mrt, the momentum data of order k + 1."""
    real = xr.eval_exprs

    def wrong(*args):
        values = real(*args)
        values[:, -1] = 0.0
        return values

    monkeypatch.setattr(xr, "eval_exprs", wrong)


def zero_curvature_operators(monkeypatch):
    """``operator_R`` and ``generalized_R`` return their image minus itself,
    zero in the image's layout."""
    for name in ("operator_R", "generalized_R"):
        real = getattr(pf, name)
        monkeypatch.setattr(pf, name, lambda *args, real=real: real(*args) - real(*args))


def verdicts(config, row, out):
    rep = run_suite(config, SplitMix64(50), out)
    return [r["pass"] for r in rep["residuals"] if r["name"] == row]


#: (row, mutation) pairs.
MUTATIONS = [
    ("pointwise_recovery_max_err", scale_largest_eta_product),
    ("transverse_scalar_reduction_max", scale_oracle_y),
]


@pytest.mark.parametrize("n,m", [(3, 2), (6, 4)])
@pytest.mark.parametrize("row,mutate", MUTATIONS, ids=[row for row, _ in MUTATIONS])
def test_ucp_trt_mutation_fails_its_row(row, mutate, n, m, monkeypatch, tmp_path):
    # at the default shape and at the largest that ``validate`` accepts
    config = {"suite": "ucp.trt", "n": n, "m": m, "num_lines": 6}
    assert verdicts(config, row, tmp_path) == [True]
    mutate(monkeypatch)
    assert verdicts(config, row, tmp_path) == [False]


#: (row, mutation) pairs of ``identities.algebra``.
ALGEBRA_MUTATIONS = [(row, mutate) for row in ("sym_maps_adjoint", "sym_maps_commutator")
                     for mutate in (scale_an_i_entry, set_a_j_entry)] + \
    [(row, scale_w_to_r) for row in ("rw_roundtrips_exact", "generalized_rw_roundtrips_exact")]


@pytest.mark.parametrize("row,mutate", ALGEBRA_MUTATIONS,
                         ids=[f"{row}-{mutate.__name__}" for row, mutate in ALGEBRA_MUTATIONS])
def test_algebra_mutation_fails_its_row(row, mutate, monkeypatch, tmp_path):
    config = {"suite": "identities.algebra", "trials": 1, "roundtrip_trials": 1}
    assert verdicts(config, row, tmp_path) == [True]
    mutate(monkeypatch)
    assert verdicts(config, row, tmp_path) == [False]


#: (suite, rows, mutation) of the identity suites at their defaults.  The
#: ``*_monotone_slack`` rows FAIL under these mutations too, but only by
#: accident, so they are not listed; no mutation here reaches the
#: ``*_quadrature_error_decrease`` rows of prop-ray.
IDENTITY_MUTATIONS = [
    ("identities.prop-ray", {"prop_ray_m1_residual", "prop_ray_m2_residual"}, scale_c_constants),
    ("identities.mrt", {"prop_mrt_m1_k1_residual", "prop_mrt_m2_k1_residual"}, scale_c_constants),
    ("identities.mrt", {"lemma_mrt_m1_k1_residual", "lemma_mrt_m2_k1_residual",
                        "lemma_mrt_m2_k2_residual"}, set_a_j_entry_of_the_moment_identity),
]


def failing_rows(config, out):
    """The names of the rows of a run that FAIL, the slack rows left out."""
    return {r["name"] for r in run_suite(config, SplitMix64(50), out)["residuals"]
            if not r["pass"] and not r["name"].endswith("_monotone_slack")}


@pytest.mark.parametrize("suite,rows,mutate", IDENTITY_MUTATIONS,
                         ids=[f"{suite}-{mutate.__name__}" for suite, _, mutate in IDENTITY_MUTATIONS])
def test_identity_mutations_fail_their_rows(suite, rows, mutate, tmp_path):
    # the mutation FAILs every listed row name and no other row but a slack
    config = {"suite": suite}
    assert failing_rows(config, tmp_path) == set()
    sq._ibp_weights.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            mutate(patch)
            assert failing_rows(config, tmp_path) == rows
    finally:
        sq._ibp_weights.cache_clear()


def test_decompose_mutation_fails_its_row(monkeypatch, tmp_path):
    config = {"suite": "decompose", "N": 32, "L": 4.0, "m_values": [1, 2],
              "normal_consistency": False}
    assert verdicts(config, "delta_sf_relative", tmp_path) == [True, True]
    skip_the_split_solve(monkeypatch)
    assert verdicts(config, "delta_sf_relative", tmp_path) == [False, False]


#: (suite, row, mutation) of the UCP scenarios; ``{p}`` runs over the
#: orders 0..k of ucp.mrt, and ``{k1}`` is k + 1.
UCP_MUTATIONS = [
    ("ucp.ray", "curvature_operator_exactly_zero", nonpotential_field),
    ("ucp.ray", "ray_data_through_U_max", nonpotential_field),
    ("ucp.ray", "normal_operator_on_U_max", nonpotential_field),
    ("ucp.ray", "nonpotential_normal_nonvanishing", zero_normal_operator),
    ("ucp.ray", "curvature_operator_nonvanishing", zero_curvature_operators),
    ("ucp.mrt", "generalized_curvature_exactly_zero", nonpotential_field),
    ("ucp.mrt", "momentum_data_order{p}_through_U_max", nonpotential_field),
    ("ucp.mrt", "normal_momentum_order{p}_on_U_max", nonpotential_field),
    ("ucp.mrt", "momentum_data_order{k1}_nonvanishing", zero_top_order_data),
    ("ucp.mrt", "generalized_curvature_nonvanishing", zero_curvature_operators),
]
#: the default shape and a three-dimensional one of each scenario
UCP_SHAPES = [("ucp.ray", {"n": 2, "m": 1}), ("ucp.ray", {"n": 3, "m": 2}),
              ("ucp.mrt", {"n": 2, "m": 2, "k": 1}), ("ucp.mrt", {"n": 3, "m": 3, "k": 2})]


def ucp_passes(config, out):
    return {r["name"]: r["pass"] for r in run_suite(config, SplitMix64(50), out)["residuals"]}


@pytest.mark.parametrize("suite,shape", UCP_SHAPES,
                         ids=[f"{suite}-{'-'.join(map(str, shape.values()))}"
                              for suite, shape in UCP_SHAPES])
def test_ucp_mutations_fail_their_rows(suite, shape, tmp_path):
    # one clean run and one run per mutation, as the scenario at (3, 3, 2)
    # takes about 0.5 s a run; each mutation FAILs its rows and no other,
    # so the controls PASS on the non-potential field
    config, k = {"suite": suite, **shape, "num_lines": 6, "num_points": 4}, shape.get("k", 0)
    rows = {}
    for entry, row, mutate in UCP_MUTATIONS:
        if entry == suite:
            rows.setdefault(mutate, set()).update(row.format(p=p, k1=k + 1)
                                                  for p in range(k + 1))
    clean = ucp_passes(config, tmp_path)
    assert set(clean) == set().union(*rows.values()) and all(clean.values())
    for mutate, names in rows.items():
        with pytest.MonkeyPatch.context() as patch:
            mutate(patch)
            failed = {name for name, ok in ucp_passes(config, tmp_path).items() if not ok}
        assert failed == names, mutate.__name__
