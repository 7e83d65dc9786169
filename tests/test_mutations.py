"""The mutation table: each report row listed here, with a fault injected by
monkeypatch where the suite looks the name up.  The row must PASS on a run
and FAIL on the same run with the fault, so it cannot pass vacuously
against that fault."""

from fractions import Fraction

import numpy as np
import pytest

from tentomo import normalops as no
from tentomo import polyfield as pf
from tentomo import suites
from tentomo import symtensor as st
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


def mutate_sym_maps(monkeypatch, i_entry=None, j_entry=None):
    """Entry [0, 0, 0] of every i-table and j-table of ``sym_maps``, an exact
    1 in both, mapped by ``i_entry`` and ``j_entry`` where given."""
    real = st.sym_maps

    def wrong(n, m):
        tables = [t.copy() for t in real(n, m)]
        for table, change in zip(tables, (i_entry, j_entry)):
            if change:
                table[0, 0, 0] = change(table[0, 0, 0])
        return tuple(tables)

    monkeypatch.setattr(st, "sym_maps", wrong)


def scale_an_i_entry(monkeypatch):
    """One i-table entry times 1.001, a float that an integer cast truncates."""
    mutate_sym_maps(monkeypatch, i_entry=lambda x: x * 1.001)


def set_a_j_entry(monkeypatch):
    """One j-table entry set to 1001/1000."""
    mutate_sym_maps(monkeypatch, j_entry=lambda x: Fraction(1001, 1000))


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


def test_decompose_mutation_fails_its_row(monkeypatch, tmp_path):
    config = {"suite": "decompose", "N": 32, "L": 4.0, "m_values": [1, 2],
              "normal_consistency": False}
    assert verdicts(config, "delta_sf_relative", tmp_path) == [True, True]
    skip_the_split_solve(monkeypatch)
    assert verdicts(config, "delta_sf_relative", tmp_path) == [False, False]
