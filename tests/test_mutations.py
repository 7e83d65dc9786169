"""The mutation table: each report row listed here, with a fault injected by
monkeypatch where the suite looks the name up.  The row must PASS on a run
and FAIL on the same run with the fault, so it cannot pass vacuously
against that fault."""

import numpy as np
import pytest

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


#: (row, mutation) pairs.
MUTATIONS = [
    ("pointwise_recovery_max_err", scale_largest_eta_product),
    ("transverse_scalar_reduction_max", scale_oracle_y),
]


@pytest.mark.parametrize("n,m", [(3, 2), (6, 4)])
@pytest.mark.parametrize("row,mutate", MUTATIONS, ids=[row for row, _ in MUTATIONS])
def test_ucp_trt_mutation_fails_its_row(row, mutate, n, m, monkeypatch, tmp_path):
    # at the default shape and at the largest that ``validate`` accepts
    def verdicts():
        rep = run_suite({"suite": "ucp.trt", "n": n, "m": m, "num_lines": 6},
                        SplitMix64(50), tmp_path)
        return [r["pass"] for r in rep["residuals"] if r["name"] == row]

    assert verdicts() == [True]
    mutate(monkeypatch)
    assert verdicts() == [False]
