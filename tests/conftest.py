"""Shared fixtures."""

import itertools
import math

import numpy as np
import pytest

from tentomo import spherequad as sq
from tentomo.polynomial import Polynomial


@pytest.fixture
def tilted_sphere(monkeypatch):
    """Integrate against xi_0 dS instead of dS on every sphere-integral path.

    Both sides of the IBP identity integrate odd functions, so every true
    residual is 0; tilted, the same arithmetic runs on nonzero values.  The
    dict path (``polynomial_sphere_integral``) and the stacked path (the
    monomial table ``_sphere_table``) are tilted alike.
    """
    sphere = sq.polynomial_sphere_integral
    monkeypatch.setattr(sq, "polynomial_sphere_integral",
                        lambda p: sphere(Polynomial.variable(p.n, 0) * p))

    def table(n, side):
        grid = [a for a in itertools.product(range(side), repeat=n)
                if a[0] % 2 and not any(x % 2 for x in a[1:])]
        values = [sq.monomial_sphere_integral(n, (a[0] + 1,) + a[1:]) for a in grid]
        den = math.lcm(*(v.coef.denominator for v in values))
        nums = np.array([v.coef.numerator * (den // v.coef.denominator) for v in values],
                        dtype=object)
        pos = np.ravel_multi_index(np.array(grid, dtype=int).reshape(-1, n).T, (side,) * n)
        return pos, nums, den, values[0].pi_pow if values else 0
    monkeypatch.setattr(sq, "_sphere_table", table)
