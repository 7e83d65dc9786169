"""Batching cannot change a verdict: every line or point of a batched call
gets exactly the value it gets as a one-row call, whatever the other rows
of its batch are and in whatever order they come."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs

from tentomo import normalops as no
from tentomo import xray as xr
from tentomo.polyfield import random_bump_field
from tentomo.rng import SplitMix64
from tentomo.spherequad import build_rule

ROWS = 5
RULE = build_rule(2, 20)


def _rows(seed, count, radius):
    """(X, Xi): points in the ball of the given radius (some outside the
    support ball, so some lines miss) and unit directions."""
    rng = SplitMix64(seed)
    children = [rng.split(f"row-{t}") for t in range(count)]
    X = np.array([c.point_in_ball(2, radius) for c in children])
    Xi = np.array([c.direction(2) for c in children])
    return X, Xi


def _stacked(out):
    """A per-row result as one array with rows first."""
    return np.stack(list(out.values()), axis=1) if isinstance(out, dict) else out


def _cases(seed):
    """(name, function of row indices) for every batched kernel and check."""
    rng = SplitMix64(seed)
    f1 = random_bump_field(2, 1, rng.split("f1"), power=4, degree=2)
    f2 = random_bump_field(2, 2, rng.split("f2"), power=6, degree=2)
    g = random_bump_field(2, 0, rng.split("g"), power=4, degree=2)
    X, Xi = _rows(seed, ROWS, 1.6)
    pts = X * 0.8
    expr = xr.john_operator(xr.TransformExpr.momentum(f2, 1), 0, 1)
    return [
        ("eval_lines", lambda r: expr.eval_lines(X[r], Xi[r])),
        ("eval_lines transverse", lambda r: expr.eval_lines(X[r], Xi[r], X[r][:, ::-1])),
        ("_angular_sum", lambda r: no._angular_sum(expr, pts[r], 1, 2, RULE)),
        ("_foot_point_sum", lambda r: no._foot_point_sum(f2, 1, pts[r], 1, 1, RULE)),
        ("verify_john_relation", lambda r: xr.verify_john_relation(f2, X[r], Xi[r])),
        ("n0_scalar", lambda r: no.n0_scalar(g, pts[r], RULE)),
        ("verify_momentum_key_identity",
         lambda r: no.verify_momentum_key_identity(f1, pts[r], 1, RULE)),
        ("verify_momentum_moment_identity",
         lambda r: no.verify_momentum_moment_identity(f2, pts[r], 1, RULE)),
    ]


@settings(max_examples=8, deadline=None)
@given(seed=hs.integers(0, 2**63), order=hs.permutations(range(ROWS)),
       keep=hs.lists(hs.booleans(), min_size=ROWS, max_size=ROWS))
def test_rows_do_not_depend_on_their_batch(seed, order, keep):
    order = np.array(order)
    subset = np.flatnonzero(keep)
    for name, fn in _cases(seed):
        full = _stacked(fn(np.arange(ROWS)))
        assert np.array_equal(_stacked(fn(order)), full[order], equal_nan=True), name
        assert np.array_equal(_stacked(fn(subset)), full[subset], equal_nan=True), name
        for i in range(ROWS):
            assert np.array_equal(_stacked(fn(np.array([i]))), full[i:i + 1],
                                  equal_nan=True), (name, i)


def test_rows_of_a_batch_above_one_block():
    # 2 000 points x 41 nodes fill several (node, point) blocks, so a row's
    # nodes are split between blocks in the batch and not on their own
    rule = build_rule(2, 40)
    rng = SplitMix64(8)
    f = random_bump_field(2, 1, rng.split("f"), power=4, degree=2)
    expr = xr.TransformExpr.momentum(f, 1)
    axis = np.linspace(-1.2, 1.2, 50)
    pts = np.stack(np.meshgrid(axis, axis[::-1][:40], indexing="ij"), axis=-1).reshape(-1, 2)
    assert len(pts) * len(rule.nodes) > max(no.LINE_BLOCK, 2**16)
    for fn in (lambda x: no._foot_point_sum(f, 1, x, 1, 1, rule),
               lambda x: no._angular_sum(expr, x, 0, 2, rule)):
        batch = fn(pts)
        for i in range(0, len(pts), 37):
            assert np.array_equal(fn(pts[i:i + 1]), batch[i:i + 1]), i
