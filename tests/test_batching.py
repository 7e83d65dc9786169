"""Batching cannot change a verdict: every line or point of a batched call
gets exactly the value it gets as a one-row call, whatever the other rows
of its batch are and in whatever order they come, and every rule of a
stacked call gets exactly the sums of a one-rule call."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from tentomo import cli, suites
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


def _rule(out, j=0):
    """Rule j's result of a call on a stack of rules."""
    return {key: v[j] for key, v in out.items()} if isinstance(out, dict) else out[j]


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
        ("_angular_sum", lambda r: _rule(no._angular_sum([expr], pts[r], 2, [RULE])[0])),
        ("_foot_point_sum", lambda r: _rule(no._foot_point_sum(f2, 1, pts[r], 1, 1, [RULE]))),
        ("verify_john_relation", lambda r: xr.verify_john_relation(f2, X[r], Xi[r])),
        ("n0_scalar", lambda r: _rule(no.n0_scalar(g, pts[r], [RULE]))),
        ("verify_momentum_key_identity",
         lambda r: _rule(no.verify_momentum_key_identity(f1, pts[r], 1, [RULE]))),
        ("verify_momentum_moment_identity",
         lambda r: _rule(no.verify_momentum_moment_identity(f2, pts[r], 1, [RULE]))),
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
    for fn in (lambda x: no._foot_point_sum(f, 1, x, 1, 1, [rule])[0],
               lambda x: no._angular_sum([expr], x, 2, [rule])[0, 0]):
        batch = fn(pts)
        for i in range(0, len(pts), 37):
            assert np.array_equal(fn(pts[i:i + 1]), batch[i:i + 1]), i


#: Rules of different sizes (21, 41, 61 and 321 nodes), as the convergence
#: checks stack them.
STACK = [build_rule(2, d) for d in (20, 40, 60, 320)]


def _stack_cases(seed):
    """(name, function of a rule stack) for every call that takes one."""
    rng = SplitMix64(seed)
    f1 = random_bump_field(2, 1, rng.split("f1"), power=4, degree=2)
    f2 = random_bump_field(2, 2, rng.split("f2"), power=6, degree=2)
    g = random_bump_field(2, 0, rng.split("g"), power=4, degree=2)
    pts = _rows(seed, 3, 1.6)[0] * 0.8
    expr = xr.john_operator(xr.TransformExpr.momentum(f2, 1), 0, 1)
    return [
        ("_angular_sum", lambda rules: no._angular_sum([expr], pts, 2, rules)[0]),
        ("_foot_point_sum", lambda rules: no._foot_point_sum(f2, 1, pts, 1, 1, rules)),
        ("n0_scalar", lambda rules: no.n0_scalar(g, pts, rules)),
        ("verify_momentum_key_identity",
         lambda rules: no.verify_momentum_key_identity(f1, pts, 1, rules)),
        ("verify_momentum_moment_identity",
         lambda rules: no.verify_momentum_moment_identity(f2, pts, 1, rules)),
    ]


def _assert_rules_match_one_rule_calls(fn, rules, name):
    alone = [_stacked(_rule(fn([rule]))) for rule in rules]
    for order in (rules, rules[::-1]):
        stacked = fn(order)
        for j, rule in enumerate(order):
            assert np.array_equal(_stacked(_rule(stacked, j)), alone[rules.index(rule)],
                                  equal_nan=True), (name, rule.degree)


def test_rules_of_a_stack_match_one_rule_calls():
    for name, fn in _stack_cases(5):
        _assert_rules_match_one_rule_calls(fn, STACK, name)


def test_rules_of_a_stack_above_one_block():
    # 40 points x 444 nodes fill two (point, node) blocks of the angular sum
    # and two node blocks of the foot-point sum; both cut across rules
    rng = SplitMix64(9)
    f = random_bump_field(2, 1, rng.split("f"), power=4, degree=2)
    expr = xr.TransformExpr.momentum(f, 1)
    pts = _rows(9, 40, 1.6)[0] * 0.8
    assert len(pts) * sum(len(rule) for rule in STACK) > no.LINE_BLOCK
    for name, fn in (("_foot_point_sum", lambda rules: no._foot_point_sum(f, 1, pts, 1, 1, rules)),
                     ("_angular_sum", lambda rules: no._angular_sum([expr], pts, 2, rules)[0])):
        _assert_rules_match_one_rule_calls(fn, STACK, name)


def test_kernel_calls_do_not_grow_with_the_degrees(monkeypatch):
    counts = {"chord_integrals": 0, "_foot_sinogram": 0}
    for mod, name in ((xr, "chord_integrals"), (no, "_foot_sinogram")):
        def counted(*args, _real=getattr(mod, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(mod, name, counted)
    seen = []
    for degrees in ([20, 40], [20, 40, 60, 80]):
        entry = {"suite": "identities.mrt", "lemma_cases": [[2, 1]],
                 "prop_cases": [[1, 1]], "degrees": degrees}
        cli.run_suite(entry, SplitMix64(0), None)
        seen.append(dict(counts))
        counts.update(dict.fromkeys(counts, 0))
    assert seen[0] == seen[1] and all(seen[0].values()), seen


def _atoms(n, seed):
    """(core, bump power, t power) atoms of a field's derivative levels 0-3,
    so of core degrees 3-6 and bump powers 4-1, with t powers 0 and 3."""
    f = random_bump_field(n, 1, SplitMix64(seed).split("f"), power=4, degree=3)
    return f.rho, [(core, f.power - j, tpow)
                   for j in range(4)
                   for core in f.level_cores(j)[::2 * n + 1]
                   for tpow in (0, 3) if core]


def _lines(n, seed, count=40):
    rng = SplitMix64(seed)
    children = [rng.split(f"line-{t}") for t in range(count)]
    return (np.array([c.point_in_ball(n, 1.8) for c in children]),
            np.array([(0.3, 1.0, 2.5)[t % 3] * np.asarray(c.direction(n))
                      for t, c in enumerate(children)]))


@pytest.mark.parametrize("n", [2, 3])
def test_an_atoms_column_does_not_depend_on_the_other_atoms_of_its_call(n):
    for seed in range(2):
        rho, atoms = _atoms(n, seed)
        X, Xi = _lines(n, seed)
        assert len({(max(c.degree(), 0) + t, e) for c, e, t in atoms}) >= 6
        batch = xr.chord_integrals(atoms, rho, X, Xi)
        assert np.any(batch != 0.0) and np.any(batch == 0.0)
        for col, atom in enumerate(atoms):
            assert np.array_equal(xr.chord_integrals([atom], rho, X, Xi)[:, 0],
                                  batch[:, col]), (seed, col)
        # and in a batch of two with the atom of the largest degree
        top = max(atoms, key=lambda a: a[0].degree() + a[2])
        for col, atom in enumerate(atoms):
            assert np.array_equal(xr.chord_integrals([top, atom], rho, X, Xi)[:, 1],
                                  batch[:, col]), (seed, col)


def _exprs(seed):
    """Expressions over three fields of one support: momenta of several
    orders, a John operator and a scalar transform."""
    rng = SplitMix64(seed)
    f1 = random_bump_field(2, 1, rng.split("f1"), power=4, degree=2)
    f2 = random_bump_field(2, 2, rng.split("f2"), power=6, degree=2)
    g = random_bump_field(2, 0, rng.split("g"), power=4, degree=2)
    return [xr.TransformExpr.momentum(f1, 2), xr.john_operator(xr.TransformExpr.momentum(f2, 1), 0, 1),
            xr.TransformExpr.momentum(g, 0), xr.TransformExpr.momentum(f2, 0).dxi(1),
            xr.TransformExpr.momentum(f1, 0)]


def test_eval_exprs_columns_are_one_expression_calls():
    for seed in range(6):
        exprs = _exprs(seed)
        X, Xi = _rows(seed, 30, 1.6)
        for Y in (None, X[:, ::-1]):
            batch = xr.eval_exprs(exprs, X, Xi, Y)
            assert batch.shape == (30, len(exprs))
            for i, expr in enumerate(exprs):
                assert np.array_equal(batch[:, i], expr.eval_lines(X, Xi, Y)), (seed, i)


def test_angular_sum_of_a_list_is_one_expression_calls():
    # 30 points x 444 nodes fill a block and part of a second
    exprs = _exprs(3)
    pts = _rows(3, 30, 1.6)[0] * 0.8
    for pts_, rules in ((pts[:4], [RULE]), (pts, STACK)):
        batch = no._angular_sum(exprs, pts_, 1, rules)
        for i, expr in enumerate(exprs):
            assert np.array_equal(batch[i], no._angular_sum([expr], pts_, 1, rules)[0]), i
        pair = no._angular_sum(exprs[:2], pts_, 2, rules)
        for i in range(2):
            assert np.array_equal(pair[i], no._angular_sum([exprs[i]], pts_, 2, rules)[0])


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of ``xray.chord_integrals`` calls so far."""
    calls = []
    real = xr.chord_integrals
    monkeypatch.setattr(xr, "chord_integrals", lambda *args: calls.append(1) or real(*args))
    return calls


def test_key_identity_makes_one_kernel_call_per_block(kernel_calls):
    rng = SplitMix64(12)
    f = random_bump_field(2, 2, rng.split("f"), power=6, degree=2)
    rule = build_rule(2, 40)
    pts = _rows(12, 500, 1.6)[0] * 0.8
    # 1 x 41 lines are one block, 500 x 41 two
    for count, k, blocks in ((1, 0, 1), (len(pts), 1, 2)):
        kernel_calls.clear()
        no.verify_momentum_key_identity(f, pts[:count], k, [rule])
        assert len(kernel_calls) == blocks == -(-count * len(rule) // no.LINE_BLOCK), count


def test_john_relation_makes_one_kernel_call_per_line_set(kernel_calls):
    f = random_bump_field(2, 2, SplitMix64(13), power=6, degree=2)
    for count in (1, 20):
        kernel_calls.clear()
        xr.verify_john_relation(f, *_rows(13, count, 1.6))
        assert len(kernel_calls) == 1


def test_ucp_line_data_make_one_kernel_call(kernel_calls, tmp_path):
    # ucp.mrt: the momentum data of every order; its normal operators go
    # through the foot-point sinogram
    cli.run_suite({"suite": "ucp.mrt", "n": 2, "m": 2, "k": 1, "num_lines": 8,
                   "num_points": 4}, SplitMix64(14), tmp_path)
    assert len(kernel_calls) == 1
    # ucp.trt: the scalar oracle, and the transverse transform
    kernel_calls.clear()
    cli.run_suite({"suite": "ucp.trt", "n": 3, "m": 2, "num_lines": 8,
                   "num_points": 3}, SplitMix64(15), tmp_path)
    assert len(kernel_calls) == 2
    kernel_calls.clear()
    f = random_bump_field(3, 2, SplitMix64(16), power=4, degree=2)
    X, Xi = _lines(3, 16, 12)
    suites._transverse_oracle(f, X, Xi, X[:, ::-1])
    assert len(kernel_calls) == 1
