"""Tests of the benchmark's own arithmetic and bookkeeping.

Run from the repository root:  python3 -m pytest verdictbench/tests -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, ".."))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_normalise_scales_by_nominal_over_mean_reference():
    assert run.normalise(2.0, 0.004, 0.006, nominal=0.005) == pytest.approx(2.0)
    # a machine running at half speed doubles both the operation and the loop
    assert run.normalise(4.0, 0.010, 0.010, nominal=0.005) == pytest.approx(2.0)
    assert run.normalise(3.0, 0.002, 0.004, nominal=0.006) == pytest.approx(6.0)


def test_trimmed_mean_drops_one_value_at_each_end():
    assert run.trimmed_mean([3.0, 1.0, 100.0, 2.0]) == pytest.approx(2.5)
    assert run.trimmed_mean([4.0, 2.0]) == pytest.approx(3.0)
    assert run.trimmed_mean([7.0]) == pytest.approx(7.0)


def test_self_time_subtracts_direct_children():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["d", 5.0, 9.0, 0, 0]]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_tracer_nests_spans_and_counts_only_inside_operations():
    tracer = tracing.Tracer()

    def inner():
        return 1

    def outer():
        return traced_inner() + 1

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(outer, "outer")
    assert traced_outer() == 2          # outside an operation: no span
    assert tracer.spans == []
    tracer.op = 0
    assert traced_outer() == 2
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, 0), ("inner", 0, 0)]


def test_op_seeds_are_distinct_and_reproducible():
    seeds = [workloads.op_seed(7, i) for i in range(5000)]
    assert len(set(seeds)) == len(seeds)
    assert seeds == [workloads.op_seed(7, i) for i in range(5000)]
    assert not set(seeds) & {workloads.op_seed(8, i) for i in range(5000)}
    assert all(0 <= s < 1 << 64 for s in seeds)
    with pytest.raises(ValueError):
        workloads.op_seed(-1, 0)


def test_rounds_repeat_exactly_and_prop_ray_seeds_ignore_workload_seed():
    for workload in run.REFERENCES:
        assert workloads.round_ops(workload, 5, 3) == workloads.round_ops(workload, 5, 3)
    a = workloads.round_ops("quadrature", 5, 4)
    b = workloads.round_ops("quadrature", 6, 4)
    assert a[0].seed != b[0].seed
    assert a[1] == b[1] and a[1].may_fault and a[1].config == "quadrature-fixed"


REF = run.REFERENCES["exact"]


class FakeChecker:
    """Stands in for the workloads module: a fixed report, no problems."""

    def __init__(self, failing=()):
        self.report = {"suites": [{"residuals": [
            {"name": name, "pass": False, "value": 1.0, "tolerance": 0.0}
            for name in failing]}]}

    def load_report(self, outdir):
        return self.report

    def check(self, op, report):
        return []

    is_known_fault = staticmethod(workloads.is_known_fault)


@pytest.mark.parametrize("exit_code", [1, 2, 3, 4])
def test_nonzero_exit_is_a_failed_operation(exit_code, tmp_path):
    op = workloads.Op("quadrature-seeded", 11)
    outcome = run.run_op(op, lambda argv: exit_code, FakeChecker(["x"]),
                         str(tmp_path), REF)
    assert outcome.failed and not outcome.known_fault
    assert run.summarise([[outcome]]) == (1, 1, False)


def test_prop_ray_fault_is_failed_but_keeps_the_run_correct(tmp_path):
    fault = workloads.Op("quadrature-fixed", 3, may_fault=True)
    checker = FakeChecker([workloads.PROP_RAY_FAULT_ROW])
    outcome = run.run_op(fault, lambda argv: 1, checker, str(tmp_path), REF)
    assert outcome.failed and outcome.known_fault
    passing = run.run_op(workloads.Op("quadrature-seeded", 11), lambda argv: 0,
                         FakeChecker(), str(tmp_path), REF)
    assert not passing.failed
    assert run.summarise([[passing, outcome]]) == (2, 1, True)
    # any other failing row on the same operation is not the known fault
    other = run.run_op(fault, lambda argv: 1,
                       FakeChecker([workloads.PROP_RAY_FAULT_ROW, "y"]),
                       str(tmp_path), REF)
    assert other.failed and not other.known_fault


def test_leray_projection_removes_a_gradient():
    import numpy as np
    N, L = 32, 4.0
    x = np.arange(N) * (L / N) - L / 2
    X, Y = np.meshgrid(x, x, indexing="ij")
    k = 2 * np.pi / L
    grad = np.stack([k * np.cos(k * X) * np.sin(2 * k * Y),
                     2 * k * np.sin(k * X) * np.cos(2 * k * Y)])
    curl = np.stack([np.sin(k * Y), np.zeros_like(X)])
    got = workloads.leray_projection(grad + curl, L)
    assert np.abs(got - curl).max() < 1e-12


def test_missing_target_is_reported_absent_and_uninstall_restores(monkeypatch):
    from tentomo import xray
    original = xray.ray_transform
    monkeypatch.setattr(tracing, "TARGETS", [
        ("tentomo.xray", "no_such_function", "xray.gone"),
        ("tentomo.xray", "ray_transform", "xray.ray")])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["tentomo.xray.no_such_function"]
        assert xray.ray_transform is not original
    finally:
        tracer.uninstall()
    assert xray.ray_transform is original
