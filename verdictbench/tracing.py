"""Spans and counters around calls into tentomo's modules, for the traced run.

The wrappers are installed from here, not from the program: each wrapped
function records one span per call (name, start, end, parent span, operation
id) into an in-memory list, and a few of them also bump counters.  A wrapped
function that no longer exists is reported as absent, so a later change that
merges or renames a function leaves the trace running.
"""

from __future__ import annotations

import collections
import functools
import importlib
import statistics
import sys
import time

import numpy as np


def _suite_span_name(args):
    return "cli.suite:" + args[0]["suite"]


# (module, attribute path, span name, or a function of the call's arguments
# that returns one, or None for a count-only wrapper)
TARGETS = [
    ("tentomo.cli", "run_suite", _suite_span_name),
    ("tentomo.polynomial", "Polynomial.__mul__", "polynomial.mul"),
    ("tentomo.polynomial", "Polynomial.__rmul__", "polynomial.mul"),
    ("tentomo.polynomial", "Polynomial.__add__", "polynomial.add"),
    ("tentomo.polynomial", "Polynomial.__radd__", "polynomial.add"),
    ("tentomo.polyfield", "saint_venant_W", "polyfield.W"),
    ("tentomo.polyfield", "generalized_W", "polyfield.W"),
    ("tentomo.polyfield", "operator_R", "polyfield.R"),
    ("tentomo.polyfield", "operator_R_component", "polyfield.R"),
    ("tentomo.polyfield", "generalized_R", "polyfield.R"),
    ("tentomo.polyfield", "lower_generalized_R", "polyfield.R"),
    ("tentomo.polyfield", "r_to_w", "polyfield.convert"),
    ("tentomo.polyfield", "w_to_r", "polyfield.convert"),
    ("tentomo.polyfield", "generalized_r_to_w", "polyfield.convert"),
    ("tentomo.polyfield", "generalized_w_to_r", "polyfield.convert"),
    ("tentomo.polyfield", "solve_w_to_r_constant", "polyfield.convert"),
    ("tentomo.polyfield", "PolyBumpField.derivative_core",
     "polyfield.derivative_core"),
    ("tentomo.polyfield", "bump_core_diff", "polyfield.bump_core_diff"),
    ("tentomo.spherequad", "verify_ibp", "spherequad.ibp"),
    ("tentomo.spherequad", "HomogeneousRational.diff", "spherequad.hr_diff"),
    ("tentomo.spherequad", "metric_power_weight", "spherequad.metric_weight"),
    ("tentomo.spherequad", "build_rule", "spherequad.build_rule"),
    ("tentomo.symtensor", "symmetrize", "symtensor"),
    ("tentomo.symtensor", "i_mul", "symtensor"),
    ("tentomo.symtensor", "j_contract", "symtensor"),
    ("tentomo.symtensor", "inner", "symtensor"),
    ("tentomo.xray", "chord_integral", "xray.chord_integral"),
    ("tentomo.xray", "chord_interval", None),  # counts chords that meet the support
    ("tentomo.xray", "TransformExpr.eval", "xray.transform_eval"),
    ("tentomo.xray", "verify_john_relation", "xray.john"),
    ("tentomo.normalops", "verify_ray_key_identity", "normalops.key_identity"),
    ("tentomo.normalops", "verify_momentum_key_identity",
     "normalops.key_identity"),
    ("tentomo.normalops", "verify_momentum_moment_identity",
     "normalops.key_identity"),
    ("tentomo.normalops", "momentum_key_rhs_exprs", "normalops.rhs_exprs"),
    ("tentomo.normalops", "n0_scalar", "normalops.n0_scalar"),
    ("tentomo.normalops", "divergence_normal", "normalops.divergence_normal"),
    ("tentomo.normalops", "normal_momentum_on_points", "normalops.on_points"),
    ("tentomo.normalops", "normal_convolution", "normalops.convolution"),
    ("tentomo.normalops", "solenoidal_decompose", "normalops.decompose"),
    ("tentomo.normalops", "helmholtz_decompose_oracle", "normalops.decompose"),
    ("tentomo.normalops", "normal_symbol", "normalops.symbol"),
    ("tentomo.normalops", "fftconvolve", "normalops.fft"),
    ("numpy.fft", "fftn", "normalops.fft"),
    ("numpy.fft", "ifftn", "normalops.fft"),
]

# cli suite spans: suite name -> metric
SUITE_METRICS = {
    "identities.algebra": "cli.algebra_s", "identities.ibp": "cli.ibp_s",
    "identities.john": "cli.john_s", "identities.prop-ray": "cli.prop-ray_s",
    "identities.mrt": "cli.mrt_s", "ucp.ray": "cli.ucp_s",
    "ucp.mrt": "cli.ucp_s", "ucp.trt": "cli.ucp_s",
    "decompose": "cli.decompose_s",
}

# self time of spans -> metric
SELF_TIME_METRICS = {
    "polynomial.mul_s": {"polynomial.mul"},
    "polyfield.W_s": {"polyfield.W"},
    "polyfield.R_s": {"polyfield.R"},
    "polyfield.convert_s": {"polyfield.convert"},
    "spherequad.ibp_s": {"spherequad.ibp"},
    "spherequad.metric_weight_s": {"spherequad.metric_weight"},
    "symtensor.s": {"symtensor"},
    "xray.transform_eval_s": {"xray.transform_eval"},
    "xray.john_s": {"xray.john"},
    "normalops.key_identity_s": {"normalops.key_identity"},
    "normalops.rhs_exprs_s": {"normalops.rhs_exprs"},
    "normalops.divergence_normal_s": {"normalops.divergence_normal"},
    "normalops.on_points_s": {"normalops.on_points"},
    "normalops.convolution_s": {"normalops.convolution"},
    "normalops.decompose_s": {"normalops.decompose"},
    "normalops.symbol_s": {"normalops.symbol"},
}

# span calls -> metric
CALL_METRICS = {
    "polynomial.mul_calls": "polynomial.mul",
    "polynomial.add_calls": "polynomial.add",
    "polyfield.derivative_core_calls": "polyfield.derivative_core",
    "spherequad.hr_diff_calls": "spherequad.hr_diff",
    "spherequad.build_rule_calls": "spherequad.build_rule",
    "xray.chord_integral_calls": "xray.chord_integral",
    "xray.transform_eval_calls": "xray.transform_eval",
    "normalops.n0_scalar_calls": "normalops.n0_scalar",
    "normalops.fft_calls": "normalops.fft",
}

OP_SPAN = "cli.main"


def unit(metric):
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s") or metric == "symtensor.s":
        return "s"
    return "count"


def _count_work(tracer, name, args, result):
    if name == "polynomial.mul" and hasattr(args[1], "terms"):
        tracer.count("term_products", len(args[0].terms) * len(args[1].terms))
    elif name == "normalops.on_points":
        tracer.count("point_nodes", len(args[1]) * len(args[3].nodes))
    elif name == "normalops.fft":
        arrays = [a for a in args[:2] if isinstance(a, np.ndarray)]
        tracer.count("fft_bytes", sum(a.nbytes for a in arrays) + result.nbytes)
    elif name is None and result is not None:  # chord_interval
        tracer.count("chord_hits", 1)


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, op].
    Counters are kept per operation id."""

    OP_SPAN = OP_SPAN

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.op = -1
        self.absent = []
        self._stack = []
        self._undo = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key, amount):
        self.counts[self.op, key] += amount

    def wrap(self, fn, name):
        """Wrap fn; name None makes a count-only wrapper, name callable
        derives the span name from the call's arguments."""
        counted = name in ("polynomial.mul", "normalops.on_points",
                           "normalops.fft", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                _count_work(self, None, args, result)
                return result
            if self.op < 0:  # outside an operation, e.g. the benchmark's checks
                return fn(*args, **kwargs)
            idx = self.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counted:
                _count_work(self, name, args, result)
            return result
        return traced

    def install(self):
        """Wrap every target; the old references are kept for uninstall."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "tentomo" or key.startswith("tentomo.")]
        for modname, path, name in TARGETS:
            owner = importlib.import_module(modname)
            *head, attr = path.split(".")
            for part in head:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{modname}.{path}")
                continue
            wrapped = self.wrap(original, name)
            self._replace(owner, attr, original, wrapped)
            if not head:  # also rebind names imported from the module
                for mod in modules:
                    if mod is not owner and getattr(mod, attr, None) is original:
                        self._replace(mod, attr, original, wrapped)

    def _replace(self, owner, attr, original, wrapped):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(spans):
    """Self time per span: its duration minus the time of its direct
    children.  Children lie inside their parent, so this is the part of the
    span's interval that no child covers."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_n, start, end, _p, _o) in enumerate(spans)]


def layer_metrics(spans, counts, first_ops, rounds, ref_times):
    """Per-layer metrics, per round.

    Times are means over all rounds of the traced run.  Counts and ratios
    come from the operations of the first round (``first_ops``), whose
    inputs depend only on the workload seed, so they repeat exactly.
    """
    own = self_times(spans)
    totals = collections.defaultdict(float)
    calls = collections.Counter()
    for i, (name, start, end, _parent, op) in enumerate(spans):
        totals["self:" + name] += own[i]
        suite = name.removeprefix("cli.suite:")
        if suite in SUITE_METRICS:
            totals[SUITE_METRICS[suite]] += end - start
        if op in first_ops:
            calls[name] += 1
    out = {key: totals[key] / rounds for key in SUITE_METRICS.values()}
    out["cli.emit_s"] = _emit_time(spans) / rounds
    out["cli.raw_op_s"] = sum(e - s for n, s, e, _p, _o in spans
                              if n == OP_SPAN) / rounds
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(totals["self:" + n] for n in names) / rounds
    for metric, name in CALL_METRICS.items():
        out[metric] = calls[name]

    def counted(key):
        return sum(counts[op, key] for op in first_ops)

    out["polynomial.term_products"] = counted("term_products")
    out["polyfield.diff_hit_ratio"] = _diff_hit_ratio(spans, first_ops)
    out["xray.chord_hit_ratio"] = (counted("chord_hits")
                                   / max(calls["xray.chord_integral"], 1))
    out["normalops.point_nodes"] = counted("point_nodes")
    out["normalops.fft_mb"] = counted("fft_bytes") / 1e6
    out["machine.ref_loop_s"] = statistics.median(ref_times)
    return out


def _emit_time(spans):
    """Time each operation spends after its last suite: writing report.json
    and the CSV tables."""
    total = 0.0
    last_suite_end = {}
    for name, _start, end, _parent, op in spans:
        if name.startswith("cli.suite:"):
            last_suite_end[op] = max(last_suite_end.get(op, end), end)
    for name, _start, end, _parent, op in spans:
        if name == OP_SPAN and op in last_suite_end:
            total += end - last_suite_end[op]
    return total


def _diff_hit_ratio(spans, first_ops):
    """Share of derivative-core requests that needed no new bump_core_diff."""
    requests = [i for i, s in enumerate(spans)
                if s[0] == "polyfield.derivative_core" and s[4] in first_ops]
    missed = set()
    for name, _s, _e, parent, op in spans:
        if name != "polyfield.bump_core_diff" or op not in first_ops:
            continue
        while parent >= 0 and spans[parent][0] != "polyfield.derivative_core":
            parent = spans[parent][3]
        if parent >= 0:
            missed.add(parent)
    return 1.0 - len(missed) / len(requests) if requests else 0.0


def write_spans(spans, path):
    with open(path, "w") as fh:
        fh.write("op,name,start,end,parent\n")
        for name, start, end, parent, op in spans:
            fh.write(f"{op},{name},{start!r},{end!r},{parent}\n")
