"""Time to verdict of tentomo's exact, quadrature and grid paths.

Run from the root of a tentomo checkout:

    python3 verdictbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Each operation is one in-process ``tentomo.cli.main(["run", ...])`` call.
The run attempts whole rounds of operations until ``--seconds`` have passed,
checks every operation's output, and prints as its last line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_SAMPLES = 3

#: One BLAS/OpenMP thread.  With more, idle BLAS workers spin on the second
#: CPU for a while after each call, and on a 2-CPU machine whose CPUs share a
#: core that slows the main thread (and the reference loop) by up to 3x.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

SETUP_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "import tentomo.cli; print(time.monotonic())")


def reference_loop():
    """Fixed stdlib-only Fraction/dict work that calls no tentomo code."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 1500):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = i % 97
        table[key] = table.get(key, 0) + acc.numerator % 1009
    return acc, table


def polynomial_reference_loop():
    """Fixed stdlib-only product of two dict polynomials with Fraction
    coefficients: the kind of work the exact path does, with a working set
    closer to it than ``reference_loop``'s; calls no tentomo code."""
    a = {(i, j): Fraction(i - j, (i + j) % 4 + 1)
         for i in range(8) for j in range(8 - i)}
    b = {(i, j): Fraction(j + 1, i % 3 + 1) for i in range(6) for j in range(6 - i)}
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            total = out.get(key, 0) + c1 * c2
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


class NumpyReferenceLoop:
    """Fixed elementwise and matrix-vector work on a 1 MB float array, the
    kind of work the grid path does; calls no tentomo code.  The arrays are
    allocated once: allocating them on every call timed the allocator's page
    faults, which stop once the first grid operation has freed a large array
    and so raised the allocator's mmap threshold."""

    def __init__(self):
        self._arrays = None

    def __call__(self):
        import numpy as np  # imported here so that main() sets THREAD_ENV first
        if self._arrays is None:
            a = np.linspace(0.0, 1.0, 16384 * 8).reshape(-1, 8)
            self._arrays = a, np.linspace(0.0, 1.0, 8), np.empty_like(a)
        a, w, t = self._arrays
        total = 0.0
        for _ in range(12):
            np.multiply(a, a, out=t)
            np.subtract(0.5, t, out=t)
            np.maximum(t, 0.0, out=t)
            np.sqrt(t, out=t)
            np.multiply(t, a, out=t)
            total += float((t @ w).sum())
        return total


#: Reference loop per workload, each close to the kind of work the
#: workload does; README.md gives the measurements behind the choice.
REFERENCES = {"exact": polynomial_reference_loop, "quadrature": reference_loop,
              "grid": NumpyReferenceLoop()}

#: Normalised times are seconds on a machine where the workload's reference
#: loop takes this long; on the machine of README.md's figures each loop
#: takes a few milliseconds.
REF_NOMINAL_S = 0.005


def time_reference(loop=reference_loop, repeats=5):
    """Median time of a few reference loops: the machine's current speed.
    Garbage is collected first, so that what an operation left behind does
    not slow the loop."""
    gc.collect()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def normalise(raw_s, ref_before, ref_after, nominal=REF_NOMINAL_S):
    """Scale a measured time to the reference machine's speed, using the
    reference loop timed just before and just after the measurement."""
    return raw_s * nominal / ((ref_before + ref_after) / 2.0)


def setup_time(src):
    """Seconds from the start of a fresh interpreter until tentomo (with
    numpy and scipy) is imported and ready, normalised by the Fraction loop
    (importing is interpreter work)."""
    ref_before = time_reference()
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, src],
                         capture_output=True, text=True, timeout=120, check=True)
    ready = float(out.stdout.split()[-1])
    return normalise(ready - t0, ref_before, time_reference())


def trimmed_mean(values):
    """Mean without the lowest and the highest value (of all values when
    there are fewer than three)."""
    ordered = sorted(values)
    return statistics.mean(ordered[1:-1] if len(ordered) > 2 else ordered)


def peak_rss_mb():
    """Peak resident memory of this process and of its finished children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


@dataclass
class Outcome:
    """What one operation did: exit code, raw and normalised time, the
    reference loop around it, and the problems its checks found."""

    op: object
    exit_code: int
    seconds: float
    refs: tuple
    normalised: float
    problems: list
    known_fault: bool   # failed only on the kept prop-ray fault

    @property
    def failed(self):
        return self.exit_code != 0 or bool(self.problems)


def run_op(op, main, checker, outdir, loop, tracer=None, op_id=-1):
    """Run one operation between two timings of the reference loop; the
    checks run after that, untimed."""
    sink = io.StringIO()
    before = time_reference(loop)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if tracer is None:
            exit_code = main(op.argv(outdir))
        else:
            tracer.op = op_id
            span = tracer.open(tracer.OP_SPAN)
            try:
                exit_code = main(op.argv(outdir))
            finally:
                tracer.close(span)
                tracer.op = -1
    seconds = time.perf_counter() - t0
    refs = (before, time_reference(loop))
    normalised = normalise(seconds, *refs)
    try:
        report = checker.load_report(outdir)
        problems = checker.check(op, report)
    except (OSError, ValueError, KeyError) as exc:
        return Outcome(op, exit_code, seconds, refs, normalised,
                       [f"unreadable output: {exc!r}"], False)
    known_fault = checker.is_known_fault(op, exit_code, problems, report)
    if exit_code != 0 and not known_fault:
        problems.append(f"exit code {exit_code}; output ends: "
                        f"{sink.getvalue()[-800:]}")
    return Outcome(op, exit_code, seconds, refs, normalised, problems,
                   known_fault)


def run_rounds(workload, seed, seconds, main, checker, outdir, tracer=None,
               log=None):
    """Attempt whole rounds of operations until ``seconds`` have passed."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        ops = checker.round_ops(workload, seed, len(rounds))
        outcomes = [run_op(op, main, checker, outdir, REFERENCES[workload],
                           tracer, op_id=len(rounds) * len(ops) + i)
                    for i, op in enumerate(ops)]
        if log:
            for o in outcomes:
                log(f"round {len(rounds)} {o.op.config} seed {o.op.seed}: "
                    f"exit {o.exit_code}, raw {o.seconds:.3f} s, reference "
                    f"{o.refs[0] * 1e3:.2f}/{o.refs[1] * 1e3:.2f} ms, "
                    f"normalised {o.normalised:.3f} s"
                    + "".join(f"\n  problem: {p}" for p in o.problems))
        rounds.append(outcomes)
    return rounds


def summarise(rounds):
    """attempted, failed, correct.  An operation fails when it exits nonzero
    or a check finds a problem; the run stays correct while every failure is
    the known prop-ray fault."""
    outcomes = [o for r in rounds for o in r]
    failed = [o for o in outcomes if o.failed]
    correct = all(o.known_fault for o in failed)
    return len(outcomes), len(failed), correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(REFERENCES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 40:
        parser.error("--seed must be in [0, 2**40)")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tentomo", "cli.py")):
        print("error: no tentomo sources under ./src; run from the root of a "
              "tentomo checkout", file=sys.stderr)
        return 2
    outdir = os.path.join(HERE, "_out", args.workload)
    os.makedirs(outdir, exist_ok=True)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    os.environ.update(THREAD_ENV)  # before numpy is imported, here or in a probe

    setups = [] if args.trace else [setup_time(src) for _ in range(SETUP_SAMPLES)]
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads  # imports tentomo from ./src
    from tentomo import cli

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        for name in tracer.absent:
            log(f"trace: {name} is absent; its metrics read 0")

    for _ in range(3):  # the first calls are slow: imports, page faults
        time_reference(REFERENCES[args.workload])
    rounds = run_rounds(args.workload, args.seed, args.seconds, cli.main,
                        workloads, outdir, tracer, log)
    attempted, failed, correct = summarise(rounds)
    round_times = [sum(o.normalised for o in r) for r in rounds]
    raw_rounds = [sum(o.seconds for o in r) for r in rounds]
    ref_times = [t for r in rounds for o in r for t in o.refs]
    log(f"{len(rounds)} rounds; raw round time median "
        f"{statistics.median(raw_rounds):.4f} s, mean "
        f"{statistics.mean(raw_rounds):.4f} s; reference loop median "
        f"{statistics.median(ref_times) * 1e3:.3f} ms")

    if tracer is None:
        metrics = {
            "verdict_s": {"value": trimmed_mean(round_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    else:
        tracer.uninstall()
        first_ops = set(range(len(rounds[0])))
        values = tracing.layer_metrics(tracer.spans, tracer.counts, first_ops,
                                       len(rounds), ref_times)
        metrics = {name: {"value": value, "unit": tracing.unit(name)}
                   for name, value in values.items()}
        trace_path = os.path.join(outdir, f"trace-seed{args.seed}.csv")
        tracing.write_spans(tracer.spans, trace_path)
        log(f"spans written to {trace_path}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
