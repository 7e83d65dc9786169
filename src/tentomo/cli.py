"""The ``tentomo`` command: run the suites of a JSON config through
``tentomo.suites``, then write a JSON report and one CSV residual table per suite.

Exit codes: 0 all residuals within tolerance, 1 residual failure, 2 config
parse error, malformed top level (a suite named twice too) or an output
directory or file that cannot be written, 3 a suite parameter ``validate``
rejected as breaking a precondition, 4 any other exception inside a suite
(its traceback goes to stderr).

The config is a single JSON document in the format ``tentomo.config``
declares; the only environment override is OUTPUT_DIR.  All randomness
derives from the seed through named SplitMix64 streams, so identical
config + seed reproduces identical report values.
Wall-clock timing lives in the report's ``timing`` blocks (and, only when
``timing_in_tables`` is set, in the CSV seconds column) because timings are
the one thing reruns cannot reproduce byte-for-byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import traceback

from .config import ConfigError, load_config, resolve, validate_config
from .rng import SplitMix64
from .suites import SUITE_RUNNERS


def run_suite(entry, rng, outdir):
    """Execute one configured suite; returns its report block."""
    t0 = time.perf_counter()
    params = resolve(entry)
    return {
        "scenario": entry["suite"],
        "config": params,
        "residuals": SUITE_RUNNERS[entry["suite"]](params, rng, outdir),
        "timing": {"total_seconds": time.perf_counter() - t0},
    }


def emit_tables(report, outdir, timing_in_tables=False):
    """One CSV per suite: check_name, parameters, residual, tolerance, pass,
    seconds.  The seconds column is left empty unless requested, keeping
    reruns byte-identical."""
    paths = []
    for block in report["suites"]:
        fname = block["scenario"].replace(".", "_") + ".csv"
        path = os.path.join(outdir, fname)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check_name", "parameters", "residual",
                             "tolerance", "pass", "seconds"])
            for row in block["residuals"]:
                params = json.dumps(row.get("parameters", {}), sort_keys=True)
                secs = repr(row.get("seconds", 0.0)) if timing_in_tables else ""
                writer.writerow([row["name"], params, repr(row["value"]),
                                 repr(row["tolerance"]), row["pass"], secs])
        paths.append(path)
    return paths


def _output_error(exc):
    print(f"error: cannot write output: {exc}", file=sys.stderr)
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tentomo",
        description="tensor-transform identity suites and UCP experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run configured suites")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--suite", default=None,
                       help="run only the named suite")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    try:
        doc = load_config(args.config)
        if getattr(args, "seed", None) is not None and isinstance(doc, dict):
            doc = {**doc, "seed": args.seed}  # the flag goes through the table too
        doc = validate_config(doc)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code

    if args.command == "validate":
        print(f"config ok: {len(doc['suites'])} suite(s): "
              + ", ".join(e["suite"] for e in doc["suites"]))
        return 0

    suites = doc["suites"]
    if args.suite is not None:
        suites = [e for e in suites if e["suite"] == args.suite]
        if not suites:
            print(f"error: no configured suite named {args.suite!r}",
                  file=sys.stderr)
            return 2
    seed = doc["seed"]
    outdir = args.out or os.environ.get("OUTPUT_DIR") or doc["output_dir"]
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        return _output_error(exc)

    report = {"schema": 1, "seed": seed, "suites": []}
    failed = False
    for entry in suites:
        rng = SplitMix64(seed).split(f"suite-{entry['suite']}")
        try:
            block = run_suite(entry, rng, outdir)
        except OSError as exc:  # a runner's only I/O is its output files
            return _output_error(exc)
        except Exception as exc:
            print(f"error: {entry['suite']}: internal error: "
                  f"{type(exc).__name__}: {exc}",
                  file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return 4
        report["suites"].append(block)
        for row in block["residuals"]:
            status = "PASS" if row["pass"] else "FAIL"
            failed = failed or not row["pass"]
            print(f"[{entry['suite']}] {status} {row['name']} "
                  f"value={row['value']:.6e} tol={row['tolerance']:.1e} "
                  f"{json.dumps(row.get('parameters', {}), sort_keys=True)}")

    try:
        # json.dumps without indent runs the C encoder; json.dump never does
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            fh.write(json.dumps(report, sort_keys=True))
        emit_tables(report, outdir,
                    timing_in_tables=doc["timing_in_tables"])
    except OSError as exc:
        return _output_error(exc)
    print(f"report written to {outdir}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
