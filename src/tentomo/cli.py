"""Batch front end: run identity suites and UCP experiments from a JSON
config, emitting a JSON report and one CSV residual table per suite.

Exit codes: 0 all residuals within tolerance, 1 residual failure,
2 config parse error or unusable output directory, 3 a suite parameter
``validate`` rejected as breaking a precondition, 4 any exception inside a
suite (its traceback goes to stderr).

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
import numpy as np

from . import normalops as no
from . import polyfield as pf
from . import spherequad as sq
from . import symtensor as st
from . import xray as xr
from .config import ConfigError, load_config, resolve, validate_config
from .polynomial import random_homogeneous
from .rng import SplitMix64
from .verdict import check_row, worst

#: Tolerances by numerical path.
TOL_EXACT = 1e-10
TOL_QUAD = 1e-6
TOL_GRID = 1e-3

# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------

def _run_algebra(params, rng):
    trials = params["trials"]
    combos = [(n, m) for n in (2, 3) for m in (1, 2, 3)]
    worst = {"symmetrize_idempotent": 0.0, "ij_duality": 0.0,
             "pair_skew_symmetry": 0.0, "W_of_potential_zero": 0.0,
             "R_of_potential_zero": 0.0}
    for t in range(trials):
        n, m = combos[t % len(combos)]
        child = rng.split(f"algebra-{t}")

        dense = st.DenseTensor.from_function(
            n, m, lambda idx: child.rational(-5, 5))
        sym = st.symmetrize(dense)
        again = st.symmetrize(sym.to_dense())
        if not all(sym.get(i) == again.get(i)
                   for i in st.canonical_indices(n, m)):
            worst["symmetrize_idempotent"] = 1.0

        u = _random_sym(n, 1, child)
        fte = _random_sym(n, m, child)
        g = _random_sym(n, m + 1, child)
        if st.inner(st.i_mul(u, fte), g) != st.inner(fte, st.j_contract(u, g)):
            worst["ij_duality"] = 1.0

        field = pf.random_bump_field(n, m, child, power=m + 1, degree=2,
                                     label="skew")
        rimg = pf.operator_R(field)
        flat = rimg.key_to_index(next(iter(rimg.canonical_keys())))
        swapped = flat[1], flat[0], *flat[2:]
        direct = pf.operator_R_component(field, tuple(swapped[:2 * m]),
                                         flat[2 * m:])
        if not (direct + rimg.component_core(flat)).is_zero():
            worst["pair_skew_symmetry"] = 1.0

        v = pf.random_bump_field(n, m - 1, child, power=m + 2, degree=2,
                                 label="pot")
        pot = pf.inner_derivative(v)
        if not pf.saint_venant_W(pot).is_zero():
            worst["W_of_potential_zero"] = 1.0
        if not pf.operator_R(pot).is_zero():
            worst["R_of_potential_zero"] = 1.0

    rows = [check_row(name, val, TOL_EXACT,
                      {"trials": trials, "max_n": 3, "max_m": 3})
            for name, val in worst.items()]

    # W <-> R equivalences, the generalized (m=2, k=1) pair, and W, R controls
    rt_worst = 0.0
    controls = dict.fromkeys(("W_of_nonpotential_nonzero", "R_of_nonpotential_nonzero"), 0.0)
    for t in range(params["roundtrip_trials"]):
        n, m = combos[t % len(combos)]
        child = rng.split(f"roundtrip-{t}")
        field = pf.random_bump_field(n, m, child, power=m + 1, degree=2,
                                     label="rt")
        rimg = pf.operator_R(field)
        wimg = pf.saint_venant_W(field)
        if not (pf.r_to_w(rimg, m) - wimg).is_zero():
            rt_worst = 1.0
        if not (pf.w_to_r(wimg, m) - rimg).is_zero():
            rt_worst = 1.0
        for name, img in zip(controls, (wimg, rimg)):
            controls[name] = max(controls[name], float(img.is_zero()))
    rows.append(check_row("rw_roundtrips_exact", rt_worst, TOL_EXACT,
                          {"trials": params["roundtrip_trials"]}))

    gen_worst = 0.0
    default_ok = True
    solved = None
    for t in range(params["roundtrip_trials"]):
        child = rng.split(f"genrt-{t}")
        field = pf.random_bump_field(2, 2, child, power=2, degree=2, label="g")
        rk = pf.generalized_R(field, 1)
        wk = pf.generalized_W(field, 1)
        if not (pf.generalized_r_to_w(rk, 2, 1) - wk).is_zero():
            gen_worst = 1.0
        if not (pf.generalized_w_to_r(wk, 2, 1) - rk).is_zero():
            default_ok = False
            if solved is None:
                solved = pf.solve_w_to_r_constant(2, 2, 1, child.split("solve"))
            if solved is None or \
                    not (pf.generalized_w_to_r(wk, 2, 1, constant=solved) - rk).is_zero():
                gen_worst = 1.0
    extra = {"m": 2, "k": 1, "default_constant_ok": default_ok}
    if solved is not None:
        extra["solved_constant"] = f"{solved.numerator}/{solved.denominator}"
    rows.append(check_row("generalized_rw_roundtrips_exact", gen_worst, TOL_EXACT,
                          extra))
    rows += [check_row(name, val, TOL_EXACT, {"trials": params["roundtrip_trials"]})
             for name, val in controls.items()]
    return rows


def _random_sym(n, m, rng):
    out = st.SymTensor(n, m)
    for idx in st.canonical_indices(n, m):
        out[idx] = rng.rational(-5, 5)
    return out


def _run_ibp(params, rng):
    rows = []
    n_values = params["n_values"]
    s_values = params["s_values"]
    trials = params["trials_per_case"]
    for n in n_values:
        for s in s_values:
            res = []
            for t in range(trials):
                child = rng.split(f"ibp-{n}-{s}-{t}")
                pow2r = child.randint(0, 2)
                g = sq.HomogeneousRational(
                    random_homogeneous(n, s - 1 + 2 * pow2r, child), pow2r)
                # every ordered index reads the residual of its multiset
                res += [abs(float(r)) for r in sq.verify_ibp(g, s).values()]
            rows.append(check_row("ibp_residual", worst(res), TOL_EXACT,
                                  {"n": n, "s": s, "trials": trials}))
    spot = [abs(float(sq.c_constant(0, 1, n)) - (n - 1)) for n in n_values]
    spot.append(abs(float(sq.c_constant(1, 2, 3)) + 2.0))
    for n in n_values:
        for mdeg in s_values:
            want = np.prod([n - 1 + 2 * p for p in range(mdeg)])
            spot.append(abs(float(sq.c_constant(0, mdeg, n)) - want))
    rows.append(check_row("c_constant_spot_checks", worst(spot), TOL_EXACT, {}))
    return rows


def _run_john(params, rng):
    rows = []
    for case in params["cases"]:
        n, m, count, tol = case["n"], case["m"], case["lines"], case["tolerance"]
        child = rng.split(f"john-{n}-{m}")
        f = pf.random_bump_field(n, m, child, power=2 * m + 2, degree=2,
                                 label="f")
        children = [child.split(f"line-{t}") for t in range(count)]
        X = np.array([lc.point_in_ball(n, 1.5) for lc in children])
        Xi = np.array([lc.direction(n) for lc in children])
        rows.append(check_row("john_relation_residual",
                              worst(xr.verify_john_relation(f, X, Xi)), tol,
                              {"n": n, "m": m, "lines": count}))
        # potential fields: both sides vanish
        v = pf.random_bump_field(n, m - 1, child, power=3 * m + 2, degree=2,
                                 label="v")
        pot = pf.inner_derivative(v)
        x, xi = child.point_in_ball(n, 1.2), child.direction(n)
        rows.append(check_row("john_relation_potential",
                              worst(xr.verify_john_relation(pot, [x], [xi])), tol,
                              {"n": n, "m": m}))
    return rows


def _convergence_rows(label, f, k, degrees, points, tol, kind):
    """Residual rows plus monotonicity rows shared by prop-ray/mrt suites.

    ``kind`` "key" checks the momentum key identity (k = 0 is the ray key
    identity), "lemma" the momentum moment identity; any other kind is a
    ``ValueError``.  All the degrees' rules go through one call as one stack:
    one sinogram and one chord-kernel call per expression, with each rule's
    sums taken in its own rule order, bitwise those of a one-rule call.
    """
    if kind not in ("key", "lemma"):
        raise ValueError(f"unknown convergence kind {kind!r}")
    rows = []
    rules = [sq.build_rule(f.n, deg) for deg in degrees]
    # (degrees, points): the worst residual component
    if kind == "key":
        res = no.verify_momentum_key_identity(f, points, k, rules)
        by_degree = np.max(np.abs(list(res.values())), axis=0)
    else:
        res = no.verify_momentum_moment_identity(f, points, k, rules)
        by_degree = np.max(np.abs(res), axis=2)
    # one row per (degree, sample point); the stated tolerance is pinned at
    # the final (highest) degree, coarser degrees are trend diagnostics
    for j, deg in enumerate(degrees):
        bound = tol if j == len(degrees) - 1 else max(tol, 1e-2)
        for i, value in enumerate(by_degree[j]):
            rows.append(check_row(f"{label}_residual", value, bound,
                                  {"degree": deg, "point": i}))
    slack = worst(np.diff(by_degree, axis=0).ravel())
    rows.append(check_row(f"{label}_residual_monotone_slack", slack, 1e-12,
                          {"degrees": list(degrees)}))
    return rows


def _quadrature_convergence_row(label, f, x, degrees, ref_degree=320):
    """Genuine quadrature convergence of the checked quantity itself.

    The value is the worst violation of (a) overall decrease across the
    sweep and (b) per-step non-increase with 10% plateau slack (kink
    positions aligning with nodes can stall one step).
    """
    rf = pf.operator_R(f)
    key = next(iter(rf.canonical_keys()))
    comp = rf.component(rf.key_to_index(key))
    scalar = pf.PolyBumpField(f.n, 0, rf.rho, rf.power, {(): comp.core})
    *vals, ref = no.n0_scalar(scalar, [x], [sq.build_rule(f.n, d)
                                            for d in (*degrees, ref_degree)])[:, 0]
    errs = [abs(v - ref) for v in vals]
    violation = worst([errs[-1] - errs[0]]
                      + [errs[j + 1] - 1.1 * errs[j] for j in range(len(errs) - 1)])
    return check_row(f"{label}_quadrature_error_decrease", violation, 0.0,
                     {"degrees": list(degrees), "errors": [float(e) for e in errs]})


def _run_prop_ray(params, rng):
    rows = []
    degrees = params["degrees"]
    for m in params["m_values"]:
        child = rng.split(f"prop-ray-{m}")
        f = pf.random_bump_field(2, m, child, power=2 * m + 2, degree=2,
                                 label="f")
        pts = [np.asarray(child.point_in_ball(2, 0.8))
               for _ in range(3)]
        pts.append(np.asarray([1.25, 0.45]))
        rows += _convergence_rows(f"prop_ray_m{m}", f, 0, degrees, pts,
                                  params["tolerance"], "key")
        rows.append(_quadrature_convergence_row(
            f"prop_ray_m{m}", f, np.asarray([1.25, 0.45]), degrees))
    return rows


def _run_mrt(params, rng):
    rows = []
    degrees = params["degrees"]
    tol = params["tolerance"]
    for m, k in params["lemma_cases"]:
        child = rng.split(f"lemma-{m}-{k}")
        f = pf.random_bump_field(2, m, child, power=2 * m + 2, degree=2,
                                 label="f")
        pts = [np.asarray(child.point_in_ball(2, 0.8)),
               np.asarray([1.15, 0.55])]
        rows += _convergence_rows(f"lemma_mrt_m{m}_k{k}", f, k, degrees, pts,
                                  tol, "lemma")
    for m, k in params["prop_cases"]:
        child = rng.split(f"prop-mrt-{m}-{k}")
        f = pf.random_bump_field(2, m, child, power=2 * m + 2, degree=2,
                                 label="f")
        pts = [np.asarray(child.point_in_ball(2, 0.8)),
               np.asarray([1.15, 0.55])]
        rows += _convergence_rows(f"prop_mrt_m{m}_k{k}", f, k, degrees, pts,
                                  tol, "key")
    return rows


def _run_decompose(params, rng):
    rows = []
    N, L = params["N"], params["L"]
    for m in params["m_values"]:
        child = rng.split(f"decompose-{m}")
        f = pf.random_bump_field(2, m, child, power=6, degree=2, label="f")
        g = no.GridTensorField.sample(f, N, L)
        sf, v = no.solenoidal_decompose(g)
        norm = g.norm_l2()
        p = {"m": m, "N": N, "L": L}
        rows.append(check_row("delta_sf_relative", no.delta_field(sf).norm_l2() / norm,
                              1e-9, p))
        rec = (sf + no.d_field(v) - g).norm_l2() / norm
        rows.append(check_row("reconstruction_relative", rec, 1e-10, p))
        nf = no.normal_symbol(g)
        nsf = no.normal_symbol(sf)
        rows.append(check_row("normal_f_vs_sf_relative",
                              (nf - nsf).norm_l2() / max(nf.norm_l2(), 1e-300), TOL_QUAD, p))
        v0 = pf.random_bump_field(2, m - 1, child, power=7, degree=2,
                                  label="v0")
        gp = no.GridTensorField.sample(pf.inner_derivative(v0), N, L)
        sfp, _ = no.solenoidal_decompose(gp)
        rows.append(check_row("potential_sf_relative",
                              sfp.norm_l2() / gp.norm_l2(), TOL_QUAD, p))
        if m == 1:
            sfo, _ = no.helmholtz_decompose_oracle(g)
            rows.append(check_row("helmholtz_oracle_relative",
                                  (sf - sfo).norm_l2() / norm, 1e-10, p))
    if params["normal_consistency"]:
        rule = sq.build_rule(2, 40)
        for m, k in params["normal_cases"]:
            child = rng.split(f"normconv-{m}-{k}")
            f = pf.random_bump_field(2, m, child, power=4, degree=2, label="f")
            refine = params["refine"] and m == 0 and k == 0
            rels = _normal_consistency_rels(f, k, N, L, rule, refine)
            rows.append(check_row("normal_conv_vs_angular_relative", rels[0], TOL_GRID,
                                  {"m": m, "k": k, "N": N}))
            if refine:
                rows.append(check_row("normal_conv_refinement_improves",
                                      rels[1] - rels[0], 0.0, {"m": m, "k": k, "N": 2 * N}))
    return rows


def _normal_consistency_rels(f, k, N, L, rule, refine=False):
    """Relative gaps of the grid convolution to the angular reference at N,
    and at 2N too when ``refine`` is set: then f and the reference are taken
    once, on the 2N grid, whose even points are bitwise the N grid (both
    spacings come from L and differ by an exact factor of 2)."""
    steps = (2, 1) if refine else (1,)
    g = no.GridTensorField.sample(f, steps[0] * N, L)
    coords = g.axis_coords()
    pts = np.stack(np.meshgrid(coords, coords, indexing="ij"),
                   axis=-1).reshape(-1, 2)
    ang = no.normal_momentum_on_points(f, pts, k, rule).T.reshape(g.comps.shape)
    grids = [[no.GridTensorField(2, f.m, g.N // s, L, a[:, ::s, ::s]) for a in (g.comps, ang)]
             for s in steps]
    return [(no.normal_convolution(gs, k=k) - angf).norm_l2() / max(angf.norm_l2(), 1e-300)
            for gs, angf in grids]


SUITE_RUNNERS = {
    "identities.algebra": _run_algebra,
    "identities.ibp": _run_ibp,
    "identities.john": _run_john,
    "identities.prop-ray": _run_prop_ray,
    "identities.mrt": _run_mrt,
    "decompose": _run_decompose,
}


def run_suite(entry, rng, outdir):
    """Execute one configured suite; returns its report block."""
    name = entry["suite"]
    t0 = time.perf_counter()
    params = resolve(entry)
    if name.startswith("ucp."):
        scenario = name.removeprefix("ucp.")
        lines_csv = os.path.join(outdir, f"ucp_{scenario}_lines.csv")
        rows = no.ucp_experiment(scenario, params, rng, lines_csv)["residuals"]
    else:
        rows = SUITE_RUNNERS[name](params, rng)
    return {
        "scenario": name,
        "config": params,
        "residuals": rows,
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
        print(f"error: cannot use output directory: {exc}", file=sys.stderr)
        return 2

    report = {"schema": 1, "seed": seed, "suites": []}
    failed = False
    for pos, entry in enumerate(suites):
        rng = SplitMix64(seed).split(f"suite-{entry['suite']}")
        try:
            block = run_suite(entry, rng, outdir)
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

    # json.dumps without indent runs the C encoder; json.dump never does
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        fh.write(json.dumps(report, sort_keys=True))
    emit_tables(report, outdir,
                timing_in_tables=doc["timing_in_tables"])
    print(f"report written to {outdir}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
