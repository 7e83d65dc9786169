"""The suite runners, one per suite of ``config.SUITES``, each
``(params, rng, outdir) -> rows``: ``params`` as ``config.resolve`` returns
it, the suite's SplitMix64 stream, and the output directory, where only the
ucp.ray and ucp.mrt runners write (their lines, as ``ucp_<scenario>_lines.csv``).
Rows are ``verdict.check_row`` records; rows named *_nonvanishing are
negative controls, which pass when the value exceeds the threshold.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from . import normalops as no
from . import polyfield as pf
from . import spherequad as sq
from . import symtensor as st
from . import xray as xr
from .polynomial import Polynomial, random_homogeneous
from .verdict import check_row, worst

#: Tolerances by numerical path.
TOL_EXACT = 1e-10
TOL_QUAD = 1e-6
TOL_GRID = 1e-3

#: UCP tolerance, negative-control floor, radius of U, rule and core degrees.
UCP_TOL, UCP_FLOOR, U_RADIUS, UCP_RULE_DEGREE, UCP_CORE_DEGREE = 1e-9, 1e-3, 0.25, 30, 2


def _run_algebra(params, rng, outdir):
    trials = params["trials"]
    combos = [(n, m) for n in (2, 3) for m in (1, 2, 3)]
    flags = {"symmetrize_idempotent": 0.0, "ij_duality": 0.0,
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
            flags["symmetrize_idempotent"] = 1.0

        u = _random_sym(n, 1, child)
        fte = _random_sym(n, m, child)
        g = _random_sym(n, m + 1, child)
        if st.inner(st.i_mul(u, fte), g) != st.inner(fte, st.j_contract(u, g)):
            flags["ij_duality"] = 1.0

        field = pf.random_bump_field(n, m, child, power=m + 1, degree=2,
                                     label="skew")
        rimg = pf.operator_R(field)
        flat = rimg.key_to_index(next(iter(rimg.canonical_keys())))
        swapped = flat[1], flat[0], *flat[2:]
        direct = pf.operator_R_component(field, tuple(swapped[:2 * m]),
                                         flat[2 * m:])
        if not (direct + rimg.component_core(flat)).is_zero():
            flags["pair_skew_symmetry"] = 1.0

        v = pf.random_bump_field(n, m - 1, child, power=m + 2, degree=2,
                                 label="pot")
        pot = pf.inner_derivative(v)
        if not pf.saint_venant_W(pot).is_zero():
            flags["W_of_potential_zero"] = 1.0
        if not pf.operator_R(pot).is_zero():
            flags["R_of_potential_zero"] = 1.0

    rows = [check_row(name, val, TOL_EXACT,
                      {"trials": trials, "max_n": 3, "max_m": 3})
            for name, val in flags.items()]

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
    for t in range(params["roundtrip_trials"]):
        child = rng.split(f"genrt-{t}")
        field = pf.random_bump_field(2, 2, child, power=2, degree=2, label="g")
        rk = pf.generalized_R(field, 1)
        wk = pf.generalized_W(field, 1)
        if not (pf.generalized_r_to_w(rk, 2, 1) - wk).is_zero() or \
                not (pf.generalized_w_to_r(wk, 2, 1) - rk).is_zero():
            gen_worst = 1.0
    rows.append(check_row("generalized_rw_roundtrips_exact", gen_worst, TOL_EXACT,
                          {"m": 2, "k": 1}))
    rows += [check_row(name, val, TOL_EXACT, {"trials": params["roundtrip_trials"]})
             for name, val in controls.items()]
    return rows


def _random_sym(n, m, rng):
    out = st.SymTensor(n, m)
    for idx in st.canonical_indices(n, m):
        out[idx] = rng.rational(-5, 5)
    return out


def _run_ibp(params, rng, outdir):
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


def _sample_lines_through(rng, center, radius, count, n):
    """(X, Xi) of ``count`` lines through the ball about ``center``."""
    children = [rng.split(f"line-{t}") for t in range(count)]
    X = np.asarray(center) + np.array([c.point_in_ball(n, radius) for c in children])
    return X, np.array([c.direction(n) for c in children])


def _run_john(params, rng, outdir):
    rows = []
    for case in params["cases"]:
        n, m, count, tol = case["n"], case["m"], case["lines"], case["tolerance"]
        child = rng.split(f"john-{n}-{m}")
        f = pf.random_bump_field(n, m, child, power=2 * m + 2, degree=2,
                                 label="f")
        X, Xi = _sample_lines_through(child, np.zeros(n), 1.5, count, n)
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


def _quadrature_convergence_row(label, f, x, degrees):
    """Genuine quadrature convergence of the checked quantity itself, its
    errors taken against the degree-320 rule.

    The value is the worst violation of (a) overall decrease across the
    sweep and (b) per-step non-increase with 10% plateau slack (kink
    positions aligning with nodes can stall one step).
    """
    rf = pf.operator_R(f)
    scalar = rf.component_field(next(iter(rf.canonical_keys())))
    *vals, ref = no.n0_scalar(scalar, [x], [sq.build_rule(f.n, d)
                                            for d in (*degrees, 320)])[:, 0]
    errs = [abs(v - ref) for v in vals]
    violation = worst([errs[-1] - errs[0]]
                      + [errs[j + 1] - 1.1 * errs[j] for j in range(len(errs) - 1)])
    return check_row(f"{label}_quadrature_error_decrease", violation, 0.0,
                     {"degrees": list(degrees), "errors": [float(e) for e in errs]})


def _run_prop_ray(params, rng, outdir):
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


def _run_mrt(params, rng, outdir):
    rows = []
    degrees = params["degrees"]
    tol = params["tolerance"]
    # (cases, stream label, row label, convergence kind)
    for cases, stream, label, kind in ((params["lemma_cases"], "lemma", "lemma_mrt", "lemma"),
                                       (params["prop_cases"], "prop-mrt", "prop_mrt", "key")):
        for m, k in cases:
            child = rng.split(f"{stream}-{m}-{k}")
            f = pf.random_bump_field(2, m, child, power=2 * m + 2, degree=2,
                                     label="f")
            pts = [np.asarray(child.point_in_ball(2, 0.8)),
                   np.asarray([1.15, 0.55])]
            rows += _convergence_rows(f"{label}_m{m}_k{k}", f, k, degrees, pts,
                                      tol, kind)
    return rows


def _run_decompose(params, rng, outdir):
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


# ---------------------------------------------------------------------------
# desk-scale unique-continuation mechanics
# ---------------------------------------------------------------------------

def _exact_zero_value(pair_field):
    """Largest |coefficient| of any component core, as a float."""
    return float(pair_field.stack.max_abs())


def _run_ucp_ray(params, rng, outdir):
    """A potential field's ray data and normal operator vanish on U."""
    n, m = params["n"], params["m"]
    u_center = np.asarray([0.2] + [0.0] * (n - 1))
    rows = []
    rule = sq.build_rule(n, UCP_RULE_DEGREE)
    if params["potential"]:
        v = pf.random_bump_field(n, m - 1, rng, power=m + 3,
                                 degree=UCP_CORE_DEGREE, label="v")
        f = pf.inner_derivative(v)
    else:
        f = pf.random_bump_field(n, m, rng, power=m + 3,
                                 degree=UCP_CORE_DEGREE, label="f")
    rows.append(check_row("curvature_operator_exactly_zero",
                          _exact_zero_value(pf.operator_R(f)), 1e-10))
    X, Xi = _sample_lines_through(rng, u_center, U_RADIUS, params["num_lines"], n)
    data = xr.TransformExpr.momentum(f, 0).eval_lines(X, Xi)
    rows.append(check_row("ray_data_through_U_max", worst(np.abs(data)), UCP_TOL))
    pts = np.array([u_center + np.asarray(rng.split(f"pt{t}").point_in_ball(n, U_RADIUS))
                    for t in range(params["num_points"])])
    nmax = worst(np.abs(no.normal_momentum_on_points(f, pts, 0, rule)).ravel())
    rows.append(check_row("normal_operator_on_U_max", nmax, UCP_TOL))
    f_neg = pf.random_bump_field(n, m, rng, power=m + 3,
                                 degree=UCP_CORE_DEGREE, label="neg")
    neg = worst(np.abs(no.normal_momentum_on_points(f_neg, pts[:3], 0, rule)).ravel())
    rows.append(check_row("nonpotential_normal_nonvanishing", neg, UCP_FLOOR,
                          mode="above"))
    # control of the exact-zero row: R does not vanish on f_neg
    rows.append(check_row("curvature_operator_nonvanishing",
                          _exact_zero_value(pf.operator_R(f_neg)), 1e-10,
                          mode="above"))
    xr.write_transform_csv(os.path.join(outdir, "ucp_ray_lines.csv"), X, Xi,
                           data[:, None], ["value"])
    return rows


def _run_ucp_mrt(params, rng, outdir):
    """A generalized potential's momentum data of orders 0..k vanish on U."""
    n, m, k = params["n"], params["m"], params["k"]
    u_center = np.asarray([0.2] + [0.0] * (n - 1))
    rows = []
    rule = sq.build_rule(n, UCP_RULE_DEGREE)
    if params["potential"]:
        v = pf.random_bump_field(n, m - k - 1, rng, power=m + k + 4,
                                 degree=UCP_CORE_DEGREE, label="v")
        f = pf.potential_field(v, order=k + 1)
    else:
        f = pf.random_bump_field(n, m, rng, power=m + k + 4,
                                 degree=UCP_CORE_DEGREE, label="f")
    rows.append(check_row("generalized_curvature_exactly_zero",
                          _exact_zero_value(pf.generalized_R(f, k)), 1e-10))
    X, Xi = _sample_lines_through(rng, u_center, U_RADIUS, params["num_lines"], n)
    values = [xr.TransformExpr.momentum(f, p).eval_lines(X, Xi) for p in range(k + 2)]
    for p in range(k + 1):
        rows.append(check_row(f"momentum_data_order{p}_through_U_max",
                              worst(np.abs(values[p])), UCP_TOL))
    pts = np.array([u_center + np.asarray(rng.split(f"pt{t}").point_in_ball(n, U_RADIUS))
                    for t in range(params["num_points"])])
    for p in range(k + 1):
        nmax = worst(np.abs(no.normal_momentum_on_points(f, pts, p, rule)).ravel())
        rows.append(check_row(f"normal_momentum_order{p}_on_U_max", nmax, UCP_TOL))
    rows.append(check_row(f"momentum_data_order{k + 1}_nonvanishing",
                          worst(np.abs(values[k + 1])), UCP_FLOOR, mode="above"))
    # control of the exact-zero row, on a field drawn after every other draw
    f_neg = pf.random_bump_field(n, m, rng, power=m + k + 4,
                                 degree=UCP_CORE_DEGREE, label="neg")
    rows.append(check_row("generalized_curvature_nonvanishing",
                          _exact_zero_value(pf.generalized_R(f_neg, k)), 1e-10,
                          mode="above"))
    xr.write_transform_csv(os.path.join(outdir, "ucp_mrt_lines.csv"), X, Xi,
                           np.stack(values[:k + 1], axis=1),
                           [f"value_k{p}" for p in range(k + 1)])
    return rows


def _run_ucp_trt(params, rng, outdir):
    """Pointwise recovery from transverse pairings, and their line data."""
    n, m = params["n"], params["m"]
    rows = []
    f = pf.random_bump_field(n, m, rng, power=4,
                             degree=UCP_CORE_DEGREE, label="f")
    u_center = np.asarray([2.5] + [0.0] * (n - 1))
    while True:
        etas = [rng.split(f"eta{t}").direction(n) for t in range(n)]
        if abs(np.linalg.det(np.array(etas))) > 0.2:
            break
    rank = st.sym_power_span_rank([list(e) for e in etas], m)
    rows.append(check_row("sym_power_span_rank_deficit",
                          abs(rank - st.sym_dim(n, m)), 0.5))
    # f vanishes on U (support is disjoint from U by construction)
    pts_u = [u_center + np.asarray(rng.split(f"u{t}").point_in_ball(n, U_RADIUS))
             for t in range(params["num_points"])]
    fmax_u = worst(f.value(tuple(x)).max_abs() for x in pts_u)
    rows.append(check_row("field_vanishes_on_U_max", fmax_u, 1e-12))
    # pointwise recovery from pairings against the eta products
    errs = []
    for t in range(params["num_points"]):
        x = rng.split(f"rp{t}").point_in_ball(n, 0.9)
        fx = f.value(x)
        samples = {}
        for combo in st.canonical_indices(n, m):
            val = 0.0
            for dense in itertools.product(range(n), repeat=m):
                w = fx.get(dense)
                if w:
                    prod = 1.0
                    for eta_i, ax in zip(combo, dense):
                        prod *= etas[eta_i][ax]
                    val += w * prod
            samples[combo] = val
        rec = xr.trt_pointwise_recover([list(e) for e in etas], samples, m)
        errs.append((rec - fx).max_abs())
    rows.append(check_row("pointwise_recovery_max_err", worst(errs), UCP_TOL))
    # transverse data on lines from U into the support reduce to scalar
    # ray data of the contracted component <f, y^(.m)>
    rays, svals = [], []
    for t in range(params["num_lines"]):
        child = rng.split(f"ray{t}")
        eta = np.asarray(etas[t % n])
        base = u_center + np.asarray(child.point_in_ball(n, U_RADIUS))
        target = np.asarray(child.point_in_ball(n, 0.8))
        omega = target - base
        omega = omega / np.linalg.norm(omega)
        xpt = base - (base @ omega) * omega
        ray = xr.TransverseRay(omega, xpt, eta - (eta @ omega) * omega)
        rays.append(ray)
        # scalar oracle: contract f against y^(.m) componentwise, in float
        # coefficients, and integrate the contraction along the line
        contracted = Polynomial.zero(n)
        for dense in itertools.product(range(n), repeat=m):
            core = f.core(dense)
            if not core.is_zero():
                wy = 1.0
                for ax in dense:
                    wy *= ray.y[ax]
                contracted = contracted + core * wy
        svals.append(xr.chord_integrals([(contracted, f.power, 0)], f.rho,
                                        [ray.x], [ray.omega])[0, 0])
    tvals = xr.TransformExpr.momentum(f, 0).eval_lines(
        [r.x for r in rays], [r.omega for r in rays], [r.y for r in rays])
    rows.append(check_row("transverse_scalar_reduction_max",
                          worst(np.abs(tvals - svals)), 1e-10))
    # negative control: dependent directions make recovery singular
    bad = [list(etas[0])] * n
    try:
        xr.trt_pointwise_recover(bad, samples, m)
        raised = 0.0
    except ValueError:
        raised = 1.0
    rows.append(check_row("dependent_directions_rejected", raised, 0.5,
                          mode="above"))
    return rows


SUITE_RUNNERS = {
    "identities.algebra": _run_algebra,
    "identities.ibp": _run_ibp,
    "identities.john": _run_john,
    "identities.prop-ray": _run_prop_ray,
    "identities.mrt": _run_mrt,
    "decompose": _run_decompose,
    "ucp.ray": _run_ucp_ray,
    "ucp.mrt": _run_ucp_mrt,
    "ucp.trt": _run_ucp_trt,
}
