"""The suite runners, one per suite of ``config.SUITES``, each
``(params, rng, outdir) -> rows``: ``params`` as ``config.resolve`` returns
it, the suite's SplitMix64 stream, and the output directory, where only the
ucp.ray and ucp.mrt runners write (their lines, as ``ucp_<scenario>_lines.csv``).
Rows are ``verdict.check_row`` records; rows named *_nonvanishing are
negative controls, which pass when the value exceeds the threshold.

ucp.ray and ucp.mrt always build f = d^(k+1) v by ``polyfield.potential_field``
(k = 0 for ucp.ray), whose vanishing rows must hold; their controls run on
random, non-potential fields.  That the vanishing rows can FAIL is shown by
the mutation table of the tests, with ``potential_field`` returning a
non-potential field.

Every suite runs on the calling thread alone: ``decompose`` takes each
normal-consistency case's angular reference and then its FFT convolutions,
one after the other, so no value depends on the CPUs the process may use.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction

import numpy as np

from . import normalops as no
from . import polyfield as pf
from . import spherequad as sq
from . import symtensor as st
from . import xray as xr
from .polynomial import random_homogeneous
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
    adjoint, commutator = map(max, zip(*(_sym_maps_residuals(n, m) for n, m in combos)))
    rows = [check_row(name, float(val), TOL_EXACT, {"max_n": 3, "max_m": 3})
            for name, val in (("sym_maps_adjoint", adjoint), ("sym_maps_commutator", commutator))]
    flags = {"pair_skew_symmetry": 0.0, "W_of_potential_zero": 0.0,
             "R_of_potential_zero": 0.0}
    for t in range(trials):
        n, m = combos[t % len(combos)]
        child = rng.split(f"algebra-{t}")

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

    rows += [check_row(name, val, TOL_EXACT,
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
        if not (pf.r_to_w(rimg) - wimg).is_zero():
            rt_worst = 1.0
        if not (pf.w_to_r(wimg) - rimg).is_zero():
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
        if not (pf.r_to_w(rk) - wk).is_zero() or not (pf.w_to_r(wk) - rk).is_zero():
            gen_worst = 1.0
    rows.append(check_row("generalized_rw_roundtrips_exact", gen_worst, TOL_EXACT,
                          {"m": 2, "k": 1}))
    rows += [check_row(name, val, TOL_EXACT, {"trials": params["roundtrip_trials"]})
             for name, val in controls.items()]
    return rows


def _integer_table(table):
    """(T, d) with table == T / d entry by entry: T an object array of
    Python ints and d the common denominator of the exact entries, a float
    entry counting at its exact binary value, so no entry is rounded."""
    exact = [Fraction(x) for x in table.flat]
    d = math.lcm(*(x.denominator for x in exact))
    return (np.array([x.numerator * (d // x.denominator) for x in exact], dtype=object)
            .reshape(table.shape), d)


def _sym_maps_residuals(n, m):
    """Exact max |residual| of the two identities of the ``sym_maps`` tables
    at (n, m), over every axis pair: imul_m[a]^T D_m - D_{m-1} jcon_m[a],
    D the diagonal of multiplicities, and m jcon_m[a] imul_m[b]
    - (m-1) imul_{m-1}[b] jcon_{m-1}[a] - delta_ab Id, the second term
    absent at m = 1.  Both are linear identities of the tables, so zero
    residuals certify i and j for every tensor and vector."""
    (imul, di), (jcon, dj) = map(_integer_table, st.sym_maps(n, m))
    d_lo, d_hi = (np.array([st.multiplicity(i) for i in st.canonical_indices(n, k)], dtype=object)
                  for k in (m - 1, m))
    adjoint = dj * imul.transpose(0, 2, 1) * d_hi - di * d_lo[:, None] * jcon
    # entry [a, b] is the commutator of j_a and i_b on S^(m-1), times den
    comm, den = m * (jcon[:, None] @ imul[None]), di * dj
    if m > 1:
        (ilo, dil), (jlo, djl) = map(_integer_table, st.sym_maps(n, m - 1))
        comm = comm * (dil * djl) - (m - 1) * den * (ilo[None] @ jlo[:, None])
        den *= dil * djl
    comm = comm - den * np.eye(n, dtype=object)[:, :, None, None] * np.eye(len(d_lo), dtype=object)
    return (Fraction(max(map(abs, adjoint.flat)), di * dj),
            Fraction(max(map(abs, comm.flat)), den))


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


def _sample_lines_through(rng, center, radius, count):
    """(X, Xi) of ``count`` lines through the ball about ``center``."""
    children = [rng.split(f"line-{t}") for t in range(count)]
    X = np.asarray(center) + np.array([c.point_in_ball(len(center), radius) for c in children])
    return X, np.array([c.direction(len(center)) for c in children])


def _run_john(params, rng, outdir):
    rows = []
    for case in params["cases"]:
        n, m, count, tol = case["n"], case["m"], case["lines"], case["tolerance"]
        child = rng.split(f"john-{n}-{m}")
        f = pf.random_bump_field(n, m, child, power=2 * m + 2, degree=2,
                                 label="f")
        X, Xi = _sample_lines_through(child, np.zeros(n), 1.5, count)
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
    one sinogram per order and one chord-kernel call per block of lines, with
    each rule's sums taken in its own rule order, bitwise a one-rule call.
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
        # sf's spectrum is its own, taken from its real-space samples: that
        # round trip is what delta_sf and the symbol gap check
        sf, v = no.solenoidal_decompose(g)
        norm = g.norm_l2()
        p = {"m": m, "N": N, "L": L}
        rows.append(check_row("delta_sf_relative",
                              no.delta_field(sf).norm_l2() / norm, 1e-9, p))
        rec = (sf + no.d_field(v) - g).norm_l2() / norm
        rows.append(check_row("reconstruction_relative", rec, 1e-10, p))
        nf = no.normal_symbol(g)
        nsf = no.normal_symbol(sf)
        rows.append(check_row("normal_f_vs_sf_relative",
                              (nf - nsf).norm_l2() / max(nf.norm_l2(), 1e-300), TOL_QUAD, p))
        v0 = pf.random_bump_field(2, m - 1, child, power=7, degree=2,
                                  label="v0")
        gp = no.GridTensorField.sample(pf.inner_derivative(v0), N, L)
        sfp = no.solenoidal_part(gp)
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
    spacings come from L and differ by an exact factor of 2).

    The reference runs first, then the convolutions, on this thread."""
    steps = (2, 1) if refine else (1,)
    g = no.GridTensorField.sample(f, steps[0] * N, L)
    coords = g.axis_coords()
    # the points go with the call, before the convolutions allocate
    ang = no.normal_momentum_on_points(
        f, np.stack(np.meshgrid(coords, coords, indexing="ij"), axis=-1).reshape(-1, 2),
        k, rule).T.reshape(g.comps.shape)
    rels = []
    for s in steps:
        conv = no.normal_convolution(no.GridTensorField(2, g.m, g.N // s, L, g.comps[:, ::s, ::s]),
                                     k=k)
        angf = no.GridTensorField(2, g.m, g.N // s, L, ang[:, ::s, ::s])
        rels.append((conv - angf).norm_l2() / max(angf.norm_l2(), 1e-300))
    return rels


# ---------------------------------------------------------------------------
# desk-scale unique-continuation mechanics
# ---------------------------------------------------------------------------

def _exact_zero_value(pair_field):
    """Largest |coefficient| of any component core, as a float."""
    return float(pair_field.stack.max_abs())


def _sample_u(rng, params):
    """(X, Xi, pts): ``num_lines`` lines through U, then ``num_points``
    points in it, U the ball of radius ``U_RADIUS`` about (0.2, 0, ...)."""
    n = params["n"]
    center = np.asarray([0.2] + [0.0] * (n - 1))
    X, Xi = _sample_lines_through(rng, center, U_RADIUS, params["num_lines"])
    pts = np.array([center + np.asarray(rng.split(f"pt{t}").point_in_ball(n, U_RADIUS))
                    for t in range(params["num_points"])])
    return X, Xi, pts


def _run_ucp_ray(params, rng, outdir):
    """A potential field's ray data and normal operator vanish on U."""
    n, m = params["n"], params["m"]
    rule = sq.build_rule(n, UCP_RULE_DEGREE)
    v = pf.random_bump_field(n, m - 1, rng, power=m + 3,
                             degree=UCP_CORE_DEGREE, label="v")
    f = pf.potential_field(v)
    rows = [check_row("curvature_operator_exactly_zero",
                      _exact_zero_value(pf.operator_R(f)), 1e-10)]
    X, Xi, pts = _sample_u(rng, params)
    data = xr.TransformExpr.momentum(f, 0).eval_lines(X, Xi)
    rows.append(check_row("ray_data_through_U_max", worst(np.abs(data)), UCP_TOL))
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
    rule = sq.build_rule(n, UCP_RULE_DEGREE)
    v = pf.random_bump_field(n, m - k - 1, rng, power=m + k + 4,
                             degree=UCP_CORE_DEGREE, label="v")
    f = pf.potential_field(v, order=k + 1)
    X, Xi, pts = _sample_u(rng, params)
    rows = [check_row("generalized_curvature_exactly_zero",
                      _exact_zero_value(pf.generalized_R(f, k)), 1e-10)]
    values = xr.eval_exprs([xr.TransformExpr.momentum(f, p) for p in range(k + 2)], X, Xi)
    for p in range(k + 1):
        rows.append(check_row(f"momentum_data_order{p}_through_U_max",
                              worst(np.abs(values[:, p])), UCP_TOL))
    for p in range(k + 1):
        nmax = worst(np.abs(no.normal_momentum_on_points(f, pts, p, rule)).ravel())
        rows.append(check_row(f"normal_momentum_order{p}_on_U_max", nmax, UCP_TOL))
    rows.append(check_row(f"momentum_data_order{k + 1}_nonvanishing",
                          worst(np.abs(values[:, k + 1])), UCP_FLOOR, mode="above"))
    # control of the exact-zero row, on a field drawn after every other draw
    f_neg = pf.random_bump_field(n, m, rng, power=m + k + 4,
                                 degree=UCP_CORE_DEGREE, label="neg")
    rows.append(check_row("generalized_curvature_nonvanishing",
                          _exact_zero_value(pf.generalized_R(f_neg, k)), 1e-10,
                          mode="above"))
    xr.write_transform_csv(os.path.join(outdir, "ucp_mrt_lines.csv"), X, Xi, values[:, :k + 1],
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
    eta_rows = st.sym_power_rows(etas, m)
    rows.append(check_row("sym_power_span_rank_deficit",
                          abs(st.sym_power_span_rank(eta_rows) - st.sym_dim(n, m)), 0.5))
    # f vanishes on U (support is disjoint from U by construction)
    pts_u = [u_center + np.asarray(rng.split(f"u{t}").point_in_ball(n, U_RADIUS))
             for t in range(params["num_points"])]
    rows.append(check_row("field_vanishes_on_U_max", worst(np.abs(f.values(pts_u)).ravel()),
                          1e-12))
    # pointwise recovery from pairings against the eta products, every
    # point in one solve
    fxs = f.values([rng.split(f"rp{t}").point_in_ball(n, 0.9)
                    for t in range(params["num_points"])]).T
    samples = _eta_pairings(fxs, etas, n, m)
    rec = xr.trt_pointwise_recover(eta_rows, samples, n, m)
    rows.append(check_row("pointwise_recovery_max_err", worst(np.abs(rec - fxs).ravel()),
                          UCP_TOL))
    # transverse data on lines from U into the support reduce to scalar
    # ray data of the contracted component <f, y^(.m)>
    X, Om, Y = (np.zeros((params["num_lines"], n)) for _ in range(3))
    for t in range(params["num_lines"]):
        child = rng.split(f"ray{t}")
        eta = np.asarray(etas[t % n])
        base = u_center + np.asarray(child.point_in_ball(n, U_RADIUS))
        target = np.asarray(child.point_in_ball(n, 0.8))
        omega = target - base
        Om[t] = omega = omega / np.linalg.norm(omega)
        X[t] = base - (base @ omega) * omega
        Y[t] = eta - (eta @ omega) * omega
    tvals = xr.TransformExpr.momentum(f, 0).eval_lines(X, Om, Y)
    rows.append(check_row("transverse_scalar_reduction_max",
                          worst(np.abs(tvals - _transverse_oracle(f, X, Om, Y))), 1e-10))
    # negative control: dependent directions make recovery singular
    bad = [etas[0]] * n
    try:
        xr.trt_pointwise_recover(st.sym_power_rows(bad, m), samples, n, m)
        raised = 0.0
    except ValueError:
        raised = 1.0
    rows.append(check_row("dependent_directions_rejected", raised, 0.5,
                          mode="above"))
    return rows


def _dense_view(values, n, m):
    """The dense (rows, n, .., n) array of canonical values (rows, dim S^m):
    every ordering of an index reads its canonical entry."""
    col = {idx: c for c, idx in enumerate(st.canonical_indices(n, m))}
    take = [col[tuple(sorted(dense))] for dense in itertools.product(range(n), repeat=m)]
    return values[:, take].reshape((len(values),) + (n,) * m)


def _eta_pairings(fxs, etas, n, m):
    """<f, eta_{c1} (.) ... (.) eta_{cm}> for each point's canonical values
    (points, dim S^m) and each canonical c: the dense tensor contracted slot
    by slot with the eta matrix, in float, not through ``sym_maps``."""
    eta, full = np.asarray(etas, dtype=float), _dense_view(fxs, n, m)
    for _ in range(m):
        full = np.tensordot(full, eta, axes=([1], [1]))
    return np.stack([full[(slice(None),) + c] for c in st.canonical_indices(n, m)], axis=1)


def _transverse_oracle(f, X, Om, Y):
    """int <f(x + t omega), y^(.m)> dt on each ray (X[l], Om[l], Y[l]), not by
    the atom expansion of J_m: one kernel call integrates each core on every
    ray, then their dense tensor contracts with y slot by slot, in float."""
    chords = xr.chord_integrals([(core, f.power, 0) for core in f.level_cores(0)],
                                f.rho, X, Om)
    out = _dense_view(chords, f.n, f.m)
    for _ in range(f.m):
        out = np.einsum("l...a,la->l...", out, Y)
    return out


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
