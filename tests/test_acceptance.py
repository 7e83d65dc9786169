"""Acceptance criteria, one test per criterion, with stated tolerances.

Each test prints one pass/fail line (run pytest with -s or check captured
output).  Exact-arithmetic criteria assert identity to rational equality;
quadrature criteria assert the stated tolerance at the stated rule degree;
grid criteria assert the stated relative L2 bounds.
"""

import math
import time

import numpy as np

from tentomo import normalops as no
from tentomo import polyfield as pf
from tentomo import spherequad as sq
from tentomo import suites
from tentomo import symtensor as st
from tentomo import xray as xr
from tentomo.cli import run_suite
from tentomo.polynomial import random_homogeneous
from tentomo.rng import SplitMix64

from test_normalops import div_normal

SEED = 0x7E4707  # fixed acceptance seed
FLOOR = 1e-12   # roundoff slack for monotonicity of already-converged values


def report(num, label, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({label}): {status} — {detail} "
          f"({time.time() - t0:.1f}s)")
    return ok


def combos(max_n=3, max_m=3):
    return [(n, m) for n in range(2, max_n + 1) for m in range(1, max_m + 1)]


def test_criterion_1_exact_algebra():
    t0 = time.time()
    rng = SplitMix64(SEED).split("c1")
    trials = 50
    # i/j adjointness and their commutator, exactly on the tables
    ok = all(suites._sym_maps_residuals(n, m) == (0, 0) for n, m in combos())
    for t in range(trials):
        n, m = combos()[t % len(combos())]
        child = rng.split(f"t{t}")
        field = pf.random_bump_field(n, m, child, power=m + 1, degree=2,
                                     label="s")
        flat = (0, 1) * m
        a = pf.operator_R_component(field, flat)
        b = pf.operator_R_component(field, (1, 0) + flat[2:])
        ok &= (a + b).is_zero()
        v = pf.random_bump_field(n, m - 1, child, power=m + 2, degree=2,
                                 label="v")
        pot = pf.inner_derivative(v)
        ok &= pf.saint_venant_W(pot).is_zero()
        ok &= pf.operator_R(pot).is_zero()
    elapsed_ok = time.time() - t0 <= 60
    assert report(1, "exact algebra", ok and elapsed_ok,
                  f"{trials} fields, n<=3, m<=3, exact rational equality",
                  t0)


def test_criterion_2_equivalence_round_trips():
    t0 = time.time()
    rng = SplitMix64(SEED).split("c2")
    ok = True
    for t in range(20):
        n, m = combos()[t % len(combos())]
        child = rng.split(f"t{t}")
        f = pf.random_bump_field(n, m, child, power=m + 1, degree=2)
        r = pf.operator_R(f)
        w = pf.saint_venant_W(f)
        ok &= (pf.r_to_w(r) - w).is_zero()
        ok &= (pf.w_to_r(w) - r).is_zero()
    for t in range(20):
        child = rng.split(f"g{t}")
        f = pf.random_bump_field(2, 2, child, power=2, degree=2)
        rk = pf.generalized_R(f, 1)
        wk = pf.generalized_W(f, 1)
        ok &= (pf.r_to_w(rk) - wk).is_zero()
        ok &= (pf.w_to_r(wk) - rk).is_zero()
    detail = "2^m and 1/(m+1) exact; generalized (m=2,k=1) exact with (k+1)/(m+1) = 2/3"
    elapsed_ok = time.time() - t0 <= 120
    assert report(2, "W<->R equivalences", ok and elapsed_ok, detail, t0)


def test_criterion_3_ibp_exact():
    t0 = time.time()
    rng = SplitMix64(SEED).split("c3")
    ok = True
    for n in (2, 3):
        for s in (1, 2, 3, 4):
            for t in range(20):
                child = rng.split(f"{n}-{s}-{t}")
                r = child.randint(0, 2)
                g = sq.HomogeneousRational(
                    random_homogeneous(n, s - 1 + 2 * r, child), r)
                ok &= all(r.is_zero() for r in sq.verify_ibp(g, s).values())
    spot = sq.c_constant(0, 1, 2) == 1 and sq.c_constant(0, 1, 3) == 2
    spot &= sq.c_constant(1, 2, 3) == -2
    for n in (2, 3):
        for m in (1, 2, 3):
            want = 1
            for p in range(m):
                want *= n - 1 + 2 * p
            spot &= sq.c_constant(0, m, n) == want
    elapsed = time.time() - t0
    assert report(3, "sphere IBP identity", ok and spot and elapsed <= 120,
                  "exactly zero for s<=4, n in {2,3}, all index tuples, "
                  "20 random g per case; c-constant spot checks", t0)


def test_criterion_4_john_relation():
    t0 = time.time()
    rng = SplitMix64(SEED).split("c4")
    worst = {1: 0.0, 2: 0.0}
    for m, tol in ((1, 1e-9), (2, 1e-8)):
        f = pf.random_bump_field(2, m, rng.split(f"f{m}"), power=2 * m + 2,
                                 degree=2)
        children = [rng.split(f"l{m}-{t}") for t in range(20)]
        lines = [(child.point_in_ball(2, 1.6), child.direction(2)) for child in children]
        X, Xi = (np.array(col) for col in zip(*lines))
        worst[m] = float(np.max(xr.verify_john_relation(f, X, Xi)))
    ok = worst[1] <= 1e-9 and worst[2] <= 1e-8
    elapsed_ok = time.time() - t0 <= 120
    assert report(4, "iterated John relation", ok and elapsed_ok,
                  f"max residual m=1: {worst[1]:.2e} (tol 1e-9), "
                  f"m=2: {worst[2]:.2e} (tol 1e-8), 20 lines x all components",
                  t0)


def _degree_sweep(evaluate, degrees=(20, 40, 60)):
    vals = evaluate([sq.build_rule(2, d) for d in degrees])
    monotone = all(b <= a + FLOOR for a, b in zip(vals, vals[1:]))
    return vals, monotone


def test_criterion_5_prop_ray():
    t0 = time.time()
    rng = SplitMix64(SEED).split("c5")
    ok = True
    details = []
    for m in (1, 2):
        f = pf.random_bump_field(2, m, rng.split(f"f{m}"), power=2 * m + 2,
                                 degree=2)
        pts = [np.asarray(rng.split(f"x{m}{i}").point_in_ball(2, 0.8))
               for i in range(2)] + [np.asarray([1.25, 0.45])]
        final = 0.0
        for x in pts:
            vals, monotone = _degree_sweep(
                lambda rules: np.max(np.abs(list(
                    no.verify_momentum_key_identity(f, [x], 0, rules).values())),
                    axis=(0, 2)))
            ok &= monotone and vals[-1] <= 1e-5
            final = max(final, vals[-1])
        # genuine quadrature convergence of the checked quantity at an
        # exterior point (the identity itself is pointwise in xi for n=2)
        rf = pf.operator_R(f)
        scalar = rf.component_field(next(iter(rf.canonical_keys())))
        *vals, ref = no.n0_scalar(scalar, [pts[-1]], [sq.build_rule(2, d)
                                                      for d in (20, 40, 60, 320)])[:, 0]
        errs = [abs(v - ref) for v in vals]
        # overall decrease must be genuine; adjacent steps may plateau when
        # kink positions align with nodes, so allow 10% slack there
        ok &= errs[2] < errs[0]
        ok &= all(b <= 1.1 * a + FLOOR for a, b in zip(errs, errs[1:]))
        details.append(f"m={m}: residual@60 {final:.2e}, "
                       f"side errors {errs[0]:.1e}>{errs[1]:.1e}>{errs[2]:.1e}")
    elapsed_ok = time.time() - t0 <= 600
    assert report(5, "ray-transform key identity", ok and elapsed_ok,
                  "; ".join(details), t0)


def test_criterion_6_momentum_identities():
    t0 = time.time()
    rng = SplitMix64(SEED).split("c6")
    ok = True
    details = []
    for m, k in ((1, 1), (2, 1), (2, 2)):
        f = pf.random_bump_field(2, m, rng.split(f"l{m}{k}"),
                                 power=2 * m + 2, degree=2)
        for x in (np.asarray(rng.split(f"xi{m}{k}").point_in_ball(2, 0.8)),
                  np.asarray([1.15, 0.55])):
            vals, monotone = _degree_sweep(
                lambda rules: np.max(np.abs(no.verify_momentum_moment_identity(f, [x], k, rules)),
                                     axis=(1, 2)))
            ok &= monotone and vals[-1] <= 1e-5
        details.append(f"lemma({m},{k}) ok")
    for m, k in ((1, 1), (2, 1)):
        f = pf.random_bump_field(2, m, rng.split(f"p{m}{k}"),
                                 power=2 * m + 2, degree=2)
        last = []
        for x in (np.asarray(rng.split(f"xp{m}{k}").point_in_ball(2, 0.8)),
                  np.asarray([1.15, 0.55])):
            vals, monotone = _degree_sweep(
                lambda rules: np.max(np.abs(list(no.verify_momentum_key_identity(
                    f, [x], k, rules).values())), axis=(0, 2)))
            ok &= monotone and vals[-1] <= 1e-5
            last.append(vals)
        details.append(f"prop({m},{k}) residual@60 {last[-1][-1]:.1e} "
                       f"trend {last[-1][0]:.1e}->{last[-1][-1]:.1e}")
    elapsed_ok = time.time() - t0 <= 900
    assert report(6, "momentum key identities", ok and elapsed_ok,
                  "; ".join(details), t0)


def test_criterion_7_normal_operator_consistency():
    t0 = time.time()
    rng = SplitMix64(SEED).split("c7")
    rule = sq.build_rule(2, 40)
    ok = True
    details = []

    def rel_error(f, k, N):
        g = no.GridTensorField.sample(f, N, 4.0)
        conv = no.normal_convolution(g, k=k)
        coords = g.axis_coords()
        pts = np.stack(np.meshgrid(coords, coords, indexing="ij"),
                       axis=-1).reshape(-1, 2)
        ang = no.normal_momentum_on_points(f, pts, k, rule)
        angf = no.GridTensorField(2, f.m, N, 4.0,
                                  ang.T.reshape(conv.comps.shape))
        return (conv - angf).norm_l2() / angf.norm_l2()

    for m, k in ((0, 0), (1, 0), (1, 1)):
        f = pf.random_bump_field(2, m, rng.split(f"f{m}{k}"), power=4,
                                 degree=2)
        rel = rel_error(f, k, 128)
        ok &= rel <= 1e-3
        details.append(f"(m={m},k={k}): {rel:.1e}")
        if (m, k) == (0, 0):
            rel256 = rel_error(f, k, 256)
            ok &= rel256 < rel
            details.append(f"N=256 improves: {rel256:.1e}")
    # delta^{k+1} N^k = 0 by finite differences
    f = pf.random_bump_field(2, 2, rng.split("dn"), power=6, degree=2)
    x = np.array([0.25, 0.15])
    h = 1e-4
    fd = 0.0
    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        fd += (div_normal(f, x + e, 1, 1, rule)[a]
               - div_normal(f, x - e, 1, 1, rule)[a]) / (2 * h)
    ok &= abs(fd) <= 1e-5
    details.append(f"delta^2 N^1 FD: {abs(fd):.1e}")
    elapsed_ok = time.time() - t0 <= 600
    assert report(7, "normal operator consistency", ok and elapsed_ok,
                  "; ".join(details), t0)


def test_criterion_8_solenoidal_decomposition():
    t0 = time.time()
    rng = SplitMix64(SEED).split("c8")
    ok = True
    details = []
    for m in (1, 2):
        f = pf.random_bump_field(2, m, rng.split(f"f{m}"), power=6, degree=2)
        g = no.GridTensorField.sample(f, 128, 4.0)
        sf, v = no.solenoidal_decompose(g)
        norm = g.norm_l2()
        r1 = no.delta_field(sf).norm_l2() / norm
        r2 = (sf + no.d_field(v) - g).norm_l2() / norm
        nf = no.normal_symbol(g)
        nsf = no.normal_symbol(sf)
        r3 = (nf - nsf).norm_l2() / nf.norm_l2()
        ok &= r1 <= 1e-9 and r2 <= 1e-10 and r3 <= 1e-6
        details.append(f"m={m}: delta sf {r1:.1e}, recon {r2:.1e}, "
                       f"N f=N sf {r3:.1e}")
    elapsed_ok = time.time() - t0 <= 300
    assert report(8, "solenoidal decomposition", ok and elapsed_ok,
                  "; ".join(details), t0)


def test_criterion_9_ucp_mechanics(tmp_path):
    t0 = time.time()
    rng = SplitMix64(SEED)
    ok = True
    details = []
    rep = run_suite({"suite": "ucp.ray", "n": 2, "m": 1, "num_lines": 20,
                     "num_points": 8}, rng.split("ray"), tmp_path)
    ok &= all(c["pass"] for c in rep["residuals"])
    details.append("ray: potential data vanish <= 1e-9, negative control fails"
                   " to vanish")
    rep = run_suite({"suite": "ucp.mrt", "n": 2, "m": 2, "k": 1, "num_lines": 15,
                     "num_points": 6}, rng.split("mrt"), tmp_path)
    ok &= all(c["pass"] for c in rep["residuals"])
    details.append("mrt: generalized-potential momentum data vanish")
    rep = run_suite({"suite": "ucp.trt", "n": 3, "m": 2, "num_lines": 12,
                     "num_points": 8}, rng.split("trt"), tmp_path)
    ok &= all(c["pass"] for c in rep["residuals"])
    rank_ok = st.sym_power_span_rank(st.sym_power_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)) == math.comb(3 + 2 - 1, 2)
    ok &= rank_ok
    details.append("trt: recovery exact to 1e-9 with rank C(n+m-1,m) "
                   "confirmed, dependent directions rejected")
    elapsed_ok = time.time() - t0 <= 300
    assert report(9, "UCP mechanics", ok and elapsed_ok,
                  "; ".join(details), t0)
