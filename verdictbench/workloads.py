"""Workloads, operation seeds and the correctness checks run after each
operation.

An operation is one ``tentomo.cli.main(["run", ...])`` call on one of the
configs in ``configs/``.  A round is the fixed group of operations a workload
repeats; runs attempt whole rounds only.  The checks run untimed and compute
their references here, independently of the program's stored output.
"""

from __future__ import annotations

import collections
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from tentomo import normalops as no
from tentomo import polyfield as pf
from tentomo import spherequad as sq
from tentomo import xray as xr
from tentomo.rng import SplitMix64

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

_MASK = (1 << 64) - 1

#: Seeds in 0-39 on which prop-ray's m = 2 convergence check fails although
#: every key-identity residual passes (the equispaced-rule error does not
#: fall monotonically for m = 2).  The quadrature-fixed operations run at
#: these seeds, whatever the workload seed, so every run fails the same
#: share of operations.
PROP_RAY_FAULT_SEEDS = (3, 6, 7, 13, 16, 20, 21, 22, 23, 24, 27, 29, 30, 33, 35)
PROP_RAY_FAULT_ROW = "prop_ray_m2_quadrature_error_decrease"

#: Seeds of the grid-fixed operations: the first 15, at all of which the
#: normal-consistency checks pass.  At seed-derived seeds they fail on about
#: 1 % of seeds (tolerance 1e-3 against a heavy-tailed discretisation error).
#: The workload seed picks where a run starts in this list.
GRID_FIXED_SEEDS = tuple(range(15))

#: Tolerances of the benchmark's own checks.
GAMMA_RTOL = 1e-12
RAY_QUAD_TOL = 1e-9
LERAY_TOL = 1e-10


def op_seed(workload_seed, index):
    """Seed of the index-th seed-derived operation of a run.

    The SplitMix64 step is a bijection of 64-bit words, so distinct
    (workload seed, index) pairs give distinct op seeds.
    """
    if not 0 <= workload_seed < 1 << 40 or not 0 <= index < 1 << 24:
        raise ValueError("workload seed or operation index out of range")
    z = ((workload_seed << 24 | index) + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Op:
    config: str          # name of a file in configs/, without .json
    seed: int
    may_fault: bool = False   # runs prop-ray at a PROP_RAY_FAULT_SEEDS seed

    def argv(self, outdir):
        return ["run", "--config", os.path.join(CONFIG_DIR, self.config + ".json"),
                "--seed", str(self.seed), "--out", outdir]


def round_ops(workload, workload_seed, r):
    """The operations of round r."""
    if workload == "quadrature":
        fault_seed = PROP_RAY_FAULT_SEEDS[r % len(PROP_RAY_FAULT_SEEDS)]
        return [Op("quadrature-seeded", op_seed(workload_seed, r)),
                Op("quadrature-fixed", fault_seed, may_fault=True)]
    if workload == "grid":
        fixed_seed = GRID_FIXED_SEEDS[(workload_seed + r) % len(GRID_FIXED_SEEDS)]
        return [Op("grid-seeded", op_seed(workload_seed, r)),
                Op("grid-fixed", fixed_seed)]
    return [Op(workload, op_seed(workload_seed, r))]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def is_known_fault(op, exit_code, problems, report):
    """True when a quadrature-fixed operation failed on prop-ray's m = 2
    convergence check alone, with every check of the benchmark passing."""
    failing = {row["name"] for block in report["suites"]
               for row in block["residuals"] if not row["pass"]}
    return (op.may_fault and exit_code == 1 and not problems
            and failing == {PROP_RAY_FAULT_ROW})


def check(op, report):
    """Problems found in one operation's output; empty when all is well."""
    problems = []
    rows = [row for block in report["suites"] for row in block["residuals"]]
    for row in rows:
        if not math.isfinite(row["value"]):
            problems.append(f"{row['name']}: non-finite residual {row['value']}")
    if op.config == "exact":
        problems += [f"{r['name']}: exact residual {r['value']!r} is not 0.0"
                     for r in rows if r["value"] != 0.0]
        problems += _check_sphere_monomials(op.seed)
    elif op.config.startswith("quadrature"):
        problems += [f"{r['name']}: residual {r['value']:.3e} above "
                     f"{r['tolerance']:.1e}" for r in rows
                     if _is_key_residual(r["name"]) and not r["value"] <= r["tolerance"]]
        problems += _check_ray_transform(op.seed)
    elif op.config.startswith("grid"):
        problems += _check_leray(op.seed)
    return problems


def _is_key_residual(name):
    return name.endswith("_residual") or name.startswith("john_relation")


def _check_sphere_monomials(seed, count=4):
    """Monomial sphere integrals against the Gamma-function formula
    2 prod Gamma((a_i + 1) / 2) / Gamma((|a| + n) / 2), zero for odd a_i."""
    rnd = random.Random(seed)
    problems = []
    for _ in range(count):
        n = rnd.choice((2, 3))
        exps = tuple(rnd.randrange(0, 7) for _ in range(n))
        if any(e % 2 for e in exps):
            want = 0.0
        else:
            want = 2.0 * math.prod(math.gamma((e + 1) / 2) for e in exps) \
                / math.gamma((sum(exps) + n) / 2)
        got = float(sq.monomial_sphere_integral(n, exps))
        if abs(got - want) > GAMMA_RTOL * abs(want):
            problems.append(f"sphere integral of xi^{exps}: {got!r} != {want!r}")
    return problems


def _multiplicity(idx):
    out = math.factorial(len(idx))
    for c in collections.Counter(idx).values():
        out //= math.factorial(c)
    return out


def field_value(doc, x):
    """Components of a bump field at x, from its ``to_json_dict`` form."""
    rho = doc["rho"]["num"] / doc["rho"]["den"]
    bump = rho * rho - sum(c * c for c in x)
    if bump <= 0.0:
        return {}
    out = {}
    for comp in doc["components"]:
        core = sum(t["num"] / t["den"] * math.prod(c ** e for c, e in zip(x, t["exps"]))
                   for t in comp["terms"])
        out[tuple(comp["index"])] = core * bump ** doc["s"]
    return out


def ray_transform_by_quad(doc, x, xi):
    """int <f(x + t xi), xi^m> dt over the support chord, by scipy's quad."""
    rho = doc["rho"]["num"] / doc["rho"]["den"]
    a, b = xi @ xi, 2.0 * (x @ xi)
    disc = b * b - 4.0 * a * (x @ x - rho * rho)
    if disc <= 0.0:
        return 0.0
    t0 = (-b - math.sqrt(disc)) / (2.0 * a)
    t1 = (-b + math.sqrt(disc)) / (2.0 * a)

    def integrand(t):
        vals = field_value(doc, x + t * xi)
        return sum(_multiplicity(idx) * math.prod(xi[i] for i in idx) * v
                   for idx, v in vals.items())

    value, _err = integrate.quad(integrand, t0, t1, epsabs=1e-11, epsrel=1e-11,
                                 limit=200)
    return value


def _check_ray_transform(seed, lines=3):
    rnd = random.Random(seed)
    problems = []
    for m in (1, 2):
        f = pf.random_bump_field(2, m, SplitMix64(seed).split(f"verdictbench-ray-{m}"),
                                 power=2 * m + 2, degree=2)
        doc = f.to_json_dict()
        for _ in range(lines):
            angle = rnd.uniform(0.0, 2.0 * math.pi)
            x = np.array([rnd.uniform(-0.9, 0.9), rnd.uniform(-0.9, 0.9)])
            xi = np.array([math.cos(angle), math.sin(angle)])
            got = xr.ray_transform(f, xr.Line(x, xi))
            want = ray_transform_by_quad(doc, x, xi)
            if abs(got - want) > RAY_QUAD_TOL * max(1.0, abs(want)):
                problems.append(f"ray transform m={m} on x={x}, xi={xi}: "
                                f"{got!r} vs quad {want!r}")
    return problems


def leray_projection(comps, L):
    """Divergence-free part of a periodic 2-D vector field by the Fourier
    projection f - w (w . f) / |w|^2, with the Nyquist bin carrying no
    derivative and the mean kept."""
    N = comps.shape[1]
    om = 2.0 * np.pi * np.fft.fftfreq(N, d=L / N)
    om[N // 2] = 0.0
    wx, wy = np.meshgrid(om, om, indexing="ij")
    k2 = wx * wx + wy * wy
    inv = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    fh = np.fft.fft2(comps)
    dot = (wx * fh[0] + wy * fh[1]) * inv
    return np.fft.ifft2(np.stack([fh[0] - wx * dot, fh[1] - wy * dot])).real


def _check_leray(seed, N=128, L=4.0):
    f = pf.random_bump_field(2, 1, SplitMix64(seed).split("verdictbench-leray"),
                             power=6, degree=2)
    g = no.GridTensorField.sample(f, N, L)
    sf, _v = no.solenoidal_decompose(g)
    ref = leray_projection(g.comps, L)
    err = np.linalg.norm(sf.comps - ref) / np.linalg.norm(g.comps)
    if not err <= LERAY_TOL:
        return [f"solenoidal_decompose vs Leray projection: relative {err:.3e}"]
    return []


def load_report(outdir):
    with open(os.path.join(outdir, "report.json")) as fh:
        return json.load(fh)
