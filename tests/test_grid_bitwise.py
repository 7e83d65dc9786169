"""The grid path's array kernels against test-side copies of their earlier,
plainer formulas, bitwise.

Each kernel was rewritten to make fewer passes over its arrays or fewer
transforms (contiguous point chunks, block buffers allocated once per call, a
masked store for the miss rule, one preallocated kernel stack, per-axis
squares, shared spectra, one inverse transform per distinct spectral sum),
while keeping every floating-point operation, its operands and its order.
So each must agree with its copy here to the last bit, not to a tolerance.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from tentomo import normalops as no
from tentomo.cli import run_suite
from tentomo.polyfield import PolyBumpField, random_bump_field
from tentomo.polynomial import Polynomial
from tentomo.rng import SplitMix64
from tentomo.spherequad import build_rule
from tentomo.symtensor import canonical_indices, multiplicity
from tentomo.xray import TANGENCY_TOL, _int_power, _monomials, _xi_monomial_exps


# ---------------------------------------------------------------------------
# the foot-point backprojection
# ---------------------------------------------------------------------------

def _plain_horner(coeffs, s):
    if coeffs.ndim == 1:
        return coeffs[:, None]
    acc = _plain_horner(coeffs[..., -1], s[:-1])
    for d in range(coeffs.shape[-1] - 2, -1, -1):
        acc = acc * s[-1]
        acc += _plain_horner(coeffs[..., d], s[:-1])
    return acc


def _plain_node_dots(vecs, x):
    out = vecs[:, 0, None] * x[0]
    for a in range(1, len(x)):
        out += vecs[:, a, None] * x[a]
    return out


def _plain_foot_point_sum(f, k, pts, p, rank, rules):
    """``normalops._foot_point_sum`` with strided point chunks, a fresh
    array per product and the miss rule as a multiply by a 0/1 mask."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    nodes, weights, bounds = no._stacked_nodes(rules)
    basis, r = no._foot_sinogram(f, k, nodes)
    rho2 = float(f.rho)**2
    out_exps = [_xi_monomial_exps(idx, f.n) for idx in canonical_indices(f.n, rank)]
    node_w = np.stack([weights * _monomials(nodes, e) for e in out_exps], axis=1)
    out = np.zeros((len(rules), len(out_exps), len(pts)))
    pb = max(1, min(len(pts), no.LINE_BLOCK))
    nb = max(1, no.LINE_BLOCK // pb)
    for p0 in range(0, len(pts), pb):
        x = pts[p0:p0 + pb].T
        totals = list(out[:, :, p0:p0 + pb])
        for n0 in range(0, len(nodes), nb):
            sl = slice(n0, n0 + nb)
            s = [_plain_node_dots(basis[sl, j], x) for j in range(f.n - 1)]
            h = s[0] * s[0]
            for c in s[1:]:
                h += c * c
            np.subtract(rho2, h, out=h)
            root = np.maximum(h, 0.0)
            np.sqrt(root, out=root)
            root *= root > TANGENCY_TOL
            vals = _plain_horner(r[sl], s) * _int_power(h, f.power)
            vals *= root
            if p:
                vals *= _int_power(_plain_node_dots(nodes[sl], x), p)
            rows = node_w[sl, :, None] * vals[:, None, :]
            for j, total in enumerate(totals):
                for row in rows[max(bounds[j] - n0, 0):max(bounds[j + 1] - n0, 0)]:
                    total += row
    return out.transpose(0, 2, 1)


def _constant_field(n, m, power):
    """A field whose every core is a nonzero constant: degree-0 sinograms
    at k = 0."""
    cores = {idx: Polynomial.constant(n, Fraction(pos + 2, 3))
             for pos, idx in enumerate(canonical_indices(n, m))}
    return PolyBumpField(n, m, Fraction(1), power, cores)


def _points(n, count, seed):
    """Random points over a box 1.3 times the unit support ball's radius."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.3, 1.3, size=(count, n))


def _assert_pinned(f, k, pts, p, rank, rules):
    got = no._foot_point_sum(f, k, pts, p, rank, rules)
    want = _plain_foot_point_sum(f, k, pts, p, rank, rules)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


RULE = build_rule(2, 40)
STACK = [build_rule(2, 12), build_rule(2, 20)]


class TestFootPointPinned:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("power", [0, 3])
    def test_degree_zero_core(self, n, power):
        rule = RULE if n == 2 else build_rule(3, 8)
        f = _constant_field(n, 1, power)
        assert max(core.degree() for core in f.cores.values()) == 0
        pts = _points(n, 57, 1)
        _assert_pinned(f, 0, pts, 0, 1, [rule])
        _assert_pinned(f, 0, pts, 2, 0, [rule])
        assert np.abs(no._foot_point_sum(f, 0, pts, 0, 1, [rule])).max() > 0.0

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_every_rank_and_order(self, m, k):
        f = random_bump_field(2, m, SplitMix64(300 + 3 * m + k), power=4, degree=2)
        pts = _points(2, 200, 2)
        for p, rank in {(k, m), (0, m), (k, max(m - 1, 0))}:
            _assert_pinned(f, k, pts, p, rank, [RULE])

    def test_two_rule_stack(self):
        f = random_bump_field(2, 1, SplitMix64(310), power=3, degree=2)
        _assert_pinned(f, 1, _points(2, 300, 3), 1, 1, STACK)

    @pytest.mark.parametrize("count", [1, no.LINE_BLOCK, no.LINE_BLOCK + 1])
    def test_chunk_sizes(self, count):
        f = random_bump_field(2, 1, SplitMix64(311), power=4, degree=2)
        _assert_pinned(f, 1, _points(2, count, 4), 1, 1, [build_rule(2, 4)])

    def test_three_dimensions_past_one_chunk(self):
        # two Horner levels and a power of <x,xi> in blocks of one node, on a
        # full chunk and then on a chunk of one point
        f = random_bump_field(3, 2, SplitMix64(312), power=3, degree=2)
        _assert_pinned(f, 1, _points(3, no.LINE_BLOCK + 1, 6), 1, 2, [build_rule(3, 4)])

    def test_two_rule_stack_in_one_node_blocks(self):
        # every block is one node, so the rule bounds fall between blocks
        f = random_bump_field(2, 1, SplitMix64(313), power=3, degree=2)
        _assert_pinned(f, 1, _points(2, no.LINE_BLOCK, 7), 1, 1, STACK)

    def test_grazing_line_at_power_zero(self):
        # half-chord ~1e-6 along node (1, 0) at the first point, and exactly
        # 0 at the second: a hit and a miss next to each other
        f = random_bump_field(2, 1, SplitMix64(97), power=0, degree=2)
        pts = np.array([[0.3, 1.0 - 5e-13], [0.3, 1.0], [0.2, 0.1]])
        for k in range(2):
            _assert_pinned(f, k, pts, k, 1, [RULE])

    def test_half_chord_below_the_tangency_tolerance(self):
        # rho = 2^-30 makes H fine enough for 0 < sqrt(H) <= TANGENCY_TOL:
        # along node (1, 0) the first point has sqrt(H) ~ 1.3e-15, a miss
        # that only the miss rule zeroes
        rho = 2.0**-30
        f = random_bump_field(2, 1, SplitMix64(98), rho=Fraction(rho), power=0, degree=2)
        pts = np.array([[0.3 * rho, rho * (1 - 2.0**-40)], [0.2 * rho, 0.1 * rho]])
        assert 0.0 < np.sqrt(rho**2 - pts[0, 1]**2) <= TANGENCY_TOL
        for k in range(2):
            _assert_pinned(f, k, pts, k, 1, [RULE])

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_three_dimensions(self, m):
        f = random_bump_field(3, m, SplitMix64(320 + m), power=3, degree=2)
        pts = _points(3, 90, 5)
        for k in range(3):
            _assert_pinned(f, k, pts, k, m, [build_rule(3, 8)])

    @pytest.mark.parametrize("n", [2, 3])
    def test_points_of_the_wrong_dimension_are_rejected(self, n):
        f = random_bump_field(n, 1, SplitMix64(330), power=3, degree=2)
        rule = build_rule(n, 8)
        for bad in (np.full((4, n - 1), 0.3), np.full((4, n + 1), 0.3)):
            for k in (0, 1):
                with pytest.raises(ValueError, match=f"size n = {n}"):
                    no.normal_momentum_on_points(f, bad, k, rule)
            with pytest.raises(ValueError, match=f"size n = {n}"):
                f.values(bad)


# ---------------------------------------------------------------------------
# sampling and kernels
# ---------------------------------------------------------------------------

def plain_core_values(core, pts):
    """An exact ``Polynomial`` at ``pts`` of shape (..., n), one core at a
    time: its terms in sorted order, each coefficient ``float(c)``, and
    per-axis power tables of its own degree, each term its coefficient times
    its axis powers axis by axis, added in turn."""
    pts = np.asarray(pts, dtype=float)
    items = sorted(core.terms.items())
    maxdeg = max((max(e) for e, _ in items), default=0)
    powers = [np.ones((maxdeg + 1,) + pts.shape[:-1]) for _ in range(core.n)]
    for ax in range(core.n):
        for d in range(1, maxdeg + 1):
            powers[ax][d] = powers[ax][d - 1] * pts[..., ax]
    out = np.zeros(pts.shape[:-1])
    for e, c in items:
        term = np.full(pts.shape[:-1], float(c))
        for ax in range(core.n):
            if e[ax]:
                term = term * powers[ax][e[ax]]
        out += term
    return out


def _plain_values(f, pts):
    """``PolyBumpField.values`` with |x|^2 as numpy's sum over the last axis,
    each component by ``plain_core_values``."""
    pts = np.asarray(pts, dtype=float)
    b = float(f.rho) ** 2 - (pts * pts).sum(axis=-1)
    inside = b > 0
    out = np.zeros((len(f.rows()),) + b.shape)
    if inside.any():
        inner, bump = pts[inside], b[inside] ** f.power
        for pos, idx in enumerate(f.rows()):
            out[pos, ...][inside] = plain_core_values(f.core(idx), inner) * bump
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_values_pinned(n):
    f = random_bump_field(n, 2, SplitMix64(340 + n), power=5, degree=2)
    rng = np.random.default_rng(n)
    dirs = rng.standard_normal((300, n))
    dirs /= np.sqrt((dirs * dirs).sum(axis=1))[:, None]
    edge = dirs * float(f.rho)
    inside = np.nextafter(edge, 0.0)
    axis = np.linspace(-1.0, 1.0, 9 if n == 3 else 33)
    mesh = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1)
    assert ((mesh * mesh).sum(axis=-1) == 1.0).any()   # grid points on |x| = rho
    for pts in (edge, inside, rng.uniform(-1.2, 1.2, (500, n)), mesh, mesh[1], edge[0]):
        assert np.array_equal(f.values(pts), _plain_values(f, pts))
    assert np.abs(f.values(inside)).max() > 0.0


def _plain_kernel_family(offsets, h, degree, beta):
    """``normalops._kernel_family`` with its rows built one by one and
    stacked."""
    def values(x, y):
        rpow = _int_power(np.sqrt(np.add.outer(x * x, y * y)), beta)
        return np.stack([np.multiply.outer(_int_power(x, a), _int_power(y, degree - a)) / rpow
                         for a in range(degree + 1)])

    with np.errstate(divide="ignore", invalid="ignore"):
        vals = values(offsets[0] * h, offsets[1] * h)
    u, w = no._leggauss(no.SUBSAMPLES)
    cells = [np.arange(max(o[0], -no.AVERAGE_RADIUS), min(o[-1], no.AVERAGE_RADIUS) + 1)
             for o in offsets]
    sub = [(c[:, None] * h + 0.5 * h * u).ravel() for c in cells]
    near = values(*sub).reshape(degree + 1, len(cells[0]), no.SUBSAMPLES, len(cells[1]),
                                no.SUBSAMPLES)
    box = tuple(slice(c[0] - o[0], c[-1] + 1 - o[0]) for c, o in zip(cells, offsets))
    vals[(slice(None),) + box] = np.einsum("i,daibj,j->dab", 0.5 * w, near, 0.5 * w)
    origin = tuple(-o[0] for o in offsets)
    for a in range(degree + 1):
        vals[(a,) + origin] = no._origin_cell_average((a, degree - a), beta, h)
    return vals


@pytest.mark.parametrize("N", [32, 64])
def test_kernel_family_pinned(N, monkeypatch):
    # every (degree, beta) family that normal_convolution builds for m <= 2
    # and k <= 1, at the offsets it builds them for
    family = no._kernel_family
    seen = []

    def checked(offsets, h, degree, beta):
        got = family(offsets, h, degree, beta)
        want = _plain_kernel_family(offsets, h, degree, beta)
        assert np.array_equal(got, want, equal_nan=True), (degree, beta)
        seen.append((degree, beta))
        return got

    monkeypatch.setattr(no, "_kernel_family", checked)
    for m in range(3):
        f = random_bump_field(2, m, SplitMix64(350 + m), power=4, degree=2)
        g = no.GridTensorField.sample(f, N, 4.0)
        for k in range(2):
            no.normal_convolution(g, k=k)
    assert sorted(set(seen)) == sorted({(2 * m + 2 * k - l, 2 * m + 2 * k - 2 * l + 1)
                                        for m in range(3) for k in range(2)
                                        for l in range(k + 1)})


def _plain_normal_convolution(f, k):
    """``normalops.normal_convolution`` with one inverse transform per
    (l, x^(.2k-l) component, output component)."""
    n, m, N, h = f.n, f.m, f.N, f.h
    idx_list = list(canonical_indices(n, m))
    out = np.zeros((len(idx_list),) + (N,) * n)
    nonzero = (f.comps != 0).any(axis=0)
    rows = [np.flatnonzero(nonzero.any(axis=1 - ax)) for ax in range(n)]
    lo = [r[0] for r in rows]
    ext = [r[-1] + 1 - r[0] for r in rows]
    shape = tuple(no._fft_period(N + e - 1, 2 * N) for e in ext)
    offsets = [np.arange(N + e - 1) - (a + e - 1) for a, e in zip(lo, ext)]
    keep = tuple(slice(e - 1, e - 1 + N) for e in ext)
    box = (slice(None),) + tuple(slice(a, a + e) for a, e in zip(lo, ext))
    field_hat = np.fft.rfft2(f.comps[box], s=shape)
    coords = f.axis_coords()
    for l in range(k + 1):
        beta = 2 * m + 2 * k - 2 * l + n - 1
        coeff = 2.0 * math.comb(k, l) * (-1) ** l
        kernel_hat = np.fft.rfft2(no._kernel_family(offsets, h, 2 * m + 2 * k - l, beta),
                                  s=shape)
        for p_idx in canonical_indices(n, 2 * k - l):
            p_exps = _xi_monomial_exps(p_idx, n)
            xpref = np.multiply.outer(_int_power(coords, p_exps[0]),
                                      _int_power(coords, p_exps[1]))
            for c, i_idx in enumerate(idx_list):
                acc = 0.0
                for jpos, j_idx in enumerate(idx_list):
                    a0 = _xi_monomial_exps(p_idx + i_idx + j_idx, n)[0]
                    acc = acc + multiplicity(j_idx) * field_hat[jpos] * kernel_hat[a0]
                conv = np.fft.irfft2(acc, s=shape)[keep]
                out[c] += (coeff * multiplicity(p_idx) * h**n) * xpref * conv
    return out


@pytest.mark.parametrize("N", [32, 33])
@pytest.mark.parametrize("m,k,inverses", [(0, 0, 1), (1, 0, 2), (1, 1, 7), (2, 1, 9),
                                          (2, 2, 18)])
def test_normal_convolution_pinned(N, m, k, inverses, monkeypatch):
    # one inverse transform per (l, count of axis-0 entries of p + i):
    # sum over l of 2k - l + m + 1
    f = random_bump_field(2, m, SplitMix64(355 + 5 * m + k), power=4, degree=2)
    g = no.GridTensorField.sample(f, N, 4.0)
    want = _plain_normal_convolution(g, k)
    real, calls = np.fft.irfft2, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft2", counted)
    got = no.normal_convolution(g, k=k).comps
    assert len(calls) == inverses == sum(2 * k - l + m + 1 for l in range(k + 1))
    assert np.array_equal(got, want)
    assert np.abs(got).max() > 0.0


# ---------------------------------------------------------------------------
# the spectrum a grid field owns
# ---------------------------------------------------------------------------

def test_spectrum_is_taken_once_and_read_only():
    f = random_bump_field(2, 2, SplitMix64(360), power=6, degree=2)
    g = no.GridTensorField.sample(f, 64, 4.0)
    want = np.fft.rfftn(g.comps, axes=(1, 2))
    assert g.spectrum is g.spectrum and np.array_equal(g.spectrum, want)
    for array in (g.comps, g.spectrum):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0, 0] = 1.0
    samples = np.zeros((3, 16, 16))
    no.GridTensorField(2, 2, 16, 4.0, samples)
    with pytest.raises(ValueError, match="read-only"):
        samples[0, 0, 0] = 1.0   # the array given is the field's, not copied


def test_decompose_transform_counts(monkeypatch):
    # each grid field is transformed once however many operators read it:
    # per m, g, sf, v and the potential's samples; one inverse transform per
    # d, delta and symbol, two for f's split and one for the potential's,
    # whose v is not read
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        real = getattr(np.fft, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    entry = {"suite": "decompose", "N": 32, "L": 4.0, "m_values": [1, 2],
             "normal_consistency": False}
    run_suite(entry, SplitMix64(0), None)
    assert calls == {"rfftn": 8, "irfftn": 14}


def test_solenoidal_part_is_the_splits_sf():
    g = no.GridTensorField.sample(random_bump_field(2, 2, SplitMix64(361), power=6, degree=2),
                                  32, 4.0)
    assert np.array_equal(no.solenoidal_part(g).comps, no.solenoidal_decompose(g)[0].comps)


@pytest.mark.parametrize("m", [1, 2])
def test_decompose_checks_read_the_real_space_sf(m, monkeypatch):
    # delta sf and the symbol gap must come from sf as stored, after its
    # round trip through real space, never from the split's own spectrum:
    # a change to one sample of sf.comps after the split must show in both
    entry = {"suite": "decompose", "N": 32, "L": 4.0, "m_values": [m],
             "normal_consistency": False}

    def rows():
        block = run_suite(entry, SplitMix64(0), None)
        return {row["name"]: row["value"] for row in block["residuals"]}

    clean = rows()
    split = no.solenoidal_decompose

    def nudged(g):
        sf, v = split(g)
        comps = sf.comps.copy()
        comps[0, 16, 16] += 1e-3 * np.abs(comps).max()
        return no.GridTensorField(sf.n, sf.m, sf.N, sf.L, comps), v

    monkeypatch.setattr(no, "solenoidal_decompose", nudged)
    moved = rows()
    assert clean["delta_sf_relative"] < 1e-12
    assert moved["delta_sf_relative"] > 1e-6
    assert moved["normal_f_vs_sf_relative"] > 1e3 * clean["normal_f_vs_sf_relative"]
