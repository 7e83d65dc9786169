"""Normal operators, the solenoidal decomposition, and the key identities."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from tentomo.cli import run_suite
from tentomo.polynomial import CoreStack
from tentomo.polyfield import (generalized_R, inner_derivative, pair_alternations,
                               random_bump_field)
from tentomo.rng import SplitMix64
from tentomo.spherequad import build_rule
from tentomo.symtensor import canonical_indices, multiplicity, sym_dim, sym_maps
from tentomo import normalops as no
from tentomo import spherequad as sq
from tentomo.normalops import (GridTensorField, d_field,
                               delta_field, helmholtz_decompose_oracle,
                               normal_convolution, normal_momentum_on_points,
                               normal_symbol, solenoidal_decompose,
                               verify_momentum_moment_identity,
                               verify_momentum_key_identity)

from test_grid_bitwise import plain_core_values


@pytest.fixture(scope="module")
def rule40():
    return build_rule(2, 40)


def zero_grid(n, m, N, L):
    return GridTensorField(n, m, N, L, np.zeros((sym_dim(n, m),) + (N,) * n))


def div_normal(f, x, k, r, rule):
    """(delta^r N_m^k f)(x) for r <= k, in canonical order: the foot-point
    sum with weight <x,xi>^(k-r) and the factor k!/(k-r)!."""
    return no._foot_point_sum(f, k, [x], k - r, f.m - r, [rule])[0, 0] * \
        (math.factorial(k) / math.factorial(k - r))


class TestGrid:
    def test_sampling_margin_enforced(self):
        f = random_bump_field(2, 0, SplitMix64(1), power=2, degree=1)
        with pytest.raises(ValueError):
            GridTensorField.sample(f, 32, 3.0)   # rho=1 > L/4

    @pytest.mark.parametrize("n,m,N,L", [(2, 1, 16, 4.0), (2, 2, 18, 4.5),
                                         (2, 0, 33, 4.0), (3, 1, 12, 4.0)])
    def test_support_only_sampling_is_bitwise_the_full_mesh(self, n, m, N, L):
        # at (N, L) = (16, 4) grid points lie exactly on |x| = rho = 1
        f = random_bump_field(n, m, SplitMix64(20 + N), power=5, degree=2)
        g = GridTensorField.sample(f, N, L)
        axes = [np.arange(N) * (L / N) - L / 2] * n
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        b = float(f.rho) ** 2 - (mesh * mesh).sum(axis=-1)
        want = np.stack([np.where(b > 0, plain_core_values(f.core(idx), mesh)
                                  * np.maximum(b, 0.0) ** f.power, 0.0)
                         for idx in canonical_indices(n, m)])
        assert np.array_equal(g.comps, want)
        if (N, L) == (16, 4.0):
            assert ((mesh**2).sum(axis=-1) == 1.0).any()

    @pytest.mark.parametrize("N,L", [(18, 4.5), (128, 4.0), (33, 5.0)])
    def test_double_grid_read_at_even_points_is_the_grid(self, N, L):
        f = random_bump_field(2, 1, SplitMix64(N), power=4, degree=2)
        fine = GridTensorField.sample(f, 2 * N, L)
        coarse = GridTensorField.sample(f, N, L)
        assert np.array_equal(fine.axis_coords()[::2], coarse.axis_coords())
        assert np.array_equal(fine.comps[:, ::2, ::2], coarse.comps)

    def test_d_field_matches_exact_derivative(self):
        # spectral d on a well-resolved bump vs the exact symmetrized
        # derivative sampled on the same grid; the error is the spectral
        # truncation of the finitely smooth bump
        v = random_bump_field(2, 0, SplitMix64(3), power=9, degree=2)
        gv = GridTensorField.sample(v, 128, 4.0)
        spectral = d_field(gv)
        exact = GridTensorField.sample(inner_derivative(v), 128, 4.0)
        rel = (spectral - exact).norm_l2() / exact.norm_l2()
        assert rel < 1e-8

    @pytest.mark.parametrize("other", [zero_grid(2, 0, 16, 4.0), zero_grid(2, 1, 16, 5.0),
                                       zero_grid(2, 1, 18, 4.0), zero_grid(3, 1, 16, 4.0)])
    def test_mismatched_fields_do_not_combine(self, other):
        g = GridTensorField(2, 1, 16, 4.0, np.ones((2, 16, 16)))
        with pytest.raises(ValueError):
            g - other
        with pytest.raises(ValueError):
            g + other
        assert np.array_equal((g + g - g).comps, g.comps)

    def test_delta_of_d_is_laplacian(self):
        v = random_bump_field(2, 0, SplitMix64(4), power=5, degree=2)
        gv = GridTensorField.sample(v, 64, 4.0)
        lhs = delta_field(d_field(gv))
        rhs = _full_laplacian(gv)
        assert (lhs - rhs).norm_l2() < 1e-10 * max(rhs.norm_l2(), 1.0)


# -- full-spectrum oracles: every spectral operator as complex fftn on both
# halves of the spectrum, with the Nyquist bins zeroed ------------------------

def _full_omega_mesh(N, L, n):
    om = 2.0 * np.pi * np.fft.fftfreq(N, d=L / N)
    if N % 2 == 0:
        om[N // 2] = 0.0
    return np.stack(np.meshgrid(*[om] * n, indexing="ij"), axis=-1)


def _full_fft(g):
    return np.fft.fftn(g.comps, axes=tuple(range(1, g.n + 1)))


def _full_ifft_real(spec, n):
    return np.fft.ifftn(spec, axes=tuple(range(spec.ndim - n, spec.ndim))).real


def _tables(n, m):
    """The float i_{e_a} and j_{e_a} tables on S^m, as (rows, columns, axis)."""
    return [np.moveaxis(t.astype(float), 0, -1) for t in sym_maps(n, m)]


def _full_d(v):
    imul, _ = _tables(v.n, v.m + 1)
    a = np.einsum("rca,...a->...rc", imul, _full_omega_mesh(v.N, v.L, v.n))
    return _full_ifft_real(1j * np.einsum("...rc,c...->r...", a, _full_fft(v)), v.n)


def _full_delta(f):
    _, jcon = _tables(f.n, f.m)
    a = np.einsum("rca,...a->...rc", jcon, _full_omega_mesh(f.N, f.L, f.n))
    return _full_ifft_real(1j * np.einsum("...rc,c...->r...", a, _full_fft(f)), f.n)


def _full_laplacian(f):
    mult = -(_full_omega_mesh(f.N, f.L, f.n) ** 2).sum(axis=-1)
    return GridTensorField(f.n, f.m, f.N, f.L, _full_ifft_real(_full_fft(f) * mult, f.n))


def _full_decompose(f):
    imul, jcon = _tables(f.n, f.m)
    w = _full_omega_mesh(f.N, f.L, f.n).reshape(-1, f.n)
    fhat = _full_fft(f).reshape(f.comps.shape[0], -1).T
    a = np.einsum("rca,pa->prc", imul, w)
    jm = np.einsum("rca,pa->prc", jcon, w)
    gram = jm @ a
    rhs = np.einsum("prc,pc->pr", jm, fhat)
    dead = (w == 0).all(axis=1)
    gram[dead] = np.eye(gram.shape[1])
    rhs[dead] = 0.0
    wvec = np.linalg.solve(gram, rhs[..., None])[..., 0]
    shape = (-1,) + (f.N,) * f.n
    shat = (fhat - np.einsum("prc,pc->pr", a, wvec)).T.reshape(shape)
    return _full_ifft_real(shat, f.n), _full_ifft_real((-1j * wvec).T.reshape(shape), f.n)


def _lapack_decompose(f):
    """``solenoidal_decompose`` with ``np.linalg.solve`` for the per-frequency
    Gram systems."""
    imul, jcon = _tables(f.n, f.m)
    w = no._omega_mesh(f.N, f.L, f.n).reshape(-1, f.n)
    spec = f.spectrum
    fhat = spec.reshape(len(spec), -1).T
    a = np.einsum("rca,pa->prc", imul, w)
    jm = np.einsum("rca,pa->prc", jcon, w)
    gram = jm @ a
    rhs = np.einsum("prc,pc->pr", jm, fhat)
    dead = (w == 0).all(axis=1)
    gram[dead] = np.eye(gram.shape[1])
    rhs[dead] = 0.0
    wvec = np.linalg.solve(gram, rhs[..., None])[..., 0]
    shat = fhat - np.einsum("prc,pc->pr", a, wvec)
    return (no._irfft(shat.T.reshape(spec.shape), f.N, f.n),
            no._irfft((-1j * wvec).T.reshape((-1,) + spec.shape[1:]), f.N, f.n))


def _full_symbol(f):
    w = _full_omega_mesh(f.N, f.L, 2)
    norm = np.sqrt((w**2).sum(axis=-1))
    inv = np.zeros_like(norm)
    np.divide(1.0, norm, out=inv, where=norm > 0)
    xi = np.stack([-w[..., 1] * inv, w[..., 0] * inv], axis=-1)
    fhat = _full_fft(f)
    monos = [xi[..., 0] ** e[0] * xi[..., 1] ** e[1]
             for e in (no._xi_monomial_exps(idx, 2) for idx in f.index_list())]
    pairing = sum(multiplicity(idx) * fhat[pos] * monos[pos]
                  for pos, idx in enumerate(f.index_list()))
    return _full_ifft_real(np.stack([4.0 * np.pi * inv * mono * pairing
                                     for mono in monos]), 2)


class TestHalfSpectrum:
    """The half-spectrum operators against complex fftn on the full
    spectrum: at even N the last axis's Nyquist bin must be zeroed as the
    full mesh zeroes it, and odd N has no Nyquist bin."""

    @staticmethod
    def _rel(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    # every (n, m) of i_w, j_w and j_w i_w that the operators read; n = 3 on
    # smaller grids, and the symbol (n = 2 only) at n = 2
    CASES = ([(2, m, N) for m in (1, 2, 3) for N in (32, 33)]
             + [(3, m, N) for m in (1, 2) for N in (16, 17)])

    @pytest.mark.parametrize("n,m,N", CASES, ids=[f"{m}-{N}" if n == 2 else f"n{n}-{m}-{N}"
                                                  for n, m, N in CASES])
    def test_matches_full_spectrum_oracle(self, n, m, N):
        # a coarse grid, so the fields carry content up to the Nyquist bins
        f = random_bump_field(n, m, SplitMix64(40 + 10 * (n - 2) + m), power=3, degree=2)
        g = GridTensorField.sample(f, N, 4.0)
        sf, v = solenoidal_decompose(g)
        sf_full, v_full = _full_decompose(g)
        pairs = [(d_field(g).comps, _full_d(g)), (delta_field(g).comps, _full_delta(g)),
                 (sf.comps, sf_full), (v.comps, v_full)]
        if n == 2:
            pairs.append((normal_symbol(g).comps, _full_symbol(g)))
        for got, want in pairs:
            assert got.shape == want.shape
            assert self._rel(got, want) <= 1e-13


class TestDecomposition:
    @pytest.mark.parametrize("m", [1, 2])
    def test_split_properties(self, m):
        f = random_bump_field(2, m, SplitMix64(10 + m), power=6, degree=2)
        g = GridTensorField.sample(f, 64, 4.0)
        sf, v = solenoidal_decompose(g)
        norm = g.norm_l2()
        assert delta_field(sf).norm_l2() <= 1e-9 * norm
        assert (sf + d_field(v) - g).norm_l2() <= 1e-10 * norm

    def test_projector_idempotent(self):
        f = random_bump_field(2, 1, SplitMix64(13), power=6, degree=2)
        g = GridTensorField.sample(f, 64, 4.0)
        sf, _ = solenoidal_decompose(g)
        sf2, v2 = solenoidal_decompose(sf)
        assert v2.norm_l2() < 1e-9
        assert (sf2 - sf).norm_l2() < 1e-9

    def test_potential_input_has_tiny_solenoidal_part(self):
        v0 = random_bump_field(2, 0, SplitMix64(14), power=7, degree=2)
        g = GridTensorField.sample(inner_derivative(v0), 128, 4.0)
        sf, _ = solenoidal_decompose(g)
        assert sf.norm_l2() <= 1e-6 * g.norm_l2()

    def test_matches_helmholtz_oracle(self):
        f = random_bump_field(2, 1, SplitMix64(15), power=6, degree=2)
        g = GridTensorField.sample(f, 64, 4.0)
        sf, v = solenoidal_decompose(g)
        sfo, vo = helmholtz_decompose_oracle(g)
        assert (sf - sfo).norm_l2() <= 1e-12 * g.norm_l2()
        assert (v - vo).norm_l2() <= 1e-12 * g.norm_l2()

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_gram_solve_matches_lapack(self, n, m):
        f = random_bump_field(n, m, SplitMix64(140 + 10 * n + m), power=m + 4, degree=2)
        g = GridTensorField.sample(f, 16, 4.0)
        sf, v = solenoidal_decompose(g)
        sf_want, v_want = _lapack_decompose(g)
        for got, want in ((sf.comps, sf_want), (v.comps, v_want)):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("N", [16, 17])
    @pytest.mark.parametrize("n", [2, 3])
    def test_one_unknown_solve_is_bitwise_lapack(self, n, N):
        # m = 1: every Gram system is 1 x 1, and _solve_spd is the division,
        # bitwise what np.linalg.solve returns on the system the split builds
        f = random_bump_field(n, 1, SplitMix64(150 + 10 * n + N), power=5, degree=2)
        g = GridTensorField.sample(f, N, 4.0)
        gram, rhs = no._split_system(g, no._omega_mesh(N, g.L, n))
        a, b = no._bins_first(gram, 2), no._bins_first(rhs, 1)
        assert a.shape[1:] == (1, 1) and a[0, 0, 0] == 1.0   # the zero bin is dead
        want = np.linalg.solve(a, b[..., None])[..., 0]
        assert np.array_equal(no._solve_spd(a.copy(), b.copy()), want)

    def test_omega_mesh_is_cached_and_read_only(self):
        w = no._omega_mesh(16, 4.0, 2)
        assert no._omega_mesh(16, 4.0, 2) is w
        with pytest.raises(ValueError):
            w[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            w += 1.0

    def test_rank_zero_rejected(self):
        g = zero_grid(2, 0, 16, 4.0)
        with pytest.raises(ValueError):
            solenoidal_decompose(g)


class TestAngularNormal:
    def test_potential_killed(self, rule40):
        v = random_bump_field(2, 0, SplitMix64(20), power=5, degree=2)
        f = inner_derivative(v)
        for t in range(5):
            x = SplitMix64(21).split(f"x{t}").point_in_ball(2, 1.4)
            assert np.abs(normal_momentum_on_points(f, [x], 0, rule40)[0]).max() < 1e-10

    def test_radial_m0_against_convolution_quadrature(self, rule40):
        # N_0 f(0) = 2 pi * chord integral for radial f; cross-check against
        # the convolution form 2 int f(y)/|y| dy by direct polar quadrature
        from fractions import Fraction
        from tentomo.polyfield import PolyBumpField
        from tentomo.polynomial import Polynomial
        from tentomo.xray import Line, ray_transform
        f = PolyBumpField(2, 0, Fraction(1), 2,
                          {(): Polynomial.constant(2, Fraction(1))})
        got = normal_momentum_on_points(f, [[0.0, 0.0]], 0, rule40)[0, 0]
        chord = ray_transform(f, Line([0.0, 0.0], [1.0, 0.0]))
        assert got == pytest.approx(2 * np.pi * chord, rel=1e-12)
        # convolution oracle by polar quadrature:
        # 2 int f(y)/|y| dy = 2 int_0^1 (1-r^2)^2/r * 2 pi r dr
        oracle = 4 * np.pi * (1 - 2 / 3 + 1 / 5)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_momentum_k_at_origin_vanishes(self, rule40):
        f = random_bump_field(2, 1, SplitMix64(22), power=4, degree=2)
        out = normal_momentum_on_points(f, [[0.0, 0.0]], 1, rule40)[0]
        assert np.abs(out).max() < 1e-14

    def test_momentum_k0_is_ray(self, rule40):
        # N_m f(x) = sum over nodes of w xi^I J_m f(x, xi), the line through x
        from tentomo.xray import Line, ray_transform
        f = random_bump_field(2, 1, SplitMix64(23), power=4, degree=2)
        x = [0.3, -0.2]
        got = normal_momentum_on_points(f, [x], 0, rule40)[0]
        want = sum(w * np.asarray(xi) * ray_transform(f, Line(x, xi))
                   for xi, w in zip(rule40.nodes, rule40.weights))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_vectorized_matches_scalar(self, rule40):
        # every point sums its nodes in rule order, one point on its own too
        f = random_bump_field(2, 1, SplitMix64(24), power=4, degree=2)
        pts = np.array([[0.3, -0.2], [0.9, 0.4], [1.4, 0.1]])
        batch = normal_momentum_on_points(f, pts, 1, rule40)
        for r, x in enumerate(pts):
            assert np.array_equal(normal_momentum_on_points(f, pts[r:r + 1], 1, rule40),
                                  batch[r:r + 1])
            assert np.array_equal(normal_momentum_on_points(f, [x], 1, rule40)[0], batch[r])

    def test_no_points(self, rule40):
        f = random_bump_field(2, 1, SplitMix64(31), power=4, degree=2)
        assert normal_momentum_on_points(f, np.zeros((0, 2)), 1, rule40).shape == (0, 2)

    def test_many_lines_match_chunked_points(self, rule40):
        # 1 700 points x 41 nodes = 69 700 lines, more than 2^16, so one call
        # spans several (node, point) blocks
        f = random_bump_field(2, 1, SplitMix64(30), power=4, degree=2)
        axis = np.linspace(-1.3, 1.3, 50)
        pts = np.stack(np.meshgrid(axis, axis[:34], indexing="ij"), axis=-1).reshape(-1, 2)
        assert len(pts) * len(rule40.nodes) > 2**16
        whole = normal_momentum_on_points(f, pts, 1, rule40)
        parts = np.concatenate([normal_momentum_on_points(f, pts[i:i + 100], 1, rule40)
                                for i in range(0, len(pts), 100)])
        assert np.abs(whole - parts).max() <= 1e-13 * np.abs(whole).max()


class TestDivergenceNormal:
    def test_r0_is_normal_momentum(self, rule40):
        # the public entry point is the r = 0 member of the foot-point family
        f = random_bump_field(2, 1, SplitMix64(26), power=4, degree=2)
        x = np.array([0.2, 0.5])
        got = normal_momentum_on_points(f, [x], 1, rule40)[0]
        want = _foot_point_oracle(f, x, 1, rule40)[0]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_matches_finite_difference_divergence(self, rule40):
        f = random_bump_field(2, 1, SplitMix64(27), power=4, degree=2)
        x = np.array([0.3, -0.2])
        h = 1e-4
        an = div_normal(f, x, 1, 1, rule40)[0]
        fd = 0.0
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            # component a of N^1 f is canonical index (a,)
            fd += (normal_momentum_on_points(f, [x + e], 1, rule40)[0, a]
                   - normal_momentum_on_points(f, [x - e], 1, rule40)[0, a]) / (2 * h)
        assert an == pytest.approx(fd, abs=1e-6)

    def test_delta_kplus1_via_fd_is_zero(self, rule40):
        f = random_bump_field(2, 2, SplitMix64(28), power=6, degree=2)
        x = np.array([0.25, 0.15])
        h = 1e-4
        fd = 0.0
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            fd += (div_normal(f, x + e, 1, 1, rule40)[a]
                   - div_normal(f, x - e, 1, 1, rule40)[a]) / (2 * h)
        assert abs(fd) < 1e-5


def _foot_point_oracle(f, x, k, rule):
    """{r: delta^r N_m^k f(x)} for every r <= min(k, m), by an explicit loop
    over rule nodes, with J_m^k f from the Gauss-Legendre chord kernel at
    each foot point."""
    import math
    from tentomo.symtensor import canonical_indices, multiplicity
    from test_xray import gauss_legendre_chord_integrals
    x = np.asarray(x, dtype=float)
    comps = list(canonical_indices(f.n, f.m))
    atoms = [(terms, f.power, k) for terms in CoreStack.from_polys(
        f.n, [f.core(idx) for idx in comps]).float_terms()]
    proj = rule.nodes @ x
    jv = gauss_legendre_chord_integrals(atoms, f.rho, x - proj[:, None] * rule.nodes,
                                        rule.nodes)
    out = {r: np.zeros(len(list(canonical_indices(f.n, f.m - r))))
           for r in range(min(k, f.m) + 1)}
    for xi, w, p, jrow in zip(rule.nodes, rule.weights, proj, jv):
        val = sum(multiplicity(idx) * np.prod(xi[list(idx)]) * j for idx, j in zip(comps, jrow))
        for r, acc in out.items():
            for c, idx in enumerate(canonical_indices(f.n, f.m - r)):
                acc[c] += w * p**(k - r) * np.prod(xi[list(idx)]) * val
    return {r: acc * (math.factorial(k) / math.factorial(k - r)) for r, acc in out.items()}


class TestFootPointSum:
    """The closed-form foot-point sum against the Gauss-Legendre chord oracle."""

    @pytest.mark.parametrize("n,degree", [(2, 40), (3, 8)])
    @pytest.mark.parametrize("rho", [1, 3 / 2])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_chord_kernel_oracle(self, n, degree, rho, m):
        from fractions import Fraction
        from tentomo.symtensor import canonical_indices, multiplicity
        rule = build_rule(n, degree)
        rho = Fraction(rho)
        f = random_bump_field(n, m, SplitMix64(90 + 10 * n + m), rho=rho,
                              power=3, degree=2)
        pts = [np.full(n, 0.1) * np.arange(1, n + 1),        # inside the support
               1.3 * float(rho) * np.r_[0.8, 0.6, np.zeros(n - 2)],  # outside it
               float(rho) * np.eye(n)[1]]                     # tangent line
        # the first node's second coordinate is an exact 0, so the line
        # through the last point along it has |s| = rho exactly
        assert rule.nodes[0][1] == 0.0
        for k in range(3):
            for x in pts:
                for r, want in _foot_point_oracle(f, x, k, rule).items():
                    got = div_normal(f, x, k, r, rule)
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (k, r, x)

    def test_grazing_line_at_power_zero(self, rule40):
        # at bump power 0 a line with half-chord sqrt(H) ~ 1e-6 still adds
        # ~1e-6 of the sum, so the miss rule must be the chord kernel's
        from tentomo.symtensor import canonical_indices, multiplicity
        f = random_bump_field(2, 1, SplitMix64(97), power=0, degree=2)
        x = np.array([0.3, 1.0 - 5e-13])   # |s| = 1 - 5e-13 along node (1, 0)
        for k in range(2):
            want = _foot_point_oracle(f, x, k, rule40)[0]
            got = normal_momentum_on_points(f, [x], k, rule40)[0]
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestConvolutionNormal:
    def test_zero_field_maps_to_zero(self):
        g = zero_grid(2, 1, 32, 4.0)
        assert normal_convolution(g, k=0).norm_l2() == 0.0

    def test_n3_rejected(self):
        g = zero_grid(3, 1, 16, 4.0)
        with pytest.raises(ValueError, match="n=2"):
            normal_convolution(g)

    def test_grid_too_coarse(self):
        g = zero_grid(2, 0, 8, 4.0)
        with pytest.raises(ValueError):
            normal_convolution(g)

    @pytest.mark.parametrize("m,k", [(0, 0), (1, 0), (1, 1)])
    def test_agrees_with_angular(self, m, k, rule40):
        f = random_bump_field(2, m, SplitMix64(30 + m + k), power=4, degree=2)
        N = 128
        g = GridTensorField.sample(f, N, 4.0)
        conv = normal_convolution(g, k=k)
        coords = g.axis_coords()
        pts = np.stack(np.meshgrid(coords, coords, indexing="ij"),
                       axis=-1).reshape(-1, 2)
        ang = normal_momentum_on_points(f, pts, k, rule40)
        angf = GridTensorField(2, m, N, 4.0, ang.T.reshape(conv.comps.shape))
        rel = (conv - angf).norm_l2() / angf.norm_l2()
        assert rel <= 1e-3

    def test_refinement_improves(self, rule40):
        f = random_bump_field(2, 0, SplitMix64(33), power=4, degree=2)
        rels = []
        for N in (64, 128):
            g = GridTensorField.sample(f, N, 4.0)
            conv = normal_convolution(g)
            coords = g.axis_coords()
            pts = np.stack(np.meshgrid(coords, coords, indexing="ij"),
                           axis=-1).reshape(-1, 2)
            ang = normal_momentum_on_points(f, pts, 0, rule40)
            angf = GridTensorField(2, 0, N, 4.0, ang.T.reshape(conv.comps.shape))
            rels.append((conv - angf).norm_l2() / angf.norm_l2())
        assert rels[1] < rels[0]

    def test_symbol_path_annihilates_potentials(self):
        for m in (1, 2):
            f = random_bump_field(2, m, SplitMix64(34 + m), power=6, degree=2)
            g = GridTensorField.sample(f, 128, 4.0)
            sf, _v = solenoidal_decompose(g)
            a = normal_symbol(g)
            b = normal_symbol(sf)
            assert (a - b).norm_l2() <= 1e-12 * a.norm_l2()

    def test_symbol_approaches_kernel_with_box_size(self):
        # the symbol path realizes the periodized operator; the windowed
        # kernel path realizes the truncated one.  Their gap is the slowly
        # decaying tail of the 1/|x|-type output and must shrink as the box
        # grows at fixed resolution.
        f = random_bump_field(2, 0, SplitMix64(37), power=4, degree=2)
        rels = []
        for (N, L) in ((64, 4.0), (128, 8.0), (256, 16.0)):
            g = GridTensorField.sample(f, N, L)   # L/4 >= rho = 1
            a = normal_symbol(g)
            b = normal_convolution(g, k=0)
            ac = a.comps - a.comps.mean(axis=(1, 2), keepdims=True)
            bc = b.comps - b.comps.mean(axis=(1, 2), keepdims=True)
            rels.append(np.sqrt(((ac - bc) ** 2).sum())
                        / np.sqrt((ac ** 2).sum()))
        assert rels[2] < rels[1] < rels[0]


def _origin_cell_quad(alpha, beta, h):
    """Origin-cell average of x^alpha/|x|^beta (n = 2) by scipy's adaptive
    quad of the angular integral left after exact radial integration."""
    import math
    from scipy.integrate import quad
    if any(a % 2 for a in alpha):
        return 0.0
    gamma = sum(alpha) - beta + 2

    def integrand(theta):
        c, s = math.cos(theta), math.sin(theta)
        return c**alpha[0] * s**alpha[1] * ((h / 2) / max(abs(c), abs(s)))**gamma / gamma

    total, _err = quad(integrand, 0.0, 2.0 * math.pi, epsabs=1e-13, epsrel=1e-13,
                       points=[i * math.pi / 4 for i in range(1, 8)], limit=200)
    return total / h**2


def _kernel_grid_oracle(N, h, alpha, beta, average_radius=6, subsamples=10):
    """The sampled kernel with one tensor Gauss-Legendre cell average per
    near-origin cell, cell by cell."""
    import itertools
    offs = (np.arange(2 * N) - N) * h
    mesh = np.stack(np.meshgrid(offs, offs, indexing="ij"), axis=-1)
    r2 = (mesh**2).sum(axis=-1)
    num = mesh[..., 0]**alpha[0] * mesh[..., 1]**alpha[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(r2 > 0, num / np.maximum(r2, 1e-300)**(beta / 2.0), 0.0)
    gl_x, gl_w = np.polynomial.legendre.leggauss(subsamples)
    cell_nodes, cell_w = 0.5 * h * gl_x, 0.5 * gl_w
    for cell in itertools.product(range(-average_radius, average_radius + 1), repeat=2):
        pos = (N + cell[0], N + cell[1])
        if cell == (0, 0):
            vals[pos] = _origin_cell_quad(alpha, beta, h)
            continue
        px, py = np.meshgrid(cell[0] * h + cell_nodes, cell[1] * h + cell_nodes,
                             indexing="ij")
        cellvals = px**alpha[0] * py**alpha[1] / (px**2 + py**2)**(beta / 2.0)
        vals[pos] = float((cellvals * np.outer(cell_w, cell_w)).sum())
    return vals


def _convolution_oracle(f, k=0):
    """N_m^k f as one ``scipy.signal.fftconvolve(mode="full")`` per (field
    component, kernel) pair, summed term by term in real space."""
    import math
    from scipy.signal import fftconvolve
    from tentomo.symtensor import canonical_indices, multiplicity
    N, m, h = f.N, f.m, f.h
    coords = f.axis_coords()
    mesh = np.stack(np.meshgrid(coords, coords, indexing="ij"), axis=-1)
    idx_list = list(canonical_indices(2, m))
    out = np.zeros((len(idx_list), N, N))
    kernels, convs = {}, {}
    for l in range(k + 1):
        beta = 2 * m + 2 * k - 2 * l + 1
        coeff = 2.0 * math.comb(k, l) * (-1) ** l
        for p_idx in canonical_indices(2, 2 * k - l):
            xpref = np.ones((N, N))
            for a in p_idx:
                xpref = xpref * mesh[..., a]
            for jpos, j_idx in enumerate(idx_list):
                for c, i_idx in enumerate(idx_list):
                    mu = p_idx + i_idx + j_idx
                    alpha = (mu.count(0), mu.count(1))
                    if (alpha, beta) not in kernels:
                        kernels[alpha, beta] = _kernel_grid_oracle(N, h, alpha, beta)
                    key = (jpos, alpha, beta)
                    if key not in convs:
                        full = fftconvolve(f.comps[jpos], kernels[alpha, beta], mode="full")
                        convs[key] = full[N:2 * N, N:2 * N] * h**2
                    out[c] += (coeff * multiplicity(p_idx) * multiplicity(j_idx)
                               * xpref * convs[key])
    return out


class TestConvolutionOracle:
    """The spectral convolution against the per-key real-space one."""

    @pytest.mark.parametrize("N", [32, 64])
    @pytest.mark.parametrize("m,k", [(0, 0), (1, 0), (1, 1), (2, 1)])
    def test_matches_per_key_convolution(self, m, k, N):
        f = random_bump_field(2, m, SplitMix64(110 + 10 * m + k), power=4, degree=2)
        g = GridTensorField.sample(f, N, 4.0)
        want = _convolution_oracle(g, k)
        got = normal_convolution(g, k=k).comps
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_support_reaching_box_edge(self):
        # with the support filling the box the linear convolution is nonzero
        # up to its last index 3N - 2, so a period shorter than 2N wraps
        # nonzero terms onto the kept window
        f = random_bump_field(2, 1, SplitMix64(120), power=2, degree=2)
        axes = [np.arange(32) * (2.0 / 32) - 1.0] * 2
        g = GridTensorField(2, 1, 32, 2.0, f.values(np.stack(np.meshgrid(*axes, indexing="ij"),
                                                              axis=-1)))
        assert min(np.abs(g.comps[:, 1, :]).max(), np.abs(g.comps[:, -1, :]).max()) > 0.0
        want = _convolution_oracle(g, 1)
        got = normal_convolution(g, k=1).comps
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @staticmethod
    def _field(name, m):
        """A grid field whose nonzero box is off-centre, narrow or one cell."""
        from fractions import Fraction
        rng = SplitMix64(130 + m)
        if name == "narrow":
            f = random_bump_field(2, m, rng, rho=Fraction(1, 4), power=4, degree=2)
            return GridTensorField.sample(f, 64, 4.0)
        if name == "off-centre":
            f = random_bump_field(2, m, rng, power=4, degree=2)
            g = GridTensorField.sample(f, 48, 4.0)
            return GridTensorField(2, m, 48, 4.0, np.roll(g.comps, (13, -10), axis=(1, 2)))
        comps = np.zeros((sym_dim(2, m), 32, 32))
        comps[:, 27, 5] = np.arange(1.0, len(comps) + 1.0)
        return GridTensorField(2, m, 32, 4.0, comps)

    @pytest.mark.parametrize("name,m,k", [
        ("off-centre", 0, 0), ("off-centre", 1, 1), ("off-centre", 2, 1),
        # at k = 1 the l = 0 and 1 terms of a narrow field cancel to ~1e-13
        # of their size in both convolutions, so it is checked at k = 0
        ("narrow", 0, 0), ("narrow", 1, 0), ("narrow", 2, 0),
        ("one cell", 0, 0), ("one cell", 1, 1), ("one cell", 2, 1)])
    def test_support_box_period(self, name, m, k):
        # the transforms run at the smallest 2^a 3^b >= N + E - 1 for the
        # nonzero box's extent E: one cell more of wrap and the kernel's
        # far end lands on the kept window
        g = self._field(name, m)
        want = _convolution_oracle(g, k)
        got = normal_convolution(g, k=k).comps
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("h", [4 / 64, 4 / 512])
    def test_origin_cell_rule_matches_quad(self, h):
        for m in range(4):
            for k in range(3):
                for l in range(k + 1):
                    beta = 2 * m + 2 * k - 2 * l + 1
                    size = 2 * m + 2 * k - l
                    for a0 in range(size + 1):
                        alpha = (a0, size - a0)
                        want = _origin_cell_quad(alpha, beta, h)
                        got = no._origin_cell_average(alpha, beta, h)
                        assert abs(got - want) <= 1e-14 * abs(want), (alpha, beta)

    def test_int_power_matches_pow(self):
        base = np.concatenate([np.linspace(-3.0, 3.0, 601), [0.0, -0.0, 1e-3, -7.5e2]])
        assert (base == 0.0).sum() >= 3
        kept = base.copy()
        for e in range(13):
            want = base**e
            got = no._int_power(base, e)
            # each of the at most e - 1 products rounds once
            assert np.all(np.abs(got - want) <= e * np.spacing(np.abs(want))), e
            # in two given buffers, the same products
            assert np.array_equal(no._int_power(kept.copy(), e, np.empty_like(base)), got)
        assert np.array_equal(base, kept)


def _exps(idx, n):
    return tuple(idx.count(a) for a in range(n))


def _add_exps(a, b):
    return tuple(u + v for u, v in zip(a, b))


class TestKeyIdentities:
    @pytest.mark.parametrize("m", [1, 2])
    def test_prop_ray_small_residual(self, m, rule40):
        f = random_bump_field(2, m, SplitMix64(40 + m), power=2 * m + 2,
                              degree=2)
        res = verify_momentum_key_identity(f, [[0.3, -0.2], [1.2, 0.5]], 0, [rule40])
        assert np.max(np.abs(res)) < 1e-10

    def test_prop_ray_potential_both_sides_zero(self, rule40):
        v = random_bump_field(2, 1, SplitMix64(43), power=7, degree=2)
        f = inner_derivative(v)
        res = verify_momentum_key_identity(f, [[0.4, 0.2]], 0, [rule40])
        assert np.max(np.abs(res)) < 1e-10

    @pytest.mark.parametrize("m,k", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_lemma_mrt(self, m, k, rule40):
        f = random_bump_field(2, m, SplitMix64(50 + m + k), power=2 * m + 2,
                              degree=2)
        res = verify_momentum_moment_identity(f, [[0.3, -0.1], [1.1, 0.6]], k, [rule40])
        assert res.shape == (1, 2, len(list(canonical_indices(2, m - k))))
        assert np.max(np.abs(res)) < 1e-10

    def test_lemma_mrt_k0_definitional(self, rule40):
        f = random_bump_field(2, 2, SplitMix64(54), power=6, degree=2)
        res = verify_momentum_moment_identity(f, [[0.2, 0.4]], 0, [rule40])
        assert np.max(np.abs(res)) < 1e-12

    @pytest.mark.parametrize("m,k", [(1, 1), (2, 1)])
    def test_prop_mrt(self, m, k, rule40):
        f = random_bump_field(2, m, SplitMix64(60 + m + k), power=2 * m + 2,
                              degree=2)
        res = verify_momentum_key_identity(f, [[0.3, -0.2]], k, [rule40])
        # one component per R^k f row, in the order of the right-hand sides
        rows = generalized_R(f, k).rows()
        assert list(no.momentum_key_rhs_exprs(f, k)) == list(rows)
        assert res.shape == (1, 1, len(rows))
        assert np.max(np.abs(res)) < 1e-10

    @pytest.mark.parametrize("k", [-1, 3])
    def test_k_out_of_range_raises(self, k, rule40):
        f = random_bump_field(2, 2, SplitMix64(62), power=6, degree=2)
        for verify in (verify_momentum_key_identity, verify_momentum_moment_identity):
            with pytest.raises(ValueError, match="k out of range"):
                verify(f, [[0.3, -0.2]], k, [rule40])

    def test_prop_mrt_k0_reduces_to_prop_ray(self, rule40):
        f = random_bump_field(2, 1, SplitMix64(63), power=4, degree=2)
        x = [[0.25, 0.1]]
        # at k = 0 the momentum key identity is the ray key identity
        a = verify_momentum_key_identity(f, x, 0, [rule40])
        assert np.max(np.abs(a)) < 1e-10

    @pytest.mark.parametrize("k", [0, 1])
    def test_wrong_metric_weight_fails(self, k, rule40, monkeypatch):
        # the key identities read the sphere IBP weight table, so a metric
        # weight off by 10 % for l >= 1 must show in their residual
        f = random_bump_field(2, 2, SplitMix64(65 + k), power=6, degree=2)
        x = [[0.3, -0.2]]
        weight = sq.metric_power_weight
        monkeypatch.setattr(sq, "metric_power_weight", lambda n, idx, l:
                            weight(n, idx, l) * Fraction(11, 10) if l else weight(n, idx, l))
        sq._ibp_weights.cache_clear()
        try:
            res = verify_momentum_key_identity(f, x, k, [rule40])
        finally:
            sq._ibp_weights.cache_clear()
        assert np.max(np.abs(res)) > 1e-3

    @pytest.mark.parametrize("n", [2, 3])
    def test_delta_np_combination_collapses_to_the_moment_integrand(self, n):
        # sum_p (-1)^(r-p) C(r,p)/p! j_x^(r-p) delta^p N^p f before sphere
        # integration, delta^p N^p f written at the base point as
        # p! sum_l C(p,l) <x,xi>^(p-l) xi^(.(m-p)) J^l f, is xi^I J^r f term
        # for term: the combination as {(x exps, xi exps, l): coefficient}
        # of its terms x^a xi^b J^l f, in exact integers
        zero = (0,) * n
        for m in range(4):
            for r in range(m + 1):
                for idx in canonical_indices(n, m - r):
                    combo = {}
                    for p in range(r + 1):
                        for aidx in canonical_indices(n, r - p):
                            xa = _exps(aidx, n)
                            xi_i = _exps(tuple(sorted(idx + aidx)), n)
                            for l in range(p + 1):
                                coeff = (-1) ** (r - p) * math.comb(r, p) * math.comb(p, l) \
                                    * multiplicity(aidx)
                                # coeff <x,xi>^(p-l) x^a xi^(I+a) J^l f
                                for c in canonical_indices(n, p - l):
                                    e = _exps(c, n)
                                    key = _add_exps(e, xa), _add_exps(e, xi_i), l
                                    combo[key] = combo.get(key, 0) + coeff * multiplicity(c)
                    got = {key: c for key, c in combo.items() if c}
                    assert got == {(zero, _exps(idx, n), r): 1}, (m, r, idx)

    @pytest.mark.parametrize("n,m,k", [(2, 2, 1), (3, 3, 1)])
    def test_rhs_coefficients_are_exact(self, n, m, k):
        f = random_bump_field(n, m, SplitMix64(66), power=2 * m + 2, degree=2)
        exprs = no.momentum_key_rhs_exprs(f, k)
        types = {type(c) for expr in exprs.values() for c in expr.terms.values()}
        assert exprs and types <= {int, Fraction}

    @pytest.mark.parametrize("n", [2, 3])
    def test_g_tensor_coefficients_are_the_weight_sum(self, n):
        # coefficient of xi^(I_row + e) J^r f_row in component I of
        # G_{m-r}: multiplicity(row) times the xi^e coefficient of
        # sum_l c_{l,s} (i^l j^l xi^(.s))_I, s = m - r
        for m in range(1, 4):
            f = random_bump_field(n, m, SplitMix64(67 + m), power=2 * m + 2, degree=2)
            for r in range(m + 1):
                s = m - r
                exprs, den = no._g_tensor_exprs(f, r)
                assert list(exprs) == list(canonical_indices(n, s))
                for idx, expr in exprs.items():
                    weight = {}
                    for l in range(s // 2 + 1):
                        for e, w in sq.metric_power_weight(n, idx, l).terms.items():
                            weight[e] = weight.get(e, 0) + sq.c_constant(l, s, n) * w
                    want = {(_add_exps(_exps(row, n), e), (f, i), (), r): multiplicity(row) * w
                            for i, row in enumerate(f.rows()) if f.core(row)
                            for e, w in weight.items() if w}
                    assert {key: Fraction(c, den) for key, c in expr.terms.items()} == want

    def test_prop_mrt_exterior_converges(self):
        f = random_bump_field(2, 1, SplitMix64(64), power=4, degree=2)
        x = [[1.15, 0.55]]
        res = verify_momentum_key_identity(f, x, 1, [build_rule(2, deg) for deg in (20, 40, 60)])
        vals = np.max(np.abs(res), axis=(1, 2))
        assert vals[2] <= vals[1] <= vals[0]
        assert vals[2] < 1e-5


def _even_divergence_of_R(g):
    """2^m (even-index divergence)^m R g on the full spectrum: one derivative
    contracted against each j-slot of R g, R's alternations written out (the
    2^m cancels their 1/2^m)."""
    n, m = g.n, g.m
    iw = np.moveaxis(1j * _full_omega_mesh(g.N, g.L, n), -1, 0)
    fhat = _full_fft(g)
    idx_list = g.index_list()
    rhs = np.zeros(fhat.shape, dtype=complex)
    for c, idx in enumerate(idx_list):
        for jtuple in itertools.product(range(n), repeat=m):
            inner = sum(sign * math.prod((iw[b] for b in der), start=1)
                        * fhat[idx_list.index(tuple(sorted(comp)))]
                        for comp, der, sign in pair_alternations(zip(idx, jtuple)))
            rhs[c] += math.prod((iw[a] for a in jtuple), start=1) * inner
    return GridTensorField(n, m, g.N, g.L, _full_ifft_real(rhs, n))


class TestSmoothness:
    def test_m1_identity(self):
        # Delta^m sf = 2^m (even-index divergence)^m R f at m = 1; for m >= 2
        # Delta^m amplifies the spectrum's roundoff by |omega|^(2m)
        f = random_bump_field(2, 1, SplitMix64(70), power=6, degree=2)
        g = GridTensorField.sample(f, 128, 4.0)
        sf, _ = solenoidal_decompose(g)
        residual = _full_laplacian(sf) - _even_divergence_of_R(g)
        assert residual.norm_l2() < 1e-6 * g.norm_l2()

    def test_m1_closed_form_reduction_oracle(self):
        # independent route for m=1: Delta sf = Delta f - d (delta f)
        f = random_bump_field(2, 1, SplitMix64(73), power=6, degree=2)
        g = GridTensorField.sample(f, 128, 4.0)
        sf, _ = solenoidal_decompose(g)
        lhs = _full_laplacian(sf)
        rhs = _full_laplacian(g) - d_field(delta_field(g))
        assert (lhs - rhs).norm_l2() < 1e-8 * g.norm_l2()

    def test_potential_field_both_sides_vanish(self):
        v = random_bump_field(2, 0, SplitMix64(72), power=8, degree=2)
        f = inner_derivative(v)
        g = GridTensorField.sample(f, 128, 4.0)
        sf, _ = solenoidal_decompose(g)
        assert sf.norm_l2() < 1e-8 * g.norm_l2()
        # the Laplacian amplifies the tiny sf residual by up to |omega_max|^2
        assert _full_laplacian(sf).norm_l2() < 1e-4 * g.norm_l2()


class TestUCP:
    def test_ray_scenario(self, tmp_path):
        rep = run_suite({"suite": "ucp.ray", "n": 2, "m": 1, "num_lines": 10,
                         "num_points": 5}, SplitMix64(80), tmp_path)
        assert all(c["pass"] for c in rep["residuals"])
        names = [c["name"] for c in rep["residuals"]]
        assert "nonpotential_normal_nonvanishing" in names

    def test_mrt_scenario(self, tmp_path):
        rep = run_suite({"suite": "ucp.mrt", "n": 2, "m": 2, "k": 1, "num_lines": 8,
                         "num_points": 4}, SplitMix64(81), tmp_path)
        assert all(c["pass"] for c in rep["residuals"])

    def test_trt_scenario(self, tmp_path):
        rep = run_suite({"suite": "ucp.trt", "n": 3, "m": 2, "num_lines": 8,
                         "num_points": 5}, SplitMix64(82), tmp_path)
        assert all(c["pass"] for c in rep["residuals"])

    @pytest.mark.parametrize("config", [
        {"suite": "ucp.ray", "n": 3, "m": 3, "num_lines": 10, "num_points": 4},
        {"suite": "ucp.mrt", "n": 3, "m": 3, "k": 2, "num_lines": 10, "num_points": 4}],
        ids=["ray", "mrt"])
    def test_scenarios_in_three_dimensions(self, config, tmp_path):
        # the S^2 rule, and foot-point sinograms with two s-axes
        rep = run_suite(config, SplitMix64(84), tmp_path)
        assert rep["residuals"] and all(c["pass"] for c in rep["residuals"])
