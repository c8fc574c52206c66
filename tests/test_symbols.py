"""Dispersion relation, free flow, and the bilinear nonlinearity."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcl.evolve import IntegratingFactorRK4, PicardConfig, picard_iterate
from dcl.lattice import (
    ModelParams,
    SpatialSpectrum,
    bracket,
    forward_transform,
    hermitian_rows,
    hs_norm,
    inverse_transform,
    real_half,
    x_grid,
)
from dcl.symbols import (
    F_CHUNK,
    dispersion_symbol,
    free_evolution,
    free_phases,
    half_dispersion,
    mean_coupling,
    nonlinearity_F,
    nonlinearity_multipliers,
    nonlinearity_rows,
    nonlocal_multiplier,
    product_spectrum,
    real_nonlinearity,
    threshold_coefficient,
)

import oracles
from conftest import hermitian_spectrum


class TestDispersionSymbol:
    def test_values(self):
        assert dispersion_symbol(2, 1) == 8
        assert dispersion_symbol(2, 2) == -32

    def test_odd_symmetry(self):
        for j in (1, 2, 3, 4):
            for k in range(1, 257):
                assert dispersion_symbol(-k, j) == -dispersion_symbol(k, j)

    def test_exact_big_integers(self):
        # 64-bit floats cannot hold this; Python ints must
        v = dispersion_symbol(2**16, 4)
        assert v == -(2**144)

    def test_vectorized(self):
        k = np.array([1.0, 2.0, -2.0])
        assert np.allclose(dispersion_symbol(k, 2), [-1.0, -32.0, 32.0])


class TestThresholdCoefficient:
    def test_exact_value_and_its_float(self):
        from dcl.bourgain import region_coefficient

        for j in range(1, 51):
            assert 3 * threshold_coefficient(j) == Fraction(2 * j + 1, 4**j)
            assert region_coefficient(j) == (2 * j + 1) * 4.0 ** (-j) / 3.0


class TestFreeEvolution:
    def test_t_zero_identity(self, params16):
        spec = hermitian_spectrum(params16, seed=1)
        assert np.array_equal(free_evolution(spec, 0.0).amps, spec.amps)

    def test_single_mode_translation(self):
        # j=2: P(1) = -1, so S(t) e^{ix} = e^{i(x-t)}
        p = ModelParams(j=2, kmax=8.0)
        spec = SpatialSpectrum.from_modes(p, {1: 1.0})
        out = free_evolution(spec, 0.7)
        assert out.amp(1) == pytest.approx(np.exp(-0.7j))

    def test_hs_isometry(self, params16):
        spec = hermitian_spectrum(params16, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            t, s = rng.uniform(-3, 3), rng.uniform(-2, 2)
            moved = free_evolution(spec, t)
            assert abs(hs_norm(moved, s) - hs_norm(spec, s)) < 1e-14 * hs_norm(spec, s)


    @pytest.mark.parametrize("j, lam", [(2, 3.0), (4, 1.0)])
    def test_a_real_field_stays_exactly_real(self, j, lam):
        # on these lattices numpy's float power is not odd bit for bit, P(-k) != -P(k) in a
        # few bands, so phases formed on the full row would break the mirror
        p = ModelParams(j=j, lam=lam, kmax=64.0)
        spec = hermitian_spectrum(p, seed=j, decay=0.02)
        for t in (0.7, -1.3, 2.0 / 3.0):
            assert oracles.exactly_hermitian(free_evolution(spec, t).amps)


def bits(z):
    return np.asarray(z).view(np.int64)


class TestFreePhases:
    """free_phases, the one phase rule, against the formulas each caller had before it."""

    @pytest.mark.parametrize("kmax", [8.0, 64.0, 128.0])
    @pytest.mark.parametrize("lam", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_bit_for_bit_the_formulas_it_replaces(self, j, lam, kmax):
        p = ModelParams(j=j, lam=lam, kmax=kmax)
        m = p.nmax
        full = dispersion_symbol(p.k_values(), j)
        disp = full[m + 1:]
        assert np.array_equal(bits(half_dispersion(p)), bits(disp))
        for dt in (1e-4, 3e-3, 0.1):  # the stepper's integrating factor at dt/2
            stepper = IntegratingFactorRK4(p, dt, mode="linear")
            assert np.array_equal(bits(stepper.e_half), bits(np.exp(1j * (dt / 2.0) * full)[m + 1:]))
            assert stepper.phase_wrap == float(dt * np.abs(full).max())
        cfg = PicardConfig(iterations=1, nt=257, measure_zs=False)
        t = cfg.t_grid()[cfg.nt // 2:]  # Picard's t >= 0 nodes
        assert np.array_equal(bits(free_phases(p, t)), bits(np.exp(1j * np.outer(t, disp))))
        for t in (-0.37, -2.0):  # free_evolution's formula, on the n > 0 half
            assert np.array_equal(bits(free_phases(p, t)), bits(np.exp(1j * t * full)[m + 1:]))
        # Picard's quadrature_wrap, h max |P| over the modes the last iterate carries
        res = picard_iterate(hermitian_spectrum(p, seed=j, decay=0.5, scale=1e-3),
                             PicardConfig(iterations=1, nt=5, measure_zs=False))
        top = np.abs(res.iterates[-1][:, m + 1:]).max(axis=0)
        carried = top > 1e-12 * top.max()
        h = float(res.t_grid[1] - res.t_grid[0])
        assert res.quadrature_wrap == h * float(np.abs(disp[carried]).max(initial=0.0))

    def test_within_an_ulp_where_t_P_is_exact(self):
        # j = 2, kmax 128: P(n) = -n^5 < 2^35 and Picard's nodes i/256, so t P fits in 53 bits
        assert float(2 * oracles.PI) == math.tau
        p = ModelParams(j=2, kmax=128.0)
        cfg = PicardConfig(nt=1025)
        t = cfg.t_grid()
        ns = range(1, p.nmax + 1)
        for i in (1, 75, 232, 511, 512, 1023):
            assert all(Fraction(t[i] * pn) == Fraction(t[i]) * Fraction(pn)
                       for pn in half_dispersion(p).tolist())
            want = oracles.exact_free_phases(p, float(t[i]), ns)
            assert np.abs(free_phases(p, t[i]) - want).max() <= 5e-16

    @pytest.mark.parametrize("j, kmax, node, loss", [(4, 32.0, 469, 3.9e-3),
                                                     (3, 128.0, 400, 6.2e-2)])
    def test_rounding_t_P_loses_phase(self, j, kmax, node, loss):
        # today's loss where t P needs more than 53 bits, at the Picard node (nt 1025, t >= 0)
        # where it is largest: a measured lower bound.  Once free_phases reduces t P exactly
        # (ROADMAP, "Exact linear phases"), this becomes the 5e-16 bound above
        p = ModelParams(j=j, kmax=kmax)
        t = PicardConfig(nt=1025).t_grid()[512 + node]
        want = oracles.exact_free_phases(p, float(t), range(1, p.nmax + 1))
        assert np.abs(free_phases(p, t) - want).max() >= loss


class TestNonlocalMultiplier:
    def test_values(self):
        assert nonlocal_multiplier(1.0) == pytest.approx(0.5j)
        assert nonlocal_multiplier(2.0) == pytest.approx(0.4j)

    def test_maximum_at_one(self):
        k = np.linspace(-50, 50, 20001)
        mags = np.abs(nonlocal_multiplier(k))
        assert mags.max() <= 0.5 + 1e-15
        assert np.abs(nonlocal_multiplier(np.array([1.0, -1.0]))).min() == pytest.approx(0.5)

    def test_decay_like_one_over_k(self):
        assert abs(nonlocal_multiplier(1e6)) == pytest.approx(1e-6, rel=1e-9)


class TestNonlinearity:
    def test_cosine_pair(self, params16):
        # F(cos, cos) = -(3/5) sin 2x; the k=0 interaction dies with the derivative
        x = x_grid(params16, params16.default_grid())
        u = forward_transform(np.cos(x), params16)
        out = inverse_transform(nonlinearity_F(u, u), params16.default_grid())
        assert np.abs(out + 0.6 * np.sin(2 * x)).max() < 1e-12

    def test_bilinear_zero(self, params16):
        v = hermitian_spectrum(params16, seed=4)
        out = nonlinearity_F(SpatialSpectrum.zeros(params16), v)
        assert np.abs(out.amps).max() == 0.0

    def test_symmetry(self, params16):
        a = hermitian_spectrum(params16, seed=5)
        b = hermitian_spectrum(params16, seed=6)
        assert np.abs(nonlinearity_F(a, b).amps - nonlinearity_F(b, a).amps).max() < 1e-15

    def test_output_mean_zero_and_real(self, params16):
        a = hermitian_spectrum(params16, seed=7)
        out = nonlinearity_F(a, a)
        assert out.amps[params16.nmax] == 0.0
        assert out.is_hermitian(tol=1e-12)

    def test_kdv_mode_drops_smoothing(self, params16):
        a = hermitian_spectrum(params16, seed=8)
        kdv = nonlinearity_F(a, a, kdv=True)
        prod = product_spectrum(a, a)
        want = 0.5j * params16.k_values() * prod.amps
        assert np.abs(kdv.amps - want).max() < 1e-14

    def test_matches_the_convolution_route(self, params16):
        a = hermitian_spectrum(params16, seed=9)
        b = hermitian_spectrum(params16, seed=10)
        fast = nonlinearity_F(a, b)
        slow = oracles.nonlinearity_F(a, b)
        assert np.abs(fast.amps - slow.amps).max() < 1e-12


class TestNonlinearityKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(j=st.sampled_from([1, 2, 3]), lam=st.sampled_from([1.0, 2.0, 3.0]),
           mu=st.sampled_from([1.0, 1.5, 2.0]), kdv=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_block_matches_convolution_symmetric_real(self, j, lam, mu, kdv, seed):
        p = ModelParams(j=j, lam=lam, kmax=8.0)
        a = [hermitian_spectrum(p, seed=seed + i, decay=0.3 / lam) for i in range(3)]
        b = [hermitian_spectrum(p, seed=seed + 3 + i, decay=0.3 / lam) for i in range(3)]
        blk_a = np.stack([u.amps for u in a])
        blk_b = np.stack([u.amps for u in b])
        ha, hb = real_half(blk_a, "a"), real_half(blk_b, "b")
        ab = hermitian_rows(real_nonlinearity(ha, hb, p, mu=mu, kdv=kdv)[0])
        ba = hermitian_rows(real_nonlinearity(hb, ha, p, mu=mu, kdv=kdv)[0])
        aa = hermitian_rows(real_nonlinearity(ha, ha, p, mu=mu, kdv=kdv)[0])
        assert np.abs(ab - ba).max() < 1e-15
        k = p.k_values()
        ik = 1j * k
        for i in range(3):
            # F spelled out on the convolution route: 1/2 d_x(uv) + d_x (1 - mu^2 d_x^2)^(-1)
            # [uv + mu^2/2 u_x v_x]
            uv = oracles.product_spectrum(a[i], b[i]).amps
            ref = 0.5 * ik * uv
            if not kdv:
                dx_a, dx_b = oracles.derivative(a[i]), oracles.derivative(b[i])
                dd = oracles.product_spectrum(dx_a, dx_b).amps
                ref = ref + ik / (1.0 + (mu * k) ** 2) * (uv + 0.5 * mu * mu * dd)
            assert np.abs(ab[i] - ref).max() < 1e-12
            for out in (ab[i], aa[i]):
                spec = SpatialSpectrum(p, out)
                assert out[p.nmax] == 0.0
                assert spec.is_hermitian(tol=1e-12)


class TestGalerkinEnergyIdentity:
    @settings(max_examples=60, deadline=None)
    @given(j=st.sampled_from([2, 3]), lam=st.sampled_from([1.0, 2.0, 4.0]),
           mu=st.sampled_from([1.0, 1.5, 2.0]), kdv=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_F_does_no_work_on_the_energy(self, j, lam, mu, kdv, seed):
        # Re sum_k w conj(u) F(u, u) = 0 with w = 1 + mu^2 k^2 (w = 1 for kdv): the
        # truncated system conserves sum w |u|^2, so energy drift is all time stepping
        p = ModelParams(j=j, lam=lam, kmax=16.0)
        k = p.k_values()[p.nmax + 1:]
        rng = np.random.default_rng(seed)
        u = (rng.standard_normal(p.nmax) + 1j * rng.standard_normal(p.nmax)) / bracket(k)
        f = real_nonlinearity(u, u, p, mu=mu, kdv=kdv)[0]
        w = np.ones_like(k) if kdv else 1.0 + (mu * k) ** 2
        err = abs(np.sum(w * np.conj(u) * f).real)
        assert err <= 1e-13 * np.sum(w * np.abs(u) * np.abs(f))


class TestMeanCoupling:
    def test_matches_F_with_a_constant(self, params16):
        # a constant c has no derivative, so 2 F(c, u) = c [d_x u + 2 d_x (1 - mu^2 d_x^2)^(-1) u]
        k = params16.k_values()
        for mu in (1.0, 2.0):
            want = 1j * k * (1.0 + 2.0 / (1.0 + (mu * k) ** 2))
            assert np.abs(mean_coupling(k, mu) - want).max() <= 1e-14 * np.abs(want).max()
        assert np.abs(mean_coupling(k, kdv=True) - 1j * k).max() <= 1e-14 * k.max()


class TestPhysicalProductOracle:
    def test_product_matches_quadrature(self, params16):
        # pointwise multiply on a fine grid, transform with the trapezoid rule;
        # the product genuinely carries (tiny) content above kmax, hence the filter
        import warnings

        a = hermitian_spectrum(params16, seed=11)
        b = hermitian_spectrum(params16, seed=12)
        nx = 4 * params16.default_grid()
        fa, fb = inverse_transform(a, nx), inverse_transform(b, nx)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            oracle, _ = forward_transform(fa * fb, params16, return_mean=True)
        spec = product_spectrum(a, b)
        assert np.abs(spec.amps - oracle.amps).max() < 1e-12


class TestLocalFormOracle:
    def test_equivalence_random(self, params16):
        u = hermitian_spectrum(params16, seed=13)
        k = params16.k_values()
        ut = 1j * dispersion_symbol(k, params16.j) * u.amps - nonlinearity_F(u, u).amps
        lhs = (1.0 + k * k) * ut
        rhs = oracles.local_form_rhs(u).amps
        scale = max(np.abs(lhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() < 1e-10 * scale

    def test_zero(self, params16):
        out = oracles.local_form_rhs(SpatialSpectrum.zeros(params16))
        assert np.abs(out.amps).max() == 0.0

    def test_single_cosine(self, params16):
        x = x_grid(params16, params16.default_grid())
        u = forward_transform(np.cos(x), params16)
        k = params16.k_values()
        ut = 1j * dispersion_symbol(k, 2) * u.amps - nonlinearity_F(u, u).amps
        lhs = (1.0 + k * k) * ut
        assert np.abs(lhs - oracles.local_form_rhs(u).amps).max() < 1e-12


class TestLatticeSymbols:
    def test_odd_dispersion_and_excluded_zero(self, params16):
        k = params16.k_values()
        disp = dispersion_symbol(k, params16.j)
        assert np.allclose(disp + disp[::-1], 0.0)
        assert nonlocal_multiplier(k)[params16.nmax] == 0.0

    def test_helmholtz_dressing(self, params16):
        # m_dd = (mu^2/2) ik (1 - mu^2 d_x^2)^(-1): the Helmholtz inverse dressed by mu = 2
        k = params16.k_values()
        m_dd = nonlinearity_multipliers(k, 2.0)[1]
        assert np.allclose(m_dd, 2.0 * 1j * k / (1.0 + 4.0 * k * k))

    def test_derivative_spectrum(self, params16):
        u = hermitian_spectrum(params16, seed=14)
        du = oracles.derivative(u)
        assert np.allclose(du.amps, 1j * params16.k_values() * u.amps)


# pad=2 grids: nx = 36 and 72 (even, a Nyquist bin), 72 at lam=2, j=3, 27 (odd)
KERNEL_PARAMS = [ModelParams(j=2, kmax=8.0), ModelParams(j=2, kmax=16.0),
                 ModelParams(j=3, lam=2.0, kmax=8.0), ModelParams(j=3, kmax=6.0)]
KERNEL_IDS = ["nx36", "nx72", "lam2j3", "nx27"]


def assert_matches_convolution(fast, slow):
    scale = np.abs(slow.amps).max()
    assert np.abs(fast.amps - slow.amps).max() <= 1e-12 * scale
    assert fast.truncation_loss == pytest.approx(slow.truncation_loss, rel=1e-12)
    assert abs(fast.zero_mode - slow.zero_mode) <= 1e-12 * scale


class TestRealKernel:
    @pytest.mark.parametrize("p", KERNEL_PARAMS, ids=KERNEL_IDS)
    def test_truncation_loss_matches_convolution_route(self, p):
        a = hermitian_spectrum(p, seed=21, decay=0.05)
        b = hermitian_spectrum(p, seed=22, decay=0.05)
        for u, v in ((a, b), (a, a)):
            slow = oracles.product_spectrum(u, v)
            assert slow.truncation_loss > 1e-3 * hs_norm(slow, 0.0)
            assert_matches_convolution(product_spectrum(u, v), slow)
            for kdv in (False, True):
                assert_matches_convolution(nonlinearity_F(u, v, mu=1.5, kdv=kdv),
                                           oracles.nonlinearity_F(u, v, mu=1.5, kdv=kdv))

    def test_real_kernel_output_exactly_hermitian(self, params16):
        blk = np.stack([hermitian_spectrum(params16, seed=s, decay=0.1).amps for s in range(3)])
        for kdv in (False, True):
            half = blk[..., params16.nmax + 1:]
            out, tails = real_nonlinearity(half, half, params16, mu=2.0, kdv=kdv)
            out = hermitian_rows(out)
            assert np.array_equal(out[..., ::-1], np.conj(out))
            assert tails.shape[:2] == (3, 1 if kdv else 2)

    @pytest.mark.parametrize("kdv", [False, True])
    @pytest.mark.parametrize("n", [1, F_CHUNK - 1, F_CHUNK, F_CHUNK + 1, 1025])
    def test_chunk_loop_equals_one_kernel_call(self, n, kdv):
        p = ModelParams(j=2, lam=2.0, kmax=8.0)
        rng = np.random.default_rng(n)
        u = 0.1 * (rng.standard_normal((n, p.nmax)) + 1j * rng.standard_normal((n, p.nmax)))
        want = real_nonlinearity(u, u, p, mu=1.5, kdv=kdv)[0]
        assert np.array_equal(nonlinearity_rows(u, p, mu=1.5, kdv=kdv), want)
        buf = np.full(u.shape, np.nan, dtype=complex)
        assert nonlinearity_rows(u, p, mu=1.5, kdv=kdv, out=buf) is buf
        assert np.array_equal(buf, want)

    def test_rows_out_must_not_share_memory_with_u(self):
        p = ModelParams(j=2, kmax=8.0)
        block = np.zeros((41, p.nmax), dtype=complex)
        for out in (block[:40], block[1:]):  # u itself, and rows that overlap it
            with pytest.raises(ValueError, match="share memory"):
                nonlinearity_rows(block[:40], p, out=out)
