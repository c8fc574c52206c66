"""Transform conventions, lattice convolution, and Sobolev norms."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcl.lattice import (
    ModelParams,
    NormSpec,
    SpatialSpectrum,
    TWO_PI_SQRT,
    bracket,
    convolve,
    dropped_mass,
    field_to_csv,
    forward_transform,
    grid_to_lattice,
    hermitian_parts,
    hermitian_rows,
    hs_norm,
    inverse_transform,
    is_real_block,
    lattice_to_grid,
    sobolev_weights,
    spectrum_from_json,
    spectrum_to_json,
    x_grid,
)

from conftest import hermitian_spectrum

SQRT_PI_2 = math.sqrt(math.pi / 2.0)


class TestModelParams:
    def test_epsilon_ceiling(self):
        with pytest.raises(ValueError):
            ModelParams(j=2, epsilon=1.0 / (100 * 2**5))
        p = ModelParams(j=2)
        assert 0 < p.epsilon < 1 / (100 * 2**5)

    def test_lattice_integrality(self):
        with pytest.raises(ValueError):
            ModelParams(j=2, lam=2.0, kmax=0.75)
        p = ModelParams(j=2, lam=2.0, kmax=8.0)
        assert p.nmax == 16

    def test_kmax_default_scales_with_lam(self):
        assert ModelParams(j=2).kmax == 256.0
        assert ModelParams(j=2, lam=2.0).kmax == 128.0

    def test_j_validation(self):
        with pytest.raises(ValueError):
            ModelParams(j=0)
        ModelParams(j=1)  # accepted for the local-dispersion comparison mode


    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
    def test_default_grid_is_scipys_fast_length(self, lam):
        next_fast_len = pytest.importorskip("scipy.fft").next_fast_len
        for n in range(1, int(1024 * lam) + 1):
            p = ModelParams(j=2, lam=lam, kmax=n / lam)
            for pad in (1, 2):
                assert p.default_grid(pad) == next_fast_len(2 * pad * n + 2), (n, pad)


class TestForwardTransform:
    def test_cosine_amplitudes(self, params16):
        # (2*pi)^(-1/2) * int_0^{2pi} cos(x) e^{-+ix} dx = sqrt(pi/2)
        x = x_grid(params16, params16.default_grid())
        spec = forward_transform(np.cos(x), params16)
        assert spec.amp(1) == pytest.approx(SQRT_PI_2, abs=1e-13)
        assert spec.amp(-1) == pytest.approx(SQRT_PI_2, abs=1e-13)
        others = np.abs(spec.amps)
        others[params16.nmax + 1] = others[params16.nmax - 1] = 0.0
        assert others.max() < 1e-13

    def test_zero_field(self, params16):
        spec = forward_transform(np.zeros(128), params16)
        assert np.abs(spec.amps).max() == 0.0

    def test_round_trip_band_limited(self, params16):
        spec = hermitian_spectrum(params16, seed=1)
        nx = params16.default_grid()
        back = forward_transform(inverse_transform(spec, nx), params16)
        assert np.abs(back.amps - spec.amps).max() < 1e-12

    def test_mean_reported_separately(self, params16):
        x = x_grid(params16, 64)
        spec, mean = forward_transform(2.5 + np.cos(x), params16, return_mean=True)
        assert mean == pytest.approx(2.5, abs=1e-13)
        assert spec.amp(1) == pytest.approx(SQRT_PI_2, abs=1e-13)

    def test_mean_warning_when_dropped(self, params16):
        with pytest.warns(UserWarning, match="mean"):
            forward_transform(np.full(64, 1.0), params16)

    def test_aliased_input_warning(self):
        p = ModelParams(j=2, kmax=4.0)
        x = x_grid(p, 64)
        with pytest.warns(UserWarning, match="above kmax"):
            forward_transform(np.cos(7 * x), p)

    def test_non_uniform_grid_rejected(self, params16):
        x = x_grid(params16, 64).copy()
        x[3] += 1e-3
        with pytest.raises(ValueError, match="uniform"):
            forward_transform(np.cos(x), params16, x=x)

    def test_too_few_samples_rejected(self, params16):
        with pytest.raises(ValueError, match="samples"):
            forward_transform(np.zeros(16), params16)


class TestInverseTransform:
    def test_cosine_reconstruction(self, params16):
        spec = SpatialSpectrum.from_modes(params16, {1: SQRT_PI_2, -1: SQRT_PI_2})
        nx = 128
        f = inverse_transform(spec, nx)
        assert np.isrealobj(f)
        assert np.abs(f - np.cos(x_grid(params16, nx))).max() < 1e-13

    def test_empty_spectrum(self, params16):
        assert np.abs(inverse_transform(SpatialSpectrum.zeros(params16))).max() == 0.0

    def test_single_mode_normalization(self):
        # one unit amplitude at k=1 inverts to (2*pi)^(-1/2) * (1/lam) * e^{ikx}
        for lam in (1.0, 2.0):
            p = ModelParams(j=2, lam=lam, kmax=8.0)
            spec = SpatialSpectrum.from_modes(p, {1.0 / lam: 1.0})
            nx = 128
            f = inverse_transform(spec, nx)
            want = np.exp(1j * x_grid(p, nx) / lam) / (math.sqrt(2 * math.pi) * lam)
            assert np.abs(f - want).max() < 1e-14

    def test_parseval(self, params16):
        spec = hermitian_spectrum(params16, seed=2)
        nx = 256
        f = inverse_transform(spec, nx)
        l2_phys = math.sqrt(np.sum(np.abs(f) ** 2) * params16.period() / nx)
        assert hs_norm(spec, 0.0) == pytest.approx(l2_phys, rel=1e-12)


class TestConvolve:
    def test_unit_masses(self, params16):
        a = SpatialSpectrum.from_modes(params16, {1: 1.0})
        out = convolve(a, a)
        assert out.amp(2) == pytest.approx(1.0)
        assert np.count_nonzero(out.amps) == 1

    def test_zero_annihilates(self, params16):
        a = hermitian_spectrum(params16, seed=3)
        out = convolve(a, SpatialSpectrum.zeros(params16))
        assert np.abs(out.amps).max() == 0.0

    def test_product_identity_with_normalization(self, params16):
        # F(f*g) picks up the (2*pi)^(-1/2) the symmetric convention forces
        f = hermitian_spectrum(params16, seed=4, top=5)
        g = hermitian_spectrum(params16, seed=5, top=5)
        nx = params16.default_grid(pad=2)
        prod = inverse_transform(f, nx) * inverse_transform(g, nx)
        direct, _ = forward_transform(prod, params16, return_mean=True)
        via_conv = convolve(f, g).amps / math.sqrt(2 * math.pi)
        assert np.abs(direct.amps - via_conv).max() < 1e-10

    def test_shift_by_unit_mass(self, params16):
        a = hermitian_spectrum(params16, seed=6, top=8)
        shift = SpatialSpectrum.from_modes(params16, {3: 1.0})
        out = convolve(a, shift)
        m = params16.nmax
        want = np.zeros_like(a.amps)
        want[3:] = a.amps[:-3]
        want[m] = 0.0  # zero mode stays excluded
        assert np.abs(out.amps - want).max() < 1e-14

    def test_commutative_bilinear(self, params16):
        a = hermitian_spectrum(params16, seed=7, top=6)
        b = hermitian_spectrum(params16, seed=8, top=6)
        c = hermitian_spectrum(params16, seed=9, top=6)
        assert np.allclose(convolve(a, b).amps, convolve(b, a).amps)
        lhs = convolve(a, b + 2.0 * c).amps
        rhs = convolve(a, b).amps + 2.0 * convolve(a, c).amps
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_hermitian_preserved(self, params16):
        a = hermitian_spectrum(params16, seed=10, top=6)
        b = hermitian_spectrum(params16, seed=11, top=6)
        assert convolve(a, b).is_hermitian()

    def test_truncation_loss_reported(self):
        p = ModelParams(j=2, kmax=4.0)
        a = SpatialSpectrum.from_modes(p, {3: 1.0})
        out = convolve(a, a)  # mass lands at k=6, beyond kmax
        assert np.abs(out.amps).max() == 0.0
        assert out.truncation_loss == pytest.approx(1.0)

    def test_mismatched_lattices_rejected(self, params16):
        other = ModelParams(j=2, lam=2.0, kmax=16.0)
        with pytest.raises(ValueError, match="lattice"):
            convolve(hermitian_spectrum(params16), SpatialSpectrum.zeros(other))


class TestHsNorm:
    def test_single_mode_value(self, params16):
        for s in (-0.25, 0.0, 1.7):
            spec = SpatialSpectrum.from_modes(params16, {1: 1.0})
            assert hs_norm(spec, s) == pytest.approx(2.0 ** (s / 2.0))

    def test_mode_ratio(self, params16):
        s = -0.4
        n1 = hs_norm(SpatialSpectrum.from_modes(params16, {1: 1.0}), s)
        n2 = hs_norm(SpatialSpectrum.from_modes(params16, {2: 1.0}), s)
        assert n2 / n1 == pytest.approx((5.0 / 2.0) ** (s / 2.0))

    def test_s_zero_is_l2(self, params16):
        spec = hermitian_spectrum(params16, seed=12)
        l2 = math.sqrt(np.sum(np.abs(spec.amps) ** 2) / params16.lam)
        assert hs_norm(spec, 0.0) == pytest.approx(l2)

    @pytest.mark.parametrize("p", [ModelParams(j=2, kmax=16.0), ModelParams(j=3, lam=2.0, kmax=8.0)])
    def test_cached_weights_equal_the_formula(self, p):
        spec = hermitian_spectrum(p, seed=15)
        for s in (-0.25, 0.0, 1.0, 1.7):
            formula = bracket(p.k_values()) ** (2.0 * s)
            w = sobolev_weights(p, s)
            assert np.array_equal(w, formula)
            assert sobolev_weights(p, s) is w and not w.flags.writeable
            want = math.sqrt(float(np.sum(formula * np.abs(spec.amps) ** 2)) / p.lam)
            assert hs_norm(spec, s) == want

    @given(c=st.floats(-5, 5, allow_nan=False), s=st.floats(-2, 2))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity_and_triangle(self, c, s):
        p = ModelParams(j=2, kmax=8.0)
        a = hermitian_spectrum(p, seed=13)
        b = hermitian_spectrum(p, seed=14)
        assert hs_norm(c * a, s) == pytest.approx(abs(c) * hs_norm(a, s), abs=1e-12)
        assert hs_norm(a + b, s) <= hs_norm(a, s) + hs_norm(b, s) + 1e-12


class TestNormSpec:
    def test_xsb_needs_b(self):
        with pytest.raises(ValueError):
            NormSpec("Xsb", s=0.0)
        NormSpec("Xsb", s=0.0, b=0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NormSpec("Hmm", s=0.0)


class TestSerialization:
    def test_json_round_trip(self, params16):
        spec = hermitian_spectrum(params16, seed=15, top=4)
        text = spectrum_to_json(spec)
        doc = json.loads(text)
        assert set(doc) == {"lambda", "j", "modes"}
        assert set(doc["modes"][0]) == {"k", "re", "im"}
        back = spectrum_from_json(text, kmax=params16.kmax)
        assert np.abs(back.amps - spec.amps).max() < 1e-15

    def test_field_csv_header(self, params16):
        x = x_grid(params16, 8)
        text = field_to_csv(x, np.cos(x))
        assert text.splitlines()[0] == "x,re,im"
        assert len(text.splitlines()) == 9


class TestZeroModeExclusion:
    def test_from_modes_rejects_zero(self, params16):
        with pytest.raises(ValueError, match="zero mode"):
            SpatialSpectrum.from_modes(params16, {0: 1.0})

    def test_zero_slot_forced(self, params16):
        amps = np.ones(2 * params16.nmax + 1, dtype=complex)
        spec = SpatialSpectrum(params16, amps)
        assert spec.amps[params16.nmax] == 0.0


# odd and even grids: params 8 has nx = 35, params 16 has nx = 66 at pad=2
PACKING_PARAMS = [ModelParams(j=2, kmax=8.0), ModelParams(j=2, kmax=16.0),
                  ModelParams(j=3, lam=2.0, kmax=8.0)]


class TestRealPacking:
    @pytest.mark.parametrize("p", PACKING_PARAMS, ids=["nx35", "nx66", "lam2j3"])
    @pytest.mark.parametrize("pad", [1, 2])
    def test_round_trip_hermitian_block(self, p, pad):
        blk = np.stack([hermitian_spectrum(p, seed=s, decay=0.2).amps for s in range(4)])
        blk = blk.reshape(2, 2, -1)
        nx = p.default_grid(pad=pad)
        f = lattice_to_grid(blk[..., p.nmax + 1:], p, nx)
        assert f.shape == (2, 2, nx) and np.isrealobj(f)
        pos, zero, tail = grid_to_lattice(f, p)
        amps = hermitian_rows(pos)
        assert is_real_block(amps)
        assert np.abs(amps - blk).max() < 1e-15 * np.abs(blk).max() * nx
        assert np.abs(zero).max() < 1e-15 and np.abs(tail).max() < 1e-15

    @pytest.mark.parametrize("nx", [34, 35, 66, 67])
    def test_dropped_mass_matches_the_full_complex_tail(self, nx):
        # oracle: the complex FFT, scaled to the lattice convention, over n = m+1 .. nx-m-1
        p = ModelParams(j=2, lam=2.0, kmax=8.0)
        m = p.nmax
        f = np.random.default_rng(nx).standard_normal(nx)
        full = np.fft.fft(f) * (TWO_PI_SQRT * p.lam / nx)
        want = math.sqrt(float(np.sum(np.abs(full[m + 1:nx - m]) ** 2)) / p.lam)
        pos, zero, tail = grid_to_lattice(f, p)
        amps = hermitian_rows(pos)
        assert dropped_mass(tail, nx, p.lam) == pytest.approx(want, rel=1e-13)
        assert np.abs(amps[m + 1:] - full[1:m + 1]).max() < 1e-14
        assert np.abs(amps[:m] - full[nx - m:]).max() < 1e-14
        assert zero == pytest.approx(full[0], abs=1e-14)

    def test_hermitian_parts_recombine(self, params16):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 2 * params16.nmax + 1)) * (1 + 1j)
        h, g = hermitian_parts(a)
        assert is_real_block(h) and is_real_block(g)
        assert np.abs(h + 1j * g - a).max() < 1e-15
        assert not is_real_block(a)

    def test_complex_field_round_trip(self, params16):
        x = x_grid(params16, params16.default_grid())
        f = np.exp(2j * x) + 0.5 * np.cos(3 * x) - 0.25j * np.sin(x)
        spec = forward_transform(f, params16)
        assert not spec.is_hermitian()
        assert spec.amp(2) == pytest.approx(TWO_PI_SQRT)
        assert abs(spec.amp(-2)) < 1e-15
        assert np.abs(inverse_transform(spec, len(x)) - f).max() < 1e-14

    def test_hermitian_tolerance_relative_to_the_data(self, params16):
        u = hermitian_spectrum(params16, seed=30)
        assert (1e-11 * u).is_hermitian()
        assert not u.with_amps(u.amps * 1e-11 * np.exp(0.5j)).is_hermitian()
        assert SpatialSpectrum.zeros(params16).is_hermitian()
