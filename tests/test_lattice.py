"""Transform conventions and Sobolev norms; the lattice convolution oracle against them."""

import bisect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcl.lattice import (
    ModelParams,
    SpatialSpectrum,
    TWO_PI_SQRT,
    bracket,
    dropped_mass,
    forward_transform,
    grid_to_lattice,
    grid_work,
    hermitian_rows,
    hs_norm,
    inverse_transform,
    is_integer,
    lattice_ks,
    lattice_to_grid,
    sobolev_weights,
    spectrum_from_json,
    spectrum_to_json,
    x_grid,
)

import oracles
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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_lam_and_kmax_rejected(self, bad):
        # inf used to overflow in round(kmax*lam), and a NaN lam passed lam < 1
        with pytest.raises(ValueError, match="lam must be finite"):
            ModelParams(j=2, lam=bad, kmax=8.0)
        with pytest.raises(ValueError, match="kmax must be finite"):
            ModelParams(j=2, kmax=bad)


    def test_lattice_ks_up_to_kbound(self):
        # a kbound*lam within 1e-9 of an integer counts as that integer, else it rounds down
        assert lattice_ks(2.6, 1.0).tolist() == [1.0, 2.0]
        assert lattice_ks(2.6, 2.0).tolist() == [0.5, 1.0, 1.5, 2.0, 2.5]
        assert lattice_ks(3.0 - 1e-12, 1.0).tolist() == [1.0, 2.0, 3.0]
        assert lattice_ks(0.9, 1.0).size == 0
        assert lattice_ks(0.1 * 3, 10.0).tolist() == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
    def test_default_grid_is_the_next_5_smooth_length(self, lam):
        # every 2^a 3^b 5^c up to 2^15, past the largest need 2*2*4096 + 2
        smooth = sorted(2**a * 3**b * 5**c for a in range(16) for b in range(10) for c in range(7))
        for n in range(1, int(1024 * lam) + 1):
            p = ModelParams(j=2, lam=lam, kmax=n / lam)
            for pad in (1, 2):
                want = smooth[bisect.bisect_left(smooth, 2 * pad * n + 2)]
                assert p.default_grid(pad) == want, (n, pad)


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

    def test_too_few_samples_rejected(self, params16):
        with pytest.raises(ValueError, match="samples"):
            forward_transform(np.zeros(16), params16)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        p = ModelParams(j=2, kmax=8.0)
        f = np.cos(x_grid(p, 64))
        f[5] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            forward_transform(f, p)


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
        # unit amplitudes at k = +-1/lam invert to 2 (2*pi)^(-1/2) (1/lam) cos(x/lam)
        for lam in (1.0, 2.0):
            p = ModelParams(j=2, lam=lam, kmax=8.0)
            spec = SpatialSpectrum.from_modes(p, {1.0 / lam: 1.0, -1.0 / lam: 1.0})
            nx = 128
            f = inverse_transform(spec, nx)
            want = 2.0 * np.cos(x_grid(p, nx) / lam) / (math.sqrt(2 * math.pi) * lam)
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
        out = oracles.convolve(a, a)
        assert out.amp(2) == pytest.approx(1.0)
        assert np.count_nonzero(out.amps) == 1

    def test_zero_annihilates(self, params16):
        a = hermitian_spectrum(params16, seed=3)
        out = oracles.convolve(a, SpatialSpectrum.zeros(params16))
        assert np.abs(out.amps).max() == 0.0

    def test_product_identity_with_normalization(self, params16):
        # F(f*g) picks up the (2*pi)^(-1/2) the symmetric convention forces
        f = hermitian_spectrum(params16, seed=4, top=5)
        g = hermitian_spectrum(params16, seed=5, top=5)
        nx = params16.default_grid(pad=2)
        prod = inverse_transform(f, nx) * inverse_transform(g, nx)
        direct, _ = forward_transform(prod, params16, return_mean=True)
        via_conv = oracles.convolve(f, g).amps / math.sqrt(2 * math.pi)
        assert np.abs(direct.amps - via_conv).max() < 1e-10

    def test_shift_by_unit_mass(self, params16):
        a = hermitian_spectrum(params16, seed=6, top=8)
        shift = SpatialSpectrum.from_modes(params16, {3: 1.0})
        out = oracles.convolve(a, shift)
        m = params16.nmax
        want = np.zeros_like(a.amps)
        want[3:] = a.amps[:-3]
        want[m] = 0.0  # zero mode stays excluded
        assert np.abs(out.amps - want).max() < 1e-14

    def test_commutative_bilinear(self, params16):
        a = hermitian_spectrum(params16, seed=7, top=6)
        b = hermitian_spectrum(params16, seed=8, top=6)
        c = hermitian_spectrum(params16, seed=9, top=6)
        assert np.allclose(oracles.convolve(a, b).amps, oracles.convolve(b, a).amps)
        lhs = oracles.convolve(a, b + 2.0 * c).amps
        rhs = oracles.convolve(a, b).amps + 2.0 * oracles.convolve(a, c).amps
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_hermitian_preserved(self, params16):
        a = hermitian_spectrum(params16, seed=10, top=6)
        b = hermitian_spectrum(params16, seed=11, top=6)
        assert oracles.convolve(a, b).is_hermitian()

    def test_truncation_loss_reported(self):
        p = ModelParams(j=2, kmax=4.0)
        a = SpatialSpectrum.from_modes(p, {3: 1.0})
        out = oracles.convolve(a, a)  # mass lands at k=6, beyond kmax
        assert np.abs(out.amps).max() == 0.0
        assert out.truncation_loss == pytest.approx(1.0)

    def test_mismatched_lattices_rejected(self, params16):
        other = ModelParams(j=2, lam=2.0, kmax=16.0)
        with pytest.raises(ValueError, match="lattice"):
            oracles.convolve(hermitian_spectrum(params16), SpatialSpectrum.zeros(other))


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
            oracles.NormSpec("Xsb", s=0.0)
        oracles.NormSpec("Xsb", s=0.0, b=0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            oracles.NormSpec("Hmm", s=0.0)


class TestSerialization:
    def test_json_round_trip(self, params16):
        spec = hermitian_spectrum(params16, seed=15, top=4)
        text = spectrum_to_json(spec)
        doc = json.loads(text)
        assert set(doc) == {"lambda", "j", "modes"}
        assert set(doc["modes"][0]) == {"k", "re", "im"}
        back = spectrum_from_json(text, kmax=params16.kmax)
        assert np.abs(back.amps - spec.amps).max() < 1e-15


class TestZeroModeExclusion:
    def test_from_modes_rejects_zero(self, params16):
        with pytest.raises(ValueError, match="zero mode"):
            SpatialSpectrum.from_modes(params16, {0: 1.0})

    def test_repeated_mode_rejected(self, params16):
        # 1 + 1e-12 lands on the lattice point of 1; the last entry used to win
        with pytest.raises(ValueError, match=r"k=1\.000000000001 repeats the mode k=1\.0"):
            SpatialSpectrum.from_modes(params16, {1.0: 1.0, 1.0 + 1e-12: 5.0})
        with pytest.raises(ValueError, match="k=-2 repeats"):
            SpatialSpectrum.from_modes(params16, [(-2, 1.0), (3, 1.0), (-2, 1.0)])
        doc = {"lambda": 1.0, "j": 2, "modes": [{"k": 1.0, "re": 1.0, "im": 0.0},
                                                {"k": 1.0, "re": 5.0, "im": 0.0}]}
        with pytest.raises(ValueError, match="k=1.0 repeats"):
            spectrum_from_json(json.dumps(doc), kmax=params16.kmax)

    @pytest.mark.parametrize("k", [-20, 17, 2.4, 0.25, math.nan, math.inf])
    def test_k_off_the_lattice_or_beyond_kmax_rejected(self, params16, k):
        # at kmax 16, -20 would wrap to k = 13 and 2.4 round to k = 2
        u = hermitian_spectrum(params16, seed=3)
        with pytest.raises(ValueError, match="not on the lattice|beyond truncation"):
            u.amp(k)
        with pytest.raises(ValueError, match="not on the lattice|beyond truncation"):
            SpatialSpectrum.from_modes(params16, {k: 1.0})

    def test_amp_reads_its_lattice_point(self, params16):
        u = hermitian_spectrum(params16, seed=3)
        m = params16.nmax
        assert u.amp(0) == 0.0  # the structural zero
        for k in (-16, -1, 2, 16.0):
            assert u.amp(k) == u.amps[m + int(k)]
        p = ModelParams(j=2, lam=2.0, kmax=8.0)
        v = SpatialSpectrum.from_modes(p, {2.5: 1.0, -0.5: 2.0})
        assert (v.amp(2.5), v.amp(-0.5), v.amp(8.0)) == (1.0, 2.0, 0.0)
        with pytest.raises(ValueError, match="not on the lattice"):
            v.amp(0.75)

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
        work = grid_work(p, nx, 1, (2, 2))
        f = lattice_to_grid((blk[..., p.nmax + 1:],), p, work)
        assert f.shape == (2, 2, 1, nx) and np.isrealobj(f)
        pos, zero, tail = grid_to_lattice(p, work)
        amps = hermitian_rows(pos[..., 0, :])
        assert oracles.exactly_hermitian(amps)
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
        work = grid_work(p, nx, 1)
        work.grid[0] = f
        (pos,), (zero,), (tail,) = grid_to_lattice(p, work)
        amps = hermitian_rows(pos)
        assert dropped_mass(tail, nx, p.lam) == pytest.approx(want, rel=1e-13)
        assert np.abs(amps[m + 1:] - full[1:m + 1]).max() < 1e-14
        assert np.abs(amps[:m] - full[nx - m:]).max() < 1e-14
        assert zero == pytest.approx(full[0], abs=1e-14)

    def test_hermitian_tolerance_relative_to_the_data(self, params16):
        u = hermitian_spectrum(params16, seed=30)
        assert (1e-11 * u).is_hermitian()
        assert not u.with_amps(u.amps * 1e-11 * np.exp(0.5j)).is_hermitian()
        assert SpatialSpectrum.zeros(params16).is_hermitian()


class TestIntegerCounts:
    def test_is_integer(self):
        assert all(is_integer(x) for x in (0, -3, np.int64(5), np.uint8(2)))
        assert not any(is_integer(x) for x in (True, np.True_, 1.0, 1.5, np.float64(2.0), "3", None))

    @pytest.mark.parametrize("bad", [True, 1.5])
    @pytest.mark.parametrize("name", ["nt", "iterations", "stride", "doublings", "count",
                                      "kmax_box"])
    def test_counts_reject_bools_and_floats(self, name, bad):
        from dcl.bourgain import batch_bilinear_probe, verify_embeddings
        from dcl.evolve import PicardConfig, picard_iterate, simulate
        from dcl.resonance import verify_resonance_bound

        p = ModelParams(j=2, kmax=4.0)
        u0 = hermitian_spectrum(p, seed=1)
        calls = {
            "nt": lambda: picard_iterate(u0, PicardConfig(nt=bad, iterations=1)),
            "iterations": lambda: picard_iterate(u0, PicardConfig(nt=5, iterations=bad)),
            "stride": lambda: simulate(u0, 2e-3, 1e-3, stride=bad),
            "doublings": lambda: verify_embeddings(-0.25, p, kbound=4.0, doublings=bad),
            "count": lambda: batch_bilinear_probe(p, -0.25, "dxdx_smoothed", count=bad, seed=1),
            "kmax_box": lambda: verify_resonance_bound(bad, 2),
        }
        with pytest.raises(ValueError, match=name):
            calls[name]()
