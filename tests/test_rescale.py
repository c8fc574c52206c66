"""Dilation bookkeeping and the rescaled-equation residual."""

import math

import numpy as np
import pytest

from dcl.evolve import pde_residual, simulate
from dcl.lattice import (
    ModelParams,
    SpatialSpectrum,
    bracket,
    forward_transform,
    hermitian_rows,
    hs_norm,
    x_grid,
)
from dcl.rescale import (
    hs_scaling_exponent,
    rescale_field,
    rescale_params,
    rescale_trajectory,
    rescaled_residual,
)
from dcl.symbols import nonlinearity_F

import oracles
from conftest import hermitian_spectrum, trajectory_of


class TestRescaleField:
    def test_mu_one_is_identity(self, params8):
        u = hermitian_spectrum(params8, seed=1)
        out = rescale_field(u, 1.0)
        assert np.array_equal(out.amps, u.amps)
        assert out.params == u.params

    def test_period_dilates(self, params8):
        out = rescale_field(hermitian_spectrum(params8, seed=2), 3.0)
        assert out.params.period() == pytest.approx(2 * math.pi * 3.0)
        assert out.params.nmax == params8.nmax  # index bookkeeping is exact

    def test_mu_below_one_rejected(self, params8):
        with pytest.raises(ValueError, match="mu"):
            rescale_params(params8, 0.5)
        with pytest.raises(ValueError):
            rescale_field(hermitian_spectrum(params8), 0.25)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_mu_not_finite_rejected(self, params8, mu):
        u = hermitian_spectrum(params8, seed=5)
        traj = simulate(u, T=0.002, dt=0.001)
        for call, arg in ((rescale_params, params8), (rescale_field, u), (rescale_trajectory, traj)):
            with pytest.raises(ValueError, match="mu must be finite and >= 1"):
                call(arg, mu)

    def test_l2_quadrature_oracle(self):
        # mu^{-2j} u0(x/mu) sampled on the dilated circle, transformed there
        p = ModelParams(j=2, kmax=8.0)
        mu = 2.0
        u0 = hermitian_spectrum(p, seed=3)
        scaled = rescale_field(u0, mu)
        ps = scaled.params
        nx = 512
        xs = x_grid(ps, nx)
        from dcl.lattice import inverse_transform

        field = mu ** (-2 * p.j) * inverse_transform(u0, nx)  # u0(x/mu) on the big circle
        # careful: sampling u0 at xs/mu needs the same grid points; xs/mu tiles [0, 2pi)
        direct = forward_transform(field, ps)
        assert np.abs(direct.amps - scaled.amps).max() < 1e-12
        quad = math.sqrt(np.sum(np.abs(field) ** 2) * ps.period() / nx)
        assert hs_norm(scaled, 0.0) == pytest.approx(quad, rel=1e-12)

    def test_composition(self, params8):
        u = hermitian_spectrum(params8, seed=4)
        once = rescale_field(rescale_field(u, 2.0), 4.0)
        combined = rescale_field(u, 8.0)
        assert np.array_equal(once.amps, combined.amps)
        assert once.params.lam == combined.params.lam

    def test_measured_hs_exponent(self):
        # single mode at k=1: ||.||_{H^0} picks up mu^{1-2j} from the
        # amplitude and mu^{-1/2} from the measure: slope 1/2 - 2j
        p = ModelParams(j=2, kmax=8.0)
        from dcl.lattice import SpatialSpectrum

        u = SpatialSpectrum.from_modes(p, {1: 1.0, -1: 1.0})
        got = hs_scaling_exponent(u, 0.0)
        assert got == pytest.approx(0.5 - 2 * p.j, abs=1e-6)
        # negative s weakens the decay: the bracket helps small k
        assert hs_scaling_exponent(u, -1.0) > got


class TestRescaleTrajectory:
    @pytest.mark.parametrize("mu", [1.0, 2.0, 3.7])
    def test_block_equals_the_per_state_route(self, mu):
        p = ModelParams(j=2, lam=2.0, kmax=8.0)
        traj = simulate(hermitian_spectrum(p, seed=8), T=0.02, dt=1e-3, mean=0.25, stride=2)
        scaled = rescale_trajectory(traj, mu)
        want = [oracles.rescale_state(s, mu) for s in traj.states]
        assert scaled.params == rescale_params(p, mu)
        assert [(s.t, s.mean) for s in scaled.states] == [(w.t, w.mean) for w in want]
        for got, w in zip(scaled.states, want, strict=True):
            assert got.spec.params == w.spec.params
            assert np.array_equal(got.spec.amps, w.spec.amps)
        assert (scaled.blown_up, scaled.phase_wrap) == (traj.blown_up, traj.phase_wrap)
        assert scaled.diagnostics == []
        listed = trajectory_of(scaled.params, scaled.dt, scaled.mode, want)
        assert pde_residual(scaled, mu=mu) == pde_residual(listed, mu=mu)


class TestRescalingIdentityOfF:
    @pytest.mark.parametrize("kdv", [False, True])
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("j", [2, 3])
    def test_F_of_the_dilated_field_is_the_dilated_F(self, j, lam, kdv):
        # F_mu(u_mu, u_mu) = mu^-(2j+1) (F(u, u))_mu for u_mu = rescale_field(u, mu):
        # each term of F carries one d_x and is quadratic in mu^(-2j) u(x/mu)
        p = ModelParams(j=j, lam=lam, kmax=16.0)
        rng = np.random.default_rng(100 * j + 10 * int(lam) + kdv)
        m = p.nmax
        k = p.k_values()[m + 1:]
        for mu in rng.uniform(1.0, 8.0, size=4):
            pos = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / bracket(k)
            u = SpatialSpectrum(p, hermitian_rows(0.05 * pos))
            u_mu = rescale_field(u, mu)
            got = nonlinearity_F(u_mu, u_mu, mu=mu, kdv=kdv).amps
            want = mu ** -(2 * j + 1) * rescale_field(nonlinearity_F(u, u, kdv=kdv), mu).amps
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), mu


class TestRescaledResidual:
    def _traj(self, mode="full"):
        p = ModelParams(j=2, kmax=32.0)
        x = x_grid(p, p.default_grid())
        u0 = forward_transform(0.05 * np.cos(x), p)
        return simulate(u0, T=0.2, dt=1e-3, mode=mode, stride=2)

    def test_full_flow_satisfies_rescaled_equation(self):
        traj = rescale_trajectory(self._traj(), 2.0)
        assert rescaled_residual(traj, 2.0) <= 1e-6

    def test_kdv_truncation_also_passes(self):
        traj = rescale_trajectory(self._traj("kdv"), 2.0)
        assert rescaled_residual(traj, 2.0) <= 1e-6

    def test_linear_flow_tight(self):
        traj = rescale_trajectory(self._traj("linear"), 2.0)
        assert rescaled_residual(traj, 2.0) <= 1e-12

    def test_zero_solution(self):
        p = ModelParams(j=2, kmax=8.0)
        from dcl.lattice import SpatialSpectrum

        traj = simulate(SpatialSpectrum.zeros(p), T=0.1, dt=0.01)
        assert rescaled_residual(rescale_trajectory(traj, 2.0), 2.0) == 0.0

    def test_wrong_mu_fails(self):
        # dressing the smoothing operator with the wrong mu must show up at
        # the size of the quadratic terms, far above the true residual
        traj = rescale_trajectory(self._traj(), 2.0)
        good = rescaled_residual(traj, 2.0)
        bad = rescaled_residual(traj, 1.0)
        assert bad > 1e-7 and bad > 1000.0 * good

    def test_times_dilate(self):
        traj = self._traj()
        scaled = rescale_trajectory(traj, 2.0)
        assert scaled.states[-1].t == pytest.approx(traj.states[-1].t * 2.0 ** 5)
        assert scaled.dt == pytest.approx(traj.dt * 32.0)
