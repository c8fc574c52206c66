"""Stepper exactness, conservation, residuals, and the fixed-point iterator."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson

from dcl.evolve import (
    IntegratingFactorRK4,
    _energy_weights,
    _cumulative_simpson,
    _time_derivatives,
    PicardConfig,
    SolverState,
    bump_eta,
    energy,
    pde_residual,
    picard_iterate,
    simulate,
    step,
)
from dcl.lattice import (
    ModelParams,
    SpatialSpectrum,
    forward_transform,
    hermitian_rows,
    hs_norm,
    inverse_transform,
    real_half,
    x_grid,
)
from dcl.symbols import (
    dispersion_row,
    dispersion_symbol,
    free_evolution,
    mean_coupling,
    nonlinearity_F,
    real_nonlinearity,
)

import oracles
from conftest import hermitian_spectrum, trajectory_of


def cosine_data(params, amp=0.01, mode=1):
    x = x_grid(params, params.default_grid())
    return forward_transform(amp * np.cos(mode * x / params.lam), params)


class TestStep:
    def test_linear_step_is_free_flow(self, params16):
        u = hermitian_spectrum(params16, seed=1)
        out = step(SolverState(0.0, u), 0.37, mode="linear")
        want = free_evolution(u, 0.37)
        assert np.abs(out.spec.amps - want.amps).max() < 1e-14

    def test_zero_stays_zero(self, params16):
        out = step(SolverState(0.0, SpatialSpectrum.zeros(params16)), 0.1)
        assert np.abs(out.spec.amps).max() == 0.0

    def test_self_convergence_order_four(self):
        p = ModelParams(j=2, kmax=16.0)
        u0 = cosine_data(p, amp=0.05)
        finals = {}
        for dt in (8e-3, 4e-3, 2e-3):
            finals[dt] = simulate(u0, T=0.4, dt=dt, stride=10**9).states[-1].spec.amps
        e1 = np.linalg.norm(finals[8e-3] - finals[4e-3])
        e2 = np.linalg.norm(finals[4e-3] - finals[2e-3])
        assert math.log2(e1 / e2) == pytest.approx(4.0, abs=0.3)

    def test_nonfinite_aborts_with_diagnostic(self, params16):
        big = hermitian_spectrum(params16, seed=2, scale=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="t="):
                IntegratingFactorRK4(params16, 1.0).step(SolverState(0.0, big))

    def test_phase_wrap_diagnostic(self):
        p = ModelParams(j=2, kmax=64.0)
        stepper = IntegratingFactorRK4(p, dt=1.0)
        assert stepper.phase_wrap == pytest.approx(64.0**5)
        assert not stepper.phase_wrap_ok

    def test_invalid_dt_and_mode(self, params16):
        with pytest.raises(ValueError):
            IntegratingFactorRK4(params16, -0.1)
        with pytest.raises(ValueError):
            IntegratingFactorRK4(params16, 0.1, mode="implicit")

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_rejected(self, params16, dt):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            IntegratingFactorRK4(params16, dt)
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            step(SolverState(0.0, hermitian_spectrum(params16, seed=1)), dt)

    @pytest.mark.parametrize("mean", [0.0, 0.25])
    @pytest.mark.parametrize("mode", ["full", "kdv", "linear"])
    def test_stage_value_is_F_plus_the_mean_coupling(self, mode, mean):
        # the stages carry K = F(u, u) + c * mean_coupling * u, not its negative
        p = ModelParams(j=3, lam=2.0, kmax=16.0)
        u = hermitian_spectrum(p, seed=3).amps[p.nmax + 1:]
        stepper = IntegratingFactorRK4(p, 1e-4, mode=mode, mu=1.5)
        out = np.full(p.nmax, np.nan, dtype=complex)
        assert stepper._rhs(u, stepper._coupling(mean), out) is out
        if mode == "linear":
            assert not out.any()
            return
        kdv = mode == "kdv"
        want = real_nonlinearity(u, u, p, mu=1.5, kdv=kdv)[0]
        if mean != 0.0:
            want += (mean * mean_coupling(p.k_values(), 1.5, kdv)[p.nmax + 1:]) * u
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("mean", [0.0, 0.25])
    @pytest.mark.parametrize("mode", ["full", "kdv", "linear"])
    def test_a_warmed_step_allocates_only_its_half(self, mode, mean):
        # every buffer a stage writes is the stepper's: past the fresh half it returns, a step
        # allocates only small change (the finiteness mask, Python objects)
        p = ModelParams(j=2, kmax=128.0)
        u = hermitian_spectrum(p, seed=4, decay=0.02).amps[p.nmax + 1:].copy()
        stepper = IntegratingFactorRK4(p, 1e-4, mode=mode)
        stepper._advance(u, mean, 0.0)
        tracemalloc.start()
        try:
            out = stepper._advance(u, mean, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == 16 * p.nmax and peak < 2 * out.nbytes


class TestSimulate:
    def test_t_zero_single_state(self, params16):
        u0 = hermitian_spectrum(params16, seed=3)
        traj = simulate(u0, T=0.0, dt=0.1)
        assert len(traj.states) == 1 and traj.states[0].t == 0.0

    def test_energy_conservation_small_run(self):
        p = ModelParams(j=2, kmax=64.0)
        traj = simulate(cosine_data(p), T=0.5, dt=1e-3, stride=100)
        e = [d["energy"] for d in traj.diagnostics]
        assert abs(e[-1] - e[0]) / e[0] < 1e-10

    def test_kdv_invariants(self):
        p = ModelParams(j=1, kmax=32.0)
        traj = simulate(cosine_data(p, amp=0.05), T=0.5, dt=1e-3, mode="kdv", stride=50)
        l2 = [d["l2"] for d in traj.diagnostics]
        means = [d["mean"] for d in traj.diagnostics]
        assert abs(l2[-1] - l2[0]) / l2[0] < 1e-10
        assert means == [0.0] * len(means)

    def test_mean_carried_exactly_and_coupled(self):
        # the conserved mean must never change, and its advective coupling is real:
        # the run with mean=c differs from the mean-zero run
        p = ModelParams(j=2, kmax=16.0)
        u0 = cosine_data(p, amp=0.05)
        t_a = simulate(u0, T=0.3, dt=1e-3, mean=0.25, stride=10**9)
        t_b = simulate(u0, T=0.3, dt=1e-3, mean=0.0, stride=10**9)
        assert all(s.mean == 0.25 for s in t_a.states)
        assert np.abs(t_a.states[-1].spec.amps - t_b.states[-1].spec.amps).max() > 1e-6
        e = [d["energy"] for d in t_a.diagnostics]
        assert abs(e[-1] - e[0]) / e[0] < 1e-10

    def test_linear_mode_ignores_the_mean(self):
        # the mean coupling 2F(c, .) belongs to the nonlinearity that "linear" drops
        p = ModelParams(j=2, kmax=4.0)
        u0 = hermitian_spectrum(p, seed=6)
        free, shifted = (simulate(u0, T=0.004, dt=2e-4, mode="linear", mean=c)
                         for c in (0.0, 0.25))
        for a, b in zip(free.states, shifted.states):
            np.testing.assert_array_equal(a.spec.amps, b.spec.amps)
        rep = pde_residual(shifted)
        assert rep["max_residual"] <= 2 * rep["differencing_error"] + 1e-12

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, params16, stride):
        with pytest.raises(ValueError, match="stride"):
            simulate(hermitian_spectrum(params16, seed=4), T=0.02, dt=0.01, stride=stride)

    def test_blowup_flagged_with_partial_trajectory(self):
        p = ModelParams(j=1, kmax=16.0)
        u0 = cosine_data(p, amp=50.0)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate(u0, T=10.0, dt=0.5, mode="kdv")
        assert traj.blown_up
        assert len(traj.states) >= 1

    # blowup_factor 1.5 stops on the H^1 check (after 25 steps), inf on a nonfinite step (33)
    @pytest.mark.parametrize("blowup_factor", [1.5, math.inf])
    @pytest.mark.parametrize("stride", [1, 4])
    def test_a_run_cut_by_blowup_keeps_one_length(self, blowup_factor, stride):
        p = ModelParams(j=2, kmax=16.0)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate(cosine_data(p, amp=200.0), T=0.2, dt=1e-3, stride=stride,
                            blowup_factor=blowup_factor)
        n = len(traj.times)
        assert traj.blown_up and 2 <= n < 1 + 200 // stride
        assert traj.amps.shape == (n, 2 * p.nmax + 1) and traj.means.shape == (n,)
        assert len(traj.states) == len(traj.diagnostics) == n
        assert [s.t for s in traj.states] == [d["t"] for d in traj.diagnostics] == traj.times.tolist()
        assert np.isfinite(traj.amps).all()

    def test_block_is_read_only_and_the_views_are_fresh(self, params16):
        traj = simulate(hermitian_spectrum(params16, seed=4), T=0.02, dt=0.005)
        for a in (traj.amps, traj.times, traj.means, traj.states[-1].spec.amps):
            assert not a.flags.writeable
        traj.diagnostics.clear()
        assert len(traj.diagnostics) == len(traj.states) == 5
        assert all(type(v) is float for d in traj.diagnostics for v in d.values())

    def test_diagnostics_csv_rows_are_the_reprs(self, params16):
        traj = simulate(hermitian_spectrum(params16, seed=4), T=0.01, dt=0.005, mean=0.25)
        keys = ("t", "energy", "mean", "l2", "hs", "max_mode")
        assert traj.diagnostics_csv().splitlines()[1:] == [
            ",".join(repr(d[k]) for k in keys) for d in traj.diagnostics]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_T_and_dt_rejected(self, params16, bad):
        u0 = hermitian_spectrum(params16, seed=4)
        with pytest.raises(ValueError, match="T must be finite"):
            simulate(u0, T=bad, dt=0.01)
        with pytest.raises(ValueError, match="dt must be finite"):
            simulate(u0, T=0.02, dt=bad)

    def test_T_not_a_multiple_of_dt_rejected(self, params16):
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate(hermitian_spectrum(params16, seed=4), T=0.105, dt=0.01)

    def test_float_noisy_multiple_runs(self, params16):
        traj = simulate(hermitian_spectrum(params16, seed=4), T=0.2, dt=1e-3, stride=200)
        assert traj.states[-1].t == pytest.approx(0.2, abs=1e-15)

    def test_diagnostics_csv_header(self, params16):
        traj = simulate(hermitian_spectrum(params16, seed=4), T=0.01, dt=0.005)
        assert traj.diagnostics_csv().splitlines()[0] == "t,energy,mean,l2,hs,max_mode"


class TestEnergy:
    def test_cosine_value(self, params16):
        # int (cos^2 + sin^2) over one period = 2*pi
        assert energy(cosine_data(params16, amp=1.0)) == pytest.approx(2 * math.pi)

    def test_zero(self, params16):
        assert energy(SpatialSpectrum.zeros(params16)) == 0.0

    @pytest.mark.parametrize("p", [ModelParams(j=2, kmax=16.0), ModelParams(j=3, lam=2.0, kmax=8.0)])
    def test_cached_weights_equal_the_formula(self, p):
        k = p.k_values()
        w = _energy_weights(p)
        assert np.array_equal(w, 1.0 + k * k)
        assert _energy_weights(p) is w and not w.flags.writeable
        spec = hermitian_spectrum(p, seed=16)
        assert energy(spec) == float(np.sum((1.0 + k * k) * np.abs(spec.amps) ** 2)) / p.lam

    def test_quadrature_oracle(self, params16):
        spec = hermitian_spectrum(params16, seed=5)
        nx = 8 * params16.default_grid()
        u = inverse_transform(spec, nx)
        ux = inverse_transform(oracles.derivative(spec), nx)  # spectral derivative
        quad = np.sum(u**2 + ux**2) * params16.period() / nx
        assert energy(spec) == pytest.approx(quad, rel=1e-10)


class TestResidual:
    def test_exact_linear_solution(self):
        # sampling must resolve the fastest retained phase P(kmax) for the
        # time differencing to mean anything: kmax=4 -> |P| <= 1024
        p = ModelParams(j=2, kmax=4.0)
        u0 = hermitian_spectrum(p, seed=6)
        traj = simulate(u0, T=0.004, dt=2e-4, mode="linear", stride=1)
        rep = pde_residual(traj)
        assert rep["max_residual"] <= 2 * rep["differencing_error"] + 1e-12

    def test_manufactured_solution(self):
        # u*(x,t) = 0.01 cos(x - t) with compensating forcing solves the forced model
        p = ModelParams(j=2, kmax=16.0)
        nx = p.default_grid()
        x = x_grid(p, nx)
        dt = 0.002

        def exact(t):
            return forward_transform(0.01 * np.cos(x - t), p)

        def forcing(t):
            u = exact(t)
            ut = forward_transform(0.01 * np.sin(x - t), p)
            lin = u.with_amps(-1j * dispersion_symbol(p.k_values(), p.j) * u.amps)
            return ut + lin + nonlinearity_F(u, u)

        states = [SolverState(i * dt, exact(i * dt)) for i in range(41)]
        traj = trajectory_of(p, dt, "full", states)
        rep = pde_residual(traj, forcing=forcing)
        assert rep["max_residual"] <= 1e-8

    def test_refinement_decreases_residual(self):
        p = ModelParams(j=2, kmax=16.0)
        u0 = cosine_data(p, amp=0.05)
        res = []
        for dt in (0.02, 0.01, 0.005):
            traj = simulate(u0, T=0.4, dt=dt, stride=1)
            res.append(pde_residual(traj)["max_residual"])
        assert res[0] > res[1] > res[2]

    def test_mean_coupling_in_residual(self):
        # with the mean coupling the residual sits at the differencing error
        # (~1e-9); dropping it leaves a residual of the coupling's size (~1e-2)
        p = ModelParams(j=2, kmax=8.0)
        u0 = cosine_data(p, amp=0.05)
        traj = simulate(u0, T=0.08, dt=1e-3, mean=0.25, stride=2)
        assert pde_residual(traj)["max_residual"] <= 1e-7
        uncoupled = trajectory_of(p, traj.dt, traj.mode, [
            SolverState(s.t, s.spec, 0.0) for s in traj.states])
        assert pde_residual(uncoupled)["max_residual"] > 1e-3

    @pytest.mark.parametrize("mode, mean", [("full", 0.25), ("kdv", 0.0), ("linear", 0.25)])
    def test_block_residual_equals_the_list_built_one(self, mode, mean):
        # 26 states, so the nonlinearity is taken in more than one chunk
        p = ModelParams(j=2, kmax=16.0)
        traj = simulate(cosine_data(p, amp=0.05), T=0.05, dt=1e-3, mode=mode, mean=mean,
                        stride=2)
        listed = trajectory_of(p, traj.dt, mode, [
            SolverState(s.t, SpatialSpectrum(p, s.spec.amps.copy()), s.mean)
            for s in traj.states])
        assert len(traj.times) == 26
        assert pde_residual(traj) == pde_residual(listed)

    def test_unchanged_where_P_is_odd(self):
        # at j = 2, lam = 1, kmax 32 numpy's power on the whole row is odd bit for bit, so the
        # odd mirror of the half is that row, and the residual is its formula's, number for number
        p = ModelParams(j=2, kmax=32.0)
        power = dispersion_symbol(p.k_values(), p.j)
        assert np.array_equal(dispersion_row(p), power)
        traj = simulate(hermitian_spectrum(p, seed=8), T=2e-5, dt=1e-6, mode="linear", stride=2)
        ut, _ = _time_derivatives(traj.amps, traj.times[1] - traj.times[0])
        res = ut + (-1j * power) * traj.amps[2:-2]
        want = np.sqrt(np.sum(np.abs(res) ** 2, axis=1) / p.lam).tolist()
        assert pde_residual(traj)["per_time"] == want

    @pytest.mark.parametrize("shift", [1e-14, -2e-10])
    def test_non_uniform_states_refused_at_tiny_steps(self, params16, shift):
        # uniformity is relative to the step: a 1e-4 stretch or a step
        # backwards at dt = 1e-10 is refused
        u0 = hermitian_spectrum(params16, seed=7)
        times = np.arange(9) * 1e-10
        times[4:] += shift
        traj = trajectory_of(params16, 1e-10, "full", [SolverState(t, u0) for t in times])
        with pytest.raises(ValueError, match="uniform"):
            pde_residual(traj)

    def test_unknown_mode_refused(self, params16):
        traj = simulate(hermitian_spectrum(params16, seed=7), T=0.01, dt=0.001)
        with pytest.raises(ValueError, match="mode must be one of .*'bogus'"):
            pde_residual(traj, mode="bogus")

    def test_too_coarse_refused(self, params16):
        traj = simulate(hermitian_spectrum(params16, seed=7), T=0.02, dt=0.01)
        with pytest.raises(ValueError, match="stride|samples"):
            pde_residual(traj)


class TestBumpEta:
    def test_plateau_support_range(self):
        assert bump_eta(0.0) == 1.0
        assert bump_eta(-1.0) == 1.0 and bump_eta(1.0) == 1.0
        assert bump_eta(2.0) == 0.0 and bump_eta(-2.3) == 0.0
        t = np.linspace(-3, 3, 601)
        v = bump_eta(t)
        assert np.all((0.0 <= v) & (v <= 1.0))
        assert np.all(v[np.abs(t) <= 1.0] == 1.0)

    @pytest.mark.parametrize("edge", [1.0, -1.0])
    def test_c1_with_a_second_derivative_jump_at_the_plateau_edge(self, edge):
        # one-sided differences at |t| = 1, h = 1e-3: eta' is continuous (0 on both
        # sides), eta'' jumps from 0 inside to -2 outside, so eta-hat decays like sigma^-3
        h = 1e-3 * np.sign(edge)
        inside, outside = bump_eta(edge - np.arange(3) * h), bump_eta(edge + np.arange(3) * h)
        assert inside[0] - inside[1] == 0.0 and abs(outside[1] - outside[0]) < 2 * h * h
        assert inside[0] - 2 * inside[1] + inside[2] == 0.0
        assert (outside[0] - 2 * outside[1] + outside[2]) / (h * h) == pytest.approx(-2.0, rel=1e-4)


class TestPicard:
    def test_zero_data_all_zero(self, params16):
        res = picard_iterate(SpatialSpectrum.zeros(params16),
                             PicardConfig(iterations=3, nt=257))
        assert np.abs(res.iterates).max() == 0.0

    def test_initial_iterate_is_cut_free_flow(self):
        p = ModelParams(j=2, kmax=8.0)
        u0 = cosine_data(p, amp=0.1)
        res = picard_iterate(u0, PicardConfig(iterations=1, nt=513))
        for i in (0, len(res.t_grid) // 2, len(res.t_grid) - 1):
            t = res.t_grid[i]
            want = bump_eta(t) * free_evolution(u0, t).amps
            assert np.abs(res.iterates[0][i] - want).max() < 1e-15

    def test_contracts_and_matches_stepper(self):
        p = ModelParams(j=2, kmax=16.0)
        x = x_grid(p, p.default_grid())
        u0 = forward_transform(0.2 * (np.cos(x) + 0.5 * np.cos(2 * x)), p)
        res = picard_iterate(u0, PicardConfig(iterations=6, nt=2049, report_s=-0.25))
        assert all(r < 1.0 for r in res.ratios_hs)
        assert not res.diverged
        traj = simulate(u0, T=0.5, dt=5e-4, stride=10**9)
        d = hs_norm(res.state_at(0.5) - traj.states[-1].spec, -0.25)
        assert d < 1e-4  # coarse grid; the acceptance run tightens this

    def test_tiny_data_geometric_convergence(self):
        # ||u0||_{H^{-1/4}} = 1e-3: strong contraction; the ladder bottoms out
        # near roundoff after a few rungs, so only early ratios are asserted
        p = ModelParams(j=2, kmax=8.0)
        u0 = cosine_data(p, amp=1.0)
        u0 = (1e-3 / hs_norm(u0, -0.25)) * u0
        res = picard_iterate(u0, PicardConfig(iterations=4, nt=2049, report_s=-0.25))
        assert all(r < 1.0 for r in res.ratios_hs)
        assert res.ratios_hs[0] < 0.1
        traj = simulate(u0, T=0.5, dt=5e-4, stride=10**9)
        assert hs_norm(res.state_at(0.5) - traj.states[-1].spec, -0.25) <= 1e-5

    def test_divergence_flagged(self):
        p = ModelParams(j=2, kmax=8.0)
        u0 = cosine_data(p, amp=60.0)
        res = picard_iterate(u0, PicardConfig(iterations=6, nt=257, measure_zs=False))
        assert res.diverged
        assert len(res.ratios_hs) == 5
        assert not any(res.ratios_at_floor)

    def test_divergence_to_overflow_flagged_with_zs(self):
        # the differences overflow to inf and then nan; Z^s is measured on them all the same
        p = ModelParams(j=2, kmax=8.0)
        with np.errstate(over="ignore", invalid="ignore"):
            res = picard_iterate(cosine_data(p, amp=1e3), PicardConfig(iterations=8, nt=257))
        assert res.diverged
        assert len(res.ratios_zs) == 7 and not all(map(math.isfinite, res.ratios_zs))
        # every mode of the last iterate is nan and counts as carried: h |P(kmax)| = 8^5 / 64
        assert not np.isfinite(res.iterates[-1][:, p.nmax + 1:]).any()
        assert res.quadrature_wrap == 8.0**5 / 64

    def test_roundoff_floor_ratios_marked(self):
        # differences 5..8 sit at 3e-14 .. 1e-17 of the iterate's H^s norm
        p = ModelParams(j=3, lam=2.0, kmax=8.0)
        u0 = hermitian_spectrum(p, seed=5, scale=0.05)
        res = picard_iterate(u0, PicardConfig(nt=515), mode="kdv", mu=1.5)
        assert res.ratios_at_floor == [False, False, False, True, True, True, True]
        assert len(res.ratios_zs) == len(res.ratios_at_floor)
        assert all(r < 0.01 for r, floor in zip(res.ratios_hs, res.ratios_at_floor)
                   if not floor)

    def test_exact_fixed_point_is_not_divergence(self):
        # the iterates stop changing bit for bit, so the last ratios are 0/0 = inf
        p = ModelParams(j=2, kmax=8.0)
        u0 = hermitian_spectrum(p, seed=0, scale=0.05)
        res = picard_iterate(u0, PicardConfig(iterations=14, nt=129, measure_zs=False))
        assert res.ratios_hs[-3:] == [math.inf] * 3
        assert res.ratios_at_floor[-3:] == [True] * 3
        assert not res.diverged

    def test_zero_data_keeps_infinite_ratios(self):
        # every difference is exactly zero: each lift drops every band, and Z^s of the
        # empty lift is 0, as the H^s norm is, so each ratio is 0/0 = inf
        p = ModelParams(j=2, kmax=8.0)
        u0 = SpatialSpectrum(p, np.zeros(2 * p.nmax + 1, dtype=complex))
        res = picard_iterate(u0, PicardConfig(iterations=3, nt=33))
        assert res.ratios_hs == res.ratios_zs == [math.inf, math.inf]
        assert res.ratios_at_floor == [True, True] and not res.diverged
        assert not res.iterates.any()

    def test_batch_nonlinearity_matches_scalar_path(self, params16):
        rng = np.random.default_rng(8)
        half = 0.1 * (rng.standard_normal((3, params16.nmax))
                      + 1j * rng.standard_normal((3, params16.nmax)))
        blk = hermitian_rows(half)
        h = real_half(blk, "blk")
        out = hermitian_rows(real_nonlinearity(h, h, params16, mu=1.5)[0])
        for i in range(3):
            u = SpatialSpectrum(params16, blk[i])
            ref = nonlinearity_F(u, u, mu=1.5).amps
            assert np.abs(out[i] - ref).max() < 1e-13


class TestPicardQuadrature:
    @pytest.mark.parametrize("nt", [3, 5, 129, 1025])
    def test_matches_scipy_cumulative_simpson(self, nt):
        rng = np.random.default_rng(nt)
        y = rng.standard_normal((nt, 9)) + 1j * rng.standard_normal((nt, 9))
        t = np.linspace(-2.0, 2.0, nt)
        ref = (cumulative_simpson(y.real, x=t, axis=0, initial=0.0)
               + 1j * cumulative_simpson(y.imag, x=t, axis=0, initial=0.0))
        got = _cumulative_simpson(y, float(t[1] - t[0]))
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("nt", [3, 5, 129])
    def test_buffers_give_the_fresh_result(self, nt):
        # the same buffers serve one call after another, as in picard_iterate's loop
        rng = np.random.default_rng(nt)
        out = np.full((nt, 9), np.nan, dtype=complex)
        b8 = np.full((nt // 2, 9), np.nan, dtype=complex)
        for _ in range(2):
            y = rng.standard_normal((nt, 9)) + 1j * rng.standard_normal((nt, 9))
            want = _cumulative_simpson(y, 0.125)
            assert _cumulative_simpson(y, 0.125, out, b8) is out
            assert np.array_equal(out, want)
            assert np.array_equal(b8, 8.0 * y[1:nt - 1:2])

    @pytest.mark.parametrize("nt", [3, 5, 129])
    def test_exact_on_cubics_at_panel_ends(self, nt):
        # a Simpson panel (two intervals) is exact on cubics; inside a panel
        # each interval's three-point formula is exact on quadratics only
        rng = np.random.default_rng(40 + nt)
        c = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        t = np.linspace(-2.0, 2.0, nt)[:, None]
        h = float(t[1, 0] - t[0, 0])
        for degree, rows in ((3, slice(None, None, 2)), (2, slice(None))):
            y = sum(c[i] * t**i for i in range(degree + 1))
            prim = sum(c[i] * t**(i + 1) / (i + 1) for i in range(degree + 1))
            exact = (prim - prim[0])[rows]
            got = _cumulative_simpson(y, h)[rows]
            assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()


class TestPicardRecord:
    def test_matches_recorded_values(self):
        # recorded from the scipy cumulative_simpson(x=t) quadrature this replaced
        p = ModelParams(j=2, kmax=8.0)
        u0 = hermitian_spectrum(p, seed=11, scale=0.3)
        res = picard_iterate(u0, PicardConfig(iterations=4, nt=129, report_s=-0.25))
        ratios_hs = [0.15851652248794657, 0.04185605330746304, 0.08772559422067747]
        ratios_zs = [0.19612379916454162, 0.03013442292282538, 0.15979847976120612]
        at_half = [
            0.07563403839104033 + 0.13049646684387545j,
            -0.04124909411497927 + 0.033967674373202215j,
            -0.00274586593135602 + 0.0073786492058209125j,
            -0.0030801707848361806 - 7.336172187007511e-05j,
            0.002733225203498872 + 0.002987918097396226j,
            0.00041400666620524675 + 0.0011101078385990944j,
            -0.000233423037860871 + 1.3303172857325717e-05j,
            1.1426208856558076e-05 - 5.321857930347885e-05j,
        ]
        assert res.ratios_hs == pytest.approx(ratios_hs, rel=1e-12, abs=0)
        assert res.ratios_zs == pytest.approx(ratios_zs, rel=1e-12, abs=0)
        got = res.state_at(0.5).amps[p.nmax + 1:]
        assert np.abs(got - at_half).max() <= 1e-12 * np.abs(at_half).max()

    @pytest.mark.parametrize("nt", [0, 1, 2, 1024])
    def test_even_or_tiny_nt_rejected(self, nt):
        u0 = hermitian_spectrum(ModelParams(j=2, kmax=8.0), seed=11)
        with pytest.raises(ValueError, match="nt"):
            picard_iterate(u0, PicardConfig(iterations=1, nt=nt))

    @pytest.mark.parametrize("iterations", [0, -1, 2.0])
    def test_iterations_not_a_positive_integer_rejected(self, iterations):
        u0 = hermitian_spectrum(ModelParams(j=2, kmax=8.0), seed=11)
        with pytest.raises(ValueError, match="iterations"):
            picard_iterate(u0, PicardConfig(iterations=iterations, nt=129))

    @pytest.mark.parametrize("report_s", [math.inf, math.nan])
    def test_non_finite_report_s_rejected(self, report_s):
        u0 = hermitian_spectrum(ModelParams(j=2, kmax=8.0), seed=11)
        with pytest.raises(ValueError, match="report_s must be finite"):
            picard_iterate(u0, PicardConfig(iterations=2, nt=129, report_s=report_s))

    @pytest.mark.parametrize("mode", ["linear", "KdV", "bogus"])
    def test_unknown_mode_rejected(self, mode):
        u0 = hermitian_spectrum(ModelParams(j=2, kmax=8.0), seed=11)
        with pytest.raises(ValueError, match=f"mode must be .*{mode!r}"):
            picard_iterate(u0, PicardConfig(iterations=1, nt=129), mode=mode)

    @pytest.mark.parametrize("nt", [3, 7, 99, 515, 1025])
    def test_time_grid_odd_about_zero(self, nt):
        # linspace(-2, 2, nt) is not odd at nt = 7 and 515, and at nt = 99 its t[49] is -2.2e-16
        t = PicardConfig(nt=nt).t_grid()
        assert np.array_equal(t[::-1], -t) and t[nt // 2] == 0.0
        assert t[0] == -2.0 and t[-1] == 2.0
        assert np.abs(t - np.linspace(-2.0, 2.0, nt)).max() <= 1e-15
        if nt in (3, 1025):  # a power-of-two step: the nodes are linspace's exactly
            assert np.array_equal(t, np.linspace(-2.0, 2.0, nt))

    @pytest.mark.parametrize("measure_zs", [True, False])
    def test_phase_times_reported(self, measure_zs):
        u0 = hermitian_spectrum(ModelParams(j=2, kmax=8.0), seed=11)
        res = picard_iterate(u0, PicardConfig(iterations=2, nt=129, measure_zs=measure_zs))
        assert set(res.phase_s) == {"setup", "iterate", "zs"}
        assert all(math.isfinite(v) and v >= 0.0 for v in res.phase_s.values())


def non_hermitian(params):
    u = hermitian_spectrum(params, seed=30)
    return u.with_amps(u.amps * np.exp(0.1j))  # a complex multiple of a real field


class TestRealFields:
    @settings(max_examples=12, deadline=None)
    @given(j=st.sampled_from([2, 3]), lam=st.sampled_from([1.0, 2.0]),
           kmax=st.sampled_from([6.0, 8.0]), seed=st.integers(0, 2**16),
           decay=st.sampled_from([0.05, 0.5]))
    def test_hermitian_data_stay_exactly_hermitian(self, j, lam, kmax, seed, decay):
        p = ModelParams(j=j, lam=lam, kmax=kmax)
        u0 = hermitian_spectrum(p, seed=seed, decay=decay)
        for mode in ("full", "kdv", "linear"):
            for mean in (0.0, 0.25):
                traj = simulate(u0, T=0.04, dt=1e-3, mode=mode, mean=mean, stride=8)
                assert not traj.blown_up
                for st_ in traj.states:
                    assert np.array_equal(st_.spec.amps[::-1], np.conj(st_.spec.amps))
        res = picard_iterate(u0, PicardConfig(iterations=2, nt=129, measure_zs=False))
        assert np.array_equal(res.iterates[..., ::-1], np.conj(res.iterates))

    def test_simulate_rejects_complex_data(self, params16):
        with pytest.raises(ValueError, match="real field"):
            simulate(non_hermitian(params16), T=0.01, dt=1e-3)

    def test_picard_rejects_complex_data(self, params16):
        with pytest.raises(ValueError, match="real field"):
            picard_iterate(non_hermitian(params16), PicardConfig(iterations=1, nt=129))

    def test_one_off_step_rejects_complex_data(self, params16):
        with pytest.raises(ValueError, match="real field"):
            step(SolverState(0.0, non_hermitian(params16)), 1e-3)

    def test_tiny_complex_data_rejected(self):
        # max amplitude 6.4e-13: is_hermitian's tolerance is relative to it
        u = hermitian_spectrum(ModelParams(j=2, kmax=8.0), seed=30)
        tiny = u.with_amps(u.amps * 1e-11 * np.exp(0.5j))
        with pytest.raises(ValueError, match="real field"):
            simulate(tiny, T=0.01, dt=1e-3)
        with pytest.raises(ValueError, match="real field"):
            picard_iterate(tiny, PicardConfig(iterations=1, nt=129))
