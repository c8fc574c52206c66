"""Half-spectrum time engines against the full-row stepper and kernel they replaced.

The oracles below are the full-row integrating-factor RK4 step and
nonlinearity kernel: every state and every F output is a full Hermitian
row, the products are mirrored before the symbols are applied, and the
blow-up check is the H^1 norm of the full row.  They call np.fft directly,
so they are independent of the packing pair in dcl.lattice.  The
half-spectrum engines must reproduce them bit for bit on real data.
"""

import math
import warnings

import numpy as np
import pytest

from dcl import evolve, lattice, symbols
from dcl.bourgain import from_time_samples, zs_norm
from dcl.evolve import (
    IntegratingFactorRK4,
    PicardConfig,
    SolverState,
    bump_eta,
    picard_iterate,
    simulate,
)
from dcl.lattice import (
    TWO_PI_SQRT,
    ModelParams,
    SpatialSpectrum,
    bracket,
    forward_transform,
    grid_to_lattice,
    grid_work,
    hermitian_rows,
    lattice_to_grid,
)
from dcl.symbols import (
    dispersion_symbol,
    mean_coupling,
    nonlinearity_multipliers,
    real_nonlinearity,
)

import oracles


# -- full-row oracles -----------------------------------------------------------------

def oracle_kernel(a, b, params, mu=1.0, kdv=False):
    """F(a, b) on (..., 2*nmax+1) Hermitian rows, through full rows of u, u_x and the products."""
    m = params.nmax
    nx = params.default_grid(pad=2)
    k = params.k_values()
    ik = 1j * k
    m_uv, m_dd = nonlinearity_multipliers(k, mu, kdv)

    def fields(x):
        return x[..., None, :] if kdv else np.stack([x, ik * x], axis=-2)

    def to_grid(rows):
        half = np.zeros(rows.shape[:-1] + (nx // 2 + 1,), dtype=complex)
        np.multiply(rows[..., m + 1:], 1.0 / (TWO_PI_SQRT * params.lam), out=half[..., 1:m + 1])
        return np.fft.irfft(half, n=nx, axis=-1, norm="forward")

    sa = fields(a)
    if b is a:
        f = to_grid(sa)
        f *= f
    else:
        fa, fb = to_grid(np.stack([sa, fields(b)]))
        f = fa * fb
    fhat = np.fft.rfft(f, axis=-1, norm="forward")
    fhat *= TWO_PI_SQRT * params.lam
    pos = fhat[..., 1:m + 1]
    prods = np.empty(f.shape[:-1] + (2 * m + 1,), dtype=complex)
    prods[..., m + 1:] = pos
    prods[..., m] = 0.0
    np.conjugate(pos[..., ::-1], out=prods[..., :m])
    out = m_uv * prods[..., 0, :]
    if m_dd is not None:
        out += m_dd * prods[..., 1, :]
    return out


class OracleRK4:
    """The integrating-factor RK4 step on full rows."""

    def __init__(self, params, dt, mode="full", mu=1.0):
        self.params, self.dt, self.mode, self.mu = params, dt, mode, mu
        k = params.k_values()
        self.e_half = np.exp(1j * (dt / 2.0) * dispersion_symbol(k, params.j))
        self.e_full = self.e_half * self.e_half
        self.e_half_inv = np.conj(self.e_half)
        self.e_full_inv = np.conj(self.e_full)
        self.mean_mult = mean_coupling(k, mu, kdv=mode == "kdv")

    def rhs(self, u, mean):
        if self.mode == "linear":
            return np.zeros_like(u)
        nl = oracle_kernel(u, u, self.params, mu=self.mu, kdv=self.mode == "kdv")
        if mean != 0.0:
            nl = nl + mean * self.mean_mult * u
        return -nl

    def step(self, u0, c):
        k1 = self.rhs(u0, c)
        k2 = self.e_half_inv * self.rhs(self.e_half * (u0 + 0.5 * self.dt * k1), c)
        k3 = self.e_half_inv * self.rhs(self.e_half * (u0 + 0.5 * self.dt * k2), c)
        k4 = self.e_full_inv * self.rhs(self.e_full * (u0 + self.dt * k3), c)
        v = u0 + (self.dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return self.e_full * v


def oracle_hs(params, amps, s):
    w = bracket(params.k_values()) ** (2.0 * s)
    return math.sqrt(float(np.sum(w * np.abs(amps) ** 2)) / params.lam)


def oracle_diag(params, t, amps, mean, hs_s):
    k = params.k_values()
    energy = float(np.sum((1.0 + k * k) * np.abs(amps) ** 2)) / params.lam
    return {"t": t, "energy": energy + 2.0 * math.pi * params.lam * mean**2, "mean": mean,
            "l2": oracle_hs(params, amps, 0.0), "hs": oracle_hs(params, amps, hs_s),
            "max_mode": float(np.abs(amps).max())}


def oracle_simulate(u0, nsteps, dt, mode, mu, mean, stride, hs_s=1.0, blowup_factor=1e6):
    """(times, full-row states, diagnostics, blown_up) of the full-row marching loop."""
    p = u0.params
    stepper = OracleRK4(p, dt, mode, mu)
    u = u0.amps
    times, states, diags = [0.0], [u], [oracle_diag(p, 0.0, u, mean, hs_s)]
    h1_0 = max(oracle_hs(p, u, 1.0), 1e-300)
    for n in range(1, nsteps + 1):
        u = stepper.step(u, mean)
        if not np.all(np.isfinite(u)):
            return times, states, diags, True
        if n % stride == 0 or n == nsteps:
            times.append(n * dt)
            states.append(u)
            diags.append(oracle_diag(p, n * dt, u, mean, hs_s))
        if oracle_hs(p, u, 1.0) > blowup_factor * h1_0:
            return times, states, diags, True
    return times, states, diags, False


def broadband(params, seed, amplitude=0.05):
    """Hermitian data with |amp(k)| ~ amplitude / <k>, as the benchmark draws them."""
    rng = np.random.default_rng(seed)
    m = params.nmax
    pos = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2.0)
    pos *= amplitude / bracket(params.k_values()[m + 1:])
    return SpatialSpectrum(params, hermitian_rows(pos))


# -- the stepper ----------------------------------------------------------------------

class TestStepperParity:
    @pytest.mark.parametrize("mean", [0.0, 0.25])
    @pytest.mark.parametrize("mode", ["full", "kdv", "linear"])
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("j", [2, 3])
    def test_simulate_equals_the_full_row_loop(self, j, lam, mode, mean):
        p = ModelParams(j=j, lam=lam, kmax=16.0)
        u0 = broadband(p, seed=10 * j + int(lam))
        dt, nsteps, stride = 1e-4, 30, 7
        traj = simulate(u0, nsteps * dt, dt, mode=mode, mu=1.5, mean=mean, stride=stride)
        times, states, diags, blown_up = oracle_simulate(u0, nsteps, dt, mode, 1.5, mean, stride)
        assert traj.blown_up == blown_up is False
        assert [s.t for s in traj.states] == times
        for st, want in zip(traj.states, states, strict=True):
            assert np.array_equal(st.spec.amps, want)
            assert st.mean == mean
        assert traj.diagnostics == diags

    # kmax 128 is the simulate benchmark's size and kmax 256 rescale-check's
    # default, on the even grids nx = 540 and 1080; kmax 32 runs on the odd
    # nx = 135 (rfft_n_odd), as lam = 2 does above
    @pytest.mark.parametrize("kmax, mean", [
        pytest.param(128.0, 0.0, id="0.0"), pytest.param(128.0, 0.25, id="0.25"),
        pytest.param(256.0, 0.0, id="kmax256-0.0"), pytest.param(256.0, 0.25, id="kmax256-0.25"),
        pytest.param(32.0, 0.0, id="kmax32-0.0"), pytest.param(32.0, 0.25, id="kmax32-0.25")])
    def test_benchmark_size_run_equals_the_full_row_loop(self, kmax, mean):
        p = ModelParams(j=2, kmax=kmax)
        u0 = broadband(p, seed=1, amplitude=0.01)
        traj = simulate(u0, 12e-4, 1e-4, mean=mean, stride=5)
        times, states, diags, _ = oracle_simulate(u0, 12, 1e-4, "full", 1.0, mean, 5)
        assert [s.t for s in traj.states] == times
        for st, want in zip(traj.states, states, strict=True):
            assert np.array_equal(st.spec.amps, want)
        assert traj.diagnostics == diags

    @pytest.mark.parametrize("kmax", [16.0, 32.0])
    def test_numpy_fft_route_equals_the_full_row_loop(self, kmax, monkeypatch):
        # without lattice._pocketfft the kernel's work takes np.fft when the stepper builds it
        monkeypatch.setattr(lattice, "_pocketfft", lambda: None)
        p = ModelParams(j=2, kmax=kmax)
        u0 = broadband(p, seed=8, amplitude=0.01)
        for mode, mean in (("full", 0.0), ("full", 0.25), ("kdv", 0.25)):
            traj = simulate(u0, 12e-4, 1e-4, mode=mode, mu=1.5, mean=mean, stride=5)
            times, states, diags, _ = oracle_simulate(u0, 12, 1e-4, mode, 1.5, mean, 5)
            assert [s.t for s in traj.states] == times
            for st, want in zip(traj.states, states, strict=True):
                assert np.array_equal(st.spec.amps, want)
            assert traj.diagnostics == diags

    @pytest.mark.parametrize("mean", [0.0, 0.25])
    def test_one_step_at_a_time_equals_simulate(self, mean):
        # stepping by hand, re-stamping t = n dt, is how the benchmark traces the op
        p = ModelParams(j=2, kmax=32.0)
        u0 = broadband(p, seed=3)
        dt, nsteps = 1e-4, 20
        stepper = IntegratingFactorRK4(p, dt, mode="full", mu=1.0)
        state = SolverState(0.0, u0, mean)
        for n in range(1, nsteps + 1):
            state = stepper.step(state)
            state = SolverState(n * dt, state.spec, state.mean)
        last = simulate(u0, nsteps * dt, dt, mean=mean, stride=nsteps).states[-1]
        assert np.array_equal(state.spec.amps, last.spec.amps)
        assert (state.t, state.mean) == (last.t, last.mean)

    def test_step_equals_one_oracle_step(self):
        p = ModelParams(j=3, lam=2.0, kmax=8.0)
        u0 = broadband(p, seed=4)
        out = IntegratingFactorRK4(p, 1e-3, mu=2.0).step(SolverState(0.5, u0, 0.1))
        assert np.array_equal(out.spec.amps, OracleRK4(p, 1e-3, mu=2.0).step(u0.amps, 0.1))
        assert out.t == 0.5 + 1e-3 and out.mean == 0.1

    def test_nearly_hermitian_input_keeps_its_positive_half(self):
        # the n > 0 half follows the full-row loop bit for bit; the n < 0 half
        # becomes its exact mirror instead of carrying the input's tiny
        # anti-Hermitian part
        p = ModelParams(j=2, kmax=16.0)
        m = p.nmax
        amps = broadband(p, seed=5).amps.copy()
        amps[:m] *= 1.0 + 1e-14
        u0 = SpatialSpectrum(p, amps)
        assert u0.is_hermitian() and not oracles.exactly_hermitian(amps)
        traj = simulate(u0, 10e-4, 1e-4, stride=5)
        _, states, _, _ = oracle_simulate(u0, 10, 1e-4, "full", 1.0, 0.0, 5)
        assert np.array_equal(traj.states[0].spec.amps, amps)
        for st, want in zip(traj.states[1:], states[1:], strict=True):
            assert np.array_equal(st.spec.amps[m + 1:], want[m + 1:])
            assert oracles.exactly_hermitian(st.spec.amps)
            assert not np.array_equal(st.spec.amps[:m], want[:m])

    def test_blowup_check_matches_the_full_row_norm(self):
        p = ModelParams(j=1, kmax=16.0)
        u0 = broadband(p, seed=6, amplitude=50.0)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate(u0, 5.0, 0.5, mode="kdv", blowup_factor=10.0)
            times, states, _, blown_up = oracle_simulate(u0, 10, 0.5, "kdv", 1.0, 0.0, 1,
                                                         blowup_factor=10.0)
        assert traj.blown_up and blown_up
        assert [s.t for s in traj.states] == times

    def test_a_step_leaves_earlier_states_alone(self):
        # the stepper owns its buffers: stepping again writes none of the states it returned
        p = ModelParams(j=2, kmax=16.0)
        stepper = IntegratingFactorRK4(p, 1e-4, mu=1.5)
        s0 = SolverState(0.0, broadband(p, seed=13), 0.25)
        before = s0.spec.amps.copy()
        s1 = stepper.step(s0)
        after_one = s1.spec.amps.copy()
        s2 = stepper.step(s1)
        assert np.array_equal(s0.spec.amps, before)
        assert np.array_equal(s1.spec.amps, after_one)
        assert not np.shares_memory(s1.spec.amps, s2.spec.amps)

    @pytest.mark.parametrize("mode", ["full", "kdv", "linear"])
    def test_every_state_of_a_stride_one_run_is_its_own(self, mode):
        p = ModelParams(j=2, kmax=16.0)
        u0 = broadband(p, seed=14)
        traj = simulate(u0, 8e-4, 1e-4, mode=mode, mean=0.25, stride=1)
        _, states, _, _ = oracle_simulate(u0, 8, 1e-4, mode, 1.0, 0.25, 1)
        assert len(traj.states) == len(states) == 9
        for i, (st, want) in enumerate(zip(traj.states, states, strict=True)):
            assert np.array_equal(st.spec.amps, want)
            for later in traj.states[i + 1:]:
                assert not np.shares_memory(st.spec.amps, later.spec.amps)
                assert not np.array_equal(st.spec.amps, later.spec.amps)

    def test_steppers_stepped_alternately_give_what_each_gives_alone(self):
        configs = [(ModelParams(j=2, kmax=16.0), "full", 0.0),
                   (ModelParams(j=3, lam=2.0, kmax=8.0), "kdv", 0.25),
                   (ModelParams(j=2, kmax=16.0), "linear", 0.25),
                   (ModelParams(j=2, kmax=16.0), "kdv", 0.0),
                   (ModelParams(j=3, lam=2.0, kmax=8.0), "full", 0.25)]
        steppers = [IntegratingFactorRK4(p, 1e-4, mode=mode, mu=1.5) for p, mode, _ in configs]
        states = [SolverState(0.0, broadband(p, seed=20 + i), mean)
                  for i, (p, _, mean) in enumerate(configs)]
        alone = []
        for (p, mode, mean), s in zip(configs, states, strict=True):
            stepper = IntegratingFactorRK4(p, 1e-4, mode=mode, mu=1.5)
            for _ in range(5):
                s = stepper.step(s)
            alone.append(s)
        for _ in range(5):
            states = [stepper.step(s) for stepper, s in zip(steppers, states, strict=True)]
        for s, want in zip(states, alone, strict=True):
            assert np.array_equal(s.spec.amps, want.spec.amps)
            assert (s.t, s.mean) == (want.t, want.mean)

    def test_phase_wrap_carried_by_the_trajectory(self):
        p = ModelParams(j=2, kmax=16.0)
        traj = simulate(broadband(p, seed=7), 2e-3, 1e-3)
        assert traj.phase_wrap == 1e-3 * 16.0**5
        assert simulate(broadband(p, seed=7), 0.0, 1e-3).phase_wrap == traj.phase_wrap


# -- the kernel and the packing pair ---------------------------------------------------

KERNEL_PARAMS = [ModelParams(j=2, kmax=8.0), ModelParams(j=2, kmax=16.0),
                 ModelParams(j=3, lam=2.0, kmax=8.0), ModelParams(j=3, kmax=6.0)]
KERNEL_IDS = ["nx36", "nx72", "lam2j3", "nx27"]  # pad=2 grids; lam2j3 is on nx = 72


class TestKernelParity:
    @pytest.mark.parametrize("kdv", [False, True])
    @pytest.mark.parametrize("p", KERNEL_PARAMS, ids=KERNEL_IDS)
    def test_real_kernel_is_the_positive_half_of_the_full_row_kernel(self, p, kdv):
        m = p.nmax
        blk = np.stack([broadband(p, seed=s).amps for s in range(3)])
        other = np.stack([broadband(p, seed=s + 10).amps for s in range(3)])
        half = blk[:, m + 1:]
        out, tails = real_nonlinearity(half, half, p, mu=1.5, kdv=kdv)
        assert out.shape == (3, m) and tails.shape[:2] == (3, 1 if kdv else 2)
        assert np.array_equal(hermitian_rows(out), oracle_kernel(blk, blk, p, mu=1.5, kdv=kdv))
        out, _ = real_nonlinearity(half, other[:, m + 1:], p, mu=1.5, kdv=kdv)
        assert np.array_equal(hermitian_rows(out), oracle_kernel(blk, other, p, mu=1.5, kdv=kdv))

    @pytest.mark.parametrize("nx", [34, 35, 66, 67])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
    def test_packing_pair_equals_numpys_fft(self, nx, shape, monkeypatch):
        # the pair calls numpy's FFT gufuncs directly where it can, else np.fft; both equal np.fft
        p = ModelParams(j=2, lam=2.0, kmax=8.0)
        m, c = p.nmax, TWO_PI_SQRT * p.lam
        rng = np.random.default_rng(nx)
        pos = rng.standard_normal(shape + (m,)) + 1j * rng.standard_normal(shape + (m,))
        f = rng.standard_normal(shape + (2, nx))
        for route in ("gufuncs", "np.fft"):
            if route == "np.fft":
                monkeypatch.setattr(lattice, "_pocketfft", lambda: None)
            for blocks in ((pos,), (pos, 2 * pos)):
                work = grid_work(p, nx, len(blocks), shape)
                half = np.zeros(shape + (len(blocks), nx // 2 + 1), dtype=complex)
                for i, block in enumerate(blocks):
                    half[..., i, 1:m + 1] = block * (1.0 / c)
                want = np.fft.irfft(half, n=nx, axis=-1, norm="forward")
                assert lattice_to_grid(blocks, work) is work.grid
                assert np.array_equal(work.grid, want)
                for samples in (want, f[..., :len(blocks), :]):  # the round trip, then any samples
                    work.grid[...] = samples
                    fhat = np.fft.rfft(samples, axis=-1, norm="forward") * c
                    parts = grid_to_lattice(work)
                    refs = (fhat[..., 1:m + 1], fhat[..., 0], fhat[..., m + 1:])
                    for got, ref in zip(parts, refs, strict=True):
                        assert np.shares_memory(got, work.spectrum) and np.array_equal(got, ref)

    def test_single_precision_samples_transform_as_numpy_does(self, monkeypatch):
        # float32 samples are judged at float32's eps: the rounding of a band-limited field
        # (~1e-8 of its amplitude above kmax) warns nothing, content at 1e-3 still warns;
        # int and float32 samples transform as the same samples in float64, on both FFT routes
        p = ModelParams(j=2, kmax=8.0)
        exact = lattice.inverse_transform(broadband(p, seed=9), 35)
        f32 = exact.astype(np.float32)
        high = exact + 1e-3 * np.abs(exact).max() * np.cos(12 * lattice.x_grid(p, 35))
        high = high.astype(np.float32)
        ints = np.random.default_rng(9).integers(-9, 10, 35)
        for route in ("gufuncs", "np.fft"):
            if route == "np.fft":
                monkeypatch.setattr(lattice, "_pocketfft", lambda: None)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                forward_transform(f32, p)
            # at float64 precision the float32 rounding is content above kmax
            for samples in (high, ints, f32.astype(np.float64)):
                with pytest.warns(UserWarning, match="energy above kmax"):
                    forward_transform(samples, p, return_mean=True)
            for samples in (f32, high, ints):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    (spec, mean), (want, want_mean) = (
                        forward_transform(x, p, return_mean=True)
                        for x in (samples, samples.astype(np.float64)))
                assert np.array_equal(spec.amps, want.amps) and mean == want_mean

    def test_full_rows_refused(self):
        p = ModelParams(j=2, kmax=8.0)
        with pytest.raises(ValueError):
            lattice_to_grid((broadband(p, seed=1).amps,), grid_work(p, p.default_grid(pad=2), 1))


# -- Picard -------------------------------------------------------------------------

def oracle_picard(u0, cfg, mode="full", mu=1.0):
    """(iterates, H^s ratios, Z^s ratios) of the Picard loop with the full-row kernel.

    Z^s is measured, as by picard_iterate, only when cfg.measure_zs: a difference
    of nearly Hermitian iterates need not be a real field within real_half's
    tolerance, and from_time_samples lifts only real fields.
    """
    p = u0.params
    t = cfg.t_grid()
    i0 = cfg.nt // 2
    eta = bump_eta(t)[:, None]
    phases = np.exp(1j * np.outer(t, dispersion_symbol(p.k_values(), p.j)))
    phases_inv = np.conj(phases)
    free = eta * (phases * u0.amps[None, :])
    h = float(t[1] - t[0])
    kw = bracket(p.k_values()) ** (2.0 * cfg.report_s)
    w, saved, d_hs, d_zs = free, [free], [], []
    for _ in range(cfg.iterations):
        integrand = oracle_kernel(w, w, p, mu=mu, kdv=mode == "kdv")
        np.multiply(phases_inv, integrand, out=integrand)
        cum = evolve._cumulative_simpson(integrand, h)
        cum -= cum[i0]
        np.multiply(phases, cum, out=cum)
        cum *= eta
        w_next = free - cum
        d = w_next - w
        d_hs.append(np.sqrt(np.sum(kw[None, :] * np.abs(d) ** 2, axis=1) / p.lam).max())
        if cfg.measure_zs:
            d_zs.append(zs_norm(from_time_samples(t, d, p, dtau=cfg.zs_dtau), cfg.report_s))
        w = w_next
        saved.append(w)

    def ratios(ds):
        return [ds[i] / ds[i - 1] if ds[i - 1] > 0 else math.inf for i in range(1, len(ds))]

    return np.stack(saved), ratios(d_hs), ratios(d_zs)


class TestPicardParity:
    @pytest.mark.parametrize("mode", ["full", "kdv"])
    def test_iterates_and_ratios_equal_the_full_row_route(self, mode):
        p = ModelParams(j=2, kmax=16.0)
        u0 = broadband(p, seed=11, amplitude=0.01)
        cfg = PicardConfig(iterations=3, nt=129, report_s=-0.25, measure_zs=True)
        res = picard_iterate(u0, cfg, mode=mode, mu=1.5)
        iterates, r_hs, r_zs = oracle_picard(u0, cfg, mode=mode, mu=1.5)
        assert np.array_equal(res.iterates, iterates)
        assert res.ratios_hs == r_hs and res.ratios_zs == r_zs

    @pytest.mark.parametrize("numpy1", [False, True], ids=["fft_out", "numpy1_fft"])
    @pytest.mark.parametrize("mode", ["full", "kdv"])
    @pytest.mark.parametrize("j, lam, kmax, nt", [(3, 2.0, 16.0, 129), (2, 1.0, 32.0, 257)])
    def test_wider_shapes_equal_the_full_row_route(self, j, lam, kmax, nt, mode, numpy1,
                                                   monkeypatch):
        # Z^s measured against one table per band set, in reused buffers, against
        # zs_norm(from_time_samples(...)) of each difference; numpy1 takes the route
        # without lattice._pocketfft, where np.fft.fft has no out=
        if numpy1:
            fft = np.fft.fft
            monkeypatch.setattr(lattice, "_pocketfft", lambda: None)
            monkeypatch.setattr(np.fft, "fft", lambda a, n=None, axis=-1, norm=None:
                                fft(a, n, axis, norm))
        p = ModelParams(j=j, lam=lam, kmax=kmax)
        u0 = broadband(p, seed=nt + j, amplitude=0.01)
        cfg = PicardConfig(iterations=4, nt=nt, report_s=-0.25, measure_zs=True)
        res = picard_iterate(u0, cfg, mode=mode)
        iterates, r_hs, r_zs = oracle_picard(u0, cfg, mode=mode)
        assert np.array_equal(res.iterates, iterates)
        assert res.ratios_hs == r_hs and res.ratios_zs == r_zs and len(r_zs) == 3

    @pytest.mark.parametrize("chunk", [1, 3, 7, 32])
    @pytest.mark.parametrize("mode", ["full", "kdv"])
    @pytest.mark.parametrize("nt", [3, 31, 33, 63, 65, 67])
    def test_block_edges_equal_the_full_row_route(self, nt, mode, chunk, monkeypatch):
        # F_CHUNK-row blocks with edges on odd and even rows, one-row blocks, a short last
        # block and a grid inside one block
        monkeypatch.setattr(symbols, "F_CHUNK", chunk)
        p = ModelParams(j=2, kmax=8.0)
        u0 = broadband(p, seed=nt, amplitude=0.01)
        cfg = PicardConfig(iterations=3, nt=nt, report_s=-0.25, measure_zs=True)
        res = picard_iterate(u0, cfg, mode=mode, mu=1.5)
        iterates, r_hs, r_zs = oracle_picard(u0, cfg, mode=mode, mu=1.5)
        assert np.array_equal(res.iterates, iterates)
        assert res.ratios_hs == r_hs and res.ratios_zs == r_zs

    def test_overflow_keeps_its_nan(self):
        # the iterates overflow to inf and then NaN: a NaN difference norm must give a NaN
        # ratio, as the whole-block max gives, not a finite one
        p = ModelParams(j=2, kmax=16.0)
        u0 = broadband(p, seed=11, amplitude=1e6)
        cfg = PicardConfig(iterations=6, nt=129, measure_zs=False)
        with np.errstate(all="ignore"):
            res = picard_iterate(u0, cfg)
            iterates, r_hs, _ = oracle_picard(u0, cfg)
        assert np.array_equal(res.iterates, iterates, equal_nan=True)
        assert len(res.ratios_hs) == len(r_hs) == 5
        for got, want in zip(res.ratios_hs, r_hs, strict=True):
            assert got == want or (math.isnan(got) and math.isnan(want))
        assert res.ratios_hs[-2] == math.inf and math.isnan(res.ratios_hs[-1])
        assert res.ratios_at_floor == [False, False, False, True, True] and res.diverged

    def test_nearly_hermitian_input_keeps_its_positive_half(self):
        # as in simulate: the n > 0 halves follow the full-row loop bit for bit,
        # and every iterate's n < 0 half is the exact mirror of its n > 0 half
        # instead of carrying the input's tiny anti-Hermitian part
        p = ModelParams(j=2, kmax=8.0)
        m = p.nmax
        amps = broadband(p, seed=12, amplitude=0.01).amps.copy()
        amps[:m] *= 1.0 + 1e-14
        u0 = SpatialSpectrum(p, amps)
        assert u0.is_hermitian() and not oracles.exactly_hermitian(amps)
        cfg = PicardConfig(iterations=2, nt=65, measure_zs=False)
        res = picard_iterate(u0, cfg)
        iterates = oracle_picard(u0, cfg)[0]
        assert np.array_equal(res.iterates[..., m + 1:], iterates[..., m + 1:])
        for it, want in zip(res.iterates, iterates, strict=True):
            assert oracles.exactly_hermitian(it)
            assert not np.array_equal(it[:, :m], want[:, :m])


def test_hermitian_rows_mirror_and_zero_slot():
    pos = np.array([[1 + 2j, 3 - 1j], [0.5j, -2.0]])
    rows = hermitian_rows(pos)
    assert rows.shape == (2, 5)
    assert np.array_equal(rows[:, 3:], pos) and np.all(rows[:, 2] == 0)
    assert np.array_equal(rows[:, ::-1], np.conj(rows))
