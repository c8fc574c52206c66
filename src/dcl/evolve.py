"""Time integration: integrating-factor RK4, trajectories, diagnostics, Picard map.

The linear term d_x^(2j+1) is brutally stiff (|P(kmax)| ~ kmax^(2j+1)), so
the stepper substitutes v = S(-t) u and advances v with classical RK4; the
free flow is then integrated exactly and only the nonlinearity is stepped.

The same free group + Duhamel structure powers the fixed-point iterator:

    Phi(w) = eta(t) S(t) u0 - eta(t) * integral_0^t S(t-t') F(w,w)(t') dt'

whose iterates w^0 = eta S(t) u0, w^(n+1) = Phi(w^n) are reported together
with their contraction ratios.  eta is a C^1 bump, 1 on [-1,1] and
supported in [-2,2], whose second derivative jumps at |t| = 1.  The time
integral is a composite cumulative Simpson rule on the uniform time grid
(scipy's equal-interval formulas, one pass over complex rows); the grid has
an odd number nt >= 3 of nodes, so t = 0 is a node and the integral starts
there.

The state of a real field is the n > 0 half of its spectrum (see lattice).
The stepper keeps its phases and mean coupling on that half, and simulate
carries the half from step to step.  A Trajectory is one block: simulate
writes each recorded half into a preallocated (n_rec, nmax) block, mirrors
it into full rows once at the end and takes the diagnostics of all rows in
one pass; rescale_trajectory and pde_residual act on the block.  A stepper
owns the buffers its steps write (a step allocates only the half it
returns), so no two threads may step one at once.  Picard iterates on
(nt, nmax) blocks of halves too: it writes each iterate's half into its row
of one preallocated block, mirrors the whole block in place once at the
end, and measures each iterate difference on its half.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bourgain import _lift_halves, _time_step, zs_norm
from .lattice import (
    ModelParams,
    SpatialSpectrum,
    grid_work,
    hermitian_rows,
    hs_norm,
    is_integer,
    real_half,
    sobolev_weights,
    uniform_step,
)
from .symbols import dispersion_symbol, mean_coupling, nonlinearity_rows, real_nonlinearity

MODES = ("full", "kdv", "linear")
PHASE_WRAP_LIMIT = 50.0  # rad: a step is trusted while dt * max |P(k)| stays below this
PICARD_FLOOR = 1e-12  # an iterate difference at or below this share of the iterate is roundoff


@dataclass(frozen=True)
class SolverState:
    """Mean-zero spectrum plus the exactly-conserved field mean, at time t."""

    t: float
    spec: SpatialSpectrum
    mean: float = 0.0


class Trajectory:
    """A run's recorded states as read-only arrays: row i of amps at times[i], mean means[i].

    diag holds simulate's energy, l2, hs (H^1) and max_mode columns; it is empty for
    a rescaled trajectory.  states and diagnostics are derived from the arrays on every read.
    """

    DIAGNOSTICS = ("t", "energy", "mean", "l2", "hs", "max_mode")

    def __init__(self, params: ModelParams, dt: float, mode: str, *, amps, times, means,
                 diag=None, blown_up=False, phase_wrap=0.0):
        self.params, self.dt, self.mode, self.diag = params, dt, mode, diag or {}
        self.amps, self.times, self.means = amps, times, means
        for a in (amps, times, means):
            a.setflags(write=False)
        self.blown_up = blown_up
        self.phase_wrap = phase_wrap  # dt * max |P(k)|, the stepper's phase-wrap number

    @property
    def phase_wrap_ok(self) -> bool:
        return self.phase_wrap < PHASE_WRAP_LIMIT

    @property
    def states(self) -> tuple:
        """Every recorded SolverState, built anew on each read; loops should read the arrays."""
        return tuple(SolverState(t, SpatialSpectrum(self.params, a), c) for t, a, c
                     in zip(self.times.tolist(), self.amps, self.means.tolist()))

    def _rows(self):
        """The diagnostics of each state as a tuple of floats in DIAGNOSTICS order."""
        cols = {"t": self.times, "mean": self.means, **self.diag}
        return zip(*(cols[name].tolist() for name in self.DIAGNOSTICS)) if self.diag else ()

    @property
    def diagnostics(self) -> list:
        return [dict(zip(self.DIAGNOSTICS, row)) for row in self._rows()]

    def diagnostics_csv(self) -> str:
        rows = [",".join(self.DIAGNOSTICS), *(",".join(map(repr, r)) for r in self._rows())]
        return "\n".join(rows) + "\n"


def energy(spec: SpatialSpectrum) -> float:
    """The conserved quadratic integral of (u^2 + u_x^2) of the mean-zero part.

    Parseval gives (1/lam) * sum (1+k^2) |amps|^2; conservation under the
    full flow follows from the local form m_t + d_x^(2j+1) m + u m_x + 2 u_x m = 0
    with m = u - u_xx: d/dt int u*m = 2 int u m_t, the dispersive part drops
    because odd-order derivatives are skew on the circle, and
    int u (u m_x + 2 u_x m) = int u^2 m_x + (u^2)_x m = 0 after one
    integration by parts.
    """
    return float(np.sum(_energy_weights(spec.params) * np.abs(spec.amps) ** 2)) / spec.params.lam


@functools.lru_cache(maxsize=16)  # energy runs on every diagnostic row
def _energy_weights(params: ModelParams) -> np.ndarray:
    """1 + k^2 on the lattice, read-only."""
    k = params.k_values()
    w = 1.0 + k * k
    w.setflags(write=False)
    return w


class IntegratingFactorRK4:
    """Classical 4th-order step on v = S(-t)u; exact on the linear flow.

    mode selects the nonlinearity: "full" (both terms), "kdv" (local term
    only), "linear" (none, hence no mean coupling).  A nonzero conserved mean
    c couples to the mean-zero part through the exact linear term 2*F(c, .)
    (mean_coupling), so nonzero-mean data evolve correctly while c itself
    never changes.

    The state must be a real field.  The stepper works on the n > 0 half of
    its spectrum: phases, mean coupling and F (symbols.real_nonlinearity)
    are all halves, and step mirrors the result into a full row once.
    simulate and the one-off step check that their input is real.  Every
    buffer a step writes is built here, once, so a stepper must not be
    stepped from two threads at once; _advance returns a fresh half.
    """

    def __init__(self, params: ModelParams, dt: float, mode: str = "full",
                 mu: float = 1.0):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and positive, got {dt!r}")
        self.params = params
        self.dt = dt
        self.mode = mode
        self.mu = mu
        k = params.k_values()
        disp = dispersion_symbol(k, params.j)
        self.phase_wrap = float(dt * np.abs(disp).max())
        self.phase_wrap_ok = self.phase_wrap < PHASE_WRAP_LIMIT
        # the n > 0 halves of the full-row multipliers, so they are the same numbers
        half = slice(params.nmax + 1, None)
        self.e_half = np.exp(1j * (dt / 2.0) * disp)[half]
        self.e_full = self.e_half * self.e_half
        self.e_half_inv = np.conj(self.e_half)
        self.e_full_inv = np.conj(self.e_full)
        self.mean_mult = mean_coupling(k, mu, kdv=mode == "kdv")[half]
        # the FFT buffers, k1..k4, stage argument, accumulator; 0-d scalars, faster in a ufunc
        self._work = grid_work(params, params.default_grid(pad=2), nf=1 if mode == "kdv" else 2)
        *self._k, self._y, self._acc = np.empty((6, params.nmax), dtype=complex)
        h, f, self._two, self._sixth = (np.array(complex(x)) for x in (dt / 2, dt, 2.0, dt / 6))
        self._stages = [(h, self.e_half, self.e_half_inv)] * 2 + [(f, self.e_full, self.e_full_inv)]

    def _rhs(self, u: np.ndarray, c: float, out: np.ndarray) -> np.ndarray:
        """-(F(u, u) + (c * mean_mult) * u) for the half u, written to out."""
        if self.mode == "linear":
            out.fill(0.0)
            return out
        real_nonlinearity(u, u, self.params, self.mu, self.mode == "kdv", out, self._work)
        if c != 0.0:  # _acc is free until the final sum
            out += np.multiply(np.multiply(c, self.mean_mult, out=self._acc), u, out=self._acc)
        return np.negative(out, out=out)

    def _advance(self, u0: np.ndarray, c: float, t: float) -> np.ndarray:
        """The n > 0 half one step dt after the half u0 at time t, for mean c; a fresh array."""
        # g(tau, v) = S(-tau) rhs(S(tau) v) at the stages, in place, with the operands in the order
        # e_inv * rhs(e * (u0 + h*k)), u0 + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4): a*b may not be b*a
        (k1, k2, k3, k4), y, acc = self._k, self._y, self._acc
        self._rhs(u0, c, k1)
        for (k_in, k_out), (scale, e, e_inv) in zip(((k1, k2), (k2, k3), (k3, k4)), self._stages):
            np.multiply(e, np.add(u0, np.multiply(scale, k_in, out=y), out=y), out=y)
            np.multiply(e_inv, self._rhs(y, c, k_out), out=k_out)
        np.add(k1, np.multiply(self._two, k2, out=k2), out=acc)
        acc += np.multiply(self._two, k3, out=k3)
        acc += k4
        u = self.e_full * np.add(u0, np.multiply(self._sixth, acc, out=acc), out=acc)
        if not np.isfinite(u).all():
            raise FloatingPointError(
                f"nonfinite amplitude at t={t + self.dt:.6g} "
                f"(max |u| before step {np.abs(u0).max():.3g})"
            )
        return u

    def step(self, state: SolverState) -> SolverState:
        """state one step dt later; its n < 0 half is the mirror of the n > 0 half."""
        p = self.params
        u = self._advance(state.spec.amps[p.nmax + 1:], state.mean, state.t)
        return SolverState(state.t + self.dt, SpatialSpectrum(p, hermitian_rows(u)), state.mean)


def step(state: SolverState, dt: float, mode: str = "full", mu: float = 1.0) -> SolverState:
    """One integrating-factor RK4 step (one-off API; loops should reuse the class)."""
    real_half(state.spec.amps, "the state")
    return IntegratingFactorRK4(state.spec.params, dt, mode=mode, mu=mu).step(state)


def simulate(u0: SpatialSpectrum, T: float, dt: float, mode: str = "full",
             mu: float = 1.0, mean: float = 0.0, stride: int = 1,
             blowup_factor: float = 1e6) -> Trajectory:
    """March the model from u0 to time T, collecting per-stride diagnostics.

    u0 must be a real field (a Hermitian spectrum within lattice.real_half's
    tolerance) and mean-zero (the mean goes in via the `mean` scalar, which
    is conserved exactly), and T a whole number of steps dt.  The stepper
    advances only the n > 0 half of u0; every later state's n < 0 half is
    its exact mirror, so for input that is Hermitian only within the
    tolerance the input's tiny anti-Hermitian part is dropped after the
    first step.  The hs diagnostic is the H^1 norm, and the run early-stops
    with blown_up=True if it grows by blowup_factor or amplitudes go
    nonfinite.  Stepping IntegratingFactorRK4.step one call at a time gives
    the same states bit for bit.
    """
    u = real_half(u0.amps, "u0")
    p = u0.params
    stepper = IntegratingFactorRK4(p, dt, mode=mode, mu=mu)  # it checks dt and mode
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"T must be finite and >= 0, got {T!r}")
    if not is_integer(stride) or stride < 1:
        raise ValueError(f"stride must be a positive number of steps, got {stride!r}")
    nsteps = int(round(T / dt))
    if abs(T / dt - nsteps) > 1e-9:
        raise ValueError(f"T={T!r} is not a whole number of steps dt={dt!r}")
    # row 0 is u0's own amps; the later rows are recorded as halves and mirrored once
    halves = np.empty((1 + nsteps // stride + (nsteps % stride > 0), p.nmax), dtype=complex)
    times = np.zeros(len(halves))
    rec, blown_up = 1, True  # blown_up until the loop reaches T
    # blow-up check: the squared H^1 norm of a real field is (2/lam) sum over n > 0
    h1_weights = sobolev_weights(p, 1.0)[p.nmax + 1:]
    h1_limit = 0.5 * p.lam * (blowup_factor * max(hs_norm(u0, 1.0), 1e-300)) ** 2
    re2, im2 = np.empty((2, p.nmax))  # |u|^2 = re^2 + im^2, squared into these
    for n in range(1, nsteps + 1):
        try:
            u = stepper._advance(u, mean, (n - 1) * dt)
        except FloatingPointError:
            break
        if n % stride == 0 or n == nsteps:
            halves[rec], times[rec] = u, n * dt
            rec += 1
        np.square(u.real, out=re2)
        np.square(u.imag, out=im2)
        if h1_weights @ np.add(re2, im2, out=re2) > h1_limit:
            break
    else:
        blown_up = False
    amps = hermitian_rows(halves[:rec])
    amps[0] = u0.amps
    return Trajectory(p, dt, mode, amps=amps, times=times[:rec], means=np.full(rec, float(mean)),
                      diag=_diagnostics(p, amps, mean), blown_up=blown_up,
                      phase_wrap=stepper.phase_wrap)


def _diagnostics(p: ModelParams, amps: np.ndarray, mean: float) -> dict:
    """energy (with the mean's share), l2, hs (the H^1 norm) and max_mode of each row of amps.

    Each row is reduced on its own, so its values are bit for bit those of the one-state formulas.
    """
    mod = np.abs(amps)
    max_mode = mod.max(axis=1)
    mod2 = np.square(mod, out=mod)
    weighted = np.empty_like(mod2)

    def weighted_sums(w):
        return np.sum(np.multiply(w, mod2, out=weighted), axis=1)

    return {"energy": weighted_sums(_energy_weights(p)) / p.lam + 2.0 * math.pi * p.lam * mean**2,
            "l2": np.sqrt(np.sum(mod2, axis=1) / p.lam),  # the H^0 weights are all 1.0
            "hs": np.sqrt(weighted_sums(sobolev_weights(p, 1.0)) / p.lam),
            "max_mode": max_mode}


# -- residual of the PDE along a trajectory -----------------------------------

def _time_derivatives(amps: np.ndarray, h: float):
    """4th-order central u_t on the interior of >= 7 rows, plus a differencing error estimate."""
    ut = (-amps[4:] + 8 * amps[3:-1] - 8 * amps[1:-3] + amps[:-4]) / (12.0 * h)
    # leading truncation term is h^4 u^(5)/30; estimate u^(5) h^5 by 5th differences
    d5 = np.diff(amps, n=5, axis=0)
    return ut, float(np.abs(d5).max() / (30.0 * h))


def pde_residual(traj: Trajectory, mode: str | None = None, mu: float = 1.0,
                 forcing=None) -> dict:
    """Max over sampled times of || u_t + d_x^(2j+1) u + F(u,u) - forcing ||_L2.

    u_t comes from 4th-order central differencing of the stored states, so
    the result is only meaningful above the reported differencing_error.
    forcing, if given, is a callable t -> SpatialSpectrum (manufactured
    solution support).  mode (default traj.mode) must be one of MODES.
    """
    mode = traj.mode if mode is None else mode
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    times, amps, p = traj.times, traj.amps, traj.params
    if len(times) < 7:
        raise ValueError(
            "trajectory too coarse for residual evaluation: need >= 7 samples; "
            "re-run simulate with a smaller stride"
        )
    h = uniform_step(times, "residual evaluation needs uniformly sampled states")
    ut, diff_err = _time_derivatives(amps, h)
    k = p.k_values()
    inner = amps[2:-2]  # the states ut is known at
    res = np.add(ut, (-1j * dispersion_symbol(k, p.j)) * inner, out=ut)  # d_x^(2j+1): -i P(k)
    if mode != "linear":
        kdv = mode == "kdv"
        f = hermitian_rows(nonlinearity_rows(real_half(inner, "the trajectory"), p, mu, kdv))
        c = traj.means[2:-2, None] * mean_coupling(k, mu, kdv)
        res += np.add(f, np.multiply(c, inner, out=c), out=f)  # F + c u: two scratch blocks
    if forcing is not None:
        res -= np.stack([forcing(t).amps for t in times[2:-2].tolist()])
    per_time = np.sqrt(np.sum(np.abs(res) ** 2, axis=1) / p.lam).tolist()
    return {
        "max_residual": max(per_time),
        "differencing_error": diff_err,
        "times": times[2:-2].tolist(),
        "per_time": per_time,
    }


# -- Picard / Duhamel fixed point ----------------------------------------------

def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral along axis 0 of rows y sampled with step h, 0 at row 0.

    Composite Simpson with scipy.integrate.cumulative_simpson's equal-interval
    formulas: interval i (rows i..i+1) is h/12 (5 f_i + 8 f_{i+1} - f_{i+2})
    when i is even and h/12 (-f_{i-1} + 8 f_i + 5 f_{i+1}) when i is odd.
    y has an odd number >= 3 of rows, so the last interval is odd.  Complex
    rows are integrated as they are.
    """
    n = y.shape[0]
    sub = np.empty_like(y)
    sub[0] = 0.0
    a, b, c = y[0:n - 2:2], y[1:n - 1:2], y[2::2]
    b8 = 8.0 * b
    fwd, bwd = sub[1:n - 1:2], sub[2::2]
    np.multiply(a, 5.0, out=fwd)
    fwd += b8
    fwd -= c
    np.multiply(c, 5.0, out=bwd)
    bwd += b8
    bwd -= a
    sub[1:] *= h / 12.0
    return np.cumsum(sub, axis=0, out=sub)


def bump_eta(t):
    """C^1 time cutoff: 1 on [-1,1], supported in [-2,2]; eta'' jumps by -2 at |t| = 1.

    Past |t| = 1 it is 1 - r^2 + O(r^4), r = |t| - 1, so eta-hat decays like sigma^-3.
    """
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    out[t <= 1.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    r = t[mid] - 1.0
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - r * r))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PicardConfig:
    """Knobs of the fixed-point iteration.

    The cutoff is bump_eta, and the time grid is uniform on [-2, 2], its
    support.  nt must be an odd integer >= 3: the composite cumulative
    Simpson rule then closes its panels and t = 0 is a node, so the Duhamel
    integral starts at 0 (with even nt it would start at +-h/2).
    iterations must be an integer >= 1 and report_s finite.
    """

    iterations: int = 8
    nt: int = 1025
    report_s: float = -0.25
    measure_zs: bool = True
    zs_dtau: float | None = None

    def t_grid(self) -> np.ndarray:
        """The nodes, odd about t = 0 exactly: t[nt - 1 - i] == -t[i] and t[nt // 2] == 0."""
        t = np.linspace(0.0, 2.0, self.nt // 2 + 1)
        return np.concatenate((-t[:0:-1], t))


@dataclass
class PicardResult:
    t_grid: np.ndarray
    iterates: np.ndarray  # (n_saved, nt, n_modes), first axis ordered by iteration
    ratios_hs: list
    ratios_zs: list
    ratios_at_floor: list  # per ratio (both lists): True if a difference in it is roundoff
    diverged: bool
    params: ModelParams
    quadrature_wrap: float  # h * max |P(k)| over the modes the last iterate carries
    phase_s: dict = field(default_factory=dict)  # wall seconds: setup, iterate, zs

    def state_at(self, t: float) -> SpatialSpectrum:
        i = int(np.argmin(np.abs(self.t_grid - t)))
        if abs(self.t_grid[i] - t) > 1e-9:
            raise ValueError(f"t={t} is not on the Picard time grid")
        return SpatialSpectrum(self.params, self.iterates[-1][i])


def picard_iterate(u0: SpatialSpectrum, cfg: PicardConfig, mode: str = "full",
                   mu: float = 1.0) -> PicardResult:
    """Run w^0 = eta S(t) u0, w^(n+1) = Phi(w^n) and report contraction ratios.

    The Duhamel integral uses S(t-t') = S(t) S(-t'), so only the cumulative
    integral of S(-t') F(w,w)(t') is quadratured: composite cumulative Simpson
    on the uniform grid (scipy's equal-interval formulas), from the node t = 0.
    cfg.nt must be an odd integer >= 3, cfg.iterations an integer >= 1,
    cfg.report_s finite and mode "full" or "kdv" (ValueError otherwise).
    An iterate difference whose H^s norm is at or below PICARD_FLOOR times
    the new iterate's marks the ratios it enters in ratios_at_floor (for
    ratios_hs and ratios_zs alike): a ratio of two roundoff-sized
    differences measures noise, not contraction.  Divergence (ratio > 1
    three times in a row, marked ratios skipped) is flagged, not raised.

    u0 must be a real field, as for simulate.  The phases, the free flow, F,
    the quadrature and the update all act on the (nt, nmax) block of n > 0
    halves.  Each iterate's half is written into its row of the one
    (iterations+1, nt, 2*nmax+1) block that is returned, and that block is
    mirrored in place at the end.  So every iterate is exactly Hermitian: for
    input that is Hermitian only within real_half's tolerance, the input's
    tiny anti-Hermitian part is dropped from the first iterate on, and the
    n > 0 halves are those of the full-row loop.  Each difference is measured
    on its half: its H^s norm sums kw |d|^2 over the mirrored full row, and
    Z^s lifts the half as from_time_samples lifts the full rows; both are the
    full-row numbers bit for bit.  With Z^s measured, cfg.zs_dtau is checked
    against the time grid before any work.  quadrature_wrap is h * max |P(k)|
    over the modes whose largest amplitude in the last iterate exceeds 1e-12
    of the block's largest finite one, or is not finite: the phase the
    quadrature's integrand turns through in one step.  phase_s holds the
    wall seconds of the setup (phases and free flow), the iterations (F,
    quadrature and update) and the Z^s measurement.
    """
    nt = cfg.nt
    if not is_integer(nt) or nt < 3 or nt % 2 == 0:
        raise ValueError(f"nt must be an odd integer >= 3 (whole Simpson panels, "
                         f"t = 0 on the grid), got nt={nt!r}")
    it = cfg.iterations
    if not is_integer(it) or it < 1:
        raise ValueError(f"iterations must be an integer >= 1, got {it!r}")
    if not math.isfinite(cfg.report_s):
        raise ValueError(f"report_s must be finite, got {cfg.report_s!r}")
    if mode not in ("full", "kdv"):
        raise ValueError(f"mode must be 'full' or 'kdv', got {mode!r}")
    pos = real_half(u0.amps, "u0")
    p = u0.params
    t = cfg.t_grid()
    measure_zs = cfg.measure_zs and p.j >= 2
    if measure_zs:
        dt = _time_step(t, cfg.zs_dtau)  # the grid is checked before any work
    clock = time.perf_counter()
    phase_s = {"setup": 0.0, "iterate": 0.0, "zs": 0.0}
    m = p.nmax
    i0 = nt // 2  # t = 0
    eta = bump_eta(t)[:, None]
    phases = np.empty((nt, m), dtype=complex)  # S(t) rows; t is odd about t[i0] = 0
    disp = dispersion_symbol(p.k_values(), p.j)[m + 1:]
    np.exp(1j * np.outer(t[i0:], disp), out=phases[i0:])
    np.conjugate(phases[:i0:-1], out=phases[:i0])
    phases_inv = phases[::-1]  # S(-t) = conj(S(t))
    # every iterate's n > 0 half is written into its row of one block, mirrored at the end
    iterates = np.empty((it + 1, nt, 2 * m + 1), dtype=complex)
    halves = iterates[..., m + 1:]
    free = np.multiply(eta, phases * pos, out=halves[0])
    h = float(t[1] - t[0])
    w = free
    d = np.empty((nt, m), dtype=complex)
    diffs_hs, diffs_zs, at_floor = [], [], []
    kw_pos = sobolev_weights(p, cfg.report_s)[m + 1:]
    rows = np.empty((nt, 2 * m + 1))  # kw |.|^2 of full rows: mirrored, with the n = 0 slot 0
    rows[:, m] = 0.0

    def hs_slicewise(half):
        # the full-row sum, bit for bit: |conj z|^2 = |z|^2 and kw(-k) = kw(k)
        np.multiply(kw_pos, np.abs(half) ** 2, out=rows[:, m + 1:])
        rows[:, :m] = rows[:, :m:-1]
        return np.sqrt(np.sum(rows, axis=1) / p.lam).max()

    # an upper bound on the newest iterate's H^s norm: the free flow's is u0's
    # (|S(t)| = 1, max eta = 1), and each difference adds at most its own norm
    amp = hs_norm(u0, cfg.report_s)
    phase_s["setup"] = time.perf_counter() - clock
    for i in range(1, it + 1):
        clock = time.perf_counter()
        integrand = nonlinearity_rows(w, p, mu, mode == "kdv")
        # S(-t') F(t'); phases come first in both products because numpy's
        # complex a*b and b*a can differ in the last bit
        np.multiply(phases_inv, integrand, out=integrand)
        cum = _cumulative_simpson(integrand, h)
        cum -= cum[i0]  # integral from 0 to t
        np.multiply(phases, cum, out=cum)
        cum *= eta
        w_next = np.subtract(free, cum, out=halves[i])
        np.subtract(w_next, w, out=d)
        diffs_hs.append(hs_slicewise(d))
        amp += diffs_hs[-1]
        if diffs_hs[-1] <= PICARD_FLOOR * amp:  # near the floor: the exact norm decides
            amp = hs_slicewise(w_next)
        at_floor.append(bool(diffs_hs[-1] <= PICARD_FLOOR * amp))
        phase_s["iterate"] += time.perf_counter() - clock
        if measure_zs:
            clock = time.perf_counter()
            diffs_zs.append(zs_norm(_lift_halves(d, float(t[0]), dt, p), cfg.report_s))
            phase_s["zs"] += time.perf_counter() - clock
        w = w_next
    top = np.abs(w).max(axis=0)
    finite = np.isfinite(top)
    # modes above roundoff; a mode that overflowed carries content too
    carried = ~finite | (top > 1e-12 * top[finite].max(initial=0.0))
    wrap = h * float(np.abs(disp[carried]).max(initial=0.0))
    iterates[..., m] = 0.0
    np.conjugate(iterates[..., :m:-1], out=iterates[..., :m])

    def ratios(diffs):
        return [
            diffs[i] / diffs[i - 1] if diffs[i - 1] > 0 else math.inf
            for i in range(1, len(diffs))
        ]

    r_hs = ratios(diffs_hs)
    r_zs = ratios(diffs_zs) if diffs_zs else []
    r_floor = [at_floor[i - 1] or at_floor[i] for i in range(1, len(at_floor))]
    run = 0
    diverged = False
    for r, floor in zip(r_hs, r_floor):
        if floor:
            continue
        run = run + 1 if r > 1.0 else 0
        if run >= 3:
            diverged = True
            break
    return PicardResult(t, iterates, r_hs, r_zs, r_floor, diverged, p, wrap, phase_s)
