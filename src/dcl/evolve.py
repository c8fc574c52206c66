"""Time integration: integrating-factor RK4, trajectories, diagnostics, Picard map.

The linear term d_x^(2j+1) is brutally stiff (|P(kmax)| ~ kmax^(2j+1)), so
the stepper substitutes v = S(-t) u and advances v with classical RK4; the
free flow is then carried by its phases (symbols.free_phases, the one phase
rule) and only the nonlinearity is stepped.

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
(nt, nmax) blocks of halves too, row block by row block: it writes each
iterate's half into its row of one preallocated block, mirrors it there as
it is written, and measures each iterate difference on its half.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bourgain import _lift_halves, zs_norm
from .lattice import (
    ModelParams,
    SpatialSpectrum,
    hermitian_rows,
    hs_norm,
    is_integer,
    real_half,
    sobolev_weights,
    uniform_step,
)
from .symbols import (FKernel, chunk_kernels, dispersion_row, free_phases, half_dispersion,
                      mean_coupling, nonlinearity_rows)

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
    """Classical 4th-order step on v = S(-t)u.

    The linear flow is carried by the phases symbols.free_phases forms at dt/2, so it holds
    up to the rounding of dt*P(k)/2: over N steps the error grows like N*ulp(dt*|P|/2),
    4.3e-7 after 2000 steps at j = 2, kmax 128, dt = 1e-4.

    mode selects the nonlinearity: "full" (both terms), "kdv" (local term
    only), "linear" (none, hence no mean coupling).  A nonzero conserved mean
    c couples to the mean-zero part through the exact linear term 2*F(c, .)
    (mean_coupling), so nonzero-mean data evolve correctly while c itself
    never changes.

    The state must be a real field.  The stepper works on the n > 0 half of
    its spectrum: phases, mean coupling and F (a symbols.FKernel) are all
    halves, and step mirrors the result into a full row once.  simulate and
    the one-off step check that their input is real.  Every buffer a step
    writes is built here, once, so a stepper must not be stepped from two
    threads at once; _advance returns a fresh half.

    The stages carry K = F(u, u) + c*mean_coupling*u, minus the right-hand side,
    so no pass flips a sign: a stage argument is u0 - h*K, the step u0 - (dt/6)*acc.
    Rounding to nearest is odd, fl(-x) = -fl(x), so that is bit for bit u0 + h*(-K).
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
        self.phase_wrap = float(dt * np.abs(half_dispersion(params)).max())
        self.phase_wrap_ok = self.phase_wrap < PHASE_WRAP_LIMIT
        self.e_half = free_phases(params, dt / 2.0)
        self.e_full = self.e_half * self.e_half
        self.e_half_inv = np.conj(self.e_half)
        self.e_full_inv = np.conj(self.e_full)
        # the n > 0 half of the full-row multiplier, so the same numbers
        self.mean_mult = mean_coupling(params.k_values(), mu, kdv=mode == "kdv")[params.nmax + 1:]
        # F's kernel (none when linear), k1..k4, stage argument, accumulator, the step's
        # mean coupling; 0-d scalars
        self._F = None if mode == "linear" else FKernel(params, mu, mode == "kdv")
        *self._k, self._y, self._acc, self._cm = np.empty((7, params.nmax), dtype=complex)
        h, f, self._two, self._sixth = (np.array(complex(x)) for x in (dt / 2, dt, 2.0, dt / 6))
        e, e_inv = (self.e_half,) * 2 + (self.e_full,), (self.e_half_inv,) * 2 + (self.e_full_inv,)
        self._stages = tuple(zip(self._k[:3], self._k[1:], (h, h, f), e, e_inv))  # stages 2..4

    def _coupling(self, c: float):
        """The step's mean coupling c * mean_mult, in the stepper's buffer; None when the
        stages add none (c = 0, or mode "linear")."""
        if c == 0.0 or self._F is None:
            return None
        return np.multiply(c, self.mean_mult, out=self._cm)

    def _rhs(self, u: np.ndarray, cm, out: np.ndarray) -> np.ndarray:
        """The stage value K = F(u, u) + cm * u for the half u, written to out; cm is
        _coupling's."""
        if self._F is None:
            out.fill(0.0)
            return out
        self._F(u, u, out)
        if cm is not None:  # _acc is free until the final sum
            out += np.multiply(cm, u, out=self._acc)
        return out

    def _advance(self, u0: np.ndarray, c: float, t: float) -> np.ndarray:
        """The n > 0 half one step dt after the half u0 at time t, for mean c; a fresh array."""
        # g(tau, v) = S(-tau) rhs(S(tau) v) at the stages, in place, with the operands in the order
        # e_inv * rhs(e * (u0 - h*k)), u0 - (dt/6)*(((k1 + 2*k2) + 2*k3) + k4): a*b may not be b*a
        (k1, k2, k3, k4), y, acc = self._k, self._y, self._acc
        cm = self._coupling(c)  # c is fixed for the step
        self._rhs(u0, cm, k1)
        for k_in, k_out, scale, e, e_inv in self._stages:
            np.multiply(e, np.subtract(u0, np.multiply(scale, k_in, out=y), out=y), out=y)
            np.multiply(e_inv, self._rhs(y, cm, k_out), out=k_out)
        np.add(k1, np.multiply(self._two, k2, out=k2), out=acc)
        acc += np.multiply(self._two, k3, out=k3)
        acc += k4
        u = self.e_full * np.subtract(u0, np.multiply(self._sixth, acc, out=acc), out=acc)
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
    res = np.add(ut, (-1j * dispersion_row(p)) * inner, out=ut)  # d_x^(2j+1): -i P(k), odd
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

def _cumulative_simpson(y: np.ndarray, h: float, out=None, b8=None) -> np.ndarray:
    """Cumulative integral along axis 0 of rows y sampled with step h, 0 at row 0.

    Composite Simpson with scipy.integrate.cumulative_simpson's equal-interval formulas:
    interval i (rows i..i+1) is h/12 (5 f_i + 8 f_{i+1} - f_{i+2}) when i is even and
    h/12 (-f_{i-1} + 8 f_i + 5 f_{i+1}) when i is odd.  y has an odd number >= 3 of rows, so
    the last interval is odd.  Complex rows are integrated as they are.  out (y's shape) and
    b8 (8 f_i at the (n - 1) // 2 odd i) are buffers to write into, not y; out is returned.
    """
    n = y.shape[0]
    sub = np.empty_like(y) if out is None else out
    sub[0] = 0.0
    a, b, c = y[0:n - 2:2], y[1:n - 1:2], y[2::2]
    b8 = np.multiply(8.0, b, out=b8)
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

    @property
    def zs_dtau(self) -> float:
        """The tau step of the grid's lift for Z^s, 2*pi / (nt*h), as from_time_samples has it."""
        t = self.t_grid()
        return 2.0 * math.pi / (t.size * float(t[1] - t[0]))

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
    halves, each iteration in two sweeps over F_CHUNK-row blocks (F and S(-t'),
    then one Simpson pass; the update and its difference's H^s), bit for bit
    whole-block passes.
    A call holds the S(t) table, the quadrature, the difference (F until the
    update) and, when Z^s is measured, its lift.  Each iterate's half is
    written into its row of the one (iterations+1, nt, 2*nmax+1) block that is
    returned, and mirrored there block by block as it is written.  So every
    iterate is exactly Hermitian: for input that is Hermitian only within
    real_half's tolerance, the input's tiny anti-Hermitian part is dropped
    from the first iterate on, and the n > 0 halves are those of the full-row
    loop.  Each difference is measured on its half: its H^s norm sums kw |d|^2
    over the mirrored full row, and Z^s lifts the half as from_time_samples
    lifts the full rows; both are the full-row numbers bit for bit.
    quadrature_wrap is h * max |P(k)| over the modes whose largest amplitude
    in the last iterate exceeds 1e-12 of the block's largest finite one, or is
    not finite: the phase the quadrature's integrand turns through in one
    step.  phase_s holds the wall seconds of the setup (phases and free flow),
    the iterations (F, quadrature and update) and the Z^s measurement.
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
    h = float(t[1] - t[0])
    measure_zs = cfg.measure_zs and p.j >= 2
    clock = time.perf_counter()
    phase_s = {"setup": 0.0, "iterate": 0.0, "zs": 0.0}
    m = p.nmax
    i0 = nt // 2  # t = 0
    eta = bump_eta(t)[:, None]
    phases = np.empty((nt, m), dtype=complex)  # S(t) rows; t is odd about t[i0] = 0
    free_phases(p, t[i0:], out=phases[i0:])
    np.conjugate(phases[:i0:-1], out=phases[:i0])
    phases_inv = phases[::-1]  # S(-t) = conj(S(t))
    # every iterate's n > 0 half is written into its row of one block and mirrored there
    iterates = np.empty((it + 1, nt, 2 * m + 1), dtype=complex)
    halves = iterates[..., m + 1:]
    free = np.multiply(eta, np.multiply(phases, pos, out=halves[0]), out=halves[0])
    w = free
    np.conjugate(free[:, ::-1], out=iterates[0, :, :m])
    # loop buffers: the difference (F until sweep B), the quadrature and its t = 0 row, a
    # block's kw |.|^2 of full rows (mirrored, n = 0 slot 0), the H^s row sums, the lift
    blocks = chunk_kernels(p, mu, mode == "kdv", nt)
    d, cum = np.empty((2, nt, m), dtype=complex)
    cum0, sums = np.empty(m, dtype=complex), np.empty(nt)
    rows = np.empty((blocks[0][1], 2 * m + 1))
    rows[:, m] = 0.0
    lift = np.empty((2 * m, nt), dtype=complex) if measure_zs else None
    diffs_hs, diffs_zs, at_floor = [], [], []
    kw_pos = sobolev_weights(p, cfg.report_s)[m + 1:]

    def hs_rows(half, lo, hi):
        # sums[lo:hi], the full-row kw |.|^2 sums bit for bit: |conj z|^2 = |z|^2, kw(-k) = kw(k)
        r = rows[:hi - lo]
        np.multiply(kw_pos, np.abs(half[lo:hi]) ** 2, out=r[:, m + 1:])
        r[:, :m] = r[:, :m:-1]
        sums[lo:hi] = np.sum(r, axis=1)

    def hs_max():
        return np.sqrt(np.max(sums) / p.lam)  # monotone in the sum; NaN stays NaN

    # an upper bound on the newest iterate's H^s norm: the free flow's is u0's
    # (|S(t)| = 1, max eta = 1), and each difference adds at most its own norm
    amp = hs_norm(u0, cfg.report_s)
    phase_s["setup"] = time.perf_counter() - clock
    for i in range(1, it + 1):
        clock = time.perf_counter()
        # sweep A, block by block: F and S(-t') F, then the quadrature of the whole block
        # (its 8 f_odd rows in this iterate's row, written only in sweep B); phases come
        # first in the products because numpy's complex a*b and b*a can differ in the last bit
        w_next = halves[i]
        for lo, hi, kernel in blocks:
            part = w[lo:hi]
            kernel(part, part, d[lo:hi])
            np.multiply(phases_inv[lo:hi], d[lo:hi], out=d[lo:hi])
        _cumulative_simpson(d, h, cum, w_next[:nt // 2])
        # sweep B: the integral from 0 to t, S(t) and eta, the update and its difference
        np.copyto(cum0, cum[i0])
        for lo, hi, _ in blocks:
            c = np.subtract(cum[lo:hi], cum0, out=cum[lo:hi])
            np.multiply(phases[lo:hi], c, out=c)
            c *= eta[lo:hi]
            np.subtract(free[lo:hi], c, out=w_next[lo:hi])
            np.conjugate(w_next[lo:hi, ::-1], out=iterates[i, lo:hi, :m])
            np.subtract(w_next[lo:hi], w[lo:hi], out=d[lo:hi])
            hs_rows(d, lo, hi)
        diffs_hs.append(hs_max())
        amp += diffs_hs[-1]
        if diffs_hs[-1] <= PICARD_FLOOR * amp:  # near the floor: the exact norm decides
            for lo, hi, _ in blocks:
                hs_rows(w_next, lo, hi)
            amp = hs_max()
        at_floor.append(bool(diffs_hs[-1] <= PICARD_FLOOR * amp))
        phase_s["iterate"] += time.perf_counter() - clock
        if measure_zs:
            clock = time.perf_counter()
            diffs_zs.append(zs_norm(_lift_halves(d, float(t[0]), h, p, lift), cfg.report_s))
            phase_s["zs"] += time.perf_counter() - clock
        w = w_next
    top = np.abs(w).max(axis=0)
    finite = np.isfinite(top)
    # modes above roundoff; a mode that overflowed carries content too
    carried = ~finite | (top > 1e-12 * top[finite].max(initial=0.0))
    wrap = h * float(np.abs(half_dispersion(p)[carried]).max(initial=0.0))
    iterates[..., m] = 0.0

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
