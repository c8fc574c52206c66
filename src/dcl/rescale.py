"""Dilation symmetry: u(x,t) -> mu^(-2j) u(x/mu, t/mu^(2j+1)) onto the circle of size lam*mu.

Under this map a solution of the model becomes a solution of the rescaled
equation, in which the smoothing operator picks up the dilation:

    u_t + d_x^(2j+1) u + 1/2 d_x(u^2)
        + d_x (1 - mu^2 d_x^2)^(-1) [u^2 + mu^2/2 (u_x)^2] = 0.

On the Fourier side the map is exact bookkeeping: the lattice index n is
preserved (k = n/lam -> n/(lam*mu)) and amplitudes scale by mu^(1-2j) (the
mu^(-2j) of the field times the mu the transform convention contributes
from the measure).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .evolve import SolverState, Trajectory, pde_residual
from .lattice import ModelParams, SpatialSpectrum


@dataclass(frozen=True)
class ScalingTransform:
    mu: float

    def __post_init__(self):
        if self.mu < 1.0:
            raise ValueError(f"mu must be >= 1, got {self.mu}")


def rescale_params(params: ModelParams, mu: float) -> ModelParams:
    return ModelParams(j=params.j, lam=params.lam * mu, epsilon=params.epsilon,
                       kmax=params.kmax / mu)


def rescale_field(u0: SpatialSpectrum, mu: float) -> SpatialSpectrum:
    """Spectrum of mu^(-2j) u0(x/mu) on the dilated circle [0, 2*pi*lam*mu)."""
    ScalingTransform(mu)
    p = u0.params
    factor = mu ** (1 - 2 * p.j)
    return SpatialSpectrum(rescale_params(p, mu), factor * u0.amps)


def rescale_state(state: SolverState, mu: float) -> SolverState:
    j = state.spec.params.j
    return SolverState(
        t=state.t * mu ** (2 * j + 1),
        spec=rescale_field(state.spec, mu),
        mean=state.mean * mu ** (-2 * j),
    )


def rescale_trajectory(traj: Trajectory, mu: float) -> Trajectory:
    """Rescale every snapshot; times dilate by mu^(2j+1), so sampling stays uniform."""
    j = traj.params.j
    out = Trajectory(
        params=rescale_params(traj.params, mu),
        dt=traj.dt * mu ** (2 * j + 1),
        mode=traj.mode,
        states=[rescale_state(s, mu) for s in traj.states],
        blown_up=traj.blown_up,
        phase_wrap=traj.phase_wrap,  # dt*kmax^(2j+1) is invariant under the dilation
    )
    return out


def rescaled_residual(traj, mu: float) -> float:
    """Max L2 residual of the mu-dressed equation along a (rescaled) trajectory.

    The trajectory must be sampled uniformly and densely enough for
    time differencing; full detail (per-time values, differencing error)
    is available from evolve.pde_residual with the same mu.
    """
    return pde_residual(traj, mode=traj.mode, mu=mu)["max_residual"]


def hs_scaling_exponent(u0: SpatialSpectrum, s: float, mus=(1.0, 2.0, 4.0, 8.0)) -> float:
    """Fitted exponent p in ||rescale(u0, mu)||_{H^s} ~ mu^p.

    The exponent depends on s and on the data profile, so it is measured
    rather than asserted.
    """
    import numpy as np

    from .lattice import hs_norm

    norms = [hs_norm(rescale_field(u0, mu), s) for mu in mus]
    return float(np.polyfit(np.log(mus), np.log(norms), 1)[0])
