import numpy as np
import pytest

from dcl.evolve import Trajectory
from dcl.lattice import ModelParams, SpatialSpectrum


@pytest.fixture
def params16():
    return ModelParams(j=2, kmax=16.0)


@pytest.fixture
def params8():
    return ModelParams(j=2, kmax=8.0)


def hermitian_spectrum(params, seed=0, decay=1.0, scale=0.1, top=None):
    """Random mean-zero spectrum of a real field with geometric mode decay."""
    rng = np.random.default_rng(seed)
    amps = np.zeros(2 * params.nmax + 1, dtype=complex)
    top = top or params.nmax
    for n in range(1, top + 1):
        v = (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(-decay * n)
        amps[params.nmax + n] = v
        amps[params.nmax - n] = np.conj(v)
    return SpatialSpectrum(params, scale * amps)


def trajectory_of(params, dt, mode, states):
    """The Trajectory of a list of SolverStates: their amps, times and means as three arrays."""
    amps = np.array([s.spec.amps for s in states], complex)
    return Trajectory(params, dt, mode, amps=amps.reshape(len(states), 2 * params.nmax + 1),
                      times=np.array([s.t for s in states], float),
                      means=np.array([s.mean for s in states], float))
