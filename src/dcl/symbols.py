"""Fourier multipliers of the model: dispersion, free flow, smoothing, nonlinearity.

The linear part is u_t + d_x^(2j+1) u = 0, whose symbol-side solution
operator is the unimodular multiplier exp(i t P(k)) with

    P(k) = (-1)^(j+1) k^(2j+1).

The nonlinearity enters through the symmetric bilinear map

    F(u, v) = 1/2 d_x(u v) + d_x (1 - mu^2 d_x^2)^(-1) [u v + mu^2/2 u_x v_x]

(mu = 1 is the unscaled model; the mu-dressed form appears after dilating
the circle).  F(u, u) is the full nonlinearity moved to the right-hand
side: u_t + d_x^(2j+1) u + F(u, u) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import (
    TWO_PI_SQRT,
    ModelParams,
    SpatialSpectrum,
    grid_to_lattice,
    lattice_to_grid,
)


def dispersion_symbol(k, j: int):
    """P(k) = (-1)^(j+1) k^(2j+1), exact integer arithmetic for integer k."""
    if j < 1:
        raise ValueError("j must be >= 1")
    sign = 1 if j % 2 == 1 else -1
    if isinstance(k, (int, np.integer)):
        return sign * int(k) ** (2 * j + 1)  # Python ints never overflow
    return sign * np.asarray(k, dtype=float) ** (2 * j + 1)


def nonlocal_multiplier(k):
    """Symbol i*k/(1+k^2) of d_x (1 - d_x^2)^(-1); peaks at |k|=1 with modulus 1/2."""
    k = np.asarray(k, dtype=float)
    return 1j * k / (1.0 + k * k)


@dataclass(frozen=True)
class MultiplierSet:
    """Cached lattice arrays for every multiplier the model needs."""

    params: ModelParams

    @cached_property
    def k(self) -> np.ndarray:
        return self.params.k_values()

    @cached_property
    def dispersion(self) -> np.ndarray:
        return dispersion_symbol(self.k, self.params.j)

    @cached_property
    def nonlocal_smoothing(self) -> np.ndarray:
        out = nonlocal_multiplier(self.k)
        out[self.params.nmax] = 0.0  # k=0 excluded
        return out

    def helmholtz(self, mu: float = 1.0) -> np.ndarray:
        """(1 - mu^2 d_x^2)^(-1) on the lattice: 1/(1 + mu^2 k^2)."""
        return 1.0 / (1.0 + (mu * self.k) ** 2)

    def semigroup(self, t: float) -> np.ndarray:
        """Free-flow phases exp(i t P(k))."""
        return np.exp(1j * t * self.dispersion)


def free_evolution(spec: SpatialSpectrum, t: float) -> SpatialSpectrum:
    """Apply the free group S(t): amps(k) -> exp(i t P(k)) amps(k).

    Unimodular, so every H^s norm is invariant.
    """
    phases = MultiplierSet(spec.params).semigroup(t)
    return spec.with_amps(phases * spec.amps)


def derivative(spec: SpatialSpectrum, order: int = 1) -> SpatialSpectrum:
    mult = (1j * spec.params.k_values()) ** order
    return spec.with_amps(mult * spec.amps)


def nonlinearity_multipliers(k, mu: float = 1.0, kdv: bool = False):
    """F's symbol: F(u,v)^ = m_uv (u v)^ + m_dd (u_x v_x)^; returns (m_uv, m_dd).

    m_uv = ik/2 + ik/(1 + mu^2 k^2) and m_dd = (mu^2/2) ik/(1 + mu^2 k^2);
    kdv=True keeps only the local term, m_uv = ik/2, and m_dd is None.
    """
    k = np.asarray(k, dtype=float)
    ik = 1j * k
    if kdv:
        return 0.5 * ik, None
    smooth = ik / (1.0 + (mu * k) ** 2)
    return 0.5 * ik + smooth, 0.5 * mu * mu * smooth


def mean_coupling(k, mu: float = 1.0, kdv: bool = False):
    """Symbol of u -> 2 F(c, u) / c for a constant c, how the mean drives the rest."""
    return 2.0 * nonlinearity_multipliers(k, mu, kdv)[0]


def padded_product(a, b, params: ModelParams):
    """(amps, zero, tail) of the pointwise product of fields with amplitudes a and b.

    a, b are (..., 2*nmax+1) blocks, one field per row, returned as
    lattice.grid_to_lattice does; b = a saves a transform.  The pad=2 grid
    resolves |k| <= 2*kmax, so the quadratic product is alias-free.
    """
    nx = params.default_grid(pad=2)
    fa = lattice_to_grid(a, params, nx)
    fb = fa if b is a else lattice_to_grid(b, params, nx)
    return grid_to_lattice(fa * fb, params)


def _convolved_product(a, b, params: ModelParams):
    """padded_product of single fields via the lattice convolution (the reference route)."""
    m = params.nmax
    full = np.convolve(a, b) / (TWO_PI_SQRT * params.lam)  # n = -2m .. 2m
    amps = full[m:3 * m + 1].copy()
    amps[m] = 0.0
    return amps, full[2 * m], np.concatenate([full[:m], full[3 * m + 1:]])


def _dropped_mass(tail, lam: float):
    return np.sqrt(np.sum(np.abs(tail) ** 2, axis=-1) / lam)


def nonlinearity_block(a, b, params: ModelParams, mu: float = 1.0, kdv: bool = False,
                       product=padded_product):
    """(F(a, b), tails) for (..., 2*nmax+1) blocks; tails are the products' dropped tails.

    b = a costs 4 FFTs.  Only nonlinearity_F's reference route changes product.
    """
    k = params.k_values()
    m_uv, m_dd = nonlinearity_multipliers(k, mu, kdv)
    prod, _, tail = product(a, b, params)
    if m_dd is None:
        return m_uv * prod, (tail,)
    da = 1j * k * a
    dprod, _, dtail = product(da, da if b is a else 1j * k * b, params)
    return m_uv * prod + m_dd * dprod, (tail, dtail)


def product_spectrum(u1: SpatialSpectrum, u2: SpatialSpectrum,
                     dealias: bool = True) -> SpatialSpectrum:
    """Spectrum of the pointwise product u1*u2, truncated at kmax.

    dealias=False takes the lattice convolution route, the tests' reference.
    Content beyond kmax is recorded as truncation_loss, the k=0 value as zero_mode.
    """
    u1._check_compatible(u2)
    p = u1.params
    product = padded_product if dealias else _convolved_product
    amps, zero, tail = product(u1.amps, u2.amps, p)
    return SpatialSpectrum(p, amps, truncation_loss=float(_dropped_mass(tail, p.lam)),
                           zero_mode=complex(zero))


def nonlinearity_F(u1: SpatialSpectrum, u2: SpatialSpectrum, mu: float = 1.0,
                   kdv: bool = False, dealias: bool = True) -> SpatialSpectrum:
    """The symmetric bilinear nonlinearity; F(u,u) is the model's full nonlinear term.

    kdv=True keeps only 1/2 d_x(u1 u2), the local-dispersion comparison mode.
    Every term carries a d_x, so the output is mean-zero by construction and
    real input yields real output.  dealias is as in product_spectrum.
    """
    u1._check_compatible(u2)
    p = u1.params
    amps, tails = nonlinearity_block(u1.amps, u2.amps, p, mu=mu, kdv=kdv,
                                     product=padded_product if dealias else _convolved_product)
    loss = max(float(_dropped_mass(t, p.lam)) for t in tails)
    return SpatialSpectrum(p, amps, truncation_loss=loss)


def local_form_rhs(u: SpatialSpectrum) -> SpatialSpectrum:
    """Time derivative of m = u - u_xx from the equivalent local form.

    Applying (1 - d_x^2) to the model turns it into
        m_t + d_x^(2j+1) m + u m_x + 2 u_x m = 0,
    so m_t = -d_x^(2j+1) m - u m_x - 2 u_x m.  Used purely as an
    independent cross-check of nonlinearity_F.
    """
    p = u.params
    k = p.k_values()
    m_spec = u.with_amps((1.0 + k * k) * u.amps)
    mx_spec = derivative(m_spec)
    ux_spec = derivative(u)
    adv = product_spectrum(u, mx_spec)
    stretch = product_spectrum(ux_spec, m_spec)
    lin = dispersion_symbol(k, p.j) * 1j * m_spec.amps  # d_x^(2j+1) m has symbol -i P(k)
    return SpatialSpectrum(p, lin - adv.amps - 2.0 * stretch.amps)
