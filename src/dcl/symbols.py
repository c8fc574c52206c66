"""Fourier multipliers of the model: dispersion, free flow, smoothing, nonlinearity.

The linear part is u_t + d_x^(2j+1) u = 0, whose symbol-side solution
operator is the unimodular multiplier exp(i t P(k)) with

    P(k) = (-1)^(j+1) k^(2j+1).

That phase has one rule, free_phases: exp(i t P(n/lam)) on the n > 0 half,
n = 1..nmax, from one cached table of P there (half_dispersion).  The
stepper's integrating factors, Picard's S(t) table and free_evolution all
take it from there, and free_evolution mirrors it onto n < 0 as conjugates:
numpy's float power is not odd bit for bit on every lattice, so a P formed on
the full row would not keep a real field exactly real.  Where P itself is
needed on the full row (pde_residual's generator -i P(k)), dispersion_row
mirrors the same half oddly.

The nonlinearity enters through the symmetric bilinear map

    F(u, v) = 1/2 d_x(u v) + d_x (1 - mu^2 d_x^2)^(-1) [u v + mu^2/2 u_x v_x]

(mu = 1 is the unscaled model; the mu-dressed form appears after dilating
the circle).  F(u, u) is the full nonlinearity moved to the right-hand
side: u_t + d_x^(2j+1) u + F(u, u) = 0.

A real field is its n > 0 half (see lattice), and the kernel under every F,
`FKernel`, takes and returns halves: built once per block shape, it holds
F's symbols and the packing pair's lattice.grid_work buffers.  The stepper
keeps one, `nonlinearity_rows` runs one on a block of halves, and
`real_nonlinearity` builds one per call.  Full rows reach it through
lattice.real_half, which rejects a field that is not real: `nonlinearity_F`
cuts its two spectra that way and mirrors the kernel's output once, with
lattice.hermitian_rows, and `product_spectrum` does the same with the
product under it, `padded_product`.
Products and F are taken one way, on the alias-free pad=2 grid; the lattice
convolution that cross-checks them is an oracle of the tests
(tests/oracles.py), not a route of the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lattice import (
    ModelParams,
    SpatialSpectrum,
    dropped_mass,
    grid_to_lattice,
    grid_work,
    hermitian_rows,
    lattice_to_grid,
    real_half,
)

F_CHUNK = 32  # rows per F evaluation of a block: the FFT buffers stay cache-sized


def dispersion_symbol(k, j: int):
    """P(k) = (-1)^(j+1) k^(2j+1), exact integer arithmetic for integer k."""
    if j < 1:
        raise ValueError("j must be >= 1")
    sign = 1 if j % 2 == 1 else -1
    if isinstance(k, (int, np.integer)):
        return sign * int(k) ** (2 * j + 1)  # Python ints never overflow
    return sign * np.asarray(k, dtype=float) ** (2 * j + 1)


def threshold_coefficient(j: int) -> Fraction:
    """c_j = (2j+1) / (3 4^j), exact: the region thresholds are c_j |k|^(2j) and
    c_j |k|^(2j+1), and 3 c_j is the constant of the resonance bound."""
    return Fraction(2 * j + 1, 3 * 4**j)


def nonlocal_multiplier(k):
    """Symbol i*k/(1+k^2) of d_x (1 - d_x^2)^(-1); peaks at |k|=1 with modulus 1/2."""
    k = np.asarray(k, dtype=float)
    return 1j * k / (1.0 + k * k)


@lru_cache(maxsize=32)
def half_dispersion(params: ModelParams) -> np.ndarray:
    """P(n/lam) for n = 1..nmax, read-only; sliced from the full row, as _kernel_symbols' halves
    are, so the same numbers as P on the full row."""
    disp = dispersion_symbol(params.k_values(), params.j)[params.nmax + 1:]
    disp.setflags(write=False)
    return disp


def dispersion_row(params: ModelParams) -> np.ndarray:
    """P(k) on the full row k = n/lam, n = -nmax..nmax: the odd mirror of half_dispersion, so
    P(-k) = -P(k) bit for bit, which numpy's power on the whole row does not always give."""
    half = half_dispersion(params)
    return np.concatenate([-half[::-1], [0.0], half])


def free_phases(params: ModelParams, t, out=None) -> np.ndarray:
    """exp(i t P(n/lam)) for n = 1..nmax, the one place a free-flow phase is formed.

    t is a float, giving an (nmax,) row, or a 1-d array of times, giving one row per time;
    the result goes to out if given.  t*P is rounded once, so the phase is off by up to
    ulp(t |P|)/2: nothing where t*P fits in 53 bits, a whole radian from t |P| = 2^53 on.
    """
    return np.exp(1j * np.multiply.outer(t, half_dispersion(params)), out=out)


def free_evolution(spec: SpatialSpectrum, t: float) -> SpatialSpectrum:
    """Apply the free group S(t): amps(k) -> exp(i t P(k)) amps(k).

    Unimodular, so every H^s norm is invariant.  The n < 0 phases are the conjugates of
    free_phases' n > 0 half, so a real field stays exactly real.
    """
    p = spec.params
    phases = hermitian_rows(free_phases(p, t))
    phases[p.nmax] = 1.0  # P(0) = 0
    return spec.with_amps(phases * spec.amps)


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


def padded_product(a, b, params: ModelParams, work=None):
    """(pos, zero, tail) of the pointwise products of the real fields with n > 0 halves a and b.

    a, b are sequences of (*batch, nmax) blocks of halves, one field per row, and the products
    pair a's fields with b's.  The result is work.parts (lattice.grid_to_lattice) on the pad=2
    grid nx = params.default_grid(pad=2): that grid resolves |k| <= 2*kmax, so the quadratic
    product is alias-free and tail holds all of it beyond kmax.  One irfft per factor (b = a:
    a alone), one rfft the products.  work = lattice.grid_work(params, nx, len(a), batch) is
    built here if not given, and one for b when b is not a.
    """
    if work is None:
        work = grid_work(params, params.default_grid(pad=2), len(a), np.shape(a[0])[:-1])
    f = lattice_to_grid(a, work)
    if b is a:
        f *= f
    else:
        f *= lattice_to_grid(b, grid_work(params, f.shape[-1], len(b), np.shape(b[0])[:-1]))
    return grid_to_lattice(work)


@lru_cache(maxsize=32)
def _kernel_symbols(params: ModelParams, mu: float, kdv: bool):
    """(ik, m_uv, m_dd) on the n > 0 half of the lattice, read-only; m_dd is None when kdv.

    The halves are sliced from the full rows, so they are the same numbers.
    """
    k = params.k_values()
    cut = slice(params.nmax + 1, None)
    ik = (1j * k)[cut]
    m_uv, m_dd = (None if x is None else x[cut] for x in nonlinearity_multipliers(k, mu, kdv))
    for arr in (ik, m_uv, m_dd):
        if arr is not None:
            arr.setflags(write=False)
    return ik, m_uv, m_dd


class FKernel:
    """F on (*batch, nmax) blocks of halves, the one place F's formula is applied: the symbols
    and pad=2 packing buffers of one (params, mu, kdv, batch), built once.

    kernel(a, b, out=None) is (F(a, b), tails) for the real fields with n > 0 halves a and b
    (a of the kernel's shape): u and u_x (and v, v_x) go through one irfft as one sequence of
    fields (padded_product), their products through one rfft, and F = m_uv (u v)^ + m_dd
    (u_x v_x)^.  tails[..., i, :] is the dropped tail of the i-th product, u v and then
    (unless kdv) u_x v_x, for lattice.dropped_mass on the pad=2 grid: views the next call
    overwrites, so no two threads may call one kernel at once.  F goes to out if given (a's
    shape, no memory shared with a or b), and then a call with b = a allocates nothing.
    """

    def __init__(self, params: ModelParams, mu: float = 1.0, kdv: bool = False, batch=()):
        self.params = params
        self.ik, self.m_uv, self.m_dd = _kernel_symbols(params, mu, kdv)
        self.work = grid_work(params, params.default_grid(pad=2), 1 if kdv else 2, batch)
        prods, _, self.tails = self.work.parts
        self._uv, self._dd = prods[..., 0, :], prods[..., -1, :]  # the products' halves

    def __call__(self, a, b, out=None):
        ik, m_dd = self.ik, self.m_dd
        sa = (a,) if m_dd is None else (a, np.multiply(ik, a, out=out))
        sb = sa if b is a else (b,) if m_dd is None else (b, ik * b)
        padded_product(sa, sb, self.params, self.work)
        out = np.multiply(self.m_uv, self._uv, out=out)
        if m_dd is not None:
            out += np.multiply(m_dd, self._dd, out=self._dd)
        return out, self.tails


def real_nonlinearity(a, b, params: ModelParams, mu: float = 1.0, kdv: bool = False, out=None):
    """(F(a, b), tails) for the real fields with n > 0 halves a and b, (..., nmax) blocks:
    one call of an FKernel built for a's shape, as nonlinearity_F makes it on real_half halves."""
    return FKernel(params, mu, kdv, np.shape(a)[:-1])(a, b, out)


def nonlinearity_rows(u, params: ModelParams, mu: float = 1.0, kdv: bool = False, out=None):
    """F(u, u) for an (n, nmax) block u of halves, bit for bit real_nonlinearity(u, u, ...)[0].

    F_CHUNK rows at a time share one FKernel, so its buffers do not grow with n.
    F goes to out if given, and out is returned: u's shape, sharing no memory with u.
    """
    if out is not None and np.may_share_memory(out, u):
        raise ValueError("out must not share memory with u")
    out = np.empty(u.shape, dtype=complex) if out is None else out
    for lo, hi, kernel in chunk_kernels(params, mu, kdv, len(u)):
        part = u[lo:hi]
        kernel(part, part, out[lo:hi])
    return out


def chunk_kernels(params: ModelParams, mu: float, kdv: bool, n: int) -> list:
    """(lo, hi, kernel) for the F_CHUNK-row blocks of n rows of halves, in order; one
    FKernel serves the whole blocks and one the shorter last block."""
    blocks = [(lo, min(lo + F_CHUNK, n)) for lo in range(0, n, F_CHUNK)]
    kernels = {size: FKernel(params, mu, kdv, (size,)) for size in {hi - lo for lo, hi in blocks}}
    return [(lo, hi, kernels[hi - lo]) for lo, hi in blocks]


def _real_halves(a, b, names):
    """(real_half(a), real_half(b)), named names in errors; one half serves both when b is a."""
    pa = real_half(a, names[0])
    return pa, pa if b is a else real_half(b, names[1])


def product_spectrum(u1: SpatialSpectrum, u2: SpatialSpectrum) -> SpatialSpectrum:
    """Spectrum of the pointwise product u1*u2 of two real fields, truncated at kmax.

    Taken on the pad=2 grid (padded_product), which resolves the whole
    product: content beyond kmax is recorded as truncation_loss, the k=0
    value as zero_mode.  A factor that is not a real field (lattice.real_half)
    is a ValueError.
    """
    u1._check_compatible(u2)
    p = u1.params
    pa, pb = _real_halves(u1.amps, u2.amps, ("u1", "u2"))
    a = (pa,)  # one-field sequences; b is a when u2's half is u1's
    pos, zero, tail = (x[0] for x in padded_product(a, a if pb is pa else (pb,), p))
    return SpatialSpectrum(p, hermitian_rows(pos),
                           truncation_loss=float(dropped_mass(tail, p.default_grid(pad=2), p.lam)),
                           zero_mode=complex(zero))


def nonlinearity_F(u1: SpatialSpectrum, u2: SpatialSpectrum, mu: float = 1.0,
                   kdv: bool = False) -> SpatialSpectrum:
    """The symmetric bilinear nonlinearity; F(u,u) is the model's full nonlinear term.

    kdv=True keeps only 1/2 d_x(u1 u2), the local-dispersion comparison mode.
    Every term carries a d_x, so the output is mean-zero by construction,
    and it is real, as u1 and u2 must be (lattice.real_half).
    truncation_loss is the larger of the two products' losses (one product
    when kdv).
    """
    u1._check_compatible(u2)
    p = u1.params
    out, tails = real_nonlinearity(*_real_halves(u1.amps, u2.amps, ("u1", "u2")), p,
                                   mu=mu, kdv=kdv)
    loss = dropped_mass(tails, p.default_grid(pad=2), p.lam)
    return SpatialSpectrum(p, hermitian_rows(out), truncation_loss=float(np.max(loss)))
