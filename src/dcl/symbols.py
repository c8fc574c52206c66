"""Fourier multipliers of the model: dispersion, free flow, smoothing, nonlinearity.

The linear part is u_t + d_x^(2j+1) u = 0, whose symbol-side solution
operator is the unimodular multiplier exp(i t P(k)) with

    P(k) = (-1)^(j+1) k^(2j+1).

The nonlinearity enters through the symmetric bilinear map

    F(u, v) = 1/2 d_x(u v) + d_x (1 - mu^2 d_x^2)^(-1) [u v + mu^2/2 u_x v_x]

(mu = 1 is the unscaled model; the mu-dressed form appears after dilating
the circle).  F(u, u) is the full nonlinearity moved to the right-hand
side: u_t + d_x^(2j+1) u + F(u, u) = 0.

A real field is its n > 0 half (see lattice), and the kernel under every F,
`real_nonlinearity`, takes and returns halves.  Its callers that hand out
full rows (`nonlinearity_block`, `nonlinearity_F`, and Picard in evolve)
mirror its output once, with lattice.hermitian_rows; `product_spectrum`
does the same with the product under it, `padded_product`.  Products and
F are taken one way, on the alias-free pad=2 grid; the lattice
convolution that cross-checks them is an oracle of the tests
(tests/oracles.py), not a route of the package.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .lattice import (
    ModelParams,
    SpatialSpectrum,
    dropped_mass,
    grid_to_lattice,
    hermitian_parts,
    hermitian_rows,
    is_real_block,
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


def free_evolution(spec: SpatialSpectrum, t: float) -> SpatialSpectrum:
    """Apply the free group S(t): amps(k) -> exp(i t P(k)) amps(k).

    Unimodular, so every H^s norm is invariant.
    """
    p = spec.params
    phases = np.exp(1j * t * dispersion_symbol(p.k_values(), p.j))
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

    a, b are (..., nmax) blocks of halves, one real field per row, or
    sequences of such blocks (lattice.lattice_to_grid).  The result is as
    lattice.grid_to_lattice returns it, on the pad=2 grid
    nx = params.default_grid(pad=2): that grid resolves |k| <= 2*kmax, so
    the quadratic product is alias-free and tail holds all of it beyond
    kmax.  One irfft per factor (b = a: a alone), one rfft the products,
    into work (lattice.grid_work for a's fields) if given.
    """
    nx = params.default_grid(pad=2) if work is None else work.grid.shape[-1]
    f = lattice_to_grid(a, params, nx, work)
    if b is a:
        f *= f
    else:
        f *= lattice_to_grid(b, params, nx)
    return grid_to_lattice(f, params, work)


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


def real_nonlinearity(a, b, params: ModelParams, mu: float = 1.0, kdv: bool = False,
                      out=None, work=None):
    """(F(a, b), tails) for the real fields with n > 0 halves a and b, (..., nmax) blocks.

    The kernel under every F, and the one place F's formula is applied:
    u and u_x (and v, v_x) go through one irfft as one sequence of fields
    (padded_product), their products through one rfft, and F = m_uv (u v)^
    + m_dd (u_x v_x)^.  It takes and returns halves.  tails[..., i, :] is
    the dropped tail of the i-th product, u v and then (unless kdv) u_x v_x,
    for lattice.dropped_mass on the pad=2 grid.  The stepper and Picard,
    whose states are halves, call this directly; other callers use
    nonlinearity_block.  F goes to out if given: a's shape, no memory
    shared with a or b.  With work = lattice.grid_work(params,
    params.default_grid(pad=2), nf) too, for one (nmax,) half and nf = 1
    (kdv) or 2, the call allocates nothing.
    """
    ik, m_uv, m_dd = _kernel_symbols(params, mu, kdv)

    def fields(x, x_out=None):
        return (x,) if m_dd is None else (x, np.multiply(ik, x, out=x_out))

    sa = fields(a, out)
    prods, _, tails = padded_product(sa, sa if b is a else fields(b), params, work)
    out = np.multiply(m_uv, prods[..., 0, :], out=out)
    if m_dd is not None:
        out += np.multiply(m_dd, prods[..., 1, :], out=prods[..., 1, :])
    return out, tails


def _on_complex_rows(kernel, a, b, params: ModelParams):
    """(out, *extras, losses) of a bilinear kernel of real fields, applied to any full rows a, b.

    kernel(a, b, params) takes n > 0 halves and returns (out, *extras,
    tails), as padded_product and real_nonlinearity do: out a block of
    halves, which is mirrored here to full rows, and extras one value per
    row (padded_product's zero mode); losses are the tails' dropped masses.
    Rows that are not all exactly Hermitian are split, a = h + i g
    (lattice.hermitian_parts), and the kernel runs once on the stacked cross
    terms: by bilinearity a b = (h_a h_b - g_a g_b) + i (h_a g_b + g_a h_b).
    A complex tail's mass is the root sum of squares of the masses of its
    real and imaginary parts' tails.
    """
    nx = params.default_grid(pad=2)
    m = params.nmax
    if is_real_block(a) and (b is a or is_real_block(b)):
        pa = a[..., m + 1:]
        out, *extras, tails = kernel(pa, pa if b is a else b[..., m + 1:], params)
        return (hermitian_rows(out), *extras, dropped_mass(tails, nx, params.lam))
    ha, ga = hermitian_parts(a)
    hb, gb = (ha, ga) if b is a else hermitian_parts(b)
    out, *extras, t = kernel(np.stack([ha, ga, ha, ga])[..., m + 1:],
                             np.stack([hb, gb, gb, hb])[..., m + 1:], params)
    re, im = hermitian_rows(np.stack([out[0] - out[1], out[2] + out[3]]))
    extras = [x[0] - x[1] + 1j * (x[2] + x[3]) for x in extras]
    loss = np.hypot(dropped_mass(t[0] - t[1], nx, params.lam),
                    dropped_mass(t[2] + t[3], nx, params.lam))
    return (re + 1j * im, *extras, loss)


def nonlinearity_block(a, b, params: ModelParams, mu: float = 1.0, kdv: bool = False):
    """(F(a, b), losses) for (..., 2*nmax+1) blocks of any complex rows.

    Exactly Hermitian rows (real fields) go straight to real_nonlinearity
    as halves; other rows go through it as real and imaginary parts, F
    being bilinear.  The output rows are full, mirrored once.
    losses[..., i] is the truncation loss of F's i-th product (u v, then
    u_x v_x unless kdv) per row.
    """
    return _on_complex_rows(partial(real_nonlinearity, mu=mu, kdv=kdv), a, b, params)


def product_spectrum(u1: SpatialSpectrum, u2: SpatialSpectrum) -> SpatialSpectrum:
    """Spectrum of the pointwise product u1*u2, truncated at kmax.

    Taken on the pad=2 grid (padded_product), which resolves the whole
    product: content beyond kmax is recorded as truncation_loss, the k=0
    value as zero_mode.
    """
    u1._check_compatible(u2)
    p = u1.params
    amps, zero, loss = _on_complex_rows(padded_product, u1.amps, u2.amps, p)
    return SpatialSpectrum(p, amps, truncation_loss=float(loss), zero_mode=complex(zero))


def nonlinearity_F(u1: SpatialSpectrum, u2: SpatialSpectrum, mu: float = 1.0,
                   kdv: bool = False) -> SpatialSpectrum:
    """The symmetric bilinear nonlinearity; F(u,u) is the model's full nonlinear term.

    kdv=True keeps only 1/2 d_x(u1 u2), the local-dispersion comparison mode.
    Every term carries a d_x, so the output is mean-zero by construction and
    real input yields real output.  truncation_loss is the larger of the
    two products' losses (one product when kdv).
    """
    u1._check_compatible(u2)
    amps, losses = nonlinearity_block(u1.amps, u2.amps, u1.params, mu=mu, kdv=kdv)
    return SpatialSpectrum(u1.params, amps, truncation_loss=float(np.max(losses)))
