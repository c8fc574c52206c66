"""Reference routes the tests check dcl against; the package itself has one route per idea.

- `lattice_convolution` is the normalized lattice convolution
  (1/lam) * sum_{k1} a(k-k1) b(k1), one np.convolve per row.  `convolve`,
  `product_spectrum` and `nonlinearity_F` are built on it, with F spelled
  out from the public symbol `nonlinearity_multipliers`; dcl takes the same
  products on a padded FFT grid instead.
- `local_form_rhs` is the model's equivalent local form, an independent
  check of F.
- `st_from_cells`, `st_value_at` and `st_sigma_of` build, read and place
  single cells of a SpaceTimeSpectrum; sigma is computed in exact rationals.
- `region_partition_report` is dcl.bourgain.verify_regions' region-partition
  report with each label checked against `region_memberships` one point at a time.
- `NormSpec` and `norm` select and evaluate one of the five norms by name;
  dcl calls each norm directly.  `zs_norm_by_cells` is Z^s with every cell
  classified by region_codes; dcl.bourgain.zs_norm compares each cell with
  two per-band bounds instead.
- `rescale_state` is the per-state dilation that dcl.rescale.rescale_trajectory
  applies to a whole trajectory block at once.
- `exactly_hermitian` tests rows for exact mirror symmetry, and
  `real_half_reference` is dcl.lattice.real_half's rule measured on every
  row, as it was written before the rule skipped exactly Hermitian rows.
- `scaled_triple_check` checks the resonance bound for a triple on the
  1/lam lattice by scaling it to integers.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dcl import bourgain
from dcl.bourgain import REGION_LABELS, SpaceTimeSpectrum, region_memberships
from dcl.evolve import SolverState
from dcl.lattice import TWO_PI_SQRT, SpatialSpectrum, bracket, hs_norm, lattice_ks
from dcl.rescale import rescale_field
from dcl.resonance import Triple, bound_num_den, resonance_magnitude
from dcl.symbols import dispersion_symbol, nonlinearity_multipliers


# -- the lattice convolution and the products on it ------------------------------------

def lattice_convolution(a, b, params, divisor=1.0):
    """(amps, zero, loss) of (1/(divisor*lam)) * sum_{k1} a(k-k1) b(k1) for full rows a, b.

    a, b are (..., 2*nmax+1) blocks of any complex rows.  amps are the
    output rows truncated at kmax with the k=0 slot zeroed, zero is the
    k=0 value and loss the L2 mass (counting measure) of the content
    beyond kmax, per row.
    """
    m = params.nmax
    a, b = np.asarray(a), np.asarray(b)
    rows = zip(np.reshape(a, (-1, 2 * m + 1)), np.reshape(b, (-1, 2 * m + 1)))
    full = np.array([np.convolve(x, y) for x, y in rows]) / (divisor * params.lam)
    full = full.reshape(a.shape[:-1] + (4 * m + 1,))  # n = -2m .. 2m
    amps = full[..., m:3 * m + 1].copy()
    amps[..., m] = 0.0
    tail = np.concatenate([full[..., :m], full[..., 3 * m + 1:]], axis=-1)
    loss = np.sqrt(np.sum(np.abs(tail) ** 2, axis=-1) / params.lam)
    return amps, full[..., 2 * m], loss


def convolve(a: SpatialSpectrum, b: SpatialSpectrum) -> SpatialSpectrum:
    """The lattice convolution of two spectra, with its truncation_loss and zero_mode.

    The transform of a pointwise product is (2*pi)^(-1/2) times this
    convolution under the symmetric convention.
    """
    a._check_compatible(b)
    amps, zero, loss = lattice_convolution(a.amps, b.amps, a.params)
    return SpatialSpectrum(a.params, amps, truncation_loss=float(loss), zero_mode=complex(zero))


def product_spectrum(u1: SpatialSpectrum, u2: SpatialSpectrum) -> SpatialSpectrum:
    """dcl.symbols.product_spectrum on the convolution route."""
    u1._check_compatible(u2)
    amps, zero, loss = lattice_convolution(u1.amps, u2.amps, u1.params, TWO_PI_SQRT)
    return SpatialSpectrum(u1.params, amps, truncation_loss=float(loss), zero_mode=complex(zero))


def derivative(spec: SpatialSpectrum, order: int = 1) -> SpatialSpectrum:
    """d_x^order on the lattice: the symbol (ik)^order."""
    return spec.with_amps((1j * spec.params.k_values()) ** order * spec.amps)


def nonlinearity_F(u1: SpatialSpectrum, u2: SpatialSpectrum, mu: float = 1.0,
                   kdv: bool = False) -> SpatialSpectrum:
    """dcl.symbols.nonlinearity_F on the convolution route: m_uv (u v)^ + m_dd (u_x v_x)^.

    truncation_loss is the larger of the two products' losses.
    """
    m_uv, m_dd = nonlinearity_multipliers(u1.params.k_values(), mu, kdv)
    uv = product_spectrum(u1, u2)
    amps, losses = m_uv * uv.amps, [uv.truncation_loss]
    if m_dd is not None:
        dd = product_spectrum(derivative(u1), derivative(u2))
        amps = amps + m_dd * dd.amps
        losses.append(dd.truncation_loss)
    return SpatialSpectrum(u1.params, amps, truncation_loss=max(losses))


def local_form_rhs(u: SpatialSpectrum) -> SpatialSpectrum:
    """Time derivative of m = u - u_xx from the equivalent local form.

    Applying (1 - d_x^2) to the model turns it into
        m_t + d_x^(2j+1) m + u m_x + 2 u_x m = 0,
    so m_t = -d_x^(2j+1) m - u m_x - 2 u_x m: no nonlocal operator, so an
    independent cross-check of nonlinearity_F.
    """
    p = u.params
    k = p.k_values()
    m_spec = u.with_amps((1.0 + k * k) * u.amps)
    adv = product_spectrum(u, derivative(m_spec))
    stretch = product_spectrum(derivative(u), m_spec)
    lin = dispersion_symbol(k, p.j) * 1j * m_spec.amps  # d_x^(2j+1) m has symbol -i P(k)
    return SpatialSpectrum(p, lin - adv.amps - 2.0 * stretch.amps)


# -- single cells of a space-time spectrum ------------------------------------------

def st_from_cells(params, dtau, cells, tau0=0.0) -> SpaceTimeSpectrum:
    """A SpaceTimeSpectrum from {(k, m): amp}, one cell each, with tau = tau0 + m*dtau."""
    bands = {}
    for (k, m), v in cells.items():
        bands.setdefault(int(round(k * params.lam)), []).append((int(m), np.array([v], complex)))
    return SpaceTimeSpectrum(params, dtau, tau0, bands)


def st_value_at(u: SpaceTimeSpectrum, n: int, m: int) -> complex:
    """The amplitude of cell m of band n, 0 where u has no cell."""
    for m0, arr in u.bands.get(n, []):
        if m0 <= m < m0 + len(arr):
            return complex(arr[m - m0])
    return 0j


def st_sigma_of(u: SpaceTimeSpectrum, n: int, m0: int, length: int) -> np.ndarray:
    """Cell-center modulations tau0 + m*dtau - P(n/lam) of cells m0 .. m0+length-1 of band n.

    Each is computed in exact rationals and rounded once.
    """
    j = u.params.j
    pk = (-1) ** (j + 1) * (Fraction(n) / Fraction(u.params.lam)) ** (2 * j + 1)
    tau0, dtau = Fraction(u.tau0), Fraction(u.dtau)
    return np.array([float(tau0 + (m0 + i) * dtau - pk) for i in range(length)])


# -- the region-partition report, point by point ---------------------------------------

def region_partition_report(params, kbound=64.0, sigma_bound=1e4, n_sigma=65) -> dict:
    """dcl.bourgain.verify_regions' report on the same (k, sigma) grid, one scalar check per point.

    The grid is classified by dcl.bourgain.region_codes in one call (looked up
    at call time, so a patched classifier is seen), and each label is checked
    with region_memberships on floats; code 0 counts as a mislabel.
    """
    kbound = min(kbound, params.kmax)
    sigmas = np.concatenate([
        np.linspace(-sigma_bound, sigma_bound, n_sigma),
        np.geomspace(1e-3, sigma_bound, 16),
    ])
    ks = [sign * k for k in lattice_ks(kbound, params.lam).tolist() for sign in (1, -1)]
    # P(k) computed as the oracle computes it, so both see the same sigma
    pk = np.array([dispersion_symbol(k, params.j) for k in ks])[:, None]
    taus = pk + sigmas
    codes = bourgain.region_codes(np.array(ks)[:, None], np.abs(taus - pk), params)
    bad = 0
    for k, row_tau, row_code in zip(ks, taus.tolist(), codes.tolist()):
        for tau, code in zip(row_tau, row_code):
            if code == 0 or not region_memberships(k, tau, params)[REGION_LABELS[code]]:
                bad += 1
    return {"points": codes.size, "mislabels": bad, "pass": bad == 0,
            "kbound": kbound, "sigma_bound": sigma_bound}


# -- the norms by name ---------------------------------------------------------------

@dataclass(frozen=True)
class NormSpec:
    """Selects one of the five norms: kind in {Hs, Xsb, Ys, Zs, Ws}."""

    kind: str
    s: float
    b: float | None = None

    def __post_init__(self):
        if self.kind not in ("Hs", "Xsb", "Ys", "Zs", "Ws"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "Xsb" and (self.b is None or not math.isfinite(self.b)):
            raise ValueError("Xsb requires a finite b")


def norm(obj, ns: NormSpec) -> float:
    """Evaluate any NormSpec: Hs on spatial spectra, the rest on space-time spectra."""
    if ns.kind == "Hs":
        if not isinstance(obj, SpatialSpectrum):
            raise TypeError("Hs acts on spatial spectra")
        return hs_norm(obj, ns.s)
    if not isinstance(obj, SpaceTimeSpectrum):
        raise TypeError(f"{ns.kind} acts on space-time spectra")
    if ns.kind == "Xsb":
        return bourgain.xsb_norm(obj, ns.s, ns.b)
    if ns.kind == "Ys":
        return bourgain.ys_norm(obj, ns.s)
    if ns.kind == "Zs":
        return bourgain.zs_norm(obj, ns.s)
    return bourgain.ws_norm(obj, ns.s)


def zs_norm_by_cells(u: SpaceTimeSpectrum, s: float) -> float:
    """dcl.bourgain.zs_norm with a region code per cell and one bincount per (band, term)."""
    sk, sb = 2.0 * np.array([*bourgain.zs_weights(s, u.params.j), (0.0, 0.0)]).T
    seg, factor, band, sig = u._norm_cells
    codes = bourgain.region_codes(u._band_k[band], np.abs(sig), u.params)
    term = np.array([3, 0, 1, 2, 2, 0])[codes]  # D1, D5 -> 0; D2 -> 1; D3, D4 -> 2; excluded -> 3
    cell = bracket(sig) ** sb[term] * np.abs(u.amps[u.offsets[seg]:]) ** 2
    per_band = np.bincount(4 * band + term, cell, 4 * u._band_k.size).reshape(-1, 4)
    totals = factor * np.sum(per_band * bracket(u._band_k)[:, None] ** sk, axis=0)
    return float(np.sqrt(totals[:3] * u.dtau / u.params.lam).sum()) + bourgain.ys_norm(u, s)


# -- the dilation, one state at a time ----------------------------------------------------

def rescale_state(state: SolverState, mu: float) -> SolverState:
    """state under u -> mu^(-2j) u(x/mu, t/mu^(2j+1)): t, spectrum and mean each rescaled."""
    j = state.spec.params.j
    return SolverState(
        t=state.t * mu ** (2 * j + 1),
        spec=rescale_field(state.spec, mu),
        mean=state.mean * mu ** (-2 * j),
    )


# -- the realness rule, every row measured ------------------------------------------------

def exactly_hermitian(amps) -> bool:
    """True iff every (..., 2*nmax+1) row is exactly Hermitian, amps(-k) == conj(amps(k))."""
    a = np.asarray(amps)
    return bool(np.array_equal(a, np.conj(a[..., ::-1])))


def real_half_reference(amps, what: str, tol: float = 1e-12) -> np.ndarray:
    """dcl.lattice.real_half's verdict and message, with every row's maximum and gap taken."""
    a = np.asarray(amps)
    h = (a.shape[-1] + 1) // 2
    top = np.abs(a).max(axis=-1)
    if not np.isfinite(top).all():
        raise ValueError(f"{what} has a non-finite amplitude")
    gap = np.abs(a[..., :h] - np.conj(a[..., :-h - 1:-1])).max(axis=-1)
    if not (gap <= tol * top).all():
        raise ValueError(f"{what} must be a real field (a Hermitian spectrum, "
                         "amps(-k) = conj(amps(k)))")
    return a[..., h:]


# -- the resonance bound on a scaled lattice ----------------------------------------------

def scaled_triple_check(k: float, k1: float, k2: float, lam: int, j: int) -> dict:
    """Check the bound for a triple on the 1/lam lattice via integer scaling.

    Frequencies n/lam map to integers by multiplying through by lam; the
    bound is homogeneous of degree 2j+1, so both sides divide by lam^(2j+1).
    """
    ints = []
    for x in (k, k1, k2):
        n = x * lam
        if abs(n - round(n)) > 1e-9:
            raise ValueError(f"{x} is not on the 1/{lam} lattice")
        ints.append(int(round(n)))
    t = Triple(*ints)
    res = resonance_magnitude(t, j)
    num, den = bound_num_den(t, j)
    scale = lam ** (2 * j + 1)
    return {
        "resonance": res / scale,
        "bound": num / (den * scale),
        "holds": res * den >= num,
    }
