"""Space-time spectra, the five-region frequency decomposition, and restriction norms.

A space-time frequency point (k, tau) is measured by its modulation
sigma = tau - P(k), the distance to the characteristic surface of the free
flow.  With c_j = (2j+1) 4^(-j) / 3, the lattice splits into

    D1: |sigma| <= c_j |k|^(2j),                        |k| >= 1
    D2: c_j |k|^(2j) < |sigma| < c_j |k|^(2j+1),        |k| >= 1
    D3: |sigma| >= c_j |k|^(2j+1),                      |k| >= 1
    D4: |sigma| >  c_j |k|^(2j+1),                      1/lam <= |k| <= 1
    D5: |sigma| <= c_j |k|^(2j+1),                      1/lam <= |k| <= 1

Boundary ties: the inequalities are closed/open exactly as written; where
that leaves an overlap (|k| = 1, and sigma = c_j|k|^(2j) = c_j|k|^(2j+1)
when |k| = 1), the large-k family D1/D2/D3 wins and D1 takes precedence
over D3.  These rules live only in region_codes, the one classifier;
region_memberships keeps the raw inequalities as its oracle.  The composite
norm, with its exponent pairs in zs_weights, is

    Z^s = X_{s,(2j-1)/(2j)} on D1+D5  +  X_{(1-2j)(s-1),s} on D2
        + X_{-(s-1)/j-1,(s-1)/j+1} on D3+D4  +  Y^s (unrestricted),

with X_{s,b} = ||<k>^s <sigma>^b F u||_{L2}, Y^s = ||<k>^s F u||_{L2_k L1_tau},
and W^s = X_{s,1/2} + Y^s.

Discretization: tau lives on a uniform grid tau = tau0 + m*dtau with global
integer index m.  A spectrum is one flat layout, built once: a contiguous
buffer amps of all its cells, and a segment table of runs of consecutive
cells (band n with k = n/lam, first index m0, offsets into amps), sorted by
(n, m0).  The per-k "bands" dict, n -> [(m0, amps)], is a view of that
table whose arrays are slices of the buffer.  m0 is exact: int64 while it
is small, Python ints beyond 2^62, so segments may sit at astronomically
large tau (near P(k) for large k) without losing the exact integer offset.
sigma has one rule: a table cached per (params, dtau) holds each band's
exact index M_n = round(P(n/lam)/dtau) and residual r_n = M_n*dtau -
P(n/lam), rounded once from rationals (dtau as 1/q when 1/dtau is within
1e-12 of an integer q), and cell m has sigma = dtau*(m - M_n) + (tau0 +
r_n), precise at any tau and lam; from_characteristic centres its windows
on M_n.  Every operation (convolution, symbols, norms) runs on the whole
buffer at once, with per-band factors (k symbols, <k> powers, region
thresholds) computed once per band.  L2(dtau) is (sum |a|^2 dtau)^(1/2)
and L1(dtau) is sum |a| dtau, with weights evaluated at cell centers.
Z^s sorts each cell into its term by two per-band bounds on |sigma|
(_zs_bounds), region_codes' thresholds and ties in ">=" form.

A spectrum that from_time_samples builds from samples of real fields is
marked as a real field: its n < 0 bands are the exact conjugate mirrors of
its n > 0 bands, cell for cell.  Its norms read only the cells of the n > 0
bands, a contiguous tail of the layout, and count each band sum twice.
The lift itself is _lift_halves, which takes the n > 0 halves directly.
Every other spectrum, including anything derived from a marked one, is
unmarked and its norms read every cell once.
"""

from __future__ import annotations

import math
from dataclasses import replace
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import lattice
from .lattice import (
    ModelParams,
    SpatialSpectrum,
    bracket,
    is_integer,
    lattice_ks,
    real_half,
    uniform_step,
)
from .symbols import (dispersion_symbol, nonlinearity_multipliers, nonlocal_multiplier,
                      threshold_coefficient)


class RegionLabel(Enum):
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"
    D5 = "D5"
    EXCLUDED = "Excluded"


@lru_cache(maxsize=None)
def region_coefficient(j: int) -> float:
    """The modulation threshold coefficient c_j = (2j+1) 4^(-j) / 3, correctly rounded."""
    return float(threshold_coefficient(j))


def sigma(k, tau, params: ModelParams):
    """Modulation sigma = tau - P(k)."""
    return tau - dispersion_symbol(k, params.j)


def region_memberships(k, tau, params: ModelParams) -> dict:
    """Raw membership of (k, tau) in each region, inequalities exactly as defined.

    Floats give a dict of bools, broadcast arrays a dict of bool arrays.
    Boundary points can belong to several regions here; region_codes
    applies the documented tie resolution.  The independent oracle of the
    partition tests and of the region-partition report.
    """
    j = params.j
    c = region_coefficient(j)
    ak = abs(k)
    s = abs(sigma(k, tau, params))
    scalar = np.ndim(s) == 0
    if scalar:
        s = float(s)  # comparisons on numpy scalars cost several times more
    # float_power is libm pow, as float ** is, so arrays and floats agree
    power = np.float_power if isinstance(ak, np.ndarray) else pow
    lo, hi = c * power(ak, 2 * j), c * power(ak, 2 * j + 1)
    big = ak >= 1.0
    small = (1.0 / params.lam <= ak) & (ak <= 1.0)
    members = {
        RegionLabel.D1: big & (s <= lo),
        RegionLabel.D2: big & (lo < s) & (s < hi),
        RegionLabel.D3: big & (s >= hi),
        RegionLabel.D4: small & (s > hi),
        RegionLabel.D5: small & (s <= hi),
    }
    if scalar:
        return {label: bool(inside) for label, inside in members.items()}
    return members


def region_thresholds(ak, j: int):
    """The modulation thresholds (c_j |k|^(2j), c_j |k|^(2j+1)) at |k| = ak.

    Arrays use np.float_power, which calls libm pow as float ** does; numpy's
    SIMD ** can be an ulp off it, and array and scalar calls would disagree.
    """
    c = region_coefficient(j)
    power = np.float_power if isinstance(ak, np.ndarray) else pow
    return c * power(ak, 2 * j), c * power(ak, 2 * j + 1)


def region_codes(k, abs_sigma, params: ModelParams):
    """Region code of (k, |sigma|): 0 excluded, 1..5 for D1..D5; floats or broadcast arrays.

    Tie rules: k = 0 is excluded, |k| within 1e-12 of 1/lam or kmax is
    inside, and at |k| = 1 the large-k family wins with D1 before D3.
    """
    ak = abs(k)
    lo, hi = region_thresholds(ak, params.j)
    inside = (ak != 0.0) & (ak >= 1.0 / params.lam - 1e-12) & (ak <= params.kmax + 1e-12)
    above_lo = abs_sigma > lo
    large = (ak >= 1.0) * (1 + above_lo + (above_lo & (abs_sigma >= hi)))
    small = (ak < 1.0) * (5 - (abs_sigma > hi))
    return inside * (large + small)


REGION_LABELS = (RegionLabel.EXCLUDED, RegionLabel.D1, RegionLabel.D2, RegionLabel.D3,
                 RegionLabel.D4, RegionLabel.D5)  # indexed by region code


def classify_region(k: float, tau: float, params: ModelParams) -> RegionLabel:
    """Assign the unique region of a lattice point; Excluded iff |k| outside [1/lam, kmax]."""
    # plain floats: region_codes on numpy scalars is several times slower
    abs_sigma = float(abs(sigma(k, tau, params)))
    return REGION_LABELS[region_codes(float(abs(k)), abs_sigma, params)]


# -- space-time spectra ---------------------------------------------------------

def _ints(values) -> np.ndarray:
    """Exact integers: int64 when every |value| < 2^62, Python ints (dtype object) otherwise.

    Below 2^62 the sum or difference of two such arrays cannot overflow int64;
    tau offsets near P(k) for large k (2^93 at k = 1024, j = 4) stay Python ints.
    """
    try:
        arr = np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)
    if arr.size and (arr.max() >= 2**62 or arr.min() <= -2**62):
        return arr.astype(object)
    return arr


def _cell_offsets(offsets: np.ndarray) -> np.ndarray:
    """Each cell's index inside its segment, for segments amps[offsets[i]:offsets[i+1]]."""
    return np.arange(offsets[-1]) - np.repeat(offsets[:-1], offsets[1:] - offsets[:-1])


def _assemble(n, m0, length, buf, keep=None):
    """The flat layout of segments that tile buf in order: (n[i], m0[i]) and length[i] cells.

    The kept segments (all by default) are sorted by (n, m0); within a band,
    segments that overlap or touch merge into one, summed where they
    overlap.  Returns (seg_n, seg_m0, offsets, amps).
    """
    keep = length > 0 if keep is None else keep & (length > 0)
    kept = np.flatnonzero(keep)[np.lexsort((m0[keep], n[keep]))]
    if not kept.size:
        return n[:0], m0[:0], np.zeros(1, dtype=np.int64), np.zeros(0, dtype=complex)
    n_k, m0_k = n[kept], m0[kept]
    end = m0_k + length[kept]
    band_starts = n_k[1:] != n_k[:-1]
    cuts = [0, *(np.flatnonzero(band_starts) + 1).tolist(), n_k.size]
    reach = end.copy()  # the furthest end of the band so far
    for a, b in zip(cuts, cuts[1:]):
        reach[a:b] = np.maximum.accumulate(end[a:b])
    new = np.ones(n_k.size, dtype=bool)
    new[1:] = band_starts | (m0_k[1:] > reach[:-1])
    first = np.flatnonzero(new)
    seg = np.cumsum(new) - 1  # output segment of each kept segment
    out_m0 = m0_k[first]
    offsets = np.zeros(first.size + 1, dtype=np.int64)
    last = np.append(first[1:], n_k.size) - 1
    np.cumsum((reach[last] - out_m0).astype(np.int64), out=offsets[1:])
    # where each kept segment's first cell lands; dropped ones land past the end, cut off below
    at = np.full(n.size, offsets[-1])
    at[kept] = offsets[seg] + (m0_k - out_m0[seg]).astype(np.int64)
    dst = np.repeat(at - (np.cumsum(length) - length), length)
    dst += np.arange(buf.size)
    amps = np.zeros(offsets[-1] + length.max(), dtype=complex)
    np.add.at(amps, dst, buf)
    return n_k[first], _ints(out_m0), offsets, amps[:offsets[-1]]


def _check_dtau(dtau: float):
    if not (math.isfinite(dtau) and dtau > 0 and math.isfinite(1.0 / dtau)):
        raise ValueError(f"dtau must be finite and positive with a finite reciprocal, got {dtau}")


@lru_cache(maxsize=64)
def _characteristic(params: ModelParams, dtau: float):
    """(M, r, step): the sigma table of the module docstring, rows n + nmax for n = -nmax..nmax.

    step is dtau as the exact fraction the table uses: 1/q when 1/dtau is
    within 1e-12 of an integer q >= 1, else the float's value.  In integers,
    P(n/lam)/step = num_n/den; M_n rounds it (halves up), and r_n = (M_n*den
    - num_n)/out is one correctly rounded quotient.
    """
    q, lam, e = round(1.0 / dtau), Fraction(params.lam), 2 * params.j + 1
    step = Fraction(1, q) if q >= 1 and abs(1.0 / dtau - q) < 1e-12 else Fraction(dtau)
    scale = lam.denominator ** e * step.denominator
    den, out = lam.numerator ** e * step.numerator, lam.numerator ** e * step.denominator
    num = [scale * dispersion_symbol(n, params.j) for n in range(-params.nmax, params.nmax + 1)]
    index = [(2 * a + den) // (2 * den) for a in num]
    return _ints(index), np.array([(m * den - a) / out for m, a in zip(index, num)]), step


class SpaceTimeSpectrum:
    """Sparse banded amplitudes over (k, tau) cells in one flat layout; see the module docstring.

    amps holds every cell.  Segment i covers amps[offsets[i]:offsets[i+1]] in band seg_n[i]
    (k = n/lam, 0 < |n| <= nmax), with cell centers tau = tau0 + m*dtau for m = seg_m0[i],
    seg_m0[i] + 1, ...; segments are sorted by (n, m0) and neither overlap nor touch.  bands
    maps n to that band's [(m0, view), ...], the views into amps.  The constructor takes such
    a dict, with segments in any order, overlapping or touching, and sums them; any other
    band n is a ValueError.  Immutable once built, except that bilinear_output scales and
    sums into the amps of its own fresh output.
    """

    def __init__(self, params: ModelParams, dtau: float, tau0: float = 0.0,
                 bands: dict | None = None):
        _check_dtau(dtau)
        ns, m0s, rows = [], [], []
        for n, segs in (bands or {}).items():
            if not 0 < abs(n) <= params.nmax:  # the zero mode is excluded from spectra
                raise ValueError(f"band n={n} is not in 0 < |n| <= nmax={params.nmax}")
            for m0, a in segs:
                ns.append(int(n))
                m0s.append(int(m0))
                rows.append(np.asarray(a, dtype=complex))
        length = np.array([a.size for a in rows], dtype=np.int64)
        buf = np.concatenate(rows) if rows else np.zeros(0, dtype=complex)
        layout = _assemble(np.array(ns, dtype=np.int64), _ints(m0s), length, buf)
        self._set_layout(params, dtau, tau0, *layout, 0.0)

    def _set_layout(self, params, dtau, tau0, seg_n, seg_m0, offsets, amps, truncated_mass):
        self.params, self.dtau, self.tau0 = params, dtau, tau0
        self.seg_n, self.seg_m0, self.offsets, self.amps = seg_n, seg_m0, offsets, amps
        self.truncated_mass = truncated_mass
        self._real = False  # set by from_time_samples only; see _norm_cells
        new_band = np.ones(seg_n.size, dtype=bool)  # the band table: seg_n is sorted
        new_band[1:] = seg_n[1:] != seg_n[:-1]
        self._band_n, self._seg_band = seg_n[new_band], np.cumsum(new_band) - 1
        self._band_k = self._band_n / params.lam

    @classmethod
    def _from_layout(cls, params, dtau, tau0, seg_n, seg_m0, offsets, amps,
                     truncated_mass=0.0) -> "SpaceTimeSpectrum":
        """Wrap a layout that is already sorted and disjoint, without copying it."""
        out = cls.__new__(cls)
        out._set_layout(params, dtau, tau0, seg_n, seg_m0, offsets, amps, truncated_mass)
        return out

    def _with_amps(self, amps) -> "SpaceTimeSpectrum":
        """The same cells with new amplitudes, unmarked; the segment table is shared."""
        return SpaceTimeSpectrum._from_layout(self.params, self.dtau, self.tau0, self.seg_n,
                                              self.seg_m0, self.offsets, amps)

    @cached_property
    def bands(self) -> dict:
        bands = {}
        for n, m0, a, b in zip(self.seg_n.tolist(), self.seg_m0.tolist(),
                               self.offsets[:-1].tolist(), self.offsets[1:].tolist()):
            bands.setdefault(n, []).append((m0, self.amps[a:b]))
        return bands

    @cached_property
    def _cell_band(self) -> np.ndarray:
        """Each cell's index into the band table _band_n."""
        return np.repeat(self._seg_band, self.offsets[1:] - self.offsets[:-1])

    @cached_property
    def _sigma(self) -> np.ndarray:
        """Every cell's modulation, in layout order."""
        return self._segment_sigma(self._band_n, self._seg_band, self.seg_m0, self.offsets)

    @cached_property
    def _norm_cells(self):
        """(seg, factor, cell bands, sigmas): the norms read the cells amps[offsets[seg]:].

        A marked real field's n < 0 bands mirror its n > 0 bands cell for
        cell, with equal |amps|, |k| and |sigma|: the norms read the cells
        from its first n > 0 segment seg on, and factor = 2 counts each band
        sum twice.  Otherwise seg = 0 and factor = 1.
        """
        if not self._real:
            return 0, 1.0, self._cell_band, self._sigma
        seg = int(np.searchsorted(self.seg_n, 0))
        offsets = self.offsets[seg:] - self.offsets[seg]
        band = self._seg_band[seg:]
        return (seg, 2.0, np.repeat(band, np.diff(offsets)),
                self._segment_sigma(self._band_n, band, self.seg_m0[seg:], offsets))

    def _k_symbol(self, fn) -> np.ndarray:
        """fn(k) per cell: fn is called once, on the array of band ks, mapping it elementwise."""
        return fn(self._band_k)[self._cell_band]

    def _segment_sigma(self, band_n, band, seg_m0, offsets) -> np.ndarray:
        """Cell-center modulations dtau*((m0 - M_n) + i) + (tau0 + r_n) of segments.

        Segment i lies in band n = band_n[band[i]]; M_n and r_n are its row
        of the _characteristic table, and m0 - M_n is exact.
        """
        index, residual, _ = _characteristic(self.params, self.dtau)
        rows = (band_n + self.params.nmax)[band]
        length = offsets[1:] - offsets[:-1]
        r0 = (seg_m0 - index[rows]).astype(float)  # exact; float conversion only here
        return (self.dtau * (np.repeat(r0, length) + _cell_offsets(offsets))
                + np.repeat(self.tau0 + residual[rows], length))

    def cells(self):
        """Yield (n, m0, amps, sigma) per segment."""
        sig = self._sigma
        for n, m0, a, b in zip(self.seg_n.tolist(), self.seg_m0.tolist(),
                               self.offsets[:-1].tolist(), self.offsets[1:].tolist()):
            yield n, m0, self.amps[a:b], sig[a:b]

    def n_cells(self) -> int:
        return int(self.amps.size)

    # -- algebra --

    def scaled(self, c) -> "SpaceTimeSpectrum":
        return self._with_amps(c * self.amps)

    def __add__(self, other) -> "SpaceTimeSpectrum":
        p, q = self.params, other.params
        if ((p.lam, p.nmax, self.dtau) != (q.lam, q.nmax, other.dtau)
                or not abs(self.tau0 - other.tau0) < 1e-12):
            raise ValueError("space-time grids do not match")
        layout = _assemble(np.concatenate([self.seg_n, other.seg_n]),
                           _ints(np.concatenate([self.seg_m0, other.seg_m0])),
                           np.concatenate([np.diff(self.offsets), np.diff(other.offsets)]),
                           np.concatenate([self.amps, other.amps]))
        return SpaceTimeSpectrum._from_layout(self.params, self.dtau, self.tau0, *layout)


def from_characteristic(spec: SpatialSpectrum, dtau: float = 0.25,
                        sigma_halfwidth: float = 2.0, profile=None) -> SpaceTimeSpectrum:
    """Lift a spatial spectrum onto tau cells around its characteristic curve.

    Each carried mode k receives the cells with |tau - P(k)| <= sigma_halfwidth,
    weighted by profile(sigma) (default: flat).  The default window [-2, 2]
    matches the time-cutoff bandwidth used everywhere else.  A halfwidth
    that is not finite and >= 0 is a ValueError.
    """
    _check_dtau(dtau)
    if not (math.isfinite(sigma_halfwidth) and sigma_halfwidth >= 0):
        raise ValueError(f"sigma_halfwidth must be finite and >= 0, got {sigma_halfwidth}")
    p = spec.params
    w = int(round(sigma_halfwidth / dtau))
    carried = np.flatnonzero(spec.amps)  # the n = 0 slot of a SpatialSpectrum is always 0
    ns = carried - p.nmax
    offs = np.arange(-w, w + 1)
    weights = np.ones(offs.size) if profile is None else profile(offs * dtau)
    amps = spec.amps[carried][:, None] * weights.astype(complex)
    m0 = _ints(_characteristic(p, dtau)[0][carried] - w)
    return SpaceTimeSpectrum._from_layout(p, dtau, 0.0, ns, m0,
                                          np.arange(ns.size + 1) * offs.size, amps.ravel())


def random_spectrum(params: ModelParams, rng, dtau: float = 0.25,
                    sigma_halfwidth: float = 2.0) -> SpaceTimeSpectrum:
    """Random complex amplitudes on the characteristic window of every mode."""
    n = 2 * params.nmax + 1
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amps[params.nmax] = 0.0
    spec = SpatialSpectrum(params, amps)
    out = from_characteristic(spec, dtau, sigma_halfwidth)
    width = 2 * int(round(sigma_halfwidth / dtau)) + 1
    # per band: width real parts, then width imaginary parts
    z = rng.standard_normal((out.seg_n.size, 2, width))
    noise = (z[:, 0] + 1j * z[:, 1]).ravel()
    return out._with_amps(out.amps * noise / math.sqrt(width))


def from_time_samples(t: np.ndarray, block: np.ndarray, params: ModelParams,
                      dtau: float | None = None) -> SpaceTimeSpectrum:
    """Discrete time Fourier transform of a trajectory of real fields.

    block has shape (nt, 2*nmax+1) of spatial-spectrum values on the uniform
    grid t of an odd number nt >= 3 of samples; returns the space-time
    spectrum on the tau grid the DFT induces (dtau = 2*pi / (nt*dt)), which
    is symmetric about 0.  Each row must be a real field (lattice.real_half):
    only the n > 0 columns are transformed, each nonzero one into a band of
    nt cells in the flat layout, and each n < 0 band is built as the exact
    conjugate mirror of its n > 0 band.  The result is marked as a real
    field, and its norms read only its n > 0 bands.  A block of any other
    shape, a row that is not a real field or not finite, an even nt, or a t
    that is not a uniform grid (lattice.uniform_step) is a ValueError.
    """
    t = np.asarray(t, dtype=float)
    block = np.asarray(block)
    nt = t.size
    if t.ndim != 1 or nt < 2:
        raise ValueError(f"t must be a 1-d grid of at least 2 samples, got shape {t.shape}")
    if block.shape != (nt, 2 * params.nmax + 1):
        raise ValueError(f"block must have shape (nt, 2*nmax+1) = ({nt}, "
                         f"{2 * params.nmax + 1}), got {block.shape}")
    if nt % 2 == 0:
        raise ValueError(f"nt must be odd (a tau grid symmetric about 0), got nt={nt}")
    pos = real_half(block, "block")
    return _lift_halves(pos, float(t[0]), _time_step(t, dtau), params)


def _time_step(t: np.ndarray, dtau: float | None) -> float:
    """The step dt of the uniform time grid t, whose lift has dtau = 2*pi / (t.size*dt).

    A t that is not a uniform grid (lattice.uniform_step), or a dtau given
    that is not within 1e-9 of that grid's, is a ValueError.
    """
    dt = uniform_step(t, "the time samples must lie on a uniform increasing grid")
    dtau_c = 2.0 * math.pi / (t.size * dt)
    if dtau is not None and abs(dtau - dtau_c) > 1e-9:
        raise ValueError(f"requested dtau={dtau} inconsistent with grid ({dtau_c})")
    return dt


def _lift_halves(pos: np.ndarray, t0: float, dt: float, params: ModelParams) -> SpaceTimeSpectrum:
    """from_time_samples on the (nt, nmax) block pos of n > 0 halves, sampled at t0 + i*dt.

    Unchecked: nt is odd and the grid is from_time_samples' (see _time_step).
    The bands are written into one (2*nmax, nt) buffer: the FFT lands in its
    n < 0 rows, is scaled there, and is shifted to ascending tau and phased
    into the n > 0 rows, which the n < 0 rows then mirror.  np.fft.fft takes
    out= from numpy 2.0 on (where lattice._pocketfft is found); before, its
    result is copied in, the same numbers.
    """
    nt, m = pos.shape
    dtau = 2.0 * math.pi / (nt * dt)
    h = nt // 2
    ms = np.arange(nt) - h  # integer tau indices, ascending: the FFT's, shifted
    phase = np.exp(-1j * (ms * dtau) * t0)
    cells = np.empty((2 * m, nt), dtype=complex)
    lower, upper = cells[:m], cells[m:]  # bands -nmax..-1 and 1..nmax
    if lattice._pocketfft() is None:
        lower.T[...] = np.fft.fft(pos, axis=0)
    else:
        np.fft.fft(pos, axis=0, out=lower.T)
    lower *= dt / math.sqrt(2.0 * math.pi)
    np.multiply(lower[:, h + 1:], phase[:h], out=upper[:, :h])
    np.multiply(lower[:, :h + 1], phase[h:], out=upper[:, h:])
    # band -n at tau index -m is the conjugate of band n at m
    np.conjugate(upper[::-1, ::-1], out=lower)
    ns = np.delete(np.arange(-m, m + 1), m)
    nonzero = upper.any(axis=1)
    if not nonzero.all():
        keep = np.concatenate([nonzero[::-1], nonzero])
        ns, cells = ns[keep], cells[keep]
    out = SpaceTimeSpectrum._from_layout(params, dtau, 0.0, ns,
                                         np.full(ns.size, ms[0], dtype=np.int64),
                                         np.arange(ns.size + 1) * nt, cells.ravel())
    out._real = True
    return out


# -- the five norms --------------------------------------------------------------

def xsb_norm(u: SpaceTimeSpectrum, s: float, b: float) -> float:
    """||<k>^s <sigma>^b F u||_{L2((dk)_lam dtau)}."""
    seg, factor, band, sig = u._norm_cells
    cell = bracket(sig) ** (2.0 * b) * np.abs(u.amps[u.offsets[seg]:]) ** 2
    per_band = np.bincount(band, cell, u._band_k.size)
    total = factor * float(per_band @ bracket(u._band_k) ** (2.0 * s))
    return math.sqrt(total * u.dtau / u.params.lam)


def ys_norm(u: SpaceTimeSpectrum, s: float) -> float:
    """||<k>^s F u||_{L2((dk)_lam) L1(dtau)}: L1 in tau first, then L2 in k."""
    return _ys_of_abs(u, s, np.abs(u.amps[u.offsets[u._norm_cells[0]]:]))


def _ys_of_abs(u: SpaceTimeSpectrum, s: float, abs_amps: np.ndarray) -> float:
    """ys_norm from abs_amps, the |amps| of the cells the norms read (_norm_cells)."""
    _, factor, band, _ = u._norm_cells
    l1 = np.bincount(band, abs_amps, u._band_k.size) * u.dtau
    total = factor * float(np.sum(bracket(u._band_k) ** (2.0 * s) * l1 * l1))
    return math.sqrt(total / u.params.lam)


def zs_weights(s: float, j: int):
    """The Z^s exponent pairs (s', b') of X_{s',b'} on D1+D5, D2 and D3+D4, in that order."""
    return ((s, (2 * j - 1) / (2 * j)),
            ((1 - 2 * j) * (s - 1), s),
            (-(s - 1) / j - 1, (s - 1) / j + 1))


def _zs_bounds(k, j: int):
    """Per band (b0, b1): a cell's index into zs_weights is (|sigma| >= b0) + (|sigma| >= b1).

    b0 is the float after lo for |k| >= 1 and after hi below, and b1 = max(hi, b0),
    so the index is 0 on D1+D5, 1 on D2 and 2 on D3+D4 with region_codes' ties
    (|sigma| > t iff |sigma| >= nextafter(t, inf)); at |k| = 1, b1 = b0 and D2 is
    empty.  Every band of a spectrum lies in [1/lam, kmax], so no cell is excluded.
    """
    ak = np.abs(k)
    lo, hi = region_thresholds(ak, j)
    b0 = np.nextafter(np.where(ak >= 1.0, lo, hi), np.inf)
    return b0, np.maximum(hi, b0)


def zs_norm(u: SpaceTimeSpectrum, s: float) -> float:
    """The four-term composite norm; the region decomposition needs j >= 2.

    Each cell is weighted by its term's <sigma> power, the term taken from
    its band's two bounds (_zs_bounds), and summed into its (band, term)
    bin in cell order, so the totals are those of classifying every cell
    with region_codes, bit for bit; the <k> powers are taken per band.  A
    marked real field is read on its n > 0 bands, each band sum counted
    twice, as in xsb_norm and ys_norm.
    """
    j = u.params.j
    if j < 2:
        raise ValueError("the Z^s decomposition is specific to j >= 2")
    sk, sb = 2.0 * np.array(zs_weights(s, j)).T
    seg, factor, band, sig = u._norm_cells
    length = np.diff(u.offsets[seg:])
    # int8 terms and in-place weights: few cell-sized temporaries on large spectra
    term = np.add(*(np.abs(sig) >= np.repeat(b[u._seg_band[seg:]], length)
                    for b in _zs_bounds(u._band_k, j)), dtype=np.int8)
    abs_amps = np.abs(u.amps[u.offsets[seg]:])
    cell = bracket(sig)
    cell **= sb.take(term)
    cell *= abs_amps ** 2
    k = u._band_k
    per_band = np.bincount(3 * band + term, cell, 3 * k.size).reshape(-1, 3)
    totals = factor * np.sum(per_band * bracket(k)[:, None] ** sk, axis=0)
    return float(np.sqrt(totals * u.dtau / u.params.lam).sum()) + _ys_of_abs(u, s, abs_amps)


def ws_norm(u: SpaceTimeSpectrum, s: float) -> float:
    return xsb_norm(u, s, 0.5) + ys_norm(u, s)


# -- bilinear machinery -----------------------------------------------------------

def _pair_convolutions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i*len(b) + j is np.convolve(a[i], b[j]): matrix products against b's Toeplitz rows.

    The Toeplitz stack of b is len(a[0]) times b's size, so b is taken in
    chunks that keep it near 2^22 cells.
    """
    (na, l1), (nb, l2) = a.shape, b.shape
    lout = l1 + l2 - 1
    lag = np.arange(lout)[:, None] - np.arange(l1)
    lag = np.where((lag >= 0) & (lag < l2), lag, l2)  # column l2 of the padded rows is 0
    padded = np.concatenate([b, np.zeros((nb, 1))], axis=1)
    step = max(1, 2**22 // (lout * l1))
    # column j*lout + t of a chunk's product is lag t of the chunk's row j
    parts = [a @ padded[j:j + step, lag].reshape(-1, l1).T for j in range(0, nb, step)]
    return (parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)).reshape(na * nb, lout)


def st_convolve(u: SpaceTimeSpectrum, v: SpaceTimeSpectrum,
                pre1=None, pre2=None) -> SpaceTimeSpectrum:
    """Normalized space-time convolution (1/lam) dtau sum_{k1,tau1} u(k-k1,..) v(k1,..).

    pre1/pre2 are optional per-k input symbols (e.g. ik for a derivative
    hitting one factor), each called once with the array of its input's
    band ks; a symbol must map that array elementwise.  Output
    beyond kmax, and the excluded k=0 column, are dropped; their L2 mass is
    recorded as truncated_mass.  Segments are grouped by length, each pair
    of groups convolves all its segment pairs at once, and _assemble lays
    the kept rows out in one pass, summing rows that land on the same cells.
    """
    if not (u.params.lam == v.params.lam and u.dtau == v.dtau):
        raise ValueError("space-time grids do not match")
    p = u.params
    scale = u.dtau / p.lam
    fu = u.amps if pre1 is None else u._k_symbol(pre1) * u.amps
    fv = v.amps if pre2 is None else v._k_symbol(pre2) * v.amps
    len_u, len_v = np.diff(u.offsets), np.diff(v.offsets)
    rows, ns, m0s, lengths, kept = [], [], [], [], []
    dropped = 0.0
    for l1 in sorted(set(len_u.tolist())):
        i = np.flatnonzero(len_u == l1)
        a = fu[u.offsets[i][:, None] + np.arange(l1)] * scale
        for l2 in sorted(set(len_v.tolist())):
            j = np.flatnonzero(len_v == l2)
            conv = _pair_convolutions(a, fv[v.offsets[j][:, None] + np.arange(l2)])
            n = (u.seg_n[i][:, None] + v.seg_n[j]).ravel()
            inside = (n != 0) & (np.abs(n) <= p.nmax)
            dropped += float(np.sum(np.abs(conv[~inside]) ** 2))
            rows.append(conv.ravel())
            ns.append(n)
            m0s.append((u.seg_m0[i][:, None] + v.seg_m0[j]).ravel())
            lengths.append(np.full(n.size, l1 + l2 - 1))
            kept.append(inside)
    tau0 = u.tau0 + v.tau0
    if not rows:
        return SpaceTimeSpectrum(p, u.dtau, tau0)
    buf = rows[0] if len(rows) == 1 else np.concatenate(rows)
    layout = _assemble(np.concatenate(ns), _ints(np.concatenate(m0s)),
                       np.concatenate(lengths), buf, np.concatenate(kept))
    return SpaceTimeSpectrum._from_layout(p, u.dtau, tau0, *layout,
                                          math.sqrt(dropped * u.dtau / p.lam))


BILINEAR_FORMS = ("dxdx_smoothed", "product_dx", "product_smoothed")  # the probe's forms
_ik = lambda k: 1j * k
# each form's terms (pre, post): pre acts on both inputs before the convolution, post on
# its output; F at mu = 1 is m_uv (u v)^ + m_dd (u_x v_x)^ (symbols.nonlinearity_multipliers)
_FORM_TERMS = {
    "dxdx_smoothed": ((_ik, nonlocal_multiplier),),
    "product_dx": ((None, _ik),),
    "product_smoothed": ((None, nonlocal_multiplier),),
    "F": ((None, lambda k: nonlinearity_multipliers(k)[0]),
          (_ik, lambda k: nonlinearity_multipliers(k)[1])),
}


def bilinear_output(u: SpaceTimeSpectrum, v: SpaceTimeSpectrum, form: str) -> SpaceTimeSpectrum:
    """The modulation-smoothed bilinear expressions behind the three estimates, and F's.

    dxdx_smoothed:    <sigma>^(-1) d_x (1-d_x^2)^(-1) [(d_x u)(d_x v)]
    product_dx:       <sigma>^(-1) d_x (u v)
    product_smoothed: <sigma>^(-1) d_x (1-d_x^2)^(-1) (u v)
    F:                <sigma>^(-1) F(u, v), the model's nonlinearity at mu = 1; it equals
                      product_dx / 2 + product_smoothed + dxdx_smoothed / 2

    Each term is one st_convolve, its cells scaled by post(k) / <sigma>.  A layout depends
    only on the inputs' segment tables, so the terms share the first one's cells and are
    summed there in place.  truncated_mass is the first (plain) convolution's.
    """
    if form not in _FORM_TERMS:
        raise ValueError(f"form must be one of {tuple(_FORM_TERMS)}")
    (pre, post), *rest = _FORM_TERMS[form]
    out = st_convolve(u, v, pre, pre)
    br_sigma = bracket(out._sigma)
    out.amps *= out._k_symbol(post) / br_sigma
    for pre, post in rest:
        out.amps += st_convolve(u, v, pre, pre).amps * (out._k_symbol(post) / br_sigma)
    return out


def bilinear_probe(u: SpaceTimeSpectrum, v: SpaceTimeSpectrum, s: float, form: str) -> dict:
    """Ratio Z^s(bilinear output) / (Z^s(u) Z^s(v)) for one input pair."""
    zu, zv = zs_norm(u, s), zs_norm(v, s)
    if zu == 0.0 or zv == 0.0:
        return {"form": form, "s": s, "ratio": None, "reason": "empty input"}
    zout = zs_norm(bilinear_output(u, v, form), s)
    return {"form": form, "s": s, "ratio": zout / (zu * zv),
            "zs_out": zout, "zs_u": zu, "zs_v": zv}


def batch_bilinear_probe(params: ModelParams, s: float, form: str, count: int,
                         seed: int, dtau: float = 0.25, workers: int = 1) -> dict:
    """Seeded batch of count >= 1 random unit-Z^s pairs; reports max/median ratios."""
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if not is_integer(count) or count < 1:
        raise ValueError(f"need at least one probe pair: count must be an integer >= 1, "
                         f"got {count!r}")
    if workers != 1:
        raise ValueError("workers must be 1: probe pairs run one after another")
    if form not in BILINEAR_FORMS:
        raise ValueError(f"form must be one of {BILINEAR_FORMS}")
    rng = np.random.default_rng(seed)
    pair_seeds = [int(x) for x in rng.integers(0, 2**63 - 1, size=count)]

    ratios = []
    for ps in pair_seeds:
        r = np.random.default_rng(ps)
        u = random_spectrum(params, r, dtau=dtau)
        v = random_spectrum(params, r, dtau=dtau)
        ratios.append(bilinear_probe(u, v, s, form)["ratio"])
    return {
        "lemma": form,
        "params": {"j": params.j, "lambda": params.lam, "kmax": params.kmax,
                   "dtau": dtau, "s": s},
        "seed": seed,
        "count": count,
        "max_ratio": max(ratios),
        "median_ratio": float(np.median(ratios)),
        "ratios": ratios,
    }


# -- embedding-chain scans --------------------------------------------------------

def admissible_window(params: ModelParams) -> tuple[float, float]:
    """The regularity window [-j+3/2+j*eps, 1-j/2-j*eps] the estimates require."""
    j, eps = params.j, params.epsilon
    return (-j + 1.5 + j * eps, 1.0 - j / 2.0 - j * eps)


def _embedding_scans(s: float, j: int):
    """(group, inequality) -> (alpha, beta) exponent pairs of <k>^a <sigma>^b ratios.

    Each entry is the pointwise quotient of the dominated weight by the
    dominating one, so the scan passes iff its supremum stays bounded.
    "lower" compares the uniform X_{s,1/(2j)} weight against the region's
    composite-norm weight; "upper" compares the region's weight against
    X_{s,(2j-1)/(2j)}; "half" is the X_{s,1/2}-on-D1+D2 variant.
    """
    d1, d2, d3 = zs_weights(s, j)
    uniform, half = (s, 1.0 / (2 * j)), (s, 0.5)

    def quotient(num, den):
        return (num[0] - den[0], num[1] - den[1])

    return {
        ("D1D5", "lower"): quotient(uniform, d1),
        ("D2", "lower"): quotient(uniform, d2),
        ("D3D4", "lower"): quotient(uniform, d3),
        ("D1D5", "upper"): quotient(d1, d1),
        ("D2", "upper"): quotient(d2, d1),
        ("D3D4", "upper"): quotient(d3, d1),
        ("D1", "half"): quotient(half, d1),
        ("D2", "half"): quotient(half, d2),
    }


_GROUPS = {"D1D5": ("D1", "D5"), "D2": ("D2",), "D3D4": ("D3", "D4"), "D1": ("D1",)}


def _region_sigma_ranges(params: ModelParams, kbound: float):
    """The lattice ks in (0, kbound], and each region's |sigma| range (lo, hi) at every k.

    D1, D2, D3 hold the rows with k >= 1 and D5, D4 the rows with k < 1; a
    region's rows of the other family are NaN.  D3 and D4 reach up to 4x
    the upper threshold at kbound, and at least twice their own.  An end
    that region_codes puts in another region (D2's ends, D4's lower end,
    and D3's lower end at |k| = 1, a D1 point) is pulled in by a relative
    1e-9, so every range is closed and every point of it lies in its
    region; D2's range at |k| = 1 is then empty, lo > hi.  The ends are
    classified as if kmax were kbound, since a scan box may reach past kmax.
    """
    ks = lattice_ks(kbound, params.lam)
    a, b = region_thresholds(ks, params.j)
    top = np.maximum(4.0 * region_thresholds(kbound, params.j)[1], 2 * b)
    big = ks >= 1.0
    box = replace(params, kmax=max(ks.size, 1) / params.lam)

    def rows(region, family, lo, hi):
        lo, hi = np.where(family, lo, np.nan), np.where(family, hi, np.nan)
        code = REGION_LABELS.index(RegionLabel(region))
        lo = np.where(region_codes(ks, lo, box) == code, lo, lo * (1 + 1e-9))
        hi = np.where(region_codes(ks, hi, box) == code, hi, hi * (1 - 1e-9))
        return lo, hi

    return ks, {"D1": rows("D1", big, 0.0, a), "D2": rows("D2", big, a, b),
                "D3": rows("D3", big, b, top), "D5": rows("D5", ~big, 0.0, b),
                "D4": rows("D4", ~big, b, top)}


def _scan_maxima(scans: dict, params: ModelParams, kbound: float) -> dict:
    """Per scan, the max of <k>^alpha <sigma>^beta over its group's cells with |k| <= kbound.

    For a fixed k the ratio is monotone in |sigma|, so its max over the k's
    closed range (lo, hi) in the group (_region_sigma_ranges) sits at hi
    when beta > 0 and at lo otherwise; each scan evaluates that one sigma
    per k.  When beta > 0 on D3+D4, hi is the range's artificial cap, 4x
    the upper threshold at kbound, so that maximum, and its growth with the
    box, is set by the cap rather than measured.  Returns (group,
    inequality) -> (max, (k, sigma)), or (-inf, None) for a group with no
    cells.  Ties go to the smallest k; with beta = 0 every sigma ties and
    lo, the smallest, is reported.
    """
    ks, ranges = _region_sigma_ranges(params, kbound)
    ends = {}
    for group, members in _GROUPS.items():
        lo = hi = np.nan
        for region in members:  # one member per k: fmax picks it
            rlo, rhi = ranges[region]
            lo, hi = np.fmax(lo, rlo), np.fmax(hi, rhi)
        ends[group] = lo, hi
    out = {}
    for (group, ineq), (alpha, beta) in scans.items():
        lo, hi = ends[group]
        sig = hi if beta > 0 else lo
        # float_power is libm pow, as for a scalar; numpy's SIMD ** can be an ulp off
        vals = np.float_power(bracket(ks), alpha) * bracket(sig) ** beta
        vals[~(hi > lo)] = -np.inf  # empty range, or the other family's NaN row
        best = vals.max(initial=-np.inf)
        if best == -np.inf:
            out[(group, ineq)] = -math.inf, None
            continue
        i = np.argmax(vals)  # the first max
        out[(group, ineq)] = float(best), (float(ks[i]), float(sig[i]))
    return out


def verify_embeddings(s: float, params: ModelParams, kbound: float = 512.0,
                      doublings: int = 1, allow_outside_window: bool = False) -> dict:
    """Scan the pointwise weight dominances behind the norm-embedding chain.

    For each region the composite norm's weight must dominate the uniform
    weights (up to a constant); the scan reports, per region and chain side,
    the maximum weight ratio over the box |k| <= kbound and its location,
    repeated with the box doubled.  PASS means every maximum stayed finite
    and did not grow with the box.  Scanning outside the admissible
    regularity window must be requested explicitly (allow_outside_window).
    Below the window, and far above it, the dominances fail and the scan
    reports FAIL with the growth trend.  Outside the window a PASS only
    means that the dominances hold on the scanned box; it certifies
    nothing, because the window's ends also come from estimates other than
    these dominances.

    Each box is scanned per region group (D1+D5, D2, D3+D4, D1) at every
    lattice k <= kbound, over the closed |sigma| range of the k's region in
    the group; an end of a range that region_codes puts in another region
    (D2's ends, D4's lower end, D3's lower end at |k| = 1) is pulled in by
    a relative 1e-9, so every scanned point lies in its group.  For a fixed
    k a ratio <k>^alpha <sigma>^beta is monotone in |sigma|, so its max
    over the range is at the upper end when beta > 0 and at the lower end
    otherwise, and only that end is evaluated.  D3 and D4 are unbounded in
    sigma and capped at 4x the upper threshold at kbound, so a beta > 0
    scan on D3+D4 reports its value at the cap, and its growth under box
    doubling is set by the cap, not measured.  Of equal maxima the smallest
    k is reported as argmax, at the lower end when beta = 0.  An s or a
    kbound that is not finite, a kbound with no lattice k (kbound*lam < 1),
    or doublings that is not an integer >= 0 raises ValueError.
    """
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    lo, hi = admissible_window(params)
    in_window = lo <= s <= hi
    if not in_window and not allow_outside_window:
        raise ValueError(
            f"s={s} outside the admissible window [{lo:.6g}, {hi:.6g}] "
            f"for j={params.j}; pass allow_outside_window=True to scan anyway"
        )
    if not (math.isfinite(kbound) and kbound * params.lam >= 1):
        raise ValueError(f"kbound={kbound} must be finite with kbound * lambda >= 1 "
                         f"(lambda={params.lam}), so the box holds a lattice k")
    if not (is_integer(doublings) and doublings >= 0):
        raise ValueError(f"doublings={doublings!r} must be an integer >= 0")
    bounds = [kbound * 2**i for i in range(doublings + 1)]
    scans = _embedding_scans(s, params.j)
    maxima = [_scan_maxima(scans, params, b) for b in bounds]
    entries = []
    overall = True
    for group, ineq in scans:
        trend = [m[(group, ineq)][0] for m in maxima]
        argmax = maxima[-1][(group, ineq)][1]
        growth = all(
            trend[i + 1] <= trend[i] * (1 + 1e-9) for i in range(len(trend) - 1)
        )
        ok = growth and all(math.isfinite(t) for t in trend)
        overall = overall and ok
        entries.append({
            "region": group,
            "inequality": ineq,
            "max_ratio": trend[-1],
            "argmax": {"k": argmax[0], "sigma": argmax[1]} if argmax else None,
            "trend": trend,
            "pass": ok,
        })
    worst = max(entries, key=lambda e: e["max_ratio"])
    return {
        "lemma": "embedding-chain",
        "params": {"j": params.j, "lambda": params.lam, "epsilon": params.epsilon},
        "s": s,
        "window": [lo, hi],
        "in_window": in_window,
        "kbounds": bounds,
        "max_ratio": worst["max_ratio"],
        "argmax": worst["argmax"],
        "trend": [max(e["trend"][i] for e in entries) for i in range(len(bounds))],
        "entries": entries,
        "pass": overall,
    }


REGION_SIGMA_BOUND, REGION_N_SIGMA = 1e4, 65  # verify_regions' sigma grid


def verify_regions(params: ModelParams, kbound: float = 64.0) -> dict:
    """The region-partition report: region_codes on each lattice k, 0 < |k| <= min(kbound, kmax),
    both signs, at REGION_N_SIGMA sigmas on [-bound, bound] and 16 geometric ones on [1e-3, bound]
    (bound = REGION_SIGMA_BOUND), each label checked by region_memberships; code 0 is a mislabel."""
    kbound = min(kbound, params.kmax)
    sigmas = np.concatenate([
        np.linspace(-REGION_SIGMA_BOUND, REGION_SIGMA_BOUND, REGION_N_SIGMA),
        np.geomspace(1e-3, REGION_SIGMA_BOUND, 16),
    ])
    ks = lattice_ks(kbound, params.lam)
    ks = np.stack([ks, -ks], axis=1).reshape(-1, 1)
    # P(k) computed as the oracle computes it, on the same array, so both see the same sigma
    pk = dispersion_symbol(ks, params.j)
    taus = pk + sigmas
    codes = region_codes(ks, np.abs(taus - pk), params)
    members = region_memberships(ks, taus, params)
    # row c is membership of region code c; code 0 (excluded) is never a valid label
    table = np.stack([np.zeros(codes.shape, bool),
                      *(members[label] for label in REGION_LABELS[1:])])
    bad = int(np.count_nonzero(~np.take_along_axis(table, codes[None], axis=0)))
    return {"points": codes.size, "mislabels": bad, "pass": bad == 0,
            "kbound": kbound, "sigma_bound": REGION_SIGMA_BOUND}


def scan_csv(s: float, params: ModelParams, kbound: float, n_sigma: int = 16) -> str:
    """Raw per-cell dump of the lower-chain weight ratios: k, sigma, region, ratio.

    Every lattice k <= kbound and each of its regions (D1, D2, D3 for
    k >= 1, D5, D4 below) get n_sigma geometric sigmas over the region's
    |sigma| range, the ranges the verify_embeddings grid uses, from
    max(lo, 1e-6) (from max(lo, hi/2) when hi < 2e-6) up to hi.  The
    ranges are closed as _region_sigma_ranges says, and a range left empty
    (D2 at |k| = 1) gets no rows, so every row's region is
    region_codes(k, sigma).  Rows run by k, then region, then ascending
    sigma; the ratios of all cells are computed at once, and every column
    but region is a plain number.
    """
    scans = _embedding_scans(s, params.j)
    ks, ranges = _region_sigma_ranges(params, kbound)
    cells = []
    for region, (lo, hi) in ranges.items():
        group = next(g for g, members in _GROUPS.items()
                     if region in members and (g, "lower") in scans)
        alpha, beta = scans[(group, "lower")]
        rows = hi > lo  # False on the other family's NaN rows
        sig = np.full((ks.size, n_sigma), np.nan)
        sig[rows] = np.geomspace(np.maximum(lo, np.minimum(1e-6, hi / 2))[rows], hi[rows],
                                 n_sigma, axis=1)
        # float_power is libm pow, as for scalars; numpy's SIMD ** can be an ulp off
        ratio = np.float_power(bracket(ks), alpha)[:, None] * np.float_power(bracket(sig), beta)
        cells.append((region, sig.tolist(), ratio.tolist()))
    rows = ["k,sigma,region,ratio"]
    for i, k in enumerate(ks.tolist()):
        head = f"{k!r},"  # once per k, not once per row
        for region, sig, ratio in cells:
            if not math.isnan(sig[i][0]):
                rows.extend(f"{head}{sv!r},{region},{r!r}" for sv, r in zip(sig[i], ratio[i]))
    return "\n".join(rows) + "\n"
