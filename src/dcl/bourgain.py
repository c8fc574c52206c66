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
over D3.  These rules live only in region_codes, the one classifier, and
its cuts on |sigma| (_region_cuts), which zs_norm and the embedding
scans share; region_memberships keeps the raw inequalities as its
oracle.  The composite norm, with its exponent pairs in zs_weights, is

    Z^s = X_{s,(2j-1)/(2j)} on D1+D5  +  X_{(1-2j)(s-1),s} on D2
        + X_{-(s-1)/j-1,(s-1)/j+1} on D3+D4  +  Y^s (unrestricted),

with X_{s,b} = ||<k>^s <sigma>^b F u||_{L2}, Y^s = ||<k>^s F u||_{L2_k L1_tau},
and W^s = X_{s,1/2} + Y^s.

Discretization: tau lives on a uniform grid tau = tau0 + m*dtau with global
integer index m.  A spectrum is a contiguous buffer amps of all its cells on
a shared, read-only layout (_Layout): a segment table of runs of consecutive
cells (band n with k = n/lam, first index m0, offsets into amps), sorted by
(n, m0), and all that is computed from the table alone.  The per-k "bands"
dict, n -> [(m0, amps)], is a view of that table whose arrays are slices of
the buffer.  st_convolve's index work on two layouts is a plan; the plans
and the layouts of from_characteristic and _lift_halves are kept in one LRU
of _CACHE_SIZE entries, keyed by content (params, dtau, tau0, the tables).
st_convolve and the constructor sum segments into a layout by one placement
(_assemble): whole-row gathers when every output segment is one row or two
identical rows of one length, as non-resonance makes it on characteristic
windows, and otherwise one np.add.at over every cell.
m0 is exact: int64 while it is small, Python ints beyond 2^62, so segments
may sit at astronomically large tau (near P(k) for large k) without losing
the exact integer offset.
sigma has one rule: a table cached per (params, dtau) holds each band's
exact index M_n = round(P(n/lam)/dtau) and residual r_n = M_n*dtau -
P(n/lam), rounded once from rationals (dtau as 1/q when 1/dtau is within
1e-12 of an integer q), and cell m has sigma = dtau*(m - M_n) + (tau0 +
r_n), precise at any tau and lam; from_characteristic centres its windows
on M_n.  Every operation (convolution, symbols, norms) runs on the whole
buffer at once, with per-band factors (k symbols, <k> powers, region
thresholds) computed once per band.  L2(dtau) is (sum |a|^2 dtau)^(1/2)
and L1(dtau) is sum |a| dtau, with weights evaluated at cell centers.
Z^s sorts each cell into its term by the two per-band cuts on |sigma| that
region_codes classifies by (_region_cuts, the D1..D5 ties in ">=" form);
each cell's bin and <sigma> weight are the layout's Z^s table for s.

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
    ak = abs(k)
    s = abs(sigma(k, tau, params))
    scalar = np.ndim(s) == 0
    if scalar:
        s = float(s)  # comparisons on numpy scalars cost several times more
    lo, hi = region_thresholds(ak, params.j)
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


def _region_cuts(k, j: int):
    """The D1..D5 ties at k as two cuts (b0, b1) on |sigma|, each region a ">=" test.

    b0 is the float after lo for |k| >= 1 and after hi below (|sigma| > t iff |sigma| >=
    nextafter(t, inf)), and b1 = max(hi, b0).  So (|sigma| >= b0) + (|sigma| >= b1) is 0 on
    D1, 1 on D2 and 2 on D3 for |k| >= 1, and |sigma| >= b0 is D4 below; at |k| = 1, b1 = b0
    and D2 is empty.  A float k takes _float_cuts.
    """
    ak = abs(k)
    if not isinstance(ak, np.ndarray):
        return _float_cuts(ak, j)
    lo, hi = region_thresholds(ak, j)
    b0 = np.nextafter(np.where(ak >= 1.0, lo, hi), np.inf)
    return b0, np.maximum(hi, b0)


@lru_cache(maxsize=4096)  # classify_region runs once per point, on few distinct k
def _float_cuts(ak: float, j: int):
    """_region_cuts at a float |k| = ak: math.nextafter, as region_thresholds takes pow."""
    lo, hi = region_thresholds(ak, j)
    b0 = math.nextafter(lo if ak >= 1.0 else hi, math.inf)
    return b0, max(hi, b0)


def region_codes(k, abs_sigma, params: ModelParams):
    """Region code of (k, |sigma|): 0 excluded, 1..5 for D1..D5; floats or broadcast arrays.

    Tie rules: k = 0 is excluded, |k| within 1e-12 of 1/lam or kmax is
    inside, and at |k| = 1 the large-k family wins with D1 before D3; the
    ties between regions are _region_cuts'.
    """
    ak = abs(k)
    b0, b1 = _region_cuts(ak, params.j)
    inside = (ak != 0.0) & (ak >= 1.0 / params.lam - 1e-12) & (ak <= params.kmax + 1e-12)
    above = abs_sigma >= b0
    large = (ak >= 1.0) * (1 + above + (abs_sigma >= b1))
    small = (ak < 1.0) * (5 - above)
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


def _frozen(value):
    """value, each array in it or in its nested tuples made read-only: layouts are shared."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    for item in value if isinstance(value, tuple) else ():
        _frozen(item)
    return value


def _assemble(n, m0, length, keep=None):
    """The flat layout of segments that tile a buffer in order: (n[i], m0[i]) and length[i] cells.

    The kept segments (all by default) are sorted by (n, m0); within a band,
    segments that overlap or touch merge into one, summed where they overlap.
    Returns (seg_n, seg_m0, offsets, placement); _place(placement, buf) is the
    layout's amps.  Sorted, identical segments (equal n, m0, length) are adjacent.

    If every kept segment has one length and each output segment is one of them
    or two identical ones, placement is (length, first, second, lone) and the
    gathered rows, buf[first] + buf[second] or a lone row's own cells, tile the
    layout in order.  first and second are the buffer cells where each output
    segment's rows start, a lone row is its own second, and lone indexes the lone
    rows; second and lone are empty if no segment has a twin.  Otherwise placement
    is (size, cells, src), and one np.add.at sums buf[src] into cells, every kept
    cell in buffer order.  So each cell is one np.add.at's sum, up to the sign of
    a zero.
    """
    none = np.zeros(0, dtype=np.intp)
    keep = length > 0 if keep is None else keep & (length > 0)
    kept = keep.nonzero()[0][np.lexsort((m0[keep], n[keep]))]
    if not kept.size:
        return n[:0], m0[:0], np.zeros(1, dtype=np.int64), (0, none, none)
    n_k, m0_k, len_k = n[kept], m0[kept], length[kept]
    start = (length.cumsum() - length)[kept]  # each kept segment's first buffer cell
    end = m0_k + len_k
    band_starts = n_k[1:] != n_k[:-1]
    cuts = [0, *(band_starts.nonzero()[0] + 1).tolist(), n_k.size]
    reach = end.copy()  # the furthest end of the band so far
    for a, b in zip(cuts, cuts[1:]):
        reach[a:b] = np.maximum.accumulate(end[a:b])
    new = np.ones(n_k.size, dtype=bool)
    new[1:] = band_starts | (m0_k[1:] > reach[:-1])
    first = new.nonzero()[0]
    count = np.diff(first, append=n_k.size)  # kept segments per output segment
    out_m0 = m0_k[first]
    offsets = np.zeros(first.size + 1, dtype=np.int64)
    np.cumsum((reach[first + count - 1] - out_m0).astype(np.int64), out=offsets[1:])
    layout = n_k[first], _ints(out_m0), offsets
    row = int(len_k[0])
    # one length, and no output segment longer than a row: each is one row or two identical
    if count.max() <= 2 and offsets[-1] == row * first.size and (len_k == row).all():
        second = lone = none
        if count.max() == 2:  # a lone row is its own second
            second, lone = start[first + count - 1], (count == 1).nonzero()[0]
        return (*layout, (row, start[first], second, lone))
    seg = new.cumsum() - 1  # output segment of each kept segment
    at = offsets[seg] + (m0_k - out_m0[seg]).astype(np.int64)  # each one's first layout cell
    order = kept.argsort()  # buffer order: add.at's order
    ln, start, at = len_k[order], start[order], at[order]
    src = np.repeat(start - (np.cumsum(ln) - ln), ln) + np.arange(ln.sum())
    return (*layout, (int(offsets[-1]), src + np.repeat(at - start, ln), src))


_BLOCK = 1 << 14  # cells per block of second rows in _summed_rows: a temporary kept in cache


def _summed_rows(buf, length: int, first, second, lone) -> np.ndarray:
    """Rows buf[first[i]:][:length] (plus buf[second[i]:][:length]) of a contiguous buf, a fresh
    array; see _assemble."""
    view = np.ndarray((buf.size - length + 1, length), buf.dtype, buf, 0, (buf.itemsize,) * 2)
    rows = view[first]  # the fancy index copies only the rows it takes
    block = max(1, _BLOCK // length)
    for i in range(0, second.size, block):
        rows[i:i + block] += view[second[i:i + block]]
    if lone.size:
        rows[lone] = view[first[lone]]  # a lone row was added to itself
    return rows


def _place(placement, buf) -> np.ndarray:
    """The amps of an _assemble layout from its buffer buf: gathered rows, or one np.add.at."""
    if len(placement) == 4:  # (length, first, second, lone): the rows are the amps
        return _summed_rows(buf, *placement).reshape(-1)
    size, cells, src = placement
    amps = np.zeros(size, dtype=complex)
    np.add.at(amps, cells, buf[src])
    return amps


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


_CACHE_SIZE = 8  # layouts and plans kept: a probe's, with its tables, 2.2 MiB at kmax 32, 35 at 128
_CACHE = {}  # content key -> _Layout, or ("plan", key, key) -> st_convolve's plan


def _cached(cache: dict, key, build):
    """cache[key], built on a miss; past _CACHE_SIZE entries the least recently used goes."""
    value = cache[key] = cache.pop(key) if key in cache else _frozen(build())  # now the last
    if len(cache) > _CACHE_SIZE:
        del cache[next(iter(cache))]
    return value


class _Layout:
    """A segment table and everything computed from it alone; see the module docstring.

    Every array it holds or caches is read-only, so the spectra on it can share it.  key is
    its content: params, dtau, tau0 and the table's values (an object seg_m0 by its ints).
    """

    def __init__(self, params: ModelParams, dtau: float, tau0: float, seg_n, seg_m0, offsets):
        self.params, self.dtau, self.tau0 = params, dtau, tau0
        self.seg_n, self.seg_m0, self.offsets = seg_n, seg_m0, offsets
        new_band = np.ones(seg_n.size, dtype=bool)  # the band table: seg_n is sorted
        new_band[1:] = seg_n[1:] != seg_n[:-1]
        # int32 band indices: the cells' bands and Z^s bins kept per layout are half the size
        self.band_n, self.seg_band = seg_n[new_band], np.cumsum(new_band, dtype=np.int32) - 1
        self.band_k = self.band_n / params.lam
        _frozen((seg_n, seg_m0, offsets, self.band_n, self.seg_band, self.band_k))
        m0 = tuple(seg_m0.tolist()) if seg_m0.dtype == object else seg_m0.tobytes()
        self.key = params, np.array([dtau, tau0]).tobytes(), seg_n.tobytes(), m0, offsets.tobytes()
        self._tables = {}  # norm cells, Z^s tables and post factors

    def norm_cells(self, real: bool):
        """(seg, factor, sigmas, order, bands): the norms read the cells amps[offsets[seg]:].

        A marked real field's (real) n < 0 bands mirror its n > 0 bands, with equal |amps|,
        |k| and |sigma|: the norms read from its first n > 0 segment seg on, and factor = 2
        counts each band sum twice.  Otherwise seg = 0 and factor = 1.  sigmas are in layout
        order.  The norms add cell order[i], of band bands[i], at step i: cell r of each band
        of more than r cells, longest first, for r = 0, 1, ...  A band keeps its cells' order,
        so its sum is the layout-order one bit for bit; consecutive adds hit different bins.
        """
        def build():
            seg = int(np.searchsorted(self.seg_n, 0)) if real else 0
            offsets = self.offsets[seg:] - self.offsets[seg]
            length = offsets[1:] - offsets[:-1]
            # cell i of a segment in band n: sigma = dtau*((m0 - M_n) + i) + (tau0 + r_n), with
            # M_n and r_n the band's row of the _characteristic table; m0 - M_n is exact
            index, residual, _ = _characteristic(self.params, self.dtau)
            band = self.seg_band[seg:]
            rows = (self.band_n + self.params.nmax)[band]
            r0 = (self.seg_m0[seg:] - index[rows]).astype(float)  # the only float conversion
            within = np.arange(offsets[-1]) - np.repeat(offsets[:-1], length)
            sig = (self.dtau * (np.repeat(r0, length) + within)
                   + np.repeat(self.tau0 + residual[rows], length))
            first = np.flatnonzero(np.diff(band, prepend=-1))  # each band's first segment
            count = np.diff(offsets[np.append(first, band.size)])  # and cells
            longest = np.argsort(-count, kind="stable")
            start, count, ids = offsets[first][longest], count[longest], band[first][longest]
            order, bands = np.empty((2, offsets[-1]), np.int32 if offsets[-1] < 2**31 else np.intp)
            at = lo = 0
            for w in np.flatnonzero(np.diff(count, append=0))[::-1] + 1:  # count[w] < count[w - 1]
                hi = count[w - 1]
                block = slice(at, at + (hi - lo) * w)  # cells lo .. hi - 1 of the w longest bands
                np.add.outer(np.arange(lo, hi), start[:w], out=order[block].reshape(-1, w))
                bands[block].reshape(-1, w)[:] = ids[:w]
                at, lo = block.stop, hi
            return seg, 2.0 if real else 1.0, sig, order, bands
        return _cached(self._tables, real, build)

    @property
    def sigma(self) -> np.ndarray:
        """Every cell's modulation, in layout order."""
        return self.norm_cells(False)[2]

    def k_symbol(self, fn) -> np.ndarray:
        """fn(k) per cell: fn is called once, on the array of band ks, mapping it elementwise."""
        return np.repeat(fn(self.band_k)[self.seg_band], self.offsets[1:] - self.offsets[:-1])

    def zs_table(self, s: float, real: bool) -> tuple:
        """zs_norm's layout part (bins, weight, k_x), built once per (s, real).

        Each cell is weighted by its term's <sigma> power (weight), the term taken from its band's
        two cuts (_region_cuts), and summed into its bin 3 band + term (bins); both are in the sum
        order of norm_cells, and the totals are those of classifying every cell with region_codes,
        bit for bit.  The <k> powers are taken per band (k_x).
        """
        def build():
            if self.params.j < 2:
                raise ValueError("the Z^s decomposition is specific to j >= 2")
            sk, sb = 2.0 * np.array(zs_weights(s, self.params.j)).T
            _, _, sig, order, band = self.norm_cells(real)
            sig = sig.take(order)
            # int8 terms: few cell-sized temporaries on large spectra
            cuts = _region_cuts(self.band_k, self.params.j)
            term = np.add(*(np.abs(sig) >= b[band] for b in cuts), dtype=np.int8)
            return 3 * band + term, bracket(sig) ** sb.take(term), bracket(self.band_k)[:, None]**sk
        return _cached(self._tables, (s, real), build)

    def post_factors(self, form: str) -> tuple:
        """bilinear_output's post(k) / <sigma> per cell for each term of form, built once."""
        return _cached(self._tables, form, lambda: tuple(
            self.k_symbol(post) / bracket(self.sigma) for _, post in _FORM_TERMS[form]))


class SpaceTimeSpectrum:
    """Sparse banded amplitudes over (k, tau) cells on a layout; see the module docstring.

    amps holds every cell.  Segment i covers amps[offsets[i]:offsets[i+1]] in band seg_n[i]
    (k = n/lam, 0 < |n| <= nmax), with cell centers tau = tau0 + m*dtau for m = seg_m0[i],
    seg_m0[i] + 1, ...; segments are sorted by (n, m0) and neither overlap nor touch.  bands
    maps n to that band's [(m0, view), ...], the views into amps.  The constructor takes such
    a dict, with segments in any order, overlapping or touching, and sums them; any other
    band n is a ValueError.  The layout is shared and read-only; amps is the spectrum's own,
    and bilinear_output scales and sums into the amps of its fresh output.
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
        seg_n, seg_m0, offsets, placement = _assemble(np.array(ns, dtype=np.int64), _ints(m0s),
                                                      length)
        self._set_layout(_Layout(params, dtau, tau0, seg_n, seg_m0, offsets),
                         _place(placement, buf))

    def _set_layout(self, layout: _Layout, amps, dropped=()):
        self.layout, self.amps, self._dropped = layout, amps, dropped
        self.params, self.dtau, self.tau0 = layout.params, layout.dtau, layout.tau0
        self.seg_n, self.seg_m0, self.offsets = layout.seg_n, layout.seg_m0, layout.offsets
        self._real = False  # set by from_time_samples only; see _Layout.norm_cells

    @classmethod
    def _from_layout(cls, layout: _Layout, amps, dropped=()) -> "SpaceTimeSpectrum":
        """amps on layout, both without copying; dropped: st_convolve's (x, y, drop) operands."""
        out = cls.__new__(cls)
        out._set_layout(layout, amps, dropped)
        return out

    @cached_property
    def truncated_mass(self) -> float:
        """st_convolve's dropped L2 mass (beyond kmax, k = 0), taken on first read; else 0.0."""
        dropped = 0.0
        for x, y, drop in self._dropped:
            dropped += float(np.sum(np.abs(_pair_convolutions(x, y)[drop]) ** 2))
        return math.sqrt(dropped * self.dtau / self.params.lam)

    def _with_amps(self, amps) -> "SpaceTimeSpectrum":
        """The same cells with new amplitudes, unmarked; the layout is shared."""
        return SpaceTimeSpectrum._from_layout(self.layout, amps)

    @cached_property
    def bands(self) -> dict:
        bands = {}
        for n, m0, a, b in zip(self.seg_n.tolist(), self.seg_m0.tolist(),
                               self.offsets[:-1].tolist(), self.offsets[1:].tolist()):
            bands.setdefault(n, []).append((m0, self.amps[a:b]))
        return bands

    def cells(self):
        """Yield (n, m0, amps, sigma) per segment."""
        sig = self.layout.sigma
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
        if ((p.j, p.lam, p.nmax, self.dtau) != (q.j, q.lam, q.nmax, other.dtau)
                or not abs(self.tau0 - other.tau0) < 1e-12):
            raise ValueError("space-time grids do not match")
        a, b = self.bands, other.bands
        return SpaceTimeSpectrum(p, self.dtau, self.tau0,
                                 {n: a.get(n, []) + b.get(n, []) for n in {**a, **b}})


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
    layout = _Layout(p, dtau, 0.0, ns, m0, np.arange(ns.size + 1) * offs.size)
    return SpaceTimeSpectrum._from_layout(_cached(_CACHE, layout.key, lambda: layout), amps.ravel())


def random_spectrum(params: ModelParams, rng, dtau: float = 0.25,
                    sigma_halfwidth: float = 2.0) -> SpaceTimeSpectrum:
    """Random complex amplitudes on the characteristic window of every mode."""
    n = 2 * params.nmax + 1
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amps[params.nmax] = 0.0
    spec = SpatialSpectrum(params, amps)
    out = from_characteristic(spec, dtau, sigma_halfwidth)
    width = int(out.offsets[1])  # every band's window, as from_characteristic laid them out
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


def _lift_halves(pos, t0: float, dt: float, params: ModelParams, cells=None) -> SpaceTimeSpectrum:
    """from_time_samples on the (nt, nmax) block pos of n > 0 halves, sampled at t0 + i*dt.

    Unchecked: nt is odd and the grid is from_time_samples' (see _time_step).  The bands
    are written into one complex (2*nmax, nt) buffer, cells if given: the FFT lands in its
    n < 0 rows, is scaled there, and is shifted to ascending tau and phased into the n > 0
    rows, which the n < 0 rows then mirror.  np.fft.fft takes out= from numpy 2.0 on (where
    lattice._pocketfft is found); before, its result is copied in, the same numbers.  The
    result's amps alias cells unless a band is dropped: the next lift into cells overwrites them.
    """
    nt, m = pos.shape
    dtau = 2.0 * math.pi / (nt * dt)
    h = nt // 2
    ms = np.arange(nt) - h  # integer tau indices, ascending: the FFT's, shifted
    phase = np.exp(-1j * (ms * dtau) * t0)
    cells = np.empty((2 * m, nt), dtype=complex) if cells is None else cells
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
    layout = _Layout(params, dtau, 0.0, ns, np.full(ns.size, ms[0], dtype=np.int64),
                     np.arange(ns.size + 1) * nt)
    out = SpaceTimeSpectrum._from_layout(_cached(_CACHE, layout.key, lambda: layout), cells.ravel())
    out._real = True
    return out


# -- the five norms --------------------------------------------------------------

def xsb_norm(u: SpaceTimeSpectrum, s: float, b: float) -> float:
    """||<k>^s <sigma>^b F u||_{L2((dk)_lam dtau)}."""
    seg, factor, sig, order, band = u.layout.norm_cells(u._real)
    cell = bracket(sig) ** (2.0 * b) * np.abs(u.amps[u.offsets[seg]:]) ** 2
    per_band = np.bincount(band, cell.take(order), u.layout.band_k.size)
    total = factor * float(per_band @ bracket(u.layout.band_k) ** (2.0 * s))
    return math.sqrt(total * u.dtau / u.params.lam)


def ys_norm(u: SpaceTimeSpectrum, s: float) -> float:
    """||<k>^s F u||_{L2((dk)_lam) L1(dtau)}: L1 in tau first, then L2 in k."""
    seg, _, _, order, _ = u.layout.norm_cells(u._real)
    return _ys_of_abs(u, s, np.abs(u.amps[u.offsets[seg]:]).take(order))


def _ys_of_abs(u: SpaceTimeSpectrum, s: float, abs_amps: np.ndarray) -> float:
    """ys_norm from abs_amps, the |amps| the norms read, in their sum order (_Layout.norm_cells)."""
    _, factor, _, _, band = u.layout.norm_cells(u._real)
    l1 = np.bincount(band, abs_amps, u.layout.band_k.size) * u.dtau
    total = factor * float(np.sum(bracket(u.layout.band_k) ** (2.0 * s) * l1 * l1))
    return math.sqrt(total / u.params.lam)


def zs_weights(s: float, j: int):
    """The Z^s exponent pairs (s', b') of X_{s',b'} on D1+D5, D2 and D3+D4, in that order."""
    return ((s, (2 * j - 1) / (2 * j)),
            ((1 - 2 * j) * (s - 1), s),
            (-(s - 1) / j - 1, (s - 1) / j + 1))


def zs_norm(u: SpaceTimeSpectrum, s: float) -> float:
    """The four-term composite norm, needing j >= 2: |a| once, |a|^2 times the weights of the
    layout's Z^s table (_Layout.zs_table), and two bincounts for the X terms and Y^s."""
    seg, factor, _, order, _ = u.layout.norm_cells(u._real)
    bins, weight, k_x = u.layout.zs_table(s, u._real)
    abs_amps = np.abs(u.amps[u.offsets[seg]:]).take(order)  # in the sum order
    ys = _ys_of_abs(u, s, abs_amps)  # first: |a|^2 and its weights then overwrite |a|
    cell = np.multiply(np.square(abs_amps, out=abs_amps), weight, out=abs_amps)
    totals = factor * np.sum(np.bincount(bins, cell, k_x.size).reshape(-1, 3) * k_x, axis=0)
    return float(np.sqrt(totals * u.dtau / u.params.lam).sum()) + ys


def ws_norm(u: SpaceTimeSpectrum, s: float) -> float:
    return xsb_norm(u, s, 0.5) + ys_norm(u, s)


# -- bilinear machinery -----------------------------------------------------------

def _pair_convolutions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i*len(b) + j is np.convolve(a[i], b[j]): matrix products against b's Toeplitz rows.

    b's Toeplitz matrices, (t, i) -> b[j, t - i] or 0, are a strided view of its zero-padded rows,
    copied contiguous (one row's too) in chunks of b that keep the stack near 2^22 cells.
    """
    (na, l1), (nb, l2) = a.shape, b.shape
    lout = l1 + l2 - 1
    padded = np.zeros((nb, l2 + 2 * (l1 - 1)), dtype=complex)
    padded[:, l1 - 1:l1 - 1 + l2] = b
    row, item = padded.strides
    toeplitz = np.ndarray((nb, lout, l1), complex, padded, (l1 - 1) * item, (row, item, -item))
    step = max(1, 2**22 // (lout * l1))
    # column j*lout + t of a chunk's product is lag t of the chunk's row j
    parts = [a @ np.ascontiguousarray(toeplitz[j:j + step]).reshape(-1, l1).T
             for j in range(0, nb, step)]
    return (parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)).reshape(na * nb, lout)


def _convolution_plan(x: _Layout, y: _Layout) -> tuple:
    """st_convolve's index work on the input layouts x and y: (pairs, placement, out).

    Segments are grouped by length.  Per pair of groups, pairs holds the gathers of x's and
    y's segments as rows, and the rows of their pair convolutions whose band n1 + n2 is 0 or
    beyond nmax; all rows, pair by pair, are the buffer that placement (_assemble) puts into
    the output layout out.
    """
    groups = [[(l, np.flatnonzero(lens == l)) for l in sorted(set(lens.tolist()))]
              for lens in (np.diff(x.offsets), np.diff(y.offsets))]
    pairs, ns, m0s, lengths, kept = [], [], [], [], []
    for l1, i in groups[0]:
        for l2, j in groups[1]:
            n = (x.seg_n[i][:, None] + y.seg_n[j]).ravel()
            inside = (n != 0) & (np.abs(n) <= x.params.nmax)
            pairs.append((x.offsets[i][:, None] + np.arange(l1),
                          y.offsets[j][:, None] + np.arange(l2), np.flatnonzero(~inside)))
            ns.append(n)
            m0s.append((x.seg_m0[i][:, None] + y.seg_m0[j]).ravel())
            lengths.append(np.full(n.size, l1 + l2 - 1))
            kept.append(inside)
    seg_n, seg_m0, offsets, placement = _assemble(
        np.concatenate(ns), _ints(np.concatenate(m0s)), np.concatenate(lengths),
        np.concatenate(kept))
    out = _Layout(x.params, x.dtau, x.tau0 + y.tau0, seg_n, seg_m0, offsets)
    return tuple(pairs), placement, out


def st_convolve(u: SpaceTimeSpectrum, v: SpaceTimeSpectrum,
                pre1=None, pre2=None) -> SpaceTimeSpectrum:
    """Normalized space-time convolution (1/lam) dtau sum_{k1,tau1} u(k-k1,..) v(k1,..).

    pre1/pre2 are optional per-k input symbols (e.g. ik for a derivative hitting one
    factor), each called once with the array of its input's band ks; a symbol must map that
    array elementwise.  Output beyond kmax, and the excluded k=0 column, are dropped; their L2
    mass, truncated_mass, is taken on its first read, by redoing the products that drop rows
    from copies of their operands that the call keeps.  Each pair of segment groups
    (_convolution_plan, built once per pair of layouts) convolves all its segment pairs at
    once, and _place puts the rows into the output layout: on characteristic windows every
    output segment is an (n1, n2) row plus its identical (n2, n1) row, or one (n, n) row, and
    the sums are two row gathers.  Inputs whose j, lam, nmax or dtau differ are a ValueError.
    """
    p, q = u.params, v.params
    if (p.j, p.lam, p.nmax, u.dtau) != (q.j, q.lam, q.nmax, v.dtau):
        raise ValueError("space-time grids do not match")
    if not (u.seg_n.size and v.seg_n.size):
        return SpaceTimeSpectrum(p, u.dtau, u.tau0 + v.tau0)
    pairs, placement, out = _cached(_CACHE, ("plan", u.layout.key, v.layout.key),
                                    lambda: _convolution_plan(u.layout, v.layout))
    scale = u.dtau / p.lam
    fu = u.amps if pre1 is None else u.layout.k_symbol(pre1) * u.amps
    fv = v.amps if pre2 is None else v.layout.k_symbol(pre2) * v.amps
    rows, operands = [], []
    for a, b, drop in pairs:
        x, y = fu[a] * scale, fv[b]
        rows.append(_pair_convolutions(x, y).ravel())
        if drop.size:
            operands.append((x, y, drop))
    buf = rows[0] if len(rows) == 1 else np.concatenate(rows)
    return SpaceTimeSpectrum._from_layout(out, _place(placement, buf), operands)


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

    Each term is one st_convolve, its cells scaled by post(k) / <sigma> (the output layout's
    post_factors).  The terms share one plan, so they share the first one's cells and are
    summed there in place.  truncated_mass is the first (plain) convolution's.
    """
    if form not in _FORM_TERMS:
        raise ValueError(f"form must be one of {tuple(_FORM_TERMS)}")
    (pre, _), *rest = _FORM_TERMS[form]
    out = st_convolve(u, v, pre, pre)
    first, *factors = out.layout.post_factors(form)
    out.amps *= first
    for (pre, _), factor in zip(rest, factors):
        out.amps += st_convolve(u, v, pre, pre).amps * factor
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


def _term_ranges(params: ModelParams, kbound: float):
    """The lattice ks in (0, kbound], and each Z^s term's closed |sigma| range (lo, hi) at every k.

    The ranges come from the cuts (b0, b1) that region_codes classifies by
    (_region_cuts); with x- the float below x, D1+D5 is [0, b0-], D2 is
    [b0, b1-] and D3+D4 is [b1, top], so each end is the last float of its
    region.  D3 and D4 are unbounded in sigma: top caps them at 4x the
    upper threshold at kbound.  D2 is empty, lo > hi, where b1 = b0, that
    is at |k| <= 1.
    """
    ks = lattice_ks(kbound, params.lam)
    b0, b1 = _region_cuts(ks, params.j)
    top = np.full(ks.shape, 4.0 * region_thresholds(kbound, params.j)[1])
    return ks, {"D1D5": (np.zeros(ks.shape), np.nextafter(b0, -np.inf)),
                "D2": (b0, np.nextafter(b1, -np.inf)), "D3D4": (b1, top)}


def _weight_ratio(k, sig, alpha: float, beta: float):
    """<k>^alpha <sigma>^beta, both powers by np.float_power: libm pow, as for a scalar (numpy's
    SIMD ** can be an ulp off it), so the report and its CSV agree bit for bit."""
    return np.float_power(bracket(k), alpha) * np.float_power(bracket(sig), beta)


def _scan_maxima(scans: dict, params: ModelParams, kbound: float) -> dict:
    """Per scan, the max of <k>^alpha <sigma>^beta over its group's cells with |k| <= kbound.

    For a fixed k the ratio is monotone in |sigma|, so its max over the k's
    closed range (lo, hi) of the group's Z^s term (_term_ranges) sits at hi
    when beta > 0 and at lo otherwise; each scan evaluates that one sigma
    per k.  The "half" group "D1" is D1+D5 on the rows k >= 1.  When
    beta > 0 on D3+D4, hi is the range's artificial cap, 4x the upper
    threshold at kbound, so that maximum, and its growth with the box, is
    set by the cap rather than measured.  Returns (group, inequality) ->
    (max, (k, sigma)), or (-inf, None) for a group with no cells.  Ties go
    to the smallest k; with beta = 0 every sigma ties and lo, the
    smallest, is reported.
    """
    ks, terms = _term_ranges(params, kbound)
    out = {}
    for (group, ineq), (alpha, beta) in scans.items():
        half = group == "D1"  # the "half" scans' D1: D1+D5 on the rows k >= 1
        lo, hi = terms["D1D5" if half else group]
        sig = hi if beta > 0 else lo
        vals = _weight_ratio(ks, sig, alpha, beta)
        vals[(lo > hi) | (half & (ks < 1.0))] = -np.inf  # no cell of the group at k
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

    Each box is scanned per region group (D1+D5, D2, D3+D4, and D1, which
    is D1+D5 at k >= 1) at every lattice k <= kbound, over the closed
    |sigma| range of the group's Z^s term at k: its ends are the last
    floats of the term under region_codes' cuts, so every scanned point
    lies in its group.  For a fixed k a ratio <k>^alpha <sigma>^beta is
    monotone in |sigma|, so its max over the range is at the upper end
    when beta > 0 and at the lower end otherwise, and only that end is
    evaluated.  D3 and D4 are unbounded in sigma and capped at 4x the
    upper threshold at kbound, so a beta > 0 scan on D3+D4 reports its
    value at the cap, and its growth under box doubling is set by the cap,
    not measured.  Of equal maxima the smallest k is reported as argmax,
    at the lower end when beta = 0.  max_ratio and argmax are those of
    the last box, kbound * 2**doublings (2*kbound in `dcl verify
    embeddings`, which runs doublings=1), while the embedding_scan.csv that
    command writes (scan_csv) covers kbound only, with sigma >= 1e-6: so an
    argmax need not be a CSV row.  An s or a kbound that is not finite,
    a kbound with no lattice k (kbound*lam < 1), or doublings that is not
    an integer >= 0 raises ValueError.
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

    Every lattice k <= kbound and each Z^s term's |sigma| range at k, the
    ranges verify_embeddings scans (_term_ranges), get n_sigma geometric
    sigmas from max(lo, 1e-6) (from max(lo, hi/2) when hi < 2e-6) up to
    hi, with the ratio of the term's "lower" scan.  A row's region is its
    term's region in the k's family (D1 or D5, D2, D3 or D4 by k >= 1), so
    it is region_codes(k, sigma); an empty range (D2 at |k| <= 1) gets no
    rows.  Rows run by k, then term, then ascending sigma; the ratios of
    all cells are computed at once, and every column but region is a
    plain number.
    """
    scans = _embedding_scans(s, params.j)
    ks, terms = _term_ranges(params, kbound)
    cells = []
    for group, (lo, hi) in terms.items():
        rows = lo <= hi
        sig = np.full((ks.size, n_sigma), np.nan)
        sig[rows] = np.geomspace(np.maximum(lo, np.minimum(1e-6, hi / 2))[rows], hi[rows],
                                 n_sigma, axis=1)
        ratio = _weight_ratio(ks[:, None], sig, *scans[(group, "lower")])
        cells.append((group, sig.tolist(), ratio.tolist()))
    rows = ["k,sigma,region,ratio"]
    for i, k in enumerate(ks.tolist()):
        head = f"{k!r},"  # once per k, not once per row
        for group, sig, ratio in cells:
            if not math.isnan(sig[i][0]):
                region = group[:2] if k >= 1.0 else group[-2:]  # D1D5: D1 or D5, D2: D2
                rows.extend(f"{head}{sv!r},{region},{r!r}" for sv, r in zip(sig[i], ratio[i]))
    return "\n".join(rows) + "\n"
