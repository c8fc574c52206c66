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
integer index m.  Spectra are stored as sparse per-k "bands": lists of
(m0, amps) segments.  m0 is a Python int, so segments may sit at
astronomically large tau (near P(k) for large k) without losing the exact
integer offset; sigma is then reconstructed exactly before the single final
float rounding.  L2(dtau) is realized as (sum |a|^2 dtau)^(1/2) and
L1(dtau) as sum |a| dtau, with weights evaluated at cell centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .lattice import ModelParams, NormSpec, SpatialSpectrum, bracket, hs_norm
from .symbols import dispersion_symbol, nonlocal_multiplier


class RegionLabel(Enum):
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"
    D5 = "D5"
    EXCLUDED = "Excluded"


def region_coefficient(j: int) -> float:
    """The modulation threshold coefficient c_j = (2j+1) 4^(-j) / 3."""
    return (2 * j + 1) * 4.0 ** (-j) / 3.0


def sigma(k, tau, params: ModelParams):
    """Modulation sigma = tau - P(k)."""
    return tau - dispersion_symbol(k, params.j)


def region_memberships(k: float, tau: float, params: ModelParams) -> dict:
    """Raw membership of (k, tau) in each region, inequalities exactly as defined.

    Boundary points can belong to several regions here; region_codes
    applies the documented tie resolution.  The independent oracle of the
    partition tests and of the region-partition report.
    """
    j = params.j
    c = region_coefficient(j)
    ak = abs(k)
    s = abs(sigma(k, tau, params))
    big = ak >= 1.0
    small = 1.0 / params.lam <= ak <= 1.0
    return {
        RegionLabel.D1: big and s <= c * ak ** (2 * j),
        RegionLabel.D2: big and c * ak ** (2 * j) < s < c * ak ** (2 * j + 1),
        RegionLabel.D3: big and s >= c * ak ** (2 * j + 1),
        RegionLabel.D4: small and s > c * ak ** (2 * j + 1),
        RegionLabel.D5: small and s <= c * ak ** (2 * j + 1),
    }


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

def _merge_segments(segments):
    """Sort (m0, amps) segments and sum overlaps into disjoint segments."""
    if len(segments) <= 1:
        return list(segments)
    segments = sorted(segments, key=lambda s: s[0])
    out = []
    cur_m0, cur = segments[0][0], segments[0][1].copy()
    for m0, arr in segments[1:]:
        if m0 <= cur_m0 + len(cur):  # overlapping or touching
            new_len = max(cur_m0 + len(cur), m0 + len(arr)) - cur_m0
            if new_len > len(cur):
                cur = np.concatenate([cur, np.zeros(new_len - len(cur), dtype=complex)])
            off = int(m0 - cur_m0)
            cur[off:off + len(arr)] += arr
        else:
            out.append((cur_m0, cur))
            cur_m0, cur = m0, arr.copy()
    out.append((cur_m0, cur))
    return out


@dataclass
class SpaceTimeSpectrum:
    """Sparse banded amplitudes over (k, tau) cells; see the module docstring.

    bands maps the integer lattice index n (k = n/lam, n != 0) to a list of
    disjoint (m0, amps) segments with cell centers tau = tau0 + m*dtau.
    Treated as an immutable value after construction.
    """

    params: ModelParams
    dtau: float
    tau0: float = 0.0
    bands: dict = field(default_factory=dict)
    truncated_mass: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if self.dtau <= 0:
            raise ValueError("dtau must be positive")
        clean = {}
        for n, segs in self.bands.items():
            if n == 0:
                raise ValueError("zero mode is excluded from spectra")
            if isinstance(segs, tuple):
                segs = [segs]
            segs = _merge_segments([(int(m0), np.asarray(a, dtype=complex)) for m0, a in segs])
            if any(len(a) for _, a in segs):
                clean[n] = segs
        self.bands = clean

    # -- construction helpers --

    @classmethod
    def from_cells(cls, params, dtau, cells, tau0=0.0):
        """Build from {(k, m): amp} with tau = tau0 + m*dtau."""
        bands = {}
        for (k, m), v in cells.items():
            n = int(round(k * params.lam))
            arr = np.array([v], dtype=complex)
            bands.setdefault(n, []).append((int(m), arr))
        return cls(params, dtau, tau0, bands)

    def k_of(self, n: int) -> float:
        return n / self.params.lam

    def grids_match(self, other) -> bool:
        return (
            self.params.lam == other.params.lam
            and self.dtau == other.dtau
            and abs(self.tau0 - other.tau0) < 1e-12
        )

    def sigma_of(self, n: int, m0: int, length: int) -> np.ndarray:
        """Cell-center modulations for a segment, exact integer path when possible.

        When P(k) and 1/dtau are integers (lam = 1 lattices with dyadic
        dtau), sigma = tau0 + dtau*(m0 - P*q + i) is assembled in exact
        integer arithmetic before the single float conversion, so even
        segments at tau ~ 1e20 keep full relative precision in sigma.
        """
        p = self.params
        idx = np.arange(length)
        q = 1.0 / self.dtau
        if p.lam == 1.0 and abs(q - round(q)) < 1e-12:
            pk = dispersion_symbol(int(n), p.j)
            r0 = m0 - pk * int(round(q))  # exact; float conversion only at the end
            return self.tau0 + self.dtau * (float(r0) + idx.astype(float))
        pk = dispersion_symbol(n / p.lam, p.j)
        return self.tau0 + (np.asarray(m0 + idx, dtype=float)) * self.dtau - pk

    def cells(self):
        """Yield (n, m0, amps, sigma) per segment."""
        for n, segs in sorted(self.bands.items()):
            for m0, arr in segs:
                yield n, m0, arr, self.sigma_of(n, m0, len(arr))

    def value_at(self, n: int, m: int) -> complex:
        for m0, arr in self.bands.get(n, []):
            if m0 <= m < m0 + len(arr):
                return complex(arr[m - m0])
        return 0j

    def n_cells(self) -> int:
        return sum(len(a) for segs in self.bands.values() for _, a in segs)

    def is_hermitian(self, tol=1e-12) -> bool:
        """F u(-k,-tau) == conj(F u(k,tau)): the underlying field is real."""
        scale = max((np.abs(a).max() for segs in self.bands.values() for _, a in segs),
                    default=0.0) or 1.0
        for n, segs in self.bands.items():
            for m0, arr in segs:
                for i, v in enumerate(arr):
                    # cell center tau = tau0 + m*dtau mirrors to -tau; on-grid iff
                    # 2*tau0/dtau is integral, which holds for the grids we build
                    mm = -(m0 + i) - int(round(2 * self.tau0 / self.dtau))
                    if abs(self.value_at(-n, mm) - np.conj(v)) > tol * scale:
                        return False
        return True

    # -- algebra --

    def scaled(self, c) -> "SpaceTimeSpectrum":
        bands = {n: [(m0, c * a) for m0, a in segs] for n, segs in self.bands.items()}
        return SpaceTimeSpectrum(self.params, self.dtau, self.tau0, bands)

    def __add__(self, other) -> "SpaceTimeSpectrum":
        if not self.grids_match(other):
            raise ValueError("space-time grids do not match")
        bands = {n: list(segs) for n, segs in self.bands.items()}
        for n, segs in other.bands.items():
            bands.setdefault(n, []).extend(segs)
        return SpaceTimeSpectrum(self.params, self.dtau, self.tau0, bands)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def apply_k(self, fn) -> "SpaceTimeSpectrum":
        """Multiply each band by the symbol fn(k)."""
        bands = {
            n: [(m0, fn(self.k_of(n)) * a) for m0, a in segs]
            for n, segs in self.bands.items()
        }
        return SpaceTimeSpectrum(self.params, self.dtau, self.tau0, bands)

    def apply_sigma(self, fn) -> "SpaceTimeSpectrum":
        """Multiply each cell by fn(sigma) at the cell center (midpoint rule)."""
        bands = {}
        for n, segs in self.bands.items():
            bands[n] = [
                (m0, fn(self.sigma_of(n, m0, len(a))) * a) for m0, a in segs
            ]
        return SpaceTimeSpectrum(self.params, self.dtau, self.tau0, bands)


def from_characteristic(spec: SpatialSpectrum, dtau: float = 0.25,
                        sigma_halfwidth: float = 2.0, profile=None) -> SpaceTimeSpectrum:
    """Lift a spatial spectrum onto tau cells around its characteristic curve.

    Each carried mode k receives the cells with |tau - P(k)| <= sigma_halfwidth,
    weighted by profile(sigma) (default: flat).  The default window [-2, 2]
    matches the time-cutoff bandwidth used everywhere else.
    """
    p = spec.params
    w = int(round(sigma_halfwidth / dtau))
    q = 1.0 / dtau
    exact = p.lam == 1.0 and abs(q - round(q)) < 1e-12
    bands = {}
    offs = np.arange(-w, w + 1)
    for i, a in enumerate(spec.amps):
        n = i - p.nmax
        if n == 0 or a == 0:
            continue
        if exact:
            base = dispersion_symbol(int(n), p.j) * int(round(q))
        else:
            base = int(round(dispersion_symbol(n / p.lam, p.j) / dtau))
        weights = np.ones(offs.size) if profile is None else profile(offs * dtau)
        bands[n] = [(base - w, a * weights.astype(complex))]
    return SpaceTimeSpectrum(p, dtau, 0.0, bands)


def random_spectrum(params: ModelParams, rng, dtau: float = 0.25,
                    sigma_halfwidth: float = 2.0) -> SpaceTimeSpectrum:
    """Random complex amplitudes on the characteristic window of every mode."""
    n = 2 * params.nmax + 1
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amps[params.nmax] = 0.0
    spec = SpatialSpectrum(params, amps)
    w = int(round(sigma_halfwidth / dtau))
    out = from_characteristic(spec, dtau, sigma_halfwidth)
    bands = {}
    for nn, segs in out.bands.items():
        m0, arr = segs[0]
        noise = rng.standard_normal(arr.size) + 1j * rng.standard_normal(arr.size)
        bands[nn] = [(m0, arr * noise / math.sqrt(2 * w + 1))]
    return SpaceTimeSpectrum(params, dtau, 0.0, bands)


def from_time_samples(t: np.ndarray, block: np.ndarray, params: ModelParams,
                      dtau: float | None = None) -> SpaceTimeSpectrum:
    """Discrete time Fourier transform of a trajectory of spatial spectra.

    block has shape (nt, 2*nmax+1) of spatial-spectrum values on the uniform
    grid t; returns the space-time spectrum on the tau grid the DFT induces
    (dtau = 2*pi / (nt*dt)).
    """
    t = np.asarray(t, dtype=float)
    nt = t.size
    dt = t[1] - t[0]
    span = nt * dt
    dtau_c = 2.0 * math.pi / span
    if dtau is not None and abs(dtau - dtau_c) > 1e-9:
        raise ValueError(f"requested dtau={dtau} inconsistent with grid ({dtau_c})")
    fhat = np.fft.fft(block, axis=0) * (dt / math.sqrt(2.0 * math.pi))
    ms = np.fft.fftfreq(nt, d=1.0 / nt).astype(int)  # integer tau indices
    order = np.argsort(ms)
    ms = ms[order]
    fhat = fhat[order]
    phase = np.exp(-1j * (ms * dtau_c) * t[0])
    fhat = fhat * phase[:, None]
    bands = {}
    for i in range(block.shape[1]):
        n = i - params.nmax
        if n == 0:
            continue
        col = fhat[:, i]
        if np.abs(col).max() == 0.0:
            continue
        bands[n] = [(int(ms[0]), col)]
    return SpaceTimeSpectrum(params, dtau_c, 0.0, bands)


# -- the five norms --------------------------------------------------------------

def xsb_norm(u: SpaceTimeSpectrum, s: float, b: float) -> float:
    """||<k>^s <sigma>^b F u||_{L2((dk)_lam dtau)}."""
    total = 0.0
    for n, m0, arr, sig in u.cells():
        kb = bracket(u.k_of(n)) ** (2.0 * s)
        total += kb * float(np.sum(bracket(sig) ** (2.0 * b) * np.abs(arr) ** 2))
    return math.sqrt(total * u.dtau / u.params.lam)


def ys_norm(u: SpaceTimeSpectrum, s: float) -> float:
    """||<k>^s F u||_{L2((dk)_lam) L1(dtau)}: L1 in tau first, then L2 in k."""
    total = 0.0
    for n, segs in u.bands.items():
        l1 = sum(float(np.sum(np.abs(a))) for _, a in segs) * u.dtau
        total += bracket(u.k_of(n)) ** (2.0 * s) * l1 * l1
    return math.sqrt(total / u.params.lam)


def zs_weights(s: float, j: int):
    """The Z^s exponent pairs (s', b') of X_{s',b'} on D1+D5, D2 and D3+D4, in that order."""
    return ((s, (2 * j - 1) / (2 * j)),
            ((1 - 2 * j) * (s - 1), s),
            (-(s - 1) / j - 1, (s - 1) / j + 1))


# region code -> index into zs_weights; excluded cells (code 0) collect in slot 3
_ZS_TERM = np.array([3, 0, 1, 2, 2, 0])


def zs_norm(u: SpaceTimeSpectrum, s: float) -> float:
    """The four-term composite norm; the region decomposition needs j >= 2.

    One pass: each cell is classified once and weighted by its region's term.
    """
    j = u.params.j
    if j < 2:
        raise ValueError("the Z^s decomposition is specific to j >= 2")
    sk, sb = 2.0 * np.array([*zs_weights(s, j), (0.0, 0.0)]).T
    totals = np.zeros(4)
    for n, m0, arr, sig in u.cells():
        k = u.k_of(n)
        term = _ZS_TERM[region_codes(k, np.abs(sig), u.params)]
        kb = bracket(k) ** sk
        cell = kb[term] * bracket(sig) ** sb[term] * np.abs(arr) ** 2
        totals += np.bincount(term, weights=cell, minlength=4)
    return float(np.sqrt(totals[:3] * u.dtau / u.params.lam).sum()) + ys_norm(u, s)


def ws_norm(u: SpaceTimeSpectrum, s: float) -> float:
    return xsb_norm(u, s, 0.5) + ys_norm(u, s)


def norm(obj, ns: NormSpec) -> float:
    """Evaluate any NormSpec: Hs on spatial spectra, the rest on space-time spectra."""
    if ns.kind == "Hs":
        if not isinstance(obj, SpatialSpectrum):
            raise TypeError("Hs acts on spatial spectra")
        return hs_norm(obj, ns.s)
    if not isinstance(obj, SpaceTimeSpectrum):
        raise TypeError(f"{ns.kind} acts on space-time spectra")
    if ns.kind == "Xsb":
        return xsb_norm(obj, ns.s, ns.b)
    if ns.kind == "Ys":
        return ys_norm(obj, ns.s)
    if ns.kind == "Zs":
        return zs_norm(obj, ns.s)
    return ws_norm(obj, ns.s)


# -- bilinear machinery -----------------------------------------------------------

def st_convolve(u: SpaceTimeSpectrum, v: SpaceTimeSpectrum,
                pre1=None, pre2=None) -> SpaceTimeSpectrum:
    """Normalized space-time convolution (1/lam) dtau sum_{k1,tau1} u(k-k1,..) v(k1,..).

    pre1/pre2 are optional per-k input symbols (e.g. ik for a derivative
    hitting one factor).  Output beyond kmax, and the excluded k=0 column,
    are dropped; their L2 mass is recorded as truncated_mass.
    """
    if not (u.params.lam == v.params.lam and u.dtau == v.dtau):
        raise ValueError("space-time grids do not match")
    p = u.params
    scale = u.dtau / p.lam
    fu = {
        n: [(m0, (pre1(u.k_of(n)) if pre1 else 1.0) * a) for m0, a in segs]
        for n, segs in u.bands.items()
    }
    fv = {
        n: [(m0, (pre2(v.k_of(n)) if pre2 else 1.0) * a) for m0, a in segs]
        for n, segs in v.bands.items()
    }
    raw = {}
    dropped = 0.0
    for n1, segs1 in fu.items():
        for n2, segs2 in fv.items():
            n = n1 + n2
            outside = n == 0 or abs(n) > p.nmax
            for m01, a1 in segs1:
                for m02, a2 in segs2:
                    arr = np.convolve(a1, a2) * scale
                    if outside:
                        dropped += float(np.sum(np.abs(arr) ** 2))
                    else:
                        raw.setdefault(n, []).append((m01 + m02, arr))
    out = SpaceTimeSpectrum(p, u.dtau, u.tau0 + v.tau0, raw)
    out.truncated_mass = math.sqrt(dropped * u.dtau / p.lam)
    return out


BILINEAR_FORMS = ("dxdx_smoothed", "product_dx", "product_smoothed")


def bilinear_output(u: SpaceTimeSpectrum, v: SpaceTimeSpectrum, form: str) -> SpaceTimeSpectrum:
    """The modulation-smoothed bilinear expressions behind the three estimates.

    dxdx_smoothed:    <sigma>^(-1) d_x (1-d_x^2)^(-1) [(d_x u)(d_x v)]
    product_dx:       <sigma>^(-1) d_x (u v)
    product_smoothed: <sigma>^(-1) d_x (1-d_x^2)^(-1) (u v)
    """
    if form not in BILINEAR_FORMS:
        raise ValueError(f"form must be one of {BILINEAR_FORMS}")
    ik = lambda k: 1j * k
    if form == "dxdx_smoothed":
        conv = st_convolve(u, v, pre1=ik, pre2=ik)
        out = conv.apply_k(nonlocal_multiplier)
    elif form == "product_dx":
        out = st_convolve(u, v).apply_k(ik)
    else:
        out = st_convolve(u, v).apply_k(nonlocal_multiplier)
    return out.apply_sigma(lambda s: 1.0 / bracket(s))


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
    """Seeded batch of random unit-Z^s pairs; reports max/median ratios."""
    if count < 1:
        raise ValueError("need at least one probe pair")
    if workers != 1:
        raise ValueError("workers must be 1: probe pairs run one after another")
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
    the upper threshold at kbound, and at least twice their own.
    """
    ks = np.arange(1, int(round(kbound * params.lam)) + 1) / params.lam
    a, b = region_thresholds(ks, params.j)
    top = np.maximum(4.0 * region_thresholds(kbound, params.j)[1], 2 * b)
    big = ks >= 1.0

    def rows(family, lo, hi):
        return np.where(family, lo, np.nan), np.where(family, hi, np.nan)

    return ks, {"D1": rows(big, 0.0, a), "D2": rows(big, a, b), "D3": rows(big, b, top),
                "D5": rows(~big, 0.0, b), "D4": rows(~big, b, top)}


def _geomspace_rows(start: np.ndarray, stop: np.ndarray, num: int) -> np.ndarray:
    """np.geomspace(start[i], stop[i], num) in row i, bit for bit.

    np.geomspace over arrays rounds every row another way as soon as one row
    has start == stop, so the batch is written out: num points equally
    spaced in log10, with exact endpoints.
    """
    lo, hi = np.log10(start), np.log10(stop)
    y = np.arange(num) * ((hi - lo) / (num - 1))[:, None] + lo[:, None]
    y[:, -1] = hi
    out = np.power(10.0, y)
    out[:, 0], out[:, -1] = start, stop
    return out


def _sigma_grid(group: str, ranges: dict, n_sigma: int = 48) -> np.ndarray:
    """The scan sigmas of a region group: one ascending row per k, NaN-padded.

    A row holds the ends of the k's range in the group, n_sigma geometric
    points from max(lo, 1e-6) and 8 linear points up to min(hi, 4), all
    kept inside the range.  Open ends (D2 both, D4 below) are pulled in by a
    relative 1e-9; a k whose range is empty gets an all-NaN row.
    """
    lo = hi = np.nan
    for region in _GROUPS[group]:  # one member per k: fmax picks it
        rlo, rhi = ranges[region]
        lo = np.fmax(lo, rlo * (1 + 1e-9) if region in ("D2", "D4") else rlo)
        hi = np.fmax(hi, rhi * (1 - 1e-9) if region == "D2" else rhi)
    base = np.maximum(lo, 1e-6)
    geo = np.full((lo.size, n_sigma), np.nan)
    has_geo = hi > base
    geo[has_geo] = _geomspace_rows(base[has_geo], hi[has_geo], n_sigma)
    top = np.minimum(hi, 4.0)
    lin = np.arange(8) * ((top - lo) / 7)[:, None] + lo[:, None]
    lin[:, -1] = top
    lo, hi = lo[:, None], hi[:, None]
    sig = np.concatenate([lo, hi, geo, lin], axis=1)
    sig[~((sig >= lo) & (sig <= hi) & (hi > lo))] = np.nan
    sig.sort(axis=1)
    return sig


def _scan_maxima(scans: dict, params: ModelParams, kbound: float) -> dict:
    """Per scan, the max of <k>^alpha <sigma>^beta over its group's cells with |k| <= kbound.

    Returns (group, inequality) -> (max, (k, sigma)), or (-inf, None) for a
    group with no cells.  Each group's sigma grid is built once and shared
    by its scans.  Ties go to the smallest k, then the smallest sigma.
    """
    ks, ranges = _region_sigma_ranges(params, kbound)
    grids = {group: _sigma_grid(group, ranges) for group in _GROUPS}
    out = {}
    for (group, ineq), (alpha, beta) in scans.items():
        sig = grids[group]
        # float_power is libm pow, as for a scalar; numpy's SIMD ** can be an ulp off
        vals = np.float_power(bracket(ks), alpha)[:, None] * bracket(sig) ** beta
        vals[np.isnan(sig)] = -np.inf
        best = vals.max(initial=-np.inf)
        if best == -np.inf:
            out[(group, ineq)] = -math.inf, None
            continue
        i, c = np.unravel_index(np.argmax(vals), vals.shape)  # first max, row-major
        out[(group, ineq)] = float(best), (float(ks[i]), float(sig[i, c]))
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

    Each box is scanned on one sigma grid per region group (D1+D5, D2,
    D3+D4, D1), shared by all scans of that group: for every lattice k
    <= kbound and the k's region in the group, the ends of its |sigma|
    range, 48 geometric points from max(lo, 1e-6) and 8 linear points up
    to min(hi, 4), with open ends pulled in by a relative 1e-9.  Of equal
    maxima the smallest k, then the smallest sigma, is reported as argmax.
    """
    lo, hi = admissible_window(params)
    in_window = lo <= s <= hi
    if not in_window and not allow_outside_window:
        raise ValueError(
            f"s={s} outside the admissible window [{lo:.6g}, {hi:.6g}] "
            f"for j={params.j}; pass allow_outside_window=True to scan anyway"
        )
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


def scan_csv(s: float, params: ModelParams, kbound: float, n_sigma: int = 16) -> str:
    """Raw per-cell dump of the lower-chain weight ratios: k, sigma, region, ratio.

    Every lattice k <= kbound and each of its regions (D1, D2, D3 for
    k >= 1, D5, D4 below) get n_sigma geometric sigmas from max(lo, 1e-6)
    to max(hi, 2e-6) over the region's |sigma| range, the ranges the
    verify_embeddings grid uses, without its linear points or pulled-in open
    ends.  Rows run by k, then region, then ascending sigma; the ratios of
    all cells are computed at once, and every column but region is a plain
    number.
    """
    scans = _embedding_scans(s, params.j)
    ks, ranges = _region_sigma_ranges(params, kbound)
    cells = []
    for region, (lo, hi) in ranges.items():
        group = next(g for g, members in _GROUPS.items()
                     if region in members and (g, "lower") in scans)
        alpha, beta = scans[(group, "lower")]
        sig = _geomspace_rows(np.maximum(lo, 1e-6), np.maximum(hi, 2e-6), n_sigma)
        # float_power is libm pow, as for scalars; numpy's SIMD ** can be an ulp off
        ratio = np.float_power(bracket(ks), alpha)[:, None] * np.float_power(bracket(sig), beta)
        cells.append((region, sig.tolist(), ratio.tolist()))
    rows = ["k,sigma,region,ratio"]
    for i, k in enumerate(ks.tolist()):
        for region, sig, ratio in cells:
            if not math.isnan(sig[i][0]):
                rows.extend(f"{k!r},{sv!r},{region},{r!r}" for sv, r in zip(sig[i], ratio[i]))
    return "\n".join(rows) + "\n"
