"""Frequency lattice, Fourier conventions, and basic spectral arithmetic.

Everything downstream works on the circle T = [0, 2*pi*lam) with the
frequency lattice Z_lam = {n/lam : n integer, n != 0} truncated at kmax;
`lattice_ks` lists its positive ks up to any other bound.
The transform pair is the symmetric 1/sqrt(2*pi) convention

    F f(k) = (2*pi)^(-1/2) * integral_0^{2*pi*lam} exp(-i k x) f(x) dx
    f(x)   = (2*pi)^(-1/2) * (1/lam) * sum_k exp(i k x) F f(k)

and sums over the lattice always carry the normalized counting measure
(1/lam) * sum.  Products of fields are taken on the grid (symbols), not by
lattice convolution.  The zero mode is excluded from every spectrum; the field
mean is reported (and, in the solver, carried) as a separate scalar.

Fields are real, so a spectrum's rows are Hermitian, amps(-k) =
conj(amps(k)), and a real field is fully given by the n > 0 half of its
row, amps[..., nmax+1:].  The grid transforms are real FFTs (rfft / irfft)
and the packing pair `lattice_to_grid` / `grid_to_lattice` takes and
returns such halves; the time engines compute on halves too.  Full
Hermitian rows are built only where a spectrum leaves them, by
`hermitian_rows`, the one place that turns halves into rows.  Complex
data are handled as a real plus an imaginary part (`hermitian_parts`),
each a real field.  The raw FFT convention differs from the symmetric one
by a fixed scaling, which is confined to the packing pair; nothing else in
the package touches an FFT normalization or the FFT index order.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

TWO_PI_SQRT = math.sqrt(2.0 * math.pi)


def bracket(x):
    """Japanese bracket <x> = (1 + x^2)^(1/2); <0> = 1."""
    return np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2)


@dataclass(frozen=True)
class ModelParams:
    """Fixed model configuration: dispersion order, circle size, truncation.

    j       dispersion order (>= 2 for the full norm machinery; j = 1 is
            accepted so the lower-order comparison mode can run)
    lam     period scale, domain [0, 2*pi*lam), finite and >= 1
    epsilon sharpness margin for the admissible regularity window,
            0 < epsilon < 1/(100 j^5); defaults to half that ceiling
    kmax    frequency truncation K, finite; kmax*lam must be a positive integer
    """

    j: int
    lam: float = 1.0
    epsilon: float | None = None
    kmax: float | None = None

    def __post_init__(self):
        if int(self.j) != self.j or self.j < 1:
            raise ValueError(f"j must be a positive integer, got {self.j}")
        object.__setattr__(self, "j", int(self.j))
        if not (math.isfinite(self.lam) and self.lam >= 1.0):
            raise ValueError(f"lam must be finite and >= 1, got {self.lam}")
        eps_cap = 1.0 / (100.0 * self.j**5)
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", eps_cap / 2.0)
        elif not 0.0 < self.epsilon < eps_cap:
            raise ValueError(
                f"epsilon must lie in (0, {eps_cap:.3g}) for j={self.j}, got {self.epsilon}"
            )
        if self.kmax is None:
            object.__setattr__(self, "kmax", 256.0 / self.lam)
        if not math.isfinite(self.kmax):
            raise ValueError(f"kmax must be finite, got {self.kmax}")
        m = self.kmax * self.lam
        if abs(m - round(m)) > 1e-9 or round(m) < 1:
            raise ValueError(f"kmax*lam must be a positive integer, got {m}")

    @functools.cached_property  # the kernels read it on every call
    def nmax(self) -> int:
        """Integer index bound: lattice points are k = n/lam, 0 < |n| <= nmax."""
        return int(round(self.kmax * self.lam))

    def k_values(self) -> np.ndarray:
        """All lattice frequencies, n = -nmax..nmax (index n+nmax); k=0 slot present but excluded."""
        return np.arange(-self.nmax, self.nmax + 1) / self.lam

    def period(self) -> float:
        return 2.0 * math.pi * self.lam

    def default_grid(self, pad: int = 1) -> int:
        """FFT-friendly sample count resolving modes up to pad*kmax without aliasing."""
        return _next_fast_len(2 * pad * self.nmax + 2)


def lattice_ks(kbound: float, lam: float) -> np.ndarray:
    """The lattice ks n/lam in (0, kbound], n = 1, 2, ..., ascending.

    kbound*lam within 1e-9 of an integer counts as that integer, as
    kmax*lam does in ModelParams; otherwise it is rounded down, so no k
    lies past kbound.
    """
    top = kbound * lam
    n = round(top) if abs(top - round(top)) <= 1e-9 else math.floor(top)
    return np.arange(1, n + 1) / lam


@functools.lru_cache(maxsize=64)  # default_grid runs on every nonlinearity evaluation
def _next_fast_len(n: int) -> int:
    """Smallest m >= n with no prime factor above 11, as scipy.fft.next_fast_len(n)."""
    if n < 1:
        raise ValueError(f"FFT length must be positive, got {n}")
    m = n
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


@dataclass(frozen=True)
class SpatialSpectrum:
    """Complex amplitudes on the truncated lattice; the PDE state in Fourier space.

    amps is a dense array over n = -nmax..nmax (offset by nmax); the n=0
    slot is structurally zero.  Instances are treated as immutable values:
    all operations return new spectra.

    truncation_loss / zero_mode are bookkeeping from operations that had to
    drop content (product tails beyond kmax, product means).
    """

    params: ModelParams
    amps: np.ndarray
    truncation_loss: float = field(default=0.0, compare=False)
    zero_mode: complex = field(default=0j, compare=False)

    def __post_init__(self):
        n = 2 * self.params.nmax + 1
        a = np.asarray(self.amps, dtype=complex)
        if a.shape != (n,):
            raise ValueError(f"amps must have shape ({n},), got {a.shape}")
        if a[self.params.nmax] != 0:
            a = a.copy()
            a[self.params.nmax] = 0.0
        object.__setattr__(self, "amps", a)

    @classmethod
    def zeros(cls, params: ModelParams) -> "SpatialSpectrum":
        return cls(params, np.zeros(2 * params.nmax + 1, dtype=complex))

    @classmethod
    def from_modes(cls, params: ModelParams, modes: dict) -> "SpatialSpectrum":
        """Build from {k: amplitude}; k must sit on the lattice."""
        a = np.zeros(2 * params.nmax + 1, dtype=complex)
        for k, v in modes.items():
            n = k * params.lam
            if abs(n - round(n)) > 1e-9:
                raise ValueError(f"k={k} is not on the lattice (lam={params.lam})")
            n = int(round(n))
            if n == 0:
                raise ValueError("zero mode is excluded from spectra")
            if abs(n) > params.nmax:
                raise ValueError(f"k={k} beyond truncation kmax={params.kmax}")
            a[n + params.nmax] = v
        return cls(params, a)

    def amp(self, k) -> complex:
        n = int(round(k * self.params.lam))
        return self.amps[n + self.params.nmax]

    def k_values(self) -> np.ndarray:
        return self.params.k_values()

    def with_amps(self, amps, **meta) -> "SpatialSpectrum":
        return SpatialSpectrum(self.params, amps, **meta)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """amps(-k) == conj(amps(k)), the signature of a real underlying field.

        tol is relative to the largest amplitude, so small data are judged
        as strictly as large data; the zero spectrum is Hermitian.
        """
        a = self.amps
        return bool(np.abs(a[::-1] - np.conj(a)).max() <= tol * np.abs(a).max())

    def __add__(self, other):
        self._check_compatible(other)
        return SpatialSpectrum(self.params, self.amps + other.amps)

    def __sub__(self, other):
        self._check_compatible(other)
        return SpatialSpectrum(self.params, self.amps - other.amps)

    def __mul__(self, c):
        return SpatialSpectrum(self.params, self.amps * c)

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if self.params.lam != other.params.lam or self.params.nmax != other.params.nmax:
            raise ValueError("spectra live on different lattices")


@functools.cache
def _pocketfft():
    """numpy's gufuncs behind np.fft.irfft / rfft (numpy >= 2), else None; loaded on first use.

    Called directly they give the same numbers without ~4 us of argument
    handling per call, about a third of a transform at kmax = 128.
    Without them the packing pair calls np.fft.
    """
    try:
        from numpy.fft import _pocketfft_umath
    except ImportError:  # numpy 1.x
        return None
    return _pocketfft_umath


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


def x_grid(params: ModelParams, nx: int) -> np.ndarray:
    return np.arange(nx) * (params.period() / nx)


GridWork = namedtuple("GridWork", "half rows grid spectrum parts")


def grid_work(params: ModelParams, nx: int, nf: int) -> GridWork:
    """The packing pair's buffers for nf (nmax,) halves, with the views it writes and returns."""
    m, half = params.nmax, np.zeros((nf, nx // 2 + 1), dtype=complex)
    spectrum = np.empty_like(half)
    return GridWork(half, tuple(half[:, 1:m + 1]), np.empty((nf, nx)), spectrum,
                    (spectrum[:, 1:m + 1], spectrum[:, 0], spectrum[:, m + 1:]))


@functools.lru_cache(maxsize=16)
def _fft_scales(lam: float):
    """(1/c, c), c = sqrt(2*pi)*lam, read-only 0-d: a ufunc takes them faster than floats."""
    c = TWO_PI_SQRT * lam
    return np.broadcast_to(complex(1.0 / c), ()), np.broadcast_to(complex(c), ())


def lattice_to_grid(pos, params: ModelParams, nx: int, work: GridWork | None = None) -> np.ndarray:
    """Real samples on nx >= 2*nmax+1 points of the real fields with n > 0 halves pos.

    pos is a (..., nmax) block of halves, one field per row, or a sequence
    of such blocks, whose fields come out stacked along a new axis -2 (the
    nonlinearity's u and u_x) without being stacked first.  Complex fields
    go through `hermitian_parts` first.  work = grid_work(params, nx, nf),
    for a sequence of nf (nmax,) halves, lets a caller that transforms many
    times allocate nothing: the call writes work.half and returns work.grid.
    """
    m = params.nmax
    scale = _fft_scales(params.lam)[0]
    if work is not None:
        half = work.half
        for block, row in zip(pos, work.rows, strict=True):
            np.multiply(block, scale, out=row)
    elif isinstance(pos, np.ndarray):
        half = np.zeros(pos.shape[:-1] + (nx // 2 + 1,), dtype=complex)
        np.multiply(pos, scale, out=half[..., 1:m + 1])
    else:
        half = np.zeros(np.shape(pos[0])[:-1] + (len(pos), nx // 2 + 1), dtype=complex)
        for i, block in enumerate(pos):
            np.multiply(block, scale, out=half[..., i, 1:m + 1])
    grid = np.empty(half.shape[:-1] + (nx,)) if work is None else work.grid
    fft = _pocketfft()
    if fft is None:
        grid[...] = np.fft.irfft(half, n=nx, axis=-1, norm="forward")
        return grid
    return fft.irfft(half, 1.0, out=grid)


def grid_to_lattice(samples, params: ModelParams, work: GridWork | None = None):
    """Inverse of lattice_to_grid on real samples, returning (pos, zero, tail) per row.

    pos is the n > 0 half of the field's spectrum (`hermitian_rows` makes
    it a full row); zero is the k=0 amplitude (sqrt(2*pi)*lam times the
    mean); tail holds the real FFT's bins beyond kmax (n = nmax+1 .. nx//2),
    which are dropped and whose mass `dropped_mass` gives.  With work (see
    lattice_to_grid), for samples shaped as work.grid, the result is
    work.parts, views of work.spectrum.
    """
    m = params.nmax
    f = np.asarray(samples)
    nx = f.shape[-1]
    fft = _pocketfft()
    if fft is None or f.dtype != np.float64:
        fhat = np.fft.rfft(f, axis=-1, norm="forward")
    else:
        rfft = fft.rfft_n_even if nx % 2 == 0 else fft.rfft_n_odd
        out = work.spectrum if work else np.empty(f.shape[:-1] + (nx // 2 + 1,), dtype=complex)
        fhat = rfft(f, 1.0 / nx, out=out)
    fhat = np.multiply(fhat, _fft_scales(params.lam)[1], out=work.spectrum if work else fhat)
    return work.parts if work else (fhat[..., 1:m + 1], fhat[..., 0], fhat[..., m + 1:])


def hermitian_rows(pos) -> np.ndarray:
    """The exactly Hermitian (..., 2*nmax+1) rows of the real fields with n > 0 halves pos.

    The n < 0 half is the conjugate mirror of pos and the n = 0 slot is 0.
    """
    pos = np.asarray(pos)
    m = pos.shape[-1]
    amps = np.empty(pos.shape[:-1] + (2 * m + 1,), dtype=complex)
    amps[..., m + 1:] = pos
    amps[..., m] = 0.0
    np.conjugate(pos[..., ::-1], out=amps[..., :m])
    return amps


def dropped_mass(tail, nx: int, lam: float):
    """L2 mass (counting measure) per row of the tail grid_to_lattice drops on an nx grid.

    Each tail bin stands for itself and its mirror at -n, except the Nyquist
    bin n = nx/2 (the last one when nx is even), which is its own mirror.
    """
    w = np.abs(tail) ** 2
    mass = 2.0 * np.sum(w, axis=-1)
    if nx % 2 == 0 and w.shape[-1]:
        mass -= w[..., -1]
    return np.sqrt(mass / lam)


def is_real_block(amps) -> bool:
    """True iff every row is exactly Hermitian, amps(-k) == conj(amps(k)): real fields.

    Each mirror pair is compared once: the first half of a row (with the
    middle entry) against the conjugate of the mirrored second half.
    """
    a = np.asarray(amps)
    h = (a.shape[-1] + 1) // 2
    return bool(np.array_equal(a[..., :h], np.conj(a[..., :-h - 1:-1])))


def hermitian_parts(amps):
    """(h, g): the Hermitian rows of the real and imaginary parts of each field, amps = h + i g."""
    a = np.asarray(amps)
    mirror = np.conj(a[..., ::-1])
    return 0.5 * (a + mirror), -0.5j * (a - mirror)


def forward_transform(samples, params: ModelParams, x=None, return_mean: bool = False):
    """Transform uniform samples on [0, 2*pi*lam) to a truncated spectrum.

    The trapezoid rule is exact for band-limited periodic data, so this is
    the continuum-convention transform up to machine precision whenever the
    sample count resolves the content (>= 2*kmax*lam + 1 points).  Real
    samples give a Hermitian spectrum; complex samples are transformed as a
    real and an imaginary part.

    The zero mode (field mean) is dropped from the spectrum; pass
    return_mean=True to receive (spectrum, mean).  A warning diagnostic is
    emitted if the input carries energy above kmax, or an unreported mean.
    """
    f = np.asarray(samples)
    nx = f.shape[-1]
    m = params.nmax
    if nx < 2 * m + 1:
        raise ValueError(f"need at least {2 * m + 1} samples to resolve kmax, got {nx}")
    if x is not None:
        x = np.asarray(x, dtype=float)
        dx = np.diff(x)
        if x.shape != (nx,) or not np.allclose(dx, dx[0], rtol=1e-9, atol=1e-12):
            raise ValueError("sample grid is not uniform")
        if abs(x[0]) > 1e-12 or abs((x[-1] + dx[0]) - params.period()) > 1e-9 * params.period():
            raise ValueError("sample grid does not tile [0, 2*pi*lam)")
    if np.isrealobj(f):
        pos, zero, tail = grid_to_lattice(f, params)
        amps = hermitian_rows(pos)
        mean = zero.real / (TWO_PI_SQRT * params.lam)
    else:
        pos, (zre, zim), (tre, tim) = grid_to_lattice(np.stack([f.real, f.imag]), params)
        re, im = hermitian_rows(pos)
        amps = re + 1j * im
        mean = (zre + 1j * zim) / (TWO_PI_SQRT * params.lam)
        # the complex tail at +n and at -n
        tail = np.concatenate([tre + 1j * tim, np.conj(tre) + 1j * np.conj(tim)], axis=-1)
    if tail.size:
        top = np.abs(tail).max()
        if top > 1e-10 * max(np.abs(amps).max(), abs(mean), 1e-300):
            warnings.warn(
                f"input carries energy above kmax={params.kmax} (max aliased amp "
                f"{top:.3g}); spectrum is truncated",
                stacklevel=2,
            )
    spec = SpatialSpectrum(params, amps)
    if return_mean:
        return spec, mean
    if abs(mean) > 1e-10 * max(np.abs(amps).max(), 1.0):
        warnings.warn(
            f"dropping nonzero field mean {mean:.3g}; pass return_mean=True to keep it",
            stacklevel=2,
        )
    return spec


def inverse_transform(spec: SpatialSpectrum, nx: int | None = None, mean=0.0) -> np.ndarray:
    """Samples of the field on the uniform grid; real iff the spectrum is Hermitian.

    A spectrum that is Hermitian within is_hermitian's tolerance gives the
    samples of its real part.
    """
    p = spec.params
    m = p.nmax
    if nx is None:
        nx = p.default_grid()
    if nx < 2 * m + 1:
        raise ValueError(f"nx={nx} cannot carry modes up to kmax; need >= {2 * m + 1}")
    h, g = hermitian_parts(spec.amps)
    if spec.is_hermitian() and np.isrealobj(np.asarray(mean)):
        return lattice_to_grid(h[m + 1:], p, nx) + mean
    re, im = lattice_to_grid((h[m + 1:], g[m + 1:]), p, nx)
    return re + 1j * im + mean


@functools.lru_cache(maxsize=64)  # hs_norm runs on every diagnostic row
def sobolev_weights(params: ModelParams, s: float) -> np.ndarray:
    """<k>^(2s) on the lattice, n = -nmax..nmax; read-only."""
    w = bracket(params.k_values()) ** (2.0 * s)
    w.setflags(write=False)
    return w


def hs_norm(spec: SpatialSpectrum, s: float) -> float:
    """Sobolev norm ((1/lam) * sum <k>^(2s) |amps|^2)^(1/2)."""
    w = sobolev_weights(spec.params, s)
    return math.sqrt(float(np.sum(w * np.abs(spec.amps) ** 2)) / spec.params.lam)


# -- serialization ------------------------------------------------------------

def spectrum_to_json(spec: SpatialSpectrum) -> str:
    modes = []
    m = spec.params.nmax
    for i, v in enumerate(spec.amps):
        if v != 0:
            modes.append({"k": (i - m) / spec.params.lam, "re": float(v.real), "im": float(v.imag)})
    doc = {"lambda": spec.params.lam, "j": spec.params.j, "modes": modes}
    return json.dumps(doc, sort_keys=True)


def spectrum_from_json(text: str, kmax: float | None = None, **kwargs) -> SpatialSpectrum:
    doc = json.loads(text)
    lam = doc["lambda"]
    ks = [mode["k"] for mode in doc["modes"]]
    if kmax is None:
        top = max((abs(k) for k in ks), default=1.0 / lam)
        kmax = max(256.0 / lam, math.ceil(top * lam) / lam)
    params = ModelParams(j=doc["j"], lam=lam, kmax=kmax, **kwargs)
    return SpatialSpectrum.from_modes(
        params, {mode["k"]: mode["re"] + 1j * mode["im"] for mode in doc["modes"]}
    )
