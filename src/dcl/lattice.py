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
returns such halves in the buffers of a `GridWork` and never allocates:
`grid_work`, the only code that knows where a half sits in an FFT row,
builds one for the stepper, symbols.nonlinearity_rows,
symbols.padded_product and the two transforms.  The time engines compute
on halves too.  Full Hermitian rows are built only where a spectrum leaves
them, by `hermitian_rows`, the one place that turns halves into rows.  Rows enter
the half route through `real_half`, the one realness rule in the package:
the transforms, products, F, the solvers and the time-sample lift
(bourgain.from_time_samples) reject a field that is not real (complex
samples, a spectrum that is not Hermitian) with a ValueError instead of
computing on it.  The raw FFT convention differs from the symmetric one by
a fixed scaling, which is confined to the packing pair; nothing else in the
package touches an FFT normalization or, apart from grid_work, the FFT index order.
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


def is_integer(x) -> bool:
    """True for a Python or numpy integer but not a bool: the test of every integer count."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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


def uniform_step(t: np.ndarray, message: str) -> float:
    """t's step when all are > 0 and within a relative 1e-8 of the first; else ValueError."""
    steps = np.diff(t)
    if not (np.all(steps > 0) and np.allclose(steps, steps[0], rtol=1e-8, atol=0.0)):
        raise ValueError(message)
    return float(steps[0])


@functools.lru_cache(maxsize=64)  # default_grid runs on every nonlinearity evaluation
def _next_fast_len(n: int) -> int:
    """Smallest m >= n with no prime factor above 5: pocketfft's radix-7 and -11 passes are slow."""
    if n < 1:
        raise ValueError(f"FFT length must be positive, got {n}")
    m = n
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _lattice_index(params: ModelParams, k) -> int:
    """The row index n + nmax of the lattice point k = n/lam, |n| <= nmax, else ValueError."""
    n = k * params.lam
    if not (math.isfinite(n) and abs(n - round(n)) <= 1e-9):
        raise ValueError(f"k={k} is not on the lattice (lam={params.lam})")
    n = int(round(n))
    if abs(n) > params.nmax:
        raise ValueError(f"k={k} beyond truncation kmax={params.kmax}")
    return n + params.nmax


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
    def from_modes(cls, params: ModelParams, modes) -> "SpatialSpectrum":
        """Build from {k: amplitude} or (k, amplitude) pairs.

        Each k must sit on the lattice, 0 < |k| <= kmax, and name its own
        lattice point: a repeated one is a ValueError, not an overwrite.
        """
        a = np.zeros(2 * params.nmax + 1, dtype=complex)
        seen = set()
        for k, v in modes.items() if isinstance(modes, dict) else modes:
            i = _lattice_index(params, k)
            if i == params.nmax:
                raise ValueError("zero mode is excluded from spectra")
            if i in seen:
                raise ValueError(f"k={k} repeats the mode k={(i - params.nmax) / params.lam}")
            seen.add(i)
            a[i] = v
        return cls(params, a)

    def amp(self, k) -> complex:
        """The amplitude at the lattice point k, |k| <= kmax; amp(0) is the structural zero."""
        return self.amps[_lattice_index(self.params, k)]

    def with_amps(self, amps, **meta) -> "SpatialSpectrum":
        return SpatialSpectrum(self.params, amps, **meta)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """amps(-k) == conj(amps(k)) within tol: a real field, by real_half's rule."""
        try:
            real_half(self.amps, "amps", tol)
        except ValueError:
            return False
        return True

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

    Called directly they give the same numbers without ~4-5 us of argument
    handling and copying per call: a 2-row transform at kmax = 128 takes
    ~5.6 us instead of 10-11 us.  Without them the packing pair calls np.fft.
    """
    try:
        from numpy.fft import _pocketfft_umath
    except ImportError:  # numpy 1.x
        return None
    return _pocketfft_umath


def x_grid(params: ModelParams, nx: int) -> np.ndarray:
    return np.arange(nx) * (params.period() / nx)


GridWork = namedtuple("GridWork", "half rows grid spectrum parts scales inverse forward")


def grid_work(params: ModelParams, nx: int, nf: int, batch: tuple = ()) -> GridWork:
    """The packing pair's buffers for nf (*batch, nmax) blocks of halves on nx points, and views.

    The one place that knows the real FFT row's layout: a half in bins 1..nmax
    (rows, views of half), the zero mode in bin 0, the tail in bins nmax+1..nx//2.  It
    fixes all the pair reads: the scales (1/c, c), c = sqrt(2*pi)*lam, and the transforms
    inverse() (half -> grid) and forward() (grid -> spectrum) on the buffers, their route
    taken here, once: _pocketfft's gufuncs (the rfft for nx's parity) if found, else np.fft.
    """
    m, half = params.nmax, np.zeros((*batch, nf, nx // 2 + 1), dtype=complex)
    spectrum, grid = np.empty_like(half), np.empty((*batch, nf, nx))
    scales, (one, inv_nx) = _fft_constants(params.lam, nx)
    fft = _pocketfft()
    if fft is None:
        inverse = lambda: np.copyto(grid, np.fft.irfft(half, n=nx, axis=-1, norm="forward"))
        forward = lambda: np.copyto(spectrum, np.fft.rfft(grid, axis=-1, norm="forward"))
    else:  # out passed by position: the call is faster
        rfft = fft.rfft_n_odd if nx % 2 else fft.rfft_n_even
        inverse, forward = (functools.partial(fft.irfft, half, one, grid),
                            functools.partial(rfft, grid, inv_nx, spectrum))
    return GridWork(half, tuple([half[..., i, 1:m + 1] for i in range(nf)]), grid, spectrum,
                    (spectrum[..., 1:m + 1], spectrum[..., 0], spectrum[..., m + 1:]),
                    scales, inverse, forward)


@functools.lru_cache(maxsize=16)
def _fft_constants(lam: float, nx: int):
    """((1/c, c), (1, 1/nx)), c = sqrt(2*pi)*lam: the pair's scales and the irfft and rfft
    norms, read-only 0-d arrays, which a ufunc takes faster than floats."""
    c = TWO_PI_SQRT * lam
    pairs = ((complex(1.0 / c), complex(c)), (1.0, 1.0 / nx))
    return tuple(tuple(np.broadcast_to(x, ()) for x in pair) for pair in pairs)


def lattice_to_grid(pos, work: GridWork) -> np.ndarray:
    """work.grid, written with the real samples of the fields whose n > 0 halves are pos.

    pos is a sequence of the nf (*batch, nmax) blocks that work = grid_work(params, nx, nf,
    batch) was built for, one field per row; the fields come out along axis -2 of work.grid,
    not stacked first (the nonlinearity's u and u_x).  Full rows go through `real_half` first.
    Everything the pair reads comes from work.
    """
    scale, rows = work.scales[0], work.rows
    if len(pos) != len(rows):  # what zip(strict=True) checks, ~0.3 us a call cheaper
        raise ValueError(f"{len(pos)} blocks of halves for a work of {len(rows)}")
    for block, row in zip(pos, rows):
        np.multiply(block, scale, out=row)
    work.inverse()
    return work.grid


def grid_to_lattice(work: GridWork):
    """Inverse of lattice_to_grid: transforms work.grid into work.spectrum, returns work.parts.

    The parts are (pos, zero, tail) per row: pos is the n > 0 half of the field's spectrum
    (`hermitian_rows` makes it a full row); zero is the k=0 amplitude (sqrt(2*pi)*lam times
    the mean); tail holds the real FFT's bins beyond kmax (n = nmax+1 .. nx//2), which are
    dropped and whose mass `dropped_mass` gives.
    """
    work.forward()
    np.multiply(work.spectrum, work.scales[1], out=work.spectrum)
    return work.parts


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


def real_half(amps, what: str, tol: float = 1e-12) -> np.ndarray:
    """The n > 0 halves, amps[..., nmax+1:], of (..., 2*nmax+1) rows that are real fields.

    A row is a real field when it is Hermitian, amps(-k) == conj(amps(k)),
    to within tol times its largest amplitude, so small data are judged as
    strictly as large data and a zero row passes.  Otherwise, or when an
    amplitude is not finite, ValueError names the argument what.  A row
    that is Hermitian only within tol is given by its n > 0 half.  A row
    whose mirror difference is exactly zero is finite and Hermitian (NaN
    or inf leaves a nonzero difference), so only the other rows are measured.
    """
    a = np.asarray(amps)
    h = (a.shape[-1] + 1) // 2
    diff = np.conjugate(a[..., :-h - 1:-1])
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, a nonzero difference too
        np.subtract(a[..., :h], diff, out=diff)
    inexact = diff.any(axis=-1)
    if inexact.any():
        top = np.abs(a[inexact]).max(axis=-1)
        if not np.isfinite(top).all():
            raise ValueError(f"{what} has a non-finite amplitude")
        if not (np.abs(diff[inexact]).max(axis=-1) <= tol * top).all():
            raise ValueError(f"{what} must be a real field (a Hermitian spectrum, "
                             "amps(-k) = conj(amps(k)))")
    return a[..., h:]


def forward_transform(samples, params: ModelParams, return_mean: bool = False):
    """Transform uniform real samples on [0, 2*pi*lam) to a truncated Hermitian spectrum.

    The trapezoid rule is exact for band-limited periodic data, so this is
    the continuum-convention transform up to machine precision whenever the
    sample count resolves the content (>= 2*kmax*lam + 1 points).  Complex
    or non-finite samples are a ValueError: fields are real and finite.

    The zero mode (field mean) is dropped from the spectrum; pass
    return_mean=True to receive (spectrum, mean).  A warning diagnostic is
    emitted if the input carries energy above kmax, or an unreported mean,
    of more than 1e-10 relative (eps of the samples' dtype below float64).
    """
    f = np.asarray(samples)
    if not np.isrealobj(f):
        raise ValueError("samples must be real: fields are real")
    if not np.isfinite(f).all():
        raise ValueError("samples must be finite")
    nx = f.shape[-1]
    m = params.nmax
    if nx < 2 * m + 1:
        raise ValueError(f"need at least {2 * m + 1} samples to resolve kmax, got {nx}")
    floor = np.finfo(f.dtype).eps if f.dtype.kind == "f" and f.itemsize < 8 else 1e-10
    work = grid_work(params, nx, 1, f.shape[:-1])
    work.grid[..., 0, :] = f  # int and float32 samples become float64 here
    pos, zero, tail = grid_to_lattice(work)
    amps = hermitian_rows(pos[..., 0, :])
    mean = zero[..., 0].real / (TWO_PI_SQRT * params.lam)
    if tail.size:
        top = np.abs(tail).max()
        if top > floor * max(np.abs(amps).max(), abs(mean), 1e-300):
            warnings.warn(
                f"input carries energy above kmax={params.kmax} (max aliased amp "
                f"{top:.3g}); spectrum is truncated",
                stacklevel=2,
            )
    spec = SpatialSpectrum(params, amps)
    if return_mean:
        return spec, mean
    if abs(mean) > floor * max(np.abs(amps).max(), 1.0):
        warnings.warn(
            f"dropping nonzero field mean {mean:.3g}; pass return_mean=True to keep it",
            stacklevel=2,
        )
    return spec


def inverse_transform(spec: SpatialSpectrum, nx: int | None = None, mean=0.0) -> np.ndarray:
    """Real samples of the field on the uniform grid of nx points, plus the real mean.

    The spectrum must be a real field (real_half) and mean real; otherwise
    ValueError.  A spectrum that is Hermitian only within real_half's
    tolerance gives the samples of the field its n > 0 half stands for.
    """
    p = spec.params
    m = p.nmax
    if nx is None:
        nx = p.default_grid()
    if nx < 2 * m + 1:
        raise ValueError(f"nx={nx} cannot carry modes up to kmax; need >= {2 * m + 1}")
    pos = real_half(spec.amps, "the spectrum")
    if not np.isrealobj(mean):
        raise ValueError(f"mean must be real, got {mean!r}")
    return lattice_to_grid((pos,), grid_work(p, nx, 1))[0] + mean


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


def spectrum_from_json(text: str, kmax: float | None = None) -> SpatialSpectrum:
    doc = json.loads(text)
    lam = doc["lambda"]
    ks = [mode["k"] for mode in doc["modes"]]
    if kmax is None:
        top = max((abs(k) for k in ks), default=1.0 / lam)
        kmax = max(256.0 / lam, math.ceil(top * lam) / lam)
    params = ModelParams(j=doc["j"], lam=lam, kmax=kmax)
    return SpatialSpectrum.from_modes(
        params, [(mode["k"], mode["re"] + 1j * mode["im"]) for mode in doc["modes"]]
    )
