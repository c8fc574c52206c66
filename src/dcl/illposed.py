"""The two-mode family that breaks the bilinear estimate below the critical index.

The probe data are unit-amplitude slabs on the characteristic surface,

    F u1(k, tau) = [k = +-N]     * [|sigma| <= 1]
    F u2(k, tau) = [k = +-(N-1)] * [|sigma| <= 1],

whose W^s size scales like N^s.  Pushing the pair through the
modulation-weighted Duhamel response <sigma>^(-1) F(u1, u2) produces output
at k = +-1 and +-(2N-1); the low modes sit at modulation ~ N^(2j) (the
resonance gap), and their contribution scales like N^(2-j).  A contraction
estimate would force N^(2-j) <~ N^(2s), so measuring both log-log slopes
decides whether the family breaks the estimate at a given s: it does
exactly when s < 1 - j/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bourgain import SpaceTimeSpectrum, st_convolve, ws_norm
from .lattice import ModelParams, bracket
from .symbols import dispersion_symbol, nonlinearity_multipliers


@dataclass(frozen=True)
class CounterexampleConfig:
    j: int
    s: float
    N_list: tuple = (16, 32, 64, 128, 256, 512, 1024)
    dtau: float = 0.125

    def __post_init__(self):
        if any(N < 2 for N in self.N_list):
            raise ValueError("every N must be >= 2")
        object.__setattr__(self, "N_list", tuple(sorted(self.N_list)))


def build_counterexample(N: int, j: int, dtau: float = 0.125):
    """The (u1, u2) slab pair at frequency scale N, discretized at dtau.

    Cell centers tile the slab |sigma| <= 1 exactly, so the slab measure is
    exact; 1/dtau must be a positive integer (and <= the slab width) so the
    centers land on a global lattice shared by both factors.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if dtau > 2.0:
        raise ValueError(f"slab of width 2 is narrower than dtau={dtau}")
    q = 1.0 / dtau
    if abs(q - round(q)) > 1e-12:
        raise ValueError("1/dtau must be an integer so slab centers share one lattice")
    q = int(round(q))
    params = ModelParams(j=j, lam=1.0, kmax=float(2 * N))
    count = 2 * q  # cells tiling [-1, 1]
    tau0 = dtau / 2.0

    def slab_bands(mode: int) -> dict:
        bands = {}
        for n in (mode, -mode):
            m0 = q * (dispersion_symbol(n, j) - 1)
            bands[n] = [(m0, np.ones(count, dtype=complex))]
        return bands

    u1 = SpaceTimeSpectrum(params, dtau, tau0, slab_bands(N))
    u2 = SpaceTimeSpectrum(params, dtau, tau0, slab_bands(N - 1))
    return u1, u2


def duhamel_weighted_bilinear(u1: SpaceTimeSpectrum, u2: SpaceTimeSpectrum,
                              s: float) -> float:
    """W^s size of <sigma>^(-1) F(u1, u2), F the model's bilinear symbol.

    F's two multipliers (mu = 1) act on the plain convolution and on the
    convolution of derivatives.
    """
    conv = st_convolve(u1, u2)
    dconv = st_convolve(u1, u2, pre1=lambda k: 1j * k, pre2=lambda k: 1j * k)
    if conv.n_cells() == 0:
        warnings.warn("slab supports do not interact; returning 0", stacklevel=2)
        return 0.0
    out = conv.apply_k(lambda k: nonlinearity_multipliers(k)[0]) \
        + dconv.apply_k(lambda k: nonlinearity_multipliers(k)[1])
    out = out.apply_sigma(lambda sig: 1.0 / bracket(sig))
    return ws_norm(out, s)


@dataclass
class CollisionReport:
    j: int
    s: float
    dtau: float
    rows: list
    slope_L: float | None
    slope_R: float | None
    verdict: str | None
    critical_s: float = field(init=False)

    def __post_init__(self):
        self.critical_s = 1.0 - self.j / 2.0

    def to_dict(self) -> dict:
        return {
            "j": self.j,
            "s": self.s,
            "dtau": self.dtau,
            "critical_s": self.critical_s,
            "slopeL": self.slope_L,
            "slopeR": self.slope_R,
            "verdict": self.verdict,
            "rows": self.rows,
        }

    def csv(self) -> str:
        out = ["N,L,R,logN,logL,logR"]
        for r in self.rows:
            out.append(
                f"{r['N']},{r['L']!r},{r['R']!r},{r['logN']!r},{r['logL']!r},{r['logR']!r}"
            )
        return "\n".join(out) + "\n"


def collision_scan(cfg: CounterexampleConfig) -> CollisionReport:
    """Fit the scaling exponents of both sides and call the collision verdict.

    L(N) is the Duhamel-weighted bilinear size, R(N) the product of the two
    input sizes; BREAKS means L grows strictly faster than R, i.e. no
    constant can close the estimate from this family.  Within +-0.05 of the
    critical index the regression band cannot separate the slopes and the
    verdict is INCONCLUSIVE.  Fewer than 3 frequencies: raw table only.
    A side that is not positive at some N (R underflows to 0 for very
    negative s) has no logarithm to fit and raises ValueError.
    """
    rows = []
    for N in cfg.N_list:
        u1, u2 = build_counterexample(N, cfg.j, cfg.dtau)
        L = duhamel_weighted_bilinear(u1, u2, cfg.s)
        R = ws_norm(u1, cfg.s) * ws_norm(u2, cfg.s)
        for side, value in (("L", L), ("R", R)):
            if not value > 0:
                raise ValueError(f"{side}(N={N}) = {value!r} at s={cfg.s} is not positive; "
                                 "its log-log slope cannot be fitted")
        rows.append({
            "N": int(N), "L": L, "R": R,
            "logN": math.log(N), "logL": math.log(L), "logR": math.log(R),
        })
    if len(rows) < 3:
        return CollisionReport(cfg.j, cfg.s, cfg.dtau, rows, None, None, None)
    logN = np.array([r["logN"] for r in rows])
    slope_L = float(np.polyfit(logN, [r["logL"] for r in rows], 1)[0])
    slope_R = float(np.polyfit(logN, [r["logR"] for r in rows], 1)[0])
    critical = 1.0 - cfg.j / 2.0
    if abs(cfg.s - critical) <= 0.05:
        verdict = "INCONCLUSIVE"
    elif slope_L - slope_R > 0.0:
        verdict = "BREAKS"
    else:
        verdict = "HOLDS-AT-THIS-PROBE"
    return CollisionReport(cfg.j, cfg.s, cfg.dtau, rows, slope_L, slope_R, verdict)
