"""The two-mode family that breaks the bilinear estimate below the critical index.

The probe data are unit-amplitude slabs on the characteristic surface,

    F u1(k, tau) = [k = +-N]     * [|sigma| <= 1]
    F u2(k, tau) = [k = +-(N-1)] * [|sigma| <= 1],

whose W^s size scales like N^s.  Pushing the pair through the modulation-weighted
Duhamel response <sigma>^(-1) F(u1, u2), the form "F" of bourgain.bilinear_output (the
sum of the lemma forms dcl probe measures one by one), produces output at k = +-1 and
+-(2N-1); the low modes sit at modulation ~ N^(2j) (the resonance gap), and their
contribution scales like N^(2-j).  A contraction estimate would force N^(2-j) <~ N^(2s),
so measuring both log-log slopes decides whether the family breaks the estimate at a
given s: it does exactly when s < 1 - j/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bourgain import (SpaceTimeSpectrum, _characteristic, _check_dtau, _ints, _Layout,
                       bilinear_output, ws_norm)
from .lattice import ModelParams, is_integer


@dataclass(frozen=True)
class CounterexampleConfig:
    j: int
    s: float
    N_list: tuple = (16, 32, 64, 128, 256, 512, 1024)
    dtau: float = 0.125

    def __post_init__(self):
        if not self.N_list:
            raise ValueError("N_list must hold at least one N")
        if not all(is_integer(N) and N >= 2 for N in self.N_list):
            raise ValueError(f"N_list entries must be integers >= 2, got {list(self.N_list)!r}")
        object.__setattr__(self, "N_list", tuple(sorted(self.N_list)))


def build_counterexample(N: int, j: int, dtau: float = 0.125):
    """The (u1, u2) slab pair at frequency scale N, discretized at dtau.

    Cell centers tile the slab |sigma| <= 1 exactly, so the slab measure is
    exact; 1/dtau must be a positive integer (and <= the slab width) so the
    centers land on a global lattice shared by both factors.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    _check_dtau(dtau)
    if dtau > 2.0:
        raise ValueError(f"slab of width 2 is narrower than dtau={dtau}")
    params = ModelParams(j=j, lam=1.0, kmax=float(2 * N))
    index, _, step = _characteristic(params, dtau)
    if step.numerator != 1:
        raise ValueError("1/dtau must be an integer so slab centers share one lattice")
    q = step.denominator

    def slab(mode: int) -> SpaceTimeSpectrum:  # 2q cells tiling |sigma| <= 1 around M_n
        ns = np.array([-mode, mode], dtype=np.int64)
        layout = _Layout(params, dtau, dtau / 2.0, ns, _ints(index[ns + params.nmax] - q),
                         np.arange(3, dtype=np.int64) * (2 * q))
        return SpaceTimeSpectrum._from_layout(layout, np.ones(4 * q, dtype=complex))

    return slab(N), slab(N - 1)


def duhamel_weighted_bilinear(u1: SpaceTimeSpectrum, u2: SpaceTimeSpectrum,
                              s: float) -> float:
    """W^s size of <sigma>^(-1) F(u1, u2), F the model's bilinear symbol (bilinear_output)."""
    out = bilinear_output(u1, u2, "F")
    if out.n_cells() == 0:
        warnings.warn("slab supports do not interact; returning 0", stacklevel=2)
        return 0.0
    return ws_norm(out, s)


@dataclass
class CollisionReport:
    j: int
    s: float
    dtau: float
    rows: list
    slope_L: float | None
    slope_R: float | None

    @property
    def critical_s(self) -> float:
        return 1.0 - self.j / 2.0

    @property
    def verdict(self) -> str | None:
        """The collision verdict of collision_scan; None without fitted slopes.

        INCONCLUSIVE iff |s - (1 - j/2)| <= 1/20, decided in fractions on the
        shortest decimal of s, so s = -0.55 at j = 3 is on the band's edge
        like s = 0.05 at j = 2.
        """
        if self.slope_L is None:
            return None
        if abs(Fraction(repr(float(self.s))) - Fraction(self.critical_s)) <= Fraction(1, 20):
            return "INCONCLUSIVE"
        return "BREAKS" if self.slope_L - self.slope_R > 0.0 else "HOLDS-AT-THIS-PROBE"

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
    critical index, edges included and decided exactly on the shortest
    decimal of s (CollisionReport.verdict), the regression band cannot
    separate the slopes and the verdict is INCONCLUSIVE.  Fewer than 3
    frequencies: raw table only.
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
        return CollisionReport(cfg.j, cfg.s, cfg.dtau, rows, None, None)
    logN = np.array([r["logN"] for r in rows])
    slope_L = float(np.polyfit(logN, [r["logL"] for r in rows], 1)[0])
    slope_R = float(np.polyfit(logN, [r["logR"] for r in rows], 1)[0])
    return CollisionReport(cfg.j, cfg.s, cfg.dtau, rows, slope_L, slope_R)
