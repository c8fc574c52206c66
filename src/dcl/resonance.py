"""Exhaustive certificate for the resonance lower bound on interacting frequencies.

For an interacting integer triple k = k1 + k2 (all nonzero) the resonance
function k^(2j+1) - k1^(2j+1) - k2^(2j+1) measures how far the triple sits
from the characteristic surface; the certified bound is

    |k^(2j+1) - k1^(2j+1) - k2^(2j+1)| >= (2j+1) 4^(-j) |k_min| |k_max|^(2j),

checked in exact integer arithmetic over a full lattice box.  The
certificate covers the box only: every triple in it is checked, and
nothing is claimed beyond it.  The bound reaches the modulations
sigma = tau - P(k) by proof, for every tau: with tau = tau1 + tau2,
sigma - sigma1 - sigma2 = -(P(k) - P(k1) - P(k2)), so by the triangle
inequality 3*max(|sigma|, |sigma1|, |sigma2|) is at least the bound, whose
constant (2j+1) 4^(-j) is 3 c_j (symbols.threshold_coefficient).

verify_resonance_bound walks the triples as arrays, a block of k1 rows at
a time, over exact tables of P(k) and (2j+1)|k|^(2j).  Exactness is kept
by the dtype: int64 when a bound computed in Python ints before the walk,
(2j+1) * Kmax^(2j+1), shows that no intermediate can overflow, and
otherwise object arrays of Python ints (never overflowing) running the
same expressions; for j = 4 the switch is at Kmax = 101.  The bound is
compared without multiplying by 4^j: res * 4^j < num is res < ceil(num / 4^j).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .lattice import is_integer
from .symbols import dispersion_symbol, threshold_coefficient

_CHUNK_ROWS = 32  # k1 rows per array step of the walk: bounds its scratch memory


@dataclass(frozen=True)
class Triple:
    """An interaction k = k1 + k2 on the integer lattice, optionally with modulations."""

    k: int
    k1: int
    k2: int
    sigma: float | None = None
    sigma1: float | None = None
    sigma2: float | None = None

    def __post_init__(self):
        if self.k != self.k1 + self.k2:
            raise ValueError(f"not an interaction: {self.k} != {self.k1} + {self.k2}")
        if 0 in (self.k, self.k1, self.k2):
            raise ValueError("all three frequencies must be nonzero")

    @property
    def kmin(self) -> int:
        return min(abs(self.k), abs(self.k1), abs(self.k2))

    @property
    def kmax(self) -> int:
        return max(abs(self.k), abs(self.k1), abs(self.k2))


def resonance_magnitude(t: Triple, j: int) -> int:
    """|k^(2j+1) - k1^(2j+1) - k2^(2j+1)|, exact."""
    e = 2 * j + 1
    return abs(t.k**e - t.k1**e - t.k2**e)


def bound_num_den(t: Triple, j: int) -> tuple[int, int]:
    """The certified lower bound as an exact rational (numerator, denominator)."""
    w = 3 * threshold_coefficient(j)
    return w.numerator * t.kmin * t.kmax ** (2 * j), w.denominator


def verify_resonance_bound(kmax_box: int, j: int) -> dict:
    """Exhaustively certify the resonance bound on the box |k|, |k1|, |k2| <= kmax_box.

    Walks every admissible triple (k1, then k2, ascending), checking the
    bound in exact integer arithmetic.  Returns the violation count (must
    be 0), the minimum slack ratio resonance/bound, and the first triple
    where it is attained.  kmax_box must be an integer >= 2 and j an
    integer >= 1 (ValueError otherwise).
    """
    if not is_integer(kmax_box) or kmax_box < 2:
        raise ValueError(f"kmax_box must be an integer >= 2, got {kmax_box!r}")
    if not is_integer(j) or j < 1:
        raise ValueError(f"j must be an integer >= 1, got {j!r}")
    box, j = int(kmax_box), int(j)
    w = 3 * threshold_coefficient(j)  # (2j+1) / 4^j, in lowest terms
    den = w.denominator
    # every intermediate below is at most (2j+1) * Kmax^(2j+1) in magnitude
    # (|P(k) - P(k1) - P(k2)| <= 3 Kmax^(2j+1), num <= (2j+1) Kmax^(2j+1))
    dtype = np.int64 if (2 * j + 1) * box ** (2 * j + 1) <= np.iinfo(np.int64).max else object
    # exact tables: P(k), and (2j+1) |k|^(2j), so that the bound
    # (2j+1) |k_min| |k_max|^(2j) is |k_min| * weight[|k_max|]
    ks = np.arange(-box, box + 1)
    disp = np.array([dispersion_symbol(int(k), j) for k in ks], dtype=dtype)
    weight = np.array([w.numerator * a ** (2 * j) for a in range(box + 1)], dtype=dtype)
    rows = ks[ks != 0]
    checked = violations = 0
    min_slack, argmin = math.inf, None
    for start in range(0, rows.size, _CHUNK_ROWS):
        k1 = rows[start:start + _CHUNK_ROWS, None]
        k = k1 + ks
        keep = (ks != 0) & (k != 0) & (np.abs(k) <= box)
        k1, k2 = np.broadcast_to(k1, keep.shape)[keep], np.broadcast_to(ks, keep.shape)[keep]
        k = k[keep]
        res = np.abs(disp[k + box] - disp[k1 + box] - disp[k2 + box])
        mags = np.abs(np.stack([k, k1, k2]))
        num = mags.min(axis=0).astype(dtype) * weight[mags.max(axis=0)]
        # x * den < num  <=>  x < ceil(num / den) for integers x, den > 0
        violations += int(np.count_nonzero(res < -(-num // den)))
        # ratios rank in floats; Python's res * den / num decides near the minimum,
        # where the k1 = -2 k2 family ties exactly
        approx = (res / num).astype(float)
        for i in np.flatnonzero(approx <= approx.min() * (1.0 + 1e-9)):
            slack = int(res[i]) * den / int(num[i])
            if slack < min_slack:
                min_slack, argmin = slack, (int(k[i]), int(k1[i]), int(k2[i]))
        checked += k.size
    return {"j": j, "Kmax": box, "triples_checked": checked, "violations": violations,
            "min_slack": min_slack, "argmin": list(argmin) if argmin else None}


def certificate_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


def classify_max_case(t: Triple, j: int) -> str:
    """Which modulation attains the max: 'a' (sigma), 'b' (sigma1), 'c' (sigma2).

    Ties resolve to the lowest label.  Asserts the attained max clears a
    third of the resonance bound, which the identity forces.
    """
    if None in (t.sigma, t.sigma1, t.sigma2):
        raise ValueError("classify_max_case needs sigma values attached")
    mags = (abs(t.sigma), abs(t.sigma1), abs(t.sigma2))
    case = "abc"[mags.index(max(mags))]
    num, den = bound_num_den(t, j)
    if 3 * max(mags) * den < num:
        raise AssertionError(
            f"modulation max {max(mags)} below resonance bound/3 for {t}"
        )
    return case
