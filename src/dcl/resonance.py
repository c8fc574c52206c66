"""Exhaustive certificate for the resonance lower bound on interacting frequencies.

For an interacting integer triple k = k1 + k2 (all nonzero) the resonance
function k^(2j+1) - k1^(2j+1) - k2^(2j+1) measures how far the triple sits
from the characteristic surface; the certified bound is

    |k^(2j+1) - k1^(2j+1) - k2^(2j+1)| >= (2j+1) 4^(-j) |k_min| |k_max|^(2j),

checked in exact integer arithmetic over a full lattice box.  The
certificate covers the box only: every triple in it is checked, and
nothing is claimed beyond it.  With tau = tau1 + tau2, the signed
modulation identity sigma - sigma1 - sigma2 = -(P(k) - P(k1) - P(k2))
transfers the bound to 3*max(|sigma|, |sigma1|, |sigma2|); the seeded
random tau trials check that identity and the transferred bound, they do
not cover every tau.

verify_resonance_bound walks the triples as arrays, a block of k1 rows at
a time, over exact tables of P(k) and (2j+1)|k|^(2j).  Exactness is kept
by the dtype: int64 when a bound computed in Python ints before the walk,
max(7, 2j+1) * Kmax^(2j+1), shows that no intermediate can overflow, and
otherwise object arrays of Python ints (never overflowing) running the
same expressions; for j = 4 the switch is at Kmax = 101.  The bound is
compared without multiplying by 4^j: res * 4^j < num is res < ceil(num / 4^j).
The tau draws are the randrange(-Kmax^(2j+1), Kmax^(2j+1) + 1) stream of
random.Random(seed), rebuilt in blocks from numpy's MT19937 seeded with
that generator's state (TauDraws), so a certificate is the same as one
made by a per-triple loop calling randrange.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .symbols import dispersion_symbol

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
    return (2 * j + 1) * t.kmin * t.kmax ** (2 * j), 4**j


def verify_resonance_bound(kmax_box: int, j: int, tau_trials: int = 3, seed: int = 7) -> dict:
    """Exhaustively certify the resonance bound and the modulation identity.

    Walks every admissible triple in the box (k1, then k2, ascending),
    checking the bound in exact integer arithmetic, and for tau_trials
    random integer tau-assignments per triple verifies
    sigma - sigma1 - sigma2 = -(P(k) - P(k1) - P(k2)) and the resulting
    3*max(|sigma|.) >= |resonance| >= bound.  Returns the violation count
    (must be 0), the minimum slack ratio resonance/bound, and the first
    triple where it is attained.  kmax_box must be an integer >= 2 and
    tau_trials an integer >= 0 (ValueError otherwise).
    """
    if not _is_integer(kmax_box) or kmax_box < 2:
        raise ValueError(f"kmax_box must be an integer >= 2, got {kmax_box!r}")
    if not _is_integer(tau_trials) or tau_trials < 0:
        raise ValueError(f"tau_trials must be an integer >= 0, got {tau_trials!r}")
    box, tau_trials = int(kmax_box), int(tau_trials)
    e = 2 * j + 1
    span = box**e
    den = 4**j
    # every intermediate below is at most max(7, 2j+1) * span in magnitude
    # (|s0 - s1 - s2| <= 7 span before the abs, num <= (2j+1) span)
    dtype = np.int64 if max(7, e) * span <= np.iinfo(np.int64).max else object
    # exact tables: P(k), and (2j+1) |k|^(2j), so that the bound
    # (2j+1) |k_min| |k_max|^(2j) is |k_min| * weight[|k_max|]
    ks = np.arange(-box, box + 1)
    disp = np.array([dispersion_symbol(int(k), j) for k in ks], dtype=dtype)
    weight = np.array([e * a ** (2 * j) for a in range(box + 1)], dtype=dtype)
    draws = TauDraws(seed, span)
    rows = ks[ks != 0]
    checked = violations = identity_failures = 0
    min_slack, argmin = math.inf, None
    for start in range(0, rows.size, _CHUNK_ROWS):
        k1 = rows[start:start + _CHUNK_ROWS, None]
        k = k1 + ks
        keep = (ks != 0) & (k != 0) & (np.abs(k) <= box)
        k1, k2 = np.broadcast_to(k1, keep.shape)[keep], np.broadcast_to(ks, keep.shape)[keep]
        k = k[keep]
        q0, q1, q2 = disp[k + box], disp[k1 + box], disp[k2 + box]
        res = np.abs(q0 - q1 - q2)
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
        if tau_trials:
            tau = draws.take(2 * tau_trials * k.size).reshape(k.size, tau_trials, 2)
            tau1, tau2 = tau[..., 0], tau[..., 1]
            s0 = tau1 + tau2 - q0[:, None]
            s1 = tau1 - q1[:, None]
            s2 = tau2 - q2[:, None]
            identity_failures += int(np.count_nonzero(np.abs(s0 - s1 - s2) != res[:, None]))
            smax = np.maximum(np.maximum(np.abs(s0), np.abs(s1)), np.abs(s2))
            identity_failures += int(np.count_nonzero(smax < -(-num // (3 * den))[:, None]))
    return {
        "j": j,
        "Kmax": box,
        "triples_checked": checked,
        "violations": violations,
        "identity_failures": identity_failures,
        "min_slack": min_slack,
        "argmin": list(argmin) if argmin else None,
    }


class TauDraws:
    """The stream of random.Random(seed).randrange(-span, span + 1), in blocks.

    randrange draws getrandbits(b) candidates, b = (2 span + 1).bit_length(),
    until one is below 2 span + 1.  CPython builds a candidate from
    ceil(b / 32) Mersenne Twister words, the first word least significant and
    the last one shifted right to its leftover bits; numpy's MT19937 seeded
    with random.Random(seed)'s state yields the same words, so the kept
    candidates, minus span, are exactly the draws, in order.  Draws beyond
    what take() returns are kept for the next call.
    """

    def __init__(self, seed, span: int):
        self.span = span
        self.width = 2 * span + 1
        self.bits = self.width.bit_length()
        self.words = -(-self.bits // 32)
        self.dtype = np.int64 if self.bits <= 63 else object  # Python ints beyond
        state = random.Random(seed).getstate()[1]
        self.mt = np.random.MT19937()
        self.mt.state = {"bit_generator": "MT19937",
                         "state": {"key": np.array(state[:624], dtype=np.uint32),
                                   "pos": state[624]}}
        self.kept = np.empty(0, dtype=self.dtype)

    def take(self, n: int) -> np.ndarray:
        """The next n draws."""
        parts, have = [self.kept], self.kept.size
        accept = self.width / (1 << self.bits)  # in (1/2, 1]; int division never overflows
        while have < n:
            m = int((n - have) / accept * 1.05) + 64
            raw = self.mt.random_raw(m * self.words).reshape(m, self.words)
            raw[:, -1] >>= 32 * self.words - self.bits
            raw = raw.astype(self.dtype)
            cand = raw[:, 0]
            for w in range(1, self.words):
                cand = cand | raw[:, w] << 32 * w
            cand = cand[cand < self.width]
            parts.append(cand)
            have += cand.size
        pool = np.concatenate(parts)
        self.kept = pool[n:]
        return pool[:n] - self.span


def _is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def certificate_json(report: dict) -> str:
    doc = {key: report[key] for key in
           ("j", "Kmax", "triples_checked", "violations", "min_slack", "argmin")}
    return json.dumps(doc, sort_keys=True)


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
