"""Exhaustive certificate for the resonance lower bound on interacting frequencies.

For an interacting integer triple k = k1 + k2 (all nonzero) the resonance
function k^(2j+1) - k1^(2j+1) - k2^(2j+1) measures how far the triple sits
from the characteristic surface; the certified bound is

    |k^(2j+1) - k1^(2j+1) - k2^(2j+1)| >= (2j+1) 4^(-j) |k_min| |k_max|^(2j),

checked in exact integer arithmetic over a full lattice box (Python ints,
so no overflow at any j or box size).  The certificate covers the box
only: every triple in it is checked, and nothing is claimed beyond it.
With tau = tau1 + tau2, the signed modulation identity
sigma - sigma1 - sigma2 = -(P(k) - P(k1) - P(k2)) transfers the bound to
3*max(|sigma|, |sigma1|, |sigma2|); the seeded random tau trials check that
identity and the transferred bound, they do not cover every tau.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from .symbols import dispersion_symbol


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
    triple where it is attained.
    """
    if kmax_box < 2:
        raise ValueError("kmax_box must be >= 2")
    rnd = random.Random(seed)
    checked = 0
    violations = 0
    identity_failures = 0
    min_slack = math.inf
    argmin = None
    den = 4**j
    box = range(-kmax_box, kmax_box + 1)
    # exact Python-int tables: P(k), and (2j+1) |k|^(2j), so that the bound
    # (2j+1) |k_min| |k_max|^(2j) is |k_min| * weight[|k_max|]
    disp = {k: dispersion_symbol(k, j) for k in box}
    weight = [(2 * j + 1) * a ** (2 * j) for a in range(kmax_box + 1)]
    span = kmax_box ** (2 * j + 1)
    draw = rnd.randrange  # randint(a, b) is randrange(a, b + 1): the same draws
    for k1 in box:
        if k1 == 0:
            continue
        a1, q1 = abs(k1), disp[k1]
        for k2 in range(max(-kmax_box, -kmax_box - k1), min(kmax_box, kmax_box - k1) + 1):
            k = k1 + k2
            if k2 == 0 or k == 0:
                continue
            checked += 1
            q2, q0 = disp[k2], disp[k]
            res = abs(q0 - q1 - q2)
            a, a2 = abs(k), abs(k2)
            num = min(a, a1, a2) * weight[max(a, a1, a2)]
            if res * den < num:
                violations += 1
            slack = res * den / num
            if slack < min_slack:
                min_slack = slack
                argmin = (k, k1, k2)
            for _ in range(tau_trials):
                tau1 = draw(-span, span + 1)
                tau2 = draw(-span, span + 1)
                s0 = tau1 + tau2 - q0
                s1 = tau1 - q1
                s2 = tau2 - q2
                if abs(s0 - s1 - s2) != res:
                    identity_failures += 1
                if 3 * max(abs(s0), abs(s1), abs(s2)) * den < num:
                    identity_failures += 1
    return {
        "j": j,
        "Kmax": kmax_box,
        "triples_checked": checked,
        "violations": violations,
        "identity_failures": identity_failures,
        "min_slack": min_slack,
        "argmin": list(argmin) if argmin else None,
    }


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
