"""Exhaustive certificate for the interaction (resonance) lower bound.

For every integer triple k = k1 + k2 in a lattice box, exact integer
arithmetic certifies

    |k^(2j+1) - k1^(2j+1) - k2^(2j+1)| >= (2j+1) 4^(-j) |k_min| |k_max|^(2j),

and the modulation identity sigma - sigma1 - sigma2 = -(P(k) - P(k1) - P(k2))
(tau = tau1 + tau2) transfers it, for every tau, to
3 * max(|sigma|, |sigma1|, |sigma2|).
"""

import json
import time

from dcl import verify_resonance_bound
from dcl.resonance import Triple, classify_max_case, resonance_magnitude

print("== worked example: (k, k1, k2) = (2, 1, 1), j = 2 ==")
print(f"resonance = |32 - 1 - 1| = {resonance_magnitude(Triple(2, 1, 1), 2)}")

print("\n== full-box certificates ==")
for j in (2, 3, 4):
    t0 = time.perf_counter()
    rep = verify_resonance_bound(64, j)
    print(json.dumps({k: rep[k] for k in ("j", "Kmax", "triples_checked",
                                          "violations", "min_slack", "argmin")}),
          f"  [{time.perf_counter() - t0:.2f}s]")

print("\n== which modulation carries the max ==")
t = Triple(3, 1, 2, sigma=200.0, sigma1=-3.0, sigma2=1.0)
print(f"sigma dominates: case {classify_max_case(t, 2)!r}")
