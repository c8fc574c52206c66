"""Exact-arithmetic certificate for the interaction lower bound."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcl import resonance
from dcl.resonance import (
    Triple,
    bound_num_den,
    certificate_json,
    classify_max_case,
    resonance_magnitude,
    verify_resonance_bound,
)

from oracles import scaled_triple_check


class TestResonanceMagnitude:
    def test_worked_examples(self):
        assert resonance_magnitude(Triple(2, 1, 1), 2) == 30  # |32 - 1 - 1|
        assert resonance_magnitude(Triple(1, 2, -1), 2) == 30  # |1 - 32 + 1|

    def test_factor_swap_symmetry(self):
        assert resonance_magnitude(Triple(5, 2, 3), 3) == resonance_magnitude(Triple(5, 3, 2), 3)

    def test_invalid_triples_rejected(self):
        with pytest.raises(ValueError, match="interaction"):
            Triple(4, 1, 1)
        with pytest.raises(ValueError, match="nonzero"):
            Triple(2, 2, 0)

    def test_exact_at_wide_integers(self):
        t = Triple(2**16, 2**15, 2**15)
        v = resonance_magnitude(t, 4)
        assert v == abs(2**144 - 2 * 2**135)  # needs > 64 bits

    @given(k1=st.integers(-40, 40), k2=st.integers(-40, 40), j=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_swap_and_sign_flip_invariance(self, k1, k2, j):
        k = k1 + k2
        if 0 in (k, k1, k2):
            return
        t = Triple(k, k1, k2)
        assert resonance_magnitude(t, j) == resonance_magnitude(Triple(k, k2, k1), j)
        assert resonance_magnitude(t, j) == resonance_magnitude(Triple(-k, -k1, -k2), j)


class TestCertificate:
    def test_j2_box64_no_violations(self):
        rep = verify_resonance_bound(64, 2)
        assert rep["violations"] == 0
        assert rep["identity_failures"] == 0
        assert rep["min_slack"] >= 1.0
        assert rep["triples_checked"] > 10000

    def test_j3_box32_no_violations(self):
        rep = verify_resonance_bound(32, 3)
        assert rep["violations"] == 0 and rep["identity_failures"] == 0

    def test_certificate_json_schema(self):
        import json

        rep = verify_resonance_bound(8, 2)
        doc = json.loads(certificate_json(rep))
        assert set(doc) == {"j", "Kmax", "triples_checked", "violations",
                            "min_slack", "argmin"}

    def test_small_box_rejected(self):
        with pytest.raises(ValueError):
            verify_resonance_bound(1, 2)

    def test_zero_tau_pair_reproduces_magnitude(self):
        # sigma1 = sigma2 = 0 forces |sigma| to equal the resonance exactly
        j = 2
        t = Triple(3, 1, 2)
        tau1 = 1 ** (2 * j + 1) * (-1) ** (j + 1)
        tau2 = 2 ** (2 * j + 1) * (-1) ** (j + 1)
        sig = (tau1 + tau2) - (-1) ** (j + 1) * 3 ** (2 * j + 1)
        assert abs(sig) == resonance_magnitude(t, j)


def _oracle_triples(kmax_box):
    """All interacting triples with |k|, |k1|, |k2| <= kmax_box, k1 then k2 ascending."""
    rng = range(-kmax_box, kmax_box + 1)
    for k1 in rng:
        for k2 in rng:
            if 0 not in (k1, k2, k1 + k2) and abs(k1 + k2) <= kmax_box:
                yield Triple(k1 + k2, k1, k2)


def _oracle_certificate(kmax_box, j, tau_trials=3, seed=7):
    """One Triple per lattice point, powers recomputed per triple and per trial."""
    rnd = random.Random(seed)
    checked = violations = identity_failures = 0
    min_slack, argmin = math.inf, None
    den, e = 4**j, 2 * j + 1
    sgn = 1 if j % 2 == 1 else -1
    for t in _oracle_triples(kmax_box):
        checked += 1
        res = resonance_magnitude(t, j)
        num = bound_num_den(t, j)[0]
        if res * den < num:
            violations += 1
        slack = res * den / num
        if slack < min_slack:
            min_slack, argmin = slack, (t.k, t.k1, t.k2)
        for _ in range(tau_trials):
            tau1 = rnd.randint(-(kmax_box**e), kmax_box**e)
            tau2 = rnd.randint(-(kmax_box**e), kmax_box**e)
            s0 = tau1 + tau2 - sgn * t.k**e
            s1 = tau1 - sgn * t.k1**e
            s2 = tau2 - sgn * t.k2**e
            if abs(s0 - s1 - s2) != res:
                identity_failures += 1
            if 3 * max(abs(s0), abs(s1), abs(s2)) * den < num:
                identity_failures += 1
    return {"j": j, "Kmax": kmax_box, "triples_checked": checked, "violations": violations,
            "identity_failures": identity_failures, "min_slack": min_slack,
            "argmin": list(argmin) if argmin else None}


class TestCertificateOracle:
    @pytest.mark.parametrize("box", [2, 8, 16])
    @pytest.mark.parametrize("j", [2, 3, 4])
    def test_report_equals_the_triple_walk(self, box, j):
        assert verify_resonance_bound(box, j) == _oracle_certificate(box, j)

    @pytest.mark.parametrize("box, j", [(8, 10), (33, 3), (66, 4), (104, 4)])
    def test_python_int_and_chunked_walks_equal_the_triple_walk(self, box, j):
        # (8, 10) and (104, 4) overflow int64 (so run on Python ints), 33 spans three
        # chunks; at (66, 4) float ratios of the tied k1 = -2 k2 triples differ, and
        # ranking by them alone would pick (-32, -64, 32) over the first, (-33, -66, 33)
        assert verify_resonance_bound(box, j) == _oracle_certificate(box, j)

    @pytest.mark.parametrize("span", [1, 2**31, 64**9, 2**62 - 1, 2**62, 2**64, 3**70])
    def test_tau_draws_are_seeded_and_in_range(self, span):
        def draw(seed):
            return list(resonance.tau_draws(np.random.default_rng(seed), span, 2000))

        values = draw(5)
        assert all(-span <= x <= span for x in values)
        assert min(values) < 0 < max(values)
        assert values == draw(5) and values != draw(6)
        if span >= 2**62:
            assert all(type(x) is int for x in values)

    @pytest.mark.parametrize("j", [3, 8])  # span 17^17 > 2^62 at j = 8: Python-int draws
    def test_report_is_deterministic_in_the_seed(self, monkeypatch, j):
        # no report field depends on the draws, so the draws themselves are compared
        draw = resonance.tau_draws

        def run(seed):
            taken = []

            def recording_draw(rng, span, n):
                taken.append(draw(rng, span, n))
                return taken[-1]

            monkeypatch.setattr(resonance, "tau_draws", recording_draw)
            report = verify_resonance_bound(17, j, tau_trials=2, seed=seed)
            monkeypatch.undo()
            return report, [int(x) for block in taken for x in block]

        (r1, d1), (r2, d2), (r3, d3) = run(11), run(11), run(12)
        assert r1 == r2 == r3
        assert len(d1) == 2 * 2 * r1["triples_checked"]
        assert d1 == d2 and d1 != d3

    @pytest.mark.parametrize("kwargs", [{"kmax_box": 8.0}, {"kmax_box": "8"},
                                        {"kmax_box": True}, {"tau_trials": -1},
                                        {"tau_trials": 1.5}, {"j": 1.5}, {"j": True},
                                        {"j": 0}])
    def test_bad_input_rejected(self, kwargs):
        args = {"kmax_box": 8, "j": 2, **kwargs}
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            verify_resonance_bound(**args)


class TestMaxCase:
    def test_plain_cases(self):
        t = Triple(2, 1, 1, sigma=10.0, sigma1=0.0, sigma2=0.0)
        assert classify_max_case(t, 2) == "a"
        t2 = Triple(2, 1, 1, sigma=3.0, sigma1=-30.0, sigma2=1.0)
        assert classify_max_case(t2, 2) == "b"

    def test_tie_resolves_to_lowest_label(self):
        t = Triple(2, 1, 1, sigma=30.0, sigma1=-30.0, sigma2=2.0)
        assert classify_max_case(t, 2) == "a"

    def test_requires_sigmas(self):
        with pytest.raises(ValueError):
            classify_max_case(Triple(2, 1, 1), 2)

    def test_randomized_assignments_never_fail(self):
        import random

        rnd = random.Random(5)
        j = 2
        sgn = -1  # (-1)^(j+1) for j=2
        for _ in range(2000):
            k1 = rnd.choice([n for n in range(-16, 17) if n != 0])
            k2 = rnd.choice([n for n in range(-16, 17) if n != 0])
            k = k1 + k2
            if k == 0:
                continue
            tau1, tau2 = rnd.randint(-10**6, 10**6), rnd.randint(-10**6, 10**6)
            t = Triple(k, k1, k2,
                       sigma=(tau1 + tau2) - sgn * k ** (2 * j + 1),
                       sigma1=tau1 - sgn * k1 ** (2 * j + 1),
                       sigma2=tau2 - sgn * k2 ** (2 * j + 1))
            assert classify_max_case(t, j) in "abc"  # the internal bound assertion ran


class TestScaledLattice:
    def test_homogeneous_scaling(self):
        out = scaled_triple_check(1.5, 0.5, 1.0, lam=2, j=2)
        assert out["holds"]
        t = Triple(3, 1, 2)
        assert out["resonance"] == pytest.approx(resonance_magnitude(t, 2) / 2**5)
        num, den = bound_num_den(t, 2)
        assert out["bound"] == pytest.approx(num / den / 2**5)

    def test_off_lattice_rejected(self):
        with pytest.raises(ValueError, match="lattice"):
            scaled_triple_check(1.3, 0.5, 0.8, lam=2, j=2)
