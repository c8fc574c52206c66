"""Exact-arithmetic certificate for the interaction lower bound."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert rep["min_slack"] >= 1.0
        assert rep["triples_checked"] > 10000

    def test_j3_box32_no_violations(self):
        rep = verify_resonance_bound(32, 3)
        assert rep["violations"] == 0

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


def _oracle_certificate(kmax_box, j):
    """One Triple per lattice point, powers recomputed per triple."""
    checked = violations = 0
    min_slack, argmin = math.inf, None
    den = 4**j
    for t in _oracle_triples(kmax_box):
        checked += 1
        res = resonance_magnitude(t, j)
        num = bound_num_den(t, j)[0]
        if res * den < num:
            violations += 1
        slack = res * den / num
        if slack < min_slack:
            min_slack, argmin = slack, (t.k, t.k1, t.k2)
    return {"j": j, "Kmax": kmax_box, "triples_checked": checked, "violations": violations,
            "min_slack": min_slack, "argmin": list(argmin) if argmin else None}


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

    @pytest.mark.parametrize("kwargs", [{"kmax_box": 8.0}, {"kmax_box": "8"},
                                        {"kmax_box": True}, {"kmax_box": -8},
                                        {"j": np.int64(-1)}, {"j": 1.5}, {"j": True},
                                        {"j": 0}])
    def test_bad_input_rejected(self, kwargs):
        args = {"kmax_box": 8, "j": 2, **kwargs}
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            verify_resonance_bound(**args)

    def test_report_keys(self):
        assert set(verify_resonance_bound(4, 2)) == {"j", "Kmax", "triples_checked",
                                                     "violations", "min_slack", "argmin"}

    @pytest.mark.parametrize("box", [120, 127])
    def test_min_slack_beyond_the_int64_switch(self, box):
        # int64 would wrap here (9 * box^9 > 2^63 - 1) and read min_slack inf
        rep = verify_resonance_bound(box, 4)
        assert rep["violations"] == 0 and rep["min_slack"] == 170 / 3

    def test_takes_only_the_box_and_j(self):
        with pytest.raises(TypeError):
            verify_resonance_bound(8, 2, 3)


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

    @pytest.mark.parametrize("j, box", [(2, 16), (3, 16), (4, 16), (8, 17)])
    def test_randomized_assignments_never_fail(self, j, box):
        # tau1, tau2 uniform on the box's full span +-box^(2j+1): 17^17 > 2^62 at j = 8,
        # so the modulations are exact Python ints beyond int64
        rnd = random.Random(5)
        e, sgn = 2 * j + 1, (-1) ** (j + 1)
        span = box**e
        for _ in range(2000):
            k1 = rnd.choice([n for n in range(-box, box + 1) if n != 0])
            k2 = rnd.choice([n for n in range(-box, box + 1) if n != 0])
            k = k1 + k2
            if k == 0:
                continue
            tau1, tau2 = rnd.randint(-span, span), rnd.randint(-span, span)
            t = Triple(k, k1, k2,
                       sigma=(tau1 + tau2) - sgn * k**e,
                       sigma1=tau1 - sgn * k1**e,
                       sigma2=tau2 - sgn * k2**e)
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
