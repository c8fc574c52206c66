"""Region decomposition, restriction norms, convolution oracle, scans, probes."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcl import bourgain, lattice
from dcl.bourgain import (
    BILINEAR_FORMS,
    REGION_LABELS,
    _characteristic,
    _embedding_scans,
    _lift_halves,
    _Layout,
    _time_step,
    _region_cuts as _zs_bounds,
    _term_ranges,
    RegionLabel,
    SpaceTimeSpectrum,
    admissible_window,
    batch_bilinear_probe,
    bilinear_output,
    bilinear_probe,
    classify_region,
    from_characteristic,
    from_time_samples,
    random_spectrum,
    region_codes,
    region_coefficient,
    region_memberships,
    region_thresholds,
    scan_csv,
    sigma,
    st_convolve,
    verify_embeddings,
    ws_norm,
    xsb_norm,
    ys_norm,
    zs_norm,
)
from dcl.evolve import PicardConfig
from dcl.illposed import CounterexampleConfig, build_counterexample
from dcl.lattice import ModelParams, SpatialSpectrum, bracket, hermitian_rows
from dcl.symbols import dispersion_symbol

import oracles
from conftest import hermitian_spectrum


# -- independent oracle: dictionary-based double sums --------------------------

def cells_dict(u):
    out = {}
    for n, m0, arr, _ in u.cells():
        for i, a in enumerate(arr):
            if a != 0:
                out[(n, m0 + i)] = out.get((n, m0 + i), 0j) + a
    return out


def brute_convolve(u, v, pre1=None, pre2=None):
    """Direct double sum over every (k1, tau1) cell pair."""
    lam = u.params.lam
    out = {}
    for (n1, m1), a1 in cells_dict(u).items():
        f1 = a1 * (pre1(n1 / lam) if pre1 else 1.0)
        for (n2, m2), a2 in cells_dict(v).items():
            f2 = a2 * (pre2(n2 / lam) if pre2 else 1.0)
            n = n1 + n2
            if n == 0 or abs(n) > u.params.nmax:
                continue
            key = (n, m1 + m2)
            out[key] = out.get(key, 0j) + f1 * f2 * u.dtau / lam
    return out


def merge_segments(segments):
    """Sort (m0, amps) segments and sum overlapping or touching ones into disjoint segments."""
    if len(segments) <= 1:
        return list(segments)
    segments = sorted(segments, key=lambda s: s[0])
    out = []
    cur_m0, cur = segments[0][0], segments[0][1].copy()
    for m0, arr in segments[1:]:
        if m0 <= cur_m0 + len(cur):
            new_len = max(cur_m0 + len(cur), m0 + len(arr)) - cur_m0
            if new_len > len(cur):
                cur = np.concatenate([cur, np.zeros(new_len - len(cur), dtype=complex)])
            off = int(m0 - cur_m0)
            cur[off:off + len(arr)] += arr
        else:
            out.append((cur_m0, cur))
            cur_m0, cur = m0, arr.copy()
    out.append((cur_m0, cur))
    return out


def pairwise_convolve(u, v, pre1=None, pre2=None):
    """One np.convolve per segment pair, merged per band: (bands, truncated_mass)."""
    p = u.params
    scale = u.dtau / p.lam
    raw, dropped = {}, 0.0
    for n1, segs1 in u.bands.items():
        f1 = pre1(n1 / p.lam) if pre1 else 1.0
        for n2, segs2 in v.bands.items():
            f2 = pre2(n2 / p.lam) if pre2 else 1.0
            n = n1 + n2
            for m01, a1 in segs1:
                for m02, a2 in segs2:
                    arr = np.convolve(f1 * a1, f2 * a2) * scale
                    if n == 0 or abs(n) > p.nmax:
                        dropped += float(np.sum(np.abs(arr) ** 2))
                    else:
                        raw.setdefault(n, []).append((m01 + m02, arr))
    bands = {n: merge_segments(segs) for n, segs in sorted(raw.items())}
    return bands, math.sqrt(dropped * u.dtau / p.lam)


def hermitian_by_cells(u, tol=1e-12):
    """Each cell against its mirror cell, looked up one at a time."""
    scale = max((np.abs(a).max() for segs in u.bands.values() for _, a in segs),
                default=0.0) or 1.0
    for n, segs in u.bands.items():
        for m0, arr in segs:
            for i, v in enumerate(arr):
                mm = -(m0 + i) - int(round(2 * u.tau0 / u.dtau))
                if abs(oracles.st_value_at(u, -n, mm) - np.conj(v)) > tol * scale:
                    return False
    return True


def segmented_spectrum(params, rng, layout, dtau=0.25, tau0=0.0):
    """Random complex amplitudes on {n: [(m0, length), ...]}."""
    bands = {n: [(m0, rng.standard_normal(length) + 1j * rng.standard_normal(length))
                 for m0, length in segs] for n, segs in layout.items()}
    return SpaceTimeSpectrum(params, dtau, tau0, bands)


class TestSigmaAndRegions:
    def test_sigma_values(self, params16):
        assert sigma(1, 0.0, params16) == pytest.approx(1.0)  # j=2: P(1) = -1
        assert sigma(3, dispersion_symbol(3, 2), params16) == 0.0
        assert sigma(2, 7.5, params16) - sigma(2, 7.0, params16) == pytest.approx(0.5)

    def test_classification_examples(self, params16):
        # thresholds at k=2, j=2: c=5/48, so 5/3 and 10/3
        p = params16
        assert classify_region(1.0, dispersion_symbol(1, 2), p) is RegionLabel.D1
        assert classify_region(2.0, dispersion_symbol(2, 2) + 2.0, p) is RegionLabel.D2
        assert classify_region(2.0, dispersion_symbol(2, 2) + 5.0, p) is RegionLabel.D3
        pl = ModelParams(j=2, lam=2.0, kmax=8.0)
        assert classify_region(0.5, dispersion_symbol(0.5, 2) + 1.0, pl) is RegionLabel.D4
        assert classify_region(0.5, dispersion_symbol(0.5, 2) + 1e-4, pl) is RegionLabel.D5

    def test_zero_and_outside_excluded(self, params16):
        assert classify_region(0.0, 0.0, params16) is RegionLabel.EXCLUDED
        assert classify_region(17.0, 0.0, params16) is RegionLabel.EXCLUDED

    def test_boundary_tie_at_k_equals_one(self, params16):
        # at lam=1 the point |k|=1 belongs to both the large-k and small-k
        # families, so D1 and D5 both claim the characteristic band there;
        # the classifier resolves to the large-k family
        c = region_coefficient(2)
        tau = dispersion_symbol(1, 2) + 0.5 * c
        members = region_memberships(1.0, tau, params16)
        assert members[RegionLabel.D1] and members[RegionLabel.D5]
        assert classify_region(1.0, tau, params16) is RegionLabel.D1
        # above the top threshold the overlap is D3/D4, resolved to D3
        tau_hi = dispersion_symbol(1, 2) + 2.0 * c
        members_hi = region_memberships(1.0, tau_hi, params16)
        assert members_hi[RegionLabel.D3] and members_hi[RegionLabel.D4]
        assert classify_region(1.0, tau_hi, params16) is RegionLabel.D3

    @given(n=st.integers(-64, 64), sig=st.floats(-1e7, 1e7, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_partition_total_and_unique(self, n, sig):
        p = ModelParams(j=2, kmax=64.0)
        if n == 0:
            return
        tau = dispersion_symbol(n, 2) + sig
        label = classify_region(float(n), tau, p)
        members = region_memberships(float(n), tau, p)
        assert label is not RegionLabel.EXCLUDED
        assert members[label]
        overlap = sum(members.values())
        # overlaps exist only on the documented |k|=1 boundary tie set
        if overlap != 1:
            assert abs(n) == 1

    def test_lambda_gt_one_small_k_cells(self):
        p = ModelParams(j=2, lam=4.0, kmax=8.0)
        for n in (1, 2, 3):
            k = n / 4.0
            lab = classify_region(k, dispersion_symbol(k, 2), p)
            assert lab is RegionLabel.D5

    @given(j=st.sampled_from([2, 3, 4]), lam=st.sampled_from([1.0, 2.0, 4.0]),
           extra=st.lists(st.tuples(st.integers(-300, 300), st.floats(-1e7, 1e7)),
                          max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_array_codes_match_scalar_classifier_and_oracle(self, j, lam, extra):
        kmax = 64.0
        p = ModelParams(j=j, lam=lam, kmax=kmax)
        c = region_coefficient(j)
        # |k| = 1/lam, 1, kmax, beyond kmax and 0, both signs, then random lattice points
        special = [1 / lam, 1.0, kmax, kmax + 1 / lam, 0.0]
        ks, taus = [], []
        for k in special + [-k for k in special]:
            pk = float(dispersion_symbol(k, j))
            for thr in (c * abs(k) ** (2 * j), c * abs(k) ** (2 * j + 1)):
                for tau in (pk + thr, pk - thr):
                    # tau = P(k) +- threshold rounds; its float neighbours put
                    # sigma on both sides of the threshold
                    for t in (np.nextafter(tau, -np.inf), tau, np.nextafter(tau, np.inf)):
                        ks.append(k)
                        taus.append(float(t))
        for n, sig in extra:
            k = n / lam
            ks.append(k)
            taus.append(float(dispersion_symbol(k, j)) + sig)
        abs_sigma = [abs(float(sigma(k, tau, p))) for k, tau in zip(ks, taus)]
        codes = region_codes(np.array(ks), np.array(abs_sigma), p)
        for k, tau, code in zip(ks, taus, codes.tolist()):
            label = classify_region(k, tau, p)
            assert REGION_LABELS[code] is label, (k, tau)
            inside = 1 / lam - 1e-12 <= abs(k) <= kmax + 1e-12
            if label is RegionLabel.EXCLUDED:
                assert not inside or k == 0.0
            else:
                assert inside and region_memberships(k, tau, p)[label]

    @pytest.mark.parametrize("j", [2, 3, 4])
    @pytest.mark.parametrize("lam", [1.0, 2.0, 3.0, 4.0])
    def test_sigma_exactly_on_thresholds(self, j, lam):
        # no tau rounds to sigma exactly on a threshold, so region_codes is fed
        # |sigma| directly, at every lattice |k| <= kmax: the closed side wins
        # (at |k| < 1 the lower threshold lies above the upper one, in D4), and
        # the array call agrees with the per-point one
        p = ModelParams(j=j, lam=lam, kmax=64.0)
        c = region_coefficient(j)
        ak = [n / lam for n in range(1, int(64 * lam) + 1)]
        lo = [c * a ** (2 * j) for a in ak]
        hi = [c * a ** (2 * j + 1) for a in ak]
        want_lo = [4 if a < 1 else 1 for a in ak]
        want_hi = [5 if a < 1 else 1 if a == 1 else 3 for a in ak]
        for thr, want in ((lo, want_lo), (hi, want_hi)):
            codes = region_codes(np.array(ak), np.array(thr), p).tolist()
            assert codes == want
            assert codes == [region_codes(a, s, p) for a, s in zip(ak, thr)]

    @pytest.mark.parametrize("j", [2, 3, 4])
    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
    def test_memberships_floats_give_bools_arrays_agree(self, j, lam):
        # the thresholds, their float neighbours, sigma = 0 and far out, at |k| = 1/lam, 1, 3
        p = ModelParams(j=j, lam=lam, kmax=64.0)
        c = region_coefficient(j)
        ks, taus = [], []
        for k in (1 / lam, 1.0, 3.0, -1.0, -3.0):
            pk = float(dispersion_symbol(k, j))
            for sv in (0.0, 1e9, c * abs(k) ** (2 * j), c * abs(k) ** (2 * j + 1)):
                for tau in (pk + sv, pk - sv):
                    for t in (np.nextafter(tau, -np.inf), tau, np.nextafter(tau, np.inf)):
                        ks.append(k)
                        taus.append(float(t))
        table = region_memberships(np.array(ks), np.array(taus), p)
        assert list(table) == list(REGION_LABELS[1:])
        for i, (k, tau) in enumerate(zip(ks, taus)):
            members = region_memberships(k, tau, p)
            assert list(members) == list(REGION_LABELS[1:])
            assert all(type(inside) is bool for inside in members.values())
            assert members == {label: bool(table[label][i]) for label in members}, (k, tau)
        # the |k| = 1 overlap of the two families stays visible to the oracle
        at_one = region_memberships(1.0, dispersion_symbol(1, j) + 0.5 * c, p)
        assert at_one[RegionLabel.D1] and at_one[RegionLabel.D5]

    @pytest.mark.parametrize("j", [2, 3, 4])
    def test_memberships_at_sigma_exactly_on_a_threshold(self, j):
        # taus whose computed |sigma(k, tau)| lands exactly on c|k|^(2j) or
        # c|k|^(2j+1), found among the float neighbours of P(k) +- threshold:
        # D1 and D3 are closed there, D2 open at both ends, D4 open, D5 closed
        c = region_coefficient(j)
        hits = {"lo": 0, "hi": 0, "hi_small_k": 0}
        for lam in (2.0, 4.0):
            p = ModelParams(j=j, lam=lam, kmax=8.0)
            for n in [*range(-p.nmax, 0), *range(1, p.nmax + 1)]:
                k = n / lam
                ak = abs(k)
                big, small = ak >= 1.0, 1.0 / lam <= ak <= 1.0
                pk = float(dispersion_symbol(k, j))
                lo, hi = c * ak ** (2 * j), c * ak ** (2 * j + 1)
                for name, thr in (("lo", lo), ("hi", hi)):
                    taus = set()
                    for tau in (pk + thr, pk - thr):
                        down = up = tau
                        for _ in range(8):
                            down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
                            taus |= {tau, float(down), float(up)}
                    for tau in sorted(t for t in taus if abs(sigma(k, t, p)) == thr):
                        m = region_memberships(k, tau, p)
                        table = region_memberships(np.array([k]), np.array([tau]), p)
                        assert m == {label: bool(table[label][0]) for label in m}
                        assert not m[RegionLabel.D2], (k, tau)
                        if name == "lo":
                            assert m[RegionLabel.D1] == big, (k, tau)
                        else:
                            assert m[RegionLabel.D3] == big, (k, tau)
                            assert not m[RegionLabel.D4], (k, tau)
                            assert m[RegionLabel.D5] == small, (k, tau)
                            hits["hi_small_k"] += small
                        hits[name] += 1
        assert all(hits.values()), hits


class TestSpaceTimeSpectrum:
    def test_single_cell_norms(self, params16):
        # one cell at (k=1, sigma=0): xsb = 2^{s/2} A sqrt(dtau), ys = 2^{s/2} A dtau
        A, dtau, s, b = 1.7, 0.25, -0.3, 0.8
        m_at = dispersion_symbol(1, 2) * 4  # sigma = 0 cell
        u = oracles.st_from_cells(params16, dtau, {(1, m_at): A})
        assert xsb_norm(u, s, b) == pytest.approx(2.0 ** (s / 2) * A * math.sqrt(dtau))
        assert ys_norm(u, s) == pytest.approx(2.0 ** (s / 2) * A * dtau)
        # the composite two-term norm of a near-characteristic cell is the sum
        # of the closed forms (the cell sits in D1, <sigma> = 1)
        want = 2.0 ** (s / 2) * A * (math.sqrt(dtau) + dtau)
        assert ws_norm(u, s) == pytest.approx(want)

    def test_two_cells_l1_additivity(self, params16):
        dtau, s = 0.25, -0.5
        m_at = dispersion_symbol(1, 2) * 4
        u = oracles.st_from_cells(params16, dtau, {(1, m_at): 2.0, (1, m_at + 5): 3.0})
        assert ys_norm(u, s) == pytest.approx(2.0 ** (s / 2) * 5.0 * dtau)

    def test_disjoint_pythagoras(self, params16):
        u = random_spectrum(params16, np.random.default_rng(0))
        v = random_spectrum(ModelParams(j=2, kmax=16.0), np.random.default_rng(1))
        # shift v far in tau so supports are disjoint
        shifted = SpaceTimeSpectrum(
            params16, v.dtau, v.tau0,
            {n: [(m0 + 10**6, a) for m0, a in segs] for n, segs in v.bands.items()})
        s, b = -0.25, 0.5
        lhs = xsb_norm(u + shifted, s, b) ** 2
        rhs = xsb_norm(u, s, b) ** 2 + xsb_norm(shifted, s, b) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(c=st.floats(-4, 4, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity_all_norms(self, c):
        p = ModelParams(j=2, kmax=8.0)
        u = random_spectrum(p, np.random.default_rng(7))
        for f in (lambda w: xsb_norm(w, -0.25, 0.5), lambda w: ys_norm(w, -0.25),
                  lambda w: zs_norm(w, -0.25), lambda w: ws_norm(w, -0.25)):
            assert f(u.scaled(c)) == pytest.approx(abs(c) * f(u), abs=1e-12)

    def test_triangle_inequality(self, params8):
        u = random_spectrum(params8, np.random.default_rng(2))
        v = random_spectrum(params8, np.random.default_rng(3))
        for f in (lambda w: xsb_norm(w, -0.25, 0.5), lambda w: ys_norm(w, -0.25),
                  lambda w: zs_norm(w, -0.25), lambda w: ws_norm(w, -0.25)):
            assert f(u + v) <= f(u) + f(v) + 1e-12

    def test_cauchy_schwarz_ys_vs_xsb(self, params8):
        # L1 over a width-W tau support is at most sqrt(W) times L2
        u = random_spectrum(params8, np.random.default_rng(4))
        width = max(sum(len(a) for _, a in segs) for segs in u.bands.values()) * u.dtau
        assert ys_norm(u, -0.25) <= math.sqrt(width) * xsb_norm(u, -0.25, 0.0) + 1e-12

    def test_zs_on_d1_support_reduces(self, params16):
        # a single cell on the characteristic curve lies in D1: the composite
        # norm is the D1 term plus the tau-integrability term
        j = params16.j
        m_at = dispersion_symbol(3, 2) * 4
        u = oracles.st_from_cells(params16, 0.25, {(3, m_at): 1.0})
        s = -0.25
        want = xsb_norm(u, s, (2 * j - 1) / (2 * j)) + ys_norm(u, s)
        assert zs_norm(u, s) == pytest.approx(want, rel=1e-13)

    def test_zs_matches_per_cell_sum_over_all_five_regions(self):
        # lam = 2 puts k = 1/2 in D4/D5; the window +-8 reaches D1, D2 and D3 at k = 2
        p = ModelParams(j=2, lam=2.0, kmax=4.0)
        u = random_spectrum(p, np.random.default_rng(21), dtau=1 / 64, sigma_halfwidth=8.0)
        s, j = -0.25, p.j
        d1d5 = (s, (2 * j - 1) / (2 * j))
        d2 = ((1 - 2 * j) * (s - 1), s)
        d3d4 = (-(s - 1) / j - 1, (s - 1) / j + 1)
        exponents = {RegionLabel.D1: d1d5, RegionLabel.D5: d1d5, RegionLabel.D2: d2,
                     RegionLabel.D3: d3d4, RegionLabel.D4: d3d4}
        sums = {d1d5: 0.0, d2: 0.0, d3d4: 0.0}
        ys = 0.0
        seen = set()
        for n, segs in u.bands.items():
            k = n / p.lam
            l1 = 0.0
            for m0, arr in segs:
                sig = oracles.st_sigma_of(u, n, m0, len(arr))
                for a, sv in zip(arr, sig):
                    label = classify_region(k, sv + dispersion_symbol(k, j), p)
                    seen.add(label)
                    sp, bp = exponents[label]
                    sums[exponents[label]] += (1 + k * k) ** sp * (1 + sv * sv) ** bp * abs(a) ** 2
                    l1 += abs(a) * u.dtau
            ys += (1 + k * k) ** s * l1 ** 2
        assert seen == set(exponents)
        want = sum(math.sqrt(v * u.dtau / p.lam) for v in sums.values()) + math.sqrt(ys / p.lam)
        assert zs_norm(u, s) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("dtau", [0.0, -0.25, math.nan, math.inf, 1e-310, 1e-320])
    def test_dtau_not_finite_and_positive_rejected(self, params8, dtau):
        spec = hermitian_spectrum(params8, seed=3)
        calls = (lambda: SpaceTimeSpectrum(params8, dtau), lambda: from_characteristic(spec, dtau),
                 lambda: random_spectrum(params8, np.random.default_rng(0), dtau=dtau))
        for call in calls:
            with pytest.raises(ValueError, match="dtau must be finite and positive"):
                call()

    @pytest.mark.parametrize("halfwidth", [-1.0, math.nan, math.inf])
    def test_sigma_halfwidth_not_finite_and_nonnegative_rejected(self, params8, halfwidth):
        spec = hermitian_spectrum(params8, seed=3)
        calls = (lambda: from_characteristic(spec, sigma_halfwidth=halfwidth),
                 lambda: random_spectrum(params8, np.random.default_rng(0),
                                         sigma_halfwidth=halfwidth))
        for call in calls:
            with pytest.raises(ValueError, match="sigma_halfwidth must be finite and >= 0"):
                call()

    def test_zs_rejects_j1(self):
        p = ModelParams(j=1, kmax=8.0)
        u = oracles.st_from_cells(p, 0.25, {(1, 0): 1.0})
        with pytest.raises(ValueError, match="j >= 2"):
            zs_norm(u, 0.0)

    def test_zero_norms(self, params16):
        u = SpaceTimeSpectrum(params16, 0.25)
        for val in (xsb_norm(u, 0.0, 0.5), ys_norm(u, 0.0), zs_norm(u, -0.25),
                    ws_norm(u, -0.25)):
            assert val == 0.0

    def test_single_cell_b_monotonicity(self, params16):
        # <sigma> >= 1, so the X norm grows with b on any support
        u = random_spectrum(params16, np.random.default_rng(5))
        j = params16.j
        assert xsb_norm(u, -0.25, 1 / (2 * j)) <= xsb_norm(u, -0.25, (2 * j - 1) / (2 * j)) + 1e-12

    def test_refinement_consistency(self, params8):
        # fixed smooth continuum profile, two discretizations: norms move < 1%.
        # Baseline dtau must already resolve the narrow near-characteristic
        # bands at small k (width ~ c_j) or the region-projected terms see
        # cells flip regions rather than converge.
        spec = hermitian_spectrum(params8, seed=6, scale=1.0)
        profile = lambda sig: np.exp(-2.0 * sig**2)
        coarse = from_characteristic(spec, dtau=0.0625, sigma_halfwidth=2.0, profile=profile)
        fine = from_characteristic(spec, dtau=0.03125, sigma_halfwidth=2.0, profile=profile)
        for f in (lambda w: xsb_norm(w, -0.25, 0.5), lambda w: ys_norm(w, -0.25),
                  lambda w: zs_norm(w, -0.25), lambda w: ws_norm(w, -0.25)):
            a, b = f(coarse), f(fine)
            assert abs(a - b) / b < 0.01

    def test_norm_dispatcher(self, params8):
        u = random_spectrum(params8, np.random.default_rng(8))
        NormSpec, norm = oracles.NormSpec, oracles.norm
        assert norm(u, NormSpec("Xsb", -0.25, 0.5)) == pytest.approx(xsb_norm(u, -0.25, 0.5))
        assert norm(u, NormSpec("Ws", -0.25)) == pytest.approx(ws_norm(u, -0.25))
        spat = hermitian_spectrum(params8, seed=9)
        with pytest.raises(TypeError):
            norm(spat, NormSpec("Ws", -0.25))

    def test_time_sample_lift_parseval(self, params8):
        # windowed free flow: the lift's X_{0,0} norm equals the L2_t norm of
        # the slice norms (Plancherel in t), a consistency anchor for the DFT
        from dcl.evolve import bump_eta

        t = np.linspace(-2, 2, 257)
        u0 = hermitian_spectrum(params8, seed=10)
        disp = dispersion_symbol(params8.k_values(), params8.j)
        block = bump_eta(t)[:, None] * np.exp(1j * np.outer(t, disp)) * u0.amps[None, :]
        lifted = from_time_samples(t, block, params8)
        dt = t[1] - t[0]
        l2_t = math.sqrt(np.sum(np.abs(block) ** 2) * dt / params8.lam)
        assert xsb_norm(lifted, 0.0, 0.0) == pytest.approx(l2_t, rel=1e-6)


class TestConvolutionOracle:
    def test_desk_scale_match(self, params8):
        rng = np.random.default_rng(11)
        u = random_spectrum(params8, rng, dtau=0.25, sigma_halfwidth=1.875)
        v = random_spectrum(params8, rng, dtau=0.25, sigma_halfwidth=1.875)
        fast = st_convolve(u, v)
        slow = brute_convolve(u, v)
        errs = [abs(oracles.st_value_at(fast, n, m) - a) for (n, m), a in slow.items()]
        assert max(errs) < 1e-12
        mass_fast = sum(abs(a) for a in cells_dict(fast).values())
        mass_slow = sum(abs(a) for a in slow.values())
        assert mass_fast == pytest.approx(mass_slow, rel=1e-12)

    def test_bilinear_forms_match_oracle(self, params8):
        rng = np.random.default_rng(12)
        u = random_spectrum(params8, rng)
        v = random_spectrum(params8, rng)
        ik = lambda k: 1j * k
        smoothed = lambda k: 1j * k / (1 + k * k)
        # (pre, post) per term; F (mu = 1) = (ik/2 + smoothed) (u v) + (smoothed/2) (u_x v_x)
        for form, terms in (
            ("dxdx_smoothed", [(ik, smoothed)]),
            ("product_dx", [(None, ik)]),
            ("product_smoothed", [(None, smoothed)]),
            ("F", [(None, lambda k: 0.5j * k + smoothed(k)), (ik, lambda k: 0.5 * smoothed(k))]),
        ):
            out = bilinear_output(u, v, form)
            want = {}
            for pre, post in terms:
                for (n, m), a in brute_convolve(u, v, pre1=pre, pre2=pre).items():
                    k = n / params8.lam
                    sig = (u.tau0 + v.tau0 + m * u.dtau) - dispersion_symbol(k, params8.j)
                    want[n, m] = want.get((n, m), 0.0) + a * post(k) / bracket(sig)
            errs = [abs(oracles.st_value_at(out, n, m) - complex(w)) for (n, m), w in want.items()]
            assert max(errs) < 1e-12

    def test_truncation_mass_reported(self):
        p = ModelParams(j=2, kmax=2.0)
        u = oracles.st_from_cells(p, 0.25, {(2, 0): 1.0})
        out = st_convolve(u, u)  # k=4 output is beyond kmax, k=0 impossible here
        assert out.n_cells() == 0
        assert out.truncated_mass > 0.0

    def test_zero_mode_dropped(self, params8):
        u = oracles.st_from_cells(params8, 0.25, {(2, 0): 1.0})
        v = oracles.st_from_cells(params8, 0.25, {(-2, 0): 1.0})
        out = st_convolve(u, v)
        assert out.n_cells() == 0 and out.truncated_mass > 0.0


# several segments of unequal length per band; outputs of band 2 in the third
# case overlap ([0,6) and [4,10)), touch ([10,12)), nest ([2,3)) and stand apart
_CONV_CASES = {
    "unequal": (ModelParams(j=2, kmax=4.0),
                {1: [(0, 3), (10, 5)], -2: [(4, 2)], 3: [(-7, 6), (0, 1)]},
                {2: [(1, 4), (20, 2)], -1: [(0, 5)], -3: [(3, 3), (9, 1)]}),
    "lambda2": (ModelParams(j=2, lam=2.0, kmax=2.0),
                {1: [(-3, 4)], 2: [(0, 2), (5, 3)], -3: [(1, 4)]},
                {-1: [(2, 4)], 1: [(0, 1), (2, 2)], 4: [(-5, 3)]}),
    "overlap": (ModelParams(j=2, kmax=8.0),
                {1: [(0, 4)], 3: [(4, 4)], 4: [(10, 2)], 5: [(100, 2)], -1: [(1, 1)]},
                {1: [(0, 3)], -1: [(0, 3)], -2: [(0, 1)], -3: [(0, 1)], 3: [(1, 1)]}),
}


def assert_matches_pairwise(u, v, pre=None):
    """st_convolve(u, v, pre, pre) against pairwise_convolve and brute_convolve; returns it."""
    out = st_convolve(u, v, pre1=pre, pre2=pre)
    bands, mass = pairwise_convolve(u, v, pre, pre)
    assert out.tau0 == u.tau0 + v.tau0
    assert sorted(out.bands) == sorted(bands)
    for n, segs in bands.items():
        got = out.bands[n]
        assert [(m0, len(a)) for m0, a in got] == [(m0, len(a)) for m0, a in segs]
        for (_, a), (_, b) in zip(got, segs):
            assert np.abs(a - b).max() < 1e-12
    assert out.n_cells() == sum(len(a) for segs in bands.values() for _, a in segs)
    assert out.seg_n.size == sum(len(segs) for segs in bands.values())
    assert out.truncated_mass == pytest.approx(mass, rel=1e-12)
    slow = brute_convolve(u, v, pre1=pre, pre2=pre)
    assert max(abs(oracles.st_value_at(out, n, m) - a) for (n, m), a in slow.items()) < 1e-12
    return out


class TestBatchedConvolution:
    @pytest.mark.parametrize("case", sorted(_CONV_CASES))
    @pytest.mark.parametrize("derivative", [False, True])
    def test_matches_the_pairwise_loop(self, case, derivative):
        params, lay_u, lay_v = _CONV_CASES[case]
        rng = np.random.default_rng(31)
        u = segmented_spectrum(params, rng, lay_u)
        v = segmented_spectrum(params, rng, lay_v, tau0=0.125)
        assert_matches_pairwise(u, v, (lambda k: 1j * k) if derivative else None)

    def test_long_segments_convolve_in_chunks(self, params8):
        # 1100-cell rows: the Toeplitz stack of v is built one row at a time
        rng = np.random.default_rng(34)
        u = segmented_spectrum(params8, rng, {1: [(0, 1100)]})
        v = segmented_spectrum(params8, rng, {1: [(0, 1100)], 2: [(5, 1100)], -3: [(7, 1100)]})
        out = st_convolve(u, v)
        bands, mass = pairwise_convolve(u, v)
        assert sorted(out.bands) == sorted(bands) == [-2, 2, 3]
        for n, segs in bands.items():
            (m0, a), = out.bands[n]
            assert m0 == segs[0][0] and np.abs(a - segs[0][1]).max() < 1e-12
        assert out.truncated_mass == mass == 0.0

    @pytest.mark.parametrize("case", sorted(_CONV_CASES))
    def test_layout_does_not_depend_on_the_symbols(self, case):
        # the premise of bilinear_output's in-place sum of its terms' convolutions
        params, lay_u, lay_v = _CONV_CASES[case]
        rng = np.random.default_rng(35)
        u = segmented_spectrum(params, rng, lay_u)
        v = segmented_spectrum(params, rng, lay_v, tau0=0.125)
        ik = lambda k: 1j * k
        plain, deriv = st_convolve(u, v), st_convolve(u, v, ik, ik)
        assert plain.n_cells() > 0
        for name in ("seg_n", "seg_m0", "offsets"):
            assert np.array_equal(getattr(plain, name), getattr(deriv, name))

    def test_symbol_called_once_on_the_band_ks(self):
        params, lay_u, lay_v = _CONV_CASES["unequal"]
        rng = np.random.default_rng(36)
        u = segmented_spectrum(params, rng, lay_u)
        v = segmented_spectrum(params, rng, lay_v)
        seen = []

        def counting(k):
            seen.append(k)
            return 1j * k

        st_convolve(u, v, counting, None)
        st_convolve(u, v, None, counting)
        assert len(seen) == 2 and all(isinstance(k, np.ndarray) for k in seen)
        assert np.array_equal(seen[0], np.unique(u.seg_n) / params.lam)
        assert np.array_equal(seen[1], np.unique(v.seg_n) / params.lam)

    def test_overlapping_outputs_merge(self):
        params, lay_u, lay_v = _CONV_CASES["overlap"]
        rng = np.random.default_rng(32)
        out = st_convolve(segmented_spectrum(params, rng, lay_u),
                          segmented_spectrum(params, rng, lay_v))
        assert [(m0, len(a)) for m0, a in out.bands[2]] == [(0, 12), (100, 2)]

    def test_layout_is_the_view_behind_bands(self, params8):
        rng = np.random.default_rng(33)
        u = segmented_spectrum(params8, rng, {2: [(5, 3), (0, 2), (1, 2)], -1: [(0, 1)]})
        assert [(m0, len(a)) for m0, a in u.bands[2]] == [(0, 3), (5, 3)]
        assert list(u.seg_n) == [-1, 2, 2] and list(u.offsets) == [0, 1, 4, 7]
        for n, m0, arr, sig in u.cells():
            assert np.shares_memory(arr, u.amps)
            assert np.array_equal(sig, oracles.st_sigma_of(u, n, m0, len(arr)))

    def test_offsets_beyond_int64_stay_exact(self):
        # m0 ~ 8 * 1024^9 ~ 2^93 needs Python ints; sigma is exact before rounding
        p = ModelParams(j=4, kmax=2048.0)
        big = dispersion_symbol(1024, 4) * 8
        u = SpaceTimeSpectrum(p, 0.125, 0.0, {1024: [(big - 3, np.ones(7))]})
        v = SpaceTimeSpectrum(p, 0.125, 0.0, {-1023: [(-big + 5, np.ones(2))]})
        assert u.seg_m0.dtype == object and u.seg_m0[0] == big - 3
        (_, _, _, sig), = u.cells()
        want = [-0.375, -0.25, -0.125, 0.0, 0.125, 0.25, 0.375]
        assert list(sig) == list(oracles.st_sigma_of(u, 1024, big - 3, 7)) == want
        out = st_convolve(u, v)
        assert out.bands[1][0][0] == 2 and out.n_cells() == 8
        assert oracles.st_value_at(out, 1, 3) == pytest.approx(2 * 0.125)

    @pytest.mark.parametrize("case", ["lam2", "picard_grid", "j4_lam2_k1024"])
    def test_every_sigma_is_the_exact_rational_one(self, case):
        if case == "lam2":  # |P(k)| ~ 4e12 near k = 64 at j = 3, where a float's ulp is ~1e-3
            p = ModelParams(j=3, lam=2.0, kmax=64.0)
            u = random_spectrum(p, np.random.default_rng(4), dtau=0.25)
            u = SpaceTimeSpectrum(p, u.dtau, 0.1, u.bands)
        elif case == "picard_grid":  # dtau = 2 pi 32 / 129, not 1/q
            p = ModelParams(j=2, kmax=16.0)
            t = PicardConfig(nt=129).t_grid()
            u = from_time_samples(t, real_trajectory(p, t.size, seed=5)[1], p)
        else:  # |P(1024)| = 2^90 at j = 4: a float sigma read 0.0 in every cell
            p = ModelParams(j=4, lam=2.0, kmax=1024.0)
            spec = SpatialSpectrum.from_modes(p, {1024.0: 1.0, -1024.0: 1.0})
            u = from_characteristic(spec, dtau=0.25, sigma_halfwidth=0.25)
            assert [sig.tolist() for *_, sig in u.cells()] == [[-0.25, 0.0, 0.25]] * 2
        for n, m0, arr, sig in u.cells():
            want = oracles.st_sigma_of(u, n, m0, len(arr))
            assert np.all(np.abs(sig - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_band_beyond_kmax_rejected(self, params8):
        with pytest.raises(ValueError, match="nmax=8"):
            SpaceTimeSpectrum(params8, 0.25, 0.0, {-9: [(0, np.ones(2))]})
        u = SpaceTimeSpectrum(params8, 0.25, 0.0, {8: [(0, np.ones(2))]})
        wider = SpaceTimeSpectrum(ModelParams(j=2, kmax=16.0), 0.25, 0.0, {8: [(0, np.ones(2))]})
        with pytest.raises(ValueError, match="grids do not match"):
            u + wider


@st.composite
def segment_tables(draw, bands=(-3, -2, -1, 1, 2, 3)):
    """Segments (n, m0, length) drawn with repeats from a few distinct ones, so that identical
    (twice, three times or more), touching, nested and partly overlapping segments are common."""
    pool = draw(st.lists(st.tuples(st.sampled_from(bands), st.integers(-2, 6), st.integers(0, 4)),
                         min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), max_size=16))


# one segment of each kind: band 1 a twin and a segment touching it, band 2 three identical
# ones, band 3 a nested pair, band -1 a partly overlapping pair, band -2 a lone and an empty one
EVERY_KIND = [(1, 0, 3), (2, 0, 2), (3, 0, 4), (-1, 0, 3), (1, 0, 3), (2, 0, 2), (3, 1, 2),
              (1, 3, 2), (-1, 2, 3), (2, 0, 2), (-2, 5, 1), (-2, 9, 0)]


def random_buffer(seed, size):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def convolution_rows(u, v):
    """st_convolve(u, v)'s buffer of segment-pair convolutions, computed as it computes it,
    with each row's (n, m0, length, kept), in the order of its cached plan."""
    pairs = bourgain._CACHE["plan", u.layout.key, v.layout.key][0]
    bufs, ns, m0s, lengths, kept = [], [], [], [], []
    for a, b, drop in pairs:
        i, j = np.searchsorted(u.offsets, a[:, 0]), np.searchsorted(v.offsets, b[:, 0])
        n = (u.seg_n[i][:, None] + v.seg_n[j]).ravel()
        bufs.append(bourgain._pair_convolutions(u.amps[a] * (u.dtau / u.params.lam),
                                                v.amps[b]).ravel())
        ns += n.tolist()
        m0s += (u.seg_m0[i][:, None] + v.seg_m0[j]).ravel().tolist()
        lengths += [a.shape[1] + b.shape[1] - 1] * n.size
        keep = np.ones(n.size, dtype=bool)
        keep[drop] = False
        assert np.array_equal(keep, (n != 0) & (np.abs(n) <= u.params.nmax))
        kept += keep.tolist()
    return ns, m0s, lengths, np.concatenate(bufs), kept


def assert_layout_is(u, want):
    seg_n, seg_m0, offsets, amps = want
    assert (u.seg_n.tolist(), u.seg_m0.tolist(), u.offsets.tolist()) == (seg_n, seg_m0, offsets)
    assert np.array_equal(u.amps, amps)


class TestPlacement:
    """Gathered rows, or one np.add.at over every kept cell: equal to the np.add.at oracle."""

    @given(table=segment_tables(), seed=st.integers(0, 2**32 - 1))
    @example(table=EVERY_KIND, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_assemble_places_as_one_add_at(self, table, seed):
        rng = np.random.default_rng(seed)
        n, m0, length = np.array(table, dtype=np.int64).reshape(-1, 3).T
        keep = rng.random(n.size) < 0.8
        buf = random_buffer(seed, int(length.sum()))
        seg_n, seg_m0, offsets, placement = bourgain._assemble(n, bourgain._ints(m0), length, keep)
        got = bourgain._place(placement, buf)
        want = oracles.add_at_layout(n, m0, length, buf, keep)
        assert (seg_n.tolist(), seg_m0.tolist(), offsets.tolist()) == want[:3]
        assert np.array_equal(got, want[3])

    @staticmethod
    def placed(table, kind):
        """_assemble's placement of table (n, m0, length), of the kind named, and the one
        np.add.at's layout and amps on a random buffer, which _place must give."""
        n, m0, length = (np.array(col, dtype=np.int64) for col in zip(*table))
        buf = random_buffer(3, int(length.sum()))
        *layout, placement = bourgain._assemble(n, bourgain._ints(m0), length)
        assert len(placement) == {"gather": 4, "add_at": 3}[kind]
        want = oracles.add_at_layout(n, m0, length, buf)
        assert [a.tolist() for a in layout] == list(want[:3])
        assert np.array_equal(bourgain._place(placement, buf), want[3])
        return placement

    def test_each_kind_of_segment_takes_its_route(self):
        # rows of mixed lengths, some overlapping: every kept cell to np.add.at, in buffer order
        size, cells, src = self.placed(EVERY_KIND, "add_at")
        assert size == 5 + 2 + 4 + 5 + 1  # bands 1, 2, 3, -1, -2, merged
        assert np.array_equal(src, np.arange(27)) and cells.size == 27

    @pytest.mark.parametrize("table", [
        [(1, 0, 2), (1, 2, 2), (2, 0, 2)],  # touching rows of one length
        [(1, 0, 2), (1, 5, 3), (-1, 0, 3)],  # rows apart, of two lengths
        [(1, 0, 2), (1, 0, 2), (1, 0, 2)],  # three identical rows
    ])
    def test_other_layouts_go_to_add_at(self, table):
        _, cells, src = self.placed(table, "add_at")
        assert np.array_equal(src, np.arange(sum(l for *_, l in table))) and cells.size == src.size

    @pytest.mark.parametrize("table, first, second, lone", [
        ([(1, 0, 2), (2, 5, 2), (-1, 3, 2)], [4, 0, 2], [], []),  # lone rows
        ([(1, 0, 2), (2, 5, 2), (1, 0, 2), (-1, 3, 2), (1, 3, 0)], [6, 0, 2], [6, 4, 2], [0, 2]),
        ([(2, 1, 3), (2, 1, 3), (1, 0, 3), (1, 0, 3)], [6, 0], [9, 3], []),  # identical pairs
    ])
    def test_lone_rows_and_identical_pairs_gather(self, table, first, second, lone):
        length, *rows = self.placed(table, "gather")
        assert length == table[0][2]
        assert [r.tolist() for r in rows] == [first, second, lone]

    @given(table=segment_tables(), seed=st.integers(0, 2**32 - 1))
    @example(table=EVERY_KIND, seed=1)
    @settings(max_examples=100, deadline=None)
    def test_constructor_equals_the_add_at_oracle(self, table, seed):
        buf = iter(random_buffer(seed, sum(l for _, _, l in table)))
        bands = {}
        for n, m0, l in table:
            bands.setdefault(n, []).append((m0, np.array([next(buf) for _ in range(l)])))
        flat = [(n, m0, a) for n, segs in bands.items() for m0, a in segs]  # buffer order
        u = SpaceTimeSpectrum(ModelParams(j=2, kmax=3.0), 0.25, 0.0, bands)
        assert_layout_is(u, oracles.add_at_layout(
            [f[0] for f in flat], [f[1] for f in flat], [f[2].size for f in flat],
            np.concatenate([f[2] for f in flat] + [np.zeros(0, complex)])))

    @given(first=segment_tables(bands=(-2, -1, 1, 2)), second=segment_tables(bands=(-2, -1, 1, 2)),
           twins=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_st_convolve_equals_the_add_at_oracle(self, first, second, twins, seed):
        # nmax 2: output bands 0 and |n| > 2 are dropped; on one layout (twins) every (n1, n2)
        # row has an identical (n2, n1) row
        p = ModelParams(j=2, kmax=2.0)
        rng = np.random.default_rng(seed)
        lay = [{n: [(m0, l) for n2, m0, l in table if n2 == n and l]
                for n, _, _ in table} for table in (first, second)]
        u = segmented_spectrum(p, rng, lay[0])
        v = u.scaled(1j + rng.standard_normal()) if twins else segmented_spectrum(p, rng, lay[1])
        out = st_convolve(u, v)
        if not (u.seg_n.size and v.seg_n.size):
            assert out.n_cells() == 0
            return
        ns, m0s, lengths, buf, kept = convolution_rows(u, v)
        assert_layout_is(out, oracles.add_at_layout(ns, m0s, lengths, buf, kept))

    @staticmethod
    def assert_gathers(placement, out):
        """placement gathers whole rows that tile out; (size, cells, src) would be np.add.at."""
        assert len(placement) == 4
        length, first, second, lone = placement
        assert first.size * length == out.offsets[-1]
        assert second.size in (0, first.size) and lone.size < first.size

    @pytest.mark.parametrize("j, lam, kmax", [(2, 1.0, 32.0), (3, 2.0, 16.0), (4, 1.0, 16.0)])
    @pytest.mark.parametrize("dtau", [0.25, 1 / 16, 1 / 64])
    def test_characteristic_layouts_leave_nothing_to_add_at(self, j, lam, kmax, dtau):
        # each output segment of two characteristic-window layouts is one (n1, n2) / (n2, n1)
        # twin or one lone row, by non-resonance: every cell is gathered, and the gathered rows
        # tile the output in order.  A fallback to np.add.at fails here.
        p = ModelParams(j=j, lam=lam, kmax=kmax)
        rng = np.random.default_rng(9)
        u = random_spectrum(p, rng, dtau=dtau)
        amps = rng.standard_normal(2 * p.nmax + 1) * (rng.random(2 * p.nmax + 1) < 0.5)
        amps[p.nmax] = 0.0
        sparse = from_characteristic(SpatialSpectrum(p, amps), dtau)  # fewer bands: fewer twins
        for x, y in ((u, u), (u, sparse), (sparse, u)):
            _, placement, out = bourgain._convolution_plan(x.layout, y.layout)
            self.assert_gathers(placement, out)
            if x is y:  # one layout: each (n1, n2) row has its (n2, n1) twin, (n, n) is lone
                _, first, second, lone = placement
                assert second.size == first.size and lone.size > 0

    @pytest.mark.parametrize("form", [*BILINEAR_FORMS, "F"])
    def test_the_probe_plan_gathers_in_every_form(self, form):
        # the probe's pair (j = 2, kmax 32, dtau 1/4) as bilinear_output runs it
        p = ModelParams(j=2, kmax=32.0)
        rng = np.random.default_rng(10)
        u, v = random_spectrum(p, rng), random_spectrum(p, rng)
        out = bilinear_output(u, v, form)
        _, placement, plan_out = bourgain._CACHE["plan", u.layout.key, v.layout.key]
        assert plan_out is out.layout
        self.assert_gathers(placement, out)

    @pytest.mark.parametrize("j", [2, 3, 4])
    def test_the_collision_scan_plans_gather(self, j):
        # every slab pair of a collision scan over the default N list, through the "F" form as
        # duhamel_weighted_bilinear runs it: the plans certify's illposed commands build
        for N in CounterexampleConfig(j=j, s=-0.25).N_list:
            u1, u2 = build_counterexample(N, j)
            out = bilinear_output(u1, u2, "F")
            _, placement, plan_out = bourgain._CACHE["plan", u1.layout.key, u2.layout.key]
            assert plan_out is out.layout
            self.assert_gathers(placement, out)

    def test_a_warm_convolution_allocates_its_buffer_and_output_only(self):
        # the probe's pair at kmax 32: past the buffer of segment-pair convolutions and the
        # output, one cell-sized temporary at most; per-call casts of cell indices would not fit
        p = ModelParams(j=2, kmax=32.0)
        rng = np.random.default_rng(8)
        u, v = random_spectrum(p, rng), random_spectrum(p, rng)
        ik = lambda k: 1j * k
        st_convolve(u, v, ik, ik)
        pairs = bourgain._CACHE["plan", u.layout.key, v.layout.key][0]
        buffer = 16 * sum(a.shape[0] * b.shape[0] * (a.shape[1] + b.shape[1] - 1)
                          for a, b, _ in pairs)
        tracemalloc.start()
        try:
            out = st_convolve(u, v, ik, ik)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.amps.nbytes == 16 * 49632 and buffer == 16 * 4096 * 33
        assert peak < buffer + 2 * out.amps.nbytes

    def test_a_warm_zs_norm_allocates_three_float_arrays(self):
        # zs_norm of the same warm pair's output: |a| in layout order, numpy's intp copy of the
        # int32 order inside take, and |a| in the sum order (squared and weighted in place), each
        # one float per cell, plus the per-band sums; a complex-sized temporary beside the sums,
        # or a fourth float one, would not fit
        p = ModelParams(j=2, kmax=32.0)
        rng = np.random.default_rng(8)
        u, v = random_spectrum(p, rng), random_spectrum(p, rng)
        ik = lambda k: 1j * k
        out = st_convolve(u, v, ik, ik)
        zs_norm(out, -0.25)
        tracemalloc.start()
        try:
            zs_norm(out, -0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        floats = 8 * out.n_cells()
        assert floats == 8 * 49632 and peak < 3 * floats + 8 * 1024


class TestHermitianMirror:
    def _cases(self, params8):
        from dcl.illposed import build_counterexample

        spec = hermitian_spectrum(params8, seed=40, scale=1.0)
        flat = from_characteristic(spec, dtau=0.25)
        smooth = from_characteristic(spec, dtau=0.125, profile=lambda sig: np.exp(-sig**2))
        slab1, slab2 = build_counterexample(4, 2)  # tau0 = dtau/2
        yield flat, smooth, slab1, slab2
        n, m0, arr, _ = next(flat.cells())
        nudged = flat + SpaceTimeSpectrum(params8, 0.25, 0.0, {n: [(m0 + 2, np.array([1e-9]))]})
        extra = flat + SpaceTimeSpectrum(params8, 0.25, 0.0, {n: [(m0 - 5, np.array([1.0]))]})
        shifted = SpaceTimeSpectrum(slab1.params, slab1.dtau, slab1.tau0,
                                    {n: [(m + 1, a) for m, a in segs]
                                     for n, segs in slab1.bands.items()})
        yield (nudged, extra, flat.scaled(np.exp(0.3j)), shifted,
               random_spectrum(params8, np.random.default_rng(41)))

    def test_agrees_with_the_cell_by_cell_definition(self, params8):
        hermitian, perturbed = self._cases(params8)
        for u in hermitian:
            assert hermitian_by_cells(u)
        for u in perturbed:
            assert not hermitian_by_cells(u)
        assert hermitian_by_cells(SpaceTimeSpectrum(params8, 0.25))

    def test_tolerance_is_relative_to_the_largest_amplitude(self, params8):
        _, (nudged, *_) = self._cases(params8)
        assert not hermitian_by_cells(nudged, 1e-12)
        assert hermitian_by_cells(nudged, 1e-6)


# -- time samples: the full transform as the oracle ------------------------------------

def full_transform(t, block, params):
    """(ns, m0, cells) of the transform of every nonzero column, as np.fft gives it.

    Rows of cells are the bands ns in order, each on the ascending tau
    indices m0, m0 + 1, ...; the n < 0 bands are transformed, not mirrored.
    """
    nt, m = t.size, params.nmax
    dt = t[1] - t[0]
    dtau = 2.0 * math.pi / (nt * dt)
    ns = np.array([n for n in range(-m, m + 1) if n != 0 and block[:, n + m].any()])
    fhat = np.fft.fft(block.T[ns + m], axis=1) * (dt / math.sqrt(2.0 * math.pi))
    ms = np.fft.fftfreq(nt, d=1.0 / nt).astype(int)
    order = np.argsort(ms)
    cells = fhat[:, order] * np.exp(-1j * (ms[order] * dtau) * t[0])
    return ns, ms[order[0]], cells


def real_trajectory(params, nt, seed):
    """(t, block): nt random real fields on [-2, 2], exactly Hermitian rows."""
    rng = np.random.default_rng(seed)
    pos = rng.standard_normal((nt, params.nmax)) + 1j * rng.standard_normal((nt, params.nmax))
    pos /= bracket(params.k_values()[params.nmax + 1:])
    return np.linspace(-2.0, 2.0, nt), hermitian_rows(pos)


def unmarked(u):
    """The same layout and amplitudes, not marked as a real field."""
    return SpaceTimeSpectrum._from_layout(u.layout, u.amps)


class TestTimeSamples:
    @pytest.mark.parametrize("nt", [65, 257])
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("j", [2, 3])
    def test_real_block_mirror_equals_the_full_transform(self, j, lam, nt):
        p = ModelParams(j=j, lam=lam, kmax=8.0)
        t, block = real_trajectory(p, nt, seed=10 * j + nt)
        u = from_time_samples(t, block, p)
        ns, m0, cells = full_transform(t, block, p)
        assert u._real
        assert np.array_equal(u.seg_n, ns) and np.all(u.seg_m0 == m0)
        assert np.array_equal(u.offsets, np.arange(ns.size + 1) * nt)
        err = np.abs(u.amps.reshape(ns.size, nt) - cells)
        assert err.max() <= 1e-13 * np.abs(cells).max()

    def test_marked_spectrum_is_exactly_hermitian(self):
        p = ModelParams(j=2, lam=2.0, kmax=8.0)
        u = from_time_samples(*real_trajectory(p, 65, seed=1), p)
        assert hermitian_by_cells(u, tol=0) and hermitian_by_cells(unmarked(u), tol=0)

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("s", [-0.25, 0.5])
    def test_norms_of_a_marked_spectrum_equal_the_unmarked_ones(self, lam, s):
        p = ModelParams(j=2, lam=lam, kmax=8.0)
        u = from_time_samples(*real_trajectory(p, 257, seed=2), p)
        plain = unmarked(u)
        assert u._real and not plain._real
        for f in (lambda x: xsb_norm(x, s, 0.0), lambda x: xsb_norm(x, s, 0.5),
                  lambda x: ys_norm(x, s), lambda x: zs_norm(x, s), lambda x: ws_norm(x, s)):
            assert f(u) == pytest.approx(f(plain), rel=1e-13, abs=0)

    def test_zero_bands_are_dropped_in_both_halves(self):
        p = ModelParams(j=2, lam=2.0, kmax=8.0)
        t, block = real_trajectory(p, 65, seed=3)
        for n in (2, 5):
            block[:, p.nmax + n] = block[:, p.nmax - n] = 0.0
        u = from_time_samples(t, block, p)
        ns, m0, cells = full_transform(t, block, p)
        assert u._real and not set(u.seg_n.tolist()) & {-5, -2, 2, 5}
        assert np.array_equal(u.seg_n, ns) and np.all(u.seg_m0 == m0)
        assert np.abs(u.amps.reshape(ns.size, -1) - cells).max() <= 1e-13 * np.abs(cells).max()

    def test_nearly_hermitian_block_is_lifted_from_its_positive_half(self):
        # Hermitian only within 1e-12: the lift is that of the exact mirror of the n > 0 half
        p = ModelParams(j=3, lam=2.0, kmax=8.0)
        m = p.nmax
        t, block = real_trajectory(p, 65, seed=4)
        nudged = block.copy()
        nudged[:, :m] *= 1.0 + 1e-13 * np.exp(2j * np.pi * np.random.default_rng(4).random(m))
        assert not oracles.exactly_hermitian(nudged)
        u = from_time_samples(t, nudged, p)
        want = from_time_samples(t, hermitian_rows(nudged[:, m + 1:]), p)
        assert u._real and want._real
        for name in ("seg_n", "seg_m0", "offsets", "amps"):
            assert np.array_equal(getattr(u, name), getattr(want, name))

    def test_blocks_that_are_not_real_fields_rejected(self):
        p = ModelParams(j=2, lam=2.0, kmax=8.0)
        m = p.nmax
        t, block = real_trajectory(p, 65, seed=5)
        cplx = block + 1j * np.random.default_rng(5).standard_normal(block.shape)
        cplx[:, m] = 0.0
        with pytest.raises(ValueError, match="^block must be a real field"):
            from_time_samples(t, cplx, p)
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
            for cols in ([m + 3, m - 3], [m + 3], [m - 1], [m]):  # a mirrored pair, one side, n = 0
                samples = block.copy()
                samples[7, cols] = bad
                with pytest.raises(ValueError, match="^block has a non-finite amplitude"):
                    from_time_samples(t, samples, p)

    def test_even_nt_rejected(self):
        p = ModelParams(j=2, kmax=4.0)
        t, block = real_trajectory(p, 64, seed=6)
        with pytest.raises(ValueError, match="nt must be odd"):
            from_time_samples(t, block, p)
        with pytest.raises(ValueError, match="nt must be odd"):
            from_time_samples(t[:2], block[:2], p)

    def test_derived_spectra_are_unmarked(self):
        p = ModelParams(j=2, kmax=4.0)
        u = from_time_samples(*real_trajectory(p, 33, seed=5), p)
        derived = (u.scaled(1j), u + u, st_convolve(u, u))
        assert u._real and not any(x._real for x in derived)
        assert not hermitian_by_cells(u.scaled(1j))
        assert ys_norm(derived[1], -0.25) == pytest.approx(2 * ys_norm(u, -0.25), rel=1e-13)
        assert u._real  # the source keeps its mark

    def test_extra_columns_rejected(self):
        p = ModelParams(j=2, kmax=4.0)
        t, block = real_trajectory(p, 33, seed=6)
        with pytest.raises(ValueError, match="shape"):
            from_time_samples(t, np.pad(block, ((0, 0), (1, 1))), p)

    def test_non_uniform_grid_rejected(self):
        p = ModelParams(j=2, kmax=4.0)
        t, block = real_trajectory(p, 33, seed=7)
        t = t.copy()
        t[10] += 1e-3
        with pytest.raises(ValueError, match="uniform"):
            from_time_samples(t, block, p)

    @pytest.mark.parametrize("bad", ["stretched", "backwards"])
    def test_non_uniform_grid_rejected_at_tiny_steps(self, bad):
        # the uniformity test is relative to the step, with no absolute slack
        p = ModelParams(j=2, kmax=4.0)
        _, block = real_trajectory(p, 33, seed=7)
        t = np.arange(33) * 1e-10
        from_time_samples(t, block, p)
        if bad == "stretched":
            t[10:] += 1e-14  # one step 1e-4 relative too long
        else:
            t[10:] -= 2e-10  # one step of -1e-10
        with pytest.raises(ValueError, match="uniform"):
            from_time_samples(t, block, p)

    def test_sample_count_mismatch_rejected(self):
        p = ModelParams(j=2, kmax=4.0)
        _, block = real_trajectory(p, 33, seed=8)
        with pytest.raises(ValueError, match="shape"):
            from_time_samples(np.linspace(-2.0, 2.0, 20), block, p)

    def test_fewer_than_two_samples_rejected(self):
        p = ModelParams(j=2, kmax=4.0)
        _, block = real_trajectory(p, 1, seed=9)
        with pytest.raises(ValueError, match="at least 2"):
            from_time_samples(np.array([0.0]), block, p)

    @pytest.mark.parametrize("j, lam, nt", [(2, 1.0, 3), (2, 2.0, 65), (3, 2.0, 33)])
    def test_lift_of_halves_equals_the_lift_of_full_rows(self, j, lam, nt):
        # the core picard_iterate lifts its differences with, against the public route on
        # the mirrored rows: the same layout, cells and mark bit for bit; bands 2 and 5 are zero
        p = ModelParams(j=j, lam=lam, kmax=8.0)
        t, block = real_trajectory(p, nt, seed=nt + j)
        halves = np.ascontiguousarray(block[:, p.nmax + 1:])
        halves[:, [1, 4]] = 0.0
        got = _lift_halves(halves, float(t[0]), float(t[1] - t[0]), p)
        want = from_time_samples(t, hermitian_rows(halves), p)
        assert got._real and want._real and got.dtau == want.dtau
        for name in ("seg_n", "seg_m0", "offsets", "amps"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert not {-5, -2, 2, 5} & set(got.seg_n.tolist())

    def test_lift_on_numpy_without_fft_out(self, monkeypatch):
        # numpy 1.x (no lattice._pocketfft) has no out= on np.fft.fft: the copied-in
        # transform gives the same cells
        p = ModelParams(j=3, lam=2.0, kmax=8.0)
        t, block = real_trajectory(p, 33, seed=4)
        want = from_time_samples(t, block, p)
        fft = np.fft.fft

        def fft_without_out(a, n=None, axis=-1, norm=None):  # numpy 1.x's signature
            return fft(a, n, axis, norm)

        monkeypatch.setattr(lattice, "_pocketfft", lambda: None)
        monkeypatch.setattr(np.fft, "fft", fft_without_out)
        got = from_time_samples(t, block, p)
        assert got._real
        for name in ("seg_n", "seg_m0", "offsets", "amps"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        # two different blocks, one after the other, into one reused buffer
        buf = np.full((2 * p.nmax, 33), np.nan, dtype=complex)
        for seed in (5, 6):
            t, block = real_trajectory(p, 33, seed=seed)
            want = from_time_samples(t, block, p)
            got = _lift_halves(block[:, p.nmax + 1:], float(t[0]), float(t[1] - t[0]), p, buf)
            for name in ("seg_n", "seg_m0", "offsets", "amps"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_lift_into_a_buffer_aliases_it(self):
        # the documented contract: with every band kept the amps are a view of the
        # buffer, so the next lift overwrites them; a dropped band makes them a copy
        p = ModelParams(j=2, kmax=4.0)
        t, dt = np.linspace(-2.0, 2.0, 17), 0.25
        first, second = (real_trajectory(p, 17, seed=s)[1][:, p.nmax + 1:] for s in (1, 2))
        buf = np.empty((2 * p.nmax, 17), dtype=complex)
        got = _lift_halves(first, -2.0, dt, p, buf)
        assert np.shares_memory(got.amps, buf)
        want = from_time_samples(t, hermitian_rows(second), p).amps
        _lift_halves(second, -2.0, dt, p, buf)
        assert np.array_equal(got.amps, want)
        second = second.copy()
        second[:, 2] = 0.0
        got = _lift_halves(second, -2.0, dt, p, buf)
        assert not np.shares_memory(got.amps, buf) and got.seg_n.size == 2 * (p.nmax - 1)


def threshold_spectrum(p, n, theta, width):
    """Band n with 2*width+1 cells at sigma = theta + i*dtau, i = -width..width.

    dtau = lam^-(2j+1) makes every residual r_n zero, so cell m has sigma
    dtau*(m - M_n) + tau0; tau0 = theta - dtau*steps is exact (Sterbenz), and
    the middle cell, m = M_n + steps, sits on theta exactly while steps < 2^53.
    """
    dtau = p.lam ** -(2 * p.j + 1)
    steps = int(theta / dtau)  # toward zero, so |dtau*steps| <= |theta| (within a rounding)
    tau0 = theta - dtau * steps
    m_n = int(_characteristic(p, dtau)[0][n + p.nmax])
    return SpaceTimeSpectrum(p, dtau, tau0, {n: [(m_n + steps - width, np.ones(2 * width + 1))]})


class TestRegionRuns:
    """zs_norm's two per-band bounds against region_codes cell by cell, and zs_norm against
    the per-cell route."""

    def check(self, u, s=-0.25):
        _, _, band, sig = oracles.layout_order_cells(u)
        b0, b1 = (b[band] for b in _zs_bounds(u.layout.band_k, u.params.j))
        term = (np.abs(sig) >= b0).astype(int) + (np.abs(sig) >= b1)
        codes = region_codes(u.layout.band_k[band], np.abs(sig), u.params)
        assert np.array_equal(term, np.array([3, 0, 1, 2, 2, 0])[codes])
        assert zs_norm(u, s) == oracles.zs_norm_by_cells(u, s)  # the same sums in the same order
        return codes

    @pytest.mark.parametrize("j, lam", [(2, 1.0), (3, 2.0), (4, 3.0)])
    def test_random_bilinear_and_time_sample_spectra(self, j, lam):
        p = ModelParams(j=j, lam=lam, kmax=8.0)
        u, v = (random_spectrum(p, np.random.default_rng(seed), dtau=1 / 16, sigma_halfwidth=4.0)
                for seed in (j, j + 10))
        for x in (u, bilinear_output(u, v, "dxdx_smoothed"),
                  from_time_samples(*real_trajectory(p, 65, seed=j), p)):
            self.check(x)

    def test_every_region(self):
        # lam = 2 puts k = 1/2 in D4/D5; the window +-8 reaches D1, D2 and D3 at k = 2
        p = ModelParams(j=2, lam=2.0, kmax=4.0)
        u = random_spectrum(p, np.random.default_rng(21), dtau=1 / 64, sigma_halfwidth=8.0)
        assert set(self.check(u).tolist()) == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize("width", [0, 3])
    @pytest.mark.parametrize("j", [2, 3, 4])
    @pytest.mark.parametrize("lam", [1.0, 2.0, 3.0, 4.0])
    def test_sigma_exactly_on_thresholds(self, j, lam, width):
        # sigma on the float lo and hi, both signs, with its neighbours a cell away; at
        # |k| = 1/lam and 1 (the D4/D5 and tie bands) and kmax, whose m0 passes 2^62 at j = 4,
        # lam >= 2.  Width 0 is a one-cell segment on the threshold itself
        p = ModelParams(j=j, lam=lam, kmax=64.0)
        for n in sorted({1, int(lam), int(64 * lam)}):
            for theta in region_thresholds(np.array([n / lam]), j):
                for sig in (theta[0], -theta[0]):
                    u = threshold_spectrum(p, n, sig, width)
                    if abs(sig / u.dtau) < 2**53:
                        assert u.layout.sigma[width] == sig
                    self.check(u)

    def test_short_straddling_segment_before_a_low_one(self):
        # a five-cell segment across +lo at k = 3, between a 65-cell segment at k = 2 and one
        # at k = 4 whose cells all lie far below lo: each segment's bounds must cover exactly
        # its own cells
        p = ModelParams(j=2, kmax=8.0)
        m_n = _characteristic(p, 0.25)[0]
        lo = float(region_thresholds(np.array([3.0]), 2)[0][0])
        u = SpaceTimeSpectrum(p, 0.25, 0.0, {
            2: [(int(m_n[2 + p.nmax]) - 32, np.ones(65))],
            3: [(int(m_n[3 + p.nmax]) + round(lo / 0.25) - 2, np.ones(5))],
            4: [(int(m_n[4 + p.nmax]) - 1000, np.ones(65))]})
        assert set(self.check(u).tolist()) == {1, 2, 3}

    def test_python_int_offsets(self):
        # j = 4 at kmax 1024: tau indices near P(k) pass 2^62, and a segment across +-hi at
        # k = 1024 has cells whose float sigmas tie
        p = ModelParams(j=4, kmax=1024.0)
        spec = SpatialSpectrum.from_modes(p, {1.0: 1.0, 2.0: 1j, 600.0: 0.5, 1024.0: 2.0})
        u = from_characteristic(spec, dtau=0.25)
        assert u.seg_m0.dtype == object
        self.check(u)
        hi = float(region_thresholds(np.array([1024.0]), 4)[1][0])
        m_n = int(_characteristic(p, 0.25)[0][1024 + p.nmax])
        far = round(hi / 0.25)
        u = SpaceTimeSpectrum(p, 0.25, 0.0, {1024: [(m_n + far - 4, np.ones(9)),
                                                    (m_n - far - 4, np.ones(9))]})
        assert np.unique(u.layout.sigma).size < u.n_cells()
        self.check(u)


def sum_order_cases():
    """(name, spectrum) pairs whose norms the layout-order oracle checks."""
    p = ModelParams(j=2, kmax=8.0)
    yield "random", random_spectrum(p, np.random.default_rng(50))
    # ragged bands of several segments, and segments that overlap, touch or nest and are summed
    rng = np.random.default_rng(51)
    for case in sorted(_CONV_CASES):
        params, lay_u, lay_v = _CONV_CASES[case]
        yield case, segmented_spectrum(params, rng, lay_u)
        yield case + " out", st_convolve(segmented_spectrum(params, rng, lay_u),
                                         segmented_spectrum(params, rng, lay_v))
    yield "every kind", segmented_spectrum(ModelParams(j=3, kmax=3.0), rng, {
        n: [(m0, l) for n2, m0, l in EVERY_KIND if n2 == n] for n, _, _ in EVERY_KIND})
    # a real-marked lift with a zero band dropped in both halves
    t, block = real_trajectory(p, 17, seed=52)
    block[:, [p.nmax - 3, p.nmax + 3]] = 0.0
    lifted = from_time_samples(t, block, p)
    assert lifted._real and 3 not in lifted.bands and -3 not in lifted.bands
    yield "lift", lifted
    q = ModelParams(j=4, kmax=1024.0)
    big = from_characteristic(SpatialSpectrum.from_modes(q, {1.0: 1.0, 2.0: 1j, 600.0: 0.5,
                                                             1024.0: 2.0}))
    assert big.seg_m0.dtype == object
    yield "object m0", big
    yield "empty", SpaceTimeSpectrum(p, 0.25)


SUM_ORDER_NAMES = [name for name, _ in sum_order_cases()]


class TestSumOrder:
    """The norms sum band-interleaved; each per-band sum is the layout-order one, bit for bit."""

    @pytest.mark.parametrize("name", SUM_ORDER_NAMES)
    def test_norms_equal_the_layout_order_oracle(self, name):
        u = dict(sum_order_cases())[name]
        for s in (-0.25, 0.5):
            assert ys_norm(u, s) == oracles.ys_norm_in_layout_order(u, s)
            assert zs_norm(u, s) == oracles.zs_norm_by_cells(u, s)
            for b in (0.5, -0.3):
                assert xsb_norm(u, s, b) == oracles.xsb_norm_in_layout_order(u, s, b)
        if u.n_cells():
            assert zs_norm(u, -0.25) > 0.0

    @pytest.mark.parametrize("name", ["random", "random kmax 32", "lift", "lift nt 1025",
                                      "slab u1", "slab u2"])
    def test_ws_norm_is_its_two_terms_bit_for_bit(self, name):
        # ws_norm is its X^{s,1/2} and Y^s terms, summed in that order
        p = ModelParams(j=2, kmax=32.0)
        cases = dict(sum_order_cases())
        cases["random kmax 32"] = random_spectrum(p, np.random.default_rng(53))
        cases["lift nt 1025"] = from_time_samples(*real_trajectory(p, 1025, seed=54), p)
        cases["slab u1"], cases["slab u2"] = build_counterexample(64, 2)
        u = cases[name]
        for s in (-0.25, 0.5):
            assert ws_norm(u, s) == xsb_norm(u, s, 0.5) + ys_norm(u, s)

    @pytest.mark.parametrize("name", SUM_ORDER_NAMES)
    def test_order_takes_each_band_in_turn(self, name):
        u = dict(sum_order_cases())[name]
        seg, _, sig, order, band = u.layout.norm_cells(u._real)
        cells = u.n_cells() - int(u.offsets[seg])
        assert order.dtype == band.dtype == np.int32 and sig.size == cells
        assert np.array_equal(np.sort(order), np.arange(cells))
        _, _, want, _ = oracles.layout_order_cells(u)
        assert np.array_equal(band, want[order])
        for b in np.unique(band):  # a band's cells in their own order, one per layer
            assert np.all(np.diff(order[band == b]) > 0)
        # each cell's rank in its band never falls: layer r holds cell r of every band of more
        # than r cells
        rank = np.arange(cells) - np.searchsorted(want, want)
        assert np.all(np.diff(rank[order]) >= 0)


class TestLazyMass:
    """truncated_mass on first read, and the Toeplitz stack as a strided view."""

    @pytest.mark.parametrize("case", sorted(_CONV_CASES))
    @pytest.mark.parametrize("derivative", [False, True])
    def test_equals_the_eager_mass(self, case, derivative):
        params, lay_u, lay_v = _CONV_CASES[case]
        rng = np.random.default_rng(53)
        u = segmented_spectrum(params, rng, lay_u)
        v = segmented_spectrum(params, rng, lay_v, tau0=0.125)
        pre = (lambda k: 1j * k) if derivative else None
        out = st_convolve(u, v, pre, pre)
        assert out.truncated_mass == oracles.eager_truncated_mass(u, v, pre, pre) > 0.0

    def test_kept_when_the_inputs_change(self, params8, monkeypatch):
        rng = np.random.default_rng(54)
        u, v = random_spectrum(params8, rng), random_spectrum(params8, rng)
        ik = lambda k: 1j * k
        calls = []
        real = bourgain._pair_convolutions
        monkeypatch.setattr(bourgain, "_pair_convolutions",
                            lambda a, b: calls.append(a.shape) or real(a, b))
        out = st_convolve(u, v, ik, ik)
        products = len(calls)
        want = oracles.eager_truncated_mass(u, v, ik, ik)
        u.amps[:], v.amps[:] = 0.0, 1.0
        calls.clear()
        assert out.truncated_mass == want > 0.0  # from the operands the call kept
        assert 0 < len(calls) <= products
        calls.clear()
        assert out.truncated_mass == want and not calls  # read once, then kept

    def test_of_form_f_is_the_first_terms(self, params8):
        rng = np.random.default_rng(55)
        u, v = random_spectrum(params8, rng), random_spectrum(params8, rng)
        out = bilinear_output(u, v, "F")
        assert out.truncated_mass == st_convolve(u, v).truncated_mass
        assert out.truncated_mass == oracles.eager_truncated_mass(u, v) > 0.0
        assert SpaceTimeSpectrum(params8, 0.25).truncated_mass == u.truncated_mass == 0.0

    @pytest.mark.parametrize("shapes", [((5, 3), (4, 7)), ((3, 1), (6, 5)), ((4, 6), (2, 1)),
                                        ((1, 2), (1, 4)), ((3, 4), (1, 5)), ((2, 300), (50, 40))])
    def test_toeplitz_view_equals_the_lag_gather(self, shapes):
        # one row of b: its stack must still be a contiguous copy.  The last shape takes b's
        # rows in two chunks: step = 2^22 // (339 * 300) = 41 < 50
        (na, l1), (nb, l2) = shapes
        assert (nb > 2**22 // ((l1 + l2 - 1) * l1)) == (l1 == 300)
        rng = np.random.default_rng(56)
        a = rng.standard_normal((na, l1)) + 1j * rng.standard_normal((na, l1))
        b = rng.standard_normal((nb, l2)) + 1j * rng.standard_normal((nb, l2))
        got = bourgain._pair_convolutions(a, b)
        assert np.array_equal(got, oracles.lag_gather_pair_convolutions(a, b))
        want = np.array([np.convolve(x, y) for x in a for y in b])
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


class TestZsTable:
    """The layout's Z^s table per s, and the layouts picard_iterate's lifts share."""

    none, all_ = [False] * 8, [True] * 8
    masks = st.one_of(st.just(none), st.just(all_), st.lists(st.booleans(), min_size=8, max_size=8))

    @given(masks=st.lists(masks, min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1),
           case=st.sampled_from([(2, 1.0, -0.25), (3, 2.0, 0.4)]))
    @example(masks=[none, [True, False] * 4, all_, [False, True] * 4, none], seed=0,
             case=(2, 1.0, -0.25))
    @example(masks=[none, none, [True, False] * 4, [False, True] * 4], seed=1,
             case=(3, 2.0, 0.4))
    @settings(max_examples=40, deadline=None)
    def test_reused_table_equals_zs_norm_of_each_lift(self, masks, seed, case):
        # picard_iterate's route: each (nt, nmax) block of halves is lifted into one
        # buffer and measured against the table of its shared layout, which changes only
        # when the band set does; columns set True in a mask are exactly zero, so their
        # bands drop.  The reference's layout is built anew from its own bands
        j, lam, s = case
        p = ModelParams(j=j, lam=lam, kmax=8.0 / lam)  # nmax = 8
        cfg = PicardConfig(nt=17)
        t = cfg.t_grid()
        dt = _time_step(t, None)
        rng = np.random.default_rng(seed)
        buf = np.empty((2 * p.nmax, cfg.nt), dtype=complex)
        for mask in masks:
            halves = rng.standard_normal((cfg.nt, 8)) + 1j * rng.standard_normal((cfg.nt, 8))
            halves[:, mask] = 0.0
            got = zs_norm(_lift_halves(halves, float(t[0]), dt, p, buf), s)
            bourgain._CACHE.clear()
            assert got == zs_norm(from_time_samples(t, hermitian_rows(halves), p), s)

    def test_table_is_kept_for_the_same_band_set_only(self):
        p = ModelParams(j=2, kmax=4.0)
        t, block = real_trajectory(p, 17, seed=3)
        u = from_time_samples(t, block, p)
        table = u.layout.zs_table(-0.25, True)
        w = from_time_samples(t, 2.0 * block, p)
        assert w.layout is u.layout and w.layout.zs_table(-0.25, True) is table
        assert u.layout.zs_table(0.5, True) is not table
        assert u.layout.zs_table(-0.25, False) is not table  # an unmarked spectrum reads every cell
        block[:, [p.nmax - 1, p.nmax + 1]] = 0.0
        dropped = from_time_samples(t, block, p)
        assert dropped.layout is not u.layout
        assert dropped.layout.zs_table(-0.25, True) is not table


def layout_and_plan_arrays(u):
    """Every array u's layout holds or caches, and every array of each plan in the cache."""
    found = []

    def walk(value):
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, (tuple, list)):
            for item in value:
                walk(item)
        elif isinstance(value, dict):
            walk(list(value.values()))
        elif isinstance(value, _Layout):
            walk(list(vars(value).values()))

    walk(u.layout)
    walk([plan for key, plan in bourgain._CACHE.items() if key[0] == "plan"])
    return found


class TestLayoutCache:
    """Layouts and st_convolve plans: shared, read-only, and kept in one LRU keyed by content."""

    @pytest.mark.parametrize("other", [(3, 1.0, 16.0), (3, 1.0, 8.0), (2, 2.0, 4.0)])
    def test_mismatched_grids_rejected(self, other):
        j, lam, kmax = other
        u = random_spectrum(ModelParams(j=2, kmax=8.0), np.random.default_rng(1))
        v = random_spectrum(ModelParams(j=j, lam=lam, kmax=kmax), np.random.default_rng(2))
        for x, y in ((u, v), (v, u)):
            with pytest.raises(ValueError, match="space-time grids do not match"):
                st_convolve(x, y)
            with pytest.raises(ValueError, match="space-time grids do not match"):
                bilinear_output(x, y, "F")
            with pytest.raises(ValueError, match="space-time grids do not match"):
                x + y

    def test_cached_arrays_are_read_only(self, params8):
        rng = np.random.default_rng(3)
        u, v = random_spectrum(params8, rng), random_spectrum(params8, rng)
        lifted = from_time_samples(*real_trajectory(params8, 17, seed=3), params8)
        for x in (u, bilinear_output(u, v, "F"), lifted):
            zs_norm(x, -0.25)
            x.layout.sigma
            arrays = layout_and_plan_arrays(x)
            assert len(arrays) > 10 and not any(a.flags.writeable for a in arrays)
        assert u.amps.flags.writeable  # the amplitudes are the spectrum's own
        with pytest.raises(ValueError, match="read-only"):
            u.layout.seg_m0[0] += 1
        with pytest.raises(ValueError, match="read-only"):
            u.layout.zs_table(-0.25, False)[1][:] = 0.0

    @pytest.mark.parametrize("form", ["dxdx_smoothed", "F"])
    def test_an_output_keeps_its_amps_across_later_calls(self, params8, form):
        rng = np.random.default_rng(4)
        pairs = [(random_spectrum(params8, rng), random_spectrum(params8, rng)) for _ in range(3)]
        first = bilinear_output(*pairs[0], form)
        amps, mass = first.amps.copy(), first.truncated_mass
        later = [bilinear_output(*pair, form) for pair in pairs[1:]]
        assert all(out.layout is first.layout for out in later)  # one plan, one output layout
        assert not np.array_equal(later[0].amps, amps)
        assert np.array_equal(first.amps, amps) and first.truncated_mass == mass

    def test_key_separates_what_the_plan_depends_on(self):
        # the base pair, then one variant per part of the key; each gets its own plan, and
        # every convolution matches the pairwise oracle
        base = ModelParams(j=2, kmax=4.0)
        lay_u = {1: [(0, 3), (10, 5)], -2: [(4, 2)], 3: [(-7, 6), (0, 1)]}
        lay_v = {2: [(1, 4), (20, 2)], -1: [(0, 5)], -3: [(3, 3), (9, 1)]}
        moved = {**lay_v, -3: [(4, 3), (9, 1)]}  # the same seg_n, one m0 moved
        resized = {**lay_v, -3: [(3, 2), (9, 1)]}  # the same seg_n and m0, other offsets
        cases = [  # (params, dtau, tau0 of v, layout of v)
            (base, 0.25, 0.125, lay_v), (base, 0.25, 0.25, lay_v), (base, 0.125, 0.125, lay_v),
            (ModelParams(j=3, kmax=4.0), 0.25, 0.125, lay_v),
            (ModelParams(j=2, lam=2.0, kmax=2.0), 0.25, 0.125, lay_v),
            (base, 0.25, 0.125, moved), (base, 0.25, 0.125, resized)]
        bourgain._CACHE.clear()
        layouts = []
        for params, dtau, tau0, lay in cases:
            rng = np.random.default_rng(37)
            u = segmented_spectrum(params, rng, lay_u, dtau=dtau)
            v = segmented_spectrum(params, rng, lay, dtau=dtau, tau0=tau0)
            out = assert_matches_pairwise(u, v)
            assert bourgain._CACHE["plan", u.layout.key, v.layout.key][-1] is out.layout
            layouts.append(out.layout)
        assert len(set(map(id, layouts))) == len(cases)
        assert sum(key[0] == "plan" for key in bourgain._CACHE) == len(cases)

    def test_equal_tables_share_one_layout(self):
        p = ModelParams(j=4, lam=2.0, kmax=1024.0)  # seg_m0 of Python ints, keyed by value
        spec = SpatialSpectrum.from_modes(p, {1024.0: 1.0, -1023.5: 2j, 0.5: 1.0})
        u = from_characteristic(spec)
        assert u.seg_m0.dtype == object
        assert from_characteristic(spec.__class__(p, 3.0 * spec.amps)).layout is u.layout
        assert u.scaled(2.0).layout is u.layout
        assert from_characteristic(spec, dtau=0.125).layout is not u.layout
        assert from_characteristic(spec, sigma_halfwidth=1.0).layout is not u.layout

    def test_cache_keeps_its_size(self, params8):
        spec = hermitian_spectrum(params8, seed=5)
        oldest = from_characteristic(spec, dtau=1.0).layout
        for i in range(1, 2 * bourgain._CACHE_SIZE + 3):
            u = from_characteristic(spec, dtau=1.0 / (i + 1))
            assert len(bourgain._CACHE) <= bourgain._CACHE_SIZE
        assert len(bourgain._CACHE) == bourgain._CACHE_SIZE
        assert from_characteristic(spec, dtau=1.0 / (i + 1)).layout is u.layout  # still kept
        assert from_characteristic(spec, dtau=1.0).layout is not oldest  # evicted, rebuilt


# Recorded before layouts and plans were cached: the outputs must stay equal bit for bit
GOLDEN_RATIOS = {
    (2, 1.0, 16.0, -0.25): {
        "dxdx_smoothed": [0.000764291574154106, 0.0010960090078374891, 0.0007445744119965961],
        "product_dx": [0.000611818347932764, 0.0011466453078505933, 0.0005358149966027416],
        "product_smoothed": [0.00020391920410115747, 0.0002690282067973173,
                             0.00019273174368208875]},
    (3, 2.0, 8.0, -1.0): {
        "dxdx_smoothed": [4.82660434861402e-05, 0.00013696894360907378, 7.751724641916771e-05],
        "product_dx": [0.00013769714437525916, 0.0006602650192723186, 0.0001842489281347334],
        "product_smoothed": [8.805614257809196e-05, 0.0003484542223975461,
                             0.00012767024040039762]},
}


def digest(*arrays):
    """sha256 prefix of the arrays' bytes; an object array's by the repr of its ints."""
    h = hashlib.sha256()
    for a in map(np.asarray, arrays):
        h.update(repr(a.tolist()).encode() if a.dtype == object else a.tobytes())
    return h.hexdigest()[:32]


class TestPlanParity:
    @pytest.fixture(params=["cold", "warm"])
    def cache(self, request):
        bourgain._CACHE.clear()
        if request.param == "warm":
            self.run_all()
        return request.param

    def run_all(self):
        for (j, lam, kmax, s), forms in GOLDEN_RATIOS.items():
            for form, want in forms.items():
                got = batch_bilinear_probe(ModelParams(j=j, lam=lam, kmax=kmax), s, form, 3, 7)
                assert got["ratios"] == want
        out = bilinear_output(*build_counterexample(16, 2), "F")
        assert digest(out.amps) == "ea5e379b13f6ef7c16e959ee7a81b73b"
        assert digest(out.seg_n, out.seg_m0, out.offsets) == "34b8657a46b36c608603273af31dfb26"
        assert out.truncated_mass == 0.0 and out.n_cells() == 124
        p = ModelParams(j=4, lam=2.0, kmax=1024.0)
        u = from_characteristic(SpatialSpectrum.from_modes(p, {1024.0: 1.0, 1023.5: 0.5j,
                                                               0.5: 2.0}))
        v = from_characteristic(SpatialSpectrum.from_modes(p, {-1023.5: 1.0, 1.0: -1.0,
                                                               600.0: 0.25}))
        assert u.seg_m0.dtype == v.seg_m0.dtype == object
        assert (zs_norm(u, -2.0), zs_norm(v, -2.0)) == (7.944949881227255, 3.1222279418496255)
        for form, amps, mass, zs in (
                ("F", "a19bfe102fe64d627a0b8dfaea52ea6e", 3.180085778189108, 0.4319630782296253),
                ("dxdx_smoothed", "1c05d4eab3a3230bd93c55a3ffda9fa1", 1395346.802370395,
                 0.09093958855586845)):
            out = bilinear_output(u, v, form)
            assert out.seg_m0.dtype == object and out.n_cells() == 132
            assert digest(out.seg_n, out.seg_m0, out.offsets) == "bcc3c20d3b4c964b1188b95117c32c25"
            assert digest(out.amps) == amps
            assert out.truncated_mass == mass and zs_norm(out, -2.0) == zs

    def test_outputs_equal_the_recorded_ones(self, cache):
        self.run_all()


class TestBilinearProbe:
    def test_zero_input_reported(self, params8):
        u = SpaceTimeSpectrum(params8, 0.25)
        v = random_spectrum(params8, np.random.default_rng(13))
        rep = bilinear_probe(u, v, -0.25, "product_dx")
        assert rep["ratio"] is None and rep["reason"] == "empty input"

    def test_probe_ratio_positive_finite(self, params8):
        rng = np.random.default_rng(14)
        u = random_spectrum(params8, rng)
        v = random_spectrum(params8, rng)
        for form in ("dxdx_smoothed", "product_dx", "product_smoothed"):
            rep = bilinear_probe(u, v, -0.25, form)
            assert 0 < rep["ratio"] < math.inf

    def test_batch_deterministic_and_stable_under_growth(self):
        # the empirical boundedness reflection: max ratio must not inflate
        # as the lattice doubles
        s, form, seed = -0.25, "dxdx_smoothed", 99
        reps = {}
        for kmax in (16.0, 32.0):
            p = ModelParams(j=2, kmax=kmax)
            reps[kmax] = batch_bilinear_probe(p, s, form, count=6, seed=seed)
        again = batch_bilinear_probe(ModelParams(j=2, kmax=16.0), s, form, count=6, seed=seed)
        assert reps[16.0]["ratios"] == again["ratios"]
        assert reps[32.0]["max_ratio"] < 2.0 * reps[16.0]["max_ratio"]

    # ratios of the per-pair np.convolve engine this one replaced (seed 99, kmax 16)
    PINNED_RATIOS = {
        "dxdx_smoothed": [0.0006201279591744804, 0.0008275585960507019,
                          0.0009616491647401334, 0.000728043241517127],
        "product_dx": [0.00039191566011284324, 0.000682791975534966,
                       0.000893820705169819, 0.0006159255897203829],
        "product_smoothed": [0.00013844635824789676, 0.00020985183980143,
                             0.00028922702983803523, 0.00022367440423117163],
    }

    @pytest.mark.parametrize("form", sorted(PINNED_RATIOS))
    def test_batch_ratios_pinned(self, form):
        rep = batch_bilinear_probe(ModelParams(j=2, kmax=16.0), -0.25, form, count=4, seed=99)
        assert rep["ratios"] == pytest.approx(self.PINNED_RATIOS[form], rel=1e-12, abs=0)

    def test_batch_runs_in_one_worker_only(self, params8):
        with pytest.raises(ValueError, match="workers"):
            batch_bilinear_probe(params8, -0.25, "product_dx", count=2, seed=1, workers=2)

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_batch_non_finite_s_rejected(self, params8, s):
        with pytest.raises(ValueError, match="s must be finite"):
            batch_bilinear_probe(params8, s, "product_dx", count=1, seed=1)

    def test_bad_form_rejected(self, params8):
        u = random_spectrum(params8, np.random.default_rng(15))
        with pytest.raises(ValueError, match="form"):
            bilinear_output(u, u, "cubic")


class TestEmbeddingScans:
    def test_in_window_passes_with_stable_maxima(self):
        p = ModelParams(j=2, kmax=4.0)
        rep = verify_embeddings(-0.25, p, kbound=128.0, doublings=1)
        assert rep["pass"] and rep["in_window"]
        for e in rep["entries"]:
            assert math.isfinite(e["max_ratio"])
            assert e["trend"][1] <= e["trend"][0] * (1 + 1e-9)

    def test_outside_window_rejected_with_window(self):
        p = ModelParams(j=2, kmax=4.0)
        with pytest.raises(ValueError, match="window"):
            verify_embeddings(-2.0, p)

    def test_outside_window_scan_fails_with_growth(self):
        p = ModelParams(j=2, kmax=4.0)
        rep = verify_embeddings(-2.0, p, kbound=128.0, doublings=1,
                                allow_outside_window=True)
        assert not rep["pass"]
        d2 = [e for e in rep["entries"] if e["region"] == "D2" and not e["pass"]]
        assert d2, "the D2 dominance must be the one that degrades"
        assert d2[0]["trend"][1] > d2[0]["trend"][0]

    @pytest.mark.parametrize("s, passes", [(0.5, True), (-2.0, False), (0.9, False)])
    def test_outside_window_verdicts(self, s, passes):
        # above the window a scan can PASS; that only says the dominances hold on the box
        rep = verify_embeddings(s, ModelParams(j=2), kbound=32.0, allow_outside_window=True)
        assert rep["pass"] is passes and rep["in_window"] is False

    @pytest.mark.parametrize("kbound", [-5.0, 0.0, 0.2, math.inf, math.nan])
    def test_box_without_a_lattice_k_rejected(self, kbound):
        # at lam = 4 the first lattice k is 1/4; 0.2 once scanned k = 1/4 outside the box
        with pytest.raises(ValueError, match="kbound"):
            verify_embeddings(-0.25, ModelParams(j=2, lam=4.0, kmax=8.0), kbound=kbound)

    @pytest.mark.parametrize("doublings", [-1, 1.5])
    def test_bad_doublings_rejected(self, doublings):
        with pytest.raises(ValueError, match="doublings"):
            verify_embeddings(-0.25, ModelParams(j=2), kbound=8.0, doublings=doublings)

    def test_certify_box_record(self):
        # `dcl verify embeddings --s -0.25` at its defaults, recorded when each range
        # end became the last float of its region
        rep = verify_embeddings(-0.25, ModelParams(j=2), kbound=256.0)
        got = {(e["region"], e["inequality"]): (e["trend"], e["argmax"])
               for e in rep["entries"]}
        assert rep["kbounds"] == [256.0, 512.0] and rep["pass"]
        assert got == {
            ("D1D5", "lower"): ([1.0, 1.0], {"k": 1.0, "sigma": 0.0}),
            ("D2", "lower"): ([0.0746201277901543, 0.0746201277901543],
                              {"k": 2.0, "sigma": 3.333333333333333}),
            ("D3D4", "lower"): ([1.0435696410742752, 1.0435696410742752],
                                {"k": 1.0, "sigma": 0.10416666666666669}),
            ("D1D5", "upper"): ([1.0, 1.0], {"k": 1.0, "sigma": 0.0}),
            ("D2", "upper"): ([12.862393885688164, 12.862393885688164],
                              {"k": 2.0, "sigma": 1.666666666666667}),
            ("D3D4", "upper"): ([0.9556674851659158, 0.9556674851659158],
                                {"k": 1.0, "sigma": 0.10416666666666669}),
            ("D1", "half"): ([1.0, 1.0], {"k": 1.0, "sigma": 0.0}),
            ("D2", "half"): ([0.11485185479824968, 0.11485185479824968],
                             {"k": 4.0, "sigma": 106.66666666666666}),
        }

    def test_window_formula(self):
        p = ModelParams(j=3, kmax=4.0)
        lo, hi = admissible_window(p)
        assert lo == pytest.approx(-1.5 + 3 * p.epsilon)
        assert hi == pytest.approx(-0.5 - 3 * p.epsilon)

    def test_scan_csv_format(self):
        p = ModelParams(j=2, kmax=4.0)
        text = scan_csv(-0.25, p, kbound=4.0, n_sigma=4)
        lines = text.splitlines()
        assert lines[0] == "k,sigma,region,ratio"
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_scan_csv_columns_are_plain_numbers(self):
        p = ModelParams(j=3, lam=2.0, kmax=8.0)
        lines = scan_csv(-1.0, p, kbound=8.0).splitlines()
        assert lines[0] == "k,sigma,region,ratio"
        regions = set()
        for line in lines[1:]:
            k, sv, region, ratio = line.split(",")
            for cell in (k, sv, ratio):
                float(cell)
            regions.add(region)
        assert regions == {"D1", "D2", "D3", "D4", "D5"}


# -- per-(k, region) loop oracle for the embedding scans ------------------------------

_ORACLE_GROUPS = {"D1D5": ("D1", "D5"), "D2": ("D2",), "D3D4": ("D3", "D4"), "D1": ("D1",)}


def _oracle_ranges(k, j, sigma_cap):
    a, b = region_thresholds(abs(k), j)
    if abs(k) >= 1.0:
        return {"D1": (0.0, a), "D2": (a, b), "D3": (b, max(sigma_cap, 2 * b))}
    return {"D5": (0.0, b), "D4": (b, max(sigma_cap, 2 * b))}


def _oracle_top(params, kbound):
    """The largest lattice index n with n/lam <= kbound (up to a 1e-9 slack in n)."""
    return math.floor(kbound * params.lam + 1e-9)


def _oracle_box(params, kbound):
    """The lattice of params reaching kbound: ends beyond kmax are classified as inside."""
    return ModelParams(j=params.j, lam=params.lam, kmax=_oracle_top(params, kbound) / params.lam)


def _oracle_closed(k, lo, hi, region, box):
    """The range's float thresholds stepped in by math.nextafter until region_codes puts them
    in the region: each end is then the region's last float on its side (lo > hi if none)."""
    label = RegionLabel(region)
    while lo <= hi and REGION_LABELS[region_codes(k, lo, box)] is not label:
        lo = math.nextafter(lo, math.inf)
    while lo <= hi and REGION_LABELS[region_codes(k, hi, box)] is not label:
        hi = math.nextafter(hi, -math.inf)
    return lo, hi


def _oracle_ratio(k, sv, alpha, beta):
    """<k>^alpha <sigma>^beta by scalar libm pow."""
    return math.pow(float(bracket(k)), alpha) * math.pow(float(bracket(sv)), beta)


def _oracle_scan_max(alpha, beta, group, params, kbound, n_sigma=48):
    """Loop over (k, region); the strict > keeps the first k, np.unique the smallest sigma."""
    j = params.j
    sigma_cap = 4.0 * region_thresholds(kbound, j)[1]
    box = _oracle_box(params, kbound)
    best, arg = -math.inf, None
    for n in range(1, _oracle_top(params, kbound) + 1):
        k = n / params.lam
        for region, (lo, hi) in _oracle_ranges(k, j, sigma_cap).items():
            if region not in _ORACLE_GROUPS[group]:
                continue
            lo_in, hi_in = _oracle_closed(k, lo, hi, region, box)
            if hi_in < lo_in:
                continue
            base = max(lo_in, 1e-6)
            sig = np.unique(np.concatenate([
                [lo_in, hi_in],
                np.geomspace(base, hi_in, n_sigma) if hi_in > base else [],
                np.linspace(lo_in, min(hi_in, 4.0), 8),
            ]))
            sig = sig[(sig >= lo_in) & (sig <= hi_in)]
            vals = np.array([_oracle_ratio(k, sv, alpha, beta) for sv in sig])
            i = int(np.argmax(vals))
            if vals[i] > best:
                best, arg = float(vals[i]), (k, float(sig[i]))
    return best, arg


def _oracle_scan_csv(s, params, kbound, n_sigma=16):
    scans = _embedding_scans(s, params.j)
    rows = ["k,sigma,region,ratio"]
    cap = 4.0 * region_thresholds(kbound, params.j)[1]
    box = _oracle_box(params, kbound)
    for n in range(1, _oracle_top(params, kbound) + 1):
        k = n / params.lam
        for region, (lo, hi) in _oracle_ranges(k, params.j, cap).items():
            group = next(g for g, members in _ORACLE_GROUPS.items()
                         if region in members and (g, "lower") in scans)
            alpha, beta = scans[(group, "lower")]
            lo, hi = _oracle_closed(k, lo, hi, region, box)
            if hi < lo:
                continue
            for sv in np.geomspace(max(lo, min(1e-6, hi / 2)), hi, n_sigma):
                ratio = _oracle_ratio(k, sv, alpha, beta)
                rows.append(f"{k!r},{float(sv)!r},{region},{ratio!r}")
    return "\n".join(rows) + "\n"


# (j, lam, s): in the window, below it, and above it
_SCAN_CASES = [(j, lam, s) for j in (2, 3, 4) for lam in (1.0, 2.0, 4.0)
               for s in (sum(admissible_window(ModelParams(j=j))) / 2, -2.5, 0.5)]


class TestEmbeddingScanOracle:
    @pytest.mark.parametrize("kbound", [12.0, 48.0])
    @pytest.mark.parametrize("j, lam, s", _SCAN_CASES)
    def test_reports_equal_the_per_k_loop(self, j, lam, s, kbound):
        p = ModelParams(j=j, lam=lam, kmax=8.0)
        rep = verify_embeddings(s, p, kbound=kbound, doublings=1, allow_outside_window=True)
        for entry, ((group, ineq), (alpha, beta)) in zip(
                rep["entries"], _embedding_scans(s, j).items()):
            got = [_oracle_scan_max(alpha, beta, group, p, b) for b in rep["kbounds"]]
            assert (entry["region"], entry["inequality"]) == (group, ineq)
            assert entry["trend"] == [mx for mx, _ in got]
            k, sv = got[-1][1]
            assert entry["argmax"] == {"k": k, "sigma": sv}

    @pytest.mark.parametrize("kbound", [12.0, 48.0])
    @pytest.mark.parametrize("j, lam, s", _SCAN_CASES)
    def test_report_equals_its_csv(self, j, lam, s, kbound):
        # a "lower" maximum read at a CSV row is that row's ratio, bit for bit
        p = ModelParams(j=j, lam=lam, kmax=8.0)
        rep = verify_embeddings(s, p, kbound=kbound, allow_outside_window=True)
        rows = {}
        for line in scan_csv(s, p, kbound).splitlines()[1:]:
            k, sv, _, ratio = line.split(",")
            rows[(float(k), float(sv))] = float(ratio)
        for e in rep["entries"]:
            if e["inequality"] == "lower" and e["argmax"]:
                point = (e["argmax"]["k"], e["argmax"]["sigma"])
                if point in rows:
                    assert e["max_ratio"] == rows[point], (e["region"], point)

    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
    def test_flat_ratio_ties_go_to_the_first_k_and_smallest_sigma(self, lam):
        # D1D5 "upper" divides a weight by itself: beta = 0, every cell ties at 1
        rep = verify_embeddings(-0.25, ModelParams(j=2, lam=lam, kmax=8.0), kbound=8.0)
        entry = rep["entries"][3]
        assert (entry["region"], entry["inequality"]) == ("D1D5", "upper")
        assert entry["trend"] == [1.0, 1.0]
        assert entry["argmax"] == {"k": 1.0 / lam, "sigma": 0.0}

    def test_box_without_group_cells(self):
        # below |k| = 1 there are no D1, D2 or D3 cells
        rep = verify_embeddings(-0.25, ModelParams(j=2, lam=4.0, kmax=8.0), kbound=0.25,
                                doublings=0)
        by_key = {(e["region"], e["inequality"]): e for e in rep["entries"]}
        assert by_key[("D2", "lower")]["trend"] == [-math.inf]
        assert by_key[("D2", "lower")]["argmax"] is None
        assert by_key[("D1D5", "lower")]["argmax"]["k"] == 0.25
        assert not rep["pass"]

    @pytest.mark.parametrize("j", [2, 3])
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_range_ends_lie_in_their_region(self, j, lam):
        # the scans read only these ends, and each range is maximal: the float beyond an
        # end (but 0 and the D3+D4 cap) lies in another region; (k = 1, sigma = c_j) is a
        # D1 point, D2's range is empty at |k| <= 1, and the boxes reach past kmax
        p = ModelParams(j=j, lam=lam, kmax=8.0)
        codes = {"D1D5": (1, 5), "D2": (2, 2), "D3D4": (3, 4)}  # at k >= 1, below
        for kbound in (8.0, 16.0):
            ks, terms = _term_ranges(p, kbound)
            box = ModelParams(j=j, lam=lam, kmax=kbound)
            for group, (lo, hi) in terms.items():
                rows = lo <= hi
                if group == "D2":
                    assert (rows == (ks > 1.0)).all()
                code = np.where(ks >= 1.0, *codes[group])[rows]
                k, lo, hi = ks[rows], lo[rows], hi[rows]
                for end in (lo, hi):
                    assert (region_codes(k, end, box) == code).all(), group
                beyond = region_codes(k, np.nextafter(lo, -np.inf), box)
                assert (beyond != code)[lo > 0].all(), group
                if group != "D3D4":
                    assert (region_codes(k, np.nextafter(hi, np.inf), box) != code).all(), group

    @pytest.mark.parametrize("j, lam, s", [(2, 1.0, -0.25), (3, 2.0, -1.0), (4, 4.0, -1.5),
                                           (2, 4.0, 0.5)])
    def test_csv_equals_the_per_cell_loop(self, j, lam, s):
        p = ModelParams(j=j, lam=lam, kmax=8.0)
        assert scan_csv(s, p, kbound=12.0) == _oracle_scan_csv(s, p, kbound=12.0)

    @pytest.mark.parametrize("lam, ks", [(1.0, [1.0, 2.0]), (2.0, [0.5, 1.0, 1.5, 2.0, 2.5])])
    def test_box_stops_at_kbound(self, lam, ks):
        # 2.6 * lam is no lattice index; the box must not round up past kbound
        p = ModelParams(j=2, lam=lam, kmax=8.0)
        assert lattice.lattice_ks(2.6, lam).tolist() == ks
        text = scan_csv(-0.25, p, kbound=2.6)
        assert text == _oracle_scan_csv(-0.25, p, kbound=2.6)
        assert {float(line.split(",")[0]) for line in text.splitlines()[1:]} == set(ks)
        rep = verify_embeddings(-0.25, p, kbound=2.6, doublings=0)
        got = {(e["region"], e["inequality"]): e["trend"][0] for e in rep["entries"]}
        for (group, inequality), (alpha, beta) in _embedding_scans(-0.25, p.j).items():
            assert got[(group, inequality)] == _oracle_scan_max(alpha, beta, group, p, 2.6)[0]

    @pytest.mark.parametrize("j", [2, 3, 4])
    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
    def test_csv_rows_lie_in_their_region(self, j, lam):
        # open ends, the empty D2 range and D3's lower end at |k| = 1 are not
        # rows of their region; at j = 4, lam = 4 the D5 range at k = 1/4 ends
        # below 1e-6
        p = ModelParams(j=j, lam=lam, kmax=8.0)
        lines = scan_csv(-0.25, p, kbound=4.0).splitlines()[1:]
        assert lines
        for line in lines:
            k, sv, region, _ = line.split(",")
            assert REGION_LABELS[region_codes(float(k), float(sv), p)].value == region, line
