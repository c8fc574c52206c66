"""Region decomposition, restriction norms, convolution oracle, scans, probes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcl import lattice
from dcl.bourgain import (
    REGION_LABELS,
    _characteristic,
    _embedding_scans,
    _lift_halves,
    _region_sigma_ranges,
    _zs_bounds,
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


class TestBatchedConvolution:
    @pytest.mark.parametrize("case", sorted(_CONV_CASES))
    @pytest.mark.parametrize("derivative", [False, True])
    def test_matches_the_pairwise_loop(self, case, derivative):
        params, lay_u, lay_v = _CONV_CASES[case]
        rng = np.random.default_rng(31)
        u = segmented_spectrum(params, rng, lay_u)
        v = segmented_spectrum(params, rng, lay_v, tau0=0.125)
        pre = (lambda k: 1j * k) if derivative else None
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
    return SpaceTimeSpectrum._from_layout(u.params, u.dtau, u.tau0, u.seg_n, u.seg_m0,
                                          u.offsets, u.amps)


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
        _, _, band, sig = u._norm_cells
        b0, b1 = (b[band] for b in _zs_bounds(u._band_k, u.params.j))
        term = (np.abs(sig) >= b0).astype(int) + (np.abs(sig) >= b1)
        codes = region_codes(u._band_k[band], np.abs(sig), u.params)
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
                        assert u._sigma[width] == sig
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
        assert np.unique(u._sigma).size < u.n_cells()
        self.check(u)


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
        # `dcl verify embeddings --s -0.25` at its defaults, as recorded before the
        # scans read one end per k instead of a 58-point sigma grid
        rep = verify_embeddings(-0.25, ModelParams(j=2), kbound=256.0)
        got = {(e["region"], e["inequality"]): (e["trend"], e["argmax"])
               for e in rep["entries"]}
        assert rep["kbounds"] == [256.0, 512.0] and rep["pass"]
        assert got == {
            ("D1D5", "lower"): ([1.0, 1.0], {"k": 1.0, "sigma": 0.0}),
            ("D2", "lower"): ([0.07462012775592489, 0.07462012775592489],
                              {"k": 2.0, "sigma": 3.3333333300000003}),
            ("D3D4", "lower"): ([1.043569641072875, 1.043569641072875],
                                {"k": 1.0, "sigma": 0.10416666677083335}),
            ("D1D5", "upper"): ([1.0, 1.0], {"k": 1.0, "sigma": 0.0}),
            ("D2", "upper"): ([12.86239387623052, 12.86239387623052],
                              {"k": 2.0, "sigma": 1.6666666683333335}),
            ("D3D4", "upper"): ([0.955667485162069, 0.955667485162069],
                                {"k": 1.0, "sigma": 0.10416666677083335}),
            ("D1", "half"): ([1.0, 1.0], {"k": 1.0, "sigma": 0.0}),
            ("D2", "half"): ([0.11485185471211838, 0.11485185471211838],
                             {"k": 4.0, "sigma": 106.66666656000001}),
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
    """The range's ends, each pulled in by 1e-9 when region_codes puts it in another region."""
    label = RegionLabel(region)
    if REGION_LABELS[region_codes(k, lo, box)] is not label:
        lo *= 1 + 1e-9
    if REGION_LABELS[region_codes(k, hi, box)] is not label:
        hi *= 1 - 1e-9
    return lo, hi


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
            if hi_in <= lo_in:
                continue
            base = max(lo_in, 1e-6)
            sig = np.unique(np.concatenate([
                [lo_in, hi_in],
                np.geomspace(base, hi_in, n_sigma) if hi_in > base else [],
                np.linspace(lo_in, min(hi_in, 4.0), 8),
            ]))
            sig = sig[(sig >= lo_in) & (sig <= hi_in)]
            vals = bracket(k) ** alpha * bracket(sig) ** beta
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
            if hi <= lo:
                continue
            for sv in np.geomspace(max(lo, min(1e-6, hi / 2)), hi, n_sigma):
                ratio = float(bracket(k) ** alpha * bracket(sv) ** beta)
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
        # the scans read only these ends; (k = 1, sigma = c_j) ends D3's range but is
        # a D1 point, and D2's range at |k| = 1 is empty; boxes past kmax too
        p = ModelParams(j=j, lam=lam, kmax=8.0)
        for kbound in (8.0, 16.0):
            ks, ranges = _region_sigma_ranges(p, kbound)
            box = ModelParams(j=j, lam=lam, kmax=kbound)
            for region, (lo, hi) in ranges.items():
                rows = hi > lo
                if lam == 1.0 and region in ("D4", "D5"):
                    continue  # no k below 1
                code = REGION_LABELS.index(RegionLabel(region))
                assert rows.any(), region
                for end in (lo, hi):
                    assert (region_codes(ks[rows], end[rows], box) == code).all(), region

    @pytest.mark.parametrize("j, lam, s", [(2, 1.0, -0.25), (3, 2.0, -1.0), (4, 4.0, -1.5),
                                           (2, 4.0, 0.5)])
    def test_csv_equals_the_per_cell_loop(self, j, lam, s):
        p = ModelParams(j=j, lam=lam, kmax=8.0)
        assert scan_csv(s, p, kbound=12.0) == _oracle_scan_csv(s, p, kbound=12.0)

    @pytest.mark.parametrize("lam, ks", [(1.0, [1.0, 2.0]), (2.0, [0.5, 1.0, 1.5, 2.0, 2.5])])
    def test_box_stops_at_kbound(self, lam, ks):
        # 2.6 * lam is no lattice index; the box must not round up past kbound
        p = ModelParams(j=2, lam=lam, kmax=8.0)
        assert _region_sigma_ranges(p, 2.6)[0].tolist() == ks
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
