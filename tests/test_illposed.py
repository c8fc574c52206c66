"""The two-mode slab family and its scaling collision."""

import math

import numpy as np
import pytest

from dcl.bourgain import (BILINEAR_FORMS, SpaceTimeSpectrum, _characteristic, bilinear_output,
                          random_spectrum, ws_norm)
from dcl.illposed import (
    CollisionReport,
    CounterexampleConfig,
    build_counterexample,
    collision_scan,
    duhamel_weighted_bilinear,
)
from dcl.lattice import ModelParams, bracket
from dcl.symbols import dispersion_symbol

from test_bourgain import hermitian_by_cells


def brute_duhamel(u1, u2, s):
    """Enumerate the four support pairings directly and take the composite norm."""
    p = u1.params
    j = p.j
    dtau = u1.dtau
    tau0 = u1.tau0 + u2.tau0
    out = {}
    cells1 = [(n, m0 + i, a) for n, m0, arr, _ in u1.cells() for i, a in enumerate(arr)]
    cells2 = [(n, m0 + i, a) for n, m0, arr, _ in u2.cells() for i, a in enumerate(arr)]
    for n1, m1, a1 in cells1:
        for n2, m2, a2 in cells2:
            n = n1 + n2
            if n == 0 or abs(n) > p.nmax:
                continue
            mult = 0.5j * n + (1j * n / (1 + n * n)) * (1 + 0.5 * (1j * n1) * (1j * n2))
            key = (n, m1 + m2)
            out[key] = out.get(key, 0j) + a1 * a2 * mult * dtau
    xsb2 = 0.0
    l1 = {}
    for (n, m), a in out.items():
        sig = (tau0 + m * dtau) - dispersion_symbol(n, j)
        val = a / bracket(sig)
        xsb2 += bracket(n) ** (2 * s) * bracket(sig) * abs(val) ** 2 * dtau
        l1[n] = l1.get(n, 0.0) + abs(val) * dtau
    ys2 = sum(bracket(n) ** (2 * s) * v**2 for n, v in l1.items())
    return math.sqrt(xsb2) + math.sqrt(ys2)


class TestBuildCounterexample:
    def test_supports(self):
        u1, u2 = build_counterexample(2, 2)
        assert sorted(u1.bands) == [-2, 2]
        assert sorted(u2.bands) == [-1, 1]

    @pytest.mark.parametrize("j", [2, 3, 4])
    def test_slabs_equal_the_constructor_route(self, j):
        # each slab's layout is written down in closed form; the general constructor, which
        # sorts, merges and places the same two segments, must give the same spectrum bit for bit
        for N in CounterexampleConfig(j=j, s=0.0).N_list:
            params = ModelParams(j=j, lam=1.0, kmax=float(2 * N))
            index = _characteristic(params, 0.125)[0]
            for mode, u in zip((N, N - 1), build_counterexample(N, j)):
                want = SpaceTimeSpectrum(params, 0.125, 0.0625, {
                    n: [(index[n + params.nmax] - 8, np.ones(16))] for n in (mode, -mode)})
                assert u.seg_m0.dtype == want.seg_m0.dtype
                assert (u.seg_n.tolist(), u.seg_m0.tolist(), u.offsets.tolist()) == (
                    want.seg_n.tolist(), want.seg_m0.tolist(), want.offsets.tolist())
                assert u.layout.key == want.layout.key and u.tau0 == want.tau0
                assert np.array_equal(u.amps, want.amps) and u.amps.dtype == want.amps.dtype
                assert ws_norm(u, -0.25) == ws_norm(want, -0.25)

    def test_unit_amplitudes_on_slab(self):
        u1, _ = build_counterexample(4, 2, dtau=0.125)
        for n, m0, arr, sig in u1.cells():
            assert np.all(arr == 1.0)
            assert len(arr) == 16  # tiles [-1, 1] at dtau = 1/8
            assert np.abs(sig).max() <= 1.0

    def test_hermitian_symmetry(self):
        for N in (2, 5):
            u1, u2 = build_counterexample(N, 2)
            assert hermitian_by_cells(u1) and hermitian_by_cells(u2)

    def test_slab_narrower_than_dtau_rejected(self):
        with pytest.raises(ValueError, match="narrower"):
            build_counterexample(4, 2, dtau=4.0)
        with pytest.raises(ValueError):
            build_counterexample(1, 2)

    @pytest.mark.parametrize("dtau", [0.0, -0.5, math.nan, math.inf, 1e-310])
    def test_dtau_not_finite_and_positive_rejected(self, dtau):
        with pytest.raises(ValueError, match="dtau must be finite and positive"):
            build_counterexample(4, 2, dtau=dtau)

    def test_ws_scaling_slope(self):
        s, j = -0.25, 2
        Ns = (16, 32, 64, 128, 256)
        logs = [math.log(ws_norm(build_counterexample(N, j)[0], s)) for N in Ns]
        slope = np.polyfit(np.log(Ns), logs, 1)[0]
        assert slope == pytest.approx(s, abs=0.05)


class TestDuhamelWeighted:
    def test_zero_like_empty_interaction(self, params8):
        from dcl.bourgain import SpaceTimeSpectrum

        empty = SpaceTimeSpectrum(params8, 0.125)
        with pytest.warns(UserWarning, match="do not interact"):
            val = duhamel_weighted_bilinear(empty, empty, -0.25)
        assert val == 0.0

    def test_desk_scale_oracle(self):
        for j, s in ((2, -0.25), (3, -1.0)):
            u1, u2 = build_counterexample(4, j)
            got = duhamel_weighted_bilinear(u1, u2, s)
            want = brute_duhamel(u1, u2, s)
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("j", [2, 3])
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_is_the_sum_of_the_lemma_forms(self, j, lam):
        # with mu = 1, F = (1/2) d_x(uv) + d_x(1-d_x^2)^(-1) [uv + (1/2) u_x v_x]
        p = ModelParams(j=j, lam=lam, kmax=6.0)
        rng = np.random.default_rng(10 * j + int(lam))
        u, v = random_spectrum(p, rng), random_spectrum(p, rng)
        forms = {f: bilinear_output(u, v, f) for f in BILINEAR_FORMS}
        total = (forms["product_dx"].scaled(0.5) + forms["product_smoothed"]
                 + forms["dxdx_smoothed"].scaled(0.5))
        for s in (-0.25, 0.25):
            want = ws_norm(total, s)
            assert duhamel_weighted_bilinear(u, v, s) == pytest.approx(want, rel=1e-13)

    def test_growth_slope_matches_two_minus_j(self):
        for j, s, want in ((2, -0.25, 0.0), (3, -1.0, -1.0)):
            Ns = (16, 32, 64, 128, 256)
            logs = []
            for N in Ns:
                u1, u2 = build_counterexample(N, j)
                logs.append(math.log(duhamel_weighted_bilinear(u1, u2, s)))
            slope = np.polyfit(np.log(Ns), logs, 1)[0]
            assert slope == pytest.approx(want, abs=0.1)


class TestCollisionScan:
    def test_breaks_below_critical(self):
        rep = collision_scan(CounterexampleConfig(j=2, s=-0.25, N_list=(16, 32, 64, 128)))
        assert rep.verdict == "BREAKS"
        assert rep.slope_L == pytest.approx(0.0, abs=0.1)
        assert rep.slope_R == pytest.approx(-0.5, abs=0.1)

    def test_holds_above_critical(self):
        rep = collision_scan(CounterexampleConfig(j=2, s=0.25, N_list=(16, 32, 64, 128)))
        assert rep.verdict == "HOLDS-AT-THIS-PROBE"

    def test_inconclusive_band_near_critical(self):
        rep = collision_scan(CounterexampleConfig(j=2, s=0.01, N_list=(16, 32, 64)))
        assert rep.verdict == "INCONCLUSIVE"

    def test_inconclusive_band_around_the_reported_critical_index(self):
        rep = collision_scan(CounterexampleConfig(j=3, s=-0.47, N_list=(16, 32, 64)))
        assert rep.critical_s == rep.to_dict()["critical_s"] == -0.5
        assert rep.verdict == "INCONCLUSIVE"

    def test_band_edge_decided_exactly(self):
        # |s - (1 - j/2)| is 0.050000000000000044 in floats at j = 3, s = -0.55 and at
        # j = 4, s = -0.95 and -1.05; on the shortest decimals it is 1/20, as at j = 2, s = 0.05
        def verdict(j, s, N_list=(16, 32, 64)):
            return collision_scan(CounterexampleConfig(j=j, s=s, N_list=N_list)).verdict

        for j, s in ((2, 0.05), (2, -0.05), (3, -0.55), (4, -0.95), (4, -1.05)):
            assert verdict(j, s) == "INCONCLUSIVE", (j, s)
        for j in (2, 3, 4):
            crit = 1.0 - j / 2.0
            assert verdict(j, crit - 0.050001) == "BREAKS", j
            assert verdict(j, crit + 0.050001) == "HOLDS-AT-THIS-PROBE", j
        # certify's scans, at the default N list
        assert verdict(2, -0.25, CounterexampleConfig.N_list) == "BREAKS"
        assert verdict(2, 0.25, CounterexampleConfig.N_list) == "HOLDS-AT-THIS-PROBE"

    def test_j3_breaks(self):
        rep = collision_scan(CounterexampleConfig(j=3, s=-1.0, N_list=(16, 32, 64)))
        assert rep.verdict == "BREAKS"
        assert rep.slope_L == pytest.approx(-1.0, abs=0.1)
        assert rep.slope_R == pytest.approx(-2.0, abs=0.1)

    def test_fewer_than_three_is_raw_table(self):
        rep = collision_scan(CounterexampleConfig(j=2, s=-0.25, N_list=(16, 32)))
        assert rep.verdict is None and rep.slope_L is None
        assert len(rep.rows) == 2

    def test_empty_n_list_rejected(self):
        with pytest.raises(ValueError, match="N_list must hold at least one N"):
            CounterexampleConfig(j=2, s=-0.25, N_list=())

    def test_nonpositive_side_rejected(self):
        # at s = -200 the weights underflow and R(N) is exactly 0: no log to fit
        with pytest.raises(ValueError, match=r"R\(N=16\)"):
            collision_scan(CounterexampleConfig(j=2, s=-200.0))

    def test_dtau_halving_stability(self):
        a = collision_scan(CounterexampleConfig(j=2, s=-0.25, N_list=(16, 64, 256), dtau=0.125))
        b = collision_scan(CounterexampleConfig(j=2, s=-0.25, N_list=(16, 64, 256), dtau=0.0625))
        assert a.slope_L == pytest.approx(b.slope_L, abs=0.01)
        assert a.verdict == b.verdict

    def test_csv_format(self):
        rep = collision_scan(CounterexampleConfig(j=2, s=-0.25, N_list=(16, 32, 64)))
        lines = rep.csv().splitlines()
        assert lines[0] == "N,L,R,logN,logL,logR"
        assert len(lines) == 4

    def test_report_dict_keys(self):
        rep = collision_scan(CounterexampleConfig(j=2, s=-0.25, N_list=(16, 32, 64)))
        doc = rep.to_dict()
        assert {"j", "s", "slopeL", "slopeR", "verdict", "rows"} <= set(doc)


# rows of the per-pair np.convolve engine this one replaced; at N = 1024, j = 4
# the tau offsets (~2^93) are beyond int64
PINNED_ROWS = {
    -1.0: [(16, 0.0008104143992666647, 0.10252134387519332),
           (64, 4.780490509517415e-05, 0.006126420980251225),
           (256, 2.9510542736710306e-06, 0.0003784846520425659),
           (1024, 1.838938464886379e-07, 2.358625918963372e-05)],
    -0.5: [(16, 0.0009637514514256516, 1.5915661029715895),
           (64, 5.684993346519027e-05, 0.389063916195256),
           (256, 3.5094147390548886e-06, 0.09670338410680235),
           (1024, 2.1868787064951753e-07, 0.024140544922359765)],
}


@pytest.mark.parametrize("s", sorted(PINNED_ROWS))
def test_collision_rows_pinned(s):
    rep = collision_scan(CounterexampleConfig(j=4, s=s, N_list=(16, 64, 256, 1024)))
    for row, (N, L, R) in zip(rep.rows, PINNED_ROWS[s], strict=True):
        assert row["N"] == N
        assert row["L"] == pytest.approx(L, rel=1e-12, abs=0)
        assert row["R"] == pytest.approx(R, rel=1e-12, abs=0)
