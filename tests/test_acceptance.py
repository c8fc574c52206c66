"""Acceptance gate: the nine headline checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time

import numpy as np
import pytest

from dcl.bourgain import (
    RegionLabel,
    classify_region,
    region_coefficient,
    region_memberships,
    st_convolve,
    verify_embeddings,
    ws_norm,
)
from dcl.evolve import PicardConfig, picard_iterate, pde_residual, simulate
from dcl.illposed import (
    CounterexampleConfig,
    build_counterexample,
    collision_scan,
    duhamel_weighted_bilinear,
)
from dcl.lattice import (
    ModelParams,
    SpatialSpectrum,
    forward_transform,
    hs_norm,
    inverse_transform,
    x_grid,
)
from dcl.rescale import rescale_trajectory, rescaled_residual
from dcl.resonance import verify_resonance_bound
from dcl.symbols import dispersion_symbol, nonlinearity_F

import oracles
from conftest import hermitian_spectrum
from test_bourgain import brute_convolve, cells_dict, random_spectrum
from test_illposed import brute_duhamel


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


class TestCriterion1Resonance:
    def test_certificate_all_orders(self):
        t0 = time.perf_counter()
        worst = math.inf
        for j in (2, 3, 4):
            rep = verify_resonance_bound(64, j)
            assert rep["violations"] == 0, f"j={j}: {rep['violations']} violations"
            worst = min(worst, rep["min_slack"])
        elapsed = time.perf_counter() - t0
        report("1 resonance-certificate", elapsed < 10.0,
               f"j=2,3,4 box 64: 0 violations, min slack {worst:.3f}, {elapsed:.1f}s")


class TestCriterion2RegionPartition:
    def test_exhaustive_partition(self):
        p = ModelParams(j=2, kmax=256.0)
        c = region_coefficient(p.j)
        sig_base = np.unique(np.concatenate([
            np.linspace(-1e6, 1e6, 801),
            np.geomspace(1e-9, 1e6, 120), -np.geomspace(1e-9, 1e6, 120), [0.0],
        ]))
        points = 0
        for n in list(range(1, 257)) + [-m for m in range(1, 257)]:
            k = float(n)
            a = c * abs(k) ** (2 * p.j)
            b = c * abs(k) ** (2 * p.j + 1)
            near = np.array([a * f for f in (0.999, 1.0, 1.001)]
                            + [b * f for f in (0.999, 1.0, 1.001)])
            sig = np.concatenate([sig_base, near, -near])
            sig = sig[np.abs(sig) <= 1e6]
            pk = dispersion_symbol(n, p.j)
            for sv in sig:
                label = classify_region(k, pk + sv, p)
                members = region_memberships(k, pk + sv, p)
                points += 1
                assert label is not RegionLabel.EXCLUDED
                assert members[label], (n, sv)
                count = sum(members.values())
                if abs(n) == 1:
                    # documented family overlap at |k|=1: classifier resolves
                    # to the large-k side
                    assert label in (RegionLabel.D1, RegionLabel.D2, RegionLabel.D3)
                else:
                    assert count == 1, (n, sv, count)
        report("2 region-partition", True,
               f"{points} grid points, unique label everywhere (|k|=1 ties resolved)")


class TestCriterion3ScalingReproduction:
    def test_slopes_and_verdict_flip(self):
        t0 = time.perf_counter()
        n_full = (16, 32, 64, 128, 256, 512, 1024)
        details = []
        for j, s in ((2, -0.25), (3, -1.0)):
            logs_w, logs_l = [], []
            for N in n_full:
                u1, u2 = build_counterexample(N, j)
                logs_w.append(math.log(ws_norm(u1, s)))
                logs_l.append(math.log(duhamel_weighted_bilinear(u1, u2, s)))
            slope_w = float(np.polyfit(np.log(n_full), logs_w, 1)[0])
            slope_l = float(np.polyfit(np.log(n_full), logs_l, 1)[0])
            assert slope_w == pytest.approx(s, abs=0.05), f"j={j} input slope {slope_w}"
            assert slope_l == pytest.approx(2.0 - j, abs=0.1), f"j={j} response slope {slope_l}"
            details.append(f"j={j}: input {slope_w:+.3f}~{s}, response {slope_l:+.3f}~{2-j}")
            crit = 1.0 - j / 2.0
            n_probe = (16, 32, 64, 128, 256)
            below = collision_scan(CounterexampleConfig(j=j, s=crit - 0.06, N_list=n_probe))
            above = collision_scan(CounterexampleConfig(j=j, s=crit + 0.06, N_list=n_probe))
            at = collision_scan(CounterexampleConfig(j=j, s=crit, N_list=n_probe))
            assert below.verdict == "BREAKS"
            assert above.verdict == "HOLDS-AT-THIS-PROBE"
            assert at.verdict == "INCONCLUSIVE"
        elapsed = time.perf_counter() - t0
        report("3 scaling-reproduction", elapsed < 120.0,
               "; ".join(details) + f"; verdict flips at both critical indices, {elapsed:.1f}s")


def _conservation_runs():
    p = ModelParams(j=2, kmax=128.0)  # modes +-1..+-128
    u0 = forward_transform(0.01 * np.cos(x_grid(p, p.default_grid())), p)
    full = simulate(u0, T=1.0, dt=1e-4, stride=500)
    kdv = simulate(u0, T=1.0, dt=1e-4, mode="kdv", stride=500)
    return p, u0, full, kdv


@pytest.fixture(scope="module")
def conservation_runs():
    return _conservation_runs()


class TestCriterion4Conservation:
    def test_mean_energy_and_l2(self, conservation_runs):
        _, _, full, kdv = conservation_runs
        means = [d["mean"] for d in full.diagnostics]
        assert all(m == 0.0 for m in means)  # carried scalar: conserved exactly
        e = [d["energy"] for d in full.diagnostics]
        drift = abs(e[-1] - e[0]) / e[0]
        assert drift <= 1e-6
        l2 = [d["l2"] for d in kdv.diagnostics]
        l2_drift = abs(l2[-1] - l2[0]) / l2[0]
        assert l2_drift <= 1e-6
        report("4 conservation", True,
               f"mean exact, energy drift {drift:.2e}, l2 drift (local mode) {l2_drift:.2e}")


class TestCriterion5IntegratorOrder:
    def test_richardson_order(self, conservation_runs):
        p, u0, _, _ = conservation_runs
        finals = {}
        for dt in (4e-3, 2e-3, 1e-3):
            finals[dt] = simulate(u0, T=1.0, dt=dt, stride=10**9).states[-1].spec.amps
        e1 = np.linalg.norm(finals[4e-3] - finals[2e-3])
        e2 = np.linalg.norm(finals[2e-3] - finals[1e-3])
        order = math.log2(e1 / e2)
        ok = abs(order - 4.0) <= 0.3
        report("5 integrator-order", ok, f"measured global order {order:.2f}")


class TestCriterion6OracleEquivalence:
    def test_all_three_oracles(self):
        p = ModelParams(j=2, kmax=8.0)
        rng = np.random.default_rng(2024)
        u = random_spectrum(p, rng, dtau=0.25, sigma_halfwidth=1.875)  # 16 tau-cells
        v = random_spectrum(p, rng, dtau=0.25, sigma_halfwidth=1.875)
        fast = st_convolve(u, v)
        slow = brute_convolve(u, v)
        conv_err = max(abs(oracles.st_value_at(fast, n, m) - a) for (n, m), a in slow.items())
        assert conv_err <= 1e-10

        u1, u2 = build_counterexample(4, 2)
        duh_err = abs(duhamel_weighted_bilinear(u1, u2, -0.25) - brute_duhamel(u1, u2, -0.25))
        assert duh_err <= 1e-10

        a = hermitian_spectrum(p, seed=77)
        b = hermitian_spectrum(p, seed=78)
        via_conv = oracles.nonlinearity_F(a, b)  # spectral convolution route
        via_phys = nonlinearity_F(a, b)          # padded physical products
        f_err = np.abs(via_conv.amps - via_phys.amps).max()
        assert f_err <= 1e-10
        report("6 oracle-equivalence", True,
               f"convolution {conv_err:.1e}, weighted response {duh_err:.1e}, "
               f"nonlinearity {f_err:.1e}")


class TestCriterion7EmbeddingScans:
    def test_in_window_stable_out_window_fails(self):
        p = ModelParams(j=2, kmax=4.0)
        good = verify_embeddings(-0.25, p, kbound=512.0, doublings=1)
        assert good["pass"]
        for e in good["entries"]:
            assert math.isfinite(e["max_ratio"])
            assert e["trend"][1] <= e["trend"][0] * (1 + 1e-9)
        bad = verify_embeddings(-2.0, p, kbound=512.0, doublings=1,
                                allow_outside_window=True)
        assert not bad["pass"]
        d2 = [e for e in bad["entries"] if e["region"] == "D2" and not e["pass"]]
        assert d2 and d2[0]["trend"][1] > d2[0]["trend"][0]
        growth = d2[0]["trend"][1] / d2[0]["trend"][0]
        report("7 embedding-scans", True,
               f"s=-1/4 stable under box doubling; s=-2 D2 ratio grows x{growth:.2f}")


class TestCriterion8PicardCrossValidation:
    def test_fixed_point_matches_stepper(self):
        p = ModelParams(j=2, kmax=16.0)
        x = x_grid(p, p.default_grid())
        u0 = forward_transform(
            0.3 * (np.cos(x) + 0.6 * np.cos(2 * x) + 0.3 * np.sin(3 * x)
                   + 0.15 * np.sin(x)), p)
        res = picard_iterate(u0, PicardConfig(iterations=9, nt=8193, report_s=-0.25))
        traj = simulate(u0, T=0.5, dt=2e-4, stride=10**9)
        gap = hs_norm(res.state_at(0.5) - traj.states[-1].spec, -0.25)
        assert gap <= 1e-5
        ratios = res.ratios_hs[1:8]  # iterations 2..8
        assert all(r < 1.0 for r in ratios)
        # the one-step ratio alternates between the parity-subspace gains of
        # the linearized map; successive-pair geometric means are the stable
        # contraction rate and must stay in a tight band
        gm = [math.sqrt(ratios[i] * ratios[i + 1]) for i in range(len(ratios) - 1)]
        spread = max(gm) / min(gm)
        assert spread < 3.0
        assert not res.diverged
        report("8 picard-crossvalidation", True,
               f"gap at t=0.5 {gap:.2e}, ratios<1, rate band x{spread:.2f}")


class TestCriterion9ScalingSymmetry:
    def test_rescaled_trajectory_residual(self):
        p = ModelParams(j=2, kmax=32.0)
        u0 = forward_transform(0.05 * np.cos(x_grid(p, p.default_grid())), p)
        traj = simulate(u0, T=0.2, dt=1e-3, stride=2)
        scaled = rescale_trajectory(traj, 2.0)
        resid = rescaled_residual(scaled, 2.0)
        assert resid <= 1e-6
        report("9 scaling-symmetry", True, f"mu=2 rescaled-equation residual {resid:.2e}")
