"""Exit codes, file formats, determinism, and config merging of the command line."""

import importlib.metadata
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dcl import bourgain, evolve, rescale
from dcl.bourgain import verify_regions
from dcl.cli import (
    _KEYS,
    UsageError,
    _parser,
    initial_spectrum,
    load_config,
    main,
)
from dcl.lattice import ModelParams

import oracles


def run(tmp_path, *args):
    return main([*args, "--output-dir", str(tmp_path / "out")])


class TestSimulate:
    def test_zero_data_zero_trajectory(self, tmp_path):
        assert run(tmp_path, "simulate", "--u0", "zero", "--T", "0.02",
                   "--dt", "0.01", "--kmax", "8") == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,energy,mean,l2,hs,max_mode"
        assert all(float(r.split(",")[1]) == 0.0 for r in rows[1:])

    def test_small_run_energy_column(self, tmp_path):
        assert run(tmp_path, "simulate", "--T", "0.1", "--dt", "0.001",
                   "--kmax", "32") == 0
        doc = json.loads((tmp_path / "out" / "run.json").read_text())
        assert doc["energy_drift"] <= 1e-6
        spec = json.loads((tmp_path / "out" / "final_spectrum.json").read_text())
        assert set(spec) == {"lambda", "j", "modes"}

    def test_T_not_a_multiple_of_dt_exit_one(self, tmp_path):
        assert run(tmp_path, "simulate", "--T", "0.105", "--dt", "0.01", "--kmax", "8") == 1
        assert run(tmp_path, "rescale-check", "--T", "0.105", "--dt", "0.01",
                   "--kmax", "8") == 1

    @pytest.mark.parametrize("stride", ["0", "-1"])
    def test_stride_below_one_exit_one(self, tmp_path, stride):
        assert run(tmp_path, "simulate", "--T", "0.02", "--dt", "0.01", "--kmax", "8",
                   "--stride", stride) == 1

    @pytest.mark.parametrize("flag, message", [
        ("--lambda", "lam must be finite"), ("--kmax", "kmax must be finite"),
        ("--T", "T must be finite"), ("--dt", "dt must be finite")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_model_and_step_exit_one(self, tmp_path, capsys, flag, message, value):
        args = {"--kmax": "8", "--T": "0.02", "--dt": "0.01", flag: value}
        assert run(tmp_path, "simulate", *[x for kv in args.items() for x in kv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.endswith(f"got {value}\n")

    def test_run_reports_phase_wrap(self, tmp_path):
        # dt * max |P(k)| = dt * kmax^(2j+1) at j = 2
        assert run(tmp_path, "simulate", "--T", "0.004", "--dt", "0.002", "--kmax", "16") == 0
        doc = json.loads((tmp_path / "out" / "run.json").read_text())
        assert doc["phase_wrap"] == 0.002 * 16.0**5

    @pytest.mark.parametrize("dt, kmax, ok", [("0.002", "16", False), ("0.0001", "8", True)])
    def test_phase_wrap_verdict_and_warning(self, tmp_path, capsys, dt, kmax, ok):
        # 0.002 * 16^5 = 2097 rad and 1e-4 * 8^5 = 3.3 rad against the 50 rad limit
        assert run(tmp_path, "simulate", "--T", "0.004", "--dt", dt, "--kmax", kmax) == 0
        doc = json.loads((tmp_path / "out" / "run.json").read_text())
        assert doc["phase_wrap_ok"] is ok
        assert ("phase wrap" in capsys.readouterr().err) is not ok

    def test_phase_wrap_warning_names_the_largest_trusted_step(self, tmp_path, capsys):
        # 50 rad / max|P(k)| = 50 / 16^5 = 4.77e-05 at j = 2, kmax = 16
        assert run(tmp_path, "simulate", "--T", "0.004", "--dt", "0.002", "--kmax", "16") == 0
        assert "dt < 4.77e-05" in capsys.readouterr().err

    @pytest.mark.parametrize("args, steps", [
        (("--T", "0.02", "--dt", "0.001"), 20),
        (("--T", "0.02", "--dt", "0.001", "--stride", "5"), 20),
        (("--T", "0.01", "--dt", "0.001", "--stride", "100"), 10)])
    def test_run_reports_steps_not_recorded_rows(self, tmp_path, capsys, args, steps):
        assert run(tmp_path, "simulate", "--kmax", "8", *args) == 0
        doc = json.loads((tmp_path / "out" / "run.json").read_text())
        assert doc["steps"] == steps
        assert capsys.readouterr().out.startswith(f"simulate: {steps} steps,")

    @pytest.mark.parametrize("stride, steps", [("1", 5), ("2", 4)])
    def test_blown_up_run_reports_steps_to_its_last_state(self, tmp_path, stride, steps):
        # amplitude 500 blows up at step 5: stride 1 keeps that state, stride 2 step 4's
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(tmp_path, "simulate", "--kmax", "16", "--T", "0.2", "--dt", "1e-3",
                       "--u0-amplitude", "500", "--stride", stride) == 2
        doc = json.loads((tmp_path / "out" / "run.json").read_text())
        assert doc["blown_up"] is True and doc["steps"] == steps

    def test_kdv_flag_switches_mode(self, tmp_path):
        assert run(tmp_path, "simulate", "--kdv", "--T", "0.02", "--dt", "0.01",
                   "--kmax", "8") == 0
        doc = json.loads((tmp_path / "out" / "run.json").read_text())
        assert doc["mode"] == "kdv"


class TestVerify:
    def test_resonance_certificate(self, tmp_path):
        assert run(tmp_path, "verify", "resonance", "--kmax-verify", "12") == 0
        doc = json.loads((tmp_path / "out" / "resonance_certificate.json").read_text())
        assert doc["violations"] == 0
        assert set(doc) == {"j", "Kmax", "triples_checked", "violations",
                            "min_slack", "argmin", "config"}

    @pytest.mark.parametrize("target, name", [
        ("resonance", "resonance_certificate.json"), ("regions", "region_partition.json"),
        ("embeddings", "embedding_report.json")])
    def test_reports_embed_the_resolved_config(self, tmp_path, target, name):
        assert run(tmp_path, "verify", target, "--j", "3", "--lambda", "2", "--kmax", "8",
                   "--kmax-verify", "6", "--s", "-1.0", "--kbound", "8") == 0
        config = json.loads((tmp_path / "out" / name).read_text())["config"]
        assert set(config) == set(_KEYS)
        assert (config["j"], config["lambda"], config["kmax"]) == (3, 2.0, 8.0)

    def test_resonance_line_reports_wall_time_and_rate(self, tmp_path, capsys):
        assert run(tmp_path, "verify", "resonance", "--kmax-verify", "8") == 0
        line = capsys.readouterr().out.strip()
        assert re.fullmatch(r"resonance: \d+ triples, 0 violations, min slack [\d.]+, "
                            r"[\d.]+ s \([\d.e+]+ triples/s\)", line), line

    def test_resonance_box_below_two_exit_one(self, tmp_path):
        assert run(tmp_path, "verify", "resonance", "--kmax-verify", "1") == 1

    def test_regions_totality(self, tmp_path, capsys):
        assert run(tmp_path, "verify", "regions", "--kmax", "8") == 0
        line = capsys.readouterr().out.strip()
        assert re.fullmatch(r"regions: \d+ points, 0 mislabels", line), line

    def test_regions_box_stops_at_kbound(self):
        # 2.6 * lam is no lattice index: the box is k = 1, 2 (both signs), 81 sigmas each
        for lam, n in ((1.0, 2), (2.0, 5)):
            report = verify_regions(ModelParams(j=2, lam=lam, kmax=8.0), kbound=2.6)
            assert report["points"] == 2 * n * 81 and report["pass"]

    @pytest.mark.parametrize("j", [2, 3, 4])
    @pytest.mark.parametrize("lam", [1.0, 2.0, 3.0, 4.0])  # 1/3 is not dyadic
    @pytest.mark.parametrize("kbound", [64.0, 2.6])
    def test_regions_report_matches_the_point_loop(self, j, lam, kbound):
        p = ModelParams(j=j, lam=lam, kmax=64.0)
        assert verify_regions(p, kbound) == oracles.region_partition_report(p, kbound)

    def test_regions_planted_mislabels_counted_alike(self, tmp_path, monkeypatch):
        classify = bourgain.region_codes

        def planted(k, abs_sigma, params):
            codes = classify(k, abs_sigma, params).copy()
            codes[:, ::7] = codes[:, ::7] % 5 + 1  # the next region's code
            codes[1, 3] = 0  # excluded
            return codes

        monkeypatch.setattr(bourgain, "region_codes", planted)
        p = ModelParams(j=2, lam=2.0, kmax=8.0)
        report = verify_regions(p)
        assert report == oracles.region_partition_report(p)
        assert report["mislabels"] > 0 and not report["pass"]
        assert run(tmp_path, "verify", "regions", "--kmax", "8") == 2
        doc = json.loads((tmp_path / "out" / "region_partition.json").read_text())
        assert doc["mislabels"] > 0 and doc["pass"] is False

    def test_embeddings_pass_and_window_rejection(self, tmp_path):
        assert run(tmp_path, "verify", "embeddings", "--s", "-0.25",
                   "--kbound", "32", "--kmax", "4") == 0
        doc = json.loads((tmp_path / "out" / "embedding_report.json").read_text())
        assert doc["pass"] is True
        assert {"lemma", "entries", "window"} <= set(doc)
        assert {"region", "inequality", "max_ratio", "argmax", "trend", "pass"} \
            <= set(doc["entries"][0])
        assert run(tmp_path, "verify", "embeddings", "--s", "-2.0",
                   "--kbound", "32", "--kmax", "4") == 1

    def test_embeddings_certify_command(self, tmp_path):
        # perfbench's certify round runs this argv; it must keep its shape
        assert run(tmp_path, "verify", "embeddings", "--s", "-0.25") == 0
        doc = json.loads((tmp_path / "out" / "embedding_report.json").read_text())
        assert len(doc["entries"]) == 8 and all(e["pass"] for e in doc["entries"])
        rows = (tmp_path / "out" / "embedding_scan.csv").read_text().splitlines()[1:]
        assert len(rows) == 12272
        k, sv, region = zip(*(row.split(",")[:3] for row in rows))
        codes = bourgain.region_codes(np.array(k, float), np.array(sv, float),
                                      ModelParams(j=2, kmax=256.0))
        assert [bourgain.REGION_LABELS[c].value for c in codes] == list(region)

    @pytest.mark.parametrize("kbound", ["0", "inf"])
    def test_embeddings_box_without_a_lattice_k_exit_one(self, tmp_path, kbound):
        assert run(tmp_path, "verify", "embeddings", "--s", "-0.25", "--kbound", kbound) == 1

    def test_embeddings_fail_exit_when_forced(self, tmp_path):
        assert run(tmp_path, "verify", "embeddings", "--s", "-2.0", "--kbound", "32",
                   "--kmax", "4", "--allow-outside-window") == 2

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_embeddings_non_finite_s_exit_one(self, tmp_path, capsys, s):
        assert run(tmp_path, "verify", "embeddings", "--s", s, "--kbound", "32",
                   "--kmax", "4", "--allow-outside-window") == 1
        assert "error: s must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "embedding_report.json").exists()


class TestIllposed:
    def test_scan_outputs(self, tmp_path):
        assert run(tmp_path, "illposed", "--s", "-0.25",
                   "--N-list", "16,32,64,128") == 0
        csv = (tmp_path / "out" / "illposed_scan.csv").read_text().splitlines()
        assert csv[0] == "N,L,R,logN,logL,logR"
        doc = json.loads((tmp_path / "out" / "illposed_verdict.json").read_text())
        assert doc["verdict"] == "BREAKS"
        assert {"j", "s", "slopeL", "slopeR", "verdict"} <= set(doc)
        assert (tmp_path / "out" / "plot_illposed.py").exists()

    def test_holds_probe(self, tmp_path):
        assert run(tmp_path, "illposed", "--s", "0.25", "--N-list", "16,32,64") == 0
        doc = json.loads((tmp_path / "out" / "illposed_verdict.json").read_text())
        assert doc["verdict"] == "HOLDS-AT-THIS-PROBE"

    def test_missing_n_list_exit_one(self, tmp_path, capsys):
        assert run(tmp_path, "illposed", "--N-list", "") == 1
        assert "error: N_list must hold at least one N" in capsys.readouterr().err

    def test_nonpositive_side_exit_one(self, tmp_path):
        assert run(tmp_path, "illposed", "--s", "-200", "--N-list", "16,32,64") == 1

    @pytest.mark.parametrize("n_list", [["a"], [16.5, 32, 64], [True, 32, 64]])
    def test_n_list_entry_not_an_integer_of_two_or_more_exit_one(self, tmp_path, capsys,
                                                                  n_list):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N_list": n_list}))
        assert run(tmp_path, "illposed", "--config", str(cfg)) == 1
        assert "error: N_list entries must be integers >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "illposed_verdict.json").exists()

    @pytest.mark.parametrize("dtau", ["0", "-0.5", "nan"])
    def test_bad_slab_dtau_exit_one(self, tmp_path, capsys, dtau):
        assert run(tmp_path, "illposed", "--N-list", "16,32,64", "--slab-dtau", dtau) == 1
        assert "error: dtau must be finite and positive" in capsys.readouterr().err


class TestProbe:
    def test_seed_mandatory(self, tmp_path):
        assert run(tmp_path, "probe", "--pairs", "2", "--kmax", "8") == 1

    def test_zero_pairs_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "probe", "--pairs", "0", "--seed", "1", "--kmax", "8") == 1
        assert "error: need at least one probe pair" in capsys.readouterr().err

    def test_unknown_form_rejected(self, tmp_path, capsys):
        for form in ("cubic", "F"):  # F is a bilinear_output form, but not a probe form
            assert run(tmp_path, "probe", "--pairs", "1", "--seed", "1", "--kmax", "8",
                       "--form", form) == 1
            assert "error: form must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_non_finite_s_exit_one(self, tmp_path, capsys, s):
        assert run(tmp_path, "probe", "--pairs", "1", "--seed", "1", "--kmax", "8",
                   "--s", s) == 1
        assert "error: s must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "probe.json").exists()

    def test_deterministic_bytes(self, tmp_path):
        args = ("probe", "--pairs", "2", "--seed", "11", "--kmax", "8",
                "--form", "dxdx_smoothed")
        assert run(tmp_path, *args) == 0
        first = (tmp_path / "out" / "probe.json").read_bytes()
        assert run(tmp_path, *args) == 0
        assert (tmp_path / "out" / "probe.json").read_bytes() == first

    def test_report_embeds_config(self, tmp_path):
        assert run(tmp_path, "probe", "--pairs", "2", "--seed", "3",
                   "--kmax", "8", "--form", "product_dx") == 0
        doc = json.loads((tmp_path / "out" / "probe.json").read_text())
        assert doc["config"]["seed"] == 3
        assert {"lemma", "max_ratio", "median_ratio", "count"} <= set(doc)

    @pytest.mark.parametrize("tau_step", ["0", "-0.25", "nan", "inf", "1e-320", "1e-309"])
    def test_bad_tau_step_exit_one(self, tmp_path, capsys, tau_step):
        assert run(tmp_path, "probe", "--pairs", "1", "--seed", "1", "--kmax", "8",
                   "--tau-step", tau_step) == 1
        assert "error: dtau must be finite and positive" in capsys.readouterr().err


class TestRescaleCheckAndPicard:
    def test_rescale_check_passes(self, tmp_path):
        assert run(tmp_path, "rescale-check", "--T", "0.1", "--dt", "0.001",
                   "--kmax", "16", "--mu", "2", "--u0-amplitude", "0.05",
                   "--stride", "2") == 0
        doc = json.loads((tmp_path / "out" / "rescale_check.json").read_text())
        assert doc["pass"] is True and doc["residual"] <= doc["tolerance"]
        assert doc["blown_up"] is False

    # amplitude 500 blows up after 5 steps, 200 after 32: too few samples for a
    # residual, and enough for one on the finite prefix alone
    @pytest.mark.parametrize("amplitude, last_t", [("500", "0.005"), ("200", "0.032")])
    def test_rescale_check_blowup_exit_two(self, tmp_path, capsys, monkeypatch,
                                           amplitude, last_t):
        calls = []
        monkeypatch.setattr(evolve, "pde_residual", lambda *a, **k: calls.append(a))
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(tmp_path, "rescale-check", "--kmax", "16", "--T", "0.2", "--dt", "1e-3",
                       "--u0-amplitude", amplitude) == 2
        err = capsys.readouterr().err
        assert err == (f"rescale-check: the run blew up before T=0.2 (last state kept at "
                       f"t={last_t}); no residual taken\n")
        doc = json.loads((tmp_path / "out" / "rescale_check.json").read_text())
        assert doc["blown_up"] is True and doc["pass"] is False
        assert doc["residual"] is None and doc["differencing_error"] is None
        assert calls == []

    def test_rescale_check_evaluates_the_residual_once(self, tmp_path, monkeypatch):
        calls = []
        residual = evolve.pde_residual

        def counting(*args, **kwargs):
            calls.append(residual(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(evolve, "pde_residual", counting)
        monkeypatch.setattr(rescale, "pde_residual", counting)
        assert run(tmp_path, "rescale-check", "--T", "0.02", "--dt", "0.001",
                   "--kmax", "8", "--u0-amplitude", "0.05") == 0
        doc = json.loads((tmp_path / "out" / "rescale_check.json").read_text())
        assert len(calls) == 1
        assert doc["residual"] == calls[0]["max_residual"]
        assert doc["differencing_error"] == calls[0]["differencing_error"]

    @pytest.mark.parametrize("mu", ["0.5", "nan", "inf"])
    def test_rescale_check_bad_mu_exit_one(self, tmp_path, capsys, mu):
        assert run(tmp_path, "rescale-check", "--T", "0.02", "--dt", "0.001",
                   "--kmax", "8", "--mu", mu) == 1
        assert "error: mu must be finite and >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "rescale_check.json").exists()

    def test_picard_report(self, tmp_path):
        assert run(tmp_path, "picard", "--kmax", "8", "--nt", "513",
                   "--iterations", "4", "--u0-amplitude", "0.2") == 0
        doc = json.loads((tmp_path / "out" / "picard.json").read_text())
        assert doc["diverged"] is False
        assert len(doc["ratios_hs"]) == 3
        assert doc["ratios_at_floor"] == [False] * 3

    def test_picard_report_phase_times(self, tmp_path):
        assert run(tmp_path, "picard", "--kmax", "8", "--nt", "129",
                   "--iterations", "2", "--u0-amplitude", "0.2") == 0
        doc = json.loads((tmp_path / "out" / "picard.json").read_text())
        phase_s = doc["telemetry"]["phase_s"]
        assert set(phase_s) == {"setup", "iterate", "zs"}
        assert all(isinstance(v, float) and v >= 0.0 for v in phase_s.values())

    def test_picard_report_grid_length(self, tmp_path):
        # the pad=2 transform length: 2*2*8 + 2 = 34 rounds up to 36 = 2^2 3^2
        assert run(tmp_path, "picard", "--kmax", "8", "--nt", "65",
                   "--iterations", "1", "--u0-amplitude", "0.2") == 0
        doc = json.loads((tmp_path / "out" / "picard.json").read_text())
        assert doc["telemetry"]["grid_nx"] == 36

    def test_picard_report_quadrature_wrap(self, tmp_path):
        # the default u0 is 0.01 cos x, and mode k enters at order 0.01^k: after 8 iterations
        # modes 1..4 carry content (mode 4 at ~4e-10 of mode 1, mode 5 at ~1e-13, below the
        # 1e-12 cut), so the wrap is h |P(4)| = (4/256) * 4^5 = 16
        assert run(tmp_path, "picard", "--kmax", "16", "--nt", "257") == 0
        doc = json.loads((tmp_path / "out" / "picard.json").read_text())
        assert doc["telemetry"]["quadrature_wrap"] == 16.0

    def test_picard_report_versions(self, tmp_path):
        assert run(tmp_path, "picard", "--kmax", "8", "--nt", "129",
                   "--iterations", "1", "--u0-amplitude", "0.2") == 0
        doc = json.loads((tmp_path / "out" / "picard.json").read_text())
        versions = doc["telemetry"]["versions"]
        assert set(versions) == {"dcl", "numpy", "scipy"}
        assert isinstance(versions["dcl"], str) and isinstance(versions["numpy"], str)
        assert versions["scipy"] is None or isinstance(versions["scipy"], str)

    def test_picard_report_versions_without_scipy(self, tmp_path, monkeypatch):
        def version(name):
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", version)
        assert run(tmp_path, "picard", "--kmax", "8", "--nt", "129",
                   "--iterations", "1", "--u0-amplitude", "0.2") == 0
        doc = json.loads((tmp_path / "out" / "picard.json").read_text())
        assert doc["telemetry"]["versions"]["scipy"] is None

    def test_picard_even_nt_exit_one(self, tmp_path):
        assert run(tmp_path, "picard", "--kmax", "8", "--nt", "1024",
                   "--iterations", "1") == 1

    @pytest.mark.parametrize("flags, message", [
        (["--s", "nan"], "report_s must be finite"), (["--s", "inf"], "report_s must be finite"),
        (["--iterations", "0"], "iterations must be an integer >= 1"),
        (["--iterations", "-1"], "iterations must be an integer >= 1")])
    def test_picard_bad_s_or_iterations_exit_one(self, tmp_path, capsys, flags, message):
        assert run(tmp_path, "picard", "--kmax", "8", "--nt", "129", *flags) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "picard.json").exists()


class TestRealInitialData:
    @pytest.mark.parametrize("command", [["simulate", "--T", "0.02", "--dt", "0.01"],
                                         ["picard", "--nt", "129", "--iterations", "1"]])
    def test_non_hermitian_json_exit_one(self, tmp_path, command):
        doc = {"lambda": 1.0, "j": 2, "modes": [{"k": 1.0, "re": 0.01, "im": 0.0},
                                                {"k": -1.0, "re": 0.0, "im": 0.01}]}
        path = tmp_path / "u0.json"
        path.write_text(json.dumps(doc))
        assert run(tmp_path, *command, "--kmax", "8", "--u0", f"json:{path}") == 1
        doc["modes"][1]["re"], doc["modes"][1]["im"] = 0.01, 0.0  # now the mirror image
        path.write_text(json.dumps(doc))
        assert run(tmp_path, *command, "--kmax", "8", "--u0", f"json:{path}") == 0

    @pytest.mark.parametrize("command", [["simulate"], ["rescale-check"],
                                         ["picard", "--nt", "129", "--iterations", "1"]])
    @pytest.mark.parametrize("key, value, flag, run_value", [
        ("j", 2, ["--j", "3"], 3), ("lambda", 2.0, ["--lambda", "1"], 1.0)])
    def test_json_model_must_match_the_run(self, tmp_path, capsys, command, key, value, flag,
                                           run_value):
        # the file's j and lambda would otherwise replace the run's
        doc = {"lambda": 1.0, "j": 2, "modes": [{"k": 1.0, "re": 0.01, "im": 0.0},
                                                {"k": -1.0, "re": 0.01, "im": 0.0}]}
        doc[key] = value
        path = tmp_path / "u0.json"
        path.write_text(json.dumps(doc))
        argv = [*command, *flag, "--kmax", "8", "--T", "0.002", "--dt", "1e-4"]
        assert run(tmp_path, *argv, "--u0", f"json:{path}") == 1
        assert (f"error: u0 file has {key} = {value!r}, the run has {key} = {run_value!r}"
                in capsys.readouterr().err)
        doc[key] = run_value
        path.write_text(json.dumps(doc))
        assert run(tmp_path, *argv, "--u0", f"json:{path}") == 0

    def test_repeated_json_mode_exit_one(self, tmp_path, capsys):
        doc = {"lambda": 1.0, "j": 2, "modes": [{"k": 1.0, "re": 0.01, "im": 0.0},
                                                {"k": -1.0, "re": 0.01, "im": 0.0},
                                                {"k": 1.0, "re": 0.02, "im": 0.0}]}
        path = tmp_path / "u0.json"
        path.write_text(json.dumps(doc))
        assert run(tmp_path, "simulate", "--T", "0.02", "--dt", "0.01", "--kmax", "8",
                   "--u0", f"json:{path}") == 1
        assert "error: k=1.0 repeats the mode k=1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate"], ["rescale-check"],
                                         ["picard", "--nt", "129", "--iterations", "1"]])
    @pytest.mark.parametrize("kmax, mode", [("8", "0"), ("8", "9"), ("8", "-9"), ("256", "300")])
    def test_mode_off_the_lattice_exit_one(self, tmp_path, capsys, command, kmax, mode):
        # cos(300x) would alias on the 540-point grid of kmax 256; mode 0 is the dropped mean
        assert run(tmp_path, *command, "--kmax", kmax, "--T", "0.002", "--dt", "1e-4",
                   "--u0-mode", mode) == 1
        assert (f"error: u0 mode must satisfy 1 <= |mode| <= nmax = {kmax} (kmax * lambda), "
                f"got {mode}\n") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mode_at_nmax_runs_and_a_negative_mode_is_its_mirror(self, tmp_path):
        argv = ["simulate", "--kmax", "8", "--lambda", "2", "--T", "0.002", "--dt", "1e-4"]
        assert main([*argv, "--u0-mode", "16", "--output-dir", str(tmp_path / "top")]) == 0
        for mode in ("2", "-2"):
            assert main([*argv, "--u0-mode", mode, "--output-dir", str(tmp_path / mode)]) == 0
        for name in ("trajectory.csv", "final_spectrum.json"):
            assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "-2" / name).read_bytes()
        runs = [{k: v for k, v in json.loads((tmp_path / m / "run.json").read_text()).items()
                 if k != "config"} for m in ("2", "-2")]  # the config echoes the mode
        assert runs[0] == runs[1] and runs[0]["steps"] == 20

    @pytest.mark.parametrize("amplitude", ["nan", "inf"])
    def test_non_finite_amplitude_exit_one(self, tmp_path, capsys, amplitude):
        assert run(tmp_path, "simulate", "--T", "0.02", "--dt", "0.01", "--kmax", "8",
                   "--u0-amplitude", amplitude) == 1
        assert f"error: u0 amplitude must be finite, got {amplitude}" in capsys.readouterr().err


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"T": 0.05, "dt": 0.01, "kmax": 8.0,
                                   "u0": {"type": "zero"}}))
        assert main(["simulate", "--config", str(cfg), "--T", "0.02",
                     "--output-dir", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "run.json").read_text())
        assert doc["config"]["T"] == 0.02  # flag wins
        assert doc["config"]["dt"] == 0.01  # file value survives

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"Ts": 1.0}))
        assert main(["simulate", "--config", str(cfg)]) == 1

    def test_removed_b_key_rejected(self, tmp_path):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"b": 0.5}))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert run(tmp_path, "simulate", "--b", "0.5") == 1

    def test_bad_params_exit_one(self, tmp_path):
        assert run(tmp_path, "simulate", "--j", "0") == 1

    def test_usage_error_exit_one(self):
        assert main(["verify", "nonsense"]) == 1

    def test_missing_config_file_exit_one(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["simulate", "--config", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and str(missing) in err

    @pytest.mark.parametrize("command", [["simulate"], ["picard"], ["rescale-check"]])
    def test_missing_u0_file_exit_one(self, tmp_path, capsys, command):
        missing = tmp_path / "absent.json"
        assert run(tmp_path, *command, "--kmax", "8", "--T", "0.02", "--dt", "0.01",
                   "--u0", f"json:{missing}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read u0 file") and str(missing) in err

    @pytest.mark.parametrize("u0, message", [
        ({"type": "cosine", "amplitude": [1]}, "u0 amplitude must be a real number, got [1]"),
        ({"type": "cosine", "amplitude": True}, "u0 amplitude must be a real number, got True"),
        ({"type": "cosine", "mode": 1.5}, "u0 mode must be an int, got 1.5"),
        ({"type": "cosine", "mode": "2"}, "u0 mode must be an int, got '2'"),
        ({"type": "json"}, "u0 type 'json' needs a path, got None"),
        ({"type": "json", "path": 3}, "u0 type 'json' needs a path, got 3"),
    ])
    def test_bad_u0_entry_exit_one(self, tmp_path, capsys, u0, message):
        with pytest.raises(UsageError, match=re.escape(message)):
            initial_spectrum({"u0": u0}, ModelParams(j=2, kmax=8.0))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u0": u0}))
        assert run(tmp_path, "simulate", "--config", str(cfg), "--kmax", "8",
                   "--T", "0.02", "--dt", "0.01") == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("doc, message", [
        ({"lambda": 1.0, "j": 2}, "the spectrum has no 'modes'"),
        ({"lambda": 1.0, "j": 2, "modes": [{"k": 1.0, "re": 0.01}]}, "mode 0 has no 'im'"),
        ({"lambda": "one", "j": 2, "modes": []}, 'the spectrum has lambda = "one", not a number'),
    ], ids=["no modes", "no im", "lambda not a number"])
    def test_malformed_u0_file_exit_one(self, tmp_path, capsys, doc, message):
        path = tmp_path / "u0.json"
        path.write_text(json.dumps(doc))
        assert run(tmp_path, "simulate", "--kmax", "8", "--T", "0.02", "--dt", "0.01",
                   "--u0", f"json:{path}") == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text", ["5", "null"])
    def test_config_not_an_object_exit_one(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (f"error: config file {str(cfg)!r} must hold a JSON "
                                           f"object, got {text}\n")

    def test_int_amplitude_is_a_real_number(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u0": {"type": "cosine", "amplitude": 0, "mode": 2}}))
        assert run(tmp_path, "simulate", "--config", str(cfg), "--kmax", "8",
                   "--T", "0.02", "--dt", "0.01") == 0


class TestNumpyOnlyRuntime:
    def test_every_module_and_a_certificate_without_scipy(self, tmp_path):
        # the runtime needs numpy alone (pyproject.toml); scipy is for the tests' oracles
        script = f"""
import importlib, pkgutil, runpy, sys
sys.modules["scipy"] = None
import dcl
for mod in pkgutil.iter_modules(dcl.__path__):
    if mod.name != "__main__":
        importlib.import_module("dcl." + mod.name)
sys.argv = ["dcl", "verify", "regions", "--kmax", "8", "--output-dir", {str(tmp_path)!r}]
runpy.run_module("dcl", run_name="__main__")
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "region_partition.json").read_text())["pass"] is True


# the option strings of every subcommand, pinned from before the flags were derived from _KEYS
_OPTIONS = ["-h", "--help", "--config", "--j", "--lambda", "--s", "--epsilon", "--kmax", "--dt",
            "--T", "--tau-step", "--N-list", "--seed", "--output-dir", "--kdv", "--stride",
            "--mu", "--iterations", "--nt", "--pairs", "--form", "--kbound", "--kmax-verify",
            "--slab-dtau", "--allow-outside-window", "--u0-amplitude", "--u0-mode", "--u0"]

# key -> (its flags, the value they give); every value is valid for `illposed`
_ROUND_TRIP = {
    "j": (["--j", "3"], 3),
    "lambda": (["--lambda", "2"], 2.0),
    "s": (["--s", "0.5"], 0.5),
    "epsilon": (["--epsilon", "1e-4"], 1e-4),
    "kmax": (["--kmax", "8"], 8.0),
    "dt": (["--dt", "0.5"], 0.5),
    "T": (["--T", "3"], 3.0),
    "tau_step": (["--tau-step", "0.5"], 0.5),
    "N_list": (["--N-list", "16,32"], [16, 32]),
    "seed": (["--seed", "7"], 7),
    "kdv": (["--kdv"], True),
    "stride": (["--stride", "3"], 3),
    "mu": (["--mu", "4"], 4.0),
    "iterations": (["--iterations", "2"], 2),
    "nt": (["--nt", "9"], 9),
    "pairs": (["--pairs", "3"], 3),
    "form": (["--form", "product_dx"], "product_dx"),
    "kbound": (["--kbound", "32"], 32.0),
    "kmax_verify": (["--kmax-verify", "8"], 8),
    "slab_dtau": (["--slab-dtau", "0.25"], 0.25),
    "allow_outside_window": (["--allow-outside-window"], True),
    "u0": (["--u0", "zero"], {"type": "zero"}),
}


def _illposed_config(tmp_path, *args):
    assert main(["illposed", *args]) == 0
    return json.loads((tmp_path / "out" / "illposed_verdict.json").read_text())["config"]


class TestConfigTable:
    def test_option_strings_in_order(self):
        subs = _parser()._subparsers._group_actions[0].choices
        assert list(subs) == ["simulate", "illposed", "probe", "rescale-check", "picard",
                              "verify"]
        for name, sub in subs.items():
            got = [s for a in sub._actions for s in (a.option_strings or [a.dest])]
            want = [*_OPTIONS[:2], "target", *_OPTIONS[2:]] if name == "verify" else _OPTIONS
            assert got == want, name

    def test_every_key_has_a_round_trip_case(self):
        assert set(_ROUND_TRIP) | {"output_dir"} == set(_KEYS)

    @pytest.mark.parametrize("key", sorted(_ROUND_TRIP))
    def test_flag_and_config_values_reach_the_report(self, tmp_path, key):
        flags, value = _ROUND_TRIP[key]
        out = ["--output-dir", str(tmp_path / "out")]
        assert _illposed_config(tmp_path, *flags, *out)[key] == value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert _illposed_config(tmp_path, "--config", str(cfg), *out)[key] == value

    def test_output_dir_from_flag_and_config(self, tmp_path):
        where = str(tmp_path / "out")
        assert _illposed_config(tmp_path, "--output-dir", where)["output_dir"] == where
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_dir": where}))
        assert _illposed_config(tmp_path, "--config", str(cfg))["output_dir"] == where

    def test_float_keys_take_json_ints(self, tmp_path):
        floats = [key for key, (_, kind) in _KEYS.items() if kind is float]
        assert {"lambda", "s", "dt", "T", "kbound"} <= set(floats)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 3 for key in floats}))
        assert all(load_config(str(cfg), {})[key] == 3 for key in floats)

    def test_keys_defaulting_to_none_take_null(self, tmp_path):
        nullable = [key for key, (default, _) in _KEYS.items() if default is None]
        assert nullable == ["epsilon", "kmax", "seed"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: None for key in nullable}))
        assert all(load_config(str(cfg), {})[key] is None for key in nullable)
        cfg.write_text(json.dumps({"j": None}))
        assert main(["simulate", "--config", str(cfg)]) == 1

    def test_bool_key_rejects_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kdv": 1}))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "error: config key 'kdv' has wrong type: 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [("simulate", "dt"), ("picard", "iterations"),
                                              ("simulate", "stride"), ("probe", "pairs")])
    def test_number_keys_reject_true(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: True}))
        assert main([command, "--config", str(cfg)]) == 1
        assert f"error: config key '{key}' has wrong type: True" in capsys.readouterr().err

    def test_every_non_bool_key_rejects_true(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for key, (_, kind) in _KEYS.items():
            cfg.write_text(json.dumps({key: True}))
            if kind is bool:
                assert load_config(str(cfg), {})[key] is True
            else:
                with pytest.raises(UsageError, match="wrong type"):
                    load_config(str(cfg), {})

    def test_malformed_config_json_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"T": 0.02,')
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_string_u0_amplitude_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u0": {"type": "cosine", "amplitude": "large"}}))
        assert run(tmp_path, "simulate", "--config", str(cfg), "--kmax", "8",
                   "--T", "0.02", "--dt", "0.01") == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestParserCache:
    def test_one_parser_per_process(self):
        assert _parser() is _parser()

    def test_no_value_leaks_into_the_next_call(self, tmp_path):
        out = ["--output-dir", str(tmp_path / "out")]
        first = _illposed_config(tmp_path, "--kdv", "--N-list", "16,32,64",
                                 "--u0-amplitude", "0.05", *out)
        assert first["kdv"] is True and first["N_list"] == [16, 32, 64]
        assert first["u0"]["amplitude"] == 0.05
        second = _illposed_config(tmp_path, *out)
        fresh_dir = tmp_path / "fresh"
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "dcl", "illposed",
                               "--output-dir", str(fresh_dir)],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        fresh = json.loads((fresh_dir / "illposed_verdict.json").read_text())["config"]
        assert {**second, "output_dir": None} == {**fresh, "output_dir": None}

    def test_help_bytes_repeat(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as stop:
                main(["simulate", "--help"])
            assert stop.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: dcl simulate")
