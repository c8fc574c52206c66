"""Exit codes, file formats, determinism, and config merging of the command line."""

import importlib.metadata
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dcl import evolve, rescale
from dcl.cli import _region_partition_report, main
from dcl.lattice import ModelParams


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
                            "min_slack", "argmin"}

    def test_resonance_line_reports_wall_time_and_rate(self, tmp_path, capsys):
        assert run(tmp_path, "verify", "resonance", "--kmax-verify", "8") == 0
        line = capsys.readouterr().out.strip()
        assert re.fullmatch(r"resonance: \d+ triples, 0 violations, min slack [\d.]+, "
                            r"[\d.]+ s \([\d.e+]+ triples/s\)", line), line

    def test_resonance_box_below_two_exit_one(self, tmp_path):
        assert run(tmp_path, "verify", "resonance", "--kmax-verify", "1") == 1

    def test_regions_totality(self, tmp_path):
        assert run(tmp_path, "verify", "regions", "--kmax", "8") == 0

    def test_regions_box_stops_at_kbound(self):
        # 2.6 * lam is no lattice index: the box is k = 1, 2 (both signs), 81 sigmas each
        for lam, n in ((1.0, 2), (2.0, 5)):
            report = _region_partition_report(ModelParams(j=2, lam=lam, kmax=8.0), kbound=2.6)
            assert report["points"] == 2 * n * 81 and report["pass"]

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

    @pytest.mark.parametrize("kbound", ["0", "inf"])
    def test_embeddings_box_without_a_lattice_k_exit_one(self, tmp_path, kbound):
        assert run(tmp_path, "verify", "embeddings", "--s", "-0.25", "--kbound", kbound) == 1

    def test_embeddings_fail_exit_when_forced(self, tmp_path):
        assert run(tmp_path, "verify", "embeddings", "--s", "-2.0", "--kbound", "32",
                   "--kmax", "4", "--allow-outside-window") == 2


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

    def test_missing_n_list_exit_one(self, tmp_path):
        assert run(tmp_path, "illposed", "--N-list", "") == 1

    def test_nonpositive_side_exit_one(self, tmp_path):
        assert run(tmp_path, "illposed", "--s", "-200", "--N-list", "16,32,64") == 1


class TestProbe:
    def test_seed_mandatory(self, tmp_path):
        assert run(tmp_path, "probe", "--pairs", "2", "--kmax", "8") == 1

    def test_zero_pairs_rejected(self, tmp_path):
        assert run(tmp_path, "probe", "--pairs", "0", "--seed", "1", "--kmax", "8") == 1

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

    @pytest.mark.parametrize("tau_step", ["0", "-0.25", "nan", "inf"])
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
