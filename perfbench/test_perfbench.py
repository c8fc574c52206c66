"""Smoke test of the benchmark itself, at tiny problem sizes.

It checks the output contract (every metric of BENCHMARK.json, by name and
unit, in both modes), that a check handed a corrupted output counts a
failed op, and that the benchmark refuses to run without the dcl sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

harness.import_dcl()
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_harness():
    assert _units("end_to_end") == harness.END_TO_END
    assert _units("per_layer") == harness.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(name, trace):
    line, record = run.run(name, seed=3, seconds=0.05, trace=trace, tiny=True)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    units = _units("end_to_end" if trace == 0 else "per_layer")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    for metric in line["metrics"].values():
        assert math.isfinite(metric["value"])
    prov = record["provenance"]
    assert prov["seed"] == 3 and prov["thread_env"] and prov["dcl_version"]
    if trace == 0:
        assert all(line["metrics"][m]["value"] > 0 for m in units)
        assert record["latency"]["ops"] >= harness.MIN_OPS


def test_command_prints_result_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "simulate", "--seed", "1",
         "--seconds", "0.05", "--trace", "0", "--tiny"],
        capture_output=True, text=True, timeout=120, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True


def _failures(wl, corrupted):
    tally = harness.Tally()
    harness.run_ops(harness.one_call(lambda: corrupted), wl.check, 0.0, 3, tally, wl.work,
                    harness.SpeedProbe(1))
    return tally


def _corruptions(name, wl, good):
    if name == "simulate":
        amps = good.spec.amps.copy()
        amps[-1] += 1e-3  # breaks Hermitian symmetry
        nan = good.spec.amps.copy()
        nan[1] = np.nan
        return [replace(good, blown_up=True), replace(good, mean=1.0),
                replace(good, spec=good.spec.with_amps(amps)),
                replace(good, spec=good.spec.with_amps(nan)),
                replace(good, energy1=good.energy0 * (1 + 1e-5))]
    if name == "picard":
        return [replace(good, diverged=True),
                replace(good, ratios_hs=[*good.ratios_hs[:-1], 1.0]),
                replace(good, final=np.full_like(good.final, np.nan))]
    if name == "probe":
        return [math.nan, -good, 0.0, None]
    bad_exit = dict(good, **{"rescale": 2})
    return [bad_exit]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_corrupted_output_counts_as_failure(name):
    wl = workloads.WORKLOADS[name](5, tiny=True)
    try:
        good = wl.op()
        assert wl.check(good) is None
        for bad in _corruptions(name, wl, good):
            tally = _failures(wl, bad)
            assert tally.failed == tally.attempted == 3, bad
    finally:
        wl.close()


def test_certify_wrong_verdict_counts_as_failure():
    wl = workloads.Certify(5, tiny=True)
    try:
        codes = wl.op()
        path = wl.workdir / "illposed0.25" / "illposed_verdict.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(dict(doc, verdict="BREAKS")))
        assert "illposed" in wl.check(codes)
    finally:
        wl.close()


def test_traced_mismatch_counts_as_failure():
    wl = workloads.Probe(5, tiny=True)
    real = wl.traced_op
    wl.traced_op = lambda tr: (real(tr)[0], "differs")
    tally = harness.Tally()
    values, _ = run._traced(wl, 5, 0.0, True, tally, {})
    assert tally.attempted == 4 and tally.failed == 2  # 2 untraced ops, then 2 traced ones
    assert values["fail_frac"] == 0.5


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
