"""Command-line surface: reproducible, scriptable runs of every capability.

Subcommands: simulate, verify, illposed, probe, rescale-check, picard.
Flags mirror the config keys: a key's flag is -- plus the key with _ written
as - (u0 takes --u0, --u0-amplitude and --u0-mode).  --config FILE merges a
JSON document with the flags (flags win).  Every command is deterministic
given (config, seed) and embeds the resolved config in its report.  Exit
codes: 0 success/PASS, 1 usage or validation error (any ValueError, printed
as "error: ..."), 2 numerical failure or a FAIL verdict where the run
asserted one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, bourgain, evolve, illposed, rescale, resonance
from .lattice import (
    ModelParams,
    SpatialSpectrum,
    forward_transform,
    spectrum_from_json,
    spectrum_to_json,
    x_grid,
)

# Every config key, declared once: key -> (default, type), in flag order.  In a
# config file a float key takes an int too, only a bool key takes true or
# false, and a key whose default is None takes null.
_KEYS = {
    "j": (2, int),
    "lambda": (1.0, float),
    "s": (-0.25, float),
    "epsilon": (None, float),
    "kmax": (None, float),
    "dt": (1e-3, float),
    "T": (1.0, float),
    "tau_step": (0.25, float),
    "N_list": ([16, 32, 64, 128, 256, 512, 1024], list),
    "seed": (None, int),
    "output_dir": ("dcl-out", str),
    "kdv": (False, bool),
    "stride": (1, int),
    "mu": (2.0, float),
    "iterations": (8, int),
    "nt": (1025, int),
    "pairs": (16, int),
    "form": ("dxdx_smoothed", str),
    "kbound": (256.0, float),
    "kmax_verify": (64, int),
    "slab_dtau": (0.125, float),
    "allow_outside_window": (False, bool),
    "u0": ({"type": "cosine", "amplitude": 0.01, "mode": 1}, dict),
}

DEFAULTS = {key: default for key, (default, _) in _KEYS.items()}


class UsageError(ValueError):
    """A fault only the command line can see: a bad flag, config key, u0 or input file."""


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as err:
        raise UsageError(f"cannot read {what} {path!r}: {err.strerror or err}") from err


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = dict(DEFAULTS)
    if path:
        doc = json.loads(_read_text(path, "config file"))
        if not isinstance(doc, dict):
            raise UsageError(f"config file {path!r} must hold a JSON object, "
                             f"got {json.dumps(doc)[:40]}")
        unknown = set(doc) - set(DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(doc)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    for key, val in cfg.items():
        default, kind = _KEYS[key]
        if not (isinstance(val, (int, float) if kind is float else kind)
                and isinstance(val, bool) == (kind is bool)
                or (val is None and default is None)):
            raise UsageError(f"config key {key!r} has wrong type: {val!r}")
    return cfg


def model_params(cfg: dict) -> ModelParams:
    return ModelParams(j=cfg["j"], lam=float(cfg["lambda"]),
                       epsilon=cfg["epsilon"], kmax=cfg["kmax"])


def initial_spectrum(cfg: dict, params: ModelParams) -> SpatialSpectrum:
    u0 = cfg["u0"]
    kind = u0.get("type", "cosine")
    if kind == "zero":
        return SpatialSpectrum.zeros(params)
    if kind == "cosine":
        amp, mode = u0.get("amplitude", 0.01), u0.get("mode", 1)
        if isinstance(amp, bool) or not isinstance(amp, (int, float)):
            raise UsageError(f"u0 amplitude must be a real number, got {amp!r}")
        if not math.isfinite(amp):
            raise UsageError(f"u0 amplitude must be finite, got {amp}")
        if isinstance(mode, bool) or not isinstance(mode, int):
            raise UsageError(f"u0 mode must be an int, got {mode!r}")
        if not 1 <= abs(mode) <= params.nmax:  # mode 0 is the excluded mean; past nmax aliases
            raise UsageError(f"u0 mode must satisfy 1 <= |mode| <= nmax = {params.nmax} "
                             f"(kmax * lambda), got {mode}")
        nx = params.default_grid()
        return forward_transform(amp * np.cos(mode * x_grid(params, nx) / params.lam), params)
    if kind == "json":
        if not isinstance(u0.get("path"), str):
            raise UsageError(f"u0 type 'json' needs a path, got {u0.get('path')!r}")
        spec = spectrum_from_json(_read_text(u0["path"], "u0 file"), kmax=params.kmax)
        for key, theirs, ours in (("j", spec.params.j, params.j),
                                  ("lambda", spec.params.lam, params.lam)):
            if theirs != ours:
                raise UsageError(f"u0 file has {key} = {theirs!r}, the run has {key} = {ours!r}")
        return SpatialSpectrum(params, spec.amps)
    raise UsageError(f"unknown u0 type {kind!r}")


def _write(outdir: Path, name: str, text: str) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text)
    return path


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _simulate(cfg: dict, u0: SpatialSpectrum, mode: str) -> evolve.Trajectory:
    return evolve.simulate(u0, float(cfg["T"]), float(cfg["dt"]), mode=mode,
                           stride=cfg["stride"])


# -- subcommands -----------------------------------------------------------------

def cmd_simulate(cfg: dict) -> int:
    params = model_params(cfg)
    u0 = initial_spectrum(cfg, params)
    mode = "kdv" if cfg["kdv"] else "full"
    traj = _simulate(cfg, u0, mode)
    outdir = Path(cfg["output_dir"])
    _write(outdir, "trajectory.csv", traj.diagnostics_csv())
    final = SpatialSpectrum(params, traj.amps[-1])
    _write(outdir, "final_spectrum.json", spectrum_to_json(final) + "\n")
    e0, e1 = traj.diag["energy"][[0, -1]].tolist()
    report = {
        "config": cfg,
        "mode": mode,
        "steps": round(traj.times[-1] / traj.dt),  # to the last recorded state, any stride
        "blown_up": traj.blown_up,
        "phase_wrap": traj.phase_wrap,
        "phase_wrap_ok": traj.phase_wrap_ok,
        "energy_drift": abs(e1 - e0) / max(e0, 1e-300),
    }
    _write(outdir, "run.json", _dump(report))
    if not traj.phase_wrap_ok:
        trusted_dt = evolve.PHASE_WRAP_LIMIT * traj.dt / traj.phase_wrap  # LIMIT / max|P(k)|
        print(f"warning: phase wrap dt*max|P(k)| = {traj.phase_wrap:.4g} rad is not below "
              f"{evolve.PHASE_WRAP_LIMIT:g} rad; at this kmax a step is trusted only for "
              f"dt < {trusted_dt:.3g} (or lower kmax)", file=sys.stderr)
    print(f"simulate: {report['steps']} steps, energy drift {report['energy_drift']:.3e}")
    return 2 if traj.blown_up else 0


def cmd_verify(cfg: dict, target: str) -> int:
    params = model_params(cfg)
    outdir = Path(cfg["output_dir"])
    if target == "resonance":
        clock = time.perf_counter()
        report = resonance.verify_resonance_bound(cfg["kmax_verify"], cfg["j"])
        wall = time.perf_counter() - clock
        report["config"] = cfg
        _write(outdir, "resonance_certificate.json", resonance.certificate_json(report) + "\n")
        print(f"resonance: {report['triples_checked']} triples, "
              f"{report['violations']} violations, min slack {report['min_slack']:.4f}, "
              f"{wall:.3f} s ({report['triples_checked'] / wall:.3g} triples/s)")
        return 0 if report["violations"] == 0 else 2
    if target == "regions":
        report = bourgain.verify_regions(params)
        report["config"] = cfg
        _write(outdir, "region_partition.json", _dump(report))
        print(f"regions: {report['points']} points, {report['mislabels']} mislabels")
        return 0 if report["pass"] else 2
    # target == "embeddings" (argparse allows only the three)
    report = bourgain.verify_embeddings(
        float(cfg["s"]), params, kbound=float(cfg["kbound"]),
        allow_outside_window=cfg["allow_outside_window"])
    report["config"] = cfg
    _write(outdir, "embedding_report.json", _dump(report))
    _write(outdir, "embedding_scan.csv",
           bourgain.scan_csv(float(cfg["s"]), params, float(cfg["kbound"])))
    print(f"embeddings: s={cfg['s']} -> {'PASS' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 2


def cmd_illposed(cfg: dict) -> int:
    report = illposed.collision_scan(illposed.CounterexampleConfig(
        j=cfg["j"], s=float(cfg["s"]), N_list=tuple(cfg["N_list"]),
        dtau=float(cfg["slab_dtau"])))
    outdir = Path(cfg["output_dir"])
    _write(outdir, "illposed_scan.csv", report.csv())
    doc = report.to_dict()
    doc["config"] = cfg
    _write(outdir, "illposed_verdict.json", _dump(doc))
    _write(outdir, "plot_illposed.py", _PLOT_SCRIPT)
    if report.verdict is None:
        print("illposed: fewer than 3 frequencies, raw table only")
    else:
        print(f"illposed: slopeL={report.slope_L:.3f} slopeR={report.slope_R:.3f} "
              f"-> {report.verdict}")
    return 0


def cmd_probe(cfg: dict) -> int:
    if cfg["seed"] is None:
        raise UsageError("probe runs are randomized: a seed is mandatory")
    report = bourgain.batch_bilinear_probe(
        model_params(cfg), float(cfg["s"]), cfg["form"], cfg["pairs"], cfg["seed"],
        dtau=float(cfg["tau_step"]))
    report["config"] = cfg
    _write(Path(cfg["output_dir"]), "probe.json", _dump(report))
    print(f"probe[{cfg['form']}]: max ratio {report['max_ratio']:.4f}, "
          f"median {report['median_ratio']:.4f} over {cfg['pairs']} pairs")
    return 0


def cmd_rescale_check(cfg: dict) -> int:
    params = model_params(cfg)
    mu = float(cfg["mu"])
    rescale.rescale_params(params, mu)  # a bad mu fails before the simulation runs
    u0 = initial_spectrum(cfg, params)
    mode = "kdv" if cfg["kdv"] else "full"
    traj = _simulate(cfg, u0, mode)
    tol = 1e-6
    report = {"config": cfg, "mu": mu, "blown_up": traj.blown_up, "residual": None,
              "differencing_error": None, "tolerance": tol, "pass": False}
    if traj.blown_up:  # a residual of the finite prefix would judge a run that did not finish
        _write(Path(cfg["output_dir"]), "rescale_check.json", _dump(report))
        print(f"rescale-check: the run blew up before T={cfg['T']} (last state kept at "
              f"t={traj.times[-1]:.6g}); no residual taken", file=sys.stderr)
        return 2
    detail = evolve.pde_residual(rescale.rescale_trajectory(traj, mu), mode=mode, mu=mu)
    resid = report["residual"] = detail["max_residual"]
    report["differencing_error"] = detail["differencing_error"]
    report["pass"] = resid <= tol
    _write(Path(cfg["output_dir"]), "rescale_check.json", _dump(report))
    print(f"rescale-check: mu={mu} residual {resid:.3e} "
          f"({'PASS' if report['pass'] else 'FAIL'})")
    return 0 if report["pass"] else 2


def _versions() -> dict:
    """The dcl, numpy and scipy versions; scipy's is read from its metadata, None if absent.

    scipy is not imported: the import alone costs ~0.3 s and ~27 MB.
    importlib.metadata (~20 ms) is imported here, not with the module,
    because only the picard report needs it.
    """
    import importlib.metadata

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"dcl": __version__, "numpy": np.__version__, "scipy": scipy_version}


def cmd_picard(cfg: dict) -> int:
    params = model_params(cfg)
    u0 = initial_spectrum(cfg, params)
    pcfg = evolve.PicardConfig(iterations=cfg["iterations"], nt=cfg["nt"],
                               report_s=float(cfg["s"]))
    result = evolve.picard_iterate(u0, pcfg, mode="kdv" if cfg["kdv"] else "full")
    report = {
        "config": cfg,
        "ratios_hs": result.ratios_hs,
        "ratios_zs": result.ratios_zs,
        "ratios_at_floor": result.ratios_at_floor,
        "diverged": result.diverged,
        "telemetry": {"phase_s": result.phase_s, "grid_nx": params.default_grid(pad=2),
                      "quadrature_wrap": result.quadrature_wrap, "versions": _versions()},
    }
    _write(Path(cfg["output_dir"]), "picard.json", _dump(report))
    shown = ", ".join(f"{r:.3g}" for r in result.ratios_hs[:6])
    print(f"picard: contraction ratios [{shown}] diverged={result.diverged}")
    return 2 if result.diverged else 0


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Plots illposed_scan.csv (generated alongside); plotting stays outside the core.
import csv
import sys

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(sys.argv[1] if len(sys.argv) > 1 else "illposed_scan.csv")))
N = [float(r["N"]) for r in rows]
plt.loglog(N, [float(r["L"]) for r in rows], "o-", label="bilinear response L(N)")
plt.loglog(N, [float(r["R"]) for r in rows], "s-", label="input product R(N)")
plt.xlabel("N")
plt.legend()
plt.title("collision scan")
plt.savefig("illposed_scan.png", dpi=150)
print("wrote illposed_scan.png")
"""


# -- argument plumbing -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are exit 1
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_common(p: _Parser):
    p.add_argument("--config", help="JSON config file; flags override its keys")
    for key, (_, kind) in _KEYS.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, action="store_const", const=True, dest=key)
        elif kind is list:  # N_list: comma-separated ints
            p.add_argument(flag, dest=key, type=lambda s: [int(x) for x in s.split(",") if x])
        elif kind is not dict:  # u0 has the three flags below
            p.add_argument(flag, type=kind, dest=key)
    p.add_argument("--u0-amplitude", type=float, dest="u0_amplitude")
    p.add_argument("--u0-mode", type=int, dest="u0_mode")
    p.add_argument("--u0", dest="u0_kind",
                   help="initial data: zero, cosine, or json:PATH")


def _collect_overrides(ns: argparse.Namespace) -> dict:
    over = {k: getattr(ns, k) for k in DEFAULTS if k != "u0"}
    kind, u0 = ns.u0_kind, None
    if kind:
        u0 = {"type": "json", "path": kind[5:]} if kind.startswith("json:") else {"type": kind}
    given = {k: v for k, v in (("amplitude", ns.u0_amplitude), ("mode", ns.u0_mode))
             if v is not None}
    if given:  # on the default cosine unless --u0 names a kind
        u0 = {**(u0 or DEFAULTS["u0"]), **given}
    over["u0"] = u0
    return over


# name -> (command, choices of its target argument or None), in --help order
_COMMANDS = {
    "simulate": (cmd_simulate, None),
    "illposed": (cmd_illposed, None),
    "probe": (cmd_probe, None),
    "rescale-check": (cmd_rescale_check, None),
    "picard": (cmd_picard, None),
    "verify": (cmd_verify, ("resonance", "embeddings", "regions")),
}


@functools.cache  # one parse tree per process: parse_args keeps no state in it
def _parser() -> _Parser:
    parser = _Parser(prog="dcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, targets) in _COMMANDS.items():
        p = sub.add_parser(name)
        if targets:
            p.add_argument("target", choices=targets)
        _add_common(p)
    return parser


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
        cfg = load_config(ns.config, _collect_overrides(ns))
        command, targets = _COMMANDS[ns.command]
        return command(cfg, ns.target) if targets else command(cfg)
    except ValueError as err:  # UsageError and every library validation
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ArithmeticError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
