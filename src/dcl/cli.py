"""Command-line surface: reproducible, scriptable runs of every capability.

Subcommands: simulate, verify, illposed, probe, rescale-check, picard.
Flags mirror the config keys; --config FILE merges a JSON document with the
flags (flags win).  Every command is deterministic given (config, seed) and
embeds the resolved config in its report.  Exit codes: 0 success/PASS,
1 usage or validation error, 2 numerical failure or a FAIL verdict where
the run asserted one.
"""

from __future__ import annotations

import argparse
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
    lattice_ks,
    spectrum_from_json,
    spectrum_to_json,
    x_grid,
)

DEFAULTS = {
    "j": 2,
    "lambda": 1.0,
    "s": -0.25,
    "epsilon": None,
    "kmax": None,
    "dt": 1e-3,
    "T": 1.0,
    "tau_step": 0.25,
    "N_list": [16, 32, 64, 128, 256, 512, 1024],
    "seed": None,
    "output_dir": "dcl-out",
    # extended keys (documented defaults)
    "u0": {"type": "cosine", "amplitude": 0.01, "mode": 1},
    "kdv": False,
    "stride": 1,
    "mu": 2.0,
    "iterations": 8,
    "nt": 1025,
    "pairs": 16,
    "form": "dxdx_smoothed",
    "kbound": 256.0,
    "kmax_verify": 64,
    "allow_outside_window": False,
    "slab_dtau": 0.125,
}

_TYPES = {
    "j": int, "lambda": (int, float), "s": (int, float),
    "epsilon": (int, float, type(None)), "kmax": (int, float, type(None)),
    "dt": (int, float), "T": (int, float),
    "tau_step": (int, float), "N_list": list, "seed": (int, type(None)),
    "output_dir": str, "u0": dict, "kdv": bool, "stride": int,
    "mu": (int, float), "iterations": int, "nt": int, "pairs": int,
    "form": str, "kbound": (int, float), "kmax_verify": int,
    "allow_outside_window": bool, "slab_dtau": (int, float),
}


class UsageError(Exception):
    pass


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = dict(DEFAULTS)
    if path:
        with open(path) as fh:
            doc = json.load(fh)
        unknown = set(doc) - set(DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(doc)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    for key, val in cfg.items():
        if not isinstance(val, _TYPES[key]):
            raise UsageError(f"config key {key!r} has wrong type: {val!r}")
    return cfg


def model_params(cfg: dict) -> ModelParams:
    try:
        return ModelParams(j=cfg["j"], lam=float(cfg["lambda"]),
                           epsilon=cfg["epsilon"], kmax=cfg["kmax"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def initial_spectrum(cfg: dict, params: ModelParams) -> SpatialSpectrum:
    u0 = cfg["u0"]
    kind = u0.get("type", "cosine")
    if kind == "zero":
        return SpatialSpectrum.zeros(params)
    if kind == "cosine":
        amp = float(u0.get("amplitude", 0.01))
        mode = int(u0.get("mode", 1))
        nx = params.default_grid()
        return forward_transform(amp * np.cos(mode * x_grid(params, nx) / params.lam), params)
    if kind == "json":
        return spectrum_from_json(Path(u0["path"]).read_text(), kmax=params.kmax)
    raise UsageError(f"unknown u0 type {kind!r}")


def _write(outdir: Path, name: str, text: str) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text)
    return path


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _resolved(cfg: dict) -> dict:
    return {k: cfg[k] for k in sorted(cfg)}


def _simulate(cfg: dict, u0: SpatialSpectrum, mode: str) -> evolve.Trajectory:
    try:
        return evolve.simulate(u0, float(cfg["T"]), float(cfg["dt"]), mode=mode,
                               stride=cfg["stride"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# -- subcommands -----------------------------------------------------------------

def cmd_simulate(cfg: dict) -> int:
    params = model_params(cfg)
    u0 = initial_spectrum(cfg, params)
    mode = "kdv" if cfg["kdv"] else "full"
    traj = _simulate(cfg, u0, mode)
    outdir = Path(cfg["output_dir"])
    _write(outdir, "trajectory.csv", traj.diagnostics_csv())
    _write(outdir, "final_spectrum.json", spectrum_to_json(traj.states[-1].spec) + "\n")
    report = {
        "config": _resolved(cfg),
        "mode": mode,
        "steps": len(traj.states) - 1,
        "blown_up": traj.blown_up,
        "phase_wrap": traj.phase_wrap,
        "phase_wrap_ok": traj.phase_wrap_ok,
        "energy_drift": abs(traj.diagnostics[-1]["energy"] - traj.diagnostics[0]["energy"])
        / max(traj.diagnostics[0]["energy"], 1e-300),
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
        try:
            report = resonance.verify_resonance_bound(cfg["kmax_verify"], cfg["j"])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        wall = time.perf_counter() - clock
        _write(outdir, "resonance_certificate.json", resonance.certificate_json(report) + "\n")
        ok = report["violations"] == 0 and report["identity_failures"] == 0
        print(f"resonance: {report['triples_checked']} triples, "
              f"{report['violations']} violations, min slack {report['min_slack']:.4f}, "
              f"{wall:.3f} s ({report['triples_checked'] / wall:.3g} triples/s)")
        return 0 if ok else 2
    if target == "regions":
        report = _region_partition_report(params)
        _write(outdir, "region_partition.json", _dump(report))
        print(f"regions: {report['points']} points, unique labels: {report['pass']}")
        return 0 if report["pass"] else 2
    if target == "embeddings":
        try:
            report = bourgain.verify_embeddings(
                float(cfg["s"]), params, kbound=float(cfg["kbound"]),
                allow_outside_window=cfg["allow_outside_window"])
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        _write(outdir, "embedding_report.json", _dump(report))
        _write(outdir, "embedding_scan.csv",
               bourgain.scan_csv(float(cfg["s"]), params, float(cfg["kbound"])))
        print(f"embeddings: s={cfg['s']} -> {'PASS' if report['pass'] else 'FAIL'}")
        return 0 if report["pass"] else 2
    raise UsageError(f"unknown verify target {target!r} "
                     "(choose resonance, embeddings, or regions)")


def _region_partition_report(params: ModelParams, kbound: float = 64.0,
                             sigma_bound: float = 1e4, n_sigma: int = 65) -> dict:
    """Classify a (k, sigma) grid in one call and check each label against the oracle."""
    from .bourgain import REGION_LABELS, region_codes, region_memberships
    from .symbols import dispersion_symbol

    kbound = min(kbound, params.kmax)
    sigmas = np.concatenate([
        np.linspace(-sigma_bound, sigma_bound, n_sigma),
        np.geomspace(1e-3, sigma_bound, 16),
    ])
    ks = [sign * k for k in lattice_ks(kbound, params.lam).tolist() for sign in (1, -1)]
    # P(k) computed as the oracle computes it, so both see the same sigma
    pk = np.array([dispersion_symbol(k, params.j) for k in ks])[:, None]
    taus = pk + sigmas
    codes = region_codes(np.array(ks)[:, None], np.abs(taus - pk), params)
    bad = 0
    for k, row_tau, row_code in zip(ks, taus.tolist(), codes.tolist()):
        for tau, code in zip(row_tau, row_code):
            if code == 0 or not region_memberships(k, tau, params)[REGION_LABELS[code]]:
                bad += 1
    return {"points": codes.size, "mislabels": bad, "pass": bad == 0,
            "kbound": kbound, "sigma_bound": sigma_bound}


def cmd_illposed(cfg: dict) -> int:
    if not cfg["N_list"]:
        raise UsageError("illposed needs a nonempty N_list")
    try:
        ccfg = illposed.CounterexampleConfig(
            j=cfg["j"], s=float(cfg["s"]), N_list=tuple(cfg["N_list"]),
            dtau=float(cfg["slab_dtau"]))
        report = illposed.collision_scan(ccfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    outdir = Path(cfg["output_dir"])
    _write(outdir, "illposed_scan.csv", report.csv())
    doc = report.to_dict()
    doc["config"] = _resolved(cfg)
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
    if cfg["pairs"] < 1:
        raise UsageError("probe needs at least one pair")
    if cfg["form"] not in bourgain.BILINEAR_FORMS:
        raise UsageError(f"form must be one of {bourgain.BILINEAR_FORMS}")
    params = model_params(cfg)
    try:
        report = bourgain.batch_bilinear_probe(
            params, float(cfg["s"]), cfg["form"], cfg["pairs"], cfg["seed"],
            dtau=float(cfg["tau_step"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report["config"] = _resolved(cfg)
    _write(Path(cfg["output_dir"]), "probe.json", _dump(report))
    print(f"probe[{cfg['form']}]: max ratio {report['max_ratio']:.4f}, "
          f"median {report['median_ratio']:.4f} over {cfg['pairs']} pairs")
    return 0


def cmd_rescale_check(cfg: dict) -> int:
    params = model_params(cfg)
    mu = float(cfg["mu"])
    try:
        rescale.rescale_params(params, mu)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    u0 = initial_spectrum(cfg, params)
    mode = "kdv" if cfg["kdv"] else "full"
    traj = _simulate(cfg, u0, mode)
    scaled = rescale.rescale_trajectory(traj, mu)
    detail = evolve.pde_residual(scaled, mode=mode, mu=mu)
    resid = detail["max_residual"]
    tol = 1e-6
    report = {
        "config": _resolved(cfg),
        "mu": mu,
        "residual": resid,
        "differencing_error": detail["differencing_error"],
        "tolerance": tol,
        "pass": resid <= tol,
    }
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
                               report_s=float(cfg["s"]),
                               measure_zs=params.j >= 2)
    try:
        result = evolve.picard_iterate(u0, pcfg, mode="kdv" if cfg["kdv"] else "full")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = {
        "config": _resolved(cfg),
        "ratios_hs": result.ratios_hs,
        "ratios_zs": result.ratios_zs,
        "ratios_at_floor": result.ratios_at_floor,
        "diverged": result.diverged,
        "telemetry": {"phase_s": result.phase_s, "versions": _versions()},
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
    p.add_argument("--j", type=int, dest="j")
    p.add_argument("--lambda", type=float, dest="lambda")
    p.add_argument("--s", type=float, dest="s")
    p.add_argument("--epsilon", type=float, dest="epsilon")
    p.add_argument("--kmax", type=float, dest="kmax")
    p.add_argument("--dt", type=float, dest="dt")
    p.add_argument("--T", type=float, dest="T")
    p.add_argument("--tau-step", type=float, dest="tau_step")
    p.add_argument("--N-list", dest="N_list",
                   type=lambda s: [int(x) for x in s.split(",") if x])
    p.add_argument("--seed", type=int, dest="seed")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--kdv", action="store_const", const=True, dest="kdv")
    p.add_argument("--stride", type=int, dest="stride")
    p.add_argument("--mu", type=float, dest="mu")
    p.add_argument("--iterations", type=int, dest="iterations")
    p.add_argument("--nt", type=int, dest="nt")
    p.add_argument("--pairs", type=int, dest="pairs")
    p.add_argument("--form", dest="form")
    p.add_argument("--kbound", type=float, dest="kbound")
    p.add_argument("--kmax-verify", type=int, dest="kmax_verify")
    p.add_argument("--slab-dtau", type=float, dest="slab_dtau")
    p.add_argument("--allow-outside-window", action="store_const", const=True,
                   dest="allow_outside_window")
    p.add_argument("--u0-amplitude", type=float, dest="u0_amplitude")
    p.add_argument("--u0-mode", type=int, dest="u0_mode")
    p.add_argument("--u0", dest="u0_kind",
                   help="initial data: zero, cosine, or json:PATH")


def _collect_overrides(ns: argparse.Namespace) -> dict:
    keys = set(DEFAULTS) - {"u0"}
    over = {k: getattr(ns, k, None) for k in keys}
    u0 = None
    if getattr(ns, "u0_kind", None):
        kind = ns.u0_kind
        if kind.startswith("json:"):
            u0 = {"type": "json", "path": kind[5:]}
        else:
            u0 = {"type": kind}
    if getattr(ns, "u0_amplitude", None) is not None or getattr(ns, "u0_mode", None) is not None:
        u0 = u0 or dict(DEFAULTS["u0"])
        if ns.u0_amplitude is not None:
            u0["amplitude"] = ns.u0_amplitude
        if ns.u0_mode is not None:
            u0["mode"] = ns.u0_mode
    over["u0"] = u0
    return over


def main(argv=None) -> int:
    parser = _Parser(prog="dcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "illposed", "probe", "rescale-check", "picard"):
        _add_common(sub.add_parser(name))
    pv = sub.add_parser("verify")
    pv.add_argument("target", choices=["resonance", "embeddings", "regions"])
    _add_common(pv)
    try:
        ns = parser.parse_args(argv)
        cfg = load_config(getattr(ns, "config", None), _collect_overrides(ns))
        if ns.command == "simulate":
            return cmd_simulate(cfg)
        if ns.command == "verify":
            return cmd_verify(cfg, ns.target)
        if ns.command == "illposed":
            return cmd_illposed(cfg)
        if ns.command == "probe":
            return cmd_probe(cfg)
        if ns.command == "rescale-check":
            return cmd_rescale_check(cfg)
        return cmd_picard(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
