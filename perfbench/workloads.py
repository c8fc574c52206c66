"""The four workloads of the dcl benchmark, and the layer micro-timings.

Every workload builds its inputs from the seed alone and hands dcl only
the generated spectra and configs.  Each exposes

    op()               one untraced op through the public dcl API
    check(out)         None when the output is correct, else the reason
    work(out)          work units the op completed
    traced_op(tracer)  the same op driven through the public pieces it is
                       made of, with a span around each; returns
                       (out, mismatch), where mismatch names any difference
                       from the untraced op's output on the same input
    layer_metrics(tr)  the per-layer metrics this workload owns
    close()            removes what the workload wrote
    plan()             (calls, join): the op as calls timed one by one
    probe_reps         kernel runs per machine-speed sample (see
                       harness.SpeedProbe), about 2% of an op's time

Why each workload exists is in README.md.  Import this module only after
harness.import_dcl() has put this checkout's dcl on the path.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from dcl import bourgain, cli, evolve, lattice, symbols
from dcl.lattice import ModelParams, SpatialSpectrum

from harness import OUT_DIR, median_or_zero, one_call

S_PROBE = -0.25
ENERGY_DRIFT_TOL = 1e-6  # per op; the acceptance suite's conservation tolerance


def broadband(params: ModelParams, rng, amplitude: float = 0.01) -> SpatialSpectrum:
    """Seeded rough data: mean zero, Hermitian, |amp(k)| ~ amplitude / <k>."""
    m = params.nmax
    k = params.k_values()[m + 1:]
    pos = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2.0)
    pos *= amplitude / lattice.bracket(k)
    amps = np.zeros(2 * m + 1, dtype=complex)
    amps[m + 1:] = pos
    amps[:m] = np.conj(pos[::-1])
    return SpatialSpectrum(params, amps)


def _ms(values):
    return median_or_zero(values, 1e3)


class Workload:
    """An op that is one public call; Certify splits its op into commands."""

    def plan(self):
        return one_call(self.op)()

    def close(self):
        pass


# -- simulate --------------------------------------------------------------------

@dataclass
class SimOut:
    spec: SpatialSpectrum
    mean: float
    energy0: float
    energy1: float
    blown_up: bool


class Simulate(Workload):
    """One evolve.simulate call over a fixed block of steps, chained op to op."""

    name = "simulate"
    work_unit = "RK4 steps"
    probe_reps = 2
    op_span = "evolve.simulate_op"
    owned = ("evolve.step_us", "evolve.step_share", "evolve.stepper_init_us",
             "evolve.diag_us", "evolve.steps", "evolve.phase_wrap", "evolve.energy_drift")

    def __init__(self, seed: int, tiny: bool = False):
        self.params = ModelParams(j=2, lam=1.0, kmax=16.0 if tiny else 128.0)
        self.dt = 1e-4
        self.block = 5 if tiny else 50
        self.T = self.block * self.dt
        if round(self.T / self.dt) * self.dt != self.T:
            raise ValueError("the block length must be an exact multiple of dt")
        self.spec = broadband(self.params, np.random.default_rng(seed))
        self.mean = 0.0
        self.energy_initial = self._energy(self.spec)
        self.phase_wrap = 0.0
        self.config = {"j": 2, "lambda": 1.0, "kmax": self.params.kmax, "dt": self.dt,
                       "steps_per_op": self.block, "mode": "full",
                       "data": "broadband 0.01/<k>"}

    def _energy(self, spec):
        # the energy simulate() reports: the mean-zero part plus the mean's share
        return evolve.energy(spec) + 2.0 * math.pi * self.params.lam * self.mean ** 2

    def op(self):
        traj = evolve.simulate(self.spec, self.T, self.dt, mode="full", mean=self.mean,
                               stride=self.block)
        last = traj.states[-1]
        out = SimOut(last.spec, last.mean, traj.diagnostics[0]["energy"],
                     traj.diagnostics[-1]["energy"], traj.blown_up)
        self.spec = last.spec
        return out

    def check(self, out):
        if out.blown_up:
            return "simulate: blew up"
        if not np.all(np.isfinite(out.spec.amps)):
            return "simulate: nonfinite amplitudes"
        if out.mean != self.mean:
            return f"simulate: mean changed to {out.mean!r}"
        if not out.spec.is_hermitian():
            return "simulate: state is no longer Hermitian"
        drift = abs(out.energy1 - out.energy0) / out.energy0
        if not drift <= ENERGY_DRIFT_TOL:
            return f"simulate: energy drift {drift:.3g} per op"
        return None

    def work(self, out):
        return self.block

    def traced_op(self, tr):
        u0, c, p = self.spec, self.mean, self.params
        with tr.span(self.op_span):
            with tr.span("evolve.stepper_init"):
                stepper = evolve.IntegratingFactorRK4(p, self.dt, mode="full", mu=1.0)
            with tr.span("evolve.diag"):
                e0 = self._energy(u0)
                h1_0 = max(lattice.hs_norm(u0, 1.0), 1e-300)
            state = evolve.SolverState(0.0, u0, c)
            blown_up = False
            for n in range(1, self.block + 1):
                with tr.span("evolve.step"):
                    try:
                        state = stepper.step(state)
                    except FloatingPointError:
                        blown_up = True
                if blown_up:
                    break
                state = evolve.SolverState(n * self.dt, state.spec, state.mean)
                with tr.span("evolve.blowup_check"):
                    blown_up = lattice.hs_norm(state.spec, 1.0) > 1e6 * h1_0
                if blown_up:
                    break
            with tr.span("evolve.diag"):
                e1 = self._energy(state.spec)
                lattice.hs_norm(state.spec, 1.0)
        self.phase_wrap = stepper.phase_wrap
        out = SimOut(state.spec, state.mean, e0, e1, blown_up)
        ref = self.op()  # untraced, from the same u0; leaves self.spec at its end state
        same = (np.array_equal(ref.spec.amps, out.spec.amps) and ref.energy0 == e0
                and ref.energy1 == e1 and ref.blown_up == blown_up)
        return out, None if same else "simulate: traced op differs from simulate()"

    def layer_metrics(self, tr):
        steps = tr.durations("evolve.step")
        walls = tr.durations(self.op_span)
        return {
            "evolve.step_us": median_or_zero(steps, 1e6),
            "evolve.step_share": sum(steps) / sum(walls) if walls else 0.0,
            "evolve.stepper_init_us": median_or_zero(tr.durations("evolve.stepper_init"), 1e6),
            "evolve.diag_us": median_or_zero(tr.per_op_totals("evolve.diag"), 1e6),
            "evolve.steps": len(steps),
            "evolve.phase_wrap": self.phase_wrap,
            "evolve.energy_drift": abs(self._energy(self.spec) - self.energy_initial)
            / self.energy_initial,
        }


# -- picard ----------------------------------------------------------------------

@dataclass
class PicardOut:
    final: np.ndarray
    ratios_hs: list
    ratios_zs: list
    diverged: bool


class Picard(Workload):
    """One evolve.picard_iterate on the seeded data, with its Z^s measurement."""

    name = "picard"
    work_unit = "Picard iterations"
    probe_reps = 150
    op_span = "evolve.picard_op"
    owned = ("evolve.picard_core_ms", "evolve.picard_ratio_max",
             "bourgain.from_time_samples_ms", "bourgain.zs_norm_dense_ms")

    def __init__(self, seed: int, tiny: bool = False):
        self.params = ModelParams(j=2, lam=1.0, kmax=16.0 if tiny else 128.0)
        self.u0 = broadband(self.params, np.random.default_rng(seed))
        # 3 iterations (2 contraction ratios) keep an op near 0.5 s: long ops
        # see the machine's speed change in mid-op, which calibration misses
        self.cfg = evolve.PicardConfig(iterations=3, nt=129 if tiny else 1025,
                                       report_s=S_PROBE, measure_zs=True)
        self.reference = None
        self.ratio_max = 0.0
        self.config = {"j": 2, "kmax": self.params.kmax, "nt": self.cfg.nt,
                       "iterations": self.cfg.iterations, "s": S_PROBE,
                       "measure_zs": True, "data": "broadband 0.01/<k>"}

    def op(self):
        r = evolve.picard_iterate(self.u0, self.cfg)
        return PicardOut(r.iterates[-1], r.ratios_hs, r.ratios_zs, r.diverged)

    def check(self, out):
        if out.diverged:
            return "picard: diverged"
        if not all(r < 1.0 for r in out.ratios_hs):
            return f"picard: H^s ratio >= 1 in {out.ratios_hs}"
        if not np.all(np.isfinite(out.final)):
            return "picard: nonfinite iterate"
        return None

    def work(self, out):
        return self.cfg.iterations

    def traced_op(self, tr):
        cfg, p = self.cfg, self.params
        with tr.span(self.op_span):
            with tr.span("evolve.picard_core"):
                r = evolve.picard_iterate(self.u0, replace(cfg, measure_zs=False))
            diffs = []
            for i in range(1, len(r.iterates)):
                with tr.span("evolve.picard_diff"):
                    d = r.iterates[i] - r.iterates[i - 1]
                with tr.span("bourgain.from_time_samples"):
                    st = bourgain.from_time_samples(r.t_grid, d, p, dtau=cfg.zs_dtau)
                with tr.span("bourgain.zs_norm_dense"):
                    diffs.append(bourgain.zs_norm(st, cfg.report_s))
            ratios_zs = [diffs[i] / diffs[i - 1] if diffs[i - 1] > 0 else math.inf
                         for i in range(1, len(diffs))]
        out = PicardOut(r.iterates[-1], r.ratios_hs, ratios_zs, r.diverged)
        self.ratio_max = max([self.ratio_max, *out.ratios_hs, *out.ratios_zs])
        if self.reference is None:  # every op has the same input, so one reference serves
            ref = self.op()
            self.reference = replace(ref, final=ref.final.copy())  # frees the iterate stack
        ref = self.reference
        same = (np.array_equal(ref.final, out.final) and ref.ratios_hs == out.ratios_hs
                and ref.ratios_zs == out.ratios_zs and ref.diverged == out.diverged)
        return out, None if same else "picard: traced op differs from picard_iterate()"

    def layer_metrics(self, tr):
        return {
            "evolve.picard_core_ms": _ms(tr.durations("evolve.picard_core")),
            "evolve.picard_ratio_max": self.ratio_max,
            "bourgain.from_time_samples_ms": _ms(tr.per_op_totals("bourgain.from_time_samples")),
            "bourgain.zs_norm_dense_ms": _ms(tr.per_op_totals("bourgain.zs_norm_dense")),
        }


# -- probe -----------------------------------------------------------------------

class Probe(Workload):
    """One seeded pair through bourgain.batch_bilinear_probe(count=1, workers=1)."""

    name = "probe"
    work_unit = "probe pairs"
    probe_reps = 25
    op_span = "bourgain.probe_op"
    form = "dxdx_smoothed"
    dtau = 0.25
    owned = ("bourgain.random_spectrum_ms", "bourgain.bilinear_output_ms",
             "bourgain.st_convolve_ms", "bourgain.zs_norm_in_ms", "bourgain.zs_norm_out_ms",
             "bourgain.xsb_norm_ms", "bourgain.ys_norm_ms", "bourgain.band_pairs",
             "bourgain.cells_out", "bourgain.segments_out", "bourgain.kept_frac",
             "bourgain.pair_kmax_exponent")

    def __init__(self, seed: int, tiny: bool = False):
        self.params = ModelParams(j=2, lam=1.0, kmax=8.0 if tiny else 32.0)
        self.exponent_kmax = (4.0, 8.0) if tiny else (16.0, 32.0)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.counts = {}
        self.config = {"j": 2, "kmax": self.params.kmax, "form": self.form, "s": S_PROBE,
                       "tau_step": self.dtau, "pairs_per_op": 1, "workers": 1,
                       "exponent_kmax": list(self.exponent_kmax)}

    def _pair_seed(self):
        return int(self.rng.integers(0, 2**63 - 1))

    def _batch(self, pair_seed):
        rep = bourgain.batch_bilinear_probe(self.params, S_PROBE, self.form, 1, pair_seed,
                                            dtau=self.dtau, workers=1)
        return rep["ratios"][0]

    def op(self):
        return self._batch(self._pair_seed())

    def check(self, ratio):
        if ratio is None or not math.isfinite(ratio) or ratio <= 0.0:
            return f"probe: ratio {ratio!r} is not finite and positive"
        return None

    def work(self, ratio):
        return 1

    def traced_op(self, tr):
        p, s, seed = self.params, S_PROBE, self._pair_seed()
        with tr.span(self.op_span):
            with tr.span("bourgain.random_spectrum"):
                # batch_bilinear_probe draws each pair's seed from its own seed
                ps = int(np.random.default_rng(seed).integers(0, 2**63 - 1, size=1)[0])
                r = np.random.default_rng(ps)
                u = bourgain.random_spectrum(p, r, dtau=self.dtau)
                v = bourgain.random_spectrum(p, r, dtau=self.dtau)
            with tr.span("bourgain.zs_norm_in"):
                zu = bourgain.zs_norm(u, s)
            with tr.span("bourgain.zs_norm_in"):
                zv = bourgain.zs_norm(v, s)
            with tr.span("bourgain.bilinear_output"):
                out = bourgain.bilinear_output(u, v, self.form)
            with tr.span("bourgain.zs_norm_out"):
                zout = bourgain.zs_norm(out, s)
            ratio = zout / (zu * zv)
        # layer timings on the op's own data, outside the op span
        with tr.span("bourgain.st_convolve"):
            bourgain.st_convolve(u, v, pre1=lambda k: 1j * k, pre2=lambda k: 1j * k)
        with tr.span("bourgain.xsb_norm"):
            bourgain.xsb_norm(out, s, 0.5)
        with tr.span("bourgain.ys_norm"):
            bourgain.ys_norm(out, s)
        self.counts = self._counts(u, v, out)
        ref = self._batch(seed)
        return ratio, None if ratio == ref else (
            f"probe: traced ratio {ratio!r} differs from batch_bilinear_probe() {ref!r}")

    def _counts(self, u, v, out):
        """Work counts of st_convolve on this pair; kept_frac = cells inside 0<|n|<=nmax."""
        nmax = self.params.nmax
        tried = kept = 0
        for n1, segs1 in u.bands.items():
            for n2, segs2 in v.bands.items():
                cells = sum(len(a1) + len(a2) - 1 for _, a1 in segs1 for _, a2 in segs2)
                tried += cells
                if n1 + n2 != 0 and abs(n1 + n2) <= nmax:
                    kept += cells
        return {
            "bourgain.band_pairs": len(u.bands) * len(v.bands),
            "bourgain.cells_out": out.n_cells(),
            "bourgain.segments_out": sum(len(segs) for segs in out.bands.values()),
            "bourgain.kept_frac": kept / tried,
        }

    def _pair_time(self, kmax, repeats=3):
        p = ModelParams(j=2, lam=1.0, kmax=kmax)
        r = np.random.default_rng(self.seed)
        u = bourgain.random_spectrum(p, r, dtau=self.dtau)
        v = bourgain.random_spectrum(p, r, dtau=self.dtau)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            bourgain.bilinear_probe(u, v, S_PROBE, self.form)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def layer_metrics(self, tr):
        lo, hi = self.exponent_kmax
        slope = math.log(self._pair_time(hi) / self._pair_time(lo)) / math.log(hi / lo)
        return {
            "bourgain.random_spectrum_ms": _ms(tr.durations("bourgain.random_spectrum")),
            "bourgain.bilinear_output_ms": _ms(tr.durations("bourgain.bilinear_output")),
            "bourgain.st_convolve_ms": _ms(tr.durations("bourgain.st_convolve")),
            "bourgain.zs_norm_in_ms": _ms(tr.per_op_totals("bourgain.zs_norm_in")),
            "bourgain.zs_norm_out_ms": _ms(tr.durations("bourgain.zs_norm_out")),
            "bourgain.xsb_norm_ms": _ms(tr.durations("bourgain.xsb_norm")),
            "bourgain.ys_norm_ms": _ms(tr.durations("bourgain.ys_norm")),
            **self.counts,
            "bourgain.pair_kmax_exponent": slope,
        }


# -- certify ---------------------------------------------------------------------

class Certify(Workload):
    """One round of dcl.cli.main verification commands, in a seeded order."""

    name = "certify"
    work_unit = "verification rounds"
    probe_reps = 30  # per command, so 8 samples a round
    op_span = "cli.certify_op"
    owned = ("resonance.certify_ms", "resonance.triples_per_s", "illposed.collision_scan_ms",
             "rescale.check_ms", "cli.verify_regions_ms", "cli.verify_embeddings_ms")

    def __init__(self, seed: int, tiny: bool = False):
        box = "8" if tiny else "64"
        self.workdir = OUT_DIR / f"certify-{id(self)}-{time.monotonic_ns()}"
        self.commands = [  # (span, output subdirectory, argv)
            *(("resonance.certify", f"resonance-j{j}",
               ["verify", "resonance", "--kmax-verify", box, "--j", str(j)]) for j in (2, 3, 4)),
            ("cli.verify_regions", "regions", ["verify", "regions"]),
            ("cli.verify_embeddings", "embeddings",
             ["verify", "embeddings", "--s", "-0.25", *(["--kbound", "16"] if tiny else [])]),
            *(("illposed.collision_scan", f"illposed{s}",
               ["illposed", "--s", s, *(["--N-list", "16,32,64"] if tiny else [])])
              for s in ("-0.25", "0.25")),
            ("rescale.check", "rescale",
             ["rescale-check", "--T", "0.02" if tiny else "0.2", "--dt", "1e-3"]),
        ]
        self.commands = [(span, label, [*argv, "--output-dir", str(self.workdir / label)])
                         for span, label, argv in self.commands]
        self.rng = np.random.default_rng(seed)
        self.sink = io.StringIO()
        self.triples = 0
        self.config = {"commands": [argv[:-2] for _, _, argv in self.commands],
                       "order": "shuffled per round from the seed"}

    def _command(self, i):
        _, label, argv = self.commands[i]
        with contextlib.redirect_stdout(self.sink):
            code = cli.main(argv)
        self.sink.seek(0)
        self.sink.truncate()
        return label, code

    def plan(self):
        order = self.rng.permutation(len(self.commands))
        return [functools.partial(self._command, int(i)) for i in order], dict

    def op(self):
        calls, join = self.plan()
        return join([call() for call in calls])

    def _read(self, label, name):
        path = self.workdir / label / name
        doc = json.loads(path.read_text())
        path.unlink()  # so a later round cannot pass on a stale report
        return doc

    def check(self, codes):
        bad = {label: code for label, code in codes.items() if code != 0}
        if bad:
            return f"certify: nonzero exit codes {bad}"
        for j in (2, 3, 4):
            if self._read(f"resonance-j{j}", "resonance_certificate.json")["violations"]:
                return f"certify: resonance violations at j={j}"
        for s, want in (("-0.25", "BREAKS"), ("0.25", "HOLDS-AT-THIS-PROBE")):
            got = self._read(f"illposed{s}", "illposed_verdict.json")["verdict"]
            if got != want:
                return f"certify: illposed at s={s} says {got}, expected {want}"
        return None

    def work(self, codes):
        return 1

    def traced_op(self, tr):
        calls, join = self.plan()
        with tr.span(self.op_span):
            results = []
            for call in calls:
                with tr.span(self.commands[call.args[0]][0]):
                    results.append(call())
        codes = join(results)
        for j in (2, 3, 4):
            path = self.workdir / f"resonance-j{j}" / "resonance_certificate.json"
            self.triples += json.loads(path.read_text())["triples_checked"]
        return codes, None

    def layer_metrics(self, tr):
        res = tr.durations("resonance.certify")
        return {
            "resonance.certify_ms": _ms(tr.per_op_totals("resonance.certify")),
            "resonance.triples_per_s": self.triples / sum(res) if res else 0.0,
            "illposed.collision_scan_ms": _ms(tr.per_op_totals("illposed.collision_scan")),
            "rescale.check_ms": _ms(tr.durations("rescale.check")),
            "cli.verify_regions_ms": _ms(tr.durations("cli.verify_regions")),
            "cli.verify_embeddings_ms": _ms(tr.durations("cli.verify_embeddings")),
        }

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Simulate, Picard, Probe, Certify)}


# -- layer micro-timings -----------------------------------------------------------

MICRO_CALLS = ("lattice.inverse_transform", "lattice.forward_transform",
               "symbols.nonlinearity_F", "symbols.product_spectrum")


def layer_micro(tr, seed: int, tiny: bool = False):
    """Spans of single calls of the transforms and products at kmax=128, pad=2 grid."""
    p = ModelParams(j=2, lam=1.0, kmax=16.0 if tiny else 128.0)
    u = broadband(p, np.random.default_rng(seed))
    nx = p.default_grid(pad=2)
    f = lattice.inverse_transform(u, nx)
    calls = {
        "lattice.inverse_transform": lambda: lattice.inverse_transform(u, nx),
        "lattice.forward_transform": lambda: lattice.forward_transform(f, p),
        "symbols.nonlinearity_F": lambda: symbols.nonlinearity_F(u, u),
        "symbols.product_spectrum": lambda: symbols.product_spectrum(u, u),
    }
    for _ in range(5 if tiny else 200):
        for name in MICRO_CALLS:
            with tr.span(name):
                calls[name]()
