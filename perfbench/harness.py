"""Timing loop, span tracer, statistics and provenance for the dcl benchmark.

The benchmark runs one workload at a time as a closed loop: a single
process issues one operation ("op"), waits for it, checks its output, then
issues the next.  End-to-end metrics come from an untraced run; the traced
run (``--trace 1``) reports per-layer metrics from spans that the
benchmark records around its own calls into ``dcl``.  Nothing inside
``src/dcl`` is instrumented.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# An op's tail latency is the highest percentile with at least this many ops
# beyond it.  Every run times at least MIN_OPS ops, one more than the tail
# needs, so that on the slowest workload (certify, ~1.3 s an op) the op
# count, and with it the tail's rank, does not change from run to run.
TAIL_BEYOND = 10
MIN_OPS = 12
SETUP_SAMPLES = 3
MAX_SLOWDOWN = 2
SETUP_PROBE_REPS = 50

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "unit/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}

# name -> unit.  A traced run reports every name; a layer the workload does
# not run reports 0 (see README.md).
PER_LAYER = {
    "fail_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.span_coverage": "ratio",
    "lattice.forward_transform_us": "us",
    "lattice.inverse_transform_us": "us",
    "symbols.nonlinearity_F_us": "us",
    "symbols.product_spectrum_us": "us",
    "evolve.step_us": "us",
    "evolve.step_share": "ratio",
    "evolve.stepper_init_us": "us",
    "evolve.diag_us": "us",
    "evolve.steps": "count",
    "evolve.picard_core_ms": "ms",
    "evolve.phase_wrap": "rad",
    "evolve.energy_drift": "ratio",
    "evolve.picard_ratio_max": "ratio",
    "bourgain.random_spectrum_ms": "ms",
    "bourgain.bilinear_output_ms": "ms",
    "bourgain.st_convolve_ms": "ms",
    "bourgain.zs_norm_in_ms": "ms",
    "bourgain.zs_norm_out_ms": "ms",
    "bourgain.xsb_norm_ms": "ms",
    "bourgain.ys_norm_ms": "ms",
    "bourgain.band_pairs": "count",
    "bourgain.cells_out": "count",
    "bourgain.segments_out": "count",
    "bourgain.kept_frac": "ratio",
    "bourgain.pair_kmax_exponent": "exponent",
    "bourgain.from_time_samples_ms": "ms",
    "bourgain.zs_norm_dense_ms": "ms",
    "resonance.certify_ms": "ms",
    "resonance.triples_per_s": "1/s",
    "illposed.collision_scan_ms": "ms",
    "rescale.check_ms": "ms",
    "cli.verify_regions_ms": "ms",
    "cli.verify_embeddings_ms": "ms",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def import_dcl():
    """Import ``dcl`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "dcl" / "__init__.py").is_file():
        raise BenchError(f"no dcl sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dcl

    if Path(dcl.__file__).resolve().parent != (SRC / "dcl").resolve():
        raise BenchError(f"imported dcl from {dcl.__file__}, not from {SRC}")
    return dcl


# -- tracing -------------------------------------------------------------------

class Tracer:
    """In-memory spans: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = -1

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name, op_only=True):
        """Durations (s) of every span called name, optionally only inside ops."""
        return [e - s for n, s, e, _, op in self.spans
                if n == name and (op >= 0 or not op_only)]

    def per_op_totals(self, name):
        """Summed duration (s) of the spans called name, one entry per op that has any."""
        tot = {}
        for n, s, e, _, op in self.spans:
            if n == name and op >= 0:
                tot[op] = tot.get(op, 0.0) + (e - s)
        return list(tot.values())

    def self_times(self):
        """name -> {count, total_s, self_s}; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for n, s, e, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out = {}
        for i, (n, s, e, _, _) in enumerate(self.spans):
            row = out.setdefault(n, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += e - s
            row["self_s"] += (e - s) - child[i]
        return out

    def scaled(self, factors):
        """A copy with each span's duration multiplied by factors[its op id]."""
        out = Tracer()
        out.spans = [[n, s, s + (e - s) * factors[op], parent, op]
                     for n, s, e, parent, op in self.spans]
        return out

    def coverage(self, root_name):
        """Share of the root spans' wall covered by their direct children."""
        roots = {i for i, sp in enumerate(self.spans) if sp[0] == root_name}
        wall = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        covered = sum(e - s for _, s, e, parent, _ in self.spans if parent in roots)
        return covered / wall if wall > 0 else 0.0


def median_or_zero(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


# -- the timed loop ------------------------------------------------------------

class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(problem)


class SpeedProbe:
    """Machine-speed probe, timed between ops; it runs no dcl code.

    The machines this benchmark runs on are shared, and their speed drifts
    by tens of percent over seconds to minutes.  Every timed call is
    therefore bracketed by samples of a fixed kernel, and its latency is
    reported in calibrated time: raw time * REF_S / kernel time, the kernel
    time being the mean of the samples just before and just after it.  A sample
    is the median of `reps` kernel runs.  The kernel mixes the two kinds of
    work dcl does: exact-integer arithmetic in Python loops, and small numpy
    calls issued from Python loops.  REF_S is the kernel's median time on
    the machine the baseline was recorded on (2-core Xeon, Python 3.11,
    numpy 2.4), so calibrated and raw times agree there.
    """

    REF_S = 200e-6

    def __init__(self, reps):
        import numpy as np

        self.reps = reps
        rng = np.random.default_rng(0)
        self._small = [rng.standard_normal(17) + 0j for _ in range(8)]
        self._np = np

    def _kernel(self):
        np = self._np
        t0 = time.perf_counter()
        hits = 0
        for a in range(2, 22):
            for b in range(2, 12):
                hits += abs((a + b) ** 5 - a ** 5 - b ** 5) * 16 >= 5 * a * b ** 4
        for u in self._small[:4]:
            for v in self._small[4:]:
                hits += float(np.sum(np.abs(np.convolve(u, v)) ** 2)) > 0.0
        return time.perf_counter() - t0

    def sample(self):
        return statistics.median(self._kernel() for _ in range(self.reps))

    def calibrate(self, raw_s, before, after):
        return raw_s * self.REF_S / (0.5 * (before + after))


def run_ops(plan, check, seconds, min_ops, tally, work, probe):
    """Issue ops back to back until they add up to `seconds` of calibrated time.

    plan() returns (calls, join): an op runs each call in turn and join
    turns their results into the op's output.  Each call is timed alone,
    with speed samples between calls, so an op made of several commands is
    calibrated command by command.  At least `min_ops` ops run.  Counting
    calibrated time keeps the op count, and so the tail percentile, the
    same on a slow or a fast machine; the raw wall is capped at
    MAX_SLOWDOWN times `seconds`.  Returns (raw latencies, calibrated
    latencies, work units), times in s.  An op that raises, or whose output
    fails its check, is counted as failed and adds no work.
    """
    raw, cal = [], []
    units = 0
    spent = 0.0
    before = probe.sample()
    cap = time.perf_counter() + MAX_SLOWDOWN * seconds
    while len(raw) < min_ops or (spent < seconds and time.perf_counter() < cap):
        calls, join = plan()
        results = []
        elapsed = calibrated = 0.0
        try:
            for call in calls:
                t0 = time.perf_counter()
                try:
                    results.append(call())
                finally:
                    dt = time.perf_counter() - t0
                    after = probe.sample()
                    elapsed += dt
                    calibrated += probe.calibrate(dt, before, after)
                    before = after
            out = join(results)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            problem = f"{type(exc).__name__}: {exc}"
        else:
            problem = check(out)
            if not problem:
                units += work(out)
            del out  # an op's output must not stay alive through the next op
        del results
        tally.record(problem)
        raw.append(elapsed)
        cal.append(calibrated)
        spent += calibrated
    return raw, cal, units


def one_call(fn):
    """The plan of an op that is the single call fn()."""
    return lambda: ((fn,), _first)


def _first(results):
    return results[0]


def tail(latencies):
    """(value, percentile): highest percentile with TAIL_BEYOND ops beyond it."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise BenchError(f"need more than {TAIL_BEYOND} ops for a tail, got {n}")
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload, seed, tiny, samples, probe):
    """Median calibrated wall from process start to a finished warm-up op.

    Each sample starts ``run.py --setup-probe`` as a fresh process, which
    imports dcl, generates the inputs from the seed, runs one untimed
    warm-up op and prints READY.  The clock stops when READY arrives.
    Returns (median calibrated s, raw samples s).
    """
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    raw, cal = [], []
    before = probe.sample()
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "READY" or code != 0:
            raise BenchError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
        after = probe.sample()
        raw.append(elapsed)
        cal.append(probe.calibrate(elapsed, before, after))
        before = after
    return statistics.median(cal), raw


# -- provenance ----------------------------------------------------------------

def _git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "dcl").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            out[f"L{level}{kind[0].lower()}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return out


def provenance(dcl, workload, seed, config):
    import numpy
    import scipy

    return {
        "git_revision": _git_revision(),
        "dcl_source_sha256": _source_digest(),
        "dcl_version": dcl.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "config": config,
    }


def write_record(record, spans=None):
    """Write the run's record (and its spans, if traced) under .bench_build/perfbench."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=_jsonable) + "\n")
    if spans is not None:
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(spans, default=_jsonable))
    return path


def _jsonable(x):
    if hasattr(x, "item"):
        return x.item()
    raise TypeError(f"not JSON serialisable: {type(x).__name__}")


def metric_block(values, units):
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
