"""Run one workload of the dcl benchmark; the last stdout line is its JSON result.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 12 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(see README.md).  The run imports dcl from the ``src`` directory next to
this one and writes a record with provenance, latency detail and (traced)
the spans under ``.bench_build/perfbench/``.  It exits 2 without a result
when it cannot run, for instance when the dcl sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys

import harness
from harness import END_TO_END, PER_LAYER, BenchError, Tally, Tracer, run_ops

WORKLOAD_NAMES = ("simulate", "picard", "probe", "certify")


def run(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result line, record)."""
    dcl = harness.import_dcl()
    import workloads

    wl = workloads.WORKLOADS[name](seed, tiny)
    tally = Tally()
    record = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
              "tiny": tiny, "work_unit": wl.work_unit,
              "provenance": harness.provenance(dcl, name, seed, wl.config)}
    spans = None
    try:
        warm = wl.op()  # untimed warm-up op; it is checked like any other
        tally.record(wl.check(warm))
        del warm
        gc.collect()
        if trace:
            values, spans = _traced(wl, seed, seconds, tiny, tally, record)
            units = PER_LAYER
        else:
            values = _untraced(wl, seed, seconds, tiny, tally, record)
            units = END_TO_END
    finally:
        wl.close()
    record["failures"] = tally.reasons
    line = {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": harness.metric_block(values, units)}
    record["result"] = line
    record["path"] = str(harness.write_record(record, spans))
    return line, record


def _latency_summary(lat):
    q1, q2, q3 = statistics.quantiles(lat, n=4) if len(lat) > 1 else (lat[0],) * 3
    return {"ops": len(lat), "min_ms": min(lat) * 1e3, "q1_ms": q1 * 1e3, "p50_ms": q2 * 1e3,
            "q3_ms": q3 * 1e3, "max_ms": max(lat) * 1e3}


def _untraced(wl, seed, seconds, tiny, tally, record):
    setup_s, setup_raw = harness.measure_setup(
        wl.name, seed, tiny, 1 if tiny else harness.SETUP_SAMPLES,
        harness.SpeedProbe(harness.SETUP_PROBE_REPS))
    raw, cal, work = run_ops(wl.plan, wl.check, seconds, harness.MIN_OPS, tally, wl.work,
                             harness.SpeedProbe(wl.probe_reps))
    tail_s, tail_pct = harness.tail(cal)
    record.update(setup_raw_s=setup_raw, latency=_latency_summary(cal),
                  raw_latency=_latency_summary(raw), work_units=work,
                  raw_work_per_s=work / sum(raw), tail_percentile=tail_pct,
                  latencies_ms=[x * 1e3 for x in raw], calibrated_ms=[x * 1e3 for x in cal])
    return {
        "setup_s": setup_s,
        "work_per_s": work / sum(cal),
        "op_p50_ms": statistics.median(cal) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": harness.peak_rss_mb(),
    }


def _traced(wl, seed, seconds, tiny, tally, record):
    """Half the time untraced, half traced; the rate gap is the tracing overhead."""
    import workloads

    probe = harness.SpeedProbe(wl.probe_reps)
    raw, cal, work = run_ops(wl.plan, wl.check, seconds / 2, 2, tally, wl.work, probe)
    untraced_rate = work / sum(cal)
    tr = Tracer()

    def traced_op():
        tr.op_id += 1
        return wl.traced_op(tr)

    # A traced op's latency also covers its exactness check; its root span does
    # not.  The rate uses the root spans, calibrated by the op's speed factor.
    traced_raw, traced_cal, traced_work = run_ops(
        harness.one_call(traced_op), lambda r: r[1] or wl.check(r[0]), seconds / 2, 2, tally,
        lambda r: wl.work(r[0]), probe)
    tr.op_id = -1
    before = probe.sample()
    workloads.layer_micro(tr, seed, tiny)
    after = probe.sample()
    # per-layer times are calibrated like op latencies: by each op's speed factor
    factors = {i: c / r for i, (r, c) in enumerate(zip(traced_raw, traced_cal))}
    factors[-1] = probe.calibrate(1.0, before, after)
    ctr = tr.scaled(factors)
    walls = ctr.durations(wl.op_span)
    traced_rate = traced_work / sum(walls)
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({f"{name}_us": harness.median_or_zero(ctr.durations(name, op_only=False), 1e6)
                   for name in workloads.MICRO_CALLS})
    owned = wl.layer_metrics(ctr)
    if set(owned) != set(wl.owned):
        raise BenchError(f"{wl.name} reported {sorted(owned)}, owns {sorted(wl.owned)}")
    values.update(owned)
    values.update({
        "fail_frac": tally.failed / tally.attempted,
        "trace.overhead_frac": 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0,
        "trace.span_coverage": ctr.coverage(wl.op_span),
    })
    record.update(latency=_latency_summary(cal), raw_latency=_latency_summary(raw),
                  traced_ops=len(walls), untraced_work_per_s=untraced_rate,
                  traced_work_per_s=traced_rate, self_times=ctr.self_times(),
                  speed_factors=factors)
    return values, tr.spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny problem sizes, for the benchmark's own smoke test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="import, build inputs, run one warm-up op, print READY and exit")
    args = ap.parse_args(argv)
    for var in harness.THREAD_VARS:  # before numpy loads: one thread per process
        os.environ[var] = "1"
    try:
        if args.setup_probe:
            harness.import_dcl()
            import workloads

            wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
            try:
                problem = wl.check(wl.op())
            finally:
                wl.close()
            if problem:
                print(problem, file=sys.stderr)
                return 1
            print("READY", flush=True)
            return 0
        line, record = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"perfbench: wrote {record['path']}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
