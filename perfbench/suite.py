"""Run the benchmark over several seeds and workloads and summarise the spread.

    python3 perfbench/suite.py --seeds 1-10
    python3 perfbench/suite.py --workloads probe --seeds 1-5 --trace 1

Each (seed, workload) pair is one ``run.py`` process, run one at a time,
seeds outermost so that slow phases of the machine spread over all
workloads.  For every metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to the bound from BENCHMARK.json; end-to-end runs also print
fail_frac = failed / attempted over all runs of the workload.  --out
writes the same summary, with every run's value and the provenance of
the first run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = next(ln.split("wrote ", 1)[1] for ln in proc.stderr.splitlines()
                if ln.startswith("perfbench: wrote "))
    return line, Path(path)


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="simulate,picard,probe,certify")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    runs = {w: [] for w in workloads}
    summary = {"seconds": seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for seed in seeds:
        for w in workloads:
            line, path = run_one(w, seed, seconds, args.trace)
            runs[w].append({"seed": seed, "line": line, "record": path})
            if "provenance" not in summary:
                prov = json.loads(path.read_text())["provenance"]
                summary["provenance"] = {k: v for k, v in prov.items()
                                         if k not in ("workload", "seed", "config")}
            print(f"seed {seed} {w}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']}", file=sys.stderr, flush=True)

    worst = 0.0
    print(f"{'workload':9} {'metric':32} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w in workloads:
        rows = {}
        for name, m in metrics.items():
            vals = [r["line"]["metrics"][name]["value"] for r in runs[w]]
            s = rows[name] = summarise(vals)
            bound = m.get("bound")
            if bound is not None and name != "setup_s":
                worst = max(worst, s["spread"] / bound)
            print(f"{w:9} {name:32} {m['unit']:9} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.3f} {bound if bound is not None else '':>6}")
        attempted = sum(r["line"]["attempted"] for r in runs[w])
        failed = sum(r["line"]["failed"] for r in runs[w])
        print(f"{w:9} {'fail_frac':32} {'ratio':9} {failed / attempted:12.6g}   "
              f"({failed} of {attempted} ops)")
        summary["workloads"][w] = {"metrics": rows, "attempted": attempted, "failed": failed,
                                   "fail_frac": failed / attempted}
    if args.trace == 0:
        print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
