"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/spread.py [--workloads sweep,spectral,quickstart] \
        [--seeds 10] [--seconds S] [--baseline perfbench/baseline.json]

For every workload, runs `run.py` once per seed (0, 1, ...) one after
another, and prints for each end-to-end metric the median, the quartiles
(`statistics.quantiles(values, n=4)`) and their distance as a share of the
median, beside the metric's bound from BENCHMARK.json.  With --baseline it
also makes one traced run per workload (seed 0) and writes those figures,
the per-command medians, the per-layer metrics and the run context to that
file.
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


def _run(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    out = json.loads(lines[-1])
    for line in lines:
        for tag in ("detail", "context"):
            if line.startswith(tag + ": "):
                out[tag] = json.loads(line[len(tag) + 2:])
    return out


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.seeds):
            runs.append(_run(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v['value']:.4f}" for k, v in runs[-1]["metrics"].items()), flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        per_op = {op: statistics.median(r["detail"]["per_op"][op]["wall_s"] for r in runs)
                  for op in runs[0]["detail"]["per_op"]}
        traced = _run(workload, 0, args.seconds, trace=1) if args.baseline else None
        report["workloads"][workload] = {
            "metrics": metrics, "per_op_wall_s": per_op, "context": runs[0]["context"],
            "per_layer_seed0": traced and {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in metrics.items():
            ok = name == "setup_s" or s["spread"] <= bounds[name] / 3
            steady = steady and ok
            print(f"  {workload:<10} {name:<12} median {s['median']:10.4f}  q1 {s['q1']:10.4f}"
                  f"  q3 {s['q3']:10.4f}  spread {s['spread']:.4f}  bound {bounds[name]}"
                  f"  {'ok' if ok else 'WIDE'}")
    if args.baseline:
        args.baseline.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
