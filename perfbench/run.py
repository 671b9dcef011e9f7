"""kglab benchmark: times the CLI end to end, or per layer with --trace 1.

    python3 perfbench/run.py --workload sweep|spectral|quickstart|all \
        [--seed N] [--seconds S] [--trace 0|1]

One run sets up several times, then repeats the workload's timed pass for
about `--seconds` seconds (at least once), checks every output against the
stored reference and prints, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, medians over passes; with --trace 1 each untraced
pass is followed by a traced one, the traced reports must equal the
untraced ones (timestamp aside), and the metrics are the per-layer ones.
Units come from BENCHMARK.json beside this directory.  The exit status is 0
only when every output is correct.  `--workload all` runs each workload in
its own process and prints a summary table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, SRC, THREAD_ENV, WORKLOADS

os.environ.update(THREAD_ENV)  # before numpy is imported, here and in children

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
TRACE_DIR = ROOT / ".perfbench-trace"
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(seed: int) -> dict:
    import mpmath
    import numpy

    return {
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "seed": seed,
        "variant": workloads.variant(seed),
        "kglab_seed": workloads.kglab_seed(seed),
        "thread_env": THREAD_ENV,
    }


def run_op(workload, op, traced: bool) -> tuple:
    """(OpResult, span list of each process it ran, empty when untraced)."""
    if workload.in_process:
        if not traced:
            return workloads.run_in_process(op.argv), []
        tr = tracer.Tracer()
        tr.install()
        try:
            res = workloads.run_in_process(op.argv)
        finally:
            tr.uninstall()
        return res, [tr.finish()]
    if not traced:
        return workloads.run_child(workloads.cli_command(op.argv)), []
    res = workloads.run_child(workloads.child_command("trace", *op.argv))
    try:
        payload = json.loads(res.text)
    except ValueError:
        res.status = res.status or 1
        res.error = res.error or "traced child printed no payload"
        return res, []
    res.text = payload["stdout"]
    return res, [payload["spans"]]


def _setup_samples(workload) -> list:
    samples = []
    for _ in range(SETUP_REPEATS):
        res = workloads.run_child(workloads.child_command("setup", workload.name))
        if res.status != 0:
            raise RuntimeError(f"set-up failed: {res.error}")
        samples.append(json.loads(res.text)["setup_s"])
    return samples


def _timed_pass(workload, ops, traced: bool) -> dict:
    results, processes = [], []
    for op in ops:
        res, spans = run_op(workload, op, traced)
        results.append(res)
        processes.extend(spans)
    return {"results": results, "processes": processes,
            "wall_s": sum(r.wall_s for r in results), "cpu_s": sum(r.cpu_s for r in results)}


def measure(workload, seed: int, seconds: float, trace: bool, refs: dict = None) -> dict:
    refs = check.load_refs(workloads.variant(seed)) if refs is None else refs
    ops = workload.ops(seed)
    setup = [] if trace else _setup_samples(workload)
    in_process_setup = None
    if workload.in_process:
        start = time.perf_counter()
        workloads.set_up(workload)
        in_process_setup = time.perf_counter() - start

    untraced, traced = [], []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        untraced.append(_timed_pass(workload, ops, traced=False))
        if trace:
            traced.append(_timed_pass(workload, ops, traced=True))
        last = time.perf_counter() - started
        if time.perf_counter() - begin + last > seconds:
            break

    attempted = failed = 0
    problems = []
    for p in untraced + traced:
        for op, res in zip(ops, p["results"]):
            a, f, probs = check.check(op, res.status, res.text, refs[op.ref])
            attempted, failed = attempted + a, failed + f
            problems += probs + ([res.error] if res.error else [])
    mismatched = []
    for p in traced:
        for op, base, res in zip(ops, untraced[0]["results"], p["results"]):
            if _TIMESTAMP.sub("", base.text) != _TIMESTAMP.sub("", res.text):
                mismatched.append(op.name)

    out = {"workload": workload.name, "ops": ops, "untraced": untraced, "traced": traced,
           "attempted": attempted, "failed": failed, "problems": problems,
           "trace_mismatch": mismatched, "setup": setup, "in_process_setup": in_process_setup}
    out["correct"] = failed == 0 and not mismatched
    if workload.in_process:
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        out["peak_rss_mb"] = max(r.maxrss_mb for p in untraced for r in p["results"])
    return out


def end_to_end(m: dict) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in m["untraced"]),
        "cpu_s": statistics.median(p["cpu_s"] for p in m["untraced"]),
        "setup_s": statistics.median(m["setup"]),
        "peak_rss_mb": m["peak_rss_mb"],
    }


def per_layer(m: dict) -> dict:
    untraced_wall = statistics.median(p["wall_s"] for p in m["untraced"])
    per_pass = [tracer.layer_metrics(p["processes"], p["wall_s"], untraced_wall)
                for p in m["traced"]]
    out = {}
    for key in per_pass[0]:
        values = [pm[key] for pm in per_pass]
        ints = all(isinstance(v, int) for v in values)
        out[key] = (statistics.median_low if ints else statistics.median)(values)
    return out


def _write_spans(m: dict, seed: int) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{m['workload']}-seed{seed}.json"
    path.write_text(json.dumps({"fields": ["name", "label", "start", "end", "parent", "note"],
                                "passes": [p["processes"] for p in m["traced"]]},
                               separators=(",", ":")))
    return path


def _per_op(m: dict) -> dict:
    """Median wall (and child peak RSS) of each command over the untraced passes."""
    out = {}
    for i, op in enumerate(m["ops"]):
        results = [p["results"][i] for p in m["untraced"]]
        entry = {"wall_s": statistics.median(r.wall_s for r in results)}
        if not WORKLOADS[m["workload"]].in_process:
            entry["peak_rss_mb"] = max(r.maxrss_mb for r in results)
        out[op.name] = entry
    return out


def _print_report(m: dict, metrics: dict, units: dict, seed: int, trace: bool):
    passes = len(m["untraced"])
    print(f"workload {m['workload']}  seed {seed}  passes {passes}"
          + (f" (+{len(m['traced'])} traced)" if trace else ""))
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {units[name]}")
    frac = m["failed"] / m["attempted"] if m["attempted"] else 1.0
    print(f"  {'fail_frac':<48} {frac:>16.6g} fraction ({m['failed']}/{m['attempted']})")
    if not trace:
        for name, entry in _per_op(m).items():
            extra = f"  peak {entry['peak_rss_mb']:.1f} MB" if "peak_rss_mb" in entry else ""
            print(f"  op {name:<20} {entry['wall_s']:.4f} s{extra}")
        if m["in_process_setup"] is not None:
            print(f"  in-process set-up {m['in_process_setup']:.4f} s"
                  f" (setup_s samples: {', '.join(f'{s:.4f}' for s in m['setup'])})")
    for problem in m["problems"][:10]:
        print(f"  FAIL {problem}", file=sys.stderr)
    if m["trace_mismatch"]:
        print(f"  FAIL traced report differs from untraced: {m['trace_mismatch']}", file=sys.stderr)


def run_one(name: str, seed: int, seconds: float, trace: bool, refs: dict = None) -> int:
    spec = _spec()
    kind = "per_layer" if trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[kind]}
    m = measure(WORKLOADS[name], seed, seconds, trace, refs)
    metrics = per_layer(m) if trace else end_to_end(m)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(metrics) ^ set(units))}")
    _print_report(m, metrics, units, seed, trace)
    if trace:
        print(f"spans: {_write_spans(m, seed)}")
    else:
        print("detail: " + json.dumps({"per_op": _per_op(m), "setup_samples": m["setup"],
                                       "pass_wall_s": [p["wall_s"] for p in m["untraced"]]}))
    print("context: " + json.dumps(run_context(seed)))
    print(json.dumps({
        "correct": m["correct"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if m["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, then one summary table."""
    status, summary = 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines else None
    print("summary")
    for name, res in summary.items():
        if res is None:
            print(f"  {name:<11} no result")
            continue
        frac = res["failed"] / res["attempted"]
        cells = [f"{k} {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()] \
            if not trace else [f"{len(res['metrics'])} per-layer metrics"]
        print(f"  {name:<11} " + "  ".join(cells) + f"  fail_frac {frac:.4g} fraction")
    print(json.dumps(summary))
    return status or (0 if all(summary.values()) else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kglab" / "__init__.py").is_file():
        print(f"no kglab sources under {SRC}; run from a kglab checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
