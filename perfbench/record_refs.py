"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py

Runs every command of every workload and input variant in process and
writes `refs/common.json.gz` (commands that are the same in every variant)
and `refs/v<i>.json.gz`.  The stored references were taken at the commit
that introduced the benchmark; re-recording them on a later commit would
hide any change in its reports, so do it only when a report change is
intended and documented.
"""

from __future__ import annotations

import check
import workloads
from workloads import VARIANTS, WORKLOADS


def _abs_tol(argv) -> dict:
    """weyl-scan tolerances: 1e-9 of the trivial bound B * |window|, for |f|
    and for |f| / y^(1 - rho)."""
    import kglab.cli as cli
    from kglab import weights
    from kglab.exp_sums import minor_arc_rho
    from kglab.intervals import build_interval

    config = cli.config_from_args(cli.build_parser().parse_args(list(argv)))
    interval = build_interval(config.n, config.k, config.s, config.theta)
    weight = {"unit": weights.unit_weight, "prime-indicator": weights.prime_indicator,
              "von-mangoldt": weights.von_mangoldt_weight}[config.weight](interval)
    tol = 1e-9 * weight.bound * interval.size
    return {"abs_f": tol, "ratio": tol / interval.y ** (1.0 - minor_arc_rho(interval.k))}


def main():
    workloads.import_kglab()
    seen = {}  # ref -> {variant: (argv, ref)}
    for v in range(VARIANTS):
        for workload in WORKLOADS.values():
            for op in workload.ops(v):
                if v in seen.get(op.ref, {}):
                    continue
                res = workloads.run_in_process(op.argv)
                if res.status != 0:
                    raise SystemExit(f"{' '.join(op.argv)} failed: {res.error}")
                ref = check.parse_report(res.text)
                if op.argv[0] == "weyl-scan":
                    ref["abs_tol"] = _abs_tol(op.argv)
                seen.setdefault(op.ref, {})[v] = (op.argv, ref)
                print(f"v{v} {op.ref}: {' '.join(op.argv)}", flush=True)
    common, per_variant = {}, [{} for _ in range(VARIANTS)]
    for name, by_variant in seen.items():
        if len({argv for argv, _ in by_variant.values()}) == 1:
            common[name] = by_variant[0][1]
        else:
            for v, (_, ref) in by_variant.items():
                per_variant[v][name] = ref
    check.REF_DIR.mkdir(exist_ok=True)
    check.write_refs("common", common)
    for v, refs in enumerate(per_variant):
        check.write_refs(f"v{v}", refs)


if __name__ == "__main__":
    main()
