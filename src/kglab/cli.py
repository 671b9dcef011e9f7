"""Command-line driver.

Subcommands: count, predict, compare, dissect, weyl-scan, moments,
singular-series, sieve-check, vaughan-check.  Reports are JSON (schema 1,
floats at 15 significant digits) or CSV ('.' decimal, no locale), embed
the config and library version, and are byte-identical across runs for
the same config and seed (the timestamp field aside).  Exit status: 0 on
success, 1 on a computation error, 2 on an invalid config.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .arcs import build_dissection, default_delta
from .errors import KglabError, ValidationError
from .exp_sums import (
    coefficient_diagnostic,
    default_bilinear_cut,
    evaluate_components,
    moment_enumeration,
    moment_nyquist,
    vaughan_decompose,
    weighted_exp_sum,
    weyl_scan,
)
from .intervals import ShortInterval, build_interval
from .local_conditions import is_admissible
from .representations import count_exact, vector_sieve_pointwise_scan
from .singular import predict_main_term, singular_series
from .weights import prime_indicator, unit_weight, von_mangoldt_weight


@dataclass
class ExperimentConfig:
    """Everything a run needs; the seed pins every randomized scan."""

    subcommand: str
    n: int = None
    range_spec: str = None
    k: int = 2
    s: int = 5
    theta: float = 0.85
    delta: float = None
    qmax: int = 10000
    t: int = 2
    lo: int = None
    hi: int = None
    samples: int = 10000
    seed: int = 0
    alphas: int = 100
    x_cut: float = None
    weight: str = "prime-indicator"
    integral_method: str = "both"
    include_inadmissible: bool = False
    anomaly_threshold: float = 1.0
    slim: bool = False
    out: str = None
    fmt: str = None

    def public_dict(self) -> dict:
        # The output path is delivery, not experiment identity; reports
        # must be byte-identical wherever they are written.
        return {
            k: v for k, v in asdict(self).items() if v is not None and k != "out"
        }


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.15g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _envelope(config: ExperimentConfig, result) -> dict:
    return {
        "schema": 1,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config.public_dict(),
        "result": result,
    }


def _emit_json(config: ExperimentConfig, result) -> str:
    return json.dumps(_round_floats(_envelope(config, result)), sort_keys=True, indent=2) + "\n"


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.15g}"
    if v is None:
        return ""
    return str(v)


def _emit_csv(config: ExperimentConfig, rows) -> str:
    buf = io.StringIO()
    buf.write(f"# version: {__version__}\n")
    buf.write("# config: " + json.dumps(_round_floats(config.public_dict()), sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row])
    return buf.getvalue()


def _window_from_config(config: ExperimentConfig) -> ShortInterval:
    if config.lo is not None or config.hi is not None:
        if config.lo is None or config.hi is None:
            raise ValidationError("--lo and --hi must be given together")
        return ShortInterval.from_integer_window(config.lo, config.hi, config.k)
    if config.n is None:
        raise ValidationError("need either --n or --lo/--hi")
    return build_interval(config.n, config.k, config.s, config.theta)


def _delta_from_config(config: ExperimentConfig) -> float:
    if config.delta is not None:
        return config.delta
    if config.theta <= 31.0 / 40.0:
        raise ValidationError(
            "theta <= 31/40 has no default arc exponent; pass --delta explicitly"
        )
    return default_delta(config.k, config.theta)


def _series_payload(est) -> dict:
    return {
        "n": est.n,
        "k": est.k,
        "s": est.s,
        "qmax": est.qmax,
        "value": est.value,
        "value_direct": est.value_direct,
        "p_local": [{"p": p, "sigma": sigma} for p, sigma in est.p_local],
        "method": est.method,
        "flag": est.flag,
        "obstructed": est.obstructed,
    }


def _run_count(config: ExperimentConfig):
    report = count_exact(config.n, config.k, config.s, config.theta)
    result = {
        "n": report.n,
        "k": report.k,
        "s": report.s,
        "theta": report.theta,
        "R": report.count,
        "method": report.method,
        "prime_count": report.prime_count,
    }
    return result, None


def _run_predict(config: ExperimentConfig):
    rep = predict_main_term(
        config.n, config.k, config.s, config.theta,
        qmax=config.qmax, integral_method=config.integral_method,
    )
    result = {
        "n": rep.n,
        "k": rep.k,
        "s": rep.s,
        "theta": rep.theta,
        "qmax": rep.qmax,
        "series": _series_payload(rep.series),
        "integral": {
            "value": rep.integral.value,
            "method": rep.integral.method,
            "alt_value": rep.integral.alt_value,
            "flagged": rep.integral.flagged,
            "grid_cells": rep.integral.grid_cells,
        },
        "log_x": rep.log_x,
        "prediction": rep.prediction,
        "normalized_constant": rep.normalized_constant,
        "admissible": rep.admissible,
        "obstructed": rep.obstructed,
    }
    return result, None


def _parse_range(spec: str):
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValidationError(f"range must be start:stop[:step], got {spec!r}")
    try:
        nums = [int(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"bad range {spec!r}") from exc
    start, stop = nums[0], nums[1]
    step = nums[2] if len(nums) == 3 else 1
    if step < 1 or stop <= start:
        raise ValidationError(f"bad range {spec!r}")
    return start, stop, step


def _run_compare(config: ExperimentConfig):
    if config.range_spec is None:
        raise ValidationError("compare needs --range start:stop:step")
    start, stop, step = _parse_range(config.range_spec)
    ns = range(start, stop, step)
    rows = [("n", "R", "prediction", "ratio", "admissible", "anomaly", "error")]
    result_rows = []
    for n in ns:
        adm = is_admissible(n, config.k, config.s)
        if not adm and not config.include_inadmissible:
            continue
        try:
            rep = count_exact(n, config.k, config.s, config.theta)
            pred = predict_main_term(
                n, config.k, config.s, config.theta,
                qmax=config.qmax, integral_method="density-convolution",
            )
            ratio = rep.count / pred.prediction if pred.prediction > 0 else math.inf
            anomaly = rep.count == 0 and pred.prediction > config.anomaly_threshold
            result_rows.append(
                (n, rep.count, pred.prediction,
                 ratio if math.isfinite(ratio) else "", adm, anomaly, "")
            )
        except KglabError as exc:
            result_rows.append((n, "", "", "", adm, "", str(exc)))
    rows.extend(result_rows)
    json_result = [
        {
            "n": r[0], "R": r[1], "prediction": r[2], "ratio": r[3],
            "admissible": r[4], "anomaly": r[5], "error": r[6],
        }
        for r in result_rows
    ]
    return json_result, rows


def _run_dissect(config: ExperimentConfig):
    interval = _window_from_config(config)
    dissection = build_dissection(interval, _delta_from_config(config), slim=config.slim)
    arcs = [
        {"q": arc.q, "a": arc.a, "center": arc.center, "half_width": arc.half_width}
        for arc in dissection.arcs
    ]
    rows = [("q", "a", "center", "half_width")]
    rows.extend((a["q"], a["a"], a["center"], a["half_width"]) for a in arcs)
    return {"P": dissection.P, "Q": dissection.Q, "delta": dissection.delta,
            "arcs": arcs}, rows


def _weight_from_config(config: ExperimentConfig, interval: ShortInterval):
    if config.weight == "unit":
        return unit_weight(interval)
    if config.weight == "prime-indicator":
        return prime_indicator(interval)
    if config.weight == "von-mangoldt":
        return von_mangoldt_weight(interval)
    raise ValidationError(f"unknown weight {config.weight!r}")


def _run_weyl_scan(config: ExperimentConfig):
    interval = _window_from_config(config)
    dissection = build_dissection(interval, _delta_from_config(config), slim=config.slim)
    weight = _weight_from_config(config, interval)
    report = weyl_scan(interval, dissection, config.samples, weight, seed=config.seed)
    rows = list(report.to_csv_rows())
    result = {
        "k": report.k,
        "samples": report.samples,
        "seed": report.seed,
        "rho": report.rho,
        "sup_minor": report.sup_minor,
        "argmax_minor": report.argmax_minor,
        "ratio_sup": report.ratio_sup,
        "minor_inhabited": report.minor_inhabited,
        "rows": [
            {"alpha": r.alpha, "class": r.kind, "q": r.q, "a": r.a,
             "abs_f": r.abs_f, "ratio": r.ratio}
            for r in report.rows
        ],
    }
    return result, rows


def _run_moments(config: ExperimentConfig):
    interval = _window_from_config(config)
    weight = unit_weight(interval)
    nyquist = moment_nyquist(interval, config.t)
    enum = moment_enumeration(interval, config.t, weight)
    result = {
        "window": {"lo": interval.lo, "hi": interval.hi, "k": interval.k},
        "t": config.t,
        "nyquist": nyquist,
        "enumeration": enum,
        "agree": nyquist == round(enum),
    }
    return result, None


def _run_singular_series(config: ExperimentConfig):
    est = singular_series(config.n, config.k, config.s, config.qmax)
    return _series_payload(est), None


def _run_sieve_check(config: ExperimentConfig):
    return vector_sieve_pointwise_scan(config.samples, config.seed), None


def _run_vaughan_check(config: ExperimentConfig):
    interval = _window_from_config(config)
    cut = config.x_cut if config.x_cut is not None else default_bilinear_cut(interval)
    components = vaughan_decompose(interval, cut)
    lam = von_mangoldt_weight(interval)
    total = float(np.sum(lam.values))
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    for alpha in rng.uniform(0.0, 1.0, size=config.alphas):
        lhs = evaluate_components(components, float(alpha), interval)
        rhs = weighted_exp_sum(float(alpha), lam, interval)
        worst = max(worst, abs(lhs - rhs) / total)
    result = {
        "cut": cut,
        "components": len(components),
        "alphas": config.alphas,
        "seed": config.seed,
        "sum_von_mangoldt": total,
        "max_rel_residual": worst,
        "type_ii_coefficient_diagnostic": coefficient_diagnostic(components),
    }
    return result, None


_RUNNERS = {
    "count": _run_count,
    "predict": _run_predict,
    "compare": _run_compare,
    "dissect": _run_dissect,
    "weyl-scan": _run_weyl_scan,
    "moments": _run_moments,
    "singular-series": _run_singular_series,
    "sieve-check": _run_sieve_check,
    "vaughan-check": _run_vaughan_check,
}


def run(config: ExperimentConfig) -> tuple:
    """Execute one subcommand; returns (exit_status, report_text)."""
    try:
        runner = _RUNNERS[config.subcommand]
    except KeyError:
        return 2, f"unknown subcommand {config.subcommand!r}\n"
    try:
        result, rows = runner(config)
    except ValidationError as exc:
        return 2, f"invalid config: {exc}\n"
    except (KglabError, OverflowError) as exc:
        return 1, f"computation error: {exc}\n"
    if config.fmt == "csv":
        if rows is None:
            return 2, f"subcommand {config.subcommand} has no CSV form\n"
        return 0, _emit_csv(config, rows)
    return 0, _emit_json(config, result)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kglab",
        description="circle-method laboratory for sums of k-th powers of primes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, *, window=False, arcs=False, rand=False, series=False):
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--s", type=int, default=5)
        p.add_argument("--theta", type=float, default=0.85)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)
        if window:
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--lo", type=int, default=None)
            p.add_argument("--hi", type=int, default=None)
        if arcs:
            p.add_argument("--delta", type=float, default=None)
            p.add_argument("--slim", action="store_true")
        if rand:
            p.add_argument("--samples", type=int, default=10000)
            p.add_argument("--seed", type=int, default=0)
        if series:
            p.add_argument("--qmax", type=int, default=10000)

    p = sub.add_parser("count", help="exact representation count")
    add_common(p, window=True)

    p = sub.add_parser("predict", help="main-term prediction")
    add_common(p, window=True, series=True)
    p.add_argument("--integral-method", dest="integral_method",
                   choices=("both", "fourier-quadrature", "density-convolution"),
                   default="both")

    p = sub.add_parser("compare", help="count vs predict over a range of n")
    add_common(p, series=True)
    p.add_argument("--range", dest="range_spec", required=True,
                   help="start:stop:step")
    p.add_argument("--include-inadmissible", action="store_true")
    p.add_argument("--anomaly-threshold", dest="anomaly_threshold",
                   type=float, default=1.0)

    p = sub.add_parser("dissect", help="dump the arc family")
    add_common(p, window=True, arcs=True)

    p = sub.add_parser("weyl-scan", help="measure |f| over random frequencies")
    add_common(p, window=True, arcs=True, rand=True)
    p.add_argument("--weight", choices=("unit", "prime-indicator", "von-mangoldt"),
                   default="prime-indicator")

    p = sub.add_parser("moments", help="exact even moments of |f(., 1)|")
    add_common(p, window=True)
    p.add_argument("--t", type=int, default=2)

    p = sub.add_parser("singular-series", help="truncated arithmetic factor")
    add_common(p, series=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("sieve-check", help="randomized vector-sieve inequality check")
    add_common(p, rand=True)

    p = sub.add_parser("vaughan-check", help="decomposition identity residual")
    add_common(p, window=True, rand=True)
    p.add_argument("--x-cut", dest="x_cut", type=float, default=None)
    p.add_argument("--alphas", type=int, default=100)

    return parser


_DEFAULT_FMT = {"weyl-scan": "csv", "compare": "csv", "dissect": "json"}


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    known = {f.name for f in fields(ExperimentConfig)}
    data = {k: v for k, v in vars(args).items() if k in known and v is not None}
    config = ExperimentConfig(**data)
    if config.fmt is None:
        config.fmt = _DEFAULT_FMT.get(config.subcommand, "json")
    if config.subcommand in ("count", "predict") and config.n is None:
        raise ValidationError(f"{config.subcommand} needs --n")
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (TypeError, ValidationError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    status, text = run(config)
    if status != 0:
        sys.stderr.write(text)
        return status
    if config.out:
        with open(config.out, "w") as handle:
            handle.write(text)
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # Downstream closed early (e.g. piped into head); not an error.
            try:
                sys.stdout.close()
            except BrokenPipeError:
                pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
