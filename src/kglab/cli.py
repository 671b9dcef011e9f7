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
import os
import sys
import tempfile
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import __version__
from .arcs import build_dissection, default_delta
from .batch import sweep
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
            k: v for k, v in vars(self).items() if v is not None and k != "out"
        }


def _plain(obj):
    """JSON-ready copy of a report: dataclasses become dicts of their
    fields, tuples become lists, floats keep 15 significant digits."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.15g}")
    if isinstance(obj, np.integer):
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
    return json.dumps(_plain(_envelope(config, result)), sort_keys=True, indent=2) + "\n"


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.15g}"
    if v is None:
        return ""
    return str(v)


def _emit_csv(config: ExperimentConfig, rows) -> str:
    buf = io.StringIO()
    buf.write(f"# version: {__version__}\n")
    buf.write("# config: " + json.dumps(_plain(config.public_dict()), sort_keys=True) + "\n")
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
    result = _plain(est)
    result["p_local"] = [{"p": p, "sigma": sigma} for p, sigma in result["p_local"]]
    result["obstructed"] = est.obstructed
    return result


def _run_count(config: ExperimentConfig):
    result = _plain(count_exact(config.n, config.k, config.s, config.theta))
    result["R"] = result.pop("count")
    return result, None


def _run_predict(config: ExperimentConfig):
    rep = predict_main_term(
        config.n, config.k, config.s, config.theta,
        qmax=config.qmax, integral_method=config.integral_method,
    )
    result = _plain(rep)
    result["series"] = _series_payload(rep.series)
    for key in ("n", "k", "s"):
        del result["integral"][key]
    result["obstructed"] = rep.obstructed
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
    header = ("n", "R", "prediction", "ratio", "admissible", "anomaly", "error")
    targets = []
    for n in range(start, stop, step):
        adm = is_admissible(n, config.k, config.s)
        if adm or config.include_inadmissible:
            targets.append((n, adm))
    results = sweep([n for n, _ in targets], config.k, config.s, config.theta, config.qmax)
    rows = []
    for (n, adm), row in zip(targets, results):
        if row.prediction is None:
            rows.append((n, "", "", "", adm, "", row.error))
            continue
        ratio = row.count / row.prediction if row.prediction > 0 else math.inf
        anomaly = row.count == 0 and row.prediction > config.anomaly_threshold
        rows.append((n, row.count, row.prediction,
                     ratio if math.isfinite(ratio) else "", adm, anomaly, ""))
    return [dict(zip(header, row)) for row in rows], [header, *rows]


def _run_dissect(config: ExperimentConfig):
    interval = _window_from_config(config)
    dissection = build_dissection(interval, _delta_from_config(config), slim=config.slim)
    rows = [("q", "a", "center", "half_width")]
    rows.extend((arc.q, arc.a, arc.center, arc.half_width) for arc in dissection.arcs)
    return _plain(dissection), rows


_WEIGHTS = {
    "unit": unit_weight,
    "prime-indicator": prime_indicator,
    "von-mangoldt": von_mangoldt_weight,
}


def _run_weyl_scan(config: ExperimentConfig):
    interval = _window_from_config(config)
    dissection = build_dissection(interval, _delta_from_config(config), slim=config.slim)
    if config.weight not in _WEIGHTS:
        raise ValidationError(f"unknown weight {config.weight!r}")
    weight = _WEIGHTS[config.weight](interval)
    report = weyl_scan(interval, dissection, config.samples, weight, seed=config.seed)
    result = _plain(report)
    for row in result["rows"]:
        row["class"] = row.pop("kind")
    return result, list(report.to_csv_rows())


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
    alphas = np.random.default_rng(config.seed).uniform(0.0, 1.0, size=config.alphas)
    lhs = evaluate_components(components, alphas, interval)
    rhs = weighted_exp_sum(alphas, lam, interval)
    worst = 0.0
    # Python's complex abs (libm hypot); numpy's vector abs rounds differently.
    for left, right in zip(lhs.tolist(), rhs.tolist()):
        worst = max(worst, abs(left - right) / total)
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
    except (KglabError, OverflowError, FloatingPointError, MemoryError) as exc:
        # A bare MemoryError has no message; its name stands in.
        return 1, f"computation error: {str(exc) or type(exc).__name__}\n"
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

    # Defaults live in ExperimentConfig alone; options left unset parse to
    # None and config_from_args drops them.
    def add_common(p, *, window=False, arcs=False, rand=False, series=False):
        p.add_argument("--k", type=int)
        p.add_argument("--s", type=int)
        p.add_argument("--theta", type=float)
        p.add_argument("--out", type=str)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"))
        if window:
            p.add_argument("--n", type=int)
            p.add_argument("--lo", type=int)
            p.add_argument("--hi", type=int)
        if arcs:
            p.add_argument("--delta", type=float)
            p.add_argument("--slim", action="store_true")
        if rand:
            p.add_argument("--samples", type=int)
            p.add_argument("--seed", type=int)
        if series:
            p.add_argument("--qmax", type=int)

    p = sub.add_parser("count", help="exact representation count")
    add_common(p, window=True)

    p = sub.add_parser("predict", help="main-term prediction")
    add_common(p, window=True, series=True)
    p.add_argument("--integral-method", dest="integral_method",
                   choices=("both", "fourier-quadrature", "density-convolution"))

    p = sub.add_parser("compare", help="count vs predict over a range of n")
    add_common(p, series=True)
    p.add_argument("--range", dest="range_spec", required=True,
                   help="start:stop:step")
    p.add_argument("--include-inadmissible", action="store_true")
    p.add_argument("--anomaly-threshold", dest="anomaly_threshold", type=float)

    p = sub.add_parser("dissect", help="dump the arc family")
    add_common(p, window=True, arcs=True)

    p = sub.add_parser("weyl-scan", help="measure |f| over random frequencies")
    add_common(p, window=True, arcs=True, rand=True)
    p.add_argument("--weight", choices=tuple(_WEIGHTS))

    p = sub.add_parser("moments", help="exact even moments of |f(., 1)|")
    add_common(p, window=True)
    p.add_argument("--t", type=int)

    p = sub.add_parser("singular-series", help="truncated arithmetic factor")
    add_common(p, series=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("sieve-check", help="randomized vector-sieve inequality check")
    add_common(p, rand=True)

    p = sub.add_parser("vaughan-check", help="decomposition identity residual")
    add_common(p, window=True, rand=True)
    p.add_argument("--x-cut", dest="x_cut", type=float)
    p.add_argument("--alphas", type=int)

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


def _write_report(path: str, text: str):
    """Write through a temporary file beside ``path``, then rename it into
    place, so a failed write leaves no partial report and any old file
    untouched."""
    mask = os.umask(0)
    os.umask(mask)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".kglab-")
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~mask)  # the mode open() would give
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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
        try:
            _write_report(config.out, text)
        except OSError as exc:
            reason = exc.strerror or type(exc).__name__
            print(f"computation error: cannot write {config.out}: {reason}", file=sys.stderr)
            return 1
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
