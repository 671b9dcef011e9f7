"""Command-line driver.

Subcommands: count, predict, compare, dissect, weyl-scan, moments,
singular-series, sieve-check, vaughan-check.  Each subcommand registers
once: its runner, its report forms and only the options its runner reads,
from one table of types and defaults; the parsed namespace is the run's
config.  Reports are JSON (schema 1, floats at 15 significant digits) or
CSV ('.' decimal, no locale), embed that config (the subcommand, the
format and the subcommand's options, defaults filled in) and the library
version, and are byte-identical across runs for the same config and seed
(the timestamp field aside).  A command imports only the modules it runs:
each runner imports its own kglab modules, on the calling thread, and
this module loads only `errors` and `intervals` of the package.  Exit
status: 0 on success, 1 on a computation error, 2 on an invalid config
(one line each).
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
from dataclasses import fields, is_dataclass

import numpy as np

from . import __version__
from .errors import ConsistencyError, KglabError, ValidationError, check_cap
from .intervals import MEMORY_BUDGET, ShortInterval, build_interval

# Compare's rows, at about 2,330 bytes per target of a JSON report, the
# heavier form (100,000 rows raised peak RSS by 222 MiB): 120,171 targets
# in a range, admissible or not.
COMPARE_RANGE_CAP = MEMORY_BUDGET // 2_330
# vaughan-check's frequencies and their sums, at about 100 bytes per
# frequency (20,000 more raised peak RSS by 1.7 MB): 2,800,000 frequencies.
ALPHA_CAP = MEMORY_BUDGET // 100


def _echo(config: argparse.Namespace) -> dict:
    """The config a report embeds: the subcommand, the format and the
    options that subcommand takes, defaults filled in.  The output path is
    delivery, not experiment identity; reports must be byte-identical
    wherever they are written.  The runner is code, not config."""
    return {k: v for k, v in vars(config).items()
            if v is not None and k not in ("out", "runner")}


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


def _emit_json(config: argparse.Namespace, result) -> str:
    envelope = {
        "schema": 1,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": _plain(_echo(config)),
        "result": result,
    }
    try:
        return json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:  # RFC 8259 has no NaN or Infinity
        raise KglabError("the report holds NaN or Infinity, which JSON cannot hold") from None


def _emit_csv(config: argparse.Namespace, rows) -> str:
    buf = io.StringIO()
    buf.write(f"# version: {__version__}\n")
    buf.write("# config: " + json.dumps(_plain(_echo(config)), sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([f"{v:.15g}" if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue()


def _delta_from_config(config: argparse.Namespace) -> float:
    from .arcs import default_delta

    if config.delta is not None:
        return config.delta
    return default_delta(config.k, config.theta)


def _series_payload(est) -> dict:
    result = _plain(est)
    result["p_local"] = [{"p": p, "sigma": sigma} for p, sigma in result["p_local"]]
    result["obstructed"] = est.obstructed
    return result


def _run_count(config: argparse.Namespace):
    from .representations import count_exact

    result = _plain(count_exact(config.n, config.k, config.s, config.theta))
    result["R"] = result.pop("count")
    return result


def _run_predict(config: argparse.Namespace):
    from .singular import predict_main_term

    rep = predict_main_term(
        config.n, config.k, config.s, config.theta,
        qmax=config.qmax, integral_method=config.integral_method,
    )
    result = _plain(rep)
    result["series"] = _series_payload(rep.series)
    result["obstructed"] = rep.obstructed
    return result


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


def _run_compare(config: argparse.Namespace):
    from .batch import sweep
    from .local_conditions import is_admissible

    start, stop, step = _parse_range(config.range_spec)
    size = (stop - start - 1) // step + 1  # len(range(...)), which overflows past 2^63
    check_cap("compare range targets", size, COMPARE_RANGE_CAP)
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
        anomaly = row.count == 0 and row.prediction > 1.0
        rows.append((n, row.count, row.prediction,
                     ratio if math.isfinite(ratio) else "", adm, anomaly, ""))
    if config.fmt == "csv":
        return [header, *rows]
    return _plain([dict(zip(header, row)) for row in rows])


def _run_dissect(config: argparse.Namespace):
    from .arcs import build_dissection

    interval = build_interval(config.n, config.k, config.s, config.theta)
    dissection = build_dissection(interval, _delta_from_config(config), slim=config.slim)
    if config.fmt == "csv":
        return [("q", "a", "center", "half_width"),
                *((arc.q, arc.a, arc.center, arc.half_width) for arc in dissection.arcs)]
    return _plain(dissection)


# --weight: each name's builder in `weights`
_WEIGHTS = {
    "unit": "unit_weight",
    "prime-indicator": "prime_indicator",
    "von-mangoldt": "von_mangoldt_weight",
}


def _run_weyl_scan(config: argparse.Namespace):
    from . import weights
    from .arcs import build_dissection
    from .exp_sums import weyl_scan

    interval = build_interval(config.n, config.k, config.s, config.theta)
    dissection = build_dissection(interval, _delta_from_config(config))
    weight = getattr(weights, _WEIGHTS[config.weight])(interval)
    report = weyl_scan(interval, dissection, config.samples, weight, seed=config.seed)
    if config.fmt == "csv":
        return [("alpha", "class", "q", "a", "abs_f", "ratio"),
                *((row.alpha, row.kind, *((row.q, row.a) if row.kind == "major" else ("", "")),
                   row.abs_f, row.ratio) for row in report.rows)]
    result = _plain(report)
    for row in result["rows"]:
        row["class"] = row.pop("kind")
    return result


def _run_moments(config: argparse.Namespace):
    from .exp_sums import moment_enumeration, moment_nyquist
    from .weights import unit_weight

    interval = ShortInterval.from_integer_window(config.lo, config.hi, config.k)
    # The weight is built after the Nyquist route has checked its sample
    # cap; a window far past that cap would need hundreds of MB of weight.
    nyquist = moment_nyquist(interval, config.t)
    enum = moment_enumeration(interval, config.t, unit_weight(interval))
    if nyquist != enum:
        raise ConsistencyError(
            f"the moment routes disagree: Nyquist {nyquist}, enumeration {enum!r}")
    return _plain({
        "window": {"lo": interval.lo, "hi": interval.hi, "k": interval.k},
        "t": config.t,
        "nyquist": nyquist,
        "enumeration": enum,
        "agree": True,
    })


def _run_singular_series(config: argparse.Namespace):
    from .singular import singular_series

    return _series_payload(singular_series(config.n, config.k, config.s, config.qmax))


def _run_sieve_check(config: argparse.Namespace):
    from .representations import vector_sieve_pointwise_scan

    return _plain(vector_sieve_pointwise_scan(config.samples, config.seed))


def _run_vaughan_check(config: argparse.Namespace):
    from .exp_sums import (coefficient_diagnostic, default_bilinear_cut, evaluate_components,
                           vaughan_decompose, weighted_exp_sum)
    from .weights import von_mangoldt_weight

    check_cap("vaughan-check frequencies", config.alphas, ALPHA_CAP)
    interval = build_interval(config.n, config.k, config.s, config.theta)
    cut = default_bilinear_cut(interval)
    components = vaughan_decompose(interval, cut)
    alphas = np.random.default_rng(config.seed).uniform(0.0, 1.0, size=config.alphas)
    # The weight is built after the components have checked their table caps.
    lhs = evaluate_components(components, alphas, interval)
    lam = von_mangoldt_weight(interval)
    total = float(np.sum(lam.values))
    rhs = weighted_exp_sum(alphas, lam, interval)
    worst = 0.0
    # Python's complex abs (libm hypot); numpy's vector abs rounds differently.
    for left, right in zip(lhs.tolist(), rhs.tolist()):
        worst = max(worst, abs(left - right) / total)
    return _plain({
        "cut": cut,
        "components": len(components),
        "alphas": config.alphas,
        "seed": config.seed,
        "sum_von_mangoldt": total,
        "max_rel_residual": worst,
        "type_ii_coefficient_diagnostic": coefficient_diagnostic(components),
    })


def run(config: argparse.Namespace) -> tuple:
    """Execute one subcommand; returns (exit_status, report_text).  Its runner
    builds only the form asked for: CSV rows, or a JSON payload by `_plain`."""
    try:
        report = config.runner(config)
        return 0, (_emit_csv if config.fmt == "csv" else _emit_json)(config, report)
    except ValidationError as exc:
        return 2, f"invalid config: {exc}\n"
    except (KglabError, OverflowError, FloatingPointError, MemoryError) as exc:
        # A bare MemoryError has no message; its name stands in.
        return 1, f"computation error: {str(exc) or type(exc).__name__}\n"


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ValidationError: one `invalid config:` line, exit 2."""
    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kglab",
        description="circle-method laboratory for sums of k-th powers of primes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # The one option table: each option's type and default.  Each subcommand
    # registers once: its runner, its report forms (the first is the default
    # --format) and only the options its runner reads, by name ("n!": a
    # required --n), with no abbreviation of them; its parsed namespace is
    # the run's config, and the report echoes it (`_echo`).
    options = {"n": (int, None), "lo": (int, None), "hi": (int, None), "k": (int, 2),
               "s": (int, 5), "theta": (float, 0.85), "delta": (float, None),
               "qmax": (int, 10000), "t": (int, 2), "samples": (int, 10000), "seed": (int, 0),
               "alphas": (int, 100)}

    def add(name, runner, forms, help, names):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(runner=runner)
        p.add_argument("--out", type=str)
        p.add_argument("--format", dest="fmt", choices=forms, default=forms[0])
        for option in names.split():
            flag = option.rstrip("!")
            kind, default = options[flag]
            p.add_argument(f"--{flag}", type=kind, default=default, required=option.endswith("!"))
        return p

    window, json_only = "n! k s theta", ("json",)
    add("count", _run_count, json_only, "exact representation count", window)
    add("predict", _run_predict, json_only, "main-term prediction", f"{window} qmax").add_argument(
        "--integral-method", choices=("both", "fourier-quadrature", "density-convolution"),
        default="both")
    p = add("compare", _run_compare, ("csv", "json"), "count vs predict over a range of n",
            "k s theta qmax")
    p.add_argument("--range", dest="range_spec", required=True, help="start:stop:step")
    p.add_argument("--include-inadmissible", action="store_true")
    add("dissect", _run_dissect, ("json", "csv"), "dump the arc family",
        f"{window} delta").add_argument("--slim", action="store_true")
    add("weyl-scan", _run_weyl_scan, ("csv", "json"), "measure |f| over random frequencies",
        f"{window} delta samples seed").add_argument(
        "--weight", choices=tuple(_WEIGHTS), default="prime-indicator")
    add("moments", _run_moments, json_only, "exact even moments of |f(., 1)|", "lo! hi! k t")
    add("singular-series", _run_singular_series, json_only, "truncated arithmetic factor",
        "n! k s qmax")
    add("sieve-check", _run_sieve_check, json_only, "randomized vector-sieve inequality check",
        "samples seed")
    add("vaughan-check", _run_vaughan_check, json_only, "decomposition identity residual",
        f"{window} seed alphas")
    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The run's config: the parsed namespace, its sample, frequency and
    seed floors checked where the subcommand takes them."""
    for name, least in (("samples", 1), ("alphas", 1), ("seed", 0)):
        if getattr(args, name, least) < least:
            raise ValidationError(f"need --{name} >= {least}, got {getattr(args, name)}")
    return args


def _write_report(path: str, text: str):
    """Write through a temporary file beside ``path``, then rename it into
    place, so a failed write leaves no partial report and any old file
    untouched.  A symlink is followed, so the link survives; an existing
    target that is not a regular file (a FIFO, a device) is written in
    place."""
    import tempfile  # here, so that a report to stdout does not load it

    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as handle:
            handle.write(text)
        return
    mask = os.umask(0)
    os.umask(mask)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".kglab-")
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~mask)  # the mode open() would give
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv=None) -> int:
    try:
        config = config_from_args(build_parser().parse_args(argv))
    except ValidationError as exc:
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
