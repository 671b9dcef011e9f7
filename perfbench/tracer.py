"""Per-layer tracing of kglab from outside the package.

`Tracer.install` wraps each layer's public functions and rebinds every
kglab module attribute that refers to one of them (`kglab.cli.count_exact`,
`kglab.singular.singular_series_term`, ...), so calls between modules are
traced too.  Each call records a span: name, start, end, the span that was
open when it started, an optional label and a note taken from its public
inputs and outputs.  Spans stay in memory; `layer_metrics` turns them into
the per-layer numbers.  Nothing under `src/` knows about this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# layer (module) -> public functions wrapped in it
LAYERS = {
    "intervals": ("build_interval", "primes_in_interval", "sieve_upto"),
    "local_conditions": ("is_admissible",),
    "weights": ("prime_indicator", "von_mangoldt_weight"),
    "exp_sums": ("weyl_scan", "weighted_exp_sum", "vaughan_decompose",
                 "evaluate_components", "moment_nyquist", "moment_enumeration"),
    "arcs": ("build_dissection", "classify"),
    "singular": ("singular_series", "singular_series_term", "singular_integral",
                 "predict_main_term"),
    "representations": ("count_exact",),
    "cli": ("run",),
}

# Functions that call another wrapped function, so self time differs from s.
SELF_TIMED = (
    "intervals.primes_in_interval", "weights.prime_indicator", "exp_sums.weyl_scan",
    "exp_sums.vaughan_decompose", "singular.singular_series", "singular.predict_main_term",
    "representations.count_exact", "cli.run",
)

# Top-level spans of a fresh `kglab` process: interpreter start-up (from the
# parent's spawn to the child's first statement) and `import kglab.cli`.
CHILD_SPANS = ("python.startup", "cli.import")

INTEGRAL_METHODS = ("density-convolution", "both")
SUBCOMMANDS = ("count", "predict", "compare", "dissect", "weyl-scan", "moments",
               "singular-series", "sieve-check", "vaughan-check")


def _bound(func):
    sig = inspect.signature(func)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _csv_or_json_rows(text: str) -> int:
    if text.startswith("#"):
        return sum(1 for line in text.splitlines() if not line.startswith("#")) - 1
    return len(json.loads(text)["result"])


def _note_makers(name: str, func):
    """(label, note) from one call's public arguments and result, or None."""
    if name == "singular.singular_integral":
        bind = _bound(func)
        return lambda a, kw, res: (bind(a, kw)["method"], None)
    if name == "cli.run":
        def note(a, kw, res):
            sub = a[0].subcommand if a else kw["config"].subcommand
            rows = _csv_or_json_rows(res[1]) if sub == "compare" and res[0] == 0 else None
            return sub, rows
        return note
    if name == "arcs.classify":
        return lambda a, kw, res: (None, res is not None)
    if name == "representations.count_exact":
        bind = _bound(func)
        return lambda a, kw, res: (None, (bind(a, kw)["s"], res.prime_count))
    if name == "exp_sums.weyl_scan":
        bind = _bound(func)

        def note(a, kw, res):
            args = bind(a, kw)
            return None, args["samples"] * args["interval"].size
        return note
    if name == "exp_sums.evaluate_components":
        bind = _bound(func)

        def note(a, kw, res):
            args = bind(a, kw)
            return None, _Deferred(args["components"], args["interval"])
        return note
    return None


class _Deferred:
    """Phase-term count of one decomposition evaluation, computed after the pass."""

    def __init__(self, components, interval):
        self.components = components
        self.interval = interval


def decomposition_pairs(components, lo: int, hi: int) -> int:
    """(b, v) pairs with xi_b != 0 and b*v in [lo, hi], from the public
    `BilinearComponent` fields; type-II blocks also clip v to [v_lo, v_hi]."""
    total = 0
    for comp in components:
        for i, b in enumerate(range(comp.u_lo, comp.u_hi + 1)):
            if comp.xi[i] == 0.0:
                continue
            v_lo, v_hi = (lo + b - 1) // b, hi // b
            if comp.kind == "type-II":
                v_lo, v_hi = max(v_lo, comp.v_lo), min(v_hi, comp.v_hi)
            total += max(0, v_hi - v_lo + 1)
    return total


class Tracer:
    def __init__(self):
        self.spans = []  # [name, label, start, end, parent, note]
        self._stack = []
        self._patched = []

    def record(self, name: str, start: float, end: float):
        """A top-level span timed by the caller (perf_counter clock)."""
        self.spans.append([name, None, start, end, -1, None])

    def wrap(self, name: str, func):
        """``func`` recording one span per call."""
        note_maker = _note_makers(name, func)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, None, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note_maker is not None:
                span[1], span[5] = note_maker(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"kglab.{layer}")
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    print(f"trace: kglab.{layer}.{fname} not found; not traced", file=sys.stderr)
                    continue
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "kglab" or mod_name.startswith("kglab.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def finish(self) -> list:
        """The spans with deferred notes resolved; plain JSON-ready lists."""
        pairs_by_id = {}
        for span in self.spans:
            note = span[5]
            if isinstance(note, _Deferred):
                key = id(note.components)
                if key not in pairs_by_id:
                    pairs_by_id[key] = (note.components, decomposition_pairs(
                        note.components, note.interval.lo, note.interval.hi))
                span[5] = pairs_by_id[key][1]
        return self.spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(processes: list, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``processes`` holds one span list per process of the pass.  `.s` is
    inclusive time, `.self_s` subtracts the time of wrapped children, and
    coverage is the share of ``traced_wall`` inside top-level spans.
    """
    calls, incl, self_s, labelled, notes = {}, {}, {}, {}, {}
    top = 0.0
    for spans in processes:
        child_time = [0.0] * len(spans)
        for name, _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, label, start, end, parent, note) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][4]
            if ancestor < 0:
                incl[name] = incl.get(name, 0.0) + dur
            if label is not None:
                labelled[(name, label)] = labelled.get((name, label), 0.0) + dur
            if note is not None:
                notes.setdefault(name, []).append(note)
            if parent < 0:
                top += dur

    out = {}
    for layer, funcs in LAYERS.items():
        for fname in funcs:
            base = f"{layer}.{fname}"
            out[f"{base}.calls"] = calls.get(base, 0)
            out[f"{base}.s"] = incl.get(base, 0.0)
            if base in SELF_TIMED:
                out[f"{base}.self_s"] = self_s.get(base, 0.0)
    for method in INTEGRAL_METHODS:
        out[f"singular.singular_integral.{method}.s"] = labelled.get(
            ("singular.singular_integral", method), 0.0)

    scan_terms = sum(notes.get("exp_sums.weyl_scan", []))
    decomp_terms = sum(notes.get("exp_sums.evaluate_components", []))
    majors = notes.get("arcs.classify", [])
    states = sum(p ** (s // 2) + p ** (s - s // 2)
                 for s, p in notes.get("representations.count_exact", []))
    rows = sum(r for r in notes.get("cli.run", []) if r is not None)
    compare_s = labelled.get(("cli.run", "compare"), 0.0)
    out.update({
        "exp_sums.scan_terms": scan_terms,
        "exp_sums.scan_ns_per_term": 1e9 * _ratio(self_s.get("exp_sums.weyl_scan", 0.0), scan_terms),
        "exp_sums.decomp_terms": decomp_terms,
        "exp_sums.decomp_ns_per_term": 1e9 * _ratio(incl.get("exp_sums.evaluate_components", 0.0),
                                                    decomp_terms),
        "arcs.classify.major_frac": _ratio(sum(majors), len(majors)),
        "representations.mitm_states": states,
        "representations.ns_per_state": 1e9 * _ratio(
            self_s.get("representations.count_exact", 0.0), states),
        "cli.compare.rows": rows,
        "cli.compare.rows_per_s": _ratio(rows, compare_s),
    })
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.s"] = labelled.get(("cli.run", sub), 0.0)
    for name in CHILD_SPANS:
        out[f"{name}.s"] = incl.get(name, 0.0)
    out["trace.overhead_frac"] = _ratio(traced_wall, untraced_wall) - 1.0
    out["trace.coverage"] = _ratio(top, traced_wall)
    return out
