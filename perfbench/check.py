"""Stored reference outputs and the rules a report must meet against them.

A reference holds a report's `result` payload (JSON) or its CSV body; the
envelope's `timestamp`, `threads` and `version` are never compared.  The
rules:

- integers, strings and booleans match exactly, and so do the counts R,
  moments and the arc (q, a) of every weyl-scan row;
- `compare` predictions agree within 1e-12 relative;
- the `vaughan-check` residual stays below the 1e-8 identity gate;
- weyl-scan |f| (and its normalised ratio) agree within 1e-9 times the
  trivial bound B * |window|, stored with the reference;
- every other float agrees within 1e-9 relative.

A key or row the reference has and the report lacks, or one that differs,
is a failure.  A key the report adds is allowed.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "refs"

FLOAT_REL = 1e-9
PREDICTION_REL = 1e-12
RESIDUAL_GATE = 1e-8

# Per-key rules; anything not listed follows the default for its type.
EXACT = "exact"
RULES = {
    "R": EXACT,
    "nyquist": EXACT,
    "enumeration": EXACT,
    "prediction@compare": ("rel", PREDICTION_REL),
    "max_rel_residual": ("below", RESIDUAL_GATE),
}


def ref_path(name: str) -> Path:
    return REF_DIR / f"{name}.json.gz"


def load_refs(variant: int) -> dict:
    """References shared by every variant, overlaid with the variant's own."""
    refs = {}
    for name in ("common", f"v{variant}"):
        with gzip.open(ref_path(name), "rt", encoding="utf-8") as handle:
            refs.update(json.load(handle))
    return refs


def write_refs(name: str, refs: dict):
    data = json.dumps(refs, sort_keys=True, separators=(",", ":")).encode()
    ref_path(name).write_bytes(gzip.compress(data, mtime=0))


def parse_report(text: str) -> dict:
    """The comparable part of a report: {"csv": [header, *rows]} or {"json": result}."""
    if text.startswith("#"):
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        return {"csv": [list(row) for row in csv.reader(lines)]}
    return {"json": json.loads(text)["result"]}


def _rule(key: str, subcommand: str):
    return RULES.get(f"{key}@{subcommand}", RULES.get(key))


def _as_number(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def _value_ok(ref, got, rule, abs_tol=None) -> bool:
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None:
        return ref is got or ref == got and type(ref) is type(got)
    if isinstance(ref, str) or isinstance(got, str):
        return ref == got
    if isinstance(rule, tuple) and rule[0] == "below":
        return isinstance(got, (int, float)) and got < rule[1]
    if not isinstance(got, (int, float)):
        return False
    if abs_tol is not None:
        return abs(ref - got) <= abs_tol
    if rule == EXACT or isinstance(ref, int):
        return ref == got
    if math.isinf(ref) or math.isnan(ref):
        return ref == got or (math.isnan(ref) and math.isnan(got))
    rel = rule[1] if isinstance(rule, tuple) else FLOAT_REL
    return abs(ref - got) <= rel * max(abs(ref), abs(got))


def _cell_ok(ref: str, got: str, rule, abs_tol=None) -> bool:
    if ref == got:
        return True
    if isinstance(rule, tuple) and rule[0] == "below":
        num = _as_number(got)
        return num is not None and num < rule[1]
    r, g = _as_number(ref), _as_number(got)
    if r is None or g is None:
        return False
    return _value_ok(r, g, rule, abs_tol)


def _compare_json(ref, got, path: str, subcommand: str, problems: list):
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            problems.append(f"{path}: expected an object")
            return
        for key, value in ref.items():
            if key not in got:
                problems.append(f"{path}.{key}: missing")
            else:
                _compare_json(value, got[key], f"{path}.{key}", subcommand, problems)
        return
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{path}: expected a list of {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare_json(r, g, f"{path}[{i}]", subcommand, problems)
        return
    key = path.rsplit(".", 1)[-1].split("[")[0]
    if not _value_ok(ref, got, _rule(key, subcommand)):
        problems.append(f"{path}: expected {ref!r}, got {got!r}")


def _compare_row(ref_row: dict, got_row: dict, where: str, subcommand: str,
                 abs_tol: dict, problems: list) -> bool:
    ok = True
    for col, ref in ref_row.items():
        if col not in got_row:
            problems.append(f"{where}.{col}: missing")
            ok = False
        elif not _cell_ok(ref, got_row[col], _rule(col, subcommand), abs_tol.get(col)):
            problems.append(f"{where}.{col}: expected {ref!r}, got {got_row[col]!r}")
            ok = False
    return ok


def _rows(table: list) -> list:
    header, *rows = table
    return [dict(zip(header, row)) for row in rows]


def check(op, status: int, text: str, ref: dict) -> tuple:
    """(attempted, failed, problems) for one command's output against its reference.

    A whole command is one operation, except when ``op.row_key`` is set:
    then every reference row (and every unexpected row) is one operation.
    """
    subcommand = op.argv[0]
    problems = []
    parsed = None
    if status != 0:
        problems.append(f"{op.name}: exit status {status}")
    else:
        try:
            parsed = parse_report(text)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{op.name}: unreadable report ({exc})")
    if "csv" in ref:
        return _check_csv(op, parsed, ref, subcommand, problems)
    if parsed is not None:
        if "json" not in parsed:
            problems.append(f"{op.name}: expected a JSON report")
        else:
            _compare_json(ref["json"], parsed["json"], op.name, subcommand, problems)
    return 1, int(bool(problems)), problems


def _check_csv(op, parsed, ref, subcommand, problems) -> tuple:
    ref_rows = _rows(ref["csv"])
    abs_tol = ref.get("abs_tol", {})
    got_rows = None
    if parsed is not None:
        if "csv" not in parsed or not parsed["csv"]:
            problems.append(f"{op.name}: expected a CSV report")
        else:
            got_rows = _rows(parsed["csv"])
    if op.row_key is None:
        if got_rows is not None:
            if len(got_rows) != len(ref_rows):
                problems.append(f"{op.name}: expected {len(ref_rows)} rows, got {len(got_rows)}")
            else:
                for i, (r, g) in enumerate(zip(ref_rows, got_rows)):
                    _compare_row(r, g, f"{op.name}[{i}]", subcommand, abs_tol, problems)
        return 1, int(bool(problems)), problems
    if got_rows is None:
        return len(ref_rows), len(ref_rows), problems
    want = {row[op.row_key]: row for row in ref_rows}
    have = {row.get(op.row_key): row for row in got_rows}
    failed = 0
    for key, row in want.items():
        where = f"{op.name}[{op.row_key}={key}]"
        if key not in have:
            problems.append(f"{where}: missing")
            failed += 1
        elif not _compare_row(row, have[key], where, subcommand, abs_tol, problems):
            failed += 1
    extra = [key for key in have if key not in want]
    for key in extra:
        problems.append(f"{op.name}[{op.row_key}={key}]: not in the reference")
    return len(want) + len(extra), failed + len(extra), problems
