"""Golden reports: the corpus of CLI reports that must not move.

Each case is one command line; its report, with the JSON timestamp line
removed, is stored gzipped in this directory under the case's name.
``tests/test_golden.py`` runs every case in process and compares bytes.

Run from the repository root to rewrite the corpus after a change that is
meant to move digits:

    PYTHONPATH=src python tests/golden/record.py

It prints each moved field as ``command: path: old → new`` (and each
added or dropped report), for the change's CHANGES entry; a key or cell
held on one side only reads ``<missing>`` on the other, and a CSV report's
``# config:`` line is compared key by key, as a JSON report's config is.  With
``--check`` it prints the same lines, writes nothing, and exits 1 if any
report moved, so a change can be shown byte-identical, or its moved
fields listed, before the corpus is rewritten.
"""

from __future__ import annotations

import argparse
import gzip
import json
import shlex
import sys
from pathlib import Path

from kglab import cli

HERE = Path(__file__).resolve().parent

README = HERE.parents[1] / "README.md"


def readme_commands() -> list:
    """The README's quick-start commands, each as an argv without `kglab`."""
    block = README.read_text().split("## Quick start", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("kglab ")]


def subparsers() -> dict:
    """Each subcommand's parser in `cli.build_parser`, by name."""
    return next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def report_forms(name: str) -> tuple:
    """The report forms of subcommand ``name``: its --format choices."""
    return next(action for action in subparsers()[name]._actions if action.dest == "fmt").choices


# The README commands in both forms where a CSV form exists; the series
# and prediction inputs that changes to the series re-check; and inputs in
# the paper's regime s >= k^2 + k + 1.
CASES = [
    *(f"{shlex.join(argv)} --format json" for argv in readme_commands()),
    *(f"{shlex.join(argv)} --format csv" for argv in readme_commands()
      if "csv" in report_forms(argv[0])),
    "singular-series --n 29 --k 2 --s 5 --qmax 100000",
    "singular-series --n 845 --k 3 --s 5 --qmax 10000",
    "singular-series --n 1000007 --k 6 --s 7 --qmax 5000",
    "singular-series --n 12345679 --k 9 --s 11 --qmax 10000",
    "predict --n 6655 --k 3 --s 5 --theta 0.85 --qmax 1000",
    *(f"singular-series --n {10201 * s} --k 2 --s {s} --qmax 100" for s in (10**3, 10**5, 10**7)),
    "predict --n 1000015 --k 3 --s 13 --theta 0.85 --qmax 10000",
    "compare --range 20001:20401:2 --k 3 --s 13 --theta 1 --qmax 1000 --format csv",
    "compare --range 200001:200011:2 --k 3 --s 13 --theta 1 --qmax 1000 --format csv",
    "compare --range 100000001:100000009:2 --k 3 --s 13 --theta 0.776 --qmax 1000 --format csv",
    # Arc families of more than one arc, disjoint and overlapping, and a
    # scan with major samples.
    "dissect --n 500000000 --k 2 --s 5 --theta 0.85 --delta 0.5 --format csv",
    "dissect --n 845 --k 2 --s 5 --theta 0.85 --delta 0.9 --format csv",
    "weyl-scan --n 845 --k 2 --s 5 --theta 0.85 --delta 0.5 --samples 1000 --seed 7 --format csv",
    # The theorem's regime near 10^9 (k = 3, s = 13, theta = 0.776): the
    # k = 3 phase path, and a family whose only major arcs are at q = 1.
    *(f"{cmd} --n 1000000001 --k 3 --s 13 --theta 0.776 {rest}" for cmd, rest in (
        ("weyl-scan", "--samples 1000 --seed 7 --format csv"),
        ("vaughan-check", "--alphas 100"),
        ("dissect", "--format csv"),
        ("predict", "--qmax 1000"),
    )),
]


def case_path(cmd: str) -> Path:
    """Where the report of ``cmd`` is stored."""
    argv = shlex.split(cmd)
    fmt = "json"
    if "--format" in argv:
        at = argv.index("--format")
        fmt = argv.pop(at + 1)
        del argv[at]
    return HERE / ("_".join(w.lstrip("-").replace(":", "-") for w in argv) + f".{fmt}.gz")


def render(cmd: str) -> str:
    """The report of ``cmd``, as ``kglab`` prints it, without its timestamp."""
    config = cli.config_from_args(cli.build_parser().parse_args(shlex.split(cmd)))
    status, text = cli.run(config)
    if status != 0:
        raise RuntimeError(f"{cmd}: exit {status}: {text.strip()}")
    if config.fmt == "csv":
        return text
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith('  "timestamp": '))


def load(cmd: str):
    """The stored report of ``cmd``, or None."""
    path = case_path(cmd)
    return gzip.decompress(path.read_bytes()).decode() if path.exists() else None


def differences(old: str, new: str):
    """(path, old value, new value) for each field in which two reports of
    the same command differ, in report order."""
    try:
        reports = json.loads(old), json.loads(new)
    except json.JSONDecodeError:
        yield from _csv_differences(old.splitlines(), new.splitlines())
        return
    fields = list(_json_differences(*reports, ""))
    yield from fields
    if not fields and old != new:
        yield "<layout>", "", ""


# A key held by one report and not the other.
_ABSENT = object()


def _json_differences(old, new, path):
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _json_differences(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                         f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _json_differences(a, b, f"{path}[{i}]")
    else:
        a, b = ("<missing>" if v is _ABSENT else json.dumps(v) for v in (old, new))
        if a != b:
            yield path or ".", a, b


def _csv_differences(old, new):
    header = next((line.split(",") for line in old if not line.startswith("#")), [])
    config = "# config: "
    for i in range(max(len(old), len(new))):
        a = old[i] if i < len(old) else "<missing>"
        b = new[i] if i < len(new) else "<missing>"
        if a == b:
            continue
        if a.startswith(config) and b.startswith(config):
            yield from _json_differences(json.loads(a[len(config):]),
                                         json.loads(b[len(config):]), f"line {i + 1}: config")
            continue
        if a.startswith("#") or b.startswith("#"):
            yield f"line {i + 1}", a, b
            continue
        cells_a, cells_b = a.split(","), b.split(",")
        for j in range(max(len(cells_a), len(cells_b))):
            x = cells_a[j] if j < len(cells_a) else "<missing>"
            y = cells_b[j] if j < len(cells_b) else "<missing>"
            if x != y:
                name = header[j] if j < len(header) else f"column {j + 1}"
                yield f"line {i + 1}: {name}", x, y


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite the golden corpus.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if any report moved")
    check = parser.parse_args(argv).check
    moves = []
    for cmd in CASES:
        new, old = render(cmd), load(cmd)
        moves += ([f"{cmd}: new report"] if old is None else
                  [f"{cmd}: {path}: {a} → {b}" for path, a, b in differences(old, new)])
        if not check:
            case_path(cmd).write_bytes(gzip.compress(new.encode(), mtime=0))
    kept = {case_path(cmd) for cmd in CASES}
    for path in sorted(HERE.glob("*.gz")):
        if path not in kept:
            moves.append(f"{path.name}: dropped")
            if not check:
                path.unlink()
    for line in moves:
        print(line)
    return int(check and bool(moves))


if __name__ == "__main__":
    sys.exit(main())
