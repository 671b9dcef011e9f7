"""Resource caps and error contracts across modules, and the suite's imports
and warning filters."""

import ast
import importlib
import json
import math
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import kglab
from kglab import (
    ArcDissection,
    CapExceeded,
    ShortInterval,
    ValidationError,
    build_interval,
    complete_exp_sum,
    count_exact,
    count_weighted,
    moment_enumeration,
    phase_integral,
    prime_indicator,
    primes_in_interval,
    singular_series,
    singular_series_term,
    unit_weight,
)
from kglab.errors import check_cap


def test_check_cap_message_shape():
    check_cap("things", 7, 7)
    with pytest.raises(CapExceeded, match=r"^things: 8 exceeds the cap 7$"):
        check_cap("things", 8, 7)


def test_every_cap_goes_through_check_cap():
    # The only other raises are the two overflows, which are not caps.
    raisers = set()
    for path in sorted(Path(kglab.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and "CapExceeded" in ast.unparse(node.exc.func)):
                    raisers.add((path.name, func.name))
    assert raisers == {
        ("errors.py", "check_cap"),
        ("singular.py", "_centered_phase_integral"),
        ("singular.py", "_integrals_by_convolution"),
    }


def test_no_module_imports_a_name_it_does_not_use():
    # Function-local imports count too, and so does __init__.py.
    unused = []
    for path in sorted(Path(kglab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                unused += [(path.name, alias.asname or alias.name.split(".")[0]) for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_the_package_imports_exactly_its_declared_dependencies():
    # Function-local imports count too; relative imports are the package's own.
    tomllib = pytest.importorskip("tomllib")
    package = Path(kglab.__file__).parent
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[\w.-]+", dep)[0] for dep in pyproject["project"]["dependencies"]}
    imported = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == declared


def test_every_exported_name_resolves_to_its_module():
    table = kglab._MODULE_OF
    assert len(table) == 68 and sorted(kglab.__all__) == sorted(table)
    for name, module in table.items():
        assert getattr(kglab, name) is getattr(importlib.import_module(f"kglab.{module}"), name)
    assert set(table) <= set(dir(kglab))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kglab.no_such_name


# Modules a fresh process must not hold after `import kglab.cli`, and after
# each command (argv) it then runs.
NOT_LOADED = {
    (): ("kglab.arcs", "kglab.exp_sums", "kglab.local_conditions", "kglab.representations",
         "kglab.singular", "kglab.weights", "kglab.batch", "mpmath", "numpy.polynomial",
         "tempfile"),
    ("count", "--n", "845", "--k", "2", "--s", "5", "--theta", "0.85"):
        ("kglab.singular", "kglab.exp_sums"),
    ("sieve-check", "--samples", "1000", "--seed", "7"): ("kglab.singular", "kglab.exp_sums"),
    ("moments", "--lo", "11", "--hi", "20", "--k", "2", "--t", "2"): ("kglab.singular",),
    ("singular-series", "--n", "29", "--k", "2", "--s", "5", "--qmax", "100"):
        ("kglab.exp_sums",),
}

_LOADED_AFTER = """
import contextlib, io, json, sys
sys.path[:0] = json.loads(sys.argv[1])
import kglab.cli
if sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert kglab.cli.main(sys.argv[2:]) == 0
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize("argv", list(NOT_LOADED), ids=lambda argv: argv[0] if argv else "import")
def test_a_fresh_process_loads_only_what_it_runs(argv):
    # -S: no site hook (a .pth file) loads a module before kglab can; the
    # child finds its modules on this process's path.  -W error as in
    # `conftest.run_kglab`.
    proc = subprocess.run([sys.executable, "-S", "-W", "error", "-c", _LOADED_AFTER,
                           json.dumps(sys.path), *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {"kglab.cli", "kglab.intervals", "numpy"} <= loaded
    assert sorted(loaded & set(NOT_LOADED[argv])) == []


def test_window_memory_cap(monkeypatch):
    monkeypatch.setattr("kglab.intervals.WINDOW_CAP", 10**5)
    interval = ShortInterval.from_integer_window(1, 10**6, 2)
    with pytest.raises(CapExceeded):
        primes_in_interval(interval)


def test_complete_sum_cap():
    with pytest.raises(CapExceeded):
        complete_exp_sum(2_000_000, 1, 2)


def test_series_term_cap():
    with pytest.raises(CapExceeded):
        singular_series_term(200_001, 29, 2, 5)


def test_series_qmax_cap():
    with pytest.raises(CapExceeded):
        singular_series(29, 2, 5, 10**6)


def test_moment_state_cap(monkeypatch):
    monkeypatch.setattr("kglab.representations.TABLE_CAP", 10**6)
    interval = ShortInterval.from_integer_window(1, 100, 2)
    with pytest.raises(CapExceeded):
        moment_enumeration(interval, 5, unit_weight(interval))


def test_quadrature_panel_cap():
    interval = build_interval(5 * 10**8, 2, 5, 0.85)
    with pytest.raises(CapExceeded):
        phase_integral(0.9, interval)


def test_panel_cap_fits_the_memory_budget():
    # The bytes one phase integral takes per panel, to the byte, at about
    # 5e4 panels (a fixed part of a few KB is under half a byte per panel).
    # The quadrature's nodes are built once per process, on first use.
    from kglab.intervals import MEMORY_BUDGET
    from kglab.singular import PANEL_CAP, _gauss_legendre

    interval = build_interval(5 * 10**8, 2, 5, 0.85)
    scale = interval.y * interval.x
    beta = (50_000 / 8 - 1) / scale
    _gauss_legendre(12)
    tracemalloc.start()
    try:
        phase_integral(beta, interval)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    panels = math.ceil(8 * (1 + scale * beta))
    assert 49_000 <= panels <= 51_000
    assert PANEL_CAP * round(peak / panels) <= MEMORY_BUDGET


def test_arc_cap_fits_the_memory_budget():
    # The bytes the arc family takes per arc at the peak of its construction
    # and disjointness check, at 48,678 arcs (2 P^2 = Q).
    from kglab.arcs import ARC_COUNT_CAP
    from kglab.intervals import MEMORY_BUDGET

    tracemalloc.start()
    try:
        dissection = ArcDissection.from_parameters(400.0, 320000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dissection.disjoint_regime and len(dissection.arcs) == 48_678
    assert ARC_COUNT_CAP * round(peak / len(dissection.arcs)) <= MEMORY_BUDGET


def _budget_share(value) -> bool:
    """Whether ``value`` is the expression ``MEMORY_BUDGET // b``."""
    return (isinstance(value, ast.BinOp) and isinstance(value.op, ast.FloorDiv)
            and isinstance(value.left, ast.Name) and value.left.id == "MEMORY_BUDGET")


def test_every_public_cap_is_named_in_the_readme():
    # A cap by its name, or any figure cut from the memory budget.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    caps = {target.id for path in Path(kglab.__file__).parent.glob("*.py")
            for node in ast.parse(path.read_text()).body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id[0] != "_"
            and (target.id.endswith("_CAP") or _budget_share(node.value))}
    assert len(caps) >= 16 and "SECOND_TABLE_STATES" in caps
    assert sorted(cap for cap in caps if f"`{cap}`" not in readme) == []


def test_count_prime_cap(monkeypatch):
    monkeypatch.setattr("kglab.representations.PRIME_COUNT_CAP", 3)
    with pytest.raises(CapExceeded):
        count_exact(845, 2, 5, 0.85)


def test_weighted_count_prime_cap(monkeypatch):
    # The weighted count takes the counting cap and its message from the
    # exact count's prime table.
    interval = build_interval(845, 2, 5, 0.85)
    weight = prime_indicator(interval)
    assert count_weighted(845, 2, 5, 0.85, weight, weight) > 0
    monkeypatch.setattr("kglab.representations.PRIME_COUNT_CAP", 3)
    with pytest.raises(CapExceeded, match=r"^primes to count: \d+ exceeds the cap 3$"):
        count_weighted(845, 2, 5, 0.85, weight, weight)


def test_identity_check_caps():
    from kglab import local_count_identity_check

    with pytest.raises(CapExceeded):
        local_count_identity_check(600, 29, 2, 5)
    with pytest.raises(CapExceeded):
        local_count_identity_check(10, 29, 2, 7)


def test_interval_validation_messages():
    with pytest.raises(ValidationError):
        build_interval(845, 2, 5, -0.5)
    with pytest.raises(ValidationError):
        ShortInterval.from_integer_window(5, 4, 2)
    with pytest.raises(ValidationError):
        ShortInterval(x=10.0, y=20.0, k=2, lo=1, hi=5)


def test_no_test_module_imports_the_tests_package():
    # `tests` is a package only when the repository root is on sys.path, as
    # under `python -m pytest`; a bare `pytest` puts tests/ there instead.
    imported = []
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.append((path.name, node.module))
    assert [(name, module) for name, module in imported
            if module.split(".")[0] == "tests"] == []


def test_a_failing_property_test_does_not_end_the_suite(tmp_path):
    # Hypothesis's failure report warns inside a pytest hook; were that
    # warning an error, the run would stop there (INTERNALERROR) and the
    # passing test after it would never run.
    (tmp_path / "test_child.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st


        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x != x


        def test_passes():
            pass
    """))
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_child.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
