"""Every report of the golden corpus (tests/golden) comes out byte for byte
as stored, timestamp aside; tests/golden/record.py rewrites the corpus."""

from golden.record import CASES, HERE, case_path, differences, load, render


def test_reports_match_the_golden_corpus():
    assert {case_path(cmd) for cmd in CASES} == set(HERE.glob("*.gz"))
    moved = []
    for cmd in CASES:
        old, new = load(cmd), render(cmd)
        if new != old:
            path, a, b = next(differences(old, new))
            moved.append(f"{cmd}: {path}: {a} → {b}")
    assert not moved, "reports moved (first field of each):\n" + "\n".join(moved)
