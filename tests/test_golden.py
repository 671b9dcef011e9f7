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


def test_a_moved_config_key_is_named_and_an_absent_one_reads_missing():
    csv_old = '# version: 0.1.0\n# config: {"k": 2, "qmax": 10}\nq,a\n1,1\n'
    csv_new = '# version: 0.1.0\n# config: {"k": 3}\nq,a\n1,1\n'
    assert list(differences(csv_old, csv_new)) == [
        ("line 2: config.k", "2", "3"), ("line 2: config.qmax", "10", "<missing>")]
    assert list(differences('{"config": {"t": null}}', '{"config": {}}')) == [
        (".config.t", "null", "<missing>")]
