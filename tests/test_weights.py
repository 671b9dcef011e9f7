import numpy as np
import pytest

from kglab import (
    ShortInterval,
    ValidationError,
    build_interval,
    prime_indicator,
    primes_in_interval,
    table_weight,
    unit_weight,
    von_mangoldt,
    von_mangoldt_weight,
    zero_weight,
)


@pytest.fixture(scope="module")
def window():
    return build_interval(845, 2, 5, 0.85)


def test_unit_weight(window):
    weight = unit_weight(window)
    assert weight.kind == "unit"
    assert weight.bound == 1.0
    assert all(weight(m) == 1.0 for m in window)
    assert weight(window.hi + 1) == 0.0  # off-window lookups vanish


def test_prime_indicator_matches_table(window):
    primes = primes_in_interval(window)
    weight = prime_indicator(window)
    for m in window:
        assert weight(m) == (1.0 if m in primes else 0.0)
    assert tuple(weight.support) == primes


def test_von_mangoldt_weight(window):
    weight = von_mangoldt_weight(window)
    for m in window:
        assert weight(m) == von_mangoldt(m)
    assert weight.bound >= max(weight.values)


@pytest.mark.parametrize("lo,hi", [
    (1, 2000),                  # from 1, every small prime power
    (961, 1024),                # 31^2 to 2^10
    (2187, 2197),               # 3^7 to 13^3
    (2**31 - 1, 2**31),         # a prime, then a power of two
    (3**20 - 40, 3**20),        # a high power of 3 at the top edge
    (7**11, 7**11 + 300),       # a high power of 7 at the bottom edge
])
def test_von_mangoldt_sieve_matches_the_scalar_function(lo, hi):
    window = ShortInterval.from_integer_window(lo, hi, 2)
    weight = von_mangoldt_weight(window)
    assert weight.values.tolist() == [von_mangoldt(m) for m in window]


def test_von_mangoldt_sieve_on_a_long_window():
    window = build_interval(5 * 10**8, 2, 5, 0.85)
    weight = von_mangoldt_weight(window)
    assert weight.values.tolist() == [von_mangoldt(m) for m in window]


def test_table_weight_roundtrip(window):
    mapping = {m: 0.5 * m for m in list(window)[:4]}
    weight = table_weight(window, mapping)
    for m, v in mapping.items():
        assert weight(m) == v
    assert weight.bound == max(mapping.values())


def test_table_weight_rejects_entries_off_window(window):
    with pytest.raises(ValidationError):
        table_weight(window, {window.hi + 5: 1.0})


def test_table_weight_enforces_declared_bound(window):
    with pytest.raises(ValidationError):
        table_weight(window, {window.lo: 3.0}, bound=1.0)


def test_wrong_length_values_rejected(window):
    from kglab import WeightFunction

    with pytest.raises(ValidationError):
        WeightFunction("table", window, np.ones(window.size + 2), 1.0)


def test_zero_weight(window):
    weight = zero_weight(window)
    assert not len(weight.support)
