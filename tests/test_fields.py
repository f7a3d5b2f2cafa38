"""Exact field arithmetic over F_p and Q."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprimespec.fields import parse_field_name, prime_field, rationals


def is_canonical_rational(x) -> bool:
    """The canonical form of a scalar over Q: an int (never a bool), or a
    Fraction that is not integral; never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def test_prime_field_rejects_non_primes():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            prime_field(bad)


def test_f2_tables():
    f = prime_field(2)
    assert f.add(1, 1) == f.zero
    assert f.mul(1, 1) == f.one
    assert f.neg(1) == 1
    assert f.inv(1) == 1
    assert sorted(f.elements()) == [0, 1]
    assert f.is_finite and f.p == 2 and f.name == "F2"


def test_rationals_descriptor():
    q = rationals()
    assert not q.is_finite
    assert q.name == "Q"
    assert q.coerce(3) == Fraction(3)
    with pytest.raises(ValueError):
        q.elements()


def test_field_axioms_on_seeded_samples():
    rng = random.Random(11)
    for field in (prime_field(2), prime_field(3), prime_field(5), rationals()):
        for _ in range(60):
            a = field.random_element(rng)
            b = field.random_element(rng)
            c = field.random_element(rng)
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            left = field.mul(a, field.add(b, c))
            right = field.add(field.mul(a, b), field.mul(a, c))
            assert left == right
            assert field.add(a, field.neg(a)) == field.zero
            if not field.is_zero(b):
                assert field.mul(b, field.inv(b)) == field.one
                assert field.mul(field.mul(a, field.inv(b)), b) == a


def test_rational_arithmetic_is_exact():
    q = rationals()
    total = q.zero
    for _ in range(10):
        total = q.add(total, Fraction(1, 10))
    assert total == q.one
    assert q.inv(Fraction(-3, 7)) == Fraction(-7, 3)


def test_parse_field_name():
    assert parse_field_name("F2").p == 2
    assert parse_field_name("F17").p == 17
    assert parse_field_name("f3").p == 3
    assert not parse_field_name("Q").is_finite
    for bad in ("F4", "R", "F", "Fp", ""):
        with pytest.raises(ValueError):
            parse_field_name(bad)


def test_random_elements_are_seed_deterministic():
    for field in (prime_field(3), rationals()):
        a = [field.random_element(random.Random(5)) for _ in range(20)]
        b = [field.random_element(random.Random(5)) for _ in range(20)]
        assert a == b


def test_scalar_format_parse_round_trip():
    q = rationals()
    for s in (Fraction(0), Fraction(-3, 7), Fraction(5), Fraction(22, 7)):
        assert q.coerce(q.format_scalar(s)) == s
    f = prime_field(5)
    for s in f.elements():
        assert f.coerce(f.format_scalar(s)) == s


def test_coerce_rejects_bad_values():
    f = prime_field(3)
    assert f.coerce(5) == 2
    with pytest.raises(ValueError):
        rationals().coerce("x")


# Ints and small Fractions, integral ones such as Fraction(4, 2) included.
RATIONALS = st.one_of(st.integers(-40, 40),
                      st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=RATIONALS, b=RATIONALS)
def test_rational_operations_are_fraction_arithmetic_in_canonical_form(a, b):
    q = rationals()
    x, y = Fraction(a), Fraction(b)
    cases = [(q.add(a, b), x + y), (q.sub(a, b), x - y), (q.mul(a, b), x * y),
             (q.neg(a), -x), (q.coerce(a), x)]
    if y:
        cases.append((q.inv(b), 1 / y))
    for got, want in cases:
        assert got == want
        assert is_canonical_rational(got)


def test_rational_coerce_gives_the_canonical_form():
    q = rationals()
    for x in ("6/3", Fraction(4, 2), 2):
        got = q.coerce(x)
        assert got == 2 and type(got) is int
    assert q.coerce("-3/6") == Fraction(-1, 2)
    assert all(is_canonical_rational(s) for s in (q.zero, q.one))
    rng = random.Random(3)
    assert all(is_canonical_rational(q.random_element(rng)) for _ in range(200))
    with pytest.raises(TypeError):
        q.coerce(True)
