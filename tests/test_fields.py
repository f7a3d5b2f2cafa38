"""Exact field arithmetic over F_p and Q."""

import random
from fractions import Fraction

import pytest

from coprimespec.fields import parse_field_name, prime_field, rationals


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
