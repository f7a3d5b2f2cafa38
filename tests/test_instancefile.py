"""Instance file serialization: exact scalars and bit-exact round trips."""

import json
from fractions import Fraction

import pytest

from coprimespec.bicomodule import quotient, regular_bicomodule
from coprimespec.catalog import (comatrix, divided_power, grouplike,
                                 right_comodule)
from coprimespec.coalgebra import Coalgebra
from coprimespec.exceptions import ParseError
from coprimespec.fields import prime_field, rationals
from coprimespec.instancefile import (load_instance, parse_instance,
                                      render_instance, save_instance,
                                      scalar_from_json, scalar_to_json)
from coprimespec.lattice import cyclic_subbicomodule

F2 = prime_field(2)
F3 = prime_field(3)
QQ = rationals()


def test_scalar_json_round_trip():
    assert scalar_from_json(F3, scalar_to_json(F3, 2)) == 2
    for s in (Fraction(0), Fraction(7), Fraction(-3, 7), Fraction(10, 4)):
        assert scalar_from_json(QQ, scalar_to_json(QQ, s)) == s
    assert scalar_to_json(QQ, Fraction(5)) == 5
    assert scalar_to_json(QQ, Fraction(1, 2)) == "1/2"


def test_coalgebra_round_trip_is_bit_exact():
    for field in (F2, F3, QQ):
        for c in (grouplike(3, field), divided_power(3, field),
                  comatrix(2, field)):
            text = render_instance(c)
            parsed = parse_instance(text)
            assert render_instance(parsed.left) == text
            assert parsed.left.delta == c.delta
            assert parsed.left.counit == c.counit


def test_fractional_structure_constants_survive_the_trip():
    c = Coalgebra(QQ, 1, [[[Fraction(2)]]], [Fraction(1, 2)])
    assert c.validate().ok
    text = render_instance(c)
    assert "1/2" in text
    parsed = parse_instance(text)
    assert parsed.left.counit == (Fraction(1, 2),)
    assert render_instance(parsed.left) == text


def test_regular_bicomodule_renders_without_a_bicomodule_block():
    m = regular_bicomodule(divided_power(2, F2))
    text = render_instance(m)
    parsed = parse_instance(text)
    assert parsed.raw_bicomodule is None
    rebuilt = parsed.bicomodule()
    assert rebuilt.regular_of is not None
    assert rebuilt.rho_left == m.rho_left
    assert rebuilt.rho_right == m.rho_right
    assert render_instance(rebuilt) == text


def test_general_bicomodule_round_trip():
    base = regular_bicomodule(divided_power(3, F3))
    sub = cyclic_subbicomodule(base, (1, 0, 0, 0))
    q, _ = quotient(base, sub)
    for m in (right_comodule(comatrix(2, F2)), q):
        text = render_instance(m)
        parsed = parse_instance(text)
        assert parsed.raw_bicomodule is not None
        rebuilt = parsed.bicomodule()
        assert rebuilt.rho_left == m.rho_left
        assert rebuilt.rho_right == m.rho_right
        assert render_instance(rebuilt) == text


def test_save_and_load(tmp_path):
    m = regular_bicomodule(grouplike(2, F3))
    path = tmp_path / "instance.json"
    save_instance(str(path), m)
    parsed = load_instance(str(path))
    assert parsed.field.name == "F3"
    assert parsed.bicomodule().dim == 2


def test_validation_reports_label_each_block():
    m = right_comodule(divided_power(2, F2))
    parsed = parse_instance(render_instance(m))
    reports = parsed.validation_reports()
    assert set(reports) == {"left", "right", "bicomodule"}
    assert all(rep.ok for rep in reports.values())


def test_parse_rejects_malformed_payloads():
    with pytest.raises(ParseError):
        parse_instance("not json at all {")
    with pytest.raises(ParseError):
        parse_instance(json.dumps({"format": "something-else"}))
    good = json.loads(render_instance(grouplike(2, F2)))
    del good["left"]["counit"]
    with pytest.raises(ParseError):
        parse_instance(json.dumps(good))
    bad_scalar = json.loads(render_instance(grouplike(2, F2)))
    bad_scalar["left"]["counit"] = [1, "x"]
    with pytest.raises(ParseError):
        parse_instance(json.dumps(bad_scalar))


def test_integer_scalars_are_reduced_into_the_prime_field():
    payload = json.loads(render_instance(grouplike(2, F2)))
    payload["left"]["counit"] = [1, 7]
    parsed = parse_instance(json.dumps(payload))
    assert parsed.left.counit == (1, 1)
