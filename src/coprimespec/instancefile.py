"""Canonical JSON instance files.

The on-disk form stores structure constants as sorted sparse triples with
exact scalars: plain integers, or "num/den" strings for non-integral
rationals.  A file holds a "left" coalgebra, an optional distinct "right"
coalgebra, and an optional "bicomodule" block; when the block is absent the
instance denotes the regular bicomodule of the (single) coalgebra.  Files
produced by render_instance round-trip byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bicomodule import Bicomodule, regular_bicomodule
from .coalgebra import Coalgebra
from .exceptions import ParseError
from .fields import Field, parse_field_name

FORMAT_NAME = "coprimespec-instance"
FORMAT_VERSION = 1


def scalar_to_json(field: Field, a):
    """Exact JSON form: an int, or "num/den" for non-integral rationals."""
    if field.p is not None:
        return int(a)
    a = Fraction(a)
    if a.denominator == 1:
        return int(a.numerator)
    return f"{a.numerator}/{a.denominator}"


def scalar_from_json(field: Field, x):
    if isinstance(x, bool) or isinstance(x, float):
        raise ParseError(f"scalars must be exact (int or 'num/den'), got {x!r}")
    try:
        return field.coerce(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {x!r}: {exc}") from None


def _coalgebra_payload(c: Coalgebra):
    return {
        "dim": c.dim,
        "delta": [[i, j, k, scalar_to_json(c.field, v)] for i, j, k, v in c.triples()],
        "counit": [scalar_to_json(c.field, v) for v in c.counit],
    }


def _coalgebra_from_payload(field: Field, payload, label: str) -> Coalgebra:
    if not isinstance(payload, dict):
        raise ParseError(f"{label} block must be an object")
    try:
        dim = payload["dim"]
        delta = payload["delta"]
        counit = payload["counit"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{label} block is missing {exc}") from None
    if not isinstance(dim, int) or dim < 1:
        raise ParseError(f"{label}.dim must be a positive integer, got {dim!r}")
    triples = []
    for entry in delta:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ParseError(f"{label}.delta entries must be [i, j, k, scalar], got {entry!r}")
        i, j, k, v = entry
        triples.append((i, j, k, scalar_from_json(field, v)))
    if not isinstance(counit, list) or len(counit) != dim:
        raise ParseError(f"{label}.counit must list {dim} scalars")
    counit = [scalar_from_json(field, v) for v in counit]
    try:
        return Coalgebra.from_triples(field, dim, triples, counit)
    except ValueError as exc:
        raise ParseError(f"bad {label} block: {exc}") from None


def _bicomodule_payload(m: Bicomodule):
    return {
        "dim": m.dim,
        "rho_left": [[i, j, k, scalar_to_json(m.field, v)]
                     for i, j, k, v in m.left_triples()],
        "rho_right": [[i, j, k, scalar_to_json(m.field, v)]
                      for i, j, k, v in m.right_triples()],
    }


class ParsedInstance:
    """Structurally checked instance; law validation is up to the caller."""

    def __init__(self, field: Field, left: Coalgebra, right: Coalgebra,
                 raw_bicomodule: Bicomodule | None):
        self.field = field
        self.left = left
        self.right = right
        self.raw_bicomodule = raw_bicomodule

    def validation_reports(self):
        """Law reports keyed by block name; bicomodule laws only when coalgebras pass."""
        reports = {"left": self.left.validate()}
        if self.right is not self.left:
            reports["right"] = self.right.validate()
        if self.raw_bicomodule is not None and all(r.ok for r in reports.values()):
            reports["bicomodule"] = self.raw_bicomodule.validate()
        return reports

    def bicomodule(self) -> Bicomodule:
        """The validated bicomodule the file denotes."""
        if self.raw_bicomodule is not None:
            return self.raw_bicomodule.require_valid()
        return regular_bicomodule(self.left)


def render_instance(obj) -> str:
    """Canonical text of a coalgebra or bicomodule instance."""
    if isinstance(obj, Coalgebra):
        field, left, right, block = obj.field, obj, obj, None
    elif isinstance(obj, Bicomodule):
        field, left, right = obj.field, obj.left, obj.right
        block = None if obj.regular_of is not None else _bicomodule_payload(obj)
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as an instance file")
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "field": field.name,
        "left": _coalgebra_payload(left),
    }
    if right != left:
        payload["right"] = _coalgebra_payload(right)
    if block is not None:
        payload["bicomodule"] = block
    return json.dumps(payload, indent=2) + "\n"


def parse_instance(text: str) -> ParsedInstance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    if not isinstance(payload, dict):
        raise ParseError("instance file must hold a JSON object")
    if payload.get("format") != FORMAT_NAME:
        raise ParseError(f"format must be {FORMAT_NAME!r}, got {payload.get('format')!r}")
    if payload.get("version") != FORMAT_VERSION:
        raise ParseError(f"unsupported version {payload.get('version')!r}")
    try:
        field = parse_field_name(payload["field"])
    except KeyError:
        raise ParseError("missing field name") from None
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if "left" not in payload:
        raise ParseError("missing left coalgebra block")
    left = _coalgebra_from_payload(field, payload["left"], "left")
    right = left
    if "right" in payload:
        right = _coalgebra_from_payload(field, payload["right"], "right")
        if right == left:
            right = left
    raw = None
    if "bicomodule" in payload:
        block = payload["bicomodule"]
        if not isinstance(block, dict):
            raise ParseError("bicomodule block must be an object")
        try:
            dim = block["dim"]
            rho_left = block["rho_left"]
            rho_right = block["rho_right"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bicomodule block is missing {exc}") from None
        if not isinstance(dim, int) or dim < 1:
            raise ParseError(f"bicomodule.dim must be a positive integer, got {dim!r}")

        def triples_of(entries, label):
            out = []
            for entry in entries:
                if not (isinstance(entry, list) and len(entry) == 4):
                    raise ParseError(f"{label} entries must be [i, j, k, scalar], got {entry!r}")
                i, j, k, v = entry
                out.append((i, j, k, scalar_from_json(field, v)))
            return out

        try:
            raw = Bicomodule.from_triples(left, right, dim,
                                          triples_of(rho_left, "rho_left"),
                                          triples_of(rho_right, "rho_right"))
        except ValueError as exc:
            raise ParseError(f"bad bicomodule block: {exc}") from None
    elif right is not left:
        raise ParseError("a file with distinct coalgebras needs a bicomodule block")
    return ParsedInstance(field, left, right, raw)


def load_instance(path: str) -> ParsedInstance:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_instance(handle.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from None


def save_instance(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_instance(obj))
