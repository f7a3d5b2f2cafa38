"""Exact scalar arithmetic: prime fields F_p and the rationals Q.

Scalars are plain Python values: residues 0..p-1 (int) over F_p and
`fractions.Fraction` over Q.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction

MAX_PRIME = 2**31


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


class Field:
    """F_p for prime p, or Q when p is None."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not isinstance(p, int) or p > MAX_PRIME or not is_prime(p):
                raise ValueError(f"field order must be a prime <= 2^31, got {p!r}")
        self.p = p

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    @property
    def name(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    # -- element construction ------------------------------------------------

    @property
    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    @property
    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def coerce(self, x):
        """Coerce an int, Fraction, or 'num/den' string to a field element."""
        p = self.p
        if p is not None:
            if isinstance(x, str):
                x = int(x, 10)
            if isinstance(x, Fraction):
                if x.denominator % p == 0:
                    raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
                return (x.numerator * pow(x.denominator, -1, p)) % p
            if not isinstance(x, int):
                raise TypeError(f"cannot coerce {x!r} into {self.name}")
            return x % p
        if isinstance(x, bool):
            raise TypeError(f"cannot coerce {x!r} into Q")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def inv(self, a):
        if self.p is not None:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def is_zero(self, a) -> bool:
        return a == 0

    # -- serialization and ordering -------------------------------------------

    def format_scalar(self, a) -> str:
        if self.p is not None:
            return str(a)
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def sort_key(self, a):
        if self.p is not None:
            return a
        a = Fraction(a)
        return (a.numerator, a.denominator)

    # -- sampling and enumeration ----------------------------------------------

    def random_element(self, rng):
        if self.p is not None:
            return rng.randrange(self.p)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def elements(self):
        """All field elements; finite fields only."""
        if self.p is None:
            raise ValueError("Q is infinite")
        return range(self.p)

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.name})"


def prime_field(p: int) -> Field:
    return Field(p)


def rationals() -> Field:
    return Field(None)


GF2 = prime_field(2)
GF3 = prime_field(3)
QQ = rationals()


def parse_field_name(name: str) -> Field:
    """Parse a CLI/file field name: 'Q' or 'F<p>'."""
    name = name.strip()
    if name in ("Q", "QQ", "q"):
        return rationals()
    if name and name[0] in "Ff":
        try:
            return prime_field(int(name[1:], 10))
        except ValueError as exc:
            raise ValueError(f"bad field name {name!r}: {exc}") from None
    raise ValueError(f"bad field name {name!r}; expected 'Q' or 'F<p>'")
