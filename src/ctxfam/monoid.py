"""Exact arithmetic over the three annotation monoids.

Every relation in this package carries annotations drawn from one of three
commutative monoids:

* ``B``  -- the Booleans ({0, 1}, or, 0); plain presence/absence,
* ``N``  -- the naturals (N, +, 0); multiplicities,
* ``Q``  -- the non-negative rationals (Q>=0, +, 0); exact weights.

All three are *positive*: a + b = 0 forces a = b = 0, so a zero annotation
always means "row absent" and supports stay meaningful under addition.
``N`` and ``Q`` are additionally *cancellative* (a + c = b + c implies
a = b); ``B`` is not, since 1 + 1 = 1 + 0.  Several stronger results
downstream (realisability of chordless cycles, cycle decomposition) need
cancellativity, which is why it is exposed as a kind property here.

Arithmetic is exact throughout: ``int`` for B and N, ``fractions.Fraction``
for Q.  No floats ever enter the computation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction


class MonoidKind(enum.Enum):
    """Identifies which annotation monoid a value or relation lives in."""

    B = "B"
    N = "N"
    Q = "Q"

    @property
    def is_cancellative(self) -> bool:
        """True when a + c = b + c implies a = b.  Fails only for B."""
        return self is not MonoidKind.B

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class MonoidValue:
    """An element of one of the three annotation monoids.

    The payload is an ``int`` for B (restricted to 0/1) and N, and a
    non-negative ``Fraction`` for Q.  Instances are immutable and compare
    by kind and payload.
    """

    kind: MonoidKind
    payload: int | Fraction

    def __post_init__(self) -> None:
        if self.kind is MonoidKind.B:
            if not isinstance(self.payload, int) or isinstance(self.payload, bool) or self.payload not in (0, 1):
                raise ValueError(f"B value must be 0 or 1, got {self.payload!r}")
        elif self.kind is MonoidKind.N:
            if not isinstance(self.payload, int) or isinstance(self.payload, bool):
                raise ValueError(f"N value must be an int, got {self.payload!r}")
            if self.payload < 0:
                raise ValueError(f"N value must be non-negative, got {self.payload}")
        else:
            if not isinstance(self.payload, Fraction):
                raise ValueError(f"Q value must be a Fraction, got {self.payload!r}")
            if self.payload < 0:
                raise ValueError(f"Q value must be non-negative, got {self.payload}")

    @staticmethod
    def of(kind: MonoidKind, raw: int | Fraction | str) -> "MonoidValue":
        """Coerce a raw number into the given kind.

        B accepts any non-negative number (anything nonzero counts as
        present), N accepts non-negative ints, Q accepts non-negative ints
        and Fractions.  Text is read as an annotation of the family
        format, by :func:`parse_value`.  Every kind refuses a float, whose
        binary value is seldom the number written.
        """
        if isinstance(raw, str):
            return parse_value(kind, raw)
        if isinstance(raw, float):
            raise ValueError(f"{kind} value must be exact, got the float {raw}")
        if kind is MonoidKind.B:
            if raw < 0:
                raise ValueError(f"B value must be non-negative, got {raw}")
            return MonoidValue(kind, 1 if raw else 0)
        if kind is MonoidKind.N:
            if isinstance(raw, Fraction):
                if raw.denominator != 1:
                    raise ValueError(f"N value must be integral, got {raw}")
                raw = raw.numerator
            return MonoidValue(kind, int(raw))
        return MonoidValue(kind, Fraction(raw))

    @staticmethod
    def zero(kind: MonoidKind) -> "MonoidValue":
        return MonoidValue.of(kind, 0)

    @staticmethod
    def one(kind: MonoidKind) -> "MonoidValue":
        return MonoidValue.of(kind, 1)

    @property
    def is_zero(self) -> bool:
        return self.payload == 0

    def __add__(self, other: "MonoidValue") -> "MonoidValue":
        """Monoid addition: or for B, + for N and Q.  A value of another
        kind is refused with a ``ValueError``, as relations and families
        refuse one; an operand that is not a value at all is left to
        Python (``NotImplemented``), which raises ``TypeError``."""
        if not isinstance(other, MonoidValue):
            return NotImplemented
        if self.kind is not other.kind:
            raise ValueError(f"cannot combine {self.kind} value with {other.kind} value")
        if self.kind is MonoidKind.B:
            return MonoidValue(self.kind, self.payload | other.payload)
        return MonoidValue(self.kind, self.payload + other.payload)

    def __str__(self) -> str:
        """Canonical text for an annotation; inverse of :func:`parse_value`."""
        return str(self.payload)


def _decimal(text: str) -> bool:
    """Nonempty and ASCII digits only; ``str.isdigit`` also accepts the
    digits of other scripts and superscripts."""
    return text.isascii() and text.isdigit()


def _int(digits: str) -> int:
    """The value of a token of decimal digits, refused past 4300 digits
    whatever the interpreter's own limit on converting text to ``int``."""
    if len(digits) > 4300:
        raise ValueError("annotation has more than 4300 digits")
    return int(digits)


def parse_value(kind: MonoidKind, text: str) -> MonoidValue:
    """Parse an annotation in the textual family format.

    B takes ``0`` or ``1``; N takes decimal digits; Q takes digits or
    ``p/q`` with a positive denominator.  No number may have more than
    4300 digits.
    """
    text = text.strip()
    if kind is MonoidKind.B:
        if text not in ("0", "1"):
            raise ValueError(f"B annotation must be 0 or 1, got {text!r}")
        return MonoidValue(kind, int(text))
    if kind is MonoidKind.N:
        if not _decimal(text):
            raise ValueError(f"N annotation must be decimal digits, got {text!r}")
        return MonoidValue(kind, _int(text))
    if "/" in text:
        num, _, den = text.partition("/")
        if not (_decimal(num) and _decimal(den)) or _int(den) == 0:
            raise ValueError(f"Q annotation must be digits or p/q, got {text!r}")
        return MonoidValue(kind, Fraction(_int(num), _int(den)))
    if not _decimal(text):
        raise ValueError(f"Q annotation must be digits or p/q, got {text!r}")
    return MonoidValue(kind, Fraction(_int(text)))
