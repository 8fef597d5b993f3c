"""Monoid value arithmetic: laws, order, parsing."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxfam.monoid import (
    MonoidKind,
    MonoidValue,
    parse_value,
)
from ctxfam.relation import KRelation


def B(x):
    return MonoidValue.of(MonoidKind.B, x)


def N(x):
    return MonoidValue.of(MonoidKind.N, x)


def Q(x):
    return MonoidValue.of(MonoidKind.Q, x)


booleans = st.integers(min_value=0, max_value=1).map(B)
naturals = st.integers(min_value=0, max_value=10**9).map(N)
rationals = st.fractions(
    min_value=0, max_value=1000, max_denominator=997
).map(Q)


def same_kind_values():
    return st.one_of(
        st.tuples(booleans, booleans, booleans),
        st.tuples(naturals, naturals, naturals),
        st.tuples(rationals, rationals, rationals),
    )


class TestKindMetadata:
    def test_cancellative_exactly_for_numeric_kinds(self):
        assert not MonoidKind.B.is_cancellative
        assert MonoidKind.N.is_cancellative
        assert MonoidKind.Q.is_cancellative


class TestAdd:
    def test_boolean_add_is_disjunction(self):
        assert B(1) + B(1) == B(1)
        assert B(0) + B(1) == B(1)
        assert B(0) + B(0) == B(0)

    def test_natural_add(self):
        assert N(2) + N(3) == N(5)

    def test_rational_add(self):
        assert Q(Fraction(1, 2)) + Q(Fraction(1, 3)) == Q(Fraction(5, 6))

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^cannot combine B value with N value$"):
            B(1) + N(1)
        with pytest.raises(ValueError, match=r"^cannot combine Q value with N value$"):
            Q(Fraction(1, 2)) + N(1)

    @pytest.mark.parametrize("other", [1, Fraction(1, 2), None])
    def test_non_value_operand_is_a_type_error(self, other):
        with pytest.raises(TypeError, match="unsupported operand"):
            N(1) + other
        with pytest.raises(TypeError, match="unsupported operand"):
            other + N(1)

    @given(same_kind_values())
    def test_laws(self, triple):
        a, b, c = triple
        zero = MonoidValue.zero(a.kind)
        assert a + (b + c) == (a + b) + c
        assert a + b == b + a
        assert a + zero == a

    @given(same_kind_values())
    def test_positivity(self, triple):
        a, b, _ = triple
        zero = MonoidValue.zero(a.kind)
        if a + b == zero:
            assert a == zero and b == zero

    def test_positivity_exhaustive_boolean(self):
        for x in (0, 1):
            for y in (0, 1):
                if (B(x) + B(y)).is_zero:
                    assert x == 0 and y == 0

    @given(st.one_of(
        st.tuples(naturals, naturals, naturals),
        st.tuples(rationals, rationals, rationals),
    ))
    def test_cancellativity_for_numeric_kinds(self, triple):
        a, b, c = triple
        if a + b == a + c:
            assert b == c

    def test_boolean_cancellation_counterexample(self):
        assert B(1) + B(1) == B(1) + B(0)
        assert B(1) != B(0)


class TestValidation:
    def test_boolean_payload_bounds(self):
        with pytest.raises(ValueError):
            MonoidValue(MonoidKind.B, 2)

    def test_boolean_coercion_accepts_counts(self):
        assert MonoidValue.of(MonoidKind.B, 2) == B(1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MonoidValue.of(MonoidKind.N, -1)
        with pytest.raises(ValueError):
            MonoidValue.of(MonoidKind.Q, Fraction(-1, 2))

    @pytest.mark.parametrize(
        "kind, raw",
        [
            (MonoidKind.B, -1),
            (MonoidKind.B, Fraction(-1, 2)),
            (MonoidKind.N, -1),
            (MonoidKind.Q, Fraction(-1, 2)),
        ],
    )
    def test_negative_refused_in_every_kind(self, kind, raw):
        """B reads a nonzero number as present, but not a negative one:
        every kind refuses it with the same message."""
        with pytest.raises(ValueError, match=re.escape(f"{kind} value must be non-negative, got {raw}")):
            MonoidValue.of(kind, raw)

    def test_natural_rejects_fractions(self):
        with pytest.raises(ValueError):
            MonoidValue.of(MonoidKind.N, Fraction(1, 2))

    def test_boolean_coercion_collapses_to_one(self):
        assert MonoidValue.of(MonoidKind.B, True) == B(1)
        assert MonoidValue.of(MonoidKind.B, 7) == B(1)
        assert MonoidValue.of(MonoidKind.B, Fraction(1, 2)) == B(1)

    @pytest.mark.parametrize("kind", list(MonoidKind))
    @pytest.mark.parametrize("raw", [2.7, 0.1, 1.0])
    def test_coercion_refuses_floats(self, kind, raw):
        with pytest.raises(ValueError, match=re.escape(f"{kind} value must be exact, got the float {raw}")):
            MonoidValue.of(kind, raw)

    @pytest.mark.parametrize(
        "kind, text, payload",
        [
            (MonoidKind.B, "0", 0),
            (MonoidKind.B, "1", 1),
            (MonoidKind.N, "0", 0),
            (MonoidKind.N, " 12 ", 12),
            (MonoidKind.Q, "3/2", Fraction(3, 2)),
            (MonoidKind.Q, "4", Fraction(4)),
        ],
    )
    def test_text_is_read_as_an_annotation(self, kind, text, payload):
        value = MonoidValue.of(kind, text)
        assert value == parse_value(kind, text) == MonoidValue(kind, payload)

    @pytest.mark.parametrize(
        "kind, text",
        [
            (MonoidKind.B, "2"),
            (MonoidKind.N, "\u0663"),
            (MonoidKind.N, "-1"),
            (MonoidKind.N, "3/2"),
            (MonoidKind.Q, "1.5"),
            (MonoidKind.Q, "1/0"),
            (MonoidKind.Q, "\u00b2"),
        ],
    )
    def test_text_refused_as_parse_value_refuses_it(self, kind, text):
        with pytest.raises(ValueError) as refused:
            parse_value(kind, text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            MonoidValue.of(kind, text)

    def test_natural_coercion_accepts_integral_fractions(self):
        value = MonoidValue.of(MonoidKind.N, Fraction(4))
        assert value == N(4) and type(value.payload) is int

    def test_payload_types_checked(self):
        with pytest.raises(ValueError, match=r"^N value must be an int, got 1\.5$"):
            MonoidValue(MonoidKind.N, 1.5)
        with pytest.raises(ValueError, match=r"^Q value must be a Fraction, got 1$"):
            MonoidValue(MonoidKind.Q, 1)

    @pytest.mark.parametrize("payload", [1, True, False, 2, -1, Fraction(1), 1.0, "1"])
    def test_boolean_payloads_agree_with_relations(self, payload):
        """A B value and a stored B row accept the same nonzero payloads;
        ``bool`` is refused by both, as N refuses it."""

        def accepts(build):
            try:
                build()
            except ValueError:
                return False
            return True

        value = accepts(lambda: MonoidValue(MonoidKind.B, payload))
        stored = accepts(lambda: KRelation(["x"], MonoidKind.B, {("0",): payload}))
        assert value == stored == (payload == 1 and type(payload) is int)


class TestText:
    @pytest.mark.parametrize(
        "kind,text,payload",
        [
            (MonoidKind.B, "0", 0),
            (MonoidKind.B, "1", 1),
            (MonoidKind.N, "17", 17),
            (MonoidKind.Q, "17", Fraction(17)),
            (MonoidKind.Q, "5/6", Fraction(5, 6)),
        ],
    )
    def test_parse(self, kind, text, payload):
        assert parse_value(kind, text) == MonoidValue.of(kind, payload)

    @pytest.mark.parametrize(
        "kind,text",
        [
            (MonoidKind.B, "2"),
            (MonoidKind.N, "1/2"),
            (MonoidKind.N, "-1"),
            (MonoidKind.Q, "1/0"),
            (MonoidKind.Q, "x"),
        ],
    )
    def test_parse_rejects(self, kind, text):
        with pytest.raises(ValueError):
            parse_value(kind, text)

    @pytest.mark.parametrize(
        "kind,text,message",
        [
            (MonoidKind.N, "\u0661", "must be decimal digits"),
            (MonoidKind.N, "\u00b2", "must be decimal digits"),
            (MonoidKind.N, "1\uff12", "must be decimal digits"),
            (MonoidKind.Q, "\u0661", "digits or p/q"),
            (MonoidKind.Q, "\u00b2/3", "digits or p/q"),
            (MonoidKind.Q, "1/\u0663", "digits or p/q"),
        ],
    )
    def test_parse_rejects_non_ascii_digits(self, kind, text, message):
        with pytest.raises(ValueError, match=message):
            parse_value(kind, text)

    @given(st.one_of(booleans, naturals, rationals))
    def test_round_trip(self, value):
        assert parse_value(value.kind, str(value)) == value


LONGEST = "9" * 4300
TOO_LONG = "1" * 4301


class TestDigitCap:
    """Every number of an annotation has at most 4300 digits, refused with
    one message whatever the interpreter's own limit on int-to-text
    conversion: the default, or none (0), as the command line runs."""

    @pytest.fixture(params=[4300, 0], ids=["default-limit", "no-limit"])
    def limit(self, request):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(request.param)
        yield
        sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize(
        "kind, text, payload",
        [
            (MonoidKind.N, LONGEST, 10**4300 - 1),
            (MonoidKind.Q, LONGEST, Fraction(10**4300 - 1)),
            (MonoidKind.Q, f"{LONGEST}/7", Fraction(10**4300 - 1, 7)),
            (MonoidKind.Q, f"7/{LONGEST}", Fraction(7, 10**4300 - 1)),
        ],
        ids=["N", "Q", "Q-numerator", "Q-denominator"],
    )
    def test_4300_digits_parse(self, limit, kind, text, payload):
        assert parse_value(kind, text).payload == payload

    @pytest.mark.parametrize(
        "kind, text",
        [
            (MonoidKind.N, TOO_LONG),
            (MonoidKind.Q, TOO_LONG),
            (MonoidKind.Q, f"{TOO_LONG}/7"),
            (MonoidKind.Q, f"7/{TOO_LONG}"),
        ],
        ids=["N", "Q", "Q-numerator", "Q-denominator"],
    )
    def test_4301_digits_refused(self, limit, kind, text):
        with pytest.raises(ValueError) as exc:
            parse_value(kind, text)
        assert str(exc.value) == "annotation has more than 4300 digits"
