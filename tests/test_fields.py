from fractions import Fraction

import pytest

from coclass_lab.fields import FieldError, FieldSpec


def test_prime_field_basics():
    f = FieldSpec.prime(5)
    assert f.is_prime and f.p == 5
    assert f.scale(3, [4, 1, 0]) == [2, 3, 0]
    assert f.sub_multiple([3, 0, 1], 4, [3, 2, 1]) == [1, 2, 2]
    assert f.sub_multiple([3], -1, [4]) == [2]  # a plain int multiplier
    assert f.dot([3, 4, 1], [4, 3, 0]) == 4
    assert f.inv(2) == 3
    assert f.canon(-1) == 4
    assert f.canon(Fraction(1, 2)) == 3  # 2^-1 = 3 mod 5


def test_rational_field_basics():
    f = FieldSpec.rational()
    assert not f.is_prime
    assert f.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert f.canon(7) == Fraction(7)
    half, zero = Fraction(1, 2), Fraction(0)
    assert f.scale(half, [Fraction(4), zero]) == [2, 0]
    assert f.sub_multiple([Fraction(1), half], -1, [half, zero]) == [Fraction(3, 2), half]
    assert f.dot([half, zero], [half, Fraction(5)]) == Fraction(1, 4)
    assert f.dot([], []) == 0
    for row in (f.scale(half, [Fraction(4), zero]), f.sub_multiple([zero], 3, [Fraction(1)])):
        assert all(type(x) is Fraction for x in row)
    assert type(f.dot([zero], [zero])) is Fraction


def test_characteristic_two_rejected():
    with pytest.raises(FieldError):
        FieldSpec.prime(2)


@pytest.mark.parametrize("p", [1, 4, 9, 15, 21])
def test_composite_rejected(p):
    with pytest.raises(FieldError):
        FieldSpec.prime(p)


def test_prime_cap_rejected():
    with pytest.raises(FieldError):
        FieldSpec.prime(65537)
    FieldSpec.prime(65521)  # the largest prime below 2^16 is fine


def test_parse_unparse_roundtrip():
    f3 = FieldSpec.prime(3)
    assert f3.parse(5) == 2
    assert f3.parse("1/2") == 2  # 2^-1 = 2 mod 3
    assert f3.unparse(f3.parse(5)) == 2
    q = FieldSpec.rational()
    assert q.parse("3/6") == Fraction(1, 2)
    assert q.unparse(Fraction(1, 2)) == "1/2"
    assert q.unparse(Fraction(4, 2)) == 2


@pytest.mark.parametrize(
    "literal", [True, False, 1.0, None, [1], {"c": 1}], ids=["true", "false", "float", "null", "list", "object"]
)
def test_parse_rejects_non_literals(literal):
    # JSON true is no integer here, although bool subclasses int
    with pytest.raises(ValueError, match="scalar must be an int or a Fraction, not "):
        FieldSpec.prime(3).parse(literal)


@pytest.mark.parametrize("x", [1.5, 2.0, True, None], ids=repr)
@pytest.mark.parametrize("field", [FieldSpec.prime(3), FieldSpec.rational()], ids=str)
def test_canon_rejects_non_scalars(field, x):
    # canon is the one scalar rule: parse, tables and vectors all reach it
    with pytest.raises(ValueError, match="scalar must be an int or a Fraction, not "):
        field.canon(x)


@pytest.mark.parametrize("p", [3.0, True, "3", None], ids=repr)
def test_prime_must_be_an_int(p):
    # 3.0 == 3: such a field would equal F3 and make float residues
    with pytest.raises(FieldError, match="p must be an int"):
        FieldSpec.prime(p)
    with pytest.raises(FieldError, match="p must be an int"):
        FieldSpec(p)


def test_scalar_canonical_form_unique():
    q = FieldSpec.rational()
    assert q.parse("2/4") == q.parse("1/2") == q.parse("-1/-2")
    f7 = FieldSpec.prime(7)
    assert f7.canon(-3) == f7.canon(4) == f7.canon(11)
