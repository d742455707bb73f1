from fractions import Fraction

import pytest

from dualpolar.exact import (
    ExactScalar,
    MixedRadicandError,
    parse_scalar,
    q_pow,
)


def test_conjugate_product():
    x = ExactScalar(1, 1, 2)
    y = ExactScalar(1, -1, 2)
    assert x * y == ExactScalar(-1)


def test_inverse_of_sqrt2():
    r2 = ExactScalar.sqrt(2)
    assert r2.inverse() == ExactScalar(0, Fraction(1, 2), 2)
    assert r2 * r2.inverse() == ExactScalar(1)


def test_perfect_square_collapse():
    x = ExactScalar(Fraction(3, 2), 5, 4)
    assert x.is_rational
    assert x.as_fraction() == Fraction(3, 2) + 10
    assert x.rad == 0


def test_collapse_rad_one_and_zero():
    assert ExactScalar(2, 7, 1) == ExactScalar(9)
    assert ExactScalar(2, 7, 0) == ExactScalar(2)


def test_field_axioms_sample():
    xs = [
        ExactScalar(Fraction(1, 3), Fraction(-2, 5), 3),
        ExactScalar(2, 1, 3),
        ExactScalar(Fraction(-7, 2)),
    ]
    for x in xs:
        for y in xs:
            assert (x + y) - y == x
            assert x * y == y * x
            if not y.is_zero:
                assert (x / y) * y == x
    for x in xs:
        if not x.is_zero:
            assert x * x.inverse() == ExactScalar(1)


def test_mixed_radicands_rejected():
    with pytest.raises(MixedRadicandError):
        ExactScalar(0, 1, 2) + ExactScalar(0, 1, 3)
    # rationals are compatible with any radicand
    assert ExactScalar(5) + ExactScalar(0, 1, 3) == ExactScalar(5, 1, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ExactScalar(1) / ExactScalar(0)
    with pytest.raises(ZeroDivisionError):
        ExactScalar(0).inverse()


def test_q_pow_sqrt2():
    q = ExactScalar.sqrt(2)
    assert q_pow(q, 5) == ExactScalar(0, 4, 2)
    assert q_pow(q, 0) == ExactScalar(1)
    assert q_pow(q, -2) == ExactScalar(Fraction(1, 2))


def test_q_pow_rational():
    q = ExactScalar(2)
    assert q_pow(q, -3) == ExactScalar(Fraction(1, 8))


def test_q_pow_additivity():
    for q in (ExactScalar.sqrt(2), ExactScalar(2), ExactScalar.sqrt(5)):
        for m in range(-30, 31, 7):
            for n in range(-30, 31, 11):
                assert q_pow(q, m) * q_pow(q, n) == q_pow(q, m + n)


def test_render_parse_roundtrip():
    samples = [
        ExactScalar(Fraction(3, 7)),
        ExactScalar(-4),
        ExactScalar(Fraction(1, 2), Fraction(-5, 3), 2),
        ExactScalar(0, 1, 7),
    ]
    for x in samples:
        assert parse_scalar(x.render()) == x
