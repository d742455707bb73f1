import json
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from dualpolar.exact import (
    ExactScalar,
    MixedRadicandError,
    join_rads,
    parse_scalar,
)
from dualpolar.leonard import pa_from_json, realize
from dualpolar.linexact import ExactMatrix

from dense_oracle import FractionPairScalar

LEONARD_DATA = os.path.join(os.path.dirname(__file__), "data", "leonard")


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


def test_join_rads_names_the_first_radicand_first():
    assert join_rads() == 0 and join_rads(0, 0) == 0
    assert join_rads(0, 5, 0, 5) == 5
    with pytest.raises(MixedRadicandError,
                       match=r"^cannot mix sqrt\(3\) with sqrt\(2\)$"):
        join_rads(0, 3, 3, 2)
    with pytest.raises(MixedRadicandError,
                       match=r"^cannot mix sqrt\(2\) with sqrt\(3\)$"):
        ExactScalar(0, 1, 2) * ExactScalar(0, 1, 3)
    with pytest.raises(MixedRadicandError,
                       match=r"^cannot mix sqrt\(3\) with sqrt\(2\)$"):
        ExactMatrix.from_rows([[1, ExactScalar.sqrt(3)],
                               [ExactScalar.sqrt(2), 0]])


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ExactScalar(1) / ExactScalar(0)
    with pytest.raises(ZeroDivisionError):
        ExactScalar(0).inverse()


def test_q_pow_sqrt2():
    q = ExactScalar.sqrt(2)
    assert q ** 5 == ExactScalar(0, 4, 2)
    assert q ** 0 == ExactScalar(1)
    assert q ** -2 == ExactScalar(Fraction(1, 2))


def test_q_pow_rational():
    q = ExactScalar(2)
    assert q ** -3 == ExactScalar(Fraction(1, 8))


def test_q_pow_additivity():
    for q in (ExactScalar.sqrt(2), ExactScalar(2), ExactScalar.sqrt(5)):
        for m in range(-30, 31, 7):
            for n in range(-30, 31, 11):
                assert q ** m * q ** n == q ** (m + n)


def test_square_factors_fold_out_of_the_radicand():
    """sqrt(8) is 2 sqrt(2): both spellings are one scalar, with equal
    parts and hash, and they add as scalars of one field."""
    eight, two = parse_scalar("0 + 1*sqrt(8)"), parse_scalar("0 + 2*sqrt(2)")
    assert eight == two and hash(eight) == hash(two)
    assert (eight.p, eight.r, eight.den, eight.rad) == (0, 2, 1, 2)
    assert eight + two == ExactScalar(0, 4, 2)
    assert ExactScalar(Fraction(1, 3), Fraction(1, 6), 72) == \
        ExactScalar(Fraction(1, 3), 1, 2)
    for b, s, f in ((27, 3, 3), (32, 4, 2), (12, 2, 3), (2 * 97 ** 2, 97, 2),
                    (3 * 1000003 ** 2, 1000003, 3)):
        x = ExactScalar.sqrt(b)
        _canonical(x)
        assert (x.r, x.rad) == (s, f)


def test_radicand_above_the_limit_is_refused():
    """A radicand is split by trial division up to its cube root, so one
    above 10^15 is refused by name rather than factored for minutes."""
    x = ExactScalar.sqrt(10 ** 15)  # 10^15 = (10^7)^2 * 10
    assert (x.r, x.rad) == (10 ** 7, 10)
    for rad in (10 ** 15 + 1, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=f"radicand {rad} is above "
                                             f"{10 ** 15}"):
            ExactScalar.sqrt(rad)
    with pytest.raises(ValueError, match="radicand"):
        parse_scalar(f"1 + 1*sqrt({2 ** 89 - 1})")


@pytest.mark.parametrize("b", [8, 27, 32, 72, 36])
def test_q_pow_of_a_folded_root(monkeypatch, b):
    """q = sqrt(b) with a square factor in b is s sqrt(f), and a rational s
    when b is a square; q ** n is exact on it and canonical, and it
    multiplies no scalars: `__pow__` is the closed form, the one power
    rule."""
    q = ExactScalar.sqrt(b)
    want = {n: Fraction(b) ** (n // 2) * (q if n % 2 else 1)
            for n in range(-9, 10)}
    monkeypatch.setattr(ExactScalar, "__mul__", None)
    for n, value in want.items():
        got = q ** n
        _canonical(got)
        assert got == value


@pytest.mark.parametrize("text", ["0 + 1/2*sqrt(2)", "0 + -3/4*sqrt(6)",
                                  "-2/3", "1/2 + 1*sqrt(3)", "0"])
def test_power_is_repeated_multiplication(text):
    """Each branch of `__pow__` (rational, c*sqrt(f) with den and f sharing
    a factor, and the general scalar) agrees with a product of factors."""
    x, prod = parse_scalar(text), ExactScalar(1)
    for n in range(10):
        assert x ** n == prod
        if not x.is_zero:
            assert x ** -n == prod.inverse()
        prod = prod * x


def test_render_parse_roundtrip():
    samples = [
        ExactScalar(Fraction(3, 7)),
        ExactScalar(-4),
        ExactScalar(Fraction(1, 2), Fraction(-5, 3), 2),
        ExactScalar(0, 1, 7),
    ]
    for x in samples:
        assert parse_scalar(x.render()) == x


def _canonical(x: ExactScalar):
    """The invariants of the integer parts."""
    assert all(type(v) is int for v in (x.p, x.r, x.den, x.rad))
    assert x.den > 0
    assert math.gcd(x.p, x.r, x.den) == 1
    assert (x.rad == 0) == (x.r == 0)
    assert all(x.rad % (k * k) for k in range(2, math.isqrt(x.rad) + 1))


def _agrees(x: ExactScalar, ref: FractionPairScalar):
    _canonical(x)
    assert (x.a, x.c, x.rad) == (ref.a, ref.c, ref.rad)
    assert x.render() == ref.render()
    assert x.is_zero == ref.is_zero and x.is_rational == ref.is_rational
    if x.is_rational:
        assert x == ref.a and hash(x) == hash(ref.a)


def _outcome(fn, *args):
    """fn(*args), or the type of the ArithmeticError it raises."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


@pytest.mark.parametrize("rad", [0, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", range(4))
def test_random_chains_match_the_fraction_pair_oracle(rad, seed):
    """Chains of + - * /, inverse, negative powers, == and render run on
    the integer scalar and on the Fraction-pair oracle in step; every
    result must be the same element, in canonical form.  rad = 4 collapses
    to rational arithmetic."""
    rng = random.Random(f"{rad}:{seed}")

    def leaf():
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return ExactScalar(a, c, rad), FractionPairScalar(a, c, rad)

    pool = [leaf() for _ in range(6)] + [
        (ExactScalar(0), FractionPairScalar(0))]
    for x, ref in pool:
        _agrees(x, ref)
    for _ in range(300):
        (x, xr), (y, yr) = rng.choice(pool), rng.choice(pool)
        k = rng.choice([0, 1, -3, Fraction(2, 5), Fraction(-7, 4)])
        op = rng.choice(["add", "sub", "mul", "div", "inverse", "pow",
                         "neg", "scalar", "rscalar"])
        if op in OPS:
            out, want = _outcome(OPS[op], x, y), _outcome(OPS[op], xr, yr)
        elif op == "inverse":
            out, want = _outcome(x.inverse), _outcome(xr.inverse)
        elif op == "pow":
            n = rng.randint(-4, 4)
            out, want = _outcome(pow, x, n), _outcome(pow, xr, n)
        elif op == "neg":
            out, want = -x, -xr
        else:
            f = OPS[rng.choice(sorted(OPS))]
            out, want = ((_outcome(f, x, k), _outcome(f, xr, k))
                         if op == "scalar"
                         else (_outcome(f, k, x), _outcome(f, k, xr)))
        if isinstance(want, type):
            assert out is want is ZeroDivisionError
            continue
        _agrees(out, want)
        assert (out == x) == (want == xr)
        assert (out == k) == (want == k)
        if max(abs(out.p), abs(out.r), out.den).bit_length() < 400:
            pool[rng.randrange(len(pool))] = (out, want)


def test_mixed_radicands_raise_as_in_the_oracle():
    x, y = ExactScalar(1, 2, 3), ExactScalar(Fraction(1, 2), 1, 5)
    xr, yr = FractionPairScalar(1, 2, 3), FractionPairScalar(Fraction(1, 2), 1, 5)
    for f in OPS.values():
        assert _outcome(f, x, y) is _outcome(f, xr, yr) is MixedRadicandError
    assert (x == y) is (xr == yr) is False


def test_rational_scalars_hash_as_the_numbers_they_equal():
    for k in (0, 1, -1, 7, -2, 2 ** 61 - 1, 2 ** 61, -(2 ** 70)):
        assert ExactScalar(k) == k and hash(ExactScalar(k)) == hash(k)
    for f in (Fraction(1, 3), Fraction(-7, 2), Fraction(5, 2 ** 61 - 1)):
        assert ExactScalar(f) == f and hash(ExactScalar(f)) == hash(f)
    assert len({ExactScalar(2), 2, ExactScalar(4, 0, 3) / 2}) == 1
    assert hash(ExactScalar(1, 1, 2)) == hash(ExactScalar.sqrt(2) + 1)


def test_canonical_parts():
    x = ExactScalar(Fraction(2, 6), Fraction(4, 6), 2)
    assert (x.p, x.r, x.den, x.rad) == (1, 2, 3, 2)
    assert (x.a, x.c) == (Fraction(1, 3), Fraction(2, 3))
    y = ExactScalar.from_parts(4, -6, -8, 2)
    assert (y.p, y.r, y.den, y.rad) == (-2, 3, 4, 2)
    z = ExactScalar.from_parts(3, 2, 6, 9)  # (3 + 2*3) / 6
    assert (z.p, z.r, z.den, z.rad) == (3, 0, 2, 0)
    with pytest.raises(ZeroDivisionError):
        ExactScalar.from_parts(1, 0, 0, 0)
    with pytest.raises(AttributeError):
        x.p = 2
    with pytest.raises(TypeError):
        ExactScalar(0.5)


@pytest.fixture
def fraction_calls(monkeypatch):
    """Every Fraction built while the fixture is live, by its arguments."""
    calls = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if hasattr(Fraction, "_from_coprime_ints"):  # bypasses __new__
        coprime = Fraction._from_coprime_ints

        def counting_coprime(cls, *args):
            calls.append(args)
            return coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(counting_coprime))
    return calls


def test_arithmetic_and_matrix_paths_build_no_fraction(fraction_calls):
    x, y = ExactScalar(Fraction(7, 3)), ExactScalar(Fraction(-5, 11))
    u, v = ExactScalar(Fraction(1, 3), Fraction(-2, 5), 3), ExactScalar(2, 1, 3)
    k = Fraction(7, 3)
    m = ExactMatrix.from_rows([[u, 1], [x, v]])
    arr = np.array([[1, 2], [3, 4]])
    fraction_calls.clear()
    for s, t in ((x, y), (u, v), (x, u), (u, 2), (3, v)):
        s + t, s - t, s * t, s / t
    u.inverse(), x.inverse(), u ** -3, x ** 5, -u
    u == v, x == k, x == 2, u == u, u ** -3, x ** 4
    ExactScalar.sqrt(3) ** -5
    m.scale(u), m.scale(x), m.entry(0, 0), m.entry(1, 0)
    ExactMatrix.from_rows([[u, v], [x, 0]]), ExactMatrix.diag([u, x, 1])
    ExactMatrix.combination([(u, arr), (x, arr), (2, arr)])
    assert fraction_calls == []


def test_split_realization_builds_no_fraction(fraction_calls):
    with open(os.path.join(LEONARD_DATA, "dqk-2-16.json")) as fh:
        pa = pa_from_json(json.load(fh))
    fraction_calls.clear()
    real = realize(pa, "split")
    assert real.A.shape == (17, 17)
    assert fraction_calls == []
