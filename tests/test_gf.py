import pytest

from dualpolar.gf import build_field, field_of_order, smallest_irreducible


def test_build_gf2():
    f = build_field(2, 1)
    assert f.modulus == (0, 1)  # x
    assert f.order == 2


def test_build_gf4_modulus():
    f = build_field(2, 2)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1, the only irreducible quadratic
    assert f.order == 4


def test_build_gf3():
    f = build_field(3, 1)
    assert f.order == 3
    assert f.mul(2, 2) == 1


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        build_field(4, 1)


def test_field_of_order():
    assert field_of_order(8).modulus == smallest_irreducible(2, 3)
    with pytest.raises(ValueError):
        field_of_order(6)


def test_multiplicative_group_exhaustive():
    for order, (p, m) in [(4, (2, 2)), (8, (2, 3)), (9, (3, 2)), (16, (2, 4)),
                          (289, (17, 2)), (512, (2, 9))]:
        f = build_field(p, m)
        for x in range(1, order):
            assert f.pow(x, order - 1) == 1
            assert f.mul(x, f.inv(x)) == 1


def test_field_axioms_gf9():
    f = build_field(3, 2)
    els = list(f.elements())
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(f.add(a, b), b) == a
    # distributivity spot check on all triples
    for a in els:
        for b in els:
            for c in els[:4]:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (2, 9), (3, 6), (17, 2)])
def test_x_is_a_root_of_the_modulus(p, m):
    # the class of x (code p) is a root of the modulus, as in GF(p)[x]/(f)
    f = build_field(p, m)
    value, power = 0, 1
    for c in f.modulus:
        value = f.add(value, f.mul(c, power))
        power = f.mul(power, p)
    assert value == 0


def test_order_above_table_limit_rejected():
    with pytest.raises(ValueError, match="above the field order"):
        field_of_order(4099)


def test_frobenius_gf4():
    f = build_field(2, 2)
    omega = 2  # the class of x
    assert f.frobenius(0) == 0
    assert f.frobenius(omega) == f.add(omega, 1)  # omega^2 = omega + 1
    for x in (0, 1):
        assert f.frobenius(x) == x  # prime subfield is fixed


def test_frobenius_involution():
    for p, m in [(2, 2), (2, 4), (3, 2), (17, 2)]:
        f = build_field(p, m)
        for x in f.elements():
            assert f.frobenius(f.frobenius(x)) == x


def test_frobenius_odd_degree_rejected():
    f = build_field(2, 3)
    with pytest.raises(ValueError):
        f.frobenius(1)
