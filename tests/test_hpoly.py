import random

import pytest

from polyhvec import (
    EMPTY_KEY,
    HPoly,
    Key,
    KeyedPoly,
    NotPalindromicError,
    angle,
    palindromic_decompose,
    x_minus_y_power,
)
from polyhvec.hpoly import ONE, X, XY, Y, monomial, zero_poly


def test_bracket_reads_from_pure_y():
    p = HPoly([1, 2, 3])  # y^2 + 2xy + 3x^2
    assert p.bracket() == "[1,2,3]"
    assert p.coeffs[0] == 1  # coefficient of y^2
    assert p.coeffs[2] == 3  # coefficient of x^2
    assert monomial(1, 2) == HPoly([0, 1, 0, 0])  # x y^2


def test_angle_examples():
    assert angle(0, 2) == HPoly([1, 1, 1])
    assert angle(1, 0) == HPoly([0, 1, 0])
    assert angle(1, 0) == XY
    assert angle(2, 0) == HPoly([0, 0, 1, 0, 0])
    assert angle(1, 2) == HPoly([0, 1, 1, 1, 0])
    with pytest.raises(ValueError):
        angle(-1, 0)


def test_poly_arithmetic():
    assert X + Y == HPoly([1, 1])
    assert (X + Y) * (X + Y) == HPoly([1, 2, 1])
    assert X * Y == XY
    assert XY.scaled(3) == HPoly([0, 3, 0])
    assert -HPoly([1, -2]) == HPoly([-1, 2])
    with pytest.raises(ValueError):
        X + HPoly([1, 1, 1])
    assert x_minus_y_power(2) == HPoly([1, -2, 1])
    assert x_minus_y_power(0) == ONE


def test_decompose_examples():
    assert palindromic_decompose(HPoly([1, 3, 3, 1])) == [(0, 3, 1), (1, 1, 2)]
    assert palindromic_decompose(HPoly([1, 4, 10, 4, 1])) == [
        (0, 4, 1),
        (1, 2, 3),
        (2, 0, 6),
    ]
    assert palindromic_decompose(HPoly([1, 1])) == [(0, 1, 1)]
    assert palindromic_decompose(zero_poly(3)) == [(0, 3, 0), (1, 1, 0)]


def test_decompose_rejects_non_palindromic():
    with pytest.raises(NotPalindromicError):
        palindromic_decompose(HPoly([1, 0]))


def test_decompose_round_trip_random():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(0, 9)
        lams = [rng.randint(-6, 6) for _ in range(n // 2 + 1)]
        p = zero_poly(n)
        for i, lam in enumerate(lams):
            p = p + angle(i, n - 2 * i).scaled(lam)
        assert [lam for _, _, lam in palindromic_decompose(p)] == lams


def test_key_degree_and_shorthand():
    assert EMPTY_KEY.degree == 0
    assert str(EMPTY_KEY) == "e"
    assert Key((0,), (0,)).degree == 3
    assert str(Key((0,), (1,))) == "0;1"
    assert str(Key((1, 3, 2), (0, 2, 1))) == "132;021"
    assert str(Key((10, 3), (0, 2))) == "10,3;0,2"
    with pytest.raises(ValueError):
        Key((1,), ())
    with pytest.raises(ValueError):
        Key((-1,), (0,))
    with pytest.raises(ValueError):
        Key((1,), (0,))._replace(ds=(-1,))


def test_keys_are_immutable_values():
    k = Key((1, 0), (2, 1))
    assert k == Key((1, 0), (2, 1)) and not k != Key((1, 0), (2, 1))
    assert hash(k) == hash(Key((1, 0), (2, 1)))
    assert k != Key((1, 0), (2, 0)) and k != Key((0, 1), (2, 1))
    assert k != ((1, 0), (2, 1)) and ((1, 0), (2, 1)) != k
    assert len({k, Key((1, 0), (2, 1)), EMPTY_KEY}) == 2
    assert repr(k) == "Key(ds=(1, 0), cs=(2, 1))"
    with pytest.raises(AttributeError):
        k.ds = (0, 0)
    with pytest.raises(AttributeError):
        del k.cs
    assert k.ds == (1, 0) and k.cs == (2, 1)


def test_key_prime():
    assert EMPTY_KEY.primed(0, 0) == Key((0,), (0,))
    assert EMPTY_KEY.primed(0, 1) == Key((0,), (1,))
    k = Key((3, 2), (2, 1))
    primed = k.primed(1, 3)
    assert primed == Key((1, 3, 2), (3, 2, 1))
    assert primed.degree == k.degree + 2 * 1 + 3 + 3
    assert primed.degree == 27
    for i, j in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            k.primed(i, j)


def test_keyed_poly_bookkeeping():
    kp = KeyedPoly(3, {EMPTY_KEY: angle(1, 1), Key((0,), (0,)): ONE})
    assert kp.component(EMPTY_KEY) == angle(1, 1)
    assert kp.component(Key((0,), (0,))) == ONE
    # an absent key reads as zero of the complementary degree
    assert KeyedPoly(3, {}).component(EMPTY_KEY) == zero_poly(3)
    assert kp.component(Key((0,), (0,))) == ONE
    with pytest.raises(ValueError):
        kp.component(Key((1,), (2,)))  # key degree 7 exceeds dim 3
    assert str(kp) == "e: [0,1,1,0]  0;0: [1]"
    with pytest.raises(ValueError):
        KeyedPoly(3, {EMPTY_KEY: ONE})  # degree 0 + key 0 != 3
    # zero components vanish
    assert KeyedPoly(2, {EMPTY_KEY: zero_poly(2)}).is_zero()


def test_keyed_poly_products():
    simple = KeyedPoly(1, {EMPTY_KEY: X + Y})
    keyed = KeyedPoly(3, {EMPTY_KEY: angle(1, 1), Key((0,), (0,)): ONE})
    product = simple * keyed
    assert product.dim == 4
    assert product.component(EMPTY_KEY) == angle(1, 1) * (X + Y)
    assert product.component(Key((0,), (0,))) == X + Y
    with pytest.raises(ValueError):
        keyed * keyed
