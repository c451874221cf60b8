"""Field arithmetic: worked examples plus exhaustive axiom checks."""
import pytest
from hypothesis import given, strategies as st

from dpnull.ff import FieldError, _digits, _pack, make_field

SUPPORTED = [2, 3, 4, 5, 7, 8, 9]


def test_make_field_prime():
    f = make_field(3)
    assert (f.order, f.char, f.degree, f.reduction) == (3, 3, 1, None)


def test_make_field_gf4_reduction():
    f = make_field(4)
    # the unique degree-2 irreducible over F_2: 1 + x + x^2
    assert (f.char, f.degree) == (2, 2)
    assert f.reduction == (1, 1, 1)


@pytest.mark.parametrize("t", [1, 6, 10, 12, 15])
def test_make_field_rejects_non_prime_powers(t):
    with pytest.raises(FieldError):
        make_field(t)


def test_non_prime_power_message_names_factorization():
    with pytest.raises(FieldError, match=r"6 = 2 \* 3"):
        make_field(6)


def test_order_limit():
    with pytest.raises(FieldError):
        make_field(17)


def test_arith_examples():
    assert make_field(3).add(2, 2) == 1
    assert make_field(4).mul(2, 3) == 1  # x * (x+1) = x^2 + x = 1 mod reduction
    assert make_field(2).sub(0, 1) == 1


def test_inv_pow_examples():
    assert make_field(3).inv(2) == 2
    assert make_field(4).inv(2) == 3
    assert make_field(5).pow(3, 4) == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(FieldError):
        make_field(3).inv(0)
    with pytest.raises(FieldError):
        make_field(4).pow(0, -1)


def test_out_of_range_rejected():
    f = make_field(3)
    with pytest.raises(FieldError):
        f.add(3, 0)
    with pytest.raises(FieldError):
        f.mul(0, -1)


@pytest.mark.parametrize("t", SUPPORTED)
def test_field_axioms_exhaustive(t):
    f = make_field(t)
    els = list(f.elements)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("t", SUPPORTED)
def test_frobenius_and_inverses(t):
    f = make_field(t)
    for a in f.elements:
        assert f.pow(a, t) == a
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("t", SUPPORTED)
def test_digit_round_trip(t):
    f = make_field(t)
    for a in f.elements:
        assert _pack(_digits(a, f.char, f.degree), f.char) == a


def test_gf4_naming_matches_polynomials():
    # 2 = x and 3 = x + 1: squaring x gives x + 1, squaring x + 1 gives x
    f = make_field(4)
    assert f.mul(2, 2) == 3
    assert f.mul(3, 3) == 2
    assert f.add(2, 3) == 1


@given(st.sampled_from(SUPPORTED), st.data())
def test_sub_is_add_of_negation(t, data):
    f = make_field(t)
    a = data.draw(st.integers(0, t - 1))
    b = data.draw(st.integers(0, t - 1))
    assert f.sub(a, b) == f.add(a, f.neg(b))


@given(st.sampled_from(SUPPORTED), st.integers(0, 15), st.integers(-6, 6))
def test_pow_matches_repeated_multiplication(t, a_raw, e):
    f = make_field(t)
    a = a_raw % t
    if a == 0 and e < 0:
        return
    acc = 1
    base = f.inv(a) if e < 0 else a
    for _ in range(abs(e)):
        acc = f.mul(acc, base)
    assert f.pow(a, e) == acc
