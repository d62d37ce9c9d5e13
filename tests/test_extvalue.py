import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quantalg.extvalue import (INF, ONE, ZERO, ExtValue, UndefinedProduct, ext,
                               ext_max, ext_sum)

rationals = st.fractions(min_value=0, max_value=100, max_denominator=64)
values = st.one_of(rationals.map(ExtValue), st.just(INF))


def test_construction_and_rendering():
    assert str(ext("1/2")) == "1/2"
    assert str(ext(3)) == "3"
    assert str(ext("inf")) == "inf"
    assert ext(Fraction(2, 4)) == ext("1/2")
    with pytest.raises(ValueError):
        ext(-1)


def test_inf_absorbs_addition():
    assert ext(3) + INF == INF
    assert INF + ext(3) == INF
    assert INF + INF == INF
    assert ext("1/3") + ext("1/6") == ext("1/2")


def test_zero_times_inf_is_an_error():
    with pytest.raises(UndefinedProduct):
        INF.scaled(0)
    assert INF.scaled(Fraction(1, 2)) == INF
    assert ZERO.scaled(0) == ZERO


def test_total_order_with_inf_top():
    assert ZERO < ext("1/2") < ONE < INF
    assert not INF < INF
    assert INF <= INF
    assert max(ext(2), INF) == INF
    assert sorted([INF, ZERO, ext(1)]) == [ZERO, ext(1), INF]


# An operand of each type the comparisons take, with its place in the
# reference order: None for INF (the top), else its rational.
operands = st.one_of(
    values.map(lambda v: (v, None if v.is_inf else v.rational)),
    rationals.map(lambda q: (q, q)),
    st.integers(0, 100).map(lambda k: (k, Fraction(k))))
COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)


def _reference_key(q):
    return (1, 0) if q is None else (0, q)


@given(values, operands, st.booleans())
def test_comparisons_follow_the_reference_order(a, other, flip):
    sides = [(a, _reference_key(None if a.is_inf else a.rational)),
             (other[0], _reference_key(other[1]))]
    (x, kx), (y, ky) = sides[::-1] if flip else sides
    for op in COMPARISONS:
        assert op(x, y) == op(kx, ky), (op, x, y)


@given(values, st.integers(max_value=-1))
def test_comparisons_with_other_operands(a, negative):
    assert not a == "1"
    assert a != "1"
    assert not a == None  # noqa: E711
    for op in COMPARISONS:
        with pytest.raises(ValueError):
            op(a, negative)
        with pytest.raises(ValueError):
            op(negative, a)


def test_truncation():
    assert INF.truncated(ONE) == ONE
    assert ext("1/3").truncated(ONE) == ext("1/3")
    assert ext(5).truncated(ONE) == ONE


@given(values, values, values)
def test_addition_is_associative_and_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(values, values)
def test_order_total(a, b):
    assert (a <= b) or (b <= a)
    if a <= b and b <= a:
        assert a == b


@given(values, rationals)
def test_scaling_monotone(a, c):
    if c == 0 and a.is_inf:
        return
    assert a.scaled(c) + a.scaled(0) == a.scaled(c) if not a.is_inf else True
    b = a + ONE
    assert a.scaled(c) <= b.scaled(c) or c == 0


def test_helpers():
    assert ext_max() == ZERO
    assert ext_max(ext(1), ext(2), ZERO) == ext(2)
    assert ext_sum([ext("1/2"), ext("1/2")]) == ONE
    assert ext_sum([]) == ZERO


# Every operation against the Fraction reference, on the (n, d) ints that
# ExtValue holds: small denominators and 300-digit ones, infinity (None in
# the reference) included.
small = st.fractions(min_value=0, max_value=100, max_denominator=64)
huge = st.builds(Fraction, st.integers(0, 10 ** 305), st.integers(10 ** 299, 10 ** 300))
exact = st.one_of(small, huge)
refs = st.one_of(exact, st.just(None))


def _ext_of(q):
    return INF if q is None else ExtValue(q)


def _reduced(v, q):
    """v holds q as its reduced pair, (1, 0) for infinity."""
    return v.ratio == ((1, 0) if q is None else (q.numerator, q.denominator))


@given(refs)
def test_representation_is_the_reduced_pair(q):
    v = _ext_of(q)
    assert _reduced(v, q) and v.is_inf == (q is None)
    assert str(v) == ("inf" if q is None else str(q))
    if q is None:
        with pytest.raises(ValueError):
            v.rational
    else:
        assert type(v.rational) is Fraction and v.rational == q
        assert ExtValue(q.numerator * 6, q.denominator * 6).ratio == v.ratio
        assert ExtValue(str(q)) == ExtValue(v) == v


@given(refs)
def test_hash_is_the_fraction_hash(q):
    v = _ext_of(q)
    if q is None:
        assert hash(v) == hash(ExtValue("inf")) == hash(ExtValue(None))
    else:
        assert hash(v) == hash(q)
        if q.denominator == 1:
            assert hash(v) == hash(q.numerator) and v == q.numerator
        assert len({v, q}) == 1


@given(refs, refs)
def test_addition_matches_fractions(p, q):
    want = None if p is None or q is None else p + q
    for got in (_ext_of(p) + _ext_of(q), _ext_of(p) + (q if q is not None else INF)):
        assert _reduced(got, want) and got == _ext_of(want)


@given(refs, st.one_of(exact, st.integers(0, 10 ** 300)))
def test_scaling_matches_fractions(q, c):
    v = _ext_of(q)
    if q is None and c == 0:
        with pytest.raises(UndefinedProduct):
            v.scaled(c)
        return
    want = None if q is None else q * c
    assert _reduced(v.scaled(c), want)
    with pytest.raises(ValueError):
        v.scaled(-c - 1)


@given(refs, st.one_of(refs.map(lambda q: (_ext_of(q), q)),
                       exact.map(lambda q: (q, q)),
                       st.integers(0, 10 ** 300).map(lambda k: (k, Fraction(k)))),
       st.booleans())
def test_comparisons_and_truncation_match_fractions(q, other, flip):
    # all six comparisons, each way round, against ExtValue, Fraction and int
    sides = [(_ext_of(q), _reference_key(q)), (other[0], _reference_key(other[1]))]
    (x, kx), (y, ky) = sides[::-1] if flip else sides
    for op in COMPARISONS:
        assert op(x, y) == op(kx, ky), (op, x, y)
    cap = _ext_of(other[1])
    assert _reduced(_ext_of(q).truncated(cap), q if _reference_key(q) <= _reference_key(other[1])
                    else other[1])


@given(st.integers(0, 10 ** 300), st.integers(1, 10 ** 300))
def test_pair_constructor_reduces(n, d):
    assert _reduced(ExtValue(n, d), Fraction(n, d))
    for bad in ((-n - 1, d), (n, 0), (n, -d)):
        with pytest.raises(ValueError):
            ExtValue(*bad)
