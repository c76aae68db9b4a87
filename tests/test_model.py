"""Orders, exponent tuples, delta vectors and divisor set plumbing."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icgraph import (
    PrimePowerOrder,
    check_divisor_set,
    check_exponent_tuple,
    delta,
    delta_inverse,
    divisor_set_of,
    is_connected,
    reverse_complement,
)
from icgraph.model import check_delta

from helpers import every_construction, exponent_tuples


def test_order_basics():
    o = PrimePowerOrder(2, 30)
    assert o.n == 2**30
    assert str(o) == "2^30"
    assert PrimePowerOrder(7, 1).n == 7


def test_order_rejects_invalid():
    with pytest.raises(ValueError):
        PrimePowerOrder(4, 2)
    with pytest.raises(ValueError):
        PrimePowerOrder(2, 0)
    with pytest.raises(ValueError):
        PrimePowerOrder(1, 3)
    with pytest.raises(ValueError):
        PrimePowerOrder(2, -1)


def test_order_is_immutable_and_hashable():
    o = PrimePowerOrder(3, 4)
    with pytest.raises(Exception):
        o.p = 5
    assert len({PrimePowerOrder(3, 4), PrimePowerOrder(3, 4)}) == 1


def test_order_record_construction_and_rendering():
    o = PrimePowerOrder(p=2, s=3)
    assert o == PrimePowerOrder(2, 3)
    assert (o.p, o.s, o.n) == (2, 3, 8)
    assert repr(o) == "PrimePowerOrder(p=2, s=3)"
    assert str(o) == "2^3"
    assert hash(o) == hash(PrimePowerOrder(2, 3))
    assert o != PrimePowerOrder(3, 2)


def test_order_attributes_cannot_be_set():
    o = PrimePowerOrder(3, 4)
    for name in ("p", "s", "n", "other"):
        with pytest.raises(AttributeError):
            setattr(o, name, 5)
    assert (o.p, o.s) == (3, 4)


def test_order_survives_a_pickle_round_trip():
    # A checked named tuple must rebuild through its own class.
    o = PrimePowerOrder(1000000007, 20)
    back = pickle.loads(pickle.dumps(o))
    assert back == o and type(back) is PrimePowerOrder and back.n == o.n


BAD_ORDERS = [
    ((4, 2), "p must be prime, got 4"),
    ((1, 3), "p must be prime, got 1"),
    ((2.0, 3), "p must be an int, got 2.0"),
    ((True, 3), "p must be an int, got True"),
    ((2, 0), "s must be an int >= 1, got 0"),
    ((2, -1), "s must be an int >= 1, got -1"),
    ((2, "3"), "s must be an int >= 1, got '3'"),
]


@pytest.mark.parametrize("ps, message", BAD_ORDERS)
def test_every_construction_path_checks_p_and_s(ps, message):
    p, s = ps
    for build in every_construction(PrimePowerOrder(2, 3), {"p": p, "s": s}):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_check_exponent_tuple_accepts_valid():
    assert check_exponent_tuple((0, 1, 3), 4) == (0, 1, 3)
    assert check_exponent_tuple([2], 4) == (2,)
    assert check_exponent_tuple((0,), 1) == (0,)


@pytest.mark.parametrize(
    "a, s",
    [
        ((), 3),
        ((0, 0), 3),
        ((1, 0), 3),
        ((0, 3), 3),
        ((-1, 2), 3),
        ((0, 1.5), 3),
    ],
)
def test_check_exponent_tuple_rejects_invalid(a, s):
    with pytest.raises(ValueError):
        check_exponent_tuple(a, s)


@given(exponent_tuples(max_s=20))
def test_delta_roundtrip(sa):
    s, a = sa
    d = delta(a)
    assert sum(d) == s - 1
    assert all(x >= 1 for x in d)
    assert delta_inverse(d) == a


def test_delta_known():
    assert delta((0, 5, 6, 9)) == (5, 1, 3)
    assert delta_inverse((5, 1, 3)) == (0, 5, 6, 9)
    assert delta((0, 1)) == (1,)


def test_check_delta_rejects_invalid():
    for bad in [(), (0,), (2, 0), (2, -1), (1.5,)]:
        with pytest.raises(ValueError):
            check_delta(bad)


@given(exponent_tuples(max_s=20))
def test_reverse_complement_is_an_involution(sa):
    s, a = sa
    b = reverse_complement(a)
    assert b[0] == 0 and b[-1] == s - 1
    assert reverse_complement(b) == a
    assert delta(b) == tuple(reversed(delta(a)))


def test_reverse_complement_known():
    assert reverse_complement((0, 1, 3)) == (0, 2, 3)
    assert reverse_complement((0, 2, 4)) == (0, 2, 4)


def test_divisor_set_of_known():
    o = PrimePowerOrder(5, 4)
    assert divisor_set_of((0, 1, 3), o) == (1, 5, 125)
    assert divisor_set_of((0,), PrimePowerOrder(2, 1)) == (1,)


def test_divisor_set_of_rejects_out_of_range():
    with pytest.raises(ValueError):
        divisor_set_of((0, 4), PrimePowerOrder(5, 4))


def test_check_divisor_set_normalizes():
    assert check_divisor_set(12, [4, 1]) == (1, 4)
    assert check_divisor_set(12, (6, 6, 1)) == (1, 6)
    assert check_divisor_set(105, [1, 15, 21, 35]) == (1, 15, 21, 35)


@pytest.mark.parametrize(
    "n, ds",
    [
        (12, []),
        (12, [12]),
        (12, [5]),
        (12, [0]),
        (12, [-2]),
        (12, [24]),
        (12, [1, "a"]),
        (12, [[1]]),
    ],
)
def test_check_divisor_set_rejects_invalid(n, ds):
    with pytest.raises(ValueError):
        check_divisor_set(n, ds)


def test_is_connected_iff_unit_divisor_present():
    o = PrimePowerOrder(2, 4)
    assert is_connected((1, 4), o)
    assert not is_connected((2, 4), o)

