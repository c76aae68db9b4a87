"""Arithmetic functions: known values, classical identities, independent cross-checks."""

import cmath
import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icgraph import (
    PrimePowerOrder,
    ResourceLimitError,
    TransformLabel,
    apply_rule,
    brute_force_emax_general,
    check_divisor_set,
    divisors,
    energy_general,
    factorize,
    h_value,
    is_prime,
    mobius,
    ramanujan_sum,
    spectrum_gcd_graph,
    totient,
)
from icgraph.numtheory import _shown, check_int, check_prime, primes_up_to

from paper_identities import h_equidistant, tableau_reduction_check


def test_is_prime_agrees_with_sieve_below_1000():
    sieve = set(primes_up_to(1000))
    for n in range(2, 1001):
        assert is_prime(n) == (n in sieve), n


def test_is_prime_edge_cases():
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)
    assert is_prime(2)
    assert is_prime(2**31 - 1)
    # Carmichael numbers trip probabilistic tests, not trial division.
    for n in (561, 1105, 1729, 2465):
        assert not is_prime(n)


@pytest.mark.parametrize("bad", ["7", 7.0, True, None])
def test_is_prime_rejects_non_ints(bad):
    with pytest.raises(ValueError):
        is_prime(bad)


PRIME_ENTRY_POINTS = {
    "check_prime": check_prime,
    "PrimePowerOrder": lambda p: PrimePowerOrder(p, 3),
    "apply_rule": lambda p: apply_rule((1, 2, 2, 1), TransformLabel.III, 1, 4, p),
    "h_value": lambda p: h_value(p, (0, 1, 3)),
    "h_equidistant": lambda p: h_equidistant(p, 5),
    "tableau_reduction_check": lambda p: tableau_reduction_check(p, (0, 1, 3, 5, 6), 2, 4),
}


@pytest.mark.parametrize("entry", PRIME_ENTRY_POINTS)
@pytest.mark.parametrize(
    "p, message",
    [
        (2.0, "p must be an int, got 2.0"),
        ("x", "p must be an int, got 'x'"),
        (True, "p must be an int, got True"),
        (None, "p must be an int, got None"),
        (4, "p must be prime, got 4"),
        (-7, "p must be prime, got -7"),
    ],
)
def test_prime_parameters_are_named_p_in_errors(entry, p, message):
    PRIME_ENTRY_POINTS[entry](3)  # the other arguments are valid
    with pytest.raises(ValueError) as info:
        PRIME_ENTRY_POINTS[entry](p)
    assert str(info.value) == message


def test_long_numbers_are_shown_by_their_first_digits():
    assert _shown(10**50 - 1) == "9" * 50
    assert _shown(10**50) == "1" + "0" * 19 + "… (51 digits)"
    # past the int-to-str digit limit, where str() itself would raise
    assert _shown(7 * 10**9999 + 1) == "7" + "0" * 19 + "… (10000 digits)"
    # F_13 = 2^8192 + 1 passes base 2, so is_prime cannot decide it
    with pytest.raises(ResourceLimitError) as info:
        is_prime(2**8192 + 1)
    assert str(info.value).startswith(
        "cannot decide primality of 10907481356194159294… (2467 digits) >= "
    )


BIG = "10000000000000000000\u2026 (5001 digits)"  # 10**5000


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int-str limit"
)
@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: energy_general(10**5000, [1]), ResourceLimitError,
            f"n = {BIG} exceeds the spectral scan cap 1000000", id="energy-cap",
        ),
        pytest.param(
            lambda: spectrum_gcd_graph(10**5000, [1]), ResourceLimitError,
            f"n = {BIG} exceeds the spectral scan cap 1000000", id="spectrum-cap",
        ),
        pytest.param(
            lambda: brute_force_emax_general(10**5000), ResourceLimitError,
            f"n = {BIG} exceeds the spectral scan cap 1000000", id="enumeration-cap",
        ),
        pytest.param(
            lambda: check_divisor_set(10**5000 + 1, [7]), ValueError,
            f"7 does not divide n = {BIG}", id="big-n",
        ),
        pytest.param(
            lambda: check_divisor_set(7, [10**5000]), ValueError,
            f"{BIG} does not divide n = 7", id="big-divisor",
        ),
        pytest.param(
            lambda: check_divisor_set(10**5000, [1, 10**5000]), ValueError,
            f"n = {BIG} itself is not allowed in the divisor set", id="n-in-set",
        ),
        pytest.param(
            lambda: check_prime(10**5000), ValueError,
            f"p must be prime, got {BIG}", id="not-prime",
        ),
        pytest.param(
            lambda: check_int(-(10**5000), "n", 1), ValueError,
            f"n must be an int >= 1, got -{BIG}", id="below-minimum",
        ),
    ],
)
def test_messages_abbreviate_numbers_past_the_digit_limit(call, error, message):
    # Under the default int-to-str limit, a message built with str(n)
    # would itself raise ValueError("Exceeds the limit ...") instead.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(error) as info:
            call()
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(info.value) == message


def test_factorize_known_values():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(2**10) == [(2, 10)]
    assert factorize(97 * 101) == [(97, 1), (101, 1)]


@given(st.integers(min_value=1, max_value=10**5))
def test_factorize_reconstructs_input(n):
    fac = factorize(n)
    assert math.prod(p**m for p, m in fac) == n
    primes = [p for p, _ in fac]
    assert primes == sorted(primes)
    assert all(is_prime(p) for p in primes)
    assert all(m >= 1 for _, m in fac)


def test_mobius_known_values():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert mobius(30) == -1
    assert mobius(210) == 1
    assert mobius(4 * 9) == 0


@given(st.integers(min_value=1, max_value=3000))
def test_mobius_sums_to_indicator_of_one(n):
    assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_totient_known_values():
    assert [totient(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert totient(3**5) == 2 * 3**4


@given(st.integers(min_value=1, max_value=3000))
def test_totient_sums_to_n_over_divisors(n):
    assert sum(totient(d) for d in divisors(n)) == n


@given(st.integers(min_value=1, max_value=2000))
def test_divisors_sorted_and_complete(n):
    ds = divisors(n)
    assert ds[0] == 1 and ds[-1] == n
    assert ds == sorted(set(ds))
    assert all(n % d == 0 for d in ds)
    assert len(ds) == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_ramanujan_sum_special_arguments():
    for q in range(1, 40):
        assert ramanujan_sum(q, 0) == totient(q)
        assert ramanujan_sum(q, 1) == mobius(q)
        assert ramanujan_sum(1, q) == 1
    for p in (2, 3, 5, 7):
        assert ramanujan_sum(p, p) == p - 1
        assert ramanujan_sum(p, 1) == -1


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=300))
def test_ramanujan_sum_matches_divisor_sum_form(q, k):
    # Independent evaluation: c_q(k) = sum of mu(q/d) * d over d | gcd(q, k).
    g = math.gcd(q, k) if k else q
    expected = sum(mobius(q // d) * d for d in divisors(g))
    assert ramanujan_sum(q, k) == expected


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=60))
def test_ramanujan_sum_matches_exponential_sum(q, k):
    acc = sum(
        cmath.exp(2j * cmath.pi * j * k / q)
        for j in range(1, q + 1)
        if math.gcd(j, q) == 1
    )
    assert abs(acc.imag) < 1e-8
    assert abs(ramanujan_sum(q, k) - acc.real) < 1e-6


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=200))
def test_ramanujan_sum_depends_only_on_gcd_class(q, k):
    assert ramanujan_sum(q, k) == ramanujan_sum(q, k + q)
    assert ramanujan_sum(q, k) == ramanujan_sum(q, math.gcd(q, k) if k else q)


def test_primes_up_to_known():
    assert primes_up_to(1) == ()
    assert primes_up_to(2) == (2,)
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert len(primes_up_to(10**4)) == 1229


def test_primes_up_to_retains_no_sieve():
    # Each call sieves afresh: no tuple is kept for a limit once asked for.
    first, second = primes_up_to(1000), primes_up_to(1000)
    assert first == second
    assert first is not second


@pytest.mark.parametrize("func", [factorize, mobius, totient, divisors])
def test_arithmetic_functions_reject_nonpositive(func):
    with pytest.raises(ValueError):
        func(0)
    with pytest.raises(ValueError):
        func(-5)
    with pytest.raises(ValueError):
        func(2.5)


def test_ramanujan_sum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ramanujan_sum(0, 3)
    with pytest.raises(ValueError):
        ramanujan_sum(5, -1)
    with pytest.raises(ValueError):
        ramanujan_sum(5, 1.5)
