"""Arithmetic functions against sympy, an implementation that shares no code with icgraph."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from icgraph import ResourceLimitError, factorize, is_prime, mobius, totient
from icgraph import numtheory
from icgraph.numtheory import MILLER_RABIN_BOUND, TRIAL_DIVISION_BOUND, _iroot, check_int

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import mobius as sympy_mobius  # noqa: E402
from sympy.functions.combinatorial.numbers import totient as sympy_totient  # noqa: E402

# Strong pseudoprimes to every prime base up to 7, 23 and 37 respectively:
# each fools a Miller-Rabin test with one base fewer than is_prime uses.
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461)


def _chernick_carmichaels(count):
    """(6k+1)(12k+1)(18k+1) is a Carmichael number when all three factors are prime."""
    out = []
    k = 1
    while len(out) < count:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(f) for f in factors):
            out.append(math.prod(factors))
        k += 1
    return out


CARMICHAELS = (561, 1105, 1729, 2465, 2821, 6601, 8911, *_chernick_carmichaels(12))


def test_is_prime_matches_sympy_below_20000():
    assert [is_prime(n) for n in range(20000)] == [sympy.isprime(n) for n in range(20000)]


def test_is_prime_rejects_strong_pseudoprimes_and_carmichael_numbers():
    for n in STRONG_PSEUDOPRIMES + CARMICHAELS:
        assert n < MILLER_RABIN_BOUND
        assert not sympy.isprime(n), n
        assert not is_prime(n), n


@given(st.integers(min_value=0, max_value=MILLER_RABIN_BOUND - 1))
def test_is_prime_matches_sympy_below_the_exact_bound(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_near_the_exact_bound():
    assert is_prime(int(sympy.prevprime(MILLER_RABIN_BOUND)))
    q = int(sympy.prevprime(math.isqrt(MILLER_RABIN_BOUND)))
    assert not is_prime(q * int(sympy.prevprime(q)))


def test_is_prime_above_the_exact_bound_never_claims_a_prime():
    prime = sympy.nextprime(MILLER_RABIN_BOUND)
    with pytest.raises(ResourceLimitError):
        is_prime(prime)
    with pytest.raises(ResourceLimitError):
        is_prime(2**89 - 1)
    # A witness still proves a large number composite.
    assert not is_prime(prime * sympy.nextprime(prime))
    assert not is_prime(2**89 + 1)


@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_totient_mobius_match_sympy(n):
    assert factorize(n) == sorted(sympy.factorint(n).items())
    assert totient(n) == int(sympy_totient(n))
    assert mobius(n) == int(sympy_mobius(n))


@pytest.mark.parametrize(
    "n",
    [
        1000003**2,
        1000003**3,
        (10**9 + 7) ** 2,
        2**5 * 1000003**4,
        3 * (10**9 + 7) ** 3,
        2**7 * 3 * int(sympy.nextprime(10**15)),
        int(sympy.nextprime(10**20)),
        int(sympy.prevprime(MILLER_RABIN_BOUND)),
        *CARMICHAELS,
        *STRONG_PSEUDOPRIMES[:2],
    ],
)
def test_factorize_keeps_prime_and_prime_power_cofactors(n):
    assert factorize(n) == sorted(sympy.factorint(n).items())
    assert totient(n) == int(sympy_totient(n))
    assert mobius(n) == int(sympy_mobius(n))


UNRESOLVED = [
    1000000016000000063,  # (10^9 + 7)(10^9 + 9)
    STRONG_PSEUDOPRIMES[2],  # 399165290221 * 798330580441
    (1000003 * 1000033) ** 2,  # a square, but not of a prime
    2 * 1000003 * 1000033**2,
    int(sympy.nextprime(MILLER_RABIN_BOUND)),  # prime, but beyond exact primality
]


@pytest.mark.parametrize("n", UNRESOLVED)
def test_factorize_refuses_cofactors_it_cannot_resolve(n):
    assert n > TRIAL_DIVISION_BOUND**2
    with pytest.raises(ResourceLimitError):
        factorize(n)


@pytest.mark.parametrize(
    "n",
    [*UNRESOLVED, (2**4423 - 1) * (2**4253 - 1)],
    ids=[*map(str, UNRESOLVED), "2612-digits"],
)
def test_factorize_tests_no_number_past_the_exact_bound(monkeypatch, n):
    # Base 2 alone took seconds on the 2612-digit product, to refute a
    # number whose primality could never have been proven.
    tested = []
    monkeypatch.setattr(numtheory, "is_prime", lambda q: tested.append(q) or is_prime(q))
    with pytest.raises(ResourceLimitError) as info:
        factorize(n)
    assert all(q < MILLER_RABIN_BOUND for q in tested)
    assert str(info.value).endswith(
        " has no prime factor <= 1000000 and is not a power of a prime below "
        "3317044064679887385961981"
    )


def _of_bit_length(lengths):
    return lengths.flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))


def _root_below_2_to_1000(k):
    return st.tuples(_of_bit_length(st.integers(1, min(20000, 1000 * k))), st.just(k))


# _iroot's float start holds for roots below 2^1000; _prime_power's roots stay below the exact bound.
@given(st.one_of(st.integers(1, 20), st.integers(1, 800)).flatmap(_root_below_2_to_1000))
@example((2**19999 - 1, 800))
@example((2**19999 - 1, 20))  # the root just below 2^1000
@example((2**1000 - 1, 1))
def test_iroot_matches_sympy(nk):
    n, k = nk
    assert _iroot(n, k) == sympy.integer_nthroot(n, k)[0]


@pytest.mark.parametrize("k", [1, 2, 3, 12, 13, 100, 800])
def test_iroot_is_exact_next_to_the_exact_bound(k):
    prime_below = int(sympy.prevprime(MILLER_RABIN_BOUND))
    for q in (prime_below, MILLER_RABIN_BOUND - 1, MILLER_RABIN_BOUND, MILLER_RABIN_BOUND + 1):
        assert _iroot(q**k, k) == q
        assert _iroot(q**k - 1, k) == q - 1


@pytest.mark.parametrize(
    "value, minimum, message",
    [
        (True, None, "x must be an int, got True"),
        (2.0, None, "x must be an int, got 2.0"),
        ("3", 1, "x must be an int >= 1, got '3'"),
        (0, 1, "x must be an int >= 1, got 0"),
    ],
)
def test_check_int_rejects_with_one_message_form(value, minimum, message):
    with pytest.raises(ValueError) as info:
        check_int(value, "x", minimum)
    assert str(info.value) == message


def test_check_int_accepts_ints_at_or_above_the_minimum():
    check_int(5, "x")
    check_int(-5, "x")
    check_int(1, "x", 1)
