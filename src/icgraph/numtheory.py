"""Arithmetic functions on positive integers.

Primality testing, factorization, Moebius mu, Euler phi, divisor lists,
prime sieves and Ramanujan sums, plus the int and prime validators
(check_int, check_prime) and the resource error the whole package
raises. Everything works on Python ints, which are arbitrary precision,
and everything here is a pure function.

Every call ends in bounded time. is_prime is deterministic Miller-Rabin
on the primes 2..41 as bases, exact below MILLER_RABIN_BOUND; a larger
n that base 2 does not prove composite raises ResourceLimitError rather
than being reported prime; check_prime refuses p >= MILLER_RABIN_BOUND
before any test. factorize trial-divides up to TRIAL_DIVISION_BOUND and
keeps a leftover cofactor only when it is a power of a prime below that
bound; otherwise it raises ResourceLimitError. Prime powers are never
factored by the rest of the library; their (p, s) shape is given explicitly.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

# Sorenson & Webster (2015): the first 13 primes as Miller-Rabin bases
# decide primality exactly for every n below this bound.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981
TRIAL_DIVISION_BOUND = 10**6


class ResourceLimitError(RuntimeError):
    """An input exceeds a documented enumeration, scan or factorization cap."""


def check_int(value: int, what: str, minimum: Optional[int] = None) -> None:
    """Require an int (not a bool), at least `minimum` when given."""
    if not isinstance(value, int) or isinstance(value, bool) or (
        minimum is not None and value < minimum
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{what} must be an int{bound}, got {_shown(value)}")


def check_prime(p: int) -> None:
    """Require p to be an int (checked under the name p), below MILLER_RABIN_BOUND and prime."""
    check_int(p, "p")
    if p >= MILLER_RABIN_BOUND:
        raise ResourceLimitError(
            f"p = {_shown(p)} is not below {MILLER_RABIN_BOUND}, the bound of exact primality"
        )
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {_shown(p)}")


def _shown(n) -> str:
    """n for a message: an int in decimal, past 50 digits its first 20 and its length.

    Tuples as repr lays them out, other values by repr; no long int reaches str().
    """
    if isinstance(n, tuple):
        return "(" + ", ".join(map(_shown, n)) + ("," if len(n) == 1 else "") + ")"
    if type(n) is not int:
        return repr(n)
    if n < 0:
        return "-" + _shown(-n)
    if n < 10**50:
        return str(n)
    digits = n.bit_length() * 30102 // 100000  # at most the digit count
    while 10**digits <= n:
        digits += 1
    return f"{n // 10 ** (digits - 20)}\u2026 ({digits} digits)"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for n < MILLER_RABIN_BOUND.

    Above the bound only base 2 is tried, as one modular power of n
    costs seconds at thousands of digits: a witness proves n composite,
    and a number it does not refute raises ResourceLimitError.
    """
    check_int(n, "n")
    if n < 2:
        return False
    for b in MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, twos = n - 1, 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    exact = n < MILLER_RABIN_BOUND
    for b in MILLER_RABIN_BASES if exact else MILLER_RABIN_BASES[:1]:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if not exact:
        raise ResourceLimitError(
            f"cannot decide primality of {_shown(n)} >= {MILLER_RABIN_BOUND} exactly"
        )
    return True


def _trial_divisors() -> Iterator[int]:
    yield 2
    yield 3
    for f in range(5, TRIAL_DIVISION_BOUND + 1, 6):
        yield f
        yield f + 2


def _iroot(n: int, k: int) -> int:
    """Largest x with x**k <= n, for n >= 1 and k >= 1, by integer Newton from above the root.

    The root must be below 2^1000; `_prime_power` stops at its first root past the exact bound.
    There the float root errs by under 2^-40, so 1 + 2^-30 and + 2 lift it above the root.
    """
    x = int(2 ** (math.log2(n) / k) * (1 + 2**-30)) + 2
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power(m: int) -> tuple[int, int]:
    """(q, k) with m = q**k and q prime, for m with no prime factor <= 2^19.

    The largest k with an exact k-th root leaves a q that is no perfect
    power; since q > 2^19, k is at most (bits(m) - 1) // 19.
    """
    low_bits = TRIAL_DIVISION_BOUND.bit_length() - 1
    for k in range((m.bit_length() - 1) // low_bits, 0, -1):
        q = _iroot(m, k)
        if q >= MILLER_RABIN_BOUND:  # roots grow as k falls, and none past it is provable
            break
        if q**k == m:
            if is_prime(q):
                return q, k
            break
    raise ResourceLimitError(
        f"{_shown(m)} has no prime factor <= {TRIAL_DIVISION_BOUND} and is not a power "
        f"of a prime below {MILLER_RABIN_BOUND}"
    )


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as [(prime, multiplicity), ...].

    Primes come out strictly increasing and the product of p**m
    reconstructs n. factorize(1) == []. Raises ResourceLimitError when
    what is left after trial division is neither a prime nor a prime
    power.
    """
    check_int(n, "n", 1)
    out: list[tuple[int, int]] = []
    rest = n
    for f in _trial_divisors():
        if f * f > rest:
            break
        if rest % f == 0:
            m = 0
            while rest % f == 0:
                rest //= f
                m += 1
            out.append((f, m))
    else:
        out.append(_prime_power(rest))
        return out
    if rest > 1:
        out.append((rest, 1))
    return out


def mobius(n: int) -> int:
    """Moebius mu: 0 if a square divides n, else (-1)^(number of prime factors)."""
    result = 1
    for _, m in factorize(n):
        if m > 1:
            return 0
        result = -result
    return result


def totient(n: int) -> int:
    """Euler phi: count of 1 <= k <= n with gcd(k, n) = 1."""
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, increasing."""
    out = [1]
    for p, m in factorize(n):
        out = [d * p**e for d in out for e in range(m + 1)]
    return sorted(out)


def ramanujan_sum(q: int, k: int) -> int:
    """Ramanujan sum c_q(k): sum of k-th powers of the primitive q-th roots of unity.

    Evaluated as mu(q/g) * phi(q) / phi(q/g) with g = gcd(q, k); the
    quotient is always an integer. Depends on k only through gcd(q, k).
    """
    check_int(q, "q", 1)
    check_int(k, "k", 0)
    g = math.gcd(q, k)
    m = q // g
    mu = mobius(m)
    if mu == 0:
        return 0
    return mu * (totient(q) // totient(m))


def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit, increasing (simple sieve)."""
    if limit < 2:
        return ()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i in range(2, limit + 1) if sieve[i])
