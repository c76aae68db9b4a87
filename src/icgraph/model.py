"""Domain model for gcd graphs of prime power order.

A graph order n = p^s is a PrimePowerOrder. Divisor sets of p^s are
described by exponent tuples a = (a_1, ..., a_r) with
0 <= a_1 < ... < a_r <= s-1, standing for D(a) = {p^a_1, ..., p^a_r}.
An exponent tuple is admissible when r >= 2, a_1 = 0 and a_r = s-1;
admissible tuples are in bijection with delta vectors, their tuples of
consecutive differences (positive entries summing to s-1). The rewrite
calculus in the transform module works on delta vectors.

Tuples and vectors are plain tuples of ints, checked by the validators
here; divisor sets are canonically sorted tuples of ints.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Iterable, NamedTuple, Sequence

from .numtheory import _shown, check_int, check_prime


class _Checked:
    """Base of every layer's records, listed before a named tuple whose __new__ checks it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable):
        # namedtuple's _make (and _replace, which calls it) skip __new__.
        return cls(*iterable)


class PrimePowerOrder(_Checked, NamedTuple("PrimePowerOrder", [("p", int), ("s", int)])):
    """Graph order n = p^s with p prime and s >= 1.

    An immutable (p, s) tuple; every public way to build one checks p and s.
    """

    __slots__ = ()

    def __new__(cls, p: int, s: int) -> PrimePowerOrder:
        check_prime(p)
        check_int(s, "s", 1)
        return super().__new__(cls, p, s)

    @classmethod
    def _proven(cls, p: int, s: int) -> PrimePowerOrder:
        # For a caller that has proven p prime and s an int >= 1 itself,
        # such as verify over its sieve: nothing is checked again.
        return tuple.__new__(cls, (p, s))

    @property
    def n(self) -> int:
        return self.p**self.s

    def __str__(self) -> str:
        return f"{self.p}^{self.s}"


def check_exponent_tuple(a: Sequence[int], s: int) -> tuple[int, ...]:
    """Validate 0 <= a_1 < ... < a_r <= s-1, r >= 1; return it as a tuple."""
    a = tuple(a)
    if not a:
        raise ValueError("exponent tuple must be nonempty")
    for x in a:
        check_int(x, "exponent entry")
    if any(a[i] >= a[i + 1] for i in range(len(a) - 1)):
        raise ValueError(f"exponents must be strictly increasing, got {_shown(a)}")
    if a[0] < 0:
        raise ValueError(f"exponents must be >= 0, got {_shown(a)}")
    if a[-1] > s - 1:
        raise ValueError(f"largest exponent {_shown(a[-1])} exceeds s-1 = {_shown(s - 1)}")
    return a


def admissible_context(a: Sequence[int]) -> tuple[int, int]:
    """Validate admissibility (r >= 2, a_1 = 0, strictly increasing) and return (s, r).

    s is implied: the last entry must equal s-1.
    """
    a = tuple(a)
    if len(a) < 2:
        raise ValueError(f"admissible tuples need r >= 2 entries, got {_shown(a)}")
    s = a[-1] + 1
    check_exponent_tuple(a, s)
    if a[0] != 0:
        raise ValueError(f"admissible tuples start at 0, got {_shown(a)}")
    return s, len(a)


def check_delta(d: Sequence[int]) -> tuple[int, ...]:
    """Validate a delta vector (nonempty, all entries >= 1); return it as a tuple.

    The implied s is sum(d) + 1.
    """
    d = tuple(d)
    if not d:
        raise ValueError("delta vector must be nonempty")
    for x in d:
        check_int(x, "delta entry", 1)
    return d


def _differences(a: Sequence[int]) -> tuple[int, ...]:
    """Consecutive differences a_(i+1) - a_i, unchecked: the delta vector of an admissible a."""
    return tuple(map(sub, a[1:], a))


def _partial_sums(d: Iterable[int]) -> tuple[int, ...]:
    """Partial sums from 0, unchecked: the admissible tuple of a delta vector d."""
    return tuple([0, *accumulate(d)])  # from a list: allocated once at its size, not regrown


def delta(a: Sequence[int]) -> tuple[int, ...]:
    """Delta vector of an admissible tuple: consecutive differences."""
    admissible_context(a)
    return _differences(tuple(a))


def delta_inverse(d: Sequence[int]) -> tuple[int, ...]:
    """Admissible tuple with the given delta vector: partial sums from 0."""
    return _partial_sums(check_delta(d))


def reverse_complement(a: Sequence[int]) -> tuple[int, ...]:
    """Mirror an admissible tuple: (s-1-a_r, ..., s-1-a_1).

    An involution; equivalently reverses the delta vector. h-values and
    energies are invariant under it.
    """
    s, _ = admissible_context(a)
    return tuple(s - 1 - x for x in reversed(tuple(a)))


def divisor_set_of(a: Sequence[int], order: PrimePowerOrder) -> tuple[int, ...]:
    """Divisor set {p^a_1, ..., p^a_r} of an exponent tuple, sorted ascending."""
    a = check_exponent_tuple(a, order.s)
    return tuple(order.p**x for x in a)


def check_divisor_set(n: int, divisors: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize a divisor set for order n: sorted, nonempty, proper divisors only."""
    check_int(n, "n", 1)
    ds = tuple(divisors)
    for d in ds:
        check_int(d, "divisor", 1)
    ds = sorted(set(ds))
    if not ds:
        raise ValueError("divisor set must be nonempty")
    for d in ds:
        if n % d != 0:
            raise ValueError(f"{_shown(d)} does not divide n = {_shown(n)}")
        if d == n:
            raise ValueError(f"n = {_shown(n)} itself is not allowed in the divisor set")
    return tuple(ds)


def is_connected(divisors: Iterable[int], order: PrimePowerOrder) -> bool:
    """Connectivity of the gcd graph of prime power order: holds iff 1 is in the set."""
    ds = check_divisor_set(order.n, divisors)
    return 1 in ds

