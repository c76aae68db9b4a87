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

from typing import Iterable, NamedTuple, Sequence

from .numtheory import _shown, check_int, check_prime


class PrimePowerOrder(NamedTuple("PrimePowerOrder", [("p", int), ("s", int)])):
    """Graph order n = p^s with p prime and s >= 1.

    An immutable (p, s) tuple; every way to build one checks p and s.
    """

    __slots__ = ()

    def __new__(cls, p: int, s: int) -> PrimePowerOrder:
        check_prime(p)
        check_int(s, "s", 1)
        return super().__new__(cls, p, s)

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> PrimePowerOrder:
        # namedtuple's _make (and _replace, which calls it) skip __new__.
        return cls(*iterable)

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
        raise ValueError(f"exponents must be strictly increasing, got {a}")
    if a[0] < 0:
        raise ValueError(f"exponents must be >= 0, got {a}")
    if a[-1] > s - 1:
        raise ValueError(f"largest exponent {a[-1]} exceeds s-1 = {s - 1}")
    return a


def admissible_context(a: Sequence[int]) -> tuple[int, int]:
    """Validate admissibility (r >= 2, a_1 = 0, strictly increasing) and return (s, r).

    s is implied: the last entry must equal s-1.
    """
    a = tuple(a)
    if len(a) < 2:
        raise ValueError(f"admissible tuples need r >= 2 entries, got {a}")
    s = a[-1] + 1
    check_exponent_tuple(a, s)
    if a[0] != 0:
        raise ValueError(f"admissible tuples start at 0, got {a}")
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


def delta(a: Sequence[int]) -> tuple[int, ...]:
    """Delta vector of an admissible tuple: consecutive differences."""
    admissible_context(a)
    a = tuple(a)
    return tuple(a[i + 1] - a[i] for i in range(len(a) - 1))


def delta_inverse(d: Sequence[int]) -> tuple[int, ...]:
    """Admissible tuple with the given delta vector: partial sums from 0."""
    d = check_delta(d)
    out = [0]
    for x in d:
        out.append(out[-1] + x)
    return tuple(out)


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

