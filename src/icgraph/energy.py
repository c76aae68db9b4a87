"""Exact gcd-graph energies.

Two independent routes to the energy (sum of absolute eigenvalues):

* the prime-power product formula
      E(D(a), p^s) = 2(p-1) p^(s-1) (r - (p-1) h(a)),
  with h(a) the double sum of p^-(a_i - a_k) over index pairs k < i,
  evaluated all-integer as 2(p-1)(r p^(s-1) - (p-1) T) where
  T = sum p^(s-1-(a_i-a_k)) = sum_i P_i p^(s-1-a_i+a_1) with the prefix
  sums P_i = sum_{k<i} p^(a_k-a_1): r big-int multiply-adds over the
  gaps a_i - a_{i-1}, so a delta vector (the gaps of an admissible
  tuple) is scored as it stands;
* the spectral route for arbitrary n via Ramanujan sums,
      lambda_k = sum_{d in D} c_{n/d}(k).

Closed forms for the minimal and maximal energy over divisor sets of
p^s live here too, with the maximizer shapes (canonical_maximizer, the
one list of them; the transform module re-exports it), the
hyper/hypoenergetic classification against 2(n-1), and the
Koolen-Moulton bound check.

All arithmetic is exact: ints and fractions.Fraction throughout.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

from .model import PrimePowerOrder, check_divisor_set, check_exponent_tuple, delta_inverse
from .numtheory import ResourceLimitError, check_int, check_prime, divisors, ramanujan_sum

if TYPE_CHECKING:  # fractions is imported only by the functions that build one
    from fractions import Fraction

# energy_general / spectrum_gcd_graph refuse larger n; the per-order
# gcd histogram pass is O(n log n) and meant for desk-scale checking.
SPECTRAL_N_CAP = 10**6


def _gaps(a: tuple[int, ...]) -> list[int]:
    return [x - previous for previous, x in zip(a, a[1:])]


def _pair_sum(p: int, gaps: Sequence[int], tail: int) -> int:
    """T = sum over pairs k < i of p^(a_r - a_1 + tail - (a_i - a_k)).

    The tuple a enters only through its gaps a_i - a_{i-1}; tail >= 0.
    T = sum_i P_i p^(a_r - a_i + tail) with the prefix sums
    P_i = sum_{k<i} p^(a_k - a_1), evaluated by Horner's rule over the
    gaps with a running p^(a_i - a_1): r big-int multiply-adds. Unchecked.
    """
    t = 0
    power = prefix = 1
    for gap in gaps:
        step = p**gap
        t = t * step + prefix
        power *= step
        prefix += power
    return t * p**tail


def _gap_energy(p: int, s: int, gaps: Sequence[int], tail: int) -> int:
    """E = 2(p-1)(r p^(s-1) - (p-1) T), T the pair sum at tail = s-1-(a_r - a_1).

    r = len(gaps) + 1. Unchecked: energy_prime_power validates its tuple,
    and the transform module passes a delta vector with tail 0.
    """
    t = _pair_sum(p, gaps, tail)
    return 2 * (p - 1) * ((len(gaps) + 1) * p ** (s - 1) - (p - 1) * t)


def h_value(p: int, a: Sequence[int]) -> Fraction:
    """h(a) = sum over pairs k < i of p^-(a_i - a_k), exact.

    a must be strictly increasing with nonnegative entries; r = 1 gives 0.
    """
    from fractions import Fraction

    check_prime(p)
    a = check_exponent_tuple(a, math.inf)  # h puts no bound on the top exponent
    return Fraction(_pair_sum(p, _gaps(a), 0), p ** (a[-1] - a[0]))


def energy_prime_power(order: PrimePowerOrder, a: Sequence[int]) -> int:
    """Energy of the gcd graph on p^s with divisor set {p^a_1, ..., p^a_r}.

    Integer-exact: E = 2(p-1)(r p^(s-1) - (p-1) T) with
    T = sum_{k<i} p^(s-1-(a_i-a_k)). Works for every exponent tuple,
    admissible or not (singletons give the minimal energy 2(p-1)p^(s-1)).
    """
    p, s = order.p, order.s
    a = check_exponent_tuple(a, s)
    return _gap_energy(p, s, _gaps(a), s - 1 - (a[-1] - a[0]))


@lru_cache(maxsize=4096)
def _divisor_tuple(n: int) -> tuple[int, ...]:
    return tuple(divisors(n))


@lru_cache(maxsize=64)
def _gcd_class_counts(n: int) -> tuple[int, ...]:
    """Count, for each divisor g of n (ascending), the k in [0, n) with gcd(k, n) = g."""
    gs = _divisor_tuple(n)
    index = {g: i for i, g in enumerate(gs)}
    counts = [0] * len(gs)
    for k in range(n):
        counts[index[math.gcd(k, n)]] += 1
    return tuple(counts)


@lru_cache(maxsize=4096)
def _eigenvalue_classes(n: int, d: int) -> tuple[int, ...]:
    """c_{n/d}(g) for each divisor g of n (ascending)."""
    q = n // d
    return tuple(ramanujan_sum(q, g) for g in _divisor_tuple(n))


def _class_eigenvalues(n: int, divisor_set: Iterable[int]) -> list[int]:
    """lambda on each gcd class g of n (ascending): sum over d in D of c_{n/d}(g).

    Validates D and the size cap before any O(n) work.
    """
    ds = check_divisor_set(n, divisor_set)
    if n > SPECTRAL_N_CAP:
        raise ResourceLimitError(f"n = {n} exceeds the spectral scan cap {SPECTRAL_N_CAP}")
    return [sum(column) for column in zip(*(_eigenvalue_classes(n, d) for d in ds))]


def spectrum_gcd_graph(n: int, divisor_set: Iterable[int]) -> list[int]:
    """Eigenvalues lambda_0..lambda_{n-1} of the gcd graph on Z/nZ.

    lambda_k = sum_{d in D} c_{n/d}(k); all integers. lambda_0 equals the
    degree sum_{d in D} phi(n/d), and the whole list sums to 0.
    """
    by_class = _class_eigenvalues(n, divisor_set)
    index = {g: i for i, g in enumerate(_divisor_tuple(n))}
    return [by_class[index[math.gcd(k, n)]] for k in range(n)]


def energy_general(n: int, divisor_set: Iterable[int]) -> int:
    """Energy sum_k |lambda_k| of the gcd graph on Z/nZ, spectral route.

    lambda_k depends on k only through gcd(k, n), so the scan groups k
    by gcd class (one cached histogram pass per n). Exact integer result,
    identical to summing |.| over spectrum_gcd_graph. Cap: n <= 10^6.
    """
    by_class = _class_eigenvalues(n, divisor_set)
    return sum(count * abs(lam) for count, lam in zip(_gcd_class_counts(n), by_class))


def emin_closed(order: PrimePowerOrder) -> tuple[int, list[tuple[int, ...]]]:
    """Minimal energy over divisor sets of p^s and all attaining sets.

    The minimum 2(p-1)p^(s-1) is attained exactly by the singletons {p^t}.
    """
    p, s = order.p, order.s
    value = 2 * (p - 1) * p ** (s - 1)
    return value, [(p**t,) for t in range(s)]


def canonical_maximizer(order: PrimePowerOrder) -> list[tuple[int, ...]]:
    """The maximal-energy delta vectors for p^s, s >= 2.

    Odd s: (2, ..., 2), plus (1, 2, ..., 2, 1) when p = 2.
    Even s: (2, ..., 2, 1) and (1, 2, ..., 2); these coincide at s = 2.
    s = 1 has no admissible tuple at all (sole divisor set {1}): empty list.
    """
    p, s = order.p, order.s
    if s == 1:
        return []
    if s % 2:
        out = [(2,) * ((s - 1) // 2)]
        if p == 2:
            out.append((1,) + (2,) * ((s - 3) // 2) + (1,))
        return out
    half = (s - 2) // 2
    out = [(2,) * half + (1,), (1,) + (2,) * half]
    return out[:1] if out[0] == out[1] else out


def emax_closed(order: PrimePowerOrder) -> tuple[int, list[tuple[int, ...]]]:
    """Maximal energy over divisor sets of p^s and all maximizing exponent tuples.

    Odd s:  ((s+1)(p^2-1)p^s + 2(p^(s+1)-1)) / (p+1)^2,
    Even s: (s(p^2-1)p^s + 2(2p^(s+1)-p^(s-1)+p^2-p-1)) / (p+1)^2.
    Both divisions are exact (checked). The maximizers are the tuples of
    the canonical_maximizer delta vectors, in that order. s = 1 gives
    2(p-1) with the sole divisor set {1}, returned as the singleton tuple (0).
    """
    p, s = order.p, order.s
    if s % 2:
        numerator = (s + 1) * (p * p - 1) * p**s + 2 * (p ** (s + 1) - 1)
    else:
        numerator = s * (p * p - 1) * p**s + 2 * (
            2 * p ** (s + 1) - p ** (s - 1) + p * p - p - 1
        )
    value, remainder = divmod(numerator, (p + 1) ** 2)
    if remainder:
        raise RuntimeError(
            f"maximal-energy closed form did not divide exactly for p={p}, s={s}"
        )
    return value, [delta_inverse(d) for d in canonical_maximizer(order)] or [(0,)]


def classify_energy(n: int, energy: int) -> str:
    """Compare an energy to the complete graph's 2(n-1).

    Returns 'hyperenergetic' (above), 'hypoenergetic' (below) or 'neither'.
    """
    check_int(n, "n", 1)
    check_int(energy, "energy", 0)
    threshold = 2 * (n - 1)
    if energy > threshold:
        return "hyperenergetic"
    if energy < threshold:
        return "hypoenergetic"
    return "neither"


def koolen_moulton_check(n: int, energy: int) -> bool:
    """Whether E <= (n/2)(sqrt(n) + 1), decided in exact integer arithmetic.

    E <= (n/2)(sqrt(n)+1)  iff  t := 2E - n satisfies t <= 0 or t^2 <= n^3.
    """
    check_int(n, "n", 1)
    check_int(energy, "energy", 0)
    t = 2 * energy - n
    return t <= 0 or t * t <= n**3
