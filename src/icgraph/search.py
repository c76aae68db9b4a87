"""Exhaustive divisor-set search and identity checkers.

Brute-force enumeration over all nonempty divisor sets is the
independent verifier for the closed-form maximal energies: it never
touches the closed forms, only the energy evaluators. One bitmask
enumerator scores every subset of a tuple of items by either route:
exponents 0..s-1 by the prime-power pair-sum formula, proper divisors
of n by the spectral route. The masks are optionally split across
worker processes (the pool is imported only when more than one runs);
the merge is deterministic (ties collected, then sorted), so reports
are identical for any worker count.

Also here: the (u, v)-derivative of an admissible tuple and the exact
reduction identity relating h(a) to h of its derivative across a run
of gap-2 entries, used as a test oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .energy import emax_closed, energy_general, energy_prime_power, h_value
from .model import (
    PrimePowerOrder,
    ResourceLimitError,
    admissible_context,
    divisor_set_of,
)
from .numtheory import check_int, divisors, is_prime

PRIME_POWER_EXPONENT_CAP = 20  # 2^s subsets enumerated
ENUMERATION_N_CAP = 10**4
GENERAL_SUBSET_CAP = 2**20


@dataclass(frozen=True)
class MaximizerReport:
    """Result of an exhaustive max-energy sweep over divisor sets of n."""

    n: int
    emax: int
    maximizers: tuple[tuple[int, ...], ...]
    examined: int

    def __post_init__(self) -> None:
        if not self.maximizers:
            raise ValueError("a maximizer report needs at least one maximizer")


def _mask_range_chunks(total: int, jobs: int) -> list[tuple[int, int]]:
    """Split mask range [1, total) into at most `jobs` contiguous chunks.

    Never more chunks than CPUs: each chunk becomes one worker process.
    """
    jobs = max(1, min(jobs, total - 1, os.cpu_count() or 1))
    bounds = [1 + (total - 1) * i // jobs for i in range(jobs + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(jobs) if bounds[i] < bounds[i + 1]]


def _best_subsets(score: Callable[[tuple], int], items: tuple, lo: int, hi: int):
    """Best score over the subsets of `items` with masks in [lo, hi), and its ties."""
    best = -1
    ties: list[tuple] = []
    for mask in range(lo, hi):
        subset = tuple(x for i, x in enumerate(items) if mask >> i & 1)
        value = score(subset)
        if value > best:
            best = value
            ties = [subset]
        elif value == best:
            ties.append(subset)
    return best, ties, hi - lo


def _run_chunks(score: Callable[[tuple], int], items: tuple, jobs: int):
    chunks = _mask_range_chunks(2 ** len(items), jobs)
    if len(chunks) == 1:
        results = [_best_subsets(score, items, *chunks[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(_best_subsets, score, items, lo, hi) for lo, hi in chunks]
            results = [f.result() for f in futures]
    best = max(r[0] for r in results)
    maximizers = sorted({m for r in results if r[0] == best for m in r[1]})
    examined = sum(r[2] for r in results)
    return best, maximizers, examined


def brute_force_emax_prime_power(order: PrimePowerOrder, jobs: int = 1) -> MaximizerReport:
    """Maximal energy over all 2^s - 1 nonempty divisor sets of p^s, by enumeration.

    Returns the exact maximum and every attaining set. Enforced cap
    s <= 20; runtime grows as 2^s * s^2.
    """
    if order.s > PRIME_POWER_EXPONENT_CAP:
        raise ResourceLimitError(
            f"s = {order.s} exceeds the enumeration cap {PRIME_POWER_EXPONENT_CAP}"
        )
    best, maximizers, examined = _run_chunks(
        partial(energy_prime_power, order), tuple(range(order.s)), jobs
    )
    # x -> p^x is increasing, so sorted exponent tuples give sorted divisor sets.
    divisor_sets = tuple(divisor_set_of(a, order) for a in maximizers)
    return MaximizerReport(n=order.n, emax=best, maximizers=divisor_sets, examined=examined)


def brute_force_emax_general(n: int, jobs: int = 1) -> MaximizerReport:
    """Maximal energy over all nonempty sets of proper divisors of n, by enumeration.

    Caps: n <= 10^4 and at most 2^20 subsets.
    """
    check_int(n, "n", 2)
    if n > ENUMERATION_N_CAP:
        raise ResourceLimitError(f"n = {n} exceeds the enumeration cap {ENUMERATION_N_CAP}")
    proper = tuple(d for d in divisors(n) if d != n)
    if 2 ** len(proper) - 1 > GENERAL_SUBSET_CAP:
        raise ResourceLimitError(
            f"n = {n} has {len(proper)} proper divisors, "
            f"2^{len(proper)} - 1 subsets exceed the cap {GENERAL_SUBSET_CAP}"
        )
    best, maximizers, examined = _run_chunks(partial(energy_general, n), proper, jobs)
    return MaximizerReport(n=n, emax=best, maximizers=tuple(maximizers), examined=examined)


def verify_theorem(order: PrimePowerOrder, jobs: int = 1) -> tuple[bool, list[str]]:
    """Cross-check the closed-form maximal energy against brute force.

    True iff the enumerated maximum equals emax_closed AND the enumerated
    maximizer sets are exactly the divisor sets of the closed form's
    tuples. Discrepancies are returned as messages, never raised.
    """
    value, tuples = emax_closed(order)
    expected = sorted(divisor_set_of(t, order) for t in tuples)
    report = brute_force_emax_prime_power(order, jobs=jobs)
    problems: list[str] = []
    if report.emax != value:
        problems.append(
            f"{order}: closed form gives {value}, enumeration gives {report.emax}"
        )
    if sorted(report.maximizers) != expected:
        problems.append(
            f"{order}: closed-form maximizers {expected} != enumerated "
            f"{sorted(report.maximizers)}"
        )
    return not problems, problems


def derivative(a: Sequence[int], u: int, v: int) -> tuple[int, ...]:
    """(u, v)-derivative of an admissible tuple: drop one entry, shift the window.

    a'_j = a_j for j <= u, a_j + 1 for u+1 <= j <= v-1, a_{j+1} for j >= v.
    Needs r >= 3 and 1 <= u < v <= r-1; the result is again admissible.
    """
    _, r = admissible_context(a)
    if r < 3:
        raise ValueError(f"derivative needs r >= 3, got {tuple(a)}")
    check_int(u, "u")
    check_int(v, "v")
    if not 1 <= u < v <= r - 1:
        raise ValueError(f"need 1 <= u < v <= r-1 = {r - 1}, got u={u!r}, v={v!r}")
    a = tuple(a)
    out = a[:u] + tuple(a[j] + 1 for j in range(u, v - 1)) + a[v:]
    admissible_context(out)
    return out


def tableau_reduction_check(p: int, a: Sequence[int], u: int, v: int) -> bool:
    """Exact identity for h(a) - h(derivative(a, u, v)) across a gap-2 run.

    Requires a_{j+1} - a_j = 2 for u+1 <= j <= v-1. The difference is
    computed directly from h_value and independently as

        (p + p^-2(v-u-1))/(p+1) * (U p^-a_{u+1} + p^a_v V)
          + (1 - p^-2(v-u-1))/(p^2-1),

    U = sum_{k<=u} p^a_k, V = sum_{i>v} p^-a_i. Returns their equality.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    _, r = admissible_context(a)
    a = tuple(a)
    da = derivative(a, u, v)  # also validates r and (u, v)
    for j in range(u + 1, v):
        if a[j] - a[j - 1] != 2:
            raise ValueError(
                f"need gap 2 between entries {j} and {j + 1} of {a}, "
                f"got {a[j] - a[j - 1]}"
            )
    lhs = h_value(p, a) - h_value(p, da)
    big_u = sum(p ** a[k] for k in range(u))
    big_v = sum(Fraction(1, p ** a[i]) for i in range(v, r))
    width = Fraction(1, p ** (2 * (v - u - 1)))
    rhs = Fraction(1, p + 1) * (p + width) * (
        Fraction(big_u, p ** a[u]) + p ** a[v - 1] * big_v
    ) + Fraction(1, p * p - 1) * (1 - width)
    return lhs == rhs
