"""Exhaustive divisor-set search and the closed-form verifier.

Brute-force enumeration over all nonempty divisor sets is the
independent verifier for the closed-form maximal energies: it never
touches the closed forms, only the energy formulas. One bitmask
enumerator scores every subset of a tuple of items by either route:
exponents 0..s-1 by the prime-power pair-sum formula, proper divisors
of n by the spectral route (Ramanujan-sum class eigenvalues). It splits
each mask into a high and a low half and tabulates the states of all
half subsets once, so a subset costs O(1) big-int operations on the
prime-power route and O(tau(n)) on the spectral one, with O(2^(len/2))
memory; the items are validated once, not per subset. The masks are
split across worker processes only when the work (subsets times the
per-subset state width: 1 on the prime-power route, tau(n) on the
spectral one) reaches POOL_MIN_WORK, since below it starting a pool
costs more than it saves; `jobs` is an upper bound. The pool is imported
only when more than one worker runs, and the merge is deterministic
(ties collected, then sorted), so reports are identical for any worker
count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from operator import add, mul
from typing import Callable

from .energy import _eigenvalue_classes, _gcd_class_counts, emax_closed
from .model import PrimePowerOrder, check_divisor_set, check_exponent_tuple, divisor_set_of
from .numtheory import ResourceLimitError, check_int, divisors

PRIME_POWER_EXPONENT_CAP = 20  # 2^s subsets enumerated
ENUMERATION_N_CAP = 10**4
GENERAL_SUBSET_CAP = 2**20
# Work (subsets x per-subset state width) from which a second worker pays
# for its pool start, about 8 ms on 2 cores: at 2^17 units (17-22 ms in
# one process) one process and a pool of two take about the same time.
POOL_MIN_WORK = 2**17


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


def _mask_range_chunks(total: int, jobs: int, width: int) -> list[tuple[int, int]]:
    """Split mask range [1, total) into at most `jobs` contiguous chunks.

    Each chunk becomes one worker process, so never more chunks than
    CPUs, and only one while the work, (total - 1) subsets of `width`
    units each, is below POOL_MIN_WORK.
    """
    if (total - 1) * width < POOL_MIN_WORK:
        jobs = 1
    jobs = max(1, min(jobs, total - 1, os.cpu_count() or 1))
    bounds = [1 + (total - 1) * i // jobs for i in range(jobs + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(jobs) if bounds[i] < bounds[i + 1]]


def _prime_power_halves(order: PrimePowerOrder, items: tuple, k: int):
    """Half tables for the pair-sum energy 2(p-1)(r p^(s-1) - (p-1) T).

    A state (E, P, Q) holds a subset's energy, sum p^x and sum p^(s-1-x).
    Adding an exponent y above all those of a subset adds p^(s-1-y) P to
    its T. Every low exponent is below every high one, so the pairs
    across the halves add Q_H P_L to T: E = E_H + E_L - 2(p-1)^2 Q_H P_L.
    """
    p, s = order.p, order.s
    check_exponent_tuple(items, s)
    c = 2 * (p - 1)
    gain = c * p ** (s - 1)

    def table(exponents):
        states = [(0, 0, 0)]
        for y in exponents:
            up, down = p**y, p ** (s - 1 - y)
            cross = c * (p - 1) * down
            states += [(e + gain - cross * ps, ps + up, qs + down) for e, ps, qs in states]
        return states

    def row(high, lows):
        e, _, qs = high
        qs *= c * (p - 1)
        return [e + f - qs * ps for f, ps, _ in lows]

    return table(items[:k]), table(items[k:]), row


def _general_halves(n: int, items: tuple, k: int):
    """Half tables for the spectral energy sum_g count_g |lambda_g|.

    lambda_g(S) = sum_{d in S} c_{n/d}(g) is linear in S and count_g >= 0,
    so a state is the vector of count_g lambda_g over the gcd classes of n
    and a subset's energy is sum_g |high_g + low_g|.
    """
    check_divisor_set(n, items)
    counts = _gcd_class_counts(n)
    units = [tuple(map(mul, counts, _eigenvalue_classes(n, d))) for d in items]

    def table(vectors):
        states = [(0,) * len(counts)]
        for u in vectors:
            states += [tuple(map(add, v, u)) for v in states]
        return states

    def row(high, lows):
        return [sum(map(abs, map(add, high, v))) for v in lows]

    return table(units[:k]), table(units[k:]), row


def _best_subsets(halves: Callable, items: tuple, lo: int, hi: int):
    """Best energy over the subsets of `items` with masks in [lo, hi), and its ties.

    A mask is h << k | l with k = len(items) // 2. halves(items, k)
    validates the items once and returns the states of the 2^k low and
    2^(len-k) high subsets and row(high[h], lows), which scores one high
    subset joined with each of a run of low ones. Needs 1 <= lo < hi.
    """
    k = len(items) // 2
    low, high, row = halves(items, k)
    best, ties = -1, []
    for h in range(lo >> k, ((hi - 1) >> k) + 1):
        base = h << k
        l0, l1 = max(lo - base, 0), min(hi - base, 1 << k)
        values = row(high[h], low[l0:l1])
        top = max(values)
        if top > best:
            best, ties = top, []
        if top == best:
            ties += [base + l0 + i for i, v in enumerate(values) if v == top]
    subsets = [tuple(x for i, x in enumerate(items) if mask >> i & 1) for mask in ties]
    return best, subsets, hi - lo


def _run_chunks(halves: Callable, items: tuple, jobs: int, width: int):
    chunks = _mask_range_chunks(2 ** len(items), jobs, width)
    if len(chunks) == 1:
        results = [_best_subsets(halves, items, *chunks[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(_best_subsets, halves, items, lo, hi) for lo, hi in chunks]
            results = [f.result() for f in futures]
    best = max(r[0] for r in results)
    maximizers = sorted({m for r in results if r[0] == best for m in r[1]})
    examined = sum(r[2] for r in results)
    return best, maximizers, examined


def brute_force_emax_prime_power(order: PrimePowerOrder, jobs: int = 1) -> MaximizerReport:
    """Maximal energy over all 2^s - 1 nonempty divisor sets of p^s, by enumeration.

    Returns the exact maximum and every attaining set. Enforced cap
    s <= 20; runtime grows as 2^s and memory as 2^(s/2). Up to `jobs`
    (an int >= 1) worker processes run only when 2^s - 1 >=
    POOL_MIN_WORK, that is from s = 18.
    """
    check_int(jobs, "jobs", 1)
    if order.s > PRIME_POWER_EXPONENT_CAP:
        raise ResourceLimitError(
            f"s = {order.s} exceeds the enumeration cap {PRIME_POWER_EXPONENT_CAP}"
        )
    best, maximizers, examined = _run_chunks(
        partial(_prime_power_halves, order), tuple(range(order.s)), jobs, 1
    )
    # x -> p^x is increasing, so sorted exponent tuples give sorted divisor sets.
    divisor_sets = tuple(divisor_set_of(a, order) for a in maximizers)
    return MaximizerReport(n=order.n, emax=best, maximizers=divisor_sets, examined=examined)


def brute_force_emax_general(n: int, jobs: int = 1) -> MaximizerReport:
    """Maximal energy over all nonempty sets of proper divisors of n, by enumeration.

    Caps: n <= 10^4 and at most 2^20 subsets. A subset costs one sum
    over the tau(n) gcd classes, so up to `jobs` (an int >= 1) worker
    processes run only when (2^(tau(n)-1) - 1) tau(n) >= POOL_MIN_WORK,
    that is from tau(n) = 15.
    """
    check_int(n, "n", 2)
    check_int(jobs, "jobs", 1)
    if n > ENUMERATION_N_CAP:
        raise ResourceLimitError(f"n = {n} exceeds the enumeration cap {ENUMERATION_N_CAP}")
    proper = tuple(d for d in divisors(n) if d != n)
    if 2 ** len(proper) - 1 > GENERAL_SUBSET_CAP:
        raise ResourceLimitError(
            f"n = {n} has {len(proper)} proper divisors, "
            f"2^{len(proper)} - 1 subsets exceed the cap {GENERAL_SUBSET_CAP}"
        )
    best, maximizers, examined = _run_chunks(
        partial(_general_halves, n), proper, jobs, len(proper) + 1
    )
    return MaximizerReport(n=n, emax=best, maximizers=tuple(maximizers), examined=examined)


def verify_theorem(order: PrimePowerOrder, jobs: int = 1) -> tuple[bool, list[str]]:
    """Cross-check the closed-form maximal energy against brute force.

    True iff the enumerated maximum equals emax_closed AND the enumerated
    maximizer sets are exactly the divisor sets of the closed form's
    tuples. Discrepancies are returned as messages, never raised. `jobs`
    goes to brute_force_emax_prime_power, which starts a pool only from
    s = 18.
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
