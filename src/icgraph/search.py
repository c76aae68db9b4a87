"""Exhaustive divisor-set search and the closed-form verifier.

Brute-force enumeration over all nonempty divisor sets is the
independent verifier for the closed-form maximal energies: it never
touches the closed forms, only the energy formulas. One bitmask search
covers every subset of a tuple of items by either route: exponents
0..s-1 by the prime-power pair-sum formula, proper divisors of n by the
spectral route (Ramanujan-sum class eigenvalues). It writes each mask as
h << k | l, tabulates the states of all half subsets once, and merges
the best of each row: one high subset h joined with a run of low ones.
The items are validated once, not per subset, and memory is
O(2^(len/2)).

On the spectral route a row scores each of its subsets, O(tau(n))
big-int operations apiece. On the prime-power route a subset's energy is
affine in its low state once h is fixed, so a full row is maximised by a
binary search on the upper convex hull of the low states (meet in the
middle, Horowitz & Sahni 1974; monotone-chain hull, Andrew 1979); only
rows cut by the ends of the mask range are scored subset by subset. The
whole p^s search takes about 2^(s/2) s steps and runs in this process.
The spectral search splits its masks across worker processes only when
the work (subsets times tau(n), the per-subset state width) reaches
POOL_MIN_WORK, since below it starting a pool costs more than it saves;
`jobs` is an upper bound. The pool is imported only when more than one
worker runs, and the merge is deterministic (ties collected, then
sorted), so reports are identical for any worker count.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from operator import add, mul
from typing import Callable

from .energy import _eigenvalue_classes, _gcd_class_counts, emax_closed
from .model import PrimePowerOrder, check_divisor_set, check_exponent_tuple, divisor_set_of
from .numtheory import ResourceLimitError, _shown, check_int, divisors

PRIME_POWER_EXPONENT_CAP = 20  # 2^s - 1 divisor sets covered
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


def _scan(values: list[int], l0: int):
    """The largest of values and, lazily, every index l0 + i that attains it.

    The merge reads the indices only of a row that reaches the best so far.
    """
    top = max(values)
    return top, (l0 + i for i, v in enumerate(values) if v == top)


def _upper_hull(points: list[tuple[int, int]]) -> list[int]:
    """Indices of the upper convex hull of points with strictly increasing x.

    Andrew's monotone chain, in exact integer arithmetic. A point is
    dropped only when it lies strictly below the chord of its neighbours,
    so collinear points and both end points stay, and the slopes of the
    successive hull edges never increase.
    """
    hull: list[int] = []
    for i, (x, y) in enumerate(points):
        while len(hull) >= 2:
            (ax, ay), (bx, by) = points[hull[-2]], points[hull[-1]]
            if (bx - ax) * (y - ay) <= (by - ay) * (x - ax):
                break
            hull.pop()
        hull.append(i)
    return hull


def _prime_power_halves(order: PrimePowerOrder, items: tuple, k: int):
    """Rows of the pair-sum energy 2(p-1)(r p^(s-1) - (p-1) T).

    A state (E, P, Q) holds a subset's energy, sum p^x and sum p^(s-1-x).
    Adding an exponent y above all those of a subset adds p^(s-1-y) P to
    its T. Every low exponent is below every high one, so the pairs
    across the halves add Q_H P_L to T: E = E_H + E_L - m P_L with
    m = 2(p-1)^2 Q_H. With h fixed that is affine in the low point
    (P_L, E_L), so a row's best lows lie on the upper hull of those
    points. P_L has the low mask as its base-p digits, so the points
    come sorted by P_L. The best hull vertex is the first whose outgoing
    edge has slope <= m; the vertices after it along edges of slope
    exactly m tie with it, and no point below the hull does.
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

    low, high = table(items[:k]), table(items[k:])
    points = [(ps, e) for e, ps, _ in low]
    hull = _upper_hull(points)
    dx = [points[b][0] - points[a][0] for a, b in zip(hull, hull[1:])]
    dy = [points[b][1] - points[a][1] for a, b in zip(hull, hull[1:])]

    def row(h, l0, l1):
        e, _, qs = high[h]
        m = c * (p - 1) * qs
        if l1 - l0 < len(low):
            top, lows = _scan([f - m * ps for f, ps, _ in low[l0:l1]], l0)
            return e + top, lows
        first = last = bisect_left(range(len(dx)), True, key=lambda j: dy[j] <= m * dx[j])
        while last < len(dx) and dy[last] == m * dx[last]:
            last += 1
        f, ps, _ = low[hull[first]]
        return e + f - m * ps, hull[first : last + 1]

    return row


def _general_halves(n: int, items: tuple, k: int):
    """Rows of the spectral energy sum_g count_g |lambda_g|.

    lambda_g(S) = sum_{d in S} c_{n/d}(g) is linear in S and count_g >= 0,
    so a state is the vector of count_g lambda_g over the gcd classes of n
    and a subset's energy is sum_g |high_g + low_g|, scored one by one.
    """
    check_divisor_set(n, items)
    counts = _gcd_class_counts(n)
    units = [tuple(map(mul, counts, _eigenvalue_classes(n, d))) for d in items]

    def table(vectors):
        states = [(0,) * len(counts)]
        for u in vectors:
            states += [tuple(map(add, v, u)) for v in states]
        return states

    low, high = table(units[:k]), table(units[k:])

    def row(h, l0, l1):
        u = high[h]
        return _scan([sum(map(abs, map(add, u, v))) for v in low[l0:l1]], l0)

    return row


def _best_subsets(halves: Callable, items: tuple, lo: int, hi: int):
    """Best energy over the subsets of `items` with masks in [lo, hi), and its ties.

    A mask is h << k | l with k = len(items) // 2. halves(items, k)
    validates the items once and returns row(h, l0, l1): the best energy
    of high subset h joined with any low subset l0 <= l < l1, and every
    l that attains it. This only merges rows. Needs 1 <= lo < hi.
    """
    k = len(items) // 2
    row = halves(items, k)
    best, ties = -1, []
    for h in range(lo >> k, ((hi - 1) >> k) + 1):
        base = h << k
        top, lows = row(h, max(lo - base, 0), min(hi - base, 1 << k))
        if top > best:
            best, ties = top, []
        if top == best:
            ties += [base + l for l in lows]
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

    Returns the exact maximum and every attaining set. Each row (one
    high half of the exponents with all low halves) is covered through
    the upper hull of the low states rather than scored set by set, so
    runtime grows about as 2^(s/2) s and memory as 2^(s/2); `examined`
    counts the nonempty divisor sets covered, 2^s - 1. Enforced cap
    s <= 20, where the search takes milliseconds. It runs in this
    process: `jobs` (an int >= 1) is only an upper bound on workers.
    """
    check_int(jobs, "jobs", 1)
    if order.s > PRIME_POWER_EXPONENT_CAP:
        raise ResourceLimitError(
            f"s = {order.s} exceeds the enumeration cap {PRIME_POWER_EXPONENT_CAP}"
        )
    best, maximizers, examined = _run_chunks(
        partial(_prime_power_halves, order), tuple(range(order.s)), 1, 1
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
        raise ResourceLimitError(
            f"n = {_shown(n)} exceeds the enumeration cap {ENUMERATION_N_CAP}"
        )
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
    tuples. Discrepancies are returned as messages, never raised. The
    enumeration covers all 2^s - 1 divisor sets row by row, each row
    through the upper hull of its low halves, in this process; `jobs`
    (an int >= 1) goes to brute_force_emax_prime_power.
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
