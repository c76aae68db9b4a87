"""Exhaustive divisor-set search and the closed-form verifier.

Brute-force enumeration over all nonempty divisor sets is the
independent verifier for the closed-form maximal energies: it never
touches the closed forms, only the energy formulas. One bitmask search
covers every subset of a tuple of items by either route: exponents
0..s-1 by the prime-power pair-sum formula, proper divisors of n by the
spectral route (the energy module's gcd-class columns). It writes each mask as
h << k | l, tabulates the states of all half subsets once, and merges
the best of each row: one high subset h joined with every low one.
The items are validated once, not per subset, and memory is
O(2^(len/2)).

On the prime-power route a subset's energy is affine in its low state
once h is fixed, so a row is maximised by a binary search on the upper
convex hull of the low states (meet in the middle, Horowitz & Sahni
1974; monotone-chain hull, Andrew 1979): about 2^(s/2) s steps in all.
On the spectral route a row scores all 2^k low subsets at once: each
gcd class is one int of 32-bit fields, one field per low subset, so a
row costs O(tau(n)) big-int operations rather than O(tau(n)) per
subset. Both searches run in this process, whatever `jobs` says, and
the ties are sorted, so reports are the same for any job count.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from operator import add
from typing import Callable

from .energy import _check_scan_cap, _class_columns, emax_closed
from .model import PrimePowerOrder, check_exponent_tuple, divisor_set_of
from .numtheory import ResourceLimitError, check_int, divisors

PRIME_POWER_EXPONENT_CAP = 20  # 2^s - 1 divisor sets covered
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

    def row(h):
        e, _, qs = high[h]
        m = c * (p - 1) * qs
        first = last = bisect_left(range(len(dx)), True, key=lambda j: dy[j] <= m * dx[j])
        while last < len(dx) and dy[last] == m * dx[last]:
            last += 1
        f, ps, _ = low[hull[first]]
        return e + f - m * ps, hull[first : last + 1]

    return row


def _general_halves(n: int, items: tuple, k: int):
    """Rows of the spectral energy sum_g count_g |lambda_g|, all lows at once.

    lambda_g(S) = sum_{d in S} c_{n/d}(g) is linear in S and count_g >= 0,
    so a state is the vector of x_g = count_g lambda_g over the gcd classes
    of n (the sum of the _class_columns of S), and a subset's energy is
    sum_g |x_g| with x_g = H_g + L_g, its high and low halves. Column g of
    the low table is packed into one int, P_g = sum_l (L_g(l) + 2^31) << 32 l.
    A row adds H_g to every field at once, Z = P_g + H_g ONES; the fields
    with bit 31 clear hold the negative x_g, and masking them gives
    max(0, -x_g) per field with no carry across fields. As
    |x| = x + 2 max(0, -x), the row's energies are sum_g H_g + lin + 2 neg,
    with lin = sum_g L_g packed once, and they are read back as 32-bit
    words. Every |x_g| and every energy stays below the bound
    tau(n) * max_g sum_{d in items} |count_g c_{n/d}(g)|, so the fields are
    exact while it is below 2^31, checked once. The check cannot fire
    under the caps: |count_g c_{n/d}(g)| <= phi(n/g) gcd(n/d, g) <= n, and
    at most 2^20 subsets leave tau(n) <= 21, so the bound is at most
    tau(n)(tau(n) - 1) n <= 21 * 20 * 10^6 < 2^31. At
    n = 817216 = 2^6 113^2 (tau = 21) it is 34016976 (26 bits).
    """
    units = _class_columns(n, items)
    bound = len(units[0]) * max(sum(map(abs, column)) for column in zip(*units))
    if bound >= 2**31:
        raise RuntimeError(f"energies of n = {n} reach {bound}, beyond a 31-bit field")

    high = [(0,) * len(units[0])]
    for u in units[k:]:
        high += [tuple(map(add, v, u)) for v in high]
    bias, ones = 2**31, 1
    columns = [bias] * len(units[0])
    for i, u in enumerate(units[:k]):
        columns = [c | (c + x * ones) << (32 << i) for c, x in zip(columns, u)]
        ones |= ones << (32 << i)
    top = bias * ones
    lin = sum(columns) - len(columns) * top

    def row(h):
        neg = 0
        for c, x in zip(columns, high[h]):
            z = c + x * ones
            negative = (z & top) ^ top  # 2^31 in each negative field
            marks = negative >> 31
            neg += negative - (z & ((marks << 32) - marks))
        packed = lin + sum(high[h]) * ones + (neg << 1)
        values = memoryview(packed.to_bytes(4 << k, sys.byteorder)).cast("I")
        best = max(values)
        return best, (l for l, v in enumerate(values) if v == best)

    return row


def _best_subsets(halves: Callable, items: tuple):
    """Best energy over the nonempty subsets of `items`, and every subset attaining it.

    A mask is h << k | l with k = len(items) // 2. halves(items, k)
    validates the items once and returns row(h): the best energy of high
    subset h joined with any low subset, and every l that attains it.
    This only merges rows. The best starts at 0, the energy of mask 0,
    the empty set; every nonempty set has positive energy, so mask 0
    never stays among the ties. Ties come back sorted.
    """
    k = len(items) // 2
    row = halves(items, k)
    best, ties = 0, []
    for h in range(1 << (len(items) - k)):
        top, lows = row(h)
        if top > best:
            best, ties = top, []
        if top == best:
            ties += [h << k | l for l in lows]
    return best, sorted(tuple(x for i, x in enumerate(items) if mask >> i & 1) for mask in ties)


def brute_force_emax_prime_power(order: PrimePowerOrder, jobs: int = 1) -> MaximizerReport:
    """Maximal energy over all 2^s - 1 nonempty divisor sets of p^s, by enumeration.

    Returns the exact maximum and every attaining set. Each row (one
    high half of the exponents with all low halves) is covered through
    the upper hull of the low states rather than scored set by set, so
    runtime grows about as 2^(s/2) s and memory as 2^(s/2); `examined`
    counts the nonempty divisor sets covered, 2^s - 1. Enforced cap
    s <= 20, where the search takes milliseconds. It runs in this
    process; `jobs` (an int >= 1) is accepted for compatibility.
    """
    check_int(jobs, "jobs", 1)
    if order.s > PRIME_POWER_EXPONENT_CAP:
        raise ResourceLimitError(
            f"s = {order.s} exceeds the enumeration cap {PRIME_POWER_EXPONENT_CAP}"
        )
    best, maximizers = _best_subsets(partial(_prime_power_halves, order), tuple(range(order.s)))
    # x -> p^x is increasing, so sorted exponent tuples give sorted divisor sets.
    divisor_sets = tuple(divisor_set_of(a, order) for a in maximizers)
    return MaximizerReport(n=order.n, emax=best, maximizers=divisor_sets, examined=2**order.s - 1)


def brute_force_emax_general(n: int, jobs: int = 1) -> MaximizerReport:
    """Maximal energy over all nonempty sets of proper divisors of n, by enumeration.

    Returns the exact maximum and every attaining set, sorted; `examined`
    counts the 2^(tau(n)-1) - 1 sets covered. Caps: n <= 10^6 (checked
    before n is factored) and 2^20 subsets. Each row (one high half of the
    divisors with all 2^k low halves) costs O(tau(n)) operations on ints of
    2^k 32-bit fields, so the search takes O(2^(tau(n)/2) tau(n)) big-int
    steps and memory O(2^(tau(n)/2) tau(n)). It runs in this process; `jobs`
    (an int >= 1) is accepted for compatibility.
    """
    check_int(n, "n", 2)
    check_int(jobs, "jobs", 1)
    _check_scan_cap(n)
    proper = tuple(d for d in divisors(n) if d != n)
    if 2 ** len(proper) - 1 > GENERAL_SUBSET_CAP:
        raise ResourceLimitError(
            f"n = {n} has {len(proper)} proper divisors, "
            f"2^{len(proper)} - 1 subsets exceed the cap {GENERAL_SUBSET_CAP}"
        )
    best, maximizers = _best_subsets(partial(_general_halves, n), proper)
    return MaximizerReport(
        n=n, emax=best, maximizers=tuple(maximizers), examined=2 ** len(proper) - 1
    )


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
