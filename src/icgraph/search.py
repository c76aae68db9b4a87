"""Exhaustive divisor-set search and the closed-form verifier.

Brute-force search over all nonempty divisor sets is the independent
verifier for the closed-form maximal energies: it never touches the
closed forms, only the energy formulas, and it finds the maximum and
every set attaining it.

On the prime-power route a subset a of the exponents is a point (P, G),
P = sum p^x and G = p^(smax-1) (r - (p-1) h(a)), free of s. Adding an
exponent is one affine shear, which keeps a point below the upper
convex hull (monotone chain, Andrew 1979), so each step keeps the hull,
less the points no later exponent can make best: at most 6 points enter
a step. After exponent s - 1 the points of largest G are the maximizers
of p^s, of energy 2(p-1) G / p^(smax-s), exact as p^(smax-s) divides G,
so one walk of smax steps serves every s <= smax.

On the spectral route a mask over the m proper divisors of n is written
h << k | l, k = min(m, max(m // 2, 11)), and a row (high subset h with
every low one) scores all 2^k low subsets at once: each gcd class is one
int of 16- or 32-bit fields, one per low subset, the narrower one the
energy bound allows, so a row costs O(tau(n)) big-int operations, and
rows this wide (one up to m = 11) leave the interpreter little overhead.
The row's maximum is read by k halving folds, each keeping the larger
half of every field in a few big-int operations, and its ties by
bytes.find for the maximum's little-endian bytes at field-aligned
offsets of the row's bytes: no Python loop runs over the subsets, and
the result does not depend on the host's byte order. The items are
validated once, and memory is O(tau(n) 2^k). Both searches run in this
process, whatever `jobs` says, and the ties are sorted, so reports are
the same for any job count. A MaximizerReport is a named tuple, like
model.PrimePowerOrder, and every construction checks it.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, mul, sub
from typing import Iterable, NamedTuple

from .energy import _check_scan_cap, _class_columns, emax_closed
from .model import PrimePowerOrder, divisor_set_of
from .numtheory import ResourceLimitError, _shown, check_int, divisors

GENERAL_SUBSET_CAP = 2**20


class MaximizerReport(NamedTuple("MaximizerReport", [
    ("n", int), ("emax", int), ("maximizers", tuple[tuple[int, ...], ...]), ("examined", int),
])):
    """Result of an exhaustive max-energy sweep over divisor sets of n.

    An immutable (n, emax, maximizers, examined) tuple; every public way
    to build one checks that there is a maximizer.
    """

    __slots__ = ()

    def __new__(cls, n, emax, maximizers, examined):
        if not maximizers:
            raise ValueError("a maximizer report needs at least one maximizer")
        return super().__new__(cls, n, emax, maximizers, examined)

    @classmethod
    def _make(cls, iterable: Iterable) -> MaximizerReport:
        # namedtuple's _make (and _replace, which calls it) skip __new__.
        return cls(*iterable)


def _upper_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The upper convex hull of points with strictly increasing x, as a chain of points.

    Andrew's monotone chain, in exact integer arithmetic. A point is
    dropped only when it lies strictly below the chord of its neighbours,
    so collinear points and both end points stay, and the slopes of the
    successive hull edges never increase.
    """
    hull: list[tuple[int, int]] = []
    for point in points:
        x, y = point
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (bx - ax) * (y - ay) <= (by - ay) * (x - ax):
                break
            hull.pop()
        hull.append(point)
    return hull


def _prime_power_hulls(p: int, smax: int):
    """The best states (P, G) of the subsets of 0..y, after each exponent y < smax.

    P = sum_{x in a} p^x, so a is the set of nonzero base-p digits of P,
    and G = p^(smax-1) (r - (p-1) h(a)), r = |a|, h(a) = sum_{x<z in a} p^(x-z).
    As a divisor set of p^s, a has energy 2(p-1) G / p^(smax-s), exact
    since every term of G = r p^(smax-1) - (p-1) sum_{x<z} p^(smax-1-(z-x))
    is a multiple of p^(smax-s) when a lies in 0..s-1. Adding an exponent
    y above all of a is the affine shear, free of s,
    (P, G) -> (P + p^y, G + p^(smax-1) - (p-1) p^(smax-1-y) P). As the
    exponents come in increasing order, the sheared copies (P >= p^y)
    follow the old points, sorted by P. A shear keeps a point strictly
    below a chord, and so below one of its ends, whatever shears follow:
    only the upper hull of the old hull and its copy is kept (collinear
    points too, so ties stay). The exponents Z still to come map every
    state by G -> G - b P + K, b = (p-1) sum_{z in Z} p^(smax-1-z) in
    [0, B], B = p^(smax-1-y) - 1, whichever s <= smax they lead to;
    reading off s = y + 1 is b = 0. Hull point i is best for b exactly
    when slope(i, i+1) <= b <= slope(i-1, i), so a point with
    slope(i-1, i) < 0 or slope(i, i+1) > B is strictly beaten by a
    neighbour whatever Z is, and is dropped (the end points pass on
    their missing side). The hull yielded after y thus holds the maximum
    of p^(y+1) and its ties as its points of largest G; at y = smax - 1,
    B = 0 and every point attains it. At most 3 points survive a step
    (checked for 11 primes up to 2^61 - 1 and s <= 500).
    """
    top, low, up, hull = p ** (smax - 1), p**smax, 1, [(0, 0)]
    for _ in range(smax):
        low //= p
        cross, bound = (p - 1) * low, low - 1
        chain = _upper_hull(hull + [(P + up, g + top - cross * P) for P, g in hull])
        # Slopes fall along the chain: the points kept run from the first whose
        # right edge rises at most bound to the last whose left edge does not fall.
        i, j = 0, len(chain) - 1
        while i < j and chain[i + 1][1] - chain[i][1] > bound * (chain[i + 1][0] - chain[i][0]):
            i += 1
        while j > i and chain[j][1] < chain[j - 1][1]:
            j -= 1
        hull = chain[i : j + 1]
        up *= p
        yield hull


def _divisor_sets(p: int, s: int, keys) -> tuple[tuple[int, ...], ...]:
    """The divisor sets of p^s that sum to the P in keys, sorted.

    A set's exponents are the nonzero base-p digits of its sum P.
    """
    return tuple(sorted(tuple(p**x for x in range(s) if P // p**x % p) for P in keys))


def _hull_maximum(p: int, s: int, smax: int, hull: list[tuple[int, int]]):
    """The maximal energy of p^s and the sum P = sum p^x of each maximizer's set.

    Both are read off the hull _prime_power_hulls(p, smax) yields after exponent s - 1.
    """
    best = max(g for _, g in hull)
    return 2 * (p - 1) * best // p ** (smax - s), [P for P, g in hull if g == best]


def _report(order: PrimePowerOrder, smax: int, hull: list[tuple[int, int]]) -> MaximizerReport:
    """The report of p^s from the hull _prime_power_hulls(p, smax) yields after exponent s - 1."""
    p, s = order.p, order.s
    emax, keys = _hull_maximum(p, s, smax, hull)
    maximizers = _divisor_sets(p, s, keys)
    return MaximizerReport(n=order.n, emax=emax, maximizers=maximizers, examined=2**s - 1)


def _general_halves(n: int, items: tuple, k: int):
    """Rows of the spectral energy sum_g count_g |lambda_g|, all lows at once.

    lambda_g(S) = sum_{d in S} c_{n/d}(g) is linear in S and count_g >= 0,
    so a state is the vector of x_g = count_g lambda_g over the gcd classes
    of n (the sum of the _class_columns of S), and a subset's energy is
    sum_g |x_g| with x_g = H_g + L_g, its high and low halves. Column g of
    the low table is packed into one int of 2^k w-bit fields,
    P_g = sum_l (L_g(l) + 2^(w-1)) << w l. A row adds H_g to every field
    at once, Z = P_g + H_g ONES; the fields with bit w-1 clear hold the
    negative x_g, and masking them gives max(0, -x_g) per field with no
    carry across fields. As |x| = x + 2 max(0, -x), the row's energies
    are sum_g H_g + lin + 2 neg, with lin = sum_g L_g packed once. Every
    |x_g| and every energy stays at most
    the bound tau(n) * max_g sum_{d in items} |count_g c_{n/d}(g)|,
    so the fields are exact while it is below 2^(w-1): w is 16 if that
    allows, else 32, and a bound of 2^31 or more raises. That
    cannot happen under the caps: |count_g c_{n/d}(g)| <= phi(n/g)
    gcd(n/d, g) <= n, and at most 2^20 subsets leave tau(n) <= 21, so the
    bound is at most tau(n)(tau(n) - 1) n <= 21 * 20 * 10^6 < 2^31. At
    n = 817216 = 2^6 113^2 (tau = 21) it is 34016976 (26 bits).

    Bit w-1 of every energy field is thus clear, a free guard. A fold
    splits the fields into a high half a and a low half b, and
    ((a | guard) - b) & guard sets the guard bit exactly in the fields
    where a >= b, with no borrow across fields; spread over the bits
    below it, it selects the larger of a and b per field. k folds leave
    the row's maximum, and _ties finds the fields equal to it.
    """
    units = _class_columns(n, items)
    bound = len(units[0]) * max(sum(map(abs, column)) for column in zip(*units))
    if bound >= 2**31:
        raise RuntimeError(f"energies of n = {n} reach {bound}, beyond a 31-bit field")
    width = 16 if bound < 2**15 else 32

    high = [(0,) * len(units[0])]
    for u in units[k:]:
        high += [tuple(map(add, v, u)) for v in high]
    bias, ones, folds = 2 ** (width - 1), 1, []
    columns = [bias] * len(units[0])
    for i, u in enumerate(units[:k]):
        columns = [c | (c + x * ones) << (width << i) for c, x in zip(columns, u)]
        folds.append((width << i, (1 << (width << i)) - 1, bias * ones))
        ones |= ones << (width << i)
    top = bias * ones
    lin = sum(columns) - len(columns) * top

    def row(h):
        neg = 0
        for c, x in zip(columns, high[h]):
            z = c + x * ones
            negative = (z & top) ^ top  # 2^(w-1) in each negative field
            marks = negative >> (width - 1)
            neg += negative - (z & ((marks << width) - marks))
        packed = best = lin + sum(high[h]) * ones + (neg << 1)
        for shift, low, guard in reversed(folds):
            a, b = best >> shift, best & low
            ge = ((a | guard) - b) & guard  # 2^(w-1) in each field where a >= b
            best = b ^ (a ^ b) & (ge - (ge >> (width - 1)))
        return best, _ties(packed, best, width // 8, 1 << k)

    return row


def _ties(packed: int, best: int, size: int, count: int):
    """The indices of the `count` `size`-byte fields of packed equal to best, ascending.

    The fields are read little-endian, field l at bytes size*l onwards,
    so the indices do not depend on sys.byteorder. Each hit is one
    C-level bytes.find; a hit off a field boundary straddles two fields
    and is skipped to the next boundary. Nothing is converted until the
    first index is asked for.
    """
    data, field = packed.to_bytes(size * count, "little"), best.to_bytes(size, "little")
    i = data.find(field)
    while i >= 0:
        if i % size == 0:
            yield i // size
        i = data.find(field, i + size - i % size)


def _best_subsets(n: int, items: tuple):
    """Best energy over the nonempty sets of divisors `items` of n, and all sets attaining it.

    A mask is h << k | l, k = min(len(items), max(len(items) // 2, 11)).
    _general_halves(n, items, k) validates the items once; row(h) gives the
    best energy of high subset h with any low subset, and every l attaining
    it. This merges the 2^(len(items) - k) rows. The best starts at 0, the
    energy of mask 0, the empty set; every nonempty set has positive
    energy, so mask 0 never stays among the ties. Ties come back sorted.
    """
    k = min(len(items), max(len(items) // 2, 11))
    row = _general_halves(n, items, k)
    best, ties = 0, []
    for h in range(1 << (len(items) - k)):
        top, lows = row(h)
        if top > best:
            best, ties = top, []
        if top == best:
            ties += [h << k | l for l in lows]
    return best, sorted(tuple(x for i, x in enumerate(items) if mask >> i & 1) for mask in ties)


def brute_force_emax_prime_power(order: PrimePowerOrder, jobs: int = 1) -> MaximizerReport:
    """Maximal energy over all 2^s - 1 nonempty divisor sets of p^s, exhaustively.

    Returns the exact maximum and every attaining set. No set is scored
    on its own: the sets are covered through the upper hull of their
    (sum p^x, energy) points, one exponent at a time, keeping only the
    points a later exponent can still make best: O(s) hull steps on at
    most 6 points; `examined` counts the nonempty divisor sets covered,
    2^s - 1. Any s is accepted: 2^20 takes about 0.07 ms and 2^1000 about
    15 ms. It runs in this process; `jobs` (an int >= 1) is accepted for
    compatibility.
    """
    check_int(jobs, "jobs", 1)
    for hull in _prime_power_hulls(order.p, order.s):
        pass
    return _report(order, order.s, hull)


def brute_force_emax_general(n: int, jobs: int = 1) -> MaximizerReport:
    """Maximal energy over all nonempty sets of proper divisors of n, by enumeration.

    Returns the exact maximum and every attaining set, sorted; `examined`
    counts the 2^(tau(n)-1) - 1 sets covered. Caps: n <= 10^6 (checked
    before n is factored) and 2^20 subsets. Each row (a high half of the
    divisors with all 2^k low halves, k as in _best_subsets) costs
    O(tau(n)) operations on ints of 2^k 16- or 32-bit fields, and its
    maximum and ties are read with k halving folds and an aligned byte
    search, not field by field: the search takes 2^(tau(n)-1-k) rows, one
    up to tau(n) = 12, and memory O(tau(n) 2^k). It runs in this process;
    `jobs` (an int >= 1) is accepted for compatibility.
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
    best, maximizers = _best_subsets(n, proper)
    return MaximizerReport(
        n=n, emax=best, maximizers=tuple(maximizers), examined=2 ** len(proper) - 1
    )


def verify_theorem(order: PrimePowerOrder, jobs: int = 1) -> tuple[bool, list[str]]:
    """Cross-check the closed-form maximal energy against brute force.

    True iff the enumerated maximum equals emax_closed AND the enumerated
    maximizer sets are exactly the divisor sets of the closed form's
    tuples, compared as ints by _discrepancies. Discrepancies are returned
    as messages, never raised. The search covers all 2^s - 1 divisor sets
    through the upper hull of their (sum p^x, energy) points, in this
    process; `jobs` (an int >= 1) goes to brute_force_emax_prime_power.
    """
    report = brute_force_emax_prime_power(order, jobs=jobs)
    keys = map(sum, report.maximizers)
    problems = _discrepancies(order, emax_closed(order), report.emax, keys)
    return not problems, problems


def _discrepancies(order: PrimePowerOrder, closed, emax: int, keys) -> list[str]:
    """How a search differs from closed = emax_closed(order), as messages; [] when it agrees.

    The one comparison of a search with the closed form, on ints: the
    search's emax, and its maximizers as keys, the sums P = sum p^x that
    name divisor sets of p^s one to one, against the closed form's
    increasing tuples a mapped to sum_{x in a} p^x, each power the last
    times p^gap. Divisor sets are built only for a message.
    """
    p, s = order.p, order.s
    value, tuples = closed
    keys = sorted(keys)
    expected = sorted(
        sum(accumulate(map(p.__pow__, map(sub, t[1:], t)), mul, initial=p ** t[0]))
        for t in tuples
    )
    problems: list[str] = []
    if emax != value:
        problems.append(
            f"{order}: closed form gives {_shown(value)}, enumeration gives {_shown(emax)}"
        )
    if keys != expected:
        problems.append(
            f"{order}: closed-form maximizers "
            f"{_shown(tuple(sorted(divisor_set_of(t, order) for t in tuples)))} != enumerated "
            f"{_shown(_divisor_sets(p, s, keys))}"
        )
    return problems
