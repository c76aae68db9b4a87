"""Paper identities kept as reference implementations for the tests.

Each function restates a result of the paper in a second form that the
energy kernels and the search never use: the maximal energy as a sum
that shows its 2(p-1) factor, the closed form of h at the gap-2 tuple,
and the (u, v)-derivative of an admissible tuple with the exact
reduction identity relating h(a) to h of its derivative across a run of
gap-2 entries. The tests check each against the computing API.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from icgraph.energy import h_value
from icgraph.model import PrimePowerOrder, admissible_context
from icgraph.numtheory import check_int, check_prime


def emax_alternative(order: PrimePowerOrder) -> int:
    """Maximal energy in the summation form that shows the 2(p-1) factor.

    s = 2m+1: 2(p-1)((m+1)p^(2m) - (p-1) sum_{j=0}^{m-1} (j+1)p^(2j)),
    s = 2m:   2(p-1)(m p^(2m-1) - (p-1) sum_{j=0}^{m-3} (j+1)p^(2j+3) + 1),
    with empty sums when the upper limit is negative. Equals emax_closed.
    """
    p, s = order.p, order.s
    if s % 2:
        m = (s - 1) // 2
        inner = (m + 1) * p ** (2 * m) - (p - 1) * sum(
            (j + 1) * p ** (2 * j) for j in range(m)
        )
    else:
        m = s // 2
        inner = (
            m * p ** (2 * m - 1)
            - (p - 1) * sum((j + 1) * p ** (2 * j + 3) for j in range(m - 2))
            + 1
        )
    return 2 * (p - 1) * inner


def h_equidistant(p: int, s: int) -> Fraction:
    """Closed form of h at the gap-2 tuple, s >= 2.

    Odd s uses (0,2,...,s-3,s-1):
        ((s-1)p^(s+1) - (s+1)p^(s-1) + 2) / (2(p^2-1)^2 p^(s-1)).
    Even s uses (0,2,...,s-2,s-1):
        ((s-2)p^s - s p^(s-2) + 2) / (2(p^2-1)^2 p^(s-2))
        + (p^s - 1) / ((p^2-1) p^(s-1)).
    Must (and does, see tests) agree with h_value on those tuples.
    """
    check_prime(p)
    check_int(s, "s", 2)
    sq = (p * p - 1) ** 2
    if s % 2:
        return Fraction((s - 1) * p ** (s + 1) - (s + 1) * p ** (s - 1) + 2, 2 * sq * p ** (s - 1))
    return Fraction((s - 2) * p**s - s * p ** (s - 2) + 2, 2 * sq * p ** (s - 2)) + Fraction(
        p**s - 1, (p * p - 1) * p ** (s - 1)
    )


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
    check_prime(p)
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
