"""Independent references that the benchmark checks icgraph's results against.

Nothing here imports icgraph. The prime-power references work from the
spectral definition of the energy (eigenvalues of ICG(p^s, D) class by
class), not from the pair-sum formula icgraph evaluates, and the maximal
delta vectors are written down from the paper's statement of the theorem.
The general-n reference uses sympy's number theory (factorint, totient,
mobius) and sums over gcd classes whose sizes are phi(n/g).
"""

from __future__ import annotations

import math
from functools import lru_cache


def pp_energy(p: int, s: int, exponents) -> int:
    """Energy of ICG(p^s, {p^a : a in exponents}) from its eigenvalues.

    The k with gcd(k, p^s) = p^j form a class of phi(p^(s-j)) vertices
    (one vertex, k = 0, for j = s). On that class the Ramanujan sum
    c_{p^m}(p^j) is phi(p^m) when j >= m, -p^(m-1) when j = m-1 and 0
    otherwise, with m = s - a for the divisor p^a.
    """
    present = set(exponents)
    powers = [1]
    for _ in range(s):
        powers.append(powers[-1] * p)
    total = 0
    full = 0  # sum of phi(p^(s-a)) over a in present with s - a <= j
    for j in range(s + 1):
        a = s - j
        if a in present:
            full += powers[j] - powers[j - 1]
        lam = full - (powers[j] if (s - j - 1) in present else 0)
        mult = powers[s - j] - powers[s - j - 1] if j < s else 1
        total += mult * abs(lam)
    return total


def emax_formula(p: int, s: int) -> int:
    """The paper's closed form for the maximal energy over divisor sets of p^s."""
    if s == 1:
        return 2 * (p - 1)
    if s % 2:
        num = (s + 1) * (p * p - 1) * p**s + 2 * (p ** (s + 1) - 1)
    else:
        num = s * (p * p - 1) * p**s + 2 * (2 * p ** (s + 1) - p ** (s - 1) + p * p - p - 1)
    value, rest = divmod(num, (p + 1) ** 2)
    if rest:
        raise ArithmeticError(f"closed form not integral at p={p}, s={s}")
    return value


def max_deltas(p: int, s: int) -> set[tuple[int, ...]]:
    """The maximal-energy delta vectors for p^s, s >= 2, as the theorem states them."""
    if s % 2:
        out = {(2,) * ((s - 1) // 2)}
        if p == 2:
            out.add((1,) + (2,) * ((s - 3) // 2) + (1,))
        return out
    half = (s - 2) // 2
    return {(2,) * half + (1,), (1,) + (2,) * half}


def exponents_of(delta) -> tuple[int, ...]:
    out = [0]
    for x in delta:
        out.append(out[-1] + x)
    return tuple(out)


def max_divisor_sets(p: int, s: int) -> list[tuple[int, ...]]:
    """Sorted maximal divisor sets {p^a} of p^s, s >= 2."""
    return sorted(tuple(p**a for a in exponents_of(d)) for d in max_deltas(p, s))


# --- general n, from sympy ------------------------------------------------


@lru_cache(maxsize=None)
def _sympy():
    from sympy import factorint
    from sympy.functions.combinatorial.numbers import mobius, totient

    return factorint, totient, mobius


@lru_cache(maxsize=65536)
def _phi(m: int) -> int:
    return int(_sympy()[1](m))


@lru_cache(maxsize=65536)
def _mu(m: int) -> int:
    return int(_sympy()[2](m))


@lru_cache(maxsize=4096)
def ref_divisors(n: int) -> tuple[int, ...]:
    out = [1]
    for q, e in _sympy()[0](n).items():
        out = [d * q**k for d in out for k in range(e + 1)]
    return tuple(sorted(out))


def ramanujan(q: int, k: int) -> int:
    g = math.gcd(q, k)
    return _mu(q // g) * (_phi(q) // _phi(q // g))


@lru_cache(maxsize=16384)
def class_eigen(n: int, d: int) -> tuple[int, ...]:
    """c_{n/d}(g) for each divisor g of n, ascending."""
    return tuple(ramanujan(n // d, g) for g in ref_divisors(n))


def general_energy(n: int, divisor_set) -> int:
    """Energy of ICG(n, D): sum over gcd classes g of phi(n/g) * |lambda_g|."""
    gs = ref_divisors(n)
    vecs = [class_eigen(n, d) for d in divisor_set]
    return sum(_phi(n // g) * abs(sum(v[i] for v in vecs)) for i, g in enumerate(gs))


def koolen_moulton(n: int, energy: int) -> bool:
    """E <= (n/2)(sqrt(n) + 1), decided by sympy's exact comparison."""
    from sympy import Integer, sqrt

    return bool(Integer(2 * energy) <= Integer(n) * (sqrt(Integer(n)) + 1))


def classify(n: int, energy: int) -> str:
    threshold = 2 * (n - 1)
    return "hyperenergetic" if energy > threshold else "hypoenergetic" if energy < threshold else "neither"


def general_maximum(n: int) -> dict:
    """Maximal energy over all nonempty sets of proper divisors of n, by enumeration."""
    proper = ref_divisors(n)[:-1]
    vecs = [class_eigen(n, d) for d in proper]
    sizes = [_phi(n // g) for g in ref_divisors(n)]
    width = len(sizes)
    best, ties = -1, []
    # Gray-code walk: each step toggles one divisor's eigenvalue vector.
    lam = [0] * width
    chosen = [False] * len(proper)
    for step in range(1, 2 ** len(proper)):
        bit = (step & -step).bit_length() - 1
        sign = -1 if chosen[bit] else 1
        chosen[bit] = not chosen[bit]
        v = vecs[bit]
        for i in range(width):
            lam[i] += sign * v[i]
        e = sum(c * abs(x) for c, x in zip(sizes, lam))
        if e > best:
            best, ties = e, []
        if e == best:
            ties.append(tuple(d for d, on in zip(proper, chosen) if on))
    return {"emax": str(best), "maximizers": sorted(ties), "examined": 2 ** len(proper) - 1}
