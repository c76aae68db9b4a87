"""Shared hypothesis strategies, reference energy and subprocess environment for the test suite."""

import itertools
import math
import os
from pathlib import Path

from hypothesis import strategies as st

from icgraph import PrimePowerOrder, divisors
from icgraph.numtheory import MILLER_RABIN_BASES

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
# A 4300-digit number with no Miller-Rabin base as a factor: base 2
# alone took 8.4 s to call it composite.
UNPROVABLE_P = next(
    q for q in itertools.count(10**4299 + 1) if math.gcd(q, math.prod(MILLER_RABIN_BASES)) == 1
)
SRC = Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict:
    """The current environment with the source tree first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def direct_energy(p, s, a):
    """E = 2(p-1)(r p^(s-1) - (p-1) T) with T as a plain double sum over pairs.

    Shares no code with the package's pair-sum kernel.
    """
    t = sum(p ** (s - 1 - (a[i] - a[k])) for k in range(len(a)) for i in range(k + 1, len(a)))
    return 2 * (p - 1) * (len(a) * p ** (s - 1) - (p - 1) * t)


@st.composite
def exponent_tuples(draw, max_s: int = 16, min_middle: int = 0):
    """(s, a) with a strictly increasing, a_1 = 0, a_r = s - 1."""
    s = draw(st.integers(min_value=2 + min_middle, max_value=max_s))
    if s > 2:
        middle = draw(
            st.sets(st.integers(min_value=1, max_value=s - 2), min_size=min_middle)
        )
    else:
        middle = set()
    return s, (0,) + tuple(sorted(middle)) + (s - 1,)


@st.composite
def order_and_tuple(draw, max_p: int = 13, max_s: int = 16, min_middle: int = 0):
    p = draw(st.sampled_from([q for q in SMALL_PRIMES if q <= max_p]))
    s, a = draw(exponent_tuples(max_s=max_s, min_middle=min_middle))
    return PrimePowerOrder(p, s), a


@st.composite
def small_order_and_tuple(draw, max_n: int = 30000):
    """Order and tuple with n = p^s small enough for spectral evaluation."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    max_s = 1
    while p ** (max_s + 1) <= max_n:
        max_s += 1
    s, a = draw(exponent_tuples(max_s=max(2, max_s)))
    return PrimePowerOrder(p, s), a


@st.composite
def general_instances(draw, max_n: int = 400):
    """(n, D) with D a nonempty set of proper divisors of n."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    proper = divisors(n)[:-1]
    subset = draw(st.sets(st.sampled_from(proper), min_size=1))
    return n, tuple(sorted(subset))
