"""Energies: closed form vs spectral oracle vs dense eigensolver, extremal values."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icgraph import (
    PrimePowerOrder,
    ResourceLimitError,
    classify_energy,
    divisor_set_of,
    divisors,
    emax_closed,
    emin_closed,
    energy_general,
    energy_prime_power,
    h_value,
    koolen_moulton_check,
    reverse_complement,
    spectrum_gcd_graph,
    totient,
)
from icgraph import energy
from icgraph.energy import SPECTRAL_N_CAP

from helpers import direct_energy, general_instances, order_and_tuple, small_order_and_tuple
from paper_identities import emax_alternative, h_equidistant


# ---------------------------------------------------------------- h

def test_h_value_known():
    assert h_value(5, (0,)) == 0
    assert h_value(5, (0, 1)) == Fraction(1, 5)
    assert h_value(5, (0, 1, 3)) == Fraction(31, 125)
    assert h_value(2, (0, 2)) == Fraction(1, 4)


@pytest.mark.parametrize("a", [(), (0, "x"), ("x",), (1, 0), (-1, 2), (0, True)])
def test_h_value_rejects_bad_tuples(a):
    with pytest.raises(ValueError):
        h_value(3, a)


@given(order_and_tuple(max_s=20))
def test_h_value_symmetric_under_reversal(oa):
    order, a = oa
    assert h_value(order.p, a) == h_value(order.p, reverse_complement(a))


@given(order_and_tuple(max_s=20))
def test_h_value_positive_for_r_at_least_2(oa):
    order, a = oa
    h = h_value(order.p, a)
    assert 0 < h < Fraction(len(a) * (len(a) - 1), 2)


# ---------------------------------------------------------------- energy, prime powers

def test_energy_prime_power_known():
    assert energy_prime_power(PrimePowerOrder(2, 1), (0,)) == 2
    assert energy_prime_power(PrimePowerOrder(5, 4), (0, 1, 3)) == 2008
    # Complete graph on p vertices via D = {1}.
    for p in (2, 3, 5, 7, 11):
        assert energy_prime_power(PrimePowerOrder(p, 1), (0,)) == 2 * (p - 1)


def test_energy_prime_power_rejects_wrong_shape():
    with pytest.raises(ValueError):
        energy_prime_power(PrimePowerOrder(2, 3), (0, 3))
    with pytest.raises(ValueError):
        energy_prime_power(PrimePowerOrder(2, 3), ())


@st.composite
def _any_exponent_tuple(draw):
    """(p, s, a) with a any nonempty increasing tuple in [0, s), admissible or not."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    s = draw(st.integers(min_value=1, max_value=24))
    a = draw(st.sets(st.integers(min_value=0, max_value=s - 1), min_size=1))
    return p, s, tuple(sorted(a))


@given(_any_exponent_tuple())
def test_pair_sum_kernel_matches_direct_double_sums(psa):
    p, s, a = psa
    assert energy_prime_power(PrimePowerOrder(p, s), a) == direct_energy(p, s, a)
    pairs = [(k, i) for k in range(len(a)) for i in range(k + 1, len(a))]
    assert h_value(p, a) == sum((Fraction(1, p ** (a[i] - a[k])) for k, i in pairs), Fraction(0))


@pytest.mark.parametrize("p, s", [(2, 600), (3, 600), (2, 1000), (5, 1000)])
def test_pair_sum_kernel_matches_direct_double_sums_at_large_s(p, s):
    rng = random.Random(s * p)
    a = tuple(sorted(rng.sample(range(s), s // 2)))
    admissible = tuple(sorted({0, s - 1, *a[1:-1]}))
    for exps in (a, admissible):
        assert energy_prime_power(PrimePowerOrder(p, s), exps) == direct_energy(p, s, exps)
    span = admissible[-1] - admissible[0]
    t = sum(
        p ** (span - (y - x)) for k, x in enumerate(admissible) for y in admissible[k + 1 :]
    )
    assert h_value(p, admissible) == Fraction(t, p**span)


@given(order_and_tuple(max_s=18))
def test_energy_is_even_and_divisible_by_2p_minus_1(oa):
    order, a = oa
    e = energy_prime_power(order, a)
    assert e > 0
    assert e % 2 == 0
    assert e % (2 * (order.p - 1)) == 0


@given(order_and_tuple(max_s=18))
def test_energy_invariant_under_tuple_reversal(oa):
    order, a = oa
    assert energy_prime_power(order, a) == energy_prime_power(
        order, reverse_complement(a)
    )


@given(small_order_and_tuple())
def test_formula_agrees_with_spectral_evaluation(oa):
    order, a = oa
    ds = divisor_set_of(a, order)
    assert energy_prime_power(order, a) == energy_general(order.n, ds)


@given(order_and_tuple(max_s=16))
def test_energy_between_closed_extremes(oa):
    order, a = oa
    e = energy_prime_power(order, a)
    lo, _ = emin_closed(order)
    hi, _ = emax_closed(order)
    assert lo <= e <= hi


# ---------------------------------------------------------------- spectrum

def _dense_energy(n, ds):
    mat = np.zeros((n, n))
    dset = set(ds)
    for i in range(n):
        for j in range(n):
            if i != j and math.gcd(i - j, n) in dset:
                mat[i, j] = 1.0
    return np.linalg.eigvalsh(mat)


@given(general_instances(max_n=60))
def test_spectrum_matches_dense_eigensolver(nds):
    n, ds = nds
    spec = sorted(spectrum_gcd_graph(n, ds))
    dense = _dense_energy(n, ds)
    assert len(spec) == n
    assert max(abs(a - b) for a, b in zip(spec, dense)) < 1e-8
    assert energy_general(n, ds) == round(sum(abs(x) for x in dense))


@given(general_instances(max_n=500))
def test_spectrum_structure(nds):
    n, ds = nds
    spec = spectrum_gcd_graph(n, ds)
    assert len(spec) == n
    assert sum(spec) == 0
    assert spec[0] == sum(totient(n // d) for d in ds)
    assert max(spec) == spec[0]
    assert energy_general(n, ds) == sum(abs(x) for x in spec)


@st.composite
def _coprime_products(draw):
    """(p^s, a, n2, D2): gcd(p, n2) = 1, p^s n2 <= 5*10^4, a and D2 nonempty and proper."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    s = draw(st.integers(min_value=1, max_value=5))
    top = min(77, 5 * 10**4 // p**s)
    n2 = draw(st.integers(min_value=2, max_value=top).filter(lambda m: m % p))
    a = tuple(sorted(draw(st.sets(st.integers(min_value=0, max_value=s - 1), min_size=1))))
    d2 = draw(st.sets(st.sampled_from(divisors(n2)[:-1]), min_size=1))
    return PrimePowerOrder(p, s), a, n2, tuple(sorted(d2))


@settings(max_examples=200)
@given(_coprime_products())
def test_energy_is_multiplicative_over_coprime_orders(case):
    # Ramanujan sums are multiplicative in q and the CRT pairs up the k,
    # so E(n1 n2, D1 D2) = E(n1, D1) E(n2, D2). The p^s factor comes from
    # the product formula, which shares no spectral code with the left side.
    order, a, n2, d2 = case
    d = sorted(d1 * e for d1 in divisor_set_of(a, order) for e in d2)
    assert energy_general(order.n * n2, d) == energy_prime_power(order, a) * energy_general(n2, d2)


def test_energy_general_known_values():
    assert energy_general(2, (1,)) == 2
    assert energy_general(4, (1,)) == 4
    assert energy_general(4, (1, 2)) == 6
    assert energy_general(105, (1, 15, 21, 35)) == 520
    assert energy_general(210, (1, 2, 3, 30, 35, 42, 70, 105)) == 1414


@pytest.mark.parametrize("n", [2, 3, 4, 6, 12, 30, 36])
def test_all_proper_divisors_give_complete_graph(n):
    ds = tuple(divisors(n)[:-1])
    assert energy_general(n, ds) == 2 * (n - 1)
    assert classify_energy(n, energy_general(n, ds)) == "neither"


def test_energy_general_rejects_bad_sets():
    with pytest.raises(ValueError):
        energy_general(12, (5,))
    with pytest.raises(ValueError):
        energy_general(12, ())
    with pytest.raises(ValueError):
        energy_general(12, (12,))
    # Entries are type-checked before the set is sorted or hashed.
    with pytest.raises(ValueError):
        energy_general(12, [1, "a"])
    with pytest.raises(ValueError):
        energy_general(12, [[1]])


def test_energy_general_enforces_size_cap(monkeypatch):
    # The cap must be checked before the O(n) gcd-class scan starts.
    def no_scan(n):
        raise AssertionError(f"gcd classes of n = {n} scanned before the cap check")

    monkeypatch.setattr(energy, "_gcd_class_counts", no_scan)
    with pytest.raises(ResourceLimitError):
        energy_general(SPECTRAL_N_CAP + 1, (1,))
    with pytest.raises(ResourceLimitError):
        spectrum_gcd_graph(2 * SPECTRAL_N_CAP, (1,))


def test_spectrum_touches_no_energy_cache():
    # The spectrum is the direct reference for energy_general, so it must
    # not read or fill the class tables that energy_general caches.
    caches = {name: f for name, f in vars(energy).items() if hasattr(f, "cache_info")}
    assert caches
    before = {name: f.cache_info() for name, f in caches.items()}
    n = 11 * 13 * 17 * 19  # used by no other test
    spec = spectrum_gcd_graph(n, (1, 11, 221))
    assert {name: f.cache_info() for name, f in caches.items()} == before
    assert energy_general(n, (1, 11, 221)) == sum(map(abs, spec))


# ---------------------------------------------------------------- extremes

def test_emin_closed_structure():
    for p in (2, 3, 5, 7):
        for s in range(1, 8):
            order = PrimePowerOrder(p, s)
            value, sets = emin_closed(order)
            assert value == 2 * (p - 1) * p ** (s - 1)
            assert sets == [(p**t,) for t in range(s)]
            for single in sets:
                if order.n <= 10**5:
                    assert energy_general(order.n, single) == value


def test_emax_closed_known_values():
    assert emax_closed(PrimePowerOrder(2, 30))[0] == 11572550770
    assert emax_closed(PrimePowerOrder(3, 30))[0] == 3234206533320112
    assert emax_closed(PrimePowerOrder(2, 2)) == (6, [(0, 1)])
    assert emax_closed(PrimePowerOrder(7, 1)) == (12, [(0,)])


def test_emax_closed_maximizer_shapes():
    # Odd s: equidistant tuple, plus a second one only for p = 2.
    value, tuples = emax_closed(PrimePowerOrder(2, 5))
    assert tuples == [(0, 2, 4), (0, 1, 3, 4)]
    value, tuples = emax_closed(PrimePowerOrder(3, 5))
    assert tuples == [(0, 2, 4)]
    # Even s: two mirror-image maximizers.
    value, tuples = emax_closed(PrimePowerOrder(3, 6))
    assert tuples == [(0, 2, 4, 5), (0, 1, 3, 5)]
    value, tuples = emax_closed(PrimePowerOrder(2, 4))
    assert tuples == [(0, 2, 3), (0, 1, 3)]


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(min_value=1, max_value=14))
def test_emax_closed_agrees_with_alternative_sum(p, s):
    order = PrimePowerOrder(p, s)
    assert emax_closed(order)[0] == emax_alternative(order)


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(min_value=1, max_value=14))
def test_emax_maximizers_attain_the_value(p, s):
    order = PrimePowerOrder(p, s)
    value, tuples = emax_closed(order)
    assert len(set(tuples)) == len(tuples)
    for a in tuples:
        assert energy_prime_power(order, a) == value


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(min_value=2, max_value=20))
def test_h_equidistant_matches_h_value(p, s):
    if s % 2:
        a = tuple(range(0, s, 2))
    else:
        a = tuple(range(0, s - 1, 2)) + (s - 1,)
    assert h_equidistant(p, s) == h_value(p, a)


def test_h_equidistant_rejects_s_below_2():
    with pytest.raises(ValueError):
        h_equidistant(3, 1)


# ---------------------------------------------------------------- classification

def test_classify_energy_threshold_exact():
    assert classify_energy(10, 17) == "hypoenergetic"
    assert classify_energy(10, 18) == "neither"
    assert classify_energy(10, 20) == "hyperenergetic"


@pytest.mark.parametrize("n, energy", [(2.5, 3), (True, 0), (0, 5), (10, -4), ("a", 1)])
def test_classify_energy_rejects_bad_input(n, energy):
    with pytest.raises(ValueError):
        classify_energy(n, energy)


def test_koolen_moulton_exact_boundary():
    # n = 4: bound is (4/2)(sqrt(4)+1) = 6, attained by the complete graph.
    assert koolen_moulton_check(4, 6)
    assert not koolen_moulton_check(4, 7)
    assert koolen_moulton_check(4, 0)
    # n = 5: bound is 2.5(sqrt(5)+1) ~ 8.09, so 8 passes and 9 fails.
    assert koolen_moulton_check(5, 8)
    assert not koolen_moulton_check(5, 9)


@given(general_instances(max_n=300))
def test_koolen_moulton_holds_for_every_gcd_graph(nds):
    n, ds = nds
    assert koolen_moulton_check(n, energy_general(n, ds))


def test_koolen_moulton_rejects_bad_input():
    with pytest.raises(ValueError):
        koolen_moulton_check(0, 4)
    with pytest.raises(ValueError):
        koolen_moulton_check(4, -1)
