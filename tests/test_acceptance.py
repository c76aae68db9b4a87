"""End-to-end acceptance checks with explicit runtime budgets.

Each test prints one PASS/FAIL line with its elapsed time. All value
comparisons are exact integer or rational equality; no tolerances.
"""

import itertools
import random
import time
from fractions import Fraction

import mpmath

from icgraph import (
    PrimePowerOrder,
    TransformLabel,
    applicable,
    apply_rule,
    brute_force_emax_general,
    brute_force_emax_prime_power,
    delta,
    delta_inverse,
    divisor_set_of,
    emax_alternative,
    emax_closed,
    emin_closed,
    energy_general,
    energy_prime_power,
    h_equidistant,
    h_value,
    koolen_moulton_check,
    reverse_complement,
    tableau_reduction_check,
)
from icgraph.numtheory import primes_up_to

Ia, Ib, II, III, IV, V = TransformLabel  # definition order


def _finish(name: str, budget: float, started: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if elapsed < budget else "FAIL"
    print(f"{status} {name}: {elapsed:.2f}s (budget {budget:.1f}s)")
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget:.1f}s"


# Known rewrite run at s = 30: vectors and their energies at p = 2 and p = 3.
KNOWN_ROWS = [
    ((5, 1, 3, 3, 2, 1, 1, 6, 1, 1, 3, 2), 9167691382, 2293430091118444),
    ((2, 3, 1, 3, 3, 2, 1, 1, 6, 1, 1, 3, 2), 9761773390, 2479571746112800),
    ((2, 3, 1, 3, 3, 2, 1, 1, 2, 4, 1, 1, 3, 2), 10226403150, 2655370924580476),
    ((2, 3, 1, 3, 3, 2, 1, 1, 2, 2, 2, 1, 1, 3, 2), 10429199182, 2770612868608768),
    ((2, 3, 1, 3, 3, 2, 1, 2, 2, 2, 2, 1, 3, 2), 10869926478, 2937991189453948),
    ((2, 3, 2, 2, 3, 2, 1, 2, 2, 2, 2, 1, 3, 2), 11022317518, 3022615444978108),
    ((2, 3, 2, 2, 3, 2, 2, 2, 2, 2, 2, 3, 2), 11182822222, 3112785070640560),
    ((2, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2), 11438333038, 3216413472521788),
    ((2, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2), 11483072286, 3218955338350144),
    ((2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1), 11572550770, 3234206533320112),
]


def _mirror_split(d, u, p):
    rev = tuple(reversed(d))
    return tuple(reversed(apply_rule(rev, Ib, u, None, p)[0]))


KNOWN_MOVES = [
    lambda d, p: apply_rule(d, Ia, 1, None, p)[0],
    lambda d, p: apply_rule(d, Ia, 9, None, p)[0],
    lambda d, p: apply_rule(d, Ia, 10, None, p)[0],
    lambda d, p: apply_rule(d, III, 8, 12, p)[0],
    lambda d, p: apply_rule(d, II, 3, 4, p)[0],
    lambda d, p: apply_rule(d, III, 7, 12, p)[0],
    lambda d, p: apply_rule(d, IV, 5, 12, p)[0],
    lambda d, p: _mirror_split(d, 13, p),
    lambda d, p: apply_rule(d, V, 2, None, p)[0],
]


def test_acceptance_01_replayed_rewrite_run_reproduces_known_energies():
    started = time.perf_counter()
    order2, order3 = PrimePowerOrder(2, 30), PrimePowerOrder(3, 30)
    assert delta((0, 5, 6, 9, 12, 14, 15, 16, 22, 23, 24, 27, 29)) == KNOWN_ROWS[0][0]
    for (d, e2, e3) in KNOWN_ROWS:
        assert energy_prime_power(order2, delta_inverse(d)) == e2
        assert energy_prime_power(order3, delta_inverse(d)) == e3
    for i, move in enumerate(KNOWN_MOVES):
        for p in (2, 3):
            assert move(KNOWN_ROWS[i][0], p) == KNOWN_ROWS[i + 1][0]
    energies2 = [row[1] for row in KNOWN_ROWS]
    energies3 = [row[2] for row in KNOWN_ROWS]
    assert energies2 == sorted(set(energies2))
    assert energies3 == sorted(set(energies3))
    _finish("replayed rewrite run", 1.0, started)


def test_acceptance_02_closed_form_maxima_at_s_30():
    started = time.perf_counter()
    assert emax_closed(PrimePowerOrder(2, 30))[0] == 11572550770
    assert emax_closed(PrimePowerOrder(3, 30))[0] == 3234206533320112
    _finish("closed-form maxima at s=30", 0.1, started)


def test_acceptance_03_brute_force_concordance_to_s_8():
    started = time.perf_counter()
    for p in (2, 3, 5, 7):
        for s in range(1, 9):
            order = PrimePowerOrder(p, s)
            report = brute_force_emax_prime_power(order)
            value, tuples = emax_closed(order)
            sets = sorted(divisor_set_of(a, order) for a in tuples)
            assert report.emax == value, (p, s)
            assert sorted(report.maximizers) == sets, (p, s)
            assert report.examined == 2**s - 1
            if s == 1 or (s == 2):
                assert len(tuples) == 1
            elif s % 2 == 1:
                assert len(tuples) == (2 if p == 2 else 1)
            else:
                assert len(tuples) == 2
    _finish("brute-force concordance p<=7, s<=8", 30.0, started)


def test_acceptance_04_general_order_maxima_with_uniqueness():
    started = time.perf_counter()
    assert energy_general(105, (1, 15, 21, 35)) == 520
    assert energy_general(210, (1, 2, 3, 30, 35, 42, 70, 105)) == 1414
    report = brute_force_emax_general(105)
    assert report.emax == 520
    assert report.maximizers == ((1, 15, 21, 35),)
    report = brute_force_emax_general(210)
    assert report.emax == 1414
    assert report.maximizers == ((1, 2, 3, 30, 35, 42, 70, 105),)
    assert report.examined == 2**15 - 1
    _finish("general-order maxima n=105, n=210", 60.0, started)


def test_acceptance_05_formula_equals_spectral_on_all_sets():
    started = time.perf_counter()
    for p in (2, 3, 5):
        for s in range(1, 8):
            order = PrimePowerOrder(p, s)
            exponents = list(range(s))
            for k in range(1, s + 1):
                for combo in itertools.combinations(exponents, k):
                    formula = energy_prime_power(order, combo)
                    spectral = energy_general(order.n, divisor_set_of(combo, order))
                    assert formula == spectral, (p, s, combo)
    _finish("formula vs spectral, p in {2,3,5}, s<=7", 120.0, started)


def test_acceptance_06_rule_applications_increase_energy():
    started = time.perf_counter()
    rng = random.Random(20260816)
    primes = [p for p in primes_up_to(13)]
    applications = 0
    plateaus = 0
    # Deterministic sweep of the energy-preserving shape first.
    for s in range(3, 25, 2):
        d = (1,) + (2,) * ((s - 3) // 2) + (1,)
        order = PrimePowerOrder(2, s)
        after, strict = apply_rule(d, III, 1, len(d), 2)
        assert strict is False
        e0 = energy_prime_power(order, delta_inverse(d))
        e1 = energy_prime_power(order, delta_inverse(after))
        assert e0 == e1, s
        applications += 1
        plateaus += 1
    while applications < 10**4:
        p = rng.choice(primes)
        s = rng.randint(2, 24)
        middle = [x for x in range(1, s - 1) if rng.random() < 0.5]
        a = (0,) + tuple(middle) + (s - 1,)
        d = delta(a)
        moves = applicable(d)
        if not moves:
            continue
        label, u, v = rng.choice(moves)
        after, strict = apply_rule(d, label, u, v, p)
        order = PrimePowerOrder(p, s)
        e0 = energy_prime_power(order, delta_inverse(d))
        e1 = energy_prime_power(order, delta_inverse(after))
        if strict:
            assert e1 > e0, (p, d, label, u, v)
        else:
            assert e1 == e0, (p, d, label, u, v)
            assert p == 2 and d[0] == 1 and d[-1] == 1
            assert all(x == 2 for x in d[1:-1])
            plateaus += 1
        applications += 1
    assert applications == 10**4
    assert plateaus >= 11
    _finish("rule soundness fuzz, 10^4 applications", 120.0, started)


def test_acceptance_07_identity_suites():
    started = time.perf_counter()
    rng = random.Random(1157255077)
    primes = [2, 3, 5, 7, 11, 13]

    def random_tuple(min_s=2, max_s=24, require_middle=False):
        s = rng.randint(max(min_s, 3 if require_middle else min_s), max_s)
        middle = sorted(
            rng.sample(range(1, s - 1), rng.randint(1 if require_middle else 0,
                                                    max(1, (s - 2) // 2)))
        ) if s > 2 else []
        return s, (0,) + tuple(middle) + (s - 1,)

    for _ in range(1000):
        p = rng.choice(primes)
        s, a = random_tuple()
        order = PrimePowerOrder(p, s)
        # Mirror symmetry of the pair sum and of the energy.
        assert h_value(p, a) == h_value(p, reverse_complement(a))
        e = energy_prime_power(order, a)
        assert e == energy_prime_power(order, reverse_complement(a))
        assert e % 2 == 0
        assert e % (2 * (p - 1)) == 0

    for p in primes:
        for s in range(2, 21):
            if s % 2:
                eq = tuple(range(0, s, 2))
            else:
                eq = tuple(range(0, s - 1, 2)) + (s - 1,)
            assert h_equidistant(p, s) == h_value(p, eq)
        for s in range(1, 21):
            order = PrimePowerOrder(p, s)
            assert emax_closed(order)[0] == emax_alternative(order)

    checked = 0
    while checked < 1000:
        p = rng.choice(primes)
        s, a = random_tuple(require_middle=True)
        r = len(a)
        pairs = [
            (u, v)
            for u in range(1, r - 1)
            for v in range(u + 1, r)
            if all(a[j] - a[j - 1] == 2 for j in range(u + 1, v))
        ]
        if not pairs:
            continue
        u, v = rng.choice(pairs)
        assert tableau_reduction_check(p, a, u, v), (p, a, u, v)
        checked += 1
    _finish("identity suites", 60.0, started)


def _interval_to_fractions(x) -> tuple[Fraction, Fraction]:
    def side(raw):
        sign, man, exp, _ = raw
        f = Fraction(int(man)) * Fraction(2) ** exp
        return -f if sign else f

    lo_raw, hi_raw = x._mpi_
    return side(lo_raw), side(hi_raw)


def test_acceptance_08_size_classification_and_two_sided_bound():
    started = time.perf_counter()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for s in range(2, 21):
            order = PrimePowerOrder(p, s)
            n = order.n
            emax = emax_closed(order)[0]
            emin = emin_closed(order)[0]
            # The complete graph (all proper divisors) is always a candidate,
            # so emax >= 2(n-1); it IS the maximizer exactly at s = 2 and at
            # (p, s) = (2, 3), where equality holds instead of >.
            if s == 2 or (p, s) == (2, 3):
                assert emax == 2 * (n - 1), (p, s)
            else:
                assert emax > 2 * (n - 1), (p, s)
            assert emin < 2 * (n - 1), (p, s)
            assert koolen_moulton_check(n, emax)
            assert koolen_moulton_check(n, emin)

    mpmath.iv.dps = 60
    for p in (17, 19, 23):
        b_lo, b_hi = _interval_to_fractions(
            1 - mpmath.iv.log(mpmath.iv.log(p)) / mpmath.iv.log(p)
        )
        assert 0 < b_lo <= b_hi < 1
        for s in range(2, 21):
            emax = emax_closed(PrimePowerOrder(p, s))[0]
            lower_scale = (p - 1) * p ** (s - 1) * (s - 1)
            upper_scale = 2 * (p - 1) * p ** (s - 1) * s
            # Outward rounding: compare against the unfavourable endpoint.
            assert b_hi * lower_scale <= emax, (p, s)
            if s == 3:
                # The upper inequality is genuinely violated at s = 3 for
                # these primes: certify the violation with the favourable
                # endpoint, so it cannot be an interval-width artifact.
                assert emax > b_hi * upper_scale, (p, s)
            else:
                assert emax <= b_lo * upper_scale, (p, s)
    _finish("size classification and two-sided bound", 10.0, started)
