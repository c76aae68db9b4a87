"""Brute-force enumeration, closed-form verification and the reduction identity."""

import itertools
import math
import subprocess
import sys
import tracemalloc
from functools import partial
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

import icgraph
from icgraph import (
    MaximizerReport,
    PrimePowerOrder,
    ResourceLimitError,
    brute_force_emax_general,
    brute_force_emax_prime_power,
    divisor_set_of,
    divisors,
    emax_closed,
    energy,
    energy_general,
    energy_prime_power,
    h_value,
    model,
    search,
    verify_theorem,
)
from icgraph.energy import SPECTRAL_N_CAP
from icgraph.search import (
    PRIME_POWER_EXPONENT_CAP,
    _best_subsets,
    _general_halves,
    _prime_power_halves,
    _upper_hull,
)

from helpers import SMALL_PRIMES, exponent_tuples, src_env
from paper_identities import derivative, tableau_reduction_check


# ---------------------------------------------------------------- brute force

def test_prime_power_brute_force_small_known():
    report = brute_force_emax_prime_power(PrimePowerOrder(2, 2))
    assert report.emax == 6
    assert report.maximizers == ((1, 2),)
    assert report.examined == 3


def test_prime_power_brute_force_counts_all_subsets():
    report = brute_force_emax_prime_power(PrimePowerOrder(3, 5))
    assert report.examined == 2**5 - 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("s", range(1, PRIME_POWER_EXPONENT_CAP + 1))
def test_brute_force_agrees_with_closed_form(p, s):
    order = PrimePowerOrder(p, s)
    report = brute_force_emax_prime_power(order)
    value, tuples = emax_closed(order)
    assert report.emax == value
    assert sorted(report.maximizers) == sorted(
        divisor_set_of(a, order) for a in tuples
    )


def test_general_brute_force_matches_direct_scan():
    for n in (4, 6, 9, 12, 30):
        report = brute_force_emax_general(n)
        proper = divisors(n)[:-1]
        best = 0
        ties = []
        for k in range(1, len(proper) + 1):
            for combo in itertools.combinations(proper, k):
                e = energy_general(n, combo)
                if e > best:
                    best, ties = e, [combo]
                elif e == best:
                    ties.append(combo)
        assert report.emax == best
        assert sorted(report.maximizers) == sorted(ties)
        assert report.examined == 2 ** len(proper) - 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_general_brute_force_matches_the_prime_power_route(p):
    # Spectral energies (general n) against the pair-sum formula (p^s),
    # both enumerated by the same subset search.
    s = 1
    while p**s <= SPECTRAL_N_CAP:
        general = brute_force_emax_general(p**s)
        prime_power = brute_force_emax_prime_power(PrimePowerOrder(p, s))
        assert general == prime_power
        s += 1


def test_general_brute_force_prime_order():
    # A prime has the single proper divisor 1, so one subset exists.
    report = brute_force_emax_general(13)
    assert report.emax == 24
    assert report.maximizers == ((1,),)
    assert report.examined == 1


def _pool_modules_loaded_after(statement):
    code = (
        f"import icgraph, sys; {statement}; "
        "loaded = [m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules]; "
        "sys.exit(str(loaded) if loaded else 0)"
    )
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=src_env(), timeout=60
    )


def test_pool_modules_are_not_imported_with_the_package():
    proc = _pool_modules_loaded_after("pass")
    assert proc.returncode == 0, proc.stderr.decode()


def test_pool_modules_are_not_imported_by_verify_theorem():
    proc = _pool_modules_loaded_after(
        "icgraph.verify_theorem(icgraph.PrimePowerOrder(3, 12), jobs=2)"
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_pool_modules_are_not_imported_by_the_prime_power_search():
    proc = _pool_modules_loaded_after(
        "icgraph.brute_force_emax_prime_power(icgraph.PrimePowerOrder(2, 20), jobs=2)"
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_pool_modules_are_not_imported_by_the_general_search():
    # 2^15 - 1 subsets of 16 gcd classes, once split across two workers.
    proc = _pool_modules_loaded_after("icgraph.brute_force_emax_general(120, jobs=2)")
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("jobs", [0, -3, 2.5, True, "2", None])
def test_jobs_must_be_a_positive_int(jobs):
    order = PrimePowerOrder(2, 4)
    for run in (
        partial(brute_force_emax_prime_power, order),
        partial(brute_force_emax_general, 16),
        partial(verify_theorem, order),
    ):
        with pytest.raises(ValueError, match="jobs must be an int >= 1"):
            run(jobs=jobs)


def test_prime_power_brute_force_enforces_exponent_cap():
    with pytest.raises(ResourceLimitError):
        brute_force_emax_prime_power(PrimePowerOrder(2, PRIME_POWER_EXPONENT_CAP + 1))


def test_general_brute_force_enforces_caps():
    # SPECTRAL_N_CAP + 1 = 1000003 is a prime: one proper divisor, yet refused.
    with pytest.raises(ResourceLimitError):
        brute_force_emax_general(SPECTRAL_N_CAP + 1)
    # 2310 = 2*3*5*7*11 has 31 proper divisors: too many subsets.
    with pytest.raises(ResourceLimitError):
        brute_force_emax_general(2310)


def test_general_brute_force_refuses_a_large_n_before_factoring_it(monkeypatch):
    # (10^9+7)(10^9+9) is a semiprime that factorize cannot split; the
    # spectral scan cap must refuse it before divisors or the class scan run.
    def fail(*args):
        raise AssertionError(f"called with {args} before the cap check")

    monkeypatch.setattr(search, "divisors", fail)
    monkeypatch.setattr(energy, "_gcd_class_counts", fail)
    with pytest.raises(ResourceLimitError, match="exceeds the spectral scan cap 1000000"):
        brute_force_emax_general((10**9 + 7) * (10**9 + 9))


def test_report_requires_a_maximizer():
    with pytest.raises(ValueError):
        MaximizerReport(n=4, emax=6, maximizers=(), examined=3)


# ---------------------------------------------------------------- split-half enumerator

def _oracle(score, items):
    """Plain max over itertools.combinations: the best score and its ties, sorted."""
    best, ties = -1, []
    for size in range(1, len(items) + 1):
        for combo in itertools.combinations(items, size):
            value = score(combo)
            if value > best:
                best, ties = value, [combo]
            elif value == best:
                ties.append(combo)
    return best, sorted(ties)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 10))
def test_prime_power_search_matches_a_direct_scan(p, s):
    order = PrimePowerOrder(p, s)
    items = tuple(range(s))
    assert _best_subsets(partial(_prime_power_halves, order), items) == _oracle(
        partial(energy_prime_power, order), items
    )


@given(st.integers(2, 400).filter(lambda m: len(divisors(m)) <= 12))
def test_general_search_matches_a_direct_scan(n):
    items = tuple(divisors(n)[:-1])
    assert _best_subsets(partial(_general_halves, n), items) == _oracle(
        partial(energy_general, n), items
    )


# s = 1 leaves the low half empty; odd s splits the items unevenly.
@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("s", [1, 2, 7, 8, 9, 10])
def test_prime_power_search_matches_a_direct_scan_at_split_sizes(p, s):
    order = PrimePowerOrder(p, s)
    items = tuple(range(s))
    assert _best_subsets(partial(_prime_power_halves, order), items) == _oracle(
        partial(energy_prime_power, order), items
    )


# 7, 4, 12, 36, 48, 60 and 64 have 1, 2, 5, 8, 9, 11 and 6 proper divisors
@pytest.mark.parametrize("n", [7, 4, 12, 36, 48, 60, 64])
def test_general_search_matches_a_direct_scan_at_split_sizes(n):
    items = tuple(divisors(n)[:-1])
    assert _best_subsets(partial(_general_halves, n), items) == _oracle(
        partial(energy_general, n), items
    )


# ---------------------------------------------------------------- packed rows

def _general_units(n):
    """Class sizes of n and the size-weighted class eigenvalues of each proper divisor.

    Built from sympy, which shares no code with the spectral kernel: the
    class of g holds phi(n/g) residues, and with m = q / gcd(q, g),
    c_q(g) = mu(m) phi(q) / phi(m) (Hoelder's formula).
    """
    sympy = pytest.importorskip("sympy")

    def phi(m):
        return int(sympy.totient(m))

    def ramanujan(q, g):
        m = q // math.gcd(q, g)
        return int(sympy.mobius(m)) * phi(q) // phi(m)

    gs = [int(g) for g in sympy.divisors(n)]
    counts = tuple(phi(n // g) for g in gs)
    return counts, [
        tuple(c * ramanujan(n // d, g) for c, g in zip(counts, gs)) for d in gs[:-1]
    ]


@pytest.mark.parametrize("n", [12, 60, 64, 120, 7735])
def test_class_columns_match_hoelders_formula(n):
    _, units = _general_units(n)
    assert [energy._class_column(n, d) for d in divisors(n)[:-1]] == units


@pytest.mark.parametrize("n", [12, 60, 64, 120, 7735])
def test_general_rows_match_the_per_subset_sum(n):
    counts, units = _general_units(n)
    k = len(units) // 2

    def table(vectors):
        states = [(0,) * len(counts)]
        for u in vectors:
            states += [tuple(map(add, v, u)) for v in states]
        return states

    low, high = table(units[:k]), table(units[k:])
    row = _general_halves(n, tuple(divisors(n)[:-1]), k)
    for h, u in enumerate(high):
        values = [sum(map(abs, map(add, u, v))) for v in low]
        top, lows = row(h)
        assert (top, list(lows)) == (
            max(values), [l for l, v in enumerate(values) if v == max(values)]
        ), h


# Sixteen divisors each: 120 has 8 tied maximizers, 210 is squarefree (no
# Ramanujan sum c_{n/d}(g) is 0), 7735 and 9867 fill 21-bit fields (9867's
# bound is 1267200).
@pytest.mark.parametrize("n, ties", [(120, 8), (210, 1), (7735, 2), (9867, 2)])
def test_general_search_at_sixteen_divisors_matches_a_per_subset_scan(n, ties):
    best, maximizers = _oracle(partial(energy_general, n), tuple(divisors(n)[:-1]))
    assert len(maximizers) == ties
    report = brute_force_emax_general(n, jobs=2)
    assert report == MaximizerReport(n, best, tuple(maximizers), 2**15 - 1)


def test_general_fields_are_exact_up_to_the_bound(monkeypatch):
    # Scaling every class column by f scales every energy by f. The largest
    # f that keeps the bound under 2^31 still gives exact rows; f + 1 raises.
    n = 120
    counts, units = _general_units(n)
    bound = len(counts) * max(sum(map(abs, column)) for column in zip(*units))
    f = (2**31 - 1) // bound
    by_d = dict(zip(divisors(n), units))

    def scaled(factor):
        return lambda m, ds: [tuple(factor * x for x in by_d[d]) for d in ds]

    monkeypatch.setattr(search, "_class_columns", scaled(f))
    report = brute_force_emax_general(n)
    assert report.emax == f * 612 and len(report.maximizers) == 8
    monkeypatch.setattr(search, "_class_columns", scaled(f + 1))
    with pytest.raises(RuntimeError, match="31-bit field"):
        brute_force_emax_general(n)


def test_upper_hull_keeps_collinear_and_end_points():
    # (1, 1), (2, 2) and (3, 3) lie on the chord from (0, 0) to (4, 4).
    assert _upper_hull([(x, x) for x in range(5)]) == [0, 1, 2, 3, 4]
    assert _upper_hull([(5, 7)]) == [0]
    assert _upper_hull([(0, 3), (1, -9)]) == [0, 1]


def test_upper_hull_drops_points_strictly_below_it():
    points = [(0, 0), (1, 3), (2, 2), (3, 4), (4, 1), (5, 0), (6, -2)]
    # (2, 2) is below the chord (1, 3)-(3, 4) and (4, 1) below (3, 4)-(5, 0);
    # (5, 0) is on the chord (3, 4)-(6, -2) and stays.
    assert _upper_hull(points) == [0, 1, 3, 5, 6]
    # A later point can drop several: (7, -3) puts (6, -2) and then (5, 0)
    # strictly below the chords it makes.
    assert _upper_hull(points + [(7, -3)]) == [0, 1, 3, 7]
    assert _upper_hull([(0, 0), (1, -1), (2, 0)]) == [0, 2]
    assert _upper_hull([(0, 0), (1, 1), (2, 1), (3, 1), (4, 0)]) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_hull_rows_and_search_match_a_per_subset_scan(p):
    for s in range(1, 13):
        order = PrimePowerOrder(p, s)
        items, k = tuple(range(s)), s // 2
        subsets = {mask: tuple(x for x in items if mask >> x & 1) for mask in range(1, 2**s)}
        energies = {mask: energy_prime_power(order, a) for mask, a in subsets.items()}
        # Every full row: its best energy and every low half that attains it.
        row = _prime_power_halves(order, items, k)
        for h in range(1, 2 ** (s - k)):
            values = [energies[h << k | l] for l in range(2**k)]
            top, lows = row(h)
            assert (top, list(lows)) == (
                max(values), [l for l, v in enumerate(values) if v == max(values)]
            ), (s, h)
        best = max(energies.values())
        report = brute_force_emax_prime_power(order)
        assert report.emax == best
        assert report.maximizers == tuple(
            sorted(divisor_set_of(a, order) for m, a in subsets.items() if energies[m] == best)
        )
        assert report.examined == 2**s - 1


def test_items_are_validated_once_per_search_not_per_subset(monkeypatch):
    calls = []
    for name in ("check_exponent_tuple", "check_divisor_set"):
        original = getattr(model, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in (icgraph, model, energy, search):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    # 3^10 and 2^10 = 1024 both have 2^10 - 1 subsets.
    report = brute_force_emax_prime_power(PrimePowerOrder(3, 10))
    assert report.examined == 2**10 - 1
    # the items once, then each maximizer once as it becomes a divisor set
    assert calls == ["check_exponent_tuple"] * (1 + len(report.maximizers))
    calls.clear()
    report = brute_force_emax_general(1024)
    assert report.examined == 2**10 - 1
    assert calls == ["check_divisor_set"]


def test_prime_power_brute_force_at_the_exponent_cap():
    order = PrimePowerOrder(2, 20)
    report = brute_force_emax_prime_power(order)
    value, tuples = emax_closed(order)
    assert report.emax == value
    assert sorted(report.maximizers) == sorted(divisor_set_of(a, order) for a in tuples)
    assert report.examined == 2**20 - 1
    assert brute_force_emax_prime_power(order, jobs=2) == report


def test_enumeration_memory_grows_with_half_the_exponent():
    # The half tables hold 2 * 2^9 states at s = 18; a table over all
    # 2^18 subsets would take tens of megabytes.
    tracemalloc.start()
    try:
        brute_force_emax_prime_power(PrimePowerOrder(3, 18))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# ---------------------------------------------------------------- theorem verification

@pytest.mark.parametrize("p", [2, 3, 5])
def test_verify_theorem_grid(p):
    for s in range(1, 6):
        ok, problems = verify_theorem(PrimePowerOrder(p, s))
        assert ok, problems
        assert problems == []


# ---------------------------------------------------------------- reduction identity

def test_derivative_known():
    a = (0, 3, 5, 7, 9, 11, 13, 15, 16, 20, 23)
    assert derivative(a, 3, 8) == (0, 3, 5, 8, 10, 12, 14, 16, 20, 23)
    assert derivative((0, 1, 2), 1, 2) == (0, 2)


def test_derivative_validation():
    with pytest.raises(ValueError):
        derivative((0, 3), 1, 1)
    with pytest.raises(ValueError):
        derivative((0, 1, 4), 0, 2)
    with pytest.raises(ValueError):
        derivative((0, 1, 4), 1, 3)
    with pytest.raises(ValueError):
        derivative((0, 1, 4), 2, 1)


@given(exponent_tuples(max_s=16, min_middle=1), st.sampled_from(SMALL_PRIMES))
def test_derivative_shrinks_by_one_and_stays_admissible(sa, p):
    s, a = sa
    r = len(a)
    out = derivative(a, 1, r - 1)
    assert len(out) == r - 1
    assert out[0] == 0 and out[-1] == s - 1
    assert all(x < y for x, y in zip(out, out[1:]))


def test_reduction_identity_on_known_instance():
    a_prime = (0, 3, 5, 7, 9, 11, 13, 15, 16, 20, 23)
    for p in (2, 3, 5, 7):
        assert tableau_reduction_check(p, a_prime, 3, 8)


def test_reduction_identity_rejects_uneven_middle_gaps():
    a = (0, 3, 5, 6, 8, 10, 12, 15, 16, 20, 23)
    with pytest.raises(ValueError):
        tableau_reduction_check(3, a, 3, 8)


@given(exponent_tuples(max_s=16, min_middle=1), st.sampled_from(SMALL_PRIMES))
def test_reduction_identity_holds_whenever_the_gap_condition_does(sa, p):
    s, a = sa
    r = len(a)
    checked = 0
    for u in range(1, r - 1):
        for v in range(u + 1, r):
            if all(a[j] - a[j - 1] == 2 for j in range(u + 1, v)):
                assert tableau_reduction_check(p, a, u, v)
                checked += 1
    assert checked >= r - 2  # v = u + 1 always qualifies


def test_rectangle_bookkeeping_identity():
    # Two tuples differing by a +1 shift on positions 4..7 (1-based): the
    # h difference reduces to two rectangles of the pairwise-difference
    # tableau, one picking up a factor 1/p, the other a factor p.
    a = (0, 3, 5, 6, 8, 10, 12, 15, 16, 20, 23)
    b = (0, 3, 5, 7, 9, 11, 13, 15, 16, 20, 23)
    from fractions import Fraction

    for p in (2, 3, 5, 7, 11):
        upper = sum(
            Fraction(1, p ** (a[i] - a[k])) - Fraction(1, p ** (a[i] - a[k] + 1))
            for k in range(0, 3)
            for i in range(3, 7)
        )
        lower = sum(
            Fraction(1, p ** (a[i] - a[k])) - Fraction(1, p ** (a[i] - a[k] - 1))
            for k in range(3, 7)
            for i in range(7, 11)
        )
        assert h_value(p, a) - h_value(p, b) == upper + lower
