"""Brute-force enumeration, closed-form verification and the reduction identity."""

import itertools
import json
import math
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import partial
from operator import add
from pathlib import Path

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
    _best_subsets,
    _discrepancies,
    _general_halves,
    _hull_maximum,
    _ties,
    _prime_power_hulls,
    _report,
    _upper_hull,
)

from helpers import SMALL_PRIMES, every_construction, exponent_tuples, src_env
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
@pytest.mark.parametrize("s", range(1, 21))
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
    # Spectral energies on packed rows (general n) against pair-sum
    # energies on the upper hull (p^s): two searches that share no code.
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
    for build in every_construction(MaximizerReport(4, 6, ((1, 2),), 3), {"maximizers": ()}):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == "a maximizer report needs at least one maximizer"


def test_report_is_an_immutable_named_tuple():
    report = brute_force_emax_prime_power(PrimePowerOrder(2, 3))
    for name in ("n", "emax", "maximizers", "examined", "other"):
        with pytest.raises(AttributeError):
            setattr(report, name, 0)
    assert repr(report) == (
        "MaximizerReport(n=8, emax=14, maximizers=((1, 2, 4), (1, 4)), examined=7)"
    )
    assert report == (8, 14, ((1, 2, 4), (1, 4)), 7)
    n, emax, maximizers, examined = report
    again = MaximizerReport(n=n, emax=emax, maximizers=maximizers, examined=examined)
    assert again == report and hash(again) == hash(report)
    back = pickle.loads(pickle.dumps(report))
    assert back == report and type(back) is MaximizerReport


# ---------------------------------------------------------------- searches against a direct scan

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


def _hull_maxima(p, s, smax):
    """Best energy of p^s off the walk over smax, and every exponent tuple attaining it."""
    hull = list(_prime_power_hulls(p, smax))[s - 1]
    best = max(g for _, g in hull)
    # The last step keeps only the points no exponent is left to beat.
    assert s < smax or all(g == best for _, g in hull)
    energy, rest = divmod(2 * (p - 1) * best, p ** (smax - s))
    assert rest == 0
    # Each P is sum p^x over its set, so the set is P's base-p digits equal to 1.
    return energy, sorted(
        tuple(x for x in range(s) if P // p**x % p) for P, g in hull if g == best
    )


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 10), st.integers(0, 5))
def test_prime_power_search_matches_a_direct_scan(p, s, more):
    assert _hull_maxima(p, s, s + more) == _oracle(
        partial(energy_prime_power, PrimePowerOrder(p, s)), tuple(range(s))
    )


@given(st.integers(2, 400).filter(lambda m: len(divisors(m)) <= 12))
def test_general_search_matches_a_direct_scan(n):
    items = tuple(divisors(n)[:-1])
    assert _best_subsets(n, items) == _oracle(
        partial(energy_general, n), items
    )


# 7, 4, 12, 36, 48, 60 and 64 have 1, 2, 5, 8, 9, 11 and 6 proper divisors
@pytest.mark.parametrize("n", [7, 4, 12, 36, 48, 60, 64])
def test_general_search_matches_a_direct_scan_at_split_sizes(n):
    items = tuple(divisors(n)[:-1])
    assert _best_subsets(n, items) == _oracle(
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


def _assert_rows_match_the_per_subset_sum(n, units, k):
    """Every row of _general_halves, split at k, against sum_g |x_g| over each low subset."""

    def table(vectors):
        states = [(0,) * len(units[0])]
        for u in vectors:
            states += [tuple(map(add, v, u)) for v in states]
        return states

    low, high = table(units[:k]), table(units[k:])
    row = _general_halves(n, tuple(divisors(n)[:-1]), k)
    for h, u in enumerate(high):
        values = [sum(map(abs, map(add, u, v))) for v in low]
        best = max(values)
        top, lows = row(h)
        assert (top, list(lows)) == (best, [l for l, v in enumerate(values) if v == best]), h


@pytest.mark.parametrize("n", [12, 60, 64, 120, 7735])
def test_general_rows_match_the_per_subset_sum(n):
    # Every split, from one low subset per row (k = 0) to all in one row.
    units = _general_units(n)[1]
    for k in range(len(units) + 1):
        _assert_rows_match_the_per_subset_sum(n, units, k)


# A row spans 2^11 low subsets, or all of them: up to 12 divisors (11
# proper) the search is one row, and at 16 divisors 2^(15 - 11) rows.
@pytest.mark.parametrize("n, rows", [(2, 1), (12, 1), (60, 1), (72, 1), (120, 16), (210, 16)])
def test_general_search_takes_few_wide_rows(monkeypatch, n, rows):
    calls = []

    def counting(*args):
        row = _general_halves(*args)
        return lambda h: calls.append(h) or row(h)

    monkeypatch.setattr(search, "_general_halves", counting)
    brute_force_emax_general(n)
    assert calls == list(range(rows))


def test_general_search_memory_at_the_subset_cap():
    # 2^20 - 1 subsets of 576 in 2^9 rows of 2^11 16-bit fields: the class
    # columns and the high table take well under a megabyte.
    brute_force_emax_general(576)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        brute_force_emax_general(576)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# Sixteen divisors each: 120 has 8 tied maximizers, 210 is squarefree (no
# Ramanujan sum c_{n/d}(g) is 0), 7735 and 9867 fill 21-bit fields (9867's
# bound is 1267200).
@pytest.mark.parametrize("n, ties", [(120, 8), (210, 1), (7735, 2), (9867, 2)])
def test_general_search_at_sixteen_divisors_matches_a_per_subset_scan(n, ties):
    best, maximizers = _oracle(partial(energy_general, n), tuple(divisors(n)[:-1]))
    assert len(maximizers) == ties
    report = brute_force_emax_general(n, jobs=2)
    assert report == MaximizerReport(n, best, tuple(maximizers), 2**15 - 1)


# The sweep's stored maxima: every n <= 300 with 6, 12 or 16 divisors, as
# benchmarks/oracles.general_maximum enumerated them with sympy and a Gray
# code, sharing no code with the spectral kernel. The same oracle gave the
# maxima at the subset cap: two n <= 10^6 drawn (seed 26) for each tau(n)
# of 18, 20 and 21, the only one of 19 (2^18), and 576 and 817216. Both
# files are only read here.
TESTS = Path(__file__).resolve().parent
GENERAL_MAXIMA = {
    **json.loads((TESTS.parent / "benchmarks" / "data" / "general_maxima.json").read_text()),
    **json.loads((TESTS / "data" / "general_maxima_at_cap.json").read_text()),
}


@pytest.mark.parametrize("n", sorted(map(int, GENERAL_MAXIMA)))
def test_general_search_matches_the_stored_oracle_maxima(n):
    stored = GENERAL_MAXIMA[str(n)]
    report = brute_force_emax_general(n)
    assert (report.emax, report.maximizers, report.examined) == (
        int(stored["emax"]),
        tuple(map(tuple, stored["maximizers"])),
        stored["examined"],
    )


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


@pytest.mark.parametrize("n", [6, 12])
def test_general_fields_are_the_narrowest_the_bound_allows(monkeypatch, n):
    # Scaling every class column by f scales the bound by f: the largest f
    # that keeps it under 2^15 reads the rows back as 2-byte (16-bit)
    # fields, and f + 1 (a bound at or past 2^15) as 4-byte ones.
    bits, size, wider = 15, 2, 4
    counts, units = _general_units(n)
    bound = len(counts) * max(sum(map(abs, column)) for column in zip(*units))
    f = (2**bits - 1) // bound
    by_d = dict(zip(divisors(n), units))
    sizes = []

    def spy(packed, best, field_size, count):
        sizes.append(field_size)
        return _ties(packed, best, field_size, count)

    monkeypatch.setattr(search, "_ties", spy)
    for factor, expected in ((f, size), (f + 1, wider)):
        assert (factor * bound < 2**bits) == (expected == size)
        scaled = {d: tuple(factor * x for x in u) for d, u in by_d.items()}
        monkeypatch.setattr(search, "_class_columns", lambda m, ds: [scaled[d] for d in ds])
        for k in range(len(scaled) + 1):
            sizes.clear()
            _assert_rows_match_the_per_subset_sum(n, list(scaled.values()), k)
            assert set(sizes) == {expected}


@pytest.mark.parametrize("n", [12, 60, 120])
def test_general_rows_do_not_depend_on_the_byte_order(monkeypatch, n):
    # The rows are read as little-endian bytes whatever the host's order.
    monkeypatch.setattr(sys, "byteorder", "big")
    units = _general_units(n)[1]
    for k in range(len(units) + 1):
        _assert_rows_match_the_per_subset_sum(n, units, k)


def _packed(values, size):
    """values as consecutive little-endian size-byte fields of one int, value l at field l."""
    return sum(v << (8 * size * l) for l, v in enumerate(values))


@pytest.mark.parametrize("size", [2, 4])
def test_ties_skip_a_match_that_straddles_two_fields(size):
    # The needle's bytes 01 02 .. sit across fields 0 and 1, half a field
    # in, before the aligned copy in field 2.
    needle = bytes(range(1, size + 1))
    half = size // 2
    data = bytes(half) + needle + bytes(half) + needle
    values = [int.from_bytes(data[l * size : (l + 1) * size], "little") for l in range(3)]
    best = int.from_bytes(needle, "little")
    assert values[:2] != [best, best] and values[2] == best
    assert data.find(needle) == half
    assert list(_ties(_packed(values, size), best, size, 3)) == [2]


@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize("count", [1, 2, 8, 2**11])
def test_ties_yield_every_field_when_all_tie(size, count):
    for best in (0, 1, 0x7F7F, 2 ** (8 * size - 1) - 1):
        packed = _packed([best] * count, size)
        assert list(_ties(packed, best, size, count)) == list(range(count))


def test_general_rows_with_constant_lows_tie_in_every_field(monkeypatch):
    # Zero columns below the split leave every low subset of a row at the
    # high half's energy, so all 2^k fields of each row tie.
    ones = [(3, -5, 7), (-2, 2, 0), (1, 1, -4)]
    for k in range(4):
        units = [(0, 0, 0)] * k + ones
        monkeypatch.setattr(search, "_class_columns", lambda m, ds: units)
        row = _general_halves(2, (1,), k)
        for h in range(1 << len(ones)):
            top, lows = row(h)
            assert list(lows) == list(range(1 << k))
        _assert_rows_match_the_per_subset_sum(2, units, k)


@given(
    st.integers(1, 7).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-300, 300), min_size=3, max_size=3).map(tuple),
            min_size=m,
            max_size=m,
        )
    ),
    st.sampled_from([1, 50]),
)
def test_general_rows_match_the_per_subset_sum_on_random_columns(units, factor):
    # A factor of 50 takes many bounds past 2^15, and the rows to 32-bit fields.
    units = [tuple(factor * x for x in u) for u in units]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_class_columns", lambda m, ds: units)
        for k in range(len(units) + 1):
            _assert_rows_match_the_per_subset_sum(2, units, k)


# ---------------------------------------------------------------- upper hull

def test_upper_hull_keeps_collinear_and_end_points():
    # (1, 1), (2, 2) and (3, 3) lie on the chord from (0, 0) to (4, 4).
    line = [(x, x) for x in range(5)]
    assert _upper_hull(line) == line
    assert _upper_hull([(5, 7)]) == [(5, 7)]
    assert _upper_hull([(0, 3), (1, -9)]) == [(0, 3), (1, -9)]


def test_upper_hull_drops_points_strictly_below_it():
    points = [(0, 0), (1, 3), (2, 2), (3, 4), (4, 1), (5, 0), (6, -2)]
    # (2, 2) is below the chord (1, 3)-(3, 4) and (4, 1) below (3, 4)-(5, 0);
    # (5, 0) is on the chord (3, 4)-(6, -2) and stays.
    assert _upper_hull(points) == [(0, 0), (1, 3), (3, 4), (5, 0), (6, -2)]
    # A later point can drop several: (7, -3) puts (6, -2) and then (5, 0)
    # strictly below the chords it makes.
    assert _upper_hull(points + [(7, -3)]) == [(0, 0), (1, 3), (3, 4), (7, -3)]
    assert _upper_hull([(0, 0), (1, -1), (2, 0)]) == [(0, 0), (2, 0)]
    flat = [(0, 0), (1, 1), (2, 1), (3, 1), (4, 0)]
    assert _upper_hull(flat) == flat


def _neighbour_filter(chain, bound):
    """Chain points whose left edge does not fall and whose right edge rises by at most bound."""
    left, right = [chain[0]] + chain, chain[1:] + [chain[-1]]
    return [
        (P, g)
        for (_, prev), (P, g), (nP, ng) in zip(left, chain, right)
        if g >= prev and ng - g <= bound * (nP - P)
    ]


@st.composite
def upper_chains(draw):
    """Points of strictly increasing x whose edge slopes, some fractions, some equal, never rise."""
    x, y = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    edges = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 3)), max_size=7))
    chain = [(x, y)]
    for num, den in sorted(edges, key=lambda e: Fraction(-e[0], e[1])):
        step = draw(st.integers(1, 3))
        x, y = x + den * step, y + num * step
        chain.append((x, y))
    return chain


@given(upper_chains(), st.integers(0, 12))
def test_hull_cut_matches_the_neighbour_filter(chain, bound):
    # The first step of a walk with smax = 2 prunes the chain _upper_hull
    # returns at bound p - 1; the walk's arithmetic needs no prime p.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_upper_hull", lambda points: chain)
        assert next(_prime_power_hulls(bound + 1, 2)) == _neighbour_filter(chain, bound)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("s", range(1, 13))
def test_hull_search_matches_a_per_subset_scan(p, s):
    order = PrimePowerOrder(p, s)
    best, ties = _oracle(partial(energy_prime_power, order), tuple(range(s)))
    assert _hull_maxima(p, s, s) == _hull_maxima(p, s, 12) == (best, ties)
    report = brute_force_emax_prime_power(order)
    assert report == MaximizerReport(
        order.n, best, tuple(divisor_set_of(a, order) for a in ties), 2**s - 1
    )


def _assert_search_matches_the_closed_form(order):
    # emax_closed builds its maximizers from the paper's theorem and shares
    # no code with the hull.
    value, tuples = emax_closed(order)
    report = brute_force_emax_prime_power(order)
    assert report.emax == value, order
    assert report.maximizers == tuple(sorted(divisor_set_of(a, order) for a in tuples)), order
    assert report.examined == 2**order.s - 1
    assert verify_theorem(order) == (True, [])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 97, 1009])
def test_search_past_s_20_matches_the_closed_form(p):
    for s in range(21, 101):
        _assert_search_matches_the_closed_form(PrimePowerOrder(p, s))


@pytest.mark.parametrize("p, s", [(2, 1000), (7, 200)])
def test_search_far_past_s_20_matches_the_closed_form(p, s):
    _assert_search_matches_the_closed_form(PrimePowerOrder(p, s))


def test_hull_steps_stay_small(monkeypatch):
    # Without the pruning the last step would pass 4 smax - 2 points.
    sizes = []

    def counting(points):
        sizes.append(len(points))
        return _upper_hull(points)

    monkeypatch.setattr(search, "_upper_hull", counting)
    for p in (2, 3, 5, 7, 11, 13):
        for smax in range(1, 61):
            sizes.clear()
            for _ in _prime_power_hulls(p, smax):
                pass
            assert len(sizes) == smax and max(sizes) <= 6, (p, smax, max(sizes))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 97, 1009])
def test_one_walk_reads_off_every_exponent_up_to_smax(p):
    # emax_closed shares no code with the hull; every smax <= 60 and s <= smax.
    for smax in range(1, 61):
        for s, hull in enumerate(_prime_power_hulls(p, smax), 1):
            order = PrimePowerOrder(p, s)
            value, tuples = emax_closed(order)
            expected = tuple(sorted(divisor_set_of(a, order) for a in tuples))
            report = _report(order, smax, hull)
            assert (report.emax, report.maximizers) == (value, expected), (p, s, smax)
            assert _discrepancies(order, (value, tuples), *_hull_maximum(p, s, smax, hull)) == []


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
    # The hull builds each maximizer's divisor set from its state: nothing to check.
    assert calls == []
    calls.clear()
    report = brute_force_emax_general(1024)
    assert report.examined == 2**10 - 1
    assert calls == ["check_divisor_set"]


def test_prime_power_brute_force_at_s_20():
    order = PrimePowerOrder(2, 20)
    report = brute_force_emax_prime_power(order)
    value, tuples = emax_closed(order)
    assert report.emax == value
    assert sorted(report.maximizers) == sorted(divisor_set_of(a, order) for a in tuples)
    assert report.examined == 2**20 - 1
    assert brute_force_emax_prime_power(order, jobs=2) == report


@pytest.mark.parametrize("p", [2, 7])
def test_search_memory_stays_flat_in_the_exponent(p):
    # The hull holds at most 6 states at a step; the half tables of a
    # meet-in-the-middle search took 230-295 KiB at s = 20.
    order = PrimePowerOrder(p, 20)
    brute_force_emax_prime_power(order)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        brute_force_emax_prime_power(order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


# ---------------------------------------------------------------- theorem verification

@pytest.mark.parametrize("p", [2, 3, 5])
def test_verify_theorem_grid(p):
    for s in range(1, 6):
        ok, problems = verify_theorem(PrimePowerOrder(p, s))
        assert ok, problems
        assert problems == []


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int-str limit"
)
def test_verify_theorem_returns_discrepancies_past_the_digit_limit(monkeypatch):
    # With any s accepted, a report's numbers can pass the int-to-str digit
    # limit; a discrepancy must still come back as a message, not raise.
    # The wrong maximizer is a real divisor set, {p^(s-1)}, so the sum the
    # comparison keys it by decodes back to it.
    order = PrimePowerOrder(10007, 1077)
    top = 10007**1076  # 4305 digits
    report = MaximizerReport(n=order.n, emax=top, maximizers=((top,),), examined=2**1077 - 1)
    monkeypatch.setattr(search, "brute_force_emax_prime_power", lambda order, jobs: report)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        ok, problems = verify_theorem(order)
    finally:
        sys.set_int_max_str_digits(limit)
    shown = "21232257298627579712\u2026 (4305 digits)"
    emax = "22899822257608928036\u2026 (4312 digits)"
    assert len(problems) == 2 and not ok
    assert problems[0] == f"10007^1077: closed form gives {emax}, enumeration gives {shown}"
    assert problems[1].startswith("10007^1077: closed-form maximizers ((1, 100140049, ")
    assert problems[1].endswith(f") != enumerated (({shown},),)")


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
