"""Brute-force enumeration, closed-form verification and the reduction identity."""

import concurrent.futures
import itertools
import os
import subprocess
import sys
import tracemalloc
from functools import partial

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
from icgraph.search import (
    ENUMERATION_N_CAP,
    POOL_MIN_WORK,
    PRIME_POWER_EXPONENT_CAP,
    _best_subsets,
    _general_halves,
    _mask_range_chunks,
    _prime_power_halves,
)
from icgraph.oracles import derivative, tableau_reduction_check

from helpers import SMALL_PRIMES, exponent_tuples, src_env


# ---------------------------------------------------------------- brute force

def test_prime_power_brute_force_small_known():
    report = brute_force_emax_prime_power(PrimePowerOrder(2, 2))
    assert report.emax == 6
    assert report.maximizers == ((1, 2),)
    assert report.examined == 3


def test_prime_power_brute_force_counts_all_subsets():
    report = brute_force_emax_prime_power(PrimePowerOrder(3, 5))
    assert report.examined == 2**5 - 1


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
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
    while p**s <= ENUMERATION_N_CAP:
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


@pytest.fixture
def pool_starts(monkeypatch):
    """Record the worker count of every process pool started; the pools still run.

    Two CPUs are assumed, so the CPU clamp never decides alone.
    """
    starts = []
    real = concurrent.futures.ProcessPoolExecutor

    class CountingPool(real):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    return starts


def test_parallel_chunks_merge_to_the_same_report(pool_starts, monkeypatch):
    # Both runs are below the pool floor; lower it so they still use a pool.
    monkeypatch.setattr(search, "POOL_MIN_WORK", 1)
    order = PrimePowerOrder(2, 8)
    assert brute_force_emax_prime_power(order, jobs=3) == brute_force_emax_prime_power(
        order
    )
    assert brute_force_emax_general(60, jobs=2) == brute_force_emax_general(60)
    assert pool_starts == [2, 2]


def test_pools_start_only_from_the_work_floor(pool_starts):
    # 3^16 and 2^8: 2^s - 1 subsets of width 1; 60 and 72 (12 divisors):
    # 2^11 - 1 subsets of width 12. All stay in one process.
    for order in (PrimePowerOrder(3, 16), PrimePowerOrder(2, 8)):
        report = brute_force_emax_prime_power(order, jobs=2)
        assert report == brute_force_emax_prime_power(order)
    for n in (60, 72):
        assert brute_force_emax_general(n, jobs=2) == brute_force_emax_general(n)
    assert pool_starts == []
    # 120 (16 divisors): (2^15 - 1) * 16 units of work, above the floor.
    assert brute_force_emax_general(120, jobs=2) == brute_force_emax_general(120)
    assert pool_starts == [2]
    # The smallest s with 2^s - 1 >= POOL_MIN_WORK.
    order = PrimePowerOrder(2, POOL_MIN_WORK.bit_length())
    assert brute_force_emax_prime_power(order, jobs=2) == brute_force_emax_prime_power(
        order
    )
    assert pool_starts == [2, 2]


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
    # Only a run with more than one worker imports the process pool.
    proc = _pool_modules_loaded_after("pass")
    assert proc.returncode == 0, proc.stderr.decode()


def test_pool_modules_are_not_imported_below_the_work_floor():
    proc = _pool_modules_loaded_after(
        "icgraph.verify_theorem(icgraph.PrimePowerOrder(3, 12), jobs=2)"
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_worker_chunks_never_outnumber_the_cpus():
    # Pure arithmetic: no process is started. Each chunk is one worker.
    chunks = _mask_range_chunks(2**20, 10**6, 1)
    assert len(chunks) <= (os.cpu_count() or 1)
    assert chunks[0][0] == 1 and chunks[-1][1] == 2**20
    assert all(hi == lo for (_, hi), (lo, _) in zip(chunks, chunks[1:]))
    # Work (total - 1) * width below POOL_MIN_WORK gives one chunk; from
    # the floor on, as many as jobs and CPUs allow.
    workers = min(2, os.cpu_count() or 1)
    for total, width in ((POOL_MIN_WORK, 1), (2**13, 14), (2**11, 12)):
        assert _mask_range_chunks(total, 2, width) == [(1, total)]
    for total, width in ((POOL_MIN_WORK + 1, 1), (2**15, 16), (2**14, 15)):
        assert len(_mask_range_chunks(total, 2, width)) == workers


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
    with pytest.raises(ResourceLimitError):
        brute_force_emax_general(ENUMERATION_N_CAP + 1)
    # 2310 = 2*3*5*7*11 has 31 proper divisors: too many subsets.
    with pytest.raises(ResourceLimitError):
        brute_force_emax_general(2310)


def test_report_requires_a_maximizer():
    with pytest.raises(ValueError):
        MaximizerReport(n=4, emax=6, maximizers=(), examined=3)


# ---------------------------------------------------------------- split-half enumerator

def _oracle(score, items, lo, hi):
    """Plain max over itertools.combinations, restricted to the masks in [lo, hi)."""
    best, ties, examined = -1, [], 0
    for size in range(1, len(items) + 1):
        for combo in itertools.combinations(items, size):
            if lo <= sum(1 << items.index(x) for x in combo) < hi:
                examined += 1
                value = score(combo)
                if value > best:
                    best, ties = value, [combo]
                elif value == best:
                    ties.append(combo)
    return best, sorted(ties), examined


def _chunk(halves, items, lo, hi):
    best, ties, examined = _best_subsets(halves, items, lo, hi)
    return best, sorted(ties), examined


def _edge_ranges(length):
    """Whole range, single masks, and ranges that start or end inside a half."""
    k, top = length // 2, 2**length
    ranges = [(1, top), (1, 2), (top - 1, top), (top // 2, top // 2 + 1)]
    if length >= 4:
        ranges += [((1 << k) - 1, (1 << k) + 1), (3, top - 5), ((1 << k) + 3, 3 << k | 2)]
    return ranges


@st.composite
def mask_ranges(draw, length):
    lo = draw(st.integers(1, 2**length - 1))
    return lo, draw(st.integers(lo + 1, 2**length))


@st.composite
def prime_power_chunks(draw):
    order = PrimePowerOrder(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 10)))
    return order, draw(mask_ranges(order.s))


@st.composite
def general_chunks(draw):
    n = draw(st.integers(2, 400).filter(lambda m: len(divisors(m)) <= 12))
    return n, draw(mask_ranges(len(divisors(n)) - 1))


@given(prime_power_chunks())
def test_prime_power_chunks_match_a_direct_scan(case):
    order, (lo, hi) = case
    items = tuple(range(order.s))
    assert _chunk(partial(_prime_power_halves, order), items, lo, hi) == _oracle(
        partial(energy_prime_power, order), items, lo, hi
    )


@given(general_chunks())
def test_general_chunks_match_a_direct_scan(case):
    n, (lo, hi) = case
    items = tuple(divisors(n)[:-1])
    assert _chunk(partial(_general_halves, n), items, lo, hi) == _oracle(
        partial(energy_general, n), items, lo, hi
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("s", [1, 2, 7, 8, 9, 10])
def test_prime_power_chunks_match_at_half_edges(p, s):
    order = PrimePowerOrder(p, s)
    items = tuple(range(s))
    for lo, hi in _edge_ranges(s):
        assert _chunk(partial(_prime_power_halves, order), items, lo, hi) == _oracle(
            partial(energy_prime_power, order), items, lo, hi
        ), (lo, hi)


# 12, 36, 48, 60 and 64 have 5, 8, 9, 11 and 6 proper divisors
@pytest.mark.parametrize("n", [12, 36, 48, 60, 64])
def test_general_chunks_match_at_half_edges(n):
    items = tuple(divisors(n)[:-1])
    for lo, hi in _edge_ranges(len(items)):
        assert _chunk(partial(_general_halves, n), items, lo, hi) == _oracle(
            partial(energy_general, n), items, lo, hi
        ), (lo, hi)


def test_items_are_validated_once_per_chunk_not_per_subset(monkeypatch):
    calls = []
    for name in ("check_exponent_tuple", "check_divisor_set"):
        original = getattr(model, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in (icgraph, model, energy, search):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    # 3^10 and 2^10 = 1024 both have 2^10 - 1 subsets, searched as one chunk.
    report = brute_force_emax_prime_power(PrimePowerOrder(3, 10))
    assert report.examined == 2**10 - 1
    # the chunk's items once, then each maximizer once as it becomes a divisor set
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
