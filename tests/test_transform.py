"""Rewrite rules on delta vectors: preconditions, energy effects, termination."""

import functools
import pickle
import random
import re
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icgraph import (
    PrimePowerOrder,
    TransformLabel,
    TransformStep,
    applicable,
    apply_rule,
    canonical_maximizer,
    delta,
    delta_inverse,
    emax_closed,
    energy_prime_power,
    normalize,
)
from icgraph import energy, transform
from icgraph.numtheory import check_int
from icgraph.transform import Trace

from helpers import SMALL_PRIMES, direct_energy, every_construction, exponent_tuples


def _energy(p, d):
    s = sum(d) + 1
    return energy_prime_power(PrimePowerOrder(p, s), delta_inverse(d))


# ---------------------------------------------------------------- single rules

Ia, Ib, II, III, IV, V = TransformLabel  # definition order
P = 3  # the prime matters only to rule III's strict flag


def test_rule_Ia_splits_large_entries():
    assert apply_rule((4,), Ia, 1, None, P) == ((2, 2), True)
    assert apply_rule((2, 5, 2), Ia, 2, None, P) == ((2, 2, 3, 2), True)
    assert apply_rule((5, 1, 6), Ia, 3, None, P) == ((5, 1, 2, 4), True)


def test_rule_Ia_applies_even_when_not_the_maximum():
    # Only d_u >= 4 matters; a larger entry elsewhere does not block it.
    assert apply_rule((4, 1, 6), Ia, 1, None, P) == ((2, 2, 1, 6), True)


def test_rule_Ia_rejects_small_entries():
    with pytest.raises(ValueError):
        apply_rule((3, 2), Ia, 1, None, P)
    with pytest.raises(ValueError):
        apply_rule((4,), Ia, 2, None, P)


def test_rule_Ib_splits_a_three_when_all_entries_exceed_one():
    assert apply_rule((3,), Ib, 1, None, P) == ((2, 1), True)
    assert apply_rule((2, 3, 2), Ib, 2, None, P) == ((2, 2, 1, 2), True)


def test_rule_Ib_rejects_wrong_context():
    with pytest.raises(ValueError):
        apply_rule((3, 1), Ib, 1, None, P)
    with pytest.raises(ValueError):
        apply_rule((4, 3), Ib, 2, None, P)
    with pytest.raises(ValueError):
        apply_rule((2, 2), Ib, 1, None, P)


def test_rule_II_rebalances_one_three_pairs():
    assert apply_rule((1, 3), II, 1, 2, P) == ((2, 2), True)
    assert apply_rule((3, 1), II, 1, 2, P) == ((2, 2), True)
    assert apply_rule((1, 2, 2, 3), II, 1, 4, P) == ((2, 2, 2, 2), True)
    assert apply_rule((5, 3, 2, 1), II, 2, 4, P) == ((5, 2, 2, 2), True)


def test_rule_II_requires_all_twos_between():
    with pytest.raises(ValueError):
        apply_rule((1, 3, 3), II, 1, 3, P)
    with pytest.raises(ValueError):
        apply_rule((1, 1, 3), II, 1, 3, P)
    with pytest.raises(ValueError):
        apply_rule((2, 2), II, 1, 2, P)


def test_rule_III_merges_two_ones():
    assert apply_rule((1, 2, 1), III, 1, 3, 3) == ((2, 2), True)
    assert apply_rule((2, 1, 1, 2), III, 2, 3, 2) == ((2, 2, 2), True)
    assert apply_rule((1, 1), III, 1, 2, 3) == ((2,), True)


def test_rule_III_energy_preserving_case_is_flagged():
    out, strict = apply_rule((1, 2, 2, 1), III, 1, 4, 2)
    assert out == (2, 2, 2)
    assert strict is False
    # Same shape at an odd prime is strict.
    out, strict = apply_rule((1, 2, 2, 1), III, 1, 4, 3)
    assert strict is True
    # p = 2 but not spanning the whole vector is strict.
    out, strict = apply_rule((2, 1, 2, 1), III, 2, 4, 2)
    assert strict is True


def test_rule_IV_merges_two_threes():
    assert apply_rule((3, 3), IV, 1, 2, P) == ((2, 2, 2), True)
    assert apply_rule((3, 2, 3), IV, 1, 3, P) == ((2, 2, 2, 2), True)
    assert apply_rule((2, 3, 2, 3, 1), IV, 2, 4, P) == ((2, 2, 2, 2, 2, 1), True)


def test_rule_V_shifts_a_single_interior_one_to_the_end():
    assert apply_rule((2, 1, 2), V, 2, None, P) == ((2, 2, 1), True)
    assert apply_rule((2, 2, 1, 2, 2), V, 3, None, P) == ((2, 2, 2, 2, 1), True)


def test_rule_V_rejects_wrong_context():
    with pytest.raises(ValueError):
        apply_rule((1, 2, 2), V, 1, None, P)
    with pytest.raises(ValueError):
        apply_rule((2, 2, 1), V, 3, None, P)
    with pytest.raises(ValueError):
        apply_rule((2, 1, 3), V, 2, None, P)


def test_rules_preserve_the_entry_sum():
    cases = [
        (apply_rule((2, 5, 2), Ia, 2, None, P)[0], (2, 5, 2)),
        (apply_rule((2, 3, 2), Ib, 2, None, P)[0], (2, 3, 2)),
        (apply_rule((1, 2, 3), II, 1, 3, P)[0], (1, 2, 3)),
        (apply_rule((1, 2, 1), III, 1, 3, 5)[0], (1, 2, 1)),
        (apply_rule((3, 2, 3), IV, 1, 3, P)[0], (3, 2, 3)),
        (apply_rule((2, 1, 2), V, 2, None, P)[0], (2, 1, 2)),
    ]
    for after, before in cases:
        assert sum(after) == sum(before)


@pytest.mark.parametrize(
    "label, u, v",
    [
        (Ia, True, None),  # True == 1, but a bool is no position
        ("Ia", 1, None),  # a str equals its label, but is not one
        (Ia, 1.0, None),
        (Ia, 1, 2),  # Ia takes no v
        (III, 1, 2),  # listed nowhere by applicable
    ],
)
def test_apply_rule_refuses_instances_applicable_does_not_list(label, u, v):
    d = (4, 1)
    assert applicable(d) == [(Ia, 1, None)]
    with pytest.raises(ValueError):
        apply_rule(d, label, u, v, P)


@pytest.mark.parametrize("p", [2.0, 4, "x", None, True, -7])
def test_apply_rule_refuses_a_p_that_is_not_a_prime_int(p):
    d = (1, 2, 2, 1)
    assert (III, 1, 4) in applicable(d)
    with pytest.raises(ValueError):
        apply_rule(d, III, 1, 4, p)


# ---------------------------------------------------------------- applicability

def _reference_applicable(d):
    """Every (label, u, v) tried against the rule table, each precondition as written."""
    d = tuple(d)
    pos = range(1, len(d) + 1)

    def at(u):
        return d[u - 1]

    def all_two_gap(u, v):
        return all(at(w) == 2 for w in range(u + 1, v))

    pairs = [(u, v) for u in pos for v in pos if u < v and all_two_gap(u, v)]
    out = [(Ia, u, None) for u in pos if at(u) >= 4]
    out += [(Ib, u, None) for u in pos if at(u) == 3 == max(d) and min(d) >= 2]
    for label, ends in ((II, {(1, 3), (3, 1)}), (III, {(1, 1)}), (IV, {(3, 3)})):
        out += [(label, u, v) for u, v in pairs if (at(u), at(v)) in ends]
    out += [
        (V, u, None)
        for u in pos
        if at(u) == 1 and 2 <= u <= len(d) - 1 and all(at(w) == 2 for w in pos if w != u)
    ]
    return out


def _compositions(total):
    """All 2^(total-1) delta vectors summing to total."""
    for cuts in range(2 ** (total - 1)):
        d, run = [], 1
        for bit in range(total - 1):
            if cuts >> bit & 1:
                d.append(run)
                run = 0
            run += 1
        yield tuple(d + [run])


def test_applicable_matches_the_rule_table_on_every_small_composition():
    for total in range(1, 14):  # 8191 vectors
        for d in _compositions(total):
            assert applicable(d) == _reference_applicable(d), d


@st.composite
def _long_compositions(draw, max_total=40):
    """Delta vectors with sum <= max_total, rich in runs of 2s."""
    entries = draw(st.lists(st.sampled_from([1, 2, 2, 2, 3, 3, 4, 5]), min_size=1))
    d, total = [], 0
    for x in entries:
        if total + x > max_total:
            break
        d.append(x)
        total += x
    return tuple(d)


@given(_long_compositions())
def test_applicable_matches_the_rule_table_up_to_total_40(d):
    assert applicable(d) == _reference_applicable(d)


# Entries past 255 as edge cases: none of them fits a byte.
_wide_entries = st.one_of(st.sampled_from([1, 2, 2, 2, 3]), st.integers(1, 300))


@given(st.lists(_wide_entries, min_size=1, max_size=24))
def test_applicable_matches_the_rule_table_on_wide_entries(d):
    assert applicable(d) == _reference_applicable(d)


@pytest.mark.parametrize(
    "d",
    [
        (2,), (2,) * 9,  # all 2s: nothing applies
        (1,), (3,), (300,), (1, 2), (2, 1), (1, 2, 2), (2, 2, 1), (256, 2, 300),
        (2, 1, 2), (2, 2, 1, 2, 2), (2,) * 7 + (1, 2),  # V only
        (2, 300, 1, 2, 1, 256), (300, 3, 2, 3, 1, 2, 1, 2, 3), (3, 2, 2, 3, 2, 3),
        # An entry whose low byte is 1, 3, 2 or 4: each is 4 or more, not
        # a rule's end or gap.
        (1, 257, 1), (3, 259, 3), (1, 258, 1), (3, 258, 1), (260, 3, 2, 3),
    ],
)
def test_applicable_matches_the_rule_table_on_edge_cases(d):
    assert applicable(d) == _reference_applicable(d)


# The values 1..5, the byte edge 255..259, and an entry far past any byte.
@given(st.lists(st.sampled_from([1, 2, 3, 4, 5, 255, 256, 257, 258, 259, 2**70]), min_size=1, max_size=12))
def test_applicable_matches_the_rule_table_across_the_byte_edge(d):
    assert applicable(d) == _reference_applicable(d)


# The gap-rule patterns as they were before each consumed its near end:
# one lookahead spelling out the whole instance, tried at every byte.
_LOOKAHEAD_GAP_PATTERNS = (
    (II, re.compile(b"(?=(\x01\x02*\x03|\x03\x02*\x01))")),
    (III, re.compile(b"(?=(\x01\x02*\x01))")),
    (IV, re.compile(b"(?=(\x03\x02*\x03))")),
)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=64))
def test_gap_rules_match_the_lookahead_patterns(d):
    packed = bytes(d)
    expected = [
        (label, match.start() + 1, match.end(1))
        for label, pattern in _LOOKAHEAD_GAP_PATTERNS
        for match in pattern.finditer(packed)
    ]
    assert [i for i in applicable(d) if i[0] in (II, III, IV)] == expected


def test_applicable_refuses_the_empty_vector():
    with pytest.raises(ValueError):
        applicable(())


@given(st.lists(_wide_entries, min_size=1, max_size=7), st.sampled_from(SMALL_PRIMES))
def test_apply_rule_accepts_exactly_the_listed_instances(d, p):
    d = tuple(d)
    listed = _reference_applicable(d)
    positions = range(0, len(d) + 2)
    for label in TransformLabel:
        for u in positions:
            for v in (None, *positions):
                if (label, u, v) in listed:
                    apply_rule(d, label, u, v, p)
                else:
                    with pytest.raises(ValueError):
                        apply_rule(d, label, u, v, p)


def test_applicable_order_is_deterministic():
    d = (4, 3, 1, 2, 1)
    assert applicable(d) == [
        (TransformLabel.Ia, 1, None),
        (TransformLabel.II, 2, 3),
        (TransformLabel.III, 3, 5),
    ]


def test_applicable_on_terminal_vectors_is_empty():
    assert applicable((2, 2, 2)) == []
    assert applicable((2,) * 9) == []
    assert applicable((2, 2, 1)) == []
    assert applicable((1, 2, 2)) == []


def test_applicable_lists_the_energy_preserving_merge_too():
    assert (TransformLabel.III, 1, 4) in applicable((1, 2, 2, 1))


def test_applicable_nearest_partner_only():
    # A non-2 entry between two candidates blocks the pair.
    d = (1, 3, 2, 1)
    moves = applicable(d)
    assert (TransformLabel.II, 1, 2) in moves
    assert (TransformLabel.III, 1, 4) not in moves
    assert (TransformLabel.II, 2, 4) in moves  # (3,1) with all-2 gap


@given(exponent_tuples(max_s=18), st.sampled_from(SMALL_PRIMES))
def test_applicable_instances_all_apply_cleanly(sa, p):
    s, a = sa
    d = delta(a)
    for label, u, v in applicable(d):
        after, strict = apply_rule(d, label, u, v, p)
        assert sum(after) == sum(d)
        assert all(x >= 1 for x in after)
        e0, e1 = _energy(p, d), _energy(p, after)
        if strict:
            assert e1 > e0, (d, label, u, v)
        else:
            assert e1 == e0, (d, label, u, v)


@given(exponent_tuples(max_s=18), st.sampled_from(SMALL_PRIMES))
def test_exhausted_vectors_are_maximizers(sa, p):
    s, a = sa
    d = delta(a)
    if not applicable(d):
        assert d in canonical_maximizer(PrimePowerOrder(p, s))


# ---------------------------------------------------------------- step and trace records

def _step(p, d, label, u, v):
    after, strict = apply_rule(d, label, u, v, p)
    return TransformStep(
        label=label,
        u=u,
        v=v,
        before=d,
        after=after,
        energy_before=_energy(p, d),
        energy_after=_energy(p, after),
        strict=strict,
    )


def test_step_record_rejects_energy_decrease():
    with pytest.raises(ValueError):
        TransformStep(
            label=TransformLabel.Ia,
            u=1,
            v=None,
            before=(4,),
            after=(2, 2),
            energy_before=10,
            energy_after=9,
            strict=True,
        )


def test_step_record_rejects_strict_mismatch():
    with pytest.raises(ValueError):
        TransformStep(
            label=TransformLabel.Ia,
            u=1,
            v=None,
            before=(4,),
            after=(2, 2),
            energy_before=10,
            energy_after=12,
            strict=False,
        )


def test_step_record_rejects_plateau_outside_the_exceptional_merge():
    with pytest.raises(ValueError):
        TransformStep(
            label=TransformLabel.Ia,
            u=1,
            v=None,
            before=(4,),
            after=(2, 2),
            energy_before=10,
            energy_after=10,
            strict=False,
        )


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int-str limit"
)
@pytest.mark.parametrize(
    "before, drop, strict, message",
    [
        ((1,), 1, True, "energy must not decrease: 10000000000000000000"),
        ((3,), 0, False, r"may preserve energy, got rule II on \(3,\)"),
    ],
    ids=["decrease", "plateau"],
)
def test_step_record_messages_survive_the_digit_limit(before, drop, strict, message):
    # Energies past 4300 digits must not make the message itself raise.
    big = 10**5000
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError, match=message):
            TransformStep(
                TransformLabel.II, 1, 2, before, (2,), big, big - drop, strict
            )
    finally:
        sys.set_int_max_str_digits(limit)


def test_trace_rejects_broken_chain():
    p = 3
    s1 = _step(p, (4, 2), TransformLabel.Ia, 1, None)
    s2 = _step(p, (2, 1, 2, 2), TransformLabel.V, 2, None)
    with pytest.raises(ValueError):
        Trace(order=PrimePowerOrder(p, 7), steps=(s1, s2), terminal=s2.after)


# A step that passes every check, and field changes that each break one;
# when two checks fail, the message is the first one's.
GOOD_STEP = (TransformLabel.Ia, 1, None, (4,), (2, 2), 10, 12, True)
BAD_STEPS = [
    ({"energy_after": 9}, "energy must not decrease: 10 -> 9"),
    ({"energy_after": 9, "strict": False}, "energy must not decrease: 10 -> 9"),
    ({"strict": False}, "strict flag disagrees with the energies"),
    ({"energy_after": 10}, "strict flag disagrees with the energies"),
    (
        {"energy_after": 10, "strict": False},
        "only rule III on (1,2,...,2,1) may preserve energy, got rule Ia on (4,)",
    ),
    (
        {"label": TransformLabel.III, "v": 3, "before": (1, 2, 3), "energy_after": 10,
         "strict": False},
        "only rule III on (1,2,...,2,1) may preserve energy, got rule III on (1, 2, 3)",
    ),
]


@pytest.mark.parametrize("changes, message", BAD_STEPS)
def test_every_construction_path_checks_a_step(changes, message):
    for build in every_construction(TransformStep(*GOOD_STEP), changes):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def _shifted(step):
    return step._replace(energy_before=step.energy_before + 1, energy_after=step.energy_after + 1)


@pytest.mark.parametrize(
    "changes, message",
    [
        (lambda a, b: {"steps": (b, a)}, "trace steps do not chain"),
        (lambda a, b: {"steps": (a, _shifted(b))}, "trace energies do not chain"),
        (lambda a, b: {"terminal": (9,)}, "terminal does not match the last step"),
        (lambda a, b: {"steps": (b, a), "terminal": (9,)}, "trace steps do not chain"),
    ],
    ids=["vectors", "energies", "terminal", "vectors-first"],
)
def test_every_construction_path_checks_a_trace(changes, message):
    good = normalize((4, 1, 2), PrimePowerOrder(2, 8))
    for build in every_construction(good, changes(*good.steps)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_step_and_trace_are_immutable_named_tuples():
    step = TransformStep(*GOOD_STEP)
    trace = normalize((4, 1, 2), PrimePowerOrder(2, 8))
    for record in (step, trace):
        for name in (*record._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        again = type(record)(*record)
        assert again == record == tuple(record) and hash(again) == hash(record)
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record)
    assert repr(step) == (
        "TransformStep(label=<TransformLabel.Ia: 'Ia'>, u=1, v=None, before=(4,), "
        "after=(2, 2), energy_before=10, energy_after=12, strict=True)"
    )
    assert repr(Trace(PrimePowerOrder(2, 3), (), (2,))) == (
        "Trace(order=PrimePowerOrder(p=2, s=3), steps=(), terminal=(2,))"
    )
    order, steps, terminal = trace
    assert (order, terminal, trace.initial) == (PrimePowerOrder(2, 8), (2, 2, 2, 1), (4, 1, 2))
    assert [s.label for s in steps] == [TransformLabel.Ia, TransformLabel.V]


# ---------------------------------------------------------------- canonical forms

def test_canonical_maximizer_known():
    assert canonical_maximizer(PrimePowerOrder(2, 1)) == []
    assert canonical_maximizer(PrimePowerOrder(3, 2)) == [(1,)]
    assert canonical_maximizer(PrimePowerOrder(2, 3)) == [(2,), (1, 1)]
    assert canonical_maximizer(PrimePowerOrder(5, 3)) == [(2,)]
    assert canonical_maximizer(PrimePowerOrder(3, 6)) == [(2, 2, 1), (1, 2, 2)]
    assert canonical_maximizer(PrimePowerOrder(2, 7)) == [(2, 2, 2), (1, 2, 2, 1)]
    assert canonical_maximizer(PrimePowerOrder(2, 5)) == [(2, 2), (1, 2, 1)]


@given(
    st.sampled_from(SMALL_PRIMES),
    st.integers(min_value=2, max_value=20),
)
def test_canonical_vectors_attain_the_closed_form_maximum(p, s):
    order = PrimePowerOrder(p, s)
    value, _ = emax_closed(order)
    for d in canonical_maximizer(order):
        assert sum(d) == s - 1
        assert _energy(p, d) == value


# ---------------------------------------------------------------- normalization

@given(exponent_tuples(max_s=18), st.sampled_from(SMALL_PRIMES))
def test_normalize_terminates_at_a_maximizer(sa, p):
    s, a = sa
    order = PrimePowerOrder(p, s)
    trace = normalize(delta(a), order)
    assert trace.terminal in canonical_maximizer(order)
    assert len(trace.steps) <= 4 * s + 16
    value, _ = emax_closed(order)
    assert _energy(p, trace.terminal) == value
    energies = [step.energy_before for step in trace.steps]
    energies.append(trace.steps[-1].energy_after if trace.steps else value)
    assert all(x <= y for x, y in zip(energies, energies[1:]))


def test_normalize_on_terminal_input_is_a_no_op():
    order = PrimePowerOrder(3, 7)
    trace = normalize((2, 2, 2), order)
    assert trace.steps == ()
    assert trace.terminal == (2, 2, 2)
    assert trace.initial == (2, 2, 2)


def test_normalize_resolves_the_energy_preserving_twin():
    # For p = 2 the vector (1,2,...,2,1) already attains the maximum; the
    # one recorded step is the energy-preserving merge.
    order = PrimePowerOrder(2, 5)
    trace = normalize((1, 2, 1), order)
    assert trace.terminal == (2, 2)
    assert len(trace.steps) == 1
    assert trace.steps[0].strict is False


def test_normalize_rejects_wrong_sum():
    with pytest.raises(ValueError):
        normalize((2, 2), PrimePowerOrder(3, 7))


def test_normalize_rejects_an_order_whose_p_is_not_prime():
    # A PrimePowerOrder cannot hold one; an object with the same fields can.
    with pytest.raises(ValueError, match="p must be prime"):
        normalize((3,), SimpleNamespace(p=4, s=4))


def test_normalize_replays_known_values():
    order = PrimePowerOrder(2, 30)
    trace = normalize((5, 1, 3, 3, 2, 1, 1, 6, 1, 1, 3, 2), order)
    assert trace.steps[-1].energy_after == 11572550770
    order = PrimePowerOrder(3, 30)
    trace = normalize((5, 1, 3, 3, 2, 1, 1, 6, 1, 1, 3, 2), order)
    assert trace.steps[-1].energy_after == 3234206533320112


def _reference_normalize(d0, order):
    """The rewrite loop written with the public, fully checked functions only."""
    d, steps = tuple(d0), []
    while instances := applicable(d):
        label, u, v = instances[0]
        after, strict = apply_rule(d, label, u, v, order.p)
        e0, e1 = _energy(order.p, d), _energy(order.p, after)
        steps.append(TransformStep(label, u, v, d, after, e0, e1, strict))
        d = after
    return Trace(order=order, steps=tuple(steps), terminal=d)


def _random_composition(seed, total):
    rng = random.Random(seed)
    d = []
    while total:
        d.append(rng.randint(1, min(total, 7)))
        total -= d[-1]
    return tuple(d)


# Long runs: s >= 260 from one entry and from a random composition.
LONG_CASES = [(2, (259,)), (3, _random_composition(1, 299)), (7, _random_composition(2, 263))]


@given(_long_compositions(), st.sampled_from(SMALL_PRIMES))
def test_normalize_matches_a_loop_over_the_public_rules(d, p):
    order = PrimePowerOrder(p, sum(d) + 1)
    assert normalize(d, order) == _reference_normalize(d, order)


@pytest.mark.parametrize("p, d0", LONG_CASES)
def test_normalize_matches_a_loop_over_the_public_rules_at_large_s(p, d0):
    order = PrimePowerOrder(p, sum(d0) + 1)
    assert normalize(d0, order) == _reference_normalize(d0, order)


def test_normalize_matches_a_loop_over_the_public_rules_on_every_small_composition():
    """Every d0 with s <= 13 at p = 2 and 3; none of the traces steps through IV."""
    for total in range(1, 13):  # 4095 vectors, the III at p = 2 that preserves energy among them
        for d in _compositions(total):
            for p in (2, 3):
                order = PrimePowerOrder(p, total + 1)
                trace = normalize(d, order)
                assert trace == _reference_normalize(d, order), (d, p)
                assert IV not in [step.label for step in trace.steps], (d, p)


def _normalize_one_instance_per_step(d0, order):
    """normalize with the rule scan disabled: its schedule alone picks every step."""

    def no_scan(d):
        raise AssertionError(f"normalize scanned {d} for instances")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform, "applicable", no_scan)
        patch.setattr(transform, "_instances", no_scan)
        return normalize(d0, order)


def test_normalize_draws_one_instance_per_step():
    order = PrimePowerOrder(2, 1000)
    trace = _normalize_one_instance_per_step((999,), order)
    assert len(trace.steps) == 499
    assert trace == _reference_normalize((999,), order)


@given(_long_compositions(), st.sampled_from(SMALL_PRIMES))
def test_normalize_draws_one_instance_per_step_on_compositions(d, p):
    order = PrimePowerOrder(p, sum(d) + 1)
    assert _normalize_one_instance_per_step(d, order) == _reference_normalize(d, order)


def _assert_step_energies_are_direct(d0, p):
    s = sum(d0) + 1
    trace = normalize(d0, PrimePowerOrder(p, s))
    reference = functools.cache(lambda d: direct_energy(p, s, delta_inverse(d)))
    for step in trace.steps:
        assert step.energy_before == reference(step.before)
        assert step.energy_after == reference(step.after)
    return trace


@given(_long_compositions(), st.sampled_from(SMALL_PRIMES))
def test_normalize_step_energies_match_the_direct_double_sum(d, p):
    _assert_step_energies_are_direct(d, p)


# Besides the long runs: a 61-bit prime, a whole-vector V step, and the
# energy-preserving III at p = 2, whose window is the whole vector.
@pytest.mark.parametrize(
    "p, d0",
    LONG_CASES
    + [(2**61 - 1, _random_composition(3, 119)), (3, (2, 1, 2, 2, 2)), (2, (1, 2, 2, 2, 1))],
)
def test_normalize_step_energies_match_the_direct_double_sum_at_large_s(p, d0):
    assert _assert_step_energies_are_direct(d0, p).steps


def _rebind(monkeypatch, old, new):
    """Bind new in place of old under every icgraph module name bound to old."""
    for name, module in list(sys.modules.items()):
        if name == "icgraph" or name.startswith("icgraph."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    monkeypatch.setattr(module, attr, new)


@pytest.fixture
def check_int_calls(monkeypatch):
    """Record every check_int call, under each icgraph module name bound to it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return check_int(*args, **kwargs)

    _rebind(monkeypatch, check_int, counting)
    return calls


def test_normalize_validates_its_input_once(check_int_calls):
    short, long = PrimePowerOrder(2, 4), PrimePowerOrder(2, 1000)
    check_int_calls.clear()
    assert len(normalize((3,), short).steps) == 1
    once = len(check_int_calls)
    assert once > 0  # the counter sees the entry checks
    check_int_calls.clear()
    assert len(normalize((999,), long).steps) == 499
    assert len(check_int_calls) == once


def test_normalize_scores_each_step_from_its_window(monkeypatch):
    """One walk over d0 scores the start; each step hands only its old and new window."""
    handed = []

    def counting(kernel):
        def counted(p, gaps, *rest):
            handed.append(tuple(gaps))
            return kernel(p, gaps, *rest)

        return counted

    for kernel in (energy._pair_sum, transform._window_sums):
        _rebind(monkeypatch, kernel, counting(kernel))
    assert len(normalize((999,), PrimePowerOrder(2, 1000)).steps) == 499
    assert handed[0] == (999,) and len(handed) == 1 + 2 * 499
    # A whole-vector rescore per step hands over 125 250 gaps.
    assert sum(map(len, handed)) < 999 + 8 * 499


def test_normalize_checks_the_running_energy_against_the_closed_form(monkeypatch):
    """A closed form one off, under every icgraph name bound to it, fails the closing guard."""
    closed = energy.emax_closed

    def one_off(order):
        value, tuples = closed(order)
        return value + 1, tuples

    _rebind(monkeypatch, closed, one_off)
    assert transform.emax_closed is one_off
    with pytest.raises(RuntimeError, match="misses the maximal energy"):
        normalize((999,), PrimePowerOrder(2, 1000))
