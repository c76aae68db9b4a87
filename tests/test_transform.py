"""Rewrite rules on delta vectors: preconditions, energy effects, termination."""

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
from icgraph.transform import Trace

from helpers import SMALL_PRIMES, exponent_tuples


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


# ---------------------------------------------------------------- applicability

def test_applicable_order_is_deterministic():
    d = (4, 3, 1, 2, 1)
    assert applicable(d) == [
        (TransformLabel.Ia, 1, None),
        (TransformLabel.II, 2, 3),
        (TransformLabel.III, 3, 5),
    ]


def test_applicable_on_terminal_vectors_is_empty():
    assert applicable((2, 2, 2)) == []
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


def test_trace_rejects_broken_chain():
    p = 3
    s1 = _step(p, (4, 2), TransformLabel.Ia, 1, None)
    s2 = _step(p, (2, 1, 2, 2), TransformLabel.V, 2, None)
    with pytest.raises(ValueError):
        Trace(order=PrimePowerOrder(p, 7), steps=(s1, s2), terminal=s2.after)


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


def test_normalize_replays_known_values():
    order = PrimePowerOrder(2, 30)
    trace = normalize((5, 1, 3, 3, 2, 1, 1, 6, 1, 1, 3, 2), order)
    assert trace.steps[-1].energy_after == 11572550770
    order = PrimePowerOrder(3, 30)
    trace = normalize((5, 1, 3, 3, 2, 1, 1, 6, 1, 1, 3, 2), order)
    assert trace.steps[-1].energy_after == 3234206533320112
