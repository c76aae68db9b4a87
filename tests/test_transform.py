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
from icgraph.transform import (
    Trace,
    apply_Ia,
    apply_Ib,
    apply_II,
    apply_III,
    apply_IV,
    apply_V,
)

from helpers import SMALL_PRIMES, exponent_tuples


def _energy(p, d):
    s = sum(d) + 1
    return energy_prime_power(PrimePowerOrder(p, s), delta_inverse(d))


# ---------------------------------------------------------------- single rules

def test_rule_Ia_splits_large_entries():
    assert apply_Ia((4,), 1) == (2, 2)
    assert apply_Ia((2, 5, 2), 2) == (2, 2, 3, 2)
    assert apply_Ia((5, 1, 6), 3) == (5, 1, 2, 4)


def test_rule_Ia_applies_even_when_not_the_maximum():
    # Only d_u >= 4 matters; a larger entry elsewhere does not block it.
    assert apply_Ia((4, 1, 6), 1) == (2, 2, 1, 6)


def test_rule_Ia_rejects_small_entries():
    with pytest.raises(ValueError):
        apply_Ia((3, 2), 1)
    with pytest.raises(ValueError):
        apply_Ia((4,), 2)


def test_rule_Ib_splits_a_three_when_all_entries_exceed_one():
    assert apply_Ib((3,), 1) == (2, 1)
    assert apply_Ib((2, 3, 2), 2) == (2, 2, 1, 2)


def test_rule_Ib_rejects_wrong_context():
    with pytest.raises(ValueError):
        apply_Ib((3, 1), 1)
    with pytest.raises(ValueError):
        apply_Ib((4, 3), 2)
    with pytest.raises(ValueError):
        apply_Ib((2, 2), 1)


def test_rule_II_rebalances_one_three_pairs():
    assert apply_II((1, 3), 1, 2) == (2, 2)
    assert apply_II((3, 1), 1, 2) == (2, 2)
    assert apply_II((1, 2, 2, 3), 1, 4) == (2, 2, 2, 2)
    assert apply_II((5, 3, 2, 1), 2, 4) == (5, 2, 2, 2)


def test_rule_II_requires_all_twos_between():
    with pytest.raises(ValueError):
        apply_II((1, 3, 3), 1, 3)
    with pytest.raises(ValueError):
        apply_II((1, 1, 3), 1, 3)
    with pytest.raises(ValueError):
        apply_II((2, 2), 1, 2)


def test_rule_III_merges_two_ones():
    assert apply_III((1, 2, 1), 1, 3, 3) == ((2, 2), True)
    assert apply_III((2, 1, 1, 2), 2, 3, 2) == ((2, 2, 2), True)
    assert apply_III((1, 1), 1, 2, 3) == ((2,), True)


def test_rule_III_energy_preserving_case_is_flagged():
    out, strict = apply_III((1, 2, 2, 1), 1, 4, 2)
    assert out == (2, 2, 2)
    assert strict is False
    # Same shape at an odd prime is strict.
    out, strict = apply_III((1, 2, 2, 1), 1, 4, 3)
    assert strict is True
    # p = 2 but not spanning the whole vector is strict.
    out, strict = apply_III((2, 1, 2, 1), 2, 4, 2)
    assert strict is True


def test_rule_IV_merges_two_threes():
    assert apply_IV((3, 3), 1, 2) == (2, 2, 2)
    assert apply_IV((3, 2, 3), 1, 3) == (2, 2, 2, 2)
    assert apply_IV((2, 3, 2, 3, 1), 2, 4) == (2, 2, 2, 2, 2, 1)


def test_rule_V_shifts_a_single_interior_one_to_the_end():
    assert apply_V((2, 1, 2), 2) == (2, 2, 1)
    assert apply_V((2, 2, 1, 2, 2), 3) == (2, 2, 2, 2, 1)


def test_rule_V_rejects_wrong_context():
    with pytest.raises(ValueError):
        apply_V((1, 2, 2), 1)
    with pytest.raises(ValueError):
        apply_V((2, 2, 1), 3)
    with pytest.raises(ValueError):
        apply_V((2, 1, 3), 2)


def test_rules_preserve_the_entry_sum():
    cases = [
        (apply_Ia((2, 5, 2), 2), (2, 5, 2)),
        (apply_Ib((2, 3, 2), 2), (2, 3, 2)),
        (apply_II((1, 2, 3), 1, 3), (1, 2, 3)),
        (apply_III((1, 2, 1), 1, 3, 5)[0], (1, 2, 1)),
        (apply_IV((3, 2, 3), 1, 3), (3, 2, 3)),
        (apply_V((2, 1, 2), 2), (2, 1, 2)),
    ]
    for after, before in cases:
        assert sum(after) == sum(before)


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
