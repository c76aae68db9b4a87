"""Energy-increasing rewrites on delta vectors.

Six rules, written on d = (d_1, ..., d_{r-1}) with positions 1-based:

  Ia   d_u >= 4                 ->  ..., 2, d_u - 2, ...        (length +1)
  Ib   d_u = 3 = max, all >= 2  ->  ..., 2, 1, ...              (length +1)
  II   (d_u, d_v) = (1,3)/(3,1), all-2 gap  ->  both become 2   (length =)
  III  d_u = d_v = 1, all-2 gap ->  block of 2s, length v-u     (length -1)
  IV   d_u = d_v = 3, all-2 gap ->  block of 2s spanning u..v+1 (length +1)
  V    single 1 at 2 <= u <= r-2, rest 2s  ->  (2, ..., 2, 1)   (length =)

_instances states these preconditions once and lists every instance
that meets them, in a fixed order; applicable returns that list, and
apply_rule rewrites only an instance on it. Each application strictly
increases the gcd-graph energy for every prime p, with one exception:
rule III on (1, 2, ..., 2, 1) at p = 2 preserves the energy exactly
(recorded as strict=False). normalize takes the first instance at each
step (label order above, then leftmost) to a fixed point; the fixed
points are exactly the maximal-energy delta vectors from
canonical_maximizer (stated in the energy module next to emax_closed,
and re-exported here). It does not scan for that first instance:
_schedule reads the whole sequence off d0 in one pass, by the argument
its docstring states.

TransformStep and Trace are named tuples on model._Checked, like
model.PrimePowerOrder: every construction checks them, _make and _replace too.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple, Optional, Sequence

from .energy import _pair_sum_energy, canonical_maximizer, emax_closed
from .model import PrimePowerOrder, _Checked, check_delta
from .numtheory import _shown, check_int, check_prime


class TransformLabel(str, enum.Enum):
    Ia = "Ia"
    Ib = "Ib"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"

    def __str__(self) -> str:
        return self.value


def applicable(d: Sequence[int]) -> list[tuple[TransformLabel, int, Optional[int]]]:
    """All rule instances whose preconditions hold on d, deterministically ordered.

    Order: label (Ia, Ib, II, III, IV, V), then u ascending, then v
    ascending. The prime p plays no part: rule III applies in its
    energy-preserving case too.
    """
    return _instances(check_delta(d))


def _instances(d: tuple[int, ...]) -> list[tuple[TransformLabel, int, Optional[int]]]:
    """The instances applicable lists, on a delta vector already checked.

    The marks are the entries other than 2. Two adjacent marks have an
    all-2 gap between them, so each gap rule is a test on adjacent marks.
    """
    Ia, Ib, II, III, IV, V = TransformLabel
    marks = [u for u, x in enumerate(d, 1) if x != 2]
    found = [(Ia, u, None) for u in marks if d[u - 1] >= 4]
    if not found and 1 not in d:
        found += [(Ib, u, None) for u in marks if d[u - 1] == 3]
    for label, ends in ((II, {(1, 3), (3, 1)}), (III, {(1, 1)}), (IV, {(3, 3)})):
        found += [(label, u, v) for u, v in zip(marks, marks[1:]) if (d[u - 1], d[v - 1]) in ends]
    if len(marks) == 1 and d[marks[0] - 1] == 1 and 1 < marks[0] < len(d):
        found.append((V, marks[0], None))
    return found


def _schedule(d0: tuple[int, ...]) -> Iterator[tuple[TransformLabel, int, Optional[int]]]:
    """The instances normalize applies from d0 on, each the first _instances lists at its step.

    One left-to-right pass over d0, by this argument:
    1. Ia comes first, and no rule except Ia makes an entry >= 4. So each
       entry e >= 4 is split in turn, left to right, in (e - 2) // 2 Ia
       steps, into 2s and a last 2 or 3; position counts the vector after them.
    2. Call the 1s and 3s left the marks. II keeps the vector's length and
       turns both its marks into 2s, so every mark keeps its position, and
       its only new neighbours are the marks on either side of its window.
       So the leftmost-first II steps are a stack cancellation of unlike
       neighbouring marks, at fixed positions; after it the marks are all
       1s or all 3s. (Ib needs no 1, so it waits while both kinds remain.)
    3. If they are all 1s, III applies to the first two, again and again,
       each step shortening the vector by 1. If they are all 3s, Ib applies
       to the first 3 (Ib comes before IV), and then II pairs the new 1
       with the next 3. So IV never fires inside normalize.
    4. A lone 1 that is left takes V, unless it is the first or the last entry.
    """
    Ia, Ib, II, III, _, V = TransformLabel
    merges, marks, kind, position = [], [], 0, 0
    for entry in d0:
        position += 1
        while entry >= 4:
            yield Ia, position, None
            entry -= 2
            position += 1
        if entry == 2:
            continue
        if marks and entry != kind:
            merges.append((II, marks.pop(), position))
        else:
            marks.append(position)
            kind = entry
    yield from merges
    shift = 0  # the length change so far, which moves every later mark
    for u, v in zip(marks[::2], marks[1::2]):
        if kind == 1:
            yield III, u + shift, v + shift
            shift -= 1
        else:
            yield Ib, u + shift, None
            shift += 1
            yield II, u + shift, v + shift
    if len(marks) % 2:
        u = marks[-1] + shift
        if kind == 3:
            yield Ib, u, None
            shift, u = shift + 1, u + 1
        if 1 < u < position + shift:
            yield V, u, None


# Extra 2s in the block that replaces d_u..d_v, beyond its v - u entries.
_BLOCK_EXTRA = {TransformLabel.II: 1, TransformLabel.III: 0, TransformLabel.IV: 2}


def apply_rule(
    d: Sequence[int], label: TransformLabel, u: int, v: Optional[int], p: int
) -> tuple[tuple[int, ...], bool]:
    """Rewrite d by one rule instance; returns (result, strict).

    (label, u, v) must be listed by applicable(d), so the preconditions
    are stated there only, and p must be prime. strict is False only for
    rule III on the whole vector at p = 2, where the energy is preserved
    exactly.
    """
    d = check_delta(d)
    check_prime(p)
    if not isinstance(label, TransformLabel):
        raise ValueError(f"label must be a TransformLabel, got {_shown(label)}")
    check_int(u, "u")
    if v is not None:
        check_int(v, "v")
    if (label, u, v) not in _instances(d):
        raise ValueError(
            f"rule {label} does not apply at u={_shown(u)}, v={_shown(v)} to {_shown(d)}"
        )
    return _apply(d, label, u, v, p)[:2]


def _apply(
    d: tuple[int, ...], label: TransformLabel, u: int, v: Optional[int], p: int
) -> tuple[tuple[int, ...], bool, int, int]:
    """apply_rule on an instance that _instances(d) lists, unchecked.

    Returns (result, strict, i, j): the rule rewrites the window d[i:j]
    into gaps of the same sum, and leaves d[:i] and d[j:] as they are.
    """
    if label is TransformLabel.V:
        return (2,) * (len(d) - 1) + (1,), True, 0, len(d)
    if v is None:
        return d[: u - 1] + (2, d[u - 1] - 2) + d[u:], True, u - 1, u
    strict = not (label is TransformLabel.III and p == 2 and u == 1 and v == len(d))
    return d[: u - 1] + (2,) * (v - u + _BLOCK_EXTRA[label]) + d[v:], strict, u - 1, v


class TransformStep(_Checked, NamedTuple("TransformStep", [
    ("label", TransformLabel), ("u", int), ("v", Optional[int]), ("before", tuple[int, ...]),
    ("after", tuple[int, ...]), ("energy_before", int), ("energy_after", int), ("strict", bool),
])):
    """One rewrite: label, positions, both vectors and both energies.

    An immutable tuple of these eight fields; every public way to build one checks the energies.
    """

    __slots__ = ()

    def __new__(cls, label, u, v, before, after, energy_before, energy_after, strict):
        if energy_after < energy_before:
            raise ValueError(
                f"energy must not decrease: {_shown(energy_before)} -> {_shown(energy_after)}"
            )
        if strict != (energy_after > energy_before):
            raise ValueError("strict flag disagrees with the energies")
        if not strict:
            shape_ok = (
                label is TransformLabel.III
                and before[0] == 1
                and before[-1] == 1
                and all(x == 2 for x in before[1:-1])
            )
            if not shape_ok:
                raise ValueError(
                    f"only rule III on (1,2,...,2,1) may preserve energy, "
                    f"got rule {label} on {_shown(before)}"
                )
        return super().__new__(cls, label, u, v, before, after, energy_before, energy_after, strict)


class Trace(_Checked, NamedTuple("Trace", [
    ("order", PrimePowerOrder), ("steps", tuple[TransformStep, ...]), ("terminal", tuple[int, ...]),
])):
    """A chained rewrite sequence ending in a terminal delta vector.

    An immutable (order, steps, terminal) tuple; every public way to build one checks the chain.
    """

    __slots__ = ()

    def __new__(cls, order, steps, terminal):
        for first, second in zip(steps, steps[1:]):
            if first.after != second.before:
                raise ValueError("trace steps do not chain")
            if first.energy_after != second.energy_before:
                raise ValueError("trace energies do not chain")
        if steps and steps[-1].after != terminal:
            raise ValueError("terminal does not match the last step")
        return super().__new__(cls, order, steps, terminal)

    @property
    def initial(self) -> tuple[int, ...]:
        return self.steps[0].before if self.steps else self.terminal


def _window_sums(p: int, gaps: Sequence[int]) -> tuple[int, int, int]:
    """(t, high, low) over the points o = 0, ..., w, the partial sums of gaps from 0, in one pass.

    t = energy._pair_sum(p, gaps, 0) by its recurrence, whose running
    prefix is low = sum of p^o; high = sum of p^(w-o).
    """
    t, high, low, power = 0, 1, 1, 1
    for gap in gaps:
        step = p**gap
        t = t * step + low
        high = high * step + 1
        power *= step
        low += power
    return t, high, low


def normalize(d0: Sequence[int], order: PrimePowerOrder) -> Trace:
    """Drive d0 to a terminal delta vector, recording every step.

    Applies the first applicable instance (order fixed by applicable)
    until none applies. Energies never decrease along the trace and
    strictly increase except at energy-preserving III steps. The
    terminal vector is always one of canonical_maximizer(order).

    No vector is scanned for its first instance: _schedule reads them
    all off d0 in one pass, by the argument its docstring states.

    d0, its sum and p are checked once here. Every later vector is built
    by a rule from a checked one, so the loop runs the unchecked
    rewrite; each TransformStep and the Trace still check their own
    invariants, the loop stops after 4s + 16 steps, the terminal must be
    a canonical_maximizer vector, and the running energy must equal
    emax_closed's closed form, which shares no code with the pair sums.

    One walk over d0 (_window_sums) gives its pair sum T and the digit
    sums below. Each rule rewrites a window of gaps into gaps of the
    same sum, so only the window's inner points move, and T changes by
    the window's own pairs and by its inner points against the points
    outside it. Those outside sum, as base-p digits, to low % p^left and
    high % p^(s-1-right), so a step walks its old and new window once
    each and needs no whole-vector rescore.
    """
    d0 = d = check_delta(d0)
    if sum(d) != order.s - 1:
        raise ValueError(
            f"delta vector {_shown(d)} sums to {_shown(sum(d))}, needs s-1 = {_shown(order.s - 1)}"
        )
    p, s = order.p, order.s
    check_prime(p)
    steps: list[TransformStep] = []
    # The points x (partial sums of d from 0) are distinct in 0..s-1, so
    # high = sum p^(s-1-x) and low = sum p^x have base-p digits 0 and 1.
    t, high, low = _window_sums(p, d)
    energy = _pair_sum_energy(p, s, len(d) + 1, t)
    top = p ** (s - 1)
    limit = 4 * s + 16
    for label, u, v in _schedule(d0):
        if len(steps) >= limit:
            raise RuntimeError(f"rewrite did not terminate within {limit} steps from {_shown(d0)}")
        after, strict, i, j = _apply(d, label, u, v, p)
        old, new = d[i:j], after[i : j + len(after) - len(d)]
        left = sum(d[:i])
        below, above = p**left, p ** (s - 1 - left - sum(old))
        t_old, high_old, low_old = _window_sums(p, old)
        t_new, high_new, low_new = _window_sums(p, new)
        high_change, low_change = high_new - high_old, low_new - low_old
        pair_change = above * (below * (t_new - t_old) + high_change * (low % below))
        pair_change += below * low_change * (high % above)
        energy_after = energy + 2 * (p - 1) * ((len(after) - len(d)) * top - (p - 1) * pair_change)
        steps.append(TransformStep(label, u, v, d, after, energy, energy_after, strict))
        d, energy = after, energy_after
        high, low = high + high_change * above, low + low_change * below
    if d not in canonical_maximizer(order):
        raise RuntimeError(f"terminal {_shown(d)} is not a maximal-energy vector for {order}")
    if energy != emax_closed(order)[0]:
        raise RuntimeError(f"running energy {_shown(energy)} misses the maximal energy of {order}")
    return Trace(order=order, steps=tuple(steps), terminal=d)
