"""Energy-increasing rewrites on delta vectors.

Six rules, written on d = (d_1, ..., d_{r-1}) with positions 1-based:

  Ia   d_u >= 4                 ->  ..., 2, d_u - 2, ...        (length +1)
  Ib   d_u = 3 = max, all >= 2  ->  ..., 2, 1, ...              (length +1)
  II   (d_u, d_v) = (1,3)/(3,1), all-2 gap  ->  both become 2   (length =)
  III  d_u = d_v = 1, all-2 gap ->  block of 2s, length v-u     (length -1)
  IV   d_u = d_v = 3, all-2 gap ->  block of 2s spanning u..v+1 (length +1)
  V    single 1 at 2 <= u <= r-2, rest 2s  ->  (2, ..., 2, 1)   (length =)

_instances states these preconditions once and yields every instance
that meets them, lazily and in a fixed order; applicable lists them
all. It packs d one entry per byte, so each rule is one byte-pattern
search: an all-2 gap is a run of the byte 2, and each gap rule is one
pattern that matches its near end and looks ahead over the gap to its
far end. apply_rule rewrites an instance only when _instances yields
it. Each application strictly increases the gcd-graph energy for every
prime p, with one exception: rule III on (1, 2, ..., 2, 1) at p = 2
preserves the energy exactly (recorded as strict=False). normalize
takes the first instance at each step (label order above, then
leftmost) to a fixed point; the fixed points are exactly the
maximal-energy delta vectors from canonical_maximizer (stated in the
energy module next to emax_closed, and re-exported here).

TransformStep and Trace are named tuples that, like model.PrimePowerOrder,
check their invariants on every construction, _make and _replace included.
"""

from __future__ import annotations

import enum
import re
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .energy import _gap_energy, _pair_sum, canonical_maximizer, emax_closed
from .model import PrimePowerOrder, check_delta
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
    return list(_instances(check_delta(d)))


# Over the packed vector (see _instances): one pattern for Ia, and one
# per gap rule. Each consumes its near end, a byte the regex engine can
# skip to, and only looks ahead to the far end, which may be the next
# instance's near end; the far end is the group that matched.
_AT_LEAST_4 = re.compile(b"[\x04-\xff]")
_GAP_PATTERNS = (
    (TransformLabel.II, re.compile(b"\x01(?=\x02*(\x03))|\x03(?=\x02*(\x01))")),
    (TransformLabel.III, re.compile(b"\x01(?=\x02*(\x01))")),
    (TransformLabel.IV, re.compile(b"\x03(?=\x02*(\x03))")),
)


def _instances(d: tuple[int, ...]) -> Iterator[tuple[TransformLabel, int, Optional[int]]]:
    """The instances applicable lists, lazily, on a delta vector already checked.

    d is packed one entry per byte, with every entry clipped at 4 when
    one passes 255 (the rules only tell 1, 2, 3 and "4 or more" apart).
    Each label's block is then one C-level search over those bytes,
    run only when the generator gets that far, so taking the first
    instance does not list the rest.
    """
    try:
        packed = bytes(d)
    except ValueError:  # an entry of 256 or more
        packed = bytes(map(min, d, repeat(4)))
    match = None
    for match in _AT_LEAST_4.finditer(packed):
        yield TransformLabel.Ia, match.start() + 1, None
    if match is None and 1 not in packed:
        u = packed.find(3)
        while u >= 0:
            yield TransformLabel.Ib, u + 1, None
            u = packed.find(3, u + 1)
    for label, pattern in _GAP_PATTERNS:
        for match in pattern.finditer(packed):
            yield label, match.start() + 1, match.end(match.lastindex)
    if packed.strip(b"\x02") == b"\x01":
        u = packed.index(1) + 1
        if 1 < u < len(d):
            yield TransformLabel.V, u, None


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
    """apply_rule on an instance that _instances(d) yields, unchecked.

    Returns (result, strict, i, j): the rule rewrites the window d[i:j]
    into gaps of the same sum, and leaves d[:i] and d[j:] as they are.
    """
    if label is TransformLabel.V:
        return (2,) * (len(d) - 1) + (1,), True, 0, len(d)
    if v is None:
        return d[: u - 1] + (2, d[u - 1] - 2) + d[u:], True, u - 1, u
    strict = not (label is TransformLabel.III and p == 2 and u == 1 and v == len(d))
    return d[: u - 1] + (2,) * (v - u + _BLOCK_EXTRA[label]) + d[v:], strict, u - 1, v


class TransformStep(NamedTuple("TransformStep", [
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

    @classmethod
    def _make(cls, iterable: Iterable) -> TransformStep:
        # namedtuple's _make (and _replace, which calls it) skip __new__.
        return cls(*iterable)


class Trace(NamedTuple("Trace", [
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

    @classmethod
    def _make(cls, iterable: Iterable) -> Trace:
        # namedtuple's _make (and _replace, which calls it) skip __new__.
        return cls(*iterable)

    @property
    def initial(self) -> tuple[int, ...]:
        return self.steps[0].before if self.steps else self.terminal


def _digit_sums(p: int, gaps: Sequence[int]) -> tuple[int, int]:
    """(high, low) = (sum of p^(w-o), sum of p^o) over the points o = 0, ..., w.

    The points are the partial sums of gaps from 0, and w is their sum.
    """
    high = low = power = 1
    for gap in gaps:
        step = p**gap
        high = high * step + 1
        power *= step
        low += power
    return high, low


def normalize(d0: Sequence[int], order: PrimePowerOrder) -> Trace:
    """Drive d0 to a terminal delta vector, recording every step.

    Applies the first applicable instance (order fixed by applicable),
    drawn alone from the lazy scan, until none applies. Energies never
    decrease along the trace and strictly increase except at
    energy-preserving III steps. The terminal vector is always one of
    canonical_maximizer(order).

    d0, its sum and p are checked once here. Every later vector is built
    by a rule from a checked one, so the loop runs the unchecked scan and
    rewrite; each TransformStep and the Trace still check their own
    invariants, and the running energy must equal emax_closed's closed
    form, which shares no code with the pair sums.

    The energy kernel scores d0 only. Each rule rewrites
    a window of gaps into gaps of the same sum, so only the window's
    inner points move, and the pair sum T changes by the window's own
    pairs and by its inner points against the points outside it. Those
    outside sum, as base-p digits, to low % p^left and
    high % p^(s-1-right), so a step costs a few big-int products and no
    whole-vector rescore.
    """
    d0 = d = check_delta(d0)
    if sum(d) != order.s - 1:
        raise ValueError(
            f"delta vector {_shown(d)} sums to {_shown(sum(d))}, needs s-1 = {_shown(order.s - 1)}"
        )
    p, s = order.p, order.s
    check_prime(p)
    steps: list[TransformStep] = []
    energy = _gap_energy(p, s, d, 0)
    # The points x (partial sums of d from 0) are distinct in 0..s-1, so
    # high = sum p^(s-1-x) and low = sum p^x have base-p digits 0 and 1.
    high, low = _digit_sums(p, d)
    top = p ** (s - 1)
    limit = 4 * s + 16
    while (instance := next(_instances(d), None)) is not None:
        if len(steps) >= limit:
            raise RuntimeError(f"rewrite did not terminate within {limit} steps from {_shown(d0)}")
        label, u, v = instance
        after, strict, i, j = _apply(d, label, u, v, p)
        old, new = d[i:j], after[i : j + len(after) - len(d)]
        left = sum(d[:i])
        below, above = p**left, p ** (s - 1 - left - sum(old))
        (high_old, low_old), (high_new, low_new) = _digit_sums(p, old), _digit_sums(p, new)
        high_change, low_change = high_new - high_old, low_new - low_old
        pair_change = above * (
            below * (_pair_sum(p, new, 0) - _pair_sum(p, old, 0)) + high_change * (low % below)
        ) + below * low_change * (high % above)
        energy_after = energy + 2 * (p - 1) * ((len(after) - len(d)) * top - (p - 1) * pair_change)
        steps.append(TransformStep(label, u, v, d, after, energy, energy_after, strict))
        d, energy = after, energy_after
        high, low = high + high_change * above, low + low_change * below
    if d not in canonical_maximizer(order):
        raise RuntimeError(f"terminal {_shown(d)} is not a maximal-energy vector for {order}")
    if energy != emax_closed(order)[0]:
        raise RuntimeError(f"running energy {_shown(energy)} misses the maximal energy of {order}")
    return Trace(order=order, steps=tuple(steps), terminal=d)
