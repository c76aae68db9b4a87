"""Energy-increasing rewrites on delta vectors.

Six rules, written on d = (d_1, ..., d_{r-1}) with positions 1-based:

  Ia   d_u >= 4                 ->  ..., 2, d_u - 2, ...        (length +1)
  Ib   d_u = 3 = max, all >= 2  ->  ..., 2, 1, ...              (length +1)
  II   (d_u, d_v) = (1,3)/(3,1), all-2 gap  ->  both become 2   (length =)
  III  d_u = d_v = 1, all-2 gap ->  block of 2s, length v-u     (length -1)
  IV   d_u = d_v = 3, all-2 gap ->  block of 2s spanning u..v+1 (length +1)
  V    single 1 at 2 <= u <= r-2, rest 2s  ->  (2, ..., 2, 1)   (length =)

applicable states these preconditions and lists every instance that
meets them; an all-2 gap runs between consecutive entries that are not
2, so one scan of those positions finds every II/III/IV instance.
apply_rule rewrites an instance only when applicable lists it. Each
application strictly increases the gcd-graph energy for every prime
p, with one exception: rule III on (1, 2, ..., 2, 1) at p = 2
preserves the energy exactly (recorded as strict=False). normalize
drives the first applicable rule (label order above, then leftmost)
to a fixed point; the fixed points are exactly the maximal-energy
delta vectors from canonical_maximizer (stated in the energy module
next to emax_closed, and re-exported here).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .energy import canonical_maximizer, energy_prime_power
from .model import PrimePowerOrder, check_delta, delta_inverse
from .numtheory import check_int, is_prime


class TransformLabel(str, enum.Enum):
    Ia = "Ia"
    Ib = "Ib"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"

    def __str__(self) -> str:
        return self.value


# The rule for each pair of ends (d_u, d_v) of an all-2 gap.
_GAP_RULES = {
    (1, 3): TransformLabel.II,
    (3, 1): TransformLabel.II,
    (1, 1): TransformLabel.III,
    (3, 3): TransformLabel.IV,
}


def applicable(d: Sequence[int]) -> list[tuple[TransformLabel, int, Optional[int]]]:
    """All rule instances whose preconditions hold on d, deterministically ordered.

    Order: label (Ia, Ib, II, III, IV, V), then u ascending, then v
    ascending. The prime p plays no part: rule III applies in its
    energy-preserving case too.
    """
    d = check_delta(d)
    r1 = len(d)
    positions = range(1, r1 + 1)
    out: list[tuple[TransformLabel, int, Optional[int]]] = [
        (TransformLabel.Ia, u, None) for u in positions if d[u - 1] >= 4
    ]
    if max(d) == 3 and min(d) >= 2:
        out += [(TransformLabel.Ib, u, None) for u in positions if d[u - 1] == 3]
    # Between consecutive entries that are not 2 lies an all-2 gap, maybe empty.
    marks = [u for u in positions if d[u - 1] != 2]
    gaps = [(_GAP_RULES.get((d[u - 1], d[v - 1])), u, v) for u, v in zip(marks, marks[1:])]
    for label in (TransformLabel.II, TransformLabel.III, TransformLabel.IV):
        out += [gap for gap in gaps if gap[0] is label]
    if len(marks) == 1 and d[marks[0] - 1] == 1 and 1 < marks[0] < r1:
        out.append((TransformLabel.V, marks[0], None))
    return out


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
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not isinstance(label, TransformLabel):
        raise ValueError(f"label must be a TransformLabel, got {label!r}")
    check_int(u, "u")
    if v is not None:
        check_int(v, "v")
    if (label, u, v) not in applicable(d):
        raise ValueError(f"rule {label} does not apply at u={u}, v={v} to {d}")
    if label is TransformLabel.V:
        return (2,) * (len(d) - 1) + (1,), True
    if v is None:
        return d[: u - 1] + (2, d[u - 1] - 2) + d[u:], True
    strict = not (label is TransformLabel.III and p == 2 and u == 1 and v == len(d))
    return d[: u - 1] + (2,) * (v - u + _BLOCK_EXTRA[label]) + d[v:], strict


@dataclass(frozen=True)
class TransformStep:
    """One rewrite: label, positions, both vectors and both energies."""

    label: TransformLabel
    u: int
    v: Optional[int]
    before: tuple[int, ...]
    after: tuple[int, ...]
    energy_before: int
    energy_after: int
    strict: bool

    def __post_init__(self) -> None:
        if self.energy_after < self.energy_before:
            raise ValueError(
                f"energy must not decrease: {self.energy_before} -> {self.energy_after}"
            )
        if self.strict != (self.energy_after > self.energy_before):
            raise ValueError("strict flag disagrees with the energies")
        if not self.strict:
            shape_ok = (
                self.label is TransformLabel.III
                and self.before[0] == 1
                and self.before[-1] == 1
                and all(x == 2 for x in self.before[1:-1])
            )
            if not shape_ok:
                raise ValueError(
                    f"only rule III on (1,2,...,2,1) may preserve energy, got {self}"
                )


@dataclass(frozen=True)
class Trace:
    """A chained rewrite sequence ending in a terminal delta vector."""

    order: PrimePowerOrder
    steps: tuple[TransformStep, ...]
    terminal: tuple[int, ...]

    def __post_init__(self) -> None:
        for first, second in zip(self.steps, self.steps[1:]):
            if first.after != second.before:
                raise ValueError("trace steps do not chain")
            if first.energy_after != second.energy_before:
                raise ValueError("trace energies do not chain")
        if self.steps and self.steps[-1].after != self.terminal:
            raise ValueError("terminal does not match the last step")

    @property
    def initial(self) -> tuple[int, ...]:
        return self.steps[0].before if self.steps else self.terminal


def normalize(d0: Sequence[int], order: PrimePowerOrder) -> Trace:
    """Drive d0 to a terminal delta vector, recording every step.

    Applies the first applicable instance (order fixed by applicable)
    until none applies. Energies never decrease along the trace and
    strictly increase except at energy-preserving III steps. The
    terminal vector is always one of canonical_maximizer(order).
    """
    d = check_delta(d0)
    if sum(d) != order.s - 1:
        raise ValueError(f"delta vector {d} sums to {sum(d)}, needs s-1 = {order.s - 1}")
    p = order.p
    steps: list[TransformStep] = []
    energy = energy_prime_power(order, delta_inverse(d))
    limit = 4 * order.s + 16
    while True:
        instances = applicable(d)
        if not instances:
            break
        if len(steps) >= limit:
            raise RuntimeError(f"rewrite did not terminate within {limit} steps from {d0}")
        label, u, v = instances[0]
        after, strict = apply_rule(d, label, u, v, p)
        energy_after = energy_prime_power(order, delta_inverse(after))
        steps.append(TransformStep(label, u, v, d, after, energy, energy_after, strict))
        d, energy = after, energy_after
    if d not in canonical_maximizer(order):
        raise RuntimeError(f"terminal {d} is not a maximal-energy vector for {order}")
    return Trace(order=order, steps=tuple(steps), terminal=d)
