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
all. An all-2 gap runs between consecutive entries that are not 2, so
one pattern search over those entries finds every II/III/IV instance.
apply_rule rewrites an instance only when _instances yields it. Each
application strictly increases the gcd-graph energy for every prime
p, with one exception: rule III on (1, 2, ..., 2, 1) at p = 2
preserves the energy exactly (recorded as strict=False). normalize
takes the first instance at each step (label order above, then
leftmost) to a fixed point; the fixed points are exactly the
maximal-energy delta vectors from canonical_maximizer (stated in the
energy module next to emax_closed, and re-exported here).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from itertools import compress, count, repeat
from typing import Iterator, Optional, Sequence

from .energy import _gap_energy, canonical_maximizer
from .model import PrimePowerOrder, check_delta
from .numtheory import check_int, check_prime


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


# One overlapping pattern per gap rule, over the packed ends (see _instances).
_GAP_PATTERNS = (
    (TransformLabel.II, re.compile(b"(?=\x01\x03|\x03\x01)")),
    (TransformLabel.III, re.compile(b"(?=\x01\x01)")),
    (TransformLabel.IV, re.compile(b"(?=\x03\x03)")),
)
# Byte values clipped at 4: an entry of 4 or more ends no gap rule.
_CLIP_AT_4 = bytes(min(x, 4) for x in range(256))


def _instances(d: tuple[int, ...]) -> Iterator[tuple[TransformLabel, int, Optional[int]]]:
    """The instances applicable lists, lazily, on a delta vector already checked.

    Each label's block is found by C-level scans (max/min, compress,
    bytes.translate, one regex per gap rule, index), and only a label
    whose preconditions can hold is scanned, so taking the first
    instance does not list the rest.
    """
    high, low = max(d), min(d)
    if high >= 4:
        for u in compress(count(1), map((3).__lt__, d)):
            yield TransformLabel.Ia, u, None
    elif high == 3 and low >= 2:
        for u in compress(count(1), map((3).__eq__, d)):
            yield TransformLabel.Ib, u, None
    if low == high == 2 or low >= 4:
        return
    # The entries that are not 2, clipped at 4: an all-2 gap runs between
    # neighbours here, so the gap rules are overlapping byte patterns.
    packed = bytes(d) if high < 256 else bytes(map(min, d, repeat(4)))
    ends = packed.translate(_CLIP_AT_4, b"\x02")
    if len(ends) >= 2:
        marks = list(compress(count(1), map((2).__ne__, d)))
        for label, pattern in _GAP_PATTERNS:
            for match in pattern.finditer(ends):
                i = match.start()
                yield label, marks[i], marks[i + 1]
    elif ends == b"\x01":
        u = d.index(1) + 1
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
        raise ValueError(f"label must be a TransformLabel, got {label!r}")
    check_int(u, "u")
    if v is not None:
        check_int(v, "v")
    if (label, u, v) not in _instances(d):
        raise ValueError(f"rule {label} does not apply at u={u}, v={v} to {d}")
    return _apply(d, label, u, v, p)


def _apply(
    d: tuple[int, ...], label: TransformLabel, u: int, v: Optional[int], p: int
) -> tuple[tuple[int, ...], bool]:
    """apply_rule on an instance that _instances(d) yields, unchecked."""
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

    Applies the first applicable instance (order fixed by applicable),
    drawn alone from the lazy scan, until none applies. Energies never
    decrease along the trace and strictly increase except at
    energy-preserving III steps. The terminal vector is always one of
    canonical_maximizer(order).

    d0, its sum and p are checked once here. Every later vector is built
    by a rule from a checked one, so the loop runs the unchecked scan,
    rewrite and energy; each TransformStep and the Trace still check
    their own invariants.
    """
    d = check_delta(d0)
    if sum(d) != order.s - 1:
        raise ValueError(f"delta vector {d} sums to {sum(d)}, needs s-1 = {order.s - 1}")
    p, s = order.p, order.s
    check_prime(p)
    steps: list[TransformStep] = []
    energy = _gap_energy(p, s, d, 0)
    limit = 4 * s + 16
    while (instance := next(_instances(d), None)) is not None:
        if len(steps) >= limit:
            raise RuntimeError(f"rewrite did not terminate within {limit} steps from {d0}")
        label, u, v = instance
        after, strict = _apply(d, label, u, v, p)
        energy_after = _gap_energy(p, s, after, 0)
        steps.append(TransformStep(label, u, v, d, after, energy, energy_after, strict))
        d, energy = after, energy_after
    if d not in canonical_maximizer(order):
        raise RuntimeError(f"terminal {d} is not a maximal-energy vector for {order}")
    return Trace(order=order, steps=tuple(steps), terminal=d)
