"""Subset-sum solvers driven by additive structure.

The binary solver is the one-row specialization of the reachable-sum DP;
its cost follows the number of distinct reachable sums that can still hit
the target, at most what the doubling-sensitive analysis bounds, and a
table cap turns the densest inputs into a clean failure. The unbounded
solver goes the long way around: encode elements as progression
coordinates, enumerate the few supports a lexicographically-least solution
can use (those of the least solutions for binary column-sum targets, one
walk per target), then solve coin reachability per support whose gcd
divides the remainder; both steps run the box engine of `ilp` (big-int
closures by doubling passes), on the elements and target divided by
gcd(z), so a target that gcd does not divide is an exact "no" at once.

`SubsetSumInstance.solved_by` is the one validity rule for a subset-sum
witness: both solvers re-check their witness through it before returning,
and `gapsolve verify witness` calls it for subset-sum instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from gapsolve.core import (
    DEFAULT_TABLE_CAP,
    EnumerationCapError,
    IntegerSet,
    InvariantError,
    Matrix,
    SolveWitness,
    _exact_int,
)
from gapsolve.ilp import (
    BilpInstance,
    _BoxReachability,
    bilp_feasibility_dp,
    binary_image_supports,
    ss_to_hbilp,
)

SS_MODES = ("binary", "unbounded")
# the unbounded solver's coin reachability keeps one state per value 0..target
UNBOUNDED_TARGET_CAP = 2_000_000


@dataclass(frozen=True)
class SubsetSumInstance:
    elements: IntegerSet
    target: int
    mode: str = "binary"

    def __post_init__(self):
        if self.mode not in SS_MODES:
            raise ValueError(f"mode must be one of {SS_MODES}")

    def solved_by(self, w: SolveWitness) -> bool:
        """Whether w solves (elements, target): in-range indices whose
        elements sum to the target, or one nonnegative multiplicity per
        element (at most 1 in binary mode) with that sum. Every other
        witness kind is refused."""
        vals = self.elements.elements
        if w.kind == "subset-of-indices":
            if any(not 0 <= i < len(vals) for i in w.payload):
                return False
            return sum(vals[i] for i in w.payload) == self.target
        if w.kind == "multiplicity-vector":
            if len(w.payload) != len(vals) or any(v < 0 for v in w.payload):
                return False
            if self.mode == "binary" and any(v > 1 for v in w.payload):
                return False
            return sum(v * m for v, m in zip(vals, w.payload)) == self.target
        return False

    def to_json_dict(self) -> dict:
        return {
            "elements": list(self.elements.elements),
            "target": self.target,
            "mode": self.mode,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SubsetSumInstance":
        return cls(
            IntegerSet.from_iterable(d["elements"]),
            _exact_int(d["target"]),
            d.get("mode", "binary"),
        )


def subset_sum_doubling(
    z: IntegerSet, t: int, table_cap: int = DEFAULT_TABLE_CAP
) -> Optional[SolveWitness]:
    """Binary subset sum through the reachable-sum table.

    After each element the table keeps the distinct subset sums s for which
    t - s lies between the least and the greatest sum of the remaining
    elements, so it never exceeds the number of distinct subset sums, which
    is what additive structure in z keeps small; table_cap bounds that kept
    table and turns the densest
    inputs into a clean failure instead of a memory grab. The fill order is
    deterministic.
    """
    inst = BilpInstance.binary(Matrix.from_rows([list(z.elements)]), [t])
    w = bilp_feasibility_dp(inst, table_cap=table_cap)
    if w is None:
        return None
    w = SolveWitness("subset-of-indices", tuple(j for j, v in enumerate(w.payload) if v))
    if not SubsetSumInstance(z, t).solved_by(w):
        raise InvariantError("subset witness failed re-evaluation")
    return w


def unbounded_subset_sum(z: IntegerSet, t: int, rng) -> Optional[SolveWitness]:
    """Unbounded subset sum via progression structure of the element set.

    Every nonnegative combination of z is a multiple of g = gcd(z), so a
    target that g does not divide is an exact "no"; otherwise elements and
    target are divided by g, which keeps every multiplicity vector, and the
    rest runs on the quotients. Elements become columns of coordinates in a
    covering progression, and the lexicographically-least multiplicity
    vector for any reachable coordinate target has a support that also
    shows up for some binary column-sum target. Those supports are
    enumerable, and within a fixed support the problem is ordinary coin
    reachability. The coordinate box grows quickly with set size; this is a
    small-n solver by design, and the box cap of `ilp` and
    UNBOUNDED_TARGET_CAP (on t / g), read at call time, say so rather than
    letting it thrash.
    """
    if z.min() < 1:
        raise ValueError("elements must be positive")
    n = len(z)
    if t < 0:
        return None
    if t == 0:
        return SolveWitness("multiplicity-vector", (0,) * n)
    g = math.gcd(*z.elements)
    if t % g:
        return None
    goal = t // g
    if goal > UNBOUNDED_TARGET_CAP:
        raise EnumerationCapError(
            f"target {goal} above cap {UNBOUNDED_TARGET_CAP}: "
            f"coin reachability keeps target + 1 = {goal + 1} states"
        )
    values = tuple(v // g for v in z.elements)
    enc = ss_to_hbilp(IntegerSet(values), goal, rng)
    supports = binary_image_supports(enc.instance.a)
    for sigma in supports:
        if not sigma:
            continue
        rem = goal - sum(values[j] for j in sigma)
        if rem < 0 or rem % math.gcd(*(values[j] for j in sigma)):
            continue  # every coin sum over sigma is a multiple of that gcd
        # a one-row box [0, rem]; the target cap already bounds its states
        coins = _BoxReachability([(values[j],) for j in sigma], rem, UNBOUNDED_TARGET_CAP + 1)
        extras = coins.lexmin((rem,))
        if extras is None:
            continue
        x = [0] * n
        for j, e in zip(sigma, extras):
            x[j] = 1 + e
        w = SolveWitness("multiplicity-vector", tuple(x))
        if not SubsetSumInstance(z, t, "unbounded").solved_by(w):
            raise InvariantError("multiplicity witness failed re-evaluation")
        return w
    return None


def solve_subset_sum(
    inst: SubsetSumInstance, rng, table_cap: int = DEFAULT_TABLE_CAP
) -> Optional[SolveWitness]:
    if inst.mode == "binary":
        return subset_sum_doubling(inst.elements, inst.target, table_cap=table_cap)
    return unbounded_subset_sum(inst.elements, inst.target, rng)
