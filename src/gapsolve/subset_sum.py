"""Subset-sum solvers driven by additive structure.

The binary solver is the one-row specialization of the reachable-sum DP;
its cost follows the number of distinct reachable sums that can still hit
the target, at most what the doubling-sensitive analysis bounds, and a
table cap turns the densest inputs into a clean failure. The unbounded
solver divides elements and target by g = gcd(z), so a target that g does
not divide is an exact "no" at once, and then runs one one-row box of the
box engine of `ilp` (big-int closures by doubling passes) over all the
quotient coins on [0, t / g]. Its suffix walk takes each coin's multiple
in one step and gives the lexicographically least multiplicity vector, the
witness `oracles.brute_unbounded_subset_sum` returns. The solver's one
refusal bounds what that box keeps: n + 1 closures of t / g + 1 bits, at
most `UNBOUNDED_BOX_BITS` in all. Both solvers are deterministic: neither
draws random numbers, and `solve_subset_sum` takes only the instance.

`SubsetSumInstance` and `SS_MODES` live in `core` and are re-exported
here. The instance's `violation` is the one validity rule for a subset-sum
witness, and `solved_by` asks it: both solvers re-check their witness
through it before returning, `ksum` and the two subset decoders of `ilp`
call it, and `gapsolve verify witness` calls it for subset-sum instances.
"""

from __future__ import annotations

import math
from typing import Optional

from gapsolve.core import (
    DEFAULT_TABLE_CAP,
    EnumerationCapError,
    IntegerSet,
    InvariantError,
    Matrix,
    SS_MODES,  # noqa: F401  re-exported
    SolveWitness,
    SubsetSumInstance,
)
from gapsolve.ilp import BilpInstance, _BoxReachability, bilp_feasibility_dp

# bits the unbounded solver's coin box may keep: n + 1 closures of
# target / g + 1 bits each (2 MB)
UNBOUNDED_BOX_BITS = 16_000_000


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
    """Unbounded subset sum as coin reachability in one box.

    Every nonnegative combination of z is a multiple of g = gcd(z), so a
    target that g does not divide is an exact "no"; otherwise elements and
    target are divided by g, which keeps every multiplicity vector. One
    one-row `_BoxReachability` over all the quotient coins on [0, t / g]
    marks the values each suffix of the coins reaches, and its walk returns
    the lexicographically least multiplicity vector in element order, the
    one `oracles.brute_unbounded_subset_sum` returns, the zero vector at
    t = 0. The box keeps n + 1 closures of t / g + 1 bits each, so a query
    whose closures pass UNBOUNDED_BOX_BITS (read at call time) is refused
    before any is built. Nothing is drawn from rng: it stays in the
    signature only because the benchmark harness passes one, and
    `solve_subset_sum` passes None.
    """
    if z.min() < 1:
        raise ValueError("elements must be positive")
    n = len(z)
    if t < 0:
        return None
    g = math.gcd(*z.elements)
    if t % g:
        return None
    goal = t // g
    bits = (n + 1) * (goal + 1)
    if bits > UNBOUNDED_BOX_BITS:
        raise EnumerationCapError(
            f"coin box keeps {n + 1} closures of {goal + 1} bits, "
            f"{bits} above cap {UNBOUNDED_BOX_BITS}"
        )
    coins = _BoxReachability([(v // g,) for v in z.elements], goal)
    x = coins.lexmin((goal,))
    if x is None:
        return None
    w = SolveWitness("multiplicity-vector", x)
    if not SubsetSumInstance(z, t, "unbounded").solved_by(w):
        raise InvariantError("multiplicity witness failed re-evaluation")
    return w


def solve_subset_sum(inst: SubsetSumInstance) -> Optional[SolveWitness]:
    """The instance's mode picks the solver: `subset_sum_doubling` at the
    default table cap, or `unbounded_subset_sum`."""
    if inst.mode == "binary":
        return subset_sum_doubling(inst.elements, inst.target)
    return unbounded_subset_sum(inst.elements, inst.target, None)
