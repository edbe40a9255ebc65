"""Exact composition identities and a labeled-tree census that certifies them.

Everything here is integer arithmetic.  The central quantity is the sum of
multinomial(n; k_1..k_r) * k_1^{k_2} * ... * k_{r-1}^{k_r} over all ordered
compositions (k_1,...,k_r) of n, which equals (n+1)^(n-1): the number of
labeled trees on n+1 vertices rooted at a fixed vertex, each composition
collecting the trees whose breadth-first level sizes are (k_1,...,k_r).
The tree census counts those trees outright, one rooted unlabeled shape at
a time, each weighted by its number of labelings n!/|Aut| (orbit-stabilizer),
and is the independent oracle for the identity, term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import DomainError, ResourceLimitError

# Enumeration cap for tree_census, in vertices (n + 1 <= cap).  At the cap,
# `trees --n 14` generates the 87,811 rooted shapes on 15 vertices (census
# 0.23 s) and writes the 8,192 profiles in about 0.6 s and 45 MiB peak RSS on
# one core (2-vCPU Xeon, Python 3.11).  16 vertices, 235,381 shapes, take
# 1.2-1.5 s and 61 MiB, over the budget of about 1.2 s for one census run.
DEFAULT_TREE_ENUM_VERTICES = 15


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive integers; ``n`` is their sum, ``r`` the length."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise DomainError("a composition needs at least one part")
        if any(k < 1 for k in self.parts):
            raise DomainError(f"composition parts must be >= 1, got {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def r(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class TreeCensus:
    """Count of rooted labeled trees on n+1 vertices, broken down by level profile."""

    n: int
    total: int
    profiles: dict[Composition, int] = field(compare=False)

    def __post_init__(self) -> None:
        if sum(self.profiles.values()) != self.total:
            raise DomainError("profile counts do not add up to the census total")


def compositions(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n, in ascending part count then lexicographic order.

    The order is fixed so fixtures and serialized profiles are reproducible:
    n=3 yields (3), (1,2), (2,1), (1,1,1).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    for r in range(1, n + 1):
        for parts in _compositions_into(n, r):
            yield Composition(parts)


def _compositions_into(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n into exactly r positive parts, lexicographically."""
    if r == 1:
        yield (n,)
        return
    for first in range(1, n - r + 2):
        for rest in _compositions_into(n - first, r - 1):
            yield (first,) + rest


def multinomial(n: int, parts: Composition | Iterable[int]) -> int:
    """Exact multinomial coefficient n! / (k_1! * ... * k_r!)."""
    ks = tuple(parts.parts if isinstance(parts, Composition) else parts)
    if any(k < 0 for k in ks):
        raise DomainError(f"multinomial parts must be >= 0, got {ks}")
    if sum(ks) != n:
        raise DomainError(f"parts {ks} sum to {sum(ks)}, expected {n}")
    out = math.factorial(n)
    for k in ks:
        out //= math.factorial(k)
    return out


def cascade_weight(c: Composition) -> int:
    """Product k_1^{k_2} * k_2^{k_3} * ... * k_{r-1}^{k_r}; 1 for a single part."""
    w = 1
    for prev, cur in zip(c.parts, c.parts[1:]):
        w *= prev**cur
    return w


def _layer_sums(n: int, step, depth: int) -> tuple[list[int], dict[tuple[int, int], int]]:
    """For r = 1..depth, the sum over the r-part compositions (k_1,...,k_r) of n of

        multinomial(n; k_1..k_r) * step(0, k_1) * step(k_1, k_2) * ... * step(k_{r-1}, k_r),

    and the weights W_depth(last, rem) of the depth-part prefixes that leave rem >= 1.

    Layer r keeps one weight per state (last part, remainder): W_r(last, rem)
    sums n!/(k_1!...k_r! rem!) * step(0, k_1) * ... * step(k_{r-1}, k_r) over
    the prefixes ending in last that leave rem.  Part k extends a state by the
    factor C(rem, k) * step(last, k); the layer sum is the weight reaching
    rem = 0.  So the cost is polynomial in n, not 2^(n-1).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    sums = []
    layer = {(0, n): 1}
    for _ in range(depth):
        nxt: dict[tuple[int, int], int] = {}
        for (last, rem), w in layer.items():
            for k in range(1, rem + 1):
                state = (k, rem - k)
                nxt[state] = nxt.get(state, 0) + w * math.comb(rem, k) * step(last, k)
        sums.append(sum(w for (_, rem), w in nxt.items() if rem == 0))
        layer = {state: w for state, w in nxt.items() if state[1]}
    return sums, layer


def _cascade_step(last: int, k: int) -> int:
    return last**k if last else 1


def _forest_step(last: int, k: int) -> int:
    return k ** (k - 1)


def identity_lhs(n: int) -> int:
    """Sum of multinomial(n,c) * cascade_weight(c) over all compositions c of n.

    Equals identity_rhs(n) for every n.
    """
    return sum(_layer_sums(n, _cascade_step, n)[0])


def identity_rhs(n: int) -> int:
    """(n+1)^(n-1): rooted labeled trees on n+1 vertices (Cayley)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return (n + 1) ** (n - 1)


def induction_step_check(n: int, s: int) -> tuple[int, int]:
    """Split (n+1)^(n-1) into the first s composition layers plus a remainder.

    Returns (partial, remainder) where partial sums multinomial * cascade
    over compositions with at most s parts, and remainder sums, over all
    (k_1,...,k_s) >= 1 with k_1+...+k_s < n,

        n!/(k_1!...k_s!(n-m)!) * k_s * k_1^{k_2}...k_{s-1}^{k_s} * b^(n-m-1)

    with m = k_1+...+k_s and b = n - k_1 - ... - k_{s-1}.  The two always
    add up to identity_rhs(n).

    One run of _layer_sums to depth s gives both: the partial sums its layers,
    and as b = k_s + rem and n-m-1 = rem-1 for rem = n-m, the remainder sums
    W_s(k, rem) * k * (k+rem)^(rem-1) over the states it leaves open.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 1 <= s <= n:
        raise DomainError(f"s must lie in 1..{n}, got {s}")
    sums, open_states = _layer_sums(n, _cascade_step, s)
    remainder = sum(w * k * (k + rem) ** (rem - 1) for (k, rem), w in open_states.items())
    return sum(sums), remainder


def forest_identity_lhs(n: int) -> int:
    """Forest-style analogue: sum over compositions of multinomial * prod k^(k-1),
    with the r-part layer divided by r!.

    The division removes the ordering of the blocks: a set partition into r
    blocks is hit r! times by ordered compositions, so the raw ordered sum
    overcounts (4 instead of 3 already at n=2).  The divided sum equals
    identity_rhs(n); the inner sum is always divisible by r!, and a failed
    division is a bug, not an input error.
    """
    total = 0
    for r, inner in enumerate(_layer_sums(n, _forest_step, n)[0], 1):
        q, rem = divmod(inner, math.factorial(r))
        if rem:
            raise AssertionError(f"layer r={r} of n={n} not divisible by r!")
        total += q
    return total


def forest_identity_ordered_sum(n: int) -> int:
    """The raw ordered sum (no 1/r!); differs from identity_rhs(n) for n >= 2."""
    return sum(_layer_sums(n, _forest_step, n)[0])


def _rooted_shapes(m: int) -> tuple[list[int], list[int], list[int]]:
    """The rooted unlabeled trees on 1..m vertices, each generated once.

    Returns (levels, auts, ends).  Trees are numbered by size: those on k
    vertices have the ids ends[k-1] <= t < ends[k].  A tree is its root plus a
    multiset of child trees, generated as the id sequences that never
    increase, so each multiset comes up once.  levels[t] packs the level sizes
    below the root of tree t as base-m digits, level 1 in the units digit; no
    level holds m or more vertices, so adding two packed profiles adds them
    level by level without a carry.  auts[t] is the number of automorphisms
    of tree t that fix its root: the product, over each class of j identical
    children, of j! * |Aut(child)|^j, taken one child at a time as a running
    product.
    """
    levels, auts, sizes = [0], [1], [1]  # id 0 is the single vertex
    ends = [0, 1]

    def grow(rem: int, prev: int, run: int, kids: int, below: int, aut: int) -> None:
        # Extend a forest whose last child is tree prev, taken run times so
        # far, by trees no later than prev until rem vertices are used up.
        if not rem:
            levels.append(kids + m * below)
            auts.append(aut)
            return
        for t in range(min(prev, ends[rem] - 1), -1, -1):
            j = run + 1 if t == prev else 1
            grow(rem - sizes[t], t, j, kids + 1, below + levels[t], aut * j * auts[t])

    for k in range(2, m + 1):
        # run = 0: no child is taken yet, so the first one starts its class at 1
        grow(k - 1, ends[k - 1] - 1, 0, 0, 0, 1)
        sizes += [k] * (len(levels) - len(sizes))
        ends.append(len(levels))
    return levels, auts, ends


def tree_census(n: int) -> TreeCensus:
    """Count all labeled trees on {0..n} rooted at 0, grouped by level profile.

    Generates each rooted unlabeled tree T on n+1 vertices once and weights
    it by its labelings: the n! ways to put the labels 1..n on the non-root
    vertices, divided by |Aut(T)|, the root-fixing automorphisms, which map
    each labeling onto the same labeled tree (orbit-stabilizer).  The level
    profile is read off the shape.  So the total, (n+1)^(n-1), and each
    profile count, to hold against multinomial(n, c) * cascade_weight(c), are
    independently counted values: n! is a running product, |Aut(T)| a product
    of child-class sizes and child automorphism counts, and no closed form or
    power enters the count.  An |Aut(T)| that does not divide n! is a fault in
    the enumeration, not an input error, and raises AssertionError.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    m = n + 1
    if m > DEFAULT_TREE_ENUM_VERTICES:
        raise ResourceLimitError(
            f"census over {m} vertices exceeds the cap of {DEFAULT_TREE_ENUM_VERTICES}"
        )
    levels, auts, ends = _rooted_shapes(m)
    labelings = 1
    for k in range(2, m):
        labelings *= k
    counts: dict[int, int] = {}
    for t in range(ends[n], ends[m]):
        q, r = divmod(labelings, auts[t])
        if r:
            raise AssertionError(
                f"|Aut| = {auts[t]} of a tree on {m} vertices does not divide {n}!"
            )
        counts[levels[t]] = counts.get(levels[t], 0) + q
    profiles = {}
    for key, c in counts.items():
        parts = []
        while key:  # levels are contiguous, so every digit up to the top one is >= 1
            key, k = divmod(key, m)
            parts.append(k)
        profiles[Composition(tuple(parts))] = c
    return TreeCensus(n=n, total=sum(counts.values()), profiles=profiles)
