"""Exact composition identities and a labeled-tree census that certifies them.

Everything here is integer arithmetic.  The central quantity is the sum of
multinomial(n; k_1..k_r) * k_1^{k_2} * ... * k_{r-1}^{k_r} over all ordered
compositions (k_1,...,k_r) of n, which equals (n+1)^(n-1): the number of
labeled trees on n+1 vertices rooted at a fixed vertex, each composition
collecting the trees whose breadth-first level sizes are (k_1,...,k_r).
The tree census counts those trees outright, one rooted unlabeled shape at
a time, each weighted by its number of labelings n!/|Aut| (orbit-stabilizer),
and is the independent oracle for the identity, term by term.

The leading-run count is the urn and tower models' exact oracle: it counts
tuples of coordinates by their leading run, level by level, with binomials
(by Pascal's rule or a running product) and powers of the class sizes only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, ResourceLimitError

# Cap on the work of leading_run_counts, bounded as levels x prod_t (m_t + 1)
# x (N + 1) transitions, the dict step's; keeps an at-cap run in the seconds
# range on one core (2-vCPU Xeon, Python 3.11): 15 distinct tower types
# 1.4-1.6 s.  One type takes the Taylor shift, and at the cap urns
# (214, 215) 0.11 s, (2235, 2) 0.63 s and (1413, 5) 0.57 s, big integers
# being the cost, which this bound does not see.
LEADING_RUN_CAP = 10**7

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
    n=3 yields (3), (1,2), (2,1), (1,1,1).  An r-part composition is the gaps
    between cuts 0 < c_1 < ... < c_{r-1} < n, and cut sets taken in
    lexicographic order give their parts in lexicographic order.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    for r in range(1, n + 1):
        for cuts in itertools.combinations(range(1, n), r - 1):
            ends = (0, *cuts, n)
            yield Composition(tuple(b - a for a, b in zip(ends, ends[1:])))


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


def _lemma_row(m: int, below: list[list[int]], width: int) -> list[int]:
    """Row m >= 1 of the paper's recurrence, [0, G(1, m), ..., G(width, m)]:

        G(a, m) = sum_{k=1..m} C(m, k) * a^k * below[m - k][k],

    splitting off the first part k of a composition of m, a standing for the
    size of the level above it.  The coefficients C(m, k) * below[m - k][k] do
    not depend on a, so the row is one polynomial in a, evaluated by Horner's
    rule in O(m * width) products.  Row j of below must reach index m - j.
    """
    coeffs = [math.comb(m, k) * below[m - k][k] for k in range(1, m + 1)]
    row = [0]
    for a in range(1, width + 1):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc + c) * a
        row.append(acc)
    return row


def lemma_table(n: int) -> list[list[int]]:
    """The paper's auxiliary sums F(a, m) for a >= 1, a + m <= n, as table[m][a].

    F(a, m) sums multinomial(m; k_1..k_r) * a^{k_1} * k_1^{k_2} * ... *
    k_{r-1}^{k_r} over the compositions of m; F(a, 0) = 1.  The table feeds
    itself: row m is _lemma_row over the rows below it,

        F(a, m) = sum_{k=1..m} C(m, k) * a^k * F(k, m - k),

    so the O(n^2) entries cost O(n^3) products and no closed form.
    table[m][0] is a placeholder.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    table = [[0] + [1] * n]
    for m in range(1, n):
        table.append(_lemma_row(m, table, n - m))
    return table


def lemma_check(table: list[list[int]]) -> tuple[int, bool]:
    """Hold every entry F(a, m) of a lemma_table against the paper's closed
    form a (a+m)^(m-1), the lemma's induction hypothesis on the whole table.

    Each entry is compared as F(a, m) (a+m) == a (a+m)^m, so m = 0 needs no
    negative power.  Returns the number of entries checked, n(n+1)/2 for
    lemma_table(n), and whether all of them are equal.  At n = 150 the
    comparisons take 4-12 ms (2-vCPU Xeon).
    """
    checks = [
        row[a] * (a + m) == a * (a + m) ** m
        for m, row in enumerate(table)
        for a in range(1, len(row))
    ]
    return len(checks), all(checks)


def identity_lhs(n: int) -> int:
    """Sum of multinomial(n,c) * cascade_weight(c) over all compositions c of n.

    That is F(1, n) of the paper's lemma, read off lemma_table(n) by
    table_identity_lhs.  The table takes O(n^3) products and no closed form,
    so the result is a count to hold against identity_rhs(n), which it
    equals for every n.
    """
    return table_identity_lhs(lemma_table(n))


def table_identity_lhs(table: list[list[int]]) -> int:
    """identity_lhs(n) from lemma_table(n): one more _lemma_row over it,

        F(1, n) = sum_{k=1..n} C(n, k) * F(k, n - k),

    with F(a, 0) = 1 and F(a, m) = sum_{k=1..m} C(m, k) * a^k * F(k, m - k).
    """
    return _lemma_row(len(table), table, 1)[1]


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

    Both are s steps of _lemma_row, each of which puts one more part in
    front, read at (a, m) = (1, n).  partial starts from the empty
    composition, 1 at m = 0 and 0 elsewhere; remainder from the lemma's
    closed form a * (a+m)^(m-1) for m >= 1, which closes the tail after the
    s-th part, and 0 at m = 0.  The two are counted apart, never one as
    rhs minus the other.  After step j only a + m <= n+1-s+j is read again,
    so the tables shrink to that range.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 1 <= s <= n:
        raise DomainError(f"s must lie in 1..{n}, got {s}")
    reach = n + 1 - s  # the start tables hold a + m <= reach
    partial = [[0] + [1] * reach] + [[0] * (reach + 1 - m) for m in range(1, reach)]
    remainder = [[0] * (reach + 1)] + [
        [0] + [a * (a + m) ** (m - 1) for a in range(1, reach + 1 - m)] for m in range(1, reach)
    ]
    for top in range(reach + 1, n + 2):
        partial = [[0] + [1] * top] + [_lemma_row(m, partial, top - m) for m in range(1, top)]
        remainder = [[0] * (top + 1)] + [_lemma_row(m, remainder, top - m) for m in range(1, top)]
    return partial[n][1], remainder[n][1]


def _forest_layers(n: int) -> list[int]:
    """For r = 1..n, the sum over the r-part compositions (k_1,...,k_r) of n of

        multinomial(n; k_1..k_r) * k_1^(k_1-1) * ... * k_r^(k_r-1).

    The factor of a part does not depend on the part before it, so layer r
    keeps one weight per remainder: W_r(rem) sums n!/(k_1!...k_r! rem!) times
    the factors over the r-part prefixes that leave rem, part k extends it by
    C(rem, k) * k^(k-1), and the layer sum is W_r(0).  O(n^2) per layer.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    step = [0] + [k ** (k - 1) for k in range(1, n + 1)]
    sums = []
    layer = [0] * n + [1]  # layer[rem]
    for _ in range(n):
        nxt = [0] * (n + 1)
        for rem in range(1, n + 1):
            w = layer[rem]
            if w:
                for k in range(1, rem + 1):
                    nxt[rem - k] += w * math.comb(rem, k) * step[k]
        sums.append(nxt[0])
        layer = nxt
    return sums


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
    for r, inner in enumerate(_forest_layers(n), 1):
        q, rem = divmod(inner, math.factorial(r))
        if rem:
            raise AssertionError(f"layer r={r} of n={n} not divisible by r!")
        total += q
    return total


def forest_identity_ordered_sum(n: int) -> int:
    """The raw ordered sum (no 1/r!); differs from identity_rhs(n) for n >= 2."""
    return sum(_forest_layers(n))


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


def check_leading_run(ms: Sequence[int], cap: int) -> None:
    """Refuse a leading_run_counts call over types of ms[t] coordinates and
    cap levels whose transition bound, cap * prod_t (m_t + 1) * (N + 1),
    exceeds LEADING_RUN_CAP.

    The bound counts the dict step's work for several types: the states
    times the classes a type can put.  It overstates the Taylor shift that
    one type takes, which makes sum_l (m - l)(m - l + 1)/2 additions, 2 to
    6 times fewer; and it does not see the size of the big integers, which
    is what the time follows."""
    n = sum(ms)
    if not 1 <= cap <= n:
        raise DomainError(f"leading-run cap must lie in 1..{n}, got {cap}")
    work = cap * (n + 1)
    for m in ms:
        work *= m + 1
        if work > LEADING_RUN_CAP:
            raise ResourceLimitError(
                f"leading-run count (levels: {cap}, coordinates: {n}, types: {len(ms)}) "
                f"exceeds the cap of {LEADING_RUN_CAP} transitions"
            )


def leading_run_counts(types: Sequence[tuple[int, Iterable[int], int]], cap: int) -> list[int]:
    """Count coordinate tuples by leading run X: the first k < cap with at
    most k coordinates in classes 0..k, or cap if there is none.

    Type t is (m_t, sizes_t, total_t): m_t coordinates, each in class l < cap
    in sizes_t[l] ways and in total_t ways in all; sizes_t is read once per
    level, in order.  Returns counts[a] for a = 0..N, N = sum of the m_t.
    At level l each type puts c of the coordinates it has left in class l,
    in C(left, c) * sizes_t[l]^c ways.  A tuple with at most l coordinates
    placed has X = l, and each coordinate left lies above class l in above_t
    ways; a tuple still running after level cap - 1 has X = cap.  The cap
    (check_leading_run) is checked before any work.

    One type keeps its weights as a list w[left], left = 0..top: the
    coefficients of P(x) = sum w[left] x^left.  A level maps P(x) to
    P(x + s), a Taylor shift done in place by Horner's rule, which builds
    the binomials by Pascal's rule: top(top+1)/2 additions, each with a
    product by s unless s is 1.  Then the one entry with left = top stops.

    Several types keep a dict of states, the number of coordinates left of
    each type packed as mixed-radix digits, with their total on the digit
    above, so one comparison finds the states that stop.  The weight moves
    from c to c + 1 as a running product.  A stopped state is scored from
    the level's tables of above_t^k.
    """
    ms = [m for m, _, _ in types]
    check_leading_run(ms, cap)
    n = sum(ms)
    counts = [0] * (n + 1)
    if len(types) == 1:
        ((m, sizes, above),) = types
        it = iter(sizes)
        w = [0] * m + [1]
        for l in range(cap):
            s = next(it)
            above -= s
            top = m - l
            if s == 1:
                for i in range(top):
                    for j in range(top - 1, i - 1, -1):
                        w[j] += w[j + 1]
            elif s:
                for i in range(top):
                    for j in range(top - 1, i - 1, -1):
                        w[j] += s * w[j + 1]
            counts[l] = w.pop() * above**top
        for c in reversed(w):  # P(above): the tuples still running
            counts[cap] = counts[cap] * above + c
        return counts
    sizes = [iter(s) for _, s, _ in types]
    above = [total for _, _, total in types]
    radices = [m + 1 for m in ms]
    strides = [1]
    for r in radices:
        strides.append(strides[-1] * r)
    whole = strides.pop()  # the stride of the digit that counts the coordinates left
    states = {sum(m * d for m, d in zip(ms, strides)) + n * whole: 1}
    for l in range(cap):
        for t, it in enumerate(sizes):
            s = next(it)
            if not s:
                continue
            above[t] -= s
            stride, radix = strides[t], radices[t]
            step = stride + whole
            nxt: dict[int, int] = {}
            for key, w in states.items():
                left = key // stride % radix
                nxt[key] = nxt.get(key, 0) + w
                for c in range(left):
                    # exact: C(left, c) (left - c) = C(left, c + 1) (c + 1)
                    w = w * (left - c) * s // (c + 1)
                    key -= step
                    nxt[key] = nxt.get(key, 0) + w
            states = nxt
        pows = [[a**k for k in range(r)] for a, r in zip(above, radices)]
        stop = (n - l) * whole  # a state from here up has placed at most l
        last = l == cap - 1
        running = {}
        for key, w in states.items():
            if key < stop and not last:
                running[key] = w
                continue
            for p, stride, radix in zip(pows, strides, radices):
                w *= p[key // stride % radix]
            counts[l if key >= stop else cap] += w
        states = running
    return counts
