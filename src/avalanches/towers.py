"""Product system of cyclic towers, its avalanche-size function, and exact laws.

Each coordinate lives on Z_L with the shift x -> x + w (mod L), base
B = {0..w-1} and excited top level U = {h*w .. h*w + w - 1}; the levels
S^k(B), k = 0..h, are pairwise disjoint because (h+1)*w <= L, and the
uniform measure gives U exact mass w/L.  Heights must exceed the coordinate
count (h + 1 > N) so no coordinate can pass through its excited set twice
within one cascade.  The exact oracle scores one state per tuple of hit
classes with the literal cascade recursion and counts each tuple exactly,
so it shares no arithmetic with the closed forms.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, product
from typing import Sequence

import numpy as np

from .distributions import AvalancheParams, Pmf, _abel_numerators, _exact_pmf, avalanche_pmf
from .errors import DomainError, ResourceLimitError
from .sampling import (
    SimResult,
    SplitMix64,
    campaign_histogram,
    check_seed,
    derive_stream,
    leading_run,
)

# Cap on the oracle's scan (the sum of the L_i) and on its hit-class tuples;
# keeps an at-cap run in the seconds range on one core (about 5 s on a 2-vCPU
# Xeon, where criterion 7's (64,1,8) x 8 takes 0.9 s).
DEFAULT_STATE_CAP = 10**5

# Draws per vectorized block of the sampler, one per coordinate and trial, and
# the sampler's cap on N: a block holds _BLOCK_DRAWS // N trials, so its int32
# hit times take 4 MiB per shard at any N.  A block makes one draw call per
# coordinate, so smaller blocks pay more per-call overhead: at N = 200, blocks
# of 2^18 draws take 2.7 times as long.  A memory bound, not a semantics knob:
# each coordinate stream is consumed in trial order regardless.
_BLOCK_DRAWS = 1 << 20


@dataclass(frozen=True)
class CoordinateTower:
    """One cyclic coordinate: state space size L, base width w, height h."""

    L: int
    w: int
    height: int

    def __post_init__(self) -> None:
        if self.w < 1:
            raise DomainError(f"base width must be >= 1, got {self.w}")
        if self.height < 0:
            raise DomainError(f"height must be >= 0, got {self.height}")
        if (self.height + 1) * self.w > self.L:
            raise DomainError(
                f"levels not disjoint: ({self.height}+1)*{self.w} > {self.L}"
            )

    @property
    def p(self) -> Fraction:
        """Exact mass of the excited set under the uniform measure."""
        return Fraction(self.w, self.L)

    def in_excited(self, x: int) -> bool:
        return self.height * self.w <= x < (self.height + 1) * self.w

    def step(self, x: int, l: int = 1) -> int:
        return (x + l * self.w) % self.L


@dataclass(frozen=True)
class TowerSystem:
    """N coordinate towers driven jointly by the product shift."""

    coords: tuple[CoordinateTower, ...]

    def __post_init__(self) -> None:
        n = len(self.coords)
        if n < 1:
            raise DomainError("a system needs at least one coordinate")
        for i, c in enumerate(self.coords):
            if c.height + 1 <= n:
                raise DomainError(
                    f"coordinate {i}: height+1 = {c.height + 1} must exceed N = {n}"
                )

    @property
    def N(self) -> int:
        return len(self.coords)

    def ps(self) -> tuple[Fraction, ...]:
        return tuple(c.p for c in self.coords)


def make_tower_system(specs: Sequence[tuple[int, int, int]]) -> TowerSystem:
    """Build and validate a system from (L, w, height) triples."""
    return TowerSystem(coords=tuple(CoordinateTower(L, w, h) for L, w, h in specs))


def _check_state(x: Sequence[int], sys: TowerSystem) -> None:
    if len(x) != sys.N:
        raise DomainError(f"state has {len(x)} coordinates, system has {sys.N}")
    for i, (xi, c) in enumerate(zip(x, sys.coords)):
        if not 0 <= xi < c.L:
            raise DomainError(f"coordinate {i}: {xi} outside 0..{c.L - 1}")


def avalanche_trace(x: Sequence[int], sys: TowerSystem) -> list[int]:
    """The cascade counts A(x,1), A(x,2), ... up to and including the first repeat.

    A(x,1) counts coordinates already excited; A(x,k+1) counts coordinates i
    with S_i^l(x_i) excited for some 0 <= l <= A(x,k).  The sequence is
    nondecreasing and repeats within N steps; the final value is the
    avalanche size.
    """
    _check_state(x, sys)

    def fires_by(i: int, horizon: int) -> bool:
        c = sys.coords[i]
        return any(c.in_excited(c.step(x[i], l)) for l in range(horizon + 1))

    trace = [sum(1 for i in range(sys.N) if sys.coords[i].in_excited(x[i]))]
    while True:
        horizon = trace[-1]
        nxt = sum(1 for i in range(sys.N) if fires_by(i, horizon))
        trace.append(nxt)
        if nxt == horizon:
            return trace
        if len(trace) > sys.N + 1:
            raise AssertionError("cascade failed to stabilize within N steps")


def avalanche_size(x: Sequence[int], sys: TowerSystem) -> int:
    """The stable value of the cascade count at x."""
    return avalanche_trace(x, sys)[-1]


def _hit_times(states: np.ndarray, tower: CoordinateTower, horizon: int) -> np.ndarray:
    """Per-state smallest l <= horizon with S^l(x) excited; horizon+1 if none.

    Inside the tower (x < (h+1)w) the hit happens at l = h - x//w, the
    number of levels still to climb; outside it no iterate within
    l <= N <= h can re-enter the top level, because the levels are disjoint
    and wrapping lands strictly below it.
    """
    t = tower.height - states // tower.w  # negative outside the tower
    # as uint64 a negative t exceeds horizon+1, so the minimum maps it there
    return np.minimum(t.view(np.uint64), horizon + 1).view(np.int64)


def simulate_tower(sys: TowerSystem, trials: int, seed: int, shards: int = 1) -> SimResult:
    """Histogram of the avalanche size over i.i.d. product-uniform states.

    Shard i, coordinate j draws from derive_stream(seed, i, j); trial t uses
    the t-th draw of each coordinate stream.  Same determinism contract and
    the same cap on N as simulate_urns.
    """
    check_seed(seed)
    if sys.N > _BLOCK_DRAWS:
        raise ResourceLimitError(f"{sys.N} coordinates exceed the cap of {_BLOCK_DRAWS}")

    def shard_sampler(i: int):
        streams = [SplitMix64(derive_stream(seed, i, j)) for j in range(sys.N)]
        return partial(_sample_block, sys, streams)

    return SimResult(
        histogram=campaign_histogram(
            trials, shards, _BLOCK_DRAWS // sys.N, sys.N, shard_sampler
        ),
        trials=trials,
        seed=seed,
        shards=shards,
        model="tower",
        params={"coords": [[c.L, c.w, c.height] for c in sys.coords]},
    )


def _sample_block(sys: TowerSystem, streams: list[SplitMix64], block: int) -> np.ndarray:
    """Avalanche sizes for the next ``block`` trials of one shard's coordinate streams.

    Hit times are stored as int32: NumPy sorts the rows of a 65536 x 8 block
    in leading_run about 3 times faster as int32 than as uint8, the narrowest
    type that holds them.
    """
    hits = np.empty((block, sys.N), dtype=np.int32)
    for j, (stream, tower) in enumerate(zip(streams, sys.coords)):
        hits[:, j] = _hit_times(stream.integers_below(tower.L, block), tower, sys.N)
    return leading_run(hits, sys.N)


def _hit_classes(tower: CoordinateTower, n: int) -> dict[int, list[int]]:
    """Scan a coordinate's L states for their hit class in a system of n coordinates.

    State x is in class l for the first l <= n with S^l(x) excited, and in
    class n+1 if there is none; avalanche_trace reads a coordinate only
    through that.  Returns {class: [size, first state in it]}.
    """
    classes: dict[int, list[int]] = {}
    for x in range(tower.L):
        l = next((l for l in range(n + 1) if tower.in_excited(tower.step(x, l))), n + 1)
        if l in classes:
            classes[l][0] += 1
        else:
            classes[l] = [1, x]
    return classes


def _group_choices(tower: CoordinateTower, m: int, n: int) -> list[tuple[list[int], int]]:
    """For m identical coordinates, one (states, count) pair per multiset of hit classes.

    ``states`` gives the coordinates one representative each, and ``count``
    is the number of state tuples with that multiset: the multinomial
    m!/(k_1!...k_j!) times the product of class size^k over the classes.
    """
    classes = _hit_classes(tower, n)
    choices = []
    for combo in combinations_with_replacement(sorted(classes), m):
        count = math.factorial(m)
        for l, k in Counter(combo).items():
            count = count // math.factorial(k) * classes[l][0] ** k
        choices.append(([classes[l][1] for l in combo], count))
    return choices


def tower_pmf_bruteforce(sys: TowerSystem) -> Pmf:
    """Exact avalanche law by scoring one state per tuple of hit classes.

    avalanche_trace reads coordinate i only through its hit class (see
    _hit_classes), so two states whose coordinates lie in the same classes
    have the same avalanche size.  Each coordinate type (L, w, h) is scanned
    once, literally, for its class sizes and representatives; m coordinates
    of one type take every multiset of m classes.  One representative state
    per tuple of multisets is scored with avalanche_size and counted by the
    product of the multinomials and class sizes.  Probabilities are
    rationals with denominator prod(L_i).

    The cap bounds both the sum of the L_i and the number of tuples, taking
    min(L, N+2) classes per coordinate type, and is checked before the scan.
    """
    n = sys.N
    groups: dict[CoordinateTower, list[int]] = {}
    for i, c in enumerate(sys.coords):
        groups.setdefault(c, []).append(i)
    cap = DEFAULT_STATE_CAP
    scan = sum(c.L for c in sys.coords)
    if scan > cap:
        raise ResourceLimitError(f"{scan} coordinate states to scan exceed the cap of {cap}")
    tuples = 1
    for c, positions in groups.items():
        tuples *= math.comb(len(positions) + min(c.L, n + 2) - 1, len(positions))
    if tuples > cap:
        raise ResourceLimitError(f"{tuples} hit-class tuples exceed the cap of {cap}")
    choices = [_group_choices(c, len(positions), n) for c, positions in groups.items()]
    counts = [0] * (n + 1)
    x = [0] * n
    for choice in product(*choices):
        count = 1
        for (states, k), positions in zip(choice, groups.values()):
            count *= k
            for i, xi in zip(positions, states):
                x[i] = xi
        counts[avalanche_size(x, sys)] += count
    total = math.prod(c.L for c in sys.coords)
    probs = tuple(Fraction(k, total) for k in counts)
    return Pmf(
        support=tuple(range(n + 1)),
        probs=probs,
        exact=True,
        label=f"tower-bruteforce(N={n})",
    )


def avalanche_pmf_general(ps: Sequence[Fraction]) -> Pmf:
    """Exact avalanche law for excitation masses p_1..p_N, one per coordinate.

    P(A=a) sums, over the cascade depth r, the block sizes (k_1,...,k_r)
    with k_1+...+k_r = a, and the ordered partitions of the coordinates into
    blocks I_1..I_r plus the never-firing block, the product

        prod_{I_1} p_i * prod_{l=2..r} prod_{I_l} k_{l-1} p_i
            * prod_{rest} (1 - (a+1) p_i).

    Every firing block multiplies p_i by a block-constant, so the partitions
    of a fixed firing set S sum to multinomial(a; k_1..k_r) *
    k_1^{k_2}...k_{r-1}^{k_r} * prod_{S} p_i, and the composition sum is
    (a+1)^(a-1) by the paper's identity.  So P(A=a) = (a+1)^(a-1) [t^a]
    prod_i ((1 - (a+1) p_i) + t p_i), which _abel_numerators evaluates over
    the lcm of the denominators, with equal masses grouped.

    One distinct mass is the single-mass law, avalanche_pmf, whose terms are
    reduced by prime exponents.  Several masses leave no factored form to
    read those from, so each term is reduced with Fraction's gcd.
    """
    ps = tuple(Fraction(p) for p in ps)
    n = len(ps)
    if n < 1:
        raise DomainError("need at least one coordinate")
    for i, p in enumerate(ps):
        if p < 0 or n * p > 1:
            raise DomainError(f"coordinate {i}: p = {p} outside [0, 1/N]")
    if len(set(ps)) == 1:
        return avalanche_pmf(AvalancheParams(n, ps[0]))
    v = math.lcm(*(p.denominator for p in ps))
    groups = Counter(p.numerator * (v // p.denominator) for p in ps)
    nums = _abel_numerators(list(groups.items()), v)
    den = v**n
    label = f"avalanche-general(N={n})"
    return _exact_pmf(0, nums, den, label, lambda terms: [Fraction(t, den) for t in terms])
