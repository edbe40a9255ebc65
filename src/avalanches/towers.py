"""Product system of cyclic towers, its avalanche-size function, and exact laws.

Each coordinate lives on Z_L with the shift x -> x + w (mod L), base
B = {0..w-1} and excited top level U = {h*w .. h*w + w - 1}; the levels
S^k(B), k = 0..h, are pairwise disjoint because (h+1)*w <= L, and the
uniform measure gives U exact mass w/L.  Heights must exceed the coordinate
count (h + 1 > N) so no coordinate can pass through its excited set twice
within one cascade.  The cascade only counts coordinates by hit class, so
the exact oracle builds the multisets of hit classes in one loop over the
coordinates, counting the state tuples in each exactly, and scores one state
per multiset with the literal cascade recursion; it shares no arithmetic
with the closed forms.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np

from .distributions import AvalancheParams, Pmf, avalanche_pmf
from .errors import DomainError, ResourceLimitError
from .sampling import (
    SimResult,
    SplitMix64,
    campaign_histogram,
    check_campaign,
    check_seed,
    derive_stream,
    leading_run,
)

# Cap on the oracle's scan (the sum of the L_i) and on its hit-class tuples;
# keeps an at-cap run in the seconds range on one core (3.3-3.9 s for
# (11,1,9) x 9 on a 2-vCPU Xeon, where criterion 7's (64,1,8) x 8 takes 0.6 s).
DEFAULT_STATE_CAP = 10**5

# Draws per vectorized block of the sampler, one per coordinate and trial: a
# block holds _BLOCK_DRAWS // N trials, so its int32 hit times take 4 MiB per
# shard at any N, and N may not exceed it.  A block makes one draw call per
# coordinate, so smaller blocks pay more per-call overhead: at N = 200, blocks
# of 2^18 draws take 2.7 times as long.  A memory bound, not a semantics knob:
# each coordinate stream is consumed in trial order regardless.
_BLOCK_DRAWS = 1 << 20

# Cap on the sampler's coordinate streams.  Each non-empty shard keeps one
# stream per coordinate and makes one draw call per coordinate and block, so
# time grows with N times the non-empty shards, and memory with N times the
# shards live at once (one per worker thread):
# `simulate --model tower --uniform 2N+2,1,N,N --trials 2` took 0.3 s and
# 40 MiB at N = 2^14, 1.0-1.2 s and 70 MiB at 2^16, and 2.1-2.2 s and 108 MiB
# at 2^17 (2-vCPU AMD EPYC), so the cap keeps such a run near 1 s there.
# README's Caps section has the times split over shards.
COORDINATE_CAP = 1 << 16


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
    Overwrites ``states``, an int64 array of states in 0..L-1.

    Inside the tower (x < (h+1)w) the hit happens at l = h - x//w, the
    number of levels still to climb; outside it no iterate within
    l <= N <= h can re-enter the top level, because the levels are disjoint
    and wrapping lands strictly below it.  All in uint64, in place: outside
    the tower h - x//w wraps past 2^63 (x//w - h < L <= 2^63), above
    horizon+1, so the minimum maps it there.
    """
    t = states.view(np.uint64)
    t //= tower.w
    np.subtract(tower.height, t, out=t)
    np.minimum(t, horizon + 1, out=t)
    return states


def check_streams(n: int, trials: int, shards: int) -> None:
    """A campaign of n coordinates builds n streams on each shard that gets
    a trial, min(trials, shards) of them: at most COORDINATE_CAP in all, and
    at most _BLOCK_DRAWS, so that a block holds a whole trial."""
    check_campaign(trials, shards)
    busy = min(trials, shards)
    cap = min(COORDINATE_CAP, _BLOCK_DRAWS)
    if n * busy > cap:
        raise ResourceLimitError(
            f"{n} coordinates x {busy} non-empty shards = {n * busy} streams "
            f"exceed the cap of {cap}"
        )


def simulate_tower(sys: TowerSystem, trials: int, seed: int, shards: int = 1) -> SimResult:
    """Histogram of the avalanche size over i.i.d. product-uniform states.

    Shard i, coordinate j draws from derive_stream(seed, i, j); trial t uses
    the t-th draw of each coordinate stream.  Same determinism contract as
    simulate_urns.  N times the non-empty shards is capped at COORDINATE_CAP
    (see check_streams) before any stream is built.
    """
    check_seed(seed)
    check_streams(sys.N, trials, shards)

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


def tower_pmf_bruteforce(sys: TowerSystem) -> Pmf:
    """Exact avalanche law by scoring one state per multiset of hit classes.

    avalanche_trace reads coordinate i only through its hit class (see
    _hit_classes), and only to count coordinates: A(x,1) is the number in
    class 0, each later step the number in a class up to the last count.  So
    the avalanche size depends only on the multiset of classes over all N
    coordinates, whatever their types.  Each coordinate type (L, w, h) is
    scanned once, literally, for its class sizes and representatives.  One
    loop over the coordinates in order builds {multiset over the coordinates
    so far: [count, representative states]}: each class of the next
    coordinate extends every multiset, its size multiplying the count.  A
    multiset is keyed by its class counts packed as base-(N+1) digits, class
    l in digit l; no count exceeds N, so adding a class never carries.  One
    representative state per multiset over all coordinates is scored with
    avalanche_size.  Probabilities are rationals with denominator prod(L_i).

    The cap bounds both the sum of the L_i and the number of tuples of
    per-type multisets, taking min(L, N+2) classes per coordinate type, and
    is checked before the scan.
    """
    n = sys.N
    types = Counter(sys.coords)
    cap = DEFAULT_STATE_CAP
    scan = sum(c.L for c in sys.coords)
    if scan > cap:
        raise ResourceLimitError(f"{scan} coordinate states to scan exceed the cap of {cap}")
    tuples = 1
    for c, m in types.items():
        tuples *= math.comb(m + min(c.L, n + 2) - 1, m)
    if tuples > cap:
        raise ResourceLimitError(f"{tuples} hit-class tuples exceed the cap of {cap}")
    steps = {
        c: [((n + 1) ** l, size, x) for l, (size, x) in _hit_classes(c, n).items()]
        for c in types
    }
    merged: dict[int, list] = {0: [1, []]}
    for c in sys.coords:
        nxt: dict[int, list] = {}
        for key, (count, x) in merged.items():
            for step, size, rep in steps[c]:
                new = key + step
                if new in nxt:
                    nxt[new][0] += count * size
                else:
                    nxt[new] = [count * size, x + [rep]]
        merged = nxt
    counts = [0] * (n + 1)
    for count, x in merged.values():
        counts[avalanche_size(x, sys)] += count
    total = math.prod(c.L for c in sys.coords)
    probs = tuple(Fraction(k, total) for k in counts)
    return Pmf(
        support=tuple(range(n + 1)),
        probs=probs,
        exact=True,
        label=f"tower-bruteforce(N={n})",
    )


def _general_numerators(us: Sequence[int], v: int) -> list[int]:
    """t_0..t_N of the avalanche law with coordinate i at mass u_i/v:

        t_b = (b+1)^(b-1) [t^b] prod_i (v - (b+1)u_i + t u_i),

    so that P(b) = t_b / v^N.  With s = t - (b+1) every factor is v + s u_i,
    so Q(s) = prod_i (v + s u_i) = sum_j q_j s^j is one polynomial for all
    b, expanded once in O(N^2); [t^b] Q(t - (b+1)) = sum_{j>=b} q_j C(j,b)
    (-(b+1))^(j-b) then takes O(N) per b by Horner's rule in -(b+1).
    """
    q = [1]
    for u in us:
        q = [v * x + u * y for x, y in zip(q + [0], [0] + q)]
    nums = []
    for b in range(len(us) + 1):
        acc = 0
        for j in range(len(us), b - 1, -1):
            acc = acc * -(b + 1) + math.comb(j, b) * q[j]
        nums.append(((b + 1) ** (b - 1) if b else 1) * acc)
    return nums


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
    prod_i ((1 - (a+1) p_i) + t p_i), which _general_numerators evaluates
    over the lcm of the denominators from one shifted polynomial.

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
    nums = _general_numerators([p.numerator * (v // p.denominator) for p in ps], v)
    den = v**n
    label = f"avalanche-general(N={n})"
    if sum(nums) != den:
        raise DomainError(f"exact pmf {label}: numerators do not sum to the denominator")
    return Pmf(
        support=tuple(range(n + 1)),
        probs=tuple(Fraction(t, den) for t in nums),
        exact=True,
        label=label,
    )
