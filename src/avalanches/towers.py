"""Product system of cyclic towers, its avalanche-size function, and exact laws.

Each coordinate lives on Z_L with the shift x -> x + w (mod L), base
B = {0..w-1} and excited top level U = {h*w .. h*w + w - 1}; the levels
S^k(B), k = 0..h, are pairwise disjoint because (h+1)*w <= L, and the
uniform measure gives U exact mass w/L.  Heights must exceed the coordinate
count (h + 1 > N) so no coordinate can pass through its excited set twice
within one cascade.  The cascade reads a coordinate only through its hit
class, and its size is the leading run of the hit classes, so the exact
oracle walks each coordinate type's excited set backward once, literally, for
its class sizes and counts the states by leading run with
combinatorics.leading_run_counts; it shares no arithmetic with the closed
forms.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .combinatorics import check_leading_run, leading_run_counts
from .distributions import AvalancheParams, Pmf, _as_exact, avalanche_pmf
from .errors import DomainError, ResourceLimitError
from .sampling import SimResult, SplitMix64, check_campaign, derive_stream, run_campaign

# Cap on the oracle's scan, the sum of (N+1)*w over the distinct coordinate
# types: _hit_classes walks a type's w excited states back N + 1 levels, at
# (N+1)*w set operations, whatever L is.  (N+1)*w <= (h+1)*w <= L, so the cap
# admits every system whose types' L sum to 10^5 or less.  At the cap, one
# type (100000,465,214) walks in 17-24 ms (in-process, 2-vCPU Xeon).
DEFAULT_STATE_CAP = 10**5

# Draws per vectorized block of the sampler, one per coordinate and trial: a
# block holds _BLOCK_DRAWS // N trials, so its int32 hit times take 4 MiB per
# shard at any N, and N <= sampling.STREAM_CAP <= _BLOCK_DRAWS.  A block makes
# one draw call per coordinate, so smaller blocks pay more per-call overhead:
# at N = 200, blocks of 2^18 draws take 2.7 times as long.  A memory bound,
# not a semantics knob: each coordinate stream is consumed in trial order
# regardless.
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


def make_tower_system(specs: Iterable[tuple[int, int, int]]) -> TowerSystem:
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


def simulate_tower(sys: TowerSystem, trials: int, seed: int, shards: int = 1) -> SimResult:
    """Histogram of the avalanche size over i.i.d. product-uniform states.

    Coordinate j of shard i draws from derive_stream(base, j), forked from
    the base run_campaign gives the shard, derive_stream(seed, i); that is
    derive_stream(seed, i, j).  Trial t uses the t-th draw of each
    coordinate stream.  Same determinism contract as simulate_urns.  N
    streams on each shard that gets a trial are capped at STREAM_CAP
    (check_campaign) before any stream is built; that caps N at STREAM_CAP
    <= _BLOCK_DRAWS, so a block holds a whole trial.  run_campaign scores
    the rows with cap N.
    """
    check_campaign(trials, shards, sys.N)

    def shard_sampler(base: int):
        streams = [SplitMix64(derive_stream(base, j)) for j in range(sys.N)]
        return partial(_sample_block, sys, streams)

    params = {"coords": [[c.L, c.w, c.height] for c in sys.coords]}
    return run_campaign(
        "tower", params, trials, seed, shards, _BLOCK_DRAWS // sys.N, sys.N, shard_sampler
    )


def _sample_block(sys: TowerSystem, streams: list[SplitMix64], block: int) -> np.ndarray:
    """Trial-major hit-time rows of the next ``block`` trials of one shard's
    coordinate streams that can start an avalanche.

    Hit times are stored coordinate-major, one contiguous int32 row per
    coordinate, written right after its draw call, so one draw array is
    alive at a time.  A trial starts an avalanche only if some coordinate
    has hit time 0; every other trial has A(x,1) = 0 and size 0.  At
    (64,1,8)x8 that is 1 - (63/64)^8, about 12% of trials, so only the
    starting trials are copied out, trial-major.  The rows are int32: NumPy
    sorts a 65536 x 8 block about 3 times faster as int32 than as uint8.
    """
    hits = np.empty((sys.N, block), dtype=np.int32)
    for j, (stream, tower) in enumerate(zip(streams, sys.coords)):
        hits[j] = _hit_times(stream.integers_below(tower.L, block), tower, sys.N)
    # gathering by index takes about 3/4 the time of a boolean mask here
    return hits.T[(hits == 0).any(axis=0).nonzero()[0]]


def _hit_classes(tower: CoordinateTower, n: int) -> list[int]:
    """Sizes of a coordinate's hit classes 0..n+1 in a system of n coordinates.

    State x is in class l for the first l <= n with S^l(x) excited, and in
    class n+1 if there is none; avalanche_trace reads a coordinate only
    through that.  S^l(x) is excited exactly when x is in S^-l(U), so the
    walk runs backward from U: class l is S^-l(U) less the states already
    classed, at (n+1)*w set operations.
    """
    L, w = tower.L, tower.w
    level = set(range(tower.height * w, (tower.height + 1) * w))
    classed: set[int] = set()
    sizes = []
    for _ in range(n + 1):
        new = level - classed
        sizes.append(len(new))
        classed |= new
        level = {(y - w) % L for y in level}
    return sizes + [L - len(classed)]


def check_exact_oracle(sys: TowerSystem) -> None:
    """Refuse a system over either cap of tower_pmf_bruteforce: the sum of
    (N+1)*w over the distinct coordinate types (the states the scan visits)
    and the leading-run count's (combinatorics.LEADING_RUN_CAP, from N and
    the type multiplicities)."""
    types = Counter(sys.coords)
    scan = sum((sys.N + 1) * c.w for c in types)
    if scan > DEFAULT_STATE_CAP:
        raise ResourceLimitError(
            f"{scan} coordinate states to scan exceed the cap of {DEFAULT_STATE_CAP}"
        )
    check_leading_run(list(types.values()), sys.N)


def tower_pmf_bruteforce(sys: TowerSystem) -> Pmf:
    """Exact avalanche law by counting the product states by leading run.

    avalanche_trace reads coordinate i only through its hit class (see
    _hit_classes), and only to count coordinates: A(x,1) is the number in
    class 0, each later step the number in a class up to the last count.
    The stable count is the leading run of the N hit classes: the first
    k < N with at most k coordinates in classes 0..k, or N.  Each coordinate
    type (L, w, h) is walked once, backward from its excited set, for its
    class sizes, and leading_run_counts counts the states, a type of m
    coordinates with those sizes and L states each.  The counts are the
    numerators over prod(L_i).

    Both caps are checked before the walk (check_exact_oracle).
    """
    check_exact_oracle(sys)
    n = sys.N
    types = Counter(sys.coords)
    counts = leading_run_counts([(m, _hit_classes(c, n), c.L) for c, m in types.items()], n)
    return Pmf(
        support=range(n + 1),
        exact=True,
        label=f"tower-bruteforce(N={n})",
        nums=counts,
        den=math.prod(c.L for c in sys.coords),
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
    read those from, so a written term is reduced by a gcd (Pmf.lowest_terms).
    """
    ps = tuple(_as_exact(p) for p in ps)
    n = len(ps)
    if n < 1:
        raise DomainError("need at least one coordinate")
    # p = u/d in lowest terms with d > 0: p < 0 or n*p > 1 in integers, and
    # equal pairs are equal masses
    pairs = [(p.numerator, p.denominator) for p in ps]
    for i, (u, d) in enumerate(pairs):
        if u < 0 or n * u > d:
            raise DomainError(f"coordinate {i}: p = {ps[i]} outside [0, 1/N]")
    if len(set(pairs)) == 1:
        return avalanche_pmf(AvalancheParams(n, ps[0]))
    v = math.lcm(*(d for _, d in pairs))
    return Pmf(
        support=range(n + 1),
        exact=True,
        label=f"avalanche-general(N={n})",
        nums=_general_numerators([u * (v // d) for u, d in pairs], v),
        den=v**n,
    )
