"""The ball-and-urn model: statistic, exact formula, enumeration oracle, sampler.

N distinguishable balls land uniformly in M urns.  The statistic X is the
largest r in {1..M} such that urns 1..k hold at least k balls for every
k <= r.  Its law matches the avalanche law with p = 1/M.  The oracle
scores one assignment per occupancy class with urn_statistic and counts
each class exactly, so it shares no arithmetic with the closed formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np

from .distributions import AvalancheParams, Pmf, avalanche_pmf
from .errors import DomainError, ResourceLimitError
from .sampling import SimResult, SplitMix64, leading_run, run_campaign

# Cap on C(N + min(N, M), min(N, M)), the occupancy vectors the oracle may
# have to score; keeps an at-cap run in the seconds range on one core (about
# 5 s at worst on a 2-vCPU Xeon, where (12, 13) takes 1.7 s).
DEFAULT_ENUMERATION_CAP = 5 * 10**6

# Draws per vectorized block of the sampler, and the sampler's cap on N: a
# block holds _BLOCK_DRAWS // N trials, so its int64 draws take about 2 MiB
# per shard whatever N is.  A memory bound, not a semantics knob: draws are
# consumed in trial-major order regardless.
_BLOCK_DRAWS = 1 << 18


@dataclass(frozen=True)
class UrnConfig:
    """N balls thrown into M urns."""

    N: int
    M: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise DomainError(f"N must be >= 1, got {self.N}")
        if self.M < 1:
            raise DomainError(f"M must be >= 1, got {self.M}")


def urn_statistic(assignment: Sequence[int], M: int) -> int:
    """X for one assignment (entry j = urn of ball j, urns numbered 1..M).

    Single left-to-right cumulative scan: X is one less than the first k
    whose cumulative count falls short, 0 if urn 1 is empty, and at most
    min(N, M).
    """
    if M < 1:
        raise DomainError(f"M must be >= 1, got {M}")
    n = len(assignment)
    cap = min(n, M)
    counts = [0] * (cap + 1)
    for u in assignment:
        if not 1 <= u <= M:
            raise DomainError(f"urn id {u} outside 1..{M}")
        if u <= cap:
            counts[u] += 1
    cum = 0
    for k in range(1, cap + 1):
        cum += counts[k]
        if cum < k:
            return k - 1
    return cap


def urn_pmf_formula(cfg: UrnConfig) -> Pmf:
    """Exact law of X from the closed formula:

        P(X=a) = C(N,a) (a+1)^(a-1) M^(-a) (1 - (a+1)/M)^(N-a),

    which is the avalanche law at p = 1/M, relabelled.  Requires M >= N+1
    so every factor with a positive exponent stays nonnegative; the
    statistic itself is defined for any M.
    """
    if cfg.M < cfg.N + 1:
        raise DomainError(f"formula path needs M >= N+1, got N={cfg.N}, M={cfg.M}")
    law = avalanche_pmf(AvalancheParams(cfg.N, Fraction(1, cfg.M)))
    return replace(law, label=f"urn-formula(N={cfg.N},M={cfg.M})")


def urn_pmf_bruteforce(cfg: UrnConfig) -> Pmf:
    """Exact law of X by scoring one assignment per occupancy class.

    X reads an assignment only through the counts c_1..c_top in urns
    1..top, top = min(N, M).  The counts are chosen urn by urn; once the
    running count falls short (c_1 + ... + c_k < k), X = k - 1 whatever the
    other R balls do, so the branch stops and they may land in any of urns
    k+1..M.  A class (c_1..c_k, R) holds N!/(c_1!...c_k! R!) * (M-k)^R
    assignments, and urn_statistic scores one of them: c_j balls in urn j,
    the R others in urn k+1.  Probabilities are rationals over M^N.

    The cap bounds C(N+top, top), the number of count vectors
    (c_1..c_top, rest), which is at least the number of classes scored.
    """
    N, M = cfg.N, cfg.M
    top = min(N, M)
    cap, vectors, k = DEFAULT_ENUMERATION_CAP, 1, 0
    while k < top and vectors <= cap:  # vectors = C(N+k, k) rises with k up to C(N+top, top)
        k += 1
        vectors = vectors * (N + k) // k
    if vectors > cap:
        raise ResourceLimitError(f"C({N}+{top}, {top}) occupancy vectors exceed the cap of {cap}")
    counts = [0] * (N + 1)

    def place(k: int, prefix: list[int], left: int, ways: int) -> None:
        # urns 1..k-1 hold the balls of prefix; ways = N!/(c_1!...c_{k-1}! left!).
        # Urn M, the last one, takes every ball left.
        placed = N - left
        for c in (left,) if k == M else range(left + 1):
            rest = left - c
            w = ways * math.comb(left, c)
            if placed + c < k or k == top:  # X is fixed: score the class
                counts[urn_statistic(prefix + [k] * c + [k + 1] * rest, M)] += w * (M - k) ** rest
            else:
                place(k + 1, prefix + [k] * c, rest, w)

    place(1, [], N, 1)
    total = M**N
    probs = tuple(Fraction(k, total) for k in counts)
    return Pmf(
        support=tuple(range(N + 1)),
        probs=probs,
        exact=True,
        label=f"urn-bruteforce(N={N},M={M})",
    )


def simulate_urns(cfg: UrnConfig, trials: int, seed: int, shards: int = 1) -> SimResult:
    """Histogram of X over i.i.d. uniform assignments.

    Shard i draws from the one stream at the base run_campaign gives it,
    derive_stream(seed, i); within a shard, draws are consumed trial-major
    (trial 0 balls 1..N, then trial 1, ...), so the result is a pure
    function of (cfg, trials, seed, shards).
    """
    if cfg.N > _BLOCK_DRAWS:
        raise ResourceLimitError(f"N = {cfg.N} balls exceed the cap of {_BLOCK_DRAWS}")
    return run_campaign(
        "urn", {"N": cfg.N, "M": cfg.M}, trials, seed, shards, _BLOCK_DRAWS // cfg.N, cfg.N,
        lambda base: partial(_sample_block, cfg, SplitMix64(base)),
    )


def _sample_block(cfg: UrnConfig, stream: SplitMix64, block: int) -> np.ndarray:
    """X for the next ``block`` trials; a ball's hit time is urn id - 1, the raw draw."""
    draws = stream.integers_below(cfg.M, block * cfg.N)
    return leading_run(draws.reshape(block, cfg.N), min(cfg.N, cfg.M))
