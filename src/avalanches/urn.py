"""The ball-and-urn model: statistic, exact formula, counting oracle, sampler.

N distinguishable balls land uniformly in M urns.  The statistic X is the
largest r in {1..M} such that urns 1..k hold at least k balls for every
k <= r.  For M >= N its law is the avalanche law with p = 1/M <= 1/N, the
critical urn M = N included.  X is the leading run of the balls' hit times
(urn id - 1), so the oracle counts the assignments by leading run, urn by
urn, with combinatorics.leading_run_counts; it shares no arithmetic with
the closed formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np

from .combinatorics import check_leading_run, leading_run_counts
from .distributions import AvalancheParams, Pmf, avalanche_pmf
from .errors import DomainError
from .sampling import SimResult, SplitMix64, run_campaign

# Draws per vectorized block of the sampler, and so the cap on N:
# run_campaign refuses a block that holds no whole trial.  A block holds
# _BLOCK_DRAWS // N trials, so its int64 draws take about 2 MiB per shard
# whatever N is.  A memory bound, not a semantics knob: draws are consumed
# in trial-major order regardless.
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


def check_exact_oracle(cfg: UrnConfig) -> None:
    """Refuse, before either law is computed, a config that urn_pmf_bruteforce
    (the leading-run cap) or urn_pmf_formula (M >= N, the domain of
    AvalancheParams(N, 1/M)) would refuse; the cap is checked first."""
    check_leading_run([cfg.N], min(cfg.N, cfg.M))
    AvalancheParams(cfg.N, Fraction(1, cfg.M))


def urn_pmf_formula(cfg: UrnConfig) -> Pmf:
    """Exact law of X from the closed formula:

        P(X=a) = C(N,a) (a+1)^(a-1) M^(-a) (1 - (a+1)/M)^(N-a),

    which is the avalanche law at p = 1/M, relabelled.  Its domain is that
    of AvalancheParams(N, 1/M), p <= 1/N, so M >= N: every factor with a
    positive exponent stays nonnegative.  At the critical urn M = N,
    P(X=N) = (N+1)^(N-1) / N^N, Cayley's count of trees on N+1 labelled
    vertices.  The statistic itself is defined for any M.
    """
    law = avalanche_pmf(AvalancheParams(cfg.N, Fraction(1, cfg.M)))
    return replace(law, label=f"urn-formula(N={cfg.N},M={cfg.M})")


def urn_pmf_bruteforce(cfg: UrnConfig) -> Pmf:
    """Exact law of X by counting the M^N assignments by leading run.

    A ball's hit time is its urn id - 1, and X is the first k < top =
    min(N, M) with at most k balls in urns 1..k+1, or top if there is none:
    the leading run of the N hit times.  So leading_run_counts counts the
    assignments with one type of N balls, one way into each urn 1..top and
    M ways in all.  The counts are the numerators over M^N.  The cap
    (combinatorics.LEADING_RUN_CAP) is checked before any work.
    """
    N, M = cfg.N, cfg.M
    return Pmf(
        support=range(N + 1),
        exact=True,
        label=f"urn-bruteforce(N={N},M={M})",
        nums=leading_run_counts([(N, itertools.repeat(1), M)], min(N, M)),
        den=M**N,
    )


def simulate_urns(cfg: UrnConfig, trials: int, seed: int, shards: int = 1) -> SimResult:
    """Histogram of X over i.i.d. uniform assignments.

    Shard i draws from the one stream at the base run_campaign gives it,
    derive_stream(seed, i); within a shard, draws are consumed trial-major
    (trial 0 balls 1..N, then trial 1, ...), so the result is a pure
    function of (cfg, trials, seed, shards).  run_campaign scores the rows
    with cap min(N, M), and refuses N > _BLOCK_DRAWS before any stream.
    """
    return run_campaign(
        "urn", {"N": cfg.N, "M": cfg.M}, trials, seed, shards, _BLOCK_DRAWS // cfg.N,
        min(cfg.N, cfg.M), lambda base: partial(_sample_block, cfg, SplitMix64(base)),
    )


def _sample_block(cfg: UrnConfig, stream: SplitMix64, block: int) -> np.ndarray:
    """Hit-time rows (urn id - 1, the raw draws) of the next ``block`` trials
    that can start an avalanche.

    A trial with urn 1 empty has no hit time 0 and scores 0, and
    P(X = 0) = (1 - 1/M)^N, 82% at (20, 100).  With 2N > M a trial holds
    more than half a ball in urn 1 on average, and on a block of at most
    2^12 draws a gather's extra calls cost more than the sort it saves, so
    those blocks are returned whole.  Otherwise one flat pass finds the
    trials with a ball in urn 1 (a per-row reduction costs 25-40 ns a row),
    and only they are copied out (README gives the timings).
    """
    N = cfg.N
    draws = stream.integers_below(cfg.M, block * N)
    hits = draws.reshape(block, N)
    if 2 * N > cfg.M or len(draws) <= 1 << 12:
        return hits
    held = np.zeros(block, dtype=bool)
    held[np.flatnonzero(draws == 0) // N] = True
    return hits[held]
