"""Reproducible random sampling: a counter-mixing generator and shard plumbing.

The generator is SplitMix64: output k of a stream with base b is

    finalize((b + (k+1) * GOLDEN) mod 2^64)

where GOLDEN = 0x9E3779B97F4A7C15 and finalize is the usual xor-shift /
multiply avalanche chain (z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
z *= 0x94D049BB133111EB; z ^= z>>31).  Streams for shard i (and, for
multi-coordinate models, coordinate j) are derived by feeding the indices
through the same mix: derive_stream(seed, i) = finalize(seed + (i+1)*GOLDEN),
applied once per index; run_campaign hands shard i its base, and a
multi-coordinate sampler forks coordinate j from that.  Because outputs are
a pure function of (base, counter), results are bit-reproducible and
independent of internal batch sizes.

Bounded draws use rejection below the largest multiple of the bound, so
there is no modulo bias: the k-th draw in [0, bound) is (the k-th raw
output below floor(2^64/bound)*bound) mod bound.  The stream counter
advances over every raw output examined, accepted or not.  Bounds run up to
2^63, so every draw fits an int64.  The mod is taken without a division per
draw: a power-of-two bound rejects nothing and masks, x & (bound - 1), and
any other bound goes as x - (x // bound) * bound, since NumPy divides a
uint64 array by a scalar with a multiply and a shift.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceLimitError

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """The SplitMix64 finalizer on a 64-bit integer."""
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


def derive_stream(seed: int, *indices: int) -> int:
    """Fold shard/coordinate indices into a stream base, one mix per index."""
    base = seed & MASK64
    for i in indices:
        base = mix64((base + (i + 1) * GOLDEN) & MASK64)
    return base


_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)

# Raw outputs are generated and mixed in slices of this many uint64s, so
# each slice stays in cache across the mix's passes.
_SLICE = 1 << 15

# Most streams one campaign may build: a stream per shard for the urn, one
# per coordinate and shard for a tower, on the shards that get a trial.
# Each stream makes its own draw calls, so time follows the streams, not the
# shard count: 2^16 one-trial urn shards at (20, 100) take 2.9-4.1 s and a
# one-coordinate tower's 3.6-4.9 s, start-up included (2-vCPU Xeon).
STREAM_CAP = 1 << 16


def check_bound(bound: int) -> None:
    """Bounded draws take bounds in 1..2^63, so every draw fits an int64."""
    if not 1 <= bound <= 1 << 63:
        raise DomainError(f"bound must be in 1..2^63, got {bound}")


def _raw_count(need: int, limit: int) -> int:
    """Raw outputs to generate for ``need`` draws accepted below ``limit``.

    With rejection rate q = 1 - limit/2^64, the need-th acceptance comes after
    need*q/(1-q) rejections on average, with standard deviation sqrt(need*q)/(1-q);
    the mean plus 4 of them makes one block the usual case.  Where q is next to 0
    (any power of two, 100) both terms floor to 0, leaving need + 16."""
    extra = need * ((1 << 64) - limit) / limit
    return need + 16 + int(extra + 4 * math.sqrt(extra * (1 << 64) / limit))


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """The finalizer over a uint64 array, in place."""
    t = np.empty_like(z)
    np.right_shift(z, 30, out=t)
    z ^= t
    z *= _MUL1
    np.right_shift(z, 27, out=t)
    z ^= t
    z *= _MUL2
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


def _remainder_inplace(x: np.ndarray, bound: int) -> np.ndarray:
    """x mod bound over a uint64 array, in place.

    A power-of-two bound is one pass of x & (bound - 1); a bound of 1 gives
    0.  Any other bound goes as x - (x // bound) * bound: NumPy divides a
    uint64 array by a scalar with a multiply and a shift, where np.remainder
    divides element by element, so this takes about half the time.  The
    quotients go through one slice-sized buffer, reused.  Up to 2^11 values
    one np.remainder call costs less than the extra calls.
    """
    if not bound & (bound - 1):
        return np.bitwise_and(x, np.uint64(bound - 1), out=x)
    bound = np.uint64(bound)
    if len(x) <= 1 << 11:
        return np.remainder(x, bound, out=x)
    q = np.empty(min(len(x), _SLICE), dtype=np.uint64)
    for lo in range(0, len(x), _SLICE):
        v = x[lo : lo + _SLICE]
        t = q[: len(v)]
        np.floor_divide(v, bound, out=t)
        t *= bound
        v -= t
    return x


class SplitMix64:
    """One stream of the counter-mixing generator described in the module docs."""

    def __init__(self, base: int):
        self.base = base & MASK64
        self.counter = 0  # raw outputs examined so far

    def _raw_block(self, count: int) -> np.ndarray:
        """Raw outputs at counter positions counter+1 .. counter+count (no advance)."""
        out = np.empty(count, dtype=np.uint64)
        # (k+1)*GOLDEN mod 2^64: the counter steps within one slice
        steps = np.arange(1, min(count, _SLICE) + 1, dtype=np.uint64) * np.uint64(GOLDEN)
        for lo in range(0, count, _SLICE):
            v = out[lo : lo + _SLICE]
            start = (self.base + (self.counter + lo) * GOLDEN) & MASK64
            np.add(steps[: len(v)], np.uint64(start), out=v)
            _mix64_inplace(v)
        return out

    def integers_below(self, bound: int, count: int) -> np.ndarray:
        """The next ``count`` uniform draws in [0, bound), as int64.

        Rejection sampling against the largest multiple of ``bound``; the
        counter lands exactly after the raw output that produced the last
        accepted draw, so results do not depend on the batch size used here,
        which _raw_count sets from the rejection rate.  The accepted raw
        outputs are reduced in place by _remainder_inplace.
        """
        check_bound(bound)
        if count < 0:
            raise DomainError(f"count must be >= 0, got {count}")
        limit = ((1 << 64) // bound) * bound
        raws = self._raw_block(_raw_count(count, limit))
        head = raws[:count]
        if limit == 1 << 64 or count == 0 or int(head.max()) < limit:
            # every raw output up to the last needed one is accepted
            self.counter += count
            return _remainder_inplace(head, bound).view(np.int64)
        out, filled = np.empty(count, dtype=np.uint64), 0
        while True:
            hits = np.flatnonzero(raws < np.uint64(limit))[: count - filled]
            np.take(raws, hits, out=out[filled : filled + len(hits)], mode="clip")
            filled += len(hits)
            if filled == count:
                # stop right after the raw that produced the last needed draw
                self.counter += int(hits[-1]) + 1
                return _remainder_inplace(out, bound).view(np.int64)
            self.counter += len(raws)
            raws = self._raw_block(_raw_count(count - filled, limit))


def leading_run(hits: np.ndarray, cap: int) -> np.ndarray:
    """Per row of a (rows, n) array of hit times, the first k < cap with
    sorted(row)[k] > k, or cap if there is none (cap <= n).  With hit time =
    urn id - 1 and cap = min(N, M) this is the urn statistic; with the
    towers' hit times and cap = N, the cascade size.

    The rows are sorted in place, so ``hits`` comes back with each row
    sorted.  run_campaign is its one caller: it scores the rows a sampler
    returns, the trials that can start an avalanche.
    """
    hits.sort(axis=1)
    ok = np.zeros((hits.shape[0], cap + 1), dtype=bool)  # column cap stays False
    np.less_equal(hits[:, :cap], np.arange(cap), out=ok[:, :cap])
    return ok.argmin(axis=1)


@dataclass(frozen=True)
class SimResult:
    """Histogram of a simulated statistic plus everything needed to replay it."""

    histogram: dict[int, int]
    trials: int
    seed: int
    shards: int
    model: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.histogram.values()):
            raise DomainError("histogram counts must be >= 0")
        if sum(self.histogram.values()) != self.trials:
            raise DomainError("histogram counts do not add up to the trial count")


def check_campaign(trials: int, shards: int, streams: int = 1) -> None:
    """A campaign needs trials >= 1 and shards >= 1, and builds ``streams``
    streams on each of the min(trials, shards) shards that get a trial: at
    most STREAM_CAP in all."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if shards < 1:
        raise DomainError(f"shards must be >= 1, got {shards}")
    busy = min(trials, shards)
    if streams * busy > STREAM_CAP:
        raise ResourceLimitError(
            f"{busy} shards with a trial x {streams} per shard = {streams * busy} streams "
            f"exceed the cap of {STREAM_CAP}"
        )


def check_seed(seed: int) -> None:
    """A seed is a stream base, 0..2^64-1; derive_stream would mask any other."""
    if not 0 <= seed <= MASK64:
        raise DomainError(f"seed must be in 0..2^64-1, got {seed}")


def shard_sizes(trials: int, shards: int) -> list[int]:
    """Trials of the shards that get one, the first min(trials, shards):
    shard i gets trials//shards, the first trials % shards shards one extra."""
    check_campaign(trials, shards)
    base, extra = divmod(trials, shards)
    return [base + (1 if i < extra else 0) for i in range(min(trials, shards))]


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_campaign(
    model: str, params: dict, trials: int, seed: int, shards: int,
    block_trials: int, cap: int, shard_sampler,
) -> SimResult:
    """Score every trial of a campaign by its leading run in 0..cap; its SimResult.

    ``shard_sampler(base)`` returns the sampler of the shard whose stream
    base is derive_stream(seed, i): given a trial count, it draws that many
    trials trial-major from streams rooted at that base, so the block size
    (at most ``block_trials``) cannot change them, and returns the hit-time
    rows, at least ``cap`` wide, of the trials that can start an avalanche.
    Each block's rows are scored once, by leading_run; every trial left out
    scores 0.  The seed, that a block holds a whole trial and the stream
    cap (check_campaign, at one stream a shard; a sampler of more checks its
    own count first) are checked before any sampler is built.  Only the
    min(trials, shards) shards that get a trial build one, so the histogram
    depends on ``shards`` only through them.  They run on min(that,
    available_cpus()) worker threads, one task each: worker w runs shards
    w, w + workers, ...  Each shard counts its own histogram and the counts
    are added, so the histogram does not depend on which thread ran which
    shard.
    """
    # imported here: the executor costs about 0.6 MiB and 5 ms to import,
    # which the exact-law commands never need
    from concurrent.futures import ThreadPoolExecutor

    check_seed(seed)
    if block_trials < 1:
        raise ResourceLimitError("one trial's draws exceed the cap on draws per block")

    def shard_counts(i: int, n_trials: int) -> np.ndarray:
        sample = shard_sampler(derive_stream(seed, i))
        counts = np.zeros(cap + 1, dtype=np.int64)
        for done in range(0, n_trials, block_trials):
            block = min(block_trials, n_trials - done)
            # bind only the sizes, so a block's rows are freed before the next draws
            sizes = leading_run(sample(block), cap)
            counts += np.bincount(sizes, minlength=cap + 1)
            counts[0] += block - len(sizes)
        return counts

    shard_trials = shard_sizes(trials, shards)
    busy = len(shard_trials)
    workers = min(busy, available_cpus())

    def worker_counts(w: int) -> np.ndarray:
        return sum(shard_counts(i, shard_trials[i]) for i in range(w, busy, workers))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        counts = sum(pool.map(worker_counts, range(workers)))
    histogram = {a: int(c) for a, c in enumerate(counts) if c}
    return SimResult(
        histogram=histogram, trials=trials, seed=seed, shards=shards, model=model, params=params
    )
