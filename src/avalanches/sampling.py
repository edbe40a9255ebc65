"""Reproducible random sampling: a counter-mixing generator and shard plumbing.

The generator is SplitMix64: output k of a stream with base b is

    finalize((b + (k+1) * GOLDEN) mod 2^64)

where GOLDEN = 0x9E3779B97F4A7C15 and finalize is the usual xor-shift /
multiply avalanche chain (z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
z *= 0x94D049BB133111EB; z ^= z>>31).  Streams for shard i (and, for
multi-coordinate models, coordinate j) are derived by feeding the indices
through the same mix: derive_stream(seed, i) = finalize(seed + (i+1)*GOLDEN),
applied once per index.  Because outputs are a pure function of (base,
counter), results are bit-reproducible and independent of internal batch
sizes.

Bounded draws use rejection below the largest multiple of the bound, so
there is no modulo bias: the k-th draw in [0, bound) is (the k-th raw
output below floor(2^64/bound)*bound) mod bound.  The stream counter
advances over every raw output examined, accepted or not.  Bounds run up to
2^63, so every draw fits an int64.  The mod is taken without a division per
draw, as x - (x // bound) * bound: NumPy divides a uint64 array by a scalar
with a multiply and a shift.
"""

from __future__ import annotations

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

# leading_run reads the density of zeros in a block from its first values.
_SAMPLE = 1 << 12

# Most shards one campaign may use; shard_sizes builds a list this long.
MAX_SHARDS = 1 << 16


def check_bound(bound: int) -> None:
    """Bounded draws take bounds in 1..2^63, so every draw fits an int64."""
    if not 1 <= bound <= 1 << 63:
        raise DomainError(f"bound must be in 1..2^63, got {bound}")


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


def _remainder_inplace(x: np.ndarray, bound: np.uint64) -> np.ndarray:
    """x mod bound over a uint64 array, in place, as x - (x // bound) * bound.

    NumPy divides a uint64 array by a scalar with a multiply and a shift,
    where np.remainder divides element by element, so this takes about half
    the time.  The quotients go through one slice-sized buffer, reused.
    Up to 2^11 values one np.remainder call costs less than the extra calls.
    """
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
        accepted draw, so results do not depend on the batch size used here.
        The accepted raw outputs are reduced in place by _remainder_inplace.
        """
        check_bound(bound)
        if count < 0:
            raise DomainError(f"count must be >= 0, got {count}")
        limit = ((1 << 64) // bound) * bound
        bound_np = np.uint64(bound)
        raws = self._raw_block(max(count + 16, 1024))
        head = raws[:count]
        if limit == 1 << 64 or count == 0 or int(head.max()) < limit:
            # every raw output up to the last needed one is accepted
            self.counter += count
            return _remainder_inplace(head, bound_np).view(np.int64)
        parts, filled = [], 0
        while True:
            hits = np.flatnonzero(raws < np.uint64(limit))[: count - filled]
            parts.append(raws[hits])
            filled += len(hits)
            if filled == count:
                # stop right after the raw that produced the last needed draw
                self.counter += int(hits[-1]) + 1
                return _remainder_inplace(np.concatenate(parts), bound_np).view(np.int64)
            self.counter += len(raws)
            raws = self._raw_block(max(count - filled + 16, 1024))


def leading_run(hits: np.ndarray, cap: int) -> np.ndarray:
    """Per row of a (rows, n) array of hit times, the first k < cap with
    sorted(row)[k] > k, or cap if there is none (cap <= n).  With hit time =
    urn id - 1 and cap = min(N, M) this is the urn statistic; with the
    towers' hit times and cap = N, the cascade size.

    A row with no hit time 0 scores 0 unsorted, and near criticality most
    rows hold none (P(A = 0) = (1 - p)^N), so only the rows holding a 0 are
    gathered, sorted and scored, and the others score 0; one flat pass over
    the block finds them, where a per-row reduction costs 25-40 ns a row.
    A block of at most _SAMPLE values, or one whose first _SAMPLE values hold
    more than one 0 per two rows, is sorted whole in place instead: there
    the gather costs more than it saves (README gives the timings).  So
    ``hits`` may come back with its rows sorted.
    """
    rows, n = hits.shape
    flat = hits.ravel()
    if len(flat) <= _SAMPLE or 2 * n * np.count_nonzero(flat[:_SAMPLE] == 0) > _SAMPLE:
        hits.sort(axis=1)
        return _score_sorted(hits, cap)
    held = np.zeros(rows, dtype=bool)
    held[np.flatnonzero(flat == 0) // n] = True
    sub = hits[held]
    sub.sort(axis=1)
    out = np.zeros(rows, dtype=np.intp)
    out[held] = _score_sorted(sub, cap)
    return out


def _score_sorted(hits: np.ndarray, cap: int) -> np.ndarray:
    """leading_run on rows already sorted."""
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


def check_campaign(trials: int, shards: int) -> None:
    """A campaign needs trials >= 1 and 1..MAX_SHARDS shards."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if shards < 1:
        raise DomainError(f"shards must be >= 1, got {shards}")
    if shards > MAX_SHARDS:
        raise ResourceLimitError(f"{shards} shards exceed the cap of {MAX_SHARDS}")


def check_seed(seed: int) -> None:
    """A seed is a stream base, 0..2^64-1; derive_stream would mask any other."""
    if not 0 <= seed <= MASK64:
        raise DomainError(f"seed must be in 0..2^64-1, got {seed}")


def shard_sizes(trials: int, shards: int) -> list[int]:
    """Split trials across shards: shard i gets trials//shards, the first
    trials % shards shards one extra."""
    check_campaign(trials, shards)
    base, extra = divmod(trials, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def campaign_histogram(
    trials: int, shards: int, block_trials: int, top: int, shard_sampler
) -> dict[int, int]:
    """Histogram over 0..top of a statistic sampled on every shard of a campaign.

    ``shard_sampler(i)`` returns shard i's sampler: given a trial count, it
    returns one statistic per trial, drawn trial-major from the shard's
    streams, so the block size (at most ``block_trials``) cannot change it.
    Shards run on min(shards, trials, available_cpus()) worker threads, and
    a shard with no trial builds no sampler; each returns its own counts and
    the counts are added, so the histogram does not depend on which thread
    ran which shard.  NumPy releases the interpreter lock inside its array
    kernels, so the threads overlap.
    """
    # imported here: the executor costs about 0.6 MiB and 5 ms to import,
    # which the exact-law commands never need
    from concurrent.futures import ThreadPoolExecutor

    def shard_counts(i: int, n_trials: int) -> np.ndarray:
        sample = shard_sampler(i)
        counts = np.zeros(top + 1, dtype=np.int64)
        for done in range(0, n_trials, block_trials):
            counts += np.bincount(sample(min(block_trials, n_trials - done)), minlength=top + 1)
        return counts

    # the first min(trials, shards) shards are the ones that get a trial
    busy = min(trials, shards)
    sizes = shard_sizes(trials, shards)
    with ThreadPoolExecutor(max_workers=min(busy, available_cpus())) as pool:
        counts = sum(pool.map(shard_counts, range(busy), sizes[:busy]))
    return {a: int(c) for a, c in enumerate(counts) if c}
