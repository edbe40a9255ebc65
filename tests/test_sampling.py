import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalanches.errors import DomainError, ResourceLimitError
from avalanches.sampling import (
    GOLDEN,
    MASK64,
    MAX_SHARDS,
    SimResult,
    SplitMix64,
    _mix64_inplace,
    available_cpus,
    campaign_histogram,
    check_seed,
    derive_stream,
    leading_run,
    mix64,
    shard_sizes,
)


def reference_integers_below(base, counter, bound, count):
    """Draws straight from the module docstring's rule, one raw output at a
    time: the k-th raw output is mix64(base + k*GOLDEN), rejected when it is
    at or above floor(2^64/bound)*bound.  Returns the draws and the counter."""
    limit = (1 << 64) // bound * bound
    out = []
    while len(out) < count:
        counter += 1
        raw = mix64((base + counter * GOLDEN) & MASK64)
        if raw < limit:
            out.append(raw % bound)
    return out, counter


class TestMix64:
    def test_published_splitmix64_vectors(self):
        # first three outputs of the reference splitmix64 with seed 0
        want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        got = [mix64((k + 1) * GOLDEN & MASK64) for k in range(3)]
        assert got == want

    def test_batch_matches_scalar(self):
        xs = np.arange(1, 2000, dtype=np.uint64) * np.uint64(GOLDEN)
        batch = _mix64_inplace(xs.copy())
        for i in (0, 1, 7, 1998):
            assert int(batch[i]) == mix64(int(xs[i]))


class TestDeriveStream:
    def test_distinct_indices(self):
        bases = {derive_stream(7, i) for i in range(64)}
        assert len(bases) == 64

    def test_nested_indices_differ_from_flat(self):
        assert derive_stream(7, 0, 1) != derive_stream(7, 1)
        assert derive_stream(7, 0, 1) != derive_stream(7, 0)

    def test_masks_seed(self):
        assert derive_stream(2**70 + 5) == derive_stream((2**70 + 5) & MASK64)


class TestIntegersBelow:
    def test_frozen_stream_fixture(self):
        # regression pin on the stream itself; any change here breaks replay
        draws = SplitMix64(0).integers_below(1000, 6)
        assert draws.tolist() == [535, 700, 679, 444, 747, 90]

    def test_range(self):
        draws = SplitMix64(123).integers_below(37, 10000)
        assert draws.min() >= 0 and draws.max() < 37

    def test_batch_split_invariance(self):
        s1 = SplitMix64(derive_stream(9, 0))
        a = list(s1.integers_below(100, 7)) + list(s1.integers_below(100, 193))
        s2 = SplitMix64(derive_stream(9, 0))
        b = list(s2.integers_below(100, 200))
        assert a == b
        assert s1.counter == s2.counter

    def test_power_of_two_bound(self):
        s1 = SplitMix64(5)
        a = list(s1.integers_below(64, 50))
        s2 = SplitMix64(5)
        b = list(s2.integers_below(64, 17)) + list(s2.integers_below(64, 33))
        assert a == b
        assert all(0 <= v < 64 for v in a)

    def test_bound_one(self):
        assert SplitMix64(1).integers_below(1, 5).tolist() == [0] * 5

    def test_zero_count(self):
        assert SplitMix64(1).integers_below(10, 0).tolist() == []

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            SplitMix64(1).integers_below(0, 5)
        with pytest.raises(DomainError):
            SplitMix64(1).integers_below(10, -1)

    @pytest.mark.parametrize(
        "bound",
        [1, 2, 3, 64, 100, 2**32 + 1, 2**62 + 1, 2**64 // 3 + 1, 3 * 2**61, 2**63 - 1, 2**63],
    )
    def test_matches_reference_across_split_calls(self, bound):
        # 2^62+1, floor(2^64/3)+1 and 3*2^61 reject about 1/4, 1/3 and 1/4 of
        # raw outputs, so the 1500- and 2100-draw calls run out of their first
        # raw block; 33000 draws span two slices of the division-free reduce
        base = derive_stream(11, 2)
        stream, counter, total = SplitMix64(base), 0, 0
        for count in (1, 0, 7, 1500, 2100, 3, 33000):
            want, counter = reference_integers_below(base, counter, bound, count)
            got = stream.integers_below(bound, count)
            assert got.dtype == np.int64
            assert got.tolist() == want
            assert stream.counter == counter
            total += count
        if bound in (2**62 + 1, 2**64 // 3 + 1, 3 * 2**61):
            assert counter > total + 1024

    @pytest.mark.parametrize("bound", [2**63 + 1, 2**64 - 1, 2**64, 2**70])
    def test_bound_above_two_to_63_rejected(self, bound):
        stream = SplitMix64(1)
        with pytest.raises(DomainError):
            stream.integers_below(bound, 5)
        assert stream.counter == 0

    @given(st.integers(0, MASK64), st.integers(1, 2**40), st.integers(1, 300))
    @settings(max_examples=50, deadline=None)
    def test_property_in_range_and_reproducible(self, base, bound, count):
        a = SplitMix64(base).integers_below(bound, count)
        b = SplitMix64(base).integers_below(bound, count)
        assert a.tolist() == b.tolist()
        assert a.min() >= 0 and a.max() < bound


class TestSimResultAndShards:
    def test_histogram_must_sum_to_trials(self):
        with pytest.raises(DomainError):
            SimResult(histogram={0: 3}, trials=4, seed=0, shards=1, model="urn")

    def test_histogram_counts_must_be_nonnegative(self):
        # the counts add up to the trials, so only this check refuses them
        with pytest.raises(DomainError, match="counts must be >= 0"):
            SimResult(histogram={0: 1001, 1: -1}, trials=1000, seed=0, shards=1, model="urn")

    def test_shard_sizes(self):
        assert shard_sizes(10, 3) == [4, 3, 3]
        assert shard_sizes(6, 6) == [1] * 6
        assert shard_sizes(5, 8) == [1, 1, 1, 1, 1, 0, 0, 0]
        with pytest.raises(DomainError):
            shard_sizes(0, 3)
        with pytest.raises(DomainError):
            shard_sizes(5, 0)

    def test_shard_cap_checked_before_the_list_is_built(self):
        assert len(shard_sizes(1, MAX_SHARDS)) == MAX_SHARDS
        for shards in (MAX_SHARDS + 1, 2**62):
            with pytest.raises(ResourceLimitError):
                shard_sizes(5, shards)

    def test_seed_is_64_bits(self):
        check_seed(0)
        check_seed(MASK64)
        for seed in (-1, MASK64 + 1):
            with pytest.raises(DomainError):
                check_seed(seed)

    def test_campaign_histogram_sums_blocks_over_shards(self):
        calls = []

        def shard_sampler(i):
            def sample(block):
                calls.append((i, block))
                return np.full(block, i)

            return sample

        assert campaign_histogram(10, 3, 3, 4, shard_sampler) == {0: 4, 1: 3, 2: 3}
        # shards may run on different threads; within a shard, blocks run in order
        for i, blocks in ((0, [3, 1]), (1, [3]), (2, [3])):
            assert [b for j, b in calls if j == i] == blocks
        assert len(calls) == 4

    def test_empty_shards_build_no_sampler(self):
        built = []

        def shard_sampler(i):
            built.append(i)
            return lambda block: np.zeros(block, dtype=np.int64)

        assert campaign_histogram(3, 8, 2, 1, shard_sampler) == {0: 3}
        assert sorted(built) == [0, 1, 2]


def stream_sampler(seed, bound=7, width=5):
    """A shard sampler over real streams: the leading run of width-wide rows."""

    def shard_sampler(i):
        stream = SplitMix64(derive_stream(seed, i))
        return lambda block: leading_run(
            stream.integers_below(bound, block * width).reshape(block, width), width
        )

    return shard_sampler


class TestThreadedCampaign:
    def test_available_cpus(self):
        assert 1 <= available_cpus() <= (os.cpu_count() or 1)

    def test_more_shards_than_cpus_equals_serial_sum(self):
        # each shard's histogram drawn alone, in one block, on this thread
        trials, shards, seed = 20000, 4 * available_cpus() + 1, 5
        want = np.zeros(6, dtype=np.int64)
        for i, n in enumerate(shard_sizes(trials, shards)):
            want += np.bincount(stream_sampler(seed)(i)(n), minlength=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = campaign_histogram(trials, shards, 97, 5, stream_sampler(seed))
        finally:
            sys.setswitchinterval(interval)
        assert got == {a: int(c) for a, c in enumerate(want) if c}

    def test_threads_bounded_by_cpus(self, monkeypatch):
        import avalanches.sampling as sampling_mod

        monkeypatch.setattr(sampling_mod, "available_cpus", lambda: 2)
        idents, alive = set(), []
        before = threading.active_count()

        def shard_sampler(i):
            def sample(block):
                idents.add(threading.get_ident())
                alive.append(threading.active_count())
                time.sleep(0.001)  # keep the worker busy, so a larger pool would grow
                return np.zeros(block, dtype=np.int64)

            return sample

        assert campaign_histogram(1600, 16, 50, 3, shard_sampler) == {0: 1600}
        assert 1 <= len(idents) <= 2
        assert max(alive) <= before + 2
        assert threading.active_count() == before  # the workers were joined

    def test_shard_error_reaches_caller(self):
        def shard_sampler(i):
            def sample(block):
                if i == 2:
                    raise DomainError("shard 2 failed")
                return np.zeros(block, dtype=np.int64)

            return sample

        with pytest.raises(DomainError, match="shard 2 failed"):
            campaign_histogram(100, 5, 7, 3, shard_sampler)


def leading_run_by_definition(row, cap):
    s = sorted(row)
    return next((k for k in range(cap) if s[k] > k), cap)


class TestLeadingRun:
    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.integers(0, n + 2), min_size=n, max_size=n), min_size=1),
                st.integers(1, n),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_definition(self, case):
        rows, cap = case
        got = leading_run(np.array(rows, dtype=np.int64), cap)
        assert got.tolist() == [leading_run_by_definition(r, cap) for r in rows]

    @given(
        st.integers(1, 1200),
        st.integers(1, 12),
        st.data(),
        st.sampled_from([np.int32, np.int64]),
        st.sampled_from(["sparse", "dense", "no zero", "every row"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_definition_on_both_paths(self, rows, n, data, dtype, kind, seed):
        # blocks above 2^12 values with few zeros take the gathered path, the
        # others are sorted whole
        cap = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        top = {"sparse": 20 * n, "dense": n, "no zero": 3 * n, "every row": n + 2}[kind]
        hits = rng.integers(0, top, size=(rows, n)).astype(dtype)
        if kind == "no zero":
            hits += 1
        elif kind == "every row":
            hits[np.arange(rows), rng.integers(0, n, size=rows)] = 0
        want = [leading_run_by_definition(r, cap) for r in hits.tolist()]
        assert leading_run(hits, cap).tolist() == want

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_only_large_sparse_blocks_are_gathered(self, dtype):
        # a gathered block is left as it was; a sorted-whole one comes back sorted
        rng = np.random.default_rng(6)
        for shape, top, gathered in (((5000, 4), 40, True), ((5000, 4), 4, False), ((1000, 4), 40, False)):
            hits = rng.integers(0, top, size=shape).astype(dtype)
            before = hits.copy()
            want = [leading_run_by_definition(r, 4) for r in before.tolist()]
            assert leading_run(hits, 4).tolist() == want
            assert (hits == before).all() == gathered
            assert (hits == np.sort(before, axis=1)).all() != gathered

    def test_one_row_and_one_column(self):
        assert leading_run(np.array([[0], [1], [0]], dtype=np.int32), 1).tolist() == [1, 0, 1]
        dense = np.zeros((6000, 1), dtype=np.int64)
        dense[::3] = 5
        assert leading_run(dense, 1).tolist() == [0, 1, 1] * 2000
        sparse = np.ones((6000, 1), dtype=np.int32)
        sparse[::10] = 0
        assert leading_run(sparse, 1).tolist() == ([1] + [0] * 9) * 600
        assert leading_run(np.array([[2, 0, 1, 7]]), 4).tolist() == [3]

    def test_full_run_reaches_cap(self):
        assert leading_run(np.array([[0, 0, 1], [2, 1, 0], [0, 5, 9]]), 3).tolist() == [3, 3, 1]
        assert leading_run(np.array([[0, 0, 1]]), 2).tolist() == [2]
