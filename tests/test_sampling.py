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
    STREAM_CAP,
    SimResult,
    SplitMix64,
    _mix64_inplace,
    available_cpus,
    check_campaign,
    check_seed,
    derive_stream,
    leading_run,
    mix64,
    run_campaign,
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

    @given(st.integers(0, MASK64), st.integers(0, 2**16), st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_forking_a_shard_base_folds_one_more_index(self, seed, i, j):
        # simulate_tower forks coordinate j from shard i's base
        assert derive_stream(derive_stream(seed, i), j) == derive_stream(seed, i, j)


@pytest.fixture
def raw_blocks(monkeypatch):
    """The sizes of the raw blocks SplitMix64 generates, in order."""
    sizes = []
    raw_block = SplitMix64._raw_block

    def recording(self, count):
        sizes.append(count)
        return raw_block(self, count)

    monkeypatch.setattr(SplitMix64, "_raw_block", recording)
    return sizes


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
        [
            1, 2, 3, 64, 100, 2**31, 2**32, 2**32 + 1, 2**62, 2**62 + 1,
            2**64 // 3 + 1, 3 * 2**61, 2**63 - 1, 2**63,
        ],
    )
    def test_matches_reference_across_split_calls(self, bound):
        # 2^62+1, floor(2^64/3)+1 and 3*2^61 reject about 1/4, 1/3 and 1/4 of
        # raw outputs; the powers of two are reduced by a mask, where a 32-bit
        # or sign slip would show at 2^31, 2^32, 2^62 and 2^63; the calls pin
        # the stream and counter across split calls,
        # and test_matches_reference_when_blocks_fall_short covers the refill
        # loop; 33000 draws span two slices of the division-free reduce
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

    @pytest.mark.parametrize("bound", [2**62 + 1, 2**64 // 3 + 1, 3 * 2**61])
    def test_matches_reference_when_blocks_fall_short(self, monkeypatch, bound):
        # blocks of need + 1 raw outputs run out after two rejections, so
        # these bounds take the refill loop again and again
        import avalanches.sampling as sampling_mod

        blocks = []
        monkeypatch.setattr(
            sampling_mod, "_raw_count", lambda need, limit: blocks.append(need) or need + 1
        )
        base = derive_stream(12, 0)
        stream, counter = SplitMix64(base), 0
        for count in (1, 7, 1500, 40000):
            want, counter = reference_integers_below(base, counter, bound, count)
            assert stream.integers_below(bound, count).tolist() == want
            assert stream.counter == counter
        assert len(blocks) > 4 * 2  # the 1500- and 40000-draw calls refilled

    @pytest.mark.parametrize("seed", range(20))
    def test_blocks_sized_by_the_rejection_rate(self, raw_blocks, seed):
        # 3*2^61 rejects a quarter of raw outputs; one block is the usual case
        stream = SplitMix64(derive_stream(seed, 0))
        for _ in range(3):
            raw_blocks.clear()
            stream.integers_below(3 * 2**61, 2**18)
            assert 1 <= len(raw_blocks) <= 2

    @pytest.mark.parametrize("bound", [1, 7, 64, 100, 2**32, 2**63])
    def test_block_is_count_plus_16_where_nothing_is_rejected(self, raw_blocks, bound):
        SplitMix64(3).integers_below(bound, 2**18)
        SplitMix64(3).integers_below(bound, 10)
        SplitMix64(3).integers_below(bound, 1)
        assert raw_blocks == [2**18 + 16, 26, 17]

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
        # only the shards that get a trial are listed
        assert shard_sizes(5, 8) == [1] * 5
        with pytest.raises(DomainError):
            shard_sizes(0, 3)
        with pytest.raises(DomainError):
            shard_sizes(5, 0)

    def test_shard_cap_checked_before_the_list_is_built(self):
        # the cap counts the shards that get a trial, and so does the list
        assert shard_sizes(5, 2**62) == [1] * 5
        assert len(shard_sizes(STREAM_CAP, 2**62)) == STREAM_CAP
        for trials in (STREAM_CAP + 1, 2**62):
            with pytest.raises(ResourceLimitError):
                shard_sizes(trials, 2**62)

    @pytest.mark.parametrize("streams", [1, 3, STREAM_CAP])
    def test_stream_cap_counts_streams_on_shards_with_a_trial(self, streams):
        busy = STREAM_CAP // streams
        for trials, shards in ((busy, 2**62), (2**62, busy), (busy, busy)):
            check_campaign(trials, shards, streams)
        for trials, shards in ((busy + 1, 2**62), (2**62, busy + 1)):
            with pytest.raises(ResourceLimitError, match=f"exceed the cap of {STREAM_CAP}"):
                check_campaign(trials, shards, streams)

    def test_seed_is_64_bits(self):
        check_seed(0)
        check_seed(MASK64)
        for seed in (-1, MASK64 + 1):
            with pytest.raises(DomainError):
                check_seed(seed)

    def test_run_campaign_sums_blocks_over_shards(self):
        calls = []
        shard_of = {derive_stream(4, i): i for i in range(3)}

        def shard_sampler(base):
            i = shard_of[base]

            def sample(block):
                calls.append((i, block))
                return rows_scoring([i] * block, 4)

            return sample

        res = run_campaign("urn", {}, 10, 4, 3, 3, 4, shard_sampler)
        assert res.histogram == {0: 4, 1: 3, 2: 3}
        # shards may run on different threads; within a shard, blocks run in order
        for i, blocks in ((0, [3, 1]), (1, [3]), (2, [3])):
            assert [b for j, b in calls if j == i] == blocks
        assert len(calls) == 4

    def test_empty_shards_build_no_sampler(self):
        built = []

        def shard_sampler(base):
            built.append(base)
            return lambda block: rows_scoring([], 1)

        assert run_campaign("urn", {}, 3, 9, 8, 2, 1, shard_sampler).histogram == {0: 3}
        assert sorted(built) == sorted(derive_stream(9, i) for i in range(3))

    def test_run_campaign_hands_out_shard_bases_and_echoes_the_run(self):
        bases = []

        def shard_sampler(base):
            bases.append(base)
            return lambda block: rows_scoring([1] * block, 2)

        params = {"N": 2, "M": 3}
        res = run_campaign("model-x", params, 7, MASK64, 5, 4, 2, shard_sampler)
        assert sorted(bases) == sorted(derive_stream(MASK64, i) for i in range(5))
        assert res == SimResult(
            histogram={1: 7}, trials=7, seed=MASK64, shards=5, model="model-x", params=params
        )

    @pytest.mark.parametrize("seed", [-1, MASK64 + 1])
    def test_run_campaign_rejects_a_bad_seed_before_any_sampler(self, seed):
        def shard_sampler(base):
            raise AssertionError("a sampler was built")

        with pytest.raises(DomainError, match="seed"):
            run_campaign("urn", {}, 10, seed, 2, 5, 1, shard_sampler)

    @pytest.mark.parametrize("block_trials", [0, -1])
    def test_run_campaign_refuses_a_block_without_a_whole_trial(self, block_trials):
        def shard_sampler(base):
            raise AssertionError("a sampler was built")

        with pytest.raises(ResourceLimitError, match="cap"):
            run_campaign("urn", {}, 10, 1, 2, block_trials, 1, shard_sampler)

    def test_trials_not_returned_land_in_bin_zero(self):
        # each block returns rows for trials 0, 3, 6, ... of its own, scoring
        # 1, 2, 3; the others are never scored and count as 0
        blocks = []

        def shard_sampler(base):
            def sample(block):
                blocks.append(block)
                return rows_scoring([1, 2, 3][: len(range(0, block, 3))], 3)

            return sample

        res = run_campaign("urn", {}, 20, 2, 1, 7, 3, shard_sampler)
        assert blocks == [7, 7, 6]
        # 3 + 3 + 2 trials returned, 12 not
        assert res.histogram == {0: 12, 1: 3, 2: 3, 3: 2}

    def test_rows_are_scored_up_to_cap_and_not_past_it(self):
        # rows wider than the cap: a run longer than the cap stops at it
        res = run_campaign(
            "urn", {}, 4, 0, 1, 4, 2,
            lambda base: lambda block: np.array([[0, 0, 0], [0, 1, 9], [1, 1, 2]][:block]),
        )
        assert res.histogram == {0: 2, 2: 2}


def rows_scoring(sizes, width):
    """One hit-time row per size a < width + 1, width wide, whose leading run
    at cap = width is a: a zeros, then hit times past every k."""
    rows = [[0] * a + [width + 1] * (width - a) for a in sizes]
    return np.array(rows, dtype=np.int64).reshape(-1, width)


def stream_sampler(base, bound=7, width=5):
    """A shard sampler over a real stream: every trial's width-wide row."""
    stream = SplitMix64(base)
    return lambda block: stream.integers_below(bound, block * width).reshape(block, width)


class TestThreadedCampaign:
    def test_available_cpus(self):
        assert 1 <= available_cpus() <= (os.cpu_count() or 1)

    def test_more_shards_than_cpus_equals_serial_sum(self):
        # each shard's histogram drawn alone, in one block, on this thread
        trials, shards, seed = 20000, 4 * available_cpus() + 1, 5
        want = np.zeros(6, dtype=np.int64)
        for i, n in enumerate(shard_sizes(trials, shards)):
            want += np.bincount(leading_run(stream_sampler(derive_stream(seed, i))(n), 5), minlength=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_campaign("urn", {}, trials, seed, shards, 97, 5, stream_sampler)
        finally:
            sys.setswitchinterval(interval)
        assert got.histogram == {a: int(c) for a, c in enumerate(want) if c}

    def test_each_worker_runs_every_workers_th_shard(self, monkeypatch):
        import avalanches.sampling as sampling_mod

        trials, shards, seed = 5000, 37, 11
        monkeypatch.setattr(sampling_mod, "available_cpus", lambda: 1)
        serial = run_campaign("urn", {}, trials, seed, shards, 64, 5, stream_sampler)
        index = {derive_stream(seed, i): i for i in range(shards)}
        built = []  # (shard, thread) in the order the shards start

        def shard_sampler(base):
            built.append((index[base], threading.get_ident()))
            return stream_sampler(base)

        monkeypatch.setattr(sampling_mod, "available_cpus", lambda: 3)
        assert run_campaign("urn", {}, trials, seed, shards, 64, 5, shard_sampler) == serial
        assert sorted(i for i, _ in built) == list(range(shards))
        for w in range(3):
            # shards w, w + 3, ... run in turn on one thread
            mine = [(i, t) for i, t in built if i % 3 == w]
            assert [i for i, _ in mine] == list(range(w, shards, 3))
            assert len({t for _, t in mine}) == 1

    def test_threads_bounded_by_cpus(self, monkeypatch):
        import avalanches.sampling as sampling_mod

        monkeypatch.setattr(sampling_mod, "available_cpus", lambda: 2)
        idents, alive = set(), []
        before = threading.active_count()

        def shard_sampler(base):
            def sample(block):
                idents.add(threading.get_ident())
                alive.append(threading.active_count())
                time.sleep(0.001)  # keep the worker busy, so a larger pool would grow
                return rows_scoring([], 3)

            return sample

        res = run_campaign("urn", {}, 1600, 0, 16, 50, 3, shard_sampler)
        assert res.histogram == {0: 1600}
        assert 1 <= len(idents) <= 2
        assert max(alive) <= before + 2
        assert threading.active_count() == before  # the workers were joined

    def test_shard_error_reaches_caller(self):
        bad_base = derive_stream(0, 2)

        def shard_sampler(base):
            def sample(block):
                if base == bad_base:
                    raise DomainError("shard 2 failed")
                return rows_scoring([], 3)

            return sample

        with pytest.raises(DomainError, match="shard 2 failed"):
            run_campaign("urn", {}, 100, 0, 5, 7, 3, shard_sampler)


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
    def test_sorts_rows_in_place(self, dtype):
        hits = np.random.default_rng(6).integers(0, 40, size=(5000, 4)).astype(dtype)
        before = hits.copy()
        want = [leading_run_by_definition(r, 4) for r in before.tolist()]
        assert leading_run(hits, 4).tolist() == want
        assert (hits == np.sort(before, axis=1)).all()

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
