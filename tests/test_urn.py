import itertools
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalanches.distributions import AvalancheParams, avalanche_pmf
from avalanches.errors import DomainError, ResourceLimitError
from avalanches.sampling import SplitMix64, derive_stream, leading_run, shard_sizes
from avalanches.stats import empirical_pmf, tv_distance
from avalanches.urn import (
    UrnConfig,
    simulate_urns,
    urn_pmf_bruteforce,
    urn_pmf_formula,
    urn_statistic,
)


def statistic_by_definition(assignment, M):
    """Largest r in {1..M} with urns 1..k holding >= k balls for all k <= r;
    quadratic scan straight from the definition, as an oracle."""
    best = 0
    for r in range(1, M + 1):
        ok = all(sum(1 for u in assignment if u <= k) >= k for k in range(1, r + 1))
        if ok:
            best = r
    return best


def urn_pmf_by_assignment_walk(n, m):
    """Law of X by scoring every one of the M^N assignments with urn_statistic;
    the literal reference for the occupancy-class oracle."""
    counts = Counter(
        urn_statistic(assignment, m) for assignment in itertools.product(range(1, m + 1), repeat=n)
    )
    return tuple(F(counts.get(a, 0), m**n) for a in range(n + 1))


# every (N, M) with M^N <= 10^5 and M <= 12, so M <= N and M > N both occur
WALK_GRID = [(n, m) for n in range(1, 17) for m in range(1, 13) if m**n <= 10**5]


class TestUrnStatistic:
    def test_urn_one_empty(self):
        assert urn_statistic([2, 3], 4) == 0

    def test_one_ball_in_urn_one(self):
        assert urn_statistic([1, 3], 4) == 1

    def test_both_in_urn_one(self):
        assert urn_statistic([1, 1], 4) == 2

    def test_more_balls_than_urns(self):
        assert urn_statistic([1, 1, 2], 2) == 2
        assert urn_statistic([2, 2, 2], 2) == 0

    def test_validation(self):
        with pytest.raises(DomainError):
            urn_statistic([0, 1], 4)
        with pytest.raises(DomainError):
            urn_statistic([1, 5], 4)

    @given(
        st.integers(1, 8).flatmap(
            lambda m: st.lists(st.integers(1, m), min_size=1, max_size=10).map(
                lambda a: (a, m)
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_definition_and_maximality(self, case):
        assignment, m = case
        x = urn_statistic(assignment, m)
        assert x == statistic_by_definition(assignment, m)
        assert 0 <= x <= min(len(assignment), m)
        if x < m:
            # at the stopping point: exactly x balls in urns 1..x, none in x+1
            assert sum(1 for u in assignment if u <= x) == x
            assert sum(1 for u in assignment if u == x + 1) == 0


class TestStatisticRows:
    """The shared kernel on urn draws: hit time = urn id - 1, cap = min(N, M)."""

    def test_exhaustive_small(self):
        import itertools

        for n, m in [(3, 4), (4, 4), (5, 3)]:
            rows = np.array(list(itertools.product(range(1, m + 1), repeat=n)))
            got = leading_run(rows - 1, min(n, m))
            want = [urn_statistic(list(r), m) for r in rows]
            assert got.tolist() == want

    def test_random_batch(self):
        rng = np.random.default_rng(0)
        for n, m in [(5, 3), (3, 9), (7, 7), (9, 2)]:
            rows = rng.integers(1, m + 1, size=(500, n))
            got = leading_run(rows - 1, min(n, m))
            want = [urn_statistic(list(r), m) for r in rows]
            assert got.tolist() == want


class TestUrnFormula:
    def test_hand_values(self):
        pmf = urn_pmf_formula(UrnConfig(2, 4))
        assert pmf.probs == (F(9, 16), F(4, 16), F(3, 16))

    def test_single_ball(self):
        assert urn_pmf_formula(UrnConfig(1, 2)).probs == (F(1, 2), F(1, 2))

    @pytest.mark.parametrize("n,m", [(1, 2), (3, 5), (4, 9), (6, 20)])
    def test_empty_urn_entry(self, n, m):
        pmf = urn_pmf_formula(UrnConfig(n, m))
        assert pmf.probs[0] == (1 - F(1, m)) ** n

    def test_requires_more_urns_than_balls(self):
        with pytest.raises(DomainError):
            urn_pmf_formula(UrnConfig(4, 4))

    @pytest.mark.parametrize("n,m", [(2, 4), (3, 7), (5, 6), (20, 100)])
    def test_equals_avalanche_law(self, n, m):
        pmf = urn_pmf_formula(UrnConfig(n, m))
        aval = avalanche_pmf(AvalancheParams(n, F(1, m)))
        assert pmf.probs == aval.probs


class TestUrnBruteforce:
    def test_hand_census(self):
        # of the 16 placements: 9 leave urn 1 empty, 3 fill urns 1..2, 4 rest
        pmf = urn_pmf_bruteforce(UrnConfig(2, 4))
        assert pmf.probs == (F(9, 16), F(4, 16), F(3, 16))

    def test_single_ball_single_urn(self):
        pmf = urn_pmf_bruteforce(UrnConfig(1, 1))
        assert pmf.support == (0, 1)
        assert pmf.probs == (F(0), F(1))

    def test_matches_formula_n4_m8(self):
        assert urn_pmf_bruteforce(UrnConfig(4, 8)).probs == urn_pmf_formula(
            UrnConfig(4, 8)
        ).probs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_formula_small_grid(self, n):
        for m in range(n + 1, 9):
            cfg = UrnConfig(n, m)
            assert urn_pmf_bruteforce(cfg).probs == urn_pmf_formula(cfg).probs

    @pytest.mark.parametrize("n", sorted({n for n, _ in WALK_GRID}))
    def test_matches_assignment_walk(self, n):
        for m in (m for k, m in WALK_GRID if k == n):
            pmf = urn_pmf_bruteforce(UrnConfig(n, m))
            assert pmf.support == tuple(range(n + 1))
            assert pmf.probs == urn_pmf_by_assignment_walk(n, m), (n, m)
            assert pmf.label == f"urn-bruteforce(N={n},M={m})"

    def test_matches_formula_past_the_old_cap(self):
        # 11^10 = 2.6e10 assignments, far past what the assignment walk can score
        cfg = UrnConfig(10, 11)
        assert urn_pmf_bruteforce(cfg).probs == urn_pmf_formula(cfg).probs

    def test_cap(self, monkeypatch):
        import avalanches.urn as urn_mod

        # C(3+3, 3) = 20 occupancy vectors
        monkeypatch.setattr(urn_mod, "DEFAULT_ENUMERATION_CAP", 19)
        with pytest.raises(ResourceLimitError):
            urn_pmf_bruteforce(UrnConfig(3, 5))
        monkeypatch.setattr(urn_mod, "DEFAULT_ENUMERATION_CAP", 20)
        assert urn_pmf_bruteforce(UrnConfig(3, 5)).probs == urn_pmf_by_assignment_walk(3, 5)

    def test_cap_checked_before_scoring(self, monkeypatch):
        import avalanches.urn as urn_mod

        def refuse(*args):
            raise AssertionError("an assignment was scored")

        monkeypatch.setattr(urn_mod, "urn_statistic", refuse)
        with pytest.raises(ResourceLimitError, match="cap"):
            urn_pmf_bruteforce(UrnConfig(16, 17))
        # at the sampler's cap on N the full count has about 157,000 digits
        with pytest.raises(ResourceLimitError, match="cap"):
            urn_pmf_bruteforce(UrnConfig(2**18, 2**18 + 1))


class TestSimulateUrns:
    def test_conservation(self):
        res = simulate_urns(UrnConfig(2, 4), 1000, seed=1)
        assert sum(res.histogram.values()) == 1000
        assert res.model == "urn" and res.params == {"N": 2, "M": 4}

    def test_determinism(self):
        a = simulate_urns(UrnConfig(3, 5), 20000, seed=9, shards=4)
        b = simulate_urns(UrnConfig(3, 5), 20000, seed=9, shards=4)
        assert a == b

    def test_seed_changes_histogram(self):
        a = simulate_urns(UrnConfig(3, 5), 20000, seed=1)
        b = simulate_urns(UrnConfig(3, 5), 20000, seed=2)
        assert a.histogram != b.histogram

    def test_shard_count_changes_stream(self):
        a = simulate_urns(UrnConfig(3, 5), 20000, seed=1, shards=1)
        b = simulate_urns(UrnConfig(3, 5), 20000, seed=1, shards=2)
        assert a.histogram != b.histogram  # different documented stream derivation

    def test_population_cap(self, monkeypatch):
        # a block holds one whole trial, so N past _BLOCK_DRAWS is refused
        # before any draw; at the cap a block is one trial
        import avalanches.urn as urn_mod

        n = urn_mod._BLOCK_DRAWS
        assert simulate_urns(UrnConfig(n, n + 1), 2, seed=1).trials == 2

        def refuse(*args):
            raise AssertionError("the campaign started")

        monkeypatch.setattr(urn_mod, "campaign_histogram", refuse)
        with pytest.raises(ResourceLimitError, match="cap"):
            simulate_urns(UrnConfig(n + 1, n + 2), 1, seed=1)

    def test_block_boundary_invariance(self, monkeypatch):
        import avalanches.urn as urn_mod

        a = simulate_urns(UrnConfig(2, 4), 5000, seed=3)
        monkeypatch.setattr(urn_mod, "_BLOCK_DRAWS", 155)  # blocks of 77 trials
        b = simulate_urns(UrnConfig(2, 4), 5000, seed=3)
        assert a == b

    def test_threaded_shards_match_one_serial_block_per_shard(self, monkeypatch):
        # blocks of 77 trials split each of the three shards of about 1667
        import avalanches.urn as urn_mod

        cfg, trials, seed = UrnConfig(3, 5), 5000, 3
        want = np.zeros(cfg.N + 1, dtype=np.int64)
        for i, n in enumerate(shard_sizes(trials, 3)):
            stream = SplitMix64(derive_stream(seed, i))
            want += np.bincount(urn_mod._sample_block(cfg, stream, n), minlength=cfg.N + 1)
        monkeypatch.setattr(urn_mod, "_BLOCK_DRAWS", 3 * 77)
        res = simulate_urns(cfg, trials, seed, shards=3)
        assert res.histogram == {a: int(c) for a, c in enumerate(want) if c}

    def test_draws_per_call_bounded_at_large_n(self, monkeypatch):
        import avalanches.urn as urn_mod

        counts = []
        draw = SplitMix64.integers_below

        def recording(self, bound, count):
            counts.append(count)  # list.append is atomic across threads
            return draw(self, bound, count)

        monkeypatch.setattr(SplitMix64, "integers_below", recording)
        simulate_urns(UrnConfig(200, 201), 3000, seed=1, shards=2)
        assert sum(counts) == 3000 * 200
        assert max(counts) <= urn_mod._BLOCK_DRAWS
        assert len(counts) > 2  # each shard took more than one block

    def test_shard_error_reaches_simulate_as_usage_error(self, monkeypatch, capsys):
        import avalanches.urn as urn_mod
        from avalanches.cli import main

        sample = urn_mod._sample_block
        bad_base = derive_stream(1, 1)

        def failing(cfg, stream, block):
            if stream.base == bad_base:
                raise DomainError("shard 1 failed")
            return sample(cfg, stream, block)

        monkeypatch.setattr(urn_mod, "_sample_block", failing)
        with pytest.raises(DomainError, match="shard 1 failed"):
            simulate_urns(UrnConfig(3, 5), 3000, seed=1, shards=3)
        rc = main(["simulate", "--model", "urn", "--N", "3", "--M", "5",
                   "--trials", "3000", "--seed", "1", "--shards", "3"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "error: shard 1 failed\n"

    def test_close_to_exact_at_1e5(self):
        res = simulate_urns(UrnConfig(2, 4), 10**5, seed=7)
        assert abs(res.histogram[0] / 10**5 - 9 / 16) <= 0.01

    def test_sampled_assignments_respect_maximality(self):
        # spot check the structural property on the actual sampler output path
        res = simulate_urns(UrnConfig(4, 6), 2000, seed=5)
        emp = empirical_pmf(res, support_upper=4)
        assert tv_distance(emp, urn_pmf_formula(UrnConfig(4, 6))) < 0.1

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            simulate_urns(UrnConfig(2, 4), 0, seed=1)
        with pytest.raises(DomainError):
            simulate_urns(UrnConfig(2, 4), 10, seed=1, shards=0)
        for seed in (-1, 2**64):
            with pytest.raises(DomainError):
                simulate_urns(UrnConfig(2, 4), 10, seed=seed)
