import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from avalanches.combinatorics import _compositions_into
from avalanches.distributions import AvalancheParams, avalanche_pmf
from avalanches.errors import DomainError, ResourceLimitError
from avalanches.sampling import SplitMix64, derive_stream, leading_run, shard_sizes
from avalanches.stats import chi_square_gof, empirical_pmf, tv_distance
from avalanches.towers import (
    CoordinateTower,
    _general_numerators,
    _hit_times,
    avalanche_pmf_general,
    avalanche_size,
    avalanche_trace,
    make_tower_system,
    simulate_tower,
    tower_pmf_bruteforce,
)

TWO_COORD = make_tower_system([(8, 1, 4)] * 2)  # p = 1/8 each, U = {4}
HET_TWO = make_tower_system([(6, 1, 2), (8, 2, 2)])  # p = 1/6, 1/4


def tower_pmf_by_state_walk(sys_):
    """Law of the avalanche size by scoring every state of the product space with
    avalanche_size; the literal reference for the hit-class oracle."""
    total = 1
    for c in sys_.coords:
        total *= c.L
    counts = Counter(
        avalanche_size(x, sys_) for x in itertools.product(*(range(c.L) for c in sys_.coords))
    )
    return tuple(F(counts.get(a, 0), total) for a in range(sys_.N + 1))


def count_avalanche_size_calls(monkeypatch):
    """Wrap towers.avalanche_size with a counter; returns the one-item count list."""
    import avalanches.towers as towers_mod

    calls = [0]
    literal = towers_mod.avalanche_size

    def counted(x, sys_):
        calls[0] += 1
        return literal(x, sys_)

    monkeypatch.setattr(towers_mod, "avalanche_size", counted)
    return calls


# w > 1, L not a multiple of w, L = (h+1)w (no state outside the tower),
# heights above N, and repeated, mixed and interleaved coordinate types
WALK_SYSTEMS = [
    [(8, 1, 4)] * 2,
    [(6, 1, 2), (8, 2, 2)],
    [(4, 1, 3)] * 3,
    [(9, 2, 3)] * 3,
    [(10, 3, 2), (7, 2, 2)],
    [(12, 3, 3), (9, 2, 3), (12, 3, 3)],
    [(12, 2, 5), (9, 1, 5)],
    [(9, 2, 3), (5, 1, 3), (9, 2, 3)],
    [(6, 1, 4), (7, 1, 4), (6, 1, 4), (11, 2, 4)],
    [(16, 3, 4), (5, 1, 4), (16, 3, 4), (5, 1, 4)],
    # three distinct types, each with all N + 2 hit classes non-empty: one
    # multiset of classes gathers state tuples from different type orders
    [(5, 1, 3), (8, 1, 4), (11, 2, 3)],
]


def general_pmf_by_partition_enumeration(ps):
    """Literal sum over cascade depth, block sizes, and ordered set partitions.

    Independent oracle for avalanche_pmf_general: enumerates every ordered
    partition (I_1,...,I_r, rest) explicitly and multiplies the per-block
    factors with no algebraic shortcuts.
    """
    n = len(ps)
    coords = list(range(n))

    def ordered_partitions(pool, sizes):
        if not sizes:
            yield []
            return
        for block in itertools.combinations(pool, sizes[0]):
            remaining = [c for c in pool if c not in block]
            for rest in ordered_partitions(remaining, sizes[1:]):
                yield [set(block)] + rest

    probs = []
    for a in range(n + 1):
        if a == 0:
            total = F(1)
            for p in ps:
                total *= 1 - p
            probs.append(total)
            continue
        total = F(0)
        for r in range(1, a + 1):
            for parts in _compositions_into(a, r):
                for firing_blocks in ordered_partitions(coords, list(parts)):
                    fired = set().union(*firing_blocks)
                    term = F(1)
                    for i in firing_blocks[0]:
                        term *= ps[i]
                    for l in range(1, r):
                        for i in firing_blocks[l]:
                            term *= parts[l - 1] * ps[i]
                    for i in coords:
                        if i not in fired:
                            term *= 1 - (a + 1) * ps[i]
                    total += term
        probs.append(total)
    return probs


class TestConstruction:
    def test_valid_uniform(self):
        sys_ = make_tower_system([(8, 1, 3)] * 3)
        assert sys_.N == 3
        assert sys_.ps() == (F(1, 8),) * 3

    def test_height_must_exceed_coordinate_count(self):
        with pytest.raises(DomainError, match="height"):
            make_tower_system([(8, 1, 2)] * 3)

    def test_levels_must_be_disjoint(self):
        with pytest.raises(DomainError, match="disjoint"):
            make_tower_system([(8, 3, 2)] * 2)

    def test_width_positive(self):
        with pytest.raises(DomainError):
            CoordinateTower(8, 0, 3)

    def test_excited_set_and_step(self):
        t = CoordinateTower(8, 2, 2)  # levels {0,1},{2,3},{4,5}; U = {4,5}
        assert [x for x in range(8) if t.in_excited(x)] == [4, 5]
        assert t.step(6, 1) == 0
        assert t.p == F(1, 4)


class TestAvalancheSize:
    def test_both_excited(self):
        assert avalanche_size((4, 4), TWO_COORD) == 2

    def test_cascade_pulls_in_neighbor(self):
        assert avalanche_trace((4, 3), TWO_COORD) == [1, 2, 2]

    def test_nothing_fires(self):
        assert avalanche_trace((0, 0), TWO_COORD) == [0, 0]

    def test_one_step_short(self):
        # coordinate 2 would need l=2 but the horizon stops at A=1
        assert avalanche_size((4, 2), TWO_COORD) == 1

    def test_state_validation(self):
        with pytest.raises(DomainError):
            avalanche_size((4,), TWO_COORD)
        with pytest.raises(DomainError):
            avalanche_size((4, 8), TWO_COORD)

    def test_trace_monotone_and_stabilizes_exhaustive(self):
        for x in itertools.product(range(8), repeat=2):
            trace = avalanche_trace(x, TWO_COORD)
            assert all(b >= a for a, b in zip(trace, trace[1:]))
            assert trace[-1] == trace[-2]
            assert len(trace) <= TWO_COORD.N + 1

    def test_at_most_one_excited_pass_exhaustive(self):
        for sys_ in (TWO_COORD, HET_TWO):
            for i, tower in enumerate(sys_.coords):
                for x in range(tower.L):
                    hits = sum(
                        1
                        for l in range(sys_.N + 1)
                        if tower.in_excited(tower.step(x, l))
                    )
                    assert hits <= 1


class TestBruteforce:
    def test_two_coordinate_hand_census(self):
        # a=2 states: (4,4),(4,3),(3,4); a=1: (4,y),(y,4) for y not in {3,4}
        pmf = tower_pmf_bruteforce(TWO_COORD)
        assert pmf.probs == (F(49, 64), F(12, 64), F(3, 64))

    def test_three_coordinates_match_closed_form(self):
        sys_ = make_tower_system([(8, 1, 3)] * 3)
        pmf = tower_pmf_bruteforce(sys_)
        assert pmf.probs == avalanche_pmf(AvalancheParams(3, F(1, 8))).probs

    def test_single_coordinate(self):
        sys_ = make_tower_system([(4, 1, 1)])
        assert tower_pmf_bruteforce(sys_).probs == (F(3, 4), F(1, 4))

    def test_heterogeneous_matches_general(self):
        pmf = tower_pmf_bruteforce(HET_TWO)
        assert pmf.probs == tuple(avalanche_pmf_general(HET_TWO.ps()).probs)

    def test_heterogeneous_three_coordinates(self):
        sys_ = make_tower_system([(4, 1, 3), (5, 1, 3), (8, 2, 3)])
        pmf = tower_pmf_bruteforce(sys_)
        assert pmf.probs == tuple(avalanche_pmf_general(sys_.ps()).probs)

    def test_cap(self, monkeypatch):
        import avalanches.towers as towers_mod

        # 8 + 8 states to scan, C(2 + 4 - 1, 2) = 10 hit-class tuples
        monkeypatch.setattr(towers_mod, "DEFAULT_STATE_CAP", 15)
        with pytest.raises(ResourceLimitError):
            tower_pmf_bruteforce(TWO_COORD)
        monkeypatch.setattr(towers_mod, "DEFAULT_STATE_CAP", 16)
        assert tower_pmf_bruteforce(TWO_COORD).probs == tower_pmf_by_state_walk(TWO_COORD)

    @pytest.mark.parametrize("specs", WALK_SYSTEMS, ids=str)
    def test_matches_state_walk(self, specs):
        sys_ = make_tower_system(specs)
        pmf = tower_pmf_bruteforce(sys_)
        assert pmf.support == tuple(range(sys_.N + 1))
        assert pmf.probs == tower_pmf_by_state_walk(sys_)
        assert pmf.label == f"tower-bruteforce(N={sys_.N})"

    def test_criterion_7_tower_past_the_old_cap(self, monkeypatch):
        # 64^8 = 2.8e14 states; 24310 multisets of hit classes, one state scored each
        calls = count_avalanche_size_calls(monkeypatch)
        sys_ = make_tower_system([(64, 1, 8)] * 8)
        pmf = tower_pmf_bruteforce(sys_)
        assert pmf.probs == avalanche_pmf(AvalancheParams(8, F(1, 64))).probs
        assert calls == [24310]

    @pytest.mark.parametrize(
        "specs",
        [[(9, 1, 3), (10, 1, 3), (11, 1, 3)], [(9, 1, 3), (10, 1, 3), (9, 1, 3)]],
        ids=["distinct", "interleaved"],
    )
    def test_one_state_per_multiset_across_types(self, monkeypatch, specs):
        # 5 hit classes per type, 5^3 tuples of classes, C(5 + 3 - 1, 3) = 35 multisets
        calls = count_avalanche_size_calls(monkeypatch)
        sys_ = make_tower_system(specs)
        pmf = tower_pmf_bruteforce(sys_)
        assert calls == [35]
        assert pmf.probs == tower_pmf_by_state_walk(sys_)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_mixed_systems(self, monkeypatch, seed):
        # N = 1..4 coordinates drawn from two types, so types repeat and interleave
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        types = []
        for _ in range(2):
            w, h = rng.randint(1, 2), rng.randint(n, n + 2)
            types.append((rng.randint((h + 1) * w, (h + 1) * w + 3), w, h))
        sys_ = make_tower_system([rng.choice(types) for _ in range(n)])

        def hit_class(c, x):
            return next((l for l in range(n + 1) if c.in_excited(c.step(x, l))), n + 1)

        classes = [{hit_class(c, x) for x in range(c.L)} for c in sys_.coords]
        multisets = {tuple(sorted(t)) for t in itertools.product(*classes)}
        calls = count_avalanche_size_calls(monkeypatch)
        pmf = tower_pmf_bruteforce(sys_)
        assert calls == [len(multisets)]
        assert pmf.probs == tower_pmf_by_state_walk(sys_)

    def test_tuple_cap_checked_before_scan(self, monkeypatch):
        import avalanches.towers as towers_mod

        def refuse(*args):
            raise AssertionError("the oracle started scanning")

        monkeypatch.setattr(towers_mod, "_hit_classes", refuse)
        monkeypatch.setattr(towers_mod, "avalanche_size", refuse)
        # C(11 + 13 - 1, 11) = 1352078 tuples from only 4400 states
        with pytest.raises(ResourceLimitError, match="tuples"):
            tower_pmf_bruteforce(make_tower_system([(400, 1, 12)] * 11))
        with pytest.raises(ResourceLimitError, match="states"):
            tower_pmf_bruteforce(make_tower_system([(10**6, 1, 1)]))


class TestOracleSeparation:
    """The oracles reach their laws without the closed forms' kernels."""

    FORBIDDEN = ("_abel_term", "_general_numerators", "leading_run")

    def test_oracles_run_with_kernels_disabled(self, monkeypatch):
        import avalanches.distributions as dist_mod
        import avalanches.sampling as sampling_mod
        import avalanches.towers as towers_mod
        import avalanches.urn as urn_mod
        from avalanches.urn import UrnConfig, urn_pmf_bruteforce

        urn_law = urn_pmf_bruteforce(UrnConfig(5, 8)).probs
        tower_law = tower_pmf_bruteforce(HET_TWO).probs

        def refuse(*args):
            raise AssertionError("an oracle used a closed-form kernel")

        for mod in (dist_mod, sampling_mod, towers_mod, urn_mod):
            for name in self.FORBIDDEN:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        assert urn_pmf_bruteforce(UrnConfig(5, 8)).probs == urn_law
        assert tower_pmf_bruteforce(HET_TWO).probs == tower_law

    def test_oracles_name_nothing_from_distributions_but_pmf(self):
        import types

        import avalanches.distributions as dist_mod
        import avalanches.towers as towers_mod
        import avalanches.urn as urn_mod

        kernel = {
            name
            for name, obj in vars(dist_mod).items()
            if getattr(obj, "__module__", None) == dist_mod.__name__ and name != "Pmf"
        }
        kernel.update(self.FORBIDDEN)

        def names(code):
            out = set(code.co_names)
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    out |= names(const)
            return out

        oracles = [
            urn_mod.urn_pmf_bruteforce,
            towers_mod.tower_pmf_bruteforce,
            towers_mod._hit_classes,
        ]
        for fn in oracles:
            assert not names(fn.__code__) & kernel, fn.__name__


class TestGeneralPmf:
    def test_single_coordinate(self):
        assert avalanche_pmf_general([F(1, 5)]).probs == (F(4, 5), F(1, 5))

    def test_two_coordinates_hand_expansion(self):
        p1, p2 = F(1, 7), F(1, 9)
        pmf = avalanche_pmf_general([p1, p2])
        assert pmf.probs[0] == (1 - p1) * (1 - p2)
        assert pmf.probs[1] == p1 * (1 - 2 * p2) + p2 * (1 - 2 * p1)
        assert pmf.probs[2] == 3 * p1 * p2

    @pytest.mark.parametrize("n,p", [(1, F(1, 3)), (3, F(1, 8)), (6, F(1, 17))])
    def test_homogeneous_reduction(self, n, p):
        pmf = avalanche_pmf_general([p] * n)
        assert pmf.probs == avalanche_pmf(AvalancheParams(n, p)).probs

    @pytest.mark.parametrize(
        "ps",
        [
            [F(1, 7), F(1, 9)],
            [F(1, 4), F(1, 5), F(1, 6)],
            [F(1, 9), F(1, 17), F(2, 9), F(1, 5)],
            [F(1, 11), F(1, 6), F(0), F(1, 13), F(1, 19)],
            [F(1, 9), F(1, 9), F(1, 17), F(1, 17), F(1, 5)],
        ],
    )
    def test_matches_literal_partition_enumeration(self, ps):
        pmf = avalanche_pmf_general(ps)
        assert list(pmf.probs) == general_pmf_by_partition_enumeration(ps)

    def test_zero_probability_coordinate(self):
        pmf = avalanche_pmf_general([F(0), F(1, 5)])
        assert pmf.probs == (F(4, 5), F(1, 5), F(0))

    def test_mass_is_one(self):
        for ps in ([F(1, 4), F(1, 5)], [F(1, 10)] * 4, [F(1, 31), F(1, 7), F(1, 12)]):
            assert sum(avalanche_pmf_general(ps).probs) == 1

    def test_caps_and_domain(self):
        assert avalanche_pmf_general([F(1, 100)] * 11) == avalanche_pmf(
            AvalancheParams(11, F(1, 100))
        )
        with pytest.raises(DomainError):
            avalanche_pmf_general([F(2, 3), F(1, 3)])  # N*p > 1
        with pytest.raises(DomainError):
            avalanche_pmf_general([])

    def test_closed_boundary_still_normalizes(self):
        pmf = avalanche_pmf_general([F(1, 2), F(1, 2)])
        assert pmf.probs == (F(1, 4), F(0), F(3, 4))

    def test_fifty_coordinates_four_masses_match_a_campaign(self):
        # criterion 7's thresholds on a 10^6-trial campaign, far past the
        # sizes the exhaustive oracles reach
        sys_ = make_tower_system(
            [(53, 1, 50)] * 13 + [(61, 1, 50)] * 13 + [(67, 1, 50)] * 12 + [(160, 2, 50)] * 12
        )
        exact = avalanche_pmf_general(sys_.ps())
        assert exact.label == "avalanche-general(N=50)"
        res = simulate_tower(sys_, 10**6, seed=1, shards=2)
        assert tv_distance(empirical_pmf(res, support_upper=sys_.N), exact) <= 0.01
        assert chi_square_gof(res, exact).approx_p_value > 0.001

    def test_hundred_distinct_masses(self):
        # closed forms at both ends and the sum, then criterion 7's thresholds
        # on a 10^6-trial campaign at L = 101..200
        sys_ = make_tower_system([(L, 1, 100) for L in range(101, 201)])
        ps, n = sys_.ps(), sys_.N
        v = math.lcm(*range(101, 201))
        us = [v // L for L in range(101, 201)]
        nums = _general_numerators(us, v)
        assert nums[0] == math.prod(v - u for u in us)
        assert nums[n] == (n + 1) ** (n - 1) * math.prod(us)
        assert sum(nums) == v**n
        exact = avalanche_pmf_general(ps)
        assert exact.probs[0] == math.prod(1 - p for p in ps)
        assert exact.probs[n] == (n + 1) ** (n - 1) * math.prod(ps)
        res = simulate_tower(sys_, 10**6, seed=1, shards=2)
        assert tv_distance(empirical_pmf(res, support_upper=n), exact) <= 0.01
        assert chi_square_gof(res, exact).approx_p_value > 0.001


class TestVectorizedPath:
    def test_hit_times_match_scalar_search(self):
        for sys_ in (TWO_COORD, HET_TWO):
            for j, tower in enumerate(sys_.coords):
                states = np.arange(tower.L)
                ts = _hit_times(states, tower, sys_.N)
                for x in range(tower.L):
                    want = next(
                        (
                            l
                            for l in range(sys_.N + 1)
                            if tower.in_excited(tower.step(x, l))
                        ),
                        sys_.N + 1,
                    )
                    assert ts[x] == want

    @pytest.mark.parametrize(
        "spec", [(2**63, 2**60, 6), (2**63 - 1, 1, 2), (2**63 - 1, 3 * 2**59, 4), (2**63, 2**62, 1)]
    )
    def test_hit_times_near_two_to_63(self, spec):
        # states above the tower wrap h - x//w past 2^63 in uint64
        tower = CoordinateTower(*spec)
        L, w, h = spec
        top = (h + 1) * w
        states = [0, w - 1, w, h * w - 1, h * w, top - 1, top, top + 1, L // 2, L - 2, L - 1]
        states = [x for x in states if x < L]
        for horizon in (0, 1, h):
            got = _hit_times(np.array(states, dtype=np.int64), tower, horizon)
            want = [
                next((l for l in range(horizon + 1) if tower.in_excited(tower.step(x, l))), horizon + 1)
                for x in states
            ]
            assert got.tolist() == want

    def test_sizes_match_literal_recursion_exhaustive(self):
        het_three = make_tower_system([(5, 1, 3), (9, 2, 3), (4, 1, 3)])
        for sys_ in (TWO_COORD, HET_TWO, het_three):
            states = list(itertools.product(*(range(c.L) for c in sys_.coords)))
            hits = np.empty((len(states), sys_.N), dtype=np.int64)
            for j, tower in enumerate(sys_.coords):
                col = np.array([x[j] for x in states])
                hits[:, j] = _hit_times(col, tower, sys_.N)
            sizes = leading_run(hits, sys_.N)
            for k, x in enumerate(states):
                assert sizes[k] == avalanche_size(x, sys_)


class TestSimulateTower:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            simulate_tower(TWO_COORD, 10, seed=seed)

    def test_conservation_and_params(self):
        res = simulate_tower(TWO_COORD, 1000, seed=1)
        assert sum(res.histogram.values()) == 1000
        assert res.model == "tower"
        assert res.params == {"coords": [[8, 1, 4], [8, 1, 4]]}

    def test_determinism(self):
        a = simulate_tower(HET_TWO, 20000, seed=9, shards=3)
        b = simulate_tower(HET_TWO, 20000, seed=9, shards=3)
        assert a == b

    def test_shard_count_changes_stream(self):
        a = simulate_tower(TWO_COORD, 20000, seed=1, shards=1)
        b = simulate_tower(TWO_COORD, 20000, seed=1, shards=2)
        assert a.histogram != b.histogram

    def test_population_cap(self, monkeypatch):
        # a block holds one whole trial, so N past _BLOCK_DRAWS is refused
        import avalanches.towers as towers_mod

        monkeypatch.setattr(towers_mod, "_BLOCK_DRAWS", 2)
        assert simulate_tower(TWO_COORD, 10, seed=1).trials == 10
        with pytest.raises(ResourceLimitError, match="cap"):
            simulate_tower(make_tower_system([(8, 1, 4)] * 3), 10, seed=1)

    def test_coordinate_cap_refused_before_any_stream(self, monkeypatch):
        # each coordinate keeps its own stream, so the cap is checked first
        import avalanches.towers as towers_mod

        monkeypatch.setattr(towers_mod, "COORDINATE_CAP", 2)
        assert simulate_tower(TWO_COORD, 10, seed=1).trials == 10

        def refuse(*args):
            raise AssertionError("a stream was built")

        monkeypatch.setattr(towers_mod, "SplitMix64", refuse)
        monkeypatch.setattr(towers_mod, "derive_stream", refuse)
        with pytest.raises(ResourceLimitError, match="cap of 2"):
            simulate_tower(make_tower_system([(8, 1, 4)] * 3), 10, seed=1)

    @pytest.mark.parametrize("trials, shards", [(10, 2), (2, 5), (100, 3)])
    def test_stream_cap_counts_coordinates_times_nonempty_shards(self, monkeypatch, trials, shards):
        # 3 coordinates on min(trials, shards) shards; empty shards build no stream
        import avalanches.towers as towers_mod

        sys_ = make_tower_system([(8, 1, 4)] * 3)
        streams = 3 * min(trials, shards)
        built = []
        monkeypatch.setattr(towers_mod, "COORDINATE_CAP", streams)
        monkeypatch.setattr(towers_mod, "derive_stream", lambda *a: built.append(a) or 0)
        assert simulate_tower(sys_, trials, seed=1, shards=shards).trials == trials
        assert len(built) == streams

        def refuse(*args):
            raise AssertionError("a stream was built")

        monkeypatch.setattr(towers_mod, "COORDINATE_CAP", streams - 1)
        monkeypatch.setattr(towers_mod, "SplitMix64", refuse)
        monkeypatch.setattr(towers_mod, "derive_stream", refuse)
        with pytest.raises(ResourceLimitError, match=f"= {streams} streams exceed the cap of {streams - 1}"):
            simulate_tower(sys_, trials, seed=1, shards=shards)

    def test_more_shards_than_trials(self):
        # shards 0..2 hold one trial each and draw as they always did
        import avalanches.towers as towers_mod

        want = Counter()
        for i in range(3):
            streams = [SplitMix64(derive_stream(4, i, j)) for j in range(HET_TWO.N)]
            want.update(towers_mod._sample_block(HET_TWO, streams, 1).tolist())
        assert simulate_tower(HET_TWO, 3, seed=4, shards=7).histogram == dict(want)

    def test_block_boundary_invariance(self, monkeypatch):
        import avalanches.towers as towers_mod

        a = simulate_tower(TWO_COORD, 5000, seed=3)
        monkeypatch.setattr(towers_mod, "_BLOCK_DRAWS", 155)  # blocks of 77 trials
        b = simulate_tower(TWO_COORD, 5000, seed=3)
        assert a == b

    def test_threaded_shards_match_one_serial_block_per_shard(self, monkeypatch):
        # blocks of 77 trials split each of the three shards of about 1667
        import avalanches.towers as towers_mod

        trials, seed = 5000, 3
        want = np.zeros(HET_TWO.N + 1, dtype=np.int64)
        for i, n in enumerate(shard_sizes(trials, 3)):
            streams = [SplitMix64(derive_stream(seed, i, j)) for j in range(HET_TWO.N)]
            sizes = towers_mod._sample_block(HET_TWO, streams, n)
            want += np.bincount(sizes, minlength=HET_TWO.N + 1)
        monkeypatch.setattr(towers_mod, "_BLOCK_DRAWS", 2 * 77)
        res = simulate_tower(HET_TWO, trials, seed, shards=3)
        assert res.histogram == {a: int(c) for a, c in enumerate(want) if c}

    def test_close_to_exact_at_1e5(self):
        res = simulate_tower(TWO_COORD, 10**5, seed=3)
        assert abs(res.histogram.get(2, 0) / 10**5 - 3 / 64) <= 0.005
