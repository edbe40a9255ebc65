import dis
import heapq
import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avalanches import combinatorics
from avalanches.combinatorics import (
    DEFAULT_TREE_ENUM_VERTICES,
    Composition,
    cascade_weight,
    compositions,
    forest_identity_lhs,
    forest_identity_ordered_sum,
    identity_lhs,
    identity_rhs,
    induction_step_check,
    multinomial,
    tree_census,
)
from avalanches.errors import DomainError, ResourceLimitError


def definitional_identity_sum(n):
    """The identity LHS straight from its definition; oracle for the fast walk."""
    return sum(multinomial(n, c) * cascade_weight(c) for c in compositions(n))


def definitional_induction_split(n, s):
    """The induction split straight from its definition, one prefix at a time:
    partial over the compositions of n with at most s parts, remainder over
    the s-part compositions c of m < n, with b = n - m + c_s."""
    partial = sum(multinomial(n, c) * cascade_weight(c) for c in compositions(n) if c.r <= s)
    remainder = 0
    for m in range(s, n):
        for c in compositions(m):
            if c.r == s:
                k_s = c.parts[-1]
                weight = multinomial(n, c.parts + (n - m,)) * k_s * cascade_weight(c)
                remainder += weight * (n - m + k_s) ** (n - m - 1)
    return partial, remainder


def heap_prufer_edges(seq):
    """Edge set of the labeled tree on {0..m-1} with Pruefer sequence seq
    (length m-2), by the smallest-leaf rule with a heap of leaves."""
    m = len(seq) + 2
    if not all(0 <= v < m for v in seq):
        raise ValueError(f"{seq} has an entry outside 0..{m - 1}")
    deg = [1] * m
    for v in seq:
        deg[v] += 1
    leaves = [v for v in range(m) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return frozenset(edges)


def level_sizes(m, edges):
    """Sizes of the breadth-first levels below vertex 0 of the graph on
    {0..m-1}; AssertionError if some vertex is not reached from 0."""
    adj = [[] for _ in range(m)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [True] + [False] * (m - 1)
    frontier, sizes = [0], []
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    nxt.append(v)
        if nxt:
            sizes.append(len(nxt))
        frontier = nxt
    if not all(seen):
        raise AssertionError(f"{sorted(edges)} does not reach every vertex of 0..{m - 1} from 0")
    return tuple(sizes)


def prufer_census(n):
    """Profile counts of all labeled trees on {0..n} rooted at 0, one per
    Pruefer sequence, decoded by heap_prufer_edges; the literal reference for
    the shape census."""
    return Counter(
        Composition(level_sizes(n + 1, heap_prufer_edges(seq)))
        for seq in itertools.product(range(n + 1), repeat=n - 1)
    )


class TestCompositions:
    def test_n1(self):
        assert [c.parts for c in compositions(1)] == [(1,)]

    def test_n3_exact_order(self):
        assert [c.parts for c in compositions(3)] == [(3,), (1, 2), (2, 1), (1, 1, 1)]

    def test_n20_count(self):
        assert sum(1 for _ in compositions(20)) == 2**19

    @pytest.mark.parametrize("n", range(1, 11))
    def test_distinct_and_complete(self, n):
        seen = set()
        for c in compositions(n):
            assert sum(c.parts) == n
            assert all(k >= 1 for k in c.parts)
            seen.add(c.parts)
        assert len(seen) == 2 ** (n - 1)

    def test_rerun_identical(self):
        assert list(compositions(6)) == list(compositions(6))

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            list(compositions(0))

    def test_composition_validation(self):
        with pytest.raises(DomainError):
            Composition(())
        with pytest.raises(DomainError):
            Composition((1, 0, 2))


class TestMultinomialAndCascade:
    @pytest.mark.parametrize(
        "n,parts,want", [(4, (2, 2), 6), (3, (1, 1, 1), 6), (5, (5,), 1), (3, (3, 0), 1)]
    )
    def test_values(self, n, parts, want):
        assert multinomial(n, parts) == want

    def test_accepts_composition(self):
        assert multinomial(3, Composition((1, 2))) == 3

    def test_sum_mismatch(self):
        with pytest.raises(DomainError):
            multinomial(4, (2, 1))

    def test_negative_part(self):
        with pytest.raises(DomainError):
            multinomial(1, (2, -1))

    @pytest.mark.parametrize(
        "parts,want", [((3,), 1), ((2, 1), 2), ((1, 2), 1), ((2, 3, 1), 2**3 * 3)]
    )
    def test_cascade(self, parts, want):
        assert cascade_weight(Composition(parts)) == want


class TestIdentity:
    # lhs values for n=2,3,4 verified by hand enumeration of the compositions
    @pytest.mark.parametrize("n,want", [(2, 3), (3, 16), (4, 125)])
    def test_lhs_hand_values(self, n, want):
        assert identity_lhs(n) == want

    @pytest.mark.parametrize("n,want", [(1, 1), (4, 125), (10, 2357947691)])
    def test_rhs(self, n, want):
        assert identity_rhs(n) == want

    @pytest.mark.parametrize("n", range(1, 10))
    def test_lhs_matches_definitional_sum(self, n):
        assert identity_lhs(n) == definitional_identity_sum(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_identity_holds(self, n):
        assert identity_lhs(n) == identity_rhs(n)

    # past the sizes a walk over all 2^(n-1) compositions could reach
    @pytest.mark.parametrize("n", range(19, 41))
    def test_identities_hold_at_large_n(self, n):
        assert identity_lhs(n) == identity_rhs(n)
        assert forest_identity_lhs(n) == identity_rhs(n)

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            identity_lhs(0)
        with pytest.raises(DomainError):
            identity_rhs(-1)
        with pytest.raises(DomainError):
            forest_identity_lhs(0)
        with pytest.raises(DomainError):
            forest_identity_ordered_sum(0)


class TestInductionStep:
    # (3,1): remainder C(3,1)*1*3^1 + C(3,2)*2*3^0 = 9 + 6 = 15 by hand
    def test_n3_s1(self):
        assert induction_step_check(3, 1) == (1, 15)

    # (3,2): partial 1 + 3 + 6 = 10; remainder over (1,1) is 6*1*1*2^0 = 6
    def test_n3_s2(self):
        assert induction_step_check(3, 2) == (10, 6)

    def test_s_equals_n_empty_remainder(self):
        partial, remainder = induction_step_check(5, 5)
        assert remainder == 0
        assert partial == 6**4 == 1296

    @pytest.mark.parametrize("n", range(1, 9))
    def test_split_sums_to_rhs(self, n):
        for s in range(1, n + 1):
            partial, remainder = induction_step_check(n, s)
            assert partial + remainder == identity_rhs(n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_definitional_split(self, n):
        for s in range(1, n + 1):
            assert induction_step_check(n, s) == definitional_induction_split(n, s)

    def test_s_out_of_range(self):
        with pytest.raises(DomainError):
            induction_step_check(3, 0)
        with pytest.raises(DomainError):
            induction_step_check(3, 4)


class TestForestIdentity:
    def test_n1(self):
        assert forest_identity_lhs(1) == 1

    def test_n2_hand_value(self):
        # layers: r=1 gives 2, r=2 gives 2/2! = 1
        assert forest_identity_lhs(2) == 3
        assert forest_identity_ordered_sum(2) == 4

    def test_n3_hand_value(self):
        # layers 9 + 12/2 + 6/6
        assert forest_identity_lhs(3) == 16

    @pytest.mark.parametrize("n", range(1, 11))
    def test_corrected_matches_rhs(self, n):
        assert forest_identity_lhs(n) == identity_rhs(n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ordered_sum_overcounts(self, n):
        assert forest_identity_ordered_sum(n) != identity_rhs(n)

    def test_layer_not_divisible_by_r_factorial_is_a_bug(self, monkeypatch):
        # the r = 2 layer of 3 is not a multiple of 2!
        monkeypatch.setattr(combinatorics, "_layer_sums", lambda *args: ([1, 3], {}))
        with pytest.raises(AssertionError, match="r=2"):
            forest_identity_lhs(2)


class TestPrufer:
    """heap_prufer_edges, the census's reference, maps the m^(m-2) sequences
    one to one onto the labeled trees on m vertices."""

    def test_star(self):
        assert heap_prufer_edges([0]) == frozenset({(0, 1), (0, 2)})

    def test_single_edge(self):
        assert heap_prufer_edges([]) == frozenset({(0, 1)})

    def test_three_vertices_three_trees(self):
        # Cayley count for 3 vertices: 3^1 distinct labeled trees
        assert len({heap_prufer_edges([v]) for v in range(3)}) == 3

    @pytest.mark.parametrize("m", range(2, 8))
    def test_matches_heap_decoder(self, m):
        # the labeled trees on m vertices found without Pruefer sequences: the
        # (m-1)-edge subsets of the complete graph that reach every vertex
        trees = set()
        for edges in itertools.combinations(itertools.combinations(range(m), 2), m - 1):
            try:
                level_sizes(m, edges)
            except AssertionError:
                continue
            trees.add(frozenset(edges))
        assert trees == {
            heap_prufer_edges(seq) for seq in itertools.product(range(m), repeat=m - 2)
        }

    @pytest.mark.parametrize("m", range(2, 8))
    def test_injective(self, m):
        decoded = {
            heap_prufer_edges(seq) for seq in itertools.product(range(m), repeat=m - 2)
        }
        assert len(decoded) == m ** (m - 2)

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            heap_prufer_edges([3])
        with pytest.raises(ValueError):  # list indexing alone would accept -1
            heap_prufer_edges([-1])

    @given(st.integers(2, 8).flatmap(lambda m: st.lists(st.integers(0, m - 1), min_size=m - 2, max_size=m - 2)))
    def test_decode_always_a_tree(self, seq):
        m = len(seq) + 2
        edges = heap_prufer_edges(seq)
        assert len(edges) == m - 1
        assert sum(level_sizes(m, edges)) == m - 1  # every vertex reached from 0


class TestLabeledTree:
    """level_sizes, the reference's walk over a labeled tree's edges."""

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(AssertionError):
            level_sizes(3, frozenset({(0, 1)}))

    def test_rejects_disconnected(self):
        # triangle plus an isolated vertex: right edge count, not a tree
        with pytest.raises(AssertionError):
            level_sizes(4, frozenset({(0, 1), (1, 2), (0, 2)}))

    def test_single_vertex_has_no_profile(self):
        assert level_sizes(1, frozenset()) == ()
        with pytest.raises(DomainError):
            Composition(level_sizes(1, frozenset()))


class TestTreeCensus:
    def test_n1(self):
        census = tree_census(1)
        assert census.total == 1
        assert {c.parts: v for c, v in census.profiles.items()} == {(1,): 1}

    def test_n2_hand_census(self):
        census = tree_census(2)
        assert census.total == 3
        assert {c.parts: v for c, v in census.profiles.items()} == {(2,): 1, (1, 1): 2}

    def test_n5_total(self):
        assert tree_census(5).total == 6**4

    @pytest.mark.parametrize("n", range(1, 13))
    def test_profiles_match_identity_terms(self, n):
        census = tree_census(n)
        assert census.total == identity_rhs(n)
        expected = {c: multinomial(n, c) * cascade_weight(c) for c in compositions(n)}
        assert census.profiles == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_prufer_census(self, n):
        assert tree_census(n).profiles == prufer_census(n)

    def test_cyclic_parents_raise(self, monkeypatch):
        # a faulty decoder: 1, 2 and 3 form a cycle, and none reaches the root 0
        cycle = frozenset({(1, 2), (2, 3), (1, 3)})
        monkeypatch.setitem(globals(), "heap_prufer_edges", lambda seq: cycle)
        with pytest.raises(AssertionError, match="does not reach"):
            prufer_census(3)

    def test_automorphism_count_not_dividing_n_factorial_raises(self, monkeypatch):
        # 7 is a prime above 5, so no |Aut| times 7 divides 5!
        shapes = combinatorics._rooted_shapes

        def inflated(m):
            levels, auts, ends = shapes(m)
            return levels, [7 * a for a in auts], ends

        monkeypatch.setattr(combinatorics, "_rooted_shapes", inflated)
        with pytest.raises(AssertionError, match="does not divide 5!"):
            tree_census(5)

    def test_shape_counts_are_the_rooted_tree_numbers(self):
        # OEIS A000081: rooted unlabeled trees on 1..15 vertices
        want = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973, 87811]
        _, _, ends = combinatorics._rooted_shapes(15)
        assert [ends[k] - ends[k - 1] for k in range(1, 16)] == want

    def test_shares_no_arithmetic_with_the_closed_forms(self):
        closed_forms = {
            "multinomial", "cascade_weight", "_layer_sums", "_cascade_step", "_forest_step",
            "identity_lhs", "identity_rhs", "comb", "factorial", "pow", "math",
        }
        codes = [
            tree_census.__code__,
            combinatorics._rooted_shapes.__code__,
        ]
        codes += [c for code in codes for c in code.co_consts if hasattr(c, "co_names")]
        for code in codes:
            assert not closed_forms & set(code.co_names), code.co_name
            for ins in dis.get_instructions(code):
                assert ins.opname != "BINARY_POWER" and "**" not in ins.argrepr, code.co_name

    def test_cap(self, monkeypatch):
        with pytest.raises(ResourceLimitError):
            tree_census(DEFAULT_TREE_ENUM_VERTICES)  # one vertex over the cap
        monkeypatch.setattr(combinatorics, "DEFAULT_TREE_ENUM_VERTICES", 4)
        with pytest.raises(ResourceLimitError):
            tree_census(4)
        assert tree_census(3).total == 16

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            tree_census(0)
