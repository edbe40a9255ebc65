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
    LabeledTree,
    cascade_weight,
    compositions,
    forest_identity_lhs,
    forest_identity_ordered_sum,
    identity_lhs,
    identity_rhs,
    induction_step_check,
    multinomial,
    prufer_decode,
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
    """Edge set of a Pruefer sequence by the smallest-leaf rule with a heap of
    leaves; reference for the linear-time decoder."""
    m = len(seq) + 2
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


def prufer_census(n):
    """Profile counts of all labeled trees on {0..n}, decoded from every Pruefer
    sequence into parent pointers; the literal reference for the shape census.

    Each tree is rooted at n, the decoder's root: depths are assigned in
    reverse removal order, where every parent comes before its child.
    Swapping the labels 0 and n keeps the level profile and moves the root
    from n to 0, so each profile has the same count as under root 0.  A vertex
    reached before its parent has a depth is a decoder fault.
    """
    m = n + 1
    counts = Counter()
    for seq in itertools.product(range(m), repeat=m - 2):
        order, parent = combinatorics._prufer_parents(seq)
        depth = [-1] * m
        depth[n] = 0
        sizes = [0] * m
        for v in reversed(order):
            d = depth[parent[v]]
            if d < 0:
                raise AssertionError(f"vertex {v} reached before its parent in {seq}")
            depth[v] = d + 1
            sizes[d] += 1
        counts[Composition(tuple(k for k in sizes if k))] += 1
    return counts


def tree_object_census(n):
    """Profile counts from one validated LabeledTree per sequence, rooted at 0;
    a second reference, through tree objects."""
    return Counter(
        prufer_decode(seq).level_profile()
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
    def test_star(self):
        tree = prufer_decode([0])
        assert tree.vertex_count == 3
        assert tree.edges == frozenset({(0, 1), (0, 2)})

    def test_single_edge(self):
        tree = prufer_decode([])
        assert tree.vertex_count == 2
        assert tree.edges == frozenset({(0, 1)})

    def test_three_vertices_three_trees(self):
        # Cayley count for 3 vertices: 3^1 distinct labeled trees
        trees = {prufer_decode([v]).edges for v in range(3)}
        assert len(trees) == 3

    @pytest.mark.parametrize("m", range(2, 8))
    def test_matches_heap_decoder(self, m):
        for seq in itertools.product(range(m), repeat=m - 2):
            assert prufer_decode(seq).edges == heap_prufer_edges(seq)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_injective(self, m):
        decoded = {
            prufer_decode(seq).edges for seq in itertools.product(range(m), repeat=m - 2)
        }
        assert len(decoded) == m ** (m - 2)

    def test_vertex_out_of_range(self):
        with pytest.raises(DomainError):
            prufer_decode([3])

    @given(st.integers(2, 8).flatmap(lambda m: st.lists(st.integers(0, m - 1), min_size=m - 2, max_size=m - 2)))
    def test_decode_always_a_tree(self, seq):
        tree = prufer_decode(seq)  # LabeledTree validates edge count + connectivity
        assert len(tree.edges) == tree.vertex_count - 1


class TestLabeledTree:
    def test_rejects_wrong_edge_count(self):
        with pytest.raises(DomainError):
            LabeledTree(vertex_count=3, edges=frozenset({(0, 1)}))

    def test_rejects_disconnected(self):
        # triangle plus an isolated vertex: right edge count, not a tree
        with pytest.raises(DomainError):
            LabeledTree(vertex_count=4, edges=frozenset({(0, 1), (1, 2), (0, 2)}))

    def test_single_vertex_has_no_profile(self):
        tree = LabeledTree(vertex_count=1, edges=frozenset())
        with pytest.raises(DomainError):
            tree.level_profile()


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
    def test_matches_tree_object_census(self, n):
        assert tree_census(n).profiles == tree_object_census(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_prufer_census(self, n):
        assert tree_census(n).profiles == prufer_census(n)

    def test_cyclic_parents_raise(self, monkeypatch):
        # vertices 0 and 1 hang from each other, so neither reaches the root 2
        monkeypatch.setattr(combinatorics, "_prufer_parents", lambda seq: ([0, 1], [1, 0, -1]))
        with pytest.raises(AssertionError, match="before its parent"):
            prufer_census(2)

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
            combinatorics._prufer_parents.__code__,
        ]
        codes += [c for code in codes for c in code.co_consts if hasattr(c, "co_names")]
        for code in codes:
            assert not closed_forms & set(code.co_names), code.co_name
            for ins in dis.get_instructions(code):
                assert ins.opname != "BINARY_POWER" and "**" not in ins.argrepr, code.co_name

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            tree_census(DEFAULT_TREE_ENUM_VERTICES)  # one vertex over the default cap
        with pytest.raises(ResourceLimitError):
            tree_census(3, max_vertices=3)
        assert tree_census(3, max_vertices=4).total == 16

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            tree_census(0)
