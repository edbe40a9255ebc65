import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalanches.distributions import (
    AvalancheParams,
    LimitParams,
    Pmf,
    abelian_mean_closed_form,
    abelian_pmf,
    avalanche_pmf,
    avalanche_prob,
    common_denominator,
    conditional_pmf,
    expectation_identity_check,
    limit_pmf,
    pmf_mean,
    powerlaw_slope,
    tail_log_ratio,
)
import avalanches.distributions as dist
import avalanches.serialize as ser
import avalanches.towers as towers
from avalanches.distributions import _abel_row, _abel_term
from avalanches.errors import DomainError

# (N, p) grid covering the interior, p = 0, and the closed right boundary,
# including the sign-sensitive band 1/(N+1) < p < 1/N.
GRID_N = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200]


def grid_ps(n):
    ps = [F(0), F(1, 3 * n), F(1, 2 * n), F(2, 3 * n), F(1, n + 1), F(1, n)]
    if n >= 2:
        ps.append(F(2 * n + 1, 2 * n * (n + 1)))  # midpoint of (1/(N+1), 1/N)
    return sorted(set(ps))


@pytest.fixture
def fresh_kernels():
    """Empty kernel memos before and after the test: a test that patches
    what builds a kernel must see the patched code run, and must leave no
    row or lowest terms it built behind."""
    clear_kernels()
    yield
    clear_kernels()


MEMOS = (dist._abel_row, dist._lowest_terms)


def clear_kernels():
    for memo in MEMOS:
        memo.cache_clear()


def fraction_pmf(support, probs, label):
    """An exact Pmf from Fractions, put over the lcm of their denominators."""
    nums, den = common_denominator((p.numerator, p.denominator) for p in probs)
    return Pmf(support=support, nums=nums, den=den, exact=True, label=label)


def params_strategy():
    return st.integers(1, 25).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.fractions(min_value=0, max_value=1, max_denominator=97).map(
                lambda q: q / n
            ),
        )
    )


def general_numerators_by_product(us, v):
    """Literal [t^b] reference for towers._general_numerators: the product
    prod_i (v - (b+1)u_i + t u_i) multiplied out afresh for every b."""
    nums = []
    for b in range(len(us) + 1):
        coeffs = [1]
        for u in us:
            c = v - (b + 1) * u
            coeffs = [c * x + u * y for x, y in zip(coeffs + [0], [0] + coeffs)]
        nums.append(((b + 1) ** (b - 1) if b else 1) * coeffs[b])
    return nums


class TestAbelKernel:
    def test_zero_exponent_always_one(self):
        # boundary factors v-(b+1)u that are 0 or negative only appear to
        # the zeroth power, where they must be inert
        assert _abel_term(3, 3, 1, 3) == 4**2  # avalanche at p = 1/N: base -1
        assert _abel_term(2, 2, 1, 3) == 3  # conditional at p = 1/N: base 0
        assert _abel_term(4, 0, 0, 1) == 1  # p = 0: 0**0 in u^b

    def test_negative_exponent(self):
        # the b = 0 weight 1^(-1) stays the integer 1, never the float 1.0
        assert towers._general_numerators([], 7) == [1]
        assert all(type(_abel_term(5, b, 2, 11)) is int for b in range(6))
        assert all(type(t) is int for t in towers._general_numerators([2, 2, 2, 1, 1], 11))

    @pytest.mark.parametrize("n,u,v", [(0, 1, 3), (1, 1, 2), (6, 1, 7), (9, 3, 40), (12, 0, 5)])
    def test_one_group_is_the_single_mass_kernel(self, n, u, v):
        # one repeated mass gives the closed-form single-mass term
        single = [_abel_term(n, b, u, v) for b in range(n + 1)]
        assert towers._general_numerators([u] * n, v) == single

    @pytest.mark.parametrize(
        "n,u,v",
        [(0, 0, 1), (4, 0, 1), (3, 1, 3), (3, 1, 4), (5, 1, 5), (6, 3, 19), (9, 7, 64), (8, 2, 9)],
    )
    def test_row_is_the_terms(self, n, u, v):
        # u = 0 (0**0 in u^b), p = 1/N for the avalanche (base -1 at b = n) and
        # the conditional (base 0), u > 1, and u/v not in lowest terms
        assert _abel_row(n, u, v) == tuple(_abel_term(n, b, u, v) for b in range(n + 1))

    @given(
        st.integers(0, 40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(1, 10**6).flatmap(
                    lambda v: st.tuples(st.integers(0, v // max(n, 1)), st.just(v))
                ),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_numerators_sum_to_denominator(self, case):
        # Abel's identity on the integers: sum_b t_b == v**n for 0 <= n*u <= v
        n, (u, v) = case
        nums = [_abel_term(n, b, u, v) for b in range(n + 1)]
        assert _abel_row(n, u, v) == tuple(nums)
        assert len(nums) == n + 1
        assert all(t >= 0 for t in nums)
        assert sum(nums) == v**n

    @given(
        st.integers(1, 20).flatmap(
            lambda n: st.integers(1, 10**4).flatmap(
                lambda k: st.tuples(
                    st.lists(
                        st.one_of(st.sampled_from([0, 1, k]), st.integers(0, k)),
                        min_size=n,
                        max_size=n,
                    ),
                    st.just(n * k),
                )
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_grouped_numerators_sum_to_denominator(self, case):
        # up to 20 masses u_i/v <= 1/N, with repeats, zeros and the closed
        # boundary 1/N: the kernel is the literal [t^b] product, and a law
        us, v = case
        nums = towers._general_numerators(us, v)
        assert nums == general_numerators_by_product(us, v)
        assert all(t >= 0 for t in nums)
        assert sum(nums) == v ** len(us)


class TestAvalanchePmf:
    @pytest.mark.parametrize("q", [F(0), F(1, 3), F(1, 2), F(1)])
    def test_n1_direct_substitution(self, q):
        pmf = avalanche_pmf(AvalancheParams(1, q))
        assert pmf.support == (0, 1)
        assert pmf.probs == (1 - q, q)

    def test_n2_hand_values(self):
        pmf = avalanche_pmf(AvalancheParams(2, F(1, 4)))
        assert pmf.probs == (F(9, 16), F(4, 16), F(3, 16))

    def test_n50_normalizes_exactly(self):
        pmf = avalanche_pmf(AvalancheParams(50, F(1, 100)))
        assert sum(pmf.probs) == 1

    def test_grid_normalization_and_positivity(self):
        for n in GRID_N:
            for p in grid_ps(n):
                pmf = avalanche_pmf(AvalancheParams(n, p))
                assert sum(pmf.probs) == 1
                assert all(q >= 0 for q in pmf.probs)

    def test_closed_boundary_accepted(self):
        pmf = avalanche_pmf(AvalancheParams(7, F(1, 7)))
        assert sum(pmf.probs) == 1

    def test_above_boundary_rejected(self):
        with pytest.raises(DomainError):
            AvalancheParams(4, F(3, 10))

    def test_negative_p_rejected(self):
        with pytest.raises(DomainError):
            AvalancheParams(3, F(-1, 10))

    def test_float_p_rejected(self):
        with pytest.raises(DomainError, match="^exact models need a rational p, not a float$"):
            AvalancheParams(3, 0.25)

    def test_bounds_checked_at_their_edges(self):
        # the check is on the integer pair of p; these sit on either side of
        # 0 and 1/N
        assert AvalancheParams(7, F(1, 7)).p == F(1, 7)
        assert AvalancheParams(7, 0).p == 0
        over = F(1, 7) + F(1, 10**30)
        with pytest.raises(DomainError) as err:
            AvalancheParams(7, over)
        assert str(err.value) == f"p must satisfy 0 <= p <= 1/N, got p={over}, N=7"
        with pytest.raises(DomainError) as err:
            AvalancheParams(7, F(-1, 7))
        assert str(err.value) == "p must satisfy 0 <= p <= 1/N, got p=-1/7, N=7"

    def test_as_exact_keeps_a_fraction_and_converts_the_rest(self):
        p = F(3, 11)
        assert dist._as_exact(p) is p
        assert AvalancheParams(3, p).p is p
        for q in (3, "3/11", F(6, 22)):
            assert type(dist._as_exact(q)) is F and dist._as_exact(q) == F(q)
        with pytest.raises(DomainError, match="not a float"):
            dist._as_exact(0.25)

    def test_single_entry_matches_pmf(self):
        params = AvalancheParams(6, F(1, 9))
        pmf = avalanche_pmf(params)
        assert [avalanche_prob(params, a) for a in pmf.support] == list(pmf.probs)
        with pytest.raises(DomainError):
            avalanche_prob(params, 7)

    @given(params_strategy())
    @settings(max_examples=60, deadline=None)
    def test_property_mass_one(self, np_pair):
        n, p = np_pair
        pmf = avalanche_pmf(AvalancheParams(n, p))
        assert sum(pmf.probs) == 1
        assert all(q >= 0 for q in pmf.probs)


class TestAbelianPmf:
    @pytest.mark.parametrize("p", [F(0), F(1, 5), F(1, 2)])
    def test_n1_point_mass(self, p):
        assert abelian_pmf(AvalancheParams(1, p)).probs == (F(1),)

    def test_n2_hand_values(self):
        pmf = abelian_pmf(AvalancheParams(2, F(1, 4)))
        assert pmf.support == (1, 2)
        assert pmf.probs == (F(2, 3), F(1, 3))

    def test_mean_matches_closed_form(self):
        params = AvalancheParams(2, F(1, 4))
        assert pmf_mean(abelian_pmf(params)) == F(4, 3)
        assert abelian_mean_closed_form(params) == F(4, 3)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            abelian_pmf(AvalancheParams(5, F(1, 5)))

    def test_grid_normalization_and_mean(self):
        for n in GRID_N:
            for p in grid_ps(n):
                if n * p >= 1:
                    continue
                params = AvalancheParams(n, p)
                pmf = abelian_pmf(params)
                assert sum(pmf.probs) == 1
                assert pmf_mean(pmf) == abelian_mean_closed_form(params)

    @pytest.mark.parametrize(
        "n,p",
        [
            (n, p)
            for n in (1, 2, 7, 40)
            for p in (F(0), F(1, 2 * n), F(1, n) - F(1, 10**9 * n))
        ],
    )
    def test_is_reweighted_conditional_law(self, n, p):
        # p_k = (1-Np) / ((1-kp)(1-(N-1)p)) P_cond(k), term by term
        params = AvalancheParams(n, p)
        abel, cond = abelian_pmf(params), conditional_pmf(params)
        assert abel.support == cond.support == tuple(range(1, n + 1))
        for k, x, c in zip(abel.support, abel.probs, cond.probs):
            assert x == (1 - n * p) / ((1 - k * p) * (1 - (n - 1) * p)) * c


class TestConditionalPmf:
    @pytest.mark.parametrize("q", [F(0), F(1, 4), F(2, 5)])
    def test_n2_direct_substitution(self, q):
        pmf = conditional_pmf(AvalancheParams(2, q))
        assert pmf.probs == (1 - q, q)

    def test_n3_hand_values(self):
        pmf = conditional_pmf(AvalancheParams(3, F(1, 5)))
        assert pmf.probs == (F(16, 25), F(6, 25), F(3, 25))

    def test_n1(self):
        assert conditional_pmf(AvalancheParams(1, F(1, 2))).probs == (F(1),)

    def test_grid_normalization(self):
        for n in GRID_N:
            for p in grid_ps(n):
                pmf = conditional_pmf(AvalancheParams(n, p))
                assert sum(pmf.probs) == 1
                assert all(q >= 0 for q in pmf.probs)

    @pytest.mark.parametrize("n,p", [(2, F(1, 3)), (5, F(1, 7)), (9, F(1, 10))])
    def test_is_shifted_avalanche_law(self, n, p):
        # substituting a = b + 1 turns the formula into the (n-1)-coordinate law
        cond = conditional_pmf(AvalancheParams(n, p))
        if n == 1:
            return
        aval = avalanche_pmf(AvalancheParams(n - 1, p))
        assert cond.probs == aval.probs


class TestMeansAndExpectationIdentity:
    def test_point_mass_mean(self):
        pm = Pmf(support=(3,), nums=(1,), exact=True, label="point")
        assert pmf_mean(pm) == 3

    @pytest.mark.parametrize("q", [F(0), F(1, 3), F(1)])
    def test_avalanche_n1_mean(self, q):
        assert pmf_mean(avalanche_pmf(AvalancheParams(1, q))) == q

    @pytest.mark.parametrize(
        "n,p,want",
        [(1, F(0), F(1)), (2, F(1, 4), F(4, 3)), (100, F(1, 200), F(200, 101))],
    )
    def test_closed_form_values(self, n, p, want):
        assert abelian_mean_closed_form(AvalancheParams(n, p)) == want

    @pytest.mark.parametrize(
        "n,p", [(2, F(1, 4)), (1, F(0)), (30, F(1, 60)), (200, F(1, 300))]
    )
    def test_expectation_identity(self, n, p):
        assert expectation_identity_check(AvalancheParams(n, p))

    def test_expectation_identity_is_literal(self, monkeypatch):
        # the Fraction comparison must see a closed form that is off by 1/10^40
        import avalanches.distributions as dist

        params = AvalancheParams(30, F(1, 60))
        exact = abelian_mean_closed_form(params)
        monkeypatch.setattr(dist, "abelian_mean_closed_form", lambda _: exact + F(1, 10**40))
        assert not expectation_identity_check(params)

    def test_expectation_identity_grid(self):
        checked = 0
        for n in GRID_N:
            for p in grid_ps(n):
                if n * p >= 1:
                    continue
                assert expectation_identity_check(AvalancheParams(n, p))
                checked += 1
        assert checked >= 50


# p = u/v beyond the grid: composite, prime and prime-power v, u > 1, and a
# v of 31 digits, each tried at every N with N*u < v.
EXTRA_UV = [
    (1, 360), (7, 360), (1, 30030), (11, 30030), (1, 7919), (5, 7919), (1, 10007),
    (1, 2**12), (3, 2**12), (1, 3**8), (2, 7**4), (13, 6**7), (1, 10**30), (3, 10**30),
    (10**29 - 1, 10**30),
]
EXTRA_N = [1, 2, 3, 4, 5, 8, 13, 34, 55, 144]


def reference_probs(law, n, p):
    """Each law's terms over its unreduced denominator, reduced by Fraction's
    gcd: the abelian law in its original form, over (v-(N-1)u) v^(N-1)."""
    u, v = p.numerator, p.denominator
    if law == "avalanche":
        return [F(_abel_term(n, b, u, v), v**n) for b in range(n + 1)]
    if law == "conditional":
        return [F(_abel_term(n - 1, b, u, v), v ** (n - 1)) for b in range(n)]
    head, den = v * (v - n * u), (v - (n - 1) * u) * v ** (n - 1)
    ts = [_abel_term(n - 1, b, u, v) for b in range(n)]
    return [F(head * t // (v - k * u), den) for k, t in enumerate(ts, 1)]


def lowest_terms_cases():
    for n in GRID_N:
        for p in grid_ps(n):
            yield n, p
    for n in EXTRA_N:
        for u, v in EXTRA_UV:
            if n * u < v:
                yield n, F(u, v)


LAWS = {"avalanche": avalanche_pmf, "abelian": abelian_pmf, "conditional": conditional_pmf}


class TestLowestTerms:
    """The kernel laws reduce their terms, when written, by prime exponents
    at the small primes of v, not by gcd, and the abelian law reduces the
    conditional row the same way and then takes two small gcds a term; the
    results must be Fraction's, bit for bit."""

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_matches_fraction_gcd(self, law):
        checked = 0
        for n, p in lowest_terms_cases():
            if law == "abelian" and n * p >= 1:
                continue
            got = LAWS[law](AvalancheParams(n, p)).lowest_terms()
            want = reference_probs(law, n, p)
            assert got == [
                (x.numerator, x.denominator) for x in want
            ], (law, n, p)
            checked += 1
        assert checked > 200

    def test_single_entry_matches_fraction_gcd(self):
        for n, p in lowest_terms_cases():
            want = reference_probs("avalanche", n, p)
            for a in sorted({0, 1, n // 2, n - 1, n}):
                got = avalanche_prob(AvalancheParams(n, p), a)
                assert (got.numerator, got.denominator) == (
                    want[a].numerator,
                    want[a].denominator,
                ), (n, p, a)

    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(n + 1, 10**6).flatmap(
                    lambda v: st.tuples(st.integers(0, (v - 1) // n), st.just(v))
                ),
            )
        ),
        st.sampled_from(sorted(LAWS)),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_lowest_terms(self, case, law):
        n, (u, v) = case
        pmf = LAWS[law](AvalancheParams(n, F(u, v)))
        for x, (num, den) in zip(pmf.probs, pmf.lowest_terms()):
            assert den > 0 and math.gcd(num, den) == 1
            assert x == F(num, den)

    @staticmethod
    def miscount(monkeypatch, fault):
        true = dist._term_valuations
        monkeypatch.setattr(
            dist,
            "_term_valuations",
            lambda *args: [max(e + fault, 0) for e in true(*args)],
        )

    @pytest.mark.usefixtures("fresh_kernels")
    def test_undercounted_valuations_raise(self, monkeypatch):
        # one prime exponent too few leaves a common factor: the gcd check
        self.miscount(monkeypatch, -1)
        params = AvalancheParams(30, F(1, 2**10))
        for law in LAWS.values():
            pmf = law(params)  # reduced only when written
            with pytest.raises(DomainError, match="lowest terms"):
                pmf.lowest_terms()

    @pytest.mark.usefixtures("fresh_kernels")
    def test_overcounted_valuations_raise(self, monkeypatch):
        # one prime exponent too many no longer divides the term: the exact
        # division; every entry, since a truncated quotient may be coprime
        self.miscount(monkeypatch, 1)
        params = AvalancheParams(30, F(1, 2**10))
        for law in LAWS.values():
            pmf = law(params)  # reduced only when written
            with pytest.raises(DomainError, match="lowest terms"):
                pmf.lowest_terms()


def written(pmf):
    """The bytes the CLI writes for a law, as JSON and as CSV."""
    return ser.pmf_to_json(pmf), ser.pmf_to_csv(pmf)


@pytest.mark.usefixtures("fresh_kernels")
class TestKernelMemo:
    """Each kernel row, and its lowest terms, is built once per (n, u, v)
    (the memos distributions._abel_row and distributions._lowest_terms):
    avalanche(N-1, p), conditional(N, p) and abelian(N, p) share K(N-1).
    What a law writes must not depend on what was computed before it."""

    # p with a composite denominator (600 = 2^3 3 5^2, 3600), a prime one,
    # and u > 1
    PS = [F(1, 600), F(7, 3600), F(2, 4093)]

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize(
        "before,after",
        [
            ((avalanche_pmf, -1), conditional_pmf),
            ((abelian_pmf, 0), conditional_pmf),
            ((conditional_pmf, 0), abelian_pmf),
            ((avalanche_pmf, -1), abelian_pmf),
        ],
    )
    @pytest.mark.parametrize("n", [2, 40, 250])
    def test_bytes_alone_and_after_a_sharing_law(self, n, p, before, after):
        params = AvalancheParams(n, p)
        alone = written(after(params))
        clear_kernels()
        law, shift = before
        written(law(AvalancheParams(n + shift, p)))
        hits = [memo.cache_info().hits for memo in MEMOS]
        assert written(after(params)) == alone
        assert [memo.cache_info().hits for memo in MEMOS] == [h + 1 for h in hits]

    @pytest.mark.parametrize("p", PS)
    def test_callers_cannot_change_a_later_law(self, p):
        # the laws at (40, p) read K(39) and K(40), the memo's two kernels
        cases = [(law, AvalancheParams(40, p)) for law in LAWS.values()]
        cases.append((avalanche_pmf, AvalancheParams(39, p)))
        want = [written(law(params)) for law, params in cases]
        for law, params in cases:
            pmf = law(params)
            terms = pmf.lowest_terms()
            terms[0] = (1, 1)
            terms.reverse()
            with pytest.raises(TypeError):
                pmf.nums[0] = 0
            with pytest.raises(TypeError):
                pmf.lowest_terms()[0][0] = 0
        assert [written(law(params)) for law, params in cases] == want

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_evicted_kernel_writes_the_same_bytes(self, law, p):
        params = AvalancheParams(40, p)
        pmf = LAWS[law](params)
        want = written(pmf)
        for n in (10, 11, 12):  # three other kernels push K(39) and K(40) out
            written(avalanche_pmf(AvalancheParams(n, p)))
        misses = [memo.cache_info().misses for memo in MEMOS]
        assert written(pmf) == want
        assert [memo.cache_info().misses for memo in MEMOS] == [m + 1 for m in misses]
        assert written(LAWS[law](params)) == want
        terms = pmf.lowest_terms()
        assert type(terms) is list and terms is not pmf.lowest_terms()
        assert terms == pmf.lowest_terms()

    @pytest.mark.parametrize("p", [F(1, 251), F(1, 600), F(2, 4093)])
    def test_exact_laws_sequence_builds_each_kernel_once(self, p):
        # the benchmark's exact_laws op: the three laws written, then the
        # mean identity and the avalanche law again; K(250) and K(249) are
        # each built once and reduced once
        params = AvalancheParams(250, p)
        for law in LAWS.values():
            ser.pmf_to_json(law(params))
        assert expectation_identity_check(params)
        avalanche_pmf(params)
        assert [memo.cache_info().misses for memo in MEMOS] == [2, 2]

    def test_memo_keeps_at_most_two_kernels(self):
        assert [memo.cache_info().maxsize for memo in MEMOS] == [2, 2]
        for n in (1, 2, 5, 30, 31, 250):
            for p in (F(1, 600), F(1, n + 1), F(2, 4093)):
                for law in LAWS.values():
                    law(AvalancheParams(n, p)).lowest_terms()
                    assert all(memo.cache_info().currsize <= 2 for memo in MEMOS)
        assert [memo.cache_info().currsize for memo in MEMOS] == [2, 2]

    def test_shared_kernel_named_by_its_guard(self, monkeypatch):
        # the reduction guard names the kernel the laws share, not a law
        TestLowestTerms.miscount(monkeypatch, -1)
        for law in (conditional_pmf, abelian_pmf):
            with pytest.raises(DomainError, match=r"Abel kernel \(n=29, p=1/1024\)"):
                law(AvalancheParams(30, F(1, 2**10))).lowest_terms()
        with pytest.raises(DomainError, match=r"Abel kernel \(n=29, p=1/1024\)"):
            avalanche_pmf(AvalancheParams(29, F(1, 2**10))).lowest_terms()


def direct_limit_prob(alpha: float, a: int) -> float:
    """Linear-space oracle for small a: e^(-alpha(a+1)) alpha^a (a+1)^(a-1) / a!."""
    return (
        math.exp(-alpha * (a + 1))
        * alpha**a
        * (a + 1) ** (a - 1)
        / math.factorial(a)
    )


class TestLimitPmf:
    def test_alpha_zero_point_mass(self):
        pmf = limit_pmf(LimitParams(0.0, 5))
        assert pmf.probs == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_alpha_one_first_entries(self):
        pmf = limit_pmf(LimitParams(1.0, 10))
        assert pmf.probs[0] == pytest.approx(math.exp(-1), rel=1e-12)
        assert pmf.probs[1] == pytest.approx(math.exp(-2), rel=1e-12)

    def test_subcritical_mass(self):
        pmf = limit_pmf(LimitParams(0.5, 200))
        assert abs(sum(pmf.probs) - 1) <= 1e-12
        assert pmf.deficit == pytest.approx(1 - math.fsum(pmf.probs), abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 0.9, 1.0])
    def test_matches_linear_space_oracle(self, alpha):
        pmf = limit_pmf(LimitParams(alpha, 30))
        for a in range(31):
            assert pmf.probs[a] == pytest.approx(direct_limit_prob(alpha, a), rel=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            LimitParams(1.2, 10)
        with pytest.raises(DomainError):
            LimitParams(-0.1, 10)
        with pytest.raises(DomainError):
            LimitParams(0.5, -1)


class TestTailLogRatio:
    def test_uniform_two_points(self):
        pmf = Pmf(support=(0, 1), nums=(0.5, 0.5), label="uniform")
        assert tail_log_ratio(pmf, 0) == 0.0

    @pytest.mark.parametrize("a", [100, 500])
    def test_critical_limit_matches_closed_expression(self, a):
        # independent route: the ratio collapses to 1 + a*log((a+1)/(a+2))
        pmf = limit_pmf(LimitParams(1.0, 600))
        want = 1 + a * math.log((a + 1) / (a + 2))
        assert tail_log_ratio(pmf, a) == pytest.approx(want, abs=1e-11)

    def test_scaled_ratio_increases_toward_three_halves(self):
        pmf = limit_pmf(LimitParams(1.0, 600))
        vals = [a * tail_log_ratio(pmf, a) for a in (10, 50, 100, 500)]
        assert vals == sorted(vals)
        assert all(v < 1.5 for v in vals)
        assert vals[-1] == pytest.approx(1.5, abs=0.01)

    def test_outside_support(self):
        pmf = limit_pmf(LimitParams(1.0, 10))
        with pytest.raises(DomainError):
            tail_log_ratio(pmf, 10)

    def test_zero_mass(self):
        pmf = Pmf(support=(0, 1), nums=(1.0, 0.0), label="degenerate")
        with pytest.raises(DomainError):
            tail_log_ratio(pmf, 0)


class TestPowerlawSlope:
    def test_exact_power_law(self):
        weights = [a ** (-2.0) for a in range(1, 101)]
        z = math.fsum(weights)
        pmf = Pmf(
            support=tuple(range(1, 101)),
            nums=[w / z for w in weights],
            label="a^-2",
        )
        assert powerlaw_slope(pmf, 1, 100) == pytest.approx(-2.0, abs=1e-6)

    def test_critical_window(self):
        pmf = limit_pmf(LimitParams(1.0, 600))
        assert abs(powerlaw_slope(pmf, 50, 500) - (-1.5)) <= 0.05

    def test_subcritical_decays_faster(self):
        pmf = limit_pmf(LimitParams(0.5, 200))
        assert powerlaw_slope(pmf, 10, 100) < -3

    def test_window_errors(self):
        pmf = limit_pmf(LimitParams(1.0, 20))
        with pytest.raises(DomainError):
            powerlaw_slope(pmf, 10, 10)
        with pytest.raises(DomainError):
            powerlaw_slope(pmf, 0, 10)
        with pytest.raises(DomainError):
            powerlaw_slope(pmf, 30, 40)
        degenerate = Pmf(support=(1, 2), nums=(1.0, 0.0), label="d")
        with pytest.raises(DomainError):
            powerlaw_slope(degenerate, 1, 2)

    def test_exact_term_that_underflows_is_refused(self):
        # P(247) is a positive Fraction whose float is 0.0, so log would fail
        law = avalanche_pmf(AvalancheParams(2000, F(1, 10**5)))
        assert law.nums[247] > 0 and law.floats[247] == 0.0 < law.floats[246]
        with pytest.raises(DomainError, match=r"^nonpositive float probability at a=247 "):
            powerlaw_slope(law, 1, 2000)


class TestPmfValidation:
    def test_negative_prob(self):
        with pytest.raises(DomainError):
            fraction_pmf((0, 1), (F(3, 2), F(-1, 2)), "bad")

    def test_exact_mass_must_be_one(self):
        with pytest.raises(DomainError):
            fraction_pmf((0, 1), (F(1, 2), F(1, 3)), "bad")

    @pytest.mark.parametrize("shift", [F(1, 16), F(-1, 16)])
    def test_exact_mass_off_by_one_part_in_den(self, shift):
        # the mass check over the common denominator is still literal
        probs = list(avalanche_pmf(AvalancheParams(2, F(1, 4))).probs)  # over 16
        probs[1] += shift
        with pytest.raises(DomainError):
            fraction_pmf((0, 1, 2), probs, "bad")
        pmf = avalanche_pmf(AvalancheParams(40, F(3, 127)))
        off = list(pmf.probs)
        off[-1] += F(1, 127**40)
        with pytest.raises(DomainError):
            fraction_pmf(pmf.support, off, "bad")

    def test_exact_mass_over_several_denominators(self):
        probs = (F(1, 4), F(4, 9), F(11, 36), F(0))
        fraction_pmf((0, 1, 2, 3), probs, "ok")
        law = abelian_pmf(AvalancheParams(30, F(1, 60)))
        assert len({p.denominator for p in law.probs}) == 19
        fraction_pmf(law.support, law.probs, "ok")

    def test_exact_mass_off_by_one_part_in_the_lcm(self):
        # denominators 2, 3 and 7; the lcm is 42
        with pytest.raises(DomainError, match=r"^exact pmf bad sums to 41/42, not 1$"):
            fraction_pmf((0, 1, 2), (F(1, 2), F(1, 3), F(1, 7)), "bad")

    @pytest.mark.parametrize("probs", [(F(-1, 4), F(3, 4), F(1, 2)), (-1, 1, 1)])
    def test_negative_numerator_refused(self, probs):
        # the mass is 1, so only the sign check can refuse it
        with pytest.raises(DomainError, match="negative probability in bad"):
            fraction_pmf((0, 1, 2), probs, "bad")

    @given(
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=40), max_size=12),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_mass_check_is_the_fraction_sum(self, probs, complete):
        if complete and sum(probs) <= 1:
            probs.append(1 - sum(probs))
        total = sum(probs, F(0))
        support = range(len(probs))
        if total == 1:
            pmf = fraction_pmf(support, probs, "h")
            assert pmf_mean(pmf) == sum((a * p for a, p in enumerate(probs)), F(0))
        else:
            with pytest.raises(DomainError, match=f"sums to {total}, not 1"):
                fraction_pmf(support, probs, "h")

    def test_floating_mass_must_match_deficit(self):
        with pytest.raises(DomainError):
            Pmf(support=(0,), nums=(0.5,), label="bad")

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            Pmf(support=(0, 1), nums=(1.0,), label="bad")

    @pytest.mark.parametrize("probs,deficit", [((math.nan, 0.5), None), ((0.5, 0.5), math.nan)])
    def test_floating_mass_must_not_be_nan(self, probs, deficit):
        # a NaN fails every comparison, including the deficit tolerance
        with pytest.raises(DomainError, match="nan"):
            Pmf(support=(0, 1), nums=probs, label="bad", deficit=deficit)

    @pytest.mark.usefixtures("fresh_kernels")
    def test_numerators_must_sum_to_the_denominator(self, monkeypatch):
        # the identity is the Pmf's one mass check, sum(nums) == den
        true_term = dist._abel_term
        monkeypatch.setattr(dist, "_abel_term", lambda *args: true_term(*args) + 1)
        for law in (avalanche_pmf, conditional_pmf):
            with pytest.raises(DomainError, match="not 1"):
                law(AvalancheParams(3, F(1, 5)))
        true_nums = towers._general_numerators
        monkeypatch.setattr(
            towers, "_general_numerators", lambda *args: [t + 1 for t in true_nums(*args)]
        )
        with pytest.raises(DomainError, match="not 1"):
            towers.avalanche_pmf_general([F(1, 5), F(1, 7), F(1, 7)])

    def test_equal_laws_compare_equal(self):
        # equal by their probabilities, whatever the common denominator
        law = avalanche_pmf(AvalancheParams(6, F(2, 15)))
        again = avalanche_pmf(AvalancheParams(6, F(2, 15)))
        assert law == again and hash(law) == hash(again)
        doubled = Pmf(
            support=law.support, exact=True, label=law.label,
            nums=[2 * x for x in law.nums], den=2 * law.den,
        )
        assert doubled == law and fraction_pmf(law.support, law.probs, law.label) == law
        assert law != fraction_pmf(law.support, law.probs, "other")
        assert not law.same_probs(avalanche_pmf(AvalancheParams(6, F(1, 15))))

    def test_exact_denominator_must_be_positive(self):
        # zero numerators over 0 would pass sum(nums) == den
        with pytest.raises(DomainError, match="denominator 0"):
            Pmf(support=(0,), exact=True, label="bad", nums=(0,), den=0)

    def test_float_view_covers_the_support_only(self):
        pmf = avalanche_pmf(AvalancheParams(2, F(1, 8)))
        assert list(pmf.floats) == [0, 1, 2]
        with pytest.raises(DomainError, match="must be in the support"):
            tail_log_ratio(pmf, 2)

    def test_float_view_is_each_term_correctly_rounded(self):
        # nums[i] / den rounds as float(Fraction) does, in or out of lowest terms
        for law in (avalanche_pmf, abelian_pmf, conditional_pmf):
            exact = law(AvalancheParams(61, F(2, 127)))
            assert list(exact.floats.values()) == [float(p) for p in exact.probs]
            assert all(type(x) is float for x in exact.floats.values())
        floating = limit_pmf(LimitParams(0.5, 3))
        assert tuple(floating.floats.values()) == floating.nums

    def test_repeated_support_value_refused(self):
        # a second probability for one value would be lost from the float view
        with pytest.raises(DomainError, match="repeated support value"):
            Pmf(support=(0, 0), nums=(0.25, 0.75), label="dup")
        with pytest.raises(DomainError, match="repeated support value"):
            Pmf(support=(0, 0, 1), nums=(2, 1, 1), den=4, exact=True, label="dup")
