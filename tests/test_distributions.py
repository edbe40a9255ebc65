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
    conditional_pmf,
    expectation_identity_check,
    limit_pmf,
    local_maxima,
    pmf_mean,
    powerlaw_slope,
    tail_log_ratio,
)
import avalanches.distributions as dist
from avalanches.distributions import _abel_numerators, _abel_term
from avalanches.errors import DomainError

# (N, p) grid covering the interior, p = 0, and the closed right boundary,
# including the sign-sensitive band 1/(N+1) < p < 1/N.
GRID_N = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200]


def grid_ps(n):
    ps = [F(0), F(1, 3 * n), F(1, 2 * n), F(2, 3 * n), F(1, n + 1), F(1, n)]
    if n >= 2:
        ps.append(F(2 * n + 1, 2 * n * (n + 1)))  # midpoint of (1/(N+1), 1/N)
    return sorted(set(ps))


def params_strategy():
    return st.integers(1, 25).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.fractions(min_value=0, max_value=1, max_denominator=97).map(
                lambda q: q / n
            ),
        )
    )


class TestAbelKernel:
    def test_zero_exponent_always_one(self):
        # boundary factors v-(b+1)u that are 0 or negative only appear to
        # the zeroth power, where they must be inert
        assert _abel_term(3, 3, 1, 3) == 4**2  # avalanche at p = 1/N: base -1
        assert _abel_term(2, 2, 1, 3) == 3  # conditional at p = 1/N: base 0
        assert _abel_term(4, 0, 0, 1) == 1  # p = 0: 0**0 in u^b

    def test_negative_exponent(self):
        # the b = 0 weight 1^(-1) stays the integer 1, never the float 1.0
        assert _abel_numerators([(2, 0)], 7) == [1]
        assert all(type(t) is int for t in _abel_numerators([(2, 5)], 11))
        assert all(type(t) is int for t in _abel_numerators([(2, 3), (1, 2)], 11))

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
        nums = _abel_numerators([(u, n)], v)
        assert len(nums) == n + 1
        assert all(t >= 0 for t in nums)
        assert sum(nums) == v**n

    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=4).flatmap(
            lambda ms: st.integers(max(sum(ms), 1), 10**4).flatmap(
                lambda v: st.tuples(
                    st.lists(
                        st.integers(0, v // max(sum(ms), 1)),
                        min_size=len(ms),
                        max_size=len(ms),
                    ).map(lambda us: list(zip(us, ms))),
                    st.just(v),
                )
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_grouped_numerators_sum_to_denominator(self, case):
        # the heterogeneous kernel is a law too: sum_b t_b == v**N whenever N*u_g <= v
        groups, v = case
        n = sum(m for _, m in groups)
        nums = _abel_numerators(groups, v)
        assert len(nums) == n + 1
        assert all(t >= 0 for t in nums)
        assert sum(nums) == v**n


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
        with pytest.raises(DomainError):
            AvalancheParams(3, 0.25)

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
        pm = Pmf(support=(3,), probs=(F(1),), exact=True, label="point")
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
        # the integer equation must see a closed form that is off by 1/10^40
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
        return [F(t, v**n) for t in _abel_numerators([(u, n)], v)]
    if law == "conditional":
        return [F(t, v ** (n - 1)) for t in _abel_numerators([(u, n - 1)], v)]
    head, den = v * (v - n * u), (v - (n - 1) * u) * v ** (n - 1)
    ts = _abel_numerators([(u, n - 1)], v)
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
    """The three laws reduce their terms by prime exponents at the small
    primes of v, not by gcd; the results must be Fraction's, bit for bit."""

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_matches_fraction_gcd(self, law):
        checked = 0
        for n, p in lowest_terms_cases():
            if law == "abelian" and n * p >= 1:
                continue
            got = LAWS[law](AvalancheParams(n, p)).probs
            want = reference_probs(law, n, p)
            assert [(x.numerator, x.denominator) for x in got] == [
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
        for x in LAWS[law](AvalancheParams(n, F(u, v))).probs:
            num, den = x.numerator, x.denominator
            assert den > 0 and math.gcd(num, den) == 1
            assert x == F(num, den) and hash(x) == hash(F(num, den))

    @staticmethod
    def miscount(monkeypatch, fault):
        true = dist._term_valuations
        monkeypatch.setattr(
            dist,
            "_term_valuations",
            lambda *args: [max(e + fault, 0) for e in true(*args)],
        )

    def test_undercounted_valuations_raise(self, monkeypatch):
        # one prime exponent too few leaves a common factor: the gcd check
        self.miscount(monkeypatch, -1)
        params = AvalancheParams(30, F(1, 2**10))
        for law in LAWS.values():
            with pytest.raises(DomainError, match="lowest terms"):
                law(params)
        with pytest.raises(DomainError, match="lowest terms"):
            avalanche_prob(params, 1)  # 2^30 divides t_1

    def test_overcounted_valuations_raise(self, monkeypatch):
        # one prime exponent too many no longer divides the term: the exact
        # division; every entry, since a truncated quotient may be coprime
        self.miscount(monkeypatch, 1)
        params = AvalancheParams(30, F(1, 2**10))
        for law in LAWS.values():
            with pytest.raises(DomainError, match="lowest terms"):
                law(params)
        for a in range(31):
            with pytest.raises(DomainError, match="lowest terms"):
                avalanche_prob(params, a)


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
        pmf = Pmf(support=(0, 1), probs=(0.5, 0.5), exact=False, label="uniform")
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
        pmf = Pmf(support=(0, 1), probs=(1.0, 0.0), exact=False, label="degenerate")
        with pytest.raises(DomainError):
            tail_log_ratio(pmf, 0)


class TestPowerlawSlope:
    def test_exact_power_law(self):
        weights = [a ** (-2.0) for a in range(1, 101)]
        z = math.fsum(weights)
        pmf = Pmf(
            support=tuple(range(1, 101)),
            probs=tuple(w / z for w in weights),
            exact=False,
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
        degenerate = Pmf(support=(1, 2), probs=(1.0, 0.0), exact=False, label="d")
        with pytest.raises(DomainError):
            powerlaw_slope(degenerate, 1, 2)


class TestLocalMaxima:
    def test_strictly_decreasing(self):
        pmf = Pmf(support=(0, 1, 2), probs=(0.5, 0.3, 0.2), exact=False, label="dec")
        assert local_maxima(pmf) == [0]

    def test_interior_peak(self):
        pmf = Pmf(support=(0, 1, 2), probs=(0.2, 0.5, 0.3), exact=False, label="peak")
        assert local_maxima(pmf) == [1]

    def test_single_point(self):
        pmf = Pmf(support=(4,), probs=(1.0,), exact=False, label="point")
        assert local_maxima(pmf) == [4]

    def test_near_critical_mode_fixture(self):
        # golden fixture from the scan itself: mass piles up at both ends
        pmf = avalanche_pmf(AvalancheParams(100, F(99, 10000)))
        assert local_maxima(pmf) == [0, 100]


class TestPmfValidation:
    def test_negative_prob(self):
        with pytest.raises(DomainError):
            Pmf(support=(0, 1), probs=(F(3, 2), F(-1, 2)), exact=True, label="bad")

    def test_exact_mass_must_be_one(self):
        with pytest.raises(DomainError):
            Pmf(support=(0, 1), probs=(F(1, 2), F(1, 3)), exact=True, label="bad")

    @pytest.mark.parametrize("shift", [F(1, 16), F(-1, 16)])
    def test_exact_mass_off_by_one_part_in_den(self, shift):
        # the mass check over the common denominator is still literal
        probs = list(avalanche_pmf(AvalancheParams(2, F(1, 4))).probs)  # over 16
        probs[1] += shift
        with pytest.raises(DomainError):
            Pmf(support=(0, 1, 2), probs=tuple(probs), exact=True, label="bad")
        pmf = avalanche_pmf(AvalancheParams(40, F(3, 127)))
        off = list(pmf.probs)
        off[-1] += F(1, 127**40)
        with pytest.raises(DomainError):
            Pmf(support=pmf.support, probs=tuple(off), exact=True, label="bad")

    def test_floating_mass_must_match_deficit(self):
        with pytest.raises(DomainError):
            Pmf(support=(0,), probs=(0.5,), exact=False, label="bad")

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            Pmf(support=(0, 1), probs=(1.0,), exact=False, label="bad")

    @pytest.mark.parametrize("probs,deficit", [((math.nan, 0.5), None), ((0.5, 0.5), math.nan)])
    def test_floating_mass_must_not_be_nan(self, probs, deficit):
        # a NaN fails every comparison, including the deficit tolerance
        with pytest.raises(DomainError, match="nan"):
            Pmf(support=(0, 1), probs=probs, exact=False, label="bad", deficit=deficit)

    def test_numerators_must_sum_to_the_denominator(self, monkeypatch):
        # the identity is asserted on the integers before any term is reduced
        true = dist._abel_numerators
        monkeypatch.setattr(dist, "_abel_numerators", lambda *args: [t + 1 for t in true(*args)])
        with pytest.raises(DomainError, match="do not sum"):
            avalanche_pmf(AvalancheParams(3, F(1, 5)))

    def test_prob_off_support(self):
        pmf = avalanche_pmf(AvalancheParams(2, F(1, 8)))
        assert pmf.prob(5) == 0

    def test_prob_off_support_keeps_type(self):
        exact = avalanche_pmf(AvalancheParams(2, F(1, 8)))
        assert type(exact.prob(-1)) is F and exact.prob(2) == exact.probs[2]
        floating = limit_pmf(LimitParams(0.5, 3))
        assert type(floating.prob(9)) is float and floating.prob(9) == 0.0

    def test_repeated_support_value_keeps_first_probability(self):
        pmf = Pmf(support=(0, 0), probs=(0.25, 0.75), exact=False, label="dup")
        assert pmf.prob(0) == 0.25
