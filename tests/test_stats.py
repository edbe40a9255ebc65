import math

import pytest
from scipy.special import gammaincc
from scipy.stats import chi2 as scipy_chi2

from avalanches.distributions import Pmf
from avalanches.errors import DegenerateInputError, DomainError
from avalanches.sampling import SimResult
from avalanches.stats import (
    chi_square_gof,
    empirical_pmf,
    regularized_gamma_q,
    tv_distance,
)
from avalanches.urn import UrnConfig, simulate_urns, urn_pmf_formula


def sim(histogram, **kw):
    return SimResult(
        histogram=histogram,
        trials=sum(histogram.values()),
        seed=kw.get("seed", 0),
        shards=1,
        model=kw.get("model", "urn"),
    )


def uniform_pmf(k):
    return Pmf(support=range(k), nums=(1,) * k, den=k, exact=True, label=f"uniform({k})")


class TestEmpiricalPmf:
    def test_basic(self):
        emp = empirical_pmf(sim({0: 3, 1: 1}))
        assert emp.support == (0, 1)
        assert emp.probs == (0.75, 0.25)

    def test_single_outcome(self):
        emp = empirical_pmf(sim({2: 10}))
        assert emp.probs == (0.0, 0.0, 1.0)

    def test_bound_extends_support(self):
        emp = empirical_pmf(sim({0: 4}), support_upper=3)
        assert emp.support == (0, 1, 2, 3)

    def test_mass_one(self):
        emp = empirical_pmf(sim({0: 3, 2: 5, 7: 2}))
        assert abs(math.fsum(emp.probs) - 1) <= 1e-15


class TestTvDistance:
    def test_identical(self):
        p = uniform_pmf(4)
        assert tv_distance(p, p) == 0.0

    def test_disjoint_point_masses(self):
        p = Pmf(support=(0,), nums=(1,), exact=True, label="p0")
        q = Pmf(support=(1,), nums=(1,), exact=True, label="p1")
        assert tv_distance(p, q) == 1.0

    def test_half(self):
        p = Pmf(support=(0, 1), nums=(1.0, 0.0), label="a")
        q = Pmf(support=(0, 1), nums=(0.5, 0.5), label="b")
        assert tv_distance(p, q) == 0.5

    def test_metric_spot_checks(self):
        a = uniform_pmf(3)
        b = Pmf(support=(0, 1, 2), nums=(0.5, 0.25, 0.25), label="b")
        c = Pmf(support=(1, 2, 3), nums=(0.2, 0.3, 0.5), label="c")
        assert tv_distance(a, b) == pytest.approx(tv_distance(b, a))
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-15
        assert tv_distance(b, b) == 0.0


class TestRegularizedGammaQ:
    def test_at_zero(self):
        assert regularized_gamma_q(2.5, 0.0) == 1.0

    def test_against_scipy(self):
        for s in (0.5, 1.0, 1.5, 2.0, 4.5, 10.0, 25.0, 50.5, 100.0):
            for x in (0.01, 0.5, 1.0, 2.0, 5.0, 9.9, 30.0, 75.0, 200.0):
                assert regularized_gamma_q(s, x) == pytest.approx(
                    float(gammaincc(s, x)), abs=1e-8
                )

    @pytest.mark.parametrize("s", [0.5, 1.0, 25.0])
    def test_at_infinity(self, s):
        # the series and the continued fraction would both give nan here
        assert regularized_gamma_q(s, math.inf) == 0.0 == float(gammaincc(s, math.inf))

    def test_validation(self):
        with pytest.raises(DomainError):
            regularized_gamma_q(0.0, 1.0)
        with pytest.raises(DomainError):
            regularized_gamma_q(1.0, -0.5)
        for s, x in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError):
                regularized_gamma_q(s, x)


class TestChiSquareGof:
    def test_exact_proportions_give_zero(self):
        report = chi_square_gof(sim({0: 25, 1: 25, 2: 25, 3: 25}), uniform_pmf(4))
        assert report.chi_square == pytest.approx(0.0, abs=1e-12)
        assert report.dof == 3
        assert report.approx_p_value == pytest.approx(1.0, abs=1e-12)
        assert report.tv_distance == pytest.approx(0.0, abs=1e-15)

    def test_dof_is_merged_bins_minus_one(self):
        report = chi_square_gof(sim({0: 60, 1: 20, 2: 20}), uniform_pmf(3))
        assert report.dof == 2

    def test_matches_scipy_tail(self):
        report = chi_square_gof(sim({0: 60, 1: 20, 2: 20}), uniform_pmf(3))
        want = float(scipy_chi2.sf(report.chi_square, report.dof))
        assert report.approx_p_value == pytest.approx(want, abs=1e-10)

    def test_bin_order_invariance(self):
        fwd = sim(dict([(0, 30), (1, 40), (2, 30)]))
        rev = sim(dict([(2, 30), (1, 40), (0, 30)]))
        assert chi_square_gof(fwd, uniform_pmf(3)) == chi_square_gof(rev, uniform_pmf(3))

    def test_small_expected_bins_merge_from_the_right(self):
        # expected: 100 * [0.9, 0.06, 0.03, 0.01]; the last three merge into one
        expected = Pmf(support=(0, 1, 2, 3), nums=(90, 6, 3, 1), den=100, exact=True, label="tail")
        report = chi_square_gof(sim({0: 90, 1: 6, 2: 3, 3: 1}), expected)
        assert report.dof == 1
        assert report.chi_square == pytest.approx(0.0, abs=1e-12)

    def test_short_left_end_folds_into_its_neighbor(self):
        # expected: 100 * [0.02, 0.48, 0.25, 0.25]; bins close from the right
        # at 25, 25 and 48, and the 2 left over joins the 48
        expected = Pmf(support=(0, 1, 2, 3), nums=(2, 48, 25, 25), den=100, exact=True, label="head")
        report = chi_square_gof(sim({0: 2, 1: 48, 2: 20, 3: 30}), expected)
        assert report.dof == 2
        assert report.chi_square == pytest.approx(0 + 25 / 25 + 25 / 25)

    def test_every_bin_short_is_degenerate(self):
        with pytest.raises(DegenerateInputError, match="one merged bin"):
            chi_square_gof(sim({0: 2, 1: 2}), uniform_pmf(2))

    def test_observed_outside_expected_support(self):
        report = chi_square_gof(sim({0: 50, 1: 30, 2: 15, 5: 5}), uniform_pmf(3))
        assert report.chi_square > 0
        assert report.trials == 100

    def test_far_observed_size_is_cheap(self):
        # the TV once ran over every size up to the largest key, here 10^23
        report = chi_square_gof(sim({0: 500, 10**23: 500}), uniform_pmf(2))
        assert report.tv_distance == 0.5

    def test_point_mass_is_degenerate(self):
        point = Pmf(support=(0,), nums=(1,), exact=True, label="point")
        with pytest.raises(DegenerateInputError):
            chi_square_gof(sim({0: 100}), point)

    def test_min_expected_must_be_positive(self):
        with pytest.raises(DomainError):
            chi_square_gof(sim({0: 50, 1: 50}), uniform_pmf(2), min_expected=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_min_expected_must_be_finite(self, bad):
        # no bin's expected count ever reaches nan or inf
        with pytest.raises(DomainError, match="min_expected must be finite"):
            chi_square_gof(sim({0: 50, 1: 50}), uniform_pmf(2), min_expected=bad)

    @pytest.mark.parametrize(
        "probs, min_expected",
        [
            ((1.0, 5e-324), 5e-324),  # one term is (259 + 190)^2 / 5e-321 = inf
            ((1.0, 5e-307, 5e-307), 1e-305),  # two finite terms whose sum overflows
        ],
    )
    def test_statistic_past_the_float_range_is_degenerate(self, probs, min_expected):
        tiny = Pmf(support=range(len(probs)), nums=probs, label="tiny")
        with pytest.raises(DegenerateInputError, match="not a finite float"):
            chi_square_gof(sim({0: 551, 1: 259, 2: 190}), tiny, min_expected=min_expected)

    def test_seeded_urn_run_fixture(self):
        cfg = UrnConfig(2, 4)
        res = simulate_urns(cfg, 10**5, seed=7)
        report = chi_square_gof(res, urn_pmf_formula(cfg))
        assert report.approx_p_value > 0.001
        assert report.trials == 10**5


class TestConvergenceFixture:
    def test_tv_decreases_with_trials(self):
        # recorded-seed fixture: TV to the exact law shrinks 1e3 -> 1e5 -> 1e6
        cfg = UrnConfig(2, 4)
        exact = urn_pmf_formula(cfg)
        tvs = [
            tv_distance(
                empirical_pmf(simulate_urns(cfg, t, seed=11), support_upper=2), exact
            )
            for t in (10**3, 10**5, 10**6)
        ]
        assert tvs[0] >= tvs[1] >= tvs[2]
