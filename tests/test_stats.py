import math
from fractions import Fraction as F

import pytest
from scipy.special import gammaincc
from scipy.stats import chi2 as scipy_chi2

from avalanches.distributions import Pmf
from avalanches.errors import DegenerateInputError, DomainError
from avalanches.sampling import SimResult
from avalanches.stats import (
    chi_square_gof,
    empirical_pmf,
    mean_ci,
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
    return Pmf(
        support=tuple(range(k)),
        probs=(F(1, k),) * k,
        exact=True,
        label=f"uniform({k})",
    )


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
        p = Pmf(support=(0,), probs=(F(1),), exact=True, label="p0")
        q = Pmf(support=(1,), probs=(F(1),), exact=True, label="p1")
        assert tv_distance(p, q) == 1.0

    def test_half(self):
        p = Pmf(support=(0, 1), probs=(1.0, 0.0), exact=False, label="a")
        q = Pmf(support=(0, 1), probs=(0.5, 0.5), exact=False, label="b")
        assert tv_distance(p, q) == 0.5

    def test_metric_spot_checks(self):
        a = uniform_pmf(3)
        b = Pmf(support=(0, 1, 2), probs=(0.5, 0.25, 0.25), exact=False, label="b")
        c = Pmf(support=(1, 2, 3), probs=(0.2, 0.3, 0.5), exact=False, label="c")
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

    def test_validation(self):
        with pytest.raises(DomainError):
            regularized_gamma_q(0.0, 1.0)
        with pytest.raises(DomainError):
            regularized_gamma_q(1.0, -0.5)


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
        expected = Pmf(
            support=(0, 1, 2, 3),
            probs=(F(90, 100), F(6, 100), F(3, 100), F(1, 100)),
            exact=True,
            label="tail",
        )
        report = chi_square_gof(sim({0: 90, 1: 6, 2: 3, 3: 1}), expected)
        assert report.dof == 1
        assert report.chi_square == pytest.approx(0.0, abs=1e-12)

    def test_short_left_end_folds_into_its_neighbor(self):
        # expected: 100 * [0.02, 0.48, 0.25, 0.25]; bins close from the right
        # at 25, 25 and 48, and the 2 left over joins the 48
        expected = Pmf(
            support=(0, 1, 2, 3),
            probs=(F(2, 100), F(48, 100), F(25, 100), F(25, 100)),
            exact=True,
            label="head",
        )
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

    def test_point_mass_is_degenerate(self):
        point = Pmf(support=(0,), probs=(F(1),), exact=True, label="point")
        with pytest.raises(DegenerateInputError):
            chi_square_gof(sim({0: 100}), point)

    def test_min_expected_must_be_positive(self):
        with pytest.raises(DomainError):
            chi_square_gof(sim({0: 50, 1: 50}), uniform_pmf(2), min_expected=0.0)

    def test_seeded_urn_run_fixture(self):
        cfg = UrnConfig(2, 4)
        res = simulate_urns(cfg, 10**5, seed=7)
        report = chi_square_gof(res, urn_pmf_formula(cfg))
        assert report.approx_p_value > 0.001
        assert report.trials == 10**5


class TestMeanCi:
    def test_constant_outcome(self):
        mean, half = mean_ci(sim({3: 50}), z=1.96)
        assert mean == 3.0
        assert half == 0.0

    def test_even_split(self):
        mean, half = mean_ci(sim({0: 500, 1: 500}), z=2.0)
        assert mean == 0.5
        assert half == pytest.approx(2.0 * math.sqrt((250 / 999) / 1000))

    def test_quadrupling_trials_halves_halfwidth(self):
        _, h1 = mean_ci(sim({0: 500, 1: 500}), z=1.0)
        _, h2 = mean_ci(sim({0: 2000, 1: 2000}), z=1.0)
        assert h2 / h1 == pytest.approx(0.5, rel=1e-3)

    def test_needs_two_trials(self):
        with pytest.raises(DomainError):
            mean_ci(sim({0: 1}), z=1.0)


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
