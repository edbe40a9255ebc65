import decimal
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalanches.combinatorics import tree_census
from avalanches.distributions import AvalancheParams, LimitParams, avalanche_pmf, limit_pmf
from avalanches.errors import DomainError
from avalanches.sampling import SimResult
from avalanches.serialize import (
    census_to_csv,
    census_to_json_dict,
    decimal_str,
    dump_json,
    gof_to_json_dict,
    parse_rational,
    pmf_from_json_dict,
    pmf_to_csv,
    pmf_to_json_dict,
    rational_str,
    simresult_from_json_dict,
    simresult_to_csv,
    simresult_to_json_dict,
    unlimited_int_digits,
)
from avalanches.stats import GofReport


class TestRational:
    def test_roundtrip(self):
        for f in (F(9, 16), F(1), F(0), F(-3, 7)):
            assert parse_rational(rational_str(f)) == f

    def test_bare_integer(self):
        assert parse_rational("7") == F(7)

    def test_rejects_decimals(self):
        with pytest.raises(DomainError):
            parse_rational("0.25")

    def test_rejects_zero_denominator(self):
        with pytest.raises(DomainError):
            parse_rational("1/0")

    def test_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_rational("1/4/2")


class TestUnlimitedIntDigits:
    def test_lifts_the_limit_and_restores_it(self):
        big = 10**6000
        if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10 has no limit
            with unlimited_int_digits():
                assert len(str(big)) == 6001
            return
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            with unlimited_int_digits():
                assert len(str(big)) == 6001
                assert int(str(big)) == big
            assert sys.get_int_max_str_digits() == 5000
            with pytest.raises(ZeroDivisionError), unlimited_int_digits():
                1 / 0
            assert sys.get_int_max_str_digits() == 5000
            with pytest.raises(ValueError):
                str(big)
        finally:
            sys.set_int_max_str_digits(old)


class TestDecimalStr:
    def test_precision(self):
        assert decimal_str(F(1, 3), 5) == "0.33333"
        assert decimal_str(F(2, 1), 3) == "2"

    def test_default_precision_is_17_digits(self):
        assert decimal_str(F(1, 7)).startswith("0.142857142857142")

    def test_float_roundtrips(self):
        assert decimal_str(0.1) == repr(0.1)

    def test_precision_must_be_positive(self):
        with pytest.raises(DomainError):
            decimal_str(F(1, 3), 0)

    @staticmethod
    def decimal_division(x: F, sig_digits: int) -> str:
        with decimal.localcontext() as ctx:
            ctx.prec = sig_digits
            return str(decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator))

    @pytest.mark.parametrize(
        "x,sig_digits",
        [
            (F(1, 8), 2),  # 0.125: a tie, rounds to even 0.12
            (F(3, 8), 2),  # 0.375: a tie, rounds to even 0.38
            (F(5, 2), 1),  # 2.5 -> 2
            (F(7, 2), 1),  # 3.5 -> 4
            (F(-5, 2), 1),
            (F(10), 1),  # exact but one digit too long: 1E+1
            (F(995, 1000), 2),  # rounds up to 1.0
            (F(1, 4), 17),
            (F(2), 3),
            (F(0), 5),
            (F(125, 10**40), 2),  # a tie at 1.25E-38, rounds to even
            (F(375, 10**40), 2),
            (F(-25, 10**40), 1),
            (F(10**40 + 1, 2 * 10**40), 1),  # just above the tie 0.5
            (F(10**40 - 1, 2 * 10**40), 1),  # just below it
            (F(5, 2) + F(1, 7**60), 1),  # a tie in the leading digits only
            (F(5, 2) - F(1, 7**60), 1),
            (F(1, 2 * 7**30), 3),
            (F(10**41, 10**40), 1),  # 10 exactly: 1E+1
            (F(1, 2**200), 5),
            (F(3 * 10**60 + 10**60 // 4, 10**60), 5),  # 3.25 exactly
            (F(7 * 10**50, 10**50 * 3**100), 40),
            (F(1200), 3),  # exact, needs an exponent above 0: 1.20E+3
            (F(10**20), 17),
            (F(10**20), 25),
            (F(2, 7**3000), 5000),  # more digits than str(int) allows by default
        ],
    )
    def test_matches_decimal_division_at_ties(self, x, sig_digits):
        assert decimal_str(x, sig_digits) == self.decimal_division(x, sig_digits)

    @given(
        st.fractions(max_denominator=10**60)
        | st.builds(
            lambda c, e, twice: F(2 * c + 1, 2) * F(10) ** e if twice else F(c) * F(10) ** e,
            st.integers(0, 10**12),
            st.integers(-80, 40),
            st.booleans(),
        ),
        st.integers(1, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_decimal_division(self, x, sig_digits):
        assert decimal_str(x, sig_digits) == self.decimal_division(x, sig_digits)

    def test_ignores_the_callers_flags(self):
        # exactness is read from the flags of this one rounding only
        with decimal.localcontext() as ctx:
            ctx.flags[decimal.Inexact] = True
            assert decimal_str(F(1, 4), 17) == "0.25"

    def test_large_exact_law_rows(self):
        pmf = avalanche_pmf(AvalancheParams(300, F(1, 301)))
        for p in pmf.probs[::37]:
            assert decimal_str(p, 17) == self.decimal_division(p, 17)


class TestPmfSerialization:
    def test_exact_roundtrip(self):
        pmf = avalanche_pmf(AvalancheParams(3, F(1, 5)))
        d = pmf_to_json_dict(pmf)
        assert d["exact"] is True
        assert d["probs"][0] == rational_str(pmf.probs[0])
        assert pmf_from_json_dict(d) == pmf

    def test_floating_roundtrip_keeps_deficit(self):
        pmf = limit_pmf(LimitParams(0.5, 50))
        d = pmf_to_json_dict(pmf)
        assert "deficit" in d
        back = pmf_from_json_dict(d)
        assert back.probs == pmf.probs
        assert back.deficit == pmf.deficit

    def test_csv_shape(self):
        text = pmf_to_csv(avalanche_pmf(AvalancheParams(2, F(1, 4))), sig_digits=4)
        assert text == "a,prob\n0,0.5625\n1,0.25\n2,0.1875\n"
        assert "\r" not in text


class TestSimResultSerialization:
    def test_roundtrip_with_params(self):
        res = SimResult(
            histogram={0: 5, 2: 3},
            trials=8,
            seed=42,
            shards=2,
            model="tower",
            params={"coords": [[8, 1, 4], [8, 1, 4]]},
        )
        d = simresult_to_json_dict(res)
        assert d["coords"] == [[8, 1, 4], [8, 1, 4]]
        assert d["histogram"] == {"0": 5, "2": 3}
        assert simresult_from_json_dict(d) == res

    def test_csv(self):
        res = SimResult(histogram={1: 2, 0: 6}, trials=8, seed=0, shards=1, model="urn")
        assert simresult_to_csv(res) == "a,count\n0,6\n1,2\n"


class TestCensusSerialization:
    def test_json_matches_schema(self):
        d = census_to_json_dict(tree_census(3))
        assert d["n"] == 3
        assert d["total"] == "16"
        assert d["profiles"][0] == {"parts": [3], "count": "1"}
        # profiles ordered by part count then lexicographically
        assert [p["parts"] for p in d["profiles"]] == [[3], [1, 2], [2, 1], [1, 1, 1]]

    def test_csv(self):
        text = census_to_csv(tree_census(2))
        assert text == "parts,count\n2,1\n1 1,2\n"


class TestGofSerialization:
    def test_keys(self):
        report = GofReport(
            tv_distance=0.01, chi_square=2.5, dof=3, approx_p_value=0.47, trials=1000
        )
        assert gof_to_json_dict(report) == {
            "tv": 0.01,
            "chi2": 2.5,
            "dof": 3,
            "p": 0.47,
            "trials": 1000,
        }


class TestDumpJson:
    def test_deterministic_and_newline_terminated(self):
        a = dump_json({"b": 1, "a": [1, 2]})
        b = dump_json({"a": [1, 2], "b": 1})
        assert a == b
        assert a.endswith("\n")
