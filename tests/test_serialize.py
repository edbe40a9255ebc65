import decimal
import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalanches.combinatorics import tree_census
from avalanches.distributions import (
    AvalancheParams,
    LimitParams,
    Pmf,
    abelian_pmf,
    avalanche_pmf,
    conditional_pmf,
    limit_pmf,
)
from avalanches.errors import DomainError
from avalanches.sampling import SimResult
from avalanches.serialize import (
    _decimal_strs,
    census_to_csv,
    census_to_json_dict,
    decimal_str,
    dump_json,
    gof_to_json_dict,
    parse_rational,
    pmf_from_json_dict,
    pmf_to_csv,
    pmf_to_json,
    pmf_to_json_dict,
    simresult_from_json_dict,
    simresult_to_csv,
    simresult_to_json_dict,
    unlimited_int_digits,
)
from avalanches.stats import GofReport
from avalanches.towers import avalanche_pmf_general, make_tower_system, tower_pmf_bruteforce
from avalanches.urn import UrnConfig, urn_pmf_bruteforce


class TestRational:
    def test_roundtrip(self):
        for f in (F(9, 16), F(1), F(0), F(-3, 7)):
            assert parse_rational(f"{f.numerator}/{f.denominator}") == f

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
        assert decimal_str(1, 3, 5) == "0.33333"
        assert decimal_str(2, 1, 3) == "2"
        assert decimal_str(4, 6, 3) == "0.667"  # out of lowest terms

    def test_default_precision_is_17_digits(self):
        assert decimal_str(1, 7).startswith("0.142857142857142")

    def test_float_roundtrips(self):
        # a float row is written as its repr, whatever the precision
        pmf = Pmf(support=(0, 1), nums=(0.1, 0.9), label="f")
        for sig_digits in (1, 17, 40):
            assert pmf_to_csv(pmf, sig_digits) == f"a,prob\n0,{0.1!r}\n1,{0.9!r}\n"

    def test_precision_must_be_positive(self):
        with pytest.raises(DomainError):
            decimal_str(1, 3, 0)

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
        assert decimal_str(x.numerator, x.denominator, sig_digits) == self.decimal_division(
            x, sig_digits
        )

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
        assert decimal_str(x.numerator, x.denominator, sig_digits) == self.decimal_division(
            x, sig_digits
        )

    def test_ignores_the_callers_flags(self):
        # exactness is read from the flags of this one rounding only
        with decimal.localcontext() as ctx:
            ctx.flags[decimal.Inexact] = True
            assert decimal_str(1, 4, 17) == "0.25"

    def test_large_exact_law_rows(self):
        pmf = avalanche_pmf(AvalancheParams(300, F(1, 301)))
        for x, p in zip(pmf.nums[::37], pmf.probs[::37]):
            assert decimal_str(x, pmf.den, 17) == self.decimal_division(p, 17)


class TestPmfSerialization:
    def test_exact_roundtrip(self):
        pmf = avalanche_pmf(AvalancheParams(3, F(1, 5)))
        d = pmf_to_json_dict(pmf)
        assert d["exact"] is True
        assert d["probs"][0] == f"{pmf.probs[0].numerator}/{pmf.probs[0].denominator}"
        assert pmf_from_json_dict(d) == pmf

    def test_floating_roundtrip_keeps_deficit(self):
        pmf = limit_pmf(LimitParams(0.5, 50))
        d = pmf_to_json_dict(pmf)
        assert "deficit" in d
        back = pmf_from_json_dict(d)
        assert back.probs == pmf.probs
        assert back.deficit == pmf.deficit

    @pytest.mark.parametrize("support", [[0.9, 1.9], [True, 2], [0, "1"]])
    def test_support_values_must_be_json_integers(self, support):
        # int() would read [0.9, 1.9] as [0, 1] and [true, 2] as [1, 2]
        d = {"exact": True, "support": support, "probs": ["1/2", "1/2"], "label": "x"}
        with pytest.raises(DomainError, match="support value must be a JSON integer"):
            pmf_from_json_dict(d)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"probs": ["0.5625", "0.25", "0.1875"]}, "prob must be a JSON number"),
            ({"probs": [0.5625, True, 0.1875]}, "prob must be a JSON number"),
            ({"deficit": "-0.75"}, "deficit must be a JSON number"),
            ({"deficit": False}, "deficit must be a JSON number"),
            ({"exact": "false"}, "exact must be a JSON boolean"),
            ({"exact": 0}, "exact must be a JSON boolean"),
            ({"label": 7}, "label must be a JSON string"),
            ({"exact": True, "probs": [1, 0, 0]}, "exact prob must be a JSON string"),
        ],
    )
    def test_fields_must_have_their_json_types(self, fields, message):
        # float() reads "0.5" and true as numbers, bool() reads "false" as true
        d = {"exact": False, "support": [0, 1, 2], "probs": [0.5, 0.25, 0.25], "label": "x"}
        with pytest.raises(DomainError, match=message):
            pmf_from_json_dict({**d, **fields})

    def test_json_numbers_are_floating_probs(self):
        d = {"exact": False, "support": [0, 1], "probs": [1, 0], "label": "x", "deficit": 0}
        assert pmf_from_json_dict(d).probs == (1.0, 0.0)

    def test_csv_shape(self):
        text = pmf_to_csv(avalanche_pmf(AvalancheParams(2, F(1, 4))), sig_digits=4)
        assert text == "a,prob\n0,0.5625\n1,0.25\n2,0.1875\n"
        assert "\r" not in text


class TestExactReadBack:
    """A written exact law reads back as the same probabilities."""

    @given(
        st.sampled_from([avalanche_pmf, abelian_pmf, conditional_pmf]),
        st.integers(1, 60).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(n + 1, 10**6).flatmap(
                    lambda v: st.tuples(st.integers(0, (v - 1) // n), st.just(v))
                ),
            )
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_laws(self, law, case):
        n, (u, v) = case
        pmf = law(AvalancheParams(n, F(u, v)))
        assert pmf_from_json_dict(json.loads(pmf_to_json(pmf))).probs == pmf.probs

    @given(st.integers(1, 6), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_urn_oracle(self, n, m):
        pmf = urn_pmf_bruteforce(UrnConfig(N=n, M=m))
        assert pmf_from_json_dict(json.loads(pmf_to_json(pmf))).probs == pmf.probs

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.tuples(st.integers(1, 2), st.integers(0, 5)).map(
                    lambda wx: ((n + 1) * wx[0] + wx[1], wx[0], n)
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_tower_oracle(self, specs):
        pmf = tower_pmf_bruteforce(make_tower_system(specs))
        assert pmf_from_json_dict(json.loads(pmf_to_json(pmf))).probs == pmf.probs

    @pytest.mark.parametrize(
        "probs, want", [(["1"], (F(1),)), (["2/4", "1/2", "0"], (F(1, 2), F(1, 2), F(0)))]
    )
    def test_bare_and_unreduced_terms(self, probs, want):
        d = {"exact": True, "label": "x", "support": list(range(len(probs))), "probs": probs}
        assert pmf_from_json_dict(d).probs == want


class TestDecimalStrs:
    """The writer's split conversion gives str()'s digits."""

    @unlimited_int_digits()
    def test_edges(self):
        xs = [0, 1, 2**3999, 2**4000 - 1, 10**1205, 10**1205 - 1, 10**7224, 10**7225 - 1]
        assert _decimal_strs(xs) == [str(x) for x in xs]

    @given(st.lists(st.integers(0, 2**30000), max_size=4), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    @unlimited_int_digits()
    def test_matches_str(self, xs, zeros):
        xs = [x * 10**zeros for x in xs] + [10**zeros * 2**4000 + 1]
        assert _decimal_strs(xs) == [str(x) for x in xs]


def _generic_text(pmf):
    return dump_json(pmf_to_json_dict(pmf))


class TestPmfToJson:
    """pmf_to_json writes the same bytes as the generic writer for every pmf."""

    @given(
        st.sampled_from([avalanche_pmf, abelian_pmf, conditional_pmf]),
        st.integers(1, 60).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.one_of(
                    st.sampled_from([(0, 1), (1, n)]),
                    st.integers(n + 1, 10**4).flatmap(
                        lambda v: st.tuples(st.integers(1, v // n), st.just(v))
                    ),
                ),
            )
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_exact_laws(self, law, case):
        n, (u, v) = case
        params = AvalancheParams(n, F(u, v))
        if law is abelian_pmf and n * params.p == 1:
            law = avalanche_pmf  # the abelian law needs p < 1/N
        pmf = law(params)
        assert pmf_to_json(pmf) == _generic_text(pmf)

    @pytest.mark.parametrize(
        "pmf",
        [
            urn_pmf_bruteforce(UrnConfig(N=5, M=7)),
            urn_pmf_bruteforce(UrnConfig(N=6, M=3)),
            tower_pmf_bruteforce(make_tower_system([(12, 1, 3), (9, 1, 3), (10, 2, 3)])),
            avalanche_pmf_general([F(1, 5), F(1, 7), F(1, 7), F(2, 31)]),
            limit_pmf(LimitParams(0.5, 40)),
            limit_pmf(LimitParams(0.0, 3)),
        ],
        ids=["urn", "urn-M<N", "tower", "general", "limit", "limit-0"],
    )
    def test_oracles_and_limit_law(self, pmf):
        assert pmf_to_json(pmf) == _generic_text(pmf)

    @pytest.mark.parametrize(
        "label",
        ['quote " here', "back\\slash", "tab\tand\x01", "Pr\u00fcfer \u2192 \U0001f332", ""],
    )
    @pytest.mark.parametrize("deficit", [None, 0.0])
    def test_hand_built_labels_and_deficit(self, label, deficit):
        # the label goes through json's escaper; a deficit takes the generic path
        pmf = Pmf(
            support=(7, 0, 3), nums=(3, 2, 1), den=6, exact=True, label=label, deficit=deficit
        )
        text = pmf_to_json(pmf)
        assert text == _generic_text(pmf)
        assert pmf_from_json_dict(json.loads(text)) == pmf


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", 8.0),
            ("trials", 8.9),
            ("seed", 42.5),
            ("seed", True),
            ("shards", 2.0),
            ("shards", "2"),
        ],
    )
    def test_scalar_fields_must_be_json_integers(self, field, value):
        d = {"model": "urn", "trials": 8, "seed": 42, "shards": 2, "histogram": {"0": 5, "2": 3}}
        d[field] = value
        with pytest.raises(DomainError, match=f"{field} must be a JSON integer"):
            simresult_from_json_dict(d)

    @pytest.mark.parametrize("count", [5.0, 5.5, True])
    def test_histogram_counts_must_be_json_integers(self, count):
        # int() would read trials 100.9 with counts 50.5 and 50.4 as 100 = 50 + 50
        d = {"model": "urn", "trials": 8, "seed": 0, "shards": 1, "histogram": {"0": count, "2": 3}}
        with pytest.raises(DomainError, match="histogram count must be a JSON integer"):
            simresult_from_json_dict(d)

    def test_model_must_be_a_json_string(self):
        d = {"model": ["urn"], "trials": 8, "seed": 0, "shards": 1, "histogram": {"0": 8}}
        with pytest.raises(DomainError, match="model must be a JSON string"):
            simresult_from_json_dict(d)

    @pytest.mark.parametrize("key", ["00", "01", " 1", "1 ", "+1", "-1", "1.0", "1_0", "", "x"])
    def test_histogram_keys_must_be_canonical(self, key):
        # int() would read "0" and "00" as one size and add up neither
        d = {"model": "urn", "trials": 8, "seed": 0, "shards": 1, "histogram": {"0": 5, key: 3}}
        with pytest.raises(DomainError, match="histogram key must be"):
            simresult_from_json_dict(d)

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
