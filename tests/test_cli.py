import hashlib
import json
import math
import os
import pathlib
import stat
import sys

import pytest

from avalanches.cli import AMAX_CAP, DIGITS_CAP, IDENTITY_N_CAP, PMF_N_CAP, main
from avalanches.combinatorics import DEFAULT_TREE_ENUM_VERTICES
from avalanches.towers import COORDINATE_CAP
from avalanches.urn import _BLOCK_DRAWS as URN_BLOCK_DRAWS


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


PMF_LONG = ["pmf", "--model", "avalanche", "--N", "40", "--p", "1/41"]
PMF_SHORT = ["pmf", "--model", "avalanche", "--N", "5", "--p", "1/6"]


def stdout_of(capsys, args):
    rc, out, _ = run_cli(capsys, *args)
    assert rc == 0
    return out.encode("utf-8")


class TestIdentityCommand:
    def test_basic(self, capsys):
        rc, out, _ = run_cli(capsys, "identity", "--n", "4")
        doc = json.loads(out)
        assert rc == 0
        assert doc == {
            "n": 4,
            "variant": "standard",
            "lhs": "125",
            "rhs": "125",
            "equal": True,
        }

    def test_induction_split(self, capsys):
        rc, out, _ = run_cli(capsys, "identity", "--n", "3", "--s", "2")
        doc = json.loads(out)
        assert rc == 0
        assert (doc["partial"], doc["remainder"]) == ("10", "6")
        assert doc["induction_equal"] is True

    def test_forest_variant(self, capsys):
        rc, out, _ = run_cli(capsys, "identity", "--n", "2", "--forest")
        doc = json.loads(out)
        assert rc == 0
        assert (doc["lhs"], doc["rhs"], doc["variant"]) == ("3", "3", "forest")

    def test_split_with_forest_is_usage_error(self, capsys, monkeypatch):
        import avalanches.cli as cli_mod

        def refuse(*args):
            raise AssertionError("the work started")

        for name in ("identity_lhs", "forest_identity_lhs", "induction_step_check"):
            monkeypatch.setattr(cli_mod.comb, name, refuse)
        rc, out, err = run_cli(capsys, "identity", "--n", "3", "--s", "2", "--forest")
        assert (rc, out) == (2, "")
        assert err.startswith("error: --s") and err.count("\n") == 1

    def test_invalid_n_is_usage_error(self, capsys):
        rc, _, err = run_cli(capsys, "identity", "--n", "0")
        assert rc == 2
        assert "error" in err

    def test_csv_format(self, capsys):
        rc, out, _ = run_cli(capsys, "identity", "--n", "4", "--format", "csv")
        assert out.startswith("field,value\n")
        assert "\r" not in out


class TestTreesCommand:
    def test_census_json(self, capsys):
        rc, out, _ = run_cli(capsys, "trees", "--n", "5")
        doc = json.loads(out)
        assert rc == 0
        assert doc["total"] == "1296"
        assert sum(int(p["count"]) for p in doc["profiles"]) == 1296

    def test_cap_is_resource_error(self, capsys):
        rc, _, err = run_cli(capsys, "trees", "--n", str(DEFAULT_TREE_ENUM_VERTICES))
        assert rc == 3
        assert "resource" in err


class TestPmfCommand:
    def test_avalanche(self, capsys):
        rc, out, _ = run_cli(capsys, "pmf", "--model", "avalanche", "--N", "2", "--p", "1/4")
        doc = json.loads(out)
        assert rc == 0
        assert doc["probs"] == ["9/16", "1/4", "3/16"]

    def test_abelian(self, capsys):
        rc, out, _ = run_cli(capsys, "pmf", "--model", "abelian", "--N", "2", "--p", "1/4")
        assert json.loads(out)["probs"] == ["2/3", "1/3"]

    def test_limit(self, capsys):
        rc, out, _ = run_cli(
            capsys, "pmf", "--model", "limit", "--alpha", "1", "--amax", "10"
        )
        doc = json.loads(out)
        assert doc["probs"][0] == pytest.approx(math.exp(-1), rel=1e-12)
        assert "deficit" in doc

    def test_decimal_p_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "pmf", "--model", "avalanche", "--N", "2", "--p", "0.25")
        assert rc == 2
        assert "rational" in err

    def test_supercritical_p_rejected_naming_constraint(self, capsys):
        rc, _, err = run_cli(capsys, "pmf", "--model", "abelian", "--N", "4", "--p", "1/4")
        assert rc == 2
        assert "1/N" in err

    def test_model_flag_consistency(self, capsys):
        rc, _, err = run_cli(
            capsys, "pmf", "--model", "limit", "--alpha", "1", "--amax", "5", "--p", "1/4"
        )
        assert rc == 2
        rc, _, _ = run_cli(capsys, "pmf", "--model", "avalanche", "--N", "2")
        assert rc == 2

    def test_csv_digits(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "pmf", "--model", "avalanche", "--N", "2", "--p", "1/4",
            "--format", "csv", "--digits", "4",
        )
        assert out == "a,prob\n0,0.5625\n1,0.25\n2,0.1875\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("digits", ["0", "-3"])
    def test_digits_below_one_is_usage_error(self, capsys, fmt, digits):
        rc, out, err = run_cli(
            capsys,
            "pmf", "--model", "avalanche", "--N", "3", "--p", "1/4",
            "--format", fmt, "--digits", digits,
        )
        assert (rc, out) == (2, "")
        assert err.startswith("error: --digits") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["pmf", "--model", "limit", "--alpha", "1e400", "--amax", "5"],
            ["tail", "--alpha", "1e400", "--amax", "10"],
        ],
    )
    def test_alpha_past_float_range_is_usage_error(self, capsys, args):
        rc, out, err = run_cli(capsys, *args)
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot parse alpha") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["pmf", "--model", "limit", "--alpha", "1e-400", "--amax", "3"],
            ["pmf", "--model", "limit", "--alpha=-1e-400", "--amax", "1"],
            ["tail", "--alpha", "1e-400", "--amax", "10"],
        ],
    )
    def test_alpha_underflowing_to_zero_is_usage_error(self, capsys, args):
        rc, out, err = run_cli(capsys, *args)
        assert (rc, out) == (2, "")
        assert err.startswith("error: alpha") and "underflows to 0" in err
        assert err.count("\n") == 1

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="Python 3.10 parses any length"
    )
    def test_p_past_int_digit_limit_is_usage_error(self, capsys):
        p = "1/1" + "0" * 4400
        rc, out, err = run_cli(capsys, "pmf", "--model", "avalanche", "--N", "2", "--p", p)
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot parse") and err.count("\n") == 1


class TestSimulateCommand:
    def test_urn_conservation(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "simulate", "--model", "urn", "--N", "2", "--M", "4",
            "--trials", "1000", "--seed", "7",
        )
        doc = json.loads(out)
        assert rc == 0
        assert sum(doc["histogram"].values()) == 1000
        assert (doc["N"], doc["M"], doc["seed"], doc["shards"]) == (2, 4, 7, 1)

    def test_tower_exact_oracle(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "simulate", "--model", "tower", "--uniform", "8,1,3,3",
            "--trials", "200", "--seed", "1", "--exact-oracle",
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["oracle"]["equal"] is True
        assert doc["oracle"]["exact"]["probs"] == doc["oracle"]["bruteforce"]["probs"]

    def test_urn_exact_oracle(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "simulate", "--model", "urn", "--N", "2", "--M", "4",
            "--trials", "100", "--seed", "1", "--exact-oracle",
        )
        assert json.loads(out)["oracle"]["equal"] is True

    def test_heterogeneous_tower_oracle(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "simulate", "--model", "tower", "--coord", "6,1,2", "--coord", "8,2,2",
            "--trials", "100", "--seed", "1", "--exact-oracle",
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["oracle"]["equal"] is True

    def test_cap_exit_code(self, capsys):
        rc, _, err = run_cli(
            capsys,
            "simulate", "--model", "urn", "--N", "16", "--M", "17",
            "--trials", "10", "--seed", "1", "--exact-oracle",
        )
        assert rc == 3
        assert "cap" in err

    def test_compare_report(self, capsys, tmp_path):
        pmf_path = tmp_path / "expected.json"
        rc, _, _ = run_cli(
            capsys,
            "pmf", "--model", "avalanche", "--N", "2", "--p", "1/4",
            "--out", str(pmf_path),
        )
        assert rc == 0
        rc, out, _ = run_cli(
            capsys,
            "simulate", "--model", "urn", "--N", "2", "--M", "4",
            "--trials", "100000", "--seed", "7", "--compare", str(pmf_path),
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["gof"]["p"] > 0.001
        assert doc["gof"]["tv"] <= 0.01

    def test_csv_with_oracle_rejected(self, capsys):
        rc, _, err = run_cli(
            capsys,
            "simulate", "--model", "urn", "--N", "2", "--M", "4",
            "--trials", "10", "--seed", "1", "--exact-oracle", "--format", "csv",
        )
        assert rc == 2

    def test_tower_flag_validation(self, capsys):
        rc, _, _ = run_cli(
            capsys, "simulate", "--model", "tower", "--trials", "10", "--seed", "1"
        )
        assert rc == 2
        rc, _, _ = run_cli(
            capsys,
            "simulate", "--model", "tower", "--uniform", "8,1,3,3",
            "--coord", "8,1,3", "--trials", "10", "--seed", "1",
        )
        assert rc == 2

    def test_rejected_tower_spec(self, capsys):
        rc, _, err = run_cli(
            capsys,
            "simulate", "--model", "tower", "--uniform", "8,1,2,3",
            "--trials", "10", "--seed", "1",
        )
        assert rc == 2
        assert "height" in err


class TestSimulateInputChecks:
    """Bad simulate input exits 2 or 3 with one line, before any draw is made."""

    @pytest.fixture
    def no_campaign(self, monkeypatch):
        import avalanches.cli as cli_mod

        def refuse(*args):
            raise AssertionError("the campaign started")

        monkeypatch.setattr(cli_mod, "simulate_urns", refuse)
        monkeypatch.setattr(cli_mod, "simulate_tower", refuse)

    @pytest.mark.parametrize(
        "model",
        [
            ["--model", "urn", "--N", "3", "--M", str(2**64 - 1)],
            ["--model", "urn", "--N", "3", "--M", str(2**64)],
            ["--model", "tower", "--coord", f"{2**64 - 1},1,2"],
            ["--model", "tower", "--coord", f"{2**64},1,2"],
        ],
    )
    def test_bound_above_two_to_63_is_usage_error(self, capsys, model):
        rc, out, err = run_cli(capsys, "simulate", *model, "--trials", "1000", "--seed", "1")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2^63" in err

    @pytest.fixture
    def no_oracles(self, monkeypatch):
        import avalanches.cli as cli_mod

        def refuse(*args):
            raise AssertionError("an oracle ran")

        for name in (
            "urn_pmf_formula", "urn_pmf_bruteforce", "avalanche_pmf",
            "avalanche_pmf_general", "tower_pmf_bruteforce",
        ):
            monkeypatch.setattr(cli_mod, name, refuse)

    @pytest.mark.parametrize(
        "model",
        [
            ["--model", "urn", "--N", "3", "--M", str(2**64)],
            ["--model", "tower", "--coord", f"{2**64},1,2"],
        ],
    )
    def test_bound_checked_before_oracles(self, capsys, no_campaign, no_oracles, model):
        rc, out, err = run_cli(
            capsys, "simulate", *model, "--trials", "10", "--exact-oracle"
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2^63" in err

    @pytest.mark.parametrize(
        "flags,code,message",
        [
            (["--trials", "0"], 2, "error: trials"),
            (["--trials", "10", "--shards", "0"], 2, "error: shards"),
            (["--trials", "10", "--shards", str(2**16 + 1)], 3, "resource limit: "),
        ],
    )
    def test_campaign_checked_before_oracles(
        self, capsys, no_campaign, no_oracles, flags, code, message
    ):
        rc, out, err = run_cli(
            capsys, "simulate", "--model", "urn", "--N", "9", "--M", "10", *flags, "--exact-oracle"
        )
        assert rc == code
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "model,flags",
        [
            (["--model", "tower", "--uniform", "8,1,3,3"], ["--N", "3"]),
            (["--model", "urn", "--N", "2", "--M", "4"], ["--uniform", "64,1,8,8"]),
        ],
    )
    def test_other_models_flags_rejected(self, capsys, no_campaign, model, flags):
        rc, out, err = run_cli(capsys, "simulate", *model, *flags, "--trials", "10")
        assert rc == 2
        assert out == ""
        assert "apply only to the" in err

    @pytest.mark.parametrize("shards", [str(2**16 + 1), str(2**62)])
    def test_shard_cap_is_resource_error(self, capsys, shards):
        rc, out, err = run_cli(
            capsys,
            "simulate", "--model", "urn", "--N", "2", "--M", "4",
            "--trials", "10", "--shards", shards,
        )
        assert rc == 3
        assert out == ""
        assert err.startswith("resource limit: ") and err.count("\n") == 1

    @pytest.mark.parametrize("report", [["--exact-oracle"], ["--compare", "unread.json"]])
    def test_csv_report_rejected_before_campaign(self, capsys, no_campaign, report):
        rc, out, err = run_cli(
            capsys,
            "simulate", "--model", "urn", "--N", "2", "--M", "4",
            "--trials", "10", "--format", "csv", *report,
        )
        assert rc == 2
        assert "need --format json" in err

    def test_compare_document_read_before_campaign(self, capsys, no_campaign, tmp_path):
        rc, _, err = run_cli(
            capsys,
            "simulate", "--model", "tower", "--uniform", "8,1,3,3",
            "--trials", "10", "--compare", str(tmp_path / "missing.json"),
        )
        assert rc == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "model",
        [["--model", "urn", "--N", "3", "--M", "5"], ["--model", "tower", "--uniform", "8,1,3,3"]],
    )
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_usage_error(
        self, capsys, no_campaign, no_oracles, model, seed
    ):
        # derive_stream masks a seed to 64 bits: -1 would draw seed 2^64-1's
        # numbers and 2^64 seed 0's, while the document records the given seed
        rc, out, err = run_cli(
            capsys, "simulate", *model, "--trials", "10", "--seed", seed, "--exact-oracle"
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: seed") and err.count("\n") == 1

    def test_largest_seed_runs(self, capsys):
        rc, out, _ = run_cli(
            capsys, "simulate", "--model", "urn", "--N", "3", "--M", "5",
            "--trials", "10", "--seed", str(2**64 - 1),
        )
        assert rc == 0
        assert json.loads(out)["seed"] == 2**64 - 1

    @pytest.mark.parametrize(
        "model,code,message",
        [
            (["--model", "urn", "--N", "16", "--M", "17"], 3, "resource limit: "),
            (["--model", "urn", "--N", "5", "--M", "5"], 2, "error: "),
            (["--model", "tower", "--uniform", "400,1,12,11"], 3, "resource limit: "),
        ],
    )
    def test_exact_oracle_checked_before_campaign(self, capsys, no_campaign, model, code, message):
        rc, out, err = run_cli(
            capsys, "simulate", *model, "--trials", "2000000", "--exact-oracle"
        )
        assert rc == code
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "model",
        [
            ["--model", "urn", "--N", str(10**12), "--M", str(2 * 10**12)],
            ["--model", "urn", "--N", str(URN_BLOCK_DRAWS + 1), "--M", str(URN_BLOCK_DRAWS + 2)],
            ["--model", "tower", "--uniform", f"{2**18},1,{2**17},{COORDINATE_CAP + 1}"],
        ],
    )
    def test_population_cap_checked_before_the_system(
        self, capsys, no_campaign, no_oracles, monkeypatch, model
    ):
        # a sampler block holds one whole trial, so N is capped at its size
        import avalanches.cli as cli_mod

        def refuse(*args):
            raise AssertionError("the system was built")

        monkeypatch.setattr(cli_mod, "make_tower_system", refuse)
        monkeypatch.setattr(cli_mod, "UrnConfig", refuse)
        rc, out, err = run_cli(capsys, "simulate", *model, "--trials", "1", "--exact-oracle")
        assert (rc, out) == (3, "")
        assert err.startswith("resource limit: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "system", [["--uniform", "8,1,4,3"], ["--coord", "8,1,4"] * 3]
    )
    def test_tower_coordinate_cap_exits_before_any_stream(self, capsys, monkeypatch, system):
        import avalanches.towers as towers_mod

        def refuse(*args):
            raise AssertionError("a stream was built")

        monkeypatch.setattr(towers_mod, "COORDINATE_CAP", 2)
        monkeypatch.setattr(towers_mod, "SplitMix64", refuse)
        rc, out, err = run_cli(capsys, "simulate", "--model", "tower", *system, "--trials", "10")
        assert (rc, out) == (3, "")
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert "cap of 2" in err

    @pytest.mark.parametrize(
        "system, trials, shards",
        [
            (["--uniform", "8,1,4,3"], 2**16, 2**16),
            (["--uniform", f"{2**16 + 2},1,{2**15},{2**15}"], 10, 3),
            (["--coord", "8,1,4", "--coord", "9,1,4"], 10**6, 2**15 + 1),
        ],
    )
    def test_stream_cap_exits_before_any_oracle_or_stream(
        self, capsys, no_oracles, monkeypatch, system, trials, shards
    ):
        # coordinates x non-empty shards streams, checked before the oracles
        import avalanches.towers as towers_mod

        def refuse(*args):
            raise AssertionError("a stream was built")

        monkeypatch.setattr(towers_mod, "SplitMix64", refuse)
        rc, out, err = run_cli(
            capsys, "simulate", "--model", "tower", *system,
            "--trials", str(trials), "--shards", str(shards), "--exact-oracle",
        )
        assert (rc, out) == (3, "")
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert f"streams exceed the cap of {COORDINATE_CAP}" in err

    def test_urn_oracle_cap_checked_before_the_law(self, capsys, no_campaign, monkeypatch):
        # (16, 17) has C(32, 16) occupancy vectors, past the oracle's cap, so
        # the closed formula is never evaluated at that size
        import avalanches.cli as cli_mod

        def refuse(*args):
            raise AssertionError("the exact law was built")

        monkeypatch.setattr(cli_mod, "urn_pmf_formula", refuse)
        rc, out, err = run_cli(
            capsys, "simulate", "--model", "urn", "--N", "16", "--M", "17",
            "--trials", "10", "--exact-oracle",
        )
        assert (rc, out) == (3, "")
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert "occupancy vectors" in err

    def test_tower_oracle_caps_checked_before_the_law(self, capsys, no_campaign, monkeypatch):
        # 11 coordinates have at least C(22, 11) hit-class tuples, past the
        # oracle's cap, so the exact law is never built at that size
        import avalanches.cli as cli_mod

        def refuse(*args):
            raise AssertionError("the exact law was built")

        monkeypatch.setattr(cli_mod, "avalanche_pmf_general", refuse)
        coords = [arg for L in range(13, 24) for arg in ("--coord", f"{L},1,11")]
        rc, out, err = run_cli(
            capsys, "simulate", "--model", "tower", *coords, "--trials", "10", "--exact-oracle"
        )
        assert (rc, out) == (3, "")
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert "hit-class tuples" in err


class TestSizeCaps:
    """Each size input has a cap that exits 3 before any work starts."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        import avalanches.cli as cli_mod

        def refuse(*args):
            raise AssertionError("the work started")

        for name in ("avalanche_pmf", "abelian_pmf", "conditional_pmf", "limit_pmf"):
            monkeypatch.setattr(cli_mod, name, refuse)
        for name in ("identity_lhs", "forest_identity_lhs", "induction_step_check", "tree_census"):
            monkeypatch.setattr(cli_mod.comb, name, refuse)

    @pytest.mark.parametrize(
        "args",
        [
            ["identity", "--n", str(IDENTITY_N_CAP + 1)],
            ["identity", "--n", str(IDENTITY_N_CAP + 1), "--s", "50"],
            ["identity", "--n", str(IDENTITY_N_CAP + 1), "--forest"],
            *(
                ["pmf", "--model", law, "--N", str(PMF_N_CAP + 1), "--p", f"1/{2 * PMF_N_CAP}"]
                for law in ("avalanche", "abelian", "conditional")
            ),
            ["pmf", "--model", "limit", "--alpha", "1", "--amax", str(AMAX_CAP + 1)],
            ["tail", "--alpha", "1", "--amax", str(AMAX_CAP + 1)],
            ["pmf", "--model", "avalanche", "--N", "5", "--p", "1/6", "--digits", str(DIGITS_CAP + 1)],
            ["pmf", "--model", "limit", "--alpha", "1", "--amax", "5", "--digits", str(DIGITS_CAP + 1)],
            # a census one vertex over the cap
            ["trees", "--n", str(DEFAULT_TREE_ENUM_VERTICES)],
            ["trees", "--n", str(DEFAULT_TREE_ENUM_VERTICES), "--format", "csv"],
        ],
    )
    def test_above_cap_is_resource_error(self, capsys, no_work, args):
        rc, out, err = run_cli(capsys, *args)
        assert rc == 3
        assert out == ""
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert "cap" in err

    def test_at_cap_runs(self, capsys):
        rc, out, _ = run_cli(
            capsys, "pmf", "--model", "limit", "--alpha", "1", "--amax", str(AMAX_CAP)
        )
        assert rc == 0
        assert len(json.loads(out)["probs"]) == AMAX_CAP + 1


class TestLongIntegers:
    """Exact documents whose integers pass Python's 4300-digit str limit."""

    def test_pmf_compare_round_trip(self, capsys, tmp_path):
        from fractions import Fraction

        from avalanches.distributions import AvalancheParams, avalanche_pmf
        from avalanches.serialize import pmf_from_json_dict

        p = "1/" + str(10**16)
        pmf_path, sim_path = tmp_path / "pmf.json", tmp_path / "sim.json"
        rc, _, _ = run_cli(
            capsys, "pmf", "--model", "avalanche", "--N", "300", "--p", p, "--out", str(pmf_path)
        )
        assert rc == 0
        doc = json.loads(pmf_path.read_text(encoding="utf-8"))
        assert len(doc["probs"][0].split("/")[1]) == 4801  # 10^4800
        law = avalanche_pmf(AvalancheParams(300, Fraction(1, 10**16)))
        assert pmf_from_json_dict(doc).probs == law.probs
        rc, _, _ = run_cli(
            capsys,
            "simulate", "--model", "urn", "--N", "300", "--M", str(10**16),
            "--trials", "200", "--seed", "1", "--out", str(sim_path),
        )
        assert rc == 0
        rc, out, err = run_cli(
            capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path),
            "--min-expected", "1e-300",
        )
        assert (rc, err) == (0, "")
        assert json.loads(out)["trials"] == 200


class TestTailCommand:
    def test_rows_and_slope(self, capsys):
        rc, out, _ = run_cli(capsys, "tail", "--alpha", "1", "--amax", "600")
        doc = json.loads(out)
        assert rc == 0
        row = next(r for r in doc["rows"] if r["a"] == 100)
        assert abs(row["a_log_ratio"] - 1.5) <= 0.03
        assert -1.55 <= doc["slope"] <= -1.45

    def test_alpha_zero_refused(self, capsys):
        rc, _, err = run_cli(capsys, "tail", "--alpha", "0", "--amax", "10")
        assert rc == 2
        assert "point mass" in err

    def test_custom_window(self, capsys):
        rc, out, _ = run_cli(
            capsys, "tail", "--alpha", "1", "--amax", "120", "--fit-window", "10,100"
        )
        assert rc == 0
        assert json.loads(out)["fit_window"] == [10, 100]

    def test_window_outside_support(self, capsys):
        rc, _, _ = run_cli(
            capsys, "tail", "--alpha", "1", "--amax", "40", "--fit-window", "50,500"
        )
        assert rc == 2

    def test_csv_has_slope_comment(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "tail", "--alpha", "1", "--amax", "60", "--fit-window", "10,50",
            "--format", "csv",
        )
        assert out.startswith("a,log_ratio,a_log_ratio\n")
        assert "# fit_window=10,50 slope=" in out

    def test_table_ends_where_the_mass_underflows(self, capsys):
        rc, out, _ = run_cli(
            capsys, "tail", "--alpha", "1/100", "--amax", "1000", "--fit-window", "2,10"
        )
        assert rc == 0
        assert json.loads(out)["rows"][-1]["a"] == 202


class TestCompareCommand:
    def test_roundtrip(self, capsys, tmp_path):
        sim_path = tmp_path / "sim.json"
        pmf_path = tmp_path / "pmf.json"
        run_cli(
            capsys,
            "simulate", "--model", "urn", "--N", "2", "--M", "4",
            "--trials", "50000", "--seed", "3", "--out", str(sim_path),
        )
        run_cli(
            capsys,
            "pmf", "--model", "avalanche", "--N", "2", "--p", "1/4",
            "--out", str(pmf_path),
        )
        rc, out, _ = run_cli(capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path))
        doc = json.loads(out)
        assert rc == 0
        assert set(doc) == {"tv", "chi2", "dof", "p", "trials"}
        assert doc["trials"] == 50000

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "compare", "--sim", str(tmp_path / "no.json"), "--pmf", str(tmp_path / "no2.json")
        )
        assert rc == 2

    def stored_run(self, capsys, tmp_path):
        sim_path, pmf_path = tmp_path / "sim.json", tmp_path / "pmf.json"
        run_cli(
            capsys,
            "simulate", "--model", "urn", "--N", "2", "--M", "4",
            "--trials", "1000", "--seed", "3", "--out", str(sim_path),
        )
        run_cli(
            capsys,
            "pmf", "--model", "avalanche", "--N", "2", "--p", "1/4", "--out", str(pmf_path),
        )
        return sim_path, pmf_path

    def assert_usage_error(self, capsys, *args):
        rc, out, err = run_cli(capsys, *args)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("which", ["sim", "pmf"])
    def test_malformed_json(self, capsys, tmp_path, which):
        paths = dict(zip(("sim", "pmf"), self.stored_run(capsys, tmp_path)))
        paths[which].write_text('{"model": "urn", ', encoding="utf-8")
        self.assert_usage_error(
            capsys, "compare", "--sim", str(paths["sim"]), "--pmf", str(paths["pmf"])
        )

    @pytest.mark.parametrize("which, field", [("sim", "histogram"), ("pmf", "probs")])
    def test_partial_document(self, capsys, tmp_path, which, field):
        paths = dict(zip(("sim", "pmf"), self.stored_run(capsys, tmp_path)))
        doc = json.loads(paths[which].read_text(encoding="utf-8"))
        del doc[field]
        paths[which].write_text(json.dumps(doc), encoding="utf-8")
        self.assert_usage_error(
            capsys, "compare", "--sim", str(paths["sim"]), "--pmf", str(paths["pmf"])
        )

    @pytest.mark.parametrize(
        "which, text",
        [
            ("sim", "[1, 2]"),
            ("pmf", '{"exact": true, "support": [0], "probs": ["x"], "label": "p"}'),
        ],
    )
    def test_wrongly_shaped_document(self, capsys, tmp_path, which, text):
        paths = dict(zip(("sim", "pmf"), self.stored_run(capsys, tmp_path)))
        paths[which].write_text(text, encoding="utf-8")
        self.assert_usage_error(
            capsys, "compare", "--sim", str(paths["sim"]), "--pmf", str(paths["pmf"])
        )

    @pytest.mark.parametrize("which", ["sim", "pmf"])
    def test_directory_path(self, capsys, tmp_path, which):
        paths = dict(zip(("sim", "pmf"), self.stored_run(capsys, tmp_path)))
        paths[which] = tmp_path
        self.assert_usage_error(
            capsys, "compare", "--sim", str(paths["sim"]), "--pmf", str(paths["pmf"])
        )

    def test_csv_bytes(self, capsys, tmp_path):
        # digest taken from the gof-only CSV writer that serialize.kv_csv replaced
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        rc, out, _ = run_cli(
            capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path), "--format", "csv"
        )
        assert rc == 0
        assert out.startswith("field,value\ntv,")
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "ba5f16949c47efd5cbc50442d8375977921321e6bb0a76252a90ed4f2cdbf517"

    def test_simulate_compare_malformed_pmf(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        self.assert_usage_error(
            capsys,
            "simulate", "--model", "urn", "--N", "2", "--M", "4",
            "--trials", "100", "--compare", str(bad),
        )

    @pytest.mark.parametrize(
        "fields",
        [{"probs": [0.5, 0.25, 0.25], "deficit": math.nan}, {"probs": [math.nan, 0.5, 0.5]}],
    )
    def test_nan_in_stored_float_pmf(self, capsys, tmp_path, fields):
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        doc = {"exact": False, "support": [0, 1, 2], "label": "float", **fields}
        pmf_path.write_text(json.dumps(doc), encoding="utf-8")
        rc, out, err = run_cli(capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path))
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nan" in err

    def test_repeated_support_value(self, capsys, tmp_path):
        # keeping one probability per value would drop 1/4 of the expected mass
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        doc = {"exact": True, "support": [0, 0, 1], "probs": ["1/2", "1/4", "1/4"], "label": "d"}
        pmf_path.write_text(json.dumps(doc), encoding="utf-8")
        self.assert_usage_error(capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path))

    @pytest.mark.parametrize(
        "which, field, value",
        [
            ("pmf", "support", [0.9, 1.9, 2.9]),
            ("pmf", "support", [True, 2, 3]),
            ("sim", "trials", 1000.0),
            ("sim", "seed", 3.5),
            ("sim", "shards", 1.0),
            ("sim", "histogram", None),
        ],
    )
    def test_non_integer_stored_field(self, capsys, tmp_path, which, field, value):
        # int() would truncate a float and read a bool as 0 or 1
        paths = dict(zip(("sim", "pmf"), self.stored_run(capsys, tmp_path)))
        doc = json.loads(paths[which].read_text(encoding="utf-8"))
        if field == "histogram":
            value = {a: float(c) for a, c in doc["histogram"].items()}
        doc[field] = value
        paths[which].write_text(json.dumps(doc), encoding="utf-8")
        rc, out, err = run_cli(
            capsys, "compare", "--sim", str(paths["sim"]), "--pmf", str(paths["pmf"])
        )
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and "must be a JSON integer" in err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"probs": ["0.5625", "0.25", "0.1875"]}, "must be a JSON number"),
            ({"probs": [0.5625, True, 0.1875], "deficit": "-0.75"}, "must be a JSON number"),
            ({"exact": "false"}, "must be a JSON boolean"),
            ({"label": ["x"]}, "must be a JSON string"),
            ({"probs": [10**400, 0, 0]}, "too large to convert to float"),
        ],
    )
    def test_stored_float_pmf_fields_keep_their_json_types(
        self, capsys, tmp_path, fields, message
    ):
        # float() would read the strings and true as numbers, and the document
        # would pass with tv 0.0115 against this run
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        doc = {"exact": False, "support": [0, 1, 2], "probs": [0.5625, 0.25, 0.1875], "label": "f"}
        pmf_path.write_text(json.dumps({**doc, **fields}), encoding="utf-8")
        rc, out, err = run_cli(capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path))
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("key", ["00", " 1", "+2"])
    def test_stored_histogram_keys_must_be_canonical(self, capsys, tmp_path, key):
        # int() would read a copy of a size's count under a second key as the
        # same size, and the counts, stored summing past the trials, would pass
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        doc = json.loads(sim_path.read_text(encoding="utf-8"))
        doc["histogram"][key] = doc["histogram"][str(int(key))]
        sim_path.write_text(json.dumps(doc), encoding="utf-8")
        rc, out, err = run_cli(capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path))
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and "histogram key must be" in err

    def test_negative_count_exits_2(self, capsys, tmp_path):
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        doc = json.loads(sim_path.read_text(encoding="utf-8"))
        doc["histogram"]["0"] += 1
        doc["histogram"]["3"] = -1
        sim_path.write_text(json.dumps(doc), encoding="utf-8")
        rc, out, err = run_cli(capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path))
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and "histogram counts must be >= 0" in err

    def test_infinite_statistic_exits_2(self, capsys, tmp_path):
        # the report would read "chi2": Infinity, "p": NaN, which is not JSON
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        doc = {"exact": False, "support": [0, 1], "probs": [1.0, 5e-324], "label": "tiny"}
        pmf_path.write_text(json.dumps(doc), encoding="utf-8")
        rc, out, err = run_cli(
            capsys,
            "compare", "--sim", str(sim_path), "--pmf", str(pmf_path), "--min-expected", "5e-324",
        )
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "not a finite" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_min_expected_must_be_finite(self, capsys, tmp_path, bad):
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        rc, out, err = run_cli(
            capsys,
            "compare", "--sim", str(sim_path), "--pmf", str(pmf_path), f"--min-expected={bad}",
        )
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and "min_expected must be finite" in err


class TestReproducibility:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = [
            "simulate", "--model", "tower", "--uniform", "64,1,8,8",
            "--trials", "20000", "--seed", "123", "--shards", "4",
        ]
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_shards_change_output_through_stream_derivation(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = [
            "simulate", "--model", "urn", "--N", "3", "--M", "5",
            "--trials", "20000", "--seed", "123",
        ]
        run_cli(capsys, *base, "--shards", "1", "--out", str(a))
        run_cli(capsys, *base, "--shards", "2", "--out", str(b))
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["histogram"] != db["histogram"]
        assert da["shards"] == 1 and db["shards"] == 2

    def test_output_files_use_lf(self, capsys, tmp_path):
        out = tmp_path / "pmf.csv"
        run_cli(
            capsys,
            "pmf", "--model", "avalanche", "--N", "2", "--p", "1/4",
            "--format", "csv", "--out", str(out),
        )
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestOutputDirEnv:
    def test_env_dir_applies_to_relative_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("AVALANCHES_OUT_DIR", str(tmp_path))
        rc, _, _ = run_cli(capsys, "identity", "--n", "3", "--out", "sub/report.json")
        assert rc == 0
        assert (tmp_path / "sub" / "report.json").exists()

    def test_absolute_path_wins_over_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("AVALANCHES_OUT_DIR", str(tmp_path / "ignored"))
        target = tmp_path / "direct.json"
        rc, _, _ = run_cli(capsys, "identity", "--n", "3", "--out", str(target))
        assert rc == 0
        assert target.exists()
        assert not (tmp_path / "ignored").exists()


class TestOutputWriteFailures:
    """An --out path that cannot be written exits 2 with one line."""

    def test_existing_directory(self, capsys, tmp_path):
        rc, out, err = run_cli(
            capsys, "pmf", "--model", "avalanche", "--N", "3", "--p", "1/5", "--out", str(tmp_path)
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_parent_is_a_regular_file(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        target = blocker / "x.json"
        rc, out, err = run_cli(
            capsys, "pmf", "--model", "avalanche", "--N", "3", "--p", "1/5", "--out", str(target)
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert blocker.read_text() == "x"

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
    def test_read_only_existing_file(self, capsys, tmp_path):
        target = tmp_path / "locked.json"
        target.write_text("x")
        target.chmod(0o444)
        rc, out, err = run_cli(capsys, *PMF_SHORT, "--out", str(target))
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert target.read_text() == "x"


class TestOutputReplace:
    """An existing plain --out file is replaced by a new file; other paths are written in place."""

    def test_rewrites_hold_exactly_the_new_bytes(self, capsys, tmp_path):
        target = tmp_path / "o.json"
        for args in (PMF_LONG, PMF_SHORT, PMF_SHORT):
            assert run_cli(capsys, *args, "--out", str(target))[0] == 0
            assert target.read_bytes() == stdout_of(capsys, args)

    def test_old_file_is_replaced_not_truncated(self, capsys, tmp_path):
        # a reader of the old file keeps its bytes; a truncation would empty it
        target = tmp_path / "o.json"
        run_cli(capsys, *PMF_LONG, "--out", str(target))
        with open(target, "rb") as old:
            assert run_cli(capsys, *PMF_SHORT, "--out", str(target))[0] == 0
            assert old.read() == stdout_of(capsys, PMF_LONG)
        assert target.read_bytes() == stdout_of(capsys, PMF_SHORT)

    def test_symlink_stays_a_symlink(self, capsys, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old\n" * 1000)
        link.symlink_to(target)
        assert run_cli(capsys, *PMF_SHORT, "--out", str(link))[0] == 0
        assert link.is_symlink()
        assert target.read_bytes() == stdout_of(capsys, PMF_SHORT)

    def test_hard_link_is_written_in_place(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text("old\n" * 1000)
        os.link(a, b)
        assert run_cli(capsys, *PMF_SHORT, "--out", str(a))[0] == 0
        new = stdout_of(capsys, PMF_SHORT)
        assert a.read_bytes() == b.read_bytes() == new
        assert a.stat().st_nlink == 2

    @pytest.mark.parametrize("mode, umask", [(0o664, 0o077), (0o600, 0o000), (0o604, 0o022)])
    def test_permission_bits_are_kept(self, capsys, tmp_path, mode, umask):
        target = tmp_path / "o.json"
        target.write_text("old")
        target.chmod(mode)
        old_umask = os.umask(umask)
        try:
            rc = run_cli(capsys, *PMF_SHORT, "--out", str(target))[0]
        finally:
            os.umask(old_umask)
        assert rc == 0
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert target.read_bytes() == stdout_of(capsys, PMF_SHORT)

    def test_failed_unlink_writes_in_place(self, capsys, tmp_path, monkeypatch):
        # as in a read-only or sticky directory
        target = tmp_path / "o.json"
        target.write_text("old\n" * 1000)

        def refuse(self, missing_ok=False):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(pathlib.Path, "unlink", refuse)
        assert run_cli(capsys, *PMF_SHORT, "--out", str(target))[0] == 0
        assert target.read_bytes() == stdout_of(capsys, PMF_SHORT)

    def test_null_device(self, capsys):
        rc, out, err = run_cli(capsys, *PMF_SHORT, "--out", os.devnull)
        assert (rc, out, err) == (0, "", "")
        assert pathlib.Path(os.devnull).is_char_device()

    @pytest.mark.skipif(os.geteuid() != 0, reason="needs root to give a file away")
    def test_file_of_another_owner_is_written_in_place(self, capsys, tmp_path):
        target = tmp_path / "o.json"
        target.write_text("old")
        os.chown(target, 65534, 65534)
        assert run_cli(capsys, *PMF_SHORT, "--out", str(target))[0] == 0
        st = target.stat()
        assert (st.st_uid, st.st_gid) == (65534, 65534)
        assert target.read_bytes() == stdout_of(capsys, PMF_SHORT)
