import hashlib
import json
import math
import os
import pathlib
import random
import stat
import sys

import pytest

from avalanches.cli import (
    AMAX_CAP,
    DIGITS_CAP,
    IDENTITY_N_CAP,
    PMF_BITS_CAP,
    PMF_N_CAP,
    STORED_BYTES_CAP,
    main,
)
from avalanches.combinatorics import DEFAULT_TREE_ENUM_VERTICES
from avalanches.errors import DomainError, ResourceLimitError
from avalanches.sampling import STREAM_CAP
from avalanches.urn import _BLOCK_DRAWS as URN_BLOCK_DRAWS


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def uniform_exact_pmf(n):
    """A stored exact pmf of n probabilities 1/n on 0..n-1."""
    return {"exact": True, "label": "u", "support": list(range(n)), "probs": [f"1/{n}"] * n}


def refuse_parsing(monkeypatch):
    """Make any exact probability parsed from here on fail the test."""
    import avalanches.serialize as ser_mod

    def refuse(*args):
        raise AssertionError("a probability was parsed")

    monkeypatch.setattr(ser_mod, "_split_rational", refuse)


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
            "lemma_entries": 10,
            "lemma_equal": True,
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
        assert (doc["lemma_entries"], doc["lemma_equal"]) == (3, True)

    def test_split_with_forest_is_usage_error(self, capsys, monkeypatch):
        import avalanches.cli as cli_mod

        def refuse(*args):
            raise AssertionError("the work started")

        for name in ("lemma_table", "identity_lhs", "forest_identity_lhs", "induction_step_check"):
            monkeypatch.setattr(cli_mod.comb, name, refuse)
        rc, out, err = run_cli(capsys, "identity", "--n", "3", "--s", "2", "--forest")
        assert (rc, out) == (2, "")
        assert err.startswith("error: --s") and err.count("\n") == 1

    @pytest.mark.parametrize("variant", [[], ["--forest"], ["--s", "3"]])
    def test_lemma_mismatch_exits_1(self, capsys, monkeypatch, variant):
        import avalanches.cli as cli_mod

        true_table = cli_mod.comb.lemma_table

        def corrupted(n):
            table = true_table(n)
            table[2][3] += 1  # F(3, 2) = 15; a + m < n, so the identity never reads it
            return table

        monkeypatch.setattr(cli_mod.comb, "lemma_table", corrupted)
        rc, out, _ = run_cli(capsys, "identity", "--n", "6", *variant)
        doc = json.loads(out)
        assert rc == 1
        assert (doc["equal"], doc["lemma_entries"], doc["lemma_equal"]) == (True, 21, False)

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
            ["--model", "avalanche", "--N", "3", "--p", "1/4", "--digits", "5"],
            ["--model", "abelian", "--N", "3", "--p", "1/4", "--format", "json", "--digits", "17"],
            ["--model", "limit", "--alpha", "1", "--amax", "5", "--format", "csv", "--digits", "5"],
            ["--model", "limit", "--alpha", "1", "--amax", "5", "--digits", "17"],
        ],
    )
    def test_digits_where_they_do_not_apply_is_usage_error(self, capsys, monkeypatch, args):
        # JSON holds exact terms and the limit law prints repr floats, so
        # --digits would be ignored; it is refused before any law is computed
        import avalanches.cli as cli_mod

        def refuse(*a):
            raise AssertionError("a law was computed")

        for name in ("avalanche_pmf", "abelian_pmf", "conditional_pmf", "limit_pmf"):
            monkeypatch.setattr(cli_mod, name, refuse)
        rc, out, err = run_cli(capsys, "pmf", *args)
        assert (rc, out) == (2, "")
        assert err == "error: --digits applies only to CSV output of the exact laws\n"

    @pytest.mark.parametrize(
        "law, digits, digest",
        [
            ("avalanche", "5", "791c9b409ebf0eb1b158394b2db1ff9f26c934c5a09102f1a55c0e28de988ebe"),
            ("avalanche", "40", "f0880406f15c15fa8661f4c1b00c3988ad3ff97c5e952374d635e75a477241ed"),
            ("abelian", "1", "0a7845d9d728034beafe9724ae35e08af4379bf9e2e2067c2b262da8f4c5ffaa"),
            ("abelian", "17", "7094e3b43576dd15faeaad6d27dacb445eb574eeee33421ff3631de3c1250870"),
            ("conditional", "5", "78edb4536ca5fd3d9f9dc5621aaa18ba4cfe5e4c0dd58892f1ee3f6b2206e25e"),
            ("conditional", "40", "c6423b33d9c1944df5bae0ef700e7da22c83bc4ae4ac0fa260a7a6bc49bb7e96"),
        ],
    )
    def test_csv_digits_of_the_exact_laws_keep_their_bytes(self, capsys, law, digits, digest):
        # digests of the CSV rows as written before --digits could be refused
        args = ["pmf", "--model", law, "--N", "30", "--p", "2/61", "--format", "csv"]
        rc, out, _ = run_cli(capsys, *args, "--digits", digits)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if digits == "17":
            assert run_cli(capsys, *args) == (0, out, "")

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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["pmf", "--model", "limit", "--alpha", "1"], "limit model needs --alpha and --amax"),
            (["pmf", "--model", "avalanche", "--N", "3", "--p", "1/4", "--amax", "5"],
             "--alpha/--amax apply only to the limit model"),
            (["pmf", "--model", "avalanche", "--N", "0", "--p", "1/4"], "N must be >= 1"),
            (["tail", "--alpha", "1", "--amax", "10", "--fit-window", "10"], "--fit-window expects"),
            (["tail", "--alpha", "1", "--amax", "0"], "no representable tail rows"),
        ],
    )
    def test_malformed_law_request_is_usage_error(self, capsys, args, message):
        rc, out, err = run_cli(capsys, *args)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="Python 3.10 parses any length"
    )
    def test_p_past_int_digit_limit_is_usage_error(self, capsys):
        p = "1/1" + "0" * 4400
        rc, out, err = run_cli(capsys, "pmf", "--model", "avalanche", "--N", "2", "--p", p)
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot parse") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            (["pmf", "--model", "limit", "--alpha", "x" * 10**5, "--amax", "5"],
             "cannot parse alpha"),
            (["pmf", "--model", "limit", "--alpha", "1/1" + "0" * 4000, "--amax", "5"],
             "underflows to 0"),
            (["tail", "--alpha", "1", "--amax", "10", "--fit-window", "1," * 10**5],
             "--fit-window expects"),
            (["simulate", "--model", "tower", "--uniform", "8," * 10**5, "--trials", "1"],
             "--uniform expects"),
            (["simulate", "--model", "tower", "--coord", "8," * 10**5, "--trials", "1"],
             "--coord expects"),
        ],
    )
    def test_a_long_typed_value_is_echoed_cut(self, capsys, args, message):
        rc, out, err = run_cli(capsys, *args)
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and len(err.encode()) < 300 and message in err


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

    def test_exact_oracle_mismatch_exits_1(self, capsys, monkeypatch):
        # the laws are compared term by term, cross-multiplied over their denominators
        import avalanches.cli as cli_mod
        from avalanches.urn import UrnConfig, urn_pmf_bruteforce

        monkeypatch.setattr(
            cli_mod, "urn_pmf_bruteforce", lambda cfg: urn_pmf_bruteforce(UrnConfig(cfg.N, cfg.M + 1))
        )
        rc, out, _ = run_cli(
            capsys,
            "simulate", "--model", "urn", "--N", "3", "--M", "5",
            "--trials", "100", "--seed", "1", "--exact-oracle",
        )
        assert rc == 1
        assert json.loads(out)["oracle"]["equal"] is False

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
            "simulate", "--model", "urn", "--N", str(2**18), "--M", "5",
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

    def test_oversized_compare_pmf_refused_before_any_campaign(
        self, capsys, monkeypatch, tmp_path, no_campaign
    ):
        refuse_parsing(monkeypatch)
        pmf_path = tmp_path / "big.json"
        pmf_path.write_text(json.dumps(uniform_exact_pmf(PMF_N_CAP + 2)), encoding="utf-8")
        rc, out, err = run_cli(
            capsys,
            "simulate", "--model", "urn", "--N", "2", "--M", "4",
            "--trials", "100", "--compare", str(pmf_path),
        )
        assert (rc, out) == (3, "")
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert f"{PMF_N_CAP + 2} probabilities" in err

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
            (["--trials", str(2**62), "--shards", str(STREAM_CAP + 1)], 3, "resource limit: "),
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
        "size,other,refusal,code,message",
        [
            # M < N: AvalancheParams(N, 1/M) refuses; run first, the oracle would exit 3
            (["--N", "1413", "--M", "5"], "urn_pmf_bruteforce", ResourceLimitError, 2,
             "error: p must satisfy 0 <= p <= 1/N"),
            # over the leading-run cap; run first, the formula would exit 2
            (["--N", "250", "--M", "251"], "urn_pmf_formula", DomainError, 3,
             "resource limit: leading-run count"),
            # over the cap and outside the domain: the cap is checked first
            (["--N", "2236", "--M", "2"], "urn_pmf_formula", DomainError, 3,
             "resource limit: leading-run count"),
        ],
    )
    def test_urn_oracle_refused_before_either_law(
        self, capsys, monkeypatch, no_campaign, size, other, refusal, code, message
    ):
        import avalanches.cli as cli_mod

        def refuse(*args):
            raise refusal("the other law refused first")

        monkeypatch.setattr(cli_mod, other, refuse)
        rc, out, err = run_cli(
            capsys, "simulate", "--model", "urn", *size, "--trials", "10", "--exact-oracle"
        )
        assert (rc, out) == (code, "")
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
        # one stream on each shard that gets a trial, all of them here
        rc, out, err = run_cli(
            capsys,
            "simulate", "--model", "urn", "--N", "2", "--M", "4",
            "--trials", shards, "--shards", shards,
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

    @pytest.mark.parametrize(
        "model,code,message",
        [
            (["--model", "urn", "--N", "2", "--M", "4", "--coord", "8,1,3"], 2, "apply only"),
            (["--model", "tower", "--uniform", "8,1,3,3", "--N", "3"], 2, "apply only"),
            (["--model", "urn", "--N", "3"], 2, "needs --N and --M"),
            (["--model", "urn", "--N", "3", "--M", str(2**64)], 2, "2^63"),
            (["--model", "urn", "--N", str(2**18), "--M", "5", "--exact-oracle"], 3, "transitions"),
            (
                ["--model", "tower", *(f"--coord={L},1,16" for L in range(17, 33)),
                 "--exact-oracle"],
                3, "transitions",
            ),
            (["--model", "urn", "--N", "0", "--M", "5"], 2, "error: N must be >= 1"),
            (["--model", "urn", "--N", "3", "--M", "0"], 2, "error: M must be >= 1"),
            (["--model", "tower", "--uniform", "8,1,3"], 2, "error: --uniform expects"),
            (["--model", "tower", "--coord", "8,1"], 2, "error: --coord expects"),
            (["--model", "tower", "--uniform", "5,1,-1,3"], 2, "error: height must be >= 0"),
            (["--model", "tower", "--uniform", "9,1,4,0"], 2, "error: a system needs"),
        ],
    )
    def test_refusals_come_before_the_compare_document_is_read(
        self, capsys, monkeypatch, no_campaign, no_oracles, model, code, message
    ):
        import avalanches.cli as cli_mod

        def refuse(*args):
            raise AssertionError("the --compare document was read")

        monkeypatch.setattr(cli_mod, "_load_json", refuse)
        rc, out, err = run_cli(
            capsys, "simulate", *model, "--trials", "10", "--compare", "unread.json"
        )
        assert (rc, out) == (code, "")
        assert err.count("\n") == 1 and message in err

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
            (["--model", "urn", "--N", str(2**18), "--M", "5"], 3, "resource limit: "),
            (["--model", "urn", "--N", "5", "--M", "4"], 2, "error: "),
            (["--model", "tower", "--uniform", "217,1,216,216"], 3, "resource limit: "),
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
            ["--model", "tower", "--uniform", f"{2**18},1,{2**17},{STREAM_CAP + 1}"],
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
        import avalanches.sampling as sampling_mod
        import avalanches.towers as towers_mod

        def refuse(*args):
            raise AssertionError("a stream was built")

        monkeypatch.setattr(sampling_mod, "STREAM_CAP", 2)
        monkeypatch.setattr(towers_mod, "SplitMix64", refuse)
        rc, out, err = run_cli(capsys, "simulate", "--model", "tower", *system, "--trials", "10")
        assert (rc, out) == (3, "")
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert "cap of 2" in err

    @pytest.mark.parametrize(
        "system, trials, shards",
        [
            (["--model", "tower", "--uniform", "8,1,4,3"], 2**16, 2**15),
            (["--model", "tower", "--uniform", f"{2**16 + 2},1,{2**15},{2**15}"], 10, 3),
            # just over: 3 x 21846 streams
            (["--model", "tower", "--coord", "8,1,4", "--coord", "9,1,4", "--coord", "10,1,4"],
             10**6, 2**16 // 3 + 1),
            # one stream on each shard that gets a trial
            (["--model", "urn", "--N", "20", "--M", "100"], STREAM_CAP + 1, 2**62),
            (["--model", "urn", "--N", "20", "--M", "100"], 2**62, STREAM_CAP + 1),
            (["--model", "tower", "--uniform", "5,1,2,1"], STREAM_CAP + 1, 2**62),
        ],
    )
    def test_stream_cap_exits_before_any_oracle_or_stream(
        self, capsys, no_oracles, monkeypatch, system, trials, shards
    ):
        # streams x shards with a trial, checked before the oracles and the
        # --compare read
        import avalanches.cli as cli_mod
        import avalanches.towers as towers_mod
        import avalanches.urn as urn_mod

        def refuse(*args):
            raise AssertionError("a stream was built or the --compare document read")

        for mod, name in ((cli_mod, "_load_json"), (urn_mod, "SplitMix64"), (towers_mod, "SplitMix64")):
            monkeypatch.setattr(mod, name, refuse)
        rc, out, err = run_cli(
            capsys, "simulate", *system, "--trials", str(trials), "--shards", str(shards),
            "--exact-oracle", "--compare", "unread.json",
        )
        assert (rc, out) == (3, "")
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert f"streams exceed the cap of {STREAM_CAP}" in err

    def test_urn_oracle_cap_checked_before_the_law(self, capsys, no_campaign, monkeypatch):
        # (2^18, 5) needs 5 x (2^18 + 1)^2 leading-run transitions, past the
        # oracle's cap, so the closed formula is never evaluated at that size
        import avalanches.cli as cli_mod

        def refuse(*args):
            raise AssertionError("the exact law was built")

        monkeypatch.setattr(cli_mod, "urn_pmf_formula", refuse)
        rc, out, err = run_cli(
            capsys, "simulate", "--model", "urn", "--N", str(2**18), "--M", "5",
            "--trials", "10", "--exact-oracle",
        )
        assert (rc, out) == (3, "")
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert "transitions" in err

    def test_tower_oracle_caps_checked_before_the_law(self, capsys, no_campaign, monkeypatch):
        # 16 distinct types need 16 x 2^16 x 17 leading-run transitions, past
        # the oracle's cap, so the exact law is never built at that size
        import avalanches.cli as cli_mod

        def refuse(*args):
            raise AssertionError("the exact law was built")

        monkeypatch.setattr(cli_mod, "avalanche_pmf_general", refuse)
        coords = [arg for L in range(17, 33) for arg in ("--coord", f"{L},1,16")]
        rc, out, err = run_cli(
            capsys, "simulate", "--model", "tower", *coords, "--trials", "10", "--exact-oracle"
        )
        assert (rc, out) == (3, "")
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert "transitions" in err

    def test_tower_oracle_scans_each_type_once(self, capsys):
        # 100 coordinates of one type: one walk of (100+1)*1 states, not 100 walks
        rc, out, _ = run_cli(
            capsys, "simulate", "--model", "tower", "--uniform", "5000,1,100,100",
            "--trials", "1000", "--seed", "1", "--exact-oracle",
        )
        assert rc == 0
        assert json.loads(out)["oracle"]["equal"] is True

    def test_tower_oracle_scan_cap_checked_before_the_scan(
        self, capsys, no_campaign, monkeypatch
    ):
        # two distinct types walking (2+1)*40,000 and (2+1)*50,000 states,
        # past the cap of 10^5
        import avalanches.towers as towers_mod

        def refuse(*args):
            raise AssertionError("a coordinate was scanned")

        monkeypatch.setattr(towers_mod, "_hit_classes", refuse)
        rc, out, err = run_cli(
            capsys, "simulate", "--model", "tower", "--coord", "200000,40000,3",
            "--coord", "200000,50000,3", "--trials", "10", "--exact-oracle",
        )
        assert (rc, out) == (3, "")
        assert err == (
            "resource limit: 270000 coordinate states to scan exceed the cap of 100000\n"
        )


class TestSizeCaps:
    """Each size input has a cap that exits 3 before any work starts."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        import avalanches.cli as cli_mod

        def refuse(*args):
            raise AssertionError("the work started")

        for name in ("avalanche_pmf", "abelian_pmf", "conditional_pmf", "limit_pmf"):
            monkeypatch.setattr(cli_mod, name, refuse)
        identity = ("lemma_table", "identity_lhs", "forest_identity_lhs", "induction_step_check")
        for name in (*identity, "tree_census"):
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
            # 2000 x 13 bits, where 1/2048 has 12
            *(
                ["pmf", "--model", law, "--N", str(PMF_N_CAP), "--p", "1/4096"]
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

    @pytest.mark.parametrize("law", ["avalanche", "abelian", "conditional"])
    def test_terms_at_the_bits_cap_run(self, capsys, law):
        # N = 2 at a denominator of PMF_BITS_CAP / 2 bits
        v = 2 ** (PMF_BITS_CAP // 2 - 1)
        rc, out, _ = run_cli(capsys, "pmf", "--model", law, "--N", "2", "--p", f"1/{v}")
        assert rc == 0
        assert len(json.loads(out)["probs"]) == (3 if law == "avalanche" else 2)

    @pytest.mark.parametrize("law", ["avalanche", "abelian", "conditional"])
    def test_terms_past_the_bits_cap_exit_3(self, capsys, no_work, law):
        # two bits over, the least N = 2 can be
        p = f"1/{2 ** (PMF_BITS_CAP // 2)}"
        rc, out, err = run_cli(capsys, "pmf", "--model", law, "--N", "2", "--p", p)
        assert (rc, out) == (3, "")
        assert err == (
            f"resource limit: --N times the bits of p's denominator, {PMF_BITS_CAP + 2} "
            f"exceeds the cap of {PMF_BITS_CAP}\n"
        )


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

    @pytest.mark.parametrize(
        "doc",
        [
            uniform_exact_pmf(PMF_N_CAP + 2),
            {"exact": False, "label": "f", "support": list(range(AMAX_CAP + 2)),
             "probs": [1 / (AMAX_CAP + 2)] * (AMAX_CAP + 2)},
        ],
        ids=["exact", "float"],
    )
    def test_oversized_stored_pmf_exits_3_before_parsing(self, capsys, monkeypatch, tmp_path, doc):
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        refuse_parsing(monkeypatch)
        pmf_path.write_text(json.dumps(doc), encoding="utf-8")
        rc, out, err = run_cli(capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path))
        assert (rc, out) == (3, "")
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert f"{len(doc['probs'])} probabilities" in err

    def test_stored_pmf_at_the_cap_reads(self, capsys, tmp_path):
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        pmf_path.write_text(json.dumps(uniform_exact_pmf(PMF_N_CAP + 1)), encoding="utf-8")
        rc, out, _ = run_cli(capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path))
        assert rc == 0
        assert json.loads(out)["trials"] == 1000

    @pytest.mark.parametrize(
        "probs, code",
        [
            (["18/32", "2/8", "3/16", "0"], 0),
            (["9/16", "4/16", "6/32", "0/7"], 0),
            (["9/0", "1/4", "3/16", "0/1"], 2),  # zero denominator
            (["9/16", "-1/4", "11/16", "0/1"], 2),  # a negative term, though the mass is 1
            (["9/16", "1/4", "1/16", "0/1"], 2),  # mass 7/8
            ([0.5625, "1/4", "3/16", "0/1"], 2),  # not a string
        ],
        ids=["unreduced-and-bare", "unreduced", "zero-den", "negative", "mass", "not-a-string"],
    )
    def test_stored_exact_terms(self, capsys, tmp_path, probs, code):
        # the law of the stored run, (9/16, 1/4, 3/16) on 0..2, with a zero at 3
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        doc = {"exact": True, "label": "x", "support": [0, 1, 2, 3]}
        pmf_path.write_text(json.dumps({**doc, "probs": ["9/16", "1/4", "3/16", "0/1"]}))
        want = run_cli(capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path))
        assert want[0] == 0
        pmf_path.write_text(json.dumps({**doc, "probs": probs}))
        rc, out, err = run_cli(capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path))
        if code:
            assert (rc, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert (rc, out, err) == want

    @pytest.mark.parametrize("which", ["sim", "pmf", "simulate"])
    def test_oversized_stored_file_exits_3_before_reading(
        self, capsys, monkeypatch, tmp_path, which
    ):
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        big = tmp_path / "big.json"
        with open(big, "wb") as fh:
            fh.truncate(STORED_BYTES_CAP + 1)  # sparse: never read

        load = json.load

        def load_all_but_big(fh, **kwargs):
            assert fh.name != str(big), "the file was read"
            return load(fh, **kwargs)

        monkeypatch.setattr(json, "load", load_all_but_big)
        paths = {"sim": sim_path, "pmf": pmf_path, which: big}
        if which == "simulate":
            args = ["simulate", "--model", "urn", "--N", "2", "--M", "4", "--trials", "10",
                    "--compare", str(big)]
        else:
            args = ["compare", "--sim", str(paths["sim"]), "--pmf", str(paths["pmf"])]
        rc, out, err = run_cli(capsys, *args)
        assert (rc, out) == (3, "")
        assert err == (
            f"resource limit: {big} of {STORED_BYTES_CAP + 1} bytes exceeds the cap of "
            f"{STORED_BYTES_CAP}\n"
        )

    def test_stored_file_at_the_byte_cap_reads(self, capsys, tmp_path):
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        text = pmf_path.read_bytes()
        pmf_path.write_bytes(text + b" " * (STORED_BYTES_CAP - len(text)))
        assert pmf_path.stat().st_size == STORED_BYTES_CAP
        rc, out, _ = run_cli(capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path))
        assert rc == 0
        assert json.loads(out)["trials"] == 1000

    def test_long_probs_that_are_not_a_list_exit_2(self, capsys, tmp_path):
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        doc = {**uniform_exact_pmf(3), "probs": "1/3," * (PMF_N_CAP + 2)}
        pmf_path.write_text(json.dumps(doc), encoding="utf-8")
        self.assert_usage_error(capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path))

    def test_simulate_compare_malformed_pmf(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        self.assert_usage_error(
            capsys,
            "simulate", "--model", "urn", "--N", "2", "--M", "4",
            "--trials", "100", "--compare", str(bad),
        )

    def reader_args(self, capsys, tmp_path, which, bad):
        """Arguments that make ``which`` reader read the document ``bad``."""
        paths = dict(zip(("sim", "pmf"), self.stored_run(capsys, tmp_path)))
        if which == "simulate":
            return ["simulate", "--model", "urn", "--N", "2", "--M", "4", "--trials", "1000",
                    "--seed", "3", "--compare", str(bad)]
        paths[which] = bad
        return ["compare", "--sim", str(paths["sim"]), "--pmf", str(paths["pmf"])]

    @pytest.mark.parametrize("which", ["sim", "pmf", "simulate"])
    @pytest.mark.parametrize("shape", ["array", "probs"])
    def test_deeply_nested_document(self, capsys, tmp_path, which, shape):
        # json.load recurses once per level: 100,000 levels of bare arrays
        # (200 KB), or a valid law whose probs sit 50,000 levels down
        bad = tmp_path / "nested.json"
        if shape == "array":
            bad.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        else:
            law = {**uniform_exact_pmf(2), "probs": "PROBS"}
            text = json.dumps(law).replace('"PROBS"', "[" * 50_000 + '"1/2", "1/2"' + "]" * 50_000)
            bad.write_text(text, encoding="utf-8")
        args = self.reader_args(capsys, tmp_path, which, bad)
        rc, out, err = run_cli(capsys, *args)
        assert (rc, out, err) == (2, "", f"error: {bad} is nested too deeply to read\n")

    @pytest.mark.parametrize("which", ["pmf", "simulate"])
    @pytest.mark.parametrize("bits", [PMF_BITS_CAP, PMF_BITS_CAP + 1])
    def test_stored_denominators_lcm_cap(self, capsys, monkeypatch, tmp_path, which, bits):
        # the stored run's law (9/16, 1/4, 3/16) over 2^(bits-1), a denominator
        # of `bits` bits: read at the cap, refused one bit over it before any
        # numerator is scaled
        import avalanches.serialize as ser_mod

        scale = 2 ** (bits - 1) // 16
        with ser_mod.unlimited_int_digits():
            probs = [f"{x * scale}/{16 * scale}" for x in (9, 4, 3)]
        doc = {"exact": True, "label": "x", "support": [0, 1, 2], "probs": probs}
        law = tmp_path / "law.json"
        law.write_text(json.dumps(doc), encoding="utf-8")
        args = self.reader_args(capsys, tmp_path, which, law)
        if bits <= PMF_BITS_CAP:
            want = run_cli(capsys, *args)
            law.write_text(json.dumps({**doc, "probs": ["9/16", "1/4", "3/16"]}))
            assert want[0] == 0 and run_cli(capsys, *args) == want
            return

        def refuse(*args):
            raise AssertionError("a numerator was scaled")

        monkeypatch.setattr(ser_mod, "common_denominator", refuse)
        rc, out, err = run_cli(capsys, *args)
        assert (rc, out) == (3, "")
        assert err == (
            "resource limit: the lcm of the exact probs' denominators exceeds the cap of "
            f"{PMF_BITS_CAP} bits\n"
        )

    def test_many_long_denominators_exit_3_at_once(self, capsys, tmp_path):
        # 2,001 distinct denominators of 7,000 digits: their lcm took minutes
        # before the mass check refused the document
        n = PMF_N_CAP + 1
        probs = [f"1/9{i:04}" + "7" * 6995 for i in range(n)]
        doc = {"exact": True, "label": "x", "support": list(range(n)), "probs": probs}
        law = tmp_path / "law.json"
        law.write_text(json.dumps(doc), encoding="utf-8")
        args = self.reader_args(capsys, tmp_path, "pmf", law)
        rc, out, err = run_cli(capsys, *args)
        assert (rc, out) == (3, "")
        assert "lcm of the exact probs' denominators" in err and err.count("\n") == 1

    @pytest.mark.parametrize("where", ["num", "den"])
    def test_stored_number_longer_than_any_law_exits_3(self, capsys, monkeypatch, tmp_path, where):
        # one number with more digits than 2^PMF_BITS_CAP is refused before
        # it is converted, which takes time quadratic in its digits
        import avalanches.serialize as ser_mod

        digits = ser_mod._PMF_DIGITS_CAP
        long = "00" + "9" * (digits + 1)
        prob = f"{long}/7" if where == "num" else f"1/{long}"
        doc = {"exact": True, "label": "x", "support": [0, 1], "probs": [prob, "1/2"]}
        law = tmp_path / "law.json"
        law.write_text(json.dumps(doc), encoding="utf-8")
        args = self.reader_args(capsys, tmp_path, "pmf", law)

        def refuse(*args):
            raise AssertionError("a denominator was converted")

        monkeypatch.setattr(ser_mod, "_denominator", refuse)
        rc, out, err = run_cli(capsys, *args)
        assert (rc, out) == (3, "")
        assert err == (
            f"resource limit: an exact prob with a number of {digits + 1} digits exceeds "
            f"the cap of {digits} ({PMF_BITS_CAP} bits)\n"
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

    def test_trials_past_the_float_range_exit_2(self, capsys, tmp_path):
        # no count of such a run converts to a float, so no statistic exists
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        doc = json.loads(sim_path.read_text(encoding="utf-8"))
        doc["trials"], doc["histogram"] = 10**400, {"0": 10**400}
        sim_path.write_text(json.dumps(doc), encoding="utf-8")
        rc, out, err = run_cli(capsys, "compare", "--sim", str(sim_path), "--pmf", str(pmf_path))
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "float range" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_min_expected_must_be_finite(self, capsys, tmp_path, bad):
        sim_path, pmf_path = self.stored_run(capsys, tmp_path)
        rc, out, err = run_cli(
            capsys,
            "compare", "--sim", str(sim_path), "--pmf", str(pmf_path), f"--min-expected={bad}",
        )
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and "min_expected must be finite" in err

    @pytest.mark.parametrize(
        "doc, field, value, message",
        [
            ("pmf", "probs", [["7" * 10**6], "1/4", "1/4"], "must be a JSON string"),
            ("pmf", "probs", ["7" * 10**6 + "x", "1/4", "1/4"], "exact rational like 3/40"),
            ("pmf", "probs", ["1/" + "0" * 10**6, "1/4", "1/4"], "zero denominator"),
            ("sim", "histogram", {"7" * 10**6: 1, "0": 999}, "histogram key must be"),
        ],
    )
    def test_a_long_stored_value_is_echoed_cut(self, capsys, tmp_path, doc, field, value, message):
        # echoed whole, each value would make a one-line error of a million bytes
        paths = dict(zip(("sim", "pmf"), self.stored_run(capsys, tmp_path)))
        stored = json.loads(paths[doc].read_text(encoding="utf-8"))
        stored[field] = value
        paths[doc].write_text(json.dumps(stored), encoding="utf-8")
        rc, out, err = run_cli(
            capsys, "compare", "--sim", str(paths["sim"]), "--pmf", str(paths["pmf"])
        )
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and len(err.encode()) < 300 and message in err
        assert "characters)" in err


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


class TestParserReuse:
    """main builds its parser once and reuses it; no call leaks into the next."""

    def test_built_once(self, capsys):
        import avalanches.cli as cli_mod

        parser = cli_mod.build_parser()
        run_cli(capsys, *PMF_SHORT)
        assert cli_mod.build_parser() is parser

    def test_repeated_coord_does_not_accumulate(self, capsys):
        two = ["--coord", "6,1,2", "--coord", "8,2,2"]
        args = ["simulate", "--model", "tower", "--trials", "100", "--seed", "1"]
        first = stdout_of(capsys, [*args, *two])
        assert json.loads(first)["coords"] == [[6, 1, 2], [8, 2, 2]]
        assert stdout_of(capsys, [*args, *two]) == first
        one = json.loads(stdout_of(capsys, [*args, "--coord", "6,1,2"]))
        assert one["coords"] == [[6, 1, 2]]

    def test_usage_exit_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pmf", "--model", "avalanche", "--N"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert json.loads(stdout_of(capsys, PMF_SHORT))["support"] == list(range(6))

    def test_each_command_matches_a_fresh_parser(self, capsys, monkeypatch, tmp_path):
        import avalanches.cli as cli_mod

        sim, pmf = str(tmp_path / "sim.json"), str(tmp_path / "pmf.json")
        commands = [
            ["identity", "--n", "6", "--s", "3"],
            ["trees", "--n", "4", "--format", "csv"],
            ["pmf", "--model", "abelian", "--N", "7", "--p", "1/9", "--out", pmf],
            ["simulate", "--model", "urn", "--N", "7", "--M", "9", "--trials", "500",
             "--shards", "3", "--out", sim],
            ["simulate", "--model", "tower", "--uniform", "8,1,3,3", "--trials", "200",
             "--exact-oracle"],
            ["tail", "--alpha", "1", "--amax", "60", "--fit-window", "10,50"],
            ["compare", "--sim", sim, "--pmf", pmf, "--format", "csv"],
        ]

        def outputs():
            got = []
            for argv in commands:
                got.append(stdout_of(capsys, argv))
                if "--out" in argv:
                    got.append(pathlib.Path(argv[argv.index("--out") + 1]).read_bytes())
            return got

        reused = outputs()
        monkeypatch.setattr(cli_mod, "build_parser", cli_mod.build_parser.__wrapped__)
        assert outputs() == reused


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


# each fuzzed flag draws from plain values, and in 15% of draws from values
# that most argvs refuse
_EXACT_FLAGS = {
    "--N": (["1", "5", "20"], ["-1", "0", "2001"]),
    "--p": (["1/6", "1/21", "0"], ["1/2", "-1/5", "1/0", "0.1", "x"]),
    "--digits": (["3", "12"], ["-1", "10001"]),
}
_CAMPAIGN_FLAGS = {
    "--trials": (["1", "10", "100"], ["-1", "0"]),
    "--seed": (["0", "7", str(2**64 - 1)], ["-1", str(2**64)]),
    "--shards": (["1", "2", str(2**62)], ["0"]),
    "--exact-oracle": None,
    "--compare": (["{pmf}"], ["{sim}", "{bad}", "{missing}", "{dir}"]),
}


class TestArgvFuzz:
    """Seeded argvs drawn from a fixed vocabulary of small values: each one
    exits 0, 2 or 3, argparse's usage errors as SystemExit(2) and every
    other 2 or 3 as one stderr line."""

    RUNS = 300
    # argv heads with the flags that belong to them; None marks a switch
    HEADS = [
        (["identity"], {"--n": (["1", "3", "8"], ["-1", "0", "151", "x"]),
                        "--s": (["1", "2"], ["-1", "9"]), "--forest": None}),
        (["trees"], {"--n": (["1", "5", "8"], ["-1", "0", "16", "x"])}),
        (["pmf", "--model", "avalanche"], _EXACT_FLAGS),
        (["pmf", "--model", "abelian"], _EXACT_FLAGS),
        (["pmf", "--model", "conditional"], _EXACT_FLAGS),
        (["pmf", "--model", "limit"], {"--alpha": (["0.5", "1", "1/3"], ["-1", "1e400", "x"]),
                                       "--amax": (["0", "5", "50"], ["-1", "100001"])}),
        (["simulate", "--model", "urn"], {"--N": (["1", "3", "8"], ["-1", "0"]),
                                          "--M": (["1", "3", "10"], ["0"]), **_CAMPAIGN_FLAGS}),
        (["simulate", "--model", "tower"], {
            "--coord": (["12,1,3", "9,1,3", "10,2,3"], ["4,1,1", "3,2,1", "0,1,1", "1,2", "x"]),
            "--uniform": (["64,1,8,8", "11,1,9,9", "5,1,1,1"], ["4,1,1,2", "1,1,1", "x"]),
            **_CAMPAIGN_FLAGS,
        }),
        (["tail"], {"--alpha": (["0.5", "1"], ["-1", "0", "1e400", "x"]),
                    "--amax": (["20", "60"], ["-1", "5", "100001"]),
                    "--fit-window": (["2,10", "5,20"], ["10,2", "0,0", "x"])}),
        (["compare"], {"--sim": (["{sim}"], ["{pmf}", "{bad}", "{missing}", "{dir}"]),
                       "--pmf": (["{pmf}"], ["{sim}", "{bad}", "{missing}", "{dir}"]),
                       "--min-expected": (["0", "5"], ["-1", "nan", "x"])}),
    ]
    # flags a head cannot do without are given in 9 draws of 10, the rest in 4
    EXPECTED = {"--n", "--N", "--M", "--p", "--alpha", "--amax", "--trials", "--sim", "--pmf"}
    OUTPUT = {"--format": (["json", "csv"], ["xml"]), "--out": (["{out}"], ["{dir}"])}
    STRAYS = ["--bogus", "--N", "--coord", "--alpha", "--digits", "--s"]

    def draw(self, rng, paths):
        head, flags = rng.choice(self.HEADS)
        argv = list(head)
        for flag, values in [*flags.items(), *self.OUTPUT.items()]:
            if flag == "--coord":
                times = rng.choice((0, 1, 2, 3))
            else:
                times = rng.random() < (0.9 if flag in self.EXPECTED else 0.4)
            for _ in range(times):
                argv.append(flag)
                if values is not None:
                    good, bad = values
                    argv.append(rng.choice(bad if rng.random() < 0.15 else good).format(**paths))
        if rng.random() < 0.05:
            argv += [rng.choice(self.STRAYS), "3"]
        return argv

    def test_every_exit_is_0_2_or_3(self, capsys, tmp_path):
        paths = {
            name: str(tmp_path / f"{name}.json")
            for name in ("pmf", "sim", "bad", "missing", "out")
        }
        paths["dir"] = str(tmp_path)
        assert run_cli(capsys, *PMF_SHORT, "--out", paths["pmf"])[0] == 0
        assert run_cli(
            capsys, "simulate", "--model", "urn", "--N", "5", "--M", "30",
            "--trials", "100", "--out", paths["sim"],
        )[0] == 0
        pathlib.Path(paths["bad"]).write_text("{")
        rng = random.Random(20261021)
        codes = []
        for _ in range(self.RUNS):
            argv = self.draw(rng, paths)
            try:
                rc = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                capsys.readouterr()
                codes.append("usage")
                continue
            err = capsys.readouterr().err
            assert rc in (0, 2, 3), argv
            if rc:
                prefix = "error: " if rc == 2 else "resource limit: "
                assert err.startswith(prefix) and err.endswith("\n"), (argv, err)
                assert err.count("\n") == 1, (argv, err)
            codes.append(rc)
        # the draw reaches every outcome
        assert {"usage", 0, 2, 3} <= set(codes)
