"""Pinned bytes of `simulate` output for the urn and tower samplers.

The digests were taken from the sort-based urn statistic and the iterated
tower fixed point, fed by the allocate-per-pass draws, before the shared
leading-run kernel replaced them; any change to a histogram, a stream
position, a parameter echo or the JSON rendering changes them.  Each case
hashes its output over seeds {0, 42} x shards {1, 3}.  Bound 2^62+1 rejects
about a quarter of the raw outputs, so it exercises the refill branch of the
bounded draws; 70000 trials on one shard crosses a sampler block boundary.
"""

import hashlib

import pytest

from avalanches.cli import main

BIG = 2**62 + 1

CASES = {
    "urn-1-1": ["--model", "urn", "--N", "1", "--M", "1", "--trials", "3000"],
    "urn-5-3": ["--model", "urn", "--N", "5", "--M", "3", "--trials", "3000"],
    "urn-7-7": ["--model", "urn", "--N", "7", "--M", "7", "--trials", "3000"],
    "urn-7-8": ["--model", "urn", "--N", "7", "--M", "8", "--trials", "3000"],
    "urn-20-100": ["--model", "urn", "--N", "20", "--M", "100", "--trials", "70000"],
    "urn-5-big": ["--model", "urn", "--N", "5", "--M", str(BIG), "--trials", "3000"],
    "tower-uniform": ["--model", "tower", "--uniform", "64,1,8,8", "--trials", "70000"],
    "tower-het": [
        "--model", "tower", "--coord", "9,1,3", "--coord", "16,2,3", "--coord", "13,3,3",
        "--trials", "3000",
    ],
    "tower-big": [
        "--model", "tower", "--coord", f"{BIG},{2**60},2", "--coord", f"{BIG},{3 * 2**58},2",
        "--trials", "3000",
    ],
}

GOLDEN = {
    "urn-1-1":
        "beb836f11de62ff0abf1cb514de24d396645a838568afda65f5d520454d66ed4",
    "urn-5-3":
        "cbdac74e765e12f61e6aac69fd9ad01b1dac3018df7bd24c6f478d06919b9a04",
    "urn-7-7":
        "5203c3aa8aaf78e62a1041eea6fe43a7d56a24db4068375e3327eda83506a965",
    "urn-7-8":
        "043242677ba71d39c85de11eb922e742dd28fab3c1139c887df24f09f046a853",
    "urn-20-100":
        "edf94be22f0b24a573bea28b3529ce74d255cb72b215d419f707c01a4be54d27",
    "urn-5-big":
        "e2296c3dfcd72a7f3654f1f3a20f4e0528904081b0654c8f96b7ea573e1a49e5",
    "tower-uniform":
        "1f303083cfda14d49583d6494b023429ad4281836b2c80ab7aa45d4eb1611451",
    "tower-het":
        "d9322d519874637449a4f442efd342017535641f20310b1010870dd787fa4a0f",
    "tower-big":
        "0f79efc477ad5c2d96e1b5c524c3218f4242bb64a91fe0c7af7f7889a566f81f",
}

COMPARE_GOLDEN = "8ba9bcf5dcbd543a2c123ccc93e34cf6a74aa9abed2f79fb38b17e94b97e38fe"


def run_bytes(argv, out):
    rc = main(["simulate", *argv, "--out", str(out)])
    assert rc == 0, argv
    return out.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_bytes_match_golden(case, tmp_path):
    h = hashlib.sha256()
    for seed in (0, 42):
        for shards in (1, 3):
            flags = ["--seed", str(seed), "--shards", str(shards)]
            h.update(run_bytes([*CASES[case], *flags], tmp_path / "sim.json"))
    assert h.hexdigest() == GOLDEN[case]


def test_compare_document_matches_golden(tmp_path):
    ref = tmp_path / "ref.json"
    assert main(["pmf", "--model", "avalanche", "--N", "20", "--p", "1/100", "--out", str(ref)]) == 0
    argv = [*CASES["urn-20-100"], "--seed", "42", "--shards", "3", "--compare", str(ref)]
    data = run_bytes(argv, tmp_path / "sim.json")
    assert hashlib.sha256(data).hexdigest() == COMPARE_GOLDEN
