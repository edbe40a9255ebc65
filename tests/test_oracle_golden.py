"""Pinned bytes of `simulate --exact-oracle` output.

Each document holds the sampled histogram and both exact laws, the
exhaustive oracle's and the closed form's, written in lowest terms.  The
digests were taken from the writer that reduced each term as a Fraction,
before exact pmfs held integer numerators over one denominator; any change
to a law, its reduced terms, a label or the JSON rendering changes them.
Every case runs 1,000 trials with seed 1.
"""

import hashlib

import pytest

from avalanches.cli import main

CASES = {
    "urn-7-8": ["--model", "urn", "--N", "7", "--M", "8"],
    "urn-7-7": ["--model", "urn", "--N", "7", "--M", "7"],
    "urn-20-21": ["--model", "urn", "--N", "20", "--M", "21"],
    "urn-200-201": ["--model", "urn", "--N", "200", "--M", "201"],
    "tower-uniform-11-9": ["--model", "tower", "--uniform", "11,1,9,9"],
    "tower-het-3": [
        "--model", "tower", "--coord", "9,1,3", "--coord", "16,2,3", "--coord", "13,3,3",
    ],
    "tower-het-4": [
        "--model", "tower", "--coord", "7,1,4", "--coord", "9,1,4", "--coord", "11,1,4",
        "--coord", "13,1,4",
    ],
}

GOLDEN = {
    "urn-7-8":
        "3b85c77081fe58a97340c6983594d226ee33b99250e597e543b4973b8b989422",
    "urn-7-7":
        "e6ea13442be83a70866ed213ffcb2a520a1dfdc06056b2ba419c3a3e05a92b1e",
    "urn-20-21":
        "709cd6d5774bf07088ed97d1a255fcad093ed006829512cfbe54242fa8e14baf",
    "urn-200-201":
        "94aa58d1d42f15b5be2b3bc4c2496fa5cde9173bc4c2e6711062512955fdb66f",
    "tower-uniform-11-9":
        "024897c7d5c90abaafebc72ffc38b24ab2e74121d9ce85b8da8822e83dec9504",
    "tower-het-3":
        "7c8641ef90d297ddb937c68c70042c1367603301ea1d924f9a8ae6a192ea79c5",
    "tower-het-4":
        "391c511c7d26f6ab1cf9d08ad55dc8d3584b0cc1504a252ab94c63127d733e50",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_oracle_bytes_match_golden(case, tmp_path):
    out = tmp_path / "sim.json"
    argv = [*CASES[case], "--trials", "1000", "--seed", "1", "--exact-oracle", "--out", str(out)]
    assert main(["simulate", *argv]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[case]
