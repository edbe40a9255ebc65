"""Pinned bytes of the documents that the exact-law goldens do not cover.

These are the float and count documents: `identity` (standard, `--s` and
`--forest`), `trees`, `pmf --model limit`, `tail`, `compare` against a stored
exact law and against a stored float law, and `simulate --format csv`.  Each
case hashes the concatenated output of its commands, in JSON and in CSV;
any change to a float, a count, a row's rendering or a field changes them.
The stored documents that `compare` reads are written by the CLI first.
"""

import hashlib

import pytest

from avalanches.cli import main

ALPHAS = ("0", "1/1000", "1/10", "1/2", "0.9", "1")

# each case: a list of argv, where "{dir}" stands for the test's directory
CASES = {
    "identity": [["identity", "--n", str(n)] for n in (1, 2, 3, 7, 20, 60)],
    "identity-s": [
        ["identity", "--n", str(n), "--s", str(s)]
        for n, s in ((1, 1), (5, 1), (5, 3), (12, 6), (12, 12), (40, 17))
    ],
    "identity-forest": [["identity", "--n", str(n), "--forest"] for n in (1, 2, 6, 30)],
    "trees": [["trees", "--n", str(n)] for n in range(1, 8)],
    "limit": [
        ["pmf", "--model", "limit", "--alpha", alpha, "--amax", amax]
        for alpha in ALPHAS
        for amax in ("0", "5", "300")
    ],
    "tail": [
        ["tail", "--alpha", alpha, "--amax", amax, "--fit-window", window]
        for alpha, amax, window in (
            ("1", "1000", "50,500"),
            ("1/2", "2000", "50,500"),
            ("1/10", "1000", "50,500"),  # the mass underflows near a = 530
            ("0.9", "12", "1,10"),
        )
    ],
    "compare-exact": [
        ["compare", "--sim", "{dir}/urn.json", "--pmf", "{dir}/exact.json"],
        ["compare", "--sim", "{dir}/urn.json", "--pmf", "{dir}/exact.json", "--min-expected", "1"],
        ["compare", "--sim", "{dir}/tower.json", "--pmf", "{dir}/tower-exact.json"],
    ],
    "compare-float": [
        ["compare", "--sim", "{dir}/urn.json", "--pmf", "{dir}/limit.json"],
        ["compare", "--sim", "{dir}/urn.json", "--pmf", "{dir}/limit.json", "--min-expected", "1"],
        ["compare", "--sim", "{dir}/tower.json", "--pmf", "{dir}/limit.json"],
    ],
}

SIMULATE_CSV = {
    "urn": ["--model", "urn", "--N", "20", "--M", "100", "--trials", "70000", "--shards", "3"],
    "tower": ["--model", "tower", "--uniform", "17,1,16,16", "--trials", "30000", "--shards", "2"],
}

# the stored documents that the compare cases read
STORED = {
    "urn.json": ["simulate", *SIMULATE_CSV["urn"], "--seed", "5"],
    "tower.json": ["simulate", *SIMULATE_CSV["tower"], "--seed", "5"],
    "exact.json": ["pmf", "--model", "avalanche", "--N", "20", "--p", "1/100"],
    "tower-exact.json": ["pmf", "--model", "avalanche", "--N", "16", "--p", "1/17"],
    "limit.json": ["pmf", "--model", "limit", "--alpha", "1/5", "--amax", "40"],
}

GOLDEN = {
    ("identity", "json"):
        "a0be1b837ccd0d773a4ec3a15aa6b1b8f76c606dd2342a0cdbd13c876e75ef77",
    ("identity", "csv"):
        "2e74726e72ce35c907960ffe0d5f6c83f4e66a82f491952c589cc516479b6758",
    ("identity-s", "json"):
        "d465356eac22571c95780f53d6be37e266ae9a5c4defbbb48433c073f5bec518",
    ("identity-s", "csv"):
        "c05d89269cf77e24d7cc1046e144f024dddc630007362b7ca81cf3f5bda70f5d",
    ("identity-forest", "json"):
        "42c9978e120093876cb3f76cba341ca9f7944c00fe4ca87aecb03955a697bf0d",
    ("identity-forest", "csv"):
        "37c3663458ba0482eab9c747fa3d3cbb88964401165d6efe1251386511eaf52f",
    ("trees", "json"):
        "466deba59e2c509a9470add297038e86ef88b191cb01ddb5e7ef74dbba7b7aaf",
    ("trees", "csv"):
        "6309496db4c880f70cf55cb5d7048a2fc1640899eda123c0a3280df22ccf5cf3",
    ("limit", "json"):
        "8cd7035a4fddebb099cdf72c16aae5bcfa8c992c7010c6ee7c4aa95582f0ded1",
    ("limit", "csv"):
        "6511cca8284207ce6902e18d52e44aecc05d08c7f4df2f54bdfcad87c99e225c",
    ("tail", "json"):
        "cef03849931c9d0941b7df0a7162d3f345e28e212295473703cd7ed2db0e2b83",
    ("tail", "csv"):
        "a6d86b78f8f80bd0472a51cf5ac99a5f95cf9217f72e22acaf01a32edadd1bca",
    ("compare-exact", "json"):
        "af23582408f92b78a585bae16c783f2accf1ba4d1044dc1edd81107bc34d0456",
    ("compare-exact", "csv"):
        "ae42b1c5da211179f34bc63fcad9fe8a853879c7d59666c6760a81dd335cdcf6",
    ("compare-float", "json"):
        "459bdba6bcd98d54741fa6cc12174d1e0e5e0e82644229905f66d3c7e4ddfdd9",
    ("compare-float", "csv"):
        "7378d908c9f0f0c1d2b96172a33e9c3311bea91c78b34f29e128bb24c33a8c67",
}

SIMULATE_CSV_GOLDEN = {
    "urn":
        "a2cd656991dc8014e9b994ea1ee58860065474a0d01cee9c7adc9d38d36713b5",
    "tower":
        "2467759f2ea00cb2cebc1688e260a0d05c54c82ddf335e03ebd2d6a387221451",
}


def digest(argvs, tmp_path):
    h = hashlib.sha256()
    out = tmp_path / "doc.out"
    for argv in argvs:
        argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
        assert main([*argv, "--out", str(out)]) == 0, argv
        h.update(out.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("case, fmt", sorted(GOLDEN))
def test_document_bytes_match_golden(case, fmt, tmp_path):
    if case.startswith("compare"):
        for name, argv in STORED.items():
            assert main([*argv, "--out", str(tmp_path / name)]) == 0, argv
    argvs = [[*argv, "--format", fmt] for argv in CASES[case]]
    assert digest(argvs, tmp_path) == GOLDEN[(case, fmt)]


@pytest.mark.parametrize("model", sorted(SIMULATE_CSV))
def test_simulate_csv_bytes_match_golden(model, tmp_path):
    argvs = [
        ["simulate", *SIMULATE_CSV[model], "--seed", seed, "--format", "csv"]
        for seed in ("0", "42")
    ]
    assert digest(argvs, tmp_path) == SIMULATE_CSV_GOLDEN[model]
