"""Pinned bytes of `pmf` output for the three exact laws.

The digests were taken from the Fraction-per-term evaluators that the
integer kernel replaced; any change to a probability, its reduced form, a
label, or the decimal rendering changes them.
"""

import hashlib
from fractions import Fraction

import pytest

from avalanches.cli import main

NS = (1, 2, 3, 7, 20, 61)

GOLDEN = {
    ("avalanche", "json"):
        "99561d772cb1766b9a9dbfd160d04ad08ca5219dc3ce4fb52b882ec15eab9f24",
    ("avalanche", "csv"):
        "1cf4abb4e44ae40f2c283390d3ac33affc79a2232cd16242c0735bfe136718b5",
    ("abelian", "json"):
        "4fae2c1bcd4d920685fa2893a588bcea8107d7e93cd5bea82ed6839574d5427b",
    ("abelian", "csv"):
        "af4810fd4255171b7f61b8d4e759e26004c6337386e29b39ad09b172eeeed9b8",
    ("conditional", "json"):
        "a9703e036cbc6baed1b4e06ef86243e90288c4b54b4c788a9b74f7bcfaf61c17",
    ("conditional", "csv"):
        "6695a97696dea4f3dc6e15197ab03734ebf1a263a0b6c84cec61d0a5e51ebdf5",
}


def grid(model):
    """(N, p) points: p = 0, the closed endpoint 1/N where the law allows it,
    and interior points with unit and non-unit numerators."""
    for N in NS:
        ps = [Fraction(0), Fraction(1, N + 1), Fraction(2, 3 * N + 5), Fraction(3, 4 * N + 1)]
        if model != "abelian":
            ps.append(Fraction(1, N))
        for p in ps:
            yield N, p


def digest(model, fmt, tmp_path):
    h = hashlib.sha256()
    out = tmp_path / "pmf.out"
    for N, p in grid(model):
        law = ["--model", model, "--N", str(N), "--p", str(p)]
        rc = main(["pmf", *law, "--format", fmt, "--out", str(out)])
        assert rc == 0, (model, N, p)
        h.update(out.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("model, fmt", sorted(GOLDEN))
def test_pmf_bytes_match_golden(model, fmt, tmp_path):
    assert digest(model, fmt, tmp_path) == GOLDEN[(model, fmt)]
