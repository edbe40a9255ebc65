"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.
"""

import json
import time
from fractions import Fraction as F

from avalanches.cli import main as cli_main
from avalanches.combinatorics import (
    cascade_weight,
    compositions,
    forest_identity_lhs,
    forest_identity_ordered_sum,
    identity_lhs,
    identity_rhs,
    induction_step_check,
    multinomial,
    tree_census,
)
from avalanches.distributions import (
    AvalancheParams,
    LimitParams,
    abelian_mean_closed_form,
    abelian_pmf,
    avalanche_pmf,
    conditional_pmf,
    expectation_identity_check,
    limit_pmf,
    pmf_mean,
    powerlaw_slope,
    tail_log_ratio,
)
from avalanches.distributions import _abel_term
from avalanches.stats import chi_square_gof, empirical_pmf, tv_distance
from avalanches.towers import (
    avalanche_pmf_general,
    make_tower_system,
    simulate_tower,
    tower_pmf_bruteforce,
)
from avalanches.urn import UrnConfig, simulate_urns, urn_pmf_bruteforce, urn_pmf_formula


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {tag}: {label}{tail}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_identity_suite():
    t0 = time.perf_counter()
    ok = all(identity_lhs(n) == identity_rhs(n) for n in range(1, 19))
    for n in range(1, 11):
        for s in range(1, n + 1):
            partial, remainder = induction_step_check(n, s)
            ok = ok and partial + remainder == identity_rhs(n)
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    report(1, "identity and induction split, n <= 18", ok, f"{dt:.2f}s")


def test_criterion_02_cayley_census():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        census = tree_census(n)
        ok = ok and census.total == identity_rhs(n)
        for c in compositions(n):
            ok = ok and census.profiles.get(c, 0) == multinomial(n, c) * cascade_weight(c)
    ok = ok and tree_census(5).total == 1296 and tree_census(6).total == 16807
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    report(2, "tree census totals and level profiles, n <= 6", ok, f"{dt:.2f}s")


def test_criterion_03_corrected_forest_identity():
    ok = all(forest_identity_lhs(n) == identity_rhs(n) for n in range(1, 13))
    ok = ok and all(
        forest_identity_ordered_sum(n) != identity_rhs(n) for n in range(2, 13)
    )
    report(3, "forest identity corrected; raw ordered sum overcounts", ok)


def _grid():
    pairs = []
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200):
        for p in (F(0), F(1, 3 * n), F(1, 2 * n), F(2, 3 * n), F(1, n + 1)):
            pairs.append((n, p))
        if n >= 2:
            pairs.append((n, F(2 * n + 1, 2 * n * (n + 1))))  # inside (1/(N+1), 1/N)
    return pairs


def test_criterion_04_normalization_and_mean_grid():
    pairs = _grid()
    ok = len(pairs) >= 50
    for n, p in pairs:
        params = AvalancheParams(n, p)
        for pmf in (avalanche_pmf(params), conditional_pmf(params)):
            ok = ok and sum(pmf.probs) == 1 and all(q >= 0 for q in pmf.probs)
        ab = abelian_pmf(params)
        ok = ok and sum(ab.probs) == 1
        ok = ok and pmf_mean(ab) == abelian_mean_closed_form(params)
        ok = ok and expectation_identity_check(params)
    report(4, f"exact normalization, mean, expectation identity on {len(pairs)} pairs", ok)


def test_criterion_05_urn_oracle():
    ok = True
    for n in range(1, 6):
        for m in range(n + 1, 9):
            cfg = UrnConfig(n, m)
            formula = urn_pmf_formula(cfg)
            ok = ok and urn_pmf_bruteforce(cfg).probs == formula.probs
            ok = ok and formula.probs == avalanche_pmf(AvalancheParams(n, F(1, m))).probs
    report(5, "urn brute force == formula == avalanche law, N <= 5, M <= 8", ok)


def test_criterion_06_tower_oracle():
    two = make_tower_system([(8, 1, 4)] * 2)
    three = make_tower_system([(8, 1, 3)] * 3)
    ok = tower_pmf_bruteforce(two).probs == (F(49, 64), F(12, 64), F(3, 64))
    ok = ok and tower_pmf_bruteforce(two).probs == avalanche_pmf(
        AvalancheParams(2, F(1, 8))
    ).probs
    ok = ok and tower_pmf_bruteforce(three).probs == avalanche_pmf(
        AvalancheParams(3, F(1, 8))
    ).probs
    for specs in ([(6, 1, 2), (8, 2, 2)], [(4, 1, 3), (5, 1, 3), (8, 2, 3)]):
        sys_ = make_tower_system(specs)
        ok = ok and tower_pmf_bruteforce(sys_).probs == avalanche_pmf_general(
            sys_.ps()
        ).probs
    report(6, "tower brute force == closed forms, homogeneous and mixed", ok)


def test_criterion_07_monte_carlo_campaigns():
    t0 = time.perf_counter()
    cfg = UrnConfig(20, 100)
    res = simulate_urns(cfg, 10**6, seed=42)
    exact = urn_pmf_formula(cfg)
    tv_urn = tv_distance(empirical_pmf(res, support_upper=20), exact)
    p_urn = chi_square_gof(res, exact).approx_p_value
    t_urn = time.perf_counter() - t0

    t0 = time.perf_counter()
    sys_ = make_tower_system([(64, 1, 8)] * 8)
    res_t = simulate_tower(sys_, 10**6, seed=42)
    exact_t = avalanche_pmf(AvalancheParams(8, F(1, 64)))
    tv_tower = tv_distance(empirical_pmf(res_t, support_upper=8), exact_t)
    p_tower = chi_square_gof(res_t, exact_t).approx_p_value
    t_tower = time.perf_counter() - t0

    ok = tv_urn <= 0.01 and p_urn > 0.001 and t_urn < 60.0
    ok = ok and tv_tower <= 0.01 and p_tower > 0.001 and t_tower < 60.0
    report(
        7,
        "1e6-trial urn and tower runs match theory",
        ok,
        f"urn tv={tv_urn:.4f} p={p_urn:.3f} {t_urn:.1f}s; "
        f"tower tv={tv_tower:.4f} p={p_tower:.3f} {t_tower:.1f}s",
    )


def test_criterion_08_tail_law():
    pmf = limit_pmf(LimitParams(1.0, 600))
    r100 = 100 * tail_log_ratio(pmf, 100)
    r500 = 500 * tail_log_ratio(pmf, 500)
    slope = powerlaw_slope(pmf, 50, 500)
    ok = abs(r100 - 1.5) <= 0.03 and abs(r500 - 1.5) <= 0.01
    ok = ok and abs(slope - (-1.5)) <= 0.05
    report(
        8,
        "critical tail ratios approach 3/2 and slope fits -3/2",
        ok,
        f"a*ratio(100)={r100:.4f} a*ratio(500)={r500:.4f} slope={slope:.3f}",
    )


def test_criterion_09_limit_consistency():
    n = 10**4
    ok = True
    worst = 0.0
    for alpha in (F(1, 2), F(9, 10), F(1)):
        p = alpha / n
        u, v, den = p.numerator, p.denominator, p.denominator**n
        lim = limit_pmf(LimitParams(float(alpha), 10))
        for a in range(11):
            # P(a) = t_a / v^n; int true division rounds it as float(Fraction)
            # would, without the Fraction's gcd on the big integers
            diff = abs(_abel_term(n, a, u, v) / den - lim.floats[a])
            worst = max(worst, diff)
            ok = ok and diff <= 1e-3
    report(9, "exact law at N=1e4 matches the limit law", ok, f"max|diff|={worst:.2e}")


def test_criterion_10_reproducibility(tmp_path, capsys):
    args = [
        "simulate", "--model", "urn", "--N", "5", "--M", "12",
        "--trials", "50000", "--seed", "2024",
    ]
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    assert cli_main(args + ["--shards", "3", "--out", str(a)]) == 0
    assert cli_main(args + ["--shards", "3", "--out", str(b)]) == 0
    assert cli_main(args + ["--shards", "4", "--out", str(c)]) == 0
    capsys.readouterr()
    ok = a.read_bytes() == b.read_bytes()
    da, dc = json.loads(a.read_text()), json.loads(c.read_text())
    ok = ok and da["histogram"] != dc["histogram"]  # stream derivation moved
    ok = ok and sum(da["histogram"].values()) == sum(dc["histogram"].values()) == 50000
    report(10, "byte-identical reruns; shard count only moves the streams", ok)
